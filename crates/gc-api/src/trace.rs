//! The `Trace` lowering scheme: user structs as heap records.
//!
//! A [`Trace`] type maps to a record whose descriptor is an interned
//! symbol named [`Trace::NAME`] and whose fields are the struct's fields
//! [`encode`](Field::encode)d as tagged values, in declaration order.
//! There are no proc-macro dependencies in this offline workspace, so the
//! "derive" is the [`impl_trace!`](crate::impl_trace) macro-rules form:
//!
//! ```
//! use guardians_gc_api::{impl_trace, GcHeap, Root};
//!
//! impl_trace! {
//!     /// A doubly-linked tree node.
//!     pub struct Node {
//!         pub id: i64,
//!         pub label: String,
//!         pub left: Option<Root<Node>>,
//!         pub right: Option<Root<Node>>,
//!     }
//! }
//!
//! let mut heap = GcHeap::default();
//! let leaf = heap.alloc(&Node { id: 1, label: "leaf".into(), left: None, right: None });
//! let top = heap.alloc(&Node { id: 2, label: "top".into(), left: Some(leaf), right: None });
//! assert_eq!(heap.read(&top).left.as_ref().map(|r| heap.load(r).id), Some(1));
//! ```
//!
//! Edge fields are [`Root<T>`] / [`Option<Root<T>>`]: lowering stores the
//! referent's pointer word, lifting re-roots it. That makes a lifted
//! mirror self-sufficient (its children stay alive through the re-roots)
//! and makes `Send`ness compositional: any type holding an edge is
//! automatically `!Send`, which is what the off-thread guardian drain
//! bound keys on.

use crate::ctx::ApiCtx;
use crate::handle::Root;
use guardians_gc::{Heap, Value, FIXNUM_MAX, FIXNUM_MIN};

/// A type that lowers to (and lifts from) a fixed-shape heap record.
///
/// Implement via [`impl_trace!`](crate::impl_trace) (the derive-style path)
/// or by hand for
/// layouts the macro cannot express; the contract is that `lower` returns
/// exactly [`Trace::FIELDS`] values and `lift` inverts it.
pub trait Trace: Sized + 'static {
    /// Descriptor symbol name; must be unique per type within a context.
    /// [`impl_trace!`](crate::impl_trace) uses the type's module path and
    /// name (`crate::module::Type`), so two structs of the same name in
    /// different modules are different layouts.
    const NAME: &'static str;
    /// Number of record fields.
    const FIELDS: usize;
    /// Encodes the fields, in order. May allocate (strings, flonums);
    /// allocation never collects, so intermediate values cannot move.
    fn lower(&self, heap: &mut Heap, ctx: &ApiCtx) -> Vec<Value>;
    /// Decodes a record's fields back into the Rust mirror, re-rooting
    /// edge fields through `ctx`.
    fn lift(heap: &Heap, ctx: &ApiCtx, fields: &[Value]) -> Self;
}

/// A single lowered field.
pub trait Field: Sized + 'static {
    /// Encodes to one tagged value (may allocate, never collects).
    fn encode(&self, heap: &mut Heap, ctx: &ApiCtx) -> Value;
    /// Decodes from one tagged value.
    ///
    /// # Panics
    ///
    /// Panics when `v` is not this field type's encoding — a typed-layer
    /// invariant violation (e.g. raw-layer code rewrote the record).
    fn decode(heap: &Heap, ctx: &ApiCtx, v: Value) -> Self;
}

impl Field for i64 {
    fn encode(&self, _heap: &mut Heap, _ctx: &ApiCtx) -> Value {
        assert!(
            (FIXNUM_MIN..=FIXNUM_MAX).contains(self),
            "i64 field {self} outside the 61-bit fixnum range"
        );
        Value::fixnum(*self)
    }
    fn decode(_heap: &Heap, _ctx: &ApiCtx, v: Value) -> Self {
        assert!(v.is_fixnum(), "expected fixnum field, found {v:?}");
        v.as_fixnum()
    }
}

impl Field for bool {
    fn encode(&self, _heap: &mut Heap, _ctx: &ApiCtx) -> Value {
        Value::bool(*self)
    }
    fn decode(_heap: &Heap, _ctx: &ApiCtx, v: Value) -> Self {
        if v == Value::TRUE {
            true
        } else if v == Value::FALSE {
            false
        } else {
            panic!("expected boolean field, found {v:?}")
        }
    }
}

impl Field for char {
    fn encode(&self, _heap: &mut Heap, _ctx: &ApiCtx) -> Value {
        Value::char(*self)
    }
    fn decode(_heap: &Heap, _ctx: &ApiCtx, v: Value) -> Self {
        v.as_char()
            .unwrap_or_else(|| panic!("expected char field, found {v:?}"))
    }
}

impl Field for f64 {
    fn encode(&self, heap: &mut Heap, _ctx: &ApiCtx) -> Value {
        heap.make_flonum(*self)
    }
    fn decode(heap: &Heap, _ctx: &ApiCtx, v: Value) -> Self {
        heap.flonum_value(v)
    }
}

impl Field for String {
    fn encode(&self, heap: &mut Heap, _ctx: &ApiCtx) -> Value {
        heap.make_string(self)
    }
    fn decode(heap: &Heap, _ctx: &ApiCtx, v: Value) -> Self {
        String::from_utf8(heap.string_bytes(v).collect()).expect("heap strings are UTF-8")
    }
}

impl Field for Vec<u8> {
    fn encode(&self, heap: &mut Heap, _ctx: &ApiCtx) -> Value {
        let bv = heap.make_bytevector(self.len(), 0);
        for (i, b) in self.iter().enumerate() {
            heap.bytevector_set(bv, i, *b);
        }
        bv
    }
    fn decode(heap: &Heap, _ctx: &ApiCtx, v: Value) -> Self {
        heap.bytevector_value(v)
    }
}

/// An always-present edge to another typed object.
impl<T: Trace> Field for Root<T> {
    fn encode(&self, _heap: &mut Heap, _ctx: &ApiCtx) -> Value {
        self.value()
    }
    fn decode(heap: &Heap, ctx: &ApiCtx, v: Value) -> Self {
        ctx.adopt(heap, v)
    }
}

/// An optional edge; `None` lowers to nil (a typed pointer is never nil).
impl<T: Trace> Field for Option<Root<T>> {
    fn encode(&self, _heap: &mut Heap, _ctx: &ApiCtx) -> Value {
        self.as_ref().map_or(Value::NIL, Root::value)
    }
    fn decode(heap: &Heap, ctx: &ApiCtx, v: Value) -> Self {
        if v.is_nil() {
            None
        } else {
            Some(ctx.adopt(heap, v))
        }
    }
}

/// Checks that `v` is a record of this heap whose descriptor is `T`'s
/// interned symbol; every typed accessor funnels through this.
///
/// # Panics
///
/// Panics with the expected/actual layout names on mismatch.
pub(crate) fn expect_typed<T: Trace>(heap: &Heap, v: Value) {
    assert!(
        heap.is_record(v),
        "expected a {} record, found non-record {v:?}",
        T::NAME
    );
    let desc = heap.record_descriptor(v);
    let ok = heap.is_symbol(desc) && heap.symbol_name(desc) == T::NAME;
    assert!(
        ok,
        "typed-layer descriptor mismatch: expected {}, found {}",
        T::NAME,
        if heap.is_symbol(desc) {
            heap.symbol_name(desc)
        } else {
            format!("{desc:?}")
        }
    );
}

/// Derive-style [`Trace`] implementation for a struct of [`Field`]s.
///
/// Expands to the struct definition itself plus a field-by-field `Trace`
/// impl; see the [module docs](crate::trace) for an example. Field order
/// is layout order, so reordering fields changes the record layout (as
/// with any derive over a record representation).
#[macro_export]
macro_rules! impl_trace {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field : $fty),*
        }

        impl $crate::Trace for $name {
            const NAME: &'static str = concat!(module_path!(), "::", stringify!($name));
            const FIELDS: usize = $crate::impl_trace!(@count $($field)*);

            fn lower(
                &self,
                heap: &mut $crate::RawHeap,
                ctx: &$crate::ApiCtx,
            ) -> Vec<$crate::Value> {
                vec![$($crate::Field::encode(&self.$field, heap, ctx)),*]
            }

            fn lift(
                heap: &$crate::RawHeap,
                ctx: &$crate::ApiCtx,
                fields: &[$crate::Value],
            ) -> Self {
                let mut it = fields.iter().copied();
                $name {
                    $($field: $crate::Field::decode(
                        heap,
                        ctx,
                        it.next().expect("record shorter than declared layout"),
                    )),*
                }
            }
        }
    };
    (@count) => { 0usize };
    (@count $head:ident $($tail:ident)*) => { 1usize + $crate::impl_trace!(@count $($tail)*) };
}
