//! The typed layer's state beside the heap: the heap's root table, plus
//! the per-type descriptor table.
//!
//! [`ApiCtx`] is internal state of a [`GcHeap`](crate::GcHeap): a clone of
//! the heap's [`RootSet`], through which every [`Root<T>`] claims a strong
//! slot and every [`Weak<T>`](crate::Weak) a weak slot in the heap's own
//! root table, and one interned descriptor symbol per [`Trace`] type
//! (rooted the same way) naming its record layout. The type is public only
//! because [`Trace`] and [`Field`](crate::Field) signatures name it;
//! every typed operation is a [`GcHeap`](crate::GcHeap) method.

use crate::handle::Root;
use crate::trace::{expect_typed, Trace};
use guardians_gc::{Heap, RootSet, Rooted, Value};
use std::any::TypeId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;

/// Root-table handle + descriptor table for the typed front-end.
///
/// The [`RootSet`] claims slots from `&ApiCtx`, which is what lets
/// [`Field::decode`](crate::Field::decode) re-root edge fields during a
/// read-only [`Trace::lift`]. A typed root is a [`Rooted`], so it costs
/// what a raw root costs: dropping its last clone frees the slot for the
/// next claim.
pub struct ApiCtx {
    pub(crate) roots: RootSet,
    descriptors: RefCell<HashMap<TypeId, Rooted>>,
}

impl ApiCtx {
    /// Creates a context whose roots are `heap`'s.
    pub(crate) fn new(heap: &Heap) -> ApiCtx {
        ApiCtx {
            roots: heap.roots(),
            descriptors: RefCell::new(HashMap::new()),
        }
    }

    /// Root-table slots in use, strong and weak: typed roots and weaks,
    /// the descriptor symbols, and every raw [`Rooted`] of the heap (a
    /// guardian's tconc, say) — [`RootSet::live_slots`]. The end-to-end
    /// benchmark reports its peak as `gc-api.live_roots_peak`.
    pub fn live_roots(&self) -> usize {
        self.roots.live_slots()
    }

    /// The interned, rooted descriptor symbol for `T`'s record layout.
    /// Allocates (string + symbol) on first use per type, per context.
    pub(crate) fn descriptor<T: Trace>(&self, heap: &mut Heap) -> Value {
        if let Some(r) = self.descriptors.borrow().get(&TypeId::of::<T>()) {
            return r.get();
        }
        let sym = heap.make_symbol(T::NAME);
        let rooted = heap.root(sym);
        self.descriptors
            .borrow_mut()
            .insert(TypeId::of::<T>(), rooted);
        sym
    }

    /// [`expect_typed`] with a fast path: a record whose descriptor is this
    /// context's symbol for `T` passes on one compare, so the check costs
    /// the same whatever the length of `T::NAME`.
    pub(crate) fn check_typed<T: Trace>(&self, heap: &Heap, v: Value) {
        let ours = self
            .descriptors
            .borrow()
            .get(&TypeId::of::<T>())
            .map(Rooted::get);
        if !ours.is_some_and(|d| heap.is_record(v) && heap.record_descriptor(v) == d) {
            expect_typed::<T>(heap, v);
        }
    }

    /// Roots a raw tagged value as a typed handle, checking that it is a
    /// `T` record — the one claim path from a raw value (edge fields,
    /// guardian polls, [`GcHeap::adopt`](crate::GcHeap::adopt)).
    ///
    /// Between the increments of a collection `v` may be the from-space
    /// address of an object already copied: the slot holds
    /// [`Heap::resolve_read`]`(v)`, the copy's address, as every other
    /// root does after the roots phase.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a `T` record of this heap.
    pub(crate) fn adopt<T: Trace>(&self, heap: &Heap, v: Value) -> Root<T> {
        let v = heap.resolve_read(v);
        self.check_typed::<T>(heap, v);
        self.claim(v)
    }

    /// Claims a strong root-table slot for `v` as a `Root<T>`, unchecked.
    pub(crate) fn claim<T: Trace>(&self, v: Value) -> Root<T> {
        Root {
            slot: self.roots.root(v),
            _marker: PhantomData,
        }
    }
}

impl std::fmt::Debug for ApiCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApiCtx")
            .field("live_roots", &self.live_roots())
            .field("descriptors", &self.descriptors.borrow().len())
            .finish()
    }
}
