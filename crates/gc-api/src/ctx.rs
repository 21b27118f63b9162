//! The typed-API root context: the heap's root table, plus the per-type
//! descriptor table.
//!
//! [`ApiCtx`] is the piece of state the typed layer needs *besides* the
//! heap itself: a clone of the heap's [`RootSet`], through which every
//! [`Root<T>`] claims a strong slot and every [`Weak<T>`](crate::Weak) a
//! weak slot in the heap's own root table, and one interned descriptor
//! symbol per [`Trace`] type (rooted the same way) naming its record
//! layout. Keeping it separate from the heap lets an embedding that
//! already owns a [`Heap`] — the torture rig, the Scheme tiers — bolt the
//! typed API on without restructuring, while [`GcHeap`](crate::GcHeap)
//! bundles the two for ordinary programs.

use crate::handle::{Gc, GcRead, Root};
use crate::trace::{expect_typed, Field, Trace};
use guardians_gc::{Heap, RootSet, Rooted, Value};
use std::any::TypeId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;

/// Root-table handle + descriptor table for the typed front-end.
///
/// The [`RootSet`] claims slots from `&ApiCtx`, which is what lets
/// [`Field::decode`] re-root edge fields during a read-only
/// [`Trace::lift`]. A typed root is a [`Rooted`], so it costs what a raw
/// root costs: dropping its last clone frees the slot for the next claim.
pub struct ApiCtx {
    pub(crate) roots: RootSet,
    descriptors: RefCell<HashMap<TypeId, Rooted>>,
}

impl ApiCtx {
    /// Creates a context whose roots are `heap`'s.
    ///
    /// A context only makes sense with the heap it was created for;
    /// mixing handles across heaps is a logic error the accessors catch
    /// as type-check panics, never memory unsafety.
    pub fn new(heap: &Heap) -> ApiCtx {
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
    pub fn descriptor<T: Trace>(&self, heap: &mut Heap) -> Value {
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
    fn check_typed<T: Trace>(&self, heap: &Heap, v: Value) {
        let ours = self
            .descriptors
            .borrow()
            .get(&TypeId::of::<T>())
            .map(Rooted::get);
        if !ours.is_some_and(|d| heap.is_record(v) && heap.record_descriptor(v) == d) {
            expect_typed::<T>(heap, v);
        }
    }

    /// Allocates `value` as a heap record and returns an owning root.
    ///
    /// Lowering runs first (child allocations for strings, flonums, …),
    /// then the record itself; allocation never collects in this heap, so
    /// the intermediate [`Value`]s cannot move before the record captures
    /// them. Collections happen only at explicit safe points
    /// ([`Heap::collect`] / [`Heap::maybe_collect`] / [`Heap::gc_step`]),
    /// all of which take `&mut Heap` — which is exactly the borrow a live
    /// [`Gc`] forbids.
    pub fn alloc<T: Trace>(&self, heap: &mut Heap, value: &T) -> Root<T> {
        let fields = value.lower(heap, self);
        debug_assert_eq!(fields.len(), T::FIELDS, "{}::lower field count", T::NAME);
        let desc = self.descriptor::<T>(heap);
        let rec = heap.make_record(desc, &fields);
        Root {
            slot: self.roots.root(rec),
            _marker: PhantomData,
        }
    }

    /// Re-roots a raw tagged value as a typed handle, checking that it is
    /// a record whose descriptor is `T`'s symbol.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a `T` record of this heap.
    pub fn adopt<T: Trace>(&self, heap: &Heap, v: Value) -> Root<T> {
        self.check_typed::<T>(heap, v);
        Root {
            slot: self.roots.root(v),
            _marker: PhantomData,
        }
    }

    /// Promotes a borrowed [`Gc`] to an owning [`Root`] — the reborrow
    /// escape valve: root what you need, then release the heap borrow and
    /// cross the safe point through the root.
    pub fn root<T: Trace>(&self, gc: Gc<'_, T>) -> Root<T> {
        Root {
            slot: self.roots.root(gc.value()),
            _marker: PhantomData,
        }
    }

    /// Lifts the record behind `gc` back into its Rust mirror.
    pub fn load<T: Trace>(&self, heap: &Heap, gc: Gc<'_, T>) -> T {
        let v = gc.value();
        self.check_typed::<T>(heap, v);
        let fields: Vec<Value> = (0..heap.record_len(v))
            .map(|i| heap.record_ref(v, i))
            .collect();
        T::lift(heap, self, &fields)
    }

    /// [`ApiCtx::load`] through a root, wrapped in a [`Deref`] read guard.
    ///
    /// [`Deref`]: std::ops::Deref
    pub fn read<T: Trace>(&self, heap: &Heap, root: &Root<T>) -> GcRead<T> {
        GcRead {
            value: self.load(heap, root.get(heap)),
        }
    }

    /// Reads field `i` of a typed record as `F`.
    ///
    /// Routed through [`Heap::record_ref`], so the read chases forwarding
    /// pointers while an incremental collection is in flight — correct
    /// under both schedules.
    ///
    /// # Panics
    ///
    /// Panics if `i >= T::FIELDS` or the field does not decode as `F`.
    pub fn field<T: Trace, F: Field>(&self, heap: &Heap, gc: Gc<'_, T>, i: usize) -> F {
        assert!(
            i < T::FIELDS,
            "{} has {} fields, no field {i}",
            T::NAME,
            T::FIELDS
        );
        F::decode(heap, self, heap.record_ref(gc.value(), i))
    }

    /// Writes field `i` of the record behind `root` as `F`.
    ///
    /// Routed through [`Heap::record_set`], which applies the
    /// generational/incremental write barrier; takes the object as a
    /// [`Root`] because encoding may allocate and mutation is a `&mut
    /// Heap` operation, under which no [`Gc`] can be live.
    pub fn set_field<T: Trace, F: Field>(
        &self,
        heap: &mut Heap,
        root: &Root<T>,
        i: usize,
        value: &F,
    ) {
        assert!(
            i < T::FIELDS,
            "{} has {} fields, no field {i}",
            T::NAME,
            T::FIELDS
        );
        let encoded = value.encode(heap, self);
        heap.record_set(root.value(), i, encoded);
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
