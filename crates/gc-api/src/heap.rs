//! [`GcHeap`]: the typed layer's one front door, a heap bundled with its
//! typed state.
//!
//! Every typed operation is a method here, with one body: the handle
//! types ([`Root`], [`Weak`], [`Guardian`]) take no heap, and [`ApiCtx`]
//! is the state the methods share. All reads take `&self`, all
//! mutations and every collection safe point take `&mut self` — so the
//! borrow checker proves that no borrowed [`Gc`] handle survives a safe
//! point, which is the typed layer's central guarantee (pinned by the
//! `tests/ui/` compile-fail suite).

use crate::ctx::ApiCtx;
use crate::guardian::{Guardian, OffThreadDrain};
use crate::handle::{Gc, GcRead, Root};
use crate::trace::{Field, Trace};
use crate::weak::Weak;
use guardians_gc::{CollectionReport, GcConfig, GcError, Heap, HeapCensus, HeapStats, Value};
use std::marker::PhantomData;

/// A garbage-collected heap with the typed front-end attached.
pub struct GcHeap {
    heap: Heap,
    ctx: ApiCtx,
}

impl GcHeap {
    /// Creates a heap with the given collector configuration — the same
    /// [`GcConfig`] the raw layer takes, so the typed API runs under either
    /// schedule (stop-the-world, `pause_budget`).
    pub fn new(config: GcConfig) -> GcHeap {
        GcHeap::from_heap(Heap::new(config))
    }

    /// Wraps an existing heap (raw-layer interop: the torture rig, a
    /// zone's typed backend). Raw handles into the heap stay valid.
    pub fn from_heap(heap: Heap) -> GcHeap {
        let ctx = ApiCtx::new(&heap);
        GcHeap { heap, ctx }
    }

    // -- raw-layer escape hatches ------------------------------------

    /// The underlying heap, shared.
    pub fn raw(&self) -> &Heap {
        &self.heap
    }

    /// The underlying heap, exclusive. The typed discipline is a
    /// discipline, not a jail: raw-layer mutation stays available, and
    /// misuse surfaces as typed-accessor panics, never unsafety.
    pub fn raw_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// The typed layer's state beside the heap (its root-table handle and
    /// descriptor table); [`ApiCtx::live_roots`] counts the slots in use.
    pub fn ctx(&self) -> &ApiCtx {
        &self.ctx
    }

    // -- allocation and handles ---------------------------------------

    /// Allocates `value` as a heap record and returns an owning root.
    ///
    /// Lowering runs first (child allocations for strings, flonums, …),
    /// then the record itself; allocation never collects in this heap, so
    /// the intermediate [`Value`]s cannot move before the record captures
    /// them. Collections happen only at the `&mut self` safe points below —
    /// exactly the borrow a live [`Gc`] forbids.
    pub fn alloc<T: Trace>(&mut self, value: &T) -> Root<T> {
        let fields = value.lower(&mut self.heap, &self.ctx);
        debug_assert_eq!(fields.len(), T::FIELDS, "{}::lower field count", T::NAME);
        let desc = self.ctx.descriptor::<T>(&mut self.heap);
        let rec = self.heap.make_record(desc, &fields);
        self.ctx.claim(rec)
    }

    /// Reborrows a root as a [`Gc`] tied to this borrow of the heap — the
    /// cheap handle to pass around between safe points.
    pub fn get<'gc, T: Trace>(&'gc self, root: &Root<T>) -> Gc<'gc, T> {
        Gc::from_value(root.value())
    }

    /// Promotes a borrowed [`Gc`] to an owning [`Root`] — the reborrow
    /// escape valve: root what you need, then release the heap borrow and
    /// cross the safe point through the root.
    pub fn root<T: Trace>(&self, gc: Gc<'_, T>) -> Root<T> {
        self.ctx.claim(gc.value())
    }

    /// Re-roots a raw tagged value as a typed handle.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a `T` record of this heap.
    pub fn adopt<T: Trace>(&self, v: Value) -> Root<T> {
        self.ctx.adopt(&self.heap, v)
    }

    /// Lifts the record behind a root into its Rust mirror.
    pub fn load<T: Trace>(&self, root: &Root<T>) -> T {
        self.load_gc(self.get(root))
    }

    /// Lifts the record behind a borrowed handle into its Rust mirror.
    pub fn load_gc<T: Trace>(&self, gc: Gc<'_, T>) -> T {
        let v = gc.value();
        self.ctx.check_typed::<T>(&self.heap, v);
        let fields: Vec<Value> = (0..self.heap.record_len(v))
            .map(|i| self.heap.record_ref(v, i))
            .collect();
        T::lift(&self.heap, &self.ctx, &fields)
    }

    /// [`GcHeap::load`] behind a [`Deref`](std::ops::Deref) read guard.
    pub fn read<T: Trace>(&self, root: &Root<T>) -> GcRead<T> {
        GcRead {
            value: self.load(root),
        }
    }

    /// Reads one typed field of the object behind `root`.
    pub fn field<T: Trace, F: Field>(&self, root: &Root<T>, i: usize) -> F {
        self.field_gc(self.get(root), i)
    }

    /// Reads field `i` of a typed record as `F`. The handle's type was
    /// checked when it was claimed, so the read trusts the layout.
    ///
    /// Routed through [`Heap::record_ref`], so the read chases forwarding
    /// pointers while an incremental collection is in flight.
    ///
    /// # Panics
    ///
    /// Panics if `i >= T::FIELDS` or the field does not decode as `F`.
    pub fn field_gc<T: Trace, F: Field>(&self, gc: Gc<'_, T>, i: usize) -> F {
        assert_field::<T>(i);
        F::decode(&self.heap, &self.ctx, self.heap.record_ref(gc.value(), i))
    }

    /// Writes field `i` of the record behind `root` as `F`.
    ///
    /// Routed through [`Heap::record_set`], which applies the write
    /// barrier; takes the object as a [`Root`] because encoding may
    /// allocate, under which no [`Gc`] can be live.
    ///
    /// # Panics
    ///
    /// Panics if `i >= T::FIELDS`.
    pub fn set_field<T: Trace, F: Field>(&mut self, root: &Root<T>, i: usize, value: &F) {
        assert_field::<T>(i);
        let encoded = value.encode(&mut self.heap, &self.ctx);
        self.heap.record_set(root.value(), i, encoded);
    }

    // -- weaks and guardians -------------------------------------------

    /// Creates a typed weak reference to the object behind `root` (a weak
    /// slot of the root table; nothing is allocated in the heap).
    pub fn downgrade<T: Trace>(&mut self, root: &Root<T>) -> Weak<T> {
        Weak {
            slot: self.ctx.roots.weak(root.value()),
            _marker: PhantomData,
        }
    }

    /// The referent of `weak`, if it has not been reclaimed. The returned
    /// [`Gc`] is a heap borrow like any other — root it to hold it across
    /// a safe point.
    ///
    /// Between the increments of a collection the slot may hold a
    /// from-space address whose object has already been copied; the read
    /// goes through [`Heap::resolve_read`], as a car read does.
    pub fn upgrade<'gc, T: Trace>(&'gc self, weak: &Weak<T>) -> Option<Gc<'gc, T>> {
        let v = self.heap.resolve_read(weak.slot.get());
        if v.is_false() {
            return None;
        }
        self.ctx.check_typed::<T>(&self.heap, v);
        Some(Gc::from_value(v))
    }

    /// Creates a typed guardian. Allocates the two-pair tconc.
    pub fn guardian<T: Trace>(&mut self) -> Guardian<T> {
        Guardian::from_untyped(self.heap.make_guardian())
    }

    /// Registers the object behind `root` with `guardian` — the paper's
    /// `(G obj)`. The registration itself does not keep the object alive.
    pub fn guard<T: Trace>(&mut self, guardian: &Guardian<T>, root: &Root<T>) {
        guardian.raw.register(&mut self.heap, root.value());
    }

    /// Retrieves one object `guardian` has proven inaccessible since its
    /// registration, as a fresh owning root — `None` when the
    /// inaccessible group is empty.
    ///
    /// # Panics
    ///
    /// Panics if the queue front is not a `T` record — the guardian was
    /// shared with raw-layer registrations of another shape.
    pub fn poll<T: Trace>(&mut self, guardian: &Guardian<T>) -> Option<Root<T>> {
        let v = guardian.raw.poll(&mut self.heap)?;
        Some(self.ctx.adopt(&self.heap, v))
    }

    /// Drains every object `guardian` currently holds, rooted.
    pub fn drain<T: Trace>(&mut self, guardian: &Guardian<T>) -> Vec<Root<T>> {
        std::iter::from_fn(|| self.poll(guardian)).collect()
    }

    /// Drains every object `guardian` currently holds *lifted* into its
    /// Rust mirror, as an iterator that may be moved to another thread.
    /// The `T: Send` bound is the off-thread safety rule: types holding
    /// heap handles are `!Send` and cannot take this path.
    pub fn drain_off_thread<T: Trace + Send>(
        &mut self,
        guardian: &Guardian<T>,
    ) -> OffThreadDrain<T> {
        // Lift while still on the mutator thread; the roots are transient
        // and dropped before the iterator escapes.
        let items: Vec<T> = self.drain(guardian).iter().map(|r| self.load(r)).collect();
        OffThreadDrain {
            items: items.into_iter(),
        }
    }

    // -- safe points and telemetry -------------------------------------

    /// Collects generations `0..=gen` — a safe point (`&mut self`).
    pub fn collect(&mut self, gen: u8) -> &CollectionReport {
        self.heap.collect(gen)
    }

    /// The policy-driven safe point: collects when the allocation trigger
    /// has tripped, and runs one bounded increment per call under a
    /// `pause_budget`.
    pub fn maybe_collect(&mut self) -> Option<&CollectionReport> {
        self.heap.maybe_collect()
    }

    /// Fallible [`GcHeap::collect`]; see [`Heap::try_collect`].
    ///
    /// # Errors
    ///
    /// [`GcError::Exhausted`] (heap untouched) on insufficient budget.
    #[must_use = "a dropped Exhausted error silently skips the fault-injection path; handle or propagate it"]
    pub fn try_collect(&mut self, gen: u8) -> Result<&CollectionReport, GcError> {
        self.heap.try_collect(gen)
    }

    /// Runs one increment of a suspended bounded-pause collection.
    pub fn gc_step(&mut self) -> Option<&CollectionReport> {
        self.heap.gc_step()
    }

    /// Cumulative heap statistics.
    pub fn stats(&self) -> &HeapStats {
        self.heap.stats()
    }

    /// Live-heap census.
    pub fn census(&self) -> HeapCensus {
        self.heap.census()
    }

    /// The most recent collection's report.
    pub fn last_report(&self) -> Option<&CollectionReport> {
        self.heap.last_report()
    }
}

/// Panics unless `T` records have a field `i`.
fn assert_field<T: Trace>(i: usize) {
    assert!(
        i < T::FIELDS,
        "{} has {} fields, no field {i}",
        T::NAME,
        T::FIELDS
    );
}

impl Default for GcHeap {
    fn default() -> GcHeap {
        GcHeap::new(GcConfig::new())
    }
}

impl std::fmt::Debug for GcHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcHeap")
            .field("ctx", &self.ctx)
            .finish_non_exhaustive()
    }
}
