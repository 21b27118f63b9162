//! [`GcHeap`]: the heap + root context bundle ordinary programs use.
//!
//! Everything here delegates to [`Heap`] and [`ApiCtx`]; the bundle's
//! contribution is the borrow discipline. All reads take `&self`, all
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
        let heap = Heap::new(config);
        let ctx = ApiCtx::new(&heap);
        GcHeap { heap, ctx }
    }

    /// Wraps an existing heap (raw-layer interop: the torture rig, the
    /// Scheme tiers). Raw handles into the heap stay valid.
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

    /// The root context (for the standalone [`ApiCtx`]-style calls).
    pub fn ctx(&self) -> &ApiCtx {
        &self.ctx
    }

    // -- allocation and handles ---------------------------------------

    /// Allocates `value` as a heap record; returns an owning root.
    pub fn alloc<T: Trace>(&mut self, value: &T) -> Root<T> {
        self.ctx.alloc(&mut self.heap, value)
    }

    /// Reborrows a root as a [`Gc`] tied to this borrow of the heap.
    pub fn get<'gc, T: Trace>(&'gc self, root: &Root<T>) -> Gc<'gc, T> {
        root.get(&self.heap)
    }

    /// Promotes a borrowed [`Gc`] to an owning [`Root`].
    pub fn root<T: Trace>(&self, gc: Gc<'_, T>) -> Root<T> {
        self.ctx.root(gc)
    }

    /// Re-roots a raw tagged value as a typed handle (type-checked).
    pub fn adopt<T: Trace>(&self, v: Value) -> Root<T> {
        self.ctx.adopt(&self.heap, v)
    }

    /// Lifts the record behind a root into its Rust mirror.
    pub fn load<T: Trace>(&self, root: &Root<T>) -> T {
        self.ctx.load(&self.heap, root.get(&self.heap))
    }

    /// Lifts the record behind a borrowed handle.
    pub fn load_gc<T: Trace>(&self, gc: Gc<'_, T>) -> T {
        self.ctx.load(&self.heap, gc)
    }

    /// [`GcHeap::load`] behind a [`Deref`](std::ops::Deref) read guard.
    pub fn read<T: Trace>(&self, root: &Root<T>) -> GcRead<T> {
        self.ctx.read(&self.heap, root)
    }

    /// Reads one typed field of the object behind `root`.
    pub fn field<T: Trace, F: Field>(&self, root: &Root<T>, i: usize) -> F {
        self.ctx.field(&self.heap, root.get(&self.heap), i)
    }

    /// Reads one typed field through a borrowed handle.
    pub fn field_gc<T: Trace, F: Field>(&self, gc: Gc<'_, T>, i: usize) -> F {
        self.ctx.field(&self.heap, gc, i)
    }

    /// Writes one typed field (write-barriered).
    pub fn set_field<T: Trace, F: Field>(&mut self, root: &Root<T>, i: usize, value: &F) {
        self.ctx.set_field(&mut self.heap, root, i, value)
    }

    // -- weaks and guardians -------------------------------------------

    /// Creates a typed weak reference to the object behind `root` (a weak
    /// slot of the root table; nothing is allocated in the heap).
    pub fn downgrade<T: Trace>(&mut self, root: &Root<T>) -> Weak<T> {
        Weak::new(&self.ctx, root)
    }

    /// Upgrades a weak reference, if the referent is still alive.
    pub fn upgrade<'gc, T: Trace>(&'gc self, weak: &Weak<T>) -> Option<Gc<'gc, T>> {
        weak.upgrade(&self.heap)
    }

    /// Creates a typed guardian.
    pub fn guardian<T: Trace>(&mut self) -> Guardian<T> {
        Guardian::new(&mut self.heap)
    }

    /// Registers the object behind `root` with `guardian`.
    pub fn guard<T: Trace>(&mut self, guardian: &Guardian<T>, root: &Root<T>) {
        guardian.register(&mut self.heap, root)
    }

    /// Polls `guardian` for one proven-dead object.
    pub fn poll<T: Trace>(&mut self, guardian: &Guardian<T>) -> Option<Root<T>> {
        guardian.poll(&mut self.heap, &self.ctx)
    }

    /// Drains `guardian` into owning roots.
    pub fn drain<T: Trace>(&mut self, guardian: &Guardian<T>) -> Vec<Root<T>> {
        guardian.drain(&mut self.heap, &self.ctx)
    }

    /// Drains `guardian` as lifted, `Send` payloads for a cleanup thread.
    pub fn drain_off_thread<T: Trace + Send>(
        &mut self,
        guardian: &Guardian<T>,
    ) -> OffThreadDrain<T> {
        guardian.drain_off_thread(&mut self.heap, &self.ctx)
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
