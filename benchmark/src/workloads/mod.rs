//! The seven workloads and the plumbing they share.
//!
//! A workload is traffic plus a collector configuration. One *repetition*
//! builds a fresh fixture on a fresh unbounded `SegmentPool` — every heap
//! of the fixture draws on it, so its `peak_outstanding` is the fixture's
//! exact peak footprint — (timed as set-up,
//! warm-up ops included), then runs a fixed number of individually timed
//! ops, then checks the outcome. Every repetition of a run therefore
//! sees the same op stream on the same starting state, which is what
//! makes the count-type metrics repeat exactly on the serial workloads.

pub mod fleet_requests;
pub mod guardian_pool;
pub mod heap_churn;
pub mod resident_cache;
pub mod scheme_eval;

use crate::trace::{Span, Tracer};
use guardians_gc::{Heap, SegmentPool};
use guardians_segments::SEGMENT_BYTES;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The workloads, in the order they are run and reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HeapChurn,
    ResidentCache,
    ResidentCachePar2,
    GuardianPool,
    GuardianPoolInc200,
    SchemeEval,
    FleetRequests,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::HeapChurn,
        Workload::ResidentCache,
        Workload::ResidentCachePar2,
        Workload::GuardianPool,
        Workload::GuardianPoolInc200,
        Workload::SchemeEval,
        Workload::FleetRequests,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HeapChurn => "heap_churn",
            Workload::ResidentCache => "resident_cache",
            Workload::ResidentCachePar2 => "resident_cache_par2",
            Workload::GuardianPool => "guardian_pool",
            Workload::GuardianPoolInc200 => "guardian_pool_inc200",
            Workload::SchemeEval => "scheme_eval",
            Workload::FleetRequests => "fleet_requests",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the collector schedule is serial stop-the-world, so every
    /// count-type metric must repeat exactly.
    pub fn is_serial(self) -> bool {
        !matches!(
            self,
            Workload::ResidentCachePar2 | Workload::GuardianPoolInc200
        )
    }

    /// Runs one repetition.
    pub fn run_rep(self, p: &RepParams, tr: &mut Tracer) -> Rep {
        match self {
            Workload::HeapChurn => heap_churn::run_rep(p, tr),
            Workload::ResidentCache => resident_cache::run_rep(p, 1, tr),
            Workload::ResidentCachePar2 => resident_cache::run_rep(p, 2, tr),
            Workload::GuardianPool => guardian_pool::run_rep(p, None, tr),
            Workload::GuardianPoolInc200 => {
                guardian_pool::run_rep(p, Some(Duration::from_micros(200)), tr)
            }
            Workload::SchemeEval => scheme_eval::run_rep(p, tr),
            Workload::FleetRequests => fleet_requests::run_rep(p, tr),
        }
    }
}

/// What one repetition is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RepParams {
    pub seed: u64,
    /// Multiplies every op count (and nothing else): 1 in a measured
    /// repetition; the process warm-up, `check` and the unit tests run the
    /// same traffic shape in miniature.
    pub scale: f64,
}

impl RepParams {
    /// `n` ops scaled, never fewer than `floor`.
    pub fn scaled(&self, n: u64, floor: u64) -> u64 {
        ((n as f64 * self.scale).round() as u64).max(floor)
    }
}

/// What one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Fixture construction, stream generation and warm-up ops.
    pub setup_s: f64,
    /// Wall time of the timed ops.
    pub wall_s: f64,
    pub ops: u64,
    /// Ops checked outside the timed closed loop (cold forms, open-loop
    /// and router requests): attempted, but not part of `ops_per_s`.
    pub extra_attempted: u64,
    pub failed: u64,
    /// Per-op latency, including any collection inside the op.
    pub op_ns: Vec<u32>,
    /// Safe points (or ops) during which the collector ran.
    pub pause_ns: Vec<u32>,
    /// Collector time inside `wall_s`.
    pub gc_s: f64,
    /// High-water mark of the pool every heap of the fixture draws on.
    pub peak_segments: u64,
    /// Fingerprint of the generated op stream.
    pub stream_hash: u64,
    /// Sample sets behind workload-specific percentiles
    /// (`reclaim_lag_ops`, `cold_eval_ns`, `open_ns`, ...).
    pub samples: BTreeMap<&'static str, Vec<u32>>,
    /// Per-layer values of this repetition, by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Rep {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn peak_heap_mb(&self) -> f64 {
        (self.peak_segments * SEGMENT_BYTES as u64) as f64 / (1024.0 * 1024.0)
    }
}

/// Saturating nanoseconds in 32 bits: 4.29 s is far beyond any single op
/// or pause here, and halves the sample buffers.
pub fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Per-op and per-pause timing of one pass over some ops.
pub struct Recorder {
    pub op_ns: Vec<u32>,
    pub pause_ns: Vec<u32>,
    /// Increments of a bounded-pause collection that did not finish it.
    pub increment_ns: Vec<u32>,
    /// The completing increment: atomic guardian and weak passes.
    pub terminal_ns: Vec<u32>,
    pub pause_total: Duration,
    start: Instant,
    last: Instant,
}

impl Recorder {
    /// Starts the clock, with room for `ops` samples so the timed loop
    /// never reallocates.
    pub fn start(ops: usize) -> Recorder {
        let now = Instant::now();
        Recorder {
            op_ns: Vec::with_capacity(ops),
            pause_ns: Vec::with_capacity(ops / 32 + 1024),
            increment_ns: Vec::new(),
            terminal_ns: Vec::new(),
            pause_total: Duration::ZERO,
            start: now,
            last: now,
        }
    }

    /// Ends the current op at `now`; the next op starts at the same
    /// instant, so op latencies tile the wall time.
    #[inline]
    pub fn op_done(&mut self, now: Instant) {
        self.op_ns.push(ns32(now - self.last));
        self.last = now;
    }

    #[inline]
    pub fn pause(&mut self, d: Duration) {
        self.pause_ns.push(ns32(d));
        self.pause_total += d;
    }

    pub fn wall(&self) -> Duration {
        self.last - self.start
    }

    /// Moves the timings into `rep`.
    pub fn finish(self, rep: &mut Rep) {
        rep.wall_s = self.wall().as_secs_f64();
        rep.ops = self.op_ns.len() as u64;
        rep.gc_s = self.pause_total.as_secs_f64();
        rep.op_ns = self.op_ns;
        rep.pause_ns = self.pause_ns;
        if !self.increment_ns.is_empty() || !self.terminal_ns.is_empty() {
            rep.samples.insert("increment_ns", self.increment_ns);
            rep.samples.insert("terminal_ns", self.terminal_ns);
        }
    }
}

/// The harness-timed safe point of the raw-heap and `gc-api` workloads:
/// calls `maybe_collect` and counts the call as a pause when a
/// collection or an increment ran during it. Returns the instant the
/// call returned, which is also the op's end.
#[inline]
pub fn safe_point(heap: &mut Heap, tr: &mut Tracer, rec: &mut Recorder) -> Instant {
    timed_collector_call(heap, tr, rec, |heap| heap.maybe_collect().is_some())
}

/// A safe point that runs the bounded-pause collection in flight to its
/// end instead of one more increment; timed and counted like
/// [`safe_point`].
pub fn finish_collection(heap: &mut Heap, tr: &mut Tracer, rec: &mut Recorder) -> Instant {
    timed_collector_call(heap, tr, rec, |heap| {
        // With a collection in flight `collect` finishes that one; the
        // generation named applies to no cycle.
        heap.collect(0);
        true
    })
}

/// Times `call`, which tells whether it finished a collection.
#[inline]
fn timed_collector_call(
    heap: &mut Heap,
    tr: &mut Tracer,
    rec: &mut Recorder,
    call: impl FnOnce(&mut Heap) -> bool,
) -> Instant {
    let count_before = heap.collection_count();
    let in_flight_before = heap.incremental_in_progress();
    let t0 = Instant::now();
    tr.enter(Span::GcCollect);
    let finished = call(heap);
    tr.exit();
    let t1 = Instant::now();
    if finished
        || in_flight_before
        || heap.incremental_in_progress()
        || heap.collection_count() != count_before
    {
        let d = t1 - t0;
        rec.pause(d);
        if heap.config().pause_budget.is_some() {
            if finished {
                rec.terminal_ns.push(ns32(d));
            } else {
                rec.increment_ns.push(ns32(d));
            }
        }
    }
    t1
}

macro_rules! heap_counters {
    ($($field:ident,)*) => {
        /// The collector's public work counters at one instant, read
        /// from `HeapStats` and the heap's `MetricsRegistry`. Two reads
        /// bracket the timed ops; their difference is the work done.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct HeapCounters { $(pub $field: u64,)* }

        impl HeapCounters {
            /// Field-wise `self - earlier`.
            pub fn since(&self, earlier: &HeapCounters) -> HeapCounters {
                HeapCounters { $($field: self.$field - earlier.$field,)* }
            }

            /// Field-wise sum: a fleet's zones rolled into one.
            pub fn plus(&self, other: &HeapCounters) -> HeapCounters {
                HeapCounters { $($field: self.$field + other.$field,)* }
            }
        }
    };
}

heap_counters! {
    words_allocated, pairs_allocated, objects_allocated,
    collections, words_copied, pairs_copied, objects_copied,
    pure_words_skipped, roots_traced, dirty_segments_scanned,
    segments_allocated, segments_freed, increments,
    guardian_registrations, guardian_polls, entries_visited, entries_held,
    entries_finalized, entries_dropped, loop_iterations,
    weak_scanned, weak_broken, weak_forwarded,
    gc_ns, flip_ns, roots_ns, remset_ns, sweep_ns, guardian_ns,
    finalizer_ns, weak_ns, reclaim_ns, worker_ns,
}

impl HeapCounters {
    pub fn read(heap: &mut Heap) -> HeapCounters {
        let s = heap.stats().clone();
        let p = s.total_phase_times;
        let ns = |d: Duration| d.as_nanos() as u64;
        let m = heap.metrics();
        HeapCounters {
            words_allocated: s.words_allocated,
            pairs_allocated: s.pairs_allocated,
            objects_allocated: s.objects_allocated,
            collections: s.collections,
            words_copied: s.total_words_copied,
            pairs_copied: m.counter("gc.pairs_copied"),
            objects_copied: m.counter("gc.objects_copied"),
            pure_words_skipped: m.counter("gc.pure_words_skipped"),
            roots_traced: m.counter("gc.roots_traced"),
            dirty_segments_scanned: m.counter("gc.dirty_segments_scanned"),
            segments_allocated: m.counter("gc.segments_allocated"),
            segments_freed: m.counter("gc.segments_freed"),
            increments: m.counter("gc.increments"),
            guardian_registrations: s.guardian_registrations,
            guardian_polls: s.guardian_polls,
            entries_visited: s.total_guardian_entries_visited,
            entries_held: m.counter("gc.guardian.held"),
            entries_finalized: m.counter("gc.guardian.finalized"),
            entries_dropped: m.counter("gc.guardian.dropped"),
            loop_iterations: m.counter("gc.guardian.loop_iterations"),
            weak_scanned: s.total_weak_pairs_scanned,
            weak_broken: m.counter("gc.weak.broken"),
            weak_forwarded: m.counter("gc.weak.forwarded"),
            gc_ns: ns(s.total_gc_time),
            flip_ns: ns(p.flip),
            roots_ns: ns(p.roots),
            remset_ns: ns(p.remset),
            sweep_ns: ns(p.sweep),
            guardian_ns: ns(p.guardian),
            finalizer_ns: ns(p.finalizer),
            weak_ns: ns(p.weak),
            reclaim_ns: ns(p.reclaim),
            worker_ns: ns(p.worker_time),
        }
    }

    /// Writes the `gc.heap.*` counts, `gc.collect.*`, `gc.guardian.*`
    /// and `gc.weak.*` per-layer values this delta stands for.
    pub fn emit(&self, rep: &mut Rep) {
        let secs = |ns: u64| ns as f64 / 1e9;
        for (name, count) in [
            ("gc.heap.words_allocated", self.words_allocated),
            ("gc.heap.pairs_allocated", self.pairs_allocated),
            ("gc.heap.objects_allocated", self.objects_allocated),
            ("gc.collect.collections", self.collections),
            ("gc.collect.words_copied", self.words_copied),
            ("gc.collect.pairs_copied", self.pairs_copied),
            ("gc.collect.objects_copied", self.objects_copied),
            ("gc.collect.pure_words_skipped", self.pure_words_skipped),
            ("gc.collect.roots_traced", self.roots_traced),
            (
                "gc.collect.dirty_segments_scanned",
                self.dirty_segments_scanned,
            ),
            ("gc.collect.segments_allocated", self.segments_allocated),
            ("gc.collect.segments_freed", self.segments_freed),
            ("gc.collect.increments", self.increments),
            ("gc.guardian.registrations", self.guardian_registrations),
            ("gc.guardian.polls", self.guardian_polls),
            ("gc.guardian.entries_visited", self.entries_visited),
            ("gc.guardian.entries_held", self.entries_held),
            ("gc.guardian.entries_finalized", self.entries_finalized),
            ("gc.guardian.entries_dropped", self.entries_dropped),
            ("gc.guardian.loop_iterations", self.loop_iterations),
            ("gc.weak.pairs_scanned", self.weak_scanned),
            ("gc.weak.cars_broken", self.weak_broken),
            ("gc.weak.cars_forwarded", self.weak_forwarded),
        ] {
            rep.set(name, count as f64);
        }
        for (name, ns) in [
            ("gc.collect.busy_s", self.gc_ns),
            ("gc.collect.phase.flip_s", self.flip_ns),
            ("gc.collect.phase.roots_s", self.roots_ns),
            ("gc.collect.phase.remset_s", self.remset_ns),
            ("gc.collect.phase.sweep_s", self.sweep_ns),
            ("gc.collect.phase.guardian_s", self.guardian_ns),
            ("gc.collect.phase.finalizer_s", self.finalizer_ns),
            ("gc.collect.phase.weak_s", self.weak_ns),
            ("gc.collect.phase.reclaim_s", self.reclaim_ns),
            ("gc.collect.worker_time_s", self.worker_ns),
        ] {
            rep.set(name, secs(ns));
        }
        if self.gc_ns > 0 {
            rep.set(
                "gc.collect.copy_mw_per_s",
                self.words_copied as f64 / 1e6 / secs(self.gc_ns),
            );
        }
        if self.entries_finalized > 0 {
            rep.set(
                "gc.guardian.visits_per_finalized",
                self.entries_visited as f64 / self.entries_finalized as f64,
            );
        }
    }
}

/// Fills in what every workload reports the same way once its timed ops
/// are done: the pool's accounting and the worst pause.
pub fn emit_common(rep: &mut Rep, pool: &SegmentPool) {
    let stats = pool.stats();
    rep.peak_segments = stats.peak_outstanding as u64;
    rep.set("segments.pool.acquires", stats.acquires as f64);
    rep.set("segments.pool.releases", stats.releases as f64);
    rep.set(
        "segments.pool.peak_outstanding",
        stats.peak_outstanding as f64,
    );
    let worst = rep.pause_ns.iter().copied().max().unwrap_or(0);
    rep.set("gc.collect.pause_max_us", f64::from(worst) / 1e3);
}

/// Self time of `span` per call, given how many layer calls the spans
/// covered; nothing when the span never ran (an untraced pass).
pub fn emit_span_ns(rep: &mut Rep, tr: &Tracer, name: &'static str, span: Span, calls: u64) {
    let agg = tr.aggregate(span);
    if agg.count > 0 && calls > 0 {
        rep.set(name, agg.self_ns as f64 / calls as f64);
    }
}

/// Direct probe of the bottom layer: the cost of one `try_acquire` +
/// `release` pair on a warm pool, which is what every segment a heap
/// recycles pays (lock, 4 KiB zero-fill, unlock).
pub fn probe_pool_cycle_ns() -> f64 {
    const PAIRS: u32 = 1_000_000;
    let pool = SegmentPool::unbounded();
    let warm = pool.try_acquire().expect("unbounded pool");
    pool.release(warm);
    let start = Instant::now();
    for _ in 0..PAIRS {
        let seg = pool.try_acquire().expect("unbounded pool");
        pool.release(std::hint::black_box(seg));
    }
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}
