//! Three adversarial mutators for the E22 static policy sweep, each
//! engineered to punish a different default-policy assumption:
//!
//! * [`run_cache_workload`] — a large, stable cache with slow turnover.
//!   Old-generation collections keep recopying live data that never
//!   dies; the frequency-ladder knob is the one that matters.
//! * [`run_burst_workload`] — request bursts whose objects all live for
//!   the duration of the burst and die together. A small nursery trigger
//!   collects mid-burst and copies the whole in-flight batch; the
//!   trigger knob is the one that matters.
//! * [`run_pool_workload`] — a guardian-managed resource pool whose
//!   sessions live long enough to tenure before dying. Under the
//!   paper's advance-by-one promotion, dead sessions park in old
//!   generations awaiting finalization; the tenure-cap knob is the one
//!   that matters.
//!
//! Every workload reports the same [`PolicyStats`], including a
//! *liveness drag* measurement: dropped objects are watched through
//! weak pairs (the torture rig's trackers are weak root slots instead),
//! and at each post-collection sample the workload counts watched
//! objects that are dead in truth but whose weak reference is still
//! intact — reachability lagging true liveness (floating garbage and
//! guardian-preserved corpses).

use crate::keys::KeyGen;
use guardians_gc::{Heap, Value};

/// What a policy workload observed. All fields are deterministic
/// functions of the heap configuration and the workload parameters —
/// no wall-clock anywhere — so E22 comparisons are bit-reproducible.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Collections that ran during the workload.
    pub collections: u64,
    /// Words copied by those collections.
    pub words_copied: u64,
    /// Guardian protected-list entries visited by those collections.
    pub guardian_visited: u64,
    /// Peak count of watched objects that were dead in truth but still
    /// weakly reachable at a post-collection sample.
    pub drag_peak: u64,
    /// The same count at the final sample.
    pub drag_final: u64,
    /// Post-collection drag samples taken.
    pub drag_samples: u64,
    /// Guardian entries polled back by the mutator (pool workload).
    pub reclaimed: u64,
    /// Heap capacity in bytes when the workload finished (footprint the
    /// policy bought its speed with).
    pub final_capacity_bytes: u64,
}

impl PolicyStats {
    /// The machine-independent GC-time proxy: words copied plus guardian
    /// entries visited. Both scale linearly with collection pause time
    /// and neither depends on the host, so gates on this number are
    /// noise-free.
    pub fn gc_work(&self) -> u64 {
        self.words_copied + self.guardian_visited
    }
}

/// A ring of weak pairs watching recently dropped objects. Strongly
/// rooted pairs whose *car* is the weak edge: while the collector has
/// not yet proven the object dead the car still points at it; once
/// reclaimed the car breaks to `#f`. Counting intact cars therefore
/// measures the reachability-vs-true-liveness lag.
struct DragRing {
    slots: guardians_gc::RootedVec,
    cap: usize,
    next: usize,
}

impl DragRing {
    fn new(heap: &mut Heap, cap: usize) -> DragRing {
        DragRing {
            slots: heap.root_vec(),
            cap: cap.max(1),
            next: 0,
        }
    }

    /// Starts watching `v` (call while `v` is still reachable, just
    /// before the last strong reference is dropped).
    fn watch(&mut self, heap: &mut Heap, v: Value) {
        let w = heap.weak_cons(v, Value::NIL);
        if self.slots.len() < self.cap {
            self.slots.push(w);
        } else {
            self.slots.set(self.next, w);
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Watched objects whose weak edge is still intact — dead in truth,
    /// not yet observed dead by the collector.
    fn intact(&self, heap: &Heap) -> u64 {
        let mut n = 0;
        for i in 0..self.slots.len() {
            if heap.car(self.slots.get(i)).is_ptr() {
                n += 1;
            }
        }
        n
    }
}

/// Book-keeping shared by the three workloads: baseline counters plus
/// the drag ring, folded into [`PolicyStats`] at the end.
struct Meter {
    base_collections: u64,
    base_words: u64,
    base_visited: u64,
    drag: DragRing,
    stats: PolicyStats,
}

impl Meter {
    fn new(heap: &mut Heap, drag_cap: usize) -> Meter {
        Meter {
            base_collections: heap.collection_count(),
            base_words: heap.stats().total_words_copied,
            base_visited: heap.stats().total_guardian_entries_visited,
            drag: DragRing::new(heap, drag_cap),
            stats: PolicyStats::default(),
        }
    }

    /// A safe point: offers the heap a collection and, if one ran,
    /// samples the drag ring.
    fn safe_point(&mut self, heap: &mut Heap) {
        if heap.maybe_collect().is_some() {
            self.sample(heap);
        }
    }

    fn sample(&mut self, heap: &Heap) {
        let intact = self.drag.intact(heap);
        self.stats.drag_peak = self.stats.drag_peak.max(intact);
        self.stats.drag_final = intact;
        self.stats.drag_samples += 1;
    }

    fn finish(mut self, heap: &mut Heap) -> PolicyStats {
        self.sample(heap);
        self.stats.collections = heap.collection_count() - self.base_collections;
        self.stats.words_copied = heap.stats().total_words_copied - self.base_words;
        self.stats.guardian_visited =
            heap.stats().total_guardian_entries_visited - self.base_visited;
        self.stats.final_capacity_bytes = heap.capacity_bytes() as u64;
        self.stats
    }
}

/// Builds a list of `len` pairs (2 words each) carrying `tag`-derived
/// fixnums.
fn list(heap: &mut Heap, len: usize, tag: usize) -> Value {
    let mut l = Value::NIL;
    for k in 0..len {
        l = heap.cons(Value::fixnum((tag.wrapping_mul(31) + k) as i64), l);
    }
    l
}

// ----------------------------------------------------------------------
// Workload 1: long-lived cache
// ----------------------------------------------------------------------

/// Parameters for [`run_cache_workload`].
#[derive(Clone, Debug)]
pub struct CacheParams {
    /// Permanent cache slots (each holds a [`CacheParams::list_len`]-pair
    /// list that lives for the entire run).
    pub slots: usize,
    /// Pairs per permanent cache entry.
    pub list_len: usize,
    /// Mutator rounds.
    pub rounds: usize,
    /// Short-lived bytevector allocations per round.
    pub churn_per_round: usize,
    /// Bytes per churn bytevector.
    pub churn_bytes: usize,
    /// Working-set slots: recently accessed entries that survive
    /// infancy but die within a few collection periods.
    pub window_slots: usize,
    /// Pairs per working-set entry.
    pub window_len: usize,
    /// Working-set slots replaced (evicted and refilled) per round.
    pub replace_per_round: usize,
    /// Drag-ring capacity (evicted entries watched).
    pub drag_cap: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams {
            slots: 16384,
            list_len: 8,
            rounds: 4000,
            churn_per_round: 16,
            churn_bytes: 1024,
            window_slots: 1536,
            window_len: 16,
            replace_per_round: 14,
            drag_cap: 2048,
            seed: 0xCAC4E,
        }
    }
}

/// The long-lived-cache mutator: a large permanent resident set, a
/// medium-lived working set with steady turnover, and heavy short-lived
/// churn. Everything an old-generation collection copies out of the
/// resident set is still live afterwards, so a fixed frequency ladder
/// recopies the cache for nothing, and a nursery trigger smaller than
/// the working set's survivor flux collects entries that were about to
/// die anyway.
pub fn run_cache_workload(heap: &mut Heap, p: &CacheParams) -> PolicyStats {
    let mut gen = KeyGen::new(p.seed, 0.0);
    let cache = heap.root_vec();
    for i in 0..p.slots {
        let l = list(heap, p.list_len, i);
        cache.push(l);
    }
    let window = heap.root_vec();
    for i in 0..p.window_slots {
        let l = list(heap, p.window_len, i);
        window.push(l);
    }
    let mut m = Meter::new(heap, p.drag_cap);
    for round in 0..p.rounds {
        for _ in 0..p.churn_per_round {
            let _ = heap.make_bytevector(p.churn_bytes, 0);
        }
        if p.window_slots > 0 {
            for r in 0..p.replace_per_round {
                let slot = gen.uniform(p.window_slots);
                let old = window.get(slot);
                if old.is_ptr() {
                    m.drag.watch(heap, old);
                }
                let fresh = list(heap, p.window_len, round.wrapping_mul(16) + r);
                window.set(slot, fresh);
            }
        }
        m.safe_point(heap);
    }
    m.finish(heap)
}

// ----------------------------------------------------------------------
// Workload 2: bursty request churn
// ----------------------------------------------------------------------

/// Parameters for [`run_burst_workload`].
#[derive(Clone, Debug)]
pub struct BurstParams {
    /// Request bursts.
    pub bursts: usize,
    /// Requests allocated (and kept live) per burst.
    pub requests_per_burst: usize,
    /// Pairs per request.
    pub request_len: usize,
    /// Safe point every this many requests within a burst.
    pub safe_point_every: usize,
    /// Short-lived bytevector allocations in the quiet phase between
    /// bursts.
    pub quiet_allocs: usize,
    /// Bytes per quiet-phase bytevector.
    pub quiet_bytes: usize,
    /// Every this-many-th request is drag-watched when the burst ends.
    pub watch_every: usize,
    /// Drag-ring capacity.
    pub drag_cap: usize,
}

impl Default for BurstParams {
    fn default() -> Self {
        BurstParams {
            bursts: 120,
            requests_per_burst: 1024,
            request_len: 8,
            safe_point_every: 128,
            quiet_allocs: 32,
            quiet_bytes: 512,
            watch_every: 64,
            drag_cap: 512,
        }
    }
}

/// The bursty-churn mutator: every burst's requests are live until the
/// burst completes, then all die at once. A nursery trigger smaller
/// than a burst guarantees collections land mid-burst and copy the
/// whole in-flight batch; a trigger wider than a burst lets the batch
/// die before it is ever copied.
pub fn run_burst_workload(heap: &mut Heap, p: &BurstParams) -> PolicyStats {
    let mut m = Meter::new(heap, p.drag_cap);
    let inflight = heap.root_vec();
    for burst in 0..p.bursts {
        for r in 0..p.requests_per_burst {
            let req = list(heap, p.request_len, burst.wrapping_mul(4093) + r);
            inflight.push(req);
            if p.safe_point_every > 0 && (r + 1) % p.safe_point_every == 0 {
                m.safe_point(heap);
            }
        }
        // The burst completes: watch a sample, then drop every request.
        for r in (0..inflight.len()).step_by(p.watch_every.max(1)) {
            let v = inflight.get(r);
            m.drag.watch(heap, v);
        }
        inflight.truncate(0);
        for _ in 0..p.quiet_allocs {
            let _ = heap.make_bytevector(p.quiet_bytes, 0);
        }
        m.safe_point(heap);
    }
    m.finish(heap)
}

// ----------------------------------------------------------------------
// Workload 3: guardian-heavy resource pool
// ----------------------------------------------------------------------

/// Parameters for [`run_pool_workload`].
#[derive(Clone, Debug)]
pub struct PoolParams {
    /// Live sessions in the pool (FIFO: the oldest are closed first).
    pub sessions: usize,
    /// Pairs per session payload.
    pub session_len: usize,
    /// Mutator rounds.
    pub rounds: usize,
    /// Sessions closed (and opened) per round.
    pub turnover: usize,
    /// Short-lived bytevector allocations per round.
    pub churn_per_round: usize,
    /// Bytes per churn bytevector.
    pub churn_bytes: usize,
    /// Drag-ring capacity (closed sessions watched).
    pub drag_cap: usize,
}

impl Default for PoolParams {
    fn default() -> Self {
        PoolParams {
            sessions: 2048,
            session_len: 16,
            rounds: 6000,
            turnover: 8,
            churn_per_round: 8,
            churn_bytes: 1024,
            drag_cap: 32768,
        }
    }
}

/// The resource-pool mutator: every session is registered with a
/// guardian at open and must be polled back after death to "release its
/// descriptor". Sessions live long enough to tenure, so under
/// advance-by-one promotion their corpses park in rarely-collected old
/// generations and finalization (and the drag ring) lags far behind
/// true death.
pub fn run_pool_workload(heap: &mut Heap, p: &PoolParams) -> PolicyStats {
    let mut m = Meter::new(heap, p.drag_cap);
    let guardian = heap.make_guardian();
    let pool = heap.root_vec();
    let mut oldest = 0usize; // ring index of the oldest live session
    for i in 0..p.sessions {
        let s = list(heap, p.session_len, i);
        guardian.register(heap, s);
        pool.push(s);
    }
    for round in 0..p.rounds {
        for _ in 0..p.churn_per_round {
            let _ = heap.make_bytevector(p.churn_bytes, 0);
        }
        for t in 0..p.turnover {
            let dying = pool.get(oldest);
            if dying.is_ptr() {
                m.drag.watch(heap, dying);
            }
            let fresh = list(heap, p.session_len, round.wrapping_mul(16) + t);
            guardian.register(heap, fresh);
            pool.set(oldest, fresh);
            oldest = (oldest + 1) % p.sessions.max(1);
        }
        // Drain finalized sessions: each poll releases one descriptor.
        while guardian.poll(heap).is_some() {
            m.stats.reclaimed += 1;
        }
        m.safe_point(heap);
    }
    m.finish(heap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardians_gc::GcConfig;

    fn small_heap() -> Heap {
        Heap::new(GcConfig {
            trigger_bytes: 128 * 1024,
            ..GcConfig::new()
        })
    }

    #[test]
    fn cache_workload_collects_and_measures_drag() {
        let mut heap = small_heap();
        let stats = run_cache_workload(
            &mut heap,
            &CacheParams {
                slots: 256,
                rounds: 400,
                ..CacheParams::default()
            },
        );
        assert!(stats.collections > 0, "the trigger fired");
        assert!(stats.words_copied > 0, "the cache was copied");
        assert!(stats.drag_samples > 0, "drag was sampled");
        heap.verify().expect("heap valid after the workload");
    }

    #[test]
    fn burst_workload_copies_in_flight_requests_under_a_small_trigger() {
        let mut heap = small_heap();
        let stats = run_burst_workload(
            &mut heap,
            &BurstParams {
                bursts: 12,
                requests_per_burst: 512,
                ..BurstParams::default()
            },
        );
        assert!(stats.collections > 0);
        assert!(
            stats.words_copied > 0,
            "a sub-burst trigger copies live requests"
        );
        heap.verify().expect("heap valid after the workload");
    }

    #[test]
    fn pool_workload_reclaims_sessions_through_the_guardian() {
        let mut heap = small_heap();
        let stats = run_pool_workload(
            &mut heap,
            &PoolParams {
                sessions: 128,
                rounds: 1500,
                ..PoolParams::default()
            },
        );
        assert!(stats.collections > 0);
        assert!(stats.reclaimed > 0, "dead sessions were polled back");
        assert!(stats.guardian_visited > 0, "guardian entries were visited");
        heap.verify().expect("heap valid after the workload");
    }

    #[test]
    fn workloads_are_deterministic() {
        let run = || {
            let mut heap = small_heap();
            let s = run_pool_workload(
                &mut heap,
                &PoolParams {
                    sessions: 64,
                    rounds: 600,
                    ..PoolParams::default()
                },
            );
            (
                s.collections,
                s.words_copied,
                s.guardian_visited,
                s.reclaimed,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn drag_ring_sees_guardian_preserved_corpses() {
        // With a pool whose sessions tenure before dying, at least one
        // post-collection sample must catch a session that is dead in
        // truth but still weakly reachable (awaiting finalization).
        let mut heap = small_heap();
        let stats = run_pool_workload(
            &mut heap,
            &PoolParams {
                sessions: 256,
                rounds: 2000,
                ..PoolParams::default()
            },
        );
        assert!(stats.drag_peak > 0, "liveness lag was observed");
    }
}
