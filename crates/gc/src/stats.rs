//! Collection reports and cumulative heap statistics.
//!
//! The paper's claims are *work-proportionality* claims ("the additional
//! overhead within a generation-based garbage collector is proportional to
//! the work already done there"). Wall-clock time on 2026 hardware cannot
//! be compared with 1993 hardware, so the collector records deterministic
//! work counters — objects copied, guardian entries visited, weak pairs
//! scanned — which the benchmark harness uses to check the claims exactly,
//! with wall-clock numbers as corroboration.
//!
//! These structs are the *programmatic* accounting surface. The export
//! surface is the heap's [`MetricsRegistry`](crate::MetricsRegistry)
//! (named counters, gauges, and pause histograms, snapshot-able as
//! deterministic JSON), which every collection report is folded into; the
//! event trace ([`crate::GcEvent`]) must replay back to these fields
//! exactly — the parity contract tested in the bench crate.

use std::time::Duration;

/// Wall-clock time spent in each collection phase, in phase order. The
/// guardian phase includes the Kleene sweeps its fixpoint loop triggers;
/// `sweep` is the main (phase 4) sweep only.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Phase 1: snapshot the from-space, reset cursors.
    pub flip: Duration,
    /// Phase 2: forward registered roots.
    pub roots: Duration,
    /// Phase 3: scan dirty old-generation segments.
    pub remset: Duration,
    /// Phase 4: the main Cheney sweep of copied objects.
    pub sweep: Duration,
    /// Phase 5: the guardian protected-list pass (with its sweeps).
    pub guardian: Duration,
    /// Phase 6: break or forward weak-pair cars.
    pub weak: Duration,
    /// Phase 7: return from-space segments to the free pool.
    pub reclaim: Duration,
    /// Inert, always zero: the collector has no finalizer phase. Kept
    /// because `benchmark/` reads it; the benchmark-only PR deletes it.
    pub finalizer: Duration,
    /// Inert, always zero: the benchmark-only PR deletes it together with
    /// `resident_cache_par2`, `par_speedup` and `worker_time_s`.
    pub worker_time: Duration,
}

impl PhaseTimes {
    /// Sum of all phase durations: the wall-clock pause breakdown (and
    /// the quantity the event trace's `PhaseEnd` records must sum to).
    /// Excludes the inert [`PhaseTimes::finalizer`] and
    /// [`PhaseTimes::worker_time`].
    pub fn total(&self) -> Duration {
        self.flip + self.roots + self.remset + self.sweep + self.guardian + self.weak + self.reclaim
    }

    pub(crate) fn absorb(&mut self, other: &PhaseTimes) {
        self.flip += other.flip;
        self.roots += other.roots;
        self.remset += other.remset;
        self.sweep += other.sweep;
        self.guardian += other.guardian;
        self.weak += other.weak;
        self.reclaim += other.reclaim;
    }
}

/// Per-collection report, returned by [`Heap::collect`](crate::Heap::collect).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CollectionReport {
    /// 1-based index of this collection.
    pub collection_index: u64,
    /// Highest generation collected (all younger ones were collected too).
    pub collected_generation: u8,
    /// Generation survivors were copied into.
    pub target_generation: u8,
    /// Pairs (ordinary + weak) copied to the target generation.
    pub pairs_copied: u64,
    /// Typed objects copied to the target generation.
    pub objects_copied: u64,
    /// Total words copied.
    pub words_copied: u64,
    /// Root slots visited by the collection's (first) roots pass: those
    /// whose generation stamp was at most the collected generation.
    pub roots_traced: u64,
    /// Root slots visited by the roots passes after the first — the roots
    /// are re-forwarded at every increment. Always 0 for a stop-the-world
    /// collection.
    pub roots_retraced: u64,
    /// Dirty old-generation runs with at least one card visited for the
    /// remembered set (a weak-pair segment counts whole).
    pub dirty_segments_scanned: u64,
    /// Remembered-set cards visited: cards of Pair/Typed runs whose byte
    /// was at most the collected generation. Each covers up to
    /// `CARD_WORDS` words.
    pub dirty_cards_scanned: u64,
    /// Guardian entries visited across all protected lists processed. This
    /// is the central counter for the generation-friendliness experiment:
    /// with per-generation protected lists it excludes entries parked in
    /// older generations.
    pub guardian_entries_visited: u64,
    /// Guardian entries whose object was still accessible (moved to the
    /// target generation's protected list).
    pub guardian_entries_held: u64,
    /// Guardian entries whose object was proven inaccessible and whose
    /// representative was enqueued on the guardian's tconc.
    pub guardian_entries_finalized: u64,
    /// Guardian entries dropped because their guardian (tconc) itself was
    /// no longer accessible.
    pub guardian_entries_dropped: u64,
    /// Iterations of the paper's `pend-final-list` fixpoint loop.
    pub guardian_loop_iterations: u64,
    /// Weak pairs examined in the post-collection weak pass.
    pub weak_pairs_scanned: u64,
    /// Weak cars overwritten with `#f` (referent died).
    pub weak_cars_broken: u64,
    /// Weak cars updated to a forwarded referent.
    pub weak_cars_forwarded: u64,
    /// Words of pointer-free (pure-space) objects copied without any
    /// scanning — work the space segregation saved.
    pub pure_words_skipped: u64,
    /// Segments returned to the free pool (the old from-space).
    pub segments_freed: u64,
    /// Segments allocated for the to-space during this collection.
    pub segments_allocated: u64,
    /// Wall-clock duration of the collection. For an incremental
    /// collection this is the *sum* of all increment pauses, not the
    /// begin-to-end wall time (mutator time between increments is
    /// excluded).
    pub duration: Duration,
    /// Per-phase breakdown of `duration`.
    pub phases: PhaseTimes,
    /// Number of bounded-pause increments the collection ran in. `0`
    /// means a single stop-the-world pause (one advance with no deadline);
    /// a collection that was given a deadline reports at least 1.
    pub increments: u64,
}

impl CollectionReport {
    /// Copy throughput: words copied per second of total pause time.
    /// `0.0` when nothing was copied or the pause was too short to time.
    pub fn words_per_sec(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs > 0.0 {
            self.words_copied as f64 / secs
        } else {
            0.0
        }
    }
}

/// Cumulative statistics over the lifetime of a heap.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Collections performed.
    pub collections: u64,
    /// Pairs allocated by the mutator.
    pub pairs_allocated: u64,
    /// Typed objects allocated by the mutator.
    pub objects_allocated: u64,
    /// Words allocated by the mutator.
    pub words_allocated: u64,
    /// Guardian registrations performed.
    pub guardian_registrations: u64,
    /// Successful tconc dequeues — guardian retrievals handed back to the
    /// mutator (plus any other tconc clients).
    pub guardian_polls: u64,
    /// Total words copied by all collections.
    pub total_words_copied: u64,
    /// Total guardian entries visited by all collections.
    pub total_guardian_entries_visited: u64,
    /// Total weak pairs scanned by all collections.
    pub total_weak_pairs_scanned: u64,
    /// Total remembered-set cards visited by all collections.
    pub total_dirty_cards_scanned: u64,
    /// Total root slots re-visited by increments after a collection's
    /// first ([`CollectionReport::roots_retraced`]).
    pub total_roots_retraced: u64,
    /// Total time spent collecting.
    pub total_gc_time: Duration,
    /// Per-phase totals across all collections.
    pub total_phase_times: PhaseTimes,
}

impl HeapStats {
    pub(crate) fn absorb(&mut self, report: &CollectionReport) {
        self.collections += 1;
        self.total_words_copied += report.words_copied;
        self.total_guardian_entries_visited += report.guardian_entries_visited;
        self.total_weak_pairs_scanned += report.weak_pairs_scanned;
        self.total_dirty_cards_scanned += report.dirty_cards_scanned;
        self.total_roots_retraced += report.roots_retraced;
        self.total_gc_time += report.duration;
        self.total_phase_times.absorb(&report.phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut stats = HeapStats::default();
        let report = CollectionReport {
            words_copied: 10,
            guardian_entries_visited: 3,
            weak_pairs_scanned: 2,
            dirty_cards_scanned: 4,
            roots_retraced: 7,
            duration: Duration::from_millis(5),
            ..CollectionReport::default()
        };
        stats.absorb(&report);
        stats.absorb(&report);
        assert_eq!(stats.collections, 2);
        assert_eq!(stats.total_words_copied, 20);
        assert_eq!(stats.total_guardian_entries_visited, 6);
        assert_eq!(stats.total_weak_pairs_scanned, 4);
        assert_eq!(stats.total_dirty_cards_scanned, 8);
        assert_eq!(stats.total_roots_retraced, 14);
        assert_eq!(stats.total_gc_time, Duration::from_millis(10));
    }

    #[test]
    fn defaults_are_zero() {
        let r = CollectionReport::default();
        assert_eq!(r.words_copied, 0);
    }
}
