//! Model-based torture rig for the guardians collector.
//!
//! The rig interprets a randomly generated (but fully deterministic)
//! sequence of heap operations — allocation, mutation, rooting, guardian
//! registration and polling, weak pairs, forced collections — against two
//! implementations at once: the real [`guardians_gc::Heap`] and a
//! shadow-heap oracle ([`model::Model`]) that implements the paper's
//! semantics directly over plain Rust collections. After every collection
//! the rig compares every observable: poll results and their FIFO order,
//! weak-car liveness, the live object graph's shape, per-generation
//! occupancy, and the collector's own guardian counters.
//!
//! On top of the oracle sits segment-exhaustion fault injection
//! ([`Heap::set_acquisition_fault`](guardians_gc::Heap::set_acquisition_fault)): a sweep
//! re-runs a trace with the heap's Nth segment acquisition failing, for
//! every N, asserting each failure point is clean — the op either
//! completes or errors with the heap still `verify()`-valid, never
//! corrupted.
//!
//! Failures print a one-line seed + op locator; [`shrink()`] replays with
//! ops removed until locally minimal and emits the result as a
//! ready-to-commit regression trace (see `regressions/README.md`).

#![warn(missing_docs)]

pub mod gen;
pub mod model;
pub mod ops;
pub mod rig;
pub mod scheme_diff;
pub mod shrink;

pub use gen::{config_for_seed, generate};
pub use ops::{NodeKind, Op, Ref, TortureConfig, Trace};
pub use rig::{quiet_panics, run_trace, run_trace_traced, Failure, RunStats};
pub use scheme_diff::{run_scheme_differential, SchemeDiffStats};
pub use shrink::{ddmin, explain, shrink};

/// Generates and runs one seed: the basic unit of a torture campaign.
pub fn check_seed(seed: u64, nops: usize) -> Result<RunStats, Failure> {
    run_trace(&generate(seed, nops))
}

/// [`check_seed`] under a bounded-pause budget (in microseconds): the
/// unit of the incremental campaign. The shadow oracle is
/// schedule-agnostic, so a pass here is the incremental schedule's
/// model-equivalence check — and because the event trace is checked per
/// collection when enabled, guardian/weak observables must match the
/// stop-the-world schedule's exactly, whatever the budget slices the work
/// into.
pub fn check_seed_budget(seed: u64, nops: usize, budget_us: u64) -> Result<RunStats, Failure> {
    let mut trace = generate(seed, nops);
    trace.config.pause_budget = Some(budget_us);
    run_trace(&trace)
}

/// [`check_seed`] with the GC event trace enabled and cross-checked
/// against the shadow model after every collection; returns the full
/// event stream for export (e.g. as a Chrome trace).
pub fn check_seed_traced(
    seed: u64,
    nops: usize,
) -> Result<(RunStats, Vec<guardians_gc::TracedEvent>), Failure> {
    run_trace_traced(&generate(seed, nops))
}

/// Generates and runs one seed, then re-runs it with the
/// segment-acquisition fault placed at every offset of the lifetime
/// acquisition count the fault-free run needed. Returns
/// `(fault_runs, faults_fired)` on success or the first divergence: a
/// fallible entry point must refuse cleanly, never trip the collector's
/// tripwire (which would mean `try_collect`'s worst-case reservation is
/// unsound).
pub fn fault_sweep(seed: u64, nops: usize) -> Result<(u64, u64), Failure> {
    let trace = generate(seed, nops);
    let base = run_trace(&trace)?;
    let mut fired = 0;
    for offset in 0..=base.acquisitions {
        let mut t = trace.clone();
        t.config.fail_acquisition_at = Some(offset);
        fired += run_trace(&t)?.faults_hit;
    }
    Ok((base.acquisitions + 1, fired))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_seed_agrees() {
        let stats = check_seed(1, 200).unwrap_or_else(|f| panic!("{f}"));
        assert!(stats.collections > 0, "trace exercised the collector");
        assert!(stats.checks > 0);
    }

    #[test]
    fn traced_runs_agree_and_return_events() {
        let (stats, events) = check_seed_traced(1, 200).unwrap_or_else(|f| panic!("{f}"));
        assert!(stats.collections > 0);
        let ends = events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    guardians_gc::GcEvent::Advance { terminal: true, .. }
                )
            })
            .count() as u64;
        assert_eq!(
            ends, stats.collections,
            "one terminal Advance per collection"
        );
        // Tracing must not change behaviour: same oracle outcomes.
        let plain = check_seed(1, 200).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(plain.finalized, stats.finalized);
        assert_eq!(plain.polled, stats.polled);
        assert_eq!(plain.applied, stats.applied);
    }
}
