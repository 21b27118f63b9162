//! **E18 — Incremental collection: what slicing a collection costs.**
//!
//! The incremental driver slices each collection's copy/scan work into
//! increments interleaved with the mutator, deferring the guardian
//! three-block pass and the weak break to a terminal increment (so
//! observables stay byte-identical to stop-the-world; the torture budget
//! matrix checks that). This experiment runs the E11 lifetime workload
//! under the two schedules that do not depend on the clock:
//!
//! * `pause_budget: None` — every collection is one stop-the-world run;
//! * `Some(Duration::ZERO)` — every increment does exactly one unit of
//!   work, the finest slicing there is.
//!
//! and counts what the slicing costs: increments, words copied and
//! retained heap (floating garbage: objects that die mid-cycle after
//! being copied stay live until the next cycle). The one-unit row is
//! ROADMAP direction 1(b)'s defect, committed as its before-number: an
//! increment is owed only "at least one unit" however much the mutator
//! allocated since the last one, so the first collection never finishes
//! inside the workload and the heap grows 15×. A budget between the two
//! ends its increments by the clock, so its counts differ run to run;
//! what those budgets *buy* — pause percentiles — is sampled, repeatedly,
//! by `benchmark/`'s `guardian_pool_inc200` workload (`pause_p99_us`,
//! `gc.collect.increment_p99_us`).

use guardians_gc::{GcConfig, Heap, Promotion};
use guardians_workloads::report::fmt_count;
use guardians_workloads::{run_lifetime_workload, LifetimeParams, Table};
use std::time::Duration;

/// One schedule's outcome.
#[derive(Debug, Clone)]
pub struct E18Row {
    pub label: &'static str,
    /// Collections begun inside the workload.
    pub collections: u64,
    /// Total increments across those collections (0 for serial).
    pub increments: u64,
    pub words_copied: u64,
    /// Heap capacity at the end of the run (after draining any in-flight
    /// cycle): retained floating garbage shows up here.
    pub final_capacity_bytes: usize,
}

fn measure(label: &'static str, budget: Option<Duration>, allocations: usize) -> E18Row {
    // The paper-policy configuration from E11's table, plus the budget.
    // The trigger is 4x E11's so each collection copies enough to slice.
    let config = GcConfig {
        generations: 4,
        promotion: Promotion::NextGeneration,
        trigger_bytes: 512 * 1024,
        frequency: (0..4).map(|i| 4u64.pow(i)).collect(),
        pause_budget: budget,
        ..GcConfig::new()
    };
    let mut heap = Heap::new(config);
    // The lifetime workload with a larger survivor window and payload
    // than E11's defaults, so a collection is many units of work.
    let params = LifetimeParams {
        allocations,
        window: 2048,
        list_len: 8,
        ..LifetimeParams::default()
    };
    let collections = run_lifetime_workload(&mut heap, &params).collections;
    // Drain any collection left suspended mid-cycle so every row's final
    // heap is comparable (and fully verifiable).
    while heap.incremental_in_progress() {
        heap.gc_step();
    }
    heap.verify().expect("heap valid after workload");
    E18Row {
        label,
        collections,
        increments: heap.metrics().counter("gc.increments"),
        words_copied: heap.stats().total_words_copied,
        final_capacity_bytes: heap.capacity_bytes(),
    }
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, Vec<E18Row>) {
    let allocations = if quick { 100_000 } else { 400_000 };
    let mut table = Table::new(
        "E18: incremental collection on the lifetime workload, clock-free schedules",
        &[
            "schedule",
            "collections",
            "increments",
            "words copied",
            "heap KiB",
        ],
    );
    let configs: [(&'static str, Option<Duration>); 2] = [
        ("serial (stop-the-world)", None),
        ("one unit per increment", Some(Duration::ZERO)),
    ];
    let mut rows = Vec::new();
    for (label, budget) in configs {
        let row = measure(label, budget, allocations);
        table.row(&[
            label.to_string(),
            fmt_count(row.collections),
            fmt_count(row.increments),
            fmt_count(row.words_copied),
            fmt_count(row.final_capacity_bytes as u64 / 1024),
        ]);
        rows.push(row);
    }
    table.note("collections = begun inside the workload; the in-flight one is drained before words copied and heap KiB are read");
    table.note("one unit per increment: the collection the first trigger starts never ends by itself — an increment is owed one unit however much was allocated since the last (ROADMAP direction 1(b)); heap KiB is what the liveness gap retains");
    table.note("budgets between the two end increments by the clock; their pause percentiles are sampled by benchmark/ (guardian_pool_inc200)");
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_slice_collections() {
        let (_t, rows) = run(true);
        let [serial, one_unit] = &rows[..] else {
            panic!("the two clock-free schedules, got {}", rows.len());
        };
        assert_eq!(serial.increments, 0, "serial engine never increments");
        assert!(serial.collections > 0, "the trigger fired");
        assert!(one_unit.collections > 0, "the trigger fired");
        assert!(
            one_unit.increments > one_unit.collections,
            "one unit per increment slices ({} increments, {} collections)",
            one_unit.increments,
            one_unit.collections
        );
    }
}
