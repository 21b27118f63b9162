//! **E18 — Bounded-pause incremental collection.**
//!
//! The incremental engine slices each collection's copy/scan work into
//! pause-budgeted increments interleaved with the mutator, deferring the
//! guardian three-block pass and the weak break to an unbounded terminal
//! increment (so observables stay byte-identical to stop-the-world; the
//! torture budget matrix checks that). This experiment measures what the
//! slicing *buys* and what it *costs* on the E11 lifetime workload:
//!
//! * **buys**: pause percentiles. Each increment is one pause sample in
//!   the `gc.pause_ns` histogram, so a finer budget pushes p50/p99 down
//!   toward the budget (plus the per-increment floor: root re-forwarding
//!   and at least one indivisible work unit).
//! * **costs**: mutator throughput (allocations per wall-second dips as
//!   barrier work and increment scheduling overhead accumulate) and
//!   floating garbage (objects that die mid-cycle after being copied
//!   stay live until the next cycle, visible as extra words copied and
//!   retained heap capacity).
//!
//! No column of this table is declared exact: a budgeted collection
//! ends when the clock lets it and the allocation trigger re-arms only
//! then, so even `collections` and `words copied` move by a count or two
//! between runs on every budgeted row. The table is printed with its
//! `environment:` note and compared with nothing; `benchmark/`'s
//! `guardian_pool_inc200` workload is where the incremental driver's
//! pauses are sampled repeatedly.

use guardians_gc::{GcConfig, Heap, Promotion};
use guardians_workloads::report::fmt_count;
use guardians_workloads::{run_lifetime_workload, LifetimeParams, Table};
use std::time::Duration;

/// One budget's outcome.
#[derive(Debug, Clone)]
pub struct E18Row {
    pub label: &'static str,
    /// `None` is the serial stop-the-world engine.
    pub budget: Option<Duration>,
    pub collections: u64,
    /// Total increments across those collections (0 for serial).
    pub increments: u64,
    /// Pause percentiles in nanoseconds `[p50, p99]` from the
    /// `gc.pause_ns` histogram — per-increment samples when budgeted,
    /// per-collection when serial.
    pub pause_quantiles_ns: [u64; 2],
    pub max_pause_ns: u64,
    pub words_copied: u64,
    /// Mutator throughput: workload allocations per wall-clock second.
    pub allocs_per_sec: f64,
    /// Heap capacity at the end of the run (after draining any in-flight
    /// cycle): retained floating garbage shows up here.
    pub final_capacity_bytes: usize,
}

fn measure(label: &'static str, budget: Option<Duration>, allocations: usize) -> E18Row {
    // The paper-policy configuration from E11's table, plus the budget.
    // The trigger is 4x E11's so each collection copies enough for the
    // budgets to actually slice it — bounded pauses only matter when the
    // stop-the-world pause would exceed the budget.
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
    // than E11's defaults: enough live data per collection that a
    // stop-the-world pause visibly exceeds the budgets under test.
    let params = LifetimeParams {
        allocations,
        window: 2048,
        list_len: 8,
        ..LifetimeParams::default()
    };
    let start = std::time::Instant::now();
    run_lifetime_workload(&mut heap, &params);
    let wall = start.elapsed();
    // Drain any collection left suspended mid-cycle so every row's final
    // heap is comparable (and fully verifiable).
    while heap.incremental_in_progress() {
        heap.gc_step();
    }
    heap.verify().expect("heap valid after workload");
    let pause_quantiles_ns = {
        let h = heap
            .metrics()
            .get_histogram("gc.pause_ns")
            .expect("collections happened, so the pause histogram exists");
        [0.50, 0.99].map(|q| h.quantile(q).unwrap_or(0))
    };
    let max_pause_ns = heap
        .metrics()
        .get_histogram("gc.pause_ns")
        .and_then(guardians_gc::Histogram::max)
        .unwrap_or(0);
    E18Row {
        label,
        budget,
        collections: heap.stats().collections,
        increments: heap.metrics().counter("gc.increments"),
        pause_quantiles_ns,
        max_pause_ns,
        words_copied: heap.stats().total_words_copied,
        allocs_per_sec: allocations as f64 / wall.as_secs_f64().max(1e-9),
        final_capacity_bytes: heap.capacity_bytes(),
    }
}

/// Formats nanoseconds as microseconds.
fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// Runs the experiment. In the full (non-quick) configuration this also
/// asserts the headline claim: the finest budget's p99 pause sits at
/// least 5x below the serial stop-the-world p99.
pub fn run(quick: bool) -> (Table, Vec<E18Row>) {
    let allocations = if quick { 100_000 } else { 400_000 };
    let mut table = Table::new(
        "E18: bounded-pause incremental collection on the lifetime workload",
        &[
            "pause budget",
            "collections",
            "increments",
            "pause p50 (us)",
            "pause p99 (us)",
            "max pause (us)",
            "words copied",
            "allocs/ms",
            "heap KiB",
        ],
    );
    let configs: [(&'static str, Option<Duration>); 5] = [
        ("serial (stop-the-world)", None),
        ("2 ms", Some(Duration::from_millis(2))),
        ("500 us", Some(Duration::from_micros(500))),
        ("100 us", Some(Duration::from_micros(100))),
        ("50 us", Some(Duration::from_micros(50))),
    ];
    let mut rows = Vec::new();
    for (label, budget) in configs {
        let row = measure(label, budget, allocations);
        table.row(&[
            label.to_string(),
            fmt_count(row.collections),
            fmt_count(row.increments),
            us(row.pause_quantiles_ns[0]),
            us(row.pause_quantiles_ns[1]),
            us(row.max_pause_ns),
            fmt_count(row.words_copied),
            format!("{:.0}", row.allocs_per_sec / 1e3),
            format!("{}", row.final_capacity_bytes / 1024),
        ]);
        rows.push(row);
    }
    table.note(super::env_note(1, None));
    table.note("pause budget varies by row (the 'pause budget' column); budgeted rows sample gc.pause_ns per increment, the serial row per collection");
    table.note("costs of slicing: allocs/ms (mutator throughput tax from barrier + increment overhead); words copied / heap KiB (floating garbage: objects dying mid-cycle were already copied and stay retained until the next cycle)");
    let serial = &rows[0];
    let finest = rows.last().expect("rows populated");
    table.note(format!(
        "headline: finest budget p99 {} us vs serial p99 {} us ({}x lower; asserted >=5x in the full configuration)",
        us(finest.pause_quantiles_ns[1]),
        us(serial.pause_quantiles_ns[1]),
        if finest.pause_quantiles_ns[1] > 0 {
            serial.pause_quantiles_ns[1] / finest.pause_quantiles_ns[1].max(1)
        } else {
            0
        },
    ));
    if !quick {
        assert!(
            finest.pause_quantiles_ns[1].max(1) * 5 <= serial.pause_quantiles_ns[1],
            "finest-budget p99 ({} ns) not >=5x below serial p99 ({} ns)",
            finest.pause_quantiles_ns[1],
            serial.pause_quantiles_ns[1]
        );
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_slice_collections() {
        let (_t, rows) = run(true);
        assert_eq!(rows.len(), 5, "serial plus four budgets");
        let serial = &rows[0];
        assert_eq!(serial.increments, 0, "serial engine never increments");
        assert!(serial.collections > 0, "the trigger fired");
        for row in &rows[1..] {
            // A collection that fits inside the budget is one increment,
            // so coarse budgets may not slice at all — but every
            // collection is at least one increment.
            assert!(
                row.increments >= row.collections,
                "{}: {} increments for {} collections",
                row.label,
                row.increments,
                row.collections
            );
        }
        // The finest budget genuinely slices: more increments than
        // collections, and more than the coarsest budget produced.
        let finest = rows.last().unwrap();
        assert!(
            finest.increments > finest.collections,
            "50 us budget slices collections ({} increments, {} collections)",
            finest.increments,
            finest.collections
        );
        assert!(
            finest.increments > rows[1].increments,
            "50 us budget slices finer than 2 ms ({} vs {})",
            finest.increments,
            rows[1].increments
        );
        // The p99s themselves are two wall-clock tails of a few dozen
        // samples — one descheduled increment is the whole tail — so they
        // are printed in the table's headline and compared with nothing.
    }
}
