//! **E11 — Whole-collector characterisation.**
//!
//! Section 4's collector: generations, promotion, target generation,
//! schedule. Under a generational-hypothesis workload, more generations
//! should reduce total copying (old survivors are not re-copied) and
//! shrink the typical pause, which is why the paper's overhead claims are
//! stated *relative to generational work*.
//!
//! The table also reports copy throughput (words copied per second of
//! pause time) and the share of pause time spent in the copy/scan engine
//! (remset + sweep phases) — the figures the bulk-copy engine is tuned
//! for. They are printed, never compared (`benchmark/` samples
//! `gc.collect.copy_mw_per_s` repeatedly); `configuration`,
//! `collections` and `words copied` are the exact columns.

use guardians_gc::{GcConfig, Heap, PhaseTimes, Promotion};
use guardians_workloads::report::fmt_count;
use guardians_workloads::{run_lifetime_workload, LifetimeParams, Table};

/// One configuration's outcome.
#[derive(Debug, Clone)]
pub struct E11Row {
    pub generations: u8,
    pub collections: u64,
    pub words_copied: u64,
    pub max_pause_ns: u128,
    pub total_gc_ns: u128,
    /// Cumulative per-phase pause breakdown.
    pub phases: PhaseTimes,
    /// Copy throughput: words copied per second of total pause time.
    pub words_per_sec: f64,
    /// Pause-time percentiles in nanoseconds `[p50, p95, p99]`, read
    /// back from the metrics registry's `gc.pause_ns` histogram — the
    /// observability layer's view of the same run.
    pub pause_quantiles_ns: [u64; 3],
}

fn measure_with(generations: u8, promotion: Promotion, allocations: usize) -> E11Row {
    let config = GcConfig {
        generations,
        promotion,
        trigger_bytes: 128 * 1024,
        frequency: (0..generations as usize)
            .map(|i| 4u64.pow(i as u32))
            .collect(),
        ..GcConfig::new()
    };
    let mut heap = Heap::new(config);
    let params = LifetimeParams {
        allocations,
        ..LifetimeParams::default()
    };
    let stats = run_lifetime_workload(&mut heap, &params);
    heap.verify().expect("heap valid after workload");
    let pause_quantiles_ns = {
        let h = heap
            .metrics()
            .get_histogram("gc.pause_ns")
            .expect("collections happened, so the pause histogram exists");
        [0.50, 0.95, 0.99].map(|q| h.quantile(q).unwrap_or(0))
    };
    let total_secs = stats.total_gc_ns as f64 / 1e9;
    E11Row {
        generations,
        collections: stats.collections,
        words_copied: stats.words_copied,
        max_pause_ns: stats.max_pause_ns,
        total_gc_ns: stats.total_gc_ns,
        phases: stats.phase_times,
        words_per_sec: if total_secs > 0.0 {
            stats.words_copied as f64 / total_secs
        } else {
            0.0
        },
        pause_quantiles_ns,
    }
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, Vec<E11Row>) {
    let allocations = if quick { 30_000 } else { 300_000 };
    let mut table = Table::new(
        "E11: collector characterisation under a generational workload",
        &[
            "configuration",
            "collections",
            "words copied",
            "max pause (us)",
            "total GC (ms)",
            "copy Mw/s",
            "copy+scan %",
        ],
    );
    table.exact(&["configuration", "collections", "words copied"]);
    let mut rows = Vec::new();
    let configs: [(&str, u8, Promotion); 6] = [
        ("1 gen", 1, Promotion::NextGeneration),
        ("2 gens", 2, Promotion::NextGeneration),
        ("4 gens (paper policy)", 4, Promotion::NextGeneration),
        ("6 gens", 6, Promotion::NextGeneration),
        ("4 gens, tenure capped @2", 4, Promotion::Capped(2)),
        ("4 gens, same-generation", 4, Promotion::SameGeneration),
    ];
    for (name, generations, promotion) in configs {
        let row = measure_with(generations, promotion, allocations);
        let phase_total = row.phases.total().as_secs_f64();
        let copy_scan = (row.phases.remset + row.phases.sweep).as_secs_f64();
        table.row(&[
            name.to_string(),
            fmt_count(row.collections),
            fmt_count(row.words_copied),
            format!("{}", row.max_pause_ns / 1_000),
            format!("{}", row.total_gc_ns / 1_000_000),
            format!("{:.1}", row.words_per_sec / 1e6),
            if phase_total > 0.0 {
                format!("{:.0}", 100.0 * copy_scan / phase_total)
            } else {
                "0".to_string()
            },
        ]);
        rows.push(row);
    }
    table.note(super::env_note(1, None));
    table.note("generations reduce re-copying of long-lived data; tenure strategies (paper: 'under programmer control') trade residency against re-copying");
    table.note("copy Mw/s = words copied per second of pause; copy+scan % = (remset + sweep) share of the per-phase pause breakdown");
    let paper = &rows[2];
    table.note(format!(
        "paper policy pause percentiles from the gc.pause_ns metrics histogram (us): p50 {}  p95 {}  p99 {}  (profile any row with `gcprof --scenario e11`)",
        paper.pause_quantiles_ns[0] / 1_000,
        paper.pause_quantiles_ns[1] / 1_000,
        paper.pause_quantiles_ns[2] / 1_000,
    ));
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generational_collectors_copy_less_than_single_generation() {
        let (_t, rows) = run(true);
        let single = rows.iter().find(|r| r.generations == 1).unwrap();
        let four = rows.iter().find(|r| r.generations == 4).unwrap();
        assert!(
            four.words_copied < single.words_copied,
            "4-gen copied {} vs 1-gen {}",
            four.words_copied,
            single.words_copied
        );
        assert_eq!(
            rows.len(),
            6,
            "generation sweep plus the two tenure strategies"
        );
        // Same-generation re-copies gen-1 residents: at least as much
        // copying as the paper's policy at the same generation count.
        assert!(rows[5].words_copied >= rows[2].words_copied);
    }

    #[test]
    fn phase_times_cover_the_pause_and_throughput_is_positive() {
        let (_t, rows) = run(true);
        for row in &rows {
            assert!(
                row.words_per_sec > 0.0,
                "copying happened, so throughput is nonzero"
            );
            let phase_total = row.phases.total().as_nanos();
            assert!(phase_total > 0, "phases were timed");
            assert!(
                phase_total <= row.total_gc_ns,
                "phase breakdown ({phase_total} ns) fits inside the total pause ({} ns)",
                row.total_gc_ns
            );
            // The metrics histogram agrees with the workload's own
            // max-pause measurement: quantiles are ordered and bounded.
            let [p50, p95, p99] = row.pause_quantiles_ns;
            assert!(p50 <= p95 && p95 <= p99, "quantiles ordered");
            assert!(
                p50 > 0 && p99 as u128 <= row.max_pause_ns,
                "p99 ({p99} ns) is clamped to the exact max, which both \
                 accountings derive from the same pauses ({} ns)",
                row.max_pause_ns
            );
        }
    }
}
