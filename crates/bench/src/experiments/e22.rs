//! **E22 — Static policy sweep: what each `GcConfig` field buys and costs.**
//!
//! Three adversarial mutators (`crates/workloads/src/policy.rs`), each
//! engineered so a different default-policy assumption is the expensive
//! one: a long-lived cache (the frequency ladder keeps recopying stable
//! old data), bursty request churn (a sub-burst nursery trigger copies
//! whole in-flight batches), and a guardian-heavy resource pool
//! (advance-by-one promotion parks dead sessions in rarely-collected
//! generations).
//!
//! Every configuration runs all three workloads and is scored by the
//! *GC-work geomean*: the geometric mean across workloads of words
//! copied plus guardian entries visited — a machine-independent proxy
//! for GC time (both terms scale linearly with pause time and neither
//! depends on the host), so the score is bit-reproducible.
//!
//! The sweep is an E11-style grid a practitioner could actually ship
//! under a bounded memory budget: nursery triggers up to 4× default and
//! ladders up to 4× stretched, with and without the tenure cap — the
//! three fields (`trigger_bytes`, `frequency`, `promotion`) through
//! which the program, not the collector, decides. The capacity column
//! shows the footprint each policy bought its GC work with.
//!
//! Each row also reports the liveness-drag measurement: dropped objects
//! are watched through weak pairs, and the peak count of
//! dead-in-truth-but-still-weakly-reachable objects in the guardian
//! pool workload shows how far reachability lags true liveness under
//! each policy.

use guardians_gc::{GcConfig, Heap, Promotion};
use guardians_workloads::report::fmt_count;
use guardians_workloads::{
    run_burst_workload, run_cache_workload, run_pool_workload, BurstParams, CacheParams,
    PolicyStats, PoolParams, Table,
};

/// The three workloads, in row order.
pub const WORKLOADS: [&str; 3] = ["cache", "burst", "pool"];

/// One configuration's outcome across the three workloads.
#[derive(Debug, Clone)]
pub struct E22Row {
    /// Row label.
    pub label: String,
    /// Per-workload stats, in [`WORKLOADS`] order.
    pub stats: [PolicyStats; 3],
    /// Geometric mean of per-workload GC work (words copied + guardian
    /// entries visited).
    pub geomean_work: f64,
}

impl E22Row {
    /// The largest end-of-run heap capacity across the three workloads.
    fn peak_capacity_bytes(&self) -> u64 {
        self.stats
            .iter()
            .map(|s| s.final_capacity_bytes)
            .max()
            .unwrap_or(0)
    }
}

fn workload_params(quick: bool) -> (CacheParams, BurstParams, PoolParams) {
    let scale = if quick { 1 } else { 3 };
    (
        CacheParams {
            rounds: 8000 * scale,
            ..CacheParams::default()
        },
        BurstParams {
            bursts: 150 * scale,
            requests_per_burst: 2048,
            request_len: 40,
            ..BurstParams::default()
        },
        PoolParams {
            rounds: 8000 * scale,
            ..PoolParams::default()
        },
    )
}

/// A static sweep member: the default config with `trigger_bytes`,
/// ladder stretch, and tenure cap overridden.
fn static_config(trigger: usize, stretch: u64, cap: bool) -> GcConfig {
    let base = GcConfig::new();
    let frequency = base
        .effective_frequency()
        .iter()
        .enumerate()
        .map(|(g, &f)| if g == 0 { f } else { f.saturating_mul(stretch) })
        .collect();
    GcConfig {
        trigger_bytes: trigger,
        frequency,
        promotion: if cap {
            Promotion::Capped(1)
        } else {
            base.promotion
        },
        ..base
    }
}

/// Runs one workload on a fresh heap built from `cfg`.
fn on_fresh_heap(cfg: &GcConfig, workload: impl FnOnce(&mut Heap) -> PolicyStats) -> PolicyStats {
    let mut heap = Heap::new(cfg.clone());
    let stats = workload(&mut heap);
    heap.verify().expect("heap valid after the workload");
    stats
}

/// Runs the three workloads under `cfg`, in [`WORKLOADS`] order.
fn measure(cfg: &GcConfig, quick: bool) -> [PolicyStats; 3] {
    let (cache, burst, pool) = workload_params(quick);
    [
        on_fresh_heap(cfg, |h| run_cache_workload(h, &cache)),
        on_fresh_heap(cfg, |h| run_burst_workload(h, &burst)),
        on_fresh_heap(cfg, |h| run_pool_workload(h, &pool)),
    ]
}

/// Geometric mean of the per-workload GC work (each clamped to ≥ 1 so a
/// zero-work run cannot zero the product).
fn geomean_work(stats: &[PolicyStats; 3]) -> f64 {
    let product: f64 = stats.iter().map(|s| s.gc_work().max(1) as f64).product();
    product.powf(1.0 / stats.len() as f64)
}

/// Runs the sweep; row 0 is the untuned default.
pub fn run(quick: bool) -> (Table, Vec<E22Row>) {
    const MB: usize = 1024 * 1024;
    let statics: [(&str, usize, u64, bool); 6] = [
        ("static: default (untuned)", MB, 1, false),
        ("static: trigger 4M", 4 * MB, 1, false),
        ("static: ladder x4", MB, 4, false),
        ("static: 4M + ladder x4", 4 * MB, 4, false),
        ("static: tenure cap 1", MB, 1, true),
        ("static: 4M + x4 + cap 1", 4 * MB, 4, true),
    ];
    let rows: Vec<E22Row> = statics
        .into_iter()
        .map(|(label, trigger, stretch, cap)| {
            let stats = measure(&static_config(trigger, stretch, cap), quick);
            E22Row {
                label: label.to_string(),
                geomean_work: geomean_work(&stats),
                stats,
            }
        })
        .collect();
    let default_work = rows[0].geomean_work;

    let mut table = Table::new(
        "E22: static policy sweep (what each GcConfig field buys and costs)",
        &[
            "config",
            "cache kw",
            "burst kw",
            "pool kw",
            "work geomean (kw)",
            "pool drag peak",
            "peak cap (MB)",
            "vs default",
        ],
    );
    for row in &rows {
        let cap_mb = row.peak_capacity_bytes() as f64 / MB as f64;
        table.row(&[
            row.label.clone(),
            fmt_count(row.stats[0].gc_work() / 1000),
            fmt_count(row.stats[1].gc_work() / 1000),
            fmt_count(row.stats[2].gc_work() / 1000),
            format!("{:.1}", row.geomean_work / 1000.0),
            fmt_count(row.stats[2].drag_peak),
            format!("{cap_mb:.1}"),
            format!("{:.2}x", default_work / row.geomean_work),
        ]);
    }
    table.note(super::config_note(&GcConfig::new()));
    table.note(format!(
        "GC work = words copied + guardian entries visited, a deterministic machine-independent proxy for GC time; geomean across the {} workloads; kw = kilowords/kilo-entries",
        WORKLOADS.len()
    ));
    table.note("the sweep is a memory-bounded grid (trigger <=4x default, ladder <=4x stretch, optional tenure cap) applied to all three workloads at once; the capacity column is the footprint each policy bought its GC work with");
    table.note("pool drag peak = dead-in-truth sessions still weakly reachable at a post-collection sample (reachability lagging true liveness); the ring watches the last 32,768 closed sessions, so values at 32,768 are saturated lower bounds. The tenure cap buys promptness (lowest drag); the work-optimal policies pay for their speed in drag — coarser collection means reachability lags liveness longer");
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_sweep_prices_each_knob() {
        let (_t, rows) = run(true);
        assert_eq!(rows.len(), 6);
        // The tenure cap must make guardian reclamation prompter than
        // the untuned default on the pool workload: the static cap-1 row
        // (where the cap is the only change) has strictly lower drag.
        let cap_row = rows
            .iter()
            .find(|r| r.label.contains("tenure cap 1"))
            .expect("cap-only sweep row");
        assert!(
            cap_row.stats[2].drag_peak < rows[0].stats[2].drag_peak,
            "tenure-capped pool drag peak ({}) must be below the default's ({})",
            cap_row.stats[2].drag_peak,
            rows[0].stats[2].drag_peak
        );
        // Drag was observed on every workload of every row.
        for row in &rows {
            assert!(row.stats[2].drag_peak > 0, "{}: pool drag seen", row.label);
        }
        for row in &rows {
            for (w, s) in WORKLOADS.iter().zip(&row.stats) {
                assert!(s.collections > 0, "{}/{w}: collections ran", row.label);
                assert!(s.drag_samples > 0, "{}/{w}: drag sampled", row.label);
            }
        }
        // The table's point: GC work is bought with footprint, so the
        // row that does the least work is not the one that holds the
        // least memory.
        let least_work = rows
            .iter()
            .min_by(|a, b| a.geomean_work.total_cmp(&b.geomean_work))
            .expect("six rows");
        let smallest = rows
            .iter()
            .min_by_key(|r| r.peak_capacity_bytes())
            .expect("six rows");
        assert_ne!(
            least_work.label, smallest.label,
            "best GC-work row must not also be the smallest-footprint row"
        );
    }
}
