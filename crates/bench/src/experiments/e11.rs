//! **E11 — Whole-collector characterisation.**
//!
//! Section 4's collector: generations, promotion, target generation,
//! schedule. Under a generational-hypothesis workload, more generations
//! should reduce total copying (old survivors are not re-copied) and
//! shrink the typical pause, which is why the paper's overhead claims are
//! stated *relative to generational work*.
//!
//! The table is the work the collector did — collections and words
//! copied. How fast it copied them is a time, sampled by `benchmark/`
//! (`gc.collect.copy_mw_per_s`, `gc.collect.phase.*`, `pause_p99_us`).

use guardians_gc::{GcConfig, Heap, Promotion};
use guardians_workloads::report::fmt_count;
use guardians_workloads::{run_lifetime_workload, LifetimeParams, Table};

/// One configuration's outcome.
#[derive(Debug, Clone)]
pub struct E11Row {
    pub generations: u8,
    pub collections: u64,
    pub words_copied: u64,
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
    E11Row {
        generations,
        collections: stats.collections,
        words_copied: stats.words_copied,
    }
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, Vec<E11Row>) {
    let allocations = if quick { 30_000 } else { 300_000 };
    let mut table = Table::new(
        "E11: collector characterisation under a generational workload",
        &["configuration", "collections", "words copied"],
    );
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
        table.row(&[
            name.to_string(),
            fmt_count(row.collections),
            fmt_count(row.words_copied),
        ]);
        rows.push(row);
    }
    table.note("generations reduce re-copying of long-lived data; tenure strategies (paper: 'under programmer control') trade residency against re-copying");
    table.note("profile any row's pauses with `gcprof --scenario e11`");
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
}
