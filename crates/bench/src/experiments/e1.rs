//! **E1 — Figure 1: the guarded hash table removes useless entries.**
//!
//! The paper's Figure 1 claims that guardians + weak pairs "allow removal
//! of useless entries" with support "entirely contained within the shaded
//! areas". We replay an identical churn script against three tables and
//! report table growth and clean-up work.

use crate::replay::{replay, ReplayOutcome, TableKind};
use guardians_gc::Heap;
use guardians_workloads::report::fmt_count;
use guardians_workloads::{table_script, ChurnParams, Table};

/// Structured results for one mechanism.
#[derive(Debug, Clone)]
pub struct E1Row {
    pub kind: TableKind,
    pub outcome: ReplayOutcome,
}

/// Runs the experiment; `quick` shrinks the workload for CI/tests.
pub fn run(quick: bool) -> (Table, Vec<E1Row>) {
    let params = ChurnParams {
        ops: if quick { 4_000 } else { 40_000 },
        live_target: if quick { 300 } else { 2_000 },
        collect_every: 500,
        collect_generation: 3,
        ..ChurnParams::default()
    };
    let script = table_script(&params);
    let mut table = Table::new(
        "E1 (Figure 1): guarded hash table vs weak-only tables — identical churn",
        &[
            "mechanism",
            "live keys",
            "physical entries",
            "peak entries",
            "cleanup touched",
            "lookup misses",
        ],
    );
    let mut rows = Vec::new();
    for kind in [
        TableKind::Guarded,
        TableKind::WeakNoScrub,
        TableKind::WeakFullScan,
    ] {
        let mut heap = Heap::default();
        let outcome = replay(&mut heap, kind, 128, &script);
        table.row(&[
            format!("{kind:?}"),
            fmt_count(outcome.live_keys as u64),
            fmt_count(outcome.physical_entries as u64),
            fmt_count(outcome.peak_physical_entries as u64),
            fmt_count(outcome.cleanup_entries_touched),
            fmt_count(outcome.misses),
        ]);
        rows.push(E1Row { kind, outcome });
    }
    table.note("paper: guarded table tracks the live population; weak-only either leaks (NoScrub) or pays full scans (FullScan)");
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shape_holds() {
        let (_t, rows) = run(true);
        let guarded = &rows[0].outcome;
        let leaky = &rows[1].outcome;
        let scans = &rows[2].outcome;
        for r in &rows {
            assert_eq!(r.outcome.misses, 0, "{:?} correctness", r.kind);
        }
        assert!(guarded.physical_entries < leaky.physical_entries);
        assert!(guarded.cleanup_entries_touched < scans.cleanup_entries_touched);
    }
}
