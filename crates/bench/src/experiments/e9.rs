//! **E9 — The `pend-final-list` fixpoint loop.**
//!
//! Section 4's algorithm iterates because "if the tconc is not accessible,
//! it may become accessible during the sweeping phase (if pointed to from
//! within one of the objs)". A chain of guardians each registered with the
//! previous one forces one fixpoint iteration per link; this experiment
//! confirms the iteration count scales with the chain and nothing else.

use guardians_gc::{Heap, Value};
use guardians_workloads::report::fmt_count;
use guardians_workloads::Table;

/// One measurement.
#[derive(Debug, Clone)]
pub struct E9Row {
    pub chain: usize,
    pub loop_iterations: u64,
    pub entries_finalized: u64,
}

fn measure(chain: usize) -> E9Row {
    let mut heap = Heap::default();
    let keeper = heap.make_guardian();
    let mut guardians = Vec::new();
    for _ in 0..chain {
        guardians.push(heap.make_guardian());
    }
    keeper.register(&mut heap, guardians[0].tconc());
    for i in 1..chain {
        let inner = guardians[i].tconc();
        guardians[i - 1].register(&mut heap, inner);
    }
    let obj = heap.cons(Value::fixnum(chain as i64), Value::NIL);
    guardians[chain - 1].register(&mut heap, obj);
    drop(guardians);
    heap.collect(heap.config().max_generation());
    let report = heap.last_report().unwrap();
    E9Row {
        chain,
        loop_iterations: report.guardian_loop_iterations,
        entries_finalized: report.guardian_entries_finalized,
    }
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, Vec<E9Row>) {
    let chains: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 4, 16, 64, 256]
    };
    let mut table = Table::new(
        "E9: fixpoint iterations for guardian chains (guardian guarding guardian)",
        &["chain length", "loop iterations", "entries finalized"],
    );
    let mut rows = Vec::new();
    for &c in chains {
        let row = measure(c);
        table.row(&[
            fmt_count(c as u64),
            fmt_count(row.loop_iterations),
            fmt_count(row.entries_finalized),
        ]);
        rows.push(row);
    }
    table.note("iterations = chain + 2: one per resurrected link, one for the innermost object, one empty terminating pass");
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_scale_with_the_chain() {
        let (_t, rows) = run(true);
        for r in &rows {
            assert_eq!(r.loop_iterations, r.chain as u64 + 2, "chain={}", r.chain);
            assert_eq!(
                r.entries_finalized,
                r.chain as u64 + 1,
                "every link + the object"
            );
        }
    }
}
