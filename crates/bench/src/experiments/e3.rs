//! **E3 — The generation-friendliness claim.**
//!
//! Abstract: "the additional overhead within a generation-based garbage
//! collector is proportional to the work already done there"; Section 1:
//! "there should be no additional overhead for older objects that are not
//! being collected during a particular collection cycle."
//!
//! Setup: park N guardian-registered (live) objects in generation 2, then
//! run young (generation-0) collections over fresh churn. With the
//! paper's per-generation protected lists the collector visits **zero**
//! entries per young collection regardless of N; the flat-list ablation
//! visits all N every time.

use guardians_gc::{GcConfig, Heap, Rooted, Value};
use guardians_workloads::report::fmt_count;
use guardians_workloads::Table;

/// One measurement.
#[derive(Debug, Clone)]
pub struct E3Row {
    pub parked: usize,
    pub per_gen_visited_per_young_gc: u64,
    pub flat_visited_per_young_gc: u64,
}

fn measure(parked: usize, flat: bool, young_collections: usize) -> u64 {
    let config = GcConfig {
        flat_protected: flat,
        ..GcConfig::new()
    };
    let mut heap = Heap::new(config);
    let g = heap.make_guardian();
    let mut roots: Vec<Rooted> = Vec::with_capacity(parked);
    for i in 0..parked {
        let obj = heap.cons(Value::fixnum(i as i64), Value::NIL);
        roots.push(heap.root(obj));
        g.register(&mut heap, obj);
    }
    // Age the population (and the entries) into generation 2.
    heap.collect(0);
    heap.collect(1);
    // Young churn + young collections.
    let mut visited = 0;
    for _ in 0..young_collections {
        for _ in 0..1_000 {
            let _ = heap.cons(Value::NIL, Value::NIL);
        }
        heap.collect(0);
        visited += heap.last_report().unwrap().guardian_entries_visited;
    }
    visited / young_collections as u64
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, Vec<E3Row>) {
    let sizes: &[usize] = if quick {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000, 50_000]
    };
    let young = if quick { 5 } else { 20 };
    let mut table = Table::new(
        "E3: collector overhead for parked guardian entries (per young collection)",
        &[
            "parked entries (gen 2)",
            "visited: per-gen lists",
            "visited: flat list (ablation)",
        ],
    );
    table.exact_all();
    let mut rows = Vec::new();
    for &n in sizes {
        let per_gen = measure(n, false, young);
        let flat = measure(n, true, young);
        table.row(&[fmt_count(n as u64), fmt_count(per_gen), fmt_count(flat)]);
        rows.push(E3Row {
            parked: n,
            per_gen_visited_per_young_gc: per_gen,
            flat_visited_per_young_gc: flat,
        });
    }
    table.note("paper claim: per-generation lists make young-collection guardian work independent of parked entries (column 2 = 0)");
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parked_entries_cost_nothing_with_per_generation_lists() {
        let (_t, rows) = run(true);
        for r in &rows {
            assert_eq!(
                r.per_gen_visited_per_young_gc, 0,
                "parked={}: per-gen lists must not visit parked entries",
                r.parked
            );
            assert_eq!(
                r.flat_visited_per_young_gc, r.parked as u64,
                "parked={}: the flat ablation visits everything",
                r.parked
            );
        }
    }
}
