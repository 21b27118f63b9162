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
//! entries per young collection regardless of N. The comparison column is
//! what a collector with one flat protected list would visit — every
//! entry registered when the collection begins, so it is *read off the
//! heap* (the protected lists' total length) rather than measured on a
//! second collector: a flat list holds exactly the entries the
//! per-generation lists hold between them and is walked whole. The
//! collector once had a switch that built that variant; it measured N on
//! every row, as this does.

use guardians_gc::{Heap, Rooted, Value};
use guardians_workloads::report::fmt_count;
use guardians_workloads::Table;

/// One measurement.
#[derive(Debug, Clone)]
pub struct E3Row {
    pub parked: usize,
    pub per_gen_visited_per_young_gc: u64,
    pub registered_per_young_gc: u64,
}

/// Per young collection: the entries the guardian pass visited, and the
/// entries registered when it began.
fn measure(parked: usize, young_collections: usize) -> (u64, u64) {
    let mut heap = Heap::default();
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
    let (mut visited, mut registered) = (0, 0);
    for _ in 0..young_collections {
        for _ in 0..1_000 {
            let _ = heap.cons(Value::NIL, Value::NIL);
        }
        registered += heap
            .census()
            .generations
            .iter()
            .map(|g| g.protected_entries)
            .sum::<u64>();
        heap.collect(0);
        visited += heap.last_report().unwrap().guardian_entries_visited;
    }
    let per_gc = |total: u64| total / young_collections as u64;
    (per_gc(visited), per_gc(registered))
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
            "registered (a flat list visits all)",
        ],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let (per_gen, registered) = measure(n, young);
        table.row(&[
            fmt_count(n as u64),
            fmt_count(per_gen),
            fmt_count(registered),
        ]);
        rows.push(E3Row {
            parked: n,
            per_gen_visited_per_young_gc: per_gen,
            registered_per_young_gc: registered,
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
                r.registered_per_young_gc, r.parked as u64,
                "parked={}: a flat list would visit everything",
                r.parked
            );
        }
    }
}
