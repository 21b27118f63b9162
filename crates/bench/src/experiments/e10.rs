//! **E10 — Weak-pair semantics and cost.**
//!
//! Section 4's weak-pair pass: break dead cars, forward surviving ones,
//! run after the guardian pass, and touch only (a) weak pairs copied this
//! collection and (b) dirty old weak segments — never clean parked ones.

use guardians_gc::{Heap, Rooted, Value};
use guardians_workloads::report::fmt_count;
use guardians_workloads::Table;

/// Results.
#[derive(Debug, Clone)]
pub struct E10Result {
    pub pairs: usize,
    pub deaths: usize,
    pub broken: u64,
    pub forwarded: u64,
    pub scanned_young_gc: u64,
    pub scanned_parked_young_gc: u64,
    pub salvaged_kept: bool,
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, E10Result) {
    let pairs = if quick { 1_000 } else { 20_000 };
    let deaths = pairs / 4;

    // Break/forward accounting on one collection.
    let mut heap = Heap::default();
    let mut weak_roots = Vec::new();
    let mut keep = Vec::new();
    for i in 0..pairs {
        let obj = heap.cons(Value::fixnum(i as i64), Value::NIL);
        if i >= deaths {
            keep.push(heap.root(obj));
        }
        let w = heap.weak_cons(obj, Value::NIL);
        weak_roots.push(heap.root(w));
    }
    heap.collect(0);
    let report = heap.last_report().unwrap();
    let broken = report.weak_cars_broken;
    let forwarded = report.weak_cars_forwarded;
    let scanned_young_gc = report.weak_pairs_scanned;

    // Parked clean weak pairs cost nothing at young collections.
    heap.collect(1); // everything now in generation 2
    for _ in 0..50 {
        let _ = heap.cons(Value::NIL, Value::NIL);
    }
    heap.collect(0);
    let scanned_parked = heap.last_report().unwrap().weak_pairs_scanned;

    // Guardian-salvage interaction.
    let mut heap2 = Heap::default();
    let g = heap2.make_guardian();
    let obj = heap2.cons(Value::fixnum(7), Value::NIL);
    let w = heap2.weak_cons(obj, Value::NIL);
    let wr: Rooted = heap2.root(w);
    g.register(&mut heap2, obj);
    heap2.collect(heap2.config().max_generation());
    let saved = g.poll(&mut heap2).expect("salvaged");
    let salvaged_kept = heap2.car(wr.get()) == saved;

    let result = E10Result {
        pairs,
        deaths,
        broken,
        forwarded,
        scanned_young_gc,
        scanned_parked_young_gc: scanned_parked,
        salvaged_kept,
    };
    let mut table = Table::new(
        "E10: weak pairs — breaks, forwards, and scan scope",
        &["metric", "value"],
    );
    table.row(&["weak pairs".into(), fmt_count(pairs as u64)]);
    table.row(&["referents dropped".into(), fmt_count(deaths as u64)]);
    table.row(&["cars broken (collection 1)".into(), fmt_count(broken)]);
    table.row(&["cars forwarded (collection 1)".into(), fmt_count(forwarded)]);
    table.row(&[
        "weak pairs scanned (collection 1)".into(),
        fmt_count(scanned_young_gc),
    ]);
    table.row(&[
        "scanned at young GC once parked".into(),
        fmt_count(result.scanned_parked_young_gc),
    ]);
    table.row(&[
        "salvaged object kept in weak car".into(),
        result.salvaged_kept.to_string(),
    ]);
    table.note("paper: #f replaces dead cars; the pass runs after the guardian pass so salvaged objects keep their weak pointers; clean old weak segments are never visited");
    (table, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_shape_holds() {
        let (_t, r) = run(true);
        assert_eq!(r.broken, r.deaths as u64);
        assert_eq!(r.forwarded, (r.pairs - r.deaths) as u64);
        assert_eq!(
            r.scanned_parked_young_gc, 0,
            "clean parked weak pairs are free"
        );
        assert!(r.salvaged_kept, "the paper's ordering requirement");
    }
}
