//! **E20 — Typed front-end (`guardians-gc-api`) vs raw tagged-value
//! throughput.**
//!
//! The typed layer lowers user structs to the same records the raw API
//! allocates — one interned descriptor symbol per type, then one record
//! per object — and routes every access through `Root<T>` shadow-stack
//! slots and the typed accessors. This experiment prices that safety
//! layer: it builds an identical guarded linked chain through both
//! surfaces (allocate, wire edges through the write barrier, register a
//! fraction with a guardian, drop the roots, collect everything, drain
//! the guardian), times the full lifecycle per node, and checks the
//! observables — finalization count, drain order, the whole census —
//! stay identical. The overhead is the cost of `Gc<T>`/`Root<T>`
//! ergonomics, not of different heap behaviour.

use guardians_gc::{GcConfig, Heap, Rooted, Value};
use guardians_gc_api::{impl_trace, GcHeap, Guardian, Root};
use guardians_workloads::Table;
use std::time::Instant;

impl_trace! {
    /// The chain link both builders allocate: an id plus one typed edge.
    pub struct Link {
        /// Chain position.
        pub id: i64,
        /// Previous link (`None` at the head).
        pub prev: Option<Root<Link>>,
    }
}

/// One chain size's outcome under both surfaces.
#[derive(Debug, Clone)]
pub struct E20Row {
    pub nodes: usize,
    pub guarded: usize,
    pub raw_ns_per_node: f64,
    pub typed_ns_per_node: f64,
    /// typed time / raw time.
    pub overhead: f64,
    /// Census, finalization count, and drain order all matched.
    pub identical: bool,
}

/// Every `guarded_every`-th node is registered with the guardian.
const GUARDED_EVERY: usize = 4;

/// Builds, kills, collects, and drains an `n`-link chain through the
/// typed API. Returns (elapsed ns, drained ids, census JSON).
fn typed_cycle(n: usize) -> (f64, Vec<i64>, String) {
    let start = Instant::now();
    let mut h = GcHeap::new(GcConfig::new());
    let g: Guardian<Link> = h.guardian();
    let mut prev: Option<Root<Link>> = None;
    for id in 0..n {
        let link = h.alloc(&Link {
            id: id as i64,
            prev: None,
        });
        // Wire the edge through the typed write-barrier path, as user
        // code would after allocation.
        h.set_field(&link, 1, &prev);
        if id % GUARDED_EVERY == 0 {
            h.guard(&g, &link);
        }
        prev = Some(link);
    }
    drop(prev);
    let max_gen = 3;
    for gen in [0u8, max_gen] {
        h.collect(gen);
    }
    let mut ids = Vec::new();
    while let Some(r) = h.poll(&g) {
        ids.push(h.read(&r).id);
    }
    let ns = start.elapsed().as_nanos() as f64;
    (ns / n as f64, ids, h.census().to_json())
}

/// The same cycle through the raw tagged-value API, mirroring the typed
/// lowering allocation-for-allocation (descriptor symbol first, then one
/// record per link).
fn raw_cycle(n: usize) -> (f64, Vec<i64>, String) {
    let start = Instant::now();
    let mut h = Heap::new(GcConfig::new());
    let g = h.make_guardian();
    let desc_v = h.make_symbol("Link");
    let desc = h.root(desc_v);
    let mut prev: Option<Rooted> = None;
    for id in 0..n {
        let rec = h.make_record(desc.get(), &[Value::fixnum(id as i64), Value::NIL]);
        let root = h.root(rec);
        let pv = prev.as_ref().map_or(Value::NIL, Rooted::get);
        h.record_set(rec, 1, pv);
        if id % GUARDED_EVERY == 0 {
            g.register(&mut h, root.get());
        }
        prev = Some(root);
    }
    drop(prev);
    let max_gen = 3;
    for gen in [0u8, max_gen] {
        h.collect(gen);
    }
    let mut ids = Vec::new();
    while let Some(v) = g.poll(&mut h) {
        ids.push(h.record_ref(v, 0).as_fixnum());
    }
    let ns = start.elapsed().as_nanos() as f64;
    (ns / n as f64, ids, h.census().to_json())
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, Vec<E20Row>) {
    let sizes: &[usize] = if quick {
        &[1_000, 4_000]
    } else {
        &[10_000, 40_000]
    };
    let mut table = Table::new(
        "E20: typed front-end (gc-api) vs raw tagged-value throughput",
        &[
            "nodes",
            "guarded",
            "raw ns/node",
            "typed ns/node",
            "overhead",
            "identical",
        ],
    );
    table.exact(&["nodes", "guarded", "identical"]);
    let mut rows = Vec::new();
    for &n in sizes {
        // Warm both paths once so neither pays first-touch segment costs.
        let _ = raw_cycle(n.min(256));
        let _ = typed_cycle(n.min(256));
        let (raw_ns, raw_ids, raw_census) = raw_cycle(n);
        let (typed_ns, typed_ids, typed_census) = typed_cycle(n);
        let row = E20Row {
            nodes: n,
            guarded: n.div_ceil(GUARDED_EVERY),
            raw_ns_per_node: raw_ns,
            typed_ns_per_node: typed_ns,
            overhead: typed_ns / raw_ns,
            identical: raw_ids == typed_ids && raw_census == typed_census,
        };
        table.row(&[
            format!("{n}"),
            format!("{}", row.guarded),
            format!("{:.0}", row.raw_ns_per_node),
            format!("{:.0}", row.typed_ns_per_node),
            format!("{:.2}x", row.overhead),
            if row.identical { "yes" } else { "NO" }.to_string(),
        ]);
        rows.push(row);
    }
    table.note(super::env_note(1, None));
    table.note(
        "lifecycle per node: alloc + edge store (write barrier) + 1-in-4 guardian registration, \
         then drop all roots, collect young + full, drain the guardian",
    );
    table.note(
        "the typed layer allocates exactly what the raw code allocates (descriptor symbol, then \
         records), so 'identical' compares drain order and the full census byte for byte — the \
         overhead column prices Gc<T>/Root<T> ergonomics, not different heap behaviour",
    );
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_layer_is_observably_identical_and_overhead_bounded() {
        let (_t, rows) = run(true);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(
                row.identical,
                "{} nodes: typed and raw observables diverged",
                row.nodes
            );
            assert!(
                row.overhead < 10.0,
                "{} nodes: typed overhead blew up ({:.2}x)",
                row.nodes,
                row.overhead
            );
        }
    }
}
