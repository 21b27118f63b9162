//! Parity property: a random typed object graph built through
//! `Gc<T>`/`Root<T>` produces a census and collection counters identical
//! to the same graph built through the raw tagged-value API.
//!
//! Both builders execute the same abstract plan (allocate `n` nodes, wire
//! random edges, take weak references, register with a guardian, drop a
//! subset of roots, collect, poll) against two heaps with the same
//! `GcConfig`. The typed layer's lowering is defined to allocate exactly
//! what the raw code allocates — one interned descriptor symbol per type,
//! then one record per node — so every heap observable must match:
//!
//! * the full [`HeapCensus`] (live words/objects per generation × kind),
//! * every [`CollectionReport`] counter except `duration`/`phases` (wall
//!   clock) and `increments` (the schedule's pacing) — root visits
//!   included, because a typed root is a slot of the heap's own root
//!   table, claimed and freed in the order the raw code claims and frees
//!   its `Rooted`s, and a typed weak is a weak slot of the same table,
//!   which the raw code claims with `RootSet::weak` — and
//! * the guardian queue contents, compared as lifted node ids.

use guardians_gc::{CollectionReport, GcConfig, Heap, Rooted, Value, WeakRooted};
use guardians_gc_api::{impl_trace, GcHeap, Guardian, Root, Trace, Weak};
use proptest::prelude::*;

impl_trace! {
    pub struct PNode {
        pub id: i64,
        pub left: Option<Root<PNode>>,
        pub right: Option<Root<PNode>>,
    }
}

/// The abstract plan both builders execute.
#[derive(Debug, Clone)]
struct Plan {
    n: usize,
    edges: Vec<(usize, usize, bool)>,
    weaks: Vec<usize>,
    guarded: Vec<usize>,
    drops: Vec<usize>,
    collects: Vec<u8>,
}

fn plan(
    n: usize,
    edges: &[(u16, u16, bool)],
    weaks: &[u16],
    guarded: &[u16],
    drops: &[u16],
    collects: &[u8],
) -> Plan {
    Plan {
        n,
        edges: edges
            .iter()
            .map(|&(a, b, s)| (a as usize % n, b as usize % n, s))
            .collect(),
        weaks: weaks.iter().map(|&w| w as usize % n).collect(),
        guarded: guarded.iter().map(|&g| g as usize % n).collect(),
        drops: drops.iter().map(|&d| d as usize % n).collect(),
        collects: collects.to_vec(),
    }
}

/// Counters that must match exactly between the two builders.
fn comparable(r: &CollectionReport) -> Vec<u64> {
    vec![
        r.collection_index,
        u64::from(r.collected_generation),
        u64::from(r.target_generation),
        r.pairs_copied,
        r.objects_copied,
        r.words_copied,
        r.roots_traced,
        r.roots_retraced,
        r.dirty_segments_scanned,
        r.dirty_cards_scanned,
        r.guardian_entries_visited,
        r.guardian_entries_held,
        r.guardian_entries_finalized,
        r.guardian_entries_dropped,
        r.guardian_loop_iterations,
        r.weak_pairs_scanned,
        r.weak_cars_broken,
        r.weak_cars_forwarded,
        r.weak_roots_traced,
        r.weak_roots_broken,
        r.pure_words_skipped,
        r.segments_freed,
        r.segments_allocated,
    ]
}

/// Runs the plan through the typed API. Returns per-collection counters
/// and the drained guardian ids.
fn run_typed(cfg: GcConfig, p: &Plan) -> (GcHeap, Vec<Vec<u64>>, Vec<i64>) {
    let mut h = GcHeap::new(cfg);
    let g: Guardian<PNode> = h.guardian();
    let mut roots: Vec<Option<Root<PNode>>> = (0..p.n)
        .map(|id| {
            Some(h.alloc(&PNode {
                id: id as i64,
                left: None,
                right: None,
            }))
        })
        .collect();
    for &(from, to, left) in &p.edges {
        if let (Some(f), Some(t)) = (&roots[from], &roots[to]) {
            let edge = Some(t.clone());
            h.set_field(f, if left { 1 } else { 2 }, &edge);
        }
    }
    let mut weaks: Vec<Weak<PNode>> = Vec::new();
    for &w in &p.weaks {
        if let Some(r) = &roots[w] {
            weaks.push(h.downgrade(r));
        }
    }
    for &gi in &p.guarded {
        if let Some(r) = &roots[gi] {
            h.guard(&g, r);
        }
    }
    for &d in &p.drops {
        roots[d] = None;
    }
    let mut counters = Vec::new();
    for &gen in &p.collects {
        counters.push(comparable(h.collect(gen)));
    }
    let mut ids: Vec<i64> = Vec::new();
    while let Some(r) = h.poll(&g) {
        ids.push(h.read(&r).id);
    }
    drop(weaks);
    (h, counters, ids)
}

/// Runs the plan through the raw tagged-value API, mirroring the typed
/// lowering allocation-for-allocation.
fn run_raw(cfg: GcConfig, p: &Plan) -> (Heap, Vec<Vec<u64>>, Vec<i64>) {
    let mut h = Heap::new(cfg);
    let g = h.make_guardian();
    // The typed layer interns one descriptor symbol per type on first
    // alloc; mirror that here (string + symbol + root).
    let desc_v = h.make_symbol(<PNode as Trace>::NAME);
    let desc = h.root(desc_v);
    let mut roots: Vec<Option<Rooted>> = (0..p.n)
        .map(|id| {
            let rec = h.make_record(
                desc.get(),
                &[Value::fixnum(id as i64), Value::NIL, Value::NIL],
            );
            Some(h.root(rec))
        })
        .collect();
    for &(from, to, left) in &p.edges {
        if let (Some(f), Some(t)) = (&roots[from], &roots[to]) {
            let (fv, tv) = (f.get(), t.get());
            h.record_set(fv, if left { 1 } else { 2 }, tv);
        }
    }
    let mut weaks: Vec<WeakRooted> = Vec::new();
    for &w in &p.weaks {
        if let Some(r) = &roots[w] {
            weaks.push(h.roots().weak(r.get()));
        }
    }
    for &gi in &p.guarded {
        if let Some(r) = &roots[gi] {
            g.register(&mut h, r.get());
        }
    }
    for &d in &p.drops {
        roots[d] = None;
    }
    let mut counters = Vec::new();
    for &gen in &p.collects {
        counters.push(comparable(h.collect(gen)));
    }
    let mut ids: Vec<i64> = Vec::new();
    while let Some(v) = g.poll(&mut h) {
        ids.push(h.record_ref(v, 0).as_fixnum());
    }
    drop(weaks);
    (h, counters, ids)
}

fn check_parity(cfg: GcConfig, p: &Plan) {
    let (th, tc, tids) = run_typed(cfg.clone(), p);
    let (rh, rc, rids) = run_raw(cfg, p);
    assert_eq!(tc, rc, "collection counters diverged for {p:?}");
    assert_eq!(tids, rids, "guardian queue contents diverged for {p:?}");
    assert_eq!(
        th.census(),
        rh.census(),
        "census diverged for {p:?}\ntyped: {}\nraw:   {}",
        th.census().to_json(),
        rh.census().to_json()
    );
    assert_eq!(th.stats().collections, rh.stats().collections);
    assert_eq!(
        th.stats().guardian_registrations,
        rh.stats().guardian_registrations
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn typed_and_raw_graphs_are_observably_identical(
        n in 2usize..12,
        edges in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<bool>()), 0..24),
        weaks in proptest::collection::vec(any::<u16>(), 0..6),
        guarded in proptest::collection::vec(any::<u16>(), 0..6),
        drops in proptest::collection::vec(any::<u16>(), 0..8),
        collects in proptest::collection::vec(0u8..3, 1..4),
    ) {
        let p = plan(n, &edges, &weaks, &guarded, &drops, &collects);
        check_parity(GcConfig::new(), &p);
    }
}

/// The same parity holds under both schedules, stop-the-world and
/// incremental (a fixed dense plan rather than the full random sweep, to
/// keep the matrix cheap; the name predates the worker engine's removal).
#[test]
fn parity_holds_under_all_three_engines() {
    let p = plan(
        8,
        &[
            (0, 1, true),
            (1, 2, false),
            (2, 3, true),
            (3, 0, false),
            (4, 5, true),
            (6, 7, true),
        ],
        &[1, 4, 6],
        &[2, 5, 7, 7],
        &[1, 2, 5, 7],
        &[0, 1, 0],
    );
    let mut budget = GcConfig::new();
    budget.pause_budget = Some(std::time::Duration::from_micros(100));
    for cfg in [GcConfig::new(), budget] {
        check_parity(cfg, &p);
    }
}
