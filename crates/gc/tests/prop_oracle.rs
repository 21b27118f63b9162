//! Scripted regression for multi-segment runs, checked directly against
//! the heap. The random-program oracle this file once held is gone: the
//! torture rig's shadow model is the heap's one executable spec, and the
//! same scenario is also the committed trace
//! `crates/torture/regressions/large-runs.trace`. This test keeps it in
//! the collector's own suite, with no model beside the heap: every
//! expectation below is written out by hand.

use guardians_gc::{Heap, Rooted, Value};

/// Payload length of a "large" node: with the header and the three link
/// slots this exceeds two segments, so the vector body lives in a
/// multi-segment run and is forwarded with cross-run bulk copies.
const LARGE_PAYLOAD: usize = 1200;

/// Slots before the payload: `[id, left, right]`.
const HEAD: usize = 3;

/// Deterministic payload pattern for slot `k` of node `id`.
fn payload_word(id: i64, k: usize) -> i64 {
    id * 10_000 + k as i64
}

/// Allocates node `id`: `[id, #f, #f, payload...]`.
fn node(h: &mut Heap, id: i64, large: bool) -> Value {
    let len = if large { HEAD + LARGE_PAYLOAD } else { HEAD };
    let v = h.make_vector(len, Value::FALSE);
    h.vector_set(v, 0, Value::fixnum(id));
    for k in HEAD..len {
        h.vector_set(v, k, Value::fixnum(payload_word(id, k)));
    }
    v
}

/// Asserts that `v` is node `id` with its payload bit-intact.
fn check_node(h: &Heap, v: Value, id: i64) {
    assert!(h.is_vector(v), "node {id} is a vector");
    assert_eq!(
        h.vector_ref(v, 0),
        Value::fixnum(id),
        "identity of node {id}"
    );
    for k in HEAD..h.vector_len(v) {
        assert_eq!(
            h.vector_ref(v, k),
            Value::fixnum(payload_word(id, k)),
            "payload word {k} of node {id} corrupted by copying"
        );
    }
}

/// A weak pair per large node, rooted, so the test can watch each run
/// die without retaining it.
fn probe(h: &mut Heap, v: Value) -> Rooted {
    let wp = h.weak_cons(v, Value::NIL);
    h.root(wp)
}

/// Large nodes (multi-segment runs) linked from a small rooted anchor
/// survive repeated promotions — each one a cross-run bulk copy — with
/// payloads intact, including after an old-generation store marks a card
/// of a run (and flags its head) for the remembered set; dropping the
/// anchor then frees every run.
#[test]
fn large_object_runs_survive_cross_run_copies() {
    let mut h = Heap::default();
    let max = h.config().max_generation();
    assert_eq!(max, 3, "the script promotes through four generations");

    let anchor = node(&mut h, 0, false);
    let anchor = h.root(anchor);
    let n1 = node(&mut h, 1, true);
    let n2 = node(&mut h, 2, true);
    let p1 = probe(&mut h, n1);
    let p2 = probe(&mut h, n2);
    h.vector_set(anchor.get(), 1, n1);
    h.vector_set(n1, 2, n2);

    // Promote through every generation: each collection forwards both
    // large runs with cross-run copies.
    for (gen, aged) in [(0, 1), (0, 1), (1, 2), (2, 3), (3, 3)] {
        h.collect(gen);
        h.verify().expect("heap verifies after collection");
        let a = anchor.get();
        let n1 = h.vector_ref(a, 1);
        let n2 = h.vector_ref(n1, 2);
        check_node(&h, a, 0);
        check_node(&h, n1, 1);
        check_node(&h, n2, 2);
        for v in [a, n1, n2] {
            assert_eq!(h.generation_of(v), Some(aged), "after collect {gen}");
        }
        assert_eq!(h.car(p1.get()), n1, "weak edge to node 1 forwarded");
        assert_eq!(h.car(p2.get()), n2, "weak edge to node 2 forwarded");
    }

    // Store a young run into the (now oldest) large node: the store must
    // mark n1's card and flag its run head, or the young collection never
    // scans the run and reclaims n3 under a live edge.
    let n3 = node(&mut h, 3, true);
    let p3 = probe(&mut h, n3);
    let n1 = h.vector_ref(anchor.get(), 1);
    h.vector_set(n1, 1, n3);
    h.collect(0);
    h.verify()
        .expect("heap verifies after the young collection");
    let n1 = h.vector_ref(anchor.get(), 1);
    let n3 = h.vector_ref(n1, 1);
    check_node(&h, n1, 1);
    check_node(&h, n3, 3);
    check_node(&h, h.vector_ref(n1, 2), 2);
    assert_eq!(h.generation_of(n1), Some(max), "old run not moved");
    assert_eq!(h.generation_of(n3), Some(1), "young run promoted");
    assert_eq!(h.car(p3.get()), n3, "weak edge to node 3 forwarded");

    // Drop the anchor: every run is reclaimed without tripping
    // verification, and each weak edge to one breaks.
    drop(anchor);
    for _ in 0..2 {
        h.collect(max);
        h.verify().expect("heap verifies after the full collection");
    }
    for (i, p) in [p1, p2, p3].iter().enumerate() {
        assert!(h.car(p.get()).is_false(), "run {} reclaimed", i + 1);
    }
}
