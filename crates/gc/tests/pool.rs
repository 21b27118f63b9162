//! Shared-pool multi-heap contracts: several heaps drawing on one
//! [`SegmentPool`] must behave exactly like private heaps (byte-identical
//! observables), surface pool/watermark scarcity as clean
//! [`GcError::Exhausted`]s on the `try_*` paths, return every segment on
//! teardown, and keep their metrics/census strictly per-heap.

use guardians_gc::{GcConfig, GcError, Heap, SegmentPool, Value, SEGMENT_BYTES};

/// A deterministic churn workload: list building with a rooted survivor
/// window, guardian registrations, explicit collections. Returns the
/// heap's deterministic observables.
fn churn(h: &mut Heap, items: i64) -> (u64, u64, u64, u64, String) {
    let g = h.make_guardian();
    let mut window = Vec::new();
    for i in 0..items {
        let s = h.make_string(&format!("session-{i}"));
        let p = h.cons(Value::fixnum(i), s);
        g.register(h, p);
        window.push(h.root(p));
        if window.len() > 32 {
            window.remove(0);
        }
        if i % 100 == 99 {
            h.collect(0);
        }
    }
    h.collect(h.config().generations - 1);
    let salvaged = g.drain(h).len() as u64;
    let stats = h.stats();
    (
        stats.objects_allocated,
        stats.total_words_copied,
        salvaged,
        h.collection_count(),
        h.census().to_json(),
    )
}

#[test]
fn pooled_heaps_match_private_observables_exactly() {
    let pool = SegmentPool::unbounded();
    let mut private = Heap::new(GcConfig::default());
    let mut pooled_a = Heap::with_pool(GcConfig::default(), pool.clone(), None);
    let mut pooled_b = Heap::with_pool(GcConfig::default(), pool.clone(), Some(4096));

    let want = churn(&mut private, 700);
    assert_eq!(churn(&mut pooled_a, 700), want, "pooled == private");
    assert_eq!(churn(&mut pooled_b, 700), want, "watermarked == private");

    pooled_a.verify().expect("pooled heap verifies");
    pooled_b.verify().expect("watermarked heap verifies");
}

#[test]
fn watermark_exhaustion_leaves_siblings_byte_identical() {
    // Zone A is quota-capped far below the pool capacity; draining A must
    // not perturb B in any observable way.
    let pool = SegmentPool::with_capacity(4096);
    let mut a = Heap::with_pool(GcConfig::default(), pool.clone(), Some(4));
    let mut b = Heap::with_pool(GcConfig::default(), pool.clone(), None);
    let mut solo = Heap::new(GcConfig::default());

    // Exhaust A: keep everything rooted so collection cannot help.
    let mut a_roots = Vec::new();
    let exhausted = loop {
        match a.try_cons(Value::fixnum(1), Value::NIL) {
            Ok(p) => a_roots.push(a.root(p)),
            Err(GcError::Exhausted { needed, remaining }) => break (needed, remaining),
        }
    };
    assert_eq!(exhausted, (1, 0), "clean refusal at the watermark");
    assert!(pool.remaining() > 0, "pool itself has headroom left");
    a.verify().expect("exhausted heap intact");

    // B (pool-backed) and a private solo heap run the same workload.
    assert_eq!(churn(&mut b, 500), churn(&mut solo, 500));
    b.verify().expect("sibling verifies");

    // A can still *collect* within its watermark once roots drop.
    a_roots.clear();
    a.collect(0);
    a.verify().expect("exhausted zone recovers by collecting");
    assert!(a.try_cons(Value::fixnum(2), Value::NIL).is_ok());
}

#[test]
fn pool_exhaustion_is_shared_scarcity_and_teardown_restores_it() {
    let pool = SegmentPool::with_capacity(12);
    let mut b = Heap::with_pool(GcConfig::default(), pool.clone(), None);
    // B takes one segment up front so it exists before scarcity hits.
    let keep = {
        let p = b.cons(Value::fixnum(7), Value::NIL);
        b.root(p)
    };

    // A, unmarked, drains the rest of the pool.
    let mut a = Heap::with_pool(GcConfig::default(), pool.clone(), None);
    let mut a_roots = Vec::new();
    while let Ok(v) = a.try_make_vector(400, Value::NIL) {
        a_roots.push(a.root(v));
    }
    assert_eq!(pool.remaining(), 0);
    // Scarcity is shared: B's preflight refuses a fresh-segment demand.
    let err = b.try_make_vector(400, Value::NIL).unwrap_err();
    let GcError::Exhausted { remaining, .. } = err;
    assert_eq!(remaining, 0);

    // Tearing A down returns its segments; B is immediately unblocked.
    let a_outstanding = a.capacity_bytes() / SEGMENT_BYTES;
    drop(a_roots);
    drop(a);
    assert!(pool.remaining() >= a_outstanding as u64);
    b.try_make_vector(400, Value::NIL)
        .expect("teardown restored shared capacity");
    assert_eq!(b.car(keep.get()), Value::fixnum(7));
    b.verify().expect("sibling valid throughout");

    drop(keep);
    drop(b);
    let stats = pool.stats();
    assert_eq!(stats.outstanding, 0, "every segment returned");
    assert_eq!(stats.attached_tables, 0, "no lingering owners");
}

#[test]
fn metrics_and_census_stay_per_heap() {
    // The cross-zone bleed check: collecting (and allocating) in one heap
    // must leave a sibling's metrics registry, pause histogram, and
    // census untouched — telemetry is attributable per zone.
    let pool = SegmentPool::unbounded();
    let mut busy = Heap::with_pool(GcConfig::default(), pool.clone(), None);
    let mut idle = Heap::with_pool(GcConfig::default(), pool.clone(), None);
    let idle_census_before = idle.census();

    let _ = churn(&mut busy, 600);
    assert!(busy.metrics().counter("gc.collections") > 0);
    assert!(busy.metrics().get_histogram("gc.pause_ns").is_some());

    assert_eq!(idle.metrics().counter("gc.collections"), 0);
    assert!(
        idle.metrics().get_histogram("gc.pause_ns").is_none(),
        "no pause sample leaked across heaps"
    );
    assert_eq!(idle.census(), idle_census_before);
    assert_eq!(idle.collection_count(), 0);
}

#[test]
fn large_object_churn_on_a_bounded_pool_reuses_its_runs() {
    // One dead 3-segment bytevector per collection: the freed run must be
    // what the next bytevector is made of. A table that only ever takes
    // fresh indices for runs drains a 64-segment pool in ~20 iterations.
    let pool = SegmentPool::with_capacity(64);
    let mut h = Heap::with_pool(GcConfig::default(), pool.clone(), None);
    let mut settled = 0;
    for i in 0..1000 {
        let bv = h
            .try_make_bytevector(10_000, i as u8)
            .unwrap_or_else(|e| panic!("allocation {i} refused: {e}"));
        assert_eq!(h.bytevector_ref(bv, 9_999), i as u8);
        h.try_collect(0)
            .unwrap_or_else(|e| panic!("collection {i} refused: {e}"));
        if i == 4 {
            settled = pool.stats().peak_outstanding;
        }
    }
    assert_eq!(
        pool.stats().peak_outstanding,
        settled,
        "the pool's peak stops growing once the first runs are free"
    );
    assert!(settled <= 8, "peak of {settled} segments for one live run");
    h.verify().expect("heap valid after the churn");
}
