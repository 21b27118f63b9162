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

#[test]
fn a_heap_alone_on_its_pool_releases_nothing_until_it_drops() {
    let pool = SegmentPool::unbounded();
    let mut h = Heap::with_pool(GcConfig::default(), pool.clone(), None);
    let _ = churn(&mut h, 700);
    h.verify().expect("lone heap verifies");
    let held = pool.outstanding();
    let stats = pool.stats();
    assert_eq!(stats.releases, 0, "a lone table keeps its free store");
    assert_eq!(
        stats.acquires as usize, held,
        "every acquisition grew the table"
    );
    assert!(
        held > h.capacity_bytes() / SEGMENT_BYTES,
        "the free store still holds storage"
    );
    drop(h);
    assert_eq!(pool.stats().releases as usize, held);
    assert_eq!(pool.outstanding(), 0);
}

/// One tenant of [`a_capped_pool_fits_heaps_that_take_turns_collecting`]:
/// `LIVE` rooted one-segment vectors built up front, then per turn `DEAD`
/// unrooted ones and an old-generation collection, all through the
/// fallible entry points.
struct Tenant {
    heap: Heap,
    live: Vec<guardians_gc::Rooted>,
}

const LIVE: usize = 12;
const DEAD: usize = 8;
const TURNS: usize = 6;

impl Tenant {
    fn new(heap: Heap) -> Tenant {
        let mut t = Tenant {
            heap,
            live: Vec::new(),
        };
        for i in 0..LIVE {
            let v = t
                .heap
                .try_make_vector(400, Value::fixnum(i as i64))
                .unwrap_or_else(|e| panic!("live vector {i} refused: {e}"));
            t.live.push(t.heap.root(v));
        }
        t
    }

    fn turn(&mut self, turn: usize) -> Result<(), GcError> {
        for i in 0..DEAD {
            self.heap
                .try_make_vector(400, Value::fixnum((turn * DEAD + i) as i64))?;
        }
        let old = self.heap.config().generations - 1;
        self.heap.try_collect(old).map(|_| ())
    }

    fn observables(&self) -> (u64, u64, u64, usize, String, i64) {
        let stats = self.heap.stats();
        let sum = self
            .live
            .iter()
            .map(|r| self.heap.vector_ref(r.get(), 399).as_fixnum())
            .sum();
        (
            stats.objects_allocated,
            stats.total_words_copied,
            self.heap.collection_count(),
            self.heap.capacity_bytes() / SEGMENT_BYTES,
            self.heap.census().to_json(),
            sum,
        )
    }
}

#[test]
fn a_capped_pool_fits_heaps_that_take_turns_collecting() {
    // Two tenants take turns running an old-generation collection on one
    // capped pool. Each collection's preflight asks for twice its 20
    // from-space segments plus 8, 48 in all. Between turns a tenant holds
    // only its 12 live segments, so the other's collection finds
    // 88 - 12 - 20 = 56 free. A tenant that kept its freed from-space
    // storage would hold 20 + 12 = 32 instead, leaving 36: the pool would
    // refuse the second tenant's first collection.
    const CAPACITY: usize = 88;
    let pool = SegmentPool::with_capacity(CAPACITY);
    let mut tenants = [
        Tenant::new(Heap::with_pool(GcConfig::default(), pool.clone(), None)),
        Tenant::new(Heap::with_pool(GcConfig::default(), pool.clone(), None)),
    ];
    for turn in 0..TURNS {
        for (k, t) in tenants.iter_mut().enumerate() {
            t.turn(turn)
                .unwrap_or_else(|e| panic!("tenant {k}, turn {turn}: {e}"));
            t.heap.verify().expect("tenant verifies after its turn");
        }
        let held: usize = tenants
            .iter()
            .map(|t| t.heap.capacity_bytes() / SEGMENT_BYTES)
            .sum();
        assert_eq!(pool.outstanding(), held, "no idle storage between turns");
    }
    let mut solo = Tenant::new(Heap::new(GcConfig::default()));
    for turn in 0..TURNS {
        solo.turn(turn).expect("a private heap has no cap");
    }
    for t in &tenants {
        assert_eq!(t.observables(), solo.observables(), "pooled == solo");
    }
    assert!(pool.stats().peak_outstanding <= CAPACITY);
}
