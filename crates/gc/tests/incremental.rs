//! The bounded-pause (incremental) engine: work-counter parity with the
//! serial engine, guardian/weak observable equivalence across budgets,
//! the between-increment heap invariants (forwarded-on-read and
//! write-barrier coverage) under a randomized interleaved mutator, and
//! clean mid-cycle fault behaviour.

use guardians_gc::{
    CollectionReport, GcConfig, GcError, Heap, PhaseTimes, Promotion, Rooted, RootedVec, Value,
};
use std::time::Duration;

/// Deterministic xorshift64 so both heaps of a comparison run the exact
/// same operation sequence.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn incremental_config(budget: Option<Duration>) -> GcConfig {
    GcConfig {
        pause_budget: budget,
        ..GcConfig::new()
    }
}

/// Builds the same little object graph in any heap: lists, vectors,
/// strings, weak pairs, guardian registrations, and a few dropped roots,
/// using `rng` for every choice.
fn populate(h: &mut Heap, rng: &mut XorShift) -> guardians_gc::RootedVec {
    let objs = h.root_vec();
    let g = h.make_guardian();
    let _gr = h.root(g.tconc());
    for i in 0..300i64 {
        let v = match rng.below(5) {
            0 => {
                let s = h.make_string(&format!("s{i}"));
                h.cons(s, Value::fixnum(i))
            }
            1 => h.make_vector((rng.below(6) + 1) as usize, Value::fixnum(i)),
            2 => h.make_box(Value::fixnum(i)),
            3 => {
                let tail = if objs.is_empty() {
                    Value::NIL
                } else {
                    objs.get(rng.below(objs.len() as u64) as usize)
                };
                h.cons(Value::fixnum(i), tail)
            }
            _ => {
                let referent = h.cons(Value::fixnum(i), Value::NIL);
                h.weak_cons(referent, Value::fixnum(i))
            }
        };
        if rng.below(8) == 0 {
            g.register(h, v);
        }
        if rng.below(4) != 0 {
            objs.push(v);
        }
    }
    objs
}

/// The report without what only the schedule decides: timings, the
/// increment count, and the root slots re-traced by the increments of a
/// collection whose target is its own generation (DESIGN §10).
fn work_counters(r: &CollectionReport) -> CollectionReport {
    CollectionReport {
        roots_retraced: 0,
        duration: Duration::ZERO,
        phases: PhaseTimes::default(),
        increments: 0,
        ..r.clone()
    }
}

/// With a quiescent mutator the incremental engine visits objects in the
/// same order as the serial engine, so every deterministic work counter
/// of the report is byte-identical — only timings and the increment
/// count may differ — and every survivor lands in the same generation.
/// Each promotion rule is fixed at construction, and the collection
/// sequence reaches the oldest generation under each.
#[test]
fn quiescent_work_counters_match_serial_exactly() {
    let run = |promotion: Promotion, budget: Option<Duration>| {
        let mut h = Heap::new(GcConfig {
            promotion,
            ..incremental_config(budget)
        });
        let mut rng = XorShift::new(0x1E51);
        let objs = populate(&mut h, &mut rng);
        let mut reports = Vec::new();
        for gen in [0u8, 0, 1, 0, 2, 3, 0, 1, 3] {
            reports.push(work_counters(h.collect(gen)));
        }
        h.verify().expect("valid after every collection");
        let placement: Vec<Option<u8>> = (0..objs.len())
            .map(|i| h.generation_of(objs.get(i)))
            .collect();
        (reports, placement)
    };
    for promotion in [
        Promotion::NextGeneration,
        Promotion::Capped(1),
        Promotion::Capped(2),
        Promotion::SameGeneration,
    ] {
        let serial = run(promotion, None);
        for budget in [
            Some(Duration::ZERO),
            Some(Duration::from_micros(20)),
            Some(Duration::from_millis(5)),
        ] {
            assert_eq!(
                run(promotion, budget),
                serial,
                "{promotion:?}, budget {budget:?} diverged"
            );
        }
        // The serial reports really did come from the stop-the-world engine…
        assert!(serial.0.iter().all(|r| r.increments == 0));
    }
}

/// Guardian resurrection order and weak breaking are observably
/// identical across budgets (the terminal increment runs them
/// atomically).
#[test]
fn guardian_and_weak_observables_match_serial() {
    let run = |budget: Option<Duration>| {
        let mut h = Heap::new(incremental_config(budget));
        let g = h.make_guardian();
        let _gr = h.root(g.tconc());
        let mut keep = Vec::new();
        let weaks = h.root_vec();
        for i in 0..64i64 {
            let s = h.make_string(&format!("obj-{i}"));
            let p = h.cons(Value::fixnum(i), s);
            if i % 2 == 0 {
                // Registered objects are resurrected, so their weak cars
                // are forwarded; unregistered unrooted ones break.
                g.register(&mut h, p);
            }
            weaks.push(h.weak_cons(p, Value::fixnum(i)));
            if i % 3 == 0 {
                keep.push(h.root(p));
            }
        }
        h.collect(0);
        h.collect(1);
        let resurrected: Vec<i64> = g
            .drain(&mut h)
            .iter()
            .map(|&v| h.car(v).as_fixnum())
            .collect();
        let broken: Vec<bool> = (0..weaks.len())
            .map(|i| h.car(weaks.get(i)) == Value::FALSE)
            .collect();
        h.verify().expect("valid at the end");
        (resurrected, broken)
    };
    let serial = run(None);
    for budget in [Some(Duration::ZERO), Some(Duration::from_micros(100))] {
        assert_eq!(run(budget), serial, "budget {budget:?} diverged");
    }
    // Sanity: the workload actually exercises both mechanisms.
    assert!(!serial.0.is_empty(), "some objects were resurrected");
    assert!(serial.1.iter().any(|&b| b), "some weak cars broke");
    assert!(serial.1.iter().any(|&b| !b), "some weak cars survived");
}

/// The write-barrier property: however the mutator interleaves reads,
/// stores, and allocations between increments, every heap snapshot
/// passes `verify()` — which checks that each from-space pointer in a
/// non-from-space strong field is covered by the collector's remaining
/// work, and that the final heap is fully valid.
#[test]
fn interleaved_mutator_stays_covered_and_valid() {
    for seed in [0xE18u64, 0xBEEF, 0x5EED] {
        let mut h = Heap::new(incremental_config(Some(Duration::ZERO)));
        let mut rng = XorShift::new(seed);
        let objs = populate(&mut h, &mut rng);
        // Lists rooted only at their heads: read through `cdr`, they hand
        // the mutator pairs the sweep has not copied yet, and storing one
        // into a swept object is what the store log is for.
        let heads = h.root_vec();
        for _ in 0..16 {
            let list = (0..64).fold(Value::NIL, |l, j| h.cons(Value::fixnum(j), l));
            heads.push(list);
        }
        for round in 0..4u64 {
            h.begin_incremental((round % 2) as u8);
            h.verify().expect("valid right after the flip");
            loop {
                let done = h.gc_step().is_some();
                h.verify().expect("between-increment invariants hold");
                if done {
                    break;
                }
                // The mutator runs between increments: reads that may
                // return stale or unforwarded from-space pointers,
                // barriered stores that smuggle them into already-scanned
                // objects, and allocations.
                for _ in 0..rng.below(6) {
                    let n = objs.len() as u64;
                    let a = objs.get(rng.below(n) as usize);
                    let b = objs.get(rng.below(n) as usize);
                    match rng.below(7) {
                        0 if h.is_pair(a) && !h.is_weak_pair(a) => h.set_car(a, b),
                        1 if h.is_pair(a) && !h.is_weak_pair(a) => h.set_cdr(a, b),
                        2 if h.is_vector(a) => {
                            let i = rng.below(h.vector_len(a) as u64) as usize;
                            h.vector_set(a, i, b);
                        }
                        3 if h.is_box(a) => h.box_set(a, b),
                        4 => {
                            // Read through a possibly-stale pointer and
                            // store what comes back somewhere else.
                            let v = if h.is_pair(a) { h.car(a) } else { a };
                            if h.is_box(b) {
                                h.box_set(b, v);
                            }
                        }
                        5 => {
                            let mut v = heads.get(rng.below(heads.len() as u64) as usize);
                            for _ in 0..rng.below(64) {
                                v = h.cdr(v);
                            }
                            if h.is_pair(b) && !h.is_weak_pair(b) {
                                h.set_car(b, v);
                            } else if h.is_box(b) {
                                h.box_set(b, v);
                            }
                        }
                        _ => {
                            let p = h.cons(a, b);
                            objs.set(rng.below(n) as usize, p);
                        }
                    }
                }
            }
            assert!(!h.incremental_in_progress());
        }
        h.verify().expect("fully valid after the final increment");
        assert_eq!(h.collection_count(), 4);
        let r = h.last_report().unwrap();
        assert!(r.increments >= 1, "bounded-pause engine ran");
    }
}

/// A segment-exhaustion fault between increments fails cleanly: the
/// suspended collection is untouched, the heap still verifies, and
/// lifting the fault lets the same collection resume and finish.
#[test]
fn mid_cycle_exhaustion_is_clean_and_resumable() {
    let mut h = Heap::new(incremental_config(Some(Duration::ZERO)));
    let mut rng = XorShift::new(0xFA17);
    let objs = populate(&mut h, &mut rng);
    h.begin_incremental(0);
    assert!(h.gc_step().is_none(), "one increment leaves work remaining");

    h.set_acquisition_fault(Some(h.acquisitions()));
    let err = h.try_gc_step().expect_err("preflight must fail");
    let GcError::Exhausted { needed, remaining } = err;
    assert!(
        needed > remaining,
        "needed {needed} vs remaining {remaining}"
    );
    assert!(h.incremental_in_progress(), "collection stays suspended");
    h.verify().expect("heap intact after the clean failure");

    h.set_acquisition_fault(None);
    while h.try_gc_step().expect("budget lifted").is_none() {}
    h.verify().expect("resumed collection completed cleanly");
    assert!(!h.incremental_in_progress());
    // The survivors are still reachable and sane.
    for i in 0..objs.len() {
        let v = objs.get(i);
        if h.is_pair(v) && !h.is_weak_pair(v) {
            let _ = h.car(v);
        }
    }
}

/// `maybe_collect` advances a budgeted collection one increment per safe
/// point, the report counts its increments, and the metrics registry
/// records one pause sample per increment (plus the increment counter)
/// instead of one whole-collection sample. Without a budget the same
/// driver makes one advance per collection: one sample each, no increments.
#[test]
fn maybe_collect_paces_increments_and_metrics_record_them() {
    let run = |budget: Option<Duration>| {
        let mut cfg = incremental_config(budget);
        cfg.trigger_bytes = 16 * 1024;
        let mut h = Heap::new(cfg);
        let keep = h.root_vec();
        let mut completed = 0u64;
        let mut safe_points = 0u64;
        for i in 0..30_000i64 {
            let p = h.cons(Value::fixnum(i), Value::NIL);
            if i % 50 == 0 {
                keep.push(p);
            }
            if i % 64 == 0 {
                safe_points += 1;
                if h.maybe_collect().is_some() {
                    completed += 1;
                }
            }
        }
        while h.incremental_in_progress() {
            if h.gc_step().is_some() {
                completed += 1;
            }
        }
        assert!(completed >= 1, "the trigger fired at least once");
        assert_eq!(h.stats().collections, completed);
        h.verify().expect("valid at the end");
        let increments = h.metrics().counter("gc.increments");
        let hist = h
            .metrics()
            .get_histogram("gc.pause_ns")
            .expect("pause histogram exists");
        (completed, increments, hist.count(), safe_points)
    };

    let (completed, increments, samples, safe_points) = run(Some(Duration::ZERO));
    assert!(
        increments > completed,
        "multi-increment collections: {increments} increments over {completed} collections"
    );
    assert!(
        safe_points > increments,
        "increments only run at safe points"
    );
    assert_eq!(
        samples, increments,
        "one pause sample per increment, none for the whole collection"
    );

    let (completed, increments, samples, _) = run(None);
    assert_eq!(increments, 0, "no deadline, no increments");
    assert_eq!(samples, completed, "one pause sample per collection");
}

/// Registering with a guardian while a collection is suspended: the
/// entry joins `protected[0]`, the terminal increment holds it, and it
/// must be filed under the generation its object actually lives in — an
/// object allocated since the flip stays in generation 0, and an entry
/// parked in an older list would dangle after the next minor collection.
/// (The raw-heap repro of the defect `benchmark/README.md` records.)
#[test]
fn register_mid_cycle_is_safe() {
    for budget in [0u64, 100, 2_000] {
        let mut cfg = incremental_config(Some(Duration::from_micros(budget)));
        cfg.trigger_bytes = 64 * 1024;
        let mut h = Heap::new(cfg);
        let g = h.make_guardian();
        let descriptor = {
            let d = h.make_symbol("session");
            h.root(d)
        };
        let window = h.root_vec();
        for _ in 0..256 {
            window.push(Value::FALSE);
        }
        let (mut mid_cycle, mut dropped, mut polled) = (0u64, 0u64, 0u64);
        for i in 0..6_000usize {
            mid_cycle += u64::from(h.incremental_in_progress());
            let r = h.make_record(descriptor.get(), &[Value::fixnum(i as i64)]);
            g.register(&mut h, r);
            dropped += u64::from(window.get(i % 256) != Value::FALSE);
            window.set(i % 256, r);
            for _ in 0..4 {
                let _ = h.make_bytevector(512, 0);
            }
            h.maybe_collect();
            while let Some(v) = g.poll(&mut h) {
                assert!(h.is_record(v), "budget {budget}: polled a non-record");
                polled += 1;
            }
            if i % 97 == 0 {
                h.verify()
                    .unwrap_or_else(|e| panic!("budget {budget} us, op {i}: {e}"));
            }
        }
        for gen in [3, 3] {
            h.collect(gen);
            polled += g.drain(&mut h).len() as u64;
        }
        h.verify().expect("valid at the end");
        assert_eq!(
            polled, dropped,
            "budget {budget}: every dropped session came back"
        );
        if budget == 0 {
            assert!(
                mid_cycle > 0,
                "registrations landed inside suspended cycles"
            );
        }
    }
}

/// The incremental engine's other way to lose a remembered-set entry: a
/// pair allocated since the flip is stored into a still-unforwarded
/// from-space object. The store travels with the object's copy into the
/// target generation; the card mark must follow it, or the next minor
/// collection frees the pair under it.
#[test]
fn store_of_a_fresh_object_into_an_unforwarded_one_is_remembered() {
    let mut h = Heap::new(incremental_config(Some(Duration::ZERO)));
    let keep = h.root_vec();
    for i in 0..2_000 {
        let p = h.cons(Value::fixnum(i), Value::NIL);
        keep.push(p);
    }
    h.begin_incremental(0);
    let fresh = h.cons(Value::fixnum(4242), Value::NIL);
    h.set_cdr(keep.get(1_999), fresh);
    while h.gc_step().is_none() {
        h.verify().expect("between-increment invariants hold");
    }
    h.verify().expect("valid after the cycle");
    let x = keep.get(1_999);
    assert_eq!(h.generation_of(x), Some(1));
    assert_eq!(
        h.generation_of(h.cdr(x)),
        Some(0),
        "allocated black, stays young"
    );
    for _ in 0..5_000 {
        let _ = h.cons(Value::NIL, Value::NIL);
    }
    h.collect(0);
    h.verify().expect("valid after the next minor collection");
    assert_eq!(h.car(h.cdr(keep.get(1_999))), Value::fixnum(4242));
}

/// The weak-pair form of the test above: the fresh object goes into the car
/// of an unforwarded weak pair, a field the sweep never visits. Its copy's
/// card must still remember the young referent.
#[test]
fn store_of_a_fresh_object_into_an_unforwarded_weak_car_is_remembered() {
    let mut h = Heap::new(incremental_config(Some(Duration::ZERO)));
    let keep = h.root_vec();
    for i in 0..2_000 {
        let p = h.cons(Value::fixnum(i), Value::NIL);
        keep.push(p);
    }
    let w = h.weak_cons(Value::NIL, Value::NIL);
    keep.push(w);
    h.begin_incremental(0);
    let fresh = h.cons(Value::fixnum(4242), Value::NIL);
    let fresh = h.root(fresh);
    h.set_car(keep.get(2_000), fresh.get());
    while h.gc_step().is_none() {
        h.verify().expect("between-increment invariants hold");
    }
    h.verify().expect("valid after the cycle");
    let w = keep.get(2_000);
    assert_eq!(h.generation_of(w), Some(1));
    assert_eq!(
        h.generation_of(h.car(w)),
        Some(0),
        "allocated black, stays young"
    );
    for _ in 0..5_000 {
        let _ = h.cons(Value::NIL, Value::NIL);
    }
    h.collect(0);
    h.verify().expect("valid after the next minor collection");
    let w = keep.get(2_000);
    assert_eq!(h.car(w), fresh.get());
    assert_eq!(h.car(h.car(w)), Value::fixnum(4242));
}

/// The heap the mutator-allocation cases start from: a budget of 0, a
/// rooted pair `y = ((7) . (8))` and 5,000 rooted pairs after it, so `y` is
/// copied first and its to-space segment, the bottom of the scan queue, is
/// swept last. A collection of generation 0 is begun and given one
/// increment; `car(y)` and `cdr(y)` are still unforwarded from-space pairs,
/// and are returned with `y`'s root.
fn y_swept_last() -> (Heap, Rooted, RootedVec, Value, Value) {
    let mut h = Heap::new(incremental_config(Some(Duration::ZERO)));
    let (a, d) = (
        h.cons(Value::fixnum(7), Value::NIL),
        h.cons(Value::fixnum(8), Value::NIL),
    );
    let y = h.cons(a, d);
    let y = h.root(y);
    let keep = h.root_vec();
    for i in 0..5_000 {
        let p = h.cons(Value::fixnum(i), Value::NIL);
        keep.push(p);
    }
    let flip_at = (h.address_of(a), h.address_of(d));
    h.begin_incremental(0);
    assert!(h.gc_step().is_none(), "one unit does not sweep 5,000 pairs");
    h.verify().expect("valid after the first increment");
    let (x, z) = (h.car(y.get()), h.cdr(y.get()));
    assert_eq!(
        (h.address_of(x), h.address_of(z)),
        flip_at,
        "y's segment was swept early"
    );
    (h, y, keep, x, z)
}

/// Steps the suspended collection to its end, verifying after every step.
fn step_to_the_end(h: &mut Heap) {
    loop {
        let done = h.gc_step().is_some();
        h.verify().expect("between-increment invariants hold");
        if done {
            break;
        }
    }
}

/// A run the mutator allocates between increments is swept: its
/// initializing stores bypass the write barrier, so the scan queue is the
/// only way the collection learns of the from-space pointers in it.
#[test]
fn a_run_allocated_between_increments_is_swept() {
    let (mut h, y, _keep, x, _) = y_swept_last();
    let v = h.make_vector(600, x);
    let v = h.root(v);
    h.set_car(y.get(), Value::FALSE);
    step_to_the_end(&mut h);
    let elem = h.vector_ref(v.get(), 599);
    assert_eq!(h.vector_ref(v.get(), 0), elem);
    assert_eq!(h.generation_of(elem), Some(1), "x's copy");
    assert_eq!(h.car(elem), Value::fixnum(7));
}

/// A weak-pair segment the mutator allocates between increments is fixed
/// by the weak pass: a car whose referent died reads `#f`, one whose
/// referent survived is forwarded.
#[test]
fn a_weak_segment_allocated_between_increments_is_fixed() {
    let (mut h, y, keep, x, z) = y_swept_last();
    let dies = h.weak_cons(x, Value::NIL);
    keep.push(dies);
    let lives = h.weak_cons(z, Value::NIL);
    keep.push(lives);
    h.set_car(y.get(), Value::FALSE);
    step_to_the_end(&mut h);
    let (dies, lives) = (keep.get(5_000), keep.get(5_001));
    assert_eq!(h.car(dies), Value::FALSE, "x died");
    assert_eq!(h.car(lives), h.cdr(y.get()), "z forwarded");
    assert_eq!(h.generation_of(h.car(lives)), Some(1));
    assert_eq!(h.car(h.car(lives)), Value::fixnum(8));
}

/// The heap every store-log case starts from: `holder`, a rooted pair whose
/// cdr is a list of the fixnums `0..2000`, and `keep`, the case's own
/// rooted containers.
struct Chain {
    holder: Rooted,
    keep: RootedVec,
}

/// The index of the list pair the store-log cases store: well past what the
/// first increment's one sweep unit (one segment, 256 pairs) reaches, so it
/// is an unforwarded from-space pair when the store is made.
const STORED: usize = 1000;

fn chain(h: &mut Heap) -> Chain {
    let list = (0..2000)
        .rev()
        .fold(Value::NIL, |l, i| h.cons(Value::fixnum(i), l));
    let holder = h.cons(Value::FALSE, list);
    Chain {
        holder: h.root(holder),
        keep: h.root_vec(),
    }
}

/// The `i`th pair of the chain's list.
fn nth_pair(h: &Heap, c: &Chain, i: usize) -> Value {
    (0..=i).fold(c.holder.get(), |v, _| h.cdr(v))
}

/// The length of the list at `v`.
fn list_len(h: &Heap, mut v: Value) -> usize {
    let mut n = 0;
    while h.is_pair(v) {
        (n, v) = (n + 1, h.cdr(v));
    }
    n
}

/// The fixnums of the list at `v`.
fn fixnums(h: &Heap, mut v: Value) -> Vec<i64> {
    let mut out = Vec::new();
    while h.is_pair(v) {
        out.push(h.car(v).as_fixnum());
        v = h.cdr(v);
    }
    out
}

/// Cuts the chain's list before pair `STORED` (whose from-space address at
/// the flip was `stored_at`) after it has been stored somewhere, so the
/// store is all that keeps pairs `STORED..` alive. While a collection is
/// suspended it first checks what the store wrote: the pair's from-space
/// address, so the store landed in the store log.
fn cut_after_storing(h: &mut Heap, c: &Chain, stored: Value, stored_at: u64) {
    if h.incremental_in_progress() {
        assert_eq!(h.address_of(stored), Some(stored_at), "stored a copy");
    }
    let before = nth_pair(h, c, STORED - 1);
    h.set_cdr(before, Value::NIL);
}

/// Runs a store-log case twice from `build`'s heap and returns what
/// `observe` sees at the end of each run, which must agree. Stepped, a
/// collection of generation 0 is begun and given one increment, `store`
/// runs while it is suspended, and it is stepped to its end with `verify`
/// after every increment. Stop-the-world, `store` runs first and the
/// collection follows.
fn store_log_case<S, T: PartialEq + std::fmt::Debug>(
    generations: u8,
    build: impl Fn(&mut Heap) -> S,
    store: impl Fn(&mut Heap, &S),
    observe: impl Fn(&Heap, &S) -> T,
) -> T {
    let run = |pause_budget| {
        let mut h = Heap::new(GcConfig {
            generations,
            pause_budget,
            ..GcConfig::new()
        });
        let state = build(&mut h);
        if pause_budget.is_some() {
            h.begin_incremental(0);
            assert!(h.gc_step().is_none(), "one unit does not sweep the chain");
            h.verify().expect("valid after the first increment");
            store(&mut h, &state);
            loop {
                let done = h.gc_step().is_some();
                h.verify().expect("between-increment invariants hold");
                if done {
                    break;
                }
            }
        } else {
            store(&mut h, &state);
            h.collect(0);
        }
        h.verify().expect("valid after the collection");
        observe(&h, &state)
    };
    let stepped = run(Some(Duration::ZERO));
    assert_eq!(stepped, run(None), "stepped and stop-the-world disagree");
    stepped
}

/// A chain and a container aged into generation 2 before it, so the
/// collection neither collects the container nor has it in its
/// remembered-set snapshot; with it, pair `STORED`'s address at the flip.
fn old_container(h: &mut Heap, make: impl Fn(&mut Heap) -> Value) -> (Chain, u64) {
    let container = make(h);
    let kept = h.root(container);
    h.collect(0);
    h.collect(1);
    assert_eq!(h.generation_of(kept.get()), Some(2));
    let c = chain(h);
    c.keep.push(kept.get());
    let at = h.address_of(nth_pair(h, &c, STORED)).expect("a pair");
    (c, at)
}

/// (a) A from-space pointer stored into an old box: nothing but the store
/// log leads the collection to it.
#[test]
fn a_from_space_pointer_stored_into_an_old_box_survives() {
    let seen = store_log_case(
        4,
        |h| old_container(h, |h| h.make_box(Value::NIL)),
        |h, (c, at)| {
            let (bx, p) = (c.keep.get(0), nth_pair(h, c, STORED));
            h.box_set(bx, p);
            cut_after_storing(h, c, h.box_ref(bx), *at);
        },
        |h, (c, _)| {
            let stored = h.box_ref(c.keep.get(0));
            (
                list_len(h, h.cdr(c.holder.get())),
                fixnums(h, stored),
                h.generation_of(stored),
            )
        },
    );
    assert_eq!(seen.0, STORED);
    assert_eq!(seen.1, (STORED as i64..2000).collect::<Vec<_>>());
    assert_eq!(seen.2, Some(1));
}

/// (b) The same into a generation-0 pair allocated after the flip, once the
/// sweep has scanned its segment: it has no card to mark, and the sweep
/// does not come back to it.
#[test]
fn a_from_space_pointer_stored_into_a_swept_young_pair_survives() {
    let seen = store_log_case(
        4,
        |h| {
            let c = chain(h);
            let at = h.address_of(nth_pair(h, &c, STORED)).expect("a pair");
            (c, at)
        },
        |h, (c, at)| {
            // The young pair's cdr is a from-space pointer further down the
            // list; the slot changes once the sweep has scanned it.
            let further = nth_pair(h, c, 3 * STORED / 2);
            let young = h.cons(Value::NIL, further);
            c.keep.push(young);
            if h.incremental_in_progress() {
                let further_at = h.address_of(h.cdr(young));
                assert!(h.gc_step().is_none(), "the chain is not swept yet");
                assert_ne!(
                    h.address_of(h.cdr(young)),
                    further_at,
                    "young pair not swept"
                );
                h.verify().expect("valid after the young pair's increment");
            }
            let p = nth_pair(h, c, STORED);
            h.set_car(young, p);
            cut_after_storing(h, c, h.car(young), *at);
        },
        |h, (c, _)| {
            let young = c.keep.get(0);
            let chain = list_len(h, h.cdr(c.holder.get()));
            (chain, fixnums(h, h.car(young)), h.car(h.cdr(young)))
        },
    );
    assert_eq!(seen.0, STORED);
    assert_eq!(seen.1, (STORED as i64..2000).collect::<Vec<_>>());
    assert_eq!(seen.2, Value::fixnum(3 * STORED as i64 / 2));
}

/// (c) Into old weak pairs' cars: the one whose referent the store log
/// alone held breaks, the one whose referent stays reachable is forwarded —
/// exactly as stop-the-world.
#[test]
fn a_from_space_pointer_stored_into_an_old_weak_car_breaks_or_forwards() {
    let seen = store_log_case(
        4,
        |h| {
            let (c, at) = old_container(h, |h| h.weak_cons(Value::NIL, Value::NIL));
            let kept = h.weak_cons(Value::NIL, Value::NIL);
            c.keep.push(kept);
            (c, at)
        },
        |h, (c, at)| {
            let (dies, lives) = (c.keep.get(0), c.keep.get(1));
            let p = nth_pair(h, c, STORED);
            h.set_car(dies, p);
            let q = nth_pair(h, c, STORED / 2);
            h.set_car(lives, q);
            cut_after_storing(h, c, h.car(dies), *at);
        },
        |h, (c, _)| {
            let (dies, lives) = (c.keep.get(0), c.keep.get(1));
            (h.car(dies), fixnums(h, h.car(lives)).first().copied())
        },
    );
    assert_eq!(seen, (Value::FALSE, Some(STORED as i64 / 2)));
}

/// (d) Into the second segment of an old multi-segment vector run.
#[test]
fn a_from_space_pointer_stored_into_a_vector_runs_second_segment_survives() {
    const AT: usize = 700;
    let seen = store_log_case(
        4,
        |h| old_container(h, |h| h.make_vector(1000, Value::NIL)),
        |h, (c, at)| {
            let (v, p) = (c.keep.get(0), nth_pair(h, c, STORED));
            h.vector_set(v, AT, p);
            cut_after_storing(h, c, h.vector_ref(v, AT), *at);
        },
        |h, (c, _)| fixnums(h, h.vector_ref(c.keep.get(0), AT)),
    );
    assert_eq!(seen, (STORED as i64..2000).collect::<Vec<_>>());
}

/// (e) (a) with one generation: every collection collects it into itself,
/// so there is no old box; the container is a pair of the list that the
/// first increment copied and swept, in the generation the from-space was.
#[test]
fn a_from_space_pointer_stored_with_one_generation_survives() {
    const SWEPT: usize = 10;
    let seen = store_log_case(
        1,
        |h| {
            let c = chain(h);
            let at = |i| h.address_of(nth_pair(h, &c, i)).expect("a pair");
            let (next_at, stored_at) = (at(SWEPT + 1), at(STORED));
            (c, next_at, stored_at)
        },
        |h, (c, next_at, stored_at)| {
            let (swept, p) = (nth_pair(h, c, SWEPT), nth_pair(h, c, STORED));
            if h.incremental_in_progress() {
                let next = h.address_of(h.cdr(swept));
                assert_ne!(next, Some(*next_at), "the container is not swept yet");
            }
            h.set_car(swept, p);
            cut_after_storing(h, c, h.car(swept), *stored_at);
        },
        |h, (c, ..)| {
            let list = h.cdr(c.holder.get());
            (list_len(h, list), fixnums(h, h.car(nth_pair(h, c, SWEPT))))
        },
    );
    assert_eq!(seen.0, STORED);
    assert_eq!(seen.1, (STORED as i64..2000).collect::<Vec<_>>());
}

/// After a collection's first roots pass, an increment re-forwards only
/// the root slots whose stamp is still at most the collected generation:
/// with the target above it, those are the slots stored since the last
/// increment; when the target *is* the collected generation every
/// forwarded slot is due again (the case the root log will remove).
#[test]
fn increments_retrace_stored_roots_not_the_whole_set() {
    let mut h = Heap::new(incremental_config(Some(Duration::ZERO)));
    let stack = h.root_vec();
    for i in 0..2000 {
        let p = h.cons(Value::fixnum(i), Value::NIL);
        stack.push(p);
    }
    let r = h.root(stack.get(0));
    h.begin_incremental(0);
    assert!(h.gc_step().is_none(), "eight segments of sweeping remain");
    // Forwarded on read, stored into a root: the barrier re-stamps it 0.
    r.set(stack.get(5));
    h.verify().expect("valid mid-cycle");
    let report = loop {
        if let Some(report) = h.gc_step() {
            break report.clone();
        }
    };
    assert!(report.increments >= 3, "{} increments", report.increments);
    assert_eq!(report.roots_traced, 2001);
    assert_eq!(report.roots_retraced, 1, "the stored slot, once");
    assert_eq!(h.metrics().counter("gc.roots_retraced"), 1);

    // Age everything into the oldest generation, then collect it into
    // itself: every increment after the first finds all 2001 slots due.
    for g in 1..=3 {
        h.collect(g);
    }
    let report = h.collect(3).clone();
    assert_eq!(report.roots_traced, 2001);
    assert_eq!(
        report.roots_retraced,
        2001 * (report.increments - 1),
        "{} increments",
        report.increments
    );
    let total = h.stats().total_roots_retraced;
    assert!(total > report.roots_retraced);
    assert_eq!(h.metrics().counter("gc.roots_retraced"), total);
    assert_eq!(h.car(r.get()), Value::fixnum(5));
    h.verify().expect("valid at the end");
}

/// A census may be taken between increments: it skips the suspended
/// collection's from-space, whose copied objects hold broken hearts, and
/// counts only what is decided — the copies, in the target generation.
/// Once the cycle ends it equals the census a stop-the-world collection
/// leaves.
#[test]
fn census_between_increments_skips_the_from_space() {
    let build = |budget: Option<Duration>| {
        let mut h = Heap::new(incremental_config(budget));
        let keep = h.root_vec();
        for i in 0..2000 {
            let v = h.make_vector(3, Value::fixnum(i));
            keep.push(v);
        }
        (h, keep)
    };
    let (mut serial, _serial_roots) = build(None);
    serial.collect(0);
    let want = serial.census();

    let (mut h, _roots) = build(Some(Duration::ZERO));
    h.begin_incremental(0);
    let mut increments = 0;
    loop {
        let census = h.census();
        assert_eq!(
            census.generations[0].words(),
            0,
            "generation 0 is all from-space"
        );
        assert!(census.generations[1].words() <= want.generations[1].words());
        increments += 1;
        if h.gc_step().is_some() {
            break;
        }
    }
    assert!(increments > 3, "{increments} increments");
    assert_eq!(h.census(), want);
}
