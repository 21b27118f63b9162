//! The bounded-pause (incremental) engine: work-counter parity with the
//! serial engine, guardian/weak observable equivalence across budgets,
//! the between-increment heap invariants (forwarded-on-read and
//! write-barrier coverage) under a randomized interleaved mutator, and
//! clean mid-cycle fault behaviour.

use guardians_gc::{CollectionReport, GcConfig, GcError, Heap, PhaseTimes, Value};
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

fn work_counters(r: &CollectionReport) -> CollectionReport {
    CollectionReport {
        duration: Duration::ZERO,
        phases: PhaseTimes::default(),
        increments: 0,
        ..r.clone()
    }
}

/// With a quiescent mutator the incremental engine visits objects in the
/// same order as the serial engine, so every deterministic work counter
/// of the report is byte-identical — only timings and the increment
/// count may differ.
#[test]
fn quiescent_work_counters_match_serial_exactly() {
    let run = |budget: Option<Duration>| {
        let mut h = Heap::new(incremental_config(budget));
        let mut rng = XorShift::new(0x1E51);
        let _objs = populate(&mut h, &mut rng);
        let mut reports = Vec::new();
        for gen in [0u8, 0, 1, 0, 2] {
            reports.push(work_counters(h.collect(gen)));
        }
        h.verify().expect("valid after every collection");
        reports
    };
    let serial = run(None);
    for budget in [
        Some(Duration::ZERO),
        Some(Duration::from_micros(20)),
        Some(Duration::from_millis(5)),
    ] {
        assert_eq!(run(budget), serial, "budget {budget:?} diverged");
    }
    // The serial reports really did come from the stop-the-world engine…
    assert!(serial.iter().all(|r| r.increments == 0));
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
                // return stale pointers, barriered stores that smuggle
                // them into already-scanned objects, and allocations.
                for _ in 0..rng.below(6) {
                    let n = objs.len() as u64;
                    let a = objs.get(rng.below(n) as usize);
                    let b = objs.get(rng.below(n) as usize);
                    match rng.below(6) {
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
