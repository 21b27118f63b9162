//! The copy/scan kernel, end to end, on both collection schedules:
//! stop-the-world and one-unit increments. Both forward and scan through
//! the one traced-slot walker, so the same script must leave the same heap
//! and the same counts.

use guardians_gc::{CollectionReport, GcConfig, Heap, HeapCensus, Value};
use std::time::Duration;

fn drivers() -> [(&'static str, GcConfig); 2] {
    [
        ("serial", GcConfig::new()),
        (
            "budget 0",
            GcConfig {
                pause_budget: Some(Duration::ZERO),
                ..GcConfig::new()
            },
        ),
    ]
}

fn collect_and_verify(h: &mut Heap, gen: u8) -> CollectionReport {
    let report = h.collect(gen).clone();
    h.verify().expect("heap valid after collection");
    report
}

/// Every to-space pair segment is scanned while copies land in it: the
/// list is reachable from its head only, so pair `k + 1` is copied by the
/// scan of pair `k`, into the segment being scanned until that fills.
#[test]
fn a_deep_list_is_copied_by_scanning_the_segment_it_lands_in() {
    for (name, config) in drivers() {
        let mut h = Heap::new(config);
        let mut list = Value::NIL;
        for i in 0..5_000 {
            list = h.cons(Value::fixnum(i), list);
        }
        let root = h.root(list);
        let report = collect_and_verify(&mut h, 0);
        assert_eq!(report.pairs_copied, 5_000, "{name}");
        assert_eq!(report.words_copied, 10_000, "{name}");
        assert_eq!(report.segments_allocated, 20, "{name}: 10,000 words");
        let mut v = root.get();
        for i in (0..5_000).rev() {
            assert_eq!(h.car(v), Value::fixnum(i), "{name}: element {i}");
            v = h.cdr(v);
        }
        assert!(v.is_nil(), "{name}");
    }
}

/// A three-segment run whose traced fields straddle both chunk boundaries
/// (vector slots 510/511 are words 511/512, slots 1022/1023 words
/// 1023/1024): the run is copied whole and every referent forwarded.
#[test]
fn a_large_vector_has_every_referent_forwarded_across_chunk_boundaries() {
    const SLOTS: [usize; 6] = [0, 510, 511, 1022, 1023, 1499];
    for (name, config) in drivers() {
        let mut h = Heap::new(config);
        let big = h.make_vector(1_500, Value::NIL);
        for slot in SLOTS {
            let p = h.cons(Value::fixnum(slot as i64), Value::NIL);
            h.vector_set(big, slot, p);
        }
        let root = h.root(big);
        let report = collect_and_verify(&mut h, 0);
        assert_eq!(report.objects_copied, 1, "{name}");
        assert_eq!(report.pairs_copied, 6, "{name}");
        assert_eq!(report.words_copied, 1_501 + 12, "{name}");
        let big = root.get();
        assert_eq!(h.generation_of(big), Some(1), "{name}");
        assert_eq!(h.vector_len(big), 1_500, "{name}");
        for slot in 0..1_500 {
            let v = h.vector_ref(big, slot);
            if SLOTS.contains(&slot) {
                assert_eq!(h.generation_of(v), Some(1), "{name}: slot {slot}");
                assert_eq!(h.car(v), Value::fixnum(slot as i64), "{name}: slot {slot}");
            } else {
                assert!(v.is_nil(), "{name}: slot {slot}");
            }
        }
    }
}

/// Weak treatment in the walker: "the car field is not touched" by the
/// trace, the cdr is a normal pointer.
#[test]
fn a_weak_pair_keeps_its_cdr_and_loses_a_garbage_car() {
    for (name, config) in drivers() {
        let mut h = Heap::new(config);
        let garbage = h.cons(Value::fixnum(1), Value::NIL);
        let only_via_cdr = h.cons(Value::fixnum(2), Value::NIL);
        let weak = h.weak_cons(garbage, only_via_cdr);
        let root = h.root(weak);
        let report = collect_and_verify(&mut h, 0);
        assert_eq!(report.weak_cars_broken, 1, "{name}");
        assert_eq!(report.weak_cars_forwarded, 0, "{name}");
        assert_eq!(report.pairs_copied, 2, "{name}: the weak pair and its cdr");
        let weak = root.get();
        assert_eq!(h.car(weak), Value::FALSE, "{name}");
        assert_eq!(h.car(h.cdr(weak)), Value::fixnum(2), "{name}");
    }
}

/// A list interleaved with vectors and strings, so all four spaces see
/// traffic, survives a collection intact — and a second one that finds it
/// through the remembered set.
#[test]
fn a_mixed_graph_survives_two_collections() {
    let check = |h: &Heap, mut list: Value, name: &str| {
        for i in (0..60).rev() {
            let head = h.car(list);
            if i % 5 == 0 {
                assert!(h.is_vector(head), "{name}: element {i}");
                assert_eq!(h.string_value(h.vector_ref(head, 0)), "spine", "{name}");
            } else {
                assert_eq!(head, Value::fixnum(i), "{name}: element {i}");
            }
            list = h.cdr(list);
        }
        assert!(list.is_nil(), "{name}");
    };
    for (name, config) in drivers() {
        let mut h = Heap::new(config);
        let mut list = Value::NIL;
        for i in 0..60 {
            let cell = if i % 5 == 0 {
                let s = h.make_string("spine");
                h.make_vector(3, s)
            } else {
                Value::fixnum(i)
            };
            list = h.cons(cell, list);
        }
        let root = h.root(list);
        collect_and_verify(&mut h, 0);
        check(&h, root.get(), name);
        // The list now lives in generation 1 and gets a young head.
        let young = h.cons(Value::fixnum(-1), root.get());
        root.set(young);
        collect_and_verify(&mut h, 0);
        assert_eq!(h.car(root.get()), Value::fixnum(-1), "{name}");
        check(&h, h.cdr(root.get()), name);
    }
}

/// One script — lists, tiled typed segments, large runs, weak pairs, a
/// guardian, old-to-young stores into an aged run and an aged weak pair —
/// run on a heap of the given configuration. Returns every collection's
/// report, clock fields and increment counts cleared, and the final
/// census.
fn script(config: GcConfig) -> (Vec<CollectionReport>, HeapCensus) {
    let mut h = Heap::new(config);
    let g = h.make_guardian();
    let keep = h.root_vec();
    let mut reports = Vec::new();
    for round in 0..6i64 {
        let mut list = Value::NIL;
        for i in 0..700 {
            let cell = match i % 50 {
                0 => h.make_box(list),
                1 => h.make_symbol("tile"),
                2 => h.make_vector(0, Value::NIL),
                3 => h.make_string("pure"),
                _ => Value::fixnum(round * 1_000 + i),
            };
            list = h.cons(cell, list);
        }
        let big = h.make_vector(1_500, Value::NIL);
        for slot in [0, 511, 1_023, 1_499] {
            let p = h.cons(Value::fixnum(slot as i64), list);
            h.vector_set(big, slot, p);
        }
        let dead_car = h.cons(Value::fixnum(round), Value::NIL);
        let link = h.cons(big, Value::NIL);
        let weak = h.weak_cons(dead_car, link);
        keep.push(weak);
        let doomed = h.make_vector(600, list);
        g.register(&mut h, doomed);
        if round >= 2 {
            // Stores into objects two collections old.
            let old_weak = keep.get(round as usize - 2);
            let old_big = h.car(h.cdr(old_weak));
            let p = h.cons(Value::fixnum(-round), Value::NIL);
            h.vector_set(old_big, 512, p);
            let q = h.cons(old_big, p);
            h.set_cdr(old_weak, q);
        }
        let mut r = collect_and_verify(&mut h, (round % 3) as u8);
        (r.duration, r.phases, r.increments, r.roots_retraced) = Default::default();
        reports.push(r);
        while g.poll(&mut h).is_some() {}
    }
    (reports, h.census())
}

/// The script gives the same counts, layout counts included, and the same
/// final heap on both schedules. (Two drivers; the name predates the
/// worker engine's removal and is kept so the test id holds.)
#[test]
fn the_three_drivers_report_identical_counts() {
    let [(_, serial), (_, budget)] = drivers();
    let expected = script(serial);
    assert!(expected.0.iter().any(|r| r.dirty_cards_scanned > 0));
    assert!(expected.0.iter().all(|r| r.guardian_entries_finalized == 1));
    assert_eq!(script(budget), expected, "budget 0");
}

/// One collection of generation 0 over a 5,000-pair list, a 1,500-slot
/// vector with fresh pairs at both chunk boundaries, and a guardian that
/// finalizes 300 pairs in one round, so its tconc pairs are allocated in
/// the Pair window between the copies. `verify` runs after every
/// increment. With `between` set, the mutator conses a pair after each of
/// the first eight increments: with `generations: 1` that is the target
/// generation's Pair cursor, the one the next advance reloads its window
/// from. Returns the report with its clock fields, increment counts and
/// target generation cleared.
fn windowed(config: GcConfig, between: bool) -> CollectionReport {
    let mut h = Heap::new(config);
    let list = (0..5_000).fold(Value::NIL, |l, i| h.cons(Value::fixnum(i), l));
    let list = h.root(list);
    let big = h.make_vector(1_500, Value::NIL);
    const SLOTS: [usize; 4] = [510, 511, 1_022, 1_023];
    for slot in SLOTS {
        let p = h.cons(Value::fixnum(slot as i64), Value::NIL);
        h.vector_set(big, slot, p);
    }
    let big = h.root(big);
    let g = h.make_guardian();
    for i in 0..300 {
        let dead = h.cons(Value::fixnum(i), Value::NIL);
        g.register(&mut h, dead);
    }
    let fresh = h.root_vec();
    h.begin_incremental(0);
    let mut r = if h.config().pause_budget.is_none() {
        h.collect(0).clone()
    } else {
        loop {
            if let Some(r) = h.gc_step() {
                break r.clone();
            }
            h.verify().expect("heap valid between increments");
            if between && fresh.len() < 8 {
                let i = fresh.len() as i64;
                let p = h.cons(Value::fixnum(-i), Value::fixnum(i));
                fresh.push(p);
            }
        }
    };
    h.verify().expect("heap valid after the collection");
    let mut v = list.get();
    for i in (0..5_000).rev() {
        assert_eq!(h.car(v), Value::fixnum(i), "list element {i}");
        v = h.cdr(v);
    }
    for slot in SLOTS {
        let p = h.vector_ref(big.get(), slot);
        assert_eq!(h.car(p), Value::fixnum(slot as i64), "vector slot {slot}");
    }
    for i in 0..fresh.len() {
        let p = fresh.get(i);
        let (car, cdr) = (h.car(p), h.cdr(p));
        assert_eq!(
            (car, cdr),
            (Value::fixnum(-(i as i64)), Value::fixnum(i as i64))
        );
    }
    assert_eq!(fresh.len(), if between { 8 } else { 0 });
    let mut polled = Vec::new();
    while let Some(p) = g.poll(&mut h) {
        polled.push(h.car(p).as_fixnum());
    }
    assert_eq!(polled, (0..300).collect::<Vec<_>>(), "registration order");
    (r.duration, r.phases, r.increments, r.roots_retraced) = Default::default();
    r.target_generation = 0;
    r
}

/// The collector's to-space windows give the counts of the allocator they
/// stand in for on every schedule, `segments_allocated` included, and the
/// mutator's allocations into a window's own cursor between increments
/// are neither overwritten nor lost.
#[test]
fn the_window_schedules_report_identical_counts() {
    let [(_, serial), (_, budget)] = drivers();
    let one_generation = GcConfig {
        pause_budget: Some(Duration::ZERO),
        ..GcConfig::with_generations(1)
    };
    let expected = windowed(serial, false);
    let pinned = (
        expected.pairs_copied,
        expected.objects_copied,
        expected.words_copied,
        expected.segments_allocated,
        expected.guardian_entries_finalized,
    );
    assert_eq!(pinned, (5_306, 1, 12_113, 25, 300));
    assert_eq!(windowed(budget, false), expected, "budget 0");
    assert_eq!(
        windowed(one_generation, true),
        expected,
        "generations 1, budget 0"
    );
}

/// `GcConfig::workers` selects nothing: the script yields equal reports
/// (`segments_allocated` included) and equal generation usage whatever it
/// is set to, which is what keeps `benchmark check`'s par2 ≡ serial rule
/// true. Delete this test together with the field.
#[test]
fn workers_is_inert() {
    let with = |workers| {
        script(GcConfig {
            workers,
            ..GcConfig::new()
        })
    };
    assert_eq!(with(1), with(2));
}
