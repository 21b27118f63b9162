//! The copy/scan kernel, end to end, on both collection schedules:
//! stop-the-world and one-unit increments. Both forward and scan through
//! the one traced-slot walker, so the same script must leave the same heap
//! and the same counts.

use guardians_gc::{CollectionReport, GcConfig, Heap, Value};
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
/// per-generation usage.
fn script(config: GcConfig) -> (Vec<CollectionReport>, Vec<guardians_gc::GenerationUsage>) {
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
    (reports, h.generation_usage())
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
