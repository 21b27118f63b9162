//! The copy/scan kernel, end to end, on all three collection drivers: the
//! calling thread alone, four workers, and one-unit increments. Every
//! driver forwards and scans through the one traced-slot walker, so the
//! same script must leave the same heap and the same counts.

use guardians_gc::{CollectionReport, GcConfig, Heap, Value};
use std::time::Duration;

fn drivers() -> [(&'static str, GcConfig); 3] {
    [
        ("serial", GcConfig::new()),
        (
            "workers 4",
            GcConfig {
                workers: 4,
                ..GcConfig::new()
            },
        ),
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
        let workers = config.workers;
        let mut h = Heap::new(config);
        let mut list = Value::NIL;
        for i in 0..5_000 {
            list = h.cons(Value::fixnum(i), list);
        }
        let root = h.root(list);
        let report = collect_and_verify(&mut h, 0);
        assert_eq!(report.pairs_copied, 5_000, "{name}");
        assert_eq!(report.words_copied, 10_000, "{name}");
        if workers > 1 {
            // A worker that takes over a closed region's remainder opens a
            // region of its own, so the count is schedule-dependent.
            assert!(report.segments_allocated >= 20, "{name}");
        } else {
            assert_eq!(report.segments_allocated, 20, "{name}: 10,000 words");
        }
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

/// One script — lists, tiled typed segments, large runs, weak pairs, a
/// guardian, old-to-young stores into an aged run and an aged weak pair —
/// gives the same counts on every driver. How workers carve up to-space
/// decides how many segments hold the survivors, and so what the next
/// collection frees and finds dirty; those counts are compared between
/// the two drivers that copy on the calling thread only.
#[test]
fn the_three_drivers_report_identical_counts() {
    let run = |config: GcConfig| {
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
        reports
    };
    let without_layout_counts = |mut reports: Vec<CollectionReport>| {
        for r in &mut reports {
            (r.segments_allocated, r.segments_freed) = Default::default();
            (r.dirty_segments_scanned, r.dirty_cards_scanned) = Default::default();
        }
        reports
    };
    let [(_, serial), (_, workers), (_, budget)] = drivers();
    let expected = run(serial);
    assert!(expected.iter().any(|r| r.dirty_cards_scanned > 0));
    assert!(expected.iter().all(|r| r.guardian_entries_finalized == 1));
    assert_eq!(run(budget), expected, "budget 0");
    let (workers, expected) = (run(workers), without_layout_counts(expected));
    assert_eq!(without_layout_counts(workers), expected, "workers 4");
}
