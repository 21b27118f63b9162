//! Counter-parity regression test for the bulk-copy engine rewrite.
//!
//! The golden values below were recorded by running this exact workload on
//! the collector *before* the slice-based copy/scan engine landed (the
//! per-word `word()`/`set_word()` loops, `Vec<bool>` from-space map, and
//! re-walking Kleene worklist). The rewrite must be a pure speed change:
//! every deterministic work counter — words/pairs/objects copied, guardian
//! entries visited — must stay byte-identical, proving the fast path
//! changed *speed*, not *semantics*.
//!
//! If this test ever fails after an intentional algorithm change (not a
//! performance refactor), re-record the goldens with
//! `PARITY_PRINT=1 cargo test -p guardians-bench --test counter_parity -- --nocapture`.

use guardians_gc::{GcConfig, Heap, Promotion, Value};
use guardians_workloads::KeyGen;

/// Everything deterministic a collection sequence produces.
#[derive(Debug, Default, PartialEq, Eq)]
struct Observed {
    collections: u64,
    words_copied: u64,
    pairs_copied: u64,
    objects_copied: u64,
    guardian_entries_visited: u64,
    guardian_entries_held: u64,
    guardian_entries_finalized: u64,
    weak_cars_broken: u64,
    weak_cars_forwarded: u64,
    pure_words_skipped: u64,
    // Layout-sensitive counters: equal only if the same objects land at
    // the same to-space addresses in the same order. Compared by the
    // scan-kernel workload's goldens, not by the pre-rewrite ones above.
    segments_allocated: u64,
    segments_freed: u64,
    dirty_segments_scanned: u64,
    dirty_cards_scanned: u64,
    weak_pairs_scanned: u64,
}

impl Observed {
    fn absorb(&mut self, r: &guardians_gc::CollectionReport) {
        self.collections += 1;
        self.words_copied += r.words_copied;
        self.pairs_copied += r.pairs_copied;
        self.objects_copied += r.objects_copied;
        self.guardian_entries_visited += r.guardian_entries_visited;
        self.guardian_entries_held += r.guardian_entries_held;
        self.guardian_entries_finalized += r.guardian_entries_finalized;
        self.weak_cars_broken += r.weak_cars_broken;
        self.weak_cars_forwarded += r.weak_cars_forwarded;
        self.pure_words_skipped += r.pure_words_skipped;
        self.segments_allocated += r.segments_allocated;
        self.segments_freed += r.segments_freed;
        self.dirty_segments_scanned += r.dirty_segments_scanned;
        self.dirty_cards_scanned += r.dirty_cards_scanned;
        self.weak_pairs_scanned += r.weak_pairs_scanned;
    }
}

/// Drives a deterministic mixed workload under `config` and accumulates
/// every per-collection counter: short-lived lists, a survivor window,
/// guardians over records, boxes, weak pairs, pure-space payloads, and
/// periodically-dropped large multi-segment vectors that exercise the
/// cross-run bulk-copy path.
/// The whole heap is re-verified after every collection, so the mixed
/// pair/pure/typed/weak/multi-segment profile is also a stress test of
/// the copy/scan engine.
fn drive_with_report_sums(config: GcConfig) -> Observed {
    let mut heap = Heap::new(config);
    let mut gen = KeyGen::new(0xC0FFEE, 0.3);
    let mut obs = Observed::default();

    let guardian = heap.make_guardian();
    let mut window: Vec<Option<guardians_gc::Rooted>> = (0..96).map(|_| None).collect();
    let mut big_slots: Vec<Option<guardians_gc::Rooted>> = vec![None, None, None];
    let descriptor = {
        let d = heap.make_symbol("parity-record");
        heap.root(d)
    };

    for i in 0..6_000u64 {
        let mut list = Value::NIL;
        for k in 0..4 {
            list = heap.cons(Value::fixnum((i * 31 + k) as i64), list);
        }
        if gen.flip(0.12) {
            let slot = gen.uniform(window.len());
            window[slot] = Some(heap.root(list));
        }

        match i % 7 {
            0 => {
                let r = heap.make_record(descriptor.get(), &[list, Value::fixnum(i as i64)]);
                guardian.register(&mut heap, r);
                // Some guarded records stay reachable so entries are held
                // (and parked in older generations) rather than finalized.
                if gen.flip(0.2) {
                    let slot = gen.uniform(window.len());
                    window[slot] = Some(heap.root(r));
                }
            }
            1 => {
                let _ = heap.make_box(list);
            }
            2 => {
                let w = heap.weak_cons(list, Value::fixnum(i as i64));
                let slot = gen.uniform(window.len());
                window[slot] = Some(heap.root(w));
            }
            3 => {
                let _ = heap.make_string("pure-space payload: no pointers in here");
                let _ = heap.make_bytevector(64, (i % 251) as u8);
            }
            _ => {}
        }

        if i % 512 == 0 {
            let big = heap.make_vector(1500, list);
            let slot = (i / 512) as usize % big_slots.len();
            big_slots[slot] = Some(heap.root(big));
        }

        if i % 32 == 0 {
            let report = heap.maybe_collect().cloned();
            if let Some(r) = report {
                obs.absorb(&r);
                heap.verify().expect("heap valid after every collection");
            }
        }
        while guardian.poll(&mut heap).is_some() {}
    }

    let max_gen = heap.config().max_generation();
    let r = heap.collect(max_gen).clone();
    obs.absorb(&r);
    heap.verify().expect("heap valid at end of parity workload");
    obs
}

/// A second deterministic workload, aimed at the copy/scan kernel rather
/// than at the guardian machinery: every round builds
///
/// * a 1,500-pair list rooted by its head only, so each to-space pair
///   segment is scanned *while copies land in it*;
/// * a 1,500-slot vector (a three-segment run) holding fresh pairs in the
///   slots either side of both chunk boundaries (traced words 511/512 and
///   1023/1024), the first and the last;
/// * a chain of weak pairs whose cdrs are the only references to the pairs
///   linking them, with cars alternately garbage and live;
/// * a typed segment tiled with records, boxes, symbols and zero-length
///   vectors;
///
/// hangs them off a ring of roots so they age through the generations and
/// die, and stores fresh pairs into *aged* large vectors, weak pairs and
/// list cells (multi-segment dirty runs, dirty weak segments). Every third
/// round a guardian resurrects an otherwise dead large vector, so a run is
/// also forwarded from the guardian pass.
fn drive_scan_kernel_workload(config: GcConfig) -> Observed {
    let mut heap = Heap::new(config);
    let mut obs = Observed::default();
    let guardian = heap.make_guardian();
    let descriptor = {
        let d = heap.make_symbol("kernel-record");
        heap.root(d)
    };
    let ring = heap.root_vec();
    for _ in 0..12 {
        ring.push(Value::NIL);
    }
    const BOUNDARY_SLOTS: [usize; 6] = [0, 510, 511, 1022, 1023, 1499];

    for round in 0..48u64 {
        let tag = |k: u64| Value::fixnum((round * 10_000 + k) as i64);
        let mut list = Value::NIL;
        for k in 0..1500 {
            list = heap.cons(tag(k), list);
        }
        let big = heap.make_vector(1500, Value::NIL);
        for slot in BOUNDARY_SLOTS {
            let p = heap.cons(tag(slot as u64), list);
            heap.vector_set(big, slot, p);
        }
        let mut weaks = Value::NIL;
        for k in 0..40 {
            let link = heap.cons(tag(k), weaks);
            let car = if k % 2 == 0 {
                heap.cons(tag(k), Value::NIL)
            } else {
                list
            };
            weaks = heap.weak_cons(car, link);
        }
        let tiles = heap.make_vector(32, Value::NIL);
        for k in 0..32 {
            let tile = match k % 4 {
                0 => heap.make_record(descriptor.get(), &[list, tag(k as u64)]),
                1 => heap.make_box(weaks),
                2 => heap.make_symbol("tile"),
                _ => heap.make_vector(0, Value::NIL),
            };
            heap.vector_set(tiles, k, tile);
        }
        let holder = heap.make_vector(4, Value::NIL);
        for (i, v) in [list, big, weaks, tiles].into_iter().enumerate() {
            heap.vector_set(holder, i, v);
        }
        ring.set(round as usize % 12, holder);

        // Old-to-young stores into a holder five rounds older.
        let aged = ring.get((round as usize + 7) % 12);
        if aged != Value::NIL {
            let old_big = heap.vector_ref(aged, 1);
            for slot in [511usize, 1023] {
                let p = heap.cons(tag(slot as u64), Value::NIL);
                heap.vector_set(old_big, slot, p);
            }
            let old_weak = heap.vector_ref(aged, 2);
            let p = heap.cons(tag(1), heap.cdr(old_weak));
            heap.set_cdr(old_weak, p);
            let old_list = heap.vector_ref(aged, 0);
            let p = heap.cons(tag(2), Value::NIL);
            heap.set_car(old_list, p);
        }
        if round % 3 == 0 {
            let doomed = heap.make_vector(1100, list);
            guardian.register(&mut heap, doomed);
        }

        let report = heap.maybe_collect().cloned();
        if let Some(r) = report {
            obs.absorb(&r);
            heap.verify().expect("heap valid after every collection");
        }
        while guardian.poll(&mut heap).is_some() {}
    }

    let max_gen = heap.config().max_generation();
    let r = heap.collect(max_gen).clone();
    obs.absorb(&r);
    heap.verify()
        .expect("heap valid at end of scan-kernel workload");
    obs
}

fn parity_config() -> GcConfig {
    GcConfig {
        generations: 4,
        trigger_bytes: 32 * 1024,
        frequency: vec![1, 4, 16, 64],
        promotion: Promotion::NextGeneration,
        ..GcConfig::new()
    }
}

#[test]
fn counters_match_pre_rewrite_goldens() {
    let obs = drive_with_report_sums(parity_config());
    if std::env::var("PARITY_PRINT").is_ok() {
        println!("golden: {obs:#?}");
    }

    // ---- golden values recorded on the pre-rewrite collector ----
    assert_eq!(obs.collections, GOLDEN_COLLECTIONS, "collections");
    assert_eq!(obs.words_copied, GOLDEN_WORDS_COPIED, "words_copied");
    assert_eq!(obs.pairs_copied, GOLDEN_PAIRS_COPIED, "pairs_copied");
    assert_eq!(obs.objects_copied, GOLDEN_OBJECTS_COPIED, "objects_copied");
    assert_eq!(
        obs.guardian_entries_visited, GOLDEN_GUARDIAN_ENTRIES_VISITED,
        "guardian_entries_visited"
    );
    assert_eq!(
        obs.guardian_entries_held, GOLDEN_GUARDIAN_ENTRIES_HELD,
        "guardian_entries_held"
    );
    assert_eq!(
        obs.guardian_entries_finalized, GOLDEN_GUARDIAN_ENTRIES_FINALIZED,
        "guardian_entries_finalized"
    );
    assert_eq!(
        obs.weak_cars_broken, GOLDEN_WEAK_CARS_BROKEN,
        "weak_cars_broken"
    );
    assert_eq!(
        obs.weak_cars_forwarded, GOLDEN_WEAK_CARS_FORWARDED,
        "weak_cars_forwarded"
    );
    assert_eq!(
        obs.pure_words_skipped, GOLDEN_PURE_WORDS_SKIPPED,
        "pure_words_skipped"
    );
}

/// The scan-kernel workload's counters, layout-sensitive ones included,
/// against goldens recorded at `5bdc425` — the commit before the calling
/// thread's two-pass candidate scan (and its large-run special case) was
/// replaced by the shared in-place walker. Re-record as for the goldens
/// above.
#[test]
fn scan_kernel_counters_match_goldens() {
    let obs = drive_scan_kernel_workload(parity_config());
    if std::env::var("PARITY_PRINT").is_ok() {
        println!("scan-kernel golden: {obs:#?}");
    }
    let golden = Observed {
        collections: 49,
        words_copied: 595_212,
        pairs_copied: 190_686,
        objects_copied: 5_184,
        guardian_entries_visited: 16,
        guardian_entries_held: 0,
        guardian_entries_finalized: 16,
        weak_cars_broken: 960,
        weak_cars_forwarded: 2_400,
        pure_words_skipped: 1_932,
        segments_allocated: 1_336,
        segments_freed: 1_893,
        // The collector's own tconc stores no longer mark target-generation cards.
        dirty_segments_scanned: 216,
        dirty_cards_scanned: 224,
        weak_pairs_scanned: 20_192,
    };
    assert_eq!(obs, golden);
}

#[test]
fn parity_workload_is_self_deterministic() {
    let a = drive_with_report_sums(parity_config());
    let b = drive_with_report_sums(parity_config());
    assert_eq!(a, b, "two runs of the parity workload must agree exactly");
}

// Golden values; see module docs for the re-recording procedure.
const GOLDEN_COLLECTIONS: u64 = 18;
const GOLDEN_WORDS_COPIED: u64 = 51289;
const GOLDEN_PAIRS_COPIED: u64 = 6421;
const GOLDEN_OBJECTS_COPIED: u64 = 1006;
const GOLDEN_GUARDIAN_ENTRIES_VISITED: u64 = 975;
const GOLDEN_GUARDIAN_ENTRIES_HELD: u64 = 126;
const GOLDEN_GUARDIAN_ENTRIES_FINALIZED: u64 = 849;
const GOLDEN_WEAK_CARS_BROKEN: u64 = 489;
const GOLDEN_WEAK_CARS_FORWARDED: u64 = 48;
const GOLDEN_PURE_WORDS_SKIPPED: u64 = 12;
