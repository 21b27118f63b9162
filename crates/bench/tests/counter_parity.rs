//! Counter-parity regression test for the bulk-copy engine rewrite.
//!
//! The golden values below were recorded by running this exact workload on
//! the collector *before* the slice-based copy/scan engine landed (the
//! per-word `word()`/`set_word()` loops, `Vec<bool>` from-space map, and
//! re-walking Kleene worklist). The rewrite must be a pure speed change:
//! every deterministic work counter — words/pairs/objects copied, guardian
//! entries visited, finalized ids — must stay byte-identical, proving the
//! fast path changed *speed*, not *semantics*.
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
    finalized_ids: Vec<u64>,
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
        self.finalized_ids.extend(r.finalized_ids.iter().copied());
        self.segments_allocated += r.segments_allocated;
        self.segments_freed += r.segments_freed;
        self.dirty_segments_scanned += r.dirty_segments_scanned;
        self.dirty_cards_scanned += r.dirty_cards_scanned;
        self.weak_pairs_scanned += r.weak_pairs_scanned;
    }
}

/// Drives a deterministic mixed workload under `config` and accumulates
/// every per-collection counter: short-lived lists, a survivor window,
/// guardians over records, watched (collector-invoked baseline) boxes,
/// weak pairs, pure-space payloads, and periodically-dropped large
/// multi-segment vectors that exercise the cross-run bulk-copy path.
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
                let b = heap.make_box(list);
                heap.register_for_finalization(b, i);
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
        let mut ids = obs.finalized_ids.clone();
        ids.sort_unstable();
        println!("finalized_ids sorted: {ids:?}");
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
    assert_eq!(
        obs.finalized_ids,
        GOLDEN_FINALIZED_IDS.to_vec(),
        "finalized_ids"
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
        finalized_ids: Vec::new(),
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
#[rustfmt::skip]
const GOLDEN_FINALIZED_IDS: [u64; 857] = [
    1, 8, 15, 22, 29, 36, 43, 50, 57, 64, 71, 78,
    85, 92, 99, 106, 113, 120, 127, 134, 141, 148, 155, 162,
    169, 176, 183, 190, 197, 204, 211, 218, 225, 232, 239, 246,
    253, 260, 267, 274, 281, 288, 295, 302, 309, 316, 323, 330,
    337, 344, 351, 358, 365, 372, 379, 386, 393, 400, 407, 414,
    421, 428, 435, 442, 449, 456, 463, 470, 477, 484, 491, 498,
    505, 512, 519, 526, 533, 540, 547, 554, 561, 568, 575, 582,
    589, 596, 603, 610, 617, 624, 631, 638, 645, 652, 659, 666,
    673, 680, 687, 694, 701, 708, 715, 722, 729, 736, 743, 750,
    757, 764, 771, 778, 785, 792, 799, 806, 813, 820, 827, 834,
    841, 848, 855, 862, 869, 876, 883, 890, 897, 904, 911, 918,
    925, 932, 939, 946, 953, 960, 967, 974, 981, 988, 995, 1002,
    1009, 1016, 1023, 1030, 1037, 1044, 1051, 1058, 1065, 1072, 1079, 1086,
    1093, 1100, 1107, 1114, 1121, 1128, 1135, 1142, 1149, 1156, 1163, 1170,
    1177, 1184, 1191, 1198, 1205, 1212, 1219, 1226, 1233, 1240, 1247, 1254,
    1261, 1268, 1275, 1282, 1289, 1296, 1303, 1310, 1317, 1324, 1331, 1338,
    1345, 1352, 1359, 1366, 1373, 1380, 1387, 1394, 1401, 1408, 1415, 1422,
    1429, 1436, 1443, 1450, 1457, 1464, 1471, 1478, 1485, 1492, 1499, 1506,
    1513, 1520, 1527, 1534, 1541, 1548, 1555, 1562, 1569, 1576, 1583, 1590,
    1597, 1604, 1611, 1618, 1625, 1632, 1639, 1646, 1653, 1660, 1667, 1674,
    1681, 1688, 1695, 1702, 1709, 1716, 1723, 1730, 1737, 1744, 1751, 1758,
    1765, 1772, 1779, 1786, 1793, 1800, 1807, 1814, 1821, 1828, 1835, 1842,
    1849, 1856, 1863, 1870, 1877, 1884, 1891, 1898, 1905, 1912, 1919, 1926,
    1933, 1940, 1947, 1954, 1961, 1968, 1975, 1982, 1989, 1996, 2003, 2010,
    2017, 2024, 2031, 2038, 2045, 2052, 2059, 2066, 2073, 2080, 2087, 2094,
    2101, 2108, 2115, 2122, 2129, 2136, 2143, 2150, 2157, 2164, 2171, 2178,
    2185, 2192, 2199, 2206, 2213, 2220, 2227, 2234, 2241, 2248, 2255, 2262,
    2269, 2276, 2283, 2290, 2297, 2304, 2311, 2318, 2325, 2332, 2339, 2346,
    2353, 2360, 2367, 2374, 2381, 2388, 2395, 2402, 2409, 2416, 2423, 2430,
    2437, 2444, 2451, 2458, 2465, 2472, 2479, 2486, 2493, 2500, 2507, 2514,
    2521, 2528, 2535, 2542, 2549, 2556, 2563, 2570, 2577, 2584, 2591, 2598,
    2605, 2612, 2619, 2626, 2633, 2640, 2647, 2654, 2661, 2668, 2675, 2682,
    2689, 2696, 2703, 2710, 2717, 2724, 2731, 2738, 2745, 2752, 2759, 2766,
    2773, 2780, 2787, 2794, 2801, 2808, 2815, 2822, 2829, 2836, 2843, 2850,
    2857, 2864, 2871, 2878, 2885, 2892, 2899, 2906, 2913, 2920, 2927, 2934,
    2941, 2948, 2955, 2962, 2969, 2976, 2983, 2990, 2997, 3004, 3011, 3018,
    3025, 3032, 3039, 3046, 3053, 3060, 3067, 3074, 3081, 3088, 3095, 3102,
    3109, 3116, 3123, 3130, 3137, 3144, 3151, 3158, 3165, 3172, 3179, 3186,
    3193, 3200, 3207, 3214, 3221, 3228, 3235, 3242, 3249, 3256, 3263, 3270,
    3277, 3284, 3291, 3298, 3305, 3312, 3319, 3326, 3333, 3340, 3347, 3354,
    3361, 3368, 3375, 3382, 3389, 3396, 3403, 3410, 3417, 3424, 3431, 3438,
    3445, 3452, 3459, 3466, 3473, 3480, 3487, 3494, 3501, 3508, 3515, 3522,
    3529, 3536, 3543, 3550, 3557, 3564, 3571, 3578, 3585, 3592, 3599, 3606,
    3613, 3620, 3627, 3634, 3641, 3648, 3655, 3662, 3669, 3676, 3683, 3690,
    3697, 3704, 3711, 3718, 3725, 3732, 3739, 3746, 3753, 3760, 3767, 3774,
    3781, 3788, 3795, 3802, 3809, 3816, 3823, 3830, 3837, 3844, 3851, 3858,
    3865, 3872, 3879, 3886, 3893, 3900, 3907, 3914, 3921, 3928, 3935, 3942,
    3949, 3956, 3963, 3970, 3977, 3984, 3991, 3998, 4005, 4012, 4019, 4026,
    4033, 4040, 4047, 4054, 4061, 4068, 4075, 4082, 4089, 4096, 4103, 4110,
    4117, 4124, 4131, 4138, 4145, 4152, 4159, 4166, 4173, 4180, 4187, 4194,
    4201, 4208, 4215, 4222, 4229, 4236, 4243, 4250, 4257, 4264, 4271, 4278,
    4285, 4292, 4299, 4306, 4313, 4320, 4327, 4334, 4341, 4348, 4355, 4362,
    4369, 4376, 4383, 4390, 4397, 4404, 4411, 4418, 4425, 4432, 4439, 4446,
    4453, 4460, 4467, 4474, 4481, 4488, 4495, 4502, 4509, 4516, 4523, 4530,
    4537, 4544, 4551, 4558, 4565, 4572, 4579, 4586, 4593, 4600, 4607, 4614,
    4621, 4628, 4635, 4642, 4649, 4656, 4663, 4670, 4677, 4684, 4691, 4698,
    4705, 4712, 4719, 4726, 4733, 4740, 4747, 4754, 4761, 4768, 4775, 4782,
    4789, 4796, 4803, 4810, 4817, 4824, 4831, 4838, 4845, 4852, 4859, 4866,
    4873, 4880, 4887, 4894, 4901, 4908, 4915, 4922, 4929, 4936, 4943, 4950,
    4957, 4964, 4971, 4978, 4985, 4992, 4999, 5006, 5013, 5020, 5027, 5034,
    5041, 5048, 5055, 5062, 5069, 5076, 5083, 5090, 5097, 5104, 5111, 5118,
    5125, 5132, 5139, 5146, 5153, 5160, 5167, 5174, 5181, 5188, 5195, 5202,
    5209, 5216, 5223, 5230, 5237, 5244, 5251, 5258, 5265, 5272, 5279, 5286,
    5293, 5300, 5307, 5314, 5321, 5328, 5335, 5342, 5349, 5356, 5363, 5370,
    5377, 5384, 5391, 5398, 5405, 5412, 5419, 5426, 5433, 5440, 5447, 5454,
    5461, 5468, 5475, 5482, 5489, 5496, 5503, 5510, 5517, 5524, 5531, 5538,
    5545, 5552, 5559, 5566, 5573, 5580, 5587, 5594, 5601, 5608, 5615, 5622,
    5629, 5636, 5643, 5650, 5657, 5664, 5671, 5678, 5685, 5692, 5699, 5706,
    5713, 5720, 5727, 5734, 5741, 5748, 5755, 5762, 5769, 5776, 5783, 5790,
    5797, 5804, 5811, 5818, 5825, 5832, 5839, 5846, 5853, 5860, 5867, 5874,
    5881, 5888, 5895, 5902, 5909, 5916, 5923, 5930, 5937, 5944, 5951, 5958,
    5965, 5972, 5979, 5986, 5993,
];
