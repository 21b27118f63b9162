//! Golden heap counters for the bytecode VM on the scheme-differential
//! workload.
//!
//! The table was recorded at the last commit that still had the staged
//! (tree-walking) evaluator, where the staged tier and the VM produced
//! exactly these numbers on all three collection engines. With that tier
//! gone the table is what pins the VM's allocation sequence and safe
//! points: a VM change that allocates one more frame, or collects at one
//! more place, moves a row. Observables are checked against the naive
//! oracle by the differential itself; counters cannot be, because the
//! oracle allocates differently by design.
//!
//! After an *intentional* change to what the VM allocates or when it
//! collects, re-record from the `actual` rows the failure message prints.

use guardians_torture::scheme_diff::Counters;
use guardians_torture::{run_scheme_differential, TortureConfig};

const FORMS: usize = 150;

/// `scheme_program(seed, 150)` for seeds 1..=8; columns in [`Counters`]
/// field order. Identical stop-the-world and under a 100 µs budget.
const GOLDEN: [[u64; 9]; 8] = [
    [21, 3377, 1629, 12834, 18, 18, 9975, 18, 24],
    [20, 3207, 1548, 12073, 21, 21, 12606, 21, 14],
    [13, 3546, 1791, 13940, 23, 23, 13016, 23, 52],
    [19, 3286, 1564, 12337, 16, 16, 11385, 16, 28],
    [19, 3323, 1548, 12350, 15, 15, 9417, 15, 31],
    [18, 3387, 1643, 12883, 17, 17, 12475, 17, 9],
    [17, 3329, 1637, 12754, 19, 19, 12420, 19, 22],
    [17, 3316, 1580, 12476, 16, 16, 10332, 16, 41],
];

fn row(c: &Counters) -> [u64; 9] {
    [
        c.collections,
        c.pairs_allocated,
        c.objects_allocated,
        c.words_allocated,
        c.guardian_registrations,
        c.guardian_polls,
        c.total_words_copied,
        c.total_guardian_entries_visited,
        c.total_weak_pairs_scanned,
    ]
}

#[test]
fn vm_counters_match_the_recorded_table_on_every_engine() {
    let engines = [
        ("serial", TortureConfig::default()),
        (
            "pause budget 100 us",
            TortureConfig {
                pause_budget: Some(100),
                ..TortureConfig::default()
            },
        ),
    ];
    for (engine, cfg) in &engines {
        for (seed, golden) in (1u64..).zip(&GOLDEN) {
            let stats = run_scheme_differential(seed, FORMS, cfg).unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(
                &row(&stats.counters),
                golden,
                "seed {seed}, {engine}: actual (left) vs recorded (right)"
            );
        }
    }
}
