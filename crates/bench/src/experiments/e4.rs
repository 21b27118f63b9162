//! **E4 — Mutator overhead proportional to clean-ups performed.**
//!
//! Abstract: "the overhead within the mutator is proportional to the
//! number of clean-up actions actually performed"; Section 1: "scanning
//! through an entire hash table … in order to eliminate the values for
//! keys that have disappeared is unacceptable."
//!
//! Setup: a table of T live associations; exactly K keys die; one
//! collection; then one clean-up. The guarded table touches K entries;
//! the weak-pointer mechanisms touch T.

use guardians_baselines::WeakSet;
use guardians_gc::{Heap, Rooted, Value};
use guardians_runtime::hashtab::content_hash;
use guardians_runtime::{GuardedHashTable, WeakKeyTable};
use guardians_workloads::report::fmt_count;
use guardians_workloads::{KeyGen, Table};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct E4Row {
    pub table_size: usize,
    pub deaths: usize,
    pub guarded_touched: u64,
    pub full_scan_touched: u64,
    pub weak_set_touched: u64,
}

fn measure(table_size: usize, deaths: usize) -> E4Row {
    // Guarded table.
    let mut heap = Heap::default();
    let mut guarded = GuardedHashTable::new(&mut heap, 256, content_hash);
    let mut keys: Vec<Rooted> = Vec::new();
    for i in 0..table_size {
        let k = heap.make_string(&KeyGen::name(i as u64));
        keys.push(heap.root(k));
        guarded.access(&mut heap, k, Value::fixnum(i as i64));
    }
    keys.truncate(table_size - deaths);
    heap.collect(heap.config().max_generation());
    let before = guarded.removals;
    guarded.scrub(&mut heap);
    let guarded_touched = guarded.removals - before;

    // Weak table with full scan.
    let mut heap = Heap::default();
    let mut weak = WeakKeyTable::new(&mut heap, 256, content_hash);
    let mut keys: Vec<Rooted> = Vec::new();
    for i in 0..table_size {
        let k = heap.make_string(&KeyGen::name(i as u64));
        keys.push(heap.root(k));
        weak.access(&mut heap, k, Value::fixnum(i as i64));
    }
    keys.truncate(table_size - deaths);
    heap.collect(heap.config().max_generation());
    weak.scrub_full_scan(&mut heap);
    let full_scan_touched = weak.entries_scanned;

    // T-style weak set.
    let mut heap = Heap::default();
    let mut set = WeakSet::new(&mut heap);
    let mut keys: Vec<Rooted> = Vec::new();
    for i in 0..table_size {
        let k = heap.make_string(&KeyGen::name(i as u64));
        keys.push(heap.root(k));
        set.add(&mut heap, k);
    }
    keys.truncate(table_size - deaths);
    heap.collect(heap.config().max_generation());
    set.entries_traversed = 0;
    let _ = set.members(&mut heap);
    let weak_set_touched = set.entries_traversed;

    E4Row {
        table_size,
        deaths,
        guarded_touched,
        full_scan_touched,
        weak_set_touched,
    }
}

/// Runs the experiment: T sweeps up while K stays fixed.
pub fn run(quick: bool) -> (Table, Vec<E4Row>) {
    let sizes: &[usize] = if quick {
        &[200, 2_000]
    } else {
        &[1_000, 10_000, 50_000]
    };
    let deaths = 10;
    let mut table = Table::new(
        "E4: clean-up work after 10 key deaths, as table size grows",
        &[
            "table size",
            "deaths",
            "guarded touched",
            "full-scan touched",
            "weak-set touched",
        ],
    );
    let mut rows = Vec::new();
    for &t in sizes {
        let row = measure(t, deaths);
        table.row(&[
            fmt_count(t as u64),
            fmt_count(deaths as u64),
            fmt_count(row.guarded_touched),
            fmt_count(row.full_scan_touched),
            fmt_count(row.weak_set_touched),
        ]);
        rows.push(row);
    }
    table.note("paper claim: guarded work tracks deaths (constant column); weak-pointer work tracks table size (growing columns)");
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_work_tracks_deaths_not_size() {
        let (_t, rows) = run(true);
        for r in &rows {
            assert_eq!(r.guarded_touched, r.deaths as u64, "size={}", r.table_size);
            assert_eq!(
                r.full_scan_touched, r.table_size as u64,
                "size={}",
                r.table_size
            );
            assert_eq!(
                r.weak_set_touched, r.table_size as u64,
                "size={}",
                r.table_size
            );
        }
        // And the contrast grows with size.
        assert!(rows[1].full_scan_touched > rows[0].full_scan_touched);
        assert_eq!(rows[0].guarded_touched, rows[1].guarded_touched);
    }
}
