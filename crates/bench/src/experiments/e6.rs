//! **E6 — Transport guardians: rehash only what moved.**
//!
//! Section 3: "In a generation-based collector much of this work is
//! wasted for keys that are no longer forwarded during every collection
//! because they have survived long enough to have advanced to older
//! generations. One solution … is to use a transport guardian".
//!
//! Setup: N entries aged into an old generation; then young collections
//! with fresh churn. The rehash-all table touches all N entries after
//! every collection; the transport-guardian table touches only what
//! (conservatively) moved — which settles to zero.

use guardians_gc::{Heap, Rooted, Value};
use guardians_runtime::{EqHashTable, TransportEqHashTable};
use guardians_workloads::report::fmt_count;
use guardians_workloads::Table;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct E6Row {
    pub entries: usize,
    pub young_collections: usize,
    pub rehash_all_touched: u64,
    pub transport_touched: u64,
}

fn measure(entries: usize, young: usize) -> E6Row {
    // Rehash-all table.
    let mut heap = Heap::default();
    let mut t = EqHashTable::new(&mut heap, 256);
    let mut keys: Vec<Rooted> = Vec::new();
    for i in 0..entries {
        let k = heap.cons(Value::fixnum(i as i64), Value::NIL);
        keys.push(heap.root(k));
        t.insert(&mut heap, k, Value::fixnum(i as i64));
    }
    // Age, then settle the table.
    heap.collect(0);
    heap.collect(1);
    let _ = t.get(&mut heap, keys[0].get());
    let settled = t.entries_rehashed;
    for _ in 0..young {
        for _ in 0..500 {
            let _ = heap.cons(Value::NIL, Value::NIL);
        }
        heap.collect(0);
        let _ = t.get(&mut heap, keys[0].get()); // forces the policy's rehash
    }
    let rehash_all_touched = t.entries_rehashed - settled;

    // Transport-guardian table.
    let mut heap = Heap::default();
    let mut t = TransportEqHashTable::new(&mut heap, 256);
    let mut keys: Vec<Rooted> = Vec::new();
    for i in 0..entries {
        let k = heap.cons(Value::fixnum(i as i64), Value::NIL);
        keys.push(heap.root(k));
        t.insert(&mut heap, k, Value::fixnum(i as i64));
    }
    heap.collect(0);
    let _ = t.get(&mut heap, keys[0].get());
    heap.collect(1);
    let _ = t.get(&mut heap, keys[0].get());
    heap.collect(1);
    let _ = t.get(&mut heap, keys[0].get());
    let settled = t.entries_rehashed;
    for _ in 0..young {
        for _ in 0..500 {
            let _ = heap.cons(Value::NIL, Value::NIL);
        }
        heap.collect(0);
        let _ = t.get(&mut heap, keys[0].get());
    }
    let transport_touched = t.entries_rehashed - settled;

    E6Row {
        entries,
        young_collections: young,
        rehash_all_touched,
        transport_touched,
    }
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, Vec<E6Row>) {
    let sizes: &[usize] = if quick {
        &[100, 1_000]
    } else {
        &[1_000, 10_000, 50_000]
    };
    let young = if quick { 5 } else { 20 };
    let mut table = Table::new(
        "E6: eq-table entries touched across young collections (keys parked old)",
        &[
            "entries",
            "young GCs",
            "rehash-all touched",
            "transport-guardian touched",
        ],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let row = measure(n, young);
        table.row(&[
            fmt_count(n as u64),
            fmt_count(young as u64),
            fmt_count(row.rehash_all_touched),
            fmt_count(row.transport_touched),
        ]);
        rows.push(row);
    }
    table.note("paper: transport guardians eliminate wasted rehashing of unmoved old keys");
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_table_settles_to_zero_work() {
        let (_t, rows) = run(true);
        for r in &rows {
            assert_eq!(
                r.transport_touched, 0,
                "entries={}: parked keys must cost nothing",
                r.entries
            );
            assert_eq!(
                r.rehash_all_touched,
                (r.entries * r.young_collections) as u64,
                "entries={}: rehash-all touches everything every time",
                r.entries
            );
        }
    }
}
