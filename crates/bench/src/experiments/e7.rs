//! **E7 — Guarded free lists of expensive objects.**
//!
//! Section 1: "it may be less time consuming to reuse a freed object if
//! one exists" — e.g. "a set of large objects (such as a set of bit maps
//! representing graphical displays)".
//!
//! Setup: cycles of acquire-use-drop of a large bitmap. With the guarded
//! pool, one bitmap serves every cycle; without, every cycle pays
//! allocation + initialization. Both sides of the trade are counted:
//! bytes the factory initialised (what the pool saves) and words the
//! collector copied (what resurrecting the bitmap costs).

use guardians_gc::{Heap, Value};
use guardians_runtime::GuardedPool;
use guardians_workloads::report::fmt_count;
use guardians_workloads::Table;
use std::cell::Cell;
use std::rc::Rc;

const BITMAP_BYTES: usize = 64 * 1024;

fn factory(heap: &mut Heap, initialised: &Cell<u64>) -> Value {
    // An "expensive" object: the initialization (think: rendering a
    // display bitmap) costs far more than the allocation — the shape the
    // paper's free-list motivation assumes. 8 K byte-writes of a computed
    // pattern stand in for the rendering.
    let bm = heap.make_bytevector(BITMAP_BYTES, 0);
    for i in 0..BITMAP_BYTES {
        let b = ((i.wrapping_mul(2654435761)) >> 7) as u8;
        heap.bytevector_set(bm, i, b);
    }
    initialised.set(initialised.get() + BITMAP_BYTES as u64);
    bm
}

/// Results of the two strategies.
#[derive(Debug, Clone)]
pub struct E7Result {
    pub cycles: usize,
    pub pooled_created: u64,
    pub pooled_recycled: u64,
    pub pooled_bytes_initialised: u64,
    pub fresh_bytes_initialised: u64,
    pub fresh_words_copied: u64,
    pub pooled_words_copied: u64,
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, E7Result) {
    let cycles = if quick { 50 } else { 500 };

    // Pooled.
    let mut heap = Heap::default();
    let pooled_bytes = Rc::new(Cell::new(0));
    let counter = Rc::clone(&pooled_bytes);
    let mut pool = GuardedPool::new(&mut heap, move |h| factory(h, &counter));
    for i in 0..cycles {
        let bm = pool.acquire(&mut heap);
        heap.bytevector_set(bm, i % BITMAP_BYTES, 1); // "use"
        heap.collect(heap.config().max_generation()); // object proven dropped
    }
    let pooled_created = pool.created;
    let pooled_recycled = pool.recycled;
    let pooled_words_copied = heap.stats().total_words_copied;

    // Fresh allocation each cycle.
    let mut heap = Heap::default();
    let fresh_bytes = Cell::new(0);
    for i in 0..cycles {
        let bm = factory(&mut heap, &fresh_bytes);
        heap.bytevector_set(bm, i % BITMAP_BYTES, 1);
        heap.collect(heap.config().max_generation());
    }
    let fresh_words_copied = heap.stats().total_words_copied;

    let result = E7Result {
        cycles,
        pooled_created,
        pooled_recycled,
        pooled_bytes_initialised: pooled_bytes.get(),
        fresh_bytes_initialised: fresh_bytes.get(),
        fresh_words_copied,
        pooled_words_copied,
    };
    let mut table = Table::new(
        "E7: guarded free list vs fresh allocation (64 KB bitmaps)",
        &[
            "strategy",
            "objects created",
            "recycled",
            "GC words copied",
            "bytes initialised",
        ],
    );
    table.row(&[
        "guarded pool".into(),
        fmt_count(pooled_created),
        fmt_count(pooled_recycled),
        fmt_count(pooled_words_copied),
        fmt_count(result.pooled_bytes_initialised),
    ]);
    table.row(&[
        "fresh each cycle".into(),
        fmt_count(cycles as u64),
        "0".into(),
        fmt_count(fresh_words_copied),
        fmt_count(result.fresh_bytes_initialised),
    ]);
    table.note("paper: automatic return to the free list avoids rebuild cost; one object serves all cycles");
    (table, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_one_object_across_all_cycles() {
        let (_t, r) = run(true);
        assert_eq!(r.pooled_created, 1);
        // Every acquire after the first found the previous cycle's bitmap
        // waiting in the guardian.
        assert_eq!(r.pooled_recycled as usize, r.cycles - 1);
        // The trade the paper describes: the pool pays GC copying (the
        // resurrected bitmap moves) to skip the expensive initialization.
        assert_eq!(r.pooled_bytes_initialised, BITMAP_BYTES as u64);
        assert_eq!(
            r.fresh_bytes_initialised,
            (r.cycles * BITMAP_BYTES) as u64,
            "fresh allocation initialises a bitmap every cycle"
        );
        assert!(r.pooled_words_copied > r.fresh_words_copied);
    }
}
