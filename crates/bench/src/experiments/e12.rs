//! **E12 — The Section 5 agent generalisation.**
//!
//! "Rather than returning the object when it becomes inaccessible, the
//! guardian returns the agent. … The primary benefit of this change is
//! that it allows objects to be discarded if something less than the
//! object is needed to perform the finalization."
//!
//! Setup: large objects (64 KB bitmaps) carrying a small clean-up token.
//! With the classic interface the whole object is resurrected and copied
//! just to learn its token; with an agent, only the token survives.

use guardians_gc::{Heap, Value};
use guardians_workloads::report::fmt_count;
use guardians_workloads::Table;

const OBJECT_BYTES: usize = 64 * 1024;

/// One mode's outcome.
#[derive(Debug, Clone)]
pub struct E12Row {
    pub mode: &'static str,
    pub objects: usize,
    pub delivered: u64,
    pub resurrection_words_copied: u64,
}

fn measure(objects: usize, use_agent: bool) -> E12Row {
    let mut heap = Heap::default();
    let g = heap.make_guardian();
    for i in 0..objects {
        let big = heap.make_bytevector(OBJECT_BYTES, 0);
        let token = Value::fixnum(i as i64);
        if use_agent {
            g.register_with_agent(&mut heap, big, token);
        } else {
            g.register(&mut heap, big);
        }
    }
    // All objects are unreferenced: one collection finalizes everything.
    let before = heap.stats().total_words_copied;
    heap.collect(heap.config().max_generation());
    let copied = heap.stats().total_words_copied - before;
    let mut delivered = 0;
    while g.poll(&mut heap).is_some() {
        delivered += 1;
    }
    E12Row {
        mode: if use_agent {
            "agent (Section 5)"
        } else {
            "object (classic)"
        },
        objects,
        delivered,
        resurrection_words_copied: copied,
    }
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, Vec<E12Row>) {
    let objects = if quick { 20 } else { 200 };
    let rows = vec![measure(objects, false), measure(objects, true)];
    let mut table = Table::new(
        "E12: classic vs agent registration for 64 KB objects",
        &[
            "mode",
            "objects",
            "delivered",
            "words copied at finalization",
        ],
    );
    for r in &rows {
        table.row(&[
            r.mode.to_string(),
            fmt_count(r.objects as u64),
            fmt_count(r.delivered),
            fmt_count(r.resurrection_words_copied),
        ]);
    }
    table.note("agents let the collector discard the object and save only the token: the copy column collapses");
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agents_avoid_resurrecting_large_objects() {
        let (_t, rows) = run(true);
        let classic = &rows[0];
        let agent = &rows[1];
        assert_eq!(classic.delivered, classic.objects as u64);
        assert_eq!(agent.delivered, agent.objects as u64);
        assert!(
            agent.resurrection_words_copied < classic.resurrection_words_copied / 10,
            "agent copies {} vs classic {}",
            agent.resurrection_words_copied,
            classic.resurrection_words_copied
        );
    }
}
