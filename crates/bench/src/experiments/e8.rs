//! **E8 — Section 3 registration semantics, at scale.**
//!
//! The paper's transcripts define the semantics (multiple registration,
//! multiple guardians, no special status of retrieved objects); the gc
//! crate's tests verify them one by one. This experiment checks the
//! multiplicity accounting at scale (`benchmark/` samples what a
//! registration and a retrieval cost: `gc-api.guard_ns`,
//! `gc-api.poll_ns`).

use guardians_gc::{Heap, Value};
use guardians_workloads::report::fmt_count;
use guardians_workloads::Table;

/// Results.
#[derive(Debug, Clone)]
pub struct E8Result {
    pub objects: usize,
    pub registrations_per_object: usize,
    pub delivered: u64,
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, E8Result) {
    let objects = if quick { 1_000 } else { 20_000 };
    let regs = 3;

    let mut heap = Heap::default();
    let g = heap.make_guardian();
    for i in 0..objects {
        let obj = heap.cons(Value::fixnum(i as i64), Value::NIL);
        for _ in 0..regs {
            g.register(&mut heap, obj);
        }
    }
    heap.collect(heap.config().max_generation());
    let mut delivered = 0u64;
    while g.poll(&mut heap).is_some() {
        delivered += 1;
    }

    let result = E8Result {
        objects,
        registrations_per_object: regs,
        delivered,
    };
    let mut table = Table::new(
        "E8: registration multiplicity at scale",
        &["metric", "value"],
    );
    table.row(&["objects".into(), fmt_count(objects as u64)]);
    table.row(&["registrations each".into(), regs.to_string()]);
    table.row(&["deliveries after death".into(), fmt_count(delivered)]);
    table.note("paper: 'an object may be registered ... more than once, in which case it is retrievable more than once'");
    (table, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplicity_accounting_is_exact() {
        let (_t, r) = run(true);
        assert_eq!(r.delivered, (r.objects * r.registrations_per_object) as u64);
    }
}
