//! **E2 — Figures 2–4: the tconc representation and its lock-free
//! protocols.**
//!
//! Verifies, for every cut point of the collector's append protocol,
//! that a concurrent pop observes a consistent queue — the paper's
//! "critical sections are unnecessary in both the mutator and
//! collector". What the mutator-side operations cost is a time, and
//! `benchmark/` samples it (`gc-api.guard_ns`, `gc-api.poll_ns`).

use guardians_gc::{Heap, Value};
use guardians_workloads::report::fmt_count;
use guardians_workloads::Table;

/// Results of the protocol verification.
#[derive(Debug, Clone)]
pub struct E2Result {
    /// Interleaving states checked (all consistent).
    pub interleavings_checked: u64,
    /// Torn states observed (must be 0).
    pub torn_states: u64,
}

/// Exhaustively cuts the 3-write append protocol against pops at every
/// queue length 0..=8; returns (checked, torn).
pub fn verify_interleavings() -> (u64, u64) {
    let mut checked = 0;
    let mut torn = 0;
    for existing in 0..9u64 {
        for cut in 0..=3usize {
            let mut h = Heap::default();
            let tc = h.make_tconc();
            for i in 0..existing {
                h.tconc_append(tc, Value::fixnum(i as i64));
            }
            // Partial append of the next element, Figure 3's write order.
            let p = h.cons(Value::FALSE, Value::FALSE);
            let old_last = h.cdr(tc);
            if cut >= 1 {
                h.set_car(old_last, Value::fixnum(existing as i64));
            }
            if cut >= 2 {
                h.set_cdr(old_last, p);
            }
            if cut >= 3 {
                h.set_cdr(tc, p);
            }
            // The mutator drains whatever is visible.
            let mut seen = Vec::new();
            while let Some(v) = h.tconc_pop(tc) {
                seen.push(v.as_fixnum() as u64);
            }
            checked += 1;
            let expect: Vec<u64> = (0..existing + if cut >= 3 { 1 } else { 0 }).collect();
            if seen != expect {
                torn += 1;
            }
        }
    }
    (checked, torn)
}

/// Runs the experiment (one size: the cut-point enumeration is
/// exhaustive, so `quick` changes nothing).
pub fn run(_quick: bool) -> (Table, E2Result) {
    let (checked, torn) = verify_interleavings();
    let result = E2Result {
        interleavings_checked: checked,
        torn_states: torn,
    };
    let mut table = Table::new(
        "E2 (Figures 2-4): tconc protocol — consistency at every cut of the append",
        &["metric", "value"],
    );
    table.row(&["append interleavings checked".into(), fmt_count(checked)]);
    table.row(&["torn queue states observed".into(), fmt_count(torn)]);
    table.note(
        "paper: no critical sections needed — every cut of the append leaves the queue consistent",
    );
    (table, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_torn_states_at_any_cut() {
        let (_t, r) = run(true);
        assert_eq!(
            r.interleavings_checked, 36,
            "9 queue lengths x 4 cut points"
        );
        assert_eq!(
            r.torn_states, 0,
            "Figure 3's write order admits no torn observation"
        );
    }
}
