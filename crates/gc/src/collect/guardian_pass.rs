//! The guardian pass — a faithful implementation of the pseudo-code in
//! the paper's Section 4:
//!
//! ```text
//! pend-hold-list := pend-final-list := empty
//! For each generation i from 0 to g
//!   For each (obj . tconc) pair in protected[i]
//!     If forwarded?(obj) move (obj . tconc) to pend-hold-list
//!     Else move (obj . tconc) to pend-final-list
//!   protected[i] := empty
//! Loop
//!   final-list := empty
//!   For each (obj . tconc) pair in pend-final-list
//!     If forwarded?(tconc) move (obj . tconc) to final-list
//!   If empty?(final-list) Exit Loop
//!   For each (obj . tconc) pair in final-list
//!     forward(obj); tconc := get-fwd-addr(tconc); add obj to the tconc
//!   kleene-sweep(g)
//! End Loop
//! For each (obj . tconc) pair in pend-hold-list
//!   If forwarded?(tconc)
//!     tconc := get-fwd-addr(tconc); obj := get-fwd-addr(obj)
//!     move (obj . tconc) to protected[target-generation]
//! ```
//!
//! The fixpoint loop handles guardians that become reachable only through
//! resurrected objects (including guardians registered with other
//! guardians, the paper's `(G H)` example); entries whose tconc never
//! becomes reachable are dropped, so "all objects registered at the time
//! the guardian is dropped" are reclaimable immediately.
//!
//! One extension beyond the pseudo-code, from the paper's own text —
//! **agents** (Section 5): each entry carries a representative `rep`; the
//! finalize path forwards and enqueues `rep` instead of `obj`. With
//! `rep == obj` this is exactly the pseudo-code. With a distinct agent the
//! object itself stays dead, "allowing objects to be discarded if
//! something less than the object is needed to perform the finalization";
//! the hold path keeps a distinct agent alive (it may be referenced only by
//! the entry), which requires one extra sweep.

use super::{forward, forwarded_p, get_fwd, kleene_sweep, settled_generation, Scratch};
use crate::heap::{GuardEntry, Heap};
use crate::trace::GcEvent;
use crate::value::Value;
use guardians_segments::Space;

pub(crate) fn run(heap: &mut Heap, s: &mut Scratch) {
    let visited_before = s.report.guardian_entries_visited;
    let finalized_before = s.report.guardian_entries_finalized;
    let held_before = s.report.guardian_entries_held;
    let dropped_before = s.report.guardian_entries_dropped;
    let loops_before = s.report.guardian_loop_iterations;

    // Block 1: partition the protected lists of the collected generations.
    let mut pend_hold: Vec<GuardEntry> = Vec::new();
    let mut pend_final: Vec<GuardEntry> = Vec::new();
    for i in 0..=s.g as usize {
        for e in std::mem::take(&mut heap.protected[i]) {
            s.report.guardian_entries_visited += 1;
            if forwarded_p(heap, e.obj) {
                pend_hold.push(e);
            } else {
                pend_final.push(e);
            }
        }
    }
    heap.trace_emit(|| GcEvent::GuardianPartition {
        visited: s.report.guardian_entries_visited - visited_before,
        pend_hold: pend_hold.len() as u64,
        pend_final: pend_final.len() as u64,
    });

    // Block 2: the fixpoint loop over entries with dead objects.
    loop {
        s.report.guardian_loop_iterations += 1;
        let mut final_list = Vec::new();
        let mut remaining = Vec::new();
        for e in pend_final {
            if forwarded_p(heap, e.tconc) {
                final_list.push(e);
            } else {
                remaining.push(e);
            }
        }
        pend_final = remaining;
        if final_list.is_empty() {
            break;
        }
        let round = s.report.guardian_loop_iterations - loops_before;
        let resurrected = final_list.len() as u64;
        heap.trace_emit(|| GcEvent::GuardianRound { round, resurrected });
        for e in final_list {
            // Paper: forward(obj). With an agent, the representative is
            // forwarded (saved from destruction) in the object's place.
            let rep = forward(heap, s, e.rep);
            let tconc = get_fwd(heap, e.tconc);
            append_to_tconc(heap, s, tconc, rep);
            s.report.guardian_entries_finalized += 1;
        }
        kleene_sweep(heap, s);
    }
    // Entries still pending have unreachable guardians: dropped, so their
    // objects are reclaimed without waiting for each to become
    // inaccessible individually.
    s.report.guardian_entries_dropped += pend_final.len() as u64;

    // Block 3: migrate held entries to the target generation's list — or
    // to a younger referent's (see `settled_generation`).
    let mut agent_copied = false;
    for e in pend_hold {
        if forwarded_p(heap, e.tconc) {
            let obj = get_fwd(heap, e.obj);
            let tconc = get_fwd(heap, e.tconc);
            let rep = if e.rep == e.obj {
                obj
            } else {
                // A distinct agent is kept alive by the entry itself.
                agent_copied = agent_copied || e.rep.is_ptr();
                forward(heap, s, e.rep)
            };
            let dest = [e.obj, e.rep, e.tconc]
                .iter()
                .map(|&v| settled_generation(heap, s.target, v))
                .fold(s.target, u8::min);
            heap.protected[dest as usize].push(GuardEntry { obj, rep, tconc });
            s.report.guardian_entries_held += 1;
        } else {
            s.report.guardian_entries_dropped += 1;
        }
    }
    if agent_copied {
        kleene_sweep(heap, s);
    }
    heap.trace_emit(|| GcEvent::GuardianOutcome {
        finalized: s.report.guardian_entries_finalized - finalized_before,
        held: s.report.guardian_entries_held - held_before,
        dropped: s.report.guardian_entries_dropped - dropped_before,
        loop_iterations: s.report.guardian_loop_iterations - loops_before,
    });
}

/// Collector-side tconc append (Figure 3): allocates the fresh last pair
/// directly in the target generation and publishes the element by writing
/// the header's cdr last. Writes go through the barriered accessors so a
/// tconc living in an older generation gets its card marked.
fn append_to_tconc(heap: &mut Heap, s: &mut Scratch, tconc: Value, obj: Value) {
    let p_addr = heap.alloc_words_internal(Space::Pair, s.target, 2);
    heap.segs.set_word(p_addr, Value::FALSE.raw());
    heap.segs.set_word(p_addr.add(1), Value::FALSE.raw());
    let p = Value::pair_at(p_addr);
    // The tconc was just forwarded; its cdr may still be a stale
    // from-space pointer if its segment has not been swept yet. Forward it
    // through before following it.
    let last_raw = heap.cdr(tconc);
    let last = forward(heap, s, last_raw);
    if last != last_raw {
        heap.set_cdr(tconc, last);
    }
    heap.tconc_append_with(tconc, obj, p);
}
