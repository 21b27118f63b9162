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
//!
//! After the partition, `forwarded?` and `get-fwd-addr` are one call,
//! [`settle`], which also yields the generation the referent ends the
//! collection in. The "add obj to the tconc" step is [`append_all`]: one
//! chain per tconc per round, written with the collector's own stores.

use super::{forward, forward_settled, forwarded_p, kleene_sweep, settle, to_alloc, Scratch};
use crate::heap::{GuardEntry, Heap};
use crate::trace::GcEvent;
use crate::value::Value;
use guardians_segments::{Space, WordAddr};

pub(crate) fn run(heap: &mut Heap, s: &mut Scratch) {
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

    // Block 2: the fixpoint loop over entries with dead objects.
    loop {
        s.report.guardian_loop_iterations += 1;
        // `(rep, tconc)` with the tconc's forwarding address.
        let mut final_list = Vec::new();
        let mut remaining = Vec::new();
        for e in pend_final {
            match settle(heap, s.target, e.tconc) {
                Some((tconc, _)) => final_list.push((e.rep, tconc)),
                None => remaining.push(e),
            }
        }
        pend_final = remaining;
        if final_list.is_empty() {
            break;
        }
        let round = s.report.guardian_loop_iterations;
        let resurrected = final_list.len() as u64;
        heap.trace_emit(|| GcEvent::GuardianRound { round, resurrected });
        append_all(heap, s, &final_list);
        s.report.guardian_entries_finalized += resurrected;
        kleene_sweep(heap, s);
    }
    // Entries still pending have unreachable guardians: dropped, so their
    // objects are reclaimed without waiting for each to become
    // inaccessible individually.
    s.report.guardian_entries_dropped += pend_final.len() as u64;

    // Block 3: migrate held entries to the target generation's list — or
    // to a younger referent's (see `settle`), so that the collection that
    // moves the referent visits the entry.
    let mut agent_copied = false;
    for e in pend_hold {
        let Some((tconc, tconc_gen)) = settle(heap, s.target, e.tconc) else {
            s.report.guardian_entries_dropped += 1;
            continue;
        };
        let (obj, obj_gen) = settle(heap, s.target, e.obj).expect("a held object is forwarded");
        let (rep, rep_gen) = if e.rep == e.obj {
            (obj, obj_gen)
        } else {
            // A distinct agent is kept alive by the entry itself. One that
            // moved may have been copied just now and must be swept; one
            // forwarded earlier costs a sweep that finds nothing to do.
            let (rep, rep_gen) = forward_settled(heap, s, e.rep);
            agent_copied |= rep != e.rep;
            (rep, rep_gen)
        };
        let dest = s.target.min(obj_gen).min(rep_gen).min(tconc_gen);
        heap.protected[dest as usize].push(GuardEntry { obj, rep, tconc });
        s.report.guardian_entries_held += 1;
    }
    if agent_copied {
        kleene_sweep(heap, s);
    }
}

/// The collector's tconc append (Figure 3) for one round's `(rep, tconc)`
/// entries, `tconc` already forwarded. Each run of consecutive entries on
/// one tconc is one chain: per entry, in this order, `rep` is forwarded
/// (paper: forward(obj); with an agent, the representative is saved in the
/// object's place), the fresh last pair is allocated in the target
/// generation and — on the run's first entry — the header's old last cell
/// is forwarded; then the entry fills the current last cell (car := rep,
/// cdr := the fresh pair). The header's cdr is written once per run, last:
/// the publishing store. That allocation order is one append per entry's,
/// which keeps the to-space layout and every count. The fresh pairs come
/// from [`to_alloc`], the Pair window the copies share: the cursor's
/// `SegInfo::used` is stale inside an advance.
///
/// Every store is a raw word write plus [`SegmentTable::note_collector_store`]
/// with the referent's generation, never the mutator's barrier: the
/// collector runs with `Heap::incremental` taken out, so none of its
/// stores reaches the store log (`Scratch::stores`).
///
/// # Panics
///
/// Panics if a header or its last cell is not a pair.
///
/// [`SegmentTable::note_collector_store`]: guardians_segments::SegmentTable::note_collector_store
fn append_all(heap: &mut Heap, s: &mut Scratch, entries: &[(Value, Value)]) {
    let target = s.target;
    for run in entries.chunk_by(|a, b| a.1 == b.1) {
        let header = run[0].1;
        let mut last = None;
        for &(rep, _) in run {
            let (rep, rep_gen) = forward_settled(heap, s, rep);
            let (p_addr, _) = to_alloc(heap, s, Space::Pair, 2);
            heap.segs.set_word(p_addr, Value::FALSE.raw());
            heap.segs.set_word(p_addr.add(1), Value::FALSE.raw());
            let p = Value::pair_at(p_addr);
            let cell = match last {
                Some(cell) => cell,
                None => old_last_cell(heap, s, header),
            };
            store(heap, cell.addr(), rep, rep_gen);
            store(heap, cell.addr().add(1), p, target);
            last = Some(p);
            heap.trace_emit(|| GcEvent::TconcAppend {
                during_collection: true,
            });
        }
        let last = last.expect("a run has an entry");
        store(heap, header.addr().add(1), last, target);
    }
}

/// The header's last cell, forwarded: the header itself has been, but its
/// cdr may still be a stale from-space pointer if its segment has not been
/// swept yet.
fn old_last_cell(heap: &mut Heap, s: &mut Scratch, header: Value) -> Value {
    assert!(
        header.is_pair_ptr(),
        "tconc header is not a pair: {header:?}"
    );
    let last = Value(heap.segs.word(header.addr().add(1)));
    let last = forward(heap, s, last);
    assert!(
        last.is_pair_ptr(),
        "tconc last cell is not a pair: {last:?}"
    );
    last
}

/// One collector store: the word, then its exact card stamp.
fn store(heap: &mut Heap, at: WordAddr, v: Value, referent_gen: u8) {
    heap.segs.set_word(at, v.raw());
    heap.segs.note_collector_store(at, referent_gen);
}
