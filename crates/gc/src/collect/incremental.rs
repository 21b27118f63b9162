//! The bounded-pause (incremental) collection engine, selected by
//! [`GcConfig::pause_budget`](crate::GcConfig).
//!
//! A collection is split into *increments*. Each increment runs the same
//! phases, in the same order, over the same work lists as the serial
//! engine — the retiring scan queue ([`sweep_unit`]) and the per-segment
//! remembered-set entries are the increment-shaped work units — but
//! yields back to the mutator once the configured budget's deadline
//! passes (always after at least one whole unit, so a `Duration::ZERO`
//! budget gives one-unit increments). The suspended collection lives in
//! an [`IncrementalState`] owned by the heap and resumes at the next
//! safe point.
//!
//! # The mutator's view between increments
//!
//! * **Forwarded on read.** From-space objects are either intact
//!   (unforwarded; every word still valid) or carry a broken heart in
//!   word 0. Every typed accessor resolves its operands through
//!   [`Heap::resolve_read`], so a stale pointer to a forwarded object is
//!   transparently redirected to the to-space copy. Unforwarded
//!   from-space objects are read and written in place — stores travel
//!   with the wholesale copy if the object is later forwarded.
//! * **Write barrier.** A store that lands a from-space pointer in a
//!   non-from-space segment (one the collector may have scanned already)
//!   logs the segment in the state's re-scan list; the next increment
//!   re-scans it before declaring the sweep finished. Segment
//!   granularity and idempotent forwarding make over-logging harmless.
//! * **Allocation.** The to-space log stays live for the whole
//!   collection, so mutator allocations between increments are swept
//!   like to-space: their initializing stores (which bypass the write
//!   barrier) are still traced.
//!
//! # Guardian atomicity
//!
//! The final increment runs the §4 guardian three-block pass, the
//! finalizer pass, the weak pass, and the reclaim *atomically*, after
//! the sweep fixpoint is proven global (roots re-forwarded, remembered
//! set and re-scan list drained, sweep dry). No yield separates the
//! guardian partition from the weak break, so guardian/weak observables
//! are byte-identical to the serial engine; the cost is a pause floor —
//! the final increment cannot be shorter than those passes (measured in
//! experiment E18, argued in DESIGN.md §10).

use super::{emit_end, emit_phase, finish, forward_roots, lap, remset, sweep_unit, Scratch};
use crate::heap::Heap;
use crate::trace::GcPhase;
use crate::value::{fwd, Value};
use guardians_segments::SegIndex;
use std::time::{Duration, Instant};

/// A collection suspended between increments.
pub(crate) struct IncrementalState {
    /// The collector scratch state, persisted across yields. The scan
    /// queue, parked segments, and weak lists resume exactly where the
    /// last increment left them.
    pub(crate) s: Scratch,
    /// Snapshot of the dirty index taken at the flip; scanned one
    /// segment per yield check.
    pub(crate) remset_pending: Vec<SegIndex>,
    /// Progress through `remset_pending`.
    pub(crate) remset_cursor: usize,
    /// Segments the write barrier logged since the last increment
    /// (deduplicated via `rescan_in`).
    pub(crate) rescan: Vec<SegIndex>,
    /// Membership bitset for `rescan`, grown on demand.
    rescan_in: Vec<u64>,
    /// `(container, field offset)` of barriered stores that put a pointer
    /// younger than the target generation (something allocated since the
    /// flip) into a still-unforwarded from-space object. The store travels
    /// with the object's copy but its card mark does not, so
    /// [`settle_late_stores`] re-marks the card on the copy.
    pub(crate) late_stores: Vec<(Value, usize)>,
    /// Whether the first roots pass has run: it is the one `roots_traced`
    /// counts (serial counter parity); later passes add to
    /// `roots_retraced`.
    roots_counted: bool,
    /// Pause time from the begin (flip) that the first increment's pause
    /// sample must absorb.
    carry: Duration,
}

impl IncrementalState {
    /// Logs a segment for re-scanning by the next increment (idempotent).
    pub(crate) fn log_rescan(&mut self, seg: SegIndex) {
        let i = seg.index();
        let w = i >> 6;
        if w >= self.rescan_in.len() {
            self.rescan_in.resize(w + 1, 0);
        }
        if (self.rescan_in[w] >> (i & 63)) & 1 == 0 {
            self.rescan_in[w] |= 1 << (i & 63);
            self.rescan.push(seg);
        }
    }

    /// Whether `seg` is covered by the collector's outstanding work — it
    /// will (still) be scanned before the collection finishes. Used by
    /// the verifier's barrier-coverage check: a from-space pointer in a
    /// strong field of a non-from-space segment is only sound if the
    /// segment is covered.
    pub(crate) fn covered(&self, heap: &Heap, seg: SegIndex) -> bool {
        if self.s.queue.iter().any(|&(q, _)| q == seg)
            || self.s.parked.iter().any(|&(p, _)| p == seg)
        {
            return true;
        }
        if self.remset_pending[self.remset_cursor..].contains(&seg) {
            return true;
        }
        let i = seg.index();
        if (self.rescan_in.get(i >> 6).copied().unwrap_or(0) >> (i & 63)) & 1 == 1 {
            return true;
        }
        // Logged but not yet drained into the queue.
        heap.tospace_log
            .as_ref()
            .is_some_and(|log| log.contains(&seg))
    }
}

/// Begins an incremental collection of generations `0..=g`: the serial
/// engine's flip (phase 1), verbatim, plus a snapshot of the dirty index
/// as the increment-sliced remembered-set work list. The caller
/// ([`Heap::begin_incremental`]) stores the returned state and drives it
/// with [`step`].
pub(crate) fn begin(heap: &mut Heap, g: u8) -> Box<IncrementalState> {
    let start = Instant::now();
    let mut s = Scratch::begin(heap, g);
    // The remembered-set work list: the same dirty-index drain the serial
    // engine performs, snapshotted so increments can walk it a segment at
    // a time. Segments dirtied *after* this point belong to the next
    // collection (their flags survive), exactly as in the serial engine,
    // where the drain happens once in phase 3.
    let remset_pending = heap.segs.take_dirty();

    let flip = start.elapsed();
    s.report.phases.flip = flip;
    emit_phase(heap, GcPhase::Flip, flip);
    s.report.duration += flip;

    Box::new(IncrementalState {
        s,
        remset_pending,
        remset_cursor: 0,
        rescan: Vec::new(),
        rescan_in: Vec::new(),
        late_stores: Vec::new(),
        roots_counted: false,
        carry: flip,
    })
}

/// Runs one increment. Returns `true` when the collection completed (the
/// report in `st.s.report` is final); `false` when it yielded with work
/// remaining. The state is *out* of the heap while this runs, so the
/// collector's own barriered stores (the guardian pass's tconc appends)
/// do not log re-scans and the tconc trace correctly attributes them to
/// the collector.
pub(crate) fn step(heap: &mut Heap, st: &mut IncrementalState) -> bool {
    let start = Instant::now();
    let deadline = start + heap.config.pause_budget.unwrap_or(Duration::ZERO);
    let mut mark = start;
    let mut finished = false;

    // Roots are re-forwarded at every increment: the mutator may have
    // stored stale (since-forwarded) or from-space pointers into root
    // slots. Every such store reset the slot's stamp to 0, so the pass
    // finds it; a slot it has already forwarded is stamped with the target
    // generation and is skipped when that is above `g` (when it is not, the
    // pass revisits it, and forwarding it again is a no-op).
    let traced = forward_roots(heap, &mut st.s);
    if st.roots_counted {
        st.s.report.roots_retraced += traced;
    } else {
        st.s.report.roots_traced = traced;
        st.roots_counted = true;
    }
    lap(heap, &mut st.s, &mut mark, GcPhase::Roots);

    // Drain the write-barrier log: segments mutated since the last
    // increment to hold from-space pointers. New copies land in the
    // to-space log and are picked up by the sweep below.
    if !st.rescan.is_empty() {
        let segs = std::mem::take(&mut st.rescan);
        for w in st.rescan_in.iter_mut() {
            *w = 0;
        }
        for seg in segs {
            remset::rescan_segment(heap, &mut st.s, seg);
        }
        lap(heap, &mut st.s, &mut mark, GcPhase::Remset);
    }

    // Remembered set, one segment per yield check.
    let mut yielded = false;
    if st.remset_cursor < st.remset_pending.len() {
        while st.remset_cursor < st.remset_pending.len() {
            let seg = st.remset_pending[st.remset_cursor];
            st.remset_cursor += 1;
            remset::scan_dirty_seg(heap, &mut st.s, seg);
            if Instant::now() >= deadline {
                yielded = true;
                break;
            }
        }
        lap(heap, &mut st.s, &mut mark, GcPhase::Remset);
    }

    // Kleene sweep, one unit per yield check. Reaching the unit fixpoint
    // here is reaching the *global* fixpoint: no mutator ran since the
    // re-scan drain above, the remembered set is exhausted, and roots
    // are forwarded.
    if !yielded {
        loop {
            if !sweep_unit(heap, &mut st.s) {
                finished = true;
                break;
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        lap(heap, &mut st.s, &mut mark, GcPhase::Sweep);
    }

    if !finished {
        settle_late_stores(heap, &mut st.late_stores);
    } else {
        // The terminal increment: guardian, finalizer, weak, and reclaim
        // run unbounded — the guardian-atomicity pause floor (see the
        // module docs). Late stores settle after the guardian pass (it may
        // resurrect a logged container), before the from-space words
        // holding the forwarding marks go.
        let late = &mut st.late_stores;
        finish(heap, &mut st.s, &mut mark, |heap| {
            settle_late_stores(heap, late)
        });
    }

    st.s.report.increments += 1;
    let pause = start.elapsed();
    st.s.report.duration += pause;
    heap.record_pause(pause + st.carry);
    st.carry = Duration::ZERO;

    if finished {
        emit_end(heap, &st.s);
    }
    finished
}

/// Re-marks the card of every logged late store whose container has been
/// copied by now, so no suspended state (and no finished collection) has
/// an old→young pointer in a to-space copy without a card. Entries whose
/// container is still unforwarded stay logged; at the terminal increment
/// those containers are dead.
fn settle_late_stores(heap: &mut Heap, late_stores: &mut Vec<(Value, usize)>) {
    late_stores.retain(|&(container, offset)| {
        let Some(new) = fwd::decode(heap.segs.word(container.addr())) else {
            return true;
        };
        heap.segs.mark_card(new.add(offset));
        false
    });
}
