//! The weak-pair second pass (paper Section 4, final paragraph):
//!
//! > "A second pass through the weak-pair space is made after garbage
//! > collection; during this second pass, if the object pointed to by the
//! > car field of a weak pair has been forwarded, the new address is
//! > placed in the car field of the weak pair. Otherwise, #f is placed in
//! > the car field. The second pass through the weak-pair space occurs
//! > after the garbage collector has handled the protected lists
//! > (including the forwarding which is done there), so if the car field
//! > of a weak pair points to an object that has been salvaged, the
//! > object will still be in the car field after collection."
//!
//! The pass visits one list, [`Scratch::weak`]: every weak-pair segment
//! allocated during this collection (the collector's copies and, between
//! increments, the mutator's fresh ones), every *dirty* old-generation
//! weak-pair segment found by the remembered-set scan, and every one whose
//! car the store log names — never clean old segments, preserving
//! generation-friendliness for weak pairs too. One rule for all of them:
//! fix the segment, then re-mark it whole if it still points younger. The
//! remembered-set drain cleared an old segment's flag and cards; a copy's
//! are clean. Stop-the-world a to-space segment never points younger —
//! everything younger than the target was in the from-space — but a car
//! stored while the collection was suspended may hold an object allocated
//! after the flip, which the re-mark remembers.
//!
//! **Coverage.** The pass runs once, last: every copy this collection
//! makes — the guardian pass's included — has been made and swept, every
//! to-space weak segment was listed when it was allocated, and nothing is
//! copied afterwards, so a segment fixed here stays fixed.
//!
//! # Weak root slots
//!
//! The same rule, applied to the root table's weak slab ([`settle_slots`]),
//! comes first: the typed layer's `Weak<T>` is a weak slot, not a heap pair,
//! so it costs no words to allocate, copy or scan. The slot's generation
//! stamp plays the remembered set's part: only slots stamped at most the
//! collected generation are visited.

use super::{settle, Scratch};
use crate::heap::Heap;
use crate::roots::ROOT_CLEAN;
use crate::value::{fwd, Value};
use guardians_segments::{SegIndex, SegmentTable};

/// The weak-slot pass: every weak root slot stamped `<= g` is
/// [`settle`]d. A survivor — reachable, or saved by the guardian pass that
/// has just run — has its current address written back and is stamped
/// with the generation it ends the collection in (an immediate is stamped
/// [`ROOT_CLEAN`]). An unforwarded from-space referent is dead after the
/// guardian fixpoint: the slot breaks to `#f`, stamped [`ROOT_CLEAN`].
pub(crate) fn settle_slots(heap: &Heap, s: &mut Scratch) {
    let mut broken = 0;
    s.report.weak_roots_traced =
        heap.roots
            .trace_weak(s.g, |slot| match settle(heap, s.target, *slot) {
                Some((v, gen)) => {
                    *slot = v;
                    gen
                }
                None => {
                    *slot = Value::FALSE;
                    broken += 1;
                    ROOT_CLEAN
                }
            });
    s.report.weak_roots_broken = broken;
}

/// The weak-pair pass: fixes the weak cars of every segment on the weak
/// list, and re-marks one that still points younger.
pub(crate) fn run(heap: &mut Heap, s: &mut Scratch) {
    for seg in std::mem::take(&mut s.weak) {
        if fix_segment(heap, s, seg) {
            heap.segs.mark_dirty(seg);
        }
    }
}

/// Fixes every weak car in a segment; returns whether the segment still
/// holds a pointer (car or cdr) into a younger generation.
fn fix_segment(heap: &mut Heap, s: &mut Scratch, seg: SegIndex) -> bool {
    let base = heap.segs.base_addr(seg);
    let gen = heap.segs.info(seg).generation;
    let used = heap.segs.info(seg).used as usize;
    let mut still_dirty = false;
    let mut off = 0;
    while off < used {
        s.report.weak_pairs_scanned += 1;
        let car_addr = base.add(off);
        let car = Value(heap.segs.word(car_addr));
        if car.is_ptr() && heap.segs.in_from_space(car.addr().seg()) {
            match fwd::decode(heap.segs.word(car.addr())) {
                Some(new) => {
                    // Referent survived (root-reachable or salvaged by a
                    // guardian): update the weak pointer.
                    heap.segs.set_word(car_addr, car.retag_at(new).raw());
                    s.report.weak_cars_forwarded += 1;
                }
                None => {
                    // Referent is garbage: break the weak pointer.
                    heap.segs.set_word(car_addr, Value::FALSE.raw());
                    s.report.weak_cars_broken += 1;
                }
            }
        }
        let (car, cdr) = (heap.segs.word(car_addr), heap.segs.word(base.add(off + 1)));
        still_dirty |= points_younger(&heap.segs, Value(car), gen);
        still_dirty |= points_younger(&heap.segs, Value(cdr), gen);
        off += 2;
    }
    still_dirty
}

pub(crate) fn points_younger(segs: &SegmentTable, v: Value, holder_gen: u8) -> bool {
    v.is_ptr() && segs.info(v.addr().seg()).generation < holder_gen
}
