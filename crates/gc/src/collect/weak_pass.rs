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
//! The pass visits (a) every weak-pair segment copied into the target
//! generation this collection and (b) every *dirty* old-generation
//! weak-pair segment found by the remembered-set scan — never clean old
//! segments, preserving generation-friendliness for weak pairs too.
//!
//! **Coverage rule.** A to-space weak segment is fixed by the first pass
//! that runs after it was logged, and only by that one. That is sound only
//! if nothing is copied into a segment after its pass, so the pass first
//! *closes* every place a weak pair can still be copied to — the target
//! generation's weak cursor and the workers' weak regions. A weak pair
//! copied later (the ablation's guardian pass, between its two weak
//! passes) opens a fresh segment, which is logged and fixed by the next
//! pass.

use super::{parallel, Scratch};
use crate::heap::Heap;
use crate::trace::GcEvent;
use crate::value::{fwd, Value};
use guardians_segments::{SegIndex, SegmentTable, Space};

pub(crate) fn run(heap: &mut Heap, s: &mut Scratch) {
    heap.close_cursor(Space::WeakPair, s.target);
    parallel::close_regions(heap, s, Some(Space::WeakPair));
    let scanned_before = s.report.weak_pairs_scanned;
    let broken_before = s.report.weak_cars_broken;
    let forwarded_before = s.report.weak_cars_forwarded;
    let to_space: Vec<SegIndex> = s.weak_tospace.drain(..).collect();
    for seg in to_space {
        fix_segment(heap, s, seg);
    }
    let old_dirty: Vec<SegIndex> = s.old_weak_dirty.drain(..).collect();
    for seg in old_dirty {
        // The remembered-set drain cleared the flag and every card;
        // re-mark (whole, and re-index) only segments that still hold
        // old→young pointers.
        if fix_segment(heap, s, seg) {
            heap.segs.mark_dirty(seg);
        }
    }
    // Per-run deltas: the ablation mode runs this pass twice and the two
    // events must sum to the report's counters.
    heap.trace_emit(|| GcEvent::WeakSweep {
        scanned: s.report.weak_pairs_scanned - scanned_before,
        broken: s.report.weak_cars_broken - broken_before,
        forwarded: s.report.weak_cars_forwarded - forwarded_before,
    });
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
        if car.is_ptr() && s.in_from(car.addr().seg()) {
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
