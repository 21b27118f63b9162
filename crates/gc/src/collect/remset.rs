//! The remembered set: card-granular scanning of dirty old-generation
//! runs.
//!
//! With the paper's promotion policy (collecting generation `g` collects
//! all younger generations and promotes survivors together), a pointer
//! from an older generation into a younger one can only be created by
//! *mutation*, and every mutating store passes the write barrier, which
//! sets the card holding the slot to 0 and flags its run. The segment
//! table's card table keeps three invariants between collections:
//!
//! 1. **Lower bound.** A card byte is [`CARD_CLEAN`] or at most the
//!    youngest generation any word of the card points to — so a pointer
//!    into generation `y` lies in a card whose byte is `<= y`.
//! 2. **Summary.** A run with a card that is not clean has its dirty flag
//!    set and is on the dirty index.
//! 3. **Who writes what.** The barrier only ever writes 0; only the
//!    collector raises a byte, to the exact minimum it just computed.
//!
//! A collection of generations `0..=g` therefore visits exactly the cards
//! whose byte is `<= g`: every from-space pointer lies in one, and a card
//! whose referents were all promoted beyond `g` costs nothing until their
//! generation is collected. [`walk_cards`] is the one routine that does
//! this.
//!
//! Pair and Typed segments need no object-start table: a Typed segment
//! holds only headers and fully-traced objects (untraced kinds live in
//! the pure space), so every word of a card is a header, an immediate or
//! a traced value, and a card is a flat word range.
//!
//! The dirty runs come from the segment table's *dirty index*. Index
//! entries can be stale (freed, recycled, or already-cleaned segments), so
//! each entry is re-checked against its live `dirty` flag. A run's flag is
//! cleared when its entry is drained — *before* it is scanned — so that a
//! barriered store performed later in this very collection (the guardian
//! pass appends to tconcs with ordinary barriered stores) re-flags and
//! re-indexes it; runs with a card still not clean after scanning are
//! re-flagged here.
//!
//! Weak-pair segments keep whole-segment treatment, expressed through the
//! same table as "all cards 0 / all cards clean": only cdr fields are
//! traced here, and the segment is queued for the weak pass, which
//! decides whether each car is forwarded or broken *after* the guardian
//! pass has saved what it is going to save.

use super::{forward_from, forward_span, ChunkBases, Scratch};
use crate::heap::Heap;
use crate::value::Value;
use guardians_segments::{SegIndex, Space, CARD_CLEAN, CARD_WORDS, SEGMENT_WORDS};

/// What [`walk_cards`] and [`forward_span`] need from the engine driving
/// them.
pub(crate) trait CardTracer {
    /// Whether `seg` is in the from-space.
    fn in_from(&self, seg: SegIndex) -> bool;
    /// The generation of a segment outside the from-space.
    fn generation_of(&self, seg: SegIndex) -> u8;
    /// Forwards a from-space pointer.
    fn forward(&mut self, v: Value) -> Value;
}

/// Walks the cards of one Pair/Typed run: every card whose byte is
/// `<= visit_le` has its from-space referents forwarded (into `target`)
/// and its byte rewritten with the exact youngest generation it now
/// points to ([`CARD_CLEAN`] when none is younger than `holder_gen`);
/// cards with a larger byte are left untouched. Returns the number of
/// cards visited and whether any card of the run is still not clean.
///
/// `cards` is the run's card bytes, `bases` one word-storage base per
/// segment of the run, `used` the run's used words.
///
/// # Safety
///
/// Every `bases[i]` must point to `SEGMENT_WORDS` valid words, `used`
/// must not exceed `bases.len() * SEGMENT_WORDS`, and for the duration of
/// the call nothing else — including `t.forward` — may read or write the
/// words `[0, used)` of the run.
pub(crate) unsafe fn walk_cards(
    t: &mut impl CardTracer,
    bases: &[*mut u64],
    cards: &mut [u8],
    used: usize,
    holder_gen: u8,
    visit_le: u8,
    target: u8,
) -> (u64, bool) {
    let (mut visited, mut still_dirty) = (0, false);
    for (ci, card) in cards[..used.div_ceil(CARD_WORDS)].iter_mut().enumerate() {
        if *card > visit_le {
            still_dirty |= *card != CARD_CLEAN;
            continue;
        }
        visited += 1;
        let lo = ci * CARD_WORDS;
        let n = CARD_WORDS.min(used - lo);
        // SAFETY: `lo < used`, so the chunk base exists and the card's `n`
        // words lie inside it (cards never straddle segments).
        let first = unsafe { bases[lo / SEGMENT_WORDS].add(lo % SEGMENT_WORDS) };
        let mut youngest = CARD_CLEAN;
        for i in 0..n {
            // SAFETY: as above; the caller guarantees exclusive access.
            let slot = unsafe { first.add(i) };
            let v = Value(unsafe { slot.read() });
            if !v.is_ptr() {
                continue;
            }
            let seg = v.addr().seg();
            let gen = if t.in_from(seg) {
                // SAFETY: as above.
                unsafe { slot.write(t.forward(v).raw()) };
                target
            } else {
                t.generation_of(seg)
            };
            youngest = youngest.min(gen);
        }
        *card = if youngest < holder_gen {
            youngest
        } else {
            CARD_CLEAN
        };
        still_dirty |= *card != CARD_CLEAN;
    }
    (visited, still_dirty)
}

/// The collector's [`CardTracer`]; the other implementor is the unit-test
/// mock below, which lets [`walk_cards`] run over plain arrays (under miri).
pub(super) struct HeapTracer<'a> {
    pub heap: &'a mut Heap,
    pub s: &'a mut Scratch,
}

impl CardTracer for HeapTracer<'_> {
    fn in_from(&self, seg: SegIndex) -> bool {
        self.s.from_space.contains(seg)
    }
    fn generation_of(&self, seg: SegIndex) -> u8 {
        self.heap.segs.info(seg).generation
    }
    fn forward(&mut self, v: Value) -> Value {
        forward_from(self.heap, self.s, v)
    }
}

/// Runs [`walk_cards`] over the Pair/Typed run headed by `seg`, writes the
/// refreshed bytes back and re-flags the run if a card is still not clean.
/// Returns the number of cards visited.
fn walk_run(heap: &mut Heap, s: &mut Scratch, seg: SegIndex, visit_le: u8) -> u64 {
    let info = heap.segs.info(seg);
    let (gen, used) = (info.generation, info.used as usize);
    let bases = ChunkBases::of(&heap.segs, seg);
    let mut cards = std::mem::take(&mut s.cards);
    cards.clear();
    cards.extend_from_slice(heap.segs.run_cards(seg));
    let target = s.target;
    // SAFETY: the bases are the run's own segments and `used` its
    // watermark. `forward_from` reads and writes only from-space objects
    // and to-space words it has just allocated — beyond `used` even when
    // this run is itself an open to-space segment being re-scanned — and
    // reaches them through raw segment pointers, never through a
    // reference into this run's word arrays.
    let (visited, still_dirty) = unsafe {
        let mut t = HeapTracer { heap, s };
        walk_cards(&mut t, &bases, &mut cards, used, gen, visit_le, target)
    };
    heap.segs.run_cards_mut(seg).copy_from_slice(&cards);
    s.cards = cards;
    if still_dirty {
        heap.segs.flag_dirty(seg);
    }
    visited
}

/// Scans one entry of the flip's dirty snapshot — the remembered-set work
/// unit [`super::advance`] schedules between yield checks: applies the skip
/// rules, clears the run's flag (before the scan, see the module docs) and
/// walks what is left.
pub(crate) fn scan_dirty_seg(heap: &mut Heap, s: &mut Scratch, seg: SegIndex) {
    let segs = &mut heap.segs;
    // Stale entries: freed (possibly recycled) or already cleaned.
    let Some(&info) = segs.try_info(seg) else {
        return;
    };
    if !info.dirty || !info.is_head() {
        return;
    }
    if info.generation <= s.g {
        // From-space: about to be traced (and freed) wholesale; its flag
        // and cards die with the segment.
        return;
    }
    segs.clear_dirty(seg);
    match info.space {
        Space::Pair | Space::Typed => {
            // One pass over the row: the youngest generation any card of
            // the run may point to ([`CARD_CLEAN`] is the largest byte).
            let youngest = segs
                .run_cards(seg)
                .iter()
                .fold(CARD_CLEAN, |y, &c| y.min(c));
            if youngest > s.g {
                // Nothing here can point into the from-space; the run
                // stays remembered for its cards' own generations.
                if youngest != CARD_CLEAN {
                    segs.flag_dirty(seg);
                }
                return;
            }
            s.report.dirty_segments_scanned += 1;
            s.report.dirty_cards_scanned += walk_run(heap, s, seg, s.g);
        }
        Space::WeakPair => {
            // Whole-segment treatment: trace the cdrs now; the weak pass
            // settles the cars and re-marks what is still dirty.
            segs.run_cards_mut(seg).fill(CARD_CLEAN);
            s.report.dirty_segments_scanned += 1;
            scan_weak_cdrs(heap, s, seg);
            s.old_weak_dirty.push(seg);
        }
        // No pointers: a pure segment cannot hold old->young edges; the
        // mark was spurious.
        Space::Pure => segs.run_cards_mut(seg).fill(CARD_CLEAN),
    }
}

/// Re-scans a segment the write barrier logged between increments: a
/// mutator store landed a from-space pointer in a region the collector may
/// have already scanned. Unlike [`scan_dirty_seg`] this applies to *any*
/// non-from-space generation (including to-space and generation 0),
/// visits every card (refreshing its byte), and does not touch the
/// remembered-set counters — the barrier log is a collection-internal
/// work list, not a remembered set.
pub(crate) fn rescan_segment(heap: &mut Heap, s: &mut Scratch, seg: SegIndex) {
    let Some(info) = heap.segs.try_info(seg) else {
        return;
    };
    if !info.is_head() || s.from_space.contains(seg) {
        // From-space containers need no re-scan: an unforwarded object's
        // stores travel with the wholesale copy if it is ever forwarded.
        return;
    }
    match info.space {
        Space::Pair | Space::Typed => {
            walk_run(heap, s, seg, u8::MAX);
        }
        Space::WeakPair => {
            scan_weak_cdrs(heap, s, seg);
            // The weak pass settles the cars; queue the segment unless it
            // is already queued as to-space or old-dirty.
            if !s.weak_tospace.contains(&seg) && !s.old_weak_dirty.contains(&seg) {
                s.old_weak_dirty.push(seg);
            }
        }
        Space::Pure => {}
    }
}

/// Forwards the cdr fields of a dirty old weak-pair segment. The cars are
/// weak and untouched here; the weak pass settles them (and the dirty
/// flag) after the guardian pass.
fn scan_weak_cdrs(heap: &mut Heap, s: &mut Scratch, seg: SegIndex) {
    let used = heap.segs.info(seg).used as usize;
    let base = [heap.segs.base_ptr(seg)];
    let mut t = HeapTracer { heap, s };
    // SAFETY: the segment's own base and watermark; the `walk_run` contract.
    unsafe { forward_span(&mut t, Space::WeakPair, &base, 0..used) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Header, ObjKind};
    use guardians_segments::{WordAddr, CARDS_PER_SEGMENT};

    /// Segment 1 is the from-space; everything else has generation
    /// `gens[seg]`. Forwarding moves a pair to the same offset of segment 9.
    struct Mock {
        gens: [u8; 10],
        forwarded: Vec<usize>,
    }

    impl CardTracer for Mock {
        fn in_from(&self, seg: SegIndex) -> bool {
            seg == SegIndex(1)
        }
        fn generation_of(&self, seg: SegIndex) -> u8 {
            self.gens[seg.index()]
        }
        fn forward(&mut self, v: Value) -> Value {
            self.forwarded.push(v.addr().offset());
            Value::pair_at(WordAddr::new(SegIndex(9), v.addr().offset()))
        }
    }

    fn pair_in(seg: u32, offset: usize) -> u64 {
        Value::pair_at(WordAddr::new(SegIndex(seg), offset)).raw()
    }

    #[test]
    fn walk_visits_only_due_cards_and_writes_exact_minima() {
        // A two-segment generation-3 run, 519 words used: 65 cards, the
        // last of them (in the second segment) holding 7 words.
        let (mut a, mut b) = ([0u64; SEGMENT_WORDS], [0u64; SEGMENT_WORDS]);
        a[3] = pair_in(1, 30); // card 0: from-space (→ target 2) ...
        a[5] = pair_in(4, 0); //  ... and generation 1: minimum 1
        a[8] = pair_in(1, 10); // card 1: reads 2, so not a gen-0 collection's
        a[16] = pair_in(5, 0); // card 2: generation 3 = holder: clean
        a[24] = Header::new(ObjKind::Vector, 9).encode(); // card 3: no pointers
        b[6] = pair_in(1, 20); // card 64, the last used word
        b[7] = pair_in(1, 40); // same card, past `used`: never read
        let mut cards = vec![CARD_CLEAN; 2 * CARDS_PER_SEGMENT];
        (cards[0], cards[1], cards[2], cards[3], cards[64]) = (0, 2, 0, 0, 0);
        let mut t = Mock {
            gens: [0, 0, 0, 0, 1, 3, 0, 0, 0, 2],
            forwarded: Vec::new(),
        };
        let bases = [a.as_mut_ptr(), b.as_mut_ptr()];
        // SAFETY: both arrays are SEGMENT_WORDS long and nothing else
        // touches them during the walk.
        let walk = unsafe { walk_cards(&mut t, &bases, &mut cards, 519, 3, 0, 2) };
        assert_eq!(walk, (4, true));
        assert_eq!(
            t.forwarded,
            [30, 20],
            "word order; card 1 and b[7] untouched"
        );
        assert_eq!(cards[..4], [1, 2, CARD_CLEAN, CARD_CLEAN]);
        assert_eq!(cards[64], 2);
        assert_eq!(a[3], pair_in(9, 30));
        assert_eq!(
            (a[8], b[6], b[7]),
            (pair_in(1, 10), pair_in(9, 20), pair_in(1, 40))
        );
        // With `visit_le` 2 and target 3 (the holder's own generation) the
        // rest are visited too: card 1's from-space referent is forwarded
        // and the card comes out clean; referents outside the from-space
        // keep their generations.
        let walk = unsafe { walk_cards(&mut t, &bases, &mut cards, 519, 3, 2, 3) };
        assert_eq!(walk, (3, true));
        assert_eq!(cards[..2], [1, CARD_CLEAN]);
        assert_eq!(cards[64], 2);
        // `u8::MAX` (the re-scan) visits every card, clean ones included.
        let walk = unsafe { walk_cards(&mut t, &bases, &mut cards, 519, 3, u8::MAX, 3) };
        assert_eq!(walk.0, 65);
    }
}
