//! The remembered set: card-granular scanning of dirty old-generation
//! runs.
//!
//! With the paper's promotion policy (collecting generation `g` collects
//! all younger generations and promotes survivors together), a pointer
//! from an older generation into a younger one can only be created by
//! *mutation* — the mutator's stores, which pass the write barrier, and the
//! guardian pass's tconc appends, which stamp their own cards. The segment
//! table's card table keeps three invariants between collections:
//!
//! 1. **Lower bound.** A card byte is [`CARD_CLEAN`] or at most the
//!    youngest generation any word of the card points to — so a pointer
//!    into generation `y` lies in a card whose byte is `<= y`.
//! 2. **Summary.** A run with a card that is not clean has its dirty flag
//!    set and is on the dirty index.
//! 3. **Who writes what.** The mutator barrier (`mark_card`) only ever
//!    writes 0 and looks nothing up. Only the collector raises a byte, to
//!    the exact minimum the card walk just computed; its own stores lower a
//!    byte to the stored referent's exact generation
//!    (`SegmentTable::note_collector_store`), and only when that is younger
//!    than the holder's.
//!
//! A collection of generations `0..=g` therefore visits exactly the cards
//! whose byte is `<= g`: every from-space pointer lies in one, and a card
//! whose referents were all promoted beyond `g` costs nothing until their
//! generation is collected.
//!
//! The walk is two loops per segment-sized window of a run: [`gather`]
//! finds the due cards, looks their words up in the segment table's
//! whereabouts table (one byte per segment index: its generation,
//! "from-space" or "not allocated"), settles the card bytes and lists the
//! from-space slots; [`walk_run`] then forwards those in word order
//! (DESIGN §3 and EXPERIMENTS E29 have the why).
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
//! store performed later in this very collection (the guardian pass's
//! stamped tconc appends) re-flags and re-indexes it; runs with a card
//! still not clean after scanning are re-flagged here.
//!
//! Weak-pair segments keep whole-segment treatment, expressed through the
//! same table as "all cards 0 / all cards clean": only cdr fields are
//! traced here, and the segment is queued for the weak pass, which
//! decides whether each car is forwarded or broken *after* the guardian
//! pass has saved what it is going to save.
//!
//! The walk covers the dirty snapshot the flip drained, and nothing else.
//! Stores the mutator makes while the collection is suspended are the
//! store log's (`collect::settle_stores`): it forwards each logged slot and
//! stamps its card like any other collector store, so no run is walked
//! twice, and a generation-0 slot, whose card is never marked, is covered
//! the same way as an old one.

use super::{forward_from, forward_span, Scratch};
use crate::heap::Heap;
use crate::value::{Value, TAG_BITS};
use guardians_segments::{
    SegIndex, Space, WordAddr, CARDS_PER_SEGMENT, CARD_CLEAN, CARD_WORDS, SEGMENT_WORDS,
    WHERE_FROM, WHERE_NONE,
};
use std::hint::select_unpredictable as select;

/// Cards whose bytes [`gather`] tests at a time: one `u64` of the row.
const GROUP: usize = 8;

/// Bit 0 of byte `i` of the result is set exactly when byte `i` of `x` is
/// `<= n`. Even and odd bytes are widened into 16-bit lanes, where
/// `n + 256 - byte` has bit 8 set exactly when `byte <= n` and, being
/// positive, never borrows from the next lane.
#[inline]
fn bytes_le(x: u64, n: u8) -> u64 {
    const LANES: u64 = 0x0001_0001_0001_0001;
    let k = (u64::from(n) + 0x100) * LANES;
    let even = (k - (x & (0xFF * LANES))) & (0x100 * LANES);
    let odd = (k - ((x >> 8) & (0xFF * LANES))) & (0x100 * LANES);
    (even >> 8) | odd
}

/// The three generations a card walk turns on.
#[derive(Copy, Clone)]
pub(crate) struct WalkGens {
    /// The generation of the run being walked.
    pub holder: u8,
    /// Cards whose byte is `<=` this are due.
    pub visit_le: u8,
    /// The generation from-space referents are being copied into.
    pub target: u8,
}

/// What [`gather`] did: due cards visited, a card still not clean, slots listed.
#[derive(Default)]
pub(crate) struct Gathered {
    pub visited: u64,
    pub still_dirty: bool,
    pub slots: usize,
}

/// The card walk's first half, over one window — one segment — of a
/// Pair/Typed run: `row` is the segment's card bytes, `base` its word
/// storage, `words` how many of its words are in use. Every card whose byte
/// is `<= gens.visit_le` is *due*. A due card's byte is rewritten with the
/// exact youngest generation it points to once its from-space referents are
/// in `gens.target` ([`CARD_CLEAN`] when none is younger than
/// `gens.holder`), and the offsets of its words that point into the
/// from-space are appended to `slots`, in word order, for the caller to
/// forward. Other cards are left untouched. The bytes are final although
/// nothing has been copied: a from-space referent ends the collection in
/// the target generation wherever its copy lands.
///
/// A pure function of its arguments with no data-dependent branch (E29 has
/// what the mispredictions cost): due cards are found [`GROUP`] bytes at a
/// time, and per word the segment index is clamped into `whereabouts`, the
/// segment table's byte per index, and every choice is a [`select`].
///
/// # Panics
///
/// Panics with "segment not allocated" if a due card holds a pointer whose
/// segment is free or beyond the table.
///
/// # Safety
///
/// `base` must point to `SEGMENT_WORDS` valid words that nothing writes
/// during the call, and `words` must be at most `SEGMENT_WORDS`.
pub(crate) unsafe fn gather(
    whereabouts: &[u8],
    base: *const u64,
    row: &mut [u8; CARDS_PER_SEGMENT],
    words: usize,
    gens: WalkGens,
    slots: &mut [u16; SEGMENT_WORDS],
) -> Gathered {
    assert!(!whereabouts.is_empty(), "a run in an empty segment table");
    let last_seg = whereabouts.len() - 1;
    let n_cards = words.div_ceil(CARD_WORDS);
    let mut out = Gathered::default();
    for (group, bytes) in row.chunks_exact_mut(GROUP).enumerate() {
        let first_card = group * GROUP;
        if first_card >= n_cards {
            break;
        }
        let row_word = u64::from_le_bytes((&*bytes).try_into().expect("a whole group"));
        // The bytes of the cards of the group that lie below `used`.
        let in_use = u64::MAX >> (64 - 8 * GROUP.min(n_cards - first_card));
        let mut due = bytes_le(row_word, gens.visit_le) & in_use;
        let marked = bytes_le(row_word, CARD_CLEAN - 1) & in_use;
        out.still_dirty |= marked & !due != 0;
        while due != 0 {
            let card = due.trailing_zeros() as usize / 8;
            due &= due - 1;
            out.visited += 1;
            let lo = (first_card + card) * CARD_WORDS;
            // The youngest byte a pointer of the card reads (`WHERE_FROM`
            // is above every generation), and whether one read `WHERE_NONE`.
            let (mut youngest, mut unallocated) = (CARD_CLEAN, false);
            let slots_before = out.slots;
            for off in lo..words.min(lo + CARD_WORDS) {
                // SAFETY: `off < words <= SEGMENT_WORDS`, inside the
                // window's storage, which the caller keeps unwritten.
                let raw = unsafe { base.add(off).read() };
                let is_ptr = Value(raw).is_ptr();
                // Meaningless unless `is_ptr`; clamped, so always loadable.
                let seg = WordAddr(raw >> TAG_BITS).seg().index();
                let byte = select(is_ptr, whereabouts[seg.min(last_seg)], CARD_CLEAN);
                unallocated |= is_ptr & ((seg > last_seg) | (byte == WHERE_NONE));
                youngest = youngest.min(byte);
                slots[out.slots] = off as u16;
                out.slots += usize::from(byte == WHERE_FROM);
            }
            assert!(!unallocated, "segment not allocated");
            // From-space referents settle in the target generation.
            let settled = select(out.slots > slots_before, gens.target, CARD_CLEAN);
            let youngest = youngest.min(settled);
            let byte = select(youngest < gens.holder, youngest, CARD_CLEAN);
            bytes[card] = byte;
            out.still_dirty |= byte != CARD_CLEAN;
        }
    }
    out
}

/// Walks the cards of the Pair/Typed run headed by `seg` that are due in a
/// collection of generations `0..=s.g`, one segment at a time (so the
/// tables may grow in between): [`gather`] refreshes its due cards in place
/// and lists its from-space slots, then those are forwarded in word order —
/// a per-word walk's copy order, so the to-space layout is the same.
/// Re-flags the run if a card is still not clean; returns the number of
/// cards visited.
///
/// # The access contract of every in-place scan
///
/// A scan holds a run's bases and its `used` watermark and touches the
/// words below it through those raw pointers. [`forward_from`], called in
/// between, reads and writes only from-space objects and to-space words it
/// has just allocated — beyond `used` even when the run being scanned is
/// itself an open to-space segment — through raw segment pointers, never
/// through a reference into a run's word arrays.
///
/// Here (and in [`scan_weak_cdrs`]) `used` is `SegInfo::used`, which for a
/// segment under a to-space window is the watermark of the last phase
/// boundary (see `collect::Window`): it covers every object the mutator
/// could have stored into, and whatever was copied into the segment since
/// lies beyond it and is the sweep's.
fn walk_run(heap: &mut Heap, s: &mut Scratch, seg: SegIndex) -> u64 {
    let info = heap.segs.info(seg);
    let used = info.used as usize;
    let gens = WalkGens {
        holder: info.generation,
        visit_le: s.g,
        target: s.target,
    };
    let mut slots = [0u16; SEGMENT_WORDS];
    let (mut visited, mut still_dirty) = (0, false);
    for (w, lo) in (0..used).step_by(SEGMENT_WORDS).enumerate() {
        let window = SegIndex(seg.0 + w as u32);
        let base = heap.segs.base_ptr(window);
        // Borrowed per window: forwarding may grow both tables.
        let (row, whereabouts) = heap.segs.card_row_and_whereabouts(window);
        let words = (used - lo).min(SEGMENT_WORDS);
        // SAFETY: the run's own segment and its share of the watermark.
        let found = unsafe { gather(whereabouts, base, row, words, gens, &mut slots) };
        visited += found.visited;
        still_dirty |= found.still_dirty;
        for &off in &slots[..found.slots] {
            // SAFETY: a gathered offset is a word of that segment below the
            // watermark; the contract above. (Both blocks: unverified under
            // miri here; CI runs it.)
            unsafe {
                let slot = base.add(off as usize);
                slot.write(forward_from(heap, s, Value(slot.read())).raw());
            }
        }
    }
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
            // A run with nothing due stays remembered for its cards' own
            // generations (the walk re-flags it) and is not counted.
            let visited = walk_run(heap, s, seg);
            s.report.dirty_segments_scanned += u64::from(visited > 0);
            s.report.dirty_cards_scanned += visited;
        }
        Space::WeakPair => {
            // Whole-segment treatment: trace the cdrs now; the weak pass
            // settles the cars and re-marks what is still dirty.
            segs.run_cards_mut(seg).fill(CARD_CLEAN);
            s.report.dirty_segments_scanned += 1;
            scan_weak_cdrs(heap, s, seg);
            s.weak.push(seg);
        }
        // No pointers: a pure segment cannot hold old->young edges; the
        // mark was spurious.
        Space::Pure => segs.run_cards_mut(seg).fill(CARD_CLEAN),
    }
}

/// Forwards the cdr fields of a dirty old weak-pair segment. The cars are
/// weak and untouched here; the weak pass settles them (and the dirty
/// flag) after the guardian pass.
fn scan_weak_cdrs(heap: &mut Heap, s: &mut Scratch, seg: SegIndex) {
    let used = heap.segs.info(seg).used as usize;
    let base = [heap.segs.base_ptr(seg)];
    // SAFETY: the segment's own base and watermark; the `walk_run` contract.
    unsafe { forward_span(heap, s, Space::WeakPair, &base, 0..used) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Header, ObjKind};
    use crate::value::FIXNUM_MAX;
    use proptest::prelude::*;

    /// The from-space of these tests is segment 1, and the to-space segment
    /// the stand-in forwarding moves a pair into (same offset) is 9.
    const TO: u32 = 9;

    fn pair_in(seg: u32, offset: usize) -> u64 {
        Value::pair_at(WordAddr::new(SegIndex(seg), offset)).raw()
    }

    /// A whereabouts table: segment 1 from-space, `gens` elsewhere.
    fn table(gens: [u8; 10]) -> [u8; 10] {
        let mut table = gens;
        table[1] = WHERE_FROM;
        table
    }

    /// What a walk did: cards visited, whether one is still not clean, and
    /// the run offsets of the slots forwarded, in order.
    type Walked = (u64, bool, Vec<usize>);

    /// The card walk over plain arrays: [`gather`] on every window of the
    /// run, each followed by its forwarding, as [`walk_run`] does.
    fn walk(
        whereabouts: &[u8],
        run: &mut [[u64; SEGMENT_WORDS]],
        cards: &mut [u8],
        used: usize,
        gens: WalkGens,
    ) -> Walked {
        let mut slots = [0u16; SEGMENT_WORDS];
        let (mut visited, mut still_dirty, mut forwarded) = (0, false, Vec::new());
        let windows = used.div_ceil(SEGMENT_WORDS);
        for (w, chunk) in run.iter_mut().enumerate().take(windows) {
            let row = &mut cards[w * CARDS_PER_SEGMENT..][..CARDS_PER_SEGMENT];
            let row = row.try_into().expect("a whole row");
            let words = (used - w * SEGMENT_WORDS).min(SEGMENT_WORDS);
            // SAFETY: the base is a whole array nothing else touches.
            let found =
                unsafe { gather(whereabouts, chunk.as_ptr(), row, words, gens, &mut slots) };
            visited += found.visited;
            still_dirty |= found.still_dirty;
            for &off in &slots[..found.slots] {
                let word = &mut chunk[off as usize];
                let from = Value(*word).addr();
                assert_eq!(
                    from.seg(),
                    SegIndex(1),
                    "gathered a slot not in the from-space"
                );
                *word = pair_in(TO, from.offset());
                forwarded.push(w * SEGMENT_WORDS + off as usize);
            }
        }
        (visited, still_dirty, forwarded)
    }

    /// The per-word card walk [`gather`] replaced, as it stood: the
    /// reference of the differential test below. The three closures are the
    /// collector's from-space test, generation lookup and forwarding.
    #[allow(clippy::too_many_arguments)]
    fn walk_per_word(
        in_from: impl Fn(SegIndex) -> bool,
        generation_of: impl Fn(SegIndex) -> u8,
        mut forward: impl FnMut(usize, Value) -> Value,
        run: &mut [[u64; SEGMENT_WORDS]],
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
            let mut youngest = CARD_CLEAN;
            for i in lo..lo + n {
                let slot = &mut run[i / SEGMENT_WORDS][i % SEGMENT_WORDS];
                let v = Value(*slot);
                if !v.is_ptr() {
                    continue;
                }
                let seg = v.addr().seg();
                let gen = if in_from(seg) {
                    *slot = forward(i, v).raw();
                    target
                } else {
                    generation_of(seg)
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

    #[test]
    fn walk_visits_only_due_cards_and_writes_exact_minima() {
        // A two-segment generation-3 run, 519 words used: 65 cards, the
        // last of them (in the second segment) holding 7 words.
        let mut run = [[0u64; SEGMENT_WORDS]; 2];
        let [a, b] = &mut run;
        a[3] = pair_in(1, 30); // card 0: from-space (→ target 2) ...
        a[5] = pair_in(4, 0); //  ... and generation 1: minimum 1
        a[8] = pair_in(1, 10); // card 1: reads 2, so not a gen-0 collection's
        a[16] = pair_in(5, 0); // card 2: generation 3 = holder: clean
        a[24] = Header::new(ObjKind::Vector, 9).encode(); // card 3: no pointers
        b[6] = pair_in(1, 20); // card 64, the last used word
        b[7] = pair_in(1, 40); // same card, past `used`: never read
        let mut cards = vec![CARD_CLEAN; 2 * CARDS_PER_SEGMENT];
        (cards[0], cards[1], cards[2], cards[3], cards[64]) = (0, 2, 0, 0, 0);
        let whereabouts = table([0, 0, 0, 0, 1, 3, 0, 0, 0, 2]);
        let gens = |visit_le, target| WalkGens {
            holder: 3,
            visit_le,
            target,
        };
        let (visited, still_dirty, forwarded) =
            walk(&whereabouts, &mut run, &mut cards, 519, gens(0, 2));
        assert_eq!((visited, still_dirty), (4, true));
        assert_eq!(
            forwarded,
            [3, SEGMENT_WORDS + 6],
            "word order; card 1 and b[7] untouched"
        );
        assert_eq!(cards[..4], [1, 2, CARD_CLEAN, CARD_CLEAN]);
        assert_eq!(cards[64], 2);
        let [a, b] = &run;
        assert_eq!(a[3], pair_in(TO, 30));
        assert_eq!(
            (a[8], b[6], b[7]),
            (pair_in(1, 10), pair_in(TO, 20), pair_in(1, 40))
        );
        // With `visit_le` 2 and target 3 (the holder's own generation) the
        // rest are visited too: card 1's from-space referent is forwarded
        // and the card comes out clean; referents outside the from-space
        // keep their generations.
        let (visited, still_dirty, forwarded) =
            walk(&whereabouts, &mut run, &mut cards, 519, gens(2, 3));
        assert_eq!((visited, still_dirty), (3, true));
        assert_eq!(forwarded, [8]);
        assert_eq!(cards[..2], [1, CARD_CLEAN]);
        assert_eq!(cards[64], 2);
        // `u8::MAX` visits every card, clean ones included, and none beyond
        // `used`.
        let (visited, ..) = walk(&whereabouts, &mut run, &mut cards, 519, gens(u8::MAX, 3));
        assert_eq!(visited, 65);
        assert_eq!(run[1][7], pair_in(1, 40));
    }

    #[test]
    fn non_pointers_are_clamped_into_the_table_and_contribute_nothing() {
        // Every tag that is not a pointer's, with bits above the tag that
        // index far beyond a ten-segment table.
        let mut run = [[0u64; SEGMENT_WORDS]];
        run[0][0] = Value::fixnum(FIXNUM_MAX).raw();
        run[0][1] = Value::fixnum(-1).raw();
        run[0][2] = Header::new(ObjKind::Vector, 1 << 40).encode();
        run[0][3] = Value::char(char::MAX).raw();
        run[0][4] = u64::MAX; // a forwarding mark's tag
        run[0][5] = Value::NIL.raw();
        let before = run;
        let mut cards = vec![CARD_CLEAN; CARDS_PER_SEGMENT];
        cards[0] = 0;
        let gens = WalkGens {
            holder: 3,
            visit_le: 0,
            target: 1,
        };
        // The clamp lands on the last entry: even from-space there, a
        // non-pointer is not gathered.
        let mut whereabouts = table([0; 10]);
        whereabouts[9] = WHERE_FROM;
        let walked = walk(&whereabouts, &mut run, &mut cards, 8, gens);
        assert_eq!(walked, (1, false, vec![]));
        assert_eq!(cards[0], CARD_CLEAN);
        assert_eq!(run, before);
    }

    /// One due card holding `word` in a generation-3 run, walked against a
    /// table whose segment 2 is not allocated.
    fn walk_one_word(word: u64) {
        let mut run = [[0u64; SEGMENT_WORDS]];
        run[0][2] = word;
        let mut cards = vec![CARD_CLEAN; CARDS_PER_SEGMENT];
        cards[0] = 0;
        let mut whereabouts = table([0; 10]);
        whereabouts[2] = WHERE_NONE;
        let gens = WalkGens {
            holder: 3,
            visit_le: 0,
            target: 1,
        };
        walk(&whereabouts, &mut run, &mut cards, 8, gens);
    }

    #[test]
    #[should_panic(expected = "segment not allocated")]
    fn a_pointer_into_a_free_segment_panics() {
        walk_one_word(pair_in(2, 0));
    }

    #[test]
    #[should_panic(expected = "segment not allocated")]
    fn a_pointer_beyond_the_table_panics() {
        walk_one_word(pair_in(10, 0));
    }

    #[test]
    fn due_cards_either_side_of_a_chunk_boundary_are_gathered_in_their_windows() {
        // Cards 63 and 64: the last of the first segment and the first of
        // the second, found in different windows through different bases.
        let mut run = [[0u64; SEGMENT_WORDS]; 2];
        run[0][SEGMENT_WORDS - 1] = pair_in(1, 2);
        run[1][0] = pair_in(1, 4);
        run[1][1] = pair_in(4, 0);
        let mut cards = vec![CARD_CLEAN; 2 * CARDS_PER_SEGMENT];
        (cards[63], cards[64]) = (0, 0);
        let whereabouts = table([0, 0, 0, 0, 1, 0, 0, 0, 0, 2]);
        let gens = WalkGens {
            holder: 3,
            visit_le: 0,
            target: 2,
        };
        let walked = walk(&whereabouts, &mut run, &mut cards, 2 * SEGMENT_WORDS, gens);
        assert_eq!(walked, (2, true, vec![SEGMENT_WORDS - 1, SEGMENT_WORDS]));
        assert_eq!((cards[63], cards[64]), (2, 1));
        assert_eq!(run[0][SEGMENT_WORDS - 1], pair_in(TO, 2));
        assert_eq!(run[1][0], pair_in(TO, 4));
    }

    #[test]
    fn bytes_le_flags_exactly_the_bytes_at_most_n() {
        let x = u64::from_le_bytes([0, 1, 127, 128, 200, 254, 255, 3]);
        let flags = |n| bytes_le(x, n).to_le_bytes();
        assert_eq!(flags(0), [1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(flags(3), [1, 1, 0, 0, 0, 0, 0, 1]);
        assert_eq!(flags(127), [1, 1, 1, 0, 0, 0, 0, 1]);
        assert_eq!(flags(128), [1, 1, 1, 1, 0, 0, 0, 1]);
        assert_eq!(flags(254), [1, 1, 1, 1, 1, 1, 0, 1]);
        assert_eq!(flags(255), [1; 8]);
    }

    /// A word of a random run: mostly pointers into a ten-segment table,
    /// the from-space among them, and some of every non-pointer tag.
    fn word() -> impl Strategy<Value = u64> {
        prop_oneof![
            6 => (0u32..10, 0usize..256).prop_map(|(seg, pair)| pair_in(seg, 2 * pair)),
            1 => any::<u64>().prop_map(|bits| bits & !0b111), // a fixnum
            1 => any::<u64>().prop_map(|bits| bits | 0b011), // immediate or mark
            1 => Just(Header::new(ObjKind::Vector, 8).encode()),
        ]
    }

    /// A card byte: clean, barrier-fresh, or some generation.
    fn card() -> impl Strategy<Value = u8> {
        prop_oneof![3 => Just(CARD_CLEAN), 2 => Just(0u8), 2 => 0u8..6]
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(miri) { 4 } else { 96 },
            ..ProptestConfig::default()
        })]

        /// The gather-then-forward walk against the per-word walk it
        /// replaced, on random rows, words and whereabouts tables: the same
        /// cards visited, the same rows and words left behind, the same
        /// slots forwarded in the same order.
        #[test]
        fn the_gather_agrees_with_the_per_word_walk(
            words in proptest::collection::vec(word(), 2 * SEGMENT_WORDS),
            row in proptest::collection::vec(card(), 2 * CARDS_PER_SEGMENT),
            generations in proptest::collection::vec(0u8..6, 10),
            used in 1usize..=2 * SEGMENT_WORDS,
            holder in 1u8..6,
            visit in prop_oneof![3 => 0u8..6, 1 => Just(u8::MAX)],
        ) {
            let mut whereabouts = [0u8; 10];
            whereabouts.copy_from_slice(&generations);
            let whereabouts = table(whereabouts);
            let mut run = [[0u64; SEGMENT_WORDS]; 2];
            run.as_flattened_mut().copy_from_slice(&words);
            let gens = WalkGens { holder, visit_le: visit, target: holder.min(visit.wrapping_add(1)) };

            let (mut expected_run, mut expected_cards) = (run, row.clone());
            let mut expected_forwarded = Vec::new();
            let expected = walk_per_word(
                |seg| whereabouts[seg.index()] == WHERE_FROM,
                |seg| whereabouts[seg.index()],
                |at, v| {
                    expected_forwarded.push(at);
                    Value::pair_at(WordAddr::new(SegIndex(TO), v.addr().offset()))
                },
                &mut expected_run,
                &mut expected_cards,
                used,
                gens.holder,
                gens.visit_le,
                gens.target,
            );

            let mut cards = row;
            let (visited, still_dirty, forwarded) =
                walk(&whereabouts, &mut run, &mut cards, used, gens);
            prop_assert_eq!((visited, still_dirty), expected);
            prop_assert_eq!(cards, expected_cards);
            prop_assert_eq!(forwarded, expected_forwarded);
            prop_assert!(run == expected_run);
        }
    }
}
