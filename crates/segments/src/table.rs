//! The segment table: owns all segment storage plus the segment
//! information table, hands out (and recycles) segments tagged with a
//! space and generation, and resolves [`WordAddr`]s to storage.
//!
//! # The free store
//!
//! Freed storage stays with the table, in the shape it was freed in: a
//! single goes on a LIFO stack, a multi-segment run keeps its identity
//! (head index and length) and is filed under its length. Both allocation
//! entry points serve from the store first:
//!
//! * [`SegmentTable::allocate`] pops the singles stack; when that is empty
//!   it takes the shortest free run apart into singles;
//! * [`SegmentTable::allocate_run`]`(n)` reuses the most recently freed
//!   run of length `n`, else cuts `n` segments off the front of the
//!   shortest longer free run and files the remainder.
//!
//! The invariant is: **the table acquires storage — creates an index and
//! draws on the pool — only when the free store cannot serve the
//! request**. Free singles are never stitched back into runs, so a run
//! request can grow the table while singles (or shorter runs) sit free; on
//! a stream of one run length and no singles the table's size is exactly
//! the high-water mark of live segments.
//!
//! # The whereabouts table
//!
//! Beside the information table sits one byte per segment index: the
//! segment's generation, [`WHERE_FROM`] while it is in the from-space of
//! the collection in flight, [`WHERE_NONE`] when the index is not
//! allocated. It is what the collector tests from-space membership with
//! and what its card walk and guardian pass look referents up in — one
//! load that needs no `Option` test and no 20-byte stride. Allocation, the
//! collector's flip ([`SegmentTable::enter_from_space`]) and
//! [`SegmentTable::free`] are its only writers;
//! [`SegmentTable::check_whereabouts`] checks it against the information
//! table.

use crate::addr::{SegIndex, WordAddr, SEGMENT_WORDS};
use crate::info::{SegInfo, SegKind, Space};
use crate::pool::SegmentPool;
use crate::seg::{Segment, POISON};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Words covered by one remembered-set card.
pub const CARD_WORDS: usize = 8;

/// Cards per segment (one byte each in the table's card rows).
pub const CARDS_PER_SEGMENT: usize = SEGMENT_WORDS / CARD_WORDS;

/// Card byte meaning "no word of this card points into a generation
/// younger than the segment's own". Any other value is a lower bound on
/// the youngest generation a word of the card points to.
pub const CARD_CLEAN: u8 = u8::MAX;

/// Whereabouts byte of a segment index that is not allocated (free, or
/// never issued). Like [`CARD_CLEAN`] in the card table it is a reserved
/// byte, so generations stop at 253.
pub const WHERE_NONE: u8 = 0xFF;

/// Whereabouts byte of a segment in the from-space of the collection in
/// flight (see [`SegmentTable::enter_from_space`]).
pub const WHERE_FROM: u8 = 0xFE;

/// Freed storage awaiting reissue (see the module docs). An index is in
/// the store exactly when it exists in the table and has no [`SegInfo`].
#[derive(Default)]
struct FreeStore {
    /// Free single segments, reissued most recently freed first.
    singles: Vec<SegIndex>,
    /// Free runs by length (always at least 2): the head indices of the
    /// free runs of that length, most recently freed last. No list is
    /// empty, so the first key is the shortest free run there is.
    runs: BTreeMap<usize, Vec<SegIndex>>,
}

impl FreeStore {
    /// Files the free run `[head, head + len)`.
    fn put(&mut self, head: SegIndex, len: usize) {
        if len == 1 {
            self.singles.push(head);
        } else {
            self.runs.entry(len).or_default().push(head);
        }
    }

    /// Removes the most recently freed run of the shortest length that is
    /// at least `min_len`; returns its head and length.
    fn take_shortest_run(&mut self, min_len: usize) -> Option<(SegIndex, usize)> {
        let (&len, heads) = self.runs.range_mut(min_len..).next()?;
        let head = heads.pop().expect("no free-run list is empty");
        if heads.is_empty() {
            self.runs.remove(&len);
        }
        Some((head, len))
    }

    /// A free run of exactly `n >= 2` segments: one freed at that length,
    /// else the front of the shortest longer one, whose remainder goes
    /// back to the store.
    fn take_run(&mut self, n: usize) -> Option<SegIndex> {
        let (head, len) = self.take_shortest_run(n)?;
        if len > n {
            self.put(SegIndex(head.0 + n as u32), len - n);
        }
        Some(head)
    }

    /// The slow half of taking a single, for when the singles stack is
    /// empty: takes the shortest free run apart, returning its head and
    /// stacking the rest so they are issued in index order.
    fn split_shortest_run(&mut self) -> Option<SegIndex> {
        let (head, len) = self.take_shortest_run(2)?;
        self.singles
            .extend((1..len).rev().map(|i| SegIndex(head.0 + i as u32)));
        Some(head)
    }

    /// Free segments held, run members included.
    fn segments(&self) -> usize {
        let in_runs: usize = self.runs.iter().map(|(len, heads)| len * heads.len()).sum();
        self.singles.len() + in_runs
    }
}

/// Owner of all heap segments and their metadata.
///
/// Segment indices are stable for the lifetime of the table; freed
/// segments and runs keep their storage and are reissued by later
/// allocations (the recycling the paper relies on when from-space segments
/// are returned after a collection).
pub struct SegmentTable {
    segs: Vec<Segment>,
    info: Vec<Option<SegInfo>>,
    free: FreeStore,
    allocated: usize,
    /// The whereabouts table (see the module docs): one byte per segment
    /// index — its generation, [`WHERE_FROM`] or [`WHERE_NONE`].
    /// [`SegInfo::generation`] is never changed after allocation and stays
    /// readable in the from-space.
    whereabouts: Vec<u8>,
    /// The card table: one row per segment index (tails included, so a
    /// run's rows are contiguous), one byte per [`CARD_WORDS`]-word card.
    /// A byte is [`CARD_CLEAN`] or a lower bound on the youngest
    /// generation any word of the card points to. Rows are reset to
    /// all-clean whenever their segment is (re)allocated.
    cards: Vec<[u8; CARDS_PER_SEGMENT]>,
    /// Index of dirty runs: exactly the allocated head segments whose
    /// `SegInfo::dirty` flag is set (plus possibly-stale entries for
    /// segments freed or cleaned since — consumers re-check the flag).
    /// The flag summarises the card rows ("some card of this run is not
    /// clean"), so the remembered-set scan reaches the dirty cards
    /// without walking the whole table.
    dirty_list: Vec<SegIndex>,
    /// Per-generation segment lists (heads *and* tails), appended on
    /// allocation and drained by the collector's flip so building the
    /// from-space does not walk the whole table. Entries go stale when a
    /// segment is freed or recycled into another generation;
    /// [`SegmentTable::drain_generation`] filters them out.
    by_gen: Vec<Vec<SegIndex>>,
    /// Shared capacity source: when attached, fresh storage comes from the
    /// pool (and all storage goes back on drop) instead of being created
    /// privately. The local free store still recycles within the table —
    /// pool traffic happens only on growth and teardown.
    pool: Option<Arc<SegmentPool>>,
    /// Per-table watermark on `allocated` (run tails included): the
    /// zone-level quota that keeps one tenant from draining a shared pool.
    /// Fixed by [`SegmentTable::with_pool`].
    max_segments: Option<usize>,
}

impl SegmentTable {
    /// An empty table with no segments, backed by process-private storage.
    pub fn new() -> Self {
        SegmentTable {
            segs: Vec::new(),
            info: Vec::new(),
            free: FreeStore::default(),
            allocated: 0,
            whereabouts: Vec::new(),
            cards: Vec::new(),
            dirty_list: Vec::new(),
            by_gen: Vec::new(),
            pool: None,
            max_segments: None,
        }
    }

    /// An empty table drawing fresh storage from `pool`, optionally capped
    /// at `max_segments` allocated segments (the per-zone watermark).
    ///
    /// Allocation behaviour is byte-identical to a private table: fresh
    /// pool storage is zeroed exactly as `Segment::new()` is, indices are
    /// assigned in the same order, and the local free store recycles
    /// identically. Only where the bytes come from — and where they go on
    /// drop — differs.
    pub fn with_pool(pool: Arc<SegmentPool>, max_segments: Option<usize>) -> Self {
        pool.attach();
        let mut table = SegmentTable::new();
        table.pool = Some(pool);
        table.max_segments = max_segments;
        table
    }

    /// Fresh storage for a segment index about to be created: from the
    /// shared pool when attached, else private.
    ///
    /// # Panics
    ///
    /// Panics if an attached pool is at capacity — the same tripwire
    /// discipline as the heap's acquisition budget: infallible allocation
    /// entry points must be preflighted via [`SegmentTable::acquirable`].
    fn fresh_storage(&mut self) -> Segment {
        match &self.pool {
            None => Segment::new(),
            Some(pool) => pool.try_acquire().unwrap_or_else(|| {
                panic!(
                    "shared segment pool exhausted on an infallible allocation path \
                     (preflight with a try_* entry point)"
                )
            }),
        }
    }

    /// Watermark tripwire: about to raise `allocated` by `n`.
    ///
    /// # Panics
    ///
    /// Panics if the table's `max_segments` watermark would be exceeded —
    /// again, infallible paths must be preflighted.
    fn charge_watermark(&self, n: usize) {
        if let Some(max) = self.max_segments {
            assert!(
                self.allocated + n <= max,
                "zone watermark of {max} segments exceeded on an infallible allocation \
                 path (preflight with a try_* entry point)"
            );
        }
    }

    /// Segments this table can still acquire before hitting its watermark
    /// or the shared pool's capacity; `u64::MAX` when neither bounds it.
    ///
    /// Deliberately conservative on the pool side: the free store is not
    /// credited. A budget demand is a shapeless count — `n` segments, in
    /// whatever mix of singles and runs the operation turns out to make —
    /// and what the store can serve depends on shape (free singles cannot
    /// serve a run, a free run of 3 cannot serve one of 4), so no count of
    /// free segments is a sound credit. The uncredited figure is sound
    /// because the store only ever *lowers* what an allocation draws:
    /// each allocation of `k` segments takes either nothing from the pool
    /// (served from the store) or exactly `k` (grown), and raises
    /// `allocated` by `k` either way. So a demand of `n <= acquirable()`
    /// segments is guaranteed not to trip either tripwire — the soundness
    /// contract `Heap::check_budget` relies on — and the cost of not
    /// crediting is only a refusal that reuse would have survived.
    /// Under concurrent tenants the pool figure is a snapshot; zones that
    /// need a hard guarantee carry a `max_segments` watermark sized so the
    /// fleet's watermarks sum to at most the pool capacity.
    pub fn acquirable(&self) -> u64 {
        let watermark = self
            .max_segments
            .map_or(u64::MAX, |max| max.saturating_sub(self.allocated) as u64);
        let pool = self.pool.as_ref().map_or(u64::MAX, |p| p.remaining());
        watermark.min(pool)
    }

    /// Issues the index `seg` as `info`: the one place an index becomes
    /// allocated, so its whereabouts byte and per-generation entry cannot
    /// be missed.
    ///
    /// # Panics
    ///
    /// Panics if the generation is one of the reserved whereabouts bytes.
    fn issue(&mut self, seg: SegIndex, info: SegInfo) {
        let generation = info.generation;
        assert!(
            generation < WHERE_FROM,
            "generation {generation} is a reserved whereabouts byte"
        );
        self.info[seg.index()] = Some(info);
        self.whereabouts[seg.index()] = generation;
        let g = generation as usize;
        if self.by_gen.len() <= g {
            self.by_gen.resize_with(g + 1, Vec::new);
        }
        self.by_gen[g].push(seg);
    }

    /// Readies a segment taken from the free store for reissue: words
    /// zeroed, card row all-clean — indistinguishable from fresh storage.
    fn recycle(&mut self, idx: SegIndex) {
        self.segs[idx.index()].fill(0);
        self.cards[idx.index()] = [CARD_CLEAN; CARDS_PER_SEGMENT];
    }

    /// Creates the next segment index over fresh storage, unallocated.
    fn grow(&mut self) -> SegIndex {
        let idx = SegIndex(self.segs.len() as u32);
        let storage = self.fresh_storage();
        self.segs.push(storage);
        self.cards.push([CARD_CLEAN; CARDS_PER_SEGMENT]);
        self.info.push(None);
        self.whereabouts.push(WHERE_NONE);
        idx
    }

    /// Allocates one segment belonging to `space` / `generation`: the most
    /// recently freed single, else the head of the shortest free run
    /// (taken apart into singles), else a fresh index.
    ///
    /// # Panics
    ///
    /// Panics if `generation` is 254 or 255, the reserved whereabouts bytes.
    pub fn allocate(&mut self, space: Space, generation: u8) -> SegIndex {
        self.charge_watermark(1);
        let idx = match self.free.singles.pop() {
            Some(idx) => {
                self.recycle(idx);
                idx
            }
            None => self.allocate_without_a_free_single(),
        };
        self.issue(idx, SegInfo::head(space, generation));
        self.allocated += 1;
        idx
    }

    /// [`SegmentTable::allocate`] off its fast path: the singles stack is
    /// empty, so the shortest free run is taken apart, or the table grows.
    /// Kept out of line so the fast path stays the pop-and-zero it was:
    /// chained inline it cost `guardian_pool` a third more sweep time with
    /// no run ever allocated (EXPERIMENTS E24, runs made).
    #[cold]
    #[inline(never)]
    fn allocate_without_a_free_single(&mut self) -> SegIndex {
        match self.free.split_shortest_run() {
            Some(idx) => {
                self.recycle(idx);
                idx
            }
            None => self.grow(),
        }
    }

    /// Allocates `n` *contiguous* segments (a run) for a large object. The
    /// first is the head, the rest tails. Returns the head index.
    ///
    /// Contiguity in index space is required, so the run comes from a free
    /// run — the most recently freed one of length `n`, else the front of
    /// the shortest longer one, whose remainder stays free — and from fresh
    /// indices at the end of the table only when no free run is long
    /// enough (free singles cannot be stitched together). A reused run is
    /// readied exactly as a recycled single is: zeroed, cards clean,
    /// head/tail metadata and per-generation entries rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if `generation` is 254 or 255, the reserved
    /// whereabouts bytes.
    pub fn allocate_run(&mut self, space: Space, generation: u8, n: usize) -> SegIndex {
        assert!(n > 0, "empty run requested");
        if n == 1 {
            return self.allocate(space, generation);
        }
        self.charge_watermark(n);
        let head = match self.free.take_run(n) {
            Some(head) => {
                for i in 0..n {
                    self.recycle(SegIndex(head.0 + i as u32));
                }
                head
            }
            None => {
                let head = SegIndex(self.segs.len() as u32);
                for _ in 0..n {
                    self.grow();
                }
                head
            }
        };
        for i in 0..n {
            let idx = SegIndex(head.0 + i as u32);
            let info = if i == 0 {
                let mut info = SegInfo::head(space, generation);
                info.run = n as u32;
                info
            } else {
                SegInfo::tail(space, generation, head)
            };
            self.issue(idx, info);
        }
        self.allocated += n;
        head
    }

    /// Returns a segment (single or run head) to the free store.
    ///
    /// Freeing a run head frees the whole run, which stays whole in the
    /// store: a later [`SegmentTable::allocate_run`] of at most its length
    /// reuses it, and [`SegmentTable::allocate`] takes it apart only when
    /// no single is free. In debug builds the storage is poisoned so stale
    /// pointers are detected.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is not currently allocated or is a tail segment.
    pub fn free(&mut self, seg: SegIndex) {
        let info = self.info[seg.index()].expect("freeing unallocated segment");
        assert!(info.is_head(), "cannot free a tail segment directly");
        let run = self.run_len(seg);
        for i in seg.index()..seg.index() + run {
            self.info[i] = None;
            self.whereabouts[i] = WHERE_NONE;
            if cfg!(debug_assertions) {
                self.segs[i].fill(POISON);
            }
        }
        self.free.put(seg, run);
        self.allocated -= run;
    }

    /// Checks the free store against the rest of the table: every free
    /// single and every segment of every free run exists and is
    /// unallocated, no index is held twice, every run is filed under a
    /// length of at least 2 in a non-empty list, and allocated plus free
    /// segments account for the whole table. (A run filed under the wrong
    /// length overlaps a neighbour or leaves the sum short.)
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_free_store(&self) -> Result<(), String> {
        let mut seen = vec![false; self.segs.len()];
        let mut claim = |idx: usize| {
            if idx >= seen.len() {
                return Err("lies beyond the table");
            }
            if self.info[idx].is_some() {
                return Err("is allocated");
            }
            if std::mem::replace(&mut seen[idx], true) {
                return Err("is in the free store twice");
            }
            Ok(())
        };
        for &seg in &self.free.singles {
            claim(seg.index()).map_err(|why| format!("free single {seg:?} {why}"))?;
        }
        for (&len, heads) in &self.free.runs {
            if len < 2 || heads.is_empty() {
                return Err(format!(
                    "free-run list for length {len} holds {} runs",
                    heads.len()
                ));
            }
            for &head in heads {
                for i in 0..len {
                    claim(head.index() + i).map_err(|why| {
                        format!("segment {i} of the free run of {len} at {head:?} {why}")
                    })?;
                }
            }
        }
        let free = self.free.segments();
        if self.allocated + free != self.segs.len() {
            return Err(format!(
                "{} allocated + {free} free segments do not account for the table's {}",
                self.allocated,
                self.segs.len()
            ));
        }
        Ok(())
    }

    /// Number of segments (including tails) in the run headed by `seg`.
    /// O(1): the length is stored in the head's [`SegInfo`].
    ///
    /// # Panics
    ///
    /// Panics if `seg` is not an allocated head segment.
    pub fn run_len(&self, seg: SegIndex) -> usize {
        let info = self.info(seg);
        debug_assert!(info.is_head(), "run_len of a tail segment");
        info.run as usize
    }

    /// Metadata for an allocated segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not allocated.
    #[inline]
    pub fn info(&self, seg: SegIndex) -> &SegInfo {
        self.info[seg.index()]
            .as_ref()
            .expect("segment not allocated")
    }

    /// Mutable metadata for an allocated segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not allocated.
    #[inline]
    pub fn info_mut(&mut self, seg: SegIndex) -> &mut SegInfo {
        self.info[seg.index()]
            .as_mut()
            .expect("segment not allocated")
    }

    /// Metadata if the segment is allocated, else `None`. Also returns
    /// `None` for indices beyond the table.
    #[inline]
    pub fn try_info(&self, seg: SegIndex) -> Option<&SegInfo> {
        self.info.get(seg.index()).and_then(|i| i.as_ref())
    }

    /// The address of the first word of a segment.
    #[inline]
    pub fn base_addr(&self, seg: SegIndex) -> WordAddr {
        WordAddr::new(seg, 0)
    }

    /// Reads the word at `addr`.
    #[inline]
    pub fn word(&self, addr: WordAddr) -> u64 {
        self.segs[addr.seg().index()].word(addr.offset())
    }

    /// Writes the word at `addr`.
    #[inline]
    pub fn set_word(&mut self, addr: WordAddr, value: u64) {
        self.segs[addr.seg().index()].set_word(addr.offset(), value);
    }

    /// The words of one segment, for bulk read-only scanning. For a
    /// multi-segment run, call once per segment of the run.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is beyond the table.
    #[inline]
    pub fn words(&self, seg: SegIndex) -> &[u64; SEGMENT_WORDS] {
        self.segs[seg.index()].words()
    }

    /// The raw base address of a segment's word array, for the collector's
    /// forward-in-place kernel. Stays valid until the table is dropped; see
    /// [`Segment::base_ptr`] for the access contract.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is beyond the table.
    #[inline]
    pub fn base_ptr(&self, seg: SegIndex) -> *mut u64 {
        self.segs[seg.index()].base_ptr()
    }

    /// Copies `n` words from `src` to `dst` as bulk word moves, chunked at
    /// segment boundaries so both intra-segment copies and copies between
    /// (or across) multi-segment runs work. Within one segment the regions
    /// may overlap (`copy_within` semantics).
    pub fn copy_words(&mut self, mut src: WordAddr, mut dst: WordAddr, mut n: usize) {
        while n > 0 {
            let chunk = n
                .min(SEGMENT_WORDS - src.offset())
                .min(SEGMENT_WORDS - dst.offset());
            // SAFETY: this is the single raw-pointer contract for the copy
            // hot path. Both ranges lie inside their segments' allocations:
            // `chunk` is clamped to the words remaining in each segment, and
            // indexing `self.segs` bounds-checks the segment indices.
            // `ptr::copy` has memmove semantics, preserving the documented
            // `copy_within` behaviour when source and destination overlap
            // within one segment. No references into the word arrays are
            // live here (base_ptr reads only the segment's pointer field),
            // and `&mut self` rules out any other table access.
            unsafe {
                let s = self.segs[src.seg().index()].base_ptr().add(src.offset());
                let d = self.segs[dst.seg().index()].base_ptr().add(dst.offset());
                std::ptr::copy(s, d, chunk);
            }
            src = src.add(chunk);
            dst = dst.add(chunk);
            n -= chunk;
        }
    }

    /// Whether `addr` falls inside an allocated segment.
    pub fn contains(&self, addr: WordAddr) -> bool {
        self.try_info(addr.seg()).is_some()
    }

    // ------------------------------------------------------------------
    // Card table and dirty-run index
    // ------------------------------------------------------------------

    /// The mutator write barrier: sets the card holding `addr` to 0 ("may
    /// point into any generation") and flags the run `addr` lies in. No
    /// referent generation is looked up; the next collection that visits
    /// the card replaces the 0 with the exact minimum. A no-op in
    /// generation 0, which has no younger generation to point into.
    ///
    /// # Panics
    ///
    /// Panics if `addr`'s segment is not allocated.
    #[inline]
    pub fn mark_card(&mut self, addr: WordAddr) {
        // A referent in generation 0 is the bound that holds for any.
        self.note_collector_store(addr, 0);
    }

    /// The collector's store barrier: `addr` was just written with a
    /// pointer into generation `referent_gen`, which the collector knows
    /// exactly. When that is younger than the holder's generation, the
    /// card holding `addr` is lowered to it (never raised: a 0 the mutator
    /// left stays) and the run `addr` lies in is flagged; otherwise nothing
    /// is marked. The bytes it writes are as exact as the card walk's, so a
    /// collection that cannot move the referent does not visit the card.
    ///
    /// # Panics
    ///
    /// Panics if `addr`'s segment is not allocated.
    #[inline]
    pub fn note_collector_store(&mut self, addr: WordAddr, referent_gen: u8) {
        let seg = addr.seg();
        let info = self.info[seg.index()]
            .as_mut()
            .expect("segment not allocated");
        if referent_gen >= info.generation {
            return;
        }
        let card = &mut self.cards[seg.index()][addr.offset() / CARD_WORDS];
        *card = (*card).min(referent_gen);
        match info.kind {
            SegKind::Head if info.dirty => {}
            SegKind::Head => {
                info.dirty = true;
                self.dirty_list.push(seg);
            }
            SegKind::Tail { head } => self.flag_dirty(head),
        }
    }

    /// Sets every card covering a used word of the run headed by `seg` to
    /// 0 (cards past the run's `used` watermark stay clean, as
    /// [`SegmentTable::mark_card`] leaves them) and flags the run: the
    /// whole-run form of the barrier. Weak-pair
    /// segments are remembered this way (their cars are settled per
    /// segment, not per card), and tests use it as the card-oblivious
    /// reference barrier.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is not an allocated head segment.
    pub fn mark_dirty(&mut self, seg: SegIndex) {
        let used = (self.info(seg).used as usize).div_ceil(CARD_WORDS);
        self.run_cards_mut(seg)[..used].fill(0);
        self.flag_dirty(seg);
    }

    /// Sets the run's dirty flag and records it in the dirty index,
    /// leaving its cards alone. Idempotent: an already-flagged run is not
    /// recorded twice.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not allocated.
    #[inline]
    pub fn flag_dirty(&mut self, seg: SegIndex) {
        let info = self.info[seg.index()]
            .as_mut()
            .expect("segment not allocated");
        if !info.dirty {
            info.dirty = true;
            self.dirty_list.push(seg);
        }
    }

    /// Clears the run's dirty flag (its cards are left alone). The index
    /// entry, if any, goes stale and is skipped by consumers that
    /// re-check the flag.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not allocated.
    #[inline]
    pub fn clear_dirty(&mut self, seg: SegIndex) {
        self.info[seg.index()]
            .as_mut()
            .expect("segment not allocated")
            .dirty = false;
    }

    /// The card bytes of the run headed by `seg`, [`CARDS_PER_SEGMENT`]
    /// per segment, in word order.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is not an allocated head segment.
    pub fn run_cards(&self, seg: SegIndex) -> &[u8] {
        let n = self.run_len(seg);
        self.cards[seg.index()..seg.index() + n].as_flattened()
    }

    /// Mutable form of [`SegmentTable::run_cards`].
    ///
    /// # Panics
    ///
    /// Panics if `seg` is not an allocated head segment.
    pub fn run_cards_mut(&mut self, seg: SegIndex) -> &mut [u8] {
        let n = self.run_len(seg);
        self.cards[seg.index()..seg.index() + n].as_flattened_mut()
    }

    /// The card bytes of the one segment `seg` (a head or a tail), mutably,
    /// together with the whereabouts table: the two byte tables the
    /// collector's card gather works on, split-borrowed so it can refresh
    /// the row in place while it looks referents up.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is beyond the table.
    pub fn card_row_and_whereabouts(
        &mut self,
        seg: SegIndex,
    ) -> (&mut [u8; CARDS_PER_SEGMENT], &[u8]) {
        (&mut self.cards[seg.index()], &self.whereabouts)
    }

    // ------------------------------------------------------------------
    // Whereabouts table
    // ------------------------------------------------------------------

    /// Whether `seg` is in the from-space of the collection in flight. The
    /// one from-space membership test there is; `false` for segments
    /// allocated since the flip, free ones and indices beyond the table.
    #[inline]
    pub fn in_from_space(&self, seg: SegIndex) -> bool {
        self.whereabouts.get(seg.index()) == Some(&WHERE_FROM)
    }

    /// The whereabouts byte of `seg`: its generation, [`WHERE_FROM`], or
    /// [`WHERE_NONE`] (also for indices beyond the table).
    #[inline]
    pub fn whereabouts(&self, seg: SegIndex) -> u8 {
        self.whereabouts
            .get(seg.index())
            .copied()
            .unwrap_or(WHERE_NONE)
    }

    /// Moves an allocated segment into the from-space: the collector's
    /// flip calls this for every segment (heads and tails) of a collected
    /// generation. The byte stays [`WHERE_FROM`] until the segment's run is
    /// freed by the reclaim.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not allocated.
    pub fn enter_from_space(&mut self, seg: SegIndex) {
        assert!(
            self.info[seg.index()].is_some(),
            "segment not allocated: {seg:?} cannot enter the from-space"
        );
        self.whereabouts[seg.index()] = WHERE_FROM;
    }

    /// Checks the whereabouts table against the information table: a byte
    /// is [`WHERE_NONE`] exactly on the unallocated indices, [`WHERE_FROM`]
    /// exactly on the segments of the runs headed by `from_heads` (the
    /// from-space of a collection suspended between increments; empty when
    /// none is), and the segment's generation everywhere else.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_whereabouts(&self, from_heads: &[SegIndex]) -> Result<(), String> {
        let mut from = vec![false; self.segs.len()];
        for &head in from_heads {
            from[head.index()..head.index() + self.run_len(head)].fill(true);
        }
        for (i, (info, &byte)) in self.info.iter().zip(&self.whereabouts).enumerate() {
            let expected = match info {
                None => WHERE_NONE,
                Some(_) if from[i] => WHERE_FROM,
                Some(info) => info.generation,
            };
            if byte != expected {
                return Err(format!(
                    "segment {i} has whereabouts byte {byte} where {expected} is due \
                     ({WHERE_NONE}: not allocated, {WHERE_FROM}: from-space, else its generation)"
                ));
            }
        }
        Ok(())
    }

    /// Takes the dirty index. Entries may be stale (freed, recycled, or
    /// cleaned segments): the caller must skip entries whose current
    /// [`SegInfo::dirty`] flag is unset, and must either
    /// [`clear_dirty`] and re-[`flag_dirty`] or simply [`clear_dirty`]
    /// every live entry it keeps, since taking the list removes them from
    /// the index.
    ///
    /// [`flag_dirty`]: SegmentTable::flag_dirty
    /// [`clear_dirty`]: SegmentTable::clear_dirty
    pub fn take_dirty(&mut self) -> Vec<SegIndex> {
        std::mem::take(&mut self.dirty_list)
    }

    /// The current dirty index (for invariant checks): a superset of the
    /// allocated segments whose dirty flag is set.
    pub fn dirty_index(&self) -> &[SegIndex] {
        &self.dirty_list
    }

    // ------------------------------------------------------------------
    // Per-generation lists
    // ------------------------------------------------------------------

    /// Drains the recorded segments of `generation`, filtering out stale
    /// entries (freed segments, or segments recycled into a different
    /// generation). The same live segment can appear more than once if it
    /// was freed and recycled back into the same generation; callers
    /// dedup (the collector's from-space map does this for free).
    ///
    /// After the drain the generation's list is empty; segments allocated
    /// afterwards re-populate it.
    pub fn drain_generation(&mut self, generation: u8) -> Vec<SegIndex> {
        let g = generation as usize;
        if g >= self.by_gen.len() {
            return Vec::new();
        }
        let raw = std::mem::take(&mut self.by_gen[g]);
        raw.into_iter()
            .filter(|&seg| {
                self.info
                    .get(seg.index())
                    .and_then(|i| i.as_ref())
                    .is_some_and(|info| info.generation == generation)
            })
            .collect()
    }

    /// Iterates over all allocated segments with their metadata.
    pub fn iter(&self) -> impl Iterator<Item = (SegIndex, &SegInfo)> {
        self.info
            .iter()
            .enumerate()
            .filter_map(|(i, info)| info.as_ref().map(|info| (SegIndex(i as u32), info)))
    }

    /// Number of currently allocated segments (including run tails).
    pub fn segments_allocated(&self) -> usize {
        self.allocated
    }

    /// Number of currently allocated words of capacity.
    pub fn words_allocated(&self) -> usize {
        self.allocated * SEGMENT_WORDS
    }

    /// Total segments ever created (allocated + free store).
    pub fn segments_total(&self) -> usize {
        self.segs.len()
    }
}

impl Default for SegmentTable {
    fn default() -> Self {
        SegmentTable::new()
    }
}

impl Drop for SegmentTable {
    /// Teardown returns *all* storage — allocated segments and the local
    /// free store alike — to the shared pool, so a zone's capacity is fully
    /// reusable the moment its heap drops. Private tables free storage as
    /// before.
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.release_all(self.segs.drain(..));
            pool.detach();
        }
    }
}

impl std::fmt::Debug for SegmentTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentTable")
            .field("allocated", &self.allocated)
            .field("total", &self.segs.len())
            .field("free", &self.free.segments())
            .field("free_singles", &self.free.singles.len())
            .field(
                "free_runs",
                &self.free.runs.values().map(Vec::len).sum::<usize>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_tags_space_and_generation() {
        let mut t = SegmentTable::new();
        let a = t.allocate(Space::Pair, 0);
        let b = t.allocate(Space::WeakPair, 3);
        assert_eq!(t.info(a).space, Space::Pair);
        assert_eq!(t.info(b).space, Space::WeakPair);
        assert_eq!(t.info(b).generation, 3);
        assert_eq!(t.segments_allocated(), 2);
    }

    #[test]
    fn freed_segments_are_recycled() {
        let mut t = SegmentTable::new();
        let a = t.allocate(Space::Pair, 0);
        t.free(a);
        assert_eq!(t.segments_allocated(), 0);
        let b = t.allocate(Space::Typed, 1);
        assert_eq!(a, b, "storage should be reissued");
        assert_eq!(t.segments_total(), 1);
        // Recycled segments come back zeroed.
        assert_eq!(t.word(t.base_addr(b)), 0);
    }

    #[test]
    fn words_read_back() {
        let mut t = SegmentTable::new();
        let a = t.allocate(Space::Pair, 0);
        let addr = t.base_addr(a).add(17);
        t.set_word(addr, 0xFEED);
        assert_eq!(t.word(addr), 0xFEED);
    }

    #[test]
    fn runs_are_contiguous_and_freed_together() {
        let mut t = SegmentTable::new();
        let _pad = t.allocate(Space::Pair, 0);
        let head = t.allocate_run(Space::Typed, 2, 3);
        assert_eq!(t.run_len(head), 3);
        assert_eq!(t.segments_allocated(), 4);
        // Words are addressable across the run.
        let far = t.base_addr(head).add(SEGMENT_WORDS + 5);
        t.set_word(far, 99);
        assert_eq!(t.word(far), 99);
        // Tail metadata points back at the head.
        let tail = SegIndex(head.0 + 1);
        assert_eq!(t.info(tail).kind, SegKind::Tail { head });
        t.free(head);
        assert_eq!(t.segments_allocated(), 1);
    }

    #[test]
    fn run_len_stops_at_foreign_tail() {
        let mut t = SegmentTable::new();
        let r1 = t.allocate_run(Space::Typed, 0, 2);
        let r2 = t.allocate_run(Space::Typed, 0, 2);
        assert_eq!(t.run_len(r1), 2);
        assert_eq!(t.run_len(r2), 2);
    }

    #[test]
    fn contains_rejects_freed_and_out_of_range() {
        let mut t = SegmentTable::new();
        let a = t.allocate(Space::Pair, 0);
        let addr = t.base_addr(a);
        assert!(t.contains(addr));
        t.free(a);
        assert!(!t.contains(addr));
        assert!(!t.contains(WordAddr::new(SegIndex(400), 0)));
    }

    #[test]
    #[should_panic(expected = "freeing unallocated segment")]
    fn double_free_panics() {
        let mut t = SegmentTable::new();
        let a = t.allocate(Space::Pair, 0);
        t.free(a);
        t.free(a);
    }

    #[test]
    #[should_panic(expected = "tail segment")]
    fn freeing_tail_panics() {
        let mut t = SegmentTable::new();
        let head = t.allocate_run(Space::Typed, 0, 2);
        t.free(SegIndex(head.0 + 1));
    }

    #[test]
    fn copy_words_within_one_segment() {
        let mut t = SegmentTable::new();
        let a = t.allocate(Space::Pair, 0);
        for i in 0..8 {
            t.set_word(t.base_addr(a).add(i), 100 + i as u64);
        }
        t.copy_words(t.base_addr(a), t.base_addr(a).add(20), 8);
        for i in 0..8 {
            assert_eq!(t.word(t.base_addr(a).add(20 + i)), 100 + i as u64);
        }
        // Overlapping forward copy keeps copy_within semantics.
        t.copy_words(t.base_addr(a).add(20), t.base_addr(a).add(22), 8);
        assert_eq!(t.word(t.base_addr(a).add(22)), 100);
        assert_eq!(t.word(t.base_addr(a).add(29)), 107);
    }

    #[test]
    fn copy_words_between_segments_both_directions() {
        let mut t = SegmentTable::new();
        let a = t.allocate(Space::Typed, 0);
        let b = t.allocate(Space::Typed, 0);
        for i in 0..5 {
            t.set_word(t.base_addr(a).add(i), i as u64 + 1);
        }
        t.copy_words(t.base_addr(a), t.base_addr(b).add(3), 5);
        assert_eq!(t.word(t.base_addr(b).add(3)), 1);
        assert_eq!(t.word(t.base_addr(b).add(7)), 5);
        // And back, higher index to lower.
        t.copy_words(t.base_addr(b).add(3), t.base_addr(a).add(100), 5);
        assert_eq!(t.word(t.base_addr(a).add(104)), 5);
    }

    #[test]
    fn copy_words_across_run_boundaries() {
        let mut t = SegmentTable::new();
        let src = t.allocate_run(Space::Typed, 0, 3);
        let dst = t.allocate_run(Space::Typed, 1, 3);
        let n = 2 * SEGMENT_WORDS + 17;
        for i in 0..n {
            t.set_word(t.base_addr(src).add(i), (i * 3 + 1) as u64);
        }
        // Misaligned so chunks split differently in source and target.
        t.copy_words(t.base_addr(src), t.base_addr(dst).add(9), n - 9);
        for i in 0..n - 9 {
            assert_eq!(
                t.word(t.base_addr(dst).add(9 + i)),
                (i * 3 + 1) as u64,
                "word {i}"
            );
        }
    }

    #[test]
    fn mark_card_sets_one_card_and_flags_the_run_head() {
        let mut t = SegmentTable::new();
        let single = t.allocate(Space::Typed, 1);
        let run = t.allocate_run(Space::Typed, 2, 3);
        t.mark_card(t.base_addr(single).add(17));
        t.mark_card(t.base_addr(single).add(23)); // same card, idempotent
        let cards = t.run_cards(single);
        assert_eq!(cards.len(), CARDS_PER_SEGMENT);
        assert_eq!(cards[2], 0);
        assert_eq!(cards.iter().filter(|&&c| c != CARD_CLEAN).count(), 1);
        // Word 600 of the run lies in its second segment: that tail's row
        // is marked, and the *head* is what gets flagged and indexed.
        t.mark_card(t.base_addr(run).add(600));
        let cards = t.run_cards(run);
        assert_eq!(cards.len(), 3 * CARDS_PER_SEGMENT);
        assert_eq!(cards[600 / CARD_WORDS], 0);
        assert_eq!(cards.iter().filter(|&&c| c != CARD_CLEAN).count(), 1);
        assert!(t.info(run).dirty);
        assert!(!t.info(SegIndex(run.0 + 1)).dirty);
        assert_eq!(t.dirty_index(), &[single, run]);
    }

    #[test]
    fn a_collector_store_of_an_equal_or_older_referent_marks_nothing() {
        let mut t = SegmentTable::new();
        let holder = t.allocate(Space::Pair, 2);
        let young = t.allocate(Space::Pair, 0);
        for referent_gen in [2, 3, u8::MAX] {
            t.note_collector_store(t.base_addr(holder).add(9), referent_gen);
        }
        // Generation 0 has nothing younger to point into.
        t.note_collector_store(t.base_addr(young), 0);
        for seg in [holder, young] {
            assert!(t.run_cards(seg).iter().all(|&c| c == CARD_CLEAN));
            assert!(!t.info(seg).dirty);
        }
        assert!(t.dirty_index().is_empty());
    }

    #[test]
    fn a_collector_store_lowers_the_card_to_its_referent_and_never_raises_it() {
        let mut t = SegmentTable::new();
        let holder = t.allocate(Space::Pair, 3);
        let at = |card: usize| t.base_addr(holder).add(card * CARD_WORDS + 1);
        let (one, two) = (at(1), at(2));
        t.note_collector_store(one, 2);
        assert_eq!(t.run_cards(holder)[1], 2);
        t.note_collector_store(one, 1);
        t.note_collector_store(one, 2); // not raised back
        assert_eq!(t.run_cards(holder)[1], 1);
        // The mutator's 0 stays: a collector store only ever lowers.
        t.mark_card(two);
        t.note_collector_store(two, 2);
        assert_eq!(t.run_cards(holder)[..3], [CARD_CLEAN, 1, 0]);
        assert!(t.info(holder).dirty);
        assert_eq!(t.dirty_index(), &[holder], "flagged and indexed once");
    }

    #[test]
    fn a_collector_store_into_a_run_tail_flags_the_head() {
        let mut t = SegmentTable::new();
        let run = t.allocate_run(Space::Typed, 2, 3);
        t.note_collector_store(t.base_addr(run).add(2 * SEGMENT_WORDS + 17), 1);
        let cards = t.run_cards(run);
        assert_eq!(cards[2 * CARDS_PER_SEGMENT + 2], 1);
        assert_eq!(cards.iter().filter(|&&c| c != CARD_CLEAN).count(), 1);
        assert!(t.info(run).dirty);
        assert!(!t.info(SegIndex(run.0 + 2)).dirty);
        assert_eq!(t.dirty_index(), &[run]);
    }

    #[test]
    fn fresh_and_recycled_segments_start_all_clean() {
        let mut t = SegmentTable::new();
        let a = t.allocate(Space::Pair, 1);
        assert!(t.run_cards(a).iter().all(|&c| c == CARD_CLEAN));
        t.info_mut(a).used = 20;
        t.mark_dirty(a);
        let (used, unused) = t.run_cards(a).split_at(3);
        assert!(used.iter().all(|&c| c == 0));
        assert!(unused.iter().all(|&c| c == CARD_CLEAN));
        t.free(a);
        let b = t.allocate(Space::Typed, 2);
        assert_eq!(a, b, "storage (and its card row) is reissued");
        let young = t.allocate(Space::Pair, 0);
        t.mark_card(t.base_addr(young));
        assert!(!t.info(young).dirty, "generation 0 is never remembered");
        assert!(t.run_cards(b).iter().all(|&c| c == CARD_CLEAN));
        assert!(!t.info(b).dirty);
        // A freed run taken apart for singles comes back clean too.
        let run = t.allocate_run(Space::Typed, 1, 2);
        t.info_mut(run).used = 2 * SEGMENT_WORDS as u32;
        t.mark_dirty(run);
        t.free(run);
        let c = t.allocate(Space::Pair, 1);
        let d = t.allocate(Space::Pair, 1);
        for seg in [c, d] {
            assert!(t.run_cards(seg).iter().all(|&c| c == CARD_CLEAN));
        }
    }

    #[test]
    fn dirty_index_tracks_marks_and_skips_stale() {
        let mut t = SegmentTable::new();
        let a = t.allocate(Space::Pair, 1);
        let b = t.allocate(Space::Pair, 2);
        t.mark_dirty(a);
        t.mark_dirty(a); // idempotent
        t.flag_dirty(b); // flag only: cards untouched
        assert!(t.run_cards(b).iter().all(|&c| c == CARD_CLEAN));
        assert_eq!(t.dirty_index(), &[a, b]);
        t.clear_dirty(a);
        assert!(!t.info(a).dirty);
        // The stale entry remains until taken; flags tell live from stale.
        let drained = t.take_dirty();
        assert_eq!(drained, vec![a, b]);
        assert!(t.dirty_index().is_empty());
        let live: Vec<SegIndex> = drained.into_iter().filter(|&s| t.info(s).dirty).collect();
        assert_eq!(live, vec![b]);
    }

    #[test]
    fn drain_generation_filters_freed_and_recycled() {
        let mut t = SegmentTable::new();
        let a = t.allocate(Space::Pair, 0);
        let b = t.allocate(Space::Typed, 0);
        let c = t.allocate(Space::Pair, 1);
        t.free(a);
        // `a`'s storage is recycled into generation 1: the generation-0
        // entry is stale, and generation 1 now lists it.
        let a2 = t.allocate(Space::Pair, 1);
        assert_eq!(a2, a);
        assert_eq!(t.drain_generation(0), vec![b]);
        assert_eq!(t.drain_generation(0), Vec::<SegIndex>::new(), "drained");
        assert_eq!(t.drain_generation(1), vec![c, a2]);
        assert_eq!(t.drain_generation(9), Vec::<SegIndex>::new());
    }

    #[test]
    fn pooled_table_matches_private_allocation_behaviour() {
        let pool = SegmentPool::unbounded();
        let mut pooled = SegmentTable::with_pool(pool.clone(), None);
        let mut private = SegmentTable::new();
        for t in [&mut pooled, &mut private] {
            let a = t.allocate(Space::Pair, 0);
            let b = t.allocate(Space::Typed, 1);
            t.set_word(t.base_addr(a).add(3), 7);
            t.free(b);
            let c = t.allocate(Space::WeakPair, 0);
            assert_eq!(c, b, "free-list recycling identical");
            assert_eq!(t.word(t.base_addr(c)), 0, "recycled storage zeroed");
            let run = t.allocate_run(Space::Typed, 2, 3);
            assert_eq!(t.run_len(run), 3);
        }
        assert_eq!(pool.outstanding(), pooled.segments_total());
        assert_eq!(pool.attached_tables(), 1);
    }

    #[test]
    fn dropping_a_pooled_table_returns_every_segment() {
        let pool = SegmentPool::with_capacity(16);
        {
            let mut t = SegmentTable::with_pool(pool.clone(), None);
            let a = t.allocate(Space::Pair, 0);
            let _b = t.allocate_run(Space::Typed, 1, 3);
            t.free(a); // free-listed storage must come back too
            assert_eq!(pool.outstanding(), 4);
        }
        assert_eq!(pool.outstanding(), 0, "teardown returns all storage");
        assert_eq!(pool.attached_tables(), 0, "no lingering owners");
        assert_eq!(pool.stats().releases, 4);
    }

    #[test]
    fn acquirable_reflects_watermark_and_pool() {
        let pool = SegmentPool::with_capacity(8);
        let mut a = SegmentTable::with_pool(pool.clone(), Some(3));
        let mut b = SegmentTable::with_pool(pool.clone(), None);
        assert_eq!(a.acquirable(), 3, "watermark binds before pool");
        a.allocate(Space::Pair, 0);
        a.allocate(Space::Pair, 0);
        assert_eq!(a.acquirable(), 1);
        for _ in 0..5 {
            b.allocate(Space::Typed, 0);
        }
        assert_eq!(pool.remaining(), 1);
        assert_eq!(a.acquirable(), 1, "min(watermark 1, pool 1)");
        assert_eq!(b.acquirable(), 1, "pool binds the unmarked sibling");
        b.allocate(Space::Typed, 0);
        assert_eq!(a.acquirable(), 0, "pool drained by the sibling");
        // Freeing locally restores watermark headroom but (deliberately)
        // not pool-side credit. The free store is not counted because a
        // demand is a count without a shape — this free single could not
        // serve a run of 2 — and leaving it out stays sound because a
        // request the store does serve draws nothing from the pool.
        let first = SegIndex(0);
        a.free(first);
        assert_eq!(a.acquirable(), 0);
        assert_eq!(a.allocate(Space::Pair, 0), first, "served without the pool");
        assert!(SegmentTable::new().acquirable() == u64::MAX);
    }

    #[test]
    #[should_panic(expected = "watermark of 2 segments exceeded")]
    fn watermark_tripwire_fires_on_unpreflighted_allocation() {
        let pool = SegmentPool::unbounded();
        let mut t = SegmentTable::with_pool(pool, Some(2));
        t.allocate(Space::Pair, 0);
        t.allocate(Space::Pair, 0);
        t.allocate(Space::Pair, 0);
    }

    #[test]
    #[should_panic(expected = "pool exhausted")]
    fn pool_tripwire_fires_on_unpreflighted_allocation() {
        let pool = SegmentPool::with_capacity(1);
        let mut t = SegmentTable::with_pool(pool, None);
        t.allocate(Space::Pair, 0);
        t.allocate(Space::Pair, 0);
    }

    /// Every word zero, every card clean, the dirty flag unset, tails
    /// pointing at the head: what a just-issued run must look like.
    fn assert_pristine_run(t: &SegmentTable, head: SegIndex, n: usize) {
        assert_eq!(t.run_len(head), n);
        assert!(!t.info(head).dirty);
        assert!(t.run_cards(head).iter().all(|&c| c == CARD_CLEAN));
        for i in 0..n {
            let seg = SegIndex(head.0 + i as u32);
            assert!(t.words(seg).iter().all(|&w| w == 0), "{seg:?} not zeroed");
            if i > 0 {
                assert_eq!(t.info(seg).kind, SegKind::Tail { head });
            }
        }
    }

    #[test]
    fn freed_runs_are_reused_whole_most_recent_first() {
        let mut t = SegmentTable::new();
        let a = t.allocate_run(Space::Typed, 1, 3);
        let b = t.allocate_run(Space::Typed, 1, 3);
        for run in [a, b] {
            t.info_mut(run).used = 3 * SEGMENT_WORDS as u32;
            t.set_word(t.base_addr(run).add(2 * SEGMENT_WORDS + 1), 0xBEEF);
            t.mark_dirty(run);
        }
        t.free(a);
        t.free(b);
        t.check_free_store().expect("two whole runs in the store");
        assert_eq!(t.drain_generation(1), Vec::<SegIndex>::new(), "all stale");
        let c = t.allocate_run(Space::Pure, 2, 3);
        assert_eq!(c, b, "most recently freed first");
        assert_pristine_run(&t, c, 3);
        let drained = t.drain_generation(2);
        assert_eq!(drained, [c, SegIndex(c.0 + 1), SegIndex(c.0 + 2)]);
        assert_eq!(t.allocate_run(Space::Typed, 0, 3), a);
        assert_eq!(t.segments_total(), 6, "nothing was acquired for the reuse");
        // The stale dirty-index entries now name reissued runs whose flags
        // are unset: consumers skip them.
        assert!(t.take_dirty().iter().all(|&s| !t.info(s).dirty));
        t.check_free_store().expect("store empty again");
    }

    #[test]
    fn a_longer_free_run_is_split_and_the_remainder_stays_free() {
        let mut t = SegmentTable::new();
        let seven = t.allocate_run(Space::Typed, 0, 7);
        let five = t.allocate_run(Space::Typed, 0, 5);
        t.free(seven);
        t.free(five);
        // No run of 3 is free: the shortest longer one (5) is cut.
        let three = t.allocate_run(Space::Typed, 0, 3);
        assert_eq!(three, five);
        assert_pristine_run(&t, three, 3);
        t.check_free_store().expect("remainder of 2 filed");
        assert_eq!(t.allocate_run(Space::Typed, 0, 2), SegIndex(five.0 + 3));
        // A remainder of one segment is a single.
        let six = t.allocate_run(Space::Typed, 0, 6);
        assert_eq!(six, seven);
        assert_eq!(t.allocate(Space::Pair, 0), SegIndex(seven.0 + 6));
        assert_eq!(t.segments_total(), 12);
        assert_eq!(t.segments_allocated(), 12);
        t.check_free_store().expect("store empty");
    }

    #[test]
    fn singles_take_the_shortest_free_run_apart_before_growing() {
        let mut t = SegmentTable::new();
        let four = t.allocate_run(Space::Typed, 0, 4);
        let two = t.allocate_run(Space::Typed, 0, 2);
        t.free(four);
        t.free(two);
        // No single is free: the run of 2 goes first, in index order.
        assert_eq!(t.allocate(Space::Pair, 0), two);
        t.check_free_store().expect("one single, one run of 4");
        assert_eq!(t.allocate(Space::Pair, 0), SegIndex(two.0 + 1));
        for i in 0..4 {
            assert_eq!(t.allocate(Space::Pair, 0), SegIndex(four.0 + i));
        }
        assert_eq!(t.segments_total(), 6, "the store served all six");
        assert_eq!(
            t.allocate(Space::Pair, 0),
            SegIndex(6),
            "only now a fresh index"
        );
        // Free singles are never stitched together: a run grows the table.
        t.free(SegIndex(0));
        t.free(SegIndex(1));
        assert_eq!(t.allocate_run(Space::Typed, 0, 2), SegIndex(7));
        t.check_free_store().expect("two singles left");
    }

    #[test]
    fn a_fixed_run_length_stream_stays_at_its_high_water_mark() {
        let mut t = SegmentTable::new();
        let mut live = Vec::new();
        let mut high = 0;
        // Deterministic churn: grow to 1..=4 live runs of 3, then shrink.
        for round in 0..12 {
            for _ in 0..1 + round % 4 {
                live.push(t.allocate_run(Space::Pure, 0, 3));
            }
            high = high.max(3 * live.len());
            assert_eq!(t.segments_total(), high, "round {round}");
            for _ in 0..1 + (round * 7) % live.len() {
                t.free(live.swap_remove(round % live.len()));
            }
            t.check_free_store().expect("store coherent");
        }
    }

    #[test]
    fn run_reuse_takes_nothing_from_the_pool() {
        let pool = SegmentPool::with_capacity(3);
        let mut t = SegmentTable::with_pool(pool.clone(), Some(3));
        for _ in 0..10 {
            let run = t.allocate_run(Space::Pure, 0, 3);
            assert_eq!(pool.remaining(), 0);
            t.free(run);
            // The uncredited figure refuses what the store could serve.
            assert_eq!(t.acquirable(), 0);
        }
        assert_eq!(pool.stats().acquires, 3);
    }

    #[test]
    fn free_store_check_catches_corruption() {
        let build = || {
            let mut t = SegmentTable::new();
            let keep = t.allocate(Space::Pair, 0);
            let single = t.allocate(Space::Pair, 0);
            let run = t.allocate_run(Space::Typed, 0, 3);
            t.free(single);
            t.free(run);
            t.check_free_store().expect("sound before the corruption");
            (t, keep, single, run)
        };
        let expect = |t: &SegmentTable, needle: &str| {
            let err = t.check_free_store().expect_err("corruption goes unnoticed");
            assert!(err.contains(needle), "got: {err}");
        };
        // An allocated segment on the singles stack.
        let (mut t, keep, ..) = build();
        t.free.singles.push(keep);
        expect(&t, "is allocated");
        // The same single twice.
        let (mut t, _, single, _) = build();
        t.free.singles.push(single);
        expect(&t, "twice");
        // A run's tail also stacked as a single.
        let (mut t, _, _, run) = build();
        t.free.singles.push(SegIndex(run.0 + 1));
        expect(&t, "twice");
        // A run filed under a longer length than it has.
        let (mut t, _, _, run) = build();
        t.free.runs.clear();
        t.free.runs.insert(4, vec![run]);
        expect(&t, "beyond the table");
        // ... and under a shorter one: a segment goes missing.
        let (mut t, _, _, run) = build();
        t.free.runs.clear();
        t.free.runs.insert(2, vec![run]);
        expect(&t, "do not account for");
        // An emptied list left behind.
        let (mut t, ..) = build();
        t.free.runs.insert(5, Vec::new());
        expect(&t, "holds 0 runs");
    }

    #[test]
    fn whereabouts_follow_allocation_the_flip_and_free() {
        let mut t = SegmentTable::new();
        let single = t.allocate(Space::Pair, 2);
        let run = t.allocate_run(Space::Typed, 253, 3);
        let tail = SegIndex(run.0 + 2);
        assert_eq!(t.whereabouts, [2, 253, 253, 253]);
        assert!(!t.in_from_space(SegIndex(4)), "beyond the table");
        t.check_whereabouts(&[]).expect("generations everywhere");
        // The flip moves heads and tails alike; the information table
        // keeps the generation readable.
        for i in 0..3 {
            t.enter_from_space(SegIndex(run.0 + i));
        }
        assert!(t.in_from_space(run) && t.in_from_space(tail));
        assert!(!t.in_from_space(single));
        let bytes = [run, single, SegIndex(4)].map(|seg| t.whereabouts(seg));
        assert_eq!(bytes, [WHERE_FROM, 2, WHERE_NONE]);
        assert_eq!(t.info(tail).generation, 253);
        t.check_whereabouts(&[run])
            .expect("exactly the run is from-space");
        let err = t
            .check_whereabouts(&[])
            .expect_err("from-space without a cycle");
        assert!(
            err.contains("segment 1 has whereabouts byte 254"),
            "got: {err}"
        );
        let err = t
            .check_whereabouts(&[run, single])
            .expect_err("a missed flip");
        assert!(
            err.contains("segment 0 has whereabouts byte 2"),
            "got: {err}"
        );
        // The reclaim's free clears it, and a reissue writes the new
        // generation: a recycled index never reads from-space.
        t.free(run);
        assert_eq!(t.whereabouts[tail.index()], WHERE_NONE);
        t.check_whereabouts(&[]).expect("free is not-allocated");
        let again = t.allocate_run(Space::Pure, 1, 3);
        assert_eq!(again, run);
        assert_eq!(t.whereabouts[tail.index()], 1);
        t.free(single);
        t.whereabouts[1] = WHERE_NONE;
        let err = t
            .check_whereabouts(&[])
            .expect_err("an allocated segment reads free");
        assert!(
            err.contains("segment 1 has whereabouts byte 255 where 1"),
            "got: {err}"
        );
    }

    #[test]
    #[should_panic(expected = "generation 254 is a reserved whereabouts byte")]
    fn a_reserved_byte_is_not_a_generation() {
        SegmentTable::new().allocate(Space::Pair, WHERE_FROM);
    }

    #[test]
    #[should_panic(expected = "cannot enter the from-space")]
    fn a_free_segment_cannot_enter_the_from_space() {
        let mut t = SegmentTable::new();
        let a = t.allocate(Space::Pair, 0);
        t.free(a);
        t.enter_from_space(a);
    }

    #[test]
    fn the_card_row_is_borrowed_beside_the_whereabouts() {
        let mut t = SegmentTable::new();
        let young = t.allocate(Space::Pair, 0);
        let run = t.allocate_run(Space::Typed, 2, 2);
        let tail = SegIndex(run.0 + 1);
        t.mark_card(t.base_addr(run).add(SEGMENT_WORDS + 9));
        let (row, whereabouts) = t.card_row_and_whereabouts(tail);
        assert_eq!(whereabouts, [0, 2, 2]);
        assert_eq!(row[1], 0);
        // Written in place: no copy to put back.
        row[1] = whereabouts[young.index()];
        row[0] = 1;
        assert_eq!(t.run_cards(run)[CARDS_PER_SEGMENT], 1);
        assert_eq!(t.run_cards(run)[CARDS_PER_SEGMENT + 1], 0);
    }

    #[test]
    fn drain_generation_includes_run_tails() {
        let mut t = SegmentTable::new();
        let head = t.allocate_run(Space::Typed, 2, 3);
        let drained = t.drain_generation(2);
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0], head);
        assert_eq!(t.run_len(head), 3);
    }
}
