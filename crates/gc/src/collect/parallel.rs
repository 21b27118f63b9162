//! The worker side of a collection (`GcConfig::workers > 1`).
//!
//! There is one collector core: [`super::advance`] drives every worker
//! count, and the calling thread runs the *serial* code unchanged. This
//! module adds the two places where a transitive closure is worth spreading
//! over threads, each a *parallel region*: one scoped spawn of `workers`
//! threads, joined before the caller continues.
//!
//! # What runs where
//!
//! * **Calling thread, between regions:** holds the whole `&mut Heap`
//!   and is the serial engine — roots, the guardian blocks, tconc appends,
//!   the finalizer and weak passes call [`super::forward`] and copy into
//!   the heap's own allocation cursors, logged in the to-space log like
//!   any serial copy.
//! * **[`sweep`]** (the `kleene-sweep`: phase 4 and each guardian fixpoint
//!   round's closure, entered from [`super::kleene_sweep`] whenever
//!   [`Scratch::par`] is set): the to-space log and the serial sweep's own
//!   work lists (`Scratch::queue`, `Scratch::parked`) become
//!   [`Unit::Span`]s over `[off, used)`, scanned with the calling thread's
//!   own walker ([`forward_span`]); only the forward differs. No worker
//!   allocates into a cursor segment — workers copy into private regions —
//!   so `used` is frozen for the whole region and an open cursor is simply
//!   re-parked at `used`. Workers chase the closure to its fixpoint
//!   through the shared pool, so one region is one whole `kleene-sweep`.
//! * **[`scan_dirty`]** (phase 3): the calling thread turns the flip's
//!   dirty snapshot ([`remset::drain_entry`], the serial skip rules) into
//!   per-run shards carrying a copy of the run's card bytes; workers walk
//!   them with the shared [`remset::walk_cards`] and hand the refreshed
//!   bytes back. Spans of copied-but-unscanned words are *deferred* to the
//!   sweep, mirroring the serial remset phase, which forwards but never
//!   sweeps.
//! * **[`close_regions`]** syncs the workers' open regions back into the
//!   segment table, once, before the weak pass.
//!
//! # Copy protocol
//!
//! Forwarding is claim-then-copy: a worker CASes [`fwd::BUSY`] into the
//! object's first word (Acquire), copies the body into its private bump
//! region, then publishes the forwarding word with a Release store.
//! Losers of the race spin until the forwarding word appears. Exactly one
//! worker copies each object, which is what makes `pairs_copied`,
//! `objects_copied`, and `words_copied` schedule-independent. A region
//! ends with every claim marker overwritten, so the calling thread's
//! plain-load `forward` never sees one.
//!
//! # Sharing discipline
//!
//! Workers share only:
//!
//! * the segment **table lock** ([`TableCore`]) for segment allocation
//!   and region open/close — never for word access;
//! * the **work pool** (queue + condvar) of scan [`Unit`]s;
//! * read-only views: the from-space bitset and the flip-time
//!   [`Snapshot`] of segment base pointers.
//!
//! Word traffic goes through raw segment base pointers under the
//! disjointness contract documented on `Segment::base_ptr`: every word is
//! either (a) private to the worker that bump-allocated it, (b) part of
//! exactly one scan unit, consumed by exactly one worker, or (c) a
//! from-space object's first word, accessed atomically. Lock order is
//! table → pool; a span produced while closing a region is pushed only
//! after the table lock is dropped.
//!
//! # Counter parity
//!
//! With `workers <= 1` nothing here runs, so the serial counters stay
//! bit-identical (the `counter_parity` regression test). For
//! `workers > 1`, copy counters, every guardian and weak counter, tconc
//! contents and order are schedule-independent and equal to a one-thread
//! collection's; segment counts (`segments_allocated`) and per-phase wall
//! times may differ. [`PhaseTimes::worker_time`] accumulates the workers'
//! region residence time (thread-seconds, not wall time).
//!
//! [`PhaseTimes::worker_time`]: crate::PhaseTimes

use super::remset::{self, CardTracer};
use super::{drain_log, forward_span, ChunkBases, FromSpaceMap, Scratch};
use crate::header::Header;
use crate::heap::{check_acquisition, Heap};
use crate::trace::GcEvent;
use crate::value::{fwd, Value};
use guardians_segments::{SegIndex, SegmentTable, Space, WordAddr, NO_OWNER, SEGMENT_WORDS};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Snapshot: flip-time segment facts, readable without the table lock
// ---------------------------------------------------------------------

/// Flip-time facts about one segment.
#[derive(Copy, Clone)]
struct SnapSeg {
    /// Base of the segment's word storage (null if the index was
    /// unallocated at flip time).
    base: *mut u64,
    space: Space,
    /// Generation at flip time; `u8::MAX` for unallocated indices.
    gen: u8,
}

/// Immutable per-segment table captured at the flip: base pointers,
/// spaces, and generations of every segment that existed then (heads
/// *and* run tails, so large-object sources resolve chunk by chunk).
/// To-space segments are either beyond this snapshot (fresh indices) or
/// on rows left null because the index was free at the flip (segments and
/// runs reissued from the free store): workers reach to-space through the
/// base pointers taken under the table lock when it is allocated, never
/// through these rows. From-space metadata never changes while the
/// collection runs, and segment storage is stable (`Segment` owns its
/// words through a pointer that survives table growth), so reads here need
/// no lock.
struct Snapshot {
    segs: Vec<SnapSeg>,
}

// SAFETY: the snapshot is written once on the main thread before any
// worker exists and read-only afterwards; the base pointers it hands out
// are used under the segment disjointness contract (`Segment::base_ptr`).
unsafe impl Sync for Snapshot {}

impl Snapshot {
    fn capture(heap: &Heap) -> Snapshot {
        let mut segs = vec![
            SnapSeg {
                base: std::ptr::null_mut(),
                space: Space::Pair,
                gen: u8::MAX,
            };
            heap.segs.segments_total()
        ];
        for (seg, info) in heap.segs.iter() {
            segs[seg.index()] = SnapSeg {
                base: heap.segs.base_ptr(seg),
                space: info.space,
                gen: info.generation,
            };
        }
        Snapshot { segs }
    }

    #[inline]
    fn base(&self, seg: SegIndex) -> *mut u64 {
        self.segs[seg.index()].base
    }

    #[inline]
    fn space(&self, seg: SegIndex) -> Space {
        self.segs[seg.index()].space
    }

    /// Flip-time generation, or `u8::MAX` (never "younger" than anything)
    /// for indices beyond the snapshot or free at the flip.
    #[inline]
    fn gen_of(&self, seg: SegIndex) -> u8 {
        self.segs.get(seg.index()).map_or(u8::MAX, |s| s.gen)
    }
}

// ---------------------------------------------------------------------
// Per-worker allocation regions
// ---------------------------------------------------------------------

/// One open bump-allocation region in to-space: a segment privately owned
/// by a worker (its `SegInfo::owner` is set while open), with the live
/// watermark kept here — the table's `used` is synced only when the
/// region closes, so the hot allocation path takes no lock.
struct Region {
    seg: SegIndex,
    base: *mut u64,
    space: Space,
    /// Words bump-allocated so far (the region-local `used`).
    used: usize,
    /// Words already scanned by the owner's self-scan. Invariant: always
    /// advanced *before* the span `[scanned, used)` is walked, so a close
    /// that interrupts a scan pushes only the disjoint remainder.
    scanned: usize,
}

/// A worker's open regions, one per space.
#[derive(Default)]
struct WorkerRegions {
    open: [Option<Region>; 4],
}

// SAFETY: a region's base pointer targets a segment exclusively owned by
// the worker holding this value (enforced by `SegInfo::owner`); handing
// the struct to that one thread cannot alias.
unsafe impl Send for WorkerRegions {}

impl WorkerRegions {
    /// Whether any open region still has unscanned, scannable words.
    fn has_unscanned(&self) -> bool {
        self.open
            .iter()
            .flatten()
            .any(|r| r.space != Space::Pure && r.scanned < r.used)
    }
}

// ---------------------------------------------------------------------
// Scan units: the currency of the work pool
// ---------------------------------------------------------------------

/// One shard of scanning work. Every unit's words are disjoint from every
/// other unit's, and each unit is consumed by exactly one worker — the
/// invariant that makes the plain (non-atomic) word access inside
/// [`scan_unit`] sound.
enum Unit {
    /// The unscanned `words` of a run nobody allocates into: the
    /// suffix of a closed region or a cursor segment; a freshly copied
    /// multi-segment Typed object, whole (pushed only after its copy
    /// completed); a dirty old-generation weak-pair segment, whose cars are
    /// left for the weak pass ([`Scratch::old_weak_dirty`]). The range always
    /// starts at an object boundary (pair- or header-aligned).
    Span {
        bases: ChunkBases,
        space: Space,
        words: Range<usize>,
    },
    /// A dirty old-generation Pair/Typed run (remset shard). `bases` are
    /// frozen run chunk bases, `cards` a copy of the run's card bytes
    /// (refreshed by the walk and written back by the main thread), `gen`
    /// the holder's generation.
    Dirty {
        seg: SegIndex,
        bases: ChunkBases,
        cards: Box<[u8]>,
        gen: u8,
        used: usize,
    },
}

// SAFETY: the pointers inside a unit refer to words no other live unit or
// open region covers (see the type docs); moving the unit to the worker
// that consumes it transfers that exclusive claim.
unsafe impl Send for Unit {}

// ---------------------------------------------------------------------
// Shared state for one parallel region
// ---------------------------------------------------------------------

/// The segment table plus the acquisition budget, guarded by one mutex.
/// Workers take this lock only to open/close regions and allocate
/// large-object runs — never for word traffic.
struct TableCore<'a> {
    segs: &'a mut SegmentTable,
    /// Mirror of [`Heap::acquisitions`]; written back when the region
    /// ends.
    acquisitions: u64,
    limit: Option<u64>,
}

struct WorkPool {
    queue: VecDeque<Unit>,
    /// Workers currently parked in [`next_unit`].
    idle: usize,
    /// Set once all workers are idle with an empty queue: the region's
    /// transitive closure is complete.
    done: bool,
}

struct Shared<'a> {
    table: Mutex<TableCore<'a>>,
    pool: Mutex<WorkPool>,
    cv: Condvar,
    /// Scan units parked for the *next* region (remset mode).
    deferred: Mutex<Vec<Unit>>,
    from_space: &'a FromSpaceMap,
    snap: &'a Snapshot,
    g: u8,
    target: u8,
    trace_on: bool,
    workers: usize,
    /// Remset mode: freshly produced spans go to `deferred` instead of
    /// the pool, and workers skip self-scanning — the serial remset phase
    /// forwards but never sweeps, and the sweep phase picks the spans up.
    defer_spans: bool,
}

/// Per-worker scratch: counters mirroring the [`CollectionReport`](crate::CollectionReport)
/// fields the copy loop touches, merged by the main thread when the
/// region ends.
#[derive(Default)]
struct WorkerCtx {
    id: u8,
    regions: WorkerRegions,
    pairs_copied: u64,
    objects_copied: u64,
    words_copied: u64,
    pure_words_skipped: u64,
    segments_allocated: u64,
    /// Per-source-generation copy accounting (only when tracing).
    copied_per_gen: Vec<u64>,
    /// `SegmentsAcquired` counts, spliced into the trace at region end.
    acquired_events: Vec<u64>,
    /// Weak-pair to-space segments this worker closed.
    weak_closed: Vec<SegIndex>,
    /// Walked dirty shards: `(run, refreshed card bytes, still dirty)`.
    dirty_done: Vec<DirtyDone>,
    dirty_cards_scanned: u64,
    /// Region residence time (includes idle waits at the pool).
    busy: Duration,
}

/// A walked remset shard on its way back to the segment table.
type DirtyDone = (SegIndex, Box<[u8]>, bool);

/// A worker's [`CardTracer`]: flip-time generations from the snapshot
/// (pre-collection pointer values can only target from-space or
/// uncollected segments, both captured there with their stable
/// generations) and claim-then-copy forwarding.
struct ParTracer<'a, 'b> {
    sh: &'a Shared<'b>,
    ctx: &'a mut WorkerCtx,
}

impl CardTracer for ParTracer<'_, '_> {
    fn in_from(&self, seg: SegIndex) -> bool {
        self.sh.from_space.contains(seg)
    }
    fn generation_of(&self, seg: SegIndex) -> u8 {
        self.sh.snap.gen_of(seg)
    }
    fn forward(&mut self, v: Value) -> Value {
        forward_mt(self.sh, self.ctx, v)
    }
}

/// Mirrors [`Heap::note_acquisitions`] through the table lock, with the
/// same fault-injection tripwire: crossing the configured limit inside
/// the collector means `try_collect`'s worst-case reservation was
/// unsound, racing workers or not.
fn note_acquisitions_mt(core: &mut TableCore<'_>, ctx: &mut WorkerCtx, n: u64) {
    check_acquisition(core.acquisitions, n, core.limit);
    core.acquisitions += n;
    ctx.acquired_events.push(n);
}

// ---------------------------------------------------------------------
// The worker loop
// ---------------------------------------------------------------------

fn worker_loop(sh: &Shared<'_>, ctx: &mut WorkerCtx) {
    let t0 = Instant::now();
    loop {
        if !sh.defer_spans {
            self_scan(sh, ctx);
        }
        match next_unit(sh) {
            Some(unit) => scan_unit(sh, ctx, unit),
            None => break,
        }
    }
    ctx.busy += t0.elapsed();
}

/// Pops the next unit, or parks until one appears. Returns `None` when
/// every worker is parked on an empty queue — at that point no worker can
/// produce more work, so the region's closure is complete.
fn next_unit(sh: &Shared<'_>) -> Option<Unit> {
    let mut pool = sh.pool.lock().unwrap();
    loop {
        if let Some(unit) = pool.queue.pop_front() {
            return Some(unit);
        }
        if pool.done {
            return None;
        }
        pool.idle += 1;
        if pool.idle == sh.workers {
            pool.done = true;
            sh.cv.notify_all();
            return None;
        }
        loop {
            pool = sh.cv.wait(pool).unwrap();
            if pool.done {
                return None;
            }
            if !pool.queue.is_empty() {
                break;
            }
        }
        pool.idle -= 1;
    }
}

fn push_scan_unit(sh: &Shared<'_>, unit: Unit) {
    if sh.defer_spans {
        sh.deferred.lock().unwrap().push(unit);
    } else {
        sh.pool.lock().unwrap().queue.push_back(unit);
        sh.cv.notify_one();
    }
}

/// Scans the owner's open regions to a local fixpoint. The watermark is
/// advanced *before* each span is walked so that a region closed mid-scan
/// (the walk itself can trigger the close by copying into a full region)
/// pushes only the disjoint remainder.
fn self_scan(sh: &Shared<'_>, ctx: &mut WorkerCtx) {
    loop {
        let mut progressed = false;
        for slot in 0..4 {
            let (base, space, words) = {
                let Some(r) = ctx.regions.open[slot].as_mut() else {
                    continue;
                };
                if r.space == Space::Pure || r.scanned >= r.used {
                    continue;
                }
                let words = r.scanned..r.used;
                r.scanned = r.used;
                (r.base, r.space, words)
            };
            // SAFETY: as in `scan_unit`; an open region's words are its
            // owner's alone.
            unsafe { forward_span(&mut ParTracer { sh, ctx }, space, &[base], words) };
            progressed = true;
        }
        if !progressed {
            return;
        }
    }
}

fn scan_unit(sh: &Shared<'_>, ctx: &mut WorkerCtx, unit: Unit) {
    let mut t = ParTracer { sh, ctx };
    // SAFETY (both arms): the bases are the run's frozen chunk bases and the
    // range ends at its watermark; the words are covered by exactly this
    // unit (a large run's copy completed before its unit was pushed, and the
    // pool hand-off makes those writes visible), and `forward_mt` touches
    // only from-space objects and this worker's private to-space regions.
    match unit {
        Unit::Span {
            bases,
            space,
            words,
        } => unsafe { forward_span(&mut t, space, &bases, words) },
        Unit::Dirty {
            seg,
            bases,
            mut cards,
            gen,
            used,
        } => {
            let (visited, still_dirty) = unsafe {
                remset::walk_cards(&mut t, &bases, &mut cards, used, gen, sh.g, sh.target)
            };
            ctx.dirty_cards_scanned += visited;
            ctx.dirty_done.push((seg, cards, still_dirty));
        }
    }
}

// ---------------------------------------------------------------------
// Multi-threaded forwarding: claim, copy, publish
// ---------------------------------------------------------------------

/// Forwards one from-space object under the claim-then-copy protocol.
/// The caller has checked `v.is_ptr()` and from-space membership.
fn forward_mt(sh: &Shared<'_>, ctx: &mut WorkerCtx, v: Value) -> Value {
    let addr = v.addr();
    let seg = addr.seg();
    debug_assert!(sh.from_space.contains(seg));
    let src_base = sh.snap.base(seg);
    // SAFETY: a from-space segment is in the snapshot with a non-null,
    // stable base; the first word is only ever accessed atomically while
    // workers run.
    let word0 = unsafe { AtomicU64::from_ptr(src_base.add(addr.offset())) };
    let mut first = word0.load(Ordering::Acquire);
    loop {
        if let Some(new) = fwd::decode(first) {
            return v.retag_at(new);
        }
        if first == fwd::BUSY {
            // Another worker is mid-copy: wait for its publishing store.
            std::hint::spin_loop();
            first = word0.load(Ordering::Acquire);
            continue;
        }
        match word0.compare_exchange_weak(first, fwd::BUSY, Ordering::Acquire, Ordering::Acquire) {
            Ok(_) => break,
            Err(current) => first = current,
        }
    }
    // This worker won the claim: it alone copies the object.
    let space = sh.snap.space(seg);
    let total = if v.is_pair_ptr() {
        2
    } else {
        Header::decode(first)
            .unwrap_or_else(|| panic!("corrupt header while forwarding {v:?}"))
            .total_words()
    };
    let to = if total > SEGMENT_WORDS {
        copy_large(sh, ctx, seg, first, space, total)
    } else {
        let (to, dst) = alloc_small_mt(sh, ctx, space, total);
        // SAFETY: `dst..dst+total` was just bump-reserved in this
        // worker's private region; the source words `1..total` are stable
        // from-space memory nobody writes during the collection (word 0,
        // which holds the claim marker in memory, is written from the
        // atomically loaded `first` instead). Small objects never span
        // segments, so one contiguous copy suffices.
        unsafe {
            dst.write(first);
            std::ptr::copy_nonoverlapping(src_base.add(addr.offset() + 1), dst.add(1), total - 1);
        }
        to
    };
    if v.is_pair_ptr() {
        ctx.pairs_copied += 1;
    } else {
        ctx.objects_copied += 1;
    }
    ctx.words_copied += total as u64;
    if sh.trace_on {
        ctx.copied_per_gen[sh.snap.gen_of(seg) as usize] += total as u64;
    }
    word0.store(fwd::encode(to), Ordering::Release);
    v.retag_at(to)
}

/// Copies a multi-segment object: the run is allocated under the table
/// lock (a free run reissued, zeroed, if the table has one long enough —
/// the same `allocate_run` the calling thread uses), the body copied
/// chunk-wise from the snapshot's source-run bases, and — only after the
/// copy completes — queued for scanning.
fn copy_large(
    sh: &Shared<'_>,
    ctx: &mut WorkerCtx,
    src_head: SegIndex,
    first: u64,
    space: Space,
    total: usize,
) -> WordAddr {
    let nsegs = total.div_ceil(SEGMENT_WORDS);
    let (head, dst_bases) = {
        let mut core = sh.table.lock().unwrap();
        note_acquisitions_mt(&mut core, ctx, nsegs as u64);
        let head = core.segs.allocate_run(space, sh.target, nsegs);
        core.segs.info_mut(head).used = total as u32;
        (head, ChunkBases::of(core.segs, head))
    };
    ctx.segments_allocated += nsegs as u64;
    // SAFETY: the destination run is exclusively this worker's until the
    // forwarding word publishes; the source run's tails are in the
    // snapshot (the flip captures heads and tails). Word 0 holds the
    // claim marker in memory, so the loaded `first` is written instead.
    unsafe { dst_bases[0].write(first) };
    let mut pos = 1;
    while pos < total {
        let chunk = pos / SEGMENT_WORDS;
        let off = pos % SEGMENT_WORDS;
        let n = (SEGMENT_WORDS - off).min(total - pos);
        let src = sh.snap.base(SegIndex(src_head.0 + chunk as u32));
        // SAFETY: as above; both runs have `nsegs` chunks.
        unsafe { std::ptr::copy_nonoverlapping(src.add(off), dst_bases[chunk].add(off), n) };
        pos += n;
    }
    match space {
        Space::Typed => push_scan_unit(
            sh,
            Unit::Span {
                bases: dst_bases,
                space,
                words: 0..total,
            },
        ),
        Space::Pure => ctx.pure_words_skipped += total as u64,
        Space::Pair | Space::WeakPair => unreachable!("pairs are never larger than a segment"),
    }
    WordAddr::new(head, 0)
}

/// Bump-allocates `words` in the worker's region for `space`, opening a
/// fresh region (and closing the full one) under the table lock when
/// needed. Returns the address and a direct pointer to it.
fn alloc_small_mt(
    sh: &Shared<'_>,
    ctx: &mut WorkerCtx,
    space: Space,
    words: usize,
) -> (WordAddr, *mut u64) {
    let slot = space.index();
    if let Some(r) = ctx.regions.open[slot].as_mut() {
        if r.used + words <= SEGMENT_WORDS {
            let off = r.used;
            r.used += words;
            // SAFETY: offset stays within the region's segment.
            return (WordAddr::new(r.seg, off), unsafe { r.base.add(off) });
        }
    }
    // Close the full region and open a fresh one, both under the table
    // lock; the closed region's unscanned span is pushed only after the
    // lock is dropped (lock order: table → pool, never nested).
    let old = ctx.regions.open[slot].take();
    let mut closed_span = None;
    let region = {
        let mut core = sh.table.lock().unwrap();
        if let Some(r) = old {
            let (span, weak, pure) = close_region(core.segs, r);
            closed_span = span;
            if let Some(seg) = weak {
                ctx.weak_closed.push(seg);
            }
            ctx.pure_words_skipped += pure;
        }
        note_acquisitions_mt(&mut core, ctx, 1);
        let seg = core.segs.allocate(space, sh.target);
        core.segs.info_mut(seg).owner = ctx.id;
        Region {
            seg,
            base: core.segs.base_ptr(seg),
            space,
            used: words,
            scanned: 0,
        }
    };
    ctx.segments_allocated += 1;
    let (seg, base) = (region.seg, region.base);
    ctx.regions.open[slot] = Some(region);
    if let Some(unit) = closed_span {
        push_scan_unit(sh, unit);
    }
    (WordAddr::new(seg, 0), base)
}

/// Closes a region: syncs the final watermark into the segment table,
/// clears the ownership mark, and classifies the leftovers. Returns
/// `(unscanned span, weak segment to record, pure words skipped)`.
fn close_region(segs: &mut SegmentTable, r: Region) -> (Option<Unit>, Option<SegIndex>, u64) {
    let info = segs.info_mut(r.seg);
    info.used = r.used as u32;
    info.owner = NO_OWNER;
    if r.space == Space::Pure {
        // Pointer-free: all of it is scan work the space segregation
        // saved (counted once per region, matching the serial skip).
        return (None, None, r.used as u64);
    }
    let weak = (r.space == Space::WeakPair).then_some(r.seg);
    let span = (r.scanned < r.used).then_some(Unit::Span {
        bases: ChunkBases::One([r.base]),
        space: r.space,
        words: r.scanned..r.used,
    });
    (span, weak, 0)
}

// ---------------------------------------------------------------------
// Parallel regions: spawn, drain, merge
// ---------------------------------------------------------------------

/// The worker-side state of one collection ([`Scratch::par`]): what
/// persists across its parallel regions.
pub(crate) struct Par {
    snap: Snapshot,
    /// One set of open regions per worker, kept across regions.
    regions: Vec<WorkerRegions>,
    /// Scan units [`scan_dirty`] deferred to the next [`sweep`].
    pending: Vec<Unit>,
}

impl Par {
    /// Captures the segment snapshot; call right after the flip.
    pub(crate) fn new(heap: &Heap) -> Par {
        Par {
            snap: Snapshot::capture(heap),
            regions: (0..heap.config.workers)
                .map(|_| WorkerRegions::default())
                .collect(),
            pending: Vec::new(),
        }
    }
}

/// Runs one parallel region: seeds the pool with `initial`, spawns the
/// workers, and merges their scratch back into the heap and report.
/// Returns the remset shards the workers walked.
fn run_region(
    heap: &mut Heap,
    s: &mut Scratch,
    initial: Vec<Unit>,
    defer_spans: bool,
) -> Vec<DirtyDone> {
    let par = s
        .par
        .as_mut()
        .expect("a parallel region needs Scratch::par");
    // Fast path: nothing queued and (in sweep mode) nothing unscanned in
    // any region — spawning would be pure overhead.
    if initial.is_empty() && (defer_spans || !par.regions.iter().any(WorkerRegions::has_unscanned))
    {
        return Vec::new();
    }
    let gens = heap.config.generations as usize;
    let mut ctxs: Vec<WorkerCtx> = par
        .regions
        .drain(..)
        .enumerate()
        .map(|(id, regions)| WorkerCtx {
            id: id as u8,
            regions,
            copied_per_gen: vec![0; gens],
            ..WorkerCtx::default()
        })
        .collect();
    let (acquisitions, deferred) = {
        let shared = Shared {
            table: Mutex::new(TableCore {
                segs: &mut heap.segs,
                acquisitions: heap.acquisitions,
                limit: heap.acquisition_fault,
            }),
            pool: Mutex::new(WorkPool {
                queue: initial.into(),
                idle: 0,
                done: false,
            }),
            cv: Condvar::new(),
            deferred: Mutex::new(Vec::new()),
            from_space: &s.from_space,
            snap: &par.snap,
            g: s.g,
            target: s.target,
            trace_on: s.trace_on,
            workers: ctxs.len(),
            defer_spans,
        };
        std::thread::scope(|scope| {
            for ctx in ctxs.iter_mut() {
                let sh = &shared;
                scope.spawn(move || worker_loop(sh, ctx));
            }
        });
        // Ends the `&mut heap.segs` borrow held inside the table mutex.
        (
            shared.table.into_inner().unwrap().acquisitions,
            shared.deferred.into_inner().unwrap(),
        )
    };
    heap.acquisitions = acquisitions;
    par.pending.extend(deferred);
    let mut dirty_done = Vec::new();
    for mut ctx in ctxs {
        s.report.pairs_copied += ctx.pairs_copied;
        s.report.objects_copied += ctx.objects_copied;
        s.report.words_copied += ctx.words_copied;
        s.report.pure_words_skipped += ctx.pure_words_skipped;
        s.report.segments_allocated += ctx.segments_allocated;
        s.report.dirty_cards_scanned += ctx.dirty_cards_scanned;
        s.report.phases.worker_time += ctx.busy;
        if s.trace_on {
            for (g, words) in ctx.copied_per_gen.iter().enumerate() {
                s.copied_per_gen[g] += words;
            }
        }
        for count in ctx.acquired_events.drain(..) {
            heap.trace_emit(|| GcEvent::SegmentsAcquired { count });
        }
        s.weak_tospace.append(&mut ctx.weak_closed);
        dirty_done.append(&mut ctx.dirty_done);
        par.regions.push(ctx.regions);
    }
    dirty_done
}

// ---------------------------------------------------------------------
// The two entry points, and the region close
// ---------------------------------------------------------------------

/// The `kleene-sweep` as one parallel region. Everything the serial sweep
/// would scan — freshly logged segments, queued ones, parked cursors that
/// grew — is handed out as a unit over its unscanned words `[off, used)`.
/// Workers copy only into their own regions, so a cursor segment's `used`
/// cannot move while they run: an open cursor is re-parked at `used` and
/// the next sweep sees whatever the calling thread copies there later.
pub(crate) fn sweep(heap: &mut Heap, s: &mut Scratch) {
    drain_log(heap, s);
    let mut units = std::mem::take(&mut s.par.as_mut().expect("checked by the caller").pending);
    let listed: Vec<(SegIndex, usize)> = s.queue.drain(..).chain(s.parked.drain(..)).collect();
    for (seg, off) in listed {
        let info = heap.segs.info(seg);
        let (space, used) = (info.space, info.used as usize);
        if info.open_cursor {
            s.parked.push((seg, used));
        }
        if off >= used {
            continue;
        }
        if space == Space::Pure {
            s.report.pure_words_skipped += (used - off) as u64;
            continue;
        }
        units.push(Unit::Span {
            bases: ChunkBases::of(&heap.segs, seg),
            space,
            words: off..used,
        });
    }
    let walked = run_region(heap, s, units, false);
    debug_assert!(walked.is_empty() && heap.tospace_log_is_empty());
}

/// Phase 3 with workers: turns the flip's dirty snapshot (serial skip
/// rules) into remset shards, walks them in a region whose copies are left
/// unswept, and writes the refreshed card bytes back.
pub(crate) fn scan_dirty(heap: &mut Heap, s: &mut Scratch) {
    let mut units = Vec::new();
    for seg in std::mem::take(&mut s.remset_pending) {
        let Some((space, gen, used)) = remset::drain_entry(&mut heap.segs, s.g, seg) else {
            continue;
        };
        s.report.dirty_segments_scanned += 1;
        let bases = ChunkBases::of(&heap.segs, seg);
        if space == Space::WeakPair {
            // Cdrs only; the weak pass settles the cars.
            units.push(Unit::Span {
                bases,
                space,
                words: 0..used,
            });
            s.old_weak_dirty.push(seg);
        } else {
            units.push(Unit::Dirty {
                seg,
                bases,
                cards: heap.segs.run_cards(seg).into(),
                gen,
                used,
            });
        }
    }
    for (seg, cards, still_dirty) in run_region(heap, s, units, true) {
        heap.segs.run_cards_mut(seg).copy_from_slice(&cards);
        if still_dirty {
            heap.segs.flag_dirty(seg);
        }
    }
}

/// Closes the workers' open regions: syncs their watermarks into the
/// segment table, clears the ownership marks and hands the weak pass their
/// weak segments, leaving the heap region-free and verifier-clean. Called
/// once, after the last sweep, so nothing closed here has unscanned words.
pub(crate) fn close_regions(heap: &mut Heap, s: &mut Scratch) {
    let Some(par) = s.par.as_mut() else { return };
    debug_assert!(par.pending.is_empty(), "scan units left after a sweep");
    let open = par.regions.iter_mut().flat_map(|w| w.open.iter_mut());
    for r in open.filter_map(Option::take) {
        let (span, weak, pure) = close_region(&mut heap.segs, r);
        debug_assert!(span.is_none(), "region closed with unscanned words");
        s.weak_tospace.extend(weak);
        s.report.pure_words_skipped += pure;
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GcConfig;
    use crate::heap::Heap;
    use crate::value::Value;

    fn heap_with_workers(workers: usize) -> Heap {
        Heap::new(GcConfig {
            workers,
            ..GcConfig::new()
        })
    }

    /// Builds a linked list of `n` fixnums, interleaved with vectors and
    /// strings so all four spaces see traffic.
    fn build_mixed_graph(h: &mut Heap, n: i64) -> Value {
        let mut list = Value::NIL;
        for i in 0..n {
            let cell = if i % 5 == 0 {
                let s = h.make_string("spine");
                h.make_vector(3, s)
            } else {
                Value::fixnum(i)
            };
            list = h.cons(cell, list);
        }
        list
    }

    fn check_mixed_graph(h: &Heap, mut list: Value, n: i64) {
        for i in (0..n).rev() {
            let head = h.car(list);
            if i % 5 == 0 {
                assert!(h.is_vector(head), "element {i}");
                assert_eq!(h.string_value(h.vector_ref(head, 0)), "spine");
            } else {
                assert_eq!(head, Value::fixnum(i), "element {i}");
            }
            list = h.cdr(list);
        }
        assert!(list.is_nil());
    }

    #[test]
    fn parallel_collection_preserves_a_mixed_graph() {
        for workers in [2, 4] {
            let mut h = heap_with_workers(workers);
            let list = build_mixed_graph(&mut h, 60);
            let root = h.root(list);
            h.collect(0);
            h.verify().expect("heap valid after parallel collection");
            check_mixed_graph(&h, root.get(), 60);
            // A second collection exercises the remembered set (the list
            // now lives in generation 1 and gets mutated).
            let young = h.cons(Value::fixnum(-1), root.get());
            root.set(young);
            h.collect(0);
            h.verify().expect("heap valid after second collection");
            assert_eq!(h.car(root.get()), Value::fixnum(-1));
            check_mixed_graph(&h, h.cdr(root.get()), 60);
        }
    }

    /// Every schedule-independent report field and the tconc drain order,
    /// on a heap that takes each main-thread path of the guardian pass:
    /// a held and a finalized agent entry (block 3's extra sweep), a
    /// guardian registered with a guardian (two fixpoint rounds), a guarded
    /// weak pair, and a large run reachable only through a resurrected pair.
    #[test]
    fn parallel_counters_match_the_serial_engine() {
        let run = |workers: usize| {
            let mut h = heap_with_workers(workers);
            let list = build_mixed_graph(&mut h, 40);
            let root = h.root(list);
            let g = h.make_guardian();
            let dead = h.cons(Value::fixnum(7), Value::NIL);
            g.register(&mut h, dead);
            // One weak car to forward, one (to a guarded object) likewise,
            // one to break.
            for referent in [h.cdr(root.get()), dead, h.cons(Value::NIL, Value::NIL)] {
                let weak = h.weak_cons(referent, Value::NIL);
                std::mem::forget(h.root(weak));
            }
            let watched = h.cons(Value::fixnum(6), Value::NIL);
            h.register_for_finalization(watched, 77);
            for (tag, rooted) in [(8, true), (9, false)] {
                let obj = h.cons(Value::fixnum(tag), Value::NIL);
                let part = h.cons(Value::fixnum(tag * 10), Value::NIL);
                let agent = h.make_vector(2, part);
                g.register_with_agent(&mut h, obj, agent);
                if rooted {
                    std::mem::forget(h.root(obj));
                }
            }
            let inner = h.make_guardian();
            let elem = h.cons(Value::fixnum(10), Value::NIL);
            let big = h.make_vector(700, elem);
            let holder = h.cons(big, Value::NIL);
            inner.register(&mut h, holder);
            let guarded_weak = h.weak_cons(h.cdr(root.get()), Value::NIL);
            inner.register(&mut h, guarded_weak);
            g.register(&mut h, inner.tconc());
            drop(inner);
            let mut r = h.collect(0).clone();
            h.verify().expect("valid heap");
            // Drain order, each value reduced to a schedule-independent tag.
            let tag = |h: &Heap, v: Value| match v {
                v if h.is_vector(v) => 1000 + h.vector_len(v) as i64,
                v if h.car(v).is_fixnum() => h.car(v).as_fixnum(),
                v if h.is_vector(h.car(v)) => h.vector_len(h.car(v)) as i64,
                v if h.car(h.car(v)).is_fixnum() => 100 + h.car(h.car(v)).as_fixnum(),
                _ => -1,
            };
            let mut order = Vec::new();
            while let Some(v) = g.poll(&mut h) {
                order.push(tag(&h, v));
                if order.len() == 3 {
                    let inner = crate::Guardian::from_tconc(&mut h, v);
                    while let Some(v) = inner.poll(&mut h) {
                        order.push(tag(&h, v));
                    }
                }
            }
            (r.segments_allocated, r.duration, r.phases) = Default::default();
            (r, order)
        };
        let serial = run(1);
        assert_eq!(
            serial.0.guardian_loop_iterations, 3,
            "two rounds, then the exit"
        );
        assert_eq!(serial.0.guardian_entries_held, 1);
        assert_eq!(serial.0.finalized_ids, [77]);
        assert_eq!(serial.0.weak_cars_forwarded, 3);
        assert_eq!(serial.0.weak_cars_broken, 1);
        assert_eq!(serial.1, [7, 1002, -1, 700, 138]);
        for workers in [2, 4] {
            assert_eq!(run(workers), serial, "{workers} workers");
        }
    }

    /// A worker copies a surviving large Typed object into a run *reissued*
    /// from the free store, at indices the flip-time snapshot holds as
    /// null / `u8::MAX` rows (free at capture), and the guardian pass
    /// resurrects a second one on the calling thread: same report, same
    /// drain order and same addresses as the serial driver.
    #[test]
    fn workers_copy_a_large_run_into_a_reissued_one() {
        let run = |workers: usize| {
            let mut h = heap_with_workers(workers);
            // Five dead 2-segment vectors leave five free runs of 2; the
            // first pair segment takes one apart, the two large vectors
            // below take one each, two are still free at the flip.
            for _ in 0..5 {
                h.make_vector(700, Value::NIL);
            }
            h.collect(0);
            let elem = h.cons(Value::fixnum(5), Value::NIL);
            let big = h.make_vector(700, elem);
            // Reachable only through a pair: the calling thread copies the
            // pair with the roots, a worker finds `big` scanning it.
            let holder = h.cons(big, Value::NIL);
            let root = h.root(holder);
            let g = h.make_guardian();
            for dead in [
                h.cons(Value::fixnum(7), Value::NIL),
                h.make_vector(600, elem),
                h.cons(Value::fixnum(8), Value::NIL),
            ] {
                g.register(&mut h, dead);
            }
            let table_at_flip = h.segs.segments_total();
            let mut r = h.collect(0).clone();
            h.verify().expect("valid heap");
            let big = h.car(root.get());
            assert!(
                big.addr().seg().index() + 2 <= table_at_flip,
                "the copy of the large vector was not made in a reissued run"
            );
            assert_eq!(h.vector_len(big), 700);
            assert_eq!(h.car(h.vector_ref(big, 699)), Value::fixnum(5));
            let mut order = Vec::new();
            while let Some(v) = g.poll(&mut h) {
                order.push(if h.is_vector(v) {
                    assert_eq!(h.car(h.vector_ref(v, 599)), Value::fixnum(5));
                    1000 + h.vector_len(v) as i64
                } else {
                    h.car(v).as_fixnum()
                });
            }
            (r.segments_allocated, r.duration, r.phases) = Default::default();
            (r, order, big.addr().seg())
        };
        let serial = run(1);
        assert_eq!(serial.1, [7, 1600, 8]);
        for workers in [2, 4] {
            assert_eq!(run(workers), serial, "{workers} workers");
        }
    }

    #[test]
    fn weak_pairs_break_and_forward_in_parallel() {
        for workers in [2, 4] {
            let mut h = heap_with_workers(workers);
            let live = h.cons(Value::fixnum(1), Value::NIL);
            let dead = h.cons(Value::fixnum(2), Value::NIL);
            let w_live = h.weak_cons(live, Value::NIL);
            let w_dead = h.weak_cons(dead, Value::NIL);
            let _r1 = h.root(live);
            let r2 = h.root(w_live);
            let r3 = h.root(w_dead);
            let report = h.collect(0).clone();
            h.verify().expect("valid heap");
            assert_eq!(report.weak_cars_broken, 1);
            assert_eq!(report.weak_cars_forwarded, 1);
            assert_eq!(h.car(r3.get()), Value::FALSE, "dead referent broken");
            assert_eq!(h.car(h.car(r2.get())), Value::fixnum(1), "live kept");
        }
    }

    #[test]
    fn guardian_order_is_registration_order_across_worker_counts() {
        let order = |workers: usize| {
            let mut h = heap_with_workers(workers);
            let g = h.make_guardian();
            for i in 0..12 {
                let obj = h.cons(Value::fixnum(i), Value::NIL);
                g.register(&mut h, obj);
            }
            h.collect(0);
            h.verify().expect("valid heap");
            let mut seen = Vec::new();
            while let Some(v) = g.poll(&mut h) {
                seen.push(h.car(v).as_fixnum());
            }
            seen
        };
        let expected: Vec<i64> = (0..12).collect();
        assert_eq!(order(1), expected);
        assert_eq!(order(2), expected);
        assert_eq!(order(4), expected);
    }

    #[test]
    fn large_objects_survive_parallel_collection() {
        for workers in [2, 4] {
            let mut h = heap_with_workers(workers);
            // A vector larger than one segment forces the multi-segment
            // Run path; a big string exercises the pure-run path.
            let elem = h.cons(Value::fixnum(9), Value::NIL);
            let big = h.make_vector(700, elem);
            let text = "x".repeat(5000);
            let s = h.make_string(&text);
            let r1 = h.root(big);
            let r2 = h.root(s);
            h.collect(0);
            h.verify().expect("valid heap");
            assert_eq!(h.vector_len(r1.get()), 700);
            assert_eq!(h.car(h.vector_ref(r1.get(), 699)), Value::fixnum(9));
            assert_eq!(h.string_value(r2.get()).len(), 5000);
        }
    }

    #[test]
    fn worker_time_is_recorded_and_excluded_from_total() {
        let mut h = heap_with_workers(4);
        let list = build_mixed_graph(&mut h, 400);
        let _root = h.root(list);
        let report = h.collect(0).clone();
        // Phase times (the wall-clock breakdown) never include the
        // workers' thread-seconds.
        let wall = report.phases.flip
            + report.phases.roots
            + report.phases.remset
            + report.phases.sweep
            + report.phases.guardian
            + report.phases.finalizer
            + report.phases.weak
            + report.phases.reclaim;
        assert_eq!(report.phases.total(), wall);
    }

    #[test]
    fn repeated_parallel_collections_stay_stable() {
        let mut h = heap_with_workers(3);
        let roots = h.root_vec();
        for round in 0..6 {
            for i in 0..30 {
                let p = h.cons(Value::fixnum(round * 100 + i), Value::NIL);
                if i % 3 == 0 {
                    roots.push(p);
                }
            }
            let gen = (round % 2) as u8;
            h.collect(gen);
            h.verify().expect("valid heap each round");
        }
        assert!(h.collection_count() >= 6);
    }
}
