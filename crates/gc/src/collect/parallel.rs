//! The parallel copy/scan engine (`GcConfig::workers > 1`).
//!
//! The serial engine in [`super`] is a single-threaded Cheney loop; this
//! module runs the same collection as a sequence of *parallel regions*.
//! Inside a region, `workers` scoped threads run the copy/scan loop over
//! work-stealing chunks; between regions the main thread holds the whole
//! `&mut Heap` and runs the order-sensitive logic (root forwarding, the
//! guardian blocks, finalizers) exactly as the serial engine does. The
//! phase structure — and therefore the paper's §4 guardian semantics,
//! including the weak-after-guardian ordering — is unchanged; only the
//! transitive reachability closures inside each phase are parallel.
//!
//! # What runs where
//!
//! * **Remset**: the main thread drains the dirty index
//!   ([`remset::drain_entry`], the serial skip rules) into per-run shard
//!   units carrying a copy of the run's card bytes; workers walk them
//!   with the shared [`remset::walk_cards`] and hand the refreshed bytes
//!   back. Spans of copied-but-unscanned to-space words are *deferred*
//!   to the sweep, mirroring the serial remset phase which forwards but
//!   never sweeps.
//! * **Sweep**: workers drain the deferred spans and then chase the
//!   closure to fixpoint through the shared work pool.
//! * **Guardians**: blocks 1–3 run on the main thread in protected-list
//!   order, so entries are partitioned, finalized, and appended to their
//!   tconcs in *registration order* — the deterministic merge that keeps
//!   tconc contents identical across worker counts. The reachability
//!   closure after each fixpoint round (the serial engine's
//!   `kleene-sweep`) runs as a parallel region; the round barrier
//!   preserves the paper's ordering.
//! * **Weak pass**: segment-sharded over the same unit pool discipline,
//!   read-mostly (no copying can happen there).
//!
//! # Copy protocol
//!
//! Forwarding is claim-then-copy: a worker CASes [`fwd::BUSY`] into the
//! object's first word (Acquire), copies the body into its private bump
//! region, then publishes the forwarding word with a Release store.
//! Losers of the race spin until the forwarding word appears. Exactly one
//! worker copies each object, which is what makes `pairs_copied`,
//! `objects_copied`, and `words_copied` schedule-independent (and equal
//! to the serial engine's).
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
//! `workers <= 1` never enters this module, so the serial engine's
//! counters stay bit-identical (the `counter_parity` regression test).
//! For `workers > 1`, copy counters, guardian counters, tconc contents
//! and order, and weak `broken`/`forwarded` counts are
//! schedule-independent and equal to the serial engine's; segment counts
//! (`segments_allocated`), `weak_pairs_scanned` coverage in the ablation
//! mode, and per-phase wall times may differ. [`PhaseTimes::worker_time`]
//! accumulates the workers' region residence time (thread-seconds, not
//! wall time).
//!
//! [`PhaseTimes::worker_time`]: crate::PhaseTimes

use super::remset::{self, CardTracer};
use super::weak_pass::points_younger;
use super::{
    begin_report, emit_end, finalizer_pass, flip, forwarded_p, get_fwd, lap, reclaim, FromSpaceMap,
};
use crate::header::Header;
use crate::heap::{GuardEntry, Heap};
use crate::stats::CollectionReport;
use crate::trace::{GcEvent, GcPhase};
use crate::value::{fwd, Value};
use guardians_segments::{SegIndex, SegmentTable, Space, WordAddr, NO_OWNER, SEGMENT_WORDS};
use std::collections::VecDeque;
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
/// Segments created during the collection are beyond this snapshot;
/// from-space metadata never changes while the collection runs, and
/// segment storage is stable (`Segment` owns its words through a pointer
/// that survives table growth), so reads here need no lock.
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
    /// for indices beyond the snapshot.
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

/// A worker's open regions, one per space. Worker 0's doubles as the main
/// thread's allocation state between regions.
struct WorkerRegions {
    open: [Option<Region>; 4],
}

// SAFETY: a region's base pointer targets a segment exclusively owned by
// the worker holding this value (enforced by `SegInfo::owner`); handing
// the struct to that one thread cannot alias.
unsafe impl Send for WorkerRegions {}

impl WorkerRegions {
    fn new() -> WorkerRegions {
        WorkerRegions {
            open: [None, None, None, None],
        }
    }

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
    /// The unscanned suffix `[lo, hi)` of a closed to-space region.
    /// `lo` is always an object boundary (pair- or header-aligned).
    Span {
        base: *mut u64,
        space: Space,
        lo: usize,
        hi: usize,
    },
    /// A freshly copied multi-segment Typed object; pushed only after its
    /// copy completed. One base pointer per segment of the run.
    Run {
        bases: Box<[*mut u64]>,
        total: usize,
    },
    /// A dirty old-generation Pair/Typed run (remset shard). `bases` are
    /// frozen run chunk bases, `cards` a copy of the run's card bytes
    /// (refreshed by the walk and written back by the main thread), `gen`
    /// the holder's generation.
    Dirty {
        seg: SegIndex,
        bases: Box<[*mut u64]>,
        cards: Box<[u8]>,
        gen: u8,
        used: usize,
    },
    /// A dirty old-generation weak-pair segment: cdrs (odd offsets) are
    /// traced here, cars are left for the weak pass (which receives the
    /// segment index through [`ParState::old_weak_dirty`]).
    DirtyWeak { base: *mut u64, used: usize },
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

/// Per-worker scratch: counters mirroring the [`CollectionReport`]
/// fields the copy loop touches, merged by the main thread when the
/// region ends.
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

impl WorkerCtx {
    fn new(id: u8, regions: WorkerRegions, gens: usize) -> WorkerCtx {
        WorkerCtx {
            id,
            regions,
            pairs_copied: 0,
            objects_copied: 0,
            words_copied: 0,
            pure_words_skipped: 0,
            segments_allocated: 0,
            copied_per_gen: vec![0; gens],
            acquired_events: Vec::new(),
            weak_closed: Vec::new(),
            dirty_done: Vec::new(),
            dirty_cards_scanned: 0,
            busy: Duration::ZERO,
        }
    }
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

/// Mirrors [`Heap::note_acquisitions`] through the table lock, including
/// the fault-injection tripwire with the identical message: crossing the
/// configured limit inside the collector means `try_collect`'s worst-case
/// reservation was unsound, racing workers or not.
fn note_acquisitions_mt(core: &mut TableCore<'_>, ctx: &mut WorkerCtx, n: u64) {
    if let Some(limit) = core.limit {
        assert!(
            core.acquisitions + n <= limit,
            "segment-acquisition fault fired inside an infallible path: \
             {} acquired, {n} more requested, limit {limit} — a fallible \
             entry point's preflight should have rejected this operation",
            core.acquisitions,
        );
    }
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
            let (base, space, lo, hi) = {
                let Some(r) = ctx.regions.open[slot].as_mut() else {
                    continue;
                };
                if r.space == Space::Pure || r.scanned >= r.used {
                    continue;
                }
                let (lo, hi) = (r.scanned, r.used);
                r.scanned = hi;
                (r.base, r.space, lo, hi)
            };
            scan_span(sh, ctx, base, space, lo, hi);
            progressed = true;
        }
        if !progressed {
            return;
        }
    }
}

fn scan_unit(sh: &Shared<'_>, ctx: &mut WorkerCtx, unit: Unit) {
    match unit {
        Unit::Span {
            base,
            space,
            lo,
            hi,
        } => scan_span(sh, ctx, base, space, lo, hi),
        Unit::Run { bases, total } => {
            // SAFETY: the run was pushed only after its copy completed,
            // and the pool hand-off makes those writes visible; exactly
            // one worker consumes the unit.
            let header = Header::decode(unsafe { *bases[0] })
                .unwrap_or_else(|| panic!("corrupt header on copied run"));
            let traced_end = 1 + header.traced_words();
            debug_assert!(traced_end <= total);
            for pos in 1..traced_end {
                // SAFETY: `pos < total` words were all copied; chunk
                // indexing mirrors the run's segment layout.
                let slot = unsafe { bases[pos / SEGMENT_WORDS].add(pos % SEGMENT_WORDS) };
                forward_slot(sh, ctx, slot);
            }
        }
        Unit::Dirty {
            seg,
            bases,
            mut cards,
            gen,
            used,
        } => {
            // SAFETY: the bases are the run's frozen chunk bases and
            // `used` its watermark; the run's words are covered by exactly
            // this unit, and `forward_mt` touches only from-space objects
            // and this worker's private to-space regions.
            let (visited, still_dirty) = unsafe {
                let mut t = ParTracer { sh, ctx };
                remset::walk_cards(&mut t, &bases, &mut cards, used, gen, sh.g, sh.target)
            };
            ctx.dirty_cards_scanned += visited;
            ctx.dirty_done.push((seg, cards, still_dirty));
        }
        Unit::DirtyWeak { base, used } => {
            // Weak treatment: cdrs only; the weak pass settles the cars.
            let mut off = 1;
            while off < used {
                // SAFETY: the dirty segment is covered by exactly this
                // unit; odd offsets stay within `used`.
                forward_slot(sh, ctx, unsafe { base.add(off) });
                off += 2;
            }
        }
    }
}

/// Forwards the value in `*slot` if it is a from-space pointer. Plain
/// access: the slot belongs to exactly one unit or open region, consumed
/// by exactly one worker.
fn forward_slot(sh: &Shared<'_>, ctx: &mut WorkerCtx, slot: *mut u64) {
    // SAFETY: exclusive slot per the unit-disjointness invariant.
    let v = Value(unsafe { slot.read() });
    if v.is_ptr() && sh.from_space.contains(v.addr().seg()) {
        let nv = forward_mt(sh, ctx, v);
        // SAFETY: as above.
        unsafe { slot.write(nv.raw()) };
    }
}

/// Walks the traced words of a to-space span, forwarding from-space
/// referents. `lo` is an object boundary; spans never cross a segment
/// (objects larger than a segment go through [`Unit::Run`]).
fn scan_span(
    sh: &Shared<'_>,
    ctx: &mut WorkerCtx,
    base: *mut u64,
    space: Space,
    lo: usize,
    hi: usize,
) {
    match space {
        Space::Pair => {
            for off in lo..hi {
                // SAFETY: `[lo, hi)` is exclusively this scanner's.
                forward_slot(sh, ctx, unsafe { base.add(off) });
            }
        }
        Space::WeakPair => {
            // Cdrs only; cars get weak treatment in the weak pass.
            let mut off = lo;
            while off < hi {
                // SAFETY: as above; pairs are 2-aligned so `off + 1 < hi`.
                forward_slot(sh, ctx, unsafe { base.add(off + 1) });
                off += 2;
            }
        }
        Space::Typed => {
            let mut pos = lo;
            while pos < hi {
                // SAFETY: `pos` is a header offset inside the span.
                let header = Header::decode(unsafe { *base.add(pos) })
                    .unwrap_or_else(|| panic!("corrupt header while scanning span@{pos}"));
                for i in 0..header.traced_words() {
                    // SAFETY: the object's words lie inside the span.
                    forward_slot(sh, ctx, unsafe { base.add(pos + 1 + i) });
                }
                pos += header.total_words();
            }
        }
        Space::Pure => unreachable!("pure regions are skipped, not scanned"),
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
/// lock, the body copied chunk-wise from the snapshot's source-run bases,
/// and — only after the copy completes — queued for scanning.
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
        let bases: Box<[*mut u64]> = (0..nsegs)
            .map(|i| core.segs.base_ptr(SegIndex(head.0 + i as u32)))
            .collect();
        (head, bases)
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
            Unit::Run {
                bases: dst_bases,
                total,
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
        base: r.base,
        space: r.space,
        lo: r.scanned,
        hi: r.used,
    });
    (span, weak, 0)
}

// ---------------------------------------------------------------------
// Parallel regions: spawn, drain, merge
// ---------------------------------------------------------------------

/// Collector state that persists across the parallel regions of one
/// collection — the parallel engine's analogue of [`super::Scratch`].
struct ParState {
    g: u8,
    target: u8,
    workers: usize,
    from_space: FromSpaceMap,
    from_heads: Vec<SegIndex>,
    snap: Snapshot,
    /// One set of regions per worker; index 0 doubles as the main
    /// thread's allocation state between regions.
    regions: Vec<WorkerRegions>,
    /// Units parked for the next region: remset-deferred spans, spans
    /// closed by main-thread allocation, and main-thread large runs.
    pending: Vec<Unit>,
    /// Closed to-space weak-pair segments, for the weak pass.
    weak_tospace: Vec<SegIndex>,
    /// Dirty old-generation weak-pair segments, for the weak pass.
    old_weak_dirty: Vec<SegIndex>,
    trace_on: bool,
    copied_per_gen: Vec<u64>,
    report: CollectionReport,
}

/// Runs one parallel region: seeds the pool with `initial`, spawns the
/// workers, and merges their scratch back into the heap and report.
/// Returns the remset shards the workers walked.
fn run_region(
    heap: &mut Heap,
    st: &mut ParState,
    initial: Vec<Unit>,
    defer_spans: bool,
) -> Vec<DirtyDone> {
    // Fast path: nothing queued and (in sweep mode) nothing unscanned in
    // any region — spawning would be pure overhead.
    if initial.is_empty() && (defer_spans || !st.regions.iter().any(WorkerRegions::has_unscanned)) {
        return Vec::new();
    }
    let gens = heap.config.generations as usize;
    let mut ctxs: Vec<WorkerCtx> = st
        .regions
        .drain(..)
        .enumerate()
        .map(|(id, regions)| WorkerCtx::new(id as u8, regions, gens))
        .collect();
    let (acquisitions, deferred) = {
        let shared = Shared {
            table: Mutex::new(TableCore {
                segs: &mut heap.segs,
                acquisitions: heap.acquisitions,
                limit: heap.config.fail_acquisition_at,
            }),
            pool: Mutex::new(WorkPool {
                queue: initial.into(),
                idle: 0,
                done: false,
            }),
            cv: Condvar::new(),
            deferred: Mutex::new(Vec::new()),
            from_space: &st.from_space,
            snap: &st.snap,
            g: st.g,
            target: st.target,
            trace_on: st.trace_on,
            workers: st.workers,
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
    st.pending.extend(deferred);
    let mut dirty_done = Vec::new();
    for mut ctx in ctxs {
        st.report.pairs_copied += ctx.pairs_copied;
        st.report.objects_copied += ctx.objects_copied;
        st.report.words_copied += ctx.words_copied;
        st.report.pure_words_skipped += ctx.pure_words_skipped;
        st.report.segments_allocated += ctx.segments_allocated;
        st.report.dirty_cards_scanned += ctx.dirty_cards_scanned;
        st.report.phases.worker_time += ctx.busy;
        if st.trace_on {
            for (g, words) in ctx.copied_per_gen.iter().enumerate() {
                st.copied_per_gen[g] += words;
            }
        }
        for count in ctx.acquired_events.drain(..) {
            heap.trace_emit(|| GcEvent::SegmentsAcquired { count });
        }
        st.weak_tospace.append(&mut ctx.weak_closed);
        dirty_done.append(&mut ctx.dirty_done);
        st.regions.push(ctx.regions);
    }
    dirty_done
}

// ---------------------------------------------------------------------
// Main-thread (between-regions) forwarding
// ---------------------------------------------------------------------
//
// Between regions the main thread holds the whole `&mut Heap`, so this
// mirrors the serial engine's `forward` (and the serial `forwarded_p` /
// `get_fwd` serve as they are) — except that allocation goes through
// worker 0's regions instead of the heap's cursor table, keeping one
// allocator discipline for the collection. No claim marker can be
// observed here: regions end with every `BUSY` word overwritten by its
// forwarding word.

fn forward_st(heap: &mut Heap, st: &mut ParState, v: Value) -> Value {
    if !v.is_ptr() {
        return v;
    }
    let addr = v.addr();
    if !st.from_space.contains(addr.seg()) {
        return v;
    }
    let first = heap.segs.word(addr);
    debug_assert_ne!(first, fwd::BUSY, "claim marker survived a region barrier");
    if let Some(new) = fwd::decode(first) {
        return v.retag_at(new);
    }
    let info = heap.segs.info(addr.seg());
    let (space, src_gen) = (info.space, info.generation);
    let total = if v.is_pair_ptr() {
        2
    } else {
        Header::decode(first)
            .unwrap_or_else(|| panic!("corrupt header while forwarding {v:?}"))
            .total_words()
    };
    let to = alloc_st(heap, st, space, total);
    heap.segs.copy_words(addr, to, total);
    if v.is_pair_ptr() {
        st.report.pairs_copied += 1;
    } else {
        st.report.objects_copied += 1;
    }
    st.report.words_copied += total as u64;
    if st.trace_on {
        st.copied_per_gen[src_gen as usize] += total as u64;
    }
    heap.segs.set_word(addr, fwd::encode(to));
    v.retag_at(to)
}

/// Main-thread allocation into worker 0's regions. Large runs queue their
/// scan unit immediately — safe on this path because the same thread
/// finishes the copy before any region can consume the unit.
fn alloc_st(heap: &mut Heap, st: &mut ParState, space: Space, words: usize) -> WordAddr {
    if words > SEGMENT_WORDS {
        let nsegs = words.div_ceil(SEGMENT_WORDS);
        heap.note_acquisitions(nsegs as u64);
        let head = heap.segs.allocate_run(space, st.target, nsegs);
        heap.segs.info_mut(head).used = words as u32;
        st.report.segments_allocated += nsegs as u64;
        match space {
            Space::Typed => {
                let bases: Box<[*mut u64]> = (0..nsegs)
                    .map(|i| heap.segs.base_ptr(SegIndex(head.0 + i as u32)))
                    .collect();
                st.pending.push(Unit::Run {
                    bases,
                    total: words,
                });
            }
            Space::Pure => st.report.pure_words_skipped += words as u64,
            Space::Pair | Space::WeakPair => unreachable!("pairs never exceed a segment"),
        }
        return heap.segs.base_addr(head);
    }
    let slot = space.index();
    if let Some(r) = st.regions[0].open[slot].as_mut() {
        if r.used + words <= SEGMENT_WORDS {
            let off = r.used;
            r.used += words;
            return WordAddr::new(r.seg, off);
        }
    }
    if let Some(r) = st.regions[0].open[slot].take() {
        let (span, weak, pure) = close_region(&mut heap.segs, r);
        if let Some(unit) = span {
            st.pending.push(unit);
        }
        if let Some(seg) = weak {
            st.weak_tospace.push(seg);
        }
        st.report.pure_words_skipped += pure;
    }
    heap.note_acquisitions(1);
    let seg = heap.segs.allocate(space, st.target);
    st.report.segments_allocated += 1;
    heap.segs.info_mut(seg).owner = 0;
    st.regions[0].open[slot] = Some(Region {
        seg,
        base: heap.segs.base_ptr(seg),
        space,
        used: words,
        scanned: 0,
    });
    WordAddr::new(seg, 0)
}

/// Collector-side tconc append, mirroring the serial
/// [`guardian_pass::append_to_tconc`](super::guardian_pass) word for word
/// (Figure 3's write order, barriered stores, the stale-cdr fixup).
fn append_to_tconc_st(heap: &mut Heap, st: &mut ParState, tconc: Value, obj: Value) {
    let p_addr = alloc_st(heap, st, Space::Pair, 2);
    heap.segs.set_word(p_addr, Value::FALSE.raw());
    heap.segs.set_word(p_addr.add(1), Value::FALSE.raw());
    let p = Value::pair_at(p_addr);
    let last_raw = heap.cdr(tconc);
    let last = forward_st(heap, st, last_raw);
    if last != last_raw {
        heap.set_cdr(tconc, last);
    }
    heap.tconc_append_with(tconc, obj, p);
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

/// Drains the dirty index (serial skip rules) into remset shard units.
fn drain_dirty_units(heap: &mut Heap, st: &mut ParState) -> Vec<Unit> {
    let mut units = Vec::new();
    for seg in heap.segs.take_dirty() {
        let Some((space, gen, used)) = remset::drain_entry(&mut heap.segs, st.g, seg) else {
            continue;
        };
        st.report.dirty_segments_scanned += 1;
        if space == Space::WeakPair {
            units.push(Unit::DirtyWeak {
                base: heap.segs.base_ptr(seg),
                used,
            });
            st.old_weak_dirty.push(seg);
        } else {
            units.push(Unit::Dirty {
                seg,
                bases: (0..heap.segs.run_len(seg))
                    .map(|i| heap.segs.base_ptr(SegIndex(seg.0 + i as u32)))
                    .collect(),
                cards: heap.segs.run_cards(seg).into(),
                gen,
                used,
            });
        }
    }
    units
}

/// The guardian pass: the paper's three blocks run on the main thread in
/// protected-list order — the deterministic merge that fixes tconc
/// contents and order across worker counts — while each fixpoint round's
/// reachability closure (serial `kleene-sweep`) runs as a parallel
/// region. Logic and events mirror [`super::guardian_pass::run`].
fn guardian_parallel(heap: &mut Heap, st: &mut ParState) {
    let visited_before = st.report.guardian_entries_visited;
    let finalized_before = st.report.guardian_entries_finalized;
    let held_before = st.report.guardian_entries_held;
    let dropped_before = st.report.guardian_entries_dropped;
    let loops_before = st.report.guardian_loop_iterations;

    // Block 1: partition the protected lists of the collected generations.
    let mut pend_hold: Vec<GuardEntry> = Vec::new();
    let mut pend_final: Vec<GuardEntry> = Vec::new();
    let list_indices: Vec<usize> = if heap.config.flat_protected {
        vec![0]
    } else {
        (0..=st.g as usize).collect()
    };
    for i in list_indices {
        for e in std::mem::take(&mut heap.protected[i]) {
            st.report.guardian_entries_visited += 1;
            if forwarded_p(heap, &st.from_space, e.obj) {
                pend_hold.push(e);
            } else {
                pend_final.push(e);
            }
        }
    }
    heap.trace_emit(|| GcEvent::GuardianPartition {
        visited: st.report.guardian_entries_visited - visited_before,
        pend_hold: pend_hold.len() as u64,
        pend_final: pend_final.len() as u64,
    });

    // Block 2: the fixpoint loop over entries with dead objects.
    loop {
        st.report.guardian_loop_iterations += 1;
        let mut final_list = Vec::new();
        let mut remaining = Vec::new();
        for e in pend_final {
            if forwarded_p(heap, &st.from_space, e.tconc) {
                final_list.push(e);
            } else {
                remaining.push(e);
            }
        }
        pend_final = remaining;
        if final_list.is_empty() {
            break;
        }
        let round = st.report.guardian_loop_iterations - loops_before;
        let resurrected = final_list.len() as u64;
        heap.trace_emit(|| GcEvent::GuardianRound { round, resurrected });
        for e in final_list {
            let rep = forward_st(heap, st, e.rep);
            let tconc = get_fwd(heap, &st.from_space, e.tconc);
            append_to_tconc_st(heap, st, tconc, rep);
            st.report.guardian_entries_finalized += 1;
        }
        // Round barrier: close the round's reachability in parallel
        // before the next round re-tests tconc accessibility.
        let pending = std::mem::take(&mut st.pending);
        let sd = run_region(heap, st, pending, false);
        debug_assert!(sd.is_empty());
    }
    st.report.guardian_entries_dropped += pend_final.len() as u64;

    // Block 3: migrate held entries to the target generation's list.
    let dest = if heap.config.flat_protected {
        0
    } else {
        st.target as usize
    };
    let mut held = Vec::new();
    let mut agent_copied = false;
    for e in pend_hold {
        if forwarded_p(heap, &st.from_space, e.tconc) {
            let obj = get_fwd(heap, &st.from_space, e.obj);
            let tconc = get_fwd(heap, &st.from_space, e.tconc);
            let rep = if e.rep == e.obj {
                obj
            } else {
                agent_copied = agent_copied || e.rep.is_ptr();
                forward_st(heap, st, e.rep)
            };
            held.push(GuardEntry { obj, rep, tconc });
            st.report.guardian_entries_held += 1;
        } else {
            st.report.guardian_entries_dropped += 1;
        }
    }
    heap.protected[dest].extend(held);
    if agent_copied {
        let pending = std::mem::take(&mut st.pending);
        let sd = run_region(heap, st, pending, false);
        debug_assert!(sd.is_empty());
    }
    heap.trace_emit(|| GcEvent::GuardianOutcome {
        finalized: st.report.guardian_entries_finalized - finalized_before,
        held: st.report.guardian_entries_held - held_before,
        dropped: st.report.guardian_entries_dropped - dropped_before,
        loop_iterations: st.report.guardian_loop_iterations - loops_before,
    });
}

// ---------------------------------------------------------------------
// The parallel weak pass
// ---------------------------------------------------------------------

/// One weak-pair segment to fix: cars settled, still-dirty recomputed.
struct WeakUnit {
    seg: SegIndex,
    base: *mut u64,
    gen: u8,
    used: usize,
    /// Dirty old-generation segment: re-mark it if it still holds an
    /// old→young pointer (to-space segments are never re-marked, matching
    /// the serial pass).
    remark: bool,
}

// SAFETY: each unit covers one segment's words, consumed by one worker.
unsafe impl Send for WeakUnit {}

#[derive(Default)]
struct WeakOut {
    scanned: u64,
    broken: u64,
    forwarded: u64,
    still_dirty: Vec<SegIndex>,
    busy: Duration,
}

/// Closes every open weak-pair region so the weak pass sees exactly the
/// closed-segment list — the same coverage discipline as the serial
/// engine, where a weak segment is visited by the pass that first sees
/// it and later passes only visit segments allocated since.
fn close_weak_regions(heap: &mut Heap, st: &mut ParState) {
    for regions in &mut st.regions {
        if let Some(r) = regions.open[Space::WeakPair.index()].take() {
            debug_assert!(r.scanned >= r.used, "weak region not fully swept");
            let (span, weak, pure) = close_region(&mut heap.segs, r);
            debug_assert!(pure == 0);
            if let Some(unit) = span {
                st.pending.push(unit);
            }
            if let Some(seg) = weak {
                st.weak_tospace.push(seg);
            }
        }
    }
}

/// The weak-pair pass (paper §4, final paragraph), sharded by segment.
/// Pure reads of from-space forwarding words plus exclusive writes to
/// each unit's cars — no copying, so no table lock and no claim protocol.
fn weak_parallel(heap: &mut Heap, st: &mut ParState) {
    let scanned_before = st.report.weak_pairs_scanned;
    let broken_before = st.report.weak_cars_broken;
    let forwarded_before = st.report.weak_cars_forwarded;
    close_weak_regions(heap, st);
    let mut units: Vec<WeakUnit> = Vec::new();
    for seg in st.weak_tospace.drain(..) {
        let info = heap.segs.info(seg);
        units.push(WeakUnit {
            seg,
            base: heap.segs.base_ptr(seg),
            gen: info.generation,
            used: info.used as usize,
            remark: false,
        });
    }
    for seg in st.old_weak_dirty.drain(..) {
        let info = heap.segs.info(seg);
        units.push(WeakUnit {
            seg,
            base: heap.segs.base_ptr(seg),
            gen: info.generation,
            used: info.used as usize,
            remark: true,
        });
    }
    let mut outs: Vec<WeakOut> = (0..st.workers).map(|_| WeakOut::default()).collect();
    if !units.is_empty() {
        let segs = &heap.segs;
        let from_space = &st.from_space;
        let snap = &st.snap;
        let queue = Mutex::new(units);
        std::thread::scope(|scope| {
            for out in outs.iter_mut() {
                let queue = &queue;
                scope.spawn(move || {
                    let t0 = Instant::now();
                    loop {
                        let unit = queue.lock().unwrap().pop();
                        match unit {
                            Some(u) => weak_fix_unit(segs, from_space, snap, u, out),
                            None => break,
                        }
                    }
                    out.busy += t0.elapsed();
                });
            }
        });
    }
    for out in outs {
        st.report.weak_pairs_scanned += out.scanned;
        st.report.weak_cars_broken += out.broken;
        st.report.weak_cars_forwarded += out.forwarded;
        st.report.phases.worker_time += out.busy;
        for seg in out.still_dirty {
            // The remembered-set drain cleared the flag; re-mark (and
            // re-index) only segments that still hold old→young pointers.
            heap.segs.mark_dirty(seg);
        }
    }
    heap.trace_emit(|| GcEvent::WeakSweep {
        scanned: st.report.weak_pairs_scanned - scanned_before,
        broken: st.report.weak_cars_broken - broken_before,
        forwarded: st.report.weak_cars_forwarded - forwarded_before,
    });
}

/// Fixes every weak car in one segment, mirroring the serial
/// [`weak_pass::run`](super::weak_pass) per-pair logic. The live segment
/// table is shared read-only for the generation lookups (no allocation
/// happens during the weak pass, so it is stable).
fn weak_fix_unit(
    segs: &SegmentTable,
    from_space: &FromSpaceMap,
    snap: &Snapshot,
    u: WeakUnit,
    out: &mut WeakOut,
) {
    let mut still_dirty = false;
    let mut off = 0;
    while off < u.used {
        out.scanned += 1;
        // SAFETY: this unit exclusively covers the segment's words; cars
        // are written only here.
        let car_ptr = unsafe { u.base.add(off) };
        let car = Value(unsafe { car_ptr.read() });
        if car.is_ptr() && from_space.contains(car.addr().seg()) {
            let a = car.addr();
            // SAFETY: from-space words are read-only by now (every
            // region has joined, so no claim marker can remain).
            let word0 = unsafe { snap.base(a.seg()).add(a.offset()).read() };
            debug_assert_ne!(word0, fwd::BUSY, "claim marker survived into the weak pass");
            match fwd::decode(word0) {
                Some(new) => {
                    // Referent survived (root-reachable or salvaged by a
                    // guardian): update the weak pointer.
                    // SAFETY: as above.
                    unsafe { car_ptr.write(car.retag_at(new).raw()) };
                    out.forwarded += 1;
                }
                None => {
                    // Referent is garbage: break the weak pointer.
                    // SAFETY: as above.
                    unsafe { car_ptr.write(Value::FALSE.raw()) };
                    out.broken += 1;
                }
            }
        }
        // SAFETY: as above; reads of the settled car and the cdr.
        let car_now = Value(unsafe { car_ptr.read() });
        let cdr = Value(unsafe { u.base.add(off + 1).read() });
        still_dirty |= points_younger(segs, car_now, u.gen);
        still_dirty |= points_younger(segs, cdr, u.gen);
        off += 2;
    }
    if u.remark && still_dirty {
        out.still_dirty.push(u.seg);
    }
}

/// Closes every remaining open region after the final pass, syncing the
/// watermarks and clearing ownership so the heap is region-free (and
/// verifier-clean) between collections.
fn flush_regions(heap: &mut Heap, st: &mut ParState) {
    for regions in &mut st.regions {
        for slot in 0..4 {
            if let Some(r) = regions.open[slot].take() {
                debug_assert!(
                    r.space == Space::Pure || r.scanned >= r.used,
                    "region flushed with unscanned words"
                );
                let (span, weak, pure) = close_region(&mut heap.segs, r);
                debug_assert!(span.is_none() && weak.is_none());
                st.report.pure_words_skipped += pure;
            }
        }
    }
    debug_assert!(
        st.pending.is_empty(),
        "scan units left after the final region"
    );
}

// ---------------------------------------------------------------------
// The collection driver
// ---------------------------------------------------------------------

/// Runs a full parallel collection of generations `0..=g`, with the same
/// phase order, events, and report semantics as [`super::run`].
pub(crate) fn run(heap: &mut Heap, g: u8) -> CollectionReport {
    let start = Instant::now();
    // Phase 1: flip — identical to the serial engine, plus the snapshot
    // of segment bases the workers read without the table lock.
    let (target, from_space, from_heads) = flip(heap, g);
    // The log stays empty (regions replace the cursor allocator during a
    // parallel collection) but must be `Some` so `tconc_append_with`
    // tags collector-side appends.
    let snap = Snapshot::capture(heap);
    let workers = heap.config.workers;

    let mut st = ParState {
        g,
        target,
        workers,
        from_space,
        from_heads,
        snap,
        regions: (0..workers).map(|_| WorkerRegions::new()).collect(),
        pending: Vec::new(),
        weak_tospace: Vec::new(),
        old_weak_dirty: Vec::new(),
        trace_on: heap.tracing_enabled(),
        copied_per_gen: vec![0; heap.config.generations as usize],
        report: begin_report(heap, g, target),
    };
    let mut mark = start;
    lap(heap, &mut st.report, &mut mark, GcPhase::Flip);

    // Phase 2: roots, on the main thread (copies land in worker 0's
    // regions; their transitive closure waits for the sweep).
    let mut roots = std::mem::take(&mut heap.roots);
    let traced = roots.for_each_slot(|slot| {
        let v = *slot;
        if v.is_ptr() {
            *slot = forward_st(heap, &mut st, v);
        }
    });
    heap.roots = roots;
    st.report.roots_traced = traced;
    lap(heap, &mut st.report, &mut mark, GcPhase::Roots);

    // Phase 3: remembered set, sharded across the workers. Spans of
    // copied objects are deferred to the sweep (serial parity: the
    // remset phase forwards but never sweeps).
    let units = drain_dirty_units(heap, &mut st);
    for (seg, cards, still_dirty) in run_region(heap, &mut st, units, true) {
        heap.segs.run_cards_mut(seg).copy_from_slice(&cards);
        if still_dirty {
            heap.segs.flag_dirty(seg);
        }
    }
    lap(heap, &mut st.report, &mut mark, GcPhase::Remset);

    // Phase 4: the main sweep — the parallel kleene-sweep.
    let pending = std::mem::take(&mut st.pending);
    let sd = run_region(heap, &mut st, pending, false);
    debug_assert!(sd.is_empty());
    lap(heap, &mut st.report, &mut mark, GcPhase::Sweep);

    if heap.config.ablate_weak_pass_first {
        // Ablation: break weak cars BEFORE the guardian pass gets to
        // salvage their referents (see `GcConfig::ablate_weak_pass_first`).
        weak_parallel(heap, &mut st);
        lap(heap, &mut st.report, &mut mark, GcPhase::Weak);
    }

    // Phase 5: guardians (main-thread blocks, parallel round closures).
    guardian_parallel(heap, &mut st);
    lap(heap, &mut st.report, &mut mark, GcPhase::Guardian);

    // Phase 6: Dickey-baseline finalizers.
    finalizer_pass(heap, &st.from_space, (g, target), &mut st.report);
    lap(heap, &mut st.report, &mut mark, GcPhase::Finalizer);

    // Phase 7: weak pairs — after the guardian pass, "so if the car field
    // of a weak pair points to an object that has been salvaged, the
    // object will still be in the car field after collection."
    weak_parallel(heap, &mut st);
    lap(heap, &mut st.report, &mut mark, GcPhase::Weak);

    // Phase 8: reclaim the from-space.
    flush_regions(heap, &mut st);
    let heads = std::mem::take(&mut st.from_heads);
    reclaim(heap, heads, &mut st.report);
    lap(heap, &mut st.report, &mut mark, GcPhase::Reclaim);

    st.report.duration = start.elapsed();
    emit_end(heap, &st.copied_per_gen, &st.report);
    st.report
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

    #[test]
    fn parallel_counters_match_the_serial_engine() {
        let run = |workers: usize| {
            let mut h = heap_with_workers(workers);
            let list = build_mixed_graph(&mut h, 40);
            let root = h.root(list);
            let weak = h.weak_cons(h.car(root.get()), Value::NIL);
            let _weak_root = h.root(weak);
            let dead = h.cons(Value::fixnum(7), Value::NIL);
            let g = h.make_guardian();
            g.register(&mut h, dead);
            let r = h.collect(0).clone();
            h.verify().expect("valid heap");
            r
        };
        let serial = run(1);
        for workers in [2, 4] {
            let par = run(workers);
            assert_eq!(par.pairs_copied, serial.pairs_copied, "{workers} workers");
            assert_eq!(par.objects_copied, serial.objects_copied);
            assert_eq!(par.words_copied, serial.words_copied);
            assert_eq!(par.pure_words_skipped, serial.pure_words_skipped);
            assert_eq!(par.roots_traced, serial.roots_traced);
            assert_eq!(
                par.guardian_entries_visited,
                serial.guardian_entries_visited
            );
            assert_eq!(
                par.guardian_entries_finalized,
                serial.guardian_entries_finalized
            );
            assert_eq!(par.weak_cars_broken, serial.weak_cars_broken);
            assert_eq!(par.weak_cars_forwarded, serial.weak_cars_forwarded);
            assert_eq!(par.segments_freed, serial.segments_freed);
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
