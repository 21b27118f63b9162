//! The generation-based stop-and-copy collector (paper Section 4).
//!
//! A collection of generation `g` collects all generations `0..=g` (the
//! paper's policy: "when a generation is collected, all younger
//! generations are collected as well") into the *target generation*
//! `min(g+1, n)`. The phases, in order:
//!
//! 1. **Flip** — move every segment of a collected generation into the
//!    from-space and reset allocation cursors for the collected and target
//!    generations.
//! 2. **Roots** — forward every registered root slot whose generation
//!    stamp says this collection can move its referent.
//! 3. **Remembered set** — scan dirty older-generation segments for
//!    pointers into the from-space (see [`remset`]).
//! 4. **Kleene sweep** — Cheney-style iterative scan of copied objects
//!    until no newly copied objects remain (the paper's `kleene-sweep`).
//! 5. **Guardian pass** — the paper's three-block protected-list
//!    algorithm, including the `pend-final-list` fixpoint loop (see
//!    [`guardian_pass`]).
//! 6. **Weak pass** — settle the root table's weak slots stamped at most
//!    `g`, then break or forward weak-pair cars; runs after the guardian
//!    pass "so if the car field of a weak pair points to an object that
//!    has been salvaged, the object will still be in the car field after
//!    collection" (see [`weak_pass`]). A weak slot, like a weak car, is
//!    forwarded if its referent was copied and broken to `#f` if it was
//!    left in the from-space; the roots phase never visits one.
//! 7. **Reclaim** — return every from-space segment and run to the
//!    segment table's free store, runs whole; on a pool another heap
//!    shares, the free store's storage then goes back to the pool
//!    (`SegmentTable::release_free_storage`).
//!
//! # One driver
//!
//! A collection is [`begin`] (phase 1) followed by one or more calls of
//! [`advance`], each of which resumes phases 2–4 where the last one left
//! them and runs until the sweep's fixpoint or its deadline, whichever
//! comes first; the advance that reaches the fixpoint runs [`finish`]
//! (phases 5–7) before it returns. Stop-the-world is the schedule with no
//! deadline: one advance, which never yields and reads no clock per work
//! unit. `pause_budget` is the schedule that gives every advance a
//! deadline. There is no third schedule and no second thread: the collector
//! holds no thread, atomic, lock or condvar (DESIGN.md §9 says why).
//!
//! # Between increments
//!
//! A collection that yielded lives in `Heap::incremental` until its next
//! advance, and the mutator runs against a half-copied heap:
//!
//! * **Forwarded on read.** From-space objects are either intact
//!   (unforwarded; every word still valid) or carry a broken heart in
//!   word 0. Every typed accessor resolves its operands through
//!   [`Heap::resolve_read`], so a stale pointer to a forwarded object is
//!   transparently redirected to the to-space copy. Unforwarded
//!   from-space objects are read and written in place — stores travel
//!   with the wholesale copy if the object is later forwarded.
//! * **Write barrier.** A store that puts a from-space pointer anywhere,
//!   or any pointer into an unforwarded from-space object, is logged as
//!   `(container, field offset)` in [`Scratch::stores`], the one store log.
//!   [`settle_stores`] drains it at every advance: the slot of the
//!   container's current copy has its value forwarded and its card stamped
//!   exactly, so neither a slot the sweep has passed nor a card that died
//!   with the from-space is lost. The rule is the same in every generation,
//!   generation 0 included, and entries are idempotent.
//! * **Allocation.** A fresh segment or run the mutator takes between
//!   increments goes straight onto the suspended collection's scan queue
//!   ([`Scratch::enqueue`], the collector's own misses do the same), so it
//!   is swept like to-space: its initializing stores (which bypass the
//!   write barrier) are still traced, and a weak-pair segment among them
//!   is fixed by the weak pass.
//!
//! The state is *out* of the heap while an advance runs. The collector's
//! own stores (the guardian pass's tconc appends) do not pass the mutator's
//! barrier at all: they are raw word writes with an exact card stamp
//! (`SegmentTable::note_collector_store`), and being the collector's they
//! are never logged.
//!
//! **Guardian atomicity.** [`finish`] runs after the sweep fixpoint is
//! proven global (roots re-forwarded, store log and remembered set
//! drained, sweep dry) and never yields: no mutator step separates the
//! guardian partition from the weak break, so guardian/weak observables do
//! not depend on the schedule. The cost is a pause floor — the last
//! increment cannot be shorter than those passes (measured in experiment
//! E18, argued in DESIGN.md §10).
//!
//! # The copy/scan engine
//!
//! One forward-in-place kernel, on raw segment bases, for both schedules:
//!
//! * [`forward_from`] copies by shape — a pair is two word moves, any other
//!   object of at most a segment one `copy_nonoverlapping`, a multi-segment
//!   run the chunked `SegmentTable::copy_words` — into the target
//!   generation's cursor through [`to_alloc`], the collector's one to-space
//!   allocator: a [`Window`] per space that makes a hit one add and one
//!   compare, and whose watermark is written back to `SegInfo::used` on a
//!   miss, at every phase boundary and when the advance returns.
//! * [`walk_traced`] alone knows the three traced layouts, and
//!   [`forward_span`] is it with the one visitor there is: read the slot,
//!   test it, forward with [`forward_from`], write back ([`scan_segment`],
//!   `remset::scan_weak_cdrs`). The access contract it all stands on is
//!   stated once, at `remset::walk_run`.
//! * The from-space membership test is one byte load from the segment
//!   table's whereabouts table (`SegmentTable::in_from_space`), which the
//!   flip writes as it drains the table's per-generation lists instead of
//!   walking every segment, and which `remset::gather` reads generations in.
//! * [`kleene_sweep`] keeps a queue of segments with pending words — every
//!   fresh segment is pushed on it as it is allocated — and *retires*
//!   fully-scanned segments. Only segments that can still grow — the open
//!   allocation cursors, which the cursor table names — are parked and
//!   re-checked when the queue drains; everything else is visited exactly
//!   once per word.
//!
//! Slots are visited in increasing offset order within each `[off, used)`
//! batch and `used` (the [`watermark`]) is re-read between batches, so the
//! same objects are copied in the same order to the same addresses as by a
//! per-word engine: every deterministic work counter is equal (the
//! `counter_parity` regression tests in the bench crate).

pub(crate) mod guardian_pass;
pub(crate) mod remset;
pub(crate) mod weak_pass;

use crate::header::Header;
use crate::heap::Heap;
use crate::roots::ROOT_CLEAN;
use crate::stats::{CollectionReport, PhaseTimes};
use crate::trace::{GcEvent, GcPhase};
use crate::value::{fwd, Value};
use guardians_segments::{
    SegIndex, SegKind, SegmentTable, Space, WordAddr, SEGMENT_WORDS, WHERE_FROM, WHERE_NONE,
};
use std::ops::Range;
use std::time::Instant;

/// The state of one collection, from [`begin`] to the end of its last
/// [`advance`]; between advances it is parked in `Heap::incremental`, the
/// heap's only per-collection state. The scan queue, parked segments, weak
/// list and remembered-set snapshot resume exactly where the last advance
/// left them.
pub(crate) struct Scratch {
    /// Highest generation being collected.
    pub g: u8,
    /// Generation survivors are copied into.
    pub target: u8,
    /// The from-space's head segments, to free at the end. Membership is
    /// the segment table's whereabouts byte (`SegmentTable::in_from_space`).
    pub from_heads: Vec<SegIndex>,
    /// To-space segments with unscanned words (Cheney scan state): every
    /// fresh segment or run is pushed here as it is allocated
    /// ([`Scratch::enqueue`]), the collector's and, between increments,
    /// the mutator's.
    pub queue: Vec<(SegIndex, usize)>,
    /// Fully-scanned to-space segments that are still open allocation
    /// cursors, so copies may yet land in them; re-checked (and either
    /// re-queued or retired) whenever the queue drains.
    pub parked: Vec<(SegIndex, usize)>,
    /// The weak pass's segments: every weak-pair segment allocated during
    /// this collection, and every old one the remembered set or the store
    /// log handed over.
    pub weak: Vec<SegIndex>,
    /// The report under construction.
    pub report: CollectionReport,
    /// What is left of the dirty index as drained at the flip: the
    /// remembered-set work list, scanned one run per yield check. Runs
    /// dirtied after the flip belong to the next collection (their flags
    /// survive).
    pub remset_pending: std::vec::IntoIter<SegIndex>,
    /// The store log: `(container, field offset)` of every mutator store,
    /// made while this collection was suspended, whose container or stored
    /// value was in the from-space (`Heap::barrier`). Drained by
    /// [`settle_stores`]; an entry whose container is still an unforwarded
    /// from-space object stays until the container is copied.
    pub stores: Vec<(Value, usize)>,
    /// The to-space bump windows, one per space (indexed by
    /// `Space::index`), over the target generation's cursors. Loaded at the
    /// start of every [`advance`] and emptied when it returns, so a
    /// suspended collection holds none (checked by `Heap::verify`).
    windows: [Window; 4],
}

/// A to-space bump window: the open cursor segment of one space in the
/// target generation, with its watermark held here instead of in
/// `SegInfo::used`, so a copy that fits costs one add and one compare
/// ([`to_alloc`]). Inside an advance the window's `used` is the
/// authoritative watermark of its segment; `SegInfo::used` is brought up
/// to date at every write-back point:
///
/// 1. a miss ([`to_alloc_miss`]), before the allocator reads the cursor;
/// 2. every phase boundary ([`lap`]), so the remembered-set walk and the
///    weak pass read a watermark from the last one — which covers every
///    object the mutator could have stored into, while anything copied
///    since is the sweep's;
/// 3. the end of the advance, which also empties every window
///    ([`Scratch::close_windows`]): between increments the mutator,
///    `verify`, the census and the `try_*` preflights see only
///    `SegInfo::used` — with `generations: 1` the target cursor is the
///    mutator's own.
///
/// The sweep's two readers of the watermark of a segment that may be a
/// window's ([`scan_segment`]'s batch loop, [`sweep_unit`]'s parked
/// re-check) go through [`watermark`].
#[derive(Copy, Clone, Debug, PartialEq)]
struct Window {
    /// The segment's first word.
    start: WordAddr,
    /// The segment's word storage; null for an empty window.
    base: *mut u64,
    /// Words in use.
    used: usize,
}

impl Window {
    /// No segment: full, so every request misses.
    const EMPTY: Window = Window {
        start: WordAddr(u64::MAX),
        base: std::ptr::null_mut(),
        used: SEGMENT_WORDS,
    };

    /// The window over `space`'s cursor in generation `gen`, or
    /// [`Window::EMPTY`] if that cursor is closed.
    fn load(heap: &Heap, space: Space, gen: u8) -> Window {
        match heap.cursors[gen as usize * 4 + space.index()] {
            Some(seg) => Window {
                start: heap.segs.base_addr(seg),
                base: heap.segs.base_ptr(seg),
                used: heap.segs.info(seg).used as usize,
            },
            None => Window::EMPTY,
        }
    }

    /// The window's watermark if it is over `seg`.
    fn used_of(&self, seg: SegIndex) -> Option<usize> {
        (!self.base.is_null() && self.start.seg() == seg).then_some(self.used)
    }
}

impl Scratch {
    /// Queues a fresh segment or run for the sweep, as it is allocated:
    /// counts it in `segments_allocated`, records a weak-pair segment for
    /// the weak pass and pushes it on the LIFO queue, so the newest fresh
    /// segment is swept first.
    pub fn enqueue(&mut self, segs: &SegmentTable, seg: SegIndex) {
        self.report.segments_allocated += segs.run_len(seg) as u64;
        if segs.info(seg).space == Space::WeakPair {
            self.weak.push(seg);
        }
        self.queue.push((seg, 0));
    }

    /// Loads every window from the target generation's cursors (the start
    /// of an advance).
    fn open_windows(&mut self, heap: &Heap) {
        for space in Space::ALL {
            self.windows[space.index()] = Window::load(heap, space, self.target);
        }
    }

    /// Writes every window's watermark back to its `SegInfo::used`.
    fn write_back(&self, heap: &mut Heap) {
        for w in self.windows.iter().filter(|w| !w.base.is_null()) {
            heap.segs.info_mut(w.start.seg()).used = w.used as u32;
        }
    }

    /// Writes every window back and empties it (the end of an advance).
    fn close_windows(&mut self, heap: &mut Heap) {
        self.write_back(heap);
        self.windows = [Window::EMPTY; 4];
    }

    /// Whether every window is empty, as between increments.
    pub fn holds_no_window(&self) -> bool {
        self.windows.iter().all(|w| *w == Window::EMPTY)
    }

    /// Whether `slot`, a word outside the from-space, is covered by the
    /// collector's outstanding work — it will (still) be scanned before the
    /// collection finishes. Used by the verifier's barrier-coverage check:
    /// a from-space pointer in a strong field outside the from-space is
    /// only sound if its slot is covered.
    pub fn covered(&self, heap: &Heap, slot: WordAddr) -> bool {
        let head = match heap.segs.info(slot.seg()).kind {
            SegKind::Head => slot.seg(),
            SegKind::Tail { head } => head,
        };
        let listed = |segs: &[(SegIndex, usize)]| segs.iter().any(|&(q, _)| q == head);
        listed(&self.queue)
            || listed(&self.parked)
            || self.remset_pending.as_slice().contains(&head)
            || self.stores.iter().any(|&(container, offset)| {
                settle(heap, self.target, container)
                    .is_some_and(|(copy, _)| copy.addr().add(offset) == slot)
            })
    }
}

/// Phase 1: the flip and a fresh [`Scratch`]. The flip picks the target
/// generation, moves every segment of a collected generation into the
/// from-space (heads are also listed for the reclaim), resets the
/// allocation cursors and drains the dirty index into the remembered-set
/// work list. It drains the per-generation segment lists
/// instead of walking the whole table; the whereabouts byte dedups entries
/// for segments freed and recycled back into the same generation.
pub(crate) fn begin(heap: &mut Heap, g: u8) -> Box<Scratch> {
    let mut mark = Instant::now();
    let target = heap
        .config
        .promotion
        .target(g, heap.config.max_generation());
    let mut from_heads = Vec::new();
    for gen in 0..=g {
        for seg in heap.segs.drain_generation(gen) {
            if heap.segs.in_from_space(seg) {
                continue;
            }
            heap.segs.enter_from_space(seg);
            if heap.segs.info(seg).is_head() {
                from_heads.push(seg);
            }
        }
    }
    heap.reset_cursors(g, target);
    let mut s = Box::new(Scratch {
        g,
        target,
        from_heads,
        queue: Vec::new(),
        parked: Vec::new(),
        weak: Vec::new(),
        report: CollectionReport {
            collection_index: heap.collections,
            collected_generation: g,
            target_generation: target,
            ..CollectionReport::default()
        },
        remset_pending: heap.segs.take_dirty().into_iter(),
        stores: Vec::new(),
        windows: [Window::EMPTY; 4],
    });
    lap(heap, &mut s, &mut mark, GcPhase::Flip);
    s.report.duration = s.report.phases.flip;
    s
}

/// A conservative upper bound on the segment acquisitions a collection of
/// generations `0..=g` can perform, used by
/// [`Heap::try_collect`](crate::Heap::try_collect) to reserve the whole
/// collection's demand up front (so a collection never fails after the
/// flip). Derivation, with `F` = from-space segments (heads *and* run
/// tails) and `E` = protected-list entries visited:
///
/// * **Copies.** Survivor words per space are at most that space's
///   from-space words, so at most `F · SEGMENT_WORDS` words total. Bump
///   allocation closes a to-space segment only when the next object
///   doesn't fit, so each closed segment plus the object that forced the
///   close exceed one segment of payload; pairing them gives at most
///   `2 · F` closed segments across all cursors, plus one open segment
///   per (space, target) cursor — 4 of them. Large objects copy run for
///   run, exactly covered by `F`.
/// * **Reuse changes nothing here.** The bound counts *allocations*
///   ([`Heap::acquisitions`](crate::Heap::acquisitions) charges a segment
///   or run reissued from the table's free store like a fresh one), and
///   the from-space stays allocated until the reclaim, so no copy can land
///   in storage this collection is still reading. The watermark counts
///   allocated segments either way, and against the pool no allocation
///   draws more segments than it allocates: a free-store index draws one
///   only if its storage went back to a shared pool.
/// * **Guardian pass.** Appending a finalized entry to its tconc
///   allocates one 2-word pair, at most once per visited entry:
///   `(2 · E).div_ceil(SEGMENT_WORDS)` segments (the pair cursor's open
///   segment is already counted above).
/// * Roots, remset and weak passes allocate nothing of their
///   own, and nothing is copied after the weak pass.
///
/// The `+8` absorbs the 4 open cursors with margin.
///
/// The torture rig's fault sweep is the soundness test for this bound:
/// collections run with the acquisition fault armed exactly at the
/// reservation, and any acquisition beyond it panics.
pub(crate) fn estimate_worst_case(heap: &Heap, g: u8) -> u64 {
    let from_segments = heap
        .segs
        .iter()
        .filter(|(_, info)| info.generation <= g)
        .count() as u64;
    let entries: u64 = heap.protected[..=g as usize]
        .iter()
        .map(|l| l.len() as u64)
        .sum();
    2 * from_segments + (2 * entries).div_ceil(SEGMENT_WORDS as u64) + 8
}

/// Advances the collection by one increment: resumes phases 2–4 and runs
/// until the sweep's fixpoint or `deadline`, whichever comes first —
/// always after at least one whole work unit, so a deadline already past
/// gives one-unit increments, and `None` never yields and reads no clock
/// per unit. Returns `true` when the collection completed ([`finish`] has
/// run and `s.report` is final), `false` when it yielded with work
/// remaining.
pub(crate) fn advance(heap: &mut Heap, s: &mut Scratch, deadline: Option<Instant>) -> bool {
    let start = Instant::now();
    let mut mark = start;
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    // Every advance but a stop-the-world collection's only one counts as an
    // increment (below), so this is the first exactly when none has.
    let first = s.report.increments == 0;
    // The laps of this advance are the phase totals it adds; the first
    // counts from zero, so its laps include the flip.
    let before = if first {
        PhaseTimes::default()
    } else {
        s.report.phases
    };
    // The windows live inside this advance (see `Window`): the mutator may
    // have moved a target cursor since the last one.
    s.open_windows(heap);

    // Phase 2. Roots are re-forwarded at every advance: the mutator may
    // have stored stale (since-forwarded) or from-space pointers into root
    // slots. Every such store reset the slot's stamp to 0, so the pass
    // finds it; a slot it has already forwarded is stamped with the target
    // generation and is skipped when that is above `g` (when it is not, the
    // pass revisits it, and forwarding it again is a no-op). The first pass
    // is the one `roots_traced` counts.
    let traced = forward_roots(heap, s);
    if first {
        s.report.roots_traced = traced;
    } else {
        s.report.roots_retraced += traced;
    }
    lap(heap, s, &mut mark, GcPhase::Roots);

    // Phase 3. First the store log: slots the mutator stored into since the
    // last advance (new copies land on the scan queue and are swept
    // below). Then the remembered set, one run per yield check.
    settle_stores(heap, s);
    let mut yielded = false;
    while let Some(seg) = s.remset_pending.next() {
        remset::scan_dirty_seg(heap, s, seg);
        if expired() {
            yielded = true;
            break;
        }
    }
    lap(heap, s, &mut mark, GcPhase::Remset);

    // Phase 4: the Kleene sweep, one unit per yield check. Reaching the
    // unit fixpoint here is reaching the *global* fixpoint: no mutator ran
    // since the store log was drained above, the remembered set is
    // exhausted, and roots are forwarded.
    let mut finished = false;
    if !yielded {
        finished = match deadline {
            None => {
                kleene_sweep(heap, s);
                true
            }
            Some(_) => loop {
                if !sweep_unit(heap, s) {
                    break true;
                }
                if expired() {
                    break false;
                }
            },
        };
        lap(heap, s, &mut mark, GcPhase::Sweep);
    }

    if finished {
        finish(heap, s, &mut mark);
    } else {
        // No suspended state leaves a settled slot unforwarded or a copy's
        // card unstamped.
        settle_stores(heap, s);
    }
    s.close_windows(heap);

    // One `gc.pause_ns` sample and one `Advance` event per advance — the
    // only place either is recorded — and the first also covers the flip.
    // A collection that ran from its flip to its end in one advance with no
    // deadline is stop-the-world and reports 0 increments.
    let mut pause = start.elapsed();
    s.report.duration += pause;
    if first {
        pause += s.report.phases.flip;
    }
    let pause_ns = pause.as_nanos() as u64;
    heap.metrics_mut().histogram("gc.pause_ns").record(pause_ns);
    if deadline.is_some() || !first {
        s.report.increments += 1;
    }
    let r = &s.report;
    heap.trace_emit(|| {
        let (to, from) = (r.phases.nanos(), before.nanos());
        GcEvent::Advance {
            index: r.collection_index,
            collected_generation: r.collected_generation,
            target_generation: r.target_generation,
            increment: r.increments.max(1) as u32,
            terminal: finished,
            pause_ns,
            laps_ns: std::array::from_fn(|p| to[p] - from[p]),
        }
    });
    finished
}

/// Drains the store log ([`Scratch::stores`]), the mid-cycle barrier's one
/// rule. [`settle`]s each container: one that is still an unforwarded
/// from-space object stays logged, because its words travel with its copy.
/// Otherwise the entry names a slot of the container's current copy. A weak
/// car is not forwarded: its segment is handed to the weak pass, which
/// fixes the car and re-marks the segment if it still points younger. Any
/// other slot has its value forwarded ([`forward_settled`]) and its card
/// stamped exactly (`SegmentTable::note_collector_store`), which also
/// carries a card the from-space took with it over to the copy. Entries
/// are idempotent, so nothing is deduplicated.
fn settle_stores(heap: &mut Heap, s: &mut Scratch) {
    let mut stores = std::mem::take(&mut s.stores);
    stores.retain(|&(container, offset)| {
        let Some((copy, _)) = settle(heap, s.target, container) else {
            return true;
        };
        let slot = copy.addr().add(offset);
        let seg = slot.seg();
        if offset == 0 && copy.is_pair_ptr() && heap.segs.info(seg).space == Space::WeakPair {
            if !s.weak.contains(&seg) {
                s.weak.push(seg);
            }
        } else {
            let (v, gen) = forward_settled(heap, s, Value(heap.segs.word(slot)));
            heap.segs.set_word(slot, v.raw());
            heap.segs.note_collector_store(slot, gen);
        }
        false
    });
    s.stores = stores;
}

// A root holding an immediate is stamped with the generation [`settle`]
// gives it.
const _: () = assert!(ROOT_CLEAN == u8::MAX);

/// Phase 2: forwards the root slots this collection can move — those
/// stamped `<= g` (see [`crate::roots`]) — and stamps each with the
/// generation its referent is now in ([`forward_settled`]'s). Returns the
/// number of slots visited.
fn forward_roots(heap: &mut Heap, s: &mut Scratch) -> u64 {
    let roots = heap.roots.clone();
    roots.trace(s.g, |slot| {
        let (v, gen) = forward_settled(heap, s, *slot);
        *slot = v;
        gen
    })
}

/// Phases 5–7, once the sweep has reached its fixpoint. Nothing in here
/// yields: the guardian partition, the weak break and the reclaim are
/// atomic with respect to the mutator.
fn finish(heap: &mut Heap, s: &mut Scratch, mark: &mut Instant) {
    // Phase 5: guardians.
    guardian_pass::run(heap, s);
    lap(heap, s, mark, GcPhase::Guardian);

    // The guardian pass may have resurrected a logged container; its copy
    // is swept, so settling copies nothing — it stamps the copy's cards and
    // hands weak cars to the weak pass below.
    let copied = s.report.words_copied;
    settle_stores(heap, s);
    assert_eq!(
        s.report.words_copied, copied,
        "settling the store log copied"
    );

    // Phase 6: weak root slots, then weak pairs — after the guardian pass,
    // "so if the car field of a weak pair points to an object that has
    // been salvaged, the object will still be in the car field after
    // collection."
    weak_pass::settle_slots(heap, s);
    weak_pass::run(heap, s);
    lap(heap, s, mark, GcPhase::Weak);

    // Phase 7: return every from-space run, whole, to the free store, and
    // the free store's storage to a pool that another heap shares.
    for head in std::mem::take(&mut s.from_heads) {
        let run = heap.segs.run_len(head) as u64;
        s.report.segments_freed += run;
        heap.segs.free(head);
        heap.trace_emit(|| GcEvent::SegmentsReleased { count: run });
    }
    heap.segs.release_free_storage();
    lap(heap, s, mark, GcPhase::Reclaim);
}

/// Closes a timed section: writes the to-space windows back (a phase
/// boundary, see [`Window`]), accumulates the time since `mark` into the
/// matching phase of the report and restarts `mark`. An advance's
/// `Advance` event reports what its laps added to each phase.
fn lap(heap: &mut Heap, s: &mut Scratch, mark: &mut Instant, phase: GcPhase) {
    s.write_back(heap);
    let now = Instant::now();
    let d = now - *mark;
    *mark = now;
    let p = &mut s.report.phases;
    *match phase {
        GcPhase::Flip => &mut p.flip,
        GcPhase::Roots => &mut p.roots,
        GcPhase::Remset => &mut p.remset,
        GcPhase::Sweep => &mut p.sweep,
        GcPhase::Guardian => &mut p.guardian,
        GcPhase::Weak => &mut p.weak,
        GcPhase::Reclaim => &mut p.reclaim,
    } += d;
}

/// The paper's `forwarded?` predicate: "true when obj has been forwarded
/// during this collection or when it resides in a generation older than
/// those being collected". Non-pointers (fixnums, immediates) are
/// trivially "accessible".
pub(crate) fn forwarded_p(heap: &Heap, v: Value) -> bool {
    if !v.is_ptr() || !heap.segs.in_from_space(v.addr().seg()) {
        return true;
    }
    fwd::decode(heap.segs.word(v.addr())).is_some()
}

/// [`forwarded_p`] and the paper's `get-fwd-addr` ("returns either the
/// forwarding address of obj or the address of obj itself") in one
/// whereabouts lookup, together with the generation the referent ends this
/// collection in: `None` for an unforwarded from-space object, else its
/// address and generation — `target` for a from-space survivor, its own
/// otherwise (below `target` only for something allocated while this
/// collection was suspended), and `u8::MAX` for an immediate, which lives in
/// no generation.
///
/// # Panics
///
/// Panics if `v` points into a segment that is not allocated.
#[inline]
pub(crate) fn settle(heap: &Heap, target: u8, v: Value) -> Option<(Value, u8)> {
    if !v.is_ptr() {
        return Some((v, u8::MAX));
    }
    match heap.segs.whereabouts(v.addr().seg()) {
        WHERE_FROM => fwd::decode(heap.segs.word(v.addr())).map(|new| (v.retag_at(new), target)),
        WHERE_NONE => panic!("segment not allocated: {v:?}"),
        generation => Some((v, generation)),
    }
}

/// [`forward`] that also yields the generation `v` ends this collection in
/// (see [`settle`]): an unforwarded from-space object is copied to `target`.
pub(crate) fn forward_settled(heap: &mut Heap, s: &mut Scratch, v: Value) -> (Value, u8) {
    settle(heap, s.target, v).unwrap_or_else(|| (forward_from(heap, s, v), s.target))
}

/// Copies `v` to the target generation if it is an unforwarded from-space
/// object; returns the (possibly updated) pointer. Leaves a broken heart
/// behind.
pub(crate) fn forward(heap: &mut Heap, s: &mut Scratch, v: Value) -> Value {
    if !v.is_ptr() || !heap.segs.in_from_space(v.addr().seg()) {
        return v;
    }
    forward_from(heap, s, v)
}

/// [`forward`] for a value already known to point into the from-space.
/// Keeps the access contract stated at `remset::walk_run`, which every
/// in-place scan relies on: it touches only the from-space object and the
/// to-space words it has just allocated, through raw segment pointers.
pub(crate) fn forward_from(heap: &mut Heap, s: &mut Scratch, v: Value) -> Value {
    let addr = v.addr();
    // SAFETY: `base_ptr` checks the segment index and `offset()` is below
    // `SEGMENT_WORDS`, so `src` is a word of that segment's storage; no
    // reference into a word array is live (the `walk_run` contract).
    let src = unsafe { heap.segs.base_ptr(addr.seg()).add(addr.offset()) };
    let first = unsafe { src.read() };
    if let Some(new) = fwd::decode(first) {
        return v.retag_at(new);
    }
    // Pairs keep their space (a weak pair stays weak); typed objects keep
    // theirs trivially.
    let space = heap.segs.info(addr.seg()).space;
    let (total, copied) = if v.is_pair_ptr() {
        (2, &mut s.report.pairs_copied)
    } else {
        let Some(header) = Header::decode(first) else {
            panic!("corrupt header while forwarding {v:?}");
        };
        (header.total_words(), &mut s.report.objects_copied)
    };
    *copied += 1;
    let (to, dst) = to_alloc(heap, s, space, total);
    if total > SEGMENT_WORDS {
        heap.segs.copy_words(addr, to, total);
    } else {
        let fits = addr.offset() + total <= SEGMENT_WORDS;
        assert!(fits, "{v:?} runs off the end of its segment");
        // SAFETY: the assert keeps the source words inside their segment;
        // `to_alloc` just reserved the `total` words at `dst` inside one
        // to-space segment, distinct from the from-space source. Raw
        // segment pointers only, as above.
        unsafe {
            if v.is_pair_ptr() {
                dst.write(first);
                dst.add(1).write(src.add(1).read());
            } else {
                std::ptr::copy_nonoverlapping(src, dst, total);
            }
        }
    }
    s.report.words_copied += total as u64;
    // SAFETY: `src` is the from-space object's first word, as above.
    unsafe { src.write(fwd::encode(to)) };
    v.retag_at(to)
}

/// The collector's one to-space allocator: reserves `total` words of
/// `space` in the target generation and returns their address and a raw
/// pointer to the first of them (for a run, the head segment's first
/// word). A hit is an add and a compare on `space`'s [`Window`]; anything
/// else is [`to_alloc_miss`]. The copies land exactly where the cursor's
/// bump allocation put them, so copy order, addresses and every count are
/// those of the allocator itself.
#[inline]
pub(crate) fn to_alloc(
    heap: &mut Heap,
    s: &mut Scratch,
    space: Space,
    total: usize,
) -> (WordAddr, *mut u64) {
    let w = &mut s.windows[space.index()];
    let used = w.used;
    if used + total <= SEGMENT_WORDS {
        w.used = used + total;
        // `used + total` words fit, so `used` is an offset inside the
        // window's segment and its storage (a full empty window never
        // gets here).
        return (w.start.add(used), w.base.wrapping_add(used));
    }
    to_alloc_miss(heap, s, space, total)
}

/// [`to_alloc`]'s miss: writes every window back, so the allocator reads
/// the exact watermark, allocates — a fresh cursor segment, or a run of
/// its own that leaves the window as it was — queues it for the sweep
/// ([`Scratch::enqueue`]) and reloads `space`'s window from the cursor.
/// A miss always takes fresh storage: the cursor is as full as its window.
#[cold]
#[inline(never)]
fn to_alloc_miss(
    heap: &mut Heap,
    s: &mut Scratch,
    space: Space,
    total: usize,
) -> (WordAddr, *mut u64) {
    s.write_back(heap);
    let to = heap.alloc_words_internal(space, s.target, total);
    debug_assert_eq!(to.offset(), 0, "a window miss reused a cursor");
    s.enqueue(&heap.segs, to.seg());
    s.windows[space.index()] = Window::load(heap, space, s.target);
    (to, heap.segs.base_ptr(to.seg()).wrapping_add(to.offset()))
}

/// The watermark of to-space segment `seg`: its window's while it has one,
/// else `SegInfo::used`.
fn watermark(heap: &Heap, s: &Scratch, seg: SegIndex) -> usize {
    let info = heap.segs.info(seg);
    s.windows[info.space.index()]
        .used_of(seg)
        .unwrap_or(info.used as usize)
}

/// One word-storage base per segment of a run, as [`walk_traced`] indexes
/// it. A lone segment — nearly every segment — needs no allocation.
pub(crate) enum ChunkBases {
    One([*mut u64; 1]),
    Run(Box<[*mut u64]>),
}

impl ChunkBases {
    /// The bases of the run headed by `head`.
    pub fn of(segs: &SegmentTable, head: SegIndex) -> ChunkBases {
        let base = |i| segs.base_ptr(SegIndex(head.0 + i as u32));
        match segs.run_len(head) {
            1 => ChunkBases::One([base(0)]),
            n => ChunkBases::Run((0..n).map(base).collect()),
        }
    }
}

impl std::ops::Deref for ChunkBases {
    type Target = [*mut u64];
    fn deref(&self) -> &[*mut u64] {
        match self {
            ChunkBases::One(base) => base,
            ChunkBases::Run(bases) => bases,
        }
    }
}

/// The traced-slot walker: calls `visit` on every traced word of `span`, a
/// word range of a run, in increasing offset order — the only code that
/// knows the three layouts. `Pair`: every word. `WeakPair`:
/// odd words only ("the car field is not touched"; the weak pass settles
/// the cars). `Typed`: the span starts at a header; an object's traced
/// words follow its header and its total size steps to the next, offsets
/// running on across the run's chunk bases.
///
/// Panics if the span ends beyond the run, on a corrupt header, or if an
/// object runs past the span.
///
/// # Safety
///
/// Every `bases[i]` must point to `SEGMENT_WORDS` valid words, and for the
/// duration of the call nothing but `visit`, through the pointer it is
/// handed, may read or write the span's words.
pub(crate) unsafe fn walk_traced(
    space: Space,
    bases: &[*mut u64],
    span: Range<usize>,
    visit: impl FnMut(*mut u64),
) {
    let in_run = span.end <= bases.len() * SEGMENT_WORDS;
    assert!(in_run, "span ends past its run");
    // SAFETY (both): `walk_layout` asks only for positions inside the span,
    // so below `SEGMENT_WORDS` when the run is one segment; for a longer
    // run the index into `bases` is checked, and an offset below
    // `SEGMENT_WORDS` stays inside that chunk's storage.
    match bases {
        [base] => walk_layout(space, span, |pos| unsafe { base.add(pos) }, visit),
        _ => {
            let slot = |p: usize| unsafe { bases[p / SEGMENT_WORDS].add(p % SEGMENT_WORDS) };
            walk_layout(space, span, slot, visit)
        }
    }
}

/// [`walk_traced`] over `slot`, which resolves a position inside `span`.
fn walk_layout(
    space: Space,
    span: Range<usize>,
    slot: impl Fn(usize) -> *mut u64,
    mut visit: impl FnMut(*mut u64),
) {
    match space {
        Space::Pair => span.for_each(|pos| visit(slot(pos))),
        Space::WeakPair => (span.start | 1..span.end)
            .step_by(2)
            .for_each(|pos| visit(slot(pos))),
        Space::Typed => {
            let mut pos = span.start;
            while pos < span.end {
                // SAFETY: the caller of `walk_traced` gave it the span's words.
                let header = Header::decode(unsafe { slot(pos).read() })
                    .unwrap_or_else(|| panic!("corrupt header while scanning span@{pos}"));
                let next = pos + header.total_words();
                assert!(next <= span.end, "object at span@{pos} runs past the span");
                (pos + 1..=pos + header.traced_words()).for_each(|p| visit(slot(p)));
                pos = next;
            }
        }
        Space::Pure => unreachable!("pure segments are skipped, not scanned"),
    }
}

/// Forwards, in place, every traced from-space pointer in `span`:
/// [`walk_traced`] with the one visitor there is — read the slot, test it,
/// forward with [`forward_from`], write back.
///
/// # Safety
///
/// [`walk_traced`]'s, with [`forward_from`] in the visitor's place: under
/// the `remset::walk_run` contract it does not touch the span's words.
pub(crate) unsafe fn forward_span(
    heap: &mut Heap,
    s: &mut Scratch,
    space: Space,
    bases: &[*mut u64],
    span: Range<usize>,
) {
    // SAFETY: the caller's; the visitor touches only the slot it is handed.
    unsafe {
        walk_traced(space, bases, span, |slot| {
            let v = Value(slot.read());
            if v.is_ptr() && heap.segs.in_from_space(v.addr().seg()) {
                slot.write(forward_from(heap, s, v).raw());
            }
        });
    }
}

/// Scans one to-space segment (or run) from `off`, forwarding every traced
/// field that points into the from-space. Returns the new scan offset.
/// The [`watermark`] is re-read after every batch because scanning may copy
/// further objects into this very segment.
fn scan_segment(heap: &mut Heap, s: &mut Scratch, seg: SegIndex, mut off: usize) -> usize {
    let space = heap.segs.info(seg).space;
    let bases = ChunkBases::of(&heap.segs, seg);
    loop {
        let used = watermark(heap, s, seg);
        if off >= used {
            return off;
        }
        if space == Space::Pure {
            // Pointer-free objects: nothing to scan — skip the segment
            // wholesale.
            s.report.pure_words_skipped += (used - off) as u64;
        } else {
            // SAFETY: this run's own bases and watermark, and the
            // `walk_run` contract: copies `forward_from` lands in this very
            // run lie beyond `used`.
            unsafe { forward_span(heap, s, space, &bases, off..used) };
        }
        off = used;
    }
}

/// The paper's `kleene-sweep(g)`: "iteratively sweeps copied objects until
/// there are no newly copied objects to sweep."
///
/// Segments with unscanned words sit in a queue; a segment popped and
/// scanned to its end is *retired* unless it is an open allocation cursor
/// ([`Heap::is_cursor`]) — the only segments that can still receive
/// words without being queued afresh. Those are parked and re-checked when
/// the queue runs dry, so the sweep never re-walks finished segments.
pub(crate) fn kleene_sweep(heap: &mut Heap, s: &mut Scratch) {
    while sweep_unit(heap, s) {}
}

/// One iteration of the Kleene sweep — the increment-shaped work unit
/// [`advance`] schedules between yield checks: either scan one queued
/// segment or re-check the parked cursor segments. Returns `false` exactly
/// when the sweep has reached its fixpoint (nothing queued, nothing grew);
/// calling it again after more copies (or a [`settle_stores`] that copied)
/// resumes correctly.
fn sweep_unit(heap: &mut Heap, s: &mut Scratch) -> bool {
    if let Some((seg, off)) = s.queue.pop() {
        let new_off = scan_segment(heap, s, seg, off);
        if heap.is_cursor(seg) {
            s.parked.push((seg, new_off));
        }
        return true;
    }
    // Queue dry: re-check parked cursor segments. One that grew is
    // re-queued; one whose cursor moved on is frozen and retired.
    let mut grew = false;
    let mut i = 0;
    while i < s.parked.len() {
        let (seg, off) = s.parked[i];
        if watermark(heap, s, seg) > off {
            s.parked.swap_remove(i);
            s.queue.push((seg, off));
            grew = true;
        } else if !heap.is_cursor(seg) {
            s.parked.swap_remove(i);
        } else {
            i += 1;
        }
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::ObjKind;

    /// A run whose word `p` holds the fixnum `p` (never a header).
    fn numbered(chunks: usize) -> Vec<[u64; SEGMENT_WORDS]> {
        let word = |p: usize| Value::fixnum(p as i64).raw();
        (0..chunks)
            .map(|c| std::array::from_fn(|i| word(c * SEGMENT_WORDS + i)))
            .collect()
    }

    /// Walks `[lo, hi)` of `run` with a visitor that records, in order, the
    /// position of every slot it is handed, read back through the slot.
    fn visited(space: Space, run: &mut [[u64; SEGMENT_WORDS]], lo: usize, hi: usize) -> Vec<usize> {
        let bases: Vec<*mut u64> = run.iter_mut().map(|c| c.as_mut_ptr()).collect();
        let mut seen = Vec::new();
        // SAFETY: every base is a whole array, touched by the visitor only.
        unsafe {
            walk_traced(space, &bases, lo..hi, |slot| {
                seen.push(Value(slot.read()).as_fixnum() as usize);
                slot.write(slot.read());
            });
        }
        seen
    }

    #[test]
    fn a_pair_span_visits_every_word_and_nothing_outside() {
        let seen = visited(Space::Pair, &mut numbered(1), 6, 40);
        assert_eq!(seen, (6..40).collect::<Vec<_>>());
    }

    #[test]
    fn a_weak_pair_span_visits_odd_words_only() {
        let seen = visited(Space::WeakPair, &mut numbered(1), 6, 40);
        assert_eq!(seen, (7..40).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn a_typed_span_lands_on_every_header_and_visits_the_traced_fields() {
        use ObjKind::{Box, Record, Symbol, Vector};
        let mut run = numbered(1);
        let (mut pos, mut traced) = (8, Vec::new());
        let tiles = [
            (Record, 3),
            (Box, 1),
            (Vector, 0),
            (Symbol, 2),
            (Vector, 0),
            (Vector, 2),
        ];
        for (kind, len) in tiles {
            let header = Header::new(kind, len);
            run[0][pos] = header.encode();
            traced.extend(pos + 1..=pos + header.traced_words());
            pos += header.total_words();
        }
        // A step that missed a header would decode a fixnum and panic.
        assert_eq!(visited(Space::Typed, &mut run, 8, pos), traced);
    }

    #[test]
    fn a_three_chunk_run_is_walked_across_both_chunk_boundaries() {
        let mut run = numbered(3);
        run[0][0] = Header::new(ObjKind::Vector, 1200).encode();
        let seen = visited(Space::Typed, &mut run, 0, 1201);
        assert_eq!(seen, (1..1201).collect::<Vec<_>>(), "511|512 and 1023|1024");
    }

    #[test]
    #[should_panic(expected = "corrupt header while scanning")]
    fn a_corrupt_header_panics() {
        visited(Space::Typed, &mut numbered(1), 0, 8);
    }

    /// A surviving large Typed object is copied into a run *reissued* from
    /// the free store — at indices the table already had at the flip — and
    /// the guardian pass resurrects a second one the same way.
    #[test]
    fn a_large_run_is_copied_into_a_run_reissued_from_the_free_store() {
        let mut h = Heap::default();
        // Five dead 2-segment vectors leave five free runs of 2; the first
        // pair segment takes one apart, the two large vectors below take
        // one each, two are still free at the flip.
        for _ in 0..5 {
            h.make_vector(700, Value::NIL);
        }
        h.collect(0);
        let elem = h.cons(Value::fixnum(5), Value::NIL);
        let big = h.make_vector(700, elem);
        // Reachable only through a pair: the pair is copied with the roots,
        // `big` by the scan of it.
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
        h.collect(0);
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
        assert_eq!(order, [7, 1600, 8]);
    }

    /// A heap with a collection of generation 0 begun and its windows
    /// opened, as at the start of an advance: every target cursor was
    /// closed by the flip, so every window is empty.
    fn advancing() -> (Heap, Box<Scratch>) {
        let mut h = Heap::default();
        h.cons(Value::NIL, Value::NIL);
        let mut s = begin(&mut h, 0);
        s.open_windows(&h);
        assert!(s.holds_no_window());
        (h, s)
    }

    /// Ends the collection `advancing` began: the windows are closed, the
    /// copies and the words reserved by hand are swept, and the heap checks.
    fn finish_and_verify(mut h: Heap, mut s: Box<Scratch>) {
        s.close_windows(&mut h);
        assert!(advance(&mut h, &mut s, None));
        h.verify().expect("valid heap");
    }

    #[test]
    fn a_window_hit_is_an_add_on_the_window_alone() {
        let (mut h, mut s) = advancing();
        let (first, dst) = to_alloc(&mut h, &mut s, Space::Pair, 2);
        let seg = first.seg();
        assert_eq!(first.offset(), 0, "the miss opened a fresh segment");
        assert_eq!(s.windows[Space::Pair.index()].used, 2);
        // SAFETY: `to_alloc` reserved two words at `dst`.
        unsafe {
            dst.write(Value::fixnum(1).raw());
            dst.add(1).write(Value::NIL.raw());
        }
        let (second, dst) = to_alloc(&mut h, &mut s, Space::Pair, 2);
        assert_eq!(second, first.add(2), "bumped in the same segment");
        // SAFETY: as above.
        unsafe { dst.write(Value::fixnum(2).raw()) };
        assert_eq!(h.segs.word(second), Value::fixnum(2).raw());
        // The hit left `SegInfo::used` behind; the window is the watermark
        // until the next write-back point.
        assert_eq!(h.segs.info(seg).used, 2);
        assert_eq!(watermark(&h, &s, seg), 4);
        s.write_back(&mut h);
        assert_eq!(h.segs.info(seg).used, 4);
        finish_and_verify(h, s);
    }

    #[test]
    fn a_window_miss_writes_back_and_reloads_on_a_fresh_segment() {
        let (mut h, mut s) = advancing();
        let (first, _) = to_alloc(&mut h, &mut s, Space::Pair, 2);
        let old = first.seg();
        while s.windows[Space::Pair.index()].used < SEGMENT_WORDS {
            to_alloc(&mut h, &mut s, Space::Pair, 2);
        }
        assert_eq!(h.segs.info(old).used, 2, "hits only, so far");
        let (next, dst) = to_alloc(&mut h, &mut s, Space::Pair, 2);
        assert_ne!(next.seg(), old);
        assert_eq!(next.offset(), 0);
        assert_eq!(dst, h.segs.base_ptr(next.seg()));
        assert_eq!(
            h.segs.info(old).used as usize,
            SEGMENT_WORDS,
            "written back"
        );
        assert!(!h.is_cursor(old));
        let w = s.windows[Space::Pair.index()];
        assert_eq!((w.start, w.used), (next, 2));
        assert_eq!(h.segs.info(next.seg()).used, 2);
        finish_and_verify(h, s);
    }

    #[test]
    fn a_large_run_leaves_the_window_untouched() {
        let (mut h, mut s) = advancing();
        let (small, dst) = to_alloc(&mut h, &mut s, Space::Typed, 2);
        // SAFETY: two words reserved at `dst`.
        unsafe { dst.write(Header::new(ObjKind::Box, 1).encode()) };
        let before = s.windows[Space::Typed.index()];
        let total = 700 + 1;
        let (run, dst) = to_alloc(&mut h, &mut s, Space::Typed, total);
        assert_eq!(s.windows[Space::Typed.index()], before);
        assert_ne!(run.seg(), small.seg());
        assert_eq!((run.offset(), h.segs.run_len(run.seg())), (0, 2));
        assert_eq!(h.segs.info(run.seg()).used as usize, total);
        assert_eq!(dst, h.segs.base_ptr(run.seg()));
        // SAFETY: the run's head segment starts at `dst`.
        unsafe { dst.write(Header::new(ObjKind::Vector, 700).encode()) };
        let (next, _) = to_alloc(&mut h, &mut s, Space::Typed, 2);
        assert_eq!(next, small.add(2), "the window still bumps where it was");
        h.segs.set_word(next, Header::new(ObjKind::Box, 1).encode());
        finish_and_verify(h, s);
    }

    #[test]
    fn verify_rejects_a_window_held_between_increments() {
        let mut h = Heap::new(crate::GcConfig {
            pause_budget: Some(std::time::Duration::ZERO),
            ..crate::GcConfig::new()
        });
        let list = (0..600).fold(Value::NIL, |l, i| h.cons(Value::fixnum(i), l));
        let root = h.root(list);
        h.begin_incremental(0);
        assert!(h.gc_step().is_none(), "one unit does not finish 600 pairs");
        h.verify().expect("the advance emptied its windows");
        let mut s = h.incremental.take().expect("suspended");
        s.open_windows(&h);
        h.incremental = Some(s);
        let err = h.verify().expect_err("a window outlived its advance");
        assert!(err.to_string().contains("to-space window"), "got: {err}");
        h.incremental.as_mut().expect("suspended").windows = [Window::EMPTY; 4];
        h.collect(0);
        h.verify().expect("sound after the cycle");
        assert_eq!(h.car(root.get()), Value::fixnum(599));
    }
}
