//! The heap: segment-backed storage, bump allocation per space ×
//! generation, roots, guardians' protected lists, and collection entry
//! points.
//!
//! # Safe points
//!
//! Unlike Chez Scheme, which may collect at any allocation, this embedding
//! collects **only** inside explicit [`Heap::collect`] /
//! [`Heap::maybe_collect`] calls. Allocation grows the heap instead. This
//! makes the API sound without a conservative stack scanner: a [`Value`]
//! in a Rust local is safe across any call except the two collection entry
//! points, across which it must be held in a [`Rooted`] cell or reachable
//! from one.

use crate::collect;
use crate::config::GcConfig;
use crate::error::GcError;
use crate::guardian::Guardian;
use crate::header::{Header, ObjKind};
use crate::metrics::MetricsRegistry;
use crate::roots::{RootSet, Rooted, RootedVec};
use crate::stats::{CollectionReport, HeapStats};
use crate::trace::{GcEvent, SiteProfile, SiteStats, TraceConfig, TracedEvent, Tracer};
use crate::value::Value;
use guardians_segments::{
    SegIndex, SegmentPool, SegmentTable, Space, WordAddr, SEGMENT_WORDS, WHERE_FROM,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A guardian protected-list entry: the paper's "object/guardian pair",
/// extended with the Section 5 *agent* generalisation (`rep` is what gets
/// enqueued when `obj` is proven inaccessible; in the simple interface
/// `rep == obj`).
#[derive(Copy, Clone, Debug)]
pub(crate) struct GuardEntry {
    pub obj: Value,
    pub rep: Value,
    pub tconc: Value,
}

/// A generation-based copying heap with guardians and weak pairs.
pub struct Heap {
    pub(crate) segs: SegmentTable,
    pub(crate) config: GcConfig,
    /// Open allocation segment per (space, generation), as a flat table
    /// indexed `generation * 4 + space.index()`: the mutator's allocation
    /// fast path costs one array load, not a hash lookup (the collector
    /// loads its to-space windows from here once per advance).
    pub(crate) cursors: Vec<Option<SegIndex>>,
    pub(crate) roots: RootSet,
    /// Protected lists, one per generation.
    pub(crate) protected: Vec<Vec<GuardEntry>>,
    /// The collection in flight, between `collect::begin` and its
    /// completing `collect::advance`; with a [`GcConfig::pause_budget`] it
    /// rests here between increments, and it is the heap's only
    /// per-collection state. Taken out of the heap while an advance runs,
    /// so accessor read/write barriers — and the allocator, which queues
    /// the mutator's fresh segments on it for the sweep — see `None`
    /// exactly when the collector itself is running.
    pub(crate) incremental: Option<Box<collect::Scratch>>,
    pub(crate) stats: HeapStats,
    last_report: Option<CollectionReport>,
    pub(crate) collections: u64,
    bytes_since_gc: usize,
    /// Lifetime count of segment acquisitions (runs count one per
    /// segment), compared against `acquisition_fault` by the fallible
    /// entry points.
    acquisitions: u64,
    /// The fault-injection limit on `acquisitions` (see
    /// [`Heap::set_acquisition_fault`]).
    acquisition_fault: Option<u64>,
    /// The event tracer; `None` (one null test per instrumentation site)
    /// unless [`Heap::enable_tracing`] was called.
    pub(crate) tracer: Option<Box<Tracer>>,
    /// The metrics registry; collection reports are folded in as they
    /// happen, mutator-side counters are synced on snapshot.
    metrics: MetricsRegistry,
    /// The allocation site the embedding last tagged (see
    /// [`Heap::set_alloc_site`]); attributed by the site profiler.
    alloc_site: Option<&'static str>,
    /// Per-site allocation attribution; `None` unless
    /// [`Heap::enable_site_profile`] was called.
    site_profile: Option<Box<SiteProfile>>,
}

impl Heap {
    /// Creates a heap with the given configuration. The configuration is
    /// fixed for the heap's life: no method changes it afterwards, so a
    /// survivor's generation never decreases under any
    /// [`Promotion`](crate::Promotion).
    ///
    /// # Panics
    ///
    /// Panics if `config.generations` is 0 or above 254.
    pub fn new(config: GcConfig) -> Heap {
        assert!(
            config.generations >= 1,
            "GcConfig::generations is 0: at least one generation is required"
        );
        // Generations are bytes in the segment table's whereabouts table,
        // where two values are reserved, as `CARD_CLEAN` is in the card table.
        assert!(
            config.generations <= WHERE_FROM,
            "GcConfig::generations is {}: at most {WHERE_FROM} generations are supported",
            config.generations
        );
        let gens = config.generations as usize;
        Heap {
            segs: SegmentTable::new(),
            cursors: vec![None; gens * 4],
            roots: RootSet::default(),
            protected: (0..gens).map(|_| Vec::new()).collect(),
            incremental: None,
            stats: HeapStats::default(),
            last_report: None,
            collections: 0,
            bytes_since_gc: 0,
            acquisitions: 0,
            acquisition_fault: None,
            tracer: None,
            metrics: MetricsRegistry::default(),
            alloc_site: None,
            site_profile: None,
            config,
        }
    }

    /// Creates a heap whose segment storage comes from a shared
    /// [`SegmentPool`] — the multi-tenant configuration, where many heaps
    /// ("zones") draw on one fleet-level capacity budget. `max_segments`
    /// is this heap's watermark, fixed like the rest of its policy: a
    /// per-tenant quota that both bounds the tenant and, when the fleet's
    /// watermarks sum to at most the pool capacity, guarantees its `try_*`
    /// preflights stay race-free against concurrent tenants.
    ///
    /// Allocation behaviour (addresses, recycling of freed segments and
    /// runs, observables) is byte-identical to [`Heap::new`]; pool exhaustion and the watermark
    /// surface through the same budget discipline as acquisition faults —
    /// `try_*` entry points return [`GcError::Exhausted`], infallible
    /// paths treat an unpreflighted shortfall as a panic-worthy bug. While
    /// another heap shares the pool, every collection gives the storage of
    /// the heap's free segments back to it, so a collection's to-space is
    /// drawn from the pool when it runs; all segments return to the pool
    /// when the heap drops.
    pub fn with_pool(
        config: GcConfig,
        pool: Arc<SegmentPool>,
        max_segments: Option<usize>,
    ) -> Heap {
        let mut heap = Heap::new(config);
        heap.segs = SegmentTable::with_pool(pool, max_segments);
        heap
    }

    /// Segments the heap's table can still acquire before its zone
    /// watermark or shared-pool capacity binds; `u64::MAX` when neither
    /// does (see [`SegmentTable::acquirable`] for the conservative
    /// contract). Quota sizing note: a copy collection transiently holds
    /// from-space and to-space at once, so a zone watermark must leave
    /// copy-reserve headroom (at least the live-data segment count)
    /// above the mutator's working set, or collection at the watermark
    /// trips the budget discipline.
    pub fn segs_acquirable(&self) -> u64 {
        self.segs.acquirable()
    }

    /// The heap's configuration.
    pub fn config(&self) -> &GcConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// The bump-allocation *hit*: the (`space`, `gen`) cursor is open and
    /// `words` more fit in its segment; [`Heap::alloc_words_internal`] tries
    /// it first. Outside a collection's advance `SegInfo::used` is the only
    /// watermark. Inside one the collector copies through its own to-space
    /// windows (`collect::to_alloc`), which cache the target generation's
    /// cursors and write their watermarks back before this runs on their
    /// miss, at every phase boundary and when the advance returns.
    #[inline]
    pub(crate) fn bump(&mut self, space: Space, gen: u8, words: usize) -> Option<WordAddr> {
        let seg = self.cursors[gen as usize * 4 + space.index()]?;
        let info = self.segs.info_mut(seg);
        let used = info.used as usize;
        if used + words > SEGMENT_WORDS {
            return None;
        }
        info.used = (used + words) as u32;
        Some(WordAddr::new(seg, used))
    }

    /// Raw bump allocation of `words` words in (`space`, `gen`). Does not
    /// touch mutator accounting; used by both the mutator wrappers and the
    /// miss of the collector's to-space window. Between increments a fresh
    /// segment or run is queued on the suspended collection
    /// (`Scratch::enqueue`), so the sweep traces the mutator's initializing
    /// stores, which bypass the write barrier; the collector's miss queues
    /// its own.
    pub(crate) fn alloc_words_internal(&mut self, space: Space, gen: u8, words: usize) -> WordAddr {
        debug_assert!(words > 0);
        if let Some(addr) = self.bump(space, gen, words) {
            return addr;
        }
        let seg = if words > SEGMENT_WORDS {
            // A run of its own, reissued from the table's free store when a
            // dead large object left one long enough.
            let nsegs = words.div_ceil(SEGMENT_WORDS);
            self.note_acquisitions(nsegs as u64);
            self.segs.allocate_run(space, gen, nsegs)
        } else {
            self.note_acquisitions(1);
            let seg = self.segs.allocate(space, gen);
            self.cursors[gen as usize * 4 + space.index()] = Some(seg);
            seg
        };
        self.segs.info_mut(seg).used = words as u32;
        if let Some(s) = self.incremental.as_mut() {
            s.enqueue(&self.segs, seg);
        }
        WordAddr::new(seg, 0)
    }

    /// Mutator allocation: generation 0, with accounting.
    fn alloc_mutator(&mut self, space: Space, words: usize) -> WordAddr {
        self.bytes_since_gc += words * 8;
        self.stats.words_allocated += words as u64;
        // Observability off: one null test, nothing else.
        if self.site_profile.is_some() {
            self.note_site_alloc(words);
        }
        self.alloc_words_internal(space, 0, words)
    }

    /// The slow (profiling-enabled) half of mutator-allocation accounting:
    /// attributes the allocation to the site last tagged.
    fn note_site_alloc(&mut self, words: usize) {
        let site = self.alloc_site.unwrap_or("<untagged>");
        if let Some(profile) = self.site_profile.as_mut() {
            let entry = profile.sites.entry(site).or_default();
            entry.allocations += 1;
            entry.words += words as u64;
        }
    }

    /// Allocates a pair `(car . cdr)`.
    #[inline]
    pub fn cons(&mut self, car: Value, cdr: Value) -> Value {
        let addr = self.alloc_mutator(Space::Pair, 2);
        self.stats.pairs_allocated += 1;
        self.segs.set_word(addr, car.raw());
        self.segs.set_word(addr.add(1), cdr.raw());
        Value::pair_at(addr)
    }

    /// Allocates a weak pair: like [`Heap::cons`], but the car field holds
    /// a weak pointer (it is replaced by `#f` if its referent is reclaimed;
    /// see the paper's Section 4).
    pub fn weak_cons(&mut self, car: Value, cdr: Value) -> Value {
        let addr = self.alloc_mutator(Space::WeakPair, 2);
        self.stats.pairs_allocated += 1;
        self.segs.set_word(addr, car.raw());
        self.segs.set_word(addr.add(1), cdr.raw());
        Value::pair_at(addr)
    }

    fn alloc_typed(&mut self, header: Header) -> WordAddr {
        let space = space_for(&header);
        let addr = self.alloc_mutator(space, header.total_words());
        self.stats.objects_allocated += 1;
        self.segs.set_word(addr, header.encode());
        addr
    }

    /// Allocates a vector of `len` copies of `fill`.
    pub fn make_vector(&mut self, len: usize, fill: Value) -> Value {
        let addr = self.alloc_typed(Header::new(ObjKind::Vector, len));
        self.segs.fill_words(addr.add(1), len, fill.raw());
        Value::obj_at(addr)
    }

    /// Allocates an immutable string.
    pub fn make_string(&mut self, s: &str) -> Value {
        let bytes = s.as_bytes();
        let addr = self.alloc_typed(Header::new(ObjKind::String, bytes.len()));
        write_bytes(&mut self.segs, addr.add(1), bytes);
        Value::obj_at(addr)
    }

    /// Allocates a bytevector of `len` copies of `fill`, writing the fill
    /// pattern one broadcast `u64` per word — no intermediate buffer.
    pub fn make_bytevector(&mut self, len: usize, fill: u8) -> Value {
        let addr = self.alloc_typed(Header::new(ObjKind::Bytevector, len));
        let payload = addr.add(1);
        let broadcast = u64::from_le_bytes([fill; 8]);
        self.segs.fill_words(payload, len / 8, broadcast);
        let rem = len % 8;
        if rem > 0 {
            // Match `write_bytes`'s layout: trailing bytes of the last
            // word are zero padding.
            let mut last = [0u8; 8];
            last[..rem].fill(fill);
            self.segs
                .set_word(payload.add(len / 8), u64::from_le_bytes(last));
        }
        Value::obj_at(addr)
    }

    /// Allocates a box holding `v`.
    pub fn make_box(&mut self, v: Value) -> Value {
        let addr = self.alloc_typed(Header::new(ObjKind::Box, 1));
        self.segs.set_word(addr.add(1), v.raw());
        Value::obj_at(addr)
    }

    /// Allocates a flonum.
    pub fn make_flonum(&mut self, f: f64) -> Value {
        let addr = self.alloc_typed(Header::new(ObjKind::Flonum, 1));
        self.segs.set_word(addr.add(1), f.to_bits());
        Value::obj_at(addr)
    }

    /// Allocates an (uninterned) symbol with the given name. Interning is
    /// the runtime layer's job.
    pub fn make_symbol(&mut self, name: &str) -> Value {
        let name_v = self.make_string(name);
        let addr = self.alloc_typed(Header::new(ObjKind::Symbol, 2));
        self.segs.set_word(addr.add(1), name_v.raw());
        self.segs.set_word(addr.add(2), Value::FALSE.raw());
        Value::obj_at(addr)
    }

    /// Allocates a record of `n_fields` copies of `fill` — the
    /// no-intermediate-buffer constructor for environment frames and
    /// other fixed-shape records whose fields are set immediately after.
    #[inline]
    pub fn make_record_filled(&mut self, descriptor: Value, n_fields: usize, fill: Value) -> Value {
        let addr = self.alloc_typed(Header::new(ObjKind::Record, 1 + n_fields));
        self.segs.set_word(addr.add(1), descriptor.raw());
        for i in 0..n_fields {
            self.segs.set_word(addr.add(2 + i), fill.raw());
        }
        Value::obj_at(addr)
    }

    /// Allocates a record with a descriptor and fields.
    #[inline]
    pub fn make_record(&mut self, descriptor: Value, fields: &[Value]) -> Value {
        let addr = self.alloc_typed(Header::new(ObjKind::Record, 1 + fields.len()));
        self.segs.set_word(addr.add(1), descriptor.raw());
        for (i, f) in fields.iter().enumerate() {
            self.segs.set_word(addr.add(2 + i), f.raw());
        }
        Value::obj_at(addr)
    }

    /// Drops allocation cursors for the collected generations (their
    /// segments are about to be freed) and the target generation (so the
    /// Cheney scan sees only freshly copied objects in to-space segments).
    pub(crate) fn reset_cursors(&mut self, g: u8, target: u8) {
        for (i, cursor) in self.cursors.iter_mut().enumerate() {
            let gen = (i / 4) as u8;
            if gen <= g || gen == target {
                *cursor = None;
            }
        }
    }

    /// Whether `seg` is an open allocation cursor — the only segments
    /// whose `used` watermark can still advance without the segment being
    /// queued afresh, so the only ones the Cheney sweep must re-check. One
    /// load from the cursor table, at the slot of `seg`'s own space and
    /// generation.
    pub(crate) fn is_cursor(&self, seg: SegIndex) -> bool {
        let info = self.segs.info(seg);
        self.cursors[info.generation as usize * 4 + info.space.index()] == Some(seg)
    }

    // ------------------------------------------------------------------
    // Fallible allocation and the segment-acquisition budget
    // ------------------------------------------------------------------
    //
    // The `try_*` entry points model a heap with a hard memory cap: they
    // compute the operation's full segment demand *up front* and fail with
    // a clean [`GcError::Exhausted`] — no partial mutation, heap still
    // `verify()`-valid — when the demand exceeds the remaining
    // [`Heap::set_acquisition_fault`] budget. The torture rig drives
    // these with the fault placed at every offset in a sweep.

    /// Records `n` segment acquisitions, enforcing the fault-injection
    /// tripwire: an infallible path must never be the one to cross the
    /// configured limit — a fallible entry point's preflight should have
    /// rejected the operation first. For a collection, tripping this
    /// panic would mean [`Heap::try_collect`]'s worst-case reservation
    /// was unsound.
    pub(crate) fn note_acquisitions(&mut self, n: u64) {
        if let Some(limit) = self.acquisition_fault {
            let acquired = self.acquisitions;
            assert!(
                acquired + n <= limit,
                "segment-acquisition fault fired inside an infallible path: \
                 {acquired} acquired, {n} more requested, limit {limit} — a fallible \
                 entry point's preflight should have rejected this operation",
            );
        }
        self.acquisitions += n;
        self.trace_emit(|| GcEvent::SegmentsAcquired { count: n });
    }

    /// Lifetime count of segment acquisitions (multi-segment runs count
    /// one per segment; a segment or a whole run reissued from the table's
    /// free store counts like a fresh mapping, so the count — and the
    /// fault placed on it — depends on what was allocated, never on what
    /// happened to be free).
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Segments still acquirable before the configured fault fires
    /// (`u64::MAX` when no fault is configured).
    fn acquisitions_remaining(&self) -> u64 {
        match self.acquisition_fault {
            Some(limit) => limit.saturating_sub(self.acquisitions),
            None => u64::MAX,
        }
    }

    /// Installs, moves, or clears the segment-acquisition fault — the
    /// fault-injection knob, doubling as a hard heap-size cap. With
    /// `Some(n)` the heap's *n+1-th* lifetime segment acquisition — and
    /// every one after it — fails, simulating memory exhaustion at an
    /// arbitrary point (the limit counts *lifetime* acquisitions, so one at
    /// or below [`Heap::acquisitions`] makes every further acquisition
    /// fail). The fallible entry points ([`Heap::try_cons`] and friends,
    /// [`Heap::try_collect`]) check their full segment demand against the
    /// remaining budget *before* mutating anything, so they fail cleanly
    /// with [`GcError::Exhausted`] and an intact heap. If an infallible path
    /// crosses the limit instead, the heap panics — in the torture rig that
    /// panic is the tripwire proving a preflight bound unsound.
    pub fn set_acquisition_fault(&mut self, fail_at: Option<u64>) {
        self.acquisition_fault = fail_at;
    }

    /// Errors unless `segments` more segments can be acquired. Lets a
    /// caller preflight a *composite* operation (several allocations that
    /// must all succeed or none happen) against a conservative upper
    /// bound before performing any of them with the infallible
    /// constructors — the torture rig's all-or-nothing op application.
    ///
    /// # Errors
    ///
    /// [`GcError::Exhausted`] if the demand exceeds the remaining budget.
    #[must_use = "a dropped Exhausted error silently skips the fault-injection path; handle or propagate it"]
    pub fn try_reserve(&self, segments: u64) -> Result<(), GcError> {
        self.check_budget(segments)
    }

    /// Errors unless `needed` more segments can be acquired. The budget
    /// is the tightest of three bounds: the configured acquisition fault,
    /// the heap's `max_segments` watermark, and the shared pool's spare
    /// capacity (see [`SegmentTable::acquirable`] — deliberately
    /// conservative: what the table's free store could serve is not
    /// credited, so a passing preflight can never strand an infallible
    /// path on a tripwire, and a heap that churns large objects at a
    /// steady size passes it with the same headroom every time).
    fn check_budget(&self, needed: u64) -> Result<(), GcError> {
        let remaining = self.acquisitions_remaining().min(self.segs.acquirable());
        if needed > remaining {
            return Err(GcError::Exhausted { needed, remaining });
        }
        Ok(())
    }

    /// Segments a generation-0 allocation of `words` words in `space`
    /// acquires: 0 if it fits the open cursor, 1 for a new segment, or the
    /// run length for a large object. Exact, not an estimate — the bump
    /// allocator's decision procedure evaluated against the current
    /// cursor.
    fn segments_needed(&self, space: Space, words: usize) -> u64 {
        if words > SEGMENT_WORDS {
            return words.div_ceil(SEGMENT_WORDS) as u64;
        }
        if let Some(seg) = self.cursors[space.index()] {
            if self.segs.info(seg).used as usize + words <= SEGMENT_WORDS {
                return 0;
            }
        }
        1
    }

    /// Fallible [`Heap::cons`].
    ///
    /// # Errors
    ///
    /// [`GcError::Exhausted`] (heap untouched) if the pair would not fit
    /// in the remaining segment budget.
    pub fn try_cons(&mut self, car: Value, cdr: Value) -> Result<Value, GcError> {
        self.check_budget(self.segments_needed(Space::Pair, 2))?;
        Ok(self.cons(car, cdr))
    }

    /// Fallible [`Heap::make_vector`].
    ///
    /// # Errors
    ///
    /// [`GcError::Exhausted`] (heap untouched) on insufficient budget.
    pub fn try_make_vector(&mut self, len: usize, fill: Value) -> Result<Value, GcError> {
        let header = Header::new(ObjKind::Vector, len);
        self.check_budget(self.segments_needed(space_for(&header), header.total_words()))?;
        Ok(self.make_vector(len, fill))
    }

    /// Fallible [`Heap::make_string`].
    ///
    /// # Errors
    ///
    /// [`GcError::Exhausted`] (heap untouched) on insufficient budget.
    pub fn try_make_string(&mut self, s: &str) -> Result<Value, GcError> {
        let header = Header::new(ObjKind::String, s.len());
        self.check_budget(self.segments_needed(space_for(&header), header.total_words()))?;
        Ok(self.make_string(s))
    }

    /// Fallible [`Heap::make_bytevector`].
    ///
    /// # Errors
    ///
    /// [`GcError::Exhausted`] (heap untouched) on insufficient budget.
    pub fn try_make_bytevector(&mut self, len: usize, fill: u8) -> Result<Value, GcError> {
        let header = Header::new(ObjKind::Bytevector, len);
        self.check_budget(self.segments_needed(space_for(&header), header.total_words()))?;
        Ok(self.make_bytevector(len, fill))
    }

    /// The conservative worst-case segment reservation a collection of
    /// generations `0..=gen` would make right now — the amount
    /// [`Heap::try_collect`] checks against the remaining budget. Exposed
    /// so tests can arm the acquisition fault exactly at (or just past)
    /// the reservation boundary.
    pub fn collection_reservation(&self, gen: u8) -> u64 {
        assert!(gen < self.config.generations, "no such generation: {gen}");
        collect::estimate_worst_case(self, gen)
    }

    /// Fallible [`Heap::collect`]: reserves a conservative worst case for
    /// the whole collection — to-space copies, the guardian pass's tconc
    /// appends, everything — against the remaining segment budget
    /// *before the flip*, so a collection either runs to completion or
    /// fails before mutating anything (see
    /// `collect::estimate_worst_case` for the bound's derivation).
    /// This is the only way a collection can "run out of memory": the
    /// infallible [`Heap::collect`] under a configured fault would panic
    /// via the acquisition tripwire instead of corrupting the heap.
    ///
    /// # Errors
    ///
    /// [`GcError::Exhausted`] (heap untouched, no collection counted) if
    /// the reservation exceeds the remaining budget.
    #[must_use = "a dropped Exhausted error silently skips the fault-injection path; handle or propagate it"]
    pub fn try_collect(&mut self, gen: u8) -> Result<&CollectionReport, GcError> {
        assert!(gen < self.config.generations, "no such generation: {gen}");
        // When resuming a suspended collection, the bound is for *its*
        // generation (`gen` applies to the next cycle).
        let g = self.incremental.as_ref().map_or(gen, |s| s.g);
        self.check_budget(collect::estimate_worst_case(self, g))?;
        Ok(self.collect(gen))
    }

    // ------------------------------------------------------------------
    // Roots
    // ------------------------------------------------------------------

    /// Registers `v` as a GC root; the returned handle tracks relocation.
    pub fn root(&mut self, v: Value) -> Rooted {
        self.roots.root(v)
    }

    /// Creates a rooted shadow stack (used by interpreters and tests that
    /// juggle many live values).
    pub fn root_vec(&mut self) -> RootedVec {
        self.roots.root_vec()
    }

    /// A clone of the heap's handle on its root table, for a client that
    /// roots values without borrowing the heap (the typed layer's
    /// `GcHeap`): [`RootSet::root`] claims a slot in the same slab as
    /// [`Heap::root`], and [`RootSet::weak`] a weak slot.
    pub fn roots(&self) -> RootSet {
        self.roots.clone()
    }

    // ------------------------------------------------------------------
    // Guardians
    // ------------------------------------------------------------------

    /// Creates a guardian (the paper's `make-guardian`). The returned
    /// handle roots the guardian's tconc; dropping every handle (and every
    /// heap reference to the tconc) cancels finalization of the registered
    /// group, as described in the paper's introduction.
    pub fn make_guardian(&mut self) -> Guardian {
        let tconc = self.make_tconc();
        Guardian::new(self.roots.root(tconc))
    }

    /// Registers `obj` with the guardian represented by `tconc` (low-level
    /// interface; see [`Guardian::register`]). `rep` is the value enqueued
    /// when `obj` is proven inaccessible — pass `obj` itself for the
    /// paper's simple interface, or an *agent* for the Section 5
    /// generalisation.
    pub fn guardian_register(&mut self, tconc: Value, obj: Value, rep: Value) {
        assert!(
            self.is_pair(tconc),
            "guardian tconc must be a pair: {tconc:?}"
        );
        self.stats.guardian_registrations += 1;
        // "Each time an object is registered with a guardian, a new pair
        // (of the object and guardian) is added to the protected list for
        // generation 0."
        self.protected[0].push(GuardEntry { obj, rep, tconc });
    }

    /// Number of registered-but-not-yet-finalized entries watching
    /// objects for this tconc (diagnostic; O(total registrations)).
    pub fn guardian_watched(&self, tconc: Value) -> usize {
        self.protected
            .iter()
            .flatten()
            .filter(|e| e.tconc == tconc)
            .count()
    }

    // ------------------------------------------------------------------
    // Collection
    // ------------------------------------------------------------------

    /// Collects generations `0..=gen`, returning the report: begins a
    /// collection unless one is already in flight (then that one is
    /// finished — its own generation choice wins, and `gen` applies to no
    /// cycle), and advances it to its end. [`GcConfig::pause_budget`] is
    /// each advance's deadline; without one there is a single advance that
    /// never yields — a stop-the-world collection.
    ///
    /// # Panics
    ///
    /// Panics if `gen` is not a valid generation.
    pub fn collect(&mut self, gen: u8) -> &CollectionReport {
        assert!(gen < self.config.generations, "no such generation: {gen}");
        if self.incremental.is_none() {
            self.begin_incremental(gen);
        }
        let budget = self.config.pause_budget;
        while self.advance(budget).is_none() {}
        self.last_report
            .as_ref()
            .expect("completing advance set it")
    }

    /// Runs one advance of the collection in flight, with `budget` from
    /// now as its deadline. Returns the final report on the completing
    /// advance, `None` while work remains *or* when no collection is in
    /// flight.
    fn advance(&mut self, budget: Option<Duration>) -> Option<&CollectionReport> {
        let mut s = self.incremental.take()?;
        let deadline = budget.map(|b| Instant::now() + b);
        if collect::advance(self, &mut s, deadline) {
            Some(self.finish_collection(s.report))
        } else {
            self.incremental = Some(s);
            None
        }
    }

    /// Post-collection bookkeeping: fold the report into the cumulative
    /// stats and the metrics registry, reset the allocation trigger, take
    /// the end-of-collection census if the tracer asked for one, and
    /// publish the report.
    fn finish_collection(&mut self, report: CollectionReport) -> &CollectionReport {
        self.stats.absorb(&report);
        self.absorb_metrics(&report);
        self.bytes_since_gc = 0;
        if self
            .tracer
            .as_ref()
            .is_some_and(|t| t.cfg.census_at_collection_end)
        {
            self.emit_census_events();
        }
        self.last_report = Some(report);
        self.last_report.as_ref().expect("just set")
    }

    /// Collects if at least `trigger_bytes` have been allocated since the
    /// last collection, choosing the generation from the configured
    /// schedule. Call this at safe points (no unrooted live values).
    ///
    /// With [`GcConfig::pause_budget`] set, an in-flight collection
    /// advances by one bounded increment per call (returning `Some` only
    /// on the completing one), and a newly triggered collection begins and
    /// runs its first increment.
    #[inline]
    pub fn maybe_collect(&mut self) -> Option<&CollectionReport> {
        if self.incremental.is_some() {
            return self.gc_step();
        }
        if self.bytes_since_gc < self.config.trigger_bytes {
            return None;
        }
        let gen = self.config.generation_for_collection(self.collections + 1);
        self.begin_incremental(gen);
        self.advance(self.config.pause_budget)
    }

    /// Begins a bounded-pause collection of generations `0..=gen`
    /// without running any increment: the flip runs, the from-space is
    /// snapshotted, and the heap enters the between-increments regime
    /// (forwarded-on-read, write barrier logging). Drive it with
    /// [`Heap::gc_step`]. Ordinarily [`Heap::maybe_collect`] does both;
    /// this entry point exists for embeddings (and tests) that schedule
    /// increments themselves.
    ///
    /// # Panics
    ///
    /// Panics if `gen` is invalid or a collection is already in flight.
    pub fn begin_incremental(&mut self, gen: u8) {
        assert!(gen < self.config.generations, "no such generation: {gen}");
        assert!(
            self.incremental.is_none(),
            "an incremental collection is already in flight"
        );
        self.collections += 1;
        self.incremental = Some(collect::begin(self, gen));
    }

    /// Runs one increment of the in-flight collection: at least one work
    /// unit, then more until the [`GcConfig::pause_budget`] deadline passes
    /// (without a budget, one-unit increments). Returns the final report on
    /// the completing increment, `None` while work remains *or* when no
    /// collection is in flight.
    pub fn gc_step(&mut self) -> Option<&CollectionReport> {
        self.advance(Some(self.config.pause_budget.unwrap_or(Duration::ZERO)))
    }

    /// Fallible [`Heap::gc_step`]: preflights a conservative bound on
    /// the *remaining* collection's segment demand against the
    /// acquisition budget before running the increment. On
    /// [`GcError::Exhausted`] nothing ran — the collection stays
    /// suspended and resumable (lift the fault and keep stepping).
    ///
    /// # Errors
    ///
    /// [`GcError::Exhausted`] if the bound exceeds the remaining budget.
    #[must_use = "a dropped Exhausted error silently skips the fault-injection path; handle or propagate it"]
    pub fn try_gc_step(&mut self) -> Result<Option<&CollectionReport>, GcError> {
        if let Some(s) = self.incremental.as_ref() {
            let g = s.g;
            // `estimate_worst_case` stays a sound bound mid-collection:
            // the from-space segments are still in the table (freed only
            // by the terminal increment), remaining survivors are a
            // subset of from-space words, and protected entries are
            // untouched until the terminal increment.
            self.check_budget(collect::estimate_worst_case(self, g))?;
        }
        Ok(self.gc_step())
    }

    /// Whether a bounded-pause collection is suspended between
    /// increments.
    pub fn incremental_in_progress(&self) -> bool {
        self.incremental.is_some()
    }

    /// Number of collections performed so far.
    pub fn collection_count(&self) -> u64 {
        self.collections
    }

    /// The report of the most recent collection, if any.
    pub fn last_report(&self) -> Option<&CollectionReport> {
        self.last_report.as_ref()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// Current heap capacity in bytes (allocated segments).
    pub fn capacity_bytes(&self) -> usize {
        self.segs.words_allocated() * 8
    }

    // ------------------------------------------------------------------
    // Observability: event tracing, metrics, allocation-site profiling
    // ------------------------------------------------------------------

    /// Enables event tracing with the given configuration. Any events in
    /// a previously enabled tracer are discarded.
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        self.tracer = Some(Box::new(Tracer::new(cfg)));
    }

    /// Disables tracing, returning whatever events remained in the ring.
    pub fn disable_tracing(&mut self) -> Vec<TracedEvent> {
        self.tracer
            .take()
            .map(|mut t| t.drain())
            .unwrap_or_default()
    }

    /// Whether tracing is enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Drains and returns the buffered events, leaving tracing enabled.
    pub fn drain_trace_events(&mut self) -> Vec<TracedEvent> {
        self.tracer.as_mut().map(|t| t.drain()).unwrap_or_default()
    }

    /// Events lost to ring overflow since tracing was enabled. Consumers
    /// that replay events into counters (parity checks) must see `0`
    /// here, or their replay is missing history.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.as_ref().map(|t| t.dropped()).unwrap_or(0)
    }

    /// Emits an event if tracing is enabled; the closure runs only then,
    /// so a disabled site costs one null test.
    #[inline]
    pub(crate) fn trace_emit(&mut self, event: impl FnOnce() -> GcEvent) {
        if let Some(t) = self.tracer.as_mut() {
            t.emit(event());
        }
    }

    /// Emits an application-level [`GcEvent::App`] marker — the hook the
    /// runtime layer uses to interleave port/transport lifecycle events
    /// with collector events on one timeline.
    pub fn trace_app_event(&mut self, name: &'static str) {
        self.trace_emit(|| GcEvent::App { name });
    }

    /// Takes a census and emits one [`GcEvent::CensusGen`] per
    /// generation.
    fn emit_census_events(&mut self) {
        let census = self.census();
        for g in &census.generations {
            let (generation, pairs, weak_pairs, objects, words, protected_entries) = (
                g.generation,
                g.pairs,
                g.weak_pairs,
                g.objects(),
                g.words(),
                g.protected_entries,
            );
            self.trace_emit(|| GcEvent::CensusGen {
                generation,
                pairs,
                weak_pairs,
                objects,
                words,
                protected_entries,
            });
        }
    }

    /// Folds one collection report into the metrics registry.
    fn absorb_metrics(&mut self, r: &CollectionReport) {
        let m = &mut self.metrics;
        m.add_counter("gc.collections", 1);
        m.add_counter("gc.words_copied", r.words_copied);
        m.add_counter("gc.pairs_copied", r.pairs_copied);
        m.add_counter("gc.objects_copied", r.objects_copied);
        m.add_counter("gc.roots_traced", r.roots_traced);
        m.add_counter("gc.roots_retraced", r.roots_retraced);
        m.add_counter("gc.dirty_segments_scanned", r.dirty_segments_scanned);
        m.add_counter("gc.dirty_cards_scanned", r.dirty_cards_scanned);
        m.add_counter("gc.pure_words_skipped", r.pure_words_skipped);
        m.add_counter("gc.segments_freed", r.segments_freed);
        m.add_counter("gc.segments_allocated", r.segments_allocated);
        m.add_counter("gc.guardian.visited", r.guardian_entries_visited);
        m.add_counter("gc.guardian.finalized", r.guardian_entries_finalized);
        m.add_counter("gc.guardian.held", r.guardian_entries_held);
        m.add_counter("gc.guardian.dropped", r.guardian_entries_dropped);
        m.add_counter("gc.guardian.loop_iterations", r.guardian_loop_iterations);
        m.add_counter("gc.weak.scanned", r.weak_pairs_scanned);
        m.add_counter("gc.weak.broken", r.weak_cars_broken);
        m.add_counter("gc.weak.forwarded", r.weak_cars_forwarded);
        m.add_counter("gc.weak.roots_traced", r.weak_roots_traced);
        m.add_counter("gc.weak.roots_broken", r.weak_roots_broken);
        m.add_counter("gc.increments", r.increments);
        let p = &r.phases;
        for (name, d) in [
            ("gc.phase.flip_ns", p.flip),
            ("gc.phase.roots_ns", p.roots),
            ("gc.phase.remset_ns", p.remset),
            ("gc.phase.sweep_ns", p.sweep),
            ("gc.phase.guardian_ns", p.guardian),
            ("gc.phase.weak_ns", p.weak),
            ("gc.phase.reclaim_ns", p.reclaim),
        ] {
            m.histogram(name).record(d.as_nanos() as u64);
        }
    }

    /// The metrics registry, with mutator-side counters and gauges
    /// synced to the current heap state. Collection counters and pause
    /// histograms accumulate as collections happen; this snapshot folds
    /// in everything else (allocation totals, guardian registrations and
    /// polls, heap shape gauges, the guardian queue-depth estimate).
    pub fn metrics(&mut self) -> &MetricsRegistry {
        let (pairs, objects, words, regs, polls) = (
            self.stats.pairs_allocated,
            self.stats.objects_allocated,
            self.stats.words_allocated,
            self.stats.guardian_registrations,
            self.stats.guardian_polls,
        );
        let (segments, capacity) = (self.segs.segments_allocated(), self.capacity_bytes());
        let m = &mut self.metrics;
        m.set_counter("alloc.pairs", pairs);
        m.set_counter("alloc.objects", objects);
        m.set_counter("alloc.words", words);
        m.set_counter("guardian.registrations", regs);
        m.set_counter("guardian.polls", polls);
        m.set_gauge("heap.segments", segments as i64);
        m.set_gauge("heap.capacity_bytes", capacity as i64);
        // Finalized-but-unpolled estimate. `guardian_polls` counts every
        // successful tconc pop (non-guardian tconc clients included), so
        // this can undershoot — documented in DESIGN.md.
        let depth = m.counter("gc.guardian.finalized") as i64 - polls as i64;
        m.set_gauge("guardian.queue_depth", depth);
        &self.metrics
    }

    /// JSON snapshot of [`Heap::metrics`] with deterministic key order.
    pub fn metrics_json(&mut self) -> String {
        self.metrics().to_json()
    }

    /// Mutable access to the metrics registry, for embedders recording
    /// their own counters alongside the collector's (e.g. the Scheme
    /// VM's per-opcode dispatch profile). Heap-derived counters are only
    /// synced by [`Heap::metrics`]; embedder counters live here
    /// unconditionally.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Enables per-site allocation attribution (resets any previous
    /// profile). Until disabled, every mutator allocation is attributed
    /// to the site last set with [`Heap::set_alloc_site`].
    pub fn enable_site_profile(&mut self) {
        self.site_profile = Some(Box::new(SiteProfile::default()));
    }

    /// Whether site profiling is enabled — embeddings use this to skip
    /// their per-operation [`Heap::set_alloc_site`] stores when nobody
    /// is listening.
    #[inline]
    pub fn site_profile_enabled(&self) -> bool {
        self.site_profile.is_some()
    }

    /// Tags subsequent allocations with a static site name (e.g. the
    /// evaluator's current opcode). Cheap enough to call per operation:
    /// one field store.
    #[inline]
    pub fn set_alloc_site(&mut self, site: &'static str) {
        self.alloc_site = Some(site);
    }

    /// Disables site profiling and returns the attribution table, sorted
    /// by words descending (ties by name for determinism).
    pub fn take_site_profile(&mut self) -> Vec<(&'static str, SiteStats)> {
        let mut out: Vec<(&'static str, SiteStats)> = self
            .site_profile
            .take()
            .map(|p| p.sites.into_iter().collect())
            .unwrap_or_default();
        out.sort_by(|a, b| b.1.words.cmp(&a.1.words).then(a.0.cmp(b.0)));
        out
    }

    // ------------------------------------------------------------------
    // Identity and placement
    // ------------------------------------------------------------------

    /// The current word address of a heap object, or `None` for
    /// non-pointers. The address changes when a collection moves the
    /// object — which is exactly what eq hash tables and the transport
    /// guardian experiments need to observe.
    pub fn address_of(&self, v: Value) -> Option<u64> {
        v.is_ptr().then(|| v.addr().raw())
    }

    /// The generation a heap object currently resides in, or `None` for
    /// non-pointers.
    pub fn generation_of(&self, v: Value) -> Option<u8> {
        if !v.is_ptr() {
            return None;
        }
        Some(self.segs.info(v.addr().seg()).generation)
    }
}

impl Default for Heap {
    /// A heap with the default [`GcConfig`].
    fn default() -> Self {
        Heap::new(GcConfig::default())
    }
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("segments", &self.segs.segments_allocated())
            .field("collections", &self.collections)
            .field("generations", &self.config.generations)
            .finish()
    }
}

/// The space a typed allocation goes to: pointer-free kinds land in the
/// pure space, which the collector copies without scanning.
fn space_for(header: &Header) -> Space {
    if header.traced_words() == 0
        && header.kind != ObjKind::Vector
        && header.kind != ObjKind::Record
    {
        Space::Pure
    } else {
        Space::Typed
    }
}

/// Packs `bytes` into consecutive words starting at `addr` (little-endian
/// within each word, zero-padded).
fn write_bytes(segs: &mut SegmentTable, addr: WordAddr, bytes: &[u8]) {
    for (i, chunk) in bytes.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        segs.set_word(addr.add(i), u64::from_le_bytes(word));
    }
}

/// Reads `len` bytes from consecutive words starting at `addr`.
pub(crate) fn read_bytes(segs: &SegmentTable, addr: WordAddr, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let words = len.div_ceil(8);
    for i in 0..words {
        let bytes = segs.word(addr.add(i)).to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&bytes[..take]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cons_allocates_readable_pairs() {
        let mut h = Heap::default();
        let p = h.cons(Value::fixnum(1), Value::fixnum(2));
        assert!(h.is_pair(p));
        assert!(!h.is_weak_pair(p));
        assert_eq!(h.car(p), Value::fixnum(1));
        assert_eq!(h.cdr(p), Value::fixnum(2));
    }

    #[test]
    fn weak_cons_is_a_pair_in_the_weak_space() {
        let mut h = Heap::default();
        let p = h.weak_cons(Value::fixnum(1), Value::NIL);
        assert!(h.is_pair(p), "weak pairs answer true to pair?");
        assert!(h.is_weak_pair(p));
    }

    #[test]
    fn bump_allocation_packs_pairs_into_segments() {
        let mut h = Heap::default();
        let a = h.cons(Value::NIL, Value::NIL);
        let b = h.cons(Value::NIL, Value::NIL);
        assert_eq!(
            b.addr().raw() - a.addr().raw(),
            2,
            "consecutive pairs are adjacent"
        );
    }

    #[test]
    fn large_objects_get_multi_segment_runs() {
        let mut h = Heap::default();
        let v = h.make_vector(2000, Value::fixnum(7));
        assert_eq!(h.vector_len(v), 2000);
        assert_eq!(h.vector_ref(v, 0), Value::fixnum(7));
        assert_eq!(h.vector_ref(v, 1999), Value::fixnum(7));
    }

    #[test]
    fn strings_round_trip() {
        let mut h = Heap::default();
        for s in [
            "",
            "a",
            "hello world",
            "exactly8",
            "nine bytes",
            "λambda 🦀",
        ] {
            let v = h.make_string(s);
            assert_eq!(h.string_value(v), s, "round trip of {s:?}");
        }
    }

    #[test]
    fn symbols_carry_their_names() {
        let mut h = Heap::default();
        let s = h.make_symbol("port-guardian");
        assert!(h.is_symbol(s));
        assert_eq!(h.symbol_name(s), "port-guardian");
    }

    #[test]
    fn records_store_descriptor_and_fields() {
        let mut h = Heap::default();
        let d = h.make_symbol("point");
        let r = h.make_record(d, &[Value::fixnum(3), Value::fixnum(4)]);
        assert!(h.is_record(r));
        assert_eq!(h.record_descriptor(r), d);
        assert_eq!(h.record_len(r), 2);
        assert_eq!(h.record_ref(r, 1), Value::fixnum(4));
    }

    #[test]
    fn flonums_round_trip() {
        let mut h = Heap::default();
        for f in [0.0, -1.5, std::f64::consts::PI, f64::INFINITY] {
            let v = h.make_flonum(f);
            assert_eq!(h.flonum_value(v), f);
        }
    }

    #[test]
    fn bytevectors_are_mutable() {
        let mut h = Heap::default();
        let bv = h.make_bytevector(20, 0xAB);
        assert_eq!(h.bytevector_len(bv), 20);
        assert_eq!(h.bytevector_ref(bv, 19), 0xAB);
        h.bytevector_set(bv, 3, 7);
        assert_eq!(h.bytevector_ref(bv, 3), 7);
        assert_eq!(h.bytevector_ref(bv, 2), 0xAB);
    }

    #[test]
    fn boxes_hold_one_value() {
        let mut h = Heap::default();
        let b = h.make_box(Value::fixnum(10));
        assert_eq!(h.box_ref(b), Value::fixnum(10));
        h.box_set(b, Value::TRUE);
        assert_eq!(h.box_ref(b), Value::TRUE);
    }

    #[test]
    #[should_panic(expected = "GcConfig::generations is 0")]
    fn zero_generations_are_rejected() {
        Heap::new(GcConfig {
            generations: 0,
            ..GcConfig::new()
        });
    }

    #[test]
    #[should_panic(expected = "GcConfig::generations is 255: at most 254")]
    fn more_than_254_generations_are_rejected() {
        Heap::new(GcConfig {
            generations: 255,
            ..GcConfig::new()
        });
    }

    #[test]
    fn a_heap_of_254_generations_builds_and_collects() {
        // The oldest generation, 253, is the last byte below the reserved
        // two; survivors reach it and are collected in it.
        let mut h = Heap::new(GcConfig::with_generations(254));
        let p = h.cons(Value::fixnum(1), Value::NIL);
        let root = h.root(p);
        for gen in 0..=253 {
            h.collect(gen);
        }
        h.verify().expect("valid heap");
        assert_eq!(h.generation_of(root.get()), Some(253));
        let young = h.cons(Value::fixnum(2), Value::NIL);
        h.set_cdr(root.get(), young);
        h.collect(0);
        h.verify().expect("valid heap");
        assert_eq!(h.car(h.cdr(root.get())), Value::fixnum(2));
    }

    #[test]
    fn addresses_and_generations_of_fresh_objects() {
        let mut h = Heap::default();
        let p = h.cons(Value::NIL, Value::NIL);
        assert!(h.address_of(p).is_some());
        assert_eq!(h.generation_of(p), Some(0));
        assert_eq!(h.address_of(Value::fixnum(1)), None);
        assert_eq!(h.generation_of(Value::FALSE), None);
    }

    #[test]
    fn byte_packing_round_trips() {
        let mut t = SegmentTable::new();
        let seg = t.allocate(Space::Typed, 0);
        let addr = t.base_addr(seg);
        let data: Vec<u8> = (0..23).collect();
        write_bytes(&mut t, addr, &data);
        assert_eq!(read_bytes(&t, addr, 23), data);
        assert_eq!(read_bytes(&t, addr, 0), Vec::<u8>::new());
    }
}
