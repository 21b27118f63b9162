//! One tenant zone: an isolated heap (own generations, guardians,
//! metrics, census) plus the tenant's external resources (`SimOs` file
//! descriptors, `ExtArena` blocks), driven by a small request protocol.
//!
//! A zone is deterministic: given the same request sequence it produces
//! the same [`ZoneObservables`] whether its heap is private or drawn from
//! a shared [`SegmentPool`], whichever collection schedule runs it, and
//! whether it lives alone or among a fleet — the identity the zone tests
//! and experiment E21 pin.

use guardians_gc::{
    GcConfig, Guardian as RawGuardian, Heap, Rooted, SegmentPool, TraceConfig, TracedEvent, Value,
    SEGMENT_BYTES,
};
use guardians_gc_api::{impl_trace, GcHeap, Guardian as TypedGuardian, Root};
use guardians_runtime::{BlockId, ExtArena, Fd, SimOs};
use guardians_scheme::{EvalMode, Interp};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The collection schedules CI and E21 sweep, as the `GcConfig::pause_budget`
/// a zone's `gc` carries: stop-the-world, and increments under 100 µs.
pub const SCHEDULES: [Option<Duration>; 2] = [None, Some(Duration::from_micros(100))];

/// A schedule's stable label: `serial` for stop-the-world, else the budget
/// in microseconds, e.g. `budget100us`.
pub fn schedule_label(pause_budget: Option<Duration>) -> String {
    match pause_budget {
        None => "serial".to_string(),
        Some(budget) => format!("budget{}us", budget.as_micros()),
    }
}

/// Which workload surface the zone serves requests through.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The typed `Gc<T>` front-end: sessions are `Session` records held
    /// by `Root<Session>` handles and a typed `Guardian<Session>`.
    Typed,
    /// The Scheme tier (bytecode VM): sessions are raw records guarded by
    /// a raw guardian; work requests evaluate Scheme churn programs.
    Scheme,
}

impl WorkloadKind {
    /// Stable label (`typed` / `scheme`).
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Typed => "typed",
            WorkloadKind::Scheme => "scheme",
        }
    }
}

/// Configuration for one zone.
#[derive(Clone, Debug)]
pub struct ZoneConfig {
    /// Collector configuration (generations, trigger, policy, and the
    /// schedule: `pause_budget`).
    pub gc: GcConfig,
    /// Workload surface.
    pub workload: WorkloadKind,
    /// Per-zone segment watermark (quota) against the shared pool, fixed
    /// for the zone's life.
    pub max_segments: Option<usize>,
    /// Simulated-OS fd table size for this tenant.
    pub fd_limit: usize,
}

impl ZoneConfig {
    /// A typed-workload zone with default collector settings.
    pub fn typed() -> ZoneConfig {
        ZoneConfig {
            gc: GcConfig::default(),
            workload: WorkloadKind::Typed,
            max_segments: None,
            fd_limit: 4096,
        }
    }

    /// A Scheme-workload zone with default collector settings.
    pub fn scheme() -> ZoneConfig {
        ZoneConfig {
            workload: WorkloadKind::Scheme,
            ..ZoneConfig::typed()
        }
    }

    /// Sets the collection schedule (`GcConfig::pause_budget`).
    pub fn with_pause_budget(mut self, pause_budget: Option<Duration>) -> ZoneConfig {
        self.gc.pause_budget = pause_budget;
        self
    }

    /// Sets the per-zone segment watermark. A zone draws its copy reserve
    /// from the shared pool each time it collects, so a fleet whose
    /// watermarks sum to at most the pool's capacity cannot run an
    /// infallible collection into an empty pool.
    pub fn with_max_segments(mut self, max: usize) -> ZoneConfig {
        self.max_segments = Some(max);
        self
    }

    /// Sets the collection trigger (bytes allocated between safe-point
    /// collections).
    pub fn with_trigger_bytes(mut self, bytes: usize) -> ZoneConfig {
        self.gc.trigger_bytes = bytes;
        self
    }
}

impl Default for ZoneConfig {
    fn default() -> ZoneConfig {
        ZoneConfig::typed()
    }
}

impl_trace! {
    /// A tenant session as the typed front-end sees it: identity plus the
    /// two external resources the guardian reclaims (fd, arena block) and
    /// a work counter.
    pub struct Session {
        /// Session id.
        pub id: i64,
        /// Simulated-OS file descriptor owned by the session.
        pub fd: i64,
        /// External arena block owned by the session.
        pub block: i64,
        /// Accumulated work units.
        pub hits: i64,
    }
}

/// A request dispatched into a zone at a safe point.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Open a session: allocate its record, open its fd, malloc its
    /// block, register it with the zone's guardian.
    Open {
        /// Session id.
        session: u64,
    },
    /// Perform `amount` units of allocating work attributed to a session.
    Work {
        /// Session id.
        session: u64,
        /// Work units.
        amount: u32,
    },
    /// Evict the session: drop its root. The guardian proves it dead at a
    /// later collection, after which the zone closes its fd and frees its
    /// block — program-controlled reclamation, per the paper.
    Evict {
        /// Session id.
        session: u64,
    },
}

impl Request {
    /// The session this request addresses (the router's hash key).
    pub fn session(self) -> u64 {
        match self {
            Request::Open { session }
            | Request::Work { session, .. }
            | Request::Evict { session } => session,
        }
    }
}

/// The deterministic observables of one zone: identical across schedules,
/// across private-vs-pooled heaps, and across solo-vs-fleet placement for
/// the same request sequence — with one exception. Under a pause budget
/// a collection lasts as many safe points as the wall clock makes it and
/// the allocation trigger re-arms only when it ends, so `collections`
/// depends on timing there; every other field, and `collections`
/// stop-the-world, is exact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ZoneObservables {
    /// Requests dispatched.
    pub requests: u64,
    /// Sessions opened.
    pub sessions_opened: u64,
    /// Sessions evicted (roots dropped).
    pub sessions_evicted: u64,
    /// Evicted sessions whose resources the guardian path reclaimed.
    pub reclaimed_sessions: u64,
    /// Fds closed by reclamation.
    pub fds_closed: u64,
    /// Arena blocks freed by reclamation.
    pub blocks_freed: u64,
    /// FNV-folded checksum over request results.
    pub checksum: u64,
    /// Collections performed by the zone's heap.
    pub collections: u64,
    /// Pairs allocated.
    pub pairs_allocated: u64,
    /// Typed objects allocated.
    pub objects_allocated: u64,
    /// Words allocated.
    pub words_allocated: u64,
    /// Guardian registrations.
    pub guardian_registrations: u64,
    /// Sessions still live.
    pub live_sessions: u64,
    /// Tenant fds ever opened.
    pub os_opens: u64,
    /// Tenant fds closed.
    pub os_closes: u64,
    /// Tenant fds currently open (the leak metric).
    pub open_fds: u64,
    /// Arena blocks currently live (the leak metric).
    pub ext_live_blocks: u64,
}

/// A `Send`able point-in-time summary of one zone, for fleet roll-up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZoneSnapshot {
    /// Zone id.
    pub zone: u64,
    /// Schedule label ([`schedule_label`]).
    pub engine: String,
    /// Workload label.
    pub workload: String,
    /// Deterministic observables.
    pub obs: ZoneObservables,
    /// Pause p50 (ns) from the zone's own `gc.pause_ns` histogram.
    pub pause_p50_ns: u64,
    /// Pause p99 (ns).
    pub pause_p99_ns: u64,
    /// Pause max (ns).
    pub pause_max_ns: u64,
    /// Segments currently held by the zone's heap.
    pub segments: u64,
    /// Live words (census).
    pub live_words: u64,
    /// Live objects (census).
    pub live_objects: u64,
}

impl ZoneSnapshot {
    /// Deterministic JSON rendering with a fixed key order.
    pub fn to_json(&self) -> String {
        let o = &self.obs;
        format!(
            "{{\"zone\":{},\"engine\":\"{}\",\"workload\":\"{}\",\
             \"requests\":{},\"sessions_opened\":{},\"sessions_evicted\":{},\
             \"reclaimed_sessions\":{},\"fds_closed\":{},\"blocks_freed\":{},\
             \"live_sessions\":{},\"open_fds\":{},\"ext_live_blocks\":{},\
             \"checksum\":{},\"collections\":{},\"words_allocated\":{},\
             \"guardian_registrations\":{},\"pause_p50_ns\":{},\"pause_p99_ns\":{},\
             \"pause_max_ns\":{},\"segments\":{},\"live_words\":{},\"live_objects\":{}}}",
            self.zone,
            self.engine,
            self.workload,
            o.requests,
            o.sessions_opened,
            o.sessions_evicted,
            o.reclaimed_sessions,
            o.fds_closed,
            o.blocks_freed,
            o.live_sessions,
            o.open_fds,
            o.ext_live_blocks,
            o.checksum,
            o.collections,
            o.words_allocated,
            o.guardian_registrations,
            self.pause_p50_ns,
            self.pause_p99_ns,
            self.pause_max_ns,
            self.segments,
            self.live_words,
            self.live_objects,
        )
    }
}

/// The Scheme-side work procedures installed into a Scheme zone.
const ZONE_PRELUDE: &str = "\
    (define (ziota n) \
      (let lp ((i 0) (acc '())) \
        (if (= i n) acc (lp (+ i 1) (cons i acc))))) \
    (define (zchurn n) \
      (length (map (lambda (x) (* x x)) (ziota n))))";

enum SessionHandle {
    Typed(Root<Session>),
    Raw(Rooted),
}

enum Backend {
    Typed {
        heap: Box<GcHeap>,
        guardian: TypedGuardian<Session>,
    },
    Scheme {
        interp: Box<Interp>,
        guardian: RawGuardian,
        tag: Rooted,
    },
}

/// One tenant zone. See the module docs.
pub struct Zone {
    id: u64,
    workload: WorkloadKind,
    backend: Backend,
    os: SimOs,
    arena: ExtArena,
    sessions: BTreeMap<u64, SessionHandle>,
    requests: u64,
    sessions_opened: u64,
    sessions_evicted: u64,
    reclaimed_sessions: u64,
    fds_closed: u64,
    blocks_freed: u64,
    checksum: u64,
}

impl Zone {
    /// Builds a zone over a private heap.
    pub fn new(id: u64, config: &ZoneConfig) -> Zone {
        Zone::build(id, config, None)
    }

    /// Builds a zone whose heap draws on the shared pool, bounded by the
    /// config's `max_segments` watermark.
    pub fn with_pool(id: u64, config: &ZoneConfig, pool: Arc<SegmentPool>) -> Zone {
        Zone::build(id, config, Some(pool))
    }

    fn build(id: u64, config: &ZoneConfig, pool: Option<Arc<SegmentPool>>) -> Zone {
        let gc = config.gc.clone();
        let heap = match pool {
            Some(p) => Heap::with_pool(gc, p, config.max_segments),
            None => Heap::new(gc),
        };
        let backend = match config.workload {
            WorkloadKind::Typed => {
                let mut heap = Box::new(GcHeap::from_heap(heap));
                let guardian = heap.guardian::<Session>();
                Backend::Typed { heap, guardian }
            }
            WorkloadKind::Scheme => {
                let mut interp = Box::new(Interp::with_heap(heap, EvalMode::Vm));
                interp
                    .eval_str(ZONE_PRELUDE)
                    .expect("zone prelude evaluates");
                let guardian = interp.heap_mut().make_guardian();
                let tag = {
                    let h = interp.heap_mut();
                    let s = h.make_symbol("zone-session");
                    h.root(s)
                };
                Backend::Scheme {
                    interp,
                    guardian,
                    tag,
                }
            }
        };
        Zone {
            id,
            workload: config.workload,
            backend,
            os: SimOs::with_fd_limit(config.fd_limit),
            arena: ExtArena::new(),
            sessions: BTreeMap::new(),
            requests: 0,
            sessions_opened: 0,
            sessions_evicted: 0,
            reclaimed_sessions: 0,
            fds_closed: 0,
            blocks_freed: 0,
            checksum: 0,
        }
    }

    /// Zone id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The zone's heap, shared (telemetry, verification).
    pub fn heap(&self) -> &Heap {
        match &self.backend {
            Backend::Typed { heap, .. } => heap.raw(),
            Backend::Scheme { interp, .. } => interp.heap(),
        }
    }

    /// The zone's heap, exclusive (tracing set-up, metrics export).
    pub fn heap_mut(&mut self) -> &mut Heap {
        match &mut self.backend {
            Backend::Typed { heap, .. } => heap.raw_mut(),
            Backend::Scheme { interp, .. } => interp.heap_mut(),
        }
    }

    /// Segments the zone's heap currently holds against the shared pool
    /// (or its private backing), as [`ZoneSnapshot::segments`] reports
    /// them: the segment table's own count, a suspended collection's
    /// from-space included (the census skips it). The quota they count
    /// against is fixed when the zone is created
    /// ([`ZoneConfig::with_max_segments`]).
    pub fn segments_held(&self) -> usize {
        self.heap().capacity_bytes() / SEGMENT_BYTES
    }

    /// The tenant's simulated OS (fd accounting).
    pub fn os(&self) -> &SimOs {
        &self.os
    }

    /// The tenant's external arena (block accounting).
    pub fn arena(&self) -> &ExtArena {
        &self.arena
    }

    fn mix(&mut self, x: u64) {
        self.checksum = (self.checksum ^ x).wrapping_mul(0x100_0000_01b3);
    }

    /// Dispatches one request, then runs the zone's safe point (policy
    /// collection plus guardian drain) — the router's per-request
    /// contract.
    pub fn dispatch(&mut self, req: Request) {
        self.requests += 1;
        match req {
            Request::Open { session } => self.open(session),
            Request::Work { session, amount } => self.work(session, amount),
            Request::Evict { session } => self.evict(session),
        }
        self.safe_point();
    }

    fn open(&mut self, session: u64) {
        if self.sessions.contains_key(&session) {
            return; // idempotent: the session is already live
        }
        let fd = self
            .os
            .open_output(&format!("zone{}-s{}", self.id, session))
            .expect("zone fd table sized for the session load");
        self.os.write(fd, b"open\n").expect("fresh fd is writable");
        let block = self.arena.malloc(64 + (session as usize % 7) * 8);
        let handle = match &mut self.backend {
            Backend::Typed { heap, guardian } => {
                let root = heap.alloc(&Session {
                    id: session as i64,
                    fd: i64::from(fd.0),
                    block: block.0 as i64,
                    hits: 0,
                });
                heap.guard(guardian, &root);
                SessionHandle::Typed(root)
            }
            Backend::Scheme {
                interp,
                guardian,
                tag,
            } => {
                let h = interp.heap_mut();
                let fields = [
                    Value::fixnum(session as i64),
                    Value::fixnum(i64::from(fd.0)),
                    Value::fixnum(block.0 as i64),
                    Value::fixnum(0),
                ];
                let rec = h.make_record(tag.get(), &fields);
                guardian.register(h, rec);
                SessionHandle::Raw(h.root(rec))
            }
        };
        self.sessions.insert(session, handle);
        self.sessions_opened += 1;
        self.mix(session.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }

    fn work(&mut self, session: u64, amount: u32) {
        let Some(handle) = self.sessions.get(&session) else {
            return; // no such tenant session: a counted no-op
        };
        match (&mut self.backend, handle) {
            (Backend::Typed { heap, .. }, SessionHandle::Typed(root)) => {
                let hits: i64 = heap.field(root, 3);
                let hits = hits + i64::from(amount);
                heap.set_field(root, 3, &hits);
                // Allocation churn through the typed API: short-lived
                // records the next young collection reclaims.
                for k in 0..amount {
                    let scratch = heap.alloc(&Session {
                        id: -1,
                        fd: -1,
                        block: -1,
                        hits: i64::from(k),
                    });
                    drop(scratch);
                }
                let digest = (session << 17) ^ hits as u64;
                self.mix(digest);
            }
            (Backend::Scheme { interp, .. }, SessionHandle::Raw(root)) => {
                let n = 8 + amount % 64;
                let out = interp
                    .eval_to_string(&format!("(zchurn {n})"))
                    .expect("zone work program evaluates");
                let h = interp.heap_mut();
                let rec = root.get();
                let hits = h.record_ref(rec, 3).as_fixnum() + i64::from(amount);
                h.record_set(rec, 3, Value::fixnum(hits));
                let mut digest = (session << 17) ^ hits as u64;
                for b in out.bytes() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
                self.mix(digest);
            }
            _ => unreachable!("session handle kind always matches the backend"),
        }
    }

    fn evict(&mut self, session: u64) {
        if self.sessions.remove(&session).is_some() {
            self.sessions_evicted += 1;
            self.mix(session.rotate_left(32) | 1);
        }
    }

    /// The zone's safe point: a policy-driven collection opportunity
    /// (one bounded increment under a `pause_budget`) followed by
    /// reclamation of every session the collector has proven dead.
    pub fn safe_point(&mut self) {
        match &mut self.backend {
            Backend::Typed { heap, .. } => {
                heap.maybe_collect();
            }
            Backend::Scheme { interp, .. } => {
                interp.heap_mut().maybe_collect();
            }
        }
        self.drain_reclaimed();
    }

    /// Drains the zone guardian: for each session record proven
    /// inaccessible, closes its fd and frees its arena block — the
    /// guardian-driven resource reclamation the paper's Section 2 motivates,
    /// performed by the mutator, never the collector.
    pub fn drain_reclaimed(&mut self) {
        loop {
            let (fd, block) = match &mut self.backend {
                Backend::Typed { heap, guardian } => match heap.poll(guardian) {
                    None => break,
                    Some(root) => {
                        let s: Session = heap.load(&root);
                        (s.fd, s.block)
                    }
                },
                Backend::Scheme {
                    interp, guardian, ..
                } => {
                    let h = interp.heap_mut();
                    match guardian.poll(h) {
                        None => break,
                        Some(rec) => (
                            h.record_ref(rec, 1).as_fixnum(),
                            h.record_ref(rec, 2).as_fixnum(),
                        ),
                    }
                }
            };
            self.os
                .close(Fd(fd as u32))
                .expect("reclaimed session fd was open");
            self.arena
                .free(BlockId(block as u64))
                .expect("reclaimed session block was live");
            self.reclaimed_sessions += 1;
            self.fds_closed += 1;
            self.blocks_freed += 1;
        }
    }

    /// Runs the zone to a quiescent state: finishes any suspended
    /// incremental cycle, then performs two full collections with
    /// guardian drains — enough to prove every evicted session dead and
    /// reclaim its resources deterministically on any schedule.
    pub fn quiesce(&mut self) {
        let max_gen = {
            let heap = self.heap_mut();
            while heap.incremental_in_progress() {
                heap.gc_step();
            }
            heap.config().generations - 1
        };
        for _ in 0..2 {
            self.heap_mut().collect(max_gen);
            self.drain_reclaimed();
        }
    }

    /// Verifies the zone's heap invariants.
    ///
    /// # Errors
    ///
    /// Returns the heap's [`guardians_gc::VerifyError`] on any violation.
    pub fn verify(&self) -> Result<(), guardians_gc::VerifyError> {
        self.heap().verify()
    }

    /// The zone's observables (deterministic but for `collections` under a
    /// pause budget; see [`ZoneObservables`]).
    pub fn observables(&self) -> ZoneObservables {
        let stats = self.heap().stats();
        ZoneObservables {
            requests: self.requests,
            sessions_opened: self.sessions_opened,
            sessions_evicted: self.sessions_evicted,
            reclaimed_sessions: self.reclaimed_sessions,
            fds_closed: self.fds_closed,
            blocks_freed: self.blocks_freed,
            checksum: self.checksum,
            collections: self.heap().collection_count(),
            pairs_allocated: stats.pairs_allocated,
            objects_allocated: stats.objects_allocated,
            words_allocated: stats.words_allocated,
            guardian_registrations: stats.guardian_registrations,
            live_sessions: self.sessions.len() as u64,
            os_opens: self.os.stats().opens,
            os_closes: self.os.stats().closes,
            open_fds: self.os.open_count() as u64,
            ext_live_blocks: self.arena.live_blocks() as u64,
        }
    }

    /// A `Send`able snapshot: observables plus this zone's own pause
    /// percentiles and census totals (attributable per zone because every
    /// registry is per-heap).
    pub fn snapshot(&mut self) -> ZoneSnapshot {
        let (p50, p99, max) = {
            let m = self.heap_mut().metrics();
            match m.get_histogram("gc.pause_ns") {
                Some(h) => (
                    h.quantile(0.50).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                    h.max().unwrap_or(0),
                ),
                None => (0, 0, 0),
            }
        };
        let census = self.heap().census();
        let segments = self.segments_held();
        ZoneSnapshot {
            zone: self.id,
            engine: schedule_label(self.heap().config().pause_budget),
            workload: self.workload.label().to_string(),
            obs: self.observables(),
            pause_p50_ns: p50,
            pause_p99_ns: p99,
            pause_max_ns: max,
            segments: segments as u64,
            live_words: census.total_words(),
            live_objects: census.total_objects(),
        }
    }

    /// Enables event tracing on the zone's heap (gcprof export).
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        self.heap_mut().enable_tracing(cfg);
    }

    /// Drains the zone's trace ring.
    pub fn drain_trace_events(&mut self) -> Vec<TracedEvent> {
        self.heap_mut().drain_trace_events()
    }
}

impl std::fmt::Debug for Zone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Zone")
            .field("id", &self.id)
            .field("pause_budget", &self.heap().config().pause_budget)
            .field("workload", &self.workload.label())
            .field("sessions", &self.sessions.len())
            .field("requests", &self.requests)
            .finish()
    }
}
