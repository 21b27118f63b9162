//! `guardian_pool` / `guardian_pool_inc200`: a session pool on the typed
//! `gc-api` surface, the one Rust users see.
//!
//! Why: the guardian pass, tconc hand-off, weak sweep and `gc-api` handle
//! traffic dominate. Both uses of the guardian layer are present and
//! separately counted: 8,192 resident *held* entries parked in old
//! generations (the paper's generation-friendliness claim — they must
//! not be visited by young collections) and a steady *finalized*
//! turnover (mutator cost proportional to clean-ups performed).
//! `_inc200` runs the identical op stream under `pause_budget: 200 µs`
//! and is the only end-to-end cover for the incremental driver, on the
//! traffic whose terminal increment (the atomic guardian and weak passes)
//! is largest.
//!
//! Every session is a typed `Session` record that is guarded,
//! downgraded to a `Weak`, and owns a simulated-OS fd and an external
//! arena block. One op closes the 8 oldest sessions (drops their roots),
//! opens 8 new ones, bumps a field on 8 random live sessions, allocates
//! 4 × 512 B scratch bytevectors, polls the guardian until empty —
//! closing each returned session's fd, freeing its block and recording
//! the lag in ops since the close — and every 64th op upgrades 64 random
//! weaks; then one `maybe_collect` safe point.

use super::{emit_common, emit_span_ns, finish_collection, safe_point, HeapCounters, Recorder};
use super::{Rep, RepParams};
use crate::rng::{Rng, StreamHash};
use crate::trace::{Span, Tracer};
use guardians_gc::{GcConfig, Heap, SegmentPool};
use guardians_gc_api::{impl_trace, GcHeap, Guardian, Root, Weak};
use guardians_runtime::{BlockId, ExtArena, Fd, SimOs};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const OPS_PER_REP: u64 = 150_000;
const WARMUP_OPS: u64 = 15_000;
const RESIDENT: usize = 8_192;
const TURNOVER: usize = 8;
const TOUCHES: usize = 8;
const SCRATCH_BLOCKS: usize = 4;
const SCRATCH_BYTES: usize = 512;
const UPGRADE_EVERY: u64 = 64;
const UPGRADES: usize = 64;
/// Weak references outlive their session by one resident set's worth of
/// opens, so upgrades meet live, dying and long-dead referents.
const WEAK_RING: usize = 2 * RESIDENT;
/// `SimOs::open_output` scans its whole fd table, and sessions awaiting
/// reclamation keep their fds: with one table an open + close pair costs
/// 26 µs and the simulated OS is 94 % of the op. Sessions are spread over
/// this many hosts so the resource simulation stays a small share;
/// `runtime.simos.open_close_ns` still prices the layer.
const HOSTS: usize = 512;
/// Most sessions that may wait for their guardian registration (see
/// `Fixture::open`): 16 ops' worth. On the defining host a collection
/// under the 200 µs budget is in flight for 7 ops at most, but every
/// increment re-forwards all 24,576 roots first (120 µs there), so on a
/// host or in a spell 1.7 times slower the budget is spent before the
/// first unit of work, the mutator allocates faster than the collector
/// sweeps, and the collection never ends by itself. A session closed
/// before it was registered would never be handed back.
const MAX_UNGUARDED: usize = 16 * TURNOVER;

impl_trace! {
    /// The typed record a session lives in.
    pub struct Session {
        pub id: i64,
        pub fd: i64,
        pub block: i64,
        pub hits: i64,
    }
}

/// One generated op: which live sessions to touch (as offsets from the
/// oldest) and which weak-ring entries to upgrade.
#[derive(Clone)]
struct Op {
    touches: [u16; TOUCHES],
    upgrades: Option<Box<[u16; UPGRADES]>>,
}

fn generate(seed: u64, n: u64) -> (Vec<Op>, u64) {
    let mut rng = Rng::new(seed, 3);
    let mut hash = StreamHash::default();
    let ops = (1..=n)
        .map(|index| {
            let mut touches = [0u16; TOUCHES];
            for t in &mut touches {
                *t = rng.below(RESIDENT as u64) as u16;
                hash.mix(u64::from(*t));
            }
            let upgrades = index.is_multiple_of(UPGRADE_EVERY).then(|| {
                let mut picks = Box::new([0u16; UPGRADES]);
                for u in picks.iter_mut() {
                    *u = rng.below(WEAK_RING as u64) as u16;
                    hash.mix(0x1_0000 | u64::from(*u));
                }
                picks
            });
            Op { touches, upgrades }
        })
        .collect();
    (ops, hash.finish())
}

struct Live {
    id: u64,
    root: Root<Session>,
}

/// Layer calls made, the denominators of the per-call span costs.
#[derive(Default)]
struct Calls {
    opens: u64,
    guards: u64,
    polled: u64,
    touches: u64,
    upgrades: u64,
    scratch: u64,
}

struct Fixture {
    heap: GcHeap,
    guardian: Guardian<Session>,
    hosts: Vec<SimOs>,
    arena: ExtArena,
    paths: Vec<String>,
    live: VecDeque<Live>,
    /// `weaks[id % WEAK_RING]` is session `id` with its weak reference,
    /// until session `id + WEAK_RING` opens.
    weaks: Vec<Option<(u64, Weak<Session>)>>,
    /// Op index at which each session was closed, by id.
    closed_at: Vec<u32>,
    /// Sessions opened but not yet registered with the guardian.
    unguarded: Vec<u64>,
    next_id: u64,
    op_index: u32,
    closed: u64,
    polled: u64,
    lags: Vec<u32>,
    live_roots_peak: usize,
    failed: u64,
    calls: Calls,
}

impl Fixture {
    fn new(heap: Heap, total_ops: u64) -> Fixture {
        let mut heap = GcHeap::from_heap(heap);
        let guardian = heap.guardian::<Session>();
        let sessions = RESIDENT as u64 + total_ops * TURNOVER as u64;
        Fixture {
            heap,
            guardian,
            hosts: (0..HOSTS).map(|_| SimOs::with_fd_limit(1 << 20)).collect(),
            arena: ExtArena::new(),
            paths: (0..WEAK_RING).map(|i| format!("session-{i}")).collect(),
            live: VecDeque::with_capacity(RESIDENT + TURNOVER),
            weaks: (0..WEAK_RING).map(|_| None).collect(),
            closed_at: vec![0; sessions as usize],
            unguarded: Vec::new(),
            next_id: 0,
            op_index: 0,
            closed: 0,
            polled: 0,
            lags: Vec::with_capacity((total_ops as usize) * TURNOVER),
            live_roots_peak: 0,
            failed: 0,
            calls: Calls::default(),
        }
    }

    /// Opens `TURNOVER` sessions, layer by layer so each layer gets one
    /// span.
    fn open(&mut self, tr: &mut Tracer) {
        let n = TURNOVER;
        let first = self.next_id;
        self.next_id += n as u64;
        let mut fds = [0i64; TURNOVER];
        let mut blocks = [0i64; TURNOVER];

        tr.enter(Span::SimOs);
        for (k, fd) in fds.iter_mut().enumerate() {
            let id = first + k as u64;
            let path = &self.paths[id as usize % WEAK_RING];
            let host = &mut self.hosts[id as usize % HOSTS];
            *fd = match host.open_output(path) {
                Ok(fd) => i64::from(fd.0),
                Err(_) => {
                    self.failed += 1;
                    -1
                }
            };
        }
        tr.exit();

        tr.enter(Span::ExtMem);
        for (k, block) in blocks.iter_mut().enumerate() {
            *block = self.arena.malloc(64 + k * 8).0 as i64;
        }
        tr.exit();

        tr.enter(Span::ApiAlloc);
        for k in 0..n {
            let id = first + k as u64;
            let root = self.heap.alloc(&Session {
                id: id as i64,
                fd: fds[k],
                block: blocks[k],
                hits: 0,
            });
            self.live.push_back(Live { id, root });
            self.unguarded.push(id);
        }
        tr.exit();

        // Registering with a guardian while an incremental collection is
        // in flight corrupts the heap at this commit (README, "Defect
        // found"), so registration waits for the collection to finish —
        // for `MAX_UNGUARDED` sessions at most, then `run_ops` finishes it.
        // Under a stop-the-world engine nothing is ever in flight.
        if !self.heap.raw().incremental_in_progress() {
            tr.enter(Span::ApiGuard);
            let oldest = self.live.front().expect("just pushed").id;
            for id in self.unguarded.drain(..) {
                let session = &self.live[(id - oldest) as usize];
                self.heap.guard(&self.guardian, &session.root);
                self.calls.guards += 1;
            }
            tr.exit();
        }

        tr.enter(Span::ApiDowngrade);
        let oldest = self.live.front().expect("just pushed").id;
        for id in first..first + n as u64 {
            let session = &self.live[(id - oldest) as usize];
            let weak = self.heap.downgrade(&session.root);
            self.weaks[id as usize % WEAK_RING] = Some((id, weak));
        }
        tr.exit();
        self.calls.opens += n as u64;
    }

    /// Polls the guardian until it is empty, releasing each returned
    /// session's external resources: the mutator-side cost of clean-up.
    fn drain(&mut self, tr: &mut Tracer) {
        let mut released: [(i64, i64, i64); 64] = [(0, 0, 0); 64];
        loop {
            let mut n = 0;
            tr.enter(Span::ApiPoll);
            while n < released.len() {
                let Some(root) = self.heap.poll(&self.guardian) else {
                    break;
                };
                let s: Session = self.heap.load(&root);
                released[n] = (s.id, s.fd, s.block);
                n += 1;
            }
            tr.exit();
            if n == 0 {
                return;
            }
            tr.enter(Span::SimOs);
            for &(id, fd, _) in &released[..n] {
                let host = &mut self.hosts[id as usize % HOSTS];
                if host.close(Fd(fd as u32)).is_err() {
                    self.failed += 1;
                }
            }
            tr.exit();
            tr.enter(Span::ExtMem);
            for &(_, _, block) in &released[..n] {
                if self.arena.free(BlockId(block as u64)).is_err() {
                    self.failed += 1;
                }
            }
            tr.exit();
            for &(id, _, _) in &released[..n] {
                self.lags.push(self.op_index - self.closed_at[id as usize]);
            }
            self.polled += n as u64;
            self.calls.polled += n as u64;
        }
    }

    /// The op's safe point: one `maybe_collect`, unless more than
    /// `MAX_UNGUARDED` sessions wait for the collection in flight.
    fn safe_point(&mut self, tr: &mut Tracer, rec: &mut Recorder) -> Instant {
        if self.unguarded.len() > MAX_UNGUARDED {
            finish_collection(self.heap.raw_mut(), tr, rec)
        } else {
            safe_point(self.heap.raw_mut(), tr, rec)
        }
    }

    fn run_ops(&mut self, ops: &[Op], tr: &mut Tracer, rec: &mut Recorder) {
        for (i, op) in ops.iter().enumerate() {
            tr.op_begin(i as u64);
            self.op_index += 1;

            tr.enter(Span::ApiRootDrop);
            for _ in 0..TURNOVER {
                let session = self.live.pop_front().expect("resident set is never empty");
                self.closed_at[session.id as usize] = self.op_index;
                drop(session.root);
            }
            self.closed += TURNOVER as u64;
            tr.exit();

            self.open(tr);

            tr.enter(Span::ApiField);
            for &t in &op.touches {
                let session = &self.live[t as usize];
                let hits: i64 = self.heap.field(&session.root, 3);
                self.heap.set_field(&session.root, 3, &(hits + 1));
            }
            self.calls.touches += TOUCHES as u64;
            tr.exit();

            tr.enter(Span::GcAlloc);
            for _ in 0..SCRATCH_BLOCKS {
                std::hint::black_box(self.heap.raw_mut().make_bytevector(SCRATCH_BYTES, 0));
            }
            self.calls.scratch += SCRATCH_BLOCKS as u64;
            tr.exit();

            self.drain(tr);

            if let Some(picks) = &op.upgrades {
                tr.enter(Span::ApiUpgrade);
                let oldest_live = self.live.front().expect("non-empty").id;
                for &pick in picks.iter() {
                    let Some((owner, weak)) = &self.weaks[pick as usize] else {
                        continue;
                    };
                    match self.heap.upgrade(weak) {
                        Some(gc) => {
                            let id: i64 = self.heap.field_gc(gc, 0);
                            if id as u64 != *owner {
                                self.failed += 1;
                            }
                        }
                        // A live session's weak reference must upgrade.
                        None if *owner >= oldest_live => self.failed += 1,
                        None => {}
                    }
                }
                self.calls.upgrades += UPGRADES as u64;
                tr.exit();
            }

            self.live_roots_peak = self.live_roots_peak.max(self.heap.ctx().live_roots());
            let end = self.safe_point(tr, rec);
            tr.op_end();
            rec.op_done(end);
        }
    }
}

pub fn run_rep(p: &RepParams, pause_budget: Option<Duration>, tr: &mut Tracer) -> Rep {
    let setup_start = Instant::now();
    let warm = p.scaled(WARMUP_OPS, 64);
    let timed = p.scaled(OPS_PER_REP, 256);
    let (ops, stream_hash) = generate(p.seed, warm + timed);
    let pool = SegmentPool::unbounded();
    let config = GcConfig {
        pause_budget,
        ..GcConfig::new()
    };
    let heap = Heap::with_pool(config, pool.clone(), None);
    let mut fx = Fixture::new(heap, warm + timed);
    let mut untimed = Recorder::start(0);
    for _ in 0..RESIDENT / TURNOVER {
        fx.open(&mut Tracer::off());
        fx.safe_point(&mut Tracer::off(), &mut untimed);
    }
    let (warm_ops, timed_ops) = ops.split_at(warm as usize);
    fx.run_ops(warm_ops, &mut Tracer::off(), &mut untimed);
    fx.lags.clear();
    fx.calls = Calls::default();
    fx.live_roots_peak = 0;
    let before = HeapCounters::read(fx.heap.raw_mut());
    let mut rep = Rep {
        stream_hash,
        ..Rep::default()
    };
    let mut rec = Recorder::start(timed_ops.len());
    rep.setup_s = setup_start.elapsed().as_secs_f64();

    fx.run_ops(timed_ops, tr, &mut rec);

    rec.finish(&mut rep);
    let delta = HeapCounters::read(fx.heap.raw_mut()).since(&before);
    delta.emit(&mut rep);
    emit_common(&mut rep, &pool);
    let calls = &fx.calls;
    for (name, span, n) in [
        ("gc-api.alloc_ns", Span::ApiAlloc, calls.opens),
        ("gc-api.guard_ns", Span::ApiGuard, calls.guards),
        ("gc-api.downgrade_ns", Span::ApiDowngrade, calls.opens),
        ("gc-api.root_drop_ns", Span::ApiRootDrop, calls.opens),
        ("gc-api.poll_ns", Span::ApiPoll, calls.polled),
        ("gc-api.field_ns", Span::ApiField, calls.touches),
        ("gc-api.upgrade_ns", Span::ApiUpgrade, calls.upgrades),
        // One open + one close, one malloc + one free per session.
        ("runtime.simos.open_close_ns", Span::SimOs, calls.opens),
        ("runtime.extmem.malloc_free_ns", Span::ExtMem, calls.opens),
    ] {
        emit_span_ns(&mut rep, tr, name, span, n);
    }
    emit_span_ns(
        &mut rep,
        tr,
        "gc.heap.alloc_ns_per_word",
        Span::GcAlloc,
        calls.scratch * (SCRATCH_BYTES as u64 / 8 + 1),
    );
    rep.set("gc-api.live_roots_peak", fx.live_roots_peak as f64);
    rep.samples
        .insert("reclaim_lag_ops", std::mem::take(&mut fx.lags));

    // Oracle, outside timing. After full collections and a final drain
    // every closed session has been handed back exactly once, and the
    // external resources still held are exactly the live sessions'.
    let oldest = fx.heap.raw().config().max_generation();
    for _ in 0..2 {
        fx.heap.collect(oldest);
        fx.drain(&mut Tracer::off());
    }
    let open_fds: usize = fx.hosts.iter().map(SimOs::open_count).sum();
    let sound = fx.heap.raw().verify().is_ok()
        && fx.polled == fx.closed
        && open_fds == fx.live.len()
        && fx.arena.live_blocks() == fx.live.len()
        && fx.live.len() == RESIDENT;
    rep.failed = if sound { fx.failed } else { rep.ops };
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zero budget gives one-unit increments on any host, which the
    /// mutator outruns: no collection ends by itself, as under 200 µs on
    /// a slow host. Sessions must still all be registered before they
    /// close, or the oracle's `polled == closed` fails.
    #[test]
    fn a_collection_that_never_ends_by_itself_is_finished_for_registration() {
        let p = RepParams {
            seed: 1,
            scale: 0.01,
        };
        // Longer than a session lives.
        assert!(p.scaled(OPS_PER_REP, 256) > (RESIDENT / TURNOVER) as u64);
        let rep = run_rep(&p, Some(Duration::ZERO), &mut Tracer::off());
        assert_eq!(rep.failed, 0);
        assert!(rep.values["gc.guardian.entries_finalized"] > 0.0);
    }
}
