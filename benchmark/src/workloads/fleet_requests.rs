//! `fleet_requests`: tenant requests through a fleet of zones.
//!
//! Why: the only workload where request latency, GC-stall queueing,
//! channel hand-off and the shared segment pool interact. The collector
//! does little per request, so zone, manager and router overheads show.
//!
//! Six zones alternate between the typed and the Scheme workload
//! surface, all on the serial engine with a 256 KiB trigger, over one
//! shared pool. The stream opens 4,000 sessions, then runs steady state:
//! 90 % `Work{amount 1–5}` on a random live session, 10 % evict-oldest
//! plus open-new, each request routed by `session_zone`.
//!
//! The same stream runs through three passes over fresh fleets:
//!
//! * (a) **closed loop** — one client, synchronous
//!   `ZoneManager::dispatch`; the next request is sent when the previous
//!   one returns. This pass gives the end-to-end metrics.
//! * (b) **open loop** — same thread, request *i* due at `t0 + i/R`
//!   whether or not the fleet has kept up; latency is counted from the
//!   due time, so a collection delays every request due during it.
//! * (c) **router** — `ZoneRouter` with 2 workers: enqueue everything,
//!   `quiesce`, elapsed.
//!
//! A repetition is all three, then the identity oracle: each zone's
//! observables after (a) and (c) must equal each other and a solo replay.

use super::{emit_common, HeapCounters, Recorder, Rep, RepParams};
use crate::rng::{Rng, StreamHash};
use crate::trace::{Span, Tracer};
use guardians_gc::SegmentPool;
use guardians_zones::{
    session_zone, Request, Zone, ZoneConfig, ZoneManager, ZoneObservables, ZoneRouter,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

const OPS_PER_REP: u64 = 300_000;
const WARMUP_OPS: u64 = 30_000;
const ZONES: usize = 6;
const SESSIONS: u64 = 4_000;
const TRIGGER_BYTES: usize = 256 * 1024;
const ROUTER_WORKERS: usize = 2;
/// Open-loop arrival rate in requests per second: frozen at about 60 %
/// of pass (a)'s throughput on the defining host (250–290 k req/s,
/// depending on the neighbours), so that a slow spell of the host does
/// not by itself push the fleet past saturation.
pub const OPEN_RATE: u64 = 160_000;

type Routed = (u64, Request);

/// The generated traffic: session opens, then warm-up and timed steady
/// state, each request already routed to its zone.
struct Stream {
    opens: Vec<Routed>,
    warm: Vec<Routed>,
    timed: Vec<Routed>,
    evictions: u64,
    hash: u64,
}

fn generate(seed: u64, warm: u64, timed: u64) -> Stream {
    let mut rng = Rng::new(seed, 4);
    let mut hash = StreamHash::default();
    let route = |req: Request| (session_zone(req.session(), ZONES), req);
    let opens: Vec<Routed> = (0..SESSIONS)
        .map(|session| route(Request::Open { session }))
        .collect();
    let mut live: VecDeque<u64> = (0..SESSIONS).collect();
    let mut next = SESSIONS;
    let mut evictions = 0;
    let mut steady = Vec::with_capacity((warm + timed) as usize + 1);
    while (steady.len() as u64) < warm + timed {
        if rng.chance(1, 10) {
            let oldest = live.pop_front().expect("fleet is never empty");
            steady.push(route(Request::Evict { session: oldest }));
            steady.push(route(Request::Open { session: next }));
            live.push_back(next);
            hash.mix(oldest << 32 | next);
            next += 1;
            evictions += 1;
        } else {
            let session = live[rng.below(live.len() as u64) as usize];
            let amount = 1 + rng.below(5) as u32;
            steady.push(route(Request::Work { session, amount }));
            hash.mix(session << 8 | u64::from(amount));
        }
    }
    steady.truncate((warm + timed) as usize);
    let timed = steady.split_off(warm as usize);
    Stream {
        opens,
        warm: steady,
        timed,
        evictions,
        hash: hash.finish(),
    }
}

/// Even zones serve the typed surface, odd zones the Scheme one.
fn is_typed(zone: u64) -> bool {
    zone.is_multiple_of(2)
}

fn zone_config(zone: u64) -> ZoneConfig {
    let mut config = if is_typed(zone) {
        ZoneConfig::typed()
    } else {
        ZoneConfig::scheme()
    }
    .with_trigger_bytes(TRIGGER_BYTES);
    // Reclamation lags eviction; the fd table must never be what fails.
    config.fd_limit = 1 << 16;
    config
}

fn span_of(zone: u64, req: Request) -> Span {
    match req {
        Request::Open { .. } => Span::ZoneOpen,
        Request::Evict { .. } => Span::ZoneEvict,
        Request::Work { .. } if is_typed(zone) => Span::ZoneWorkTyped,
        Request::Work { .. } => Span::ZoneWorkScheme,
    }
}

/// A manager-driven fleet with its opens and warm-up already dispatched.
fn build_fleet(pool: Arc<SegmentPool>, stream: &Stream, rep: Option<&mut Rep>) -> ZoneManager {
    let mut mgr = ZoneManager::with_pool(pool);
    let mut create_ns = [0u128; 2];
    for zone in 0..ZONES as u64 {
        let start = Instant::now();
        mgr.create_zone(zone, &zone_config(zone));
        create_ns[(zone % 2) as usize] += start.elapsed().as_nanos();
    }
    if let Some(rep) = rep {
        let per_kind = (ZONES / 2) as f64;
        rep.set(
            "zones.zone.create_typed_ms",
            create_ns[0] as f64 / 1e6 / per_kind,
        );
        rep.set(
            "zones.zone.create_scheme_ms",
            create_ns[1] as f64 / 1e6 / per_kind,
        );
    }
    for &(zone, req) in stream.opens.iter().chain(&stream.warm) {
        mgr.dispatch(zone, req);
    }
    mgr
}

fn fleet_counters(mgr: &mut ZoneManager) -> HeapCounters {
    (0..ZONES as u64).fold(HeapCounters::default(), |sum, zone| {
        let heap = mgr.zone_mut(zone).expect("zone exists").heap_mut();
        sum.plus(&HeapCounters::read(heap))
    })
}

fn fleet_observables(mgr: &ZoneManager) -> Vec<ZoneObservables> {
    (0..ZONES as u64)
        .map(|zone| mgr.zone(zone).expect("zone exists").observables())
        .collect()
}

/// Pass (a). Returns each zone's observables after the final quiesce.
fn closed_loop(stream: &Stream, tr: &mut Tracer, rep: &mut Rep) -> Vec<ZoneObservables> {
    let setup_start = Instant::now();
    let pool = SegmentPool::unbounded();
    let mut mgr = build_fleet(pool.clone(), stream, Some(rep));
    let before = fleet_counters(&mut mgr);
    let mut rec = Recorder::start(stream.timed.len());
    rep.setup_s += setup_start.elapsed().as_secs_f64();

    for (i, &(zone, req)) in stream.timed.iter().enumerate() {
        tr.op_begin(i as u64);
        let heap = mgr.zone(zone).expect("zone exists").heap();
        let (count0, gc0) = (heap.collection_count(), heap.stats().total_gc_time);
        tr.enter(span_of(zone, req));
        mgr.dispatch(zone, req);
        tr.exit();
        let heap = mgr.zone(zone).expect("zone exists").heap();
        let collections = heap.collection_count() - count0;
        if collections > 0 {
            let total = heap.stats().total_gc_time - gc0;
            for _ in 0..collections {
                rec.pause(total / collections as u32);
            }
        }
        tr.op_end();
        rec.op_done(Instant::now());
    }

    rec.finish(rep);
    let delta = fleet_counters(&mut mgr).since(&before);
    delta.emit(rep);
    rep.set("zones.fleet.collections", delta.collections as f64);
    rep.set("zones.fleet.words_allocated", delta.words_allocated as f64);
    for (name, span) in [
        ("zones.zone.open_ns", Span::ZoneOpen),
        ("zones.zone.work_typed_ns", Span::ZoneWorkTyped),
        ("zones.zone.work_scheme_ns", Span::ZoneWorkScheme),
        ("zones.zone.evict_ns", Span::ZoneEvict),
    ] {
        let agg = tr.aggregate(span);
        if agg.count > 0 {
            rep.set(name, agg.self_ns as f64 / agg.count as f64);
        }
    }

    let start = Instant::now();
    mgr.quiesce();
    rep.set(
        "zones.manager.quiesce_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    let worst_p99 = mgr
        .snapshots()
        .iter()
        .map(|s| s.pause_p99_ns)
        .max()
        .unwrap_or(0);
    rep.set("zones.fleet.worst_pause_p99_us", worst_p99 as f64 / 1e3);
    emit_common(rep, &pool);
    let sound = (0..ZONES as u64).all(|z| mgr.zone(z).expect("zone exists").verify().is_ok());
    if !sound {
        rep.failed = rep.ops;
    }
    fleet_observables(&mgr)
}

/// What the open-loop generator saw.
#[derive(Debug, Default, PartialEq)]
pub struct OpenLoopLog {
    /// Completion time minus due time, per request.
    pub latency_ns: Vec<u32>,
    /// Start time minus due time, per request: how late the generator
    /// (which shares the fleet's thread) ran.
    pub lateness_ns: Vec<u32>,
    /// Most requests that were due but not yet started at any start.
    pub backlog_max: u64,
}

/// Drives `serve` on an open-loop schedule of `rate` requests per
/// second, reading time through `now` (nanoseconds since the start), so
/// the accounting can be tested against a scripted clock.
pub fn open_loop(
    requests: usize,
    rate: u64,
    mut now: impl FnMut() -> u64,
    mut serve: impl FnMut(usize),
) -> OpenLoopLog {
    let mut log = OpenLoopLog {
        latency_ns: Vec::with_capacity(requests),
        lateness_ns: Vec::with_capacity(requests),
        backlog_max: 0,
    };
    let due_at = |i: usize| (i as u128 * 1_000_000_000 / u128::from(rate)) as u64;
    let clamp = |ns: u64| u32::try_from(ns).unwrap_or(u32::MAX);
    for i in 0..requests {
        let due = due_at(i);
        let mut start = now();
        while start < due {
            std::hint::spin_loop();
            start = now();
        }
        // Requests i+1.. whose due time has also passed are waiting.
        let waiting = (u128::from(start - due) * u128::from(rate) / 1_000_000_000) as u64;
        log.backlog_max = log.backlog_max.max(waiting.min((requests - 1 - i) as u64));
        log.lateness_ns.push(clamp(start - due));
        serve(i);
        log.latency_ns.push(clamp(now() - due));
    }
    log
}

/// Pass (b).
fn open_loop_pass(stream: &Stream, rep: &mut Rep) {
    let mut mgr = build_fleet(SegmentPool::unbounded(), stream, None);
    let epoch = Instant::now();
    let mut log = open_loop(
        stream.timed.len(),
        OPEN_RATE,
        || epoch.elapsed().as_nanos() as u64,
        |i| {
            let (zone, req) = stream.timed[i];
            mgr.dispatch(zone, req);
        },
    );
    let lateness_p99 = crate::stats::percentile(&mut log.lateness_ns, 0.99).unwrap_or(0);
    rep.set("zones.open.lateness_p99_us", f64::from(lateness_p99) / 1e3);
    rep.set("zones.open.backlog_max", log.backlog_max as f64);
    rep.samples.insert("open_ns", log.latency_ns);
    rep.extra_attempted += stream.timed.len() as u64;
}

/// Pass (c). Returns each zone's observables after the final quiesce.
fn router_pass(
    stream: &Stream,
    first_id: u64,
    tr: &mut Tracer,
    rep: &mut Rep,
) -> Vec<ZoneObservables> {
    let router = ZoneRouter::new(ROUTER_WORKERS, SegmentPool::unbounded());
    for zone in 0..ZONES as u64 {
        router.create_zone(zone, zone_config(zone));
    }
    for &(zone, req) in stream.opens.iter().chain(&stream.warm) {
        router.dispatch(zone, req);
    }
    // A snapshot is answered in queue order and changes nothing, which
    // makes it the barrier that ends set-up.
    router.snapshots();

    let start = Instant::now();
    for (i, &(zone, req)) in stream.timed.iter().enumerate() {
        tr.op_begin(first_id + i as u64);
        tr.enter(Span::RouterSend);
        router.dispatch(zone, req);
        tr.exit();
        tr.op_end();
    }
    tr.op_begin(first_id + stream.timed.len() as u64);
    tr.enter(Span::RouterDrain);
    router.quiesce();
    tr.exit();
    tr.op_end();
    let elapsed = start.elapsed().as_secs_f64();

    rep.set("router_ops_per_s", stream.timed.len() as f64 / elapsed);
    let sends = tr.aggregate(Span::RouterSend);
    if sends.count > 0 {
        rep.set(
            "zones.router.enqueue_ns",
            sends.self_ns as f64 / sends.count as f64,
        );
        rep.set(
            "zones.router.drain_s",
            tr.aggregate(Span::RouterDrain).total_ns as f64 / 1e9,
        );
    }
    rep.extra_attempted += stream.timed.len() as u64;
    router.shutdown().into_iter().map(|s| s.obs).collect()
}

/// Each zone alone on a private heap, fed its own subsequence: what the
/// fleet's per-zone observables must equal (E21's identity oracle).
fn solo_replay(stream: &Stream) -> Vec<ZoneObservables> {
    (0..ZONES as u64)
        .map(|id| {
            let mut zone = Zone::new(id, &zone_config(id));
            let all = stream.opens.iter().chain(&stream.warm).chain(&stream.timed);
            for &(_, req) in all.filter(|(z, _)| *z == id) {
                zone.dispatch(req);
            }
            zone.quiesce();
            zone.observables()
        })
        .collect()
}

pub fn run_rep(p: &RepParams, tr: &mut Tracer) -> Rep {
    let setup_start = Instant::now();
    let warm = p.scaled(WARMUP_OPS, 64);
    let timed = p.scaled(OPS_PER_REP, 256);
    let stream = generate(p.seed, warm, timed);
    let mut rep = Rep {
        stream_hash: stream.hash,
        setup_s: setup_start.elapsed().as_secs_f64(),
        ..Rep::default()
    };

    let closed = closed_loop(&stream, tr, &mut rep);

    // Every evicted session is reclaimed once the fleet has quiesced,
    // and exactly its resources were released.
    let reclaimed: u64 = closed.iter().map(|o| o.reclaimed_sessions).sum();
    let evicted: u64 = closed.iter().map(|o| o.sessions_evicted).sum();
    let mut sound = reclaimed == evicted
        && evicted == stream.evictions
        && closed
            .iter()
            .all(|o| o.open_fds == o.live_sessions && o.ext_live_blocks == o.live_sessions);
    rep.set("zones.fleet.reclaimed", reclaimed as f64);

    open_loop_pass(&stream, &mut rep);
    let routed = router_pass(&stream, timed, tr, &mut rep);
    sound &= routed == closed && solo_replay(&stream) == closed;
    if !sound {
        rep.failed = rep.ops;
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that advances `tick` ns per reading, plus whatever
    /// `serve` adds to it.
    fn run(requests: usize, rate: u64, tick: u64, cost: impl Fn(usize) -> u64) -> OpenLoopLog {
        let clock = std::cell::Cell::new(0u64);
        open_loop(
            requests,
            rate,
            || {
                clock.set(clock.get() + tick);
                clock.get()
            },
            |i| clock.set(clock.get() + cost(i)),
        )
    }

    #[test]
    fn an_idle_server_sees_no_lateness_or_backlog() {
        // 1 request per 1,000 ns, each served in 100 ns; 10 ns per reading.
        let log = run(50, 1_000_000, 10, |_| 100);
        assert_eq!(log.backlog_max, 0);
        assert!(
            log.lateness_ns.iter().all(|&l| l <= 10),
            "{:?}",
            log.lateness_ns
        );
        // Latency = service + the clock readings around it.
        assert!(log.latency_ns.iter().all(|&l| (100..130).contains(&l)));
    }

    #[test]
    fn a_stall_delays_every_request_due_during_it() {
        // Request 10 stalls for 5,000 ns: five later requests fall due
        // meanwhile, and each is charged from its own due time.
        let log = run(40, 1_000_000, 1, |i| if i == 10 { 5_000 } else { 100 });
        assert!(log.latency_ns[10] >= 5_000);
        assert!(log.latency_ns[9] < 200, "before the stall: unaffected");
        assert!(
            log.latency_ns[11] > 4_000,
            "due at 11,000, served after 15,000"
        );
        assert!(log.lateness_ns[11] > 4_000);
        assert!(log.latency_ns[11] > log.latency_ns[12], "the queue drains");
        assert_eq!(log.backlog_max, 4, "requests 12..=15 waited behind 11");
        let last = *log.latency_ns.last().unwrap();
        assert!(last < 200, "caught up by the end: {last}");
    }

    #[test]
    fn an_overloaded_server_falls_ever_further_behind() {
        // Service takes twice the arrival interval.
        let log = run(100, 1_000_000, 1, |_| 2_000);
        assert!(log.latency_ns.windows(2).all(|w| w[1] > w[0]));
        assert!(log.backlog_max >= 49, "{}", log.backlog_max);
    }

    #[test]
    fn the_stream_is_a_function_of_the_seed() {
        let a = generate(1, 100, 1_000);
        let b = generate(1, 100, 1_000);
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.timed, b.timed);
        assert_ne!(a.hash, generate(2, 100, 1_000).hash);
        assert_eq!(a.warm.len(), 100);
        assert_eq!(a.timed.len(), 1_000);
        // About one request in ten draws is an evict + open pair.
        assert!((50..200).contains(&a.evictions), "{}", a.evictions);
    }
}
