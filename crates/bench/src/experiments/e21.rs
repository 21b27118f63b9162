//! **E21 — Multi-tenant zone fleet: isolation and reclaim.**
//!
//! A fleet of isolated heap zones drawing segments from one shared pool,
//! fronted by the thread-per-core [`ZoneRouter`]: sessions hash to zones,
//! zones pin to workers, and every request runs a safe point (policy
//! collection + guardian drain) on its zone's own heap. Tenant sessions
//! hold external resources (a simulated-OS fd and an arena block);
//! eviction drops the root and the zone's guardian reclaims the
//! resources once the collector proves the session dead — the paper's
//! program-controlled finalization doing fleet resource reclamation at
//! scale.
//!
//! The experiment runs the same fleet workload (8 zones, half typed /
//! half Scheme, ≥1000 concurrent simulated sessions) under each schedule
//! of the zone matrix — stop-the-world, 100 µs bounded-pause — and reports the fleet totals and the guardian-reclaimed resource
//! counts. Each run also replays
//! every zone's recorded request subsequence on a private solo zone and
//! asserts the observables byte-identical (all but the wall-clock
//! `collections` on the budgeted leg): multi-tenancy, the shared pool,
//! and the router add *no* observable behaviour.
//!
//! Fleet throughput and per-zone pause tails are times; `benchmark/`'s
//! `fleet_requests` workload samples them (`router_ops_per_s`,
//! `zones.fleet.worst_pause_p99_us`).

use guardians_workloads::report::fmt_count;
use guardians_workloads::Table;
use guardians_zones::{
    schedule_label, session_zone, FleetStats, Request, Zone, ZoneConfig, ZoneRouter, ZoneSnapshot,
    SCHEDULES,
};
use std::time::Duration;

/// Zones in the fleet (acceptance floor: at least 8).
const ZONES: usize = 8;
/// Router worker threads.
const WORKERS: usize = 4;

/// One schedule's fleet outcome.
#[derive(Debug, Clone)]
pub struct E21Row {
    pub label: String,
    pub zones: usize,
    /// Sessions opened fleet-wide (all concurrently live before the
    /// eviction wave).
    pub sessions: u64,
    pub requests: u64,
    /// Sessions whose fd + arena block the guardian path reclaimed.
    pub reclaimed: u64,
    pub fds_closed: u64,
    pub blocks_freed: u64,
    /// Zones whose fleet observables matched their private solo replay.
    pub identity_checked: usize,
}

/// The per-zone configurations of the fleet: schedule fixed per run,
/// workload alternating typed/Scheme, trigger small enough that every
/// zone collects during the run.
fn fleet_configs(pause_budget: Option<Duration>) -> Vec<ZoneConfig> {
    (0..ZONES as u64)
        .map(|id| {
            let base = if id % 2 == 0 {
                ZoneConfig::typed()
            } else {
                ZoneConfig::scheme()
            };
            base.with_pause_budget(pause_budget)
                .with_trigger_bytes(1 << 16)
        })
        .collect()
}

/// The session-hashed request stream: open everything, `rounds` work
/// waves, evict every second session, recorded per zone for the replay.
fn request_stream(sessions: u64, rounds: u32) -> (Vec<Request>, Vec<Vec<Request>>) {
    let mut stream = Vec::new();
    for s in 0..sessions {
        stream.push(Request::Open { session: s });
    }
    for round in 0..rounds {
        for s in 0..sessions {
            stream.push(Request::Work {
                session: s,
                amount: 1 + (s as u32 + round) % 5,
            });
        }
    }
    for s in (0..sessions).step_by(2) {
        stream.push(Request::Evict { session: s });
    }
    let mut per_zone = vec![Vec::new(); ZONES];
    for &req in &stream {
        per_zone[session_zone(req.session(), ZONES) as usize].push(req);
    }
    (stream, per_zone)
}

/// Replays one zone's subsequence on a private solo zone — the identity
/// oracle. Panics on divergence (an experiment-level invariant, not a
/// measured quantity).
fn check_identity(snap: &ZoneSnapshot, config: &ZoneConfig, reqs: &[Request]) {
    let mut zone = Zone::new(snap.zone, config);
    for &r in reqs {
        zone.dispatch(r);
    }
    zone.quiesce();
    let mut solo = zone.observables();
    if config.gc.pause_budget.is_some() {
        // A budgeted collection spans as many safe points as the clock
        // makes it, and the allocation trigger only re-arms when it ends,
        // so `collections` is wall-clock there (see `ZoneObservables`).
        solo.collections = snap.obs.collections;
    }
    assert_eq!(
        snap.obs, solo,
        "zone {} fleet observables diverge from its solo replay",
        snap.zone
    );
}

fn measure(pause_budget: Option<Duration>, sessions: u64, rounds: u32) -> E21Row {
    let configs = fleet_configs(pause_budget);
    let (stream, per_zone) = request_stream(sessions, rounds);
    let pool = guardians_gc::SegmentPool::unbounded();
    let router = ZoneRouter::new(WORKERS, pool);
    for (id, cfg) in configs.iter().enumerate() {
        router.create_zone(id as u64, cfg.clone());
    }
    for &req in &stream {
        router.dispatch_by_session(ZONES, req);
    }
    router.quiesce();
    let snaps = router.shutdown();
    for snap in &snaps {
        check_identity(
            snap,
            &configs[snap.zone as usize],
            &per_zone[snap.zone as usize],
        );
    }
    let fleet = FleetStats::aggregate(&snaps);
    assert_eq!(fleet.sessions_opened, sessions, "every session landed");
    E21Row {
        label: schedule_label(pause_budget),
        zones: snaps.len(),
        sessions: fleet.sessions_opened,
        requests: fleet.requests,
        reclaimed: fleet.reclaimed_sessions,
        fds_closed: fleet.fds_closed,
        blocks_freed: fleet.blocks_freed,
        identity_checked: snaps.len(),
    }
}

/// Runs the experiment: the schedule matrix over the same fleet workload.
pub fn run(quick: bool) -> (Table, Vec<E21Row>) {
    let sessions: u64 = if quick { 1000 } else { 2500 };
    let rounds: u32 = if quick { 2 } else { 4 };
    let mut table = Table::new(
        "E21: multi-tenant zone fleet over a shared segment pool",
        &[
            "engine",
            "zones",
            "sessions",
            "requests",
            "reclaimed",
            "fds closed",
        ],
    );
    let mut rows = Vec::new();
    for pause_budget in SCHEDULES {
        let row = measure(pause_budget, sessions, rounds);
        table.row(&[
            row.label.clone(),
            row.zones.to_string(),
            fmt_count(row.sessions),
            fmt_count(row.requests),
            fmt_count(row.reclaimed),
            fmt_count(row.fds_closed),
        ]);
        rows.push(row);
    }
    table.note(format!(
        "engine varies by row (the zone matrix); fleet: {ZONES} zones (typed/Scheme alternating) on {WORKERS} router workers, sessions hashed to zones, every request a safe point"
    ));
    table.note("reclaimed counts evicted sessions whose fd + arena block the zone guardian closed/freed after the collector proved them dead (fds closed always matches)");
    table.note("identity: every zone's observables were replayed against a private solo zone and matched byte-for-byte — the shared pool and router add no observable behaviour");
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_hits_the_acceptance_floor_and_reclaims() {
        let (_t, rows) = run(true);
        assert_eq!(rows.len(), 2, "both schedules");
        for row in &rows {
            assert!(row.zones >= 8, "{}: >=8 zones", row.label);
            assert!(row.sessions >= 1000, "{}: >=1000 sessions", row.label);
            assert_eq!(
                row.identity_checked, row.zones,
                "{}: every zone identity-checked",
                row.label
            );
            assert_eq!(
                row.reclaimed,
                row.sessions / 2,
                "{}: every evicted session reclaimed",
                row.label
            );
            assert_eq!(row.fds_closed, row.reclaimed);
            assert_eq!(row.blocks_freed, row.reclaimed);
        }
        // The schedule must not change what the fleet computes.
        assert!(
            rows.windows(2)
                .all(|w| w[0].requests == w[1].requests && w[0].reclaimed == w[1].reclaimed),
            "deterministic fleet totals across schedules"
        );
    }
}
