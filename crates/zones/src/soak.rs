//! Multi-zone soak: a seed-driven schedule of zone create / dispatch /
//! evict / teardown operations run against a shared-pool fleet, with a
//! built-in oracle — every zone's op subsequence is replayed on a
//! private-heap zone and the two [`ZoneObservables`] must match exactly.
//! Divergence renders the schedule as a committable text artifact
//! (nightly CI uploads it), and the op list is `ddmin`-shrinkable: ops
//! referencing zones or sessions that a shrunk prefix never created are
//! skipped, so any subsequence is a valid schedule.

use crate::zone::{Request, WorkloadKind, Zone, ZoneConfig, ZoneObservables, SCHEDULES};
use crate::ZoneManager;
use std::collections::BTreeMap;
use std::fmt;

/// One soak operation. All routing is explicit (recorded at generation
/// time), so a schedule replays identically however it is partitioned.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SoakOp {
    /// Create zone `zone` (config derived from the id, see
    /// [`zone_config_for`]).
    Create {
        /// Zone id.
        zone: u64,
    },
    /// Open session `session` in zone `zone`.
    Open {
        /// Zone id.
        zone: u64,
        /// Session id.
        session: u64,
    },
    /// Work in zone `zone` attributed to `session`.
    Work {
        /// Zone id.
        zone: u64,
        /// Session id.
        session: u64,
        /// Work units.
        amount: u32,
    },
    /// Evict `session` from zone `zone`.
    Evict {
        /// Zone id.
        zone: u64,
        /// Session id.
        session: u64,
    },
    /// Tear zone `zone` down (oracle checkpoint: its observables are
    /// compared against a private replay here).
    Teardown {
        /// Zone id.
        zone: u64,
    },
    /// Quiesce every live zone.
    Quiesce,
}

/// A full soak schedule: seed (for the artifact header) plus ops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoakSchedule {
    /// Generating seed.
    pub seed: u64,
    /// The operation sequence.
    pub ops: Vec<SoakOp>,
}

/// The zone configuration the soak derives from a zone id: the workload
/// alternates typed/Scheme, the schedule ([`SCHEDULES`]) changes every
/// second zone so every pairing occurs, and the trigger is small enough
/// that even short schedules collect.
pub fn zone_config_for(zone: u64) -> ZoneConfig {
    let pause_budget = SCHEDULES[(zone / 2) as usize % SCHEDULES.len()];
    let base = if zone.is_multiple_of(2) {
        ZoneConfig::typed()
    } else {
        ZoneConfig::scheme()
    };
    base.with_pause_budget(pause_budget)
        .with_trigger_bytes(1 << 16)
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Generates a randomized (but fully seed-determined) schedule of `nops`
/// operations touching up to `max_zones` concurrently live zones.
pub fn generate(seed: u64, nops: usize, max_zones: usize) -> SoakSchedule {
    assert!(max_zones > 0);
    let mut rng = SplitMix64(seed);
    let mut ops = Vec::with_capacity(nops);
    let mut live_zones: Vec<u64> = Vec::new();
    let mut sessions: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut next_zone = 0u64;
    let mut next_session = 0u64;
    while ops.len() < nops {
        let have_zones = !live_zones.is_empty();
        let roll = rng.below(100);
        let op = if !have_zones || (roll < 6 && live_zones.len() < max_zones) {
            let zone = next_zone;
            next_zone += 1;
            live_zones.push(zone);
            sessions.insert(zone, Vec::new());
            SoakOp::Create { zone }
        } else if roll < 30 {
            let zone = live_zones[rng.below(live_zones.len() as u64) as usize];
            let session = next_session;
            next_session += 1;
            sessions.get_mut(&zone).expect("zone live").push(session);
            SoakOp::Open { zone, session }
        } else if roll < 80 {
            let zone = live_zones[rng.below(live_zones.len() as u64) as usize];
            let open = &sessions[&zone];
            if open.is_empty() {
                continue;
            }
            let session = open[rng.below(open.len() as u64) as usize];
            let amount = 1 + rng.below(24) as u32;
            SoakOp::Work {
                zone,
                session,
                amount,
            }
        } else if roll < 94 {
            let zone = live_zones[rng.below(live_zones.len() as u64) as usize];
            let open = sessions.get_mut(&zone).expect("zone live");
            if open.is_empty() {
                continue;
            }
            let session = open.swap_remove(rng.below(open.len() as u64) as usize);
            SoakOp::Evict { zone, session }
        } else if roll < 97 && live_zones.len() > 1 {
            let i = rng.below(live_zones.len() as u64) as usize;
            let zone = live_zones.swap_remove(i);
            sessions.remove(&zone);
            SoakOp::Teardown { zone }
        } else {
            SoakOp::Quiesce
        };
        ops.push(op);
    }
    SoakSchedule { seed, ops }
}

/// Statistics from a passing soak run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SoakStats {
    /// Ops applied (including skipped no-ops).
    pub ops: u64,
    /// Zones created.
    pub zones_created: u64,
    /// Zones torn down (each one an oracle checkpoint that passed).
    pub zones_checked: u64,
    /// Requests dispatched into zones.
    pub requests: u64,
    /// Sessions reclaimed through guardians, fleet-wide.
    pub reclaimed: u64,
}

/// A soak divergence: the shared-pool fleet run and the private replay
/// disagreed, or an invariant failed.
#[derive(Clone, Debug)]
pub struct SoakFailure {
    /// Generating seed.
    pub seed: u64,
    /// Index of the op at which the failure surfaced.
    pub op_index: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SoakFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "soak seed={} diverged at op {}: {}",
            self.seed, self.op_index, self.message
        )
    }
}

impl std::error::Error for SoakFailure {}

/// Replays one zone's op subsequence on a private (non-pooled) zone and
/// returns its final observables after the same quiesce the fleet side
/// performs at teardown.
fn replay_private(zone_id: u64, ops: &[SoakOp]) -> ZoneObservables {
    let config = zone_config_for(zone_id);
    let mut zone = Zone::new(zone_id, &config);
    for op in ops {
        match *op {
            SoakOp::Open { session, .. } => zone.dispatch(Request::Open { session }),
            SoakOp::Work {
                session, amount, ..
            } => zone.dispatch(Request::Work { session, amount }),
            SoakOp::Evict { session, .. } => zone.dispatch(Request::Evict { session }),
            SoakOp::Quiesce => zone.quiesce(),
            SoakOp::Create { .. } | SoakOp::Teardown { .. } => {}
        }
    }
    zone.quiesce();
    zone.observables()
}

/// Runs a schedule on a shared-pool fleet with the private-replay oracle
/// at every teardown (and for every zone still live at the end), plus
/// heap verification and pool accounting at each quiesce (with two or
/// more zones live, the pool's outstanding segments are exactly the ones
/// the zones hold) and at exit.
///
/// Ops referencing dead zones or sessions are counted but skipped, so
/// shrunk subsequences are always runnable.
///
/// # Errors
///
/// Returns the first [`SoakFailure`] (oracle divergence, heap
/// verification failure, idle storage after a quiesce, or leaked pool
/// segments).
pub fn run_schedule(schedule: &SoakSchedule) -> Result<SoakStats, SoakFailure> {
    let mut mgr = ZoneManager::new();
    let mut per_zone: BTreeMap<u64, Vec<SoakOp>> = BTreeMap::new();
    let mut stats = SoakStats::default();
    let fail = |i: usize, message: String| SoakFailure {
        seed: schedule.seed,
        op_index: i,
        message,
    };
    let check_zone = |i: usize,
                      zone_id: u64,
                      got: &ZoneObservables,
                      ops: &[SoakOp]|
     -> Result<(), SoakFailure> {
        let want = replay_private(zone_id, ops);
        if *got != want {
            return Err(fail(
                i,
                format!(
                    "zone {zone_id} shared-pool observables diverge from private replay\n\
                     shared:  {got:?}\nprivate: {want:?}"
                ),
            ));
        }
        Ok(())
    };
    for (i, op) in schedule.ops.iter().enumerate() {
        stats.ops += 1;
        match *op {
            SoakOp::Create { zone } => {
                if mgr.zone(zone).is_none() {
                    mgr.create_zone(zone, &zone_config_for(zone));
                    per_zone.insert(zone, Vec::new());
                    stats.zones_created += 1;
                }
            }
            SoakOp::Open { zone, session } => {
                if mgr.zone(zone).is_some() {
                    mgr.dispatch(zone, Request::Open { session });
                    per_zone.get_mut(&zone).expect("tracked").push(*op);
                    stats.requests += 1;
                }
            }
            SoakOp::Work {
                zone,
                session,
                amount,
            } => {
                if mgr.zone(zone).is_some() {
                    mgr.dispatch(zone, Request::Work { session, amount });
                    per_zone.get_mut(&zone).expect("tracked").push(*op);
                    stats.requests += 1;
                }
            }
            SoakOp::Evict { zone, session } => {
                if mgr.zone(zone).is_some() {
                    mgr.dispatch(zone, Request::Evict { session });
                    per_zone.get_mut(&zone).expect("tracked").push(*op);
                    stats.requests += 1;
                }
            }
            SoakOp::Teardown { zone } => {
                if mgr.zone(zone).is_some() {
                    let snap = mgr.teardown_zone(zone).expect("zone live");
                    let ops = per_zone.remove(&zone).expect("tracked");
                    check_zone(i, zone, &snap.obs, &ops)?;
                    stats.zones_checked += 1;
                    stats.reclaimed += snap.obs.reclaimed_sessions;
                }
            }
            SoakOp::Quiesce => {
                mgr.quiesce();
                let mut held = 0;
                for id in mgr.zone_ids() {
                    per_zone
                        .get_mut(&id)
                        .expect("tracked")
                        .push(SoakOp::Quiesce);
                    let zone = mgr.zone(id).expect("live");
                    if let Err(e) = zone.verify() {
                        return Err(fail(i, format!("zone {id} failed verify: {e}")));
                    }
                    held += zone.segments_held();
                }
                // Every zone has just collected beside another, so none
                // holds idle storage. A lone zone keeps its free store.
                let outstanding = mgr.pool_stats().outstanding;
                if mgr.len() > 1 && outstanding != held {
                    return Err(fail(
                        i,
                        format!(
                            "pool has {outstanding} segments outstanding after a quiesce, \
                             but its {} zones hold {held}",
                            mgr.len()
                        ),
                    ));
                }
            }
        }
    }
    let last = schedule.ops.len();
    for id in mgr.zone_ids() {
        let snap = mgr.teardown_zone(id).expect("zone live");
        let ops = per_zone.remove(&id).expect("tracked");
        check_zone(last, id, &snap.obs, &ops)?;
        stats.zones_checked += 1;
        stats.reclaimed += snap.obs.reclaimed_sessions;
    }
    let pool = mgr.pool_stats();
    if pool.outstanding != 0 || pool.attached_tables != 0 {
        return Err(fail(
            last,
            format!(
                "pool leaked after full teardown: {} segments outstanding, {} tables attached",
                pool.outstanding, pool.attached_tables
            ),
        ));
    }
    Ok(stats)
}

/// Generates and runs one soak seed: the unit of the nightly campaign.
///
/// # Errors
///
/// Propagates [`run_schedule`]'s failure.
pub fn check_seed(seed: u64, nops: usize, max_zones: usize) -> Result<SoakStats, SoakFailure> {
    run_schedule(&generate(seed, nops, max_zones))
}

impl SoakSchedule {
    /// Renders the schedule as a line-oriented text artifact (the
    /// fail-out format nightly CI uploads; [`SoakSchedule::from_text`]
    /// parses it back).
    pub fn to_text(&self) -> String {
        let mut out = format!("soak-schedule seed={}\n", self.seed);
        for op in &self.ops {
            let line = match *op {
                SoakOp::Create { zone } => format!("create {zone}"),
                SoakOp::Open { zone, session } => format!("open {zone} {session}"),
                SoakOp::Work {
                    zone,
                    session,
                    amount,
                } => format!("work {zone} {session} {amount}"),
                SoakOp::Evict { zone, session } => format!("evict {zone} {session}"),
                SoakOp::Teardown { zone } => format!("teardown {zone}"),
                SoakOp::Quiesce => "quiesce".to_string(),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parses [`SoakSchedule::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<SoakSchedule, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty schedule")?;
        let seed = header
            .strip_prefix("soak-schedule seed=")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| format!("bad header: {header:?}"))?;
        let mut ops = Vec::new();
        for line in lines {
            let mut w = line.split_whitespace();
            let kind = w.next().ok_or_else(|| format!("bad line: {line:?}"))?;
            let mut num = |what: &str| -> Result<u64, String> {
                w.next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("bad {what} in line: {line:?}"))
            };
            let op = match kind {
                "create" => SoakOp::Create { zone: num("zone")? },
                "open" => SoakOp::Open {
                    zone: num("zone")?,
                    session: num("session")?,
                },
                "work" => SoakOp::Work {
                    zone: num("zone")?,
                    session: num("session")?,
                    amount: num("amount")? as u32,
                },
                "evict" => SoakOp::Evict {
                    zone: num("zone")?,
                    session: num("session")?,
                },
                "teardown" => SoakOp::Teardown { zone: num("zone")? },
                "quiesce" => SoakOp::Quiesce,
                other => return Err(format!("unknown op {other:?}")),
            };
            ops.push(op);
        }
        Ok(SoakSchedule { seed, ops })
    }
}

/// True when the schedule mixes both workload kinds across its created
/// zones (used by tests to confirm the derived configs cover the matrix).
pub fn covers_both_workloads(schedule: &SoakSchedule) -> bool {
    let mut typed = false;
    let mut scheme = false;
    for op in &schedule.ops {
        if let SoakOp::Create { zone } = op {
            match zone_config_for(*zone).workload {
                WorkloadKind::Typed => typed = true,
                WorkloadKind::Scheme => scheme = true,
            }
        }
    }
    typed && scheme
}
