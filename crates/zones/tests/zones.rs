//! Zone-level acceptance tests: shared-pool isolation, teardown
//! accounting, guardian-driven eviction reclamation, cross-schedule
//! identity, router determinism, and the soak harness.

use guardians_gc::SegmentPool;
use guardians_zones::soak::{self, SoakOp, SoakSchedule};
use guardians_zones::{
    schedule_label, session_zone, Request, Zone, ZoneConfig, ZoneManager, ZoneObservables,
    ZoneRouter, SCHEDULES,
};
use std::time::Duration;

/// A deterministic per-tenant request script: open `sessions` sessions,
/// run `rounds` of work over them, evicting every third session halfway
/// through.
fn script(sessions: u64, rounds: u32) -> Vec<Request> {
    let mut reqs = Vec::new();
    for s in 0..sessions {
        reqs.push(Request::Open { session: s });
    }
    for r in 0..rounds {
        for s in 0..sessions {
            reqs.push(Request::Work {
                session: s,
                amount: 1 + (s as u32 + r) % 7,
            });
        }
        if r == rounds / 2 {
            for s in (0..sessions).step_by(3) {
                reqs.push(Request::Evict { session: s });
            }
        }
    }
    reqs
}

/// Runs a script on a private (non-pooled) zone: the oracle.
fn solo(id: u64, config: &ZoneConfig, reqs: &[Request]) -> ZoneObservables {
    let mut zone = Zone::new(id, config);
    for &r in reqs {
        zone.dispatch(r);
    }
    zone.quiesce();
    zone.observables()
}

fn small_trigger(config: ZoneConfig) -> ZoneConfig {
    config.with_trigger_bytes(1 << 16)
}

#[test]
fn pooled_zone_matches_private_zone_exactly() {
    for config in [
        small_trigger(ZoneConfig::typed()),
        small_trigger(ZoneConfig::scheme()),
    ] {
        let reqs = script(24, 8);
        let want = solo(7, &config, &reqs);
        let mut mgr = ZoneManager::new();
        mgr.create_zone(7, &config);
        for &r in &reqs {
            mgr.dispatch(7, r);
        }
        mgr.quiesce();
        let got = mgr.zone(7).unwrap().observables();
        assert_eq!(got, want, "pooled observables == private observables");
    }
}

#[test]
fn exhausting_one_zone_leaves_siblings_byte_identical() {
    // Zone A gets a watermark far below the pool capacity and is driven
    // into quota exhaustion through the heap's fallible entry point;
    // sibling zone B keeps allocating and collecting with observables
    // byte-identical to a solo run of the same script on a private heap.
    // A's watermark is sized with copy-reserve headroom (live + to-space
    // transient), the documented quota contract, so A recovers by
    // collecting once its pins drop.
    let a_cfg = small_trigger(ZoneConfig::typed()).with_max_segments(16);
    let b_cfg = small_trigger(ZoneConfig::typed());
    let reqs = script(24, 8);
    let want = solo(2, &b_cfg, &reqs);

    let mut mgr = ZoneManager::with_capacity(4096);
    mgr.create_zone(1, &a_cfg);
    mgr.create_zone(2, &b_cfg);

    // Pin vectors in A until at most 6 of its 16 quota segments remain,
    // then present a demand that cannot fit: a clean Exhausted, no
    // allocation performed.
    let mut pins = Vec::new();
    let heap = mgr.zone_mut(1).unwrap().heap_mut();
    while heap.segs_acquirable() > 6 {
        let v = heap
            .try_make_vector(400, guardians_gc::Value::fixnum(0))
            .expect("within quota");
        pins.push(heap.root(v));
    }
    let err = heap
        .try_make_vector(400 * 8, guardians_gc::Value::fixnum(0))
        .unwrap_err();
    let guardians_gc::GcError::Exhausted { needed, remaining } = err;
    assert!(needed > remaining, "clean refusal at the quota: {err}");
    assert!(mgr.pool().remaining() > 0, "the pool itself has headroom");

    // B is unaffected: same script, same observables as the solo oracle.
    for &r in &reqs {
        mgr.dispatch(2, r);
    }
    mgr.zone_mut(2).unwrap().quiesce();
    assert_eq!(mgr.zone(2).unwrap().observables(), want);

    // A recovers within its quota once the pins drop.
    drop(pins);
    mgr.quiesce();
    mgr.zone_mut(1)
        .unwrap()
        .heap_mut()
        .try_make_vector(400, guardians_gc::Value::fixnum(0))
        .expect("quota headroom restored by collection");
    mgr.zone(1).unwrap().verify().expect("A still verifies");
    mgr.zone(2).unwrap().verify().expect("B still verifies");
}

#[test]
fn teardown_returns_every_segment_to_the_pool() {
    let mut mgr = ZoneManager::with_capacity(4096);
    for id in 0..6 {
        let cfg = small_trigger(if id % 2 == 0 {
            ZoneConfig::typed()
        } else {
            ZoneConfig::scheme()
        });
        mgr.create_zone(id, &cfg);
        for &r in &script(12, 4) {
            mgr.dispatch(id, r);
        }
    }
    let outstanding_before = mgr.pool_stats().outstanding;
    assert!(outstanding_before > 0, "zones hold pool segments");
    for id in mgr.zone_ids() {
        mgr.zone(id).unwrap().verify().expect("zone verifies");
        let snap = mgr.teardown_zone(id).expect("zone live");
        assert_eq!(
            snap.obs.open_fds, snap.obs.live_sessions,
            "every live session holds exactly its one fd"
        );
    }
    let pool = mgr.pool_stats();
    assert_eq!(pool.outstanding, 0, "all segments returned");
    assert_eq!(pool.attached_tables, 0, "no lingering owners");
    assert!(
        pool.free >= outstanding_before,
        "capacity restored for reuse"
    );
}

#[test]
fn eviction_reclaims_resources_through_the_guardian() {
    for config in [
        small_trigger(ZoneConfig::typed()),
        small_trigger(ZoneConfig::scheme()),
    ] {
        let mut zone = Zone::new(0, &config);
        for s in 0..30 {
            zone.dispatch(Request::Open { session: s });
        }
        for s in 0..30 {
            zone.dispatch(Request::Work {
                session: s,
                amount: 3,
            });
        }
        for s in 0..20 {
            zone.dispatch(Request::Evict { session: s });
        }
        zone.quiesce();
        let obs = zone.observables();
        assert_eq!(obs.sessions_opened, 30);
        assert_eq!(obs.sessions_evicted, 20);
        assert_eq!(
            obs.reclaimed_sessions, 20,
            "guardian proved all evicted dead"
        );
        assert_eq!(obs.fds_closed, 20);
        assert_eq!(obs.blocks_freed, 20);
        assert_eq!(obs.live_sessions, 10);
        assert_eq!(obs.open_fds, 10, "no fd leaks");
        assert_eq!(obs.ext_live_blocks, 10, "no block leaks");
        assert_eq!(obs.os_opens, obs.os_closes + obs.open_fds);
        zone.verify().expect("zone verifies after reclamation");
    }
}

#[test]
fn observables_are_identical_across_all_three_engines() {
    for base in [ZoneConfig::typed(), ZoneConfig::scheme()] {
        let reqs = script(20, 6);
        let mut all: Vec<(String, ZoneObservables)> = Vec::new();
        for pause_budget in SCHEDULES {
            let cfg = small_trigger(base.clone()).with_pause_budget(pause_budget);
            all.push((schedule_label(pause_budget), solo(0, &cfg, &reqs)));
        }
        let (ref first_label, ref want) = all[0];
        for (label, got) in &all[1..] {
            assert_eq!(
                got, want,
                "{label} observables differ from {first_label} ({:?} workload)",
                base.workload
            );
        }
    }
}

/// A zone's schedule is its `gc.pause_budget`: a budget set there reaches
/// the heap and names the zone, and the builder is the same field.
#[test]
fn a_zone_runs_the_pause_budget_its_gc_config_carries() {
    let budget = Some(Duration::from_micros(250));
    let mut config = ZoneConfig::typed();
    config.gc.pause_budget = budget;
    let mut zone = Zone::new(0, &config);
    assert_eq!(zone.heap().config().pause_budget, budget);
    assert_eq!(zone.snapshot().engine, "budget250us");
    let built = ZoneConfig::typed().with_pause_budget(budget);
    assert_eq!(built.gc, config.gc);
    let mut serial = Zone::new(1, &ZoneConfig::scheme());
    assert_eq!(serial.snapshot().engine, "serial");
}

#[test]
fn router_fleet_matches_solo_replay_per_zone() {
    const ZONES: usize = 8;
    let pool = SegmentPool::with_capacity(8192);
    let router = ZoneRouter::new(4, pool);
    let configs: Vec<ZoneConfig> = (0..ZONES as u64)
        .map(|id| {
            let base = if id % 2 == 0 {
                ZoneConfig::typed()
            } else {
                ZoneConfig::scheme()
            };
            small_trigger(base).with_pause_budget(SCHEDULES[(id / 2) as usize % SCHEDULES.len()])
        })
        .collect();
    for (id, cfg) in configs.iter().enumerate() {
        router.create_zone(id as u64, cfg.clone());
    }
    // Route a session-hashed request stream and record each zone's
    // subsequence (the router preserves per-zone FIFO order).
    let mut per_zone: Vec<Vec<Request>> = vec![Vec::new(); ZONES];
    let mut reqs = Vec::new();
    for s in 0..200u64 {
        reqs.push(Request::Open { session: s });
    }
    for round in 0..4u32 {
        for s in 0..200u64 {
            reqs.push(Request::Work {
                session: s,
                amount: 1 + (s as u32 + round) % 5,
            });
        }
    }
    for s in (0..200u64).step_by(2) {
        reqs.push(Request::Evict { session: s });
    }
    for &r in &reqs {
        let z = session_zone(r.session(), ZONES);
        per_zone[z as usize].push(r);
        router.dispatch_by_session(ZONES, r);
    }
    router.quiesce();
    let snaps = router.shutdown();
    assert_eq!(snaps.len(), ZONES);
    for snap in &snaps {
        let cfg = &configs[snap.zone as usize];
        let want = solo(snap.zone, cfg, &per_zone[snap.zone as usize]);
        assert_eq!(
            snap.obs, want,
            "zone {} fleet observables == solo replay",
            snap.zone
        );
    }
    // All sessions landed somewhere, and the hash spread them out.
    let opened: u64 = snaps.iter().map(|s| s.obs.sessions_opened).sum();
    assert_eq!(opened, 200);
    assert!(snaps.iter().all(|s| s.obs.sessions_opened > 0));
}

#[test]
fn router_shutdown_returns_all_segments() {
    let pool = SegmentPool::with_capacity(8192);
    let router = ZoneRouter::new(3, pool.clone());
    for id in 0..5u64 {
        router.create_zone(id, small_trigger(ZoneConfig::typed()));
    }
    for s in 0..100u64 {
        router.dispatch_by_session(5, Request::Open { session: s });
        router.dispatch_by_session(
            5,
            Request::Work {
                session: s,
                amount: 4,
            },
        );
    }
    let torn = router.teardown_zone(2).expect("zone 2 live");
    assert!(torn.obs.requests > 0);
    let snaps = router.shutdown();
    assert_eq!(snaps.len(), 4, "zone 2 already torn down");
    let stats = pool.stats();
    assert_eq!(stats.outstanding, 0, "workers dropped their zones");
    assert_eq!(stats.attached_tables, 0);
}

#[test]
fn soak_seeds_pass_with_oracle_checks() {
    for seed in [1, 2, 3] {
        let stats = soak::check_seed(seed, 120, 6).unwrap_or_else(|f| panic!("{f}"));
        assert!(stats.zones_created > 0);
        assert_eq!(
            stats.zones_checked, stats.zones_created,
            "every zone checked"
        );
    }
}

#[test]
fn soak_schedule_text_roundtrips() {
    let schedule = soak::generate(99, 200, 5);
    assert!(soak::covers_both_workloads(&schedule));
    let text = schedule.to_text();
    let parsed = SoakSchedule::from_text(&text).expect("parses");
    assert_eq!(parsed, schedule);
}

#[test]
fn soak_skips_ops_on_dead_zones() {
    // A shrunk subsequence may reference zones never created: it must
    // still run (ops skipped), which is what makes ddmin applicable.
    let schedule = SoakSchedule {
        seed: 0,
        ops: vec![
            SoakOp::Open {
                zone: 9,
                session: 1,
            },
            SoakOp::Work {
                zone: 9,
                session: 1,
                amount: 5,
            },
            SoakOp::Create { zone: 0 },
            SoakOp::Open {
                zone: 0,
                session: 2,
            },
            SoakOp::Evict {
                zone: 0,
                session: 2,
            },
            SoakOp::Quiesce,
        ],
    };
    let stats = soak::run_schedule(&schedule).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(stats.zones_created, 1);
    assert_eq!(stats.requests, 2, "dead-zone ops skipped");
}

#[test]
fn fleet_stats_json_is_well_formed() {
    let mut mgr = ZoneManager::with_capacity(2048);
    for id in 0..3 {
        mgr.create_zone(id, &small_trigger(ZoneConfig::typed()));
        for &r in &script(8, 3) {
            mgr.dispatch(id, r);
        }
    }
    mgr.quiesce();
    let snaps = mgr.snapshots();
    let json = guardians_zones::fleet_stats_json(&snaps, &mgr.pool_stats(), 1_000_000);
    assert!(json.contains("\"fleet\""));
    assert!(json.contains("\"pool\""));
    assert!(json.contains("\"zones\""));
    assert!(json.contains("\"requests_per_sec\""));
    assert_eq!(json.matches("\"zone\":").count(), 3);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn ci_matrix_engine_leg() {
    // One leg per schedule of `SCHEDULES`: a router fleet pinned to that
    // schedule whose per-zone observables must match a private solo
    // replay — the cross-schedule identity check, with the schedule label
    // in the assertion message so a CI failure names the one that broke.
    const ZONES: usize = 4;
    for pause_budget in SCHEDULES {
        let router = ZoneRouter::new(2, SegmentPool::unbounded());
        let configs: Vec<ZoneConfig> = (0..ZONES as u64)
            .map(|id| {
                let base = if id % 2 == 0 {
                    ZoneConfig::typed()
                } else {
                    ZoneConfig::scheme()
                };
                small_trigger(base).with_pause_budget(pause_budget)
            })
            .collect();
        for (id, cfg) in configs.iter().enumerate() {
            router.create_zone(id as u64, cfg.clone());
        }
        let mut per_zone: Vec<Vec<Request>> = vec![Vec::new(); ZONES];
        for &r in &script(60, 4) {
            let z = session_zone(r.session(), ZONES);
            per_zone[z as usize].push(r);
            router.dispatch_by_session(ZONES, r);
        }
        router.quiesce();
        for snap in router.shutdown() {
            let cfg = &configs[snap.zone as usize];
            let want = solo(snap.zone, cfg, &per_zone[snap.zone as usize]);
            assert_eq!(
                snap.obs,
                want,
                "schedule {}: zone {} fleet observables == solo replay",
                schedule_label(pause_budget),
                snap.zone
            );
        }
    }
}
