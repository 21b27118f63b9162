//! GC profiler: runs an experiment workload or a torture trace with the
//! event trace enabled and exports everything the observability layer
//! produces — a Chrome `trace_event` document (load in
//! `chrome://tracing` or Perfetto: one span per collection, one slice per
//! advance with its phases inside), a JSONL event stream (one line per
//! advance, plus guardian rounds, tconc appends, segment traffic, census
//! and application markers), a metrics snapshot, and a live-heap census —
//! plus a terminal report with pause percentiles. The counts are the
//! metrics snapshot's and the torture run's own; no event restates them.
//!
//! ```text
//! gcprof --scenario e11 --quick --out-dir gcprof-out
//! gcprof --scenario e18 --quick --out-dir gcprof-out
//! gcprof --scenario e19 --quick --out-dir gcprof-out
//! gcprof --scenario e21 --quick --out-dir gcprof-out
//! gcprof --scenario torture --seed 7 --ops 2000 --out-dir gcprof-out
//! ```
//!
//! `e18` runs the same lifetime workload as `e11` under the bounded-pause
//! incremental engine (100 us budget), so the two profiles diff directly:
//! one whole-collection pause sample becomes many per-increment samples.

use guardians_gc::{
    chrome_trace_json, events_jsonl, GcConfig, GcEvent, Heap, Promotion, TraceConfig, TracedEvent,
};
use guardians_scheme::Interp;
use guardians_workloads::{run_lifetime_workload, LifetimeParams};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let scenario = get("--scenario").unwrap_or_else(|| {
        eprintln!(
            "usage: gcprof --scenario <e11|e18|e19|e21|torture> [--quick] [--seed N] \
             [--ops N] [--out-dir DIR]"
        );
        std::process::exit(2);
    });
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = get("--seed").map_or(7, |s| s.parse().expect("--seed: u64"));
    let ops: usize = get("--ops").map_or(2_000, |s| s.parse().expect("--ops: usize"));
    let out_dir = get("--out-dir").unwrap_or_else(|| "gcprof-out".to_string());
    std::fs::create_dir_all(&out_dir).expect("create --out-dir");

    match scenario.as_str() {
        "e11" => profile_e11(quick, &out_dir),
        "e18" => profile_e18(quick, &out_dir),
        "e19" => profile_e19(quick, &out_dir),
        "e21" => profile_e21(quick, &out_dir),
        "torture" => profile_torture(seed, ops, &out_dir),
        other => {
            eprintln!(
                "error: unknown scenario {other:?} (expected e11, e18, e19, e21, or torture)"
            );
            std::process::exit(2);
        }
    }
}

/// Tracing configuration for profiling runs: census at every collection
/// end, a ring large enough that nothing is dropped on the sizes profiled
/// here. Allocation attribution is the exact site profile, not the trace.
fn profile_trace_config() -> TraceConfig {
    TraceConfig {
        capacity: 1 << 20,
        census_at_collection_end: true,
    }
}

fn write_exports(out_dir: &str, stem: &str, events: &[TracedEvent]) {
    let chrome = Path::new(out_dir).join(format!("{stem}.trace.json"));
    let jsonl = Path::new(out_dir).join(format!("{stem}.events.jsonl"));
    std::fs::write(&chrome, chrome_trace_json(events)).expect("write chrome trace");
    std::fs::write(&jsonl, events_jsonl(events)).expect("write jsonl");
    println!(
        "wrote {} ({} events) and {}",
        chrome.display(),
        events.len(),
        jsonl.display()
    );
}

fn print_pause_report(heap: &mut Heap) {
    let m = heap.metrics();
    println!("collections: {}", m.counter("gc.collections"));
    if let Some(h) = m.get_histogram("gc.pause_ns") {
        let q = |p: f64| h.quantile(p).unwrap_or(0) / 1_000;
        println!(
            "pause (us): p50 {}  p95 {}  p99 {}  max {}",
            q(0.50),
            q(0.95),
            q(0.99),
            h.max().unwrap_or(0) / 1_000
        );
    }
    println!(
        "guardian: visited {}  finalized {}  queue depth {}",
        m.counter("gc.guardian.visited"),
        m.counter("gc.guardian.finalized"),
        m.gauge("guardian.queue_depth")
    );
}

fn profile_e11(quick: bool, out_dir: &str) {
    // The paper-policy configuration from E11's table (4 generations,
    // next-generation promotion, 4^i collection schedule).
    let config = GcConfig {
        generations: 4,
        promotion: Promotion::NextGeneration,
        trigger_bytes: 128 * 1024,
        frequency: (0..4).map(|i| 4u64.pow(i)).collect(),
        ..GcConfig::new()
    };
    let mut heap = Heap::new(config);
    heap.enable_tracing(profile_trace_config());
    let params = LifetimeParams {
        allocations: if quick { 30_000 } else { 300_000 },
        ..LifetimeParams::default()
    };
    let stats = run_lifetime_workload(&mut heap, &params);
    heap.verify().expect("heap valid after workload");
    let events = heap.drain_trace_events();
    assert_eq!(heap.trace_dropped(), 0, "profiling ring sized to not drop");

    println!("== gcprof e11 (lifetime workload, paper policy) ==");
    println!(
        "workload: {} allocations, {} collections, {} words copied",
        params.allocations, stats.collections, stats.words_copied
    );
    print_pause_report(&mut heap);
    let census = heap.census();
    println!(
        "census: {} live objects, {} live words across {} generations",
        census.total_objects(),
        census.total_words(),
        census.generations.len()
    );
    std::fs::write(
        Path::new(out_dir).join("e11.metrics.json"),
        heap.metrics_json(),
    )
    .expect("write metrics");
    std::fs::write(Path::new(out_dir).join("e11.census.json"), census.to_json())
        .expect("write census");
    write_exports(out_dir, "e11", &events);
}

fn profile_e18(quick: bool, out_dir: &str) {
    // The E18 configuration: the paper policy with a 4x trigger and a
    // larger survivor window so stop-the-world pauses would exceed the
    // budget, run under the bounded-pause engine slicing each collection
    // into 100 us increments interleaved with the mutator.
    let config = GcConfig {
        generations: 4,
        promotion: Promotion::NextGeneration,
        trigger_bytes: 512 * 1024,
        frequency: (0..4).map(|i| 4u64.pow(i)).collect(),
        pause_budget: Some(std::time::Duration::from_micros(100)),
        ..GcConfig::new()
    };
    let mut heap = Heap::new(config);
    heap.enable_tracing(profile_trace_config());
    let params = LifetimeParams {
        allocations: if quick { 100_000 } else { 400_000 },
        window: 2048,
        list_len: 8,
        ..LifetimeParams::default()
    };
    let stats = run_lifetime_workload(&mut heap, &params);
    while heap.incremental_in_progress() {
        heap.gc_step();
    }
    heap.verify().expect("heap valid after workload");
    let events = heap.drain_trace_events();
    assert_eq!(heap.trace_dropped(), 0, "profiling ring sized to not drop");

    println!("== gcprof e18 (lifetime workload, 100 us pause budget) ==");
    println!(
        "workload: {} allocations, {} collections in {} increments, {} words copied",
        params.allocations,
        stats.collections,
        heap.metrics().counter("gc.increments"),
        stats.words_copied
    );
    print_pause_report(&mut heap);
    std::fs::write(
        Path::new(out_dir).join("e18.metrics.json"),
        heap.metrics_json(),
    )
    .expect("write metrics");
    write_exports(out_dir, "e18", &events);
}

/// The two allocation-heavy Scheme programs `--scenario e19` profiles:
/// `(name, definitions, driver expression, quick iterations)`.
const E19_PROGRAMS: [(&str, &str, &str, usize); 2] = [
    (
        "list churn (allocation + HOFs)",
        "(define (iota n) \
           (let lp ((i 0) (acc '())) \
             (if (= i n) (reverse acc) (lp (+ i 1) (cons i acc))))) \
         (define (filter p l) \
           (cond ((null? l) '()) \
                 ((p (car l)) (cons (car l) (filter p (cdr l)))) \
                 (else (filter p (cdr l))))) \
         (define (churn n) \
           (length (map (lambda (x) (* x x)) \
                        (filter odd? (iota n)))))",
        "(churn 250)",
        20,
    ),
    (
        "guardian churn (collects at safe points)",
        "(define (gchurn n) \
           (let ((g (make-guardian))) \
             (let lp ((i 0)) \
               (unless (= i n) (g (cons i i)) (lp (+ i 1)))) \
             (collect 3) \
             (let drain ((k 0)) \
               (if (g) (drain (+ k 1)) k))))",
        "(gchurn 500)",
        6,
    ),
];

fn profile_e19(quick: bool, out_dir: &str) {
    // Two allocation-heavy programs run under the bytecode VM with
    // tracing and site profiling on, which also arms the per-opcode
    // dispatch counters: the profile shows where the words come from
    // *and* where the dispatch loop spends its instructions.
    let scale = if quick { 1 } else { 4 };
    let mut it = Interp::new();
    it.heap_mut().enable_tracing(profile_trace_config());
    it.heap_mut().enable_site_profile();
    for (name, setup, driver, quick_iters) in E19_PROGRAMS {
        let iters = quick_iters * scale;
        it.eval_str(setup).expect("setup evaluates");
        for _ in 0..iters {
            it.eval_to_string(driver).expect("driver evaluates");
        }
        println!("ran {name} x{iters}");
    }
    let events = it.heap_mut().drain_trace_events();
    let sites = it.heap_mut().take_site_profile();

    println!("== gcprof e19 (bytecode VM, site attribution + dispatch mix) ==");
    println!("allocation sites by words (top 10):");
    for (site, s) in sites.iter().take(10) {
        println!(
            "  {:>10} words  {:>8} allocs  {site}",
            s.words, s.allocations
        );
    }
    let mut dispatches: Vec<(&str, u64)> = it
        .heap_mut()
        .metrics()
        .counters()
        .filter(|(k, _)| k.starts_with("vm.dispatch."))
        .collect();
    dispatches.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let total: u64 = dispatches.iter().map(|&(_, n)| n).sum();
    println!("dispatch counters ({total} insns, top 10):");
    for (key, n) in dispatches.iter().take(10) {
        println!("  {n:>10}  {key}");
    }
    print_pause_report(it.heap_mut());
    std::fs::write(
        Path::new(out_dir).join("e19.metrics.json"),
        it.heap_mut().metrics_json(),
    )
    .expect("write metrics");
    write_exports(out_dir, "e19", &events);
}

fn profile_e21(quick: bool, out_dir: &str) {
    use guardians_zones::{session_zone, Request, ZoneConfig, ZoneManager, SCHEDULES};

    // E21's fleet shape — 8 zones alternating typed/Scheme over one shared
    // segment pool, schedules cycling through the zone matrix — but driven
    // single-threaded through the manager so every zone's heap stays
    // reachable for tracing. Each zone gets its own trace ring, census,
    // and metrics snapshot; the fleet rollup lands in e21.fleet.json.
    const ZONES: usize = 8;
    let mut mgr = ZoneManager::new();
    for id in 0..ZONES as u64 {
        let base = if id % 2 == 0 {
            ZoneConfig::typed()
        } else {
            ZoneConfig::scheme()
        };
        let cfg = base
            .with_pause_budget(SCHEDULES[(id / 2) as usize % SCHEDULES.len()])
            .with_trigger_bytes(1 << 16);
        mgr.create_zone(id, &cfg)
            .enable_tracing(profile_trace_config());
    }
    let sessions: u64 = if quick { 400 } else { 1_500 };
    let rounds: u32 = if quick { 2 } else { 4 };
    let start = std::time::Instant::now();
    for s in 0..sessions {
        mgr.dispatch(session_zone(s, ZONES), Request::Open { session: s });
    }
    for round in 0..rounds {
        for s in 0..sessions {
            mgr.dispatch(
                session_zone(s, ZONES),
                Request::Work {
                    session: s,
                    amount: 1 + (s as u32 + round) % 5,
                },
            );
        }
    }
    for s in (0..sessions).step_by(2) {
        mgr.dispatch(session_zone(s, ZONES), Request::Evict { session: s });
    }
    mgr.quiesce();
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    println!("== gcprof e21 (multi-tenant zone fleet, shared segment pool) ==");
    let pool_stats = mgr.pool_stats();
    let mut snaps = Vec::new();
    for id in mgr.zone_ids() {
        let zone = mgr.zone_mut(id).expect("zone exists");
        zone.verify().expect("zone heap valid after workload");
        let events = zone.drain_trace_events();
        assert_eq!(
            zone.heap().trace_dropped(),
            0,
            "profiling ring sized to not drop"
        );
        let snap = zone.snapshot();
        println!(
            "zone {id} [{}/{}]: {} requests, {} collections, {} reclaimed, pause p99 {} us",
            snap.engine,
            snap.workload,
            snap.obs.requests,
            snap.obs.collections,
            snap.obs.reclaimed_sessions,
            snap.pause_p99_ns / 1_000
        );
        let census = zone.heap().census();
        std::fs::write(
            Path::new(out_dir).join(format!("e21.zone{id}.census.json")),
            census.to_json(),
        )
        .expect("write zone census");
        std::fs::write(
            Path::new(out_dir).join(format!("e21.zone{id}.metrics.json")),
            zone.heap_mut().metrics_json(),
        )
        .expect("write zone metrics");
        write_exports(out_dir, &format!("e21.zone{id}"), &events);
        snaps.push(snap);
    }
    let fleet = guardians_zones::fleet_stats_json(&snaps, &pool_stats, elapsed_ns);
    let fleet_path = Path::new(out_dir).join("e21.fleet.json");
    std::fs::write(&fleet_path, &fleet).expect("write fleet stats");
    let agg = guardians_zones::FleetStats::aggregate(&snaps);
    println!(
        "fleet: {} zones, {} sessions, {} requests, {} reclaimed, worst zone p99 {} us",
        agg.zones,
        agg.sessions_opened,
        agg.requests,
        agg.reclaimed_sessions,
        agg.worst_pause_p99_ns / 1_000
    );
    println!("wrote {}", fleet_path.display());
}

fn profile_torture(seed: u64, ops: usize, out_dir: &str) {
    let (stats, events) = guardians_torture::check_seed_traced(seed, ops)
        .unwrap_or_else(|f| panic!("torture seed diverged: {f}"));
    println!("== gcprof torture (seed {seed}, {ops} ops) ==");
    println!(
        "run: {} collections, {} oracle checks, {} finalized, {} polled",
        stats.collections, stats.checks, stats.finalized, stats.polled
    );
    let app_markers = events
        .iter()
        .filter(|e| matches!(e.event, GcEvent::App { .. }))
        .count();
    if app_markers > 0 {
        println!("app markers interleaved: {app_markers}");
    }
    write_exports(out_dir, &format!("torture-{seed}"), &events);
}
