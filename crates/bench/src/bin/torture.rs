//! Open-ended torture soak: `cargo run --release --bin torture -- [args]`.
//!
//! Runs seed after seed through the model-based rig (see the
//! `guardians-torture` crate), printing a progress line per batch and a
//! summary at the end. On the first divergence it shrinks the trace to a
//! locally minimal regression and prints it ready to commit.
//!
//! Arguments (all optional, any order):
//!   --seeds N        number of seeds to run            (default 200)
//!   --start N        first seed                        (default 0)
//!   --ops N          ops per trace                     (default 10000)
//!   --pause-budget N run the soak traces in increments with an
//!                    N-microsecond budget (0 = one work unit per
//!                    increment, the finest slicing; omit the flag for
//!                    stop-the-world). Applies to the soak, traced and
//!                    scheme legs, not the fault sweep
//!   --fault-sweep N  additionally run an exhaustive acquisition-fault
//!                    sweep on the first N seeds with short traces
//!                    (default 0 = none)
//!   --sweep-ops N    ops per fault-sweep trace         (default 150)
//!   --traced N       re-run the first N seeds with the GC event trace
//!                    enabled and cross-checked against the shadow model
//!                    after every collection      (default 0 = none)
//!   --scheme-seeds N additionally run N seeds of the scheme-differential
//!                    leg: the seed's guardian-heavy Scheme workload under
//!                    the bytecode VM vs the naive oracle, on the seed's
//!                    rotated heap config (plus the --pause-budget
//!                    override)                        (default 0 = none)
//!   --scheme-forms N top-level forms per scheme workload  (default 200)
//!   --zone-soak N    additionally run N seeds of the multi-zone soak:
//!                    a randomized create/dispatch/evict/teardown schedule
//!                    over a shared-pool zone fleet, every teardown
//!                    private-replay oracle-checked; on divergence the
//!                    schedule is ddmin-shrunk and written ready to
//!                    commit                               (default 0 = none)
//!   --zone-ops N     ops per zone-soak schedule           (default 400)
//!   --zones N        max zones per zone-soak schedule     (default 6)
//!   --fail-out PATH  on divergence, also write the shrunken regression
//!                    trace to PATH (CI uploads it as an artifact)

use std::time::Instant;

fn main() {
    let mut seeds: u64 = 200;
    let mut start: u64 = 0;
    let mut ops: usize = 10_000;
    let mut pause_budget: Option<u64> = None;
    let mut sweep_seeds: u64 = 0;
    let mut sweep_ops: usize = 150;
    let mut traced_seeds: u64 = 0;
    let mut scheme_seeds: u64 = 0;
    let mut scheme_forms: usize = 200;
    let mut zone_seeds: u64 = 0;
    let mut zone_ops: usize = 400;
    let mut max_zones: usize = 6;
    let mut fail_out: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let val = |i: usize| -> u64 {
            args.get(i + 1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("{} needs a numeric argument", args[i]))
        };
        match args[i].as_str() {
            "--seeds" => seeds = val(i),
            "--start" => start = val(i),
            "--ops" => ops = val(i) as usize,
            "--pause-budget" => pause_budget = Some(val(i)),
            "--fault-sweep" => sweep_seeds = val(i),
            "--sweep-ops" => sweep_ops = val(i) as usize,
            "--traced" => traced_seeds = val(i),
            "--scheme-seeds" => scheme_seeds = val(i),
            "--scheme-forms" => scheme_forms = val(i) as usize,
            "--zone-soak" => zone_seeds = val(i),
            "--zone-ops" => zone_ops = val(i) as usize,
            "--zones" => max_zones = (val(i) as usize).max(1),
            "--fail-out" => {
                fail_out = Some(
                    args.get(i + 1)
                        .unwrap_or_else(|| panic!("--fail-out needs a path argument"))
                        .clone(),
                );
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 2;
    }

    println!(
        "torture soak: {seeds} seeds from {start}, {ops} ops each{}",
        match pause_budget {
            Some(us) => format!(", {us} us pause budget (incremental schedule)"),
            None => String::new(),
        }
    );
    let t0 = Instant::now();
    let mut total_collections = 0u64;
    let mut total_checks = 0u64;
    let mut total_finalized = 0u64;
    let mut total_polled = 0u64;
    for seed in start..start + seeds {
        let mut trace = guardians_torture::generate(seed, ops);
        trace.config.pause_budget = pause_budget;
        match guardians_torture::run_trace(&trace) {
            Ok(stats) => {
                total_collections += stats.collections;
                total_checks += stats.checks;
                total_finalized += stats.finalized;
                total_polled += stats.polled;
                if (seed - start + 1).is_multiple_of(25) {
                    let done = (seed - start + 1) as f64;
                    println!(
                        "  {done:>5} seeds, {:.1} seeds/s, {total_collections} collections, \
                         {total_checks} checks, {total_finalized} finalized, {total_polled} polled",
                        done / t0.elapsed().as_secs_f64()
                    );
                }
            }
            Err(failure) => {
                eprintln!("{failure}");
                let report = guardians_torture::explain(&trace, &failure);
                eprintln!("{report}");
                write_failure(fail_out.as_deref(), &format!("{failure}\n{report}\n"));
                std::process::exit(1);
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    println!(
        "PASS: {seeds} seeds x {ops} ops in {elapsed:.1}s ({:.2} seeds/s), \
         {total_collections} collections, {total_checks} oracle checks, \
         {total_finalized} finalized, {total_polled} polled",
        seeds as f64 / elapsed
    );

    if sweep_seeds > 0 {
        println!("fault sweep: {sweep_seeds} seeds, {sweep_ops} ops, every acquisition offset");
        let t1 = Instant::now();
        let mut runs = 0u64;
        let mut fired = 0u64;
        for seed in start..start + sweep_seeds {
            match guardians_torture::fault_sweep(seed, sweep_ops) {
                Ok((r, f)) => {
                    runs += r;
                    fired += f;
                }
                Err(failure) => {
                    eprintln!("{failure}");
                    eprintln!("(failure arose during the fault sweep of seed {seed})");
                    write_failure(
                        fail_out.as_deref(),
                        &format!("{failure}\n(during the fault sweep of seed {seed})\n"),
                    );
                    std::process::exit(1);
                }
            }
        }
        println!(
            "PASS: fault sweep, {runs} faulted runs, {fired} faults fired, {:.1}s",
            t1.elapsed().as_secs_f64()
        );
    }

    if traced_seeds > 0 {
        println!("traced soak: {traced_seeds} seeds, {ops} ops, event-vs-model cross-check");
        let t2 = Instant::now();
        let mut events = 0usize;
        let mut checks = 0u64;
        for seed in start..start + traced_seeds {
            let mut trace = guardians_torture::generate(seed, ops);
            trace.config.pause_budget = pause_budget;
            match guardians_torture::run_trace_traced(&trace) {
                Ok((stats, evs)) => {
                    events += evs.len();
                    checks += stats.checks;
                }
                Err(failure) => {
                    eprintln!("{failure}");
                    let report = guardians_torture::explain(&trace, &failure);
                    eprintln!("{report}");
                    write_failure(fail_out.as_deref(), &format!("{failure}\n{report}\n"));
                    std::process::exit(1);
                }
            }
        }
        println!(
            "PASS: traced soak, {events} events, {checks} oracle checks, {:.1}s",
            t2.elapsed().as_secs_f64()
        );
    }

    if scheme_seeds > 0 {
        println!(
            "scheme differential: {scheme_seeds} seeds x ~{scheme_forms} forms, \
             VM vs the naive oracle"
        );
        let t3 = Instant::now();
        let mut forms = 0usize;
        let mut collections = 0u64;
        let mut polled = 0u64;
        for seed in start..start + scheme_seeds {
            let mut cfg = guardians_torture::config_for_seed(seed);
            cfg.pause_budget = pause_budget;
            match guardians_torture::run_scheme_differential(seed, scheme_forms, &cfg) {
                Ok(stats) => {
                    forms += stats.forms;
                    collections += stats.counters.collections;
                    polled += stats.counters.guardian_polls;
                }
                Err(failure) => {
                    eprintln!("{failure}");
                    write_failure(fail_out.as_deref(), &format!("{failure}\n"));
                    std::process::exit(1);
                }
            }
        }
        println!(
            "PASS: scheme differential, {forms} forms, {collections} collections, \
             {polled} polls, {:.1}s",
            t3.elapsed().as_secs_f64()
        );
    }

    if zone_seeds > 0 {
        println!(
            "zone soak: {zone_seeds} seeds x {zone_ops} ops, up to {max_zones} zones \
             on a shared pool, private-replay oracle at every teardown"
        );
        let t4 = Instant::now();
        let mut soak_ops = 0u64;
        let mut zones_checked = 0u64;
        let mut requests = 0u64;
        let mut reclaimed = 0u64;
        for seed in start..start + zone_seeds {
            let schedule = guardians_zones::soak::generate(seed, zone_ops, max_zones);
            match guardians_zones::soak::run_schedule(&schedule) {
                Ok(stats) => {
                    soak_ops += stats.ops;
                    zones_checked += stats.zones_checked;
                    requests += stats.requests;
                    reclaimed += stats.reclaimed;
                }
                Err(failure) => {
                    eprintln!("{failure}");
                    // Shrink the schedule to a locally minimal failing op
                    // subsequence (skipped ops on dead zones keep every
                    // subsequence a valid schedule), then print it ready
                    // to commit as a regression.
                    let minimal = guardians_torture::ddmin(&schedule.ops, |ops| {
                        guardians_zones::soak::run_schedule(&guardians_zones::soak::SoakSchedule {
                            seed,
                            ops: ops.to_vec(),
                        })
                        .is_err()
                    });
                    let shrunk = guardians_zones::soak::SoakSchedule { seed, ops: minimal };
                    let text = shrunk.to_text();
                    eprintln!(
                        "shrunken schedule ({} of {} ops):\n{text}",
                        shrunk.ops.len(),
                        schedule.ops.len()
                    );
                    write_failure(fail_out.as_deref(), &format!("{failure}\n{text}"));
                    std::process::exit(1);
                }
            }
        }
        println!(
            "PASS: zone soak, {soak_ops} ops, {zones_checked} zones oracle-checked, \
             {requests} requests, {reclaimed} reclaimed, {:.1}s",
            t4.elapsed().as_secs_f64()
        );
    }
}

/// Writes the failure report where CI can pick it up as an artifact.
fn write_failure(path: Option<&str>, report: &str) {
    if let Some(path) = path {
        match std::fs::write(path, report) {
            Ok(()) => eprintln!("(wrote failing trace to {path})"),
            Err(e) => eprintln!("(could not write {path}: {e})"),
        }
    }
}
