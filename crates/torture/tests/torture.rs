//! The bounded torture campaign wired into `cargo test` (the open-ended
//! soak lives in `crates/bench/src/bin/torture.rs`).
//!
//! Environment knobs for longer local runs:
//!   TORTURE_SEEDS  extra random-base seeds in the smoke test (default 4)
//!   TORTURE_OPS    ops per smoke trace                       (default 600)

use guardians_torture::{fault_sweep, generate, run_trace, Trace};

fn env_num(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn must_pass(trace: &Trace, what: &str) {
    if let Err(f) = run_trace(trace) {
        panic!("{what}: {f}\n{}", guardians_torture::explain(trace, &f));
    }
}

/// Fixed seeds, every promotion policy (seed mod 4, the rotation in
/// `config_for_seed`), plus a few seeds from an arbitrary
/// time-derived base so every CI run explores fresh territory. Any
/// failure prints the seed — which reproduces it deterministically — and
/// the shrunk minimal trace.
#[test]
fn fixed_and_random_seeds_agree_with_the_oracle() {
    let ops = env_num("TORTURE_OPS", 600) as usize;
    let mut collections = 0;
    for seed in 0..12u64 {
        let trace = generate(seed, ops);
        must_pass(&trace, "fixed seed");
        collections += run_trace(&trace).expect("just passed").collections;
    }
    assert!(
        collections > 50,
        "fixed seeds barely collected: {collections}"
    );

    let base = env_num(
        "TORTURE_SEED_BASE",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_secs(),
    );
    let extra = env_num("TORTURE_SEEDS", 4);
    for seed in base..base + extra {
        println!("random seed {seed} ({ops} ops)");
        must_pass(&generate(seed, ops), "random seed");
    }
}

/// The acquisition fault at *every* offset of a few short traces: each
/// faulted run must either refuse ops cleanly (heap verify-valid, then
/// recover) or complete — and must reach the same final state as the
/// fault-free run, since the rig re-applies the refused op after lifting
/// the fault.
#[test]
fn exhaustive_fault_offset_sweep_is_clean() {
    for seed in 0..3u64 {
        let (runs, fired) =
            fault_sweep(seed, 80).unwrap_or_else(|f| panic!("fault sweep diverged: {f}"));
        assert!(runs > 10, "sweep of seed {seed} too small: {runs} runs");
        assert!(fired > 0, "sweep of seed {seed} never fired the fault");
    }
}

/// The bounded-pause budget matrix: every seed replays stop-the-world,
/// coarsely sliced (2 ms), and at the finest possible slicing (0 µs =
/// one work unit per increment) with zero oracle divergences — and the
/// deterministic observables, including finalized guardian entries and
/// FIFO poll order (checked by the oracle) and weak-car outcomes, are
/// identical across budgets. This is the incremental engine's
/// guardian-atomicity acceptance check: however finely the copy/scan
/// work is sliced, the §4 three-block pass and the weak break run
/// unsliced in the terminal increment, so observables cannot move.
#[test]
fn pause_budget_matrix_agrees_with_the_oracle() {
    let seeds = env_num("TORTURE_BUDGET_SEEDS", 12);
    let ops = env_num("TORTURE_BUDGET_OPS", 300) as usize;
    let mut runs = 0;
    for seed in 0..seeds {
        let mut baseline = None;
        for budget_us in [None, Some(2_000u64), Some(0)] {
            let stats = match budget_us {
                None => guardians_torture::check_seed(seed, ops),
                Some(us) => guardians_torture::check_seed_budget(seed, ops, us),
            }
            .unwrap_or_else(|f| panic!("seed {seed}, budget {budget_us:?}: {f}"));
            runs += 1;
            let key = (
                stats.applied,
                stats.collections,
                stats.finalized,
                stats.polled,
                stats.live_nodes,
            );
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(
                    *b, key,
                    "seed {seed}: budget {budget_us:?} changed the deterministic observables"
                ),
            }
        }
    }
    assert!(runs >= 36, "budget campaign too small: {runs} runs");
}

/// The typed-API matrix: generated traces (which interleave typed-layer
/// ops — `tnode`/`troot`/`tregister`/`tpoll`/`tweak`/`tupgrade` — with
/// the raw ops) replay stop-the-world and under a 100 µs pause budget
/// with zero oracle divergences, and the deterministic observables are
/// identical across the two schedules. This is the typed front-end's
/// schedule-agnosticism acceptance check:
/// every typed accessor funnels through the same resolve/barrier paths
/// the oracle already pins.
#[test]
fn typed_api_matrix_agrees_with_the_oracle() {
    use guardians_torture::Op;
    let seeds = env_num("TORTURE_TYPED_SEEDS", 10);
    let ops = env_num("TORTURE_TYPED_OPS", 400) as usize;
    // A fresh seed window when CI provides one (nightly soak); any
    // window works — every generated trace mixes typed ops in.
    let base = env_num("TORTURE_SEED_BASE", 0);
    let mut runs = 0;
    let mut typed_traces = 0;
    for seed in base..base + seeds {
        let trace = generate(seed, ops);
        if trace.ops.iter().any(|o| {
            matches!(
                o,
                Op::AllocTyped { .. } | Op::PollTyped { .. } | Op::UpgradeTypedWeak { .. }
            )
        }) {
            typed_traces += 1;
        }
        let mut baseline = None;
        for budget_us in [None, Some(100u64)] {
            let mut t = trace.clone();
            t.config.pause_budget = budget_us;
            let stats = run_trace(&t)
                .unwrap_or_else(|f| panic!("typed matrix seed {seed}, budget {budget_us:?}: {f}"));
            runs += 1;
            let key = (
                stats.applied,
                stats.collections,
                stats.finalized,
                stats.polled,
                stats.live_nodes,
            );
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(
                    *b, key,
                    "seed {seed}: budget {budget_us:?} moved observables"
                ),
            }
        }
    }
    assert!(runs >= 20, "typed matrix too small: {runs} runs");
    assert!(
        typed_traces == seeds,
        "typed ops missing from some traces ({typed_traces}/{seeds})"
    );
}

/// The promotion-strategy matrix: every seed replays under all four
/// promotion policies — `next`, `cap1`, `cap2`, `same` — on each of the
/// two schedules (stop-the-world, 100 µs budget) with zero oracle
/// divergences, and the deterministic observables are identical across
/// schedules within each policy. A trace's policy is its config line's,
/// fixed for the whole run.
#[test]
fn promotion_strategy_matrix_agrees_with_the_oracle() {
    use guardians_gc::Promotion;
    let seeds = env_num("TORTURE_PROMO_SEEDS", 5);
    let ops = env_num("TORTURE_PROMO_OPS", 300) as usize;
    let mut runs = 0;
    for seed in 0..seeds {
        let trace = generate(seed, ops);
        for promotion in [
            Promotion::NextGeneration,
            Promotion::Capped(1),
            Promotion::Capped(2),
            Promotion::SameGeneration,
        ] {
            let mut baseline = None;
            for budget_us in [None, Some(100u64)] {
                let mut t = trace.clone();
                t.config.promotion = promotion;
                t.config.pause_budget = budget_us;
                let stats = run_trace(&t).unwrap_or_else(|f| {
                    panic!("promotion matrix seed {seed}, {promotion:?}, budget {budget_us:?}: {f}")
                });
                runs += 1;
                let key = (
                    stats.applied,
                    stats.collections,
                    stats.finalized,
                    stats.polled,
                    stats.live_nodes,
                );
                match &baseline {
                    None => baseline = Some(key),
                    Some(b) => assert_eq!(
                        *b, key,
                        "seed {seed}, {promotion:?}: budget {budget_us:?} moved observables"
                    ),
                }
            }
        }
    }
    assert!(runs >= 40, "promotion matrix too small: {runs} runs");
}

/// A handwritten typed trace replayed from its text form, pinning the §4
/// ordering through the typed surface: a typed node is guarded and
/// weakly watched, dies, is salvaged by the guardian pass, and the typed
/// weak still upgrades (weaks break *after* the guardian pass) — then
/// `tpoll` resurrects it through a typed root.
#[test]
fn typed_trace_replays_from_text_and_pins_weak_ordering() {
    let text = "\
# guardians torture trace v3
config 4 next -
tnode 0 null null
troot 0
tnode 1 n0 null
guardian 0
tregister 0 1
tweak 0 1
collect 0
tupgrade 0
tpoll 0
tupgrade 0
collect 0
tupgrade 0
";
    let trace = Trace::parse(text).expect("parses");
    let stats = run_trace(&trace).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(stats.polled, 1, "the salvaged typed node is delivered once");
    assert_eq!(stats.finalized, 1);
    assert!(stats.checks > 0);
}

/// The scheme-differential engine matrix: every seed's guardian-heavy
/// Scheme workload replays under the VM and the naive oracle on the
/// stop-the-world and bounded-pause (100 µs) schedules — observables
/// byte-identical everywhere.
#[test]
fn scheme_vm_matches_the_oracle_on_every_engine() {
    use guardians_torture::{run_scheme_differential, TortureConfig};
    let seeds = env_num("TORTURE_SCHEME_SEEDS", 3);
    let forms = env_num("TORTURE_SCHEME_FORMS", 60) as usize;
    let mut runs = 0;
    let mut collections = 0;
    for seed in 0..seeds {
        for budget_us in [None, Some(100u64)] {
            let cfg = TortureConfig {
                pause_budget: budget_us,
                ..guardians_torture::config_for_seed(seed)
            };
            let stats = run_scheme_differential(seed, forms, &cfg)
                .unwrap_or_else(|f| panic!("seed {seed}, budget {budget_us:?}: {f}"));
            collections += stats.counters.collections;
            runs += 1;
        }
    }
    assert!(runs >= 6, "scheme matrix too small: {runs} runs");
    assert!(collections > 0, "scheme matrix never collected");
}

/// The event-traced rig under the finest budget: per-collection event
/// parity (phase sums, counter fields, tconc-append attribution) holds
/// with the collection sliced into many increments.
#[test]
fn traced_budget_runs_agree_event_for_event() {
    for seed in 0..4u64 {
        let mut trace = generate(seed, 300);
        trace.config.pause_budget = Some(0);
        let (stats, _events) = guardians_torture::run_trace_traced(&trace)
            .unwrap_or_else(|f| panic!("traced budget seed {seed}: {f}"));
        assert!(stats.collections > 0, "seed {seed} never collected");
    }
}

/// The acquisition fault swept across incremental runs: mid-cycle
/// preflights must refuse cleanly (`GcError::Exhausted`, heap
/// verify-valid, resumable) — never a tripwire panic from an increment
/// crossing the limit, which would mean the worst-case reservation is
/// unsound mid-collection.
#[test]
fn incremental_fault_injection_stays_clean() {
    for seed in 0..2u64 {
        let mut trace = generate(seed, 80);
        trace.config.pause_budget = Some(0);
        let base = run_trace(&trace)
            .unwrap_or_else(|f| panic!("fault-free incremental run of seed {seed}: {f}"));
        let mut fired = 0;
        for offset in (0..=base.acquisitions).step_by(3) {
            let mut t = trace.clone();
            t.config.fail_acquisition_at = Some(offset);
            let stats =
                run_trace(&t).unwrap_or_else(|f| panic!("seed {seed}, fault@{offset}: {f}"));
            fired += stats.faults_hit;
        }
        assert!(fired > 0, "seed {seed} never fired the fault");
    }
}

fn regression_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("regressions")
}

fn load_trace(name: &str) -> Trace {
    let path = regression_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Trace::parse(&text).unwrap_or_else(|e| panic!("parsing {name}: {e}"))
}

/// Every committed regression trace replays green, and its `config` line
/// is still what `Display` writes.
#[test]
fn regression_corpus_replays_clean() {
    let mut found = 0;
    for entry in std::fs::read_dir(regression_dir()).expect("regressions dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "trace") {
            found += 1;
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&path).expect("readable trace");
            let trace = Trace::parse(&text).unwrap_or_else(|e| panic!("parsing {name}: {e}"));
            let config = trace.config.to_string();
            assert!(text.lines().any(|l| l == config), "{name}: {config}");
            must_pass(&trace, &name);
        }
    }
    assert!(
        found >= 5,
        "regression corpus went missing ({found} traces)"
    );
}

/// The guardian-chain trace's specific observables, beyond "replays
/// clean": round-2 salvage order and agent survival are pinned by the
/// oracle itself, so here we only need the trace to stay parseable and
/// meaningful after future op-language changes.
#[test]
fn guardian_chain_trace_exercises_the_fixpoint() {
    let t = load_trace("guardian-chain.trace");
    let stats = run_trace(&t).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(stats.collections, 2);
    assert!(stats.finalized >= 2, "fixpoint salvages tconc and object");
    assert_eq!(stats.polled, 2, "both polls deliver");
}

/// The traced rig: every collection's GC events are cross-checked against
/// the shadow oracle and the collection report, across a spread of seeds
/// covering the promotion rotation.
#[test]
fn traced_seeds_agree_event_for_event() {
    for seed in 0..6u64 {
        let trace = generate(seed, 400);
        let (stats, events) = guardians_torture::run_trace_traced(&trace)
            .unwrap_or_else(|f| panic!("traced seed {seed}: {f}"));
        assert!(stats.collections > 0, "seed {seed} never collected");
        assert!(
            events.len() as u64 > stats.collections,
            "seed {seed}: trace suspiciously sparse ({} events)",
            events.len()
        );
    }
}

/// The heap under test holds only what the trace allocated: the rig's
/// trackers are weak root slots, not weak pairs, so a trace with no weak
/// pair op and no vector (the one node kind that carries a weak pair)
/// leaves no weak pair in any generation, as every collection's
/// end-of-collection census reads in the traced leg.
#[test]
fn the_rig_allocates_no_weak_pair_of_its_own() {
    use guardians_gc::GcEvent;
    use guardians_torture::Op;
    for seed in 0..4u64 {
        let mut trace = generate(seed, 400);
        trace.ops.retain(|op| {
            !matches!(
                op,
                Op::AllocVector { .. }
                    | Op::SetWeak { .. }
                    | Op::AllocWeakPair { .. }
                    | Op::SetWeakPair { .. }
                    | Op::DropWeakPair { .. }
            )
        });
        let (stats, events) = guardians_torture::run_trace_traced(&trace)
            .unwrap_or_else(|f| panic!("seed {seed} without weak pairs: {f}"));
        let weak_pairs: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.event {
                GcEvent::CensusGen { weak_pairs, .. } => Some(weak_pairs),
                _ => None,
            })
            .collect();
        assert!(stats.collections > 0, "seed {seed} never collected");
        assert_eq!(
            weak_pairs.len() as u64,
            stats.collections * u64::from(trace.config.generations),
            "seed {seed}: one census event per generation per collection"
        );
        assert!(
            weak_pairs.iter().all(|&w| w == 0),
            "seed {seed}: the census found weak pairs the trace never made: {weak_pairs:?}"
        );
    }
}
