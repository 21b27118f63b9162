//! Mid-run policy reconfiguration property tests.
//!
//! An embedder may retune `trigger_bytes`, `promotion`, and the
//! `frequency` ladder on a live heap through the `Heap::set_*` setters,
//! always between collections. These tests pin down what makes that
//! safe:
//!
//! 1. Policy fields are pure collection-time parameters: changes applied
//!    *before the first collection* leave every observable identical to
//!    a fresh heap constructed with the final configuration and replayed.
//! 2. Changes applied *mid-run* (between collections) keep the two
//!    schedules — stop-the-world, incremental pause-budget — in exact
//!    agreement on counters, guardian deliveries (content and
//!    order), weak-pointer observables, and survivor placement.
//! 3. A suspended incremental collection rejects policy changes: the
//!    setters panic rather than let a collection see two configurations.

use guardians_gc::{GcConfig, Heap, Promotion, Rooted, Value};
use proptest::prelude::*;
use std::time::Duration;

#[derive(Clone, Debug)]
enum Step {
    /// Allocate an id-tagged pair and root it; optionally guard it and
    /// watch it through a weak pair.
    Alloc { guarded: bool, weak: bool },
    /// Drop one root (modular index, `swap_remove` for determinism).
    DropRoot { idx: usize },
    /// Explicit full-stop collection of generations `0..=gen % gens`.
    Collect { gen: u8 },
    /// Policy change: set the allocation trigger.
    SetTrigger { bytes: usize },
    /// Policy change: set the promotion strategy (0 = next, 1 = cap 1,
    /// 2 = cap 2, 3 = same-generation).
    SetPromotion { p: u8 },
    /// Policy change: swap in one of the canned frequency ladders.
    SetFrequency { ladder: u8 },
}

fn is_policy(s: &Step) -> bool {
    matches!(
        s,
        Step::SetTrigger { .. } | Step::SetPromotion { .. } | Step::SetFrequency { .. }
    )
}

fn promotion_of(p: u8) -> Promotion {
    match p % 4 {
        0 => Promotion::NextGeneration,
        1 => Promotion::Capped(1),
        2 => Promotion::Capped(2),
        _ => Promotion::SameGeneration,
    }
}

fn ladder_of(l: u8) -> Vec<u64> {
    match l % 3 {
        0 => vec![1, 4, 16, 64],
        1 => vec![1, 8, 32, 128],
        _ => vec![1, 2], // short: generations beyond it use the 4x rule
    }
}

fn apply_policy(heap: &mut Heap, step: &Step) {
    match step {
        Step::SetTrigger { bytes } => heap.set_trigger_bytes(*bytes),
        Step::SetPromotion { p } => heap.set_promotion(promotion_of(*p)),
        Step::SetFrequency { ladder } => heap.set_frequency(ladder_of(*ladder)),
        _ => unreachable!("not a policy step"),
    }
}

fn folded_config(mut cfg: GcConfig, steps: &[Step]) -> GcConfig {
    for s in steps {
        match s {
            Step::SetTrigger { bytes } => cfg.trigger_bytes = *bytes,
            Step::SetPromotion { p } => cfg.promotion = promotion_of(*p),
            Step::SetFrequency { ladder } => cfg.frequency = ladder_of(*ladder),
            _ => {}
        }
    }
    cfg
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (any::<bool>(), any::<bool>())
            .prop_map(|(guarded, weak)| Step::Alloc { guarded, weak }),
        3 => any::<usize>().prop_map(|idx| Step::DropRoot { idx }),
        3 => (0u8..4).prop_map(|gen| Step::Collect { gen }),
        1 => (0usize..4).prop_map(|t| Step::SetTrigger {
            bytes: [16, 64, 256, 1024][t] * 4096
        }),
        1 => (0u8..4).prop_map(|p| Step::SetPromotion { p }),
        1 => (0u8..3).prop_map(|l| Step::SetFrequency { ladder: l }),
    ]
}

/// Everything we compare: deterministic counters, guardian deliveries in
/// poll order, weak observables, and survivor placement.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    collections: u64,
    words_copied: u64,
    guardian_visited: u64,
    guardian_finalized: u64,
    guardian_held: u64,
    guardian_dropped: u64,
    weak_broken: u64,
    weak_forwarded: u64,
    polled: Vec<i64>,
    weak_cars: Vec<Option<i64>>,
    live_generations: Vec<(i64, u8)>,
}

/// Runs `steps` on `heap`. Policy steps are applied through the runtime
/// setters when `apply_policy_steps` is set and silently skipped
/// otherwise (the caller pre-folded them into the config).
fn run_program(mut heap: Heap, steps: &[Step], apply_policy_steps: bool) -> Outcome {
    let g = heap.make_guardian();
    let mut roots: Vec<Rooted> = Vec::new();
    let weak_watch = heap.root_vec();
    let mut next_id = 0i64;
    for step in steps {
        match step {
            Step::Alloc { guarded, weak } => {
                let node = heap.cons(Value::fixnum(next_id), Value::NIL);
                next_id += 1;
                let r = heap.root(node);
                if *guarded {
                    g.register(&mut heap, node);
                }
                if *weak {
                    let wp = heap.weak_cons(node, Value::NIL);
                    weak_watch.push(wp);
                }
                roots.push(r);
            }
            Step::DropRoot { idx } => {
                if !roots.is_empty() {
                    let i = idx % roots.len();
                    roots.swap_remove(i);
                }
            }
            Step::Collect { gen } => {
                let gen = gen % heap.config().generations;
                heap.collect(gen);
            }
            policy => {
                if apply_policy_steps {
                    apply_policy(&mut heap, policy);
                }
            }
        }
    }
    // One settling full collection so late drops are observable.
    heap.collect(heap.config().max_generation());
    heap.verify().expect("heap valid at program end");
    let mut polled = Vec::new();
    while let Some(v) = g.poll(&mut heap) {
        polled.push(heap.car(v).as_fixnum());
    }
    let weak_cars = (0..weak_watch.len())
        .map(|i| {
            let car = heap.car(weak_watch.get(i));
            car.is_ptr().then(|| heap.car(car).as_fixnum())
        })
        .collect();
    let live_generations = roots
        .iter()
        .map(|r| {
            let v = r.get();
            (
                heap.car(v).as_fixnum(),
                heap.generation_of(v).expect("rooted node is a pointer"),
            )
        })
        .collect();
    let (collections, words_copied) = (heap.collection_count(), heap.stats().total_words_copied);
    // Cumulative guardian/weak counters live in the metrics registry
    // (folded in per collection by `finish_collection`).
    let m = heap.metrics_mut();
    Outcome {
        collections,
        words_copied,
        guardian_visited: m.counter("gc.guardian.visited"),
        guardian_finalized: m.counter("gc.guardian.finalized"),
        guardian_held: m.counter("gc.guardian.held"),
        guardian_dropped: m.counter("gc.guardian.dropped"),
        weak_broken: m.counter("gc.weak.broken"),
        weak_forwarded: m.counter("gc.weak.forwarded"),
        polled,
        weak_cars,
        live_generations,
    }
}

/// The two schedules: 0 is stop-the-world, 1 a 100 µs pause budget.
fn engine_config(engine: usize) -> GcConfig {
    let mut cfg = GcConfig::new();
    if engine == 1 {
        cfg.pause_budget = Some(Duration::from_micros(100));
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Changes applied before the first collection are indistinguishable
    /// from having constructed the heap with the final configuration:
    /// policy fields are pure collection-time parameters.
    #[test]
    fn policy_changes_before_first_collection_replay_as_fresh_config(
        steps in proptest::collection::vec(step_strategy(), 1..60),
        engine in 0usize..2,
    ) {
        let policy: Vec<Step> =
            steps.iter().filter(|s| is_policy(s)).cloned().collect();
        let program: Vec<Step> =
            steps.iter().filter(|s| !is_policy(s)).cloned().collect();
        let base = engine_config(engine);
        let mut live = Heap::new(base.clone());
        for p in &policy {
            apply_policy(&mut live, p);
        }
        let changed = run_program(live, &program, false);
        let fresh = run_program(Heap::new(folded_config(base, &policy)), &program, false);
        prop_assert_eq!(changed, fresh);
    }

    /// Mid-run changes (always between collections — the only place the
    /// setters allow them) keep both schedules in exact agreement on
    /// every observable, including guardian delivery order and survivor
    /// placement.
    #[test]
    fn mid_run_policy_changes_agree_across_engines(
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        let serial = run_program(Heap::new(engine_config(0)), &steps, true);
        let incremental = run_program(Heap::new(engine_config(1)), &steps, true);
        prop_assert_eq!(&serial, &incremental);
    }
}

#[test]
#[should_panic(expected = "between collections")]
fn suspended_incremental_collection_rejects_policy_changes() {
    let mut cfg = GcConfig::new();
    cfg.pause_budget = Some(Duration::from_micros(100));
    let mut heap = Heap::new(cfg);
    let keep = heap.cons(Value::fixnum(1), Value::NIL);
    let _root = heap.root(keep);
    heap.begin_incremental(0);
    assert!(heap.incremental_in_progress());
    heap.set_promotion(Promotion::Capped(1)); // must panic
}
