//! The event ring against the heap's own accounting. The ring records each
//! pause once, as an `Advance`: its pauses and phase laps must sum to the
//! heap's GC time and phase totals exactly, one per `gc.pause_ns` sample,
//! and the exporters must draw each collection as one span over them.

use guardians_gc::{
    chrome_trace_json, GcConfig, GcEvent, GcPhase, Heap, Promotion, TraceConfig, TracedEvent, Value,
};
use std::time::Duration;

/// A workload that exercises every event source: guardians (with
/// resurrection chains), weak pairs (broken and forwarded), tconc
/// appends, typed objects, multi-generation promotion.
fn churn(heap: &mut Heap, rounds: usize) {
    let g = heap.make_guardian();
    for round in 0..rounds {
        let keep = heap.root_vec();
        for i in 0..200 {
            let p = heap.cons(Value::fixnum(i), Value::NIL);
            if i % 3 == 0 {
                keep.push(p);
            }
            if i % 7 == 0 {
                g.register(heap, p);
            }
            if i % 5 == 0 {
                let w = heap.weak_cons(p, Value::NIL);
                keep.push(w);
            }
        }
        let v = heap.make_vector(40, Value::fixnum(1));
        keep.push(v);
        let s = heap.make_string("parity");
        keep.push(s);
        heap.collect((round % 2) as u8);
        while g.poll(heap).is_some() {}
    }
}

/// A heap with a ring that holds `capacity` events, under `pause_budget`.
fn traced_heap(pause_budget: Option<Duration>, capacity: usize) -> Heap {
    let mut heap = Heap::new(GcConfig {
        generations: 3,
        promotion: Promotion::NextGeneration,
        pause_budget,
        ..GcConfig::default()
    });
    heap.enable_tracing(TraceConfig {
        capacity,
        ..TraceConfig::default()
    });
    heap
}

/// The `Advance` events' fields: `(index, increment, terminal, pause_ns,
/// laps_ns)`.
fn advances(events: &[TracedEvent]) -> Vec<(u64, u32, bool, u64, [u64; 7])> {
    events
        .iter()
        .filter_map(|e| match e.event {
            GcEvent::Advance {
                index,
                increment,
                terminal,
                pause_ns,
                laps_ns,
                ..
            } => Some((index, increment, terminal, pause_ns, laps_ns)),
            _ => None,
        })
        .collect()
}

/// Folding the advances back reproduces the heap's time accounting
/// exactly, stop-the-world and in one-unit increments: pauses sum to
/// `total_gc_time`, laps to each phase total, one advance per
/// `gc.pause_ns` sample, one terminal advance per collection.
#[test]
fn replayed_trace_reproduces_heap_stats_exactly() {
    for budget in [None, Some(Duration::ZERO)] {
        let mut heap = traced_heap(budget, 1 << 20);
        churn(&mut heap, 12);
        assert_eq!(heap.trace_dropped(), 0, "parity needs the full history");
        let adv = advances(&heap.disable_tracing());
        let stats = heap.stats().clone();
        let pauses: u64 = adv.iter().map(|a| a.3).sum();
        assert_eq!(
            Duration::from_nanos(pauses),
            stats.total_gc_time,
            "{budget:?}"
        );
        let t = &stats.total_phase_times;
        let totals = [
            t.flip, t.roots, t.remset, t.sweep, t.guardian, t.weak, t.reclaim,
        ];
        for phase in GcPhase::ALL {
            let laps: u64 = adv.iter().map(|a| a.4[phase as usize]).sum();
            let want = totals[phase as usize];
            assert_eq!(Duration::from_nanos(laps), want, "{budget:?} {phase:?}");
        }
        let samples = heap.metrics().get_histogram("gc.pause_ns").unwrap().count();
        assert_eq!(adv.len() as u64, samples, "{budget:?}");
        let ends: Vec<u64> = adv.iter().filter(|a| a.2).map(|a| a.0).collect();
        assert_eq!(
            ends,
            (1..=stats.collections).collect::<Vec<_>>(),
            "{budget:?}"
        );
        if budget.is_some() {
            assert!(
                adv.len() as u64 > stats.collections,
                "increments were sliced"
            );
        }
    }
}

/// The guardian events are what no counter holds — one round per
/// non-empty fixpoint iteration, one collector-side tconc append per
/// finalized entry — and the weak pass follows the guardian pass: a weak
/// car or weak root to a guarded object is forwarded to the salvaged
/// object, one to garbage breaks.
#[test]
fn guardian_events_match_report_and_weak_refs_see_salvaged_objects() {
    let mut heap = Heap::default();
    heap.enable_tracing(TraceConfig {
        capacity: 1 << 16,
        ..TraceConfig::default()
    });
    let g = heap.make_guardian();
    let keep = heap.root_vec();
    let mut weak_roots = Vec::new();
    for i in 0..50 {
        let p = heap.cons(Value::fixnum(i), Value::NIL);
        g.register(&mut heap, p);
        let w = heap.weak_cons(p, Value::NIL);
        keep.push(w);
        // Ten more weak roots: five to guarded objects, five to garbage.
        if i % 10 == 0 {
            weak_roots.push(heap.roots().weak(p));
            let dead = heap.cons(Value::fixnum(-i), Value::NIL);
            weak_roots.push(heap.roots().weak(dead));
        }
    }
    heap.drain_trace_events();
    heap.collect(0);
    let report = heap.last_report().unwrap().clone();
    let events = heap.drain_trace_events();

    let mut rounds = Vec::new();
    let mut collector_appends = 0u64;
    for e in &events {
        match e.event {
            GcEvent::GuardianRound { round, resurrected } => rounds.push((round, resurrected)),
            GcEvent::TconcAppend {
                during_collection: true,
            } => collector_appends += 1,
            _ => {}
        }
    }
    // One non-empty round, then the empty one that ends the loop.
    assert_eq!(rounds, [(1, 50)]);
    assert_eq!(report.guardian_loop_iterations, 2);
    assert_eq!(collector_appends, report.guardian_entries_finalized);
    // All 50 objects die guarded: every one produces a collector-side
    // tconc append, and — because the weak pass runs after the guardian
    // pass — its weak car is *forwarded* to the salvaged object, never
    // broken.
    assert_eq!(report.guardian_entries_finalized, 50);
    assert_eq!(report.weak_cars_forwarded, 50);
    assert_eq!(report.weak_cars_broken, 0);
    // The weak roots obey the same ordering; only the garbage ones break.
    assert_eq!(report.weak_roots_traced, 10);
    assert_eq!(report.weak_roots_broken, 5);
    assert!(weak_roots.iter().step_by(2).all(|w| w.get().is_pair_ptr()));
    assert!(weak_roots
        .iter()
        .skip(1)
        .step_by(2)
        .all(|w| w.get().is_false()));
}

#[test]
fn metrics_registry_agrees_with_stats_and_replay() {
    let mut heap = Heap::default();
    heap.enable_tracing(TraceConfig {
        capacity: 1 << 20,
        ..TraceConfig::default()
    });
    churn(&mut heap, 6);
    let adv = advances(&heap.disable_tracing());
    let stats = heap.stats().clone();
    let m = heap.metrics();
    assert_eq!(m.counter("gc.collections"), stats.collections);
    assert_eq!(m.counter("gc.words_copied"), stats.total_words_copied);
    assert_eq!(
        m.counter("gc.guardian.visited"),
        stats.total_guardian_entries_visited
    );
    assert_eq!(m.counter("gc.weak.scanned"), stats.total_weak_pairs_scanned);
    assert_eq!(m.counter("alloc.pairs"), stats.pairs_allocated);
    assert_eq!(m.counter("guardian.polls"), stats.guardian_polls);
    let pause = m.get_histogram("gc.pause_ns").unwrap();
    assert_eq!(pause.count(), stats.collections);
    // The histogram holds exactly the advances' pauses.
    assert_eq!(pause.count(), adv.len() as u64);
    assert_eq!(pause.sum(), adv.iter().map(|a| a.3).sum::<u64>());
    assert!(pause.quantile(0.99).unwrap() >= pause.quantile(0.5).unwrap());
    let json = heap.metrics_json();
    assert_eq!(json, heap.metrics_json(), "snapshots are deterministic");
}

/// The Chrome exporter draws a multi-advance collection as one `B`/`E`
/// span with one `advance` slice per advance; a ring too small to hold
/// the collection's first advances still draws no `E` without its `B`.
#[test]
fn a_sliced_collection_exports_as_one_span() {
    let phases = |chrome: &str| -> Vec<char> {
        chrome
            .match_indices("\"ph\":\"")
            .map(|(i, m)| chrome[i + m.len()..].chars().next().unwrap())
            .filter(|&ph| ph == 'B' || ph == 'E')
            .collect()
    };
    for capacity in [1 << 16, 2] {
        let mut heap = traced_heap(Some(Duration::ZERO), capacity);
        let keep = heap.root_vec();
        for i in 0..2_000 {
            let p = heap.cons(Value::fixnum(i), Value::NIL);
            keep.push(p);
        }
        heap.drain_trace_events();
        heap.collect(0);
        let increments = heap.last_report().unwrap().increments;
        assert!(increments > 2, "the collection was sliced: {increments}");
        let events = heap.drain_trace_events();
        let chrome = chrome_trace_json(&events);
        assert_eq!(phases(&chrome), ['B', 'E'], "capacity {capacity}");
        let slices = chrome.matches("\"name\":\"advance\"").count() as u64;
        assert_eq!(slices, advances(&events).len() as u64);
        if capacity > 2 {
            assert_eq!(slices, increments);
        }
    }
}

#[test]
fn alloc_sampling_and_site_attribution() {
    let mut heap = Heap::default();
    heap.enable_site_profile();
    heap.set_alloc_site("test.cons");
    for i in 0..100 {
        let _ = heap.cons(Value::fixnum(i), Value::NIL);
    }
    heap.set_alloc_site("test.vector");
    let _ = heap.make_vector(10, Value::NIL);
    let profile = heap.take_site_profile();
    assert_eq!(profile.len(), 2);
    assert_eq!(profile[0].0, "test.cons", "sorted by words desc");
    assert_eq!(profile[0].1.allocations, 100);
    assert_eq!(profile[0].1.words, 200);
    assert_eq!(profile[1].0, "test.vector");
    assert_eq!(profile[1].1.words, 11);
    assert!(!heap.site_profile_enabled());
}

#[test]
fn disabled_tracing_emits_nothing() {
    let mut heap = Heap::default();
    churn(&mut heap, 2);
    assert!(!heap.tracing_enabled());
    assert!(heap.drain_trace_events().is_empty());
    assert_eq!(heap.trace_dropped(), 0);
    assert_eq!(heap.disable_tracing(), vec![]);
}

#[test]
fn census_at_collection_end_emits_per_generation_events() {
    let mut heap = Heap::default();
    heap.enable_tracing(TraceConfig {
        capacity: 1 << 16,
        census_at_collection_end: true,
    });
    let p = heap.cons(Value::fixnum(1), Value::NIL);
    let _r = heap.root(p);
    heap.collect(0);
    let events = heap.drain_trace_events();
    let census: Vec<_> = events
        .iter()
        .filter_map(|e| match e.event {
            GcEvent::CensusGen {
                generation, pairs, ..
            } => Some((generation, pairs)),
            _ => None,
        })
        .collect();
    assert_eq!(census.len(), 4, "one event per generation");
    assert_eq!(census[1].0, 1);
    assert!(census[1].1 >= 1, "the survivor pair was promoted to gen 1");
}
