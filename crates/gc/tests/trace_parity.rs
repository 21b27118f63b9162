//! Event-vs-counter parity: the trace is only trustworthy if replaying it
//! reproduces the heap's own accounting exactly, and the metrics registry
//! must agree with both.

use guardians_gc::{
    replay_stats, GcConfig, GcEvent, Heap, HeapStats, Promotion, TraceConfig, Value,
};

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

/// Copies the mutator-side fields (not derivable from a sampled trace)
/// onto a replayed stats value so whole-struct equality checks only the
/// replay-derived collector-side fields.
fn with_mutator_fields(mut replayed: HeapStats, actual: &HeapStats) -> HeapStats {
    replayed.pairs_allocated = actual.pairs_allocated;
    replayed.objects_allocated = actual.objects_allocated;
    replayed.words_allocated = actual.words_allocated;
    replayed.guardian_registrations = actual.guardian_registrations;
    replayed.guardian_polls = actual.guardian_polls;
    replayed
}

#[test]
fn replayed_trace_reproduces_heap_stats_exactly() {
    let mut heap = Heap::new(GcConfig {
        generations: 3,
        promotion: Promotion::NextGeneration,
        ..GcConfig::default()
    });
    heap.enable_tracing(TraceConfig {
        capacity: 1 << 20,
        ..TraceConfig::default()
    });
    churn(&mut heap, 12);
    assert_eq!(heap.trace_dropped(), 0, "parity needs the full history");
    let events = heap.disable_tracing();
    assert!(!events.is_empty());
    let replayed = with_mutator_fields(replay_stats(&events), heap.stats());
    assert_eq!(&replayed, heap.stats());
}

#[test]
fn per_generation_copy_events_sum_to_words_copied() {
    let mut heap = Heap::default();
    heap.enable_tracing(TraceConfig {
        capacity: 1 << 20,
        ..TraceConfig::default()
    });
    churn(&mut heap, 8);
    let events = heap.disable_tracing();
    let gen_copied: u64 = events
        .iter()
        .filter_map(|e| match e.event {
            GcEvent::GenCopied { words, .. } => Some(words),
            _ => None,
        })
        .sum();
    assert!(gen_copied > 0);
    assert_eq!(gen_copied, heap.stats().total_words_copied);
}

#[test]
fn guardian_and_weak_events_match_report_counters() {
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

    let mut partition_visited = 0;
    let mut outcome = None;
    let mut weak = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut collector_appends = 0u64;
    for e in &events {
        match e.event {
            GcEvent::GuardianPartition { visited, .. } => partition_visited += visited,
            GcEvent::GuardianOutcome {
                finalized,
                held,
                dropped,
                loop_iterations,
            } => outcome = Some((finalized, held, dropped, loop_iterations)),
            GcEvent::WeakSweep {
                scanned,
                broken,
                forwarded,
                roots_traced,
                roots_broken,
            } => {
                weak.0 += scanned;
                weak.1 += broken;
                weak.2 += forwarded;
                weak.3 += roots_traced;
                weak.4 += roots_broken;
            }
            GcEvent::TconcAppend {
                during_collection: true,
            } => collector_appends += 1,
            _ => {}
        }
    }
    assert_eq!(partition_visited, report.guardian_entries_visited);
    assert_eq!(
        outcome,
        Some((
            report.guardian_entries_finalized,
            report.guardian_entries_held,
            report.guardian_entries_dropped,
            report.guardian_loop_iterations,
        ))
    );
    assert_eq!(weak.0, report.weak_pairs_scanned);
    assert_eq!(weak.1, report.weak_cars_broken);
    assert_eq!(weak.2, report.weak_cars_forwarded);
    assert_eq!(weak.3, report.weak_roots_traced);
    assert_eq!(weak.4, report.weak_roots_broken);
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
    let events = heap.disable_tracing();
    let replayed = replay_stats(&events);
    let stats = heap.stats().clone();
    let m = heap.metrics();
    assert_eq!(m.counter("gc.collections"), stats.collections);
    assert_eq!(m.counter("gc.collections"), replayed.collections);
    assert_eq!(m.counter("gc.words_copied"), stats.total_words_copied);
    assert_eq!(m.counter("gc.words_copied"), replayed.total_words_copied);
    assert_eq!(
        m.counter("gc.guardian.visited"),
        stats.total_guardian_entries_visited
    );
    assert_eq!(m.counter("gc.weak.scanned"), stats.total_weak_pairs_scanned);
    assert_eq!(m.counter("alloc.pairs"), stats.pairs_allocated);
    assert_eq!(m.counter("guardian.polls"), stats.guardian_polls);
    let pause = m.get_histogram("gc.pause_ns").unwrap();
    assert_eq!(pause.count(), stats.collections);
    assert!(pause.quantile(0.99).unwrap() >= pause.quantile(0.5).unwrap());
    let json = heap.metrics_json();
    assert_eq!(json, heap.metrics_json(), "snapshots are deterministic");
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
