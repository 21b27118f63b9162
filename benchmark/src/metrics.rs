//! The metric vocabulary: every name the benchmark prints, with its
//! unit, its direction and — for end-to-end metrics — the share of the
//! baseline's value by which it may worsen before `compare` calls a
//! regression.

use crate::workloads::Workload;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn from_label(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the baseline's value by which the metric may worsen
    /// before `compare` reports a regression: the value the defining
    /// issue fixed, never widened. A metric too noisy for its bound reads
    /// `unresolved` in `compare`, which is the honest verdict.
    pub bound: f64,
    /// The `bound` `BENCHMARK.json` carries when it lists the metric as
    /// end-to-end; `None` when the metric is demoted to that file's
    /// per-layer list. That bound is a different quantity: the file's
    /// driver refuses a benchmark whose interquartile spread over ten
    /// seeds exceeds it, and has no `unresolved` verdict, so it is set from
    /// the defining host's noise — the smallest of 2, 5, 10, 15, 20, 25 %
    /// that is at least three times the widest spread measured on any
    /// workload (README, "Defining run"). A metric that spreads wider than
    /// a third of 25 %, the format's maximum, is demoted, not given more.
    pub driver_bound: Option<f64>,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    driver_bound: Option<f64>,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        driver_bound,
    }
}

/// End-to-end metrics measured on every workload, with tracing off.
///
/// The defining host is a shared 2-vCPU sandbox that flips, for seconds
/// at a time, into a state 1.3–1.7 times slower. Every metric that is a
/// time or a rate spreads by 35–66 % over ten seeds on some workload
/// there, so `BENCHMARK.json` lists those per layer; a ratio of two times
/// from one repetition and a count do not feel the host. `setup_s` is a
/// time, but that file requires it, with its largest bound.
pub const UNIVERSAL: [EndToEnd; 8] = [
    e2e("setup_s", "s", Lower, 0.20, Some(0.25)),
    e2e("ops_per_s", "op/s", Higher, 0.05, None),
    e2e("op_p50_us", "us", Lower, 0.05, None),
    e2e("op_p99_us", "us", Lower, 0.10, None),
    e2e("pause_p50_us", "us", Lower, 0.05, None),
    e2e("pause_p99_us", "us", Lower, 0.10, None),
    e2e("gc_time_share", "ratio", Lower, 0.05, Some(0.25)),
    e2e("peak_heap_mb", "MiB", Lower, 0.02, Some(0.05)),
];

/// End-to-end metrics that exist on some workloads only. `compare`
/// bounds them like the universal ones; `BENCHMARK.json` can only list
/// them per layer, because its end-to-end metrics must exist on every
/// workload.
pub const SPECIFIC: [(EndToEnd, &[Workload]); 4] = [
    (
        e2e("reclaim_lag_p99_ops", "ops", Lower, 0.05, None),
        &[Workload::GuardianPool, Workload::GuardianPoolInc200],
    ),
    (
        e2e("cold_eval_p50_us", "us", Lower, 0.05, None),
        &[Workload::SchemeEval],
    ),
    (
        e2e("open_p99_us", "us", Lower, 0.10, None),
        &[Workload::FleetRequests],
    ),
    (
        e2e("router_ops_per_s", "req/s", Higher, 0.05, None),
        &[Workload::FleetRequests],
    ),
];

/// The bound and direction of an end-to-end metric, by name.
pub fn end_to_end(name: &str) -> Option<EndToEnd> {
    UNIVERSAL
        .iter()
        .chain(SPECIFIC.iter().map(|(m, _)| m))
        .find(|m| m.name == name)
        .copied()
}

/// Per-layer metrics, grouped by layer in pipeline order:
/// `(name, unit, better)`. The end-to-end metrics `BENCHMARK.json` cannot
/// list as such close the list.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // segments: the shared pool under every heap.
    ("segments.pool.acquires", "count", Lower),
    ("segments.pool.releases", "count", Lower),
    ("segments.pool.peak_outstanding", "count", Lower),
    ("segments.pool.cycle_ns", "ns", Lower),
    // gc.heap: allocation, roots, write barrier.
    ("gc.heap.words_allocated", "count", Lower),
    ("gc.heap.pairs_allocated", "count", Lower),
    ("gc.heap.objects_allocated", "count", Lower),
    ("gc.heap.alloc_ns_per_word", "ns", Lower),
    ("gc.heap.root_ns", "ns", Lower),
    ("gc.heap.store_ns", "ns", Lower),
    // gc.collect: the copying collector and its three drivers.
    ("gc.collect.collections", "count", Lower),
    ("gc.collect.words_copied", "count", Lower),
    ("gc.collect.pairs_copied", "count", Lower),
    ("gc.collect.objects_copied", "count", Lower),
    ("gc.collect.pure_words_skipped", "count", Higher),
    ("gc.collect.roots_traced", "count", Lower),
    ("gc.collect.dirty_segments_scanned", "count", Lower),
    ("gc.collect.segments_allocated", "count", Lower),
    ("gc.collect.segments_freed", "count", Higher),
    ("gc.collect.busy_s", "s", Lower),
    ("gc.collect.phase.flip_s", "s", Lower),
    ("gc.collect.phase.roots_s", "s", Lower),
    ("gc.collect.phase.remset_s", "s", Lower),
    ("gc.collect.phase.sweep_s", "s", Lower),
    ("gc.collect.phase.guardian_s", "s", Lower),
    ("gc.collect.phase.finalizer_s", "s", Lower),
    ("gc.collect.phase.weak_s", "s", Lower),
    ("gc.collect.phase.reclaim_s", "s", Lower),
    ("gc.collect.copy_mw_per_s", "Mw/s", Higher),
    ("gc.collect.pause_max_us", "us", Lower),
    ("gc.collect.worker_time_s", "s", Lower),
    ("gc.collect.par_speedup", "ratio", Higher),
    ("gc.collect.increments", "count", Lower),
    ("gc.collect.increment_p99_us", "us", Lower),
    ("gc.collect.terminal_p99_us", "us", Lower),
    // gc.guardian / gc.tconc: the protected-list pass and hand-off.
    ("gc.guardian.registrations", "count", Lower),
    ("gc.guardian.polls", "count", Lower),
    ("gc.guardian.entries_visited", "count", Lower),
    ("gc.guardian.entries_held", "count", Lower),
    ("gc.guardian.entries_finalized", "count", Lower),
    ("gc.guardian.entries_dropped", "count", Lower),
    ("gc.guardian.loop_iterations", "count", Lower),
    ("gc.guardian.visits_per_finalized", "ratio", Lower),
    // gc.weak: the weak-pair pass.
    ("gc.weak.pairs_scanned", "count", Lower),
    ("gc.weak.cars_broken", "count", Lower),
    ("gc.weak.cars_forwarded", "count", Lower),
    // gc-api: typed handles.
    ("gc-api.alloc_ns", "ns", Lower),
    ("gc-api.guard_ns", "ns", Lower),
    ("gc-api.poll_ns", "ns", Lower),
    ("gc-api.downgrade_ns", "ns", Lower),
    ("gc-api.upgrade_ns", "ns", Lower),
    ("gc-api.field_ns", "ns", Lower),
    ("gc-api.root_drop_ns", "ns", Lower),
    ("gc-api.live_roots_peak", "count", Lower),
    // runtime: the simulated OS and external memory.
    ("runtime.simos.open_close_ns", "ns", Lower),
    ("runtime.extmem.malloc_free_ns", "ns", Lower),
    // scheme: lexer, reader, analyze + compile, VM.
    ("scheme.lexer.tokens_per_s", "1/s", Higher),
    ("scheme.reader.forms_per_s", "1/s", Higher),
    ("scheme.frontend.us_per_form", "us", Lower),
    ("scheme.vm.us_per_eval.fib", "us", Lower),
    ("scheme.vm.us_per_eval.churn", "us", Lower),
    ("scheme.vm.us_per_eval.tri", "us", Lower),
    ("scheme.vm.us_per_eval.gchurn", "us", Lower),
    ("scheme.vm.dispatches_per_eval", "count", Lower),
    ("scheme.vm.collections", "count", Lower),
    ("scheme.vm.words_allocated", "count", Lower),
    // zones: zone, manager, router.
    ("zones.zone.open_ns", "ns", Lower),
    ("zones.zone.work_typed_ns", "ns", Lower),
    ("zones.zone.work_scheme_ns", "ns", Lower),
    ("zones.zone.evict_ns", "ns", Lower),
    ("zones.zone.create_typed_ms", "ms", Lower),
    ("zones.zone.create_scheme_ms", "ms", Lower),
    ("zones.manager.quiesce_ms", "ms", Lower),
    ("zones.router.enqueue_ns", "ns", Lower),
    ("zones.router.drain_s", "s", Lower),
    ("zones.open.lateness_p99_us", "us", Lower),
    ("zones.open.backlog_max", "count", Lower),
    ("zones.fleet.collections", "count", Lower),
    ("zones.fleet.words_allocated", "count", Lower),
    ("zones.fleet.reclaimed", "count", Higher),
    ("zones.fleet.worst_pause_p99_us", "us", Lower),
    // The harness itself.
    ("bench.trace_overhead", "ratio", Lower),
    // End-to-end metrics without a `driver_bound` (see UNIVERSAL, SPECIFIC).
    ("ops_per_s", "op/s", Higher),
    ("op_p50_us", "us", Lower),
    ("op_p99_us", "us", Lower),
    ("pause_p50_us", "us", Lower),
    ("pause_p99_us", "us", Lower),
    ("reclaim_lag_p99_ops", "ops", Lower),
    ("cold_eval_p50_us", "us", Lower),
    ("open_p99_us", "us", Lower),
    ("router_ops_per_s", "req/s", Higher),
];

/// Per-layer metrics that are counts of work done by the program, which
/// must repeat exactly on a serial workload given the same seed.
pub fn is_exact_count(name: &str) -> bool {
    let counted_layer = ["gc.heap.", "gc.collect.", "gc.guardian.", "gc.weak."]
        .iter()
        .any(|p| name.starts_with(p));
    let unit_is_count = PER_LAYER
        .iter()
        .any(|(n, unit, _)| *n == name && *unit == "count");
    (counted_layer && unit_is_count)
        || name == "segments.pool.peak_outstanding"
        || name == "reclaim_lag_p99_ops"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_benchmark_file_format() {
        let mut names: Vec<&str> = UNIVERSAL
            .iter()
            .filter(|m| m.driver_bound.is_some())
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128);
        for name in names {
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        for (_, unit, _) in PER_LAYER {
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn end_to_end_metrics_without_a_driver_bound_are_listed_per_layer() {
        let specific = SPECIFIC.iter().map(|(m, on)| {
            assert!(!on.is_empty());
            m
        });
        for m in UNIVERSAL.iter().chain(specific) {
            assert!(m.driver_bound.is_none_or(|b| m.bound <= b && b <= 0.25));
            let per_layer = PER_LAYER
                .iter()
                .any(|(n, u, b)| *n == m.name && *u == m.unit && *b == m.better);
            assert_eq!(per_layer, m.driver_bound.is_none(), "{}", m.name);
        }
        assert!(UNIVERSAL
            .iter()
            .any(|m| m.name == "setup_s" && m.driver_bound.is_some()));
    }

    #[test]
    fn benchmark_json_lists_exactly_this_vocabulary() {
        use crate::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |entry: &Json, key: &str| entry.get(key).unwrap().as_str().unwrap().to_string();
        let listed = |section: &str| -> Vec<(String, String, String)> {
            let entries = doc.get(section).unwrap().as_arr().unwrap();
            let row = |e| (field(e, "name"), field(e, "unit"), field(e, "better"));
            entries.iter().map(row).collect()
        };
        let row =
            |n: &str, u: &str, b: Better| (n.to_string(), u.to_string(), b.label().to_string());
        let contract: Vec<&EndToEnd> = UNIVERSAL
            .iter()
            .filter(|m| m.driver_bound.is_some())
            .collect();
        let ours: Vec<_> = contract
            .iter()
            .map(|m| row(m.name, m.unit, m.better))
            .collect();
        assert_eq!(listed("end_to_end"), ours);
        let bounds = doc.get("end_to_end").unwrap().as_arr().unwrap();
        for (entry, m) in bounds.iter().zip(&contract) {
            assert_eq!(
                entry.get("bound").unwrap().as_f64(),
                m.driver_bound,
                "{}",
                m.name
            );
        }
        let ours: Vec<_> = PER_LAYER.iter().map(|&(n, u, b)| row(n, u, b)).collect();
        assert_eq!(listed("per_layer"), ours);
        let workloads: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn exact_counts_are_the_work_counters_not_the_timings() {
        assert!(is_exact_count("gc.collect.words_copied"));
        assert!(is_exact_count("gc.guardian.entries_finalized"));
        assert!(is_exact_count("segments.pool.peak_outstanding"));
        assert!(!is_exact_count("gc.collect.busy_s"));
        assert!(!is_exact_count("gc.collect.copy_mw_per_s"));
        assert!(!is_exact_count("gc-api.alloc_ns"));
    }
}
