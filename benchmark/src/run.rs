//! Running workloads and turning repetitions into named metrics.
//!
//! The untraced pass gives every end-to-end number. The traced pass
//! alternates untraced reference repetitions with traced ones: the
//! traced ones give the per-layer numbers, and the ratio of the two
//! throughputs is the tracing overhead.

use crate::host::available_parallelism;
use crate::json::Json;
use crate::metrics::{self, Better, EndToEnd};
use crate::stats::{median, percentile, rep_percentile, RepPercentile};
use crate::trace::{Tracer, FULL_SPAN_OPS};
use crate::workloads::{probe_pool_cycle_ns, Rep, RepParams, Workload};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans per op the trace buffer reserves room for.
const SPANS_PER_OP_HINT: usize = 16;
/// Untraced repetitions of a pass that is not bounded by time.
const REPS: usize = 5;
/// Traced repetitions (each paired with an untraced reference one) of a
/// pass that is not bounded by time.
const TRACED_REPS: usize = 2;
/// Share of a measured repetition's ops the process warm-up runs.
const WARM_UP_SCALE: f64 = 0.25;
/// Where result and trace files go, relative to the repository root.
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// Repeat until the pass has run for this long (set-up, extra passes
    /// and oracles included) instead of a fixed number of repetitions.
    pub seconds: Option<f64>,
}

impl Options {
    /// Whether a pass that started at `start` and has made `reps`
    /// repetitions (`fixed` when not bounded by time) is done. A
    /// time-bounded pass ends at the repetition boundary nearest to the
    /// bound, so that it lasts the bound on average, not half a
    /// repetition more.
    fn done(&self, start: Instant, reps: usize, fixed: usize) -> bool {
        match self.seconds {
            Some(s) => {
                let elapsed = start.elapsed().as_secs_f64();
                reps > 0 && elapsed + 0.5 * elapsed / reps as f64 >= s
            }
            None => reps >= fixed,
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// The per-repetition values `value` is the median of; empty when
    /// the repetitions' samples were pooled instead.
    pub per_rep: Vec<f64>,
    /// Samples behind each per-repetition value (or the pooled total);
    /// for whole-repetition metrics, the number of repetitions.
    pub samples: usize,
    pub pooled: bool,
    /// Measured on a host with too few cores for the number to mean
    /// anything; `compare` skips it.
    pub unmeasured: bool,
}

/// One pass over one workload.
#[derive(Clone, Debug)]
pub struct Summary {
    pub workload: Workload,
    pub reps: usize,
    pub ops_per_rep: u64,
    pub attempted: u64,
    pub failed: u64,
    pub stream_hash: u64,
    pub metrics: Vec<Metric>,
}

impl Summary {
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

fn params(opts: &Options) -> RepParams {
    RepParams {
        seed: opts.seed,
        scale: 1.0,
    }
}

/// The process-level warm-up: a quarter-size repetition, discarded from
/// the timings but not from the failure count.
fn warm_up(w: Workload, opts: &Options) -> Rep {
    let p = RepParams {
        scale: WARM_UP_SCALE,
        ..params(opts)
    };
    w.run_rep(&p, &mut Tracer::off())
}

fn whole_rep(name: &'static str, unit: &'static str, better: Better, per_rep: Vec<f64>) -> Metric {
    Metric {
        name,
        unit,
        better,
        value: median(&per_rep),
        samples: per_rep.len(),
        per_rep,
        pooled: false,
        unmeasured: false,
    }
}

/// A percentile over the repetitions' samples, scaled by `1/divisor`.
fn from_samples(
    name: &'static str,
    unit: &'static str,
    mut sets: Vec<Vec<u32>>,
    q: f64,
    divisor: f64,
) -> Metric {
    let (per_rep, pooled, samples) = match rep_percentile(&mut sets, q) {
        RepPercentile::PerRep { values, samples } => (values, None, samples),
        RepPercentile::Pooled { value, samples } => (Vec::new(), Some(value), samples),
    };
    let per_rep: Vec<f64> = per_rep.into_iter().map(|v| v / divisor).collect();
    Metric {
        name,
        unit,
        better: Better::Lower,
        value: pooled.map_or_else(|| median(&per_rep), |v| v / divisor),
        per_rep,
        samples,
        pooled: pooled.is_some(),
        unmeasured: false,
    }
}

fn take_samples(reps: &mut [Rep], key: &str) -> Vec<Vec<u32>> {
    reps.iter_mut()
        .filter_map(|r| r.samples.remove(key))
        .collect()
}

/// The workload-specific end-to-end metrics `reps` can support.
fn specific_metrics(w: Workload, reps: &mut [Rep]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (m, on) in metrics::SPECIFIC {
        if !on.contains(&w) {
            continue;
        }
        let metric = match m.name {
            "reclaim_lag_p99_ops" => from_samples(
                m.name,
                m.unit,
                take_samples(reps, "reclaim_lag_ops"),
                0.99,
                1.0,
            ),
            "cold_eval_p50_us" => from_samples(
                m.name,
                m.unit,
                take_samples(reps, "cold_eval_ns"),
                0.50,
                1e3,
            ),
            "open_p99_us" => from_samples(m.name, m.unit, take_samples(reps, "open_ns"), 0.99, 1e3),
            name => whole_rep(
                m.name,
                m.unit,
                m.better,
                reps.iter()
                    .filter_map(|r| r.values.get(name).copied())
                    .collect(),
            ),
        };
        if metric.samples > 0 {
            out.push(metric);
        }
    }
    out
}

fn end_to_end_metrics(w: Workload, reps: &mut [Rep]) -> Vec<Metric> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let spec = |name: &str| -> EndToEnd { metrics::end_to_end(name).expect("known metric") };
    let whole = |name: &'static str, values: Vec<f64>| {
        let m = spec(name);
        whole_rep(m.name, m.unit, m.better, values)
    };
    let mut out = vec![
        whole("setup_s", per_rep(&|r| r.setup_s)),
        whole("ops_per_s", per_rep(&|r| r.ops as f64 / r.wall_s)),
        whole("gc_time_share", per_rep(&|r| r.gc_s / r.wall_s)),
        whole("peak_heap_mb", per_rep(&Rep::peak_heap_mb)),
    ];
    let ops: Vec<Vec<u32>> = reps
        .iter_mut()
        .map(|r| std::mem::take(&mut r.op_ns))
        .collect();
    let pauses: Vec<Vec<u32>> = reps
        .iter_mut()
        .map(|r| std::mem::take(&mut r.pause_ns))
        .collect();
    out.push(from_samples("op_p50_us", "us", ops.clone(), 0.50, 1e3));
    out.push(from_samples("op_p99_us", "us", ops, 0.99, 1e3));
    out.push(from_samples(
        "pause_p50_us",
        "us",
        pauses.clone(),
        0.50,
        1e3,
    ));
    out.push(from_samples("pause_p99_us", "us", pauses, 0.99, 1e3));
    out.extend(specific_metrics(w, reps));

    // Report in the vocabulary's order.
    let order = |m: &Metric| {
        metrics::UNIVERSAL
            .iter()
            .map(|u| u.name)
            .chain(metrics::SPECIFIC.iter().map(|(s, _)| s.name))
            .position(|n| n == m.name)
    };
    out.sort_by_key(order);
    let one_core = available_parallelism() < 2;
    for m in &mut out {
        // The parallel collector and the 2-worker router need 2 cores.
        m.unmeasured =
            one_core && (w == Workload::ResidentCachePar2 || m.name == "router_ops_per_s");
    }
    out
}

fn totals(reps: &[Rep], warm: &Rep) -> (u64, u64) {
    let all = reps.iter().chain(std::iter::once(warm));
    all.fold((0, 0), |(attempted, failed), r| {
        (attempted + r.ops + r.extra_attempted, failed + r.failed)
    })
}

/// The untraced pass: every end-to-end metric of `w`.
pub fn untraced(w: Workload, opts: &Options) -> Summary {
    let warm = warm_up(w, opts);
    let pass_start = Instant::now();
    let mut reps = Vec::new();
    while !opts.done(pass_start, reps.len(), REPS) {
        reps.push(w.run_rep(&params(opts), &mut Tracer::off()));
    }
    let (attempted, failed) = totals(&reps, &warm);
    Summary {
        workload: w,
        reps: reps.len(),
        ops_per_rep: reps[0].ops,
        attempted,
        failed,
        stream_hash: reps[0].stream_hash,
        metrics: end_to_end_metrics(w, &mut reps),
    }
}

fn write_trace(tr: &Tracer, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    tr.write_jsonl(&mut out)?;
    out.flush()
}

/// The traced pass: every per-layer metric of `w`, and the trace file.
pub fn traced(w: Workload, opts: &Options) -> Summary {
    let warm = warm_up(w, opts);
    let pass_start = Instant::now();
    let p = params(opts);
    let mut reference = Vec::new();
    let mut traced = Vec::new();
    let mut serial_busy = Vec::new();
    let mut self_check = (0, 0);
    while !opts.done(pass_start, traced.len(), TRACED_REPS) {
        reference.push(w.run_rep(&p, &mut Tracer::off()));
        // Only the first traced repetition keeps individual spans.
        let full_ops = if traced.is_empty() { FULL_SPAN_OPS } else { 0 };
        let mut tr = Tracer::on(full_ops, SPANS_PER_OP_HINT);
        traced.push(w.run_rep(&p, &mut tr));
        if traced.len() == 1 {
            self_check = tr.self_sum_and_op_total();
            let path = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", w.name()));
            match write_trace(&tr, &path) {
                Ok(()) => eprintln!("trace written to {}", path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
        if w == Workload::ResidentCachePar2 {
            // The serial twin on the same stream, for the speed-up.
            let serial = Workload::ResidentCache.run_rep(&p, &mut Tracer::off());
            serial_busy.push(serial.values["gc.collect.busy_s"]);
        }
    }

    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in &traced {
        for (&name, &v) in &rep.values {
            values.entry(name).or_default().push(v);
        }
    }
    let rate = |reps: &[Rep]| {
        let per_rep: Vec<f64> = reps.iter().map(|r| r.ops as f64 / r.wall_s).collect();
        median(&per_rep)
    };
    values.insert(
        "bench.trace_overhead",
        vec![1.0 - rate(&traced) / rate(&reference)],
    );
    values.insert("segments.pool.cycle_ns", vec![probe_pool_cycle_ns()]);
    if !serial_busy.is_empty() {
        let par_busy = median(&values["gc.collect.busy_s"]);
        values.insert(
            "gc.collect.par_speedup",
            vec![median(&serial_busy) / par_busy],
        );
    }
    for (name, key) in [
        ("gc.collect.increment_p99_us", "increment_ns"),
        ("gc.collect.terminal_p99_us", "terminal_ns"),
    ] {
        let per_rep: Vec<f64> = traced
            .iter_mut()
            .filter_map(|r| r.samples.remove(key))
            .filter_map(|mut s| percentile(&mut s, 0.99))
            .map(|ns| f64::from(ns) / 1e3)
            .collect();
        if !per_rep.is_empty() {
            values.insert(name, per_rep);
        }
    }
    // End-to-end numbers listed per layer come from the untraced
    // reference repetitions, like every end-to-end number.
    let (ref_attempted, ref_failed) = totals(&reference, &Rep::default());
    let end_to_end = end_to_end_metrics(w, &mut reference);

    let metrics = metrics::PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            if let Some(m) = end_to_end.iter().find(|m| m.name == name) {
                return m.clone();
            }
            whole_rep(name, unit, better, values.remove(name).unwrap_or_default())
        })
        .collect();
    let (attempted, failed) = totals(&traced, &warm);
    let (self_sum, op_total) = self_check;
    eprintln!(
        "trace check: span self times sum to {self_sum} ns, ops total {op_total} ns (ratio {:.6})",
        self_sum as f64 / op_total.max(1) as f64
    );
    Summary {
        workload: w,
        reps: traced.len(),
        ops_per_rep: traced[0].ops,
        attempted: attempted + ref_attempted,
        failed: failed + ref_failed,
        stream_hash: traced[0].stream_hash,
        metrics,
    }
}

/// Human-readable table of one pass.
pub fn print_summary(title: &str, s: &Summary, out: &mut impl Write) -> std::io::Result<()> {
    writeln!(
        out,
        "{} — {title}: {} reps x {} ops, failed_ops = {} of ops_attempted = {}",
        s.workload.name(),
        s.reps,
        s.ops_per_rep,
        s.failed,
        s.attempted
    )?;
    for m in &s.metrics {
        if m.samples == 0 {
            continue;
        }
        let note = match (m.pooled, m.unmeasured) {
            (_, true) => " unmeasured: needs 2 cores",
            (true, _) => " pooled over reps",
            _ => "",
        };
        writeln!(
            out,
            "  {:<36} {:>16} {:<6} n={}{note}",
            m.name,
            format_value(m.value),
            m.unit,
            m.samples
        )?;
    }
    Ok(())
}

fn format_value(v: f64) -> String {
    if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

fn metric_json(m: &Metric) -> Json {
    let mut pairs = vec![
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.label())),
    ];
    if let Some(e) = metrics::end_to_end(m.name) {
        pairs.push(("bound", Json::Num(e.bound)));
    }
    pairs.extend([
        ("value", Json::Num(m.value)),
        ("per_rep", Json::nums(&m.per_rep)),
        ("samples", Json::Num(m.samples as f64)),
        ("pooled", Json::Bool(m.pooled)),
    ]);
    if m.unmeasured {
        pairs.push(("unmeasured", Json::Bool(true)));
    }
    Json::obj(pairs)
}

/// One workload's entry in a result file.
pub fn summary_json(e2e: Option<&Summary>, layers: Option<&Summary>) -> Json {
    let any = e2e.or(layers).expect("at least one pass ran");
    let section = |s: Option<&Summary>| {
        Json::obj(
            s.into_iter()
                .flat_map(|s| &s.metrics)
                .filter(|m| m.samples > 0)
                .map(|m| (m.name, metric_json(m))),
        )
    };
    let count = |f: fn(&Summary) -> u64| e2e.map_or(0, f) + layers.map_or(0, f);
    Json::obj([
        ("ops_per_rep", Json::from(any.ops_per_rep)),
        ("reps", Json::from(e2e.map_or(0, |s| s.reps as u64))),
        (
            "traced_reps",
            Json::from(layers.map_or(0, |s| s.reps as u64)),
        ),
        ("ops_attempted", Json::from(count(|s| s.attempted))),
        ("failed_ops", Json::from(count(|s| s.failed))),
        (
            "stream_hash",
            Json::str(format!("{:016x}", any.stream_hash)),
        ),
        ("end_to_end", section(e2e)),
        ("per_layer", section(layers)),
    ])
}

/// The one-line result object that closes every pass, in the form
/// `BENCHMARK.json`'s driver reads: the end-to-end metrics that file
/// lists for an untraced pass, every per-layer metric it lists for a
/// traced one (0 where the workload has no such metric).
pub fn result_line(s: &Summary, traced: bool) -> String {
    let names: Vec<(&str, &str)> = if traced {
        metrics::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        let listed = metrics::UNIVERSAL
            .iter()
            .filter(|m| m.driver_bound.is_some());
        listed.map(|m| (m.name, m.unit)).collect()
    };
    let metrics = Json::obj(names.into_iter().map(|(name, unit)| {
        let value = s.get(name).map_or(0.0, |m| m.value);
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }));
    Json::obj([
        ("correct", Json::Bool(s.failed == 0)),
        ("attempted", Json::from(s.attempted.max(1))),
        ("failed", Json::from(s.failed)),
        ("metrics", metrics),
    ])
    .render()
}
