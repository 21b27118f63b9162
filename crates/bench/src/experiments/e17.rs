//! **E17 — Parallel copy/scan scaling.**
//!
//! With `GcConfig::workers > 1` the collector's sweeps and its
//! remembered-set scan run on N worker threads with work-stealing scan
//! units, per-worker to-space regions, and CAS-installed forwarding
//! (roots and the guardian, finalizer and weak passes stay on the calling
//! thread). This experiment measures the copy throughput against the
//! 1-worker run on identical live sets: each scenario builds the same object graph under
//! every worker count and then runs repeated full collections, so the
//! deterministic work (words copied per round) is *equal* across columns
//! and only the wall time differs.
//!
//! Scaling is bounded by the host: with fewer hardware threads than
//! workers the workers time-slice the cores and the figure says nothing
//! about the engine, so such a column (and the speedup derived from it)
//! prints `unmeasured`; the collections still run, because the equality
//! of words/round across worker counts is asserted on every host. The
//! table's note records the host parallelism. `configuration` and
//! `Kwords/round` are the exact columns; every throughput is printed,
//! never compared.

use guardians_gc::{GcConfig, Heap, Rooted, Value};

/// Worker counts measured, in column order.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub struct E17Row {
    /// Scenario name.
    pub name: &'static str,
    /// Words copied per full-collection round (identical across worker
    /// counts by the engine's schedule-independence contract; asserted).
    pub words_per_round: u64,
    /// Copy throughput in words/sec for each entry of [`WORKER_COUNTS`].
    pub words_per_sec: [f64; 3],
}

impl E17Row {
    /// Throughput of the `workers`-column relative to the serial column.
    /// `0.0` when the serial column failed to time (degenerate runs).
    pub fn speedup(&self, idx: usize) -> f64 {
        if self.words_per_sec[0] > 0.0 {
            self.words_per_sec[idx] / self.words_per_sec[0]
        } else {
            0.0
        }
    }
}

/// Builds one scenario's live set, returning the roots that keep it
/// alive for the measured collections.
fn build_live_set(heap: &mut Heap, scenario: &str, scale: usize) -> Vec<Rooted> {
    let mut roots = Vec::new();
    match scenario {
        // Pair space: many medium cons lists — forwarding-dominated.
        "cons lists" => {
            for l in 0..scale {
                let mut list = Value::NIL;
                for k in 0..64 {
                    list = heap.cons(Value::fixnum((l * 64 + k) as i64), list);
                }
                roots.push(heap.root(list));
            }
        }
        // All four spaces: vectors (typed walks), strings and
        // bytevectors (pure skips), weak pairs (two-pass cars).
        "mixed spaces" => {
            for i in 0..scale * 8 {
                let v = match i % 4 {
                    0 => {
                        let s = heap.make_string("e17 payload string");
                        heap.make_vector(6, s)
                    }
                    1 => heap.make_bytevector(96, (i % 251) as u8),
                    2 => {
                        let head = heap.cons(Value::fixnum(i as i64), Value::NIL);
                        heap.weak_cons(head, Value::fixnum(i as i64))
                    }
                    _ => heap.cons(Value::fixnum(i as i64), Value::NIL),
                };
                roots.push(heap.root(v));
            }
        }
        // Multi-segment runs: large vectors force the run-allocation
        // path and chunked cross-segment copies.
        "large runs" => {
            for i in 0..scale / 2 {
                let big = heap.make_vector(1500, Value::fixnum(i as i64));
                roots.push(heap.root(big));
            }
        }
        other => unreachable!("unknown scenario {other:?}"),
    }
    roots
}

/// Measures one (scenario, workers) cell: identical live set, `rounds`
/// forced full collections, throughput over the summed pauses.
fn measure(scenario: &str, scale: usize, workers: usize, rounds: usize) -> (u64, f64) {
    let mut heap = Heap::new(GcConfig {
        workers,
        ..GcConfig::new()
    });
    let roots = build_live_set(&mut heap, scenario, scale);
    let max = heap.config().max_generation();
    // Warm-up round: promote everything to the oldest generation so the
    // measured rounds copy a stable live set.
    heap.collect(max);
    let mut words = 0u64;
    let mut ns = 0u128;
    let mut per_round = 0u64;
    for _ in 0..rounds {
        let report = heap.collect(max);
        per_round = report.words_copied;
        words += report.words_copied;
        ns += report.duration.as_nanos();
    }
    heap.verify()
        .expect("heap valid after measured collections");
    drop(roots);
    let throughput = if ns > 0 {
        words as f64 / (ns as f64 / 1e9)
    } else {
        0.0
    };
    (per_round, throughput)
}

/// Runs the experiment.
pub fn run(quick: bool) -> (guardians_workloads::Table, Vec<E17Row>) {
    let (scale, rounds) = if quick { (120, 4) } else { (1_200, 10) };
    let mut table = guardians_workloads::Table::new(
        "E17: parallel copy/scan engine scaling",
        &[
            "configuration",
            "Kwords/round",
            "copy Mw/s (1w)",
            "copy Mw/s (2w)",
            "copy Mw/s (4w)",
            "speedup 4w",
        ],
    );
    table.exact(&["configuration", "Kwords/round"]);
    let mut rows = Vec::new();
    for name in ["cons lists", "mixed spaces", "large runs"] {
        let mut words_per_round = 0;
        let mut words_per_sec = [0.0f64; 3];
        for (i, &workers) in WORKER_COUNTS.iter().enumerate() {
            let (per_round, throughput) = measure(name, scale, workers, rounds);
            if i == 0 {
                words_per_round = per_round;
            } else {
                assert_eq!(
                    per_round, words_per_round,
                    "{name}: copy work must be schedule-independent"
                );
            }
            words_per_sec[i] = throughput;
        }
        let row = E17Row {
            name,
            words_per_round,
            words_per_sec,
        };
        table.row(&[
            name.to_string(),
            format!("{}", row.words_per_round / 1_000),
            format!("{:.1}", row.words_per_sec[0] / 1e6),
            super::timed_at(2, format!("{:.1}", row.words_per_sec[1] / 1e6)),
            super::timed_at(4, format!("{:.1}", row.words_per_sec[2] / 1e6)),
            super::timed_at(4, format!("{:.2}", row.speedup(2))),
        ]);
        rows.push(row);
    }
    table.note(format!(
        "identical live sets per row; each column re-collects the whole set {rounds}x under that worker count \
         (words/round asserted equal across columns)"
    ));
    table.note(super::env_note(1, None));
    table.note(
        "worker count varies by column; a column asking for more workers than the host \
         parallelism above prints 'unmeasured' (time-sliced workers measure the scheduler)",
    );
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_times_and_work_is_schedule_independent() {
        let (_t, rows) = run(true);
        assert_eq!(rows.len(), 3, "three live-set scenarios");
        for row in &rows {
            assert!(row.words_per_round > 0, "{}: rounds copied", row.name);
            for (i, &tp) in row.words_per_sec.iter().enumerate() {
                assert!(
                    tp > 0.0,
                    "{}: {}-worker column has throughput",
                    row.name,
                    WORKER_COUNTS[i]
                );
            }
        }
    }

    #[test]
    fn parallel_columns_report_a_speedup_ratio() {
        let (t, rows) = run(true);
        for row in &rows {
            // The ratio is well-defined (serial column timed) even when
            // the host has one core and the ratio lands below 1.0.
            assert!(row.speedup(2) > 0.0, "{}: speedup defined", row.name);
        }
        let rendered = t.render();
        assert!(rendered.contains("speedup 4w"), "{rendered}");
        assert!(rendered.contains("hardware threads"), "{rendered}");
    }
}
