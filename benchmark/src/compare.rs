//! `benchmark compare A.json B.json`: applies each end-to-end metric's
//! bound to two result files — a baseline and a candidate, or two runs
//! of one commit for the repeatability check.
//!
//! One row per workload × metric:
//!
//! * `ok` — B's value is no worse than A's by more than the bound;
//! * `regressed` — it is worse by more than the bound;
//! * `unresolved` — the spread between repetitions is wider than the
//!   bound and the two runs' ranges overlap, so the values cannot carry
//!   a verdict either way;
//! * `other traffic` — the two files did not run the same op stream (seed,
//!   op count, open-loop rate or stream hash differ), so the row compares
//!   traffic, not code, and gets no verdict.
//!
//! Metrics and workloads present in one file only are listed. Exits
//! non-zero when any row is `regressed`.

use crate::json::Json;
use crate::metrics::Better;
use crate::stats::relative_iqr;
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Skipped,
    OtherTraffic,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Skipped => "unmeasured",
            Verdict::OtherTraffic => "other traffic",
        }
    }
}

/// One side of a comparison: the reported value and the per-repetition
/// values it was taken from.
#[derive(Clone, Debug, PartialEq)]
pub struct Side {
    pub value: f64,
    pub per_rep: Vec<f64>,
}

impl Side {
    fn range(&self) -> (f64, f64) {
        let lo = self.per_rep.iter().copied().fold(self.value, f64::min);
        let hi = self.per_rep.iter().copied().fold(self.value, f64::max);
        (lo, hi)
    }

    /// Spread between repetitions as a share of the value: the
    /// interquartile range, or the full range below four repetitions.
    fn spread(&self) -> f64 {
        if self.per_rep.len() >= 4 {
            return relative_iqr(&self.per_rep).unwrap_or(0.0);
        }
        let (lo, hi) = self.range();
        if self.value == 0.0 {
            0.0
        } else {
            (hi - lo) / self.value.abs()
        }
    }
}

/// By how much of `a`'s value `b` is worse (negative when better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let wide = a.spread().max(b.spread()) > bound;
    let ((a_lo, a_hi), (b_lo, b_hi)) = (a.range(), b.range());
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if wide && overlap {
        Verdict::Unresolved
    } else if worse_by(a.value, b.value, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        value: metric.get("value")?.as_f64()?,
        per_rep: metric
            .get("per_rep")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The fields that fix a workload's op stream, and in which of them A
/// and B differ: `(field, A's value, B's value)`.
fn traffic_differences(a: &Json, b: &Json, workload: &str) -> Vec<(&'static str, String, String)> {
    let of_workload = |doc: &'_ Json, key: &str| -> Option<Json> {
        doc.get("workloads")?.get(workload)?.get(key).cloned()
    };
    let fields = [
        ("seed", a.get("seed").cloned(), b.get("seed").cloned()),
        (
            "open_rate_per_s",
            a.get("open_rate_per_s").cloned(),
            b.get("open_rate_per_s").cloned(),
        ),
        (
            "ops_per_rep",
            of_workload(a, "ops_per_rep"),
            of_workload(b, "ops_per_rep"),
        ),
        (
            "stream_hash",
            of_workload(a, "stream_hash"),
            of_workload(b, "stream_hash"),
        ),
    ];
    let show = |v: Option<Json>| v.map_or("absent".to_string(), |v| v.render());
    let differing = fields.into_iter().filter(|(_, a, b)| a != b);
    differing.map(|(f, a, b)| (f, show(a), show(b))).collect()
}

fn end_to_end<'a>(doc: &'a Json, workload: &str) -> &'a [(String, Json)] {
    let section = doc.get("workloads").and_then(|w| w.get(workload));
    section
        .and_then(|w| w.get("end_to_end"))
        .map_or(&[][..], Json::entries)
}

pub fn run(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads_of = |doc: &'_ Json, path: &Path| -> Result<Vec<String>, String> {
        let workloads = doc
            .get("workloads")
            .ok_or_else(|| format!("{}: no \"workloads\"", path.display()))?;
        Ok(workloads.entries().iter().map(|(w, _)| w.clone()).collect())
    };
    let (a_workloads, b_workloads) = (workloads_of(&a, a_path)?, workloads_of(&b, b_path)?);
    println!(
        "{:<22} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    let mut counts = [0usize; 5];
    let mut missing = 0;
    for workload in b_workloads.iter().filter(|w| !a_workloads.contains(w)) {
        println!("{workload:<22} missing from A");
        missing += 1;
    }
    for workload in &a_workloads {
        if !b_workloads.contains(workload) {
            println!("{workload:<22} missing from B");
            missing += 1;
            continue;
        }
        let differences = traffic_differences(&a, &b, workload);
        for (field, in_a, in_b) in &differences {
            println!("{workload:<22} ran other traffic: {field} is {in_a} in A, {in_b} in B");
        }
        let (a_metrics, b_metrics) = (end_to_end(&a, workload), end_to_end(&b, workload));
        for (name, _) in b_metrics {
            if !a_metrics.iter().any(|(n, _)| n == name) {
                println!("{workload:<22} {name:<22} missing from A");
                missing += 1;
            }
        }
        for (name, a_metric) in a_metrics {
            let Some((_, b_metric)) = b_metrics.iter().find(|(n, _)| n == name) else {
                println!("{workload:<22} {name:<22} missing from B");
                missing += 1;
                continue;
            };
            let fields = (|| {
                let better = Better::from_label(a_metric.get("better")?.as_str()?)?;
                let bound = a_metric.get("bound")?.as_f64()?;
                Some((side(a_metric)?, side(b_metric)?, better, bound))
            })();
            let Some((sa, sb, better, bound)) = fields else {
                return Err(format!("{workload}.{name}: malformed metric entry"));
            };
            let unmeasured = [a_metric, b_metric]
                .iter()
                .any(|m| m.get("unmeasured") == Some(&Json::Bool(true)));
            let v = if unmeasured {
                Verdict::Skipped
            } else if !differences.is_empty() {
                Verdict::OtherTraffic
            } else {
                verdict(&sa, &sb, better, bound)
            };
            counts[v as usize] += 1;
            println!(
                "{workload:<22} {name:<22} {:>14.4} {:>14.4} {:>+7.2}% {:>5.0}%  {}",
                sa.value,
                sb.value,
                worse_by(sa.value, sb.value, better) * 100.0,
                bound * 100.0,
                v.label()
            );
        }
    }
    println!(
        "{} ok, {} regressed, {} unresolved, {} unmeasured, {} other traffic, {missing} missing",
        counts[Verdict::Ok as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize],
        counts[Verdict::Skipped as usize],
        counts[Verdict::OtherTraffic as usize],
    );
    Ok(if counts[Verdict::Regressed as usize] == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Side {
        Side {
            value,
            per_rep: vec![value * 0.995, value, value * 1.005],
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
    }

    #[test]
    fn tight_runs_are_judged_by_their_values() {
        let a = tight(100.0);
        assert_eq!(verdict(&a, &tight(104.0), Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(
            verdict(&a, &tight(107.0), Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(verdict(&a, &tight(80.0), Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(
            verdict(&a, &tight(93.0), Better::Higher, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_wide_separated_ones_are_not() {
        let noisy = |value: f64| Side {
            value,
            per_rep: vec![value * 0.9, value, value * 1.1],
        };
        assert_eq!(
            verdict(&noisy(100.0), &noisy(108.0), Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // Every repetition of B reads worse than every repetition of A.
        assert_eq!(
            verdict(&noisy(100.0), &noisy(150.0), Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&noisy(100.0), &noisy(50.0), Better::Lower, 0.05),
            Verdict::Ok
        );
    }

    #[test]
    fn pooled_metrics_have_only_their_values() {
        let pooled = |value| Side {
            value,
            per_rep: Vec::new(),
        };
        assert_eq!(pooled(5.0).spread(), 0.0);
        assert_eq!(
            verdict(&pooled(100.0), &pooled(120.0), Better::Lower, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn files_that_ran_other_traffic_are_told_apart() {
        let doc = |seed: u64, hash: &str| {
            let workload = Json::obj([
                ("ops_per_rep", Json::from(1_000)),
                ("stream_hash", Json::str(hash)),
            ]);
            Json::obj([
                ("seed", Json::from(seed)),
                ("open_rate_per_s", Json::from(160_000)),
                ("workloads", Json::obj([("heap_churn", workload)])),
            ])
        };
        let a = doc(1, "00ff");
        assert_eq!(traffic_differences(&a, &doc(1, "00ff"), "heap_churn"), []);
        let fields = |b: &Json| -> Vec<&str> {
            let differences = traffic_differences(&a, b, "heap_churn");
            differences.into_iter().map(|(f, _, _)| f).collect()
        };
        assert_eq!(fields(&doc(2, "00aa")), ["seed", "stream_hash"]);
        assert_eq!(fields(&doc(1, "00aa")), ["stream_hash"]);
    }
}
