//! CI perf-regression gate.
//!
//! Compares one or more fresh `experiments --json` documents against a
//! committed baseline and exits non-zero if a gated metric regressed
//! beyond tolerance. See [`guardians_bench::gate`] for the statistical
//! design (per-table geometric means, best-of-N fresh runs).
//!
//! ```text
//! bench_gate --baseline BENCH_e11.json --baseline BENCH_e19.json \
//!            --fresh fresh1.json --fresh fresh2.json
//! bench_gate --baseline B.json --fresh F.json --tolerance 0.10
//! bench_gate --baseline B.json --fresh F.json --scale-fresh 0.8   # demo: inject -20%
//! ```
//!
//! `--baseline` repeats: the committed baselines live one experiment per
//! file and are merged before comparison. Each `--fresh` document must
//! contain every gated table (generate with `--only e11 e17 e18 e19 e21 e22`).
//!
//! `--scale-fresh <f>` multiplies every fresh metric by `f` after
//! extraction (throughput) or divides latency by `f` — i.e. `0.8`
//! simulates the machine running 20% slower. It exists so the gate's
//! failure path can be demonstrated without doctoring JSON files.

use guardians_bench::gate::{compare, default_specs, merge_docs, Direction, Json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baselines: Vec<String> = Vec::new();
    let mut fresh: Vec<String> = Vec::new();
    let mut tolerance = 0.15;
    let mut scale_fresh = 1.0f64;
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                eprintln!("error: {} requires an argument", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--baseline" => {
                baselines.push(need(i).to_string());
                i += 2;
            }
            "--fresh" => {
                fresh.push(need(i).to_string());
                i += 2;
            }
            "--tolerance" => {
                tolerance = need(i).parse().unwrap_or_else(|e| {
                    eprintln!("error: bad --tolerance: {e}");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--scale-fresh" => {
                scale_fresh = need(i).parse().unwrap_or_else(|e| {
                    eprintln!("error: bad --scale-fresh: {e}");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!(
                    "error: unknown argument {other:?}\n\
                     usage: bench_gate --baseline <json> [--baseline <json>...] \
                     --fresh <json> [--fresh <json>...] [--tolerance 0.15] [--scale-fresh 1.0]"
                );
                std::process::exit(2);
            }
        }
    }
    if baselines.is_empty() {
        eprintln!("error: at least one --baseline is required");
        std::process::exit(2);
    }
    if fresh.is_empty() {
        eprintln!("error: at least one --fresh is required");
        std::process::exit(2);
    }

    let load = |path: &str| -> Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: reading {path}: {e}");
            std::process::exit(2);
        });
        Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: parsing {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline_docs: Vec<Json> = baselines.iter().map(|p| load(p)).collect();
    let base_doc = merge_docs(&baseline_docs).unwrap_or_else(|e| {
        eprintln!("bench_gate: error: {e}");
        std::process::exit(2);
    });
    let fresh_docs: Vec<Json> = fresh.iter().map(|p| load(p)).collect();

    let specs = default_specs();
    let mut lines = match compare(&base_doc, &fresh_docs, &specs, tolerance) {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("bench_gate: error: {e}");
            std::process::exit(2);
        }
    };
    if scale_fresh != 1.0 {
        // Re-derive each verdict with the injected slowdown applied.
        for (line, spec) in lines.iter_mut().zip(&specs) {
            line.fresh = match spec.direction {
                Direction::HigherIsBetter => line.fresh * scale_fresh,
                Direction::LowerIsBetter => line.fresh / scale_fresh,
            };
            line.regression = match spec.direction {
                Direction::HigherIsBetter => (line.baseline - line.fresh) / line.baseline,
                Direction::LowerIsBetter => (line.fresh - line.baseline) / line.baseline,
            };
            line.pass = line.regression <= tolerance;
        }
        println!("(demo: fresh metrics scaled by {scale_fresh})");
    }

    println!(
        "bench gate: baseline [{}], best of {} fresh run(s), tolerance {:.0}%",
        baselines.join(", "),
        fresh_docs.len(),
        tolerance * 100.0
    );
    let mut failed = false;
    for line in &lines {
        println!("{line}");
        failed |= !line.pass;
    }
    if failed {
        eprintln!("bench_gate: FAIL — regression beyond tolerance");
        std::process::exit(1);
    }
    println!("bench_gate: ok");
}
