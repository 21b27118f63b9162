//! The repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! benchmark check
//! benchmark compare A.json B.json
//! ```
//!
//! Every layer is measured from outside: the harness times calls into
//! public functions and reads public counters. See `README.md` beside
//! this crate for the workload and metric glossary.

mod check;
mod coldforms;
mod compare;
mod host;
mod json;
mod metrics;
mod rng;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use run::{Options, Summary};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "\
usage: benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
       benchmark check
       benchmark compare A.json B.json";

struct RunArgs {
    opts: Options,
    /// All seven when not given.
    workload: Option<Workload>,
    /// `Some(false)`: the untraced pass only; `Some(true)`: the traced
    /// pass only; not given: both.
    trace: Option<bool>,
    json: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        opts: Options {
            seed: 1,
            seconds: None,
        },
        workload: None,
        trace: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                parsed.opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let seconds = v.parse::<f64>().ok().filter(|n| n.is_finite() && *n > 0.0);
                parsed.opts.seconds =
                    Some(seconds.ok_or_else(|| format!("--seconds: not a positive number: {v}"))?);
            }
            "--trace" => {
                parsed.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--json" => parsed.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let RunArgs {
        opts,
        workload,
        trace,
        json,
    } = parse_run(args)?;
    let selected: Vec<Workload> = workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);

    let mut failed = 0;
    let mut entries = Vec::new();
    for w in selected {
        let e2e = (trace != Some(true)).then(|| run::untraced(w, &opts));
        let layers = (trace != Some(false)).then(|| run::traced(w, &opts));
        // Each pass ends with its result line, so the line of the last
        // pass run is the last line of the output.
        let mut out = std::io::stdout().lock();
        let mut print = |title, s: &Option<Summary>, traced| {
            let Some(s) = s else { return Ok(()) };
            failed += s.failed;
            run::print_summary(title, s, &mut out)?;
            writeln!(out, "{}", run::result_line(s, traced))
        };
        print("end-to-end (untraced)", &e2e, false).map_err(|e| e.to_string())?;
        print("per-layer (traced)", &layers, true).map_err(|e| e.to_string())?;
        entries.push((w.name(), run::summary_json(e2e.as_ref(), layers.as_ref())));
    }

    let doc = Json::obj([
        ("host", host::fingerprint()),
        ("seed", Json::from(opts.seed)),
        (
            "open_rate_per_s",
            Json::from(workloads::fleet_requests::OPEN_RATE),
        ),
        ("workloads", Json::obj(entries)),
    ]);
    let path = json.unwrap_or_else(|| Path::new(run::OUT_DIR).join("results.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("results written to {}", path.display());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, [])) if cmd == "check" => check::run(),
        Some((cmd, [a, b])) if cmd == "compare" => compare::run(a.as_ref(), b.as_ref()),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
