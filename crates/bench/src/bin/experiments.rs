//! Regenerates every experiment table (E1..E12, E18, E21, E22) —
//! the artifact behind EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p guardians-bench --bin experiments           # full
//! cargo run -p guardians-bench --bin experiments -- --quick          # small
//! cargo run -p guardians-bench --bin experiments -- --only e3 e4    # subset
//! cargo run -p guardians-bench --bin experiments -- --json out.json # machine-readable
//! ```
//!
//! `--json <path>` additionally writes the selected tables (every
//! column; notes stay out) as a JSON document `{"quick": bool, "tables":
//! [...]}`. No experiment reads a clock, so the committed
//! `BENCH_quick.json` — that document for the whole quick suite — reads
//! the same on every host, and CI regenerates it and fails on
//! `git diff --exit-code`.

use guardians_bench::experiments::{document, SUITE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path: Option<String> = args.iter().position(|a| a == "--json").map(|i| {
        match args.get(i + 1).filter(|p| !p.starts_with("--")) {
            Some(p) => p.clone(),
            None => {
                eprintln!("error: --json requires a path argument");
                std::process::exit(2);
            }
        }
    });
    let only: Vec<String> = match args.iter().position(|a| a == "--only") {
        Some(i) => args[i + 1..]
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .map(|s| s.to_lowercase())
            .collect(),
        None => Vec::new(),
    };
    for o in &only {
        if !SUITE.iter().any(|(name, _)| name == o) {
            let names: Vec<&str> = SUITE.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "error: unknown experiment {o:?} (expected one of {})",
                names.join(" ")
            );
            std::process::exit(2);
        }
    }
    let wanted = |name: &str| only.is_empty() || only.iter().any(|o| o == name);

    println!("Guardians in a Generation-Based Garbage Collector (PLDI 1993)");
    println!(
        "Reproduction experiment suite{}",
        if quick { " (quick mode)" } else { "" }
    );
    println!();

    let mut tables = Vec::new();
    for &(name, run) in SUITE {
        if wanted(name) {
            let table = run(quick);
            println!("{}", table.render());
            tables.push((name, table));
        }
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, document(quick, &tables)) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
