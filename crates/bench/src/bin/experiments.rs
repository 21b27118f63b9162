//! Regenerates every experiment table (E1..E12, E17..E22) —
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
//! `--json <path>` additionally writes the selected tables as a JSON
//! document `{"quick": bool, "tables": [...]}` (see `BENCH_e11.json` for
//! a checked-in example).

use guardians_bench::experiments as ex;
use guardians_workloads::Table;

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
    const NAMES: [&str; 18] = [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e17", "e18",
        "e19", "e20", "e21", "e22",
    ];
    for o in &only {
        if !NAMES.contains(&o.as_str()) {
            eprintln!("error: unknown experiment {o:?} (expected one of e1..e12, e17..e22)");
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

    type Runner = fn(bool) -> Table;
    let suite: Vec<(&str, Runner)> = vec![
        ("e1", |q| ex::e1::run(q).0),
        ("e2", |q| ex::e2::run(q).0),
        ("e3", |q| ex::e3::run(q).0),
        ("e4", |q| ex::e4::run(q).0),
        ("e5", |q| ex::e5::run(q).0),
        ("e6", |q| ex::e6::run(q).0),
        ("e7", |q| ex::e7::run(q).0),
        ("e8", |q| ex::e8::run(q).0),
        ("e9", |q| ex::e9::run(q).0),
        ("e10", |q| ex::e10::run(q).0),
        ("e11", |q| ex::e11::run(q).0),
        ("e12", |q| ex::e12::run(q).0),
        ("e17", |q| ex::e17::run(q).0),
        ("e18", |q| ex::e18::run(q).0),
        ("e19", |q| ex::e19::run(q).0),
        ("e20", |q| ex::e20::run(q).0),
        ("e21", |q| ex::e21::run(q).0),
        ("e22", |q| ex::e22::run(q).0),
    ];
    let mut json_tables: Vec<String> = Vec::new();
    for (name, run) in suite {
        if wanted(name) {
            let table = run(quick);
            println!("{}", table.render());
            json_tables.push(table.to_json_named(name));
        }
    }
    if let Some(path) = json_path {
        let doc = format!(
            "{{\"quick\":{quick},\"tables\":[{}]}}\n",
            json_tables.join(",")
        );
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
