//! The experiment suite: one module per entry of DESIGN.md's
//! per-experiment index. Each `run(quick)` returns a rendered [`Table`]
//! plus structured rows; the module's unit test asserts the paper's
//! claimed *shape* on the quick configuration, so `cargo test` re-checks
//! every claim. Each table declares which of its columns are exact
//! (labels and deterministic counts); those are what [`exact_document`]
//! commits and CI compares. Every timed column is printed with its
//! `environment:` note and never compared.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e17;
pub mod e18;
pub mod e19;
pub mod e2;
pub mod e20;
pub mod e21;
pub mod e22;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

use guardians_workloads::Table;

/// Runs one experiment (`quick` or full) and returns its table.
pub type Runner = fn(bool) -> Table;

/// Every experiment in table order: its `--only` name and its runner.
/// The one list the `experiments` binary selects from, validates against
/// and iterates.
pub const SUITE: &[(&str, Runner)] = &[
    ("e1", |q| e1::run(q).0),
    ("e2", |q| e2::run(q).0),
    ("e3", |q| e3::run(q).0),
    ("e4", |q| e4::run(q).0),
    ("e5", |q| e5::run(q).0),
    ("e6", |q| e6::run(q).0),
    ("e7", |q| e7::run(q).0),
    ("e8", |q| e8::run(q).0),
    ("e9", |q| e9::run(q).0),
    ("e10", |q| e10::run(q).0),
    ("e11", |q| e11::run(q).0),
    ("e12", |q| e12::run(q).0),
    ("e17", |q| e17::run(q).0),
    ("e18", |q| e18::run(q).0),
    ("e19", |q| e19::run(q).0),
    ("e20", |q| e20::run(q).0),
    ("e21", |q| e21::run(q).0),
    ("e22", |q| e22::run(q).0),
];

/// The document `experiments --json` writes: each table's
/// [exact projection](Table::exact_json), one row per line, tables that
/// declare no exact column left out. It holds labels and deterministic
/// counts only, so a run on any host reproduces it byte for byte — the
/// committed `BENCH_quick.json` is this document for the whole quick
/// suite, and CI's gate is "regenerate it, then `git diff --exit-code`".
pub fn exact_document(quick: bool, tables: &[(&str, Table)]) -> String {
    let projected: Vec<String> = tables
        .iter()
        .filter_map(|(name, table)| table.exact_json(name))
        .collect();
    format!(
        "{{\"quick\":{quick},\"tables\":[\n{}\n]}}\n",
        projected.join(",\n")
    )
}

/// A timed cell taken with `workers` collector threads: `measured` when
/// the host has that many hardware threads, `unmeasured` when it has
/// not — there the threads time-slice the cores, so the figure is the
/// scheduler's, not the engine's, and would read as a slowdown.
pub fn timed_at(workers: usize, measured: String) -> String {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if threads >= workers {
        measured
    } else {
        "unmeasured".to_string()
    }
}

/// The uniform environment footnote the measured tables carry (E11, E17,
/// E18, E19): host parallelism plus the active collector-engine settings,
/// so a table read in isolation — or consumed from `experiments --json` —
/// records the conditions it was measured under. `workers`/`pause_budget`
/// are the [`guardians_gc::GcConfig`] fields the run used as its
/// *baseline*; experiments that vary one of them per row or per column
/// say so in a follow-up note.
pub fn env_note(workers: usize, pause_budget: Option<std::time::Duration>) -> String {
    let budget = match pause_budget {
        None => "none (stop-the-world)".to_string(),
        Some(d) => format!("{} us", d.as_micros()),
    };
    format!(
        "environment: {} hardware threads (available_parallelism); GcConfig: {} collector worker{}, pause budget {}",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        workers,
        if workers == 1 { "" } else { "s" },
        budget
    )
}

/// A policy footnote: the policy-relevant [`guardians_gc::GcConfig`]
/// knobs as JSON, with the *effective* frequency ladder materialized
/// (missing entries filled by the 4× rule) — so a table measured under a
/// retuned or non-default ladder records exactly the schedule that ran.
pub fn config_note(cfg: &guardians_gc::GcConfig) -> String {
    format!("policy: {}", cfg.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The property the committed baseline rests on: two runs write the
    /// same bytes. A timed column declared exact by mistake fails here
    /// (and in CI's regenerate-and-diff) instead of flaking later.
    #[test]
    fn e11_exact_document_is_byte_stable_and_carries_no_timed_column() {
        let doc = || exact_document(true, &[("e11", e11::run(true).0)]);
        let first = doc();
        assert_eq!(first, doc(), "two quick runs, one document");
        assert!(first.contains("\"words copied\""), "{first}");
        for timed in ["copy Mw/s", "pause", "total GC", "environment:"] {
            assert!(!first.contains(timed), "{timed:?} in {first}");
        }
    }

    #[test]
    fn a_cell_the_host_cannot_time_reads_unmeasured() {
        assert_eq!(timed_at(1, "98.3".into()), "98.3", "every host has one");
        assert_eq!(timed_at(usize::MAX, "0.15".into()), "unmeasured");
    }
}
