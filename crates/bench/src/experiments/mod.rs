//! The experiment suite: one module per entry of DESIGN.md's
//! per-experiment index. Each `run(quick)` returns a rendered [`Table`]
//! plus structured rows; the module's unit test asserts the paper's
//! claimed *shape* on the quick configuration, so `cargo test` re-checks
//! every claim. No experiment reads a clock: every cell is a label or a
//! deterministic count, [`document`] commits all of them and CI compares
//! them byte for byte. Times are sampled by `benchmark/` and nowhere
//! else.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e18;
pub mod e2;
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
    ("e18", |q| e18::run(q).0),
    ("e21", |q| e21::run(q).0),
    ("e22", |q| e22::run(q).0),
];

/// The document `experiments --json` writes: every table as
/// [JSON](Table::json), one row per line. A run on any host reproduces
/// it byte for byte — the committed `BENCH_quick.json` is this document
/// for the whole quick suite, and CI's gate is "regenerate it, then
/// `git diff --exit-code`".
pub fn document(quick: bool, tables: &[(&str, Table)]) -> String {
    let rendered: Vec<String> = tables
        .iter()
        .map(|(name, table)| table.json(name))
        .collect();
    format!(
        "{{\"quick\":{quick},\"tables\":[\n{}\n]}}\n",
        rendered.join(",\n")
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

    /// The property the committed baseline rests on: two runs of the
    /// whole quick suite write the same bytes, and every experiment is in
    /// them. A clock read that found its way into a cell fails here (and
    /// in CI's regenerate-and-diff) instead of flaking later.
    #[test]
    fn quick_suite_document_is_byte_stable_and_carries_every_table() {
        let doc = || {
            let tables: Vec<(&str, Table)> =
                SUITE.iter().map(|&(name, run)| (name, run(true))).collect();
            document(true, &tables)
        };
        let first = doc();
        assert_eq!(first, doc(), "two quick runs, one document");
        for (name, _) in SUITE {
            assert!(
                first.contains(&format!("{{\"name\":\"{name}\",")),
                "{name} missing from {first}"
            );
        }
    }
}
