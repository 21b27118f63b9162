//! Benchmark and experiment harness for the guardians reproduction.
//!
//! The paper (PLDI 1993) has no numeric tables; its evaluation is four
//! figures and a set of complexity claims. This crate regenerates all of
//! them:
//!
//! * [`experiments`] — E1..E12, E18, E21 and E22, one per entry in
//!   DESIGN.md's experiment index. Each returns a printable table and
//!   carries a unit test asserting the claimed shape. No experiment reads
//!   a clock: every cell is a label or a deterministic work counter.
//! * [`replay`] — churn-script replayer comparing table mechanisms on
//!   identical inputs.
//! * The `experiments` binary (`cargo run -p guardians-bench --bin
//!   experiments [--quick]`) prints every table — the artifact behind
//!   EXPERIMENTS.md — and with `--json` writes them as one document.
//!   The committed `BENCH_quick.json` is that document for the quick
//!   suite; CI regenerates it and fails on any difference, with no
//!   tolerance, because nothing in it depends on the host or the clock.
//!   Wall-clock is sampled, repeatedly and in pairs, by the repository's
//!   `benchmark/` package and nowhere else.
//! * The `torture` binary — soak driver for the model-based rig in
//!   `guardians-torture`.
//! * The `gcprof` binary — runs an experiment or torture trace under the
//!   GC event trace and exports Chrome `trace_event` JSON, JSONL, a
//!   metrics snapshot, and a heap census.

pub mod experiments;
pub mod replay;
