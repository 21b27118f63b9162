//! The experiment suite: one module per entry of DESIGN.md's
//! per-experiment index. Each `run(quick)` returns a rendered
//! [`Table`](guardians_workloads::Table) plus structured rows; the
//! module's unit test asserts the paper's claimed *shape* on the quick
//! configuration, so `cargo test` re-checks every claim.

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

/// Runs every experiment, returning the rendered tables in order.
pub fn run_all(quick: bool) -> Vec<guardians_workloads::Table> {
    vec![
        e1::run(quick).0,
        e2::run(quick).0,
        e3::run(quick).0,
        e4::run(quick).0,
        e5::run(quick).0,
        e6::run(quick).0,
        e7::run(quick).0,
        e8::run(quick).0,
        e9::run(quick).0,
        e10::run(quick).0,
        e11::run(quick).0,
        e12::run(quick).0,
        e17::run(quick).0,
        e18::run(quick).0,
        e19::run(quick).0,
        e20::run(quick).0,
        e21::run(quick).0,
        e22::run(quick).0,
    ]
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
