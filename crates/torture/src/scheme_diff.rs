//! The scheme-differential campaign leg: the same guardian-heavy Scheme
//! workload run under the bytecode VM and under the naive reference
//! evaluator (the oracle), on the trace's GC configuration.
//!
//! The heap-op rig checks the *collector* against the shadow oracle;
//! this leg checks the *evaluator* against its oracle on top of the same
//! collector: per-form results, error messages, and everything printed
//! to the simulated OS must be byte-identical. The oracle allocates
//! differently by design (association-list environments), so heap
//! counters are not compared between the two; the VM's own counters are
//! returned in [`SchemeDiffStats`] and pinned against a recorded table
//! by `tests/scheme_counters.rs`.
//!
//! The trace's `fail_acquisition_at` knob is deliberately ignored here:
//! it perturbs allocation-order-derived behaviour, which differs between
//! the VM and the oracle by design.

use crate::ops::TortureConfig;
use crate::rig::Failure;
use guardians_gc::GcConfig;
use guardians_scheme::{EvalMode, Interp, InterpConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Outcome of a clean differential run.
#[derive(Clone, Debug)]
pub struct SchemeDiffStats {
    /// Top-level forms evaluated (per evaluator).
    pub forms: usize,
    /// The VM run's deterministic heap counters.
    pub counters: Counters,
}

/// The deterministic (non-timing) heap counters of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Collections performed.
    pub collections: u64,
    /// Pairs allocated.
    pub pairs_allocated: u64,
    /// Non-pair objects allocated.
    pub objects_allocated: u64,
    /// Words allocated.
    pub words_allocated: u64,
    /// Guardian registrations.
    pub guardian_registrations: u64,
    /// Successful guardian polls.
    pub guardian_polls: u64,
    /// Words copied, summed over collections.
    pub total_words_copied: u64,
    /// Guardian entries visited, summed over collections.
    pub total_guardian_entries_visited: u64,
    /// Weak pairs scanned, summed over collections.
    pub total_weak_pairs_scanned: u64,
}

fn gc_config(cfg: &TortureConfig) -> GcConfig {
    GcConfig {
        generations: cfg.generations,
        promotion: cfg.promotion,
        pause_budget: cfg.pause_budget.map(Duration::from_micros),
        ..GcConfig::default()
    }
}

/// Generates a deterministic guardian/weak/churn Scheme workload from
/// `seed`: roughly `nforms` body forms of list churn, guardian
/// registrations of fresh garbage, weak pairs watching dying objects,
/// keep-list trimming, and forced collections — followed by a fixed
/// epilogue that collects everything and drains both guardians, so every
/// seed exercises resurrection order and weak-pair breaking.
pub fn scheme_program(seed: u64, nforms: usize) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
    let mut forms = vec![
        "(define G (make-guardian))".to_string(),
        "(define H (make-guardian))".to_string(),
        "(define keep '())".to_string(),
        "(define W '())".to_string(),
    ];
    let drain = |g: &str| {
        format!("(let loop ((x ({g}))) (if x (begin (display x) (newline) (loop ({g}))) #f))")
    };
    let mut n = 0u32;
    while forms.len() < nforms.max(8) {
        match rng.gen_range(0..10) {
            0..=2 => {
                // A chained list kept reachable through the keep list;
                // the named-let loop churns pairs at the safe point.
                let len = rng.gen_range(5..40);
                forms.push(format!(
                    "(define k{n} (let loop ((i {len}) (acc '())) \
                     (if (= i 0) acc (loop (- i 1) (cons i acc)))))"
                ));
                forms.push(format!("(set! keep (cons k{n} keep))"));
                n += 1;
            }
            3..=4 => {
                // Register fresh garbage with a guardian (sometimes both,
                // chaining the paper's (G H) style via the shared pair).
                let g = if rng.gen_range(0..2) == 0 { "G" } else { "H" };
                forms.push(format!("({g} (cons 'a{n} {}))", rng.gen_range(0..100)));
                n += 1;
            }
            5 => {
                // A weak pair watching a fresh (immediately dead) pair.
                forms.push(format!("(set! W (cons (weak-cons (cons {n} {n}) '()) W))"));
                n += 1;
            }
            6 => {
                // Trim the keep list so old chains become garbage.
                forms.push("(if (pair? keep) (set! keep (cdr keep)) #f)".into());
            }
            7..=8 => {
                // Collect (young generations dominate) and drain.
                let gen = [0, 0, 1, 2][rng.gen_range(0..4usize)];
                forms.push(format!("(collect {gen})"));
                forms.push(drain("G"));
                forms.push(drain("H"));
            }
            _ => {
                // Probe every weak car: broken ones print #f.
                forms.push("(for-each (lambda (w) (display (weak-car w)) (newline)) W)".into());
            }
        }
    }
    forms.push("(collect 3)".into());
    forms.push(drain("G"));
    forms.push(drain("H"));
    forms.push("(for-each (lambda (w) (display (weak-car w)) (newline)) W)".into());
    forms
}

struct EvalRun {
    results: Vec<Result<String, String>>,
    output: String,
    counters: Counters,
}

fn run_mode(mode: EvalMode, cfg: &TortureConfig, forms: &[String]) -> EvalRun {
    let mut it = Interp::with_interp_config(InterpConfig {
        gc: gc_config(cfg),
        mode,
    });
    let mut results = Vec::with_capacity(forms.len());
    for f in forms {
        results.push(it.eval_to_string(f).map_err(|e| e.to_string()));
    }
    let s = it.heap().stats();
    let counters = Counters {
        collections: s.collections,
        pairs_allocated: s.pairs_allocated,
        objects_allocated: s.objects_allocated,
        words_allocated: s.words_allocated,
        guardian_registrations: s.guardian_registrations,
        guardian_polls: s.guardian_polls,
        total_words_copied: s.total_words_copied,
        total_guardian_entries_visited: s.total_guardian_entries_visited,
        total_weak_pairs_scanned: s.total_weak_pairs_scanned,
    };
    EvalRun {
        results,
        output: it.take_output(),
        counters,
    }
}

/// Runs the seed's Scheme workload under the VM and under the oracle,
/// comparing every observable. Returns the VM's stats on success.
///
/// # Errors
///
/// The first divergence, as a [`Failure`] whose `op_index` is the index
/// of the diverging top-level form.
pub fn run_scheme_differential(
    seed: u64,
    nforms: usize,
    cfg: &TortureConfig,
) -> Result<SchemeDiffStats, Failure> {
    let forms = scheme_program(seed, nforms);
    let fail = |op_index: usize, message: String| Failure {
        seed: Some(seed),
        op_index,
        op: None,
        message,
    };
    let vm = run_mode(EvalMode::Vm, cfg, &forms);
    let oracle = run_mode(EvalMode::Naive, cfg, &forms);
    for (i, (v, o)) in vm.results.iter().zip(&oracle.results).enumerate() {
        if v != o {
            return Err(fail(
                i,
                format!(
                    "scheme vm diverged from the oracle on form {:?}: {v:?} vs {o:?}",
                    forms[i]
                ),
            ));
        }
    }
    if vm.output != oracle.output {
        return Err(fail(
            forms.len(),
            format!(
                "scheme vm printed different output than the oracle:\n\
                 vm:     {:?}\noracle: {:?}",
                vm.output, oracle.output
            ),
        ));
    }
    Ok(SchemeDiffStats {
        forms: forms.len(),
        counters: vm.counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_generation_is_deterministic() {
        assert_eq!(scheme_program(9, 40), scheme_program(9, 40));
        assert_ne!(scheme_program(9, 40), scheme_program(10, 40));
    }

    #[test]
    fn vm_leg_agrees_on_a_small_seed() {
        let stats = run_scheme_differential(1, 40, &TortureConfig::default())
            .unwrap_or_else(|f| panic!("{f}"));
        let c = stats.counters;
        assert!(c.collections > 0, "workload exercised the collector");
        assert!(c.guardian_polls > 0, "workload drained a guardian");
    }
}
