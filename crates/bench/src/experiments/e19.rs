//! **E19 — Bytecode VM vs the naive oracle: Scheme evaluation throughput.**
//!
//! The paper's measurements run *Scheme programs* on the collector, so
//! interpreter speed bounds how much guardian/collector behaviour an
//! experiment can exercise per second. The production evaluator analyzes
//! each form once into an opcode tree (lexical addressing, vector-backed
//! frames, global inline caches), lowers the tree to flat bytecode — a
//! linear `Vec<Insn>` with u32 operands, fixed frame layouts,
//! jump-resolved control flow — and runs it through a direct-threaded
//! dispatch loop with fused super-instructions and per-call-site inline
//! caches. The oracle re-walks the source list on every evaluation. Both
//! keep every program value on the collected heap and collect at exactly
//! the same safe points, so this experiment times both on the same
//! workloads and checks the printed results are byte-identical — the
//! speedup must come from evaluation mechanics, never from semantics.

use guardians_scheme::{Interp, InterpConfig};
use guardians_workloads::Table;
use std::time::Instant;

/// One workload's outcome under the VM and the oracle.
#[derive(Debug, Clone)]
pub struct E19Row {
    pub workload: &'static str,
    pub iters: usize,
    pub oracle_ns_per_eval: f64,
    pub vm_ns_per_eval: f64,
    /// oracle time / VM time.
    pub speedup: f64,
    /// Both evaluators printed the same result.
    pub identical: bool,
}

/// One timed Scheme program.
pub struct Workload {
    pub name: &'static str,
    /// Definitions evaluated once per interpreter (untimed).
    pub setup: &'static str,
    /// The expression evaluated `iters` times (timed).
    pub driver: &'static str,
}

/// The E19 programs, each with its iteration count (also what `gcprof
/// --scenario e19` profiles).
pub fn workloads(quick: bool) -> Vec<(Workload, usize)> {
    let scale = if quick { 1 } else { 4 };
    vec![
        (
            Workload {
                name: "fib (non-tail recursion)",
                setup: "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
                driver: "(fib 15)",
            },
            8 * scale,
        ),
        (
            Workload {
                name: "list churn (allocation + HOFs)",
                setup: "(define (iota n) \
                          (let lp ((i 0) (acc '())) \
                            (if (= i n) (reverse acc) (lp (+ i 1) (cons i acc))))) \
                        (define (filter p l) \
                          (cond ((null? l) '()) \
                                ((p (car l)) (cons (car l) (filter p (cdr l)))) \
                                (else (filter p (cdr l))))) \
                        (define (churn n) \
                          (length (map (lambda (x) (* x x)) \
                                       (filter odd? (iota n)))))",
                driver: "(churn 250)",
            },
            20 * scale,
        ),
        (
            Workload {
                name: "tail loop (lexical addressing)",
                setup: "(define (tri n) \
                          (do ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i n) s)))",
                driver: "(tri 20000)",
            },
            10 * scale,
        ),
        (
            Workload {
                name: "guardian churn (collects at safe points)",
                setup: "(define (gchurn n) \
                          (let ((g (make-guardian))) \
                            (let lp ((i 0)) \
                              (unless (= i n) (g (cons i i)) (lp (+ i 1)))) \
                            (collect 3) \
                            (let drain ((k 0)) \
                              (if (g) (drain (+ k 1)) k))))",
                driver: "(gchurn 500)",
            },
            6 * scale,
        ),
    ]
}

fn time_mode(config: InterpConfig, w: &Workload, iters: usize) -> (f64, String) {
    let mut it = Interp::with_interp_config(config);
    it.eval_str(w.setup).expect("workload setup evaluates");
    // One untimed evaluation to warm inline caches and the code table.
    let mut result = it.eval_to_string(w.driver).expect("workload runs");
    let start = Instant::now();
    for _ in 0..iters {
        result = it.eval_to_string(w.driver).expect("workload runs");
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    (ns, result)
}

/// Re-runs the list-churn workload once under the VM with the heap's
/// allocation-site profile enabled and summarizes the top sites — the
/// observability layer's answer to "where do the words come from?".
/// Untimed; runs outside the measured loops so the telemetry cannot
/// perturb the table's numbers.
fn churn_site_summary() -> String {
    let (w, _) = workloads(true).swap_remove(1);
    let mut it = Interp::new();
    it.eval_str(w.setup).expect("workload setup evaluates");
    it.heap_mut().enable_site_profile();
    it.eval_to_string(w.driver).expect("workload runs");
    let sites = it.heap_mut().take_site_profile();
    let total: u64 = sites.iter().map(|(_, s)| s.words).sum();
    let parts: Vec<String> = sites
        .iter()
        .take(3)
        .map(|(name, s)| {
            format!(
                "{name} {:.0}%",
                100.0 * s.words as f64 / total.max(1) as f64
            )
        })
        .collect();
    format!("{} of {total} words", parts.join(", "))
}

/// Geometric mean of the per-workload speedups.
pub fn geomean_speedup(rows: &[E19Row]) -> f64 {
    let log_sum: f64 = rows.iter().map(|r| r.speedup.ln()).sum();
    (log_sum / rows.len().max(1) as f64).exp()
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, Vec<E19Row>) {
    let mut table = Table::new(
        "E19: bytecode VM vs the naive oracle, Scheme evaluation throughput",
        &[
            "workload",
            "iters",
            "oracle us/eval",
            "vm us/eval",
            "speedup",
            "identical",
        ],
    );
    table.exact(&["workload", "iters", "identical"]);
    let mut rows = Vec::new();
    for (w, iters) in workloads(quick) {
        let (oracle_ns, oracle_result) = time_mode(InterpConfig::naive(), &w, iters);
        let (vm_ns, vm_result) = time_mode(InterpConfig::vm(), &w, iters);
        let row = E19Row {
            workload: w.name,
            iters,
            oracle_ns_per_eval: oracle_ns,
            vm_ns_per_eval: vm_ns,
            speedup: oracle_ns / vm_ns,
            identical: oracle_result == vm_result,
        };
        table.row(&[
            w.name.to_string(),
            format!("{}", row.iters),
            format!("{:.0}", row.oracle_ns_per_eval / 1e3),
            format!("{:.0}", row.vm_ns_per_eval / 1e3),
            format!("{:.2}x", row.speedup),
            if row.identical { "yes" } else { "NO" }.to_string(),
        ]);
        rows.push(row);
    }
    table.note(super::env_note(1, None));
    table.note(format!(
        "geomean speedup across workloads: {:.2}x",
        geomean_speedup(&rows)
    ));
    table.note("vm = one-time syntax analysis (analyze.rs) lowered to flat bytecode (compile.rs) run by a direct-threaded dispatch loop with fused super-instructions and per-call-site inline caches (vm.rs); oracle = the cons-walking reference evaluator (InterpConfig::naive)");
    table.note("both run the same heap configuration and collect at the same safe points (every application); 'identical' checks the printed results match byte for byte");
    table.note(format!(
        "vm allocation attribution for the list-churn workload (per-insn site profile): {}",
        churn_site_summary()
    ));
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_summary_attributes_the_churn_to_application_frames() {
        let s = churn_site_summary();
        // cons/map/filter allocation happens while applying procedures,
        // so the call insns dominate the attribution.
        assert!(s.starts_with("scheme.app "), "summary: {s}");
    }

    #[test]
    fn vm_matches_the_oracle_and_is_faster() {
        let (_t, rows) = run(true);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.identical, "{}: results diverged", row.workload);
            assert!(
                row.speedup > 1.0,
                "{}: vm ({:.0} ns) not faster than the oracle ({:.0} ns)",
                row.workload,
                row.vm_ns_per_eval,
                row.oracle_ns_per_eval
            );
        }
    }
}
