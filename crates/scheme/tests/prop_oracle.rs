//! Differential tests: the bytecode VM must be observationally identical
//! to the naive cons-walking evaluator (the reference oracle) — same
//! results, same error messages, same printed output, and same guardian
//! / weak-pair observables, since both place their collection safe point
//! at every procedure application.
//!
//! The oracle allocates differently by design (association-list
//! environments), so heap counters are not compared here; the VM's own
//! allocation sequence is pinned by the golden table in
//! `crates/torture/tests/scheme_counters.rs`.
//!
//! Random programs are produced by a byte-driven builder that only emits
//! well-formed, terminating forms with correct scoping (so the VM's
//! analysis-time error reporting — a documented divergence for malformed
//! input — never comes into play). Runtime errors (type errors, arity,
//! unbound globals) are fair game and must match byte for byte.

use guardians_scheme::{EvalMode, Interp, InterpConfig};
use proptest::prelude::*;

/// Evaluates `forms` one at a time, collecting each printed result or
/// error string and everything written to the simulated OS.
fn run_mode(config: InterpConfig, forms: &[String]) -> (Vec<Result<String, String>>, String) {
    let mut it = Interp::with_interp_config(config);
    let mut results = Vec::new();
    for f in forms {
        results.push(it.eval_to_string(f).map_err(|e| e.to_string()));
    }
    (results, it.take_output())
}

/// The VM and the oracle agree on every observable.
fn assert_identical(forms: &[String]) {
    assert_identical_under(
        &guardians_gc::GcConfig::default(),
        "the default engine",
        forms,
    );
}

fn assert_identical_under(gc: &guardians_gc::GcConfig, engine: &str, forms: &[String]) {
    let config = |mode| InterpConfig {
        gc: gc.clone(),
        mode,
    };
    let vm = run_mode(config(EvalMode::Vm), forms);
    let oracle = run_mode(config(EvalMode::Naive), forms);
    assert_eq!(
        vm,
        oracle,
        "vm/oracle diverged under {engine} on:\n{}",
        forms.join("\n")
    );
}

// ---------------------------------------------------------------------
// Byte-driven program builder
// ---------------------------------------------------------------------

/// Consumes fuel bytes and emits well-formed Scheme. Scoping is tracked
/// so every variable reference is bound; loops are bounded by small
/// literal counters, so every program terminates.
struct Gen<'a> {
    bytes: &'a [u8],
    pos: usize,
    scope: Vec<String>,
    next_var: usize,
}

impl<'a> Gen<'a> {
    fn new(bytes: &'a [u8]) -> Gen<'a> {
        Gen {
            bytes,
            pos: 0,
            scope: vec!["g0".into(), "g1".into()],
            next_var: 0,
        }
    }

    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn fresh(&mut self) -> String {
        let v = format!("v{}", self.next_var);
        self.next_var += 1;
        v
    }

    fn atom(&mut self) -> String {
        let b = self.next();
        match b % 8 {
            0 => format!("{}", (b as i64) - 128),
            1 => "#t".into(),
            2 => "#f".into(),
            3 => "'sym".into(),
            4 => "\"str\"".into(),
            5 => "'(1 2 3)".into(),
            _ => {
                // A bound variable; the scope is never empty.
                let i = (b as usize) % self.scope.len();
                self.scope[i].clone()
            }
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 {
            return self.atom();
        }
        let b = self.next();
        match b % 17 {
            0 => self.atom(),
            1 => format!(
                "(if {} {} {})",
                self.expr(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            2 => {
                let v = self.fresh();
                let init = self.expr(depth - 1);
                self.scope.push(v.clone());
                let body = self.expr(depth - 1);
                self.scope.pop();
                format!("(let (({v} {init})) {body})")
            }
            3 => {
                let v = self.fresh();
                let arg = self.expr(depth - 1);
                self.scope.push(v.clone());
                let body = self.expr(depth - 1);
                self.scope.pop();
                format!("((lambda ({v}) {body}) {arg})")
            }
            4 => {
                // Bounded named let: counts down from a small literal.
                let i = self.fresh();
                let n = (b % 3) + 1;
                self.scope.push(i.clone());
                let body = self.expr(depth - 1);
                self.scope.pop();
                format!("(let lp (({i} {n})) (if (< {i} 1) {body} (lp (- {i} 1))))")
            }
            5 => format!("(+ {} {})", self.expr(depth - 1), self.expr(depth - 1)),
            6 => format!("(cons {} {})", self.expr(depth - 1), self.expr(depth - 1)),
            7 => format!("(car (cons {} 0))", self.expr(depth - 1)),
            8 => format!(
                "`(a ,{} ,@(list {}) c)",
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            9 => format!("(and {} {})", self.expr(depth - 1), self.expr(depth - 1)),
            10 => format!("(or {} {})", self.expr(depth - 1), self.expr(depth - 1)),
            11 => format!(
                "(cond ((pair? {}) => car) ({} {}) (else {}))",
                self.expr(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            12 => format!(
                "(case {} ((1 2) {}) ((sym) 'hit) (else {}))",
                self.expr(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            13 => {
                // set! on a bound variable, then read it back.
                let i = (b as usize) % self.scope.len();
                let var = self.scope[i].clone();
                let val = self.expr(depth - 1);
                format!("(begin (set! {var} {val}) {var})")
            }
            14 => {
                // Bounded do loop accumulating into a second variable.
                let i = self.fresh();
                let acc = self.fresh();
                let n = (b % 3) + 1;
                self.scope.push(acc.clone());
                let step = self.expr(depth - 1);
                self.scope.pop();
                format!(
                    "(do (({i} 0 (+ {i} 1)) ({acc} 0 (begin {step} {acc}))) \
                     ((= {i} {n}) {acc}))"
                )
            }
            15 => format!(
                "`(n `(m ,(k ,{})) #(v ,{}) . ,{})",
                self.expr(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            _ => {
                let parts: Vec<String> = (0..2 + (b % 2)).map(|_| self.expr(depth - 1)).collect();
                format!("(begin {})", parts.join(" "))
            }
        }
    }

    /// A whole program: global defines (establishing `g0`/`g1`), a guard
    /// of expression forms, and a display so output is compared too.
    fn program(&mut self) -> Vec<String> {
        let mut forms = vec![
            format!("(define g0 {})", self.expr(1)),
            format!("(define g1 {})", self.expr(2)),
        ];
        let n_forms = 1 + (self.next() % 4);
        for _ in 0..n_forms {
            forms.push(self.expr(3));
        }
        forms.push(format!("(display {})", self.expr(2)));
        forms
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random well-formed programs evaluate identically in both modes.
    #[test]
    fn vm_and_oracle_agree(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let forms = Gen::new(&bytes).program();
        assert_identical(&forms);
    }

    /// Random guardian workloads: register objects, drop references,
    /// collect, and drain — the resurrection order and weak-pair
    /// breaking must match between modes, since both collect at the
    /// same safe points.
    #[test]
    fn guardian_observables_agree(
        n_objs in 1usize..6,
        drop_mask in any::<u8>(),
        gens in proptest::collection::vec(0usize..5, 1..4),
    ) {
        let mut forms = vec![
            "(define G (make-guardian))".to_string(),
            "(define W '())".to_string(),
        ];
        for i in 0..n_objs {
            forms.push(format!("(define x{i} (cons {i} 'payload))"));
            forms.push(format!("(G x{i})"));
            forms.push(format!("(set! W (cons (weak-cons x{i} {i}) W))"));
        }
        for i in 0..n_objs {
            if drop_mask & (1 << i) != 0 {
                forms.push(format!("(set! x{i} #f)"));
            }
        }
        for g in &gens {
            forms.push(format!("(collect {g})"));
            forms.push(
                "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))"
                    .to_string(),
            );
            forms.push("(for-each (lambda (w) (display (car w))) W)".to_string());
        }
        assert_identical(&forms);
    }
}

// ---------------------------------------------------------------------
// Fixed differential transcripts (paper §2–§3 shapes)
// ---------------------------------------------------------------------

#[test]
fn paper_first_transcript_agrees() {
    assert_identical(&[
        "(define G (make-guardian))".into(),
        "(define x (cons 'a 'b))".into(),
        "(G x)".into(),
        "(G)".into(),
        "(set! x #f)".into(),
        "(collect 3)".into(),
        "(G)".into(),
        "(G)".into(),
    ]);
}

#[test]
fn weak_pairs_and_guardians_interact_identically() {
    assert_identical(&[
        "(define G (make-guardian))".into(),
        "(define w (weak-cons (cons 1 2) 'tail))".into(),
        "(G (car w))".into(),
        "(collect 3)".into(),
        "(car w)".into(), // guardian keeps it alive: still (1 . 2)
        "(define saved (G))".into(),
        "saved".into(),
        "(collect 3)".into(),
        "(car w)".into(), // saved still references it
        "(set! saved #f)".into(),
        "(collect 3)".into(),
        "(car w)".into(), // now broken
    ]);
}

#[test]
fn collect_request_handler_runs_identically() {
    assert_identical(&[
        "(define count 0)".into(),
        "(collect-request-handler (lambda () (set! count (+ count 1)) (collect)))".into(),
        "(define (churn n) (if (zero? n) '() (cons (make-string 64 #\\x) (churn (- n 1)))))".into(),
        "(define sink #f)".into(),
        "(let lp ((i 40)) (unless (zero? i) (set! sink (churn 100)) (lp (- i 1))))".into(),
        "(> count 0)".into(),
        "(begin count #t)".into(), // handler ran the same number of times
    ]);
}

#[test]
fn runtime_errors_match_byte_for_byte() {
    for src in [
        "nope",
        "(set! nope 1)",
        "(1 2)",
        "(car 1 2)",
        "((lambda (a) a) 1 2)",
        "(let lp ((i 0)) (lp))",
        "(letrec ((a b) (b 1)) a)",
        "(define (f) (g)) (f)",
        "(+ 'a 1)",
        "(vector-ref (vector 1) 5)",
    ] {
        let forms = vec![src.to_string()];
        assert_identical(&forms);
    }
}

/// Syntax lists with an improper tail are malformed under both
/// evaluators, with one message: the analyzer's item walk refuses the
/// tail at each binding, clause, argument and body list, and so does the
/// oracle's loop over the same list.
#[test]
fn improper_syntax_lists_are_malformed_in_both() {
    for src in [
        "(let 5 1)",
        "(let* 7 3)",
        "(let ((a 1) . 7) a)",
        "(+ 1 . 2)",
        "(and 1 . 2)",
        "(or #f . 2)",
        "(begin 1 . 2)",
        "((lambda () 1 . 2))",
        "(let () 1 . 2)",
        "(when #t 1 . 2)",
        "(let car car 1)",
        "(letrec 7 2)",
        "(do 7 (#t 4))",
        "(do ((i 0 (+ i 1)) . 7) ((= i 2) i))",
    ] {
        for config in [InterpConfig::vm(), InterpConfig::naive()] {
            let mode = config.mode;
            let mut it = Interp::with_interp_config(config);
            let outcome = it.eval_to_string(src).map_err(|e| e.message().to_string());
            assert_eq!(
                outcome,
                Err("malformed form".into()),
                "{src} under {mode:?}"
            );
        }
    }
}

/// Each rule of the oracle's template walker, which is the
/// specification the VM's template lowering follows, checked by value and
/// VM against oracle stop-the-world and under pause budgets of 0 and
/// 100 µs; the heap verifies after every run.
#[test]
fn quasiquote_rules_agree_across_gc_engines() {
    use guardians_gc::GcConfig;
    use std::time::Duration;

    let table: &[(&str, Result<&str, &str>)] = &[
        ("(define (f) `(\"s\" (b) #(c)))", Ok("#<void>")),
        // Atoms are shared with the template; pairs and vectors are
        // rebuilt on every evaluation.
        ("(eq? (car (f)) (car (f)))", Ok("#t")),
        (
            "(list (eq? (f) (f)) (eq? (cadr (f)) (cadr (f))) (eq? (caddr (f)) (caddr (f))))",
            Ok("(#f #f #f)"),
        ),
        (
            "(let ((x (f))) (set-car! (cadr x) 9) (f))",
            Ok("(\"s\" (b) #(c))"),
        ),
        // `(unquote a b)` evaluates `a` and drops `b`, at depth 2 too.
        ("`(1 (unquote (+ 1 1) (display \"dropped\")))", Ok("(1 2)")),
        (
            "`(1 `(2 (unquote (x) y)))",
            Ok("(1 (quasiquote (2 (unquote (x)))))"),
        ),
        (
            "`(1 (unquote))",
            Err("malformed form: too few subexpressions"),
        ),
        // Depth 2 and 3 rebuild `(unquote X)` and `(quasiquote X)`.
        (
            "`(a `(b ,(c ,(+ 1 2))))",
            Ok("(a (quasiquote (b (unquote (c 3)))))"),
        ),
        (
            "`(1 `(2 `(3 ,(4 ,(5 ,(+ 2 3))))))",
            Ok("(1 (#0=quasiquote (2 (#0# (3 (#1=unquote (4 (#1# (5 5)))))))))"),
        ),
        // Dotted tails.
        ("(let ((b 2)) `(a . ,b))", Ok("(a . 2)")),
        ("`(1 . ,(list 2 3))", Ok("(1 2 3)")),
        ("`(1 2 . c)", Ok("(1 2 . c)")),
        // Splices at the head, the middle and the end, each a copy.
        ("`(,@(list 1 2) 3)", Ok("(1 2 3)")),
        ("`(0 ,@(list 1 2) 3)", Ok("(0 1 2 3)")),
        ("(define l (list 1 2))", Ok("#<void>")),
        ("(list `(0 ,@l) (eq? (cdr `(0 ,@l)) l))", Ok("((0 1 2) #f)")),
        ("`(1 ,@'() 2)", Ok("(1 2)")),
        ("`(,@'())", Ok("()")),
        ("`(1 ,@(cons 2 3))", Err("unquote-splicing: not a list")),
        (
            "`(,(display \"a\") ,@5 ,(display \"b\"))",
            Err("unquote-splicing: not a list"),
        ),
        // `,@` in a vector or at depth 2 is data and keeps the depth.
        (
            "`#(1 ,@(list 2 3))",
            Ok("#(1 (unquote-splicing (list 2 3)))"),
        ),
        (
            "`#(,@(list ,(+ 1 2)))",
            Ok("#((unquote-splicing (list 3)))"),
        ),
        (
            "`(1 `(2 ,@(list ,(+ 1 2))))",
            Ok("(1 (quasiquote (2 (unquote-splicing (list (unquote (+ 1 2)))))))"),
        ),
        // A later unquote mutating an already-spliced list.
        ("`(,@l ,(begin (set-car! l 99) 'x) ,@l)", Ok("(1 2 x 99 2)")),
        // Left to right, through splices, vectors, depth 2 and the tail.
        ("(define n 0)", Ok("#<void>")),
        ("(define (tick) (set! n (+ n 1)) n)", Ok("#<void>")),
        (
            "`(,(tick) ,@(list (tick) (tick)) #(,(tick)) `(,(tick) ,,(tick)) . ,(tick))",
            Ok("(1 2 3 #(4) (quasiquote ((#0=unquote (tick)) (#0# 5))) . 6)"),
        ),
        // A collection mid-template, with a guardian holding a dropped
        // object: the partly built template survives it.
        ("(define G (make-guardian))", Ok("#<void>")),
        ("(define x (cons 'a 'b))", Ok("#<void>")),
        ("(G x)", Ok("#<void>")),
        (
            "`(,(list 1 2) ,@(list 3 4) ,(begin (set! x #f) (collect 3) (G)) \
              #(,(string-append \"z\" \"z\") ,(collect 3)) ,@(list 5) . ,(G))",
            Ok("((1 2) 3 4 (a . b) #(\"zz\" #<void>) 5 . #f)"),
        ),
    ];
    let engines: [(&str, GcConfig); 3] = [
        ("serial", GcConfig::default()),
        (
            "pause_budget=0",
            GcConfig {
                pause_budget: Some(Duration::ZERO),
                ..GcConfig::default()
            },
        ),
        (
            "pause_budget=100us",
            GcConfig {
                pause_budget: Some(Duration::from_micros(100)),
                ..GcConfig::default()
            },
        ),
    ];
    let want: Vec<Result<String, String>> = table
        .iter()
        .map(|(_, r)| r.map(String::from).map_err(String::from))
        .collect();
    for (engine, gc) in engines {
        let run = |mode| {
            let mut it = Interp::with_interp_config(InterpConfig {
                gc: gc.clone(),
                mode,
            });
            let results: Vec<Result<String, String>> = table
                .iter()
                .map(|(src, _)| it.eval_to_string(src).map_err(|e| e.message().to_string()))
                .collect();
            it.heap().verify().expect("heap valid afterwards");
            (results, it.take_output())
        };
        let vm = run(EvalMode::Vm);
        assert_eq!(
            vm,
            run(EvalMode::Naive),
            "vm/oracle diverged under {engine}"
        );
        for ((src, _), (got, want)) in table.iter().zip(vm.0.iter().zip(&want)) {
            assert_eq!(got, want, "{src} under {engine}");
        }
        assert_eq!(vm.1, "a", "only the unquote before the bad splice ran");
    }
}

/// A quasiquoted vector past a zone's segment quota is the same Scheme
/// error under both evaluators, as `make-vector` is, and both go on
/// evaluating. The template is read within the quota; its copy is not.
#[test]
fn quasiquoted_vector_past_a_quota_fails_identically() {
    use guardians_gc::{GcConfig, Heap, SegmentPool};
    let big = format!("`#({})", "0 ".repeat(20_000));
    let forms = [big.as_str(), "(vector-length `#(1 ,(+ 1 1)))"];
    let run = |mode| {
        let heap = Heap::with_pool(GcConfig::new(), SegmentPool::unbounded(), Some(64));
        let mut it = Interp::with_heap(heap, mode);
        let results: Vec<Result<String, String>> = forms
            .iter()
            .map(|f| {
                it.eval_to_string(f).map_err(|e| {
                    let e = e.message().to_string();
                    e.split_once(": needs")
                        .map_or(&*e, |(head, _)| head)
                        .to_string()
                })
            })
            .collect();
        (results, it.take_output())
    };
    let vm = run(EvalMode::Vm);
    assert_eq!(
        vm,
        run(EvalMode::Naive),
        "vm/oracle diverged past the quota"
    );
    assert_eq!(
        vm.0,
        [
            Err("quasiquote: heap exhausted".to_string()),
            Ok("2".to_string())
        ]
    );
}

/// `make-vector` past a zone's segment quota is the same Scheme error under
/// both evaluators, and both go on evaluating.
#[test]
fn make_vector_past_a_quota_fails_identically() {
    use guardians_gc::{GcConfig, Heap, SegmentPool};
    let forms = [
        "(define v (make-vector 100000 0))",
        "(vector-length (make-vector 1000 7))",
        "(vector-ref (make-vector 3 'x) 2)",
    ];
    let run = |mode| {
        let heap = Heap::with_pool(GcConfig::new(), SegmentPool::unbounded(), Some(64));
        let mut it = Interp::with_heap(heap, mode);
        let results: Vec<Result<String, String>> = forms
            .iter()
            .map(|f| it.eval_to_string(f).map_err(|e| e.to_string()))
            .collect();
        (results, it.take_output())
    };
    let vm = run(EvalMode::Vm);
    assert_eq!(
        vm,
        run(EvalMode::Naive),
        "vm/oracle diverged past the quota"
    );
    assert!(vm.0[0]
        .as_ref()
        .is_err_and(|e| e.contains("heap exhausted")));
    assert_eq!(vm.0[1..], [Ok("1000".to_string()), Ok("x".to_string())]);
}

/// A string doubled past a zone's segment quota is the same Scheme error
/// from `string-append` under both evaluators, and both go on evaluating.
/// The error's segment counts are cut off before comparing: how many
/// segments are left depends on each evaluator's own garbage.
#[test]
fn string_append_past_a_quota_fails_identically() {
    use guardians_gc::{GcConfig, Heap, SegmentPool};
    let forms = [
        "(define (grow s i) (if (< i 20) (grow (string-append s s) (+ i 1)) (string-length s)))",
        "(grow \"x\" 0)",
        "(substring (string-append \"ab\" \"cd\") 1 3)",
        "(vector-ref (list->vector (list 1 2 3)) 2)",
        "(vector-length (vector 'a 'b))",
    ];
    let run = |mode| {
        let heap = Heap::with_pool(GcConfig::new(), SegmentPool::unbounded(), Some(64));
        let mut it = Interp::with_heap(heap, mode);
        let results: Vec<Result<String, String>> = forms
            .iter()
            .map(|f| {
                it.eval_to_string(f).map_err(|e| {
                    let e = e.to_string();
                    e.split_once(": needs")
                        .map_or(&*e, |(head, _)| head)
                        .to_string()
                })
            })
            .collect();
        (results, it.take_output())
    };
    let vm = run(EvalMode::Vm);
    assert_eq!(
        vm,
        run(EvalMode::Naive),
        "vm/oracle diverged past the quota"
    );
    assert_eq!(
        vm.0[1],
        Err("scheme error: string-append: heap exhausted".to_string())
    );
    assert_eq!(
        vm.0[2..],
        [
            Ok("\"bc\"".to_string()),
            Ok("3".to_string()),
            Ok("2".to_string())
        ]
    );
}

/// Improper and circular lists handed to the list primitives are Scheme
/// errors — the same one under both evaluators — never a panic or a hang.
#[test]
fn improper_and_circular_lists_are_errors_in_both() {
    let forms: Vec<String> = [
        "(reverse '(1 . 2))",
        "(reverse 5)",
        "(append '(1 . 2) '(3))",
        "(append 5 '(1))",
        "(memq 3 '(1 . 2))",
        "(memv 3 '(1 . 2))",
        "(member 3 '(1 . 2))",
        "(assq 1 '(1 . 2))",
        "(assoc 1 '((2 . 3) . 4))",
        "(remq 1 '(1 . 2))",
        "(remq 1 5)",
        "(length '(1 . 2))",
        "(list->vector '(1 . 2))",
        "(apply + '(1 . 2))",
        "(define x (list 1 2))",
        "(set-cdr! (cdr x) x)",
        "(length x)",
        "(list->vector x)",
        "(reverse x)",
        "(append x '(3))",
        "(remq 1 x)",
        "(apply + x)",
        "(list? x)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_identical(&forms);
    let (results, _) = run_mode(InterpConfig::default(), &forms);
    for (form, result) in forms.iter().zip(&results) {
        match form.as_str() {
            "(define x (list 1 2))" | "(set-cdr! (cdr x) x)" => assert!(result.is_ok(), "{form}"),
            "(list? x)" => assert_eq!(result.as_deref(), Ok("#f")),
            _ => {
                let e = result.as_ref().expect_err(form);
                assert!(e.contains("not a proper list"), "{form}: {e}");
            }
        }
    }
}

/// Integers at and just past the fixnum range (±2^60), read or computed:
/// both evaluators return the same number, a flonum past the range.
#[test]
fn fixnum_boundaries_agree() {
    let forms: Vec<String> = [
        "1152921504606846975",
        "1152921504606846976",
        "-1152921504606846976",
        "-1152921504606846977",
        "(+ 1152921504606846975 1)",
        "(- -1152921504606846976 1)",
        "(* 1152921504606846975 2)",
        "(- -1152921504606846976)",
        "(quotient -1152921504606846976 -1)",
        "(abs -1152921504606846976)",
        "(define big (+ 1152921504606846975 1))",
        "(list big (number? big) (- big 1) (< 1152921504606846975 big))",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_identical(&forms);
}

#[test]
fn deep_recursion_error_matches() {
    assert_identical(&[
        "(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1)))))".into(),
        "(sum 100000)".into(),
        "(+ 1 2)".into(), // both interpreters recover
    ]);
}

/// A guardian/weak/tconc-heavy transcript stop-the-world and under a
/// 100 µs pause budget, with byte-identical observables in every cell.
#[test]
fn vm_and_oracle_agree_across_gc_engines() {
    use guardians_gc::GcConfig;
    use std::time::Duration;

    let forms: Vec<String> = [
        "(define G (make-guardian))",
        "(define H (make-guardian))",
        "(define W '())",
        "(define (churn n) (if (zero? n) '() (cons (make-string 64 #\\x) (churn (- n 1)))))",
        "(define keep '())",
        "(let lp ((i 0)) (when (< i 24) \
           (let ((x (cons i 'payload))) \
             (G x) \
             (when (even? i) (H x x)) \
             (set! W (cons (weak-cons x i) W)) \
             (when (zero? (modulo i 3)) (set! keep (cons x keep)))) \
           (set! keep (cons (churn 40) keep)) \
           (when (> (length keep) 4) (set! keep (list (car keep)))) \
           (lp (+ i 1))))",
        "(collect 3)",
        "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
        "(let lp ((v (H))) (when v (display v) (display \" \") (lp (H))))",
        "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
        "(collect 3)",
        "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
        "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let engines: [(&str, GcConfig); 2] = [
        ("serial", GcConfig::default()),
        (
            "pause_budget=100us",
            GcConfig {
                pause_budget: Some(Duration::from_micros(100)),
                ..GcConfig::default()
            },
        ),
    ];
    for (engine, gc) in engines {
        assert_identical_under(&gc, engine, &forms);
    }
}

/// Closures made and called from every context that creates one:
/// `lambda`, `case-lambda`, a `let` init, named `let`, `do`, a
/// quasiquote unquote site, a `define-record-type` expansion (at top
/// level and in a body), and a lambda nested in a lambda.
#[test]
fn closures_from_every_creation_context_agree() {
    assert_identical(&[
        "(define (adder n) (lambda (x) (+ x n)))".into(),
        "((adder 3) 4)".into(),
        "((lambda (f) (f (f 1))) (lambda (x) (* x 10)))".into(),
        "(define pick (case-lambda ((a) (lambda () a)) ((a b . r) (lambda () (list a b r)))))"
            .into(),
        "(list ((pick 1)) ((pick 1 2 3 4)))".into(),
        "(let ((twice (lambda (f) (lambda (x) (f (f x)))))) ((twice (adder 5)) 0))".into(),
        "(let lp ((i 0) (fs '())) \
           (if (= i 3) (map (lambda (f) (f)) fs) (lp (+ i 1) (cons (lambda () (* i i)) fs))))"
            .into(),
        "(do ((i 0 (+ i 1)) (fs '() (cons (lambda (k) (+ k i)) fs))) \
           ((= i 3) (map (lambda (f) (f 100)) fs)))"
            .into(),
        "`(a ,((lambda (x) (+ x 1)) 1) ,@(map (lambda (x) (* x x)) '(2 3)))".into(),
        "(let ((q `(,(lambda () 'from-a-site)))) ((car q)))".into(),
        "(define-record-type point (make-point x y) point? (x point-x set-point-x!) (y point-y))"
            .into(),
        "(let ((p (make-point 1 2))) (set-point-x! p 5) \
           (list (point-x p) (point-y p) (point? p) (point? 1) (map point-y (list p p))))"
            .into(),
        "((lambda () (define-record-type box (make-box v) box? (v box-v)) \
           (box-v (make-box (lambda () 7)))))"
            .into(),
        "(((lambda () (define-record-type box (make-box v) box? (v box-v)) \
           (box-v (make-box (lambda () 7))))))"
            .into(),
        "(define (counter) (let ((n 0)) (lambda () (set! n (+ n 1)) n)))".into(),
        "(let ((c (counter))) (c) (c) (c))".into(),
    ]);
}

#[test]
fn tail_calls_do_not_grow_either_stack() {
    assert_identical(&[
        "(define (count n acc) (if (zero? n) acc (count (- n 1) (+ acc 1))))".into(),
        "(count 100000 0)".into(),
        "(do ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i 1000) s))".into(),
    ]);
}
