//! Core language behaviour of the interpreter.

use guardians_gc::GcConfig;
use guardians_scheme::{Interp, InterpConfig};

fn eval(src: &str) -> String {
    let mut i = Interp::new();
    i.eval_to_string(src)
        .unwrap_or_else(|e| panic!("eval of {src:?} failed: {e}"))
}

#[test]
fn self_evaluating_and_quote() {
    assert_eq!(eval("42"), "42");
    assert_eq!(eval("#t"), "#t");
    assert_eq!(eval("\"hi\""), "\"hi\"");
    assert_eq!(eval("'sym"), "sym");
    assert_eq!(eval("'(1 2 3)"), "(1 2 3)");
    assert_eq!(eval("3.25"), "3.25");
    assert_eq!(eval("#\\a"), "#\\a");
}

#[test]
fn arithmetic() {
    assert_eq!(eval("(+ 1 2 3)"), "6");
    assert_eq!(eval("(- 10 3 2)"), "5");
    assert_eq!(eval("(- 5)"), "-5");
    assert_eq!(eval("(* 2 3 4)"), "24");
    assert_eq!(eval("(quotient 17 5)"), "3");
    assert_eq!(eval("(remainder 17 5)"), "2");
    assert_eq!(eval("(modulo -7 3)"), "2");
    assert_eq!(eval("(+ 1 2.5)"), "3.5");
    assert_eq!(eval("(max 3 1 4 1 5)"), "5");
    assert_eq!(eval("(min 3 1 4)"), "1");
    assert_eq!(eval("(abs -9)"), "9");
}

#[test]
fn comparisons_and_predicates() {
    assert_eq!(eval("(< 1 2 3)"), "#t");
    assert_eq!(eval("(< 1 3 2)"), "#f");
    assert_eq!(eval("(= 2 2 2)"), "#t");
    assert_eq!(eval("(>= 3 3 2)"), "#t");
    assert_eq!(eval("(zero? 0)"), "#t");
    assert_eq!(eval("(eq? 'a 'a)"), "#t");
    assert_eq!(eval("(eq? (cons 1 2) (cons 1 2))"), "#f");
    assert_eq!(eval("(equal? (list 1 2) (list 1 2))"), "#t");
    assert_eq!(eval("(equal? #(1 2) #(1 2))"), "#t");
    assert_eq!(eval("(eqv? 1.5 1.5)"), "#t");
    assert_eq!(eval("(not #f)"), "#t");
    assert_eq!(eval("(pair? '(1))"), "#t");
    assert_eq!(eval("(null? '())"), "#t");
    assert_eq!(eval("(symbol? 'x)"), "#t");
    assert_eq!(eval("(procedure? car)"), "#t");
    assert_eq!(eval("(procedure? (lambda (x) x))"), "#t");
}

#[test]
fn definitions_and_assignment() {
    assert_eq!(eval("(define x 10) (set! x (+ x 1)) x"), "11");
    assert_eq!(eval("(define (square n) (* n n)) (square 7)"), "49");
    assert_eq!(
        eval("(define (f a . rest) (cons a rest)) (f 1 2 3)"),
        "(1 2 3)"
    );
}

#[test]
fn lambdas_and_closures() {
    assert_eq!(eval("((lambda (x y) (+ x y)) 3 4)"), "7");
    assert_eq!(
        eval("(define (adder n) (lambda (m) (+ n m))) ((adder 10) 5)"),
        "15"
    );
    // Closures share mutable state through their environment.
    assert_eq!(
        eval(
            "(define (counter)
               (let ([n 0])
                 (lambda () (set! n (+ n 1)) n)))
             (define c (counter))
             (c) (c) (c)"
        ),
        "3"
    );
}

#[test]
fn case_lambda_as_in_the_papers_make_guardian() {
    assert_eq!(
        eval(
            "(define f (case-lambda
               [() 'none]
               [(x) x]
               [(x . rest) (cons x rest)]))
             (list (f) (f 1) (f 1 2 3))"
        ),
        "(none 1 (1 2 3))"
    );
}

#[test]
fn let_forms() {
    assert_eq!(eval("(let ([x 1] [y 2]) (+ x y))"), "3");
    assert_eq!(eval("(let* ([x 1] [y (+ x 1)]) (* x y))"), "2");
    assert_eq!(
        eval(
            "(letrec ([even? (lambda (n) (if (zero? n) #t (odd? (- n 1))))]
                       [odd? (lambda (n) (if (zero? n) #f (even? (- n 1))))])
               (even? 10))"
        ),
        "#t"
    );
    // Named let — the loop idiom Figure 1 depends on.
    assert_eq!(
        eval(
            "(let loop ([i 0] [acc '()])
               (if (= i 5) (reverse acc) (loop (+ i 1) (cons i acc))))"
        ),
        "(0 1 2 3 4)"
    );
    // let bindings do not see each other (unlike let*).
    assert_eq!(
        eval("(define x 'outer) (let ([x 'inner] [y x]) y)"),
        "outer"
    );
}

#[test]
fn conditionals() {
    assert_eq!(eval("(if #t 1 2)"), "1");
    assert_eq!(eval("(if #f 1 2)"), "2");
    assert_eq!(eval("(if #f 1)"), "#<void>");
    assert_eq!(eval("(if '() 'nil-is-true 'nope)"), "nil-is-true");
    assert_eq!(eval("(cond [#f 1] [(= 1 1) 2] [else 3])"), "2");
    assert_eq!(eval("(cond [#f 1] [else 3])"), "3");
    assert_eq!(eval("(cond [42])"), "42");
    assert_eq!(eval("(and 1 2 3)"), "3");
    assert_eq!(eval("(and 1 #f 3)"), "#f");
    assert_eq!(eval("(and)"), "#t");
    assert_eq!(eval("(or #f 2)"), "2");
    assert_eq!(eval("(or #f #f)"), "#f");
    assert_eq!(eval("(or)"), "#f");
    assert_eq!(eval("(when (= 1 1) 'a 'b)"), "b");
    assert_eq!(eval("(unless (= 1 1) 'a)"), "#<void>");
}

#[test]
fn proper_tail_calls_run_in_constant_stack() {
    // 100k iterations would blow the Rust stack without TCO.
    assert_eq!(
        eval("(let loop ([i 0]) (if (= i 100000) 'done (loop (+ i 1))))"),
        "done"
    );
    // Mutual recursion through tail position in `if`.
    assert_eq!(
        eval(
            "(define (ping n) (if (zero? n) 'ping (pong (- n 1))))
             (define (pong n) (if (zero? n) 'pong (ping (- n 1))))
             (ping 50001)"
        ),
        "pong"
    );
}

#[test]
fn lists_and_vectors() {
    assert_eq!(eval("(length '(a b c))"), "3");
    assert_eq!(eval("(append '(1 2) '(3) '())"), "(1 2 3)");
    assert_eq!(eval("(memq 'c '(a b c d))"), "(c d)");
    assert_eq!(eval("(assq 'b '((a . 1) (b . 2)))"), "(b . 2)");
    assert_eq!(eval("(remq 'b '(a b c b))"), "(a c)");
    assert_eq!(eval("(list-ref '(a b c) 1)"), "b");
    assert_eq!(
        eval("(define v (make-vector 3 0)) (vector-set! v 1 'x) v"),
        "#(0 x 0)"
    );
    assert_eq!(eval("(vector-length (vector 1 2 3))"), "3");
}

#[test]
fn strings_symbols_chars() {
    assert_eq!(eval("(string-append \"foo\" \"bar\")"), "\"foobar\"");
    assert_eq!(eval("(string-length \"hello\")"), "5");
    assert_eq!(eval("(substring \"hello\" 1 3)"), "\"el\"");
    assert_eq!(eval("(string=? \"a\" \"a\")"), "#t");
    assert_eq!(eval("(symbol->string 'abc)"), "\"abc\"");
    assert_eq!(eval("(eq? (string->symbol \"x\") 'x)"), "#t");
    assert_eq!(eval("(char->integer #\\a)"), "97");
    assert_eq!(eval("(integer->char 98)"), "#\\b");
    assert_eq!(eval("(eq? (gensym) (gensym))"), "#f");
}

#[test]
fn boxes() {
    assert_eq!(eval("(define b (box 1)) (set-box! b 2) (unbox b)"), "2");
}

#[test]
fn apply_and_error() {
    assert_eq!(eval("(apply + 1 2 '(3 4))"), "10");
    assert_eq!(eval("(apply car '((a b)))"), "a");
    let mut i = Interp::new();
    let e = i.eval_str("(error \"boom\" 1 2)").unwrap_err();
    assert!(e.to_string().contains("boom 1 2"), "got {e}");
}

#[test]
fn output_capture() {
    let mut i = Interp::new();
    i.eval_str("(display \"x = \") (write \"s\") (newline)")
        .unwrap();
    assert_eq!(i.take_output(), "x = \"s\"\n");
}

#[test]
fn error_reporting() {
    let mut i = Interp::new();
    for (src, needle) in [
        ("undefined-var", "unbound variable"),
        ("(car 5)", "not a pair"),
        ("((lambda (x) x))", "no matching clause"),
        ("(1 2)", "not a procedure"),
        ("(vector-ref (vector 1) 5)", "out of range"),
        ("(quotient 1 0)", "division by zero"),
        ("(set! nope 1)", "unbound"),
    ] {
        let e = i.eval_str(src).unwrap_err();
        assert!(e.to_string().contains(needle), "{src}: got {e}");
    }
    // The interpreter still works after errors.
    assert_eq!(i.eval_to_string("(+ 1 1)").unwrap(), "2");
}

#[test]
fn collections_during_evaluation_are_transparent() {
    // A tiny trigger forces many collections in the middle of evaluation;
    // all interpreter state must survive.
    let config = GcConfig {
        trigger_bytes: 16 * 1024,
        ..GcConfig::new()
    };
    let mut i = Interp::with_config(config);
    let result = i
        .eval_to_string(
            "(define (build n)
               (let loop ([i 0] [acc '()])
                 (if (= i n) acc (loop (+ i 1) (cons i acc)))))
             (define big (build 3000))
             (length big)",
        )
        .unwrap();
    assert_eq!(result, "3000");
    assert!(
        i.heap().collection_count() > 0,
        "collections really happened"
    );
    i.heap().verify().unwrap();
    // Data integrity after all those moves.
    assert_eq!(i.eval_to_string("(car big)").unwrap(), "2999");
    assert_eq!(i.eval_to_string("(list-ref big 2999)").unwrap(), "0");
}

#[test]
fn explicit_collect_and_introspection() {
    let mut i = Interp::new();
    assert_eq!(i.eval_to_string("(collection-count)").unwrap(), "0");
    i.eval_str("(collect)").unwrap();
    assert_eq!(i.eval_to_string("(collection-count)").unwrap(), "1");
    assert_eq!(
        i.eval_to_string("(define x (cons 1 2)) (collect 0) (generation-of x)")
            .unwrap(),
        "1"
    );
    assert!(i.eval_str("(collect 99)").is_err());
}

#[test]
fn deep_nontail_recursion_within_reason() {
    assert_eq!(
        eval("(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum 300)"),
        "45150"
    );
}

#[test]
fn excessive_nontail_recursion_errors_cleanly() {
    let mut i = Interp::new();
    let e = i
        .eval_str("(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum 100000)")
        .unwrap_err();
    assert!(e.to_string().contains("recursion too deep"), "got {e}");
    // Still usable afterwards.
    assert_eq!(i.eval_to_string("(+ 1 2)").unwrap(), "3");
}

/// A procedure that recurses through a higher-order primitive or the
/// `apply` primitive re-enters the evaluator via `Interp::apply`; that
/// path must count against the depth budget too, or the Rust stack
/// overflows and takes the embedding process down with it.
#[test]
fn recursion_through_map_and_apply_errors_cleanly() {
    for config in [InterpConfig::vm(), InterpConfig::naive()] {
        let mode = config.mode;
        let mut i = Interp::with_interp_config(config);
        for src in [
            "(define (f x) (map f (list x))) (f 1)",
            "(define (g x) (apply g (list x))) (g 1)",
        ] {
            // Twice: a leaked depth count or shadow-stack slot from the
            // first failure would change the second.
            for _ in 0..2 {
                let e = i.eval_str(src).unwrap_err();
                assert_eq!(
                    e.to_string(),
                    "scheme error: recursion too deep (max 400 non-tail frames)",
                    "{mode:?}: {src}"
                );
            }
        }
        // Still usable, with (nearly) the whole depth budget available.
        assert_eq!(i.eval_to_string("(+ 1 2)").unwrap(), "3");
        assert_eq!(
            i.eval_to_string("(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum 300)")
                .unwrap(),
            "45150",
            "{mode:?}"
        );
    }
}

#[test]
fn shadowing_and_scope() {
    assert_eq!(
        eval(
            "(define x 'global)
              (define (f) x)
              (let ([x 'local]) (f))"
        ),
        "global",
        "lexical, not dynamic, scope"
    );
    assert_eq!(eval("(define car 'shadowed) car"), "shadowed");
}

#[test]
fn vm_attributes_sites_and_counts_dispatches() {
    let mut i = Interp::new();
    i.heap_mut().enable_site_profile();
    i.eval_str(
        "(define (build n acc)
           (if (zero? n) acc (build (- n 1) (cons n acc))))
         (build 50 '())
         (let ([v (make-vector 8 0)]) v)
         `(a ,(+ 1 2))",
    )
    .unwrap();
    let profile = i.heap_mut().take_site_profile();
    let words_of = |name: &str| {
        profile
            .iter()
            .find(|(s, _)| *s == name)
            .map(|(_, st)| st.words)
            .unwrap_or(0)
    };
    // The conses happen while applying `cons`/`build`: call insns.
    assert!(words_of("scheme.app") >= 100, "{profile:?}");
    // `let` allocates its environment frame record.
    assert!(words_of("scheme.let") > 0, "{profile:?}");
    // The quasiquote walk conses the template skeleton.
    assert!(words_of("scheme.quasiquote") > 0, "{profile:?}");
    // The per-opcode dispatch counters land in the metrics registry
    // (only while the tracing flag is on; off by default).
    let json = i.heap_mut().metrics_json();
    assert!(json.contains("\"vm.dispatch.imm\""), "{json}");
    assert!(json.contains("\"vm.dispatch.jmp-if-false\""), "{json}");

    // Turned off again by take_site_profile: later evals attribute nothing.
    i.eval_str("(cons 1 2)").unwrap();
    assert!(i.heap_mut().take_site_profile().is_empty());

    // Off by default: a fresh interp records no dispatch counters.
    let mut cold = Interp::new();
    cold.eval_str("(+ 1 2)").unwrap();
    assert!(!cold.heap_mut().metrics_json().contains("vm.dispatch."));
}

/// A string that outgrows a zone's segment quota is a Scheme error from
/// the primitive that built it, not a panic: here `string-append` doubling
/// a string past 64 segments. The heap stays valid, and the string and
/// vector builders go on working.
#[test]
fn a_program_sized_string_or_vector_past_a_quota_is_a_scheme_error() {
    use guardians_gc::{Heap, SegmentPool};
    use guardians_scheme::EvalMode;
    let heap = Heap::with_pool(GcConfig::new(), SegmentPool::unbounded(), Some(64));
    let mut i = Interp::with_heap(heap, EvalMode::Vm);
    let e = i
        .eval_str(
            "(let loop ((s \"x\") (i 0)) \
               (if (< i 20) (loop (string-append s s) (+ i 1)) (string-length s)))",
        )
        .expect_err("a 1 MiB string does not fit in 64 segments");
    assert!(
        e.to_string().contains("string-append: heap exhausted"),
        "{e}"
    );
    i.heap()
        .verify()
        .expect("the failed append left the heap valid");
    assert_eq!(
        i.eval_to_string("(string-length (substring (string-append \"ab\" \"cd\") 1 3))")
            .unwrap(),
        "2"
    );
    assert_eq!(
        i.eval_to_string("(vector-length (list->vector (list 1 2 3)))")
            .unwrap(),
        "3"
    );
}

/// A vector larger than what is left of a zone's segment quota is a
/// Scheme error the program can recover from, not a panic; the heap is
/// untouched and smaller vectors still allocate.
#[test]
fn make_vector_past_a_quota_is_a_scheme_error() {
    use guardians_gc::{Heap, SegmentPool};
    use guardians_scheme::EvalMode;
    let heap = Heap::with_pool(GcConfig::new(), SegmentPool::unbounded(), Some(64));
    let mut i = Interp::with_heap(heap, EvalMode::Vm);
    let e = i
        .eval_str("(make-vector 100000 0)")
        .expect_err("100,000 words do not fit in 64 segments");
    assert!(e.to_string().contains("make-vector: heap exhausted"), "{e}");
    i.heap()
        .verify()
        .expect("the failed allocation left the heap valid");
    assert_eq!(
        i.eval_to_string("(vector-length (make-vector 1000 0))")
            .unwrap(),
        "1000"
    );
}
