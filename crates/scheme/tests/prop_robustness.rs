//! Robustness property tests: the lexer, reader, and evaluator must never
//! panic — arbitrary input produces either a value or a `SchemeError`.

use guardians_runtime::symtab::SymbolTable;
use guardians_scheme::{read_all, tokenize, Interp, InterpConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn lexer_never_panics(src in ".{0,200}") {
        let _ = tokenize(&src);
    }

    #[test]
    fn reader_never_panics(src in ".{0,200}") {
        let mut heap = guardians_gc::Heap::default();
        let mut syms = SymbolTable::new();
        let _ = read_all(&mut heap, &mut syms, &src);
    }

    /// Random-ish s-expression soup built from a safe token alphabet —
    /// anything goes except nontermination.
    #[test]
    fn evaluator_never_panics(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("(".to_string()),
                Just(")".to_string()),
                Just("'".to_string()),
                Just("car".to_string()),
                Just("cons".to_string()),
                Just("if".to_string()),
                Just("lambda".to_string()),
                Just("let".to_string()),
                Just("define".to_string()),
                Just("x".to_string()),
                Just("1".to_string()),
                Just("#t".to_string()),
                Just("\"s\"".to_string()),
                Just("make-guardian".to_string()),
                Just("weak-cons".to_string()),
                Just("collect".to_string()),
                Just("reverse".to_string()),
                Just("append".to_string()),
                Just("memq".to_string()),
                Just("assq".to_string()),
                Just("remq".to_string()),
                Just("length".to_string()),
                Just("set-cdr!".to_string()),
                Just(".".to_string()),
            ],
            0..40,
        )
    ) {
        let src = tokens.join(" ");
        let mut interp = Interp::new();
        let _ = interp.eval_str(&src); // Ok or Err, never panic
        interp.heap().verify().expect("heap always valid afterwards");
    }

    /// Round trip: printing a read value and re-reading it yields an
    /// equal printed form (for the printable subset).
    #[test]
    fn read_print_read_is_stable(n in any::<i64>(), s in "[a-z]{1,10}") {
        let n = n % 1_000_000;
        let mut interp = Interp::new();
        for src in [format!("{n}"), format!("'{s}"), format!("'({n} {s})"), format!("\"{s}\"")] {
            let first = interp.eval_to_string(&src).unwrap();
            let again = interp.eval_to_string(&format!("'{first}"))
                .or_else(|_| interp.eval_to_string(&first));
            prop_assert_eq!(again.unwrap(), first);
        }
    }
}

/// The token soup `( let car car ) ( )`, the one case a run of
/// `evaluator_never_panics` persisted: a named `let` whose binding list is
/// a symbol and whose body is empty, then `()`. Neither evaluator panics,
/// both give the same outcome, and the heap stays valid. The vendored
/// proptest replays no persisted case, so it is pinned here.
#[test]
fn let_with_a_symbol_for_bindings_never_panics() {
    let src = ["(", "let", "car", "car", ")", "(", ")"].join(" ");
    let outcomes: Vec<String> = [InterpConfig::vm(), InterpConfig::naive()]
        .into_iter()
        .map(|config| {
            let mut interp = Interp::with_interp_config(config);
            let outcome = format!("{:?}", interp.eval_to_string(&src));
            interp.heap().verify().expect("heap valid afterwards");
            outcome
        })
        .collect();
    assert_eq!(outcomes[0], outcomes[1], "VM vs naive on {src:?}");
}

/// Runs `f` on a thread with a 2 MiB stack: a stack overflow there
/// aborts the whole process, so these tests fail by dying.
fn on_2mib_thread(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn a test thread")
        .join()
        .expect("test thread finished");
}

/// Input nested past the reader's bound is a Scheme error, not a
/// process abort, and the interpreter stays usable.
#[test]
fn deeply_nested_input_is_an_error() {
    on_2mib_thread(|| {
        let mut interp = Interp::new();
        let lists = format!(
            "(begin (quote {}{}) 1)",
            "(".repeat(20_000),
            ")".repeat(20_000)
        );
        let quotes = format!("(car {}(1))", "'".repeat(100_000));
        for src in [lists, quotes] {
            let e = interp.eval_str(&src).unwrap_err();
            assert_eq!(e.message(), "form nesting too deep");
        }
        assert_eq!(interp.eval_to_string("(+ 1 2)").unwrap(), "3");
    });
}

/// The nesting bound shared by reader and analyzer: 999 levels read,
/// analyze and run on a 2 MiB stack, 1000 are refused.
#[test]
fn nesting_bound_holds_at_its_edge() {
    on_2mib_thread(|| {
        let nested = |n: usize| format!("{}0{}", "(+ 1 ".repeat(n), ")".repeat(n));
        let mut interp = Interp::new();
        assert_eq!(interp.eval_to_string(&nested(999)).unwrap(), "999");
        let e = interp.eval_str(&nested(1000)).unwrap_err();
        assert_eq!(e.message(), "form nesting too deep");
    });
}

/// Integers just past the fixnum range (±2^60) become flonums, whether
/// the reader reads them or a primitive computes them; just inside it they
/// stay fixnums. Nothing here may panic.
#[test]
fn fixnum_boundaries_are_numbers() {
    let mut interp = Interp::new();
    for (src, want) in [
        ("1152921504606846975", "1152921504606846975"),
        ("1152921504606846976", "1152921504606846976.0"),
        ("-1152921504606846976", "-1152921504606846976"),
        ("-1152921504606846977", "-1152921504606846976.0"),
        ("(+ 1152921504606846974 1)", "1152921504606846975"),
        ("(+ 1152921504606846975 1)", "1152921504606846976.0"),
        ("(- -1152921504606846975 1)", "-1152921504606846976"),
        ("(- -1152921504606846976 1)", "-1152921504606846976.0"),
        ("(* 1152921504606846975 2)", "2305843009213693952.0"),
        ("(- 1152921504606846975)", "-1152921504606846975"),
        ("(- -1152921504606846976)", "1152921504606846976.0"),
        ("(quotient 1152921504606846975 -1)", "-1152921504606846975"),
        (
            "(quotient -1152921504606846976 -1)",
            "1152921504606846976.0",
        ),
        ("(abs -1152921504606846975)", "1152921504606846975"),
        ("(abs -1152921504606846976)", "1152921504606846976.0"),
    ] {
        assert_eq!(interp.eval_to_string(src).unwrap(), want, "{src}");
    }
    interp.heap().verify().expect("heap valid afterwards");
}
