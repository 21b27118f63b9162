//! The cold-path corpus for `scheme_eval`: seeded, never-seen-before
//! procedure definitions, each with the value its first call must print.
//!
//! The expected value comes from [`Expr::eval`], the generator's own
//! `i64` evaluation of the tree — never from the interpreter under test.

use crate::rng::Rng;
use std::fmt::{self, Write as _};

/// Variables a body may mention: the two parameters and up to two
/// `let`-bound names.
const VARS: [&str; 4] = ["a", "b", "x", "y"];

/// A small arithmetic / conditional / binding expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Const(i64),
    Var(usize),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication by a small constant only, so values stay far from
    /// fixnum overflow whatever the tree shape.
    Scale(Box<Expr>, i64),
    /// `(if (< l r) then else)`
    IfLess(Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>),
    /// `(cond ((< l r) first) ((= l r) second) (else third))`
    Cond3(Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>),
    /// `(let ((var init)) body)`; `var` indexes [`VARS`].
    Let(usize, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Reference evaluation. `env[i]` is the value of `VARS[i]`.
    pub fn eval(&self, env: &mut [i64; 4]) -> i64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(v) => env[*v],
            Expr::Add(l, r) => l.eval(env) + r.eval(env),
            Expr::Sub(l, r) => l.eval(env) - r.eval(env),
            Expr::Scale(e, k) => e.eval(env) * k,
            Expr::IfLess(l, r, then, other) => {
                if l.eval(env) < r.eval(env) {
                    then.eval(env)
                } else {
                    other.eval(env)
                }
            }
            Expr::Cond3(l, r, first, second, third) => {
                let (l, r) = (l.eval(env), r.eval(env));
                if l < r {
                    first.eval(env)
                } else if l == r {
                    second.eval(env)
                } else {
                    third.eval(env)
                }
            }
            Expr::Let(var, init, body) => {
                let value = init.eval(env);
                let shadowed = std::mem::replace(&mut env[*var], value);
                let result = body.eval(env);
                env[*var] = shadowed;
                result
            }
        }
    }

    /// Nodes in the tree.
    #[cfg(test)]
    pub fn size(&self) -> usize {
        1 + match self {
            Expr::Const(_) | Expr::Var(_) => 0,
            Expr::Add(l, r) | Expr::Sub(l, r) => l.size() + r.size(),
            Expr::Scale(e, _) => e.size(),
            Expr::IfLess(a, b, c, d) => a.size() + b.size() + c.size() + d.size(),
            Expr::Cond3(a, b, c, d, e) => a.size() + b.size() + c.size() + d.size() + e.size(),
            Expr::Let(_, init, body) => init.size() + body.size(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => f.write_str(VARS[*v]),
            Expr::Add(l, r) => write!(f, "(+ {l} {r})"),
            Expr::Sub(l, r) => write!(f, "(- {l} {r})"),
            Expr::Scale(e, k) => write!(f, "(* {e} {k})"),
            Expr::IfLess(l, r, then, other) => write!(f, "(if (< {l} {r}) {then} {other})"),
            Expr::Cond3(l, r, first, second, third) => {
                write!(
                    f,
                    "(cond ((< {l} {r}) {first}) ((= {l} {r}) {second}) (else {third}))"
                )
            }
            Expr::Let(var, init, body) => write!(f, "(let (({} {init})) {body})", VARS[*var]),
        }
    }
}

/// Generates a tree of exactly `budget` nodes (`budget >= 1`) over the
/// first `scope` variables.
fn generate(rng: &mut Rng, budget: usize, scope: usize) -> Expr {
    if budget <= 1 {
        return if rng.chance(1, 2) {
            Expr::Const(rng.below(10) as i64)
        } else {
            Expr::Var(rng.below(scope as u64) as usize)
        };
    }
    // The node itself takes one; the rest is split evenly among as many
    // children as the drawn operator has, so every child gets at least
    // one node. An operator the budget cannot feed falls back to `+`.
    let rest = budget - 1;
    #[derive(Clone, Copy, PartialEq)]
    enum Shape {
        Add,
        Sub,
        Scale,
        IfLess,
        Cond3,
        Let,
    }
    let arity = |shape| match shape {
        Shape::Scale => 1,
        Shape::Add | Shape::Sub | Shape::Let => 2,
        Shape::IfLess => 4,
        Shape::Cond3 => 5,
    };
    let drawn = match rng.below(8) {
        0 | 1 => Shape::Add,
        2 => Shape::Sub,
        3 => Shape::Scale,
        4 | 5 => Shape::IfLess,
        6 => Shape::Cond3,
        _ => Shape::Let,
    };
    let shape = if arity(drawn) <= rest && (drawn != Shape::Let || scope < VARS.len()) {
        drawn
    } else if rest >= 2 {
        Shape::Add
    } else {
        Shape::Scale
    };
    let n = arity(shape);
    let mut parts = (0..n).map(|i| rest / n + usize::from(i < rest % n));
    let mut child = |rng: &mut Rng, scope: usize| {
        let budget = parts.next().expect("one part per child");
        Box::new(generate(rng, budget, scope))
    };
    match shape {
        Shape::Add => Expr::Add(child(rng, scope), child(rng, scope)),
        Shape::Sub => Expr::Sub(child(rng, scope), child(rng, scope)),
        Shape::Scale => Expr::Scale(child(rng, scope), 2 + rng.below(2) as i64),
        Shape::IfLess => Expr::IfLess(
            child(rng, scope),
            child(rng, scope),
            child(rng, scope),
            child(rng, scope),
        ),
        Shape::Cond3 => Expr::Cond3(
            child(rng, scope),
            child(rng, scope),
            child(rng, scope),
            child(rng, scope),
            child(rng, scope),
        ),
        Shape::Let => Expr::Let(scope, child(rng, scope), child(rng, scope + 1)),
    }
}

/// One never-seen form: a definition, the call that first runs it, and
/// what that call must print.
#[derive(Clone, Debug)]
pub struct ColdForm {
    pub define: String,
    pub call: String,
    pub expected: String,
}

/// `n` cold forms for `seed`. Names are unique within the corpus.
pub fn corpus(seed: u64, n: usize) -> Vec<ColdForm> {
    let mut rng = Rng::new(seed, 5);
    (0..n)
        .map(|i| {
            let body = generate(&mut rng, 30, 2);
            let mut define = String::with_capacity(256);
            let _ = write!(define, "(define (f{i} a b) {body})");
            ColdForm {
                define,
                call: format!("(f{i} 3 4)"),
                expected: body.eval(&mut [3, 4, 0, 0]).to_string(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: i64) -> Box<Expr> {
        Box::new(Expr::Const(n))
    }

    fn v(i: usize) -> Box<Expr> {
        Box::new(Expr::Var(i))
    }

    #[test]
    fn reference_evaluator_matches_a_hand_written_table() {
        // (source text, value at a=3 b=4), worked by hand.
        let table: Vec<(Expr, &str, i64)> = vec![
            (Expr::Add(v(0), v(1)), "(+ a b)", 7),
            (Expr::Sub(v(0), v(1)), "(- a b)", -1),
            (
                Expr::Scale(Box::new(Expr::Sub(v(1), c(9))), 3),
                "(* (- b 9) 3)",
                -15,
            ),
            (Expr::IfLess(v(0), v(1), c(1), c(2)), "(if (< a b) 1 2)", 1),
            (Expr::IfLess(v(1), v(0), c(1), c(2)), "(if (< b a) 1 2)", 2),
            (
                Expr::Cond3(v(0), c(3), c(10), c(20), c(30)),
                "(cond ((< a 3) 10) ((= a 3) 20) (else 30))",
                20,
            ),
            (
                Expr::Cond3(v(1), c(3), c(10), c(20), c(30)),
                "(cond ((< b 3) 10) ((= b 3) 20) (else 30))",
                30,
            ),
            (
                Expr::Let(
                    2,
                    Box::new(Expr::Add(v(0), v(1))),
                    Box::new(Expr::Scale(v(2), 2)),
                ),
                "(let ((x (+ a b))) (* x 2))",
                14,
            ),
            (
                // The inner let shadows x only inside its body.
                Expr::Let(
                    2,
                    c(5),
                    Box::new(Expr::Add(Box::new(Expr::Let(2, c(1), v(2))), v(2))),
                ),
                "(let ((x 5)) (+ (let ((x 1)) x) x))",
                6,
            ),
        ];
        for (expr, text, value) in table {
            assert_eq!(expr.to_string(), text);
            assert_eq!(expr.eval(&mut [3, 4, 0, 0]), value, "{text}");
        }
    }

    #[test]
    fn corpus_is_reproducible_unique_and_thirty_nodes_a_form() {
        let a = corpus(1, 200);
        let b = corpus(1, 200);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.define == y.define && x.expected == y.expected));
        assert!(corpus(2, 200)
            .iter()
            .zip(&a)
            .any(|(x, y)| x.define != y.define));
        let mut rng = Rng::new(1, 5);
        for _ in 0..200 {
            assert_eq!(generate(&mut rng, 30, 2).size(), 30);
        }
    }

    #[test]
    fn generated_values_stay_far_inside_fixnum_range() {
        for form in corpus(9, 2_000) {
            let value: i64 = form.expected.parse().unwrap();
            assert!(value.abs() < 1 << 40, "{}", form.define);
        }
    }
}
