//! Property test for the card-marking remembered set: under random
//! interleavings of barriered stores into aged objects and collections of
//! random generations, a heap whose barrier marks one card per store must
//! copy exactly what a reference heap copies whose barrier marks every
//! card of the stored-into run (the card-oblivious behaviour, reached
//! through `Heap::remember_whole_run`), and end with the same contents —
//! on both schedules, stop-the-world and incremental. `verify()` (which
//! checks remembered-set completeness) runs after every collection.
//!
//! The store mix aims at what card granularity can get wrong: slots on
//! both sides of a card boundary, a "sticky" slot overwritten in turn
//! with younger values, older values and immediates, stores into the
//! tail segments of large vectors, and tconc appends into aged queues.

use guardians_gc::{GcConfig, Heap, RootedVec, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Per-collection `(words, pairs, objects)` copied, then a rendering of
/// everything reachable from the roots.
type Outcome = (Vec<(u64, u64, u64)>, Vec<String>);

fn render(h: &Heap, v: Value, depth: usize) -> String {
    if v.is_fixnum() {
        return v.as_fixnum().to_string();
    }
    if !v.is_ptr() {
        return "#imm".to_string();
    }
    if depth == 0 {
        return "…".to_string();
    }
    if h.is_pair(v) {
        let (a, d) = (h.car(v), h.cdr(v));
        format!(
            "({} . {})",
            render(h, a, depth - 1),
            render(h, d, depth - 1)
        )
    } else if h.is_vector(v) {
        let items: Vec<String> = (0..h.vector_len(v))
            .map(|i| render(h, h.vector_ref(v, i), depth - 1))
            .collect();
        format!("#({})", items.join(" "))
    } else if h.is_box(v) {
        format!("#&{}", render(h, h.box_ref(v), depth - 1))
    } else if h.is_record(v) {
        let items: Vec<String> = (0..h.record_len(v))
            .map(|i| render(h, h.record_ref(v, i), depth - 1))
            .collect();
        format!("#[{}]", items.join(" "))
    } else {
        "#<other>".to_string()
    }
}

/// A slot index of a `len`-slot object, biased towards multiples of the
/// card size and their predecessors: objects are packed at every phase,
/// so these land on both sides of card boundaries.
fn slot(rng: &mut SmallRng, len: usize) -> usize {
    match rng.gen_range(0..3) {
        0 => (rng.gen_range(0..len.div_ceil(8)) * 8).min(len - 1),
        1 => (rng.gen_range(0..len.div_ceil(8)) * 8 + 7).min(len - 1),
        _ => rng.gen_range(0..len),
    }
}

/// One barriered store of `x` somewhere into `container`; returns whether
/// the container kind had a slot to store into.
fn store(h: &mut Heap, rng: &mut SmallRng, container: Value, x: Value) -> bool {
    if h.is_weak_pair(container) {
        return false;
    }
    if h.is_pair(container) {
        if rng.gen_range(0..2) == 0 {
            h.set_car(container, x);
        } else {
            h.set_cdr(container, x);
        }
    } else if h.is_vector(container) && h.vector_len(container) > 0 {
        let i = slot(rng, h.vector_len(container));
        h.vector_set(container, i, x);
    } else if h.is_record(container) && h.record_len(container) > 0 {
        let i = slot(rng, h.record_len(container));
        h.record_set(container, i, x);
    } else if h.is_box(container) {
        h.box_set(container, x);
    } else {
        return false;
    }
    true
}

fn drive(seed: u64, budget: Option<Duration>, whole_run: bool) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut h = Heap::new(GcConfig {
        pause_budget: budget,
        ..GcConfig::new()
    });
    let objs: RootedVec = h.root_vec();
    let descriptor = {
        let d = h.make_symbol("card");
        h.root(d)
    };
    let queue = {
        let tc = h.make_tconc();
        h.root(tc)
    };
    // Seed population, aged into a spread of generations.
    for round in 0..4u8 {
        for i in 0..40 {
            let v = match i % 5 {
                0 => h.cons(Value::fixnum(i), Value::NIL),
                1 => h.make_vector(rng.gen_range(1..40), Value::fixnum(i)),
                2 => h.make_record_filled(descriptor.get(), rng.gen_range(1..20), Value::NIL),
                3 => h.make_box(Value::fixnum(i)),
                _ if i == 4 => h.make_vector(rng.gen_range(600..1400), Value::fixnum(i)),
                _ => h.cons(Value::NIL, Value::fixnum(i)),
            };
            objs.push(v);
        }
        h.collect(round.min(2));
    }
    let sticky = h.root(objs.get(1)); // an aged vector
    let mut copied = Vec::new();
    for step in 0..700i64 {
        let n = objs.len();
        match rng.gen_range(0..100) {
            0..=54 => {
                let container = objs.get(rng.gen_range(0..n));
                let x = match rng.gen_range(0..4) {
                    0 => Value::fixnum(step),
                    1 => objs.get(rng.gen_range(0..n)), // any age
                    _ => h.cons(Value::fixnum(step), Value::NIL),
                };
                if store(&mut h, &mut rng, container, x) && whole_run {
                    h.remember_whole_run(container);
                }
            }
            55..=69 => {
                // The sticky slot: younger, older, immediate, in turn.
                let x = match step % 3 {
                    0 => h.cons(Value::fixnum(-step), Value::NIL),
                    1 => objs.get(rng.gen_range(0..n / 2)),
                    _ => Value::FALSE,
                };
                h.vector_set(sticky.get(), 0, x);
                if whole_run {
                    h.remember_whole_run(sticky.get());
                }
            }
            70..=79 => {
                let last = h.cdr(queue.get());
                let x = h.cons(Value::fixnum(step), Value::NIL);
                h.tconc_append(queue.get(), x);
                if whole_run {
                    h.remember_whole_run(last);
                    h.remember_whole_run(queue.get());
                }
                if rng.gen_range(0..3) == 0 {
                    let popped = h.tconc_pop(queue.get());
                    assert!(popped.is_some());
                }
            }
            80..=89 => {
                let v = h.make_vector(rng.gen_range(1..30), Value::fixnum(step));
                objs.set(rng.gen_range(0..n), v);
            }
            _ => {
                let g = [0u8, 0, 0, 0, 1, 1, 2, 3][rng.gen_range(0..8usize)];
                let r = h.collect(g);
                copied.push((r.words_copied, r.pairs_copied, r.objects_copied));
                h.verify()
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}, collect({g}): {e}"));
            }
        }
    }
    let r = h.collect(3);
    copied.push((r.words_copied, r.pairs_copied, r.objects_copied));
    h.verify().expect("valid at the end");
    let mut contents: Vec<String> = (0..objs.len())
        .map(|i| render(&h, objs.get(i), 3))
        .collect();
    contents.push(render(&h, queue.get(), 12));
    (copied, contents)
}

#[test]
fn card_barrier_copies_what_the_whole_run_barrier_copies() {
    for seed in 0..8u64 {
        for budget in [None, Some(Duration::ZERO)] {
            let cards = drive(seed, budget, false);
            let reference = drive(seed, budget, true);
            assert_eq!(
                cards.0, reference.0,
                "seed {seed}, budget {budget:?}: copy counters diverged"
            );
            assert_eq!(
                cards.1, reference.1,
                "seed {seed}, budget {budget:?}: heap contents diverged"
            );
        }
    }
}
