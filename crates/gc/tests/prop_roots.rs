//! Property test for the generation-stamped root table: *filtered ≡
//! unfiltered*. A random script of root operations — `root`, clone, drop,
//! `Rooted::set`, and `push`/`pop`/`truncate`/`set` on shadow stacks —
//! interleaved with `collect(g)` and `maybe_collect` runs twice: once as
//! is (a collection visits only the slots stamped `<= g`), and once with
//! every stamp zeroed before each collection (every slot is visited, the
//! parent's behaviour, reached through `Heap::zero_root_stamps`). The two
//! runs must produce the same `CollectionReport`s except for the root
//! visit counts, the same root values, and a clean `verify()` — and both
//! must agree with a shadow model of what each root holds.
//!
//! A store that skipped the root write barrier shows up at once: the
//! filtered run skips the slot, the fresh object dies under its root, and
//! `verify()` (or the payload check) fails.
//!
//! Both schedules (stop-the-world, `pause_budget: 0 µs`), every
//! `Promotion` (under `Capped` and `SameGeneration` a collection's target
//! can be below `g + 1`, so stamps must be exact generations) and 1, 4 and
//! 254 generations — the most a heap takes — (the eight-at-a-time stamp
//! test must be exact for every legal generation) are covered. A heap's
//! promotion rule is fixed when it is built, so the model also checks that
//! no rooted referent's generation decreases across a collection.

use guardians_gc::{
    CollectionReport, GcConfig, Heap, PhaseTimes, Promotion, Rooted, RootedVec, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// What a root slot holds, as the model sees it: the payload number, which
/// is the fixnum itself or sits in the car of the pair / slot 0 of the
/// vector the slot points to.
fn payload(h: &Heap, v: Value) -> i64 {
    if v.is_fixnum() {
        v.as_fixnum()
    } else if h.is_pair(v) {
        h.car(v).as_fixnum()
    } else {
        h.vector_ref(v, 0).as_fixnum()
    }
}

/// A single-value root and the model's idea of its payload. Clones share
/// the payload cell, as the handles share the slot.
struct Single {
    handle: Rooted,
    cell: usize,
}

struct World {
    h: Heap,
    rng: SmallRng,
    unfiltered: bool,
    singles: Vec<Single>,
    cells: Vec<i64>,
    stacks: Vec<(RootedVec, Vec<i64>)>,
    next_payload: i64,
    reports: Vec<CollectionReport>,
    /// Every root's referent generation just before the last collection
    /// call, handle by handle (see [`World::root_generations`]).
    generations: Vec<Option<u8>>,
}

impl World {
    /// A value to store and its payload: a fresh pair or vector (young),
    /// what some existing root holds (any age), or a fixnum.
    fn value(&mut self) -> (Value, i64) {
        self.next_payload += 1;
        let n = self.next_payload;
        match self.rng.gen_range(0..6) {
            0 | 1 => (self.h.cons(Value::fixnum(n), Value::NIL), n),
            2 => {
                let len = self.rng.gen_range(1..6);
                (self.h.make_vector(len, Value::fixnum(n)), n)
            }
            3 if !self.singles.is_empty() => {
                let s = &self.singles[self.rng.gen_range(0..self.singles.len())];
                (s.handle.get(), self.cells[s.cell])
            }
            4 => {
                let (stack, model) = &self.stacks[self.rng.gen_range(0..self.stacks.len())];
                if model.is_empty() {
                    (Value::fixnum(n), n)
                } else {
                    let i = self.rng.gen_range(0..model.len());
                    (stack.get(i), model[i])
                }
            }
            _ => (Value::fixnum(n), n),
        }
    }

    /// The generation of every root's referent (`None` for a fixnum):
    /// singles, then each stack by index.
    fn root_generations(&self) -> Vec<Option<u8>> {
        let mut gens: Vec<Option<u8>> = self
            .singles
            .iter()
            .map(|s| self.h.generation_of(s.handle.get()))
            .collect();
        for (stack, _) in &self.stacks {
            gens.extend((0..stack.len()).map(|i| self.h.generation_of(stack.get(i))));
        }
        gens
    }

    fn before_collection(&mut self) {
        if self.unfiltered {
            self.h.zero_root_stamps();
        }
        self.generations = self.root_generations();
    }

    /// With the policy fixed at construction, a collection (or one of its
    /// increments) moves no rooted referent to a younger generation.
    fn check_no_demotion(&self) {
        let after = self.root_generations();
        for (i, (was, now)) in self.generations.iter().zip(&after).enumerate() {
            assert!(now >= was, "root {i}: generation {was:?} -> {now:?}");
        }
    }

    fn after_collection(&mut self, report: CollectionReport) {
        self.reports.push(report);
        self.h.verify().expect("valid after a collection");
        self.check_no_demotion();
        self.check_model();
    }

    fn check_model(&self) {
        for s in &self.singles {
            assert_eq!(payload(&self.h, s.handle.get()), self.cells[s.cell]);
        }
        for (stack, model) in &self.stacks {
            assert_eq!(stack.len(), model.len());
            for (i, &want) in model.iter().enumerate() {
                assert_eq!(payload(&self.h, stack.get(i)), want);
            }
        }
    }

    fn step(&mut self) {
        match self.rng.gen_range(0..100) {
            0..=11 => {
                let (v, n) = self.value();
                self.cells.push(n);
                self.singles.push(Single {
                    handle: self.h.root(v),
                    cell: self.cells.len() - 1,
                });
            }
            12..=16 if !self.singles.is_empty() => {
                let s = &self.singles[self.rng.gen_range(0..self.singles.len())];
                let clone = Single {
                    handle: s.handle.clone(),
                    cell: s.cell,
                };
                self.singles.push(clone);
            }
            17..=26 if !self.singles.is_empty() => {
                let i = self.rng.gen_range(0..self.singles.len());
                self.singles.swap_remove(i);
            }
            27..=41 if !self.singles.is_empty() => {
                let (v, n) = self.value();
                let s = &self.singles[self.rng.gen_range(0..self.singles.len())];
                s.handle.set(v);
                self.cells[s.cell] = n;
            }
            42..=56 => {
                let (v, n) = self.value();
                let k = self.rng.gen_range(0..self.stacks.len());
                let (stack, model) = &mut self.stacks[k];
                stack.push(v);
                model.push(n);
            }
            57..=63 => {
                let k = self.rng.gen_range(0..self.stacks.len());
                let (stack, model) = &mut self.stacks[k];
                assert_eq!(stack.pop().is_some(), model.pop().is_some());
            }
            64..=66 => {
                let k = self.rng.gen_range(0..self.stacks.len());
                let len = self.stacks[k].1.len();
                let keep = self.rng.gen_range(0..len + 1);
                let (stack, model) = &mut self.stacks[k];
                stack.truncate(keep);
                model.truncate(keep);
            }
            67..=76 => {
                let (v, n) = self.value();
                let k = self.rng.gen_range(0..self.stacks.len());
                let (stack, model) = &mut self.stacks[k];
                if !model.is_empty() {
                    let i = self.rng.gen_range(0..model.len());
                    stack.set(i, v);
                    model[i] = n;
                }
            }
            77..=84 => {
                // Young collections dominate; any generation may be asked
                // for, up to the oldest.
                let generations = self.h.config().generations;
                let g = match self.rng.gen_range(0..8) {
                    0..=3 => 0,
                    4 | 5 => 1.min(generations - 1),
                    6 => self.rng.gen_range(0..generations.min(4)),
                    _ => self.rng.gen_range(0..generations),
                };
                self.before_collection();
                let report = self.h.collect(g).clone();
                self.after_collection(report);
            }
            _ => {
                // Garbage, then a safe point: under a pause budget this
                // runs one increment, with root operations in between.
                for _ in 0..self.rng.gen_range(10..120) {
                    self.h.cons(Value::NIL, Value::NIL);
                }
                self.before_collection();
                if let Some(report) = self.h.maybe_collect().cloned() {
                    self.after_collection(report);
                } else {
                    self.h.verify().expect("valid mid-cycle");
                    self.check_no_demotion();
                }
            }
        }
    }
}

/// Every root's raw value, handle by handle.
type RootValues = Vec<u64>;

fn drive(seed: u64, config: &GcConfig, unfiltered: bool) -> (Vec<CollectionReport>, RootValues) {
    let mut h = Heap::new(config.clone());
    let stacks = (0..2).map(|_| (h.root_vec(), Vec::new())).collect();
    let mut w = World {
        h,
        rng: SmallRng::seed_from_u64(seed),
        unfiltered,
        singles: Vec::new(),
        cells: Vec::new(),
        stacks,
        next_payload: 0,
        reports: Vec::new(),
        generations: Vec::new(),
    };
    for _ in 0..600 {
        w.step();
    }
    w.before_collection();
    let top = w.h.config().generations - 1;
    let report = w.h.collect(top).clone();
    w.after_collection(report);
    let mut values: RootValues = w.singles.iter().map(|s| s.handle.get().raw()).collect();
    for (stack, _) in &w.stacks {
        values.extend((0..stack.len()).map(|i| stack.get(i).raw()));
    }
    (w.reports, values)
}

/// The report with everything the stamp filter is allowed to change
/// (how many root slots were looked at) and the clock removed.
fn comparable(r: &CollectionReport) -> CollectionReport {
    CollectionReport {
        roots_traced: 0,
        roots_retraced: 0,
        duration: Duration::ZERO,
        phases: PhaseTimes::default(),
        ..r.clone()
    }
}

fn filtered_matches_unfiltered(config: GcConfig, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let (filtered, values) = drive(seed, &config, false);
        let (unfiltered, reference) = drive(seed, &config, true);
        let context = format!("seed {seed}, {config:?}");
        assert_eq!(filtered.len(), unfiltered.len(), "{context}");
        let mut skipped = 0;
        for (i, (f, u)) in filtered.iter().zip(&unfiltered).enumerate() {
            assert_eq!(comparable(f), comparable(u), "collection {i}, {context}");
            assert!(
                f.roots_traced <= u.roots_traced,
                "collection {i}, {context}"
            );
            skipped += u.roots_traced - f.roots_traced;
        }
        assert_eq!(values, reference, "{context}");
        if config.generations > 1 {
            assert!(skipped > 0, "the filter never skipped a slot: {context}");
        }
    }
}

fn configs(base: GcConfig) -> impl Iterator<Item = GcConfig> {
    let promotions = [
        Promotion::NextGeneration,
        Promotion::Capped(1),
        Promotion::Capped(2),
        Promotion::SameGeneration,
    ];
    [1u8, 4, 254].into_iter().flat_map(move |generations| {
        let base = base.clone();
        promotions.into_iter().map(move |promotion| GcConfig {
            generations,
            frequency: vec![1, 4, 16, 64],
            promotion,
            trigger_bytes: 4096,
            ..base.clone()
        })
    })
}

#[test]
fn filtered_matches_unfiltered_serial() {
    for config in configs(GcConfig::new()) {
        filtered_matches_unfiltered(config, 0..6);
    }
}

#[test]
fn filtered_matches_unfiltered_in_one_unit_increments() {
    let base = GcConfig {
        pause_budget: Some(Duration::ZERO),
        ..GcConfig::new()
    };
    for config in configs(base) {
        filtered_matches_unfiltered(config, 200..206);
    }
}
