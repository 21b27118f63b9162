//! Seed-driven trace generation. One `u64` seed determines the heap
//! configuration *and* the full op sequence, via the vendored
//! xoshiro256++ `SmallRng` — deterministic across runs and builds, so a
//! seed printed by a failing run reproduces the failure anywhere.

use crate::ops::{Op, Ref, TortureConfig, Trace};
use guardians_gc::Promotion;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Derives the heap configuration a seed runs under: the promotion policy
/// is rotated so the fleet of seeds covers every one. The policy is fixed
/// for the trace's run, as a heap's is fixed when it is built.
pub fn config_for_seed(seed: u64) -> TortureConfig {
    TortureConfig {
        promotion: match seed % 4 {
            0 => Promotion::NextGeneration,
            1 => Promotion::Capped(2),
            2 => Promotion::SameGeneration,
            _ => Promotion::Capped(1),
        },
        ..TortureConfig::default()
    }
}

/// Generates a trace of `nops` ops from `seed`.
pub fn generate(seed: u64, nops: usize) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = Gen {
        ops: Vec::with_capacity(nops),
        next_id: 0,
        next_gi: 0,
        next_wid: 0,
        nodes: Vec::new(),
        typed: Vec::new(),
        guardians: Vec::new(),
        weaks: Vec::new(),
        typed_weaks: Vec::new(),
        rooted: Vec::new(),
    };
    // Seed the heap with a few rooted nodes so early ops have referents.
    for _ in 0..4 {
        g.alloc(&mut rng);
        g.root_last();
    }
    while g.ops.len() < nops {
        g.step(&mut rng);
    }
    g.ops.truncate(nops);
    Trace {
        seed: Some(seed),
        config: config_for_seed(seed),
        ops: g.ops,
    }
}

struct Gen {
    ops: Vec<Op>,
    next_id: u32,
    next_gi: u32,
    next_wid: u32,
    nodes: Vec<u32>,
    /// The subset of `nodes` allocated through the typed API (typed edges
    /// and typed weaks may only reference these).
    typed: Vec<u32>,
    guardians: Vec<u32>,
    weaks: Vec<u32>,
    /// The subset of `weaks` that are typed `Weak<T>`s (`tupgrade` picks
    /// from these).
    typed_weaks: Vec<u32>,
    rooted: Vec<u32>,
}

impl Gen {
    /// Picks a node id, biased toward recent allocations (recency keeps
    /// the generated graph's wavefront busy without abandoning old-gen
    /// objects entirely).
    fn pick_node(&self, rng: &mut SmallRng) -> Option<u32> {
        if self.nodes.is_empty() {
            return None;
        }
        let n = self.nodes.len();
        let i = if n > 20 && rng.gen_range(0..100) < 60 {
            rng.gen_range(n - 20..n)
        } else {
            rng.gen_range(0..n)
        };
        Some(self.nodes[i])
    }

    fn pick_ref(&self, rng: &mut SmallRng) -> Ref {
        let roll = rng.gen_range(0..100);
        if roll < 15 {
            Ref::Null
        } else if roll < 25 && !self.guardians.is_empty() {
            Ref::Tconc(self.guardians[rng.gen_range(0..self.guardians.len())])
        } else {
            self.pick_node(rng).map_or(Ref::Null, Ref::Node)
        }
    }

    /// Picks a typed-node operand: `Null` sometimes, else a random typed
    /// node (edges and weaks of typed nodes may only reference typed
    /// nodes).
    fn pick_typed_ref(&self, rng: &mut SmallRng) -> Ref {
        if self.typed.is_empty() || rng.gen_range(0..4) == 0 {
            Ref::Null
        } else {
            Ref::Node(self.typed[rng.gen_range(0..self.typed.len())])
        }
    }

    fn alloc(&mut self, rng: &mut SmallRng) {
        let id = self.next_id;
        self.next_id += 1;
        let op = match rng.gen_range(0..100) {
            0..=47 => Op::AllocPair {
                id,
                left: self.pick_ref(rng),
                right: self.pick_ref(rng),
            },
            48..=55 => {
                self.typed.push(id);
                Op::AllocTyped {
                    id,
                    left: self.pick_typed_ref(rng),
                    right: self.pick_typed_ref(rng),
                }
            }
            56..=79 => {
                // Mostly small vectors; 1-in-12 is a multi-segment run.
                let payload = if rng.gen_range(0..12) == 0 {
                    rng.gen_range(600..1400)
                } else {
                    rng.gen_range(0..8)
                };
                Op::AllocVector {
                    id,
                    payload,
                    left: self.pick_ref(rng),
                    right: self.pick_ref(rng),
                }
            }
            80..=89 => Op::AllocBytevector {
                id,
                len: if rng.gen_range(0..10) == 0 {
                    rng.gen_range(5000..9000)
                } else {
                    rng.gen_range(0..64)
                },
            },
            _ => Op::AllocString { id },
        };
        self.ops.push(op);
        self.nodes.push(id);
    }

    fn root_last(&mut self) {
        let id = *self.nodes.last().expect("just allocated");
        self.ops.push(Op::AddRoot { node: id });
        self.rooted.push(id);
    }

    fn step(&mut self, rng: &mut SmallRng) {
        match rng.gen_range(0..100) {
            0..=24 => {
                self.alloc(rng);
                // Keep about half of fresh allocations reachable: root
                // some, hang others off an existing node.
                match rng.gen_range(0..10) {
                    0..=2 => self.root_last(),
                    3..=5 => {
                        let fresh = *self.nodes.last().expect("just allocated");
                        if let Some(host) = self.pick_node(rng) {
                            self.ops.push(Op::SetEdge {
                                node: host,
                                slot: rng.gen_range(0..2),
                                to: Ref::Node(fresh),
                            });
                        }
                    }
                    _ => {}
                }
            }
            25..=42 => {
                if let Some(node) = self.pick_node(rng) {
                    self.ops.push(Op::SetEdge {
                        node,
                        slot: rng.gen_range(0..2),
                        to: self.pick_ref(rng),
                    });
                }
            }
            43..=47 => {
                if let Some(node) = self.pick_node(rng) {
                    self.ops.push(Op::SetWeak {
                        node,
                        to: self.pick_ref(rng),
                    });
                }
            }
            48..=50 => {
                if let Some(node) = self.pick_node(rng) {
                    self.ops.push(Op::AddRoot { node });
                    self.rooted.push(node);
                }
            }
            51..=52 => {
                if !self.typed.is_empty() {
                    let node = self.typed[rng.gen_range(0..self.typed.len())];
                    self.ops.push(Op::AddTypedRoot { node });
                    self.rooted.push(node);
                }
            }
            53..=56 => {
                if !self.rooted.is_empty() {
                    let node = self.rooted.swap_remove(rng.gen_range(0..self.rooted.len()));
                    self.ops.push(Op::DropRoot { node });
                }
            }
            57..=59 => {
                // Re-aim an existing root, usually at something young.
                if !self.rooted.is_empty() {
                    if let Some(node) = self.pick_node(rng) {
                        let i = rng.gen_range(0..self.rooted.len());
                        let root = std::mem::replace(&mut self.rooted[i], node);
                        self.ops.push(Op::SetRoot { root, node });
                    }
                }
            }
            60..=62 => {
                let g = self.next_gi;
                self.next_gi += 1;
                self.ops.push(Op::MakeGuardian { g });
                self.guardians.push(g);
            }
            63..=69 => {
                if !self.guardians.is_empty() {
                    let g = self.guardians[rng.gen_range(0..self.guardians.len())];
                    let target = self.pick_ref(rng);
                    // 1-in-5 registrations use a distinct agent (§5).
                    let agent = (rng.gen_range(0..5) == 0).then(|| self.pick_ref(rng));
                    self.ops.push(Op::Register { g, target, agent });
                }
            }
            70..=71 => {
                if !self.guardians.is_empty() && !self.typed.is_empty() {
                    let g = self.guardians[rng.gen_range(0..self.guardians.len())];
                    let node = self.typed[rng.gen_range(0..self.typed.len())];
                    self.ops.push(Op::RegisterTyped { g, node });
                }
            }
            72..=75 => {
                if !self.guardians.is_empty() {
                    let g = self.guardians[rng.gen_range(0..self.guardians.len())];
                    self.ops.push(Op::Poll { g });
                }
            }
            76..=77 => {
                if !self.guardians.is_empty() {
                    let g = self.guardians[rng.gen_range(0..self.guardians.len())];
                    self.ops.push(Op::PollTyped { g });
                }
            }
            78 => {
                if !self.guardians.is_empty() {
                    let g = self.guardians[rng.gen_range(0..self.guardians.len())];
                    self.ops.push(Op::DropGuardian { g });
                }
            }
            79..=81 => {
                let wid = self.next_wid;
                self.next_wid += 1;
                self.ops.push(Op::AllocWeakPair {
                    wid,
                    target: self.pick_ref(rng),
                });
                self.weaks.push(wid);
            }
            82 => {
                if !self.typed.is_empty() {
                    let wid = self.next_wid;
                    self.next_wid += 1;
                    let node = self.typed[rng.gen_range(0..self.typed.len())];
                    self.ops.push(Op::AllocTypedWeak { wid, node });
                    self.weaks.push(wid);
                    self.typed_weaks.push(wid);
                }
            }
            83 => {
                if !self.weaks.is_empty() {
                    let wid = self.weaks[rng.gen_range(0..self.weaks.len())];
                    self.ops.push(Op::SetWeakPair {
                        wid,
                        target: self.pick_ref(rng),
                    });
                }
            }
            84 => {
                if !self.typed_weaks.is_empty() {
                    let wid = self.typed_weaks[rng.gen_range(0..self.typed_weaks.len())];
                    self.ops.push(Op::UpgradeTypedWeak { wid });
                }
            }
            85..=86 => {
                if !self.weaks.is_empty() {
                    let wid = self.weaks.swap_remove(rng.gen_range(0..self.weaks.len()));
                    self.ops.push(Op::DropWeakPair { wid });
                }
            }
            87..=93 => {
                // Young collections dominate, as in real schedules.
                let gen = *[0, 0, 0, 0, 1, 1, 2, 3]
                    .get(rng.gen_range(0..8usize))
                    .expect("in range");
                self.ops.push(Op::Collect { gen });
            }
            94..=97 => {
                self.ops.push(Op::Churn {
                    n: rng.gen_range(20..400),
                });
            }
            _ => {
                self.ops.push(Op::Grow {
                    bytes: rng.gen_range(100..9000),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(12345, 500);
        let b = generate(12345, 500);
        assert_eq!(a, b);
        let c = generate(12346, 500);
        assert_ne!(a.ops, c.ops, "different seeds give different traces");
    }

    #[test]
    fn generated_traces_round_trip() {
        let t = generate(777, 300);
        assert_eq!(Trace::parse(&t.to_text()).expect("parses"), t);
        assert!(t.ops.iter().any(|o| matches!(o, Op::Collect { .. })));
        assert!(t.ops.iter().any(|o| matches!(o, Op::Register { .. })));
        assert!(t.ops.iter().any(|o| matches!(o, Op::AllocTyped { .. })));
    }

    #[test]
    fn seed_fleet_covers_every_promotion_rule() {
        let rules: Vec<Promotion> = (0..4).map(|s| config_for_seed(s).promotion).collect();
        for rule in [
            Promotion::NextGeneration,
            Promotion::Capped(1),
            Promotion::Capped(2),
            Promotion::SameGeneration,
        ] {
            assert!(rules.contains(&rule), "{rule:?} missing from {rules:?}");
        }
    }

    /// The soak's shape (`--seeds 150 --ops 2500`): every trace overwrites
    /// a live root, the one root operation that needs the write barrier.
    #[test]
    fn every_soak_trace_overwrites_a_root() {
        for seed in 0..150 {
            let t = generate(seed, 2500);
            let n = t
                .ops
                .iter()
                .filter(|o| matches!(o, Op::SetRoot { .. }))
                .count();
            assert!(n >= 20, "seed {seed}: {n} setroot ops");
        }
    }
}
