//! Model-based property test: random mutator programs are run against
//! both the real heap and a shadow *oracle* that computes reachability,
//! guardian deliveries, weak-pointer breaks, and generation aging from
//! first principles. After every collection the two worlds must agree on:
//!
//! * which objects are reachable from the roots, with intact identity and
//!   link structure;
//! * each object's generation;
//! * exactly which (id, guardian) deliveries each live guardian yields,
//!   with registration multiplicity;
//! * which weak pointers are broken vs. forwarded (including the
//!   guardian-salvage interaction: weak pointers to salvaged objects are
//!   *not* broken);
//! * full structural heap validity ([`Heap::verify`]).
//!
//! Heap objects are vectors `[id, left, right, weak-pair]` so the oracle
//! can identify them; the weak-pair slot gives every object one weak
//! out-edge, which is mutated freely to exercise the dirty-weak-segment
//! paths.

use guardians_gc::{GcConfig, Guardian, Heap, Promotion, Rooted, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Payload length of a "large" node: with the header and the four
/// bookkeeping slots this exceeds two segments, so the vector body lives
/// in a multi-segment run and is forwarded with cross-run bulk copies.
const LARGE_PAYLOAD: usize = 1200;

#[derive(Clone, Debug)]
enum Op {
    /// Allocate a node; optionally root it. Large nodes carry a
    /// multi-segment payload that must survive copying intact.
    New {
        rooted: bool,
        large: bool,
    },
    /// Set a strong link (side 0 = left, 1 = right) between reachable nodes.
    Link {
        from: usize,
        to: usize,
        side: u8,
    },
    /// Clear a strong link.
    Unlink {
        from: usize,
        side: u8,
    },
    /// Point a node's weak edge at a reachable node.
    SetWeak {
        from: usize,
        to: usize,
    },
    /// Root an already-reachable node.
    AddRoot {
        node: usize,
    },
    /// Drop one root.
    DropRoot {
        root: usize,
    },
    NewGuardian,
    DropGuardian {
        guardian: usize,
    },
    /// Register a reachable node with a live guardian.
    Register {
        node: usize,
        guardian: usize,
    },
    Collect {
        gen: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<bool>(), 0u8..8).prop_map(|(rooted, l)| Op::New { rooted, large: l == 0 }),
        3 => (any::<usize>(), any::<usize>(), 0u8..2).prop_map(|(from, to, side)| Op::Link { from, to, side }),
        1 => (any::<usize>(), 0u8..2).prop_map(|(from, side)| Op::Unlink { from, side }),
        2 => (any::<usize>(), any::<usize>()).prop_map(|(from, to)| Op::SetWeak { from, to }),
        1 => any::<usize>().prop_map(|node| Op::AddRoot { node }),
        2 => any::<usize>().prop_map(|root| Op::DropRoot { root }),
        1 => Just(Op::NewGuardian),
        1 => any::<usize>().prop_map(|guardian| Op::DropGuardian { guardian }),
        3 => (any::<usize>(), any::<usize>()).prop_map(|(node, guardian)| Op::Register { node, guardian }),
        2 => (0u8..4).prop_map(|gen| Op::Collect { gen }),
    ]
}

#[derive(Clone, Debug)]
struct MNode {
    left: Option<u32>,
    right: Option<u32>,
    weak: Option<u32>,
    gen: u8,
}

#[derive(Clone, Debug)]
struct MEntry {
    obj: u32,
    guardian: usize,
    gen: u8,
}

/// Oracle-side guardian state.
///
/// A dropped guardian's objects are only released once its death is
/// *proven* — i.e. once a collection covers the generation its tconc
/// lives in. Until then the collector (correctly, conservatively) treats
/// the old-generation tconc as live: entries are held, dead objects are
/// even resurrected into the zombie tconc, retained there until the
/// tconc's generation is finally collected. The oracle models all of
/// that.
#[derive(Clone, Debug)]
struct MGuardian {
    /// The Rust handle (the root) still exists.
    alive: bool,
    /// Death has been proven by a collection covering the tconc.
    dead_proven: bool,
    /// Generation the tconc currently lives in.
    tconc_gen: u8,
    /// Objects resurrected into the tconc while it was an unproven
    /// zombie: retained by the tconc, never deliverable.
    pending: Vec<u32>,
    /// Deliveries awaiting the post-collection drain (alive guardians).
    expected: Vec<u32>,
}

/// The oracle.
#[derive(Default)]
struct Model {
    nodes: BTreeMap<u32, MNode>,
    roots: BTreeSet<u32>,
    entries: Vec<MEntry>,
    guardians: Vec<MGuardian>,
    next_id: u32,
}

impl Model {
    fn closure(&self, seeds: impl IntoIterator<Item = u32>) -> BTreeSet<u32> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<u32> = seeds.into_iter().collect();
        while let Some(id) = stack.pop() {
            if !self.nodes.contains_key(&id) || !seen.insert(id) {
                continue;
            }
            let n = &self.nodes[&id];
            stack.extend(n.left);
            stack.extend(n.right);
            // weak edges do not retain
        }
        seen
    }

    fn reachable_from_roots(&self) -> BTreeSet<u32> {
        self.closure(self.roots.iter().copied())
    }

    /// Whether guardian `gi`'s tconc counts as accessible (the paper's
    /// `forwarded?` on the tconc) for a collection of generation `g`:
    /// the handle is live, or death is not yet proven because the tconc
    /// sits in an uncollected older generation.
    fn tconc_ok(&self, gi: usize, g: u8) -> bool {
        let gd = &self.guardians[gi];
        gd.alive || (!gd.dead_proven && gd.tconc_gen > g)
    }

    fn collect(&mut self, g: u8, target: u8) {
        // Seeds: roots, objects in uncollected generations, and objects
        // retained by surviving (alive or unproven-zombie) tconcs.
        let auto: Vec<u32> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.gen > g)
            .map(|(id, _)| *id)
            .collect();
        let held: Vec<u32> = (0..self.guardians.len())
            .filter(|&gi| self.tconc_ok(gi, g))
            .flat_map(|gi| self.guardians[gi].pending.to_vec())
            .collect();
        let survivors = self.closure(self.roots.iter().copied().chain(auto).chain(held));

        // Guardian entry processing (paper block structure).
        let mut delivered: Vec<(usize, u32)> = Vec::new();
        let mut kept = Vec::new();
        for mut e in std::mem::take(&mut self.entries) {
            if e.gen > g {
                kept.push(e); // parked in an older protected list
                continue;
            }
            let tconc_ok = self.tconc_ok(e.guardian, g);
            if survivors.contains(&e.obj) {
                if tconc_ok {
                    e.gen = target;
                    kept.push(e);
                }
                // proven-dead guardian: entry dropped though the object lives
            } else if tconc_ok {
                delivered.push((e.guardian, e.obj));
            }
            // dead object + proven-dead guardian: dropped silently
        }
        self.entries = kept;

        // Resurrection closure of finalized objects (delivered to alive
        // guardians or parked in zombie tconcs — both are saved).
        let resurrected = self.closure(delivered.iter().map(|(_, id)| *id));
        let live: BTreeSet<u32> = survivors.union(&resurrected).copied().collect();

        for (id, n) in self.nodes.iter_mut() {
            if live.contains(id) && n.gen <= g {
                n.gen = target;
            }
        }
        self.nodes.retain(|id, _| live.contains(id));
        for n in self.nodes.values_mut() {
            if let Some(t) = n.weak {
                if !live.contains(&t) {
                    n.weak = None; // broken
                }
            }
        }
        for (gi, id) in delivered {
            if self.guardians[gi].alive {
                self.guardians[gi].expected.push(id);
            } else {
                // Saved into the zombie tconc: retained but undeliverable.
                self.guardians[gi].pending.push(id);
            }
        }

        // Tconc fates: age surviving tconcs; prove zombie deaths.
        for gd in &mut self.guardians {
            if gd.dead_proven {
                continue;
            }
            if gd.alive {
                if gd.tconc_gen <= g {
                    gd.tconc_gen = target;
                }
            } else if gd.tconc_gen <= g {
                // The collection covered the zombie tconc: death proven,
                // its pending objects lose their last support.
                gd.dead_proven = true;
                gd.pending.clear();
            } else {
                // Still unproven; pending survivors age with the rest.
            }
        }
        // Hygiene: prune pending ids that are no longer modelled.
        for gd in &mut self.guardians {
            gd.pending.retain(|id| self.nodes.contains_key(id));
        }
    }
}

/// Deterministic payload pattern for large-node slot `k`.
fn payload_word(id: u32, k: usize) -> i64 {
    id as i64 * 10_000 + k as i64
}

/// Heap-side state.
struct World {
    heap: Heap,
    model: Model,
    roots: HashMap<u32, Rooted>,
    guardians: Vec<Option<Guardian>>,
    /// id -> current heap value, refreshed by walking from the roots.
    id2val: HashMap<u32, Value>,
}

impl World {
    fn new(promotion: Promotion) -> World {
        World {
            heap: Heap::new(GcConfig {
                promotion,
                ..GcConfig::new()
            }),
            model: Model::default(),
            roots: HashMap::new(),
            guardians: Vec::new(),
            id2val: HashMap::new(),
        }
    }

    fn node_id(&self, v: Value) -> u32 {
        self.heap.vector_ref(v, 0).as_fixnum() as u32
    }

    /// Recomputes id→value by walking the heap graph from the roots.
    fn rebuild_id_map(&mut self) {
        self.id2val.clear();
        let mut stack: Vec<Value> = self.roots.values().map(|r| r.get()).collect();
        while let Some(v) = stack.pop() {
            if !self.heap.is_vector(v) {
                continue;
            }
            let id = self.node_id(v);
            if self.id2val.insert(id, v).is_some() {
                continue;
            }
            for side in [1, 2] {
                let link = self.heap.vector_ref(v, side);
                if !link.is_false() {
                    stack.push(link);
                }
            }
        }
    }

    fn reachable_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.id2val.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn pick_reachable(&self, raw: usize) -> Option<u32> {
        let ids = self.reachable_ids();
        if ids.is_empty() {
            None
        } else {
            Some(ids[raw % ids.len()])
        }
    }

    fn pick_live_guardian(&self, raw: usize) -> Option<usize> {
        let live: Vec<usize> = self
            .guardians
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_some())
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            None
        } else {
            Some(live[raw % live.len()])
        }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::New { rooted, large } => {
                let id = self.model.next_id;
                self.model.next_id += 1;
                let wp = self.heap.weak_cons(Value::FALSE, Value::NIL);
                let len = if large { 4 + LARGE_PAYLOAD } else { 4 };
                let v = self.heap.make_vector(len, Value::FALSE);
                self.heap.vector_set(v, 0, Value::fixnum(id as i64));
                self.heap.vector_set(v, 3, wp);
                // A recognisable payload pattern; checked after every
                // collection to prove cross-run copies move bodies intact.
                for k in 4..len {
                    self.heap
                        .vector_set(v, k, Value::fixnum(payload_word(id, k)));
                }
                self.model.nodes.insert(
                    id,
                    MNode {
                        left: None,
                        right: None,
                        weak: None,
                        gen: 0,
                    },
                );
                if rooted {
                    self.roots.insert(id, self.heap.root(v));
                    self.model.roots.insert(id);
                    self.id2val.insert(id, v);
                } else {
                    // Only reachable if later linked before a collection;
                    // keep it addressable until then.
                    self.id2val.insert(id, v);
                }
            }
            Op::Link { from, to, side } => {
                let (Some(f), Some(t)) = (self.pick_reachable(from), self.pick_reachable(to))
                else {
                    return;
                };
                let fv = self.id2val[&f];
                let tv = self.id2val[&t];
                self.heap.vector_set(fv, 1 + side as usize, tv);
                let n = self.model.nodes.get_mut(&f).expect("model node");
                if side == 0 {
                    n.left = Some(t);
                } else {
                    n.right = Some(t);
                }
            }
            Op::Unlink { from, side } => {
                let Some(f) = self.pick_reachable(from) else {
                    return;
                };
                let fv = self.id2val[&f];
                self.heap.vector_set(fv, 1 + side as usize, Value::FALSE);
                let n = self.model.nodes.get_mut(&f).expect("model node");
                if side == 0 {
                    n.left = None;
                } else {
                    n.right = None;
                }
            }
            Op::SetWeak { from, to } => {
                let (Some(f), Some(t)) = (self.pick_reachable(from), self.pick_reachable(to))
                else {
                    return;
                };
                let fv = self.id2val[&f];
                let tv = self.id2val[&t];
                let wp = self.heap.vector_ref(fv, 3);
                self.heap.set_car(wp, tv);
                self.model.nodes.get_mut(&f).expect("model node").weak = Some(t);
            }
            Op::AddRoot { node } => {
                let Some(id) = self.pick_reachable(node) else {
                    return;
                };
                if self.roots.contains_key(&id) {
                    return;
                }
                let v = self.id2val[&id];
                self.roots.insert(id, self.heap.root(v));
                self.model.roots.insert(id);
            }
            Op::DropRoot { root } => {
                let mut keys: Vec<u32> = self.roots.keys().copied().collect();
                keys.sort_unstable();
                if keys.is_empty() {
                    return;
                }
                let id = keys[root % keys.len()];
                self.roots.remove(&id);
                self.model.roots.remove(&id);
            }
            Op::NewGuardian => {
                let g = self.heap.make_guardian();
                self.guardians.push(Some(g));
                self.model.guardians.push(MGuardian {
                    alive: true,
                    dead_proven: false,
                    tconc_gen: 0,
                    pending: Vec::new(),
                    expected: Vec::new(),
                });
            }
            Op::DropGuardian { guardian } => {
                let Some(i) = self.pick_live_guardian(guardian) else {
                    return;
                };
                self.guardians[i] = None;
                self.model.guardians[i].alive = false;
            }
            Op::Register { node, guardian } => {
                let (Some(id), Some(gi)) =
                    (self.pick_reachable(node), self.pick_live_guardian(guardian))
                else {
                    return;
                };
                let v = self.id2val[&id];
                let g = self.guardians[gi].as_ref().expect("live guardian");
                g.register(&mut self.heap, v);
                self.model.entries.push(MEntry {
                    obj: id,
                    guardian: gi,
                    gen: 0,
                });
            }
            Op::Collect { gen } => self.collect_and_check(gen),
        }
    }

    fn collect_and_check(&mut self, gen: u8) {
        let gen = gen.min(self.heap.config().max_generation());
        let target = self
            .heap
            .config()
            .promotion
            .target(gen, self.heap.config().max_generation());
        self.heap.collect(gen);
        self.heap.verify().expect("heap verifies after collection");
        self.model.collect(gen, target);
        self.rebuild_id_map();

        // 1. Reachability agreement.
        let heap_reachable: BTreeSet<u32> = self.id2val.keys().copied().collect();
        let model_reachable = self.model.reachable_from_roots();
        assert_eq!(
            heap_reachable, model_reachable,
            "root-reachable sets diverged"
        );

        // 2. Structure, generation, and weak-edge agreement per node.
        for (&id, &v) in &self.id2val {
            let m = &self.model.nodes[&id];
            assert_eq!(
                self.heap.generation_of(v),
                Some(m.gen),
                "generation of node {id} diverged"
            );
            for (side, expect) in [(1usize, m.left), (2usize, m.right)] {
                let link = self.heap.vector_ref(v, side);
                match expect {
                    Some(t) => assert_eq!(self.node_id(link), t, "link of node {id} diverged"),
                    None => assert!(link.is_false(), "node {id} should have no link {side}"),
                }
            }
            // Large-node payloads (multi-segment runs) survive bit-intact.
            for k in 4..self.heap.vector_len(v) {
                assert_eq!(
                    self.heap.vector_ref(v, k).as_fixnum(),
                    payload_word(id, k),
                    "payload word {k} of large node {id} corrupted by copying"
                );
            }
            let wp = self.heap.vector_ref(v, 3);
            let wcar = self.heap.car(wp);
            match m.weak {
                Some(t) => {
                    assert!(
                        self.heap.is_vector(wcar),
                        "weak edge of node {id} wrongly broken (expected node {t})"
                    );
                    assert_eq!(self.node_id(wcar), t, "weak edge of node {id} diverged");
                }
                None => {
                    assert!(
                        wcar.is_false(),
                        "weak edge of node {id} should be broken, points to node {}",
                        self.node_id(wcar)
                    );
                }
            }
        }

        // 3. Guardian deliveries, as multisets of ids, drained right away.
        for (gi, slot) in self.guardians.iter().enumerate() {
            let Some(g) = slot else { continue };
            let mut got: Vec<u32> = Vec::new();
            let mut polled = Vec::new();
            while let Some(v) = g.poll(&mut self.heap) {
                assert!(self.heap.is_vector(v), "delivered value is a node");
                got.push(self.heap.vector_ref(v, 0).as_fixnum() as u32);
                polled.push(v);
            }
            got.sort_unstable();
            let mut want = std::mem::take(&mut self.model.guardians[gi].expected);
            want.sort_unstable();
            assert_eq!(got, want, "guardian {gi} deliveries diverged");
        }
    }
}

/// Scripted regression: large nodes (multi-segment runs) linked from a
/// small rooted node survive repeated promotions — each one a cross-run
/// bulk copy — with payloads intact, including after old-generation
/// mutation marks a card of the run (and flags its head) for the
/// remembered set.
#[test]
fn large_object_runs_survive_cross_run_copies() {
    let mut w = World::new(Promotion::NextGeneration);
    w.apply(&Op::NewGuardian);
    w.apply(&Op::New {
        rooted: true,
        large: false,
    }); // node 0: the anchor
    w.apply(&Op::New {
        rooted: false,
        large: true,
    }); // node 1
    w.apply(&Op::New {
        rooted: false,
        large: true,
    }); // node 2
    w.apply(&Op::Link {
        from: 0,
        to: 1,
        side: 0,
    });
    w.apply(&Op::Link {
        from: 1,
        to: 2,
        side: 1,
    });
    // Promote through every generation: each collection forwards both
    // large runs with cross-run copy_words calls.
    for gen in [0u8, 0, 1, 2, 3] {
        w.apply(&Op::Collect { gen });
    }
    // Mutate a link on the (now old) large node: its run head goes dirty
    // and the next young collection scans the run via the remembered set.
    w.apply(&Op::New {
        rooted: false,
        large: true,
    }); // node 3, generation 0
    w.apply(&Op::Link {
        from: 1,
        to: 3,
        side: 0,
    });
    w.apply(&Op::Collect { gen: 0 });
    // Drop the anchor: everything (runs included) must be reclaimed
    // without tripping verification.
    w.apply(&Op::DropRoot { root: 0 });
    w.apply(&Op::Collect { gen: 3 });
    w.apply(&Op::Collect { gen: 3 });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn random_mutators_agree_with_the_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        policy in 0u8..3,
    ) {
        let promotion = match policy {
            0 => Promotion::NextGeneration,
            1 => Promotion::Capped(2),
            _ => Promotion::SameGeneration,
        };
        let mut w = World::new(promotion);
        // Always have at least one guardian in play.
        w.apply(&Op::NewGuardian);
        for op in &ops {
            w.apply(op);
        }
        // Final full collection: everything must still agree.
        w.collect_and_check(3);
        w.collect_and_check(3);
    }
}
