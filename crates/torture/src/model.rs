//! The shadow-heap oracle: a plain-`Vec`/`HashMap` model of the paper's
//! semantics, independent of the real collector's representation.
//!
//! The model deliberately re-derives everything from first principles —
//! reachability is a BFS over id-edges, guardian queues are `VecDeque`s
//! keyed by registration order, weak cars break by a set-membership test —
//! so that agreement with the real heap is evidence, not tautology.
//!
//! It is the repository's one executable statement of the heap's
//! semantics, and it describes a heap that holds only what the trace
//! allocated: the rig's trackers are weak root slots, not heap objects,
//! so they appear here only as terms of the weak-slot counters.
//!
//! One point deserves spelling out because the whole oracle leans on it:
//! **the collector's floating-garbage behaviour is exact, not fuzzy**.
//! When generations `0..=g` are collected, every object physically residing
//! in a generation `> g` survives verbatim — reachable or not — and the
//! remembered-set scan walks *entire* dirty old segments, so the young
//! objects such floating garbage points at are retained too. Any old
//! object holding an old→young edge is guaranteed to sit in a dirty
//! segment (the write barrier dirties it at the store, and the weak/remset
//! scans re-mark segments that still point younger). The model therefore
//! seeds its survivor closure with *all* physical objects of generations
//! `> g`, and that is precisely — not conservatively — what the real
//! collector retains.

use crate::ops::{NodeKind, Ref, TortureConfig};
use std::collections::{HashMap, HashSet, VecDeque};

/// Shadow image of one rig-allocated node.
#[derive(Clone, Debug)]
pub struct MNode {
    /// Object shape.
    pub kind: NodeKind,
    /// Current generation.
    pub gen: u8,
    /// First strong edge (pairs and vectors; `Null` on leaves).
    pub left: Ref,
    /// Second strong edge.
    pub right: Ref,
    /// The attached weak pair's car (vectors only); `Null` models `#f`.
    pub weak_car: Ref,
    /// Vector extra slots / bytevector length (0 otherwise).
    pub payload: u32,
}

/// Shadow image of one guardian's tconc.
#[derive(Clone, Debug)]
pub struct MTconc {
    /// Current generation.
    pub gen: u8,
    /// The inaccessible group, in exact FIFO append order.
    pub queue: VecDeque<Ref>,
    /// Whether the rig still holds the (rooting) guardian handle.
    pub handle: bool,
}

/// Shadow image of one typed weak reference: a weak slot of the root
/// table, not a heap object. It has no generation; its stamp says which
/// collections visit it.
#[derive(Clone, Debug)]
pub struct MSlot {
    /// The watched typed node; `Null` models a broken slot (`#f`).
    pub target: Ref,
    /// The slot's generation stamp: 0 when claimed, then the generation
    /// its referent ended the last visit in ([`SLOT_CLEAN`] once broken).
    pub stamp: u8,
}

/// The stamp of a broken weak slot: no collection visits it again.
pub const SLOT_CLEAN: u8 = u8::MAX;

/// Shadow image of one standalone weak pair.
#[derive(Clone, Debug)]
pub struct MWeak {
    /// Current generation.
    pub gen: u8,
    /// The watched object; `Null` models a broken car (`#f`).
    pub target: Ref,
    /// Whether the rig still roots it. An unrooted weak pair lingers as
    /// floating garbage until its generation is collected.
    pub rooted: bool,
}

/// One protected-list entry: (obj, rep, tconc) by id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MEntry {
    /// Guardian index of the watching tconc.
    pub tconc: u32,
    /// The watched object.
    pub obj: Ref,
    /// The representative enqueued when `obj` proves inaccessible.
    pub rep: Ref,
}

/// What the model predicts one collection did — compared field-for-field
/// against the real [`CollectionReport`](guardians_gc::CollectionReport).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MReport {
    /// Protected entries examined (paper block 1).
    pub visited: u64,
    /// Entries whose rep was salvaged into its tconc (block 2).
    pub finalized: u64,
    /// Entries re-parked because their object stayed accessible (block 3).
    pub held: u64,
    /// Entries discarded because their guardian was unreachable.
    pub dropped: u64,
    /// Fixpoint rounds, counting the final empty round.
    pub loop_iterations: u64,
    /// Weak cars the post-guardian weak pass breaks to `#f`.
    pub weak_cars_broken: u64,
    /// Weak cars the pass forwards to a copied referent.
    pub weak_cars_forwarded: u64,
    /// Weak root slots stamped at most the collected generation: typed
    /// weaks and the rig's trackers.
    pub weak_roots_traced: u64,
    /// Weak root slots broken to `#f`.
    pub weak_roots_broken: u64,
}

/// The shadow heap.
#[derive(Clone, Debug)]
pub struct Model {
    /// The configuration the paired real heap runs under.
    pub cfg: TortureConfig,
    /// Physical nodes by id (reclaimed nodes are removed).
    pub nodes: HashMap<u32, MNode>,
    /// Physical tconcs by guardian index.
    pub tconcs: HashMap<u32, MTconc>,
    /// Physical standalone weak pairs by id.
    pub weaks: HashMap<u32, MWeak>,
    /// Live typed weak references by id (the weak-id space is shared with
    /// `weaks`); dropping one frees its slot at once.
    pub slots: HashMap<u32, MSlot>,
    /// Strongly rooted node ids.
    pub roots: HashSet<u32>,
    /// Protected lists, one per generation.
    pub protected: Vec<Vec<MEntry>>,
}

impl Model {
    /// An empty shadow heap for `cfg`.
    pub fn new(cfg: TortureConfig) -> Model {
        let gens = cfg.generations as usize;
        Model {
            cfg,
            nodes: HashMap::new(),
            tconcs: HashMap::new(),
            weaks: HashMap::new(),
            slots: HashMap::new(),
            roots: HashSet::new(),
            protected: vec![Vec::new(); gens],
        }
    }

    /// Whether `r` names a currently physical object (`Null` is not).
    pub fn physical(&self, r: Ref) -> bool {
        match r {
            Ref::Null => false,
            Ref::Node(id) => self.nodes.contains_key(&id),
            Ref::Tconc(g) => self.tconcs.contains_key(&g),
        }
    }

    /// Degrades a reference to `Null` when its object no longer exists,
    /// making every op total (and shrinking safe: removing the allocation
    /// an op depends on turns the op into a no-op, on both sides).
    pub fn normalize(&self, r: Ref) -> Ref {
        if self.physical(r) {
            r
        } else {
            Ref::Null
        }
    }

    /// Registrations currently watching guardian `g`'s tconc, across all
    /// protected lists (mirrors `Heap::guardian_watched`).
    pub fn watched(&self, g: u32) -> usize {
        self.protected
            .iter()
            .flatten()
            .filter(|e| e.tconc == g)
            .count()
    }

    /// Physical weak pairs residing in `gen`: standalone weak pairs and
    /// the weak pair attached to each vector node. Typed weaks and the
    /// rig's trackers are root slots, not pairs, and are not counted.
    pub fn weak_pairs_in_gen(&self, gen: u8) -> usize {
        self.weaks.values().filter(|w| w.gen == gen).count()
            + self
                .nodes
                .values()
                .filter(|n| n.kind == NodeKind::Vector && n.gen == gen)
                .count()
    }

    /// Collects generations `0..=g`, mutating the shadow heap and
    /// returning the predicted observables.
    pub fn collect(&mut self, g: u8) -> MReport {
        let max_gen = self.cfg.generations - 1;
        let target = self.cfg.promotion.target(g, max_gen);
        let mut report = MReport::default();

        // ---- Strong survivor closure ------------------------------------
        // Seeds: rig roots, guardian handles (they root their tconc), and
        // every physical object already in an uncollected generation (see
        // the module doc for why the last is exact).
        let mut live_n: HashSet<u32> = HashSet::new();
        let mut live_t: HashSet<u32> = HashSet::new();
        let mut work: VecDeque<Ref> = VecDeque::new();
        for &id in &self.roots {
            work.push_back(Ref::Node(id));
        }
        for (&gi, tc) in &self.tconcs {
            if tc.handle || tc.gen > g {
                work.push_back(Ref::Tconc(gi));
            }
        }
        for (&id, n) in &self.nodes {
            if n.gen > g {
                work.push_back(Ref::Node(id));
            }
        }
        self.close(&mut live_n, &mut live_t, work);

        // ---- Guardian pass (paper Section 4 pseudo-code) ----------------
        // Block 1: drain the protected lists of the collected generations,
        // partitioning on the accessibility of each watched object.
        let mut pend_hold: Vec<MEntry> = Vec::new();
        let mut pend_final: Vec<MEntry> = Vec::new();
        for i in 0..=g as usize {
            for e in std::mem::take(&mut self.protected[i]) {
                report.visited += 1;
                if accessible(&live_n, &live_t, e.obj) {
                    pend_hold.push(e);
                } else {
                    pend_final.push(e);
                }
            }
        }

        // Block 2: the fixpoint loop. Round membership is decided from the
        // liveness state at the start of the round; the reps salvaged in a
        // round (and everything they reach) only join the live set after
        // the whole round, mirroring the collector's end-of-round
        // kleene-sweep. The final empty round is counted, as in the real
        // pass.
        loop {
            report.loop_iterations += 1;
            let (round, rest): (Vec<MEntry>, Vec<MEntry>) = pend_final
                .into_iter()
                .partition(|e| live_t.contains(&e.tconc));
            pend_final = rest;
            if round.is_empty() {
                break;
            }
            let mut salvaged: VecDeque<Ref> = VecDeque::new();
            for e in round {
                report.finalized += 1;
                self.tconcs
                    .get_mut(&e.tconc)
                    .expect("live tconc is physical")
                    .queue
                    .push_back(e.rep);
                salvaged.push_back(e.rep);
            }
            self.close(&mut live_n, &mut live_t, salvaged);
        }
        report.dropped += pend_final.len() as u64;

        // Block 3: held entries migrate to the target generation's list if
        // their guardian survived. A distinct agent is forwarded on the
        // spot — which can resurrect the tconc of a *later* entry in the
        // same loop (`forward` marks the object immediately; only its
        // children wait for the closing sweep), so liveness is updated
        // object-by-object and the reachability closure runs after.
        let dest = target as usize;
        let mut held: Vec<MEntry> = Vec::new();
        let mut agents: VecDeque<Ref> = VecDeque::new();
        for e in pend_hold {
            if live_t.contains(&e.tconc) {
                report.held += 1;
                if e.rep != e.obj && !accessible(&live_n, &live_t, e.rep) {
                    // Mark the agent live immediately (it is "forwarded"
                    // on the spot) but queue its *children* for the
                    // deferred closure — `close` skips already-live
                    // objects, and the fields are immutable mid-pass.
                    match e.rep {
                        Ref::Node(id) => {
                            live_n.insert(id);
                            let n = &self.nodes[&id];
                            agents.push_back(n.left);
                            agents.push_back(n.right);
                        }
                        Ref::Tconc(gi) => {
                            live_t.insert(gi);
                            agents.extend(self.tconcs[&gi].queue.iter().copied());
                        }
                        Ref::Null => {}
                    }
                }
                held.push(e);
            } else {
                report.dropped += 1;
            }
        }
        self.close(&mut live_n, &mut live_t, agents);
        self.protected[dest].extend(held);

        // ---- Weak-slot pass (after the guardian pass: §4) ---------------
        // A slot stamped at most `g` is visited: a from-space referent that
        // survived is forwarded and stamped `target`, a dead one breaks the
        // slot; any other referent just stamps its own generation.
        for slot in self.slots.values_mut() {
            if slot.stamp > g {
                continue;
            }
            report.weak_roots_traced += 1;
            slot.stamp = match slot.target {
                Ref::Null => SLOT_CLEAN,
                Ref::Node(id) => {
                    let n = &self.nodes[&id];
                    if n.gen > g {
                        n.gen
                    } else if live_n.contains(&id) {
                        target
                    } else {
                        report.weak_roots_broken += 1;
                        slot.target = Ref::Null;
                        SLOT_CLEAN
                    }
                }
                Ref::Tconc(_) => unreachable!("typed weaks only watch typed nodes"),
            };
        }
        // The rig's trackers: one immortal weak slot per object ever
        // allocated, stamped with its referent's generation while the
        // referent is physical and clean once broken. The pass visits the
        // tracker of every physical object in a collected generation and
        // breaks those of the dead.
        let collected = self
            .nodes
            .iter()
            .filter(|(_, n)| n.gen <= g)
            .map(|(id, _)| live_n.contains(id))
            .chain(
                self.tconcs
                    .iter()
                    .filter(|(_, tc)| tc.gen <= g)
                    .map(|(gi, _)| live_t.contains(gi)),
            );
        for live in collected {
            report.weak_roots_traced += 1;
            report.weak_roots_broken += u64::from(!live);
        }

        // ---- Weak-pair pass ---------------------------------------------
        // Every weak slot still physical after this collection has its car
        // forwarded (target survived — by roots or by salvage) or broken to
        // #f (target was in from-space and died). Targets outside
        // from-space are untouched.
        let broken = |r: Ref, nodes: &HashMap<u32, MNode>, tconcs: &HashMap<u32, MTconc>| -> bool {
            match r {
                Ref::Null => false,
                Ref::Node(id) => nodes[&id].gen <= g && !live_n.contains(&id),
                Ref::Tconc(gi) => tconcs[&gi].gen <= g && !live_t.contains(&gi),
            }
        };
        // A car counts as *forwarded* when it points into from-space at an
        // object that was copied out (the pass rewrites it to the new
        // address); only from-space cars are ever touched, and every weak
        // pair holding one is provably scanned: it was either copied this
        // collection or sits in a dirty old segment (old→young pointer).
        let in_from =
            |r: Ref, nodes: &HashMap<u32, MNode>, tconcs: &HashMap<u32, MTconc>| -> bool {
                match r {
                    Ref::Null => false,
                    Ref::Node(id) => nodes[&id].gen <= g,
                    Ref::Tconc(gi) => tconcs[&gi].gen <= g,
                }
            };
        let survives_weak: Vec<u32> = self
            .weaks
            .iter()
            .filter(|(_, w)| w.rooted || w.gen > g)
            .map(|(&id, _)| id)
            .collect();
        for id in survives_weak {
            let t = self.weaks[&id].target;
            if broken(t, &self.nodes, &self.tconcs) {
                report.weak_cars_broken += 1;
                self.weaks.get_mut(&id).expect("surviving weak").target = Ref::Null;
            } else if in_from(t, &self.nodes, &self.tconcs) {
                report.weak_cars_forwarded += 1;
            }
        }
        let surviving_vectors: Vec<u32> = self
            .nodes
            .iter()
            .filter(|(&id, n)| n.kind == NodeKind::Vector && (n.gen > g || live_n.contains(&id)))
            .map(|(&id, _)| id)
            .collect();
        for id in surviving_vectors {
            let t = self.nodes[&id].weak_car;
            if broken(t, &self.nodes, &self.tconcs) {
                report.weak_cars_broken += 1;
                self.nodes.get_mut(&id).expect("surviving vector").weak_car = Ref::Null;
            } else if in_from(t, &self.nodes, &self.tconcs) {
                report.weak_cars_forwarded += 1;
            }
        }
        // ---- Reclaim and promote ----------------------------------------
        // An object of a collected generation survives exactly when it is
        // live (a standalone weak pair when it is rooted) and moves to the
        // target generation.
        let promote = |gen: &mut u8, live: bool| {
            if *gen > g {
                return true;
            }
            *gen = target;
            live
        };
        self.nodes
            .retain(|id, n| promote(&mut n.gen, live_n.contains(id)));
        self.tconcs
            .retain(|gi, tc| promote(&mut tc.gen, live_t.contains(gi)));
        self.weaks.retain(|_, w| promote(&mut w.gen, w.rooted));
        report
    }

    /// Closes `live_n`/`live_t` over strong edges starting from `work`:
    /// node left/right edges and tconc queue contents. Weak cars are not
    /// strong and are never followed.
    fn close(&self, live_n: &mut HashSet<u32>, live_t: &mut HashSet<u32>, mut work: VecDeque<Ref>) {
        while let Some(r) = work.pop_front() {
            match r {
                Ref::Null => {}
                Ref::Node(id) => {
                    if !live_n.insert(id) {
                        continue;
                    }
                    let n = self.nodes.get(&id).unwrap_or_else(|| {
                        panic!("strong edge to non-physical node n{id} — model invariant broken")
                    });
                    work.push_back(n.left);
                    work.push_back(n.right);
                }
                Ref::Tconc(gi) => {
                    if !live_t.insert(gi) {
                        continue;
                    }
                    let tc = self.tconcs.get(&gi).unwrap_or_else(|| {
                        panic!("strong edge to non-physical tconc t{gi} — model invariant broken")
                    });
                    for &item in &tc.queue {
                        work.push_back(item);
                    }
                }
            }
        }
    }
}

fn accessible(live_n: &HashSet<u32>, live_t: &HashSet<u32>, r: Ref) -> bool {
    match r {
        Ref::Null => true,
        Ref::Node(id) => live_n.contains(&id),
        Ref::Tconc(gi) => live_t.contains(&gi),
    }
}
