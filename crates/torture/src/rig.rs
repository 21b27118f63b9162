//! The torture rig: interprets one trace against the real heap and the
//! shadow model simultaneously, checking every observable after every
//! collection.
//!
//! # Object addressing: weak trackers
//!
//! A copying collector moves objects, so the rig cannot hold raw `Value`s
//! across collections. Instead it claims one *weak root slot per object*
//! ([`RootSet::weak`](guardians_gc::RootSet::weak)) and keeps it for the
//! whole run. A tracker slot always holds the object's current address,
//! without keeping it alive; when the object is reclaimed the slot breaks
//! to `#f`. This gives the rig three things at once:
//!
//! * the current address of **every** physical object — including floating
//!   garbage in uncollected generations, which the model tracks exactly;
//! * a direct liveness oracle: tracker-broken ⇔ model-object-reclaimed is
//!   itself checked after every collection;
//! * deterministic op applicability: an op referencing an object degrades
//!   to a no-op exactly when the model says the object is gone.
//!
//! A weak slot is not a heap object: the heap under test holds only what
//! the trace allocated, and no strong root slot is spent on a tracker. The
//! one trace the instrumentation leaves is in the weak-slot pass's
//! counters, which the model predicts: a tracker slot's stamp equals its
//! referent's generation while the referent is physical, so a collection
//! of `0..=g` visits the trackers of exactly the physical objects of
//! generations `<= g` (and breaks those of the dead).
//!
//! # Fault policy
//!
//! Every allocating op preflights a conservative segment bound via
//! [`Heap::try_reserve`]; collections go through [`Heap::try_collect`],
//! which reserves the worst case before the flip. When the armed
//! acquisition fault fires, the rig asserts the heap is still
//! `verify()`-valid (a clean failure, not corruption), lifts the fault,
//! and re-runs the op infallibly — so a faulted trace still executes the
//! same op sequence and must reach the same final state. A sweep placing
//! the fault at every offset therefore proves every failure point is
//! clean.

use crate::model::{MEntry, MNode, MReport, MSlot, MTconc, MWeak, Model};
use crate::ops::{NodeKind, Op, Ref, Trace};
use guardians_gc::{
    CollectionReport, GcConfig, GcEvent, Guardian, Heap, Rooted, TraceConfig, TracedEvent, Value,
    WeakRooted,
};
use guardians_gc_api::{
    impl_trace, GcHeap, Guardian as TypedGuardian, Root as TypedRoot, Weak as TypedWeak,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

impl_trace! {
    /// The typed-op node shape: the `guardians-gc-api` counterpart of a
    /// [`NodeKind::Pair`] — an id plus two optional typed edges, accessed
    /// exclusively through the typed layer's accessors and write barrier.
    pub struct TNode {
        /// The trace-assigned node id (mirrors the raw kinds' id slot).
        pub id: i64,
        /// First typed edge.
        pub left: Option<TypedRoot<TNode>>,
        /// Second typed edge.
        pub right: Option<TypedRoot<TNode>>,
    }
}

/// Counters from a successful run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Ops interpreted.
    pub ops: usize,
    /// Ops that had an effect (the rest degraded to no-ops).
    pub applied: usize,
    /// Collections performed.
    pub collections: u64,
    /// Times the armed acquisition fault fired and was recovered from.
    pub faults_hit: u64,
    /// Guardian entries the model saw finalized across all collections.
    pub finalized: u64,
    /// Successful (Some) guardian polls.
    pub polled: u64,
    /// Lifetime segment acquisitions of the real heap.
    pub acquisitions: u64,
    /// Physical nodes at end of run.
    pub live_nodes: usize,
    /// Individual oracle comparisons made.
    pub checks: u64,
}

/// A divergence (oracle mismatch, verify failure, or panic), with enough
/// context to replay: the seed, the op index, and the op itself.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Generating seed, if the trace recorded one.
    pub seed: Option<u64>,
    /// Index of the op being interpreted (`ops.len()` = final check).
    pub op_index: usize,
    /// The op itself, if in range.
    pub op: Option<Op>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Failure {
    /// One line: seed, op position, op, message.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let seed = match self.seed {
            Some(s) => s.to_string(),
            None => "-".to_string(),
        };
        let op = match &self.op {
            Some(op) => op.to_string(),
            None => "<end-of-trace check>".to_string(),
        };
        let msg = self.message.replace('\n', "; ");
        write!(
            f,
            "torture failure: seed={seed} op#{} [{op}]: {msg}",
            self.op_index
        )
    }
}

/// Runs `trace` to completion, returning stats on success or the first
/// divergence. Panics anywhere inside (including the collector's
/// fault-tripwire) are caught and reported as failures at the current op.
pub fn run_trace(trace: &Trace) -> Result<RunStats, Failure> {
    run_trace_mode(trace, false).map(|(stats, _)| stats)
}

/// [`run_trace`] with the GC event trace enabled: after every collection
/// the emitted events are cross-checked against both the real report and
/// the shadow model, and all events are returned alongside the stats.
pub fn run_trace_traced(trace: &Trace) -> Result<(RunStats, Vec<TracedEvent>), Failure> {
    run_trace_mode(trace, true)
}

fn run_trace_mode(trace: &Trace, traced: bool) -> Result<(RunStats, Vec<TracedEvent>), Failure> {
    let at = Cell::new(usize::MAX);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut rig = Rig::new(&trace.config, traced);
        rig.run(&trace.ops, &at)
    }));
    match outcome {
        Ok(Ok(stats)) => Ok(stats),
        Ok(Err(message)) => Err(Failure {
            seed: trace.seed,
            op_index: at.get(),
            op: trace.ops.get(at.get()).cloned(),
            message,
        }),
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "opaque panic payload".to_string()
            };
            Err(Failure {
                seed: trace.seed,
                op_index: at.get(),
                op: trace.ops.get(at.get()).cloned(),
                message: format!("panic: {msg}"),
            })
        }
    }
}

/// Runs `f` with panic output suppressed (the shrinker replays hundreds of
/// failing candidates; their panic messages are expected noise).
pub fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(prev);
    r
}

struct Rig {
    /// The heap under test, with the typed front-end attached: typed ops
    /// go through its methods, raw ops through `raw()`/`raw_mut()`.
    heap: GcHeap,
    model: Model,
    /// `TNode`'s descriptor symbol, read from the first typed record
    /// `GcHeap::alloc` made; every typed node must carry this symbol.
    descriptor: Option<Rooted>,
    node_trackers: HashMap<u32, WeakRooted>,
    tconc_trackers: HashMap<u32, WeakRooted>,
    guardians: HashMap<u32, Guardian>,
    rooted: HashMap<u32, Rooted>,
    /// Typed roots (`troot` / typed-poll revivals), the typed twin of
    /// `rooted` over the same model root set.
    typed_roots: HashMap<u32, TypedRoot<TNode>>,
    weak_handles: HashMap<u32, Rooted>,
    /// Typed weak references — weak slots of the root table, mirrored by
    /// `Model::slots` — sharing the weak-id space with `weak_handles` (an
    /// id lives in exactly one of the two maps).
    typed_weaks: HashMap<u32, TypedWeak<TNode>>,
    stats: RunStats,
    /// Whether the heap's event trace is on; collections then cross-check
    /// the drained events against report and model.
    traced: bool,
    /// Every event drained so far (traced mode only).
    events: Vec<TracedEvent>,
}

macro_rules! check {
    ($self:ident, $cond:expr, $($fmt:tt)*) => {
        $self.stats.checks += 1;
        if !$cond {
            return Err(format!($($fmt)*));
        }
    };
}

impl Rig {
    fn new(cfg: &crate::ops::TortureConfig, traced: bool) -> Rig {
        let gc = GcConfig {
            generations: cfg.generations,
            promotion: cfg.promotion,
            pause_budget: cfg.pause_budget.map(std::time::Duration::from_micros),
            ..GcConfig::default()
        };
        let mut heap = Heap::new(gc);
        heap.set_acquisition_fault(cfg.fail_acquisition_at);
        if traced {
            heap.enable_tracing(TraceConfig {
                capacity: 1 << 18,
                census_at_collection_end: true,
            });
        }
        Rig {
            heap: GcHeap::from_heap(heap),
            model: Model::new(cfg.clone()),
            descriptor: None,
            node_trackers: HashMap::new(),
            tconc_trackers: HashMap::new(),
            guardians: HashMap::new(),
            rooted: HashMap::new(),
            typed_roots: HashMap::new(),
            weak_handles: HashMap::new(),
            typed_weaks: HashMap::new(),
            stats: RunStats::default(),
            traced,
            events: Vec::new(),
        }
    }

    fn run(
        &mut self,
        ops: &[Op],
        at: &Cell<usize>,
    ) -> Result<(RunStats, Vec<TracedEvent>), String> {
        for (i, op) in ops.iter().enumerate() {
            at.set(i);
            if self.apply(op)? {
                self.stats.applied += 1;
            }
        }
        at.set(ops.len());
        self.check_state()?;
        self.stats.ops = ops.len();
        self.stats.acquisitions = self.heap.raw().acquisitions();
        self.stats.live_nodes = self.model.nodes.len();
        if self.traced {
            self.events.extend(self.heap.raw_mut().drain_trace_events());
        }
        Ok((self.stats.clone(), std::mem::take(&mut self.events)))
    }

    // ---- addressing ----------------------------------------------------

    /// Current address of node `id` via its tracker slot.
    fn node_value(&self, id: u32) -> Value {
        let v = self.node_trackers[&id].get();
        assert!(v.is_ptr(), "tracker for physical node n{id} is broken");
        v
    }

    fn tconc_value(&self, gi: u32) -> Value {
        let v = self.tconc_trackers[&gi].get();
        assert!(v.is_ptr(), "tracker for physical tconc t{gi} is broken");
        v
    }

    /// A reference as stored in a *strong* slot (`Null` ≡ `'()`).
    fn strong_value(&self, r: Ref) -> Value {
        match r {
            Ref::Null => Value::NIL,
            Ref::Node(id) => self.node_value(id),
            Ref::Tconc(gi) => self.tconc_value(gi),
        }
    }

    /// A reference as stored in a *weak* car (`Null` ≡ `#f`).
    fn weak_value(&self, r: Ref) -> Value {
        match r {
            Ref::Null => Value::FALSE,
            _ => self.strong_value(r),
        }
    }

    /// Whether `id` names a live typed node.
    fn is_typed(&self, id: u32) -> bool {
        matches!(self.model.nodes.get(&id), Some(n) if n.kind == NodeKind::Typed)
    }

    /// A fresh typed root over live typed node `id`.
    fn typed_root(&self, id: u32) -> TypedRoot<TNode> {
        self.heap.adopt(self.node_value(id))
    }

    /// The typed view over guardian `g`'s live handle.
    fn typed_guardian(&self, g: u32) -> TypedGuardian<TNode> {
        TypedGuardian::from_untyped(self.guardians[&g].clone())
    }

    // ---- fault handling ------------------------------------------------

    /// Preflights `bound` segments for a composite op. If the armed fault
    /// fires, asserts the heap survived cleanly, lifts the fault, and lets
    /// the op proceed infallibly.
    fn reserve(&mut self, bound: u64) -> Result<(), String> {
        if let Err(e) = self.heap.raw().try_reserve(bound) {
            self.stats.faults_hit += 1;
            self.heap
                .raw()
                .verify()
                .map_err(|v| format!("heap invalid after clean-fault refusal ({e}): {v}"))?;
            self.heap.raw_mut().set_acquisition_fault(None);
        }
        Ok(())
    }

    // ---- op interpretation ---------------------------------------------

    /// Applies one op to both heaps; `Ok(false)` means it degraded to a
    /// no-op (on both sides, by the same model-derived decision).
    fn apply(&mut self, op: &Op) -> Result<bool, String> {
        match *op {
            Op::AllocPair { id, left, right } => {
                if self.model.nodes.contains_key(&id) {
                    return Ok(false);
                }
                let (left, right) = (self.model.normalize(left), self.model.normalize(right));
                self.reserve(1)?;
                let inner = {
                    let (l, r) = (self.strong_value(left), self.strong_value(right));
                    self.heap.raw_mut().cons(l, r)
                };
                let outer = self.heap.raw_mut().cons(Value::fixnum(id as i64), inner);
                self.track_node(id, outer);
                self.model.nodes.insert(
                    id,
                    MNode {
                        kind: NodeKind::Pair,
                        gen: 0,
                        left,
                        right,
                        weak_car: Ref::Null,
                        payload: 0,
                    },
                );
                Ok(true)
            }
            Op::AllocVector {
                id,
                payload,
                left,
                right,
            } => {
                if self.model.nodes.contains_key(&id) {
                    return Ok(false);
                }
                let (left, right) = (self.model.normalize(left), self.model.normalize(right));
                let len = 4 + payload as usize;
                self.reserve(((1 + len) as u64).div_ceil(512).max(1) + 1)?;
                let w = self.heap.raw_mut().weak_cons(Value::FALSE, Value::NIL);
                let v = self
                    .heap
                    .raw_mut()
                    .make_vector(len, Value::fixnum(id as i64));
                let (l, r) = (self.strong_value(left), self.strong_value(right));
                self.heap.raw_mut().vector_set(v, 1, l);
                self.heap.raw_mut().vector_set(v, 2, r);
                self.heap.raw_mut().vector_set(v, 3, w);
                self.track_node(id, v);
                self.model.nodes.insert(
                    id,
                    MNode {
                        kind: NodeKind::Vector,
                        gen: 0,
                        left,
                        right,
                        weak_car: Ref::Null,
                        payload,
                    },
                );
                Ok(true)
            }
            Op::AllocBytevector { id, len } => {
                if self.model.nodes.contains_key(&id) {
                    return Ok(false);
                }
                let words = 1 + (len as u64).div_ceil(8);
                self.reserve(words.div_ceil(512).max(1))?;
                let bv = self.heap.raw_mut().make_bytevector(len as usize, id as u8);
                self.track_node(id, bv);
                self.model.nodes.insert(
                    id,
                    MNode {
                        kind: NodeKind::Bytevector,
                        gen: 0,
                        left: Ref::Null,
                        right: Ref::Null,
                        weak_car: Ref::Null,
                        payload: len,
                    },
                );
                Ok(true)
            }
            Op::AllocString { id } => {
                if self.model.nodes.contains_key(&id) {
                    return Ok(false);
                }
                self.reserve(1)?;
                let s = self.heap.raw_mut().make_string(&format!("node-{id}"));
                self.track_node(id, s);
                self.model.nodes.insert(
                    id,
                    MNode {
                        kind: NodeKind::String,
                        gen: 0,
                        left: Ref::Null,
                        right: Ref::Null,
                        weak_car: Ref::Null,
                        payload: 0,
                    },
                );
                Ok(true)
            }
            Op::SetEdge { node, slot, to } => {
                let Some(n) = self.model.nodes.get(&node) else {
                    return Ok(false);
                };
                if !matches!(n.kind, NodeKind::Pair | NodeKind::Vector) {
                    return Ok(false);
                }
                let kind = n.kind;
                let to = self.model.normalize(to);
                let slot = slot % 2;
                let v = self.node_value(node);
                let tv = self.strong_value(to);
                match kind {
                    NodeKind::Pair => {
                        let inner = self.heap.raw().cdr(v);
                        if slot == 0 {
                            self.heap.raw_mut().set_car(inner, tv);
                        } else {
                            self.heap.raw_mut().set_cdr(inner, tv);
                        }
                    }
                    NodeKind::Vector => self.heap.raw_mut().vector_set(v, 1 + slot as usize, tv),
                    _ => unreachable!(),
                }
                let n = self.model.nodes.get_mut(&node).expect("checked");
                if slot == 0 {
                    n.left = to;
                } else {
                    n.right = to;
                }
                Ok(true)
            }
            Op::SetWeak { node, to } => {
                match self.model.nodes.get(&node) {
                    Some(n) if n.kind == NodeKind::Vector => {}
                    _ => return Ok(false),
                }
                let to = self.model.normalize(to);
                let v = self.node_value(node);
                let w = self.heap.raw().vector_ref(v, 3);
                let tv = self.weak_value(to);
                self.heap.raw_mut().set_car(w, tv);
                self.model.nodes.get_mut(&node).expect("checked").weak_car = to;
                Ok(true)
            }
            Op::AddRoot { node } => {
                if !self.model.nodes.contains_key(&node) || self.model.roots.contains(&node) {
                    return Ok(false);
                }
                let v = self.node_value(node);
                let handle = self.heap.raw_mut().root(v);
                self.rooted.insert(node, handle);
                self.model.roots.insert(node);
                Ok(true)
            }
            Op::DropRoot { node } => {
                // A node is rooted through exactly one of the raw and
                // typed maps; unrooting covers both.
                let raw = self.rooted.remove(&node).is_some();
                if !raw && self.typed_roots.remove(&node).is_none() {
                    return Ok(false);
                }
                self.model.roots.remove(&node);
                Ok(true)
            }
            Op::SetRoot { root, node } => {
                // Only a raw root has a `Rooted` to overwrite, and a node
                // is rooted at most once.
                if !self.rooted.contains_key(&root)
                    || !self.model.nodes.contains_key(&node)
                    || self.model.roots.contains(&node)
                {
                    return Ok(false);
                }
                let v = self.node_value(node);
                let handle = self.rooted.remove(&root).expect("checked");
                handle.set(v);
                self.rooted.insert(node, handle);
                self.model.roots.remove(&root);
                self.model.roots.insert(node);
                Ok(true)
            }
            Op::MakeGuardian { g } => {
                if self.model.tconcs.contains_key(&g) {
                    return Ok(false);
                }
                self.reserve(1)?;
                let guardian = self.heap.raw_mut().make_guardian();
                let tracker = self.heap.raw().roots().weak(guardian.tconc());
                self.tconc_trackers.insert(g, tracker);
                self.guardians.insert(g, guardian);
                self.model.tconcs.insert(
                    g,
                    MTconc {
                        gen: 0,
                        queue: Default::default(),
                        handle: true,
                    },
                );
                Ok(true)
            }
            Op::Register { g, target, agent } => {
                if !self.model.tconcs.contains_key(&g) || !self.model.physical(target) {
                    return Ok(false);
                }
                // A dead agent degrades to the simple interface (rep = obj).
                let agent = agent.filter(|a| self.model.physical(*a));
                let tc = self.tconc_value(g);
                let obj = self.strong_value(target);
                let rep = agent.map_or(obj, |a| self.strong_value(a));
                self.heap.raw_mut().guardian_register(tc, obj, rep);
                self.model.protected[0].push(MEntry {
                    tconc: g,
                    obj: target,
                    rep: agent.unwrap_or(target),
                });
                Ok(true)
            }
            Op::Poll { g } => {
                if !self.model.tconcs.contains_key(&g) {
                    return Ok(false);
                }
                let tc = self.tconc_value(g);
                let got = self.heap.raw_mut().tconc_pop(tc);
                let expected = self
                    .model
                    .tconcs
                    .get_mut(&g)
                    .expect("physical")
                    .queue
                    .pop_front();
                match (got, expected) {
                    (None, None) => {}
                    (Some(v), Some(r)) => {
                        let want = self.strong_value(r);
                        check!(
                            self,
                            v == want,
                            "poll t{g}: heap returned {v:?}, model expected {r} ({want:?})"
                        );
                        self.stats.polled += 1;
                        // A polled node re-enters the root set: finalization
                        // revived a reference to it.
                        if let Ref::Node(id) = r {
                            if !self.model.roots.contains(&id) {
                                let handle = self.heap.raw_mut().root(v);
                                self.rooted.insert(id, handle);
                                self.model.roots.insert(id);
                            }
                        }
                    }
                    (got, expected) => {
                        check!(
                            self,
                            false,
                            "poll t{g}: heap returned {got:?}, model expected {expected:?}"
                        );
                    }
                }
                Ok(true)
            }
            Op::DropGuardian { g } => {
                if self.guardians.remove(&g).is_none() {
                    return Ok(false);
                }
                self.model.tconcs.get_mut(&g).expect("had handle").handle = false;
                Ok(true)
            }
            Op::AllocWeakPair { wid, target } => {
                if self.model.weaks.contains_key(&wid) || self.model.slots.contains_key(&wid) {
                    return Ok(false);
                }
                let target = self.model.normalize(target);
                self.reserve(1)?;
                let tv = self.weak_value(target);
                let w = self.heap.raw_mut().weak_cons(tv, Value::NIL);
                let handle = self.heap.raw_mut().root(w);
                self.weak_handles.insert(wid, handle);
                self.model.weaks.insert(
                    wid,
                    MWeak {
                        gen: 0,
                        target,
                        rooted: true,
                    },
                );
                Ok(true)
            }
            Op::SetWeakPair { wid, target } => {
                // Typed weaks cannot be re-aimed (`Weak<T>` has no re-aim
                // API), so this op only applies to rooted raw weak pairs.
                match self.model.weaks.get(&wid) {
                    Some(w) if w.rooted => {}
                    _ => return Ok(false),
                }
                let target = self.model.normalize(target);
                let tv = self.weak_value(target);
                let w = self.weak_handles[&wid].get();
                self.heap.raw_mut().set_car(w, tv);
                self.model.weaks.get_mut(&wid).expect("checked").target = target;
                Ok(true)
            }
            Op::DropWeakPair { wid } => {
                // Covers both raw handles and typed `Weak<T>`s. An unrooted
                // raw pair lingers as floating garbage; a typed weak's slot
                // is freed at once.
                if self.weak_handles.remove(&wid).is_some() {
                    self.model.weaks.get_mut(&wid).expect("was rooted").rooted = false;
                } else if self.typed_weaks.remove(&wid).is_some() {
                    self.model.slots.remove(&wid);
                } else {
                    return Ok(false);
                }
                Ok(true)
            }
            Op::AllocTyped { id, left, right } => {
                if self.model.nodes.contains_key(&id) {
                    return Ok(false);
                }
                // Typed edge fields are `Option<Root<TNode>>`: operands
                // that are not live typed nodes degrade to `Null` (the
                // model-derived decision, so shrinking stays safe).
                let norm = |r: Ref, rig: &Rig| match rig.model.normalize(r) {
                    Ref::Node(n) if rig.is_typed(n) => Ref::Node(n),
                    _ => Ref::Null,
                };
                let (left, right) = (norm(left, self), norm(right, self));
                // Record + (first time) descriptor string/symbol.
                self.reserve(2)?;
                let node = TNode {
                    id: id as i64,
                    left: None,
                    right: None,
                };
                let root = self.heap.alloc(&node);
                // Wire the edges through the typed write-barrier path.
                for (slot, edge) in [(1usize, left), (2, right)] {
                    if let Ref::Node(n) = edge {
                        let e = Some(self.typed_root(n));
                        self.heap.set_field(&root, slot, &e);
                    }
                }
                let v = root.value();
                if self.descriptor.is_none() {
                    let desc = self.heap.raw().record_descriptor(v);
                    self.descriptor = Some(self.heap.raw_mut().root(desc));
                }
                self.track_node(id, v);
                self.model.nodes.insert(
                    id,
                    MNode {
                        kind: NodeKind::Typed,
                        gen: 0,
                        left,
                        right,
                        weak_car: Ref::Null,
                        payload: 0,
                    },
                );
                Ok(true)
            }
            Op::AddTypedRoot { node } => {
                if !self.is_typed(node) || self.model.roots.contains(&node) {
                    return Ok(false);
                }
                let root = self.typed_root(node);
                self.typed_roots.insert(node, root);
                self.model.roots.insert(node);
                Ok(true)
            }
            Op::RegisterTyped { g, node } => {
                // Typed registration goes through the typed guardian
                // view, which needs the live handle (unlike the raw op,
                // which can append through the bare tconc address).
                if !self.guardians.contains_key(&g) || !self.is_typed(node) {
                    return Ok(false);
                }
                let view = self.typed_guardian(g);
                let root = self.typed_root(node);
                self.heap.guard(&view, &root);
                self.model.protected[0].push(MEntry {
                    tconc: g,
                    obj: Ref::Node(node),
                    rep: Ref::Node(node),
                });
                Ok(true)
            }
            Op::PollTyped { g } => {
                if !self.guardians.contains_key(&g) {
                    return Ok(false);
                }
                let front = self
                    .model
                    .tconcs
                    .get(&g)
                    .expect("handle implies physical")
                    .queue
                    .front()
                    .copied();
                match front {
                    None => {
                        // Typed poll must agree the group is empty.
                        let view = self.typed_guardian(g);
                        let got = self.heap.poll(&view);
                        check!(
                            self,
                            got.is_none(),
                            "tpoll t{g}: heap returned {:?}, model expected empty",
                            got.map(|r| r.value())
                        );
                        Ok(true)
                    }
                    Some(Ref::Node(id)) if self.is_typed(id) => {
                        self.model
                            .tconcs
                            .get_mut(&g)
                            .expect("checked")
                            .queue
                            .pop_front();
                        let view = self.typed_guardian(g);
                        let got = self.heap.poll(&view);
                        check!(
                            self,
                            got.is_some(),
                            "tpoll t{g}: heap returned None, model expected n{id}"
                        );
                        let root = got.expect("checked");
                        let want = self.node_value(id);
                        check!(
                            self,
                            root.value() == want,
                            "tpoll t{g}: heap returned {:?}, model expected n{id} ({want:?})",
                            root.value()
                        );
                        // The lifted mirror must carry the right id — the
                        // typed round trip through lower/lift.
                        let lifted_id = self.heap.read(&root).id;
                        check!(
                            self,
                            lifted_id == id as i64,
                            "tpoll t{g}: lifted id {lifted_id}, expected {id}"
                        );
                        self.stats.polled += 1;
                        // Resurrection is confined to the poll owner: the
                        // delivered root re-enters the root set, typed.
                        if !self.model.roots.contains(&id) {
                            self.typed_roots.insert(id, root);
                            self.model.roots.insert(id);
                        }
                        Ok(true)
                    }
                    // An untyped queue front would be rejected by the
                    // typed poll's descriptor check — degrade instead.
                    Some(_) => Ok(false),
                }
            }
            Op::AllocTypedWeak { wid, node } => {
                if self.model.weaks.contains_key(&wid)
                    || self.model.slots.contains_key(&wid)
                    || !self.is_typed(node)
                {
                    return Ok(false);
                }
                // A weak slot: nothing is allocated, so nothing to reserve.
                let root = self.typed_root(node);
                let w = self.heap.downgrade(&root);
                self.typed_weaks.insert(wid, w);
                self.model.slots.insert(
                    wid,
                    MSlot {
                        target: Ref::Node(node),
                        stamp: 0,
                    },
                );
                Ok(true)
            }
            Op::UpgradeTypedWeak { wid } => {
                if !self.typed_weaks.contains_key(&wid) {
                    return Ok(false);
                }
                // Pull everything out of the borrowed upgrade before the
                // checks (a live `Gc` is a shared heap borrow).
                let upgraded = {
                    let w = &self.typed_weaks[&wid];
                    self.heap
                        .upgrade(w)
                        .map(|gc| (gc.value(), self.heap.field_gc::<TNode, i64>(gc, 0)))
                };
                let target = self.model.slots[&wid].target;
                match target {
                    Ref::Node(id) => {
                        check!(
                            self,
                            upgraded.is_some(),
                            "tupgrade w{wid}: heap broke, model expects n{id} alive"
                        );
                        let (v, lifted_id) = upgraded.expect("checked");
                        let want = self.node_value(id);
                        check!(
                            self,
                            v == want,
                            "tupgrade w{wid}: heap {v:?}, model n{id} ({want:?})"
                        );
                        check!(
                            self,
                            lifted_id == id as i64,
                            "tupgrade w{wid}: id field {lifted_id}, expected {id}"
                        );
                    }
                    Ref::Null => {
                        check!(
                            self,
                            upgraded.is_none(),
                            "tupgrade w{wid}: heap upgraded {:?}, model says broken",
                            upgraded
                        );
                    }
                    Ref::Tconc(_) => unreachable!("typed weaks only watch typed nodes"),
                }
                Ok(true)
            }
            Op::Collect { gen } => {
                let gen = gen.min(self.model.cfg.generations - 1);
                if self.traced {
                    // Events up to this safe point are mutator-side;
                    // archive them so the per-collection window below
                    // contains exactly one collection's worth.
                    self.events.extend(self.heap.raw_mut().drain_trace_events());
                }
                if let Err(e) = self.heap.raw_mut().try_collect(gen) {
                    self.stats.faults_hit += 1;
                    self.heap.raw().verify().map_err(|v| {
                        format!("heap invalid after cleanly refused collection ({e}): {v}")
                    })?;
                    self.heap.raw_mut().set_acquisition_fault(None);
                    self.heap.raw_mut().collect(gen);
                }
                self.stats.collections += 1;
                let mrep = self.model.collect(gen);
                self.stats.finalized += mrep.finalized;
                let r = self
                    .heap
                    .raw()
                    .last_report()
                    .expect("just collected")
                    .clone();
                let real = [
                    r.guardian_entries_visited,
                    r.guardian_entries_finalized,
                    r.guardian_entries_held,
                    r.guardian_entries_dropped,
                    r.guardian_loop_iterations,
                ];
                let predicted = [
                    mrep.visited,
                    mrep.finalized,
                    mrep.held,
                    mrep.dropped,
                    mrep.loop_iterations,
                ];
                check!(
                    self,
                    real == predicted,
                    "collect {gen}: guardian counters [visited, finalized, held, dropped, \
                     loop-iterations] diverge: heap {real:?}, model {predicted:?}"
                );
                check!(
                    self,
                    mrep.visited == mrep.held + mrep.finalized + mrep.dropped,
                    "collect {gen}: model violates visited == held+finalized+dropped: {mrep:?}"
                );
                let real = [r.weak_cars_broken, r.weak_cars_forwarded];
                let predicted = [mrep.weak_cars_broken, mrep.weak_cars_forwarded];
                check!(
                    self,
                    real == predicted,
                    "collect {gen}: weak counters [broken, forwarded] diverge: \
                     heap {real:?}, model {predicted:?}"
                );
                let real = [r.weak_roots_traced, r.weak_roots_broken];
                let predicted = [mrep.weak_roots_traced, mrep.weak_roots_broken];
                check!(
                    self,
                    real == predicted,
                    "collect {gen}: weak-slot counters [traced, broken] diverge: \
                     heap {real:?}, model {predicted:?}"
                );
                if self.traced {
                    self.check_events(gen, &mrep, &r)?;
                }
                self.check_state()?;
                Ok(true)
            }
            Op::Churn { n } => {
                self.reserve((2 * n as u64).div_ceil(512) + 1)?;
                for i in 0..n {
                    self.heap
                        .raw_mut()
                        .cons(Value::fixnum(i as i64), Value::NIL);
                }
                Ok(true)
            }
            Op::Grow { bytes } => {
                let words = 1 + (bytes as u64).div_ceil(8);
                self.reserve(words.div_ceil(512).max(1))?;
                self.heap.raw_mut().make_bytevector(bytes as usize, 0xAB);
                Ok(true)
            }
        }
    }

    fn track_node(&mut self, id: u32, v: Value) {
        let tracker = self.heap.raw().roots().weak(v);
        self.node_trackers.insert(id, tracker);
    }

    // ---- the oracle ----------------------------------------------------

    /// Traced mode: drains the events of the collection that just ran and
    /// checks what only the ring records against the model — guardian
    /// rounds, tconc appends by side, released segments — that the
    /// collection's pauses are its advances: `max(increments, 1)` of them,
    /// one terminal, all naming the report's collection — and that its
    /// end-of-collection census is one `CensusGen` per generation, each
    /// agreeing with `Heap::census` (which `check_state` holds to
    /// the model).
    fn check_events(
        &mut self,
        gen: u8,
        mrep: &MReport,
        r: &CollectionReport,
    ) -> Result<(), String> {
        let window = self.heap.raw_mut().drain_trace_events();
        check!(
            self,
            self.heap.raw().trace_dropped() == 0,
            "collect {gen}: event ring overflowed ({} dropped)",
            self.heap.raw().trace_dropped()
        );
        // (index, collected, target, terminal) of every advance.
        let mut advances = Vec::new();
        let mut resurrected_sum = 0u64;
        let mut released = 0u64;
        let mut collector_appends = 0u64;
        let mut mutator_appends = 0u64;
        // (generation, protected entries, weak pairs) of every census event.
        let mut censuses = Vec::new();
        for e in &window {
            match e.event {
                GcEvent::Advance {
                    index,
                    collected_generation,
                    target_generation,
                    terminal,
                    ..
                } => advances.push((index, collected_generation, target_generation, terminal)),
                GcEvent::GuardianRound { resurrected, .. } => resurrected_sum += resurrected,
                GcEvent::SegmentsReleased { count } => released += count,
                GcEvent::TconcAppend { during_collection } => {
                    if during_collection {
                        collector_appends += 1;
                    } else {
                        mutator_appends += 1;
                    }
                }
                GcEvent::CensusGen {
                    generation,
                    weak_pairs,
                    protected_entries,
                    ..
                } => censuses.push((generation, protected_entries, weak_pairs)),
                _ => {}
            }
        }
        let n = r.increments.max(1) as usize;
        let whose = (
            r.collection_index,
            r.collected_generation,
            r.target_generation,
        );
        check!(
            self,
            advances.len() == n
                && advances
                    .iter()
                    .enumerate()
                    .all(|(i, &(x, g, t, end))| (x, g, t) == whose && end == (i + 1 == n)),
            "collect {gen}: advances {advances:?} vs report {whose:?} in {n} advance(s), \
             the last terminal"
        );
        check!(
            self,
            resurrected_sum == mrep.finalized,
            "collect {gen}: GuardianRound resurrections {resurrected_sum} vs model finalized {}",
            mrep.finalized
        );
        check!(
            self,
            released == r.segments_freed,
            "collect {gen}: SegmentsReleased sum {released} vs segments_freed {}",
            r.segments_freed
        );
        check!(
            self,
            collector_appends == r.guardian_entries_finalized && mutator_appends == 0,
            "collect {gen}: tconc appends (collector {collector_appends}, mutator \
             {mutator_appends}) vs finalized {}",
            r.guardian_entries_finalized
        );
        let census: Vec<_> = self
            .heap
            .raw()
            .census()
            .generations
            .iter()
            .map(|c| (c.generation, c.protected_entries, c.weak_pairs))
            .collect();
        check!(
            self,
            censuses == census,
            "collect {gen}: CensusGen (generation, protected entries, weak pairs) \
             {censuses:?} vs census {census:?}"
        );
        self.events.extend(window);
        Ok(())
    }

    /// Compares every observable of the real heap against the model.
    fn check_state(&mut self) -> Result<(), String> {
        self.heap
            .raw()
            .verify()
            .map_err(|v| format!("heap.verify() failed: {v}"))?;

        // Liveness oracle: a tracker slot is broken exactly when the model
        // reclaimed the object (trackers are immortal, so this covers every
        // object ever allocated).
        for (&id, tracker) in &self.node_trackers {
            let v = tracker.get();
            let alive = self.model.nodes.contains_key(&id);
            check!(
                self,
                v.is_ptr() == alive,
                "liveness: node n{id} tracker {v:?}, model physical={alive}"
            );
        }
        for (&gi, tracker) in &self.tconc_trackers {
            let v = tracker.get();
            let alive = self.model.tconcs.contains_key(&gi);
            check!(
                self,
                v.is_ptr() == alive,
                "liveness: tconc t{gi} tracker {v:?}, model physical={alive}"
            );
        }

        // Per-node graph shape: kind, id slot, generation, strong edges,
        // weak car, payload — for every physical node, floating garbage
        // included.
        let ids: Vec<u32> = self.model.nodes.keys().copied().collect();
        for id in ids {
            self.check_node(id)?;
        }

        // Tconcs: queue contents in exact FIFO order, registration counts,
        // generation.
        let gis: Vec<u32> = self.model.tconcs.keys().copied().collect();
        for gi in gis {
            let tc = self.tconc_value(gi);
            let m = self.model.tconcs[&gi].clone();
            check!(
                self,
                self.heap.raw().is_pair(tc),
                "tconc t{gi} is not a pair: {tc:?}"
            );
            let gen = self.heap.raw().generation_of(tc);
            check!(
                self,
                gen == Some(m.gen),
                "tconc t{gi} generation: heap {gen:?}, model {}",
                m.gen
            );
            let items = self.queue_values(tc);
            check!(
                self,
                items.len() == m.queue.len(),
                "tconc t{gi} queue length: heap {}, model {}",
                items.len(),
                m.queue.len()
            );
            for (i, (got, want_ref)) in items.iter().zip(m.queue.iter()).enumerate() {
                let want = self.strong_value(*want_ref);
                check!(
                    self,
                    *got == want,
                    "tconc t{gi} queue[{i}]: heap {got:?}, model {want_ref} ({want:?})"
                );
            }
            let watched = self.heap.raw().guardian_watched(tc);
            let mwatched = self.model.watched(gi);
            check!(
                self,
                watched == mwatched,
                "tconc t{gi} watched registrations: heap {watched}, model {mwatched}"
            );
        }

        // Rooted handles track the same addresses as the trackers.
        for (&id, handle) in &self.rooted {
            let want = self.node_value(id);
            let got = handle.get();
            check!(
                self,
                got == want,
                "root handle for n{id}: {got:?} vs tracker {want:?}"
            );
        }

        // Typed roots (root-table slots too) track relocations identically.
        for (&id, root) in &self.typed_roots {
            let want = self.node_value(id);
            let got = root.value();
            check!(
                self,
                got == want,
                "typed root for n{id}: {got:?} vs tracker {want:?}"
            );
        }

        // Typed weak references: each weak slot reads the model's target,
        // or is broken exactly when the model broke it. A slot is not a
        // heap object, so it has no generation to check.
        let slots: Vec<(u32, Option<Value>, bool)> = self
            .typed_weaks
            .iter()
            .map(|(&wid, w)| {
                let got = self.heap.upgrade(w).map(|gc| gc.value());
                (wid, got, w.is_broken())
            })
            .collect();
        for (wid, got, broken) in slots {
            let target = self.model.slots[&wid].target;
            let want = match target {
                Ref::Null => None,
                _ => Some(self.strong_value(target)),
            };
            check!(
                self,
                got == want && broken == want.is_none(),
                "typed weak w{wid}: heap {got:?} (broken {broken}), model {target} ({want:?})"
            );
        }

        // Standalone weak pairs: car broken/forwarded per the model.
        for (&wid, handle) in &self.weak_handles {
            let m = self.model.weaks[&wid].clone();
            let w = handle.get();
            let car = self.heap.raw().car(w);
            let want = self.weak_value(m.target);
            check!(
                self,
                car == want,
                "weak pair w{wid} car: heap {car:?}, model {} ({want:?})",
                m.target
            );
            let gen = self.heap.raw().generation_of(w);
            check!(
                self,
                gen == Some(m.gen),
                "weak pair w{wid} generation: heap {gen:?}, model {}",
                m.gen
            );
        }

        // Aggregate accounting: protected-list population and weak pairs,
        // generation by generation.
        for census in self.heap.raw().census().generations {
            let g = census.generation;
            let mp = self.model.protected.get(g as usize).map_or(0, Vec::len) as u64;
            check!(
                self,
                census.protected_entries == mp,
                "gen {g} protected entries: heap {}, model {mp}",
                census.protected_entries
            );
            let mw = self.model.weak_pairs_in_gen(g) as u64;
            check!(
                self,
                census.weak_pairs == mw,
                "gen {g} weak pairs: heap {}, model {mw}",
                census.weak_pairs
            );
        }
        Ok(())
    }

    fn check_node(&mut self, id: u32) -> Result<(), String> {
        let m = self.model.nodes[&id].clone();
        let v = self.node_value(id);
        let heap = self.heap.raw();
        let gen = heap.generation_of(v);
        check!(
            self,
            gen == Some(m.gen),
            "node n{id} generation: heap {gen:?}, model {}",
            m.gen
        );
        match m.kind {
            NodeKind::Pair => {
                check!(self, heap.is_pair(v), "node n{id} is not a pair");
                let tag = heap.car(v);
                check!(
                    self,
                    tag == Value::fixnum(id as i64),
                    "pair n{id} id slot: {tag:?}"
                );
                let inner = heap.cdr(v);
                check!(self, heap.is_pair(inner), "pair n{id} lost its edge cell");
                let (l, r) = (heap.car(inner), heap.cdr(inner));
                let (wl, wr) = (self.strong_value(m.left), self.strong_value(m.right));
                check!(
                    self,
                    l == wl,
                    "pair n{id} left edge: heap {l:?}, model {} ({wl:?})",
                    m.left
                );
                check!(
                    self,
                    r == wr,
                    "pair n{id} right edge: heap {r:?}, model {} ({wr:?})",
                    m.right
                );
            }
            NodeKind::Vector => {
                check!(self, heap.is_vector(v), "node n{id} is not a vector");
                let len = heap.vector_len(v);
                check!(
                    self,
                    len == 4 + m.payload as usize,
                    "vector n{id} length: heap {len}, model {}",
                    4 + m.payload
                );
                let tag = heap.vector_ref(v, 0);
                check!(
                    self,
                    tag == Value::fixnum(id as i64),
                    "vector n{id} id slot: {tag:?}"
                );
                let (l, r) = (heap.vector_ref(v, 1), heap.vector_ref(v, 2));
                let (wl, wr) = (self.strong_value(m.left), self.strong_value(m.right));
                check!(
                    self,
                    l == wl,
                    "vector n{id} left edge: heap {l:?}, model {} ({wl:?})",
                    m.left
                );
                check!(
                    self,
                    r == wr,
                    "vector n{id} right edge: heap {r:?}, model {} ({wr:?})",
                    m.right
                );
                let w = heap.vector_ref(v, 3);
                check!(
                    self,
                    heap.is_weak_pair(w),
                    "vector n{id} attached weak pair missing: {w:?}"
                );
                let wgen = heap.generation_of(w);
                check!(
                    self,
                    wgen == Some(m.gen),
                    "vector n{id} attached weak generation: heap {wgen:?}, model {}",
                    m.gen
                );
                let car = heap.car(w);
                let want = self.weak_value(m.weak_car);
                check!(
                    self,
                    car == want,
                    "vector n{id} weak car: heap {car:?}, model {} ({want:?})",
                    m.weak_car
                );
                if m.payload > 0 {
                    let fill = Value::fixnum(id as i64);
                    let (first, last) = (heap.vector_ref(v, 4), heap.vector_ref(v, len - 1));
                    check!(
                        self,
                        first == fill && last == fill,
                        "vector n{id} payload corrupted: [{first:?} … {last:?}]"
                    );
                }
            }
            NodeKind::Bytevector => {
                check!(
                    self,
                    heap.is_bytevector(v),
                    "node n{id} is not a bytevector"
                );
                let len = heap.bytevector_len(v);
                check!(
                    self,
                    len == m.payload as usize,
                    "bytevector n{id} length: heap {len}, model {}",
                    m.payload
                );
                if len > 0 {
                    let (a, b) = (heap.bytevector_ref(v, 0), heap.bytevector_ref(v, len - 1));
                    check!(
                        self,
                        a == id as u8 && b == id as u8,
                        "bytevector n{id} payload corrupted: [{a} … {b}]"
                    );
                }
            }
            NodeKind::String => {
                check!(self, heap.is_string(v), "node n{id} is not a string");
                let s = heap.string_value(v);
                let want = format!("node-{id}");
                check!(self, s == want, "string n{id} content: {s:?}");
            }
            NodeKind::Typed => {
                check!(self, heap.is_record(v), "node n{id} is not a record");
                let len = heap.record_len(v);
                check!(
                    self,
                    len == 3,
                    "typed n{id} field count: heap {len}, want 3"
                );
                // The descriptor must still be the one `TNode` symbol
                // (relocated in lockstep by collections).
                let desc = heap.record_descriptor(v);
                let want_desc = self.descriptor.as_ref().map(Rooted::get);
                check!(
                    self,
                    Some(desc) == want_desc,
                    "typed n{id} descriptor: heap {desc:?}, interned {want_desc:?}"
                );
                let tag = heap.record_ref(v, 0);
                check!(
                    self,
                    tag == Value::fixnum(id as i64),
                    "typed n{id} id slot: {tag:?}"
                );
                let (l, r) = (heap.record_ref(v, 1), heap.record_ref(v, 2));
                let (wl, wr) = (self.strong_value(m.left), self.strong_value(m.right));
                check!(
                    self,
                    l == wl,
                    "typed n{id} left edge: heap {l:?}, model {} ({wl:?})",
                    m.left
                );
                check!(
                    self,
                    r == wr,
                    "typed n{id} right edge: heap {r:?}, model {} ({wr:?})",
                    m.right
                );
            }
        }
        Ok(())
    }

    /// Non-destructive tconc queue walk: first cell at `car(tc)`, elements
    /// are cell cars, stop at the trailing dummy `cdr(tc)` (exclusive).
    fn queue_values(&self, tc: Value) -> Vec<Value> {
        let heap = self.heap.raw();
        let mut out = Vec::new();
        let mut cur = heap.car(tc);
        let last = heap.cdr(tc);
        while cur != last {
            out.push(heap.car(cur));
            cur = heap.cdr(cur);
        }
        out
    }
}
