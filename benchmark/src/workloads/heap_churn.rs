//! `heap_churn`: nursery churn on the raw heap, serial collector.
//!
//! Why: nursery death dominates. The allocator fast path, root
//! registration and the young copy do almost all the work; guardians,
//! weak pairs and the remembered set do almost none. An optimisation of
//! those must leave this workload unchanged.
//!
//! One op is a transaction: 32 lists of 8 pairs are built, about 10 % of
//! them are rooted into a 4,096-slot window (evicting the tenant, whose
//! root is dropped), 0.2 % are made permanent (capped), then one
//! `maybe_collect` safe point.

use super::{emit_common, emit_span_ns, safe_point, HeapCounters, Recorder};
use super::{Rep, RepParams};
use crate::rng::{Rng, StreamHash};
use crate::trace::{Span, Tracer};
use guardians_gc::{GcConfig, Heap, Rooted, RootedVec, SegmentPool, Value};
use std::time::Instant;

const OPS_PER_REP: u64 = 500_000;
const WARMUP_OPS: u64 = 50_000;
const LISTS: usize = 32;
const LIST_LEN: usize = 8;
const WINDOW: usize = 4_096;
const PERMANENT_CAP: usize = 200_000;
/// Lists one op may root; ten times the mean, so the cap never bites.
const MAX_ROOTED: usize = 8;

/// One generated transaction.
#[derive(Clone, Copy)]
struct Op {
    /// `(list, window slot)` pairs to root; `n_rooted` are valid.
    rooted: [(u8, u16); MAX_ROOTED],
    n_rooted: u8,
    /// A list to keep for the rest of the run.
    permanent: Option<u8>,
    /// Payload of the lists' first pair, so lists differ.
    tag: u32,
}

fn generate(seed: u64, n: u64) -> (Vec<Op>, u64) {
    let mut rng = Rng::new(seed, 1);
    let mut hash = StreamHash::default();
    let mut permanents = 0usize;
    let ops = (0..n)
        .map(|_| {
            let mut op = Op {
                rooted: [(0, 0); MAX_ROOTED],
                n_rooted: 0,
                permanent: None,
                tag: rng.below(1 << 30) as u32,
            };
            for list in 0..LISTS as u8 {
                if rng.chance(1, 10) && (op.n_rooted as usize) < MAX_ROOTED {
                    let slot = rng.below(WINDOW as u64) as u16;
                    op.rooted[op.n_rooted as usize] = (list, slot);
                    op.n_rooted += 1;
                    hash.mix(u64::from(list) << 16 | u64::from(slot));
                }
                if rng.chance(2, 1000) && permanents < PERMANENT_CAP && op.permanent.is_none() {
                    op.permanent = Some(list);
                    permanents += 1;
                    hash.mix(0x1_0000_0000 | u64::from(list));
                }
            }
            hash.mix(u64::from(op.tag));
            op
        })
        .collect();
    (ops, hash.finish())
}

struct Fixture {
    heap: Heap,
    window: Vec<Option<Rooted>>,
    permanent: RootedVec,
    /// Root + drop pairs performed, for `gc.heap.root_ns`.
    root_pairs: u64,
}

impl Fixture {
    fn run_ops(&mut self, ops: &[Op], tr: &mut Tracer, rec: &mut Recorder) {
        let heap = &mut self.heap;
        for (i, op) in ops.iter().enumerate() {
            tr.op_begin(i as u64);

            // No safe point until the end of the op, so the fresh lists
            // may sit in plain locals.
            tr.enter(Span::GcAlloc);
            let mut lists = [Value::NIL; LISTS];
            for (l, list) in lists.iter_mut().enumerate() {
                let mut head = Value::NIL;
                for k in 0..LIST_LEN {
                    let car = Value::fixnum(i64::from(op.tag) + (l * LIST_LEN + k) as i64);
                    head = heap.cons(car, head);
                }
                *list = head;
            }
            tr.exit();

            tr.enter(Span::GcRoot);
            for &(list, slot) in &op.rooted[..op.n_rooted as usize] {
                // Replacing the slot drops the tenant's root.
                self.window[slot as usize] = Some(heap.root(lists[list as usize]));
            }
            self.root_pairs += u64::from(op.n_rooted);
            if let Some(list) = op.permanent {
                self.permanent.push(lists[list as usize]);
            }
            tr.exit();

            let end = safe_point(heap, tr, rec);
            tr.op_end();
            rec.op_done(end);
        }
    }
}

pub fn run_rep(p: &RepParams, tr: &mut Tracer) -> Rep {
    let setup_start = Instant::now();
    let warm = p.scaled(WARMUP_OPS, 64);
    let timed = p.scaled(OPS_PER_REP, 256);
    let (ops, stream_hash) = generate(p.seed, warm + timed);
    let pool = SegmentPool::unbounded();
    let mut heap = Heap::with_pool(GcConfig::new(), pool.clone(), None);
    let permanent = heap.root_vec();
    let mut fx = Fixture {
        heap,
        window: (0..WINDOW).map(|_| None).collect(),
        permanent,
        root_pairs: 0,
    };
    let (warm_ops, timed_ops) = ops.split_at(warm as usize);
    fx.run_ops(warm_ops, &mut Tracer::off(), &mut Recorder::start(0));
    fx.root_pairs = 0;
    let before = HeapCounters::read(&mut fx.heap);
    let mut rep = Rep {
        stream_hash,
        ..Rep::default()
    };
    let mut rec = Recorder::start(timed_ops.len());
    rep.setup_s = setup_start.elapsed().as_secs_f64();

    fx.run_ops(timed_ops, tr, &mut rec);

    rec.finish(&mut rep);
    let delta = HeapCounters::read(&mut fx.heap).since(&before);
    delta.emit(&mut rep);
    emit_common(&mut rep, &pool);
    emit_span_ns(
        &mut rep,
        tr,
        "gc.heap.alloc_ns_per_word",
        Span::GcAlloc,
        delta.words_allocated,
    );
    emit_span_ns(&mut rep, tr, "gc.heap.root_ns", Span::GcRoot, fx.root_pairs);

    // Oracle, outside timing: the heap is structurally sound and every
    // list the stream kept is still whole.
    let intact = |v: Value| {
        let mut len = 0;
        let mut cur = v;
        while fx.heap.is_pair(cur) {
            len += 1;
            cur = fx.heap.cdr(cur);
        }
        len == LIST_LEN && cur.is_nil()
    };
    let kept_whole = fx.window.iter().flatten().all(|r| intact(r.get()))
        && (0..fx.permanent.len()).all(|i| intact(fx.permanent.get(i)));
    if fx.heap.verify().is_err() || !kept_whole {
        rep.failed = rep.ops;
    }
    rep
}
