//! `resident_cache` / `resident_cache_par2`: a large aged resident set
//! mutated by old→young stores.
//!
//! Why: the same copier used the opposite way from `heap_churn`. The
//! write barrier, the dirty-segment remembered-set scan and
//! old-generation recopying dominate, so a nursery-sizing change that
//! helps `heap_churn` can cost here. `_par2` runs the identical op stream
//! with `workers: 2` and is the only end-to-end cover for the parallel
//! driver.
//!
//! Set-up builds 32,768 resident 8-slot vectors and ages them into the
//! oldest generation. One op allocates 4 × 1 KiB bytevectors (pure
//! space), stores 16 fresh pairs into random resident vectors (old→young
//! `vector_set`), every 16th op replaces a resident vector, every 64th
//! allocates a 3-segment bytevector (a large-object run), then one
//! `maybe_collect` safe point.

use super::{emit_common, emit_span_ns, safe_point, HeapCounters, Recorder};
use super::{Rep, RepParams};
use crate::rng::{Rng, StreamHash};
use crate::trace::{Span, Tracer};
use guardians_gc::{GcConfig, Heap, RootedVec, SegmentPool, Value};
use guardians_segments::SEGMENT_BYTES;
use std::time::Instant;

const OPS_PER_REP: u64 = 200_000;
const WARMUP_OPS: u64 = 20_000;
const RESIDENT: usize = 32_768;
const SLOTS: usize = 8;
const STORES: usize = 16;
const SCRATCH_BLOCKS: usize = 4;
const SCRATCH_BYTES: usize = 1_024;
const REPLACE_EVERY: u64 = 16;
const LARGE_EVERY: u64 = 64;
const LARGE_BYTES: usize = 3 * SEGMENT_BYTES;

#[derive(Clone, Copy)]
struct Op {
    /// `(resident vector, slot)` targets of the old→young stores.
    stores: [(u16, u8); STORES],
    /// Resident vector replaced when this is a replacing op.
    victim: u16,
    tag: u32,
}

fn generate(seed: u64, n: u64) -> (Vec<Op>, u64) {
    let mut rng = Rng::new(seed, 2);
    let mut hash = StreamHash::default();
    let ops = (0..n)
        .map(|_| {
            let mut stores = [(0u16, 0u8); STORES];
            for s in &mut stores {
                *s = (
                    rng.below(RESIDENT as u64) as u16,
                    rng.below(SLOTS as u64) as u8,
                );
                hash.mix(u64::from(s.0) << 8 | u64::from(s.1));
            }
            let op = Op {
                stores,
                victim: rng.below(RESIDENT as u64) as u16,
                tag: rng.below(1 << 30) as u32,
            };
            hash.mix(u64::from(op.victim) << 32 | u64::from(op.tag));
            op
        })
        .collect();
    (ops, hash.finish())
}

struct Fixture {
    heap: Heap,
    resident: RootedVec,
    /// Ops run so far: the "every 16th / 64th" phase carries over from
    /// warm-up into the timed ops.
    op_index: u64,
    stores: u64,
}

impl Fixture {
    fn run_ops(&mut self, ops: &[Op], tr: &mut Tracer, rec: &mut Recorder) {
        let heap = &mut self.heap;
        for (i, op) in ops.iter().enumerate() {
            tr.op_begin(i as u64);
            self.op_index += 1;

            tr.enter(Span::GcAlloc);
            for _ in 0..SCRATCH_BLOCKS {
                std::hint::black_box(heap.make_bytevector(SCRATCH_BYTES, 0));
            }
            let mut fresh = [Value::NIL; STORES];
            for (k, pair) in fresh.iter_mut().enumerate() {
                *pair = heap.cons(Value::fixnum(i64::from(op.tag)), Value::fixnum(k as i64));
            }
            if self.op_index.is_multiple_of(REPLACE_EVERY) {
                let v = heap.make_vector(SLOTS, Value::fixnum(i64::from(op.tag)));
                self.resident.set(op.victim as usize, v);
            }
            if self.op_index.is_multiple_of(LARGE_EVERY) {
                std::hint::black_box(heap.make_bytevector(LARGE_BYTES, 0));
            }
            tr.exit();

            tr.enter(Span::GcStore);
            for (&(vector, slot), &pair) in op.stores.iter().zip(&fresh) {
                let v = self.resident.get(vector as usize);
                heap.vector_set(v, slot as usize, pair);
            }
            self.stores += STORES as u64;
            tr.exit();

            let end = safe_point(heap, tr, rec);
            tr.op_end();
            rec.op_done(end);
        }
    }
}

pub fn run_rep(p: &RepParams, workers: usize, tr: &mut Tracer) -> Rep {
    let setup_start = Instant::now();
    let warm = p.scaled(WARMUP_OPS, 64);
    let timed = p.scaled(OPS_PER_REP, 256);
    let (ops, stream_hash) = generate(p.seed, warm + timed);
    let pool = SegmentPool::unbounded();
    let config = GcConfig {
        workers,
        ..GcConfig::new()
    };
    let oldest = config.max_generation();
    let mut heap = Heap::with_pool(config, pool.clone(), None);
    let resident = heap.root_vec();
    for i in 0..RESIDENT {
        let v = heap.make_vector(SLOTS, Value::fixnum(i as i64));
        resident.push(v);
    }
    // Age the resident set: one collection per generation moves it into
    // the oldest, where only the remembered set can reach it cheaply.
    for gen in 0..oldest {
        heap.collect(gen);
    }
    let mut fx = Fixture {
        heap,
        resident,
        op_index: 0,
        stores: 0,
    };
    let (warm_ops, timed_ops) = ops.split_at(warm as usize);
    fx.run_ops(warm_ops, &mut Tracer::off(), &mut Recorder::start(0));
    fx.stores = 0;
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
    emit_span_ns(&mut rep, tr, "gc.heap.store_ns", Span::GcStore, fx.stores);

    // Oracle, outside timing: the heap is sound, and every resident
    // vector still has its shape and holds only what the stream stored.
    let shape_ok = (0..RESIDENT).all(|i| {
        let v = fx.resident.get(i);
        fx.heap.is_vector(v)
            && fx.heap.vector_len(v) == SLOTS
            && (0..SLOTS).all(|s| {
                let x = fx.heap.vector_ref(v, s);
                x.is_fixnum() || (fx.heap.is_pair(x) && fx.heap.car(x).is_fixnum())
            })
    });
    if fx.heap.verify().is_err() || !shape_ok {
        rep.failed = rep.ops;
    }
    rep
}
