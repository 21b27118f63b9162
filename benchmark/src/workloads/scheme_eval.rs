//! `scheme_eval`: the Scheme tier on the bytecode VM, run-heavy beside
//! compile-heavy.
//!
//! Why: in the warm phase VM dispatch and the every-application safe
//! points dominate; in the cold phase the lexer, reader, analyzer and
//! compiler do. A fusion or quickening pass that speeds the VM but slows
//! compilation shows up here as a win on one and a loss on the other.
//!
//! Warm phase: one op is one round of four pre-defined drivers —
//! `(fib 15)`, `(churn 250)`, `(tri 5000)`, `(gchurn 200)` — each an
//! `eval_to_string` whose output is compared with a hand-written
//! expected value. A round, not a single driver, is the op because the
//! four drivers' latencies form four separate clusters, and a median
//! taken across clusters would sit on a cluster boundary.
//!
//! Cold phase: each sample is the definition plus first call of a
//! never-seen ~30-node procedure from [`crate::coldforms`].

use super::{emit_common, emit_span_ns, ns32, HeapCounters, Recorder, Rep, RepParams};
use crate::coldforms::{corpus, ColdForm};
use crate::rng::StreamHash;
use crate::trace::{Span, Tracer};
use guardians_gc::{GcConfig, Heap, SegmentPool};
use guardians_runtime::SymbolTable;
use guardians_scheme::{read_all, tokenize, EvalMode, Interp};
use std::time::Instant;

const OPS_PER_REP: u64 = 1_200;
const WARMUP_OPS: u64 = 120;
const COLD_FORMS: u64 = 4_000;

const DEFINITIONS: &str = "\
    (define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) \
    (define (iota n) \
      (let lp ((i 0) (acc '())) \
        (if (= i n) (reverse acc) (lp (+ i 1) (cons i acc))))) \
    (define (filter p l) \
      (cond ((null? l) '()) \
            ((p (car l)) (cons (car l) (filter p (cdr l)))) \
            (else (filter p (cdr l))))) \
    (define (churn n) \
      (length (map (lambda (x) (* x x)) (filter odd? (iota n))))) \
    (define (tri n) \
      (do ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i n) s))) \
    (define (gchurn n) \
      (let ((g (make-guardian))) \
        (let lp ((i 0)) \
          (unless (= i n) (g (cons i i)) (lp (+ i 1)))) \
        (collect 3) \
        (let drain ((k 0)) \
          (if (g) (drain (+ k 1)) k))))";

/// `(driver, expected output, span)`; the outputs are worked by hand:
/// fib(15), the odd numbers below 250, 0+1+…+4999, and every one of the
/// 200 guarded pairs handed back.
const DRIVERS: [(&str, &str, Span); 4] = [
    ("(fib 15)", "610", Span::EvalFib),
    ("(churn 250)", "125", Span::EvalChurn),
    ("(tri 5000)", "12497500", Span::EvalTri),
    ("(gchurn 200)", "200", Span::EvalGchurn),
];

struct Fixture {
    interp: Interp,
    failed: u64,
}

impl Fixture {
    /// One eval, counted as a pause sample when the collector ran in it.
    fn eval_checked(&mut self, src: &str, expected: &str, rec: &mut Recorder) -> bool {
        let heap = self.interp.heap();
        let (count0, gc0) = (heap.collection_count(), heap.stats().total_gc_time);
        let ok = self
            .interp
            .eval_to_string(src)
            .is_ok_and(|out| out == expected);
        let heap = self.interp.heap();
        let collections = heap.collection_count() - count0;
        if collections > 0 {
            let total = heap.stats().total_gc_time - gc0;
            // Collections inside one eval cannot be told apart from
            // outside; each counts with their mean.
            for _ in 0..collections {
                rec.pause(total / collections as u32);
            }
        }
        ok
    }

    fn run_rounds(&mut self, rounds: u64, tr: &mut Tracer, rec: &mut Recorder) {
        for round in 0..rounds {
            tr.op_begin(round);
            let mut ok = true;
            for (src, expected, span) in DRIVERS {
                tr.enter(span);
                ok &= self.eval_checked(src, expected, rec);
                tr.exit();
            }
            // A round with any wrong output is one failed op.
            self.failed += u64::from(!ok);
            tr.op_end();
            rec.op_done(Instant::now());
        }
    }

    /// Defines and first-calls each form; returns per-form nanoseconds.
    fn run_cold(&mut self, forms: &[ColdForm], first_id: u64, tr: &mut Tracer) -> Vec<u32> {
        let mut samples = Vec::with_capacity(forms.len());
        let mut last = Instant::now();
        for (i, form) in forms.iter().enumerate() {
            tr.op_begin(first_id + i as u64);
            tr.enter(Span::ColdDefine);
            let defined = self.interp.eval_str(&form.define).is_ok();
            tr.exit();
            tr.enter(Span::ColdCall);
            let printed = self.interp.eval_to_string(&form.call);
            tr.exit();
            if !defined || printed.as_deref() != Ok(form.expected.as_str()) {
                self.failed += 1;
            }
            tr.op_end();
            let now = Instant::now();
            samples.push(ns32(now - last));
            last = now;
        }
        samples
    }
}

pub fn run_rep(p: &RepParams, tr: &mut Tracer) -> Rep {
    let setup_start = Instant::now();
    let warm = p.scaled(WARMUP_OPS, 2);
    let timed = p.scaled(OPS_PER_REP, 8);
    let cold = corpus(p.seed, p.scaled(COLD_FORMS, 64) as usize);
    let mut hash = StreamHash::default();
    for form in &cold {
        form.define.bytes().for_each(|b| hash.mix(u64::from(b)));
    }
    let pool = SegmentPool::unbounded();
    let heap = Heap::with_pool(GcConfig::new(), pool.clone(), None);
    let mut interp = Interp::with_heap(heap, EvalMode::Vm);
    interp
        .eval_str(DEFINITIONS)
        .expect("driver definitions evaluate");
    let mut fx = Fixture { interp, failed: 0 };
    fx.run_rounds(warm, &mut Tracer::off(), &mut Recorder::start(0));
    let before = HeapCounters::read(fx.interp.heap_mut());
    let mut rep = Rep {
        stream_hash: hash.finish(),
        ..Rep::default()
    };
    let mut rec = Recorder::start(timed as usize);
    rep.setup_s = setup_start.elapsed().as_secs_f64();

    fx.run_rounds(timed, tr, &mut rec);

    rec.finish(&mut rep);
    let delta = HeapCounters::read(fx.interp.heap_mut()).since(&before);
    delta.emit(&mut rep);
    rep.set("scheme.vm.collections", delta.collections as f64);
    rep.set("scheme.vm.words_allocated", delta.words_allocated as f64);
    for (name, span) in [
        ("scheme.vm.us_per_eval.fib", Span::EvalFib),
        ("scheme.vm.us_per_eval.churn", Span::EvalChurn),
        ("scheme.vm.us_per_eval.tri", Span::EvalTri),
        ("scheme.vm.us_per_eval.gchurn", Span::EvalGchurn),
    ] {
        emit_span_ns(&mut rep, tr, name, span, timed * 1_000);
    }

    let cold_ns = fx.run_cold(&cold, timed, tr);
    emit_span_ns(
        &mut rep,
        tr,
        "scheme.frontend.us_per_form",
        Span::ColdDefine,
        cold.len() as u64 * 1_000,
    );
    rep.samples.insert("cold_eval_ns", cold_ns);
    rep.extra_attempted = cold.len() as u64;
    emit_common(&mut rep, &pool);

    probe_front_end(&mut rep, &cold);
    // Dispatch counts come from an untimed extra round with the VM's
    // per-opcode profile on, so the profile never perturbs a timing.
    let heap = fx.interp.heap_mut();
    heap.enable_site_profile();
    fx.run_rounds(1, &mut Tracer::off(), &mut Recorder::start(0));
    let heap = fx.interp.heap_mut();
    heap.take_site_profile();
    let dispatches: u64 = heap
        .metrics()
        .counters()
        .filter(|(name, _)| name.starts_with("vm.dispatch."))
        .map(|(_, n)| n)
        .sum();
    rep.set(
        "scheme.vm.dispatches_per_eval",
        dispatches as f64 / DRIVERS.len() as f64,
    );

    rep.failed = if fx.interp.heap().verify().is_ok() {
        fx.failed
    } else {
        rep.ops
    };
    rep
}

/// Direct probes of the two layers below the analyzer, over the cold
/// corpus: `tokenize` alone, then `read_all` (tokenize + build data).
fn probe_front_end(rep: &mut Rep, cold: &[ColdForm]) {
    let source: String = cold.iter().map(|f| f.define.as_str()).collect();
    let start = Instant::now();
    let tokens = tokenize(&source).map_or(0, |t| t.len());
    let lex_s = start.elapsed().as_secs_f64();
    if tokens > 0 && lex_s > 0.0 {
        rep.set("scheme.lexer.tokens_per_s", tokens as f64 / lex_s);
    }
    let mut heap = Heap::new(GcConfig::new());
    let mut symbols = SymbolTable::new();
    let start = Instant::now();
    let forms = read_all(&mut heap, &mut symbols, &source).map_or(0, |f| f.len());
    let read_s = start.elapsed().as_secs_f64();
    if forms > 0 && read_s > 0.0 {
        rep.set("scheme.reader.forms_per_s", forms as f64 / read_s);
    }
}
