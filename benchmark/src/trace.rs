//! Span recording for the traced pass.
//!
//! The harness wraps each call into a layer in a span — from its own
//! files, never from inside the program. Every op has one root span; the
//! layer calls it makes are its children. A span's *self time* is its
//! duration minus the time its children cover, so the self times of all
//! spans sum to the total op time by construction.
//!
//! Spans live in memory (a buffer allocated before timing starts) and are
//! written out when the run ends. The first [`FULL_SPAN_OPS`] ops keep
//! every span; after that only the per-name aggregates grow, so a long
//! run costs no more memory than a short one.
//!
//! With tracing off every call here is one predictable branch.

use std::io::{self, Write};
use std::time::Instant;

/// Ops whose spans are kept individually.
pub const FULL_SPAN_OPS: u64 = 50_000;

macro_rules! spans {
    ($($variant:ident => $name:literal,)*) => {
        /// A span name: `layer.call`, the vocabulary of the trace file.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Span { $($variant,)* }

        impl Span {
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name,)* }
            }
        }
    };
}

spans! {
    Op => "op",
    GcAlloc => "gc.alloc",
    GcRoot => "gc.root",
    GcStore => "gc.store",
    GcCollect => "gc.collect",
    ApiAlloc => "gc-api.alloc",
    ApiGuard => "gc-api.guard",
    ApiPoll => "gc-api.poll",
    ApiDowngrade => "gc-api.downgrade",
    ApiUpgrade => "gc-api.upgrade",
    ApiField => "gc-api.field",
    ApiRootDrop => "gc-api.root_drop",
    SimOs => "runtime.simos",
    ExtMem => "runtime.extmem",
    EvalFib => "scheme.eval.fib",
    EvalChurn => "scheme.eval.churn",
    EvalTri => "scheme.eval.tri",
    EvalGchurn => "scheme.eval.gchurn",
    ColdDefine => "scheme.cold.define",
    ColdCall => "scheme.cold.call",
    ZoneOpen => "zones.dispatch.open",
    ZoneWorkTyped => "zones.dispatch.work_typed",
    ZoneWorkScheme => "zones.dispatch.work_scheme",
    ZoneEvict => "zones.dispatch.evict",
    RouterSend => "zones.router.send",
    RouterDrain => "zones.router.drain",
}

/// Per-name totals, kept for the whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

/// One finished span, as written to the trace file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: Span,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span's record, `None` for an op's root.
    pub parent: Option<u32>,
    pub op_id: u64,
}

#[derive(Clone, Copy)]
struct Open {
    name: Span,
    start_ns: u64,
    child_ns: u64,
    record: Option<u32>,
}

/// The span recorder. [`Tracer::off`] records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Open>,
    records: Vec<SpanRecord>,
    aggregates: Vec<Aggregate>,
    op_id: u64,
    full_ops: u64,
}

impl Tracer {
    /// A recorder that ignores every call: the untraced pass.
    pub fn off() -> Tracer {
        Tracer::with_buffer(false, 0, 0)
    }

    /// A recorder keeping full spans for the first `full_ops` ops, with
    /// room for `spans_per_op` spans each allocated up front.
    pub fn on(full_ops: u64, spans_per_op: usize) -> Tracer {
        Tracer::with_buffer(true, full_ops, spans_per_op)
    }

    fn with_buffer(enabled: bool, full_ops: u64, spans_per_op: usize) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            records: Vec::with_capacity(full_ops as usize * spans_per_op),
            aggregates: vec![Aggregate::default(); Span::ALL.len()],
            op_id: 0,
            full_ops,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of op `op_id`.
    #[inline]
    pub fn op_begin(&mut self, op_id: u64) {
        if self.enabled {
            self.op_id = op_id;
            self.enter(Span::Op);
        }
    }

    /// Closes the current op's root span.
    #[inline]
    pub fn op_end(&mut self) {
        self.exit();
    }

    /// Opens a child span of whatever span is open.
    #[inline]
    pub fn enter(&mut self, name: Span) {
        if self.enabled {
            self.enter_at(name, self.now_ns());
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if self.enabled {
            self.exit_at(self.now_ns());
        }
    }

    fn enter_at(&mut self, name: Span, now: u64) {
        let record = (self.op_id < self.full_ops).then(|| {
            self.records.push(SpanRecord {
                name,
                start_ns: now,
                end_ns: now,
                parent: self.stack.last().and_then(|p| p.record),
                op_id: self.op_id,
            });
            self.records.len() as u32 - 1
        });
        self.stack.push(Open {
            name,
            start_ns: now,
            child_ns: 0,
            record,
        });
    }

    fn exit_at(&mut self, now: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let total = now - open.start_ns;
        let agg = &mut self.aggregates[open.name as usize];
        agg.count += 1;
        agg.total_ns += total;
        agg.self_ns += total - open.child_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
        if let Some(i) = open.record {
            self.records[i as usize].end_ns = now;
        }
    }

    pub fn aggregate(&self, name: Span) -> Aggregate {
        self.aggregates[name as usize]
    }

    /// Self time summed over every span name, and the root spans' total:
    /// equal by construction, and printed so a reader can see it.
    pub fn self_sum_and_op_total(&self) -> (u64, u64) {
        let self_sum = self.aggregates.iter().map(|a| a.self_ns).sum();
        (self_sum, self.aggregate(Span::Op).total_ns)
    }

    /// Writes the trace as JSON lines: one `span` line per kept span,
    /// then one `aggregate` line per span name that occurred.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                r.name.name(),
                r.start_ns,
                r.end_ns,
                r.op_id
            )?;
        }
        for &name in Span::ALL {
            let a = self.aggregate(name);
            if a.count > 0 {
                writeln!(
                    out,
                    "{{\"aggregate\":\"{}\",\"count\":{},\"self_ns\":{},\"total_ns\":{}}}",
                    name.name(),
                    a.count,
                    a.self_ns,
                    a.total_ns
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the recorder with explicit clock readings.
    fn scripted(full_ops: u64, script: &[(Option<Span>, u64)]) -> Tracer {
        let mut t = Tracer::on(full_ops, 8);
        for &(step, at) in script {
            match step {
                Some(name) => t.enter_at(name, at),
                None => t.exit_at(at),
            }
        }
        t
    }

    #[test]
    fn self_time_excludes_nested_and_adjacent_children() {
        // op [0,100] { alloc [10,40] { collect [20,30] }  root [40,55] }
        let t = scripted(
            10,
            &[
                (Some(Span::Op), 0),
                (Some(Span::GcAlloc), 10),
                (Some(Span::GcCollect), 20),
                (None, 30),
                (None, 40),
                (Some(Span::GcRoot), 40),
                (None, 55),
                (None, 100),
            ],
        );
        assert_eq!(t.aggregate(Span::GcCollect).self_ns, 10);
        assert_eq!(t.aggregate(Span::GcAlloc).self_ns, 20, "30 minus 10");
        assert_eq!(t.aggregate(Span::GcAlloc).total_ns, 30);
        assert_eq!(t.aggregate(Span::GcRoot).self_ns, 15);
        // The root keeps only what no child covers: 100 - 30 - 15. The
        // grandchild is not subtracted twice.
        assert_eq!(t.aggregate(Span::Op).self_ns, 55);
        assert_eq!(t.self_sum_and_op_total(), (100, 100));
    }

    #[test]
    fn records_carry_parent_links_and_op_ids() {
        let mut t = Tracer::on(10, 8);
        t.op_id = 7;
        t.enter_at(Span::Op, 0);
        t.enter_at(Span::GcAlloc, 1);
        t.exit_at(2);
        t.exit_at(3);
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.records[0].parent, None);
        assert_eq!(t.records[1].parent, Some(0));
        assert_eq!((t.records[1].start_ns, t.records[1].end_ns), (1, 2));
        assert!(t.records.iter().all(|r| r.op_id == 7));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4, "two spans, two aggregates");
        assert!(text.lines().all(|l| crate::json::Json::parse(l).is_ok()));
    }

    #[test]
    fn past_the_full_span_window_only_aggregates_grow() {
        let mut t = Tracer::on(2, 2);
        for op in 0..5 {
            t.op_begin(op);
            t.enter(Span::GcAlloc);
            t.exit();
            t.op_end();
        }
        assert_eq!(t.records.len(), 4, "ops 0 and 1 only");
        assert_eq!(t.aggregate(Span::Op).count, 5);
        assert_eq!(t.aggregate(Span::GcAlloc).count, 5);
        let (self_sum, op_total) = t.self_sum_and_op_total();
        assert_eq!(self_sum, op_total);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        t.op_begin(0);
        t.enter(Span::GcAlloc);
        t.exit();
        t.op_end();
        assert!(t.records.is_empty());
        assert_eq!(t.aggregate(Span::Op).count, 0);
    }
}
