#![warn(missing_docs)]

//! A generation-based copying garbage collector with **guardians** and
//! **weak pairs** — a from-scratch reproduction of:
//!
//! > R. Kent Dybvig, Carl Bruggeman, and David Eby.
//! > *Guardians in a Generation-Based Garbage Collector.* PLDI 1993.
//!
//! Guardians let a program save otherwise-inaccessible objects from
//! deallocation so that clean-up ("finalization") actions can be performed
//! later, **under full program control**: the collector never runs user
//! code, so no critical sections, no allocation restrictions inside
//! clean-up actions, and no collector-imposed ordering for shared or
//! cyclic structures.
//!
//! The implementation is *generation-friendly* exactly as the paper
//! defines it: guardian support costs the collector work proportional to
//! the collection work already being done (objects parked in uncollected
//! older generations are never visited), and costs the mutator work
//! proportional to the number of clean-up actions actually performed.
//!
//! # Architecture
//!
//! * [`Value`] — tagged 64-bit values (fixnums, immediates, pairs, typed
//!   objects), dereferenced through the [`Heap`].
//! * [`Heap`] — segment-backed bump allocation per space × generation
//!   (over [`guardians_segments`]), write barrier, explicit-safe-point
//!   collection, roots.
//! * [`Guardian`] — the paper's Section 3 interface, including multiple
//!   registration, multiple guardians per object, guardians guarding
//!   guardians, and the Section 5 *agent* generalisation.
//! * Weak pairs — [`Heap::weak_cons`]; car fields are weak pointers
//!   broken to `#f` when their referent is reclaimed, *after* the
//!   guardian pass so guardian-saved objects keep their weak references.
//!   A broken car is also all a collector-invoked finalizer needs: the
//!   Section 2 baseline (`guardians_baselines::FinalizationRegistry`) is
//!   built on weak pairs outside the collector.
//!
//! # Example: the paper's opening example
//!
//! ```
//! use guardians_gc::{Heap, Value};
//!
//! let mut heap = Heap::default();
//! // > (define G (make-guardian))
//! let g = heap.make_guardian();
//! // > (define x (cons 'a 'b))
//! let a = heap.make_symbol("a");
//! let b = heap.make_symbol("b");
//! let x = heap.cons(a, b);
//! let x_root = heap.root(x);
//! // > (G x)
//! g.register(&mut heap, x);
//! // > (G)  =>  #f        — x is still accessible through the binding
//! heap.collect(0);
//! assert_eq!(g.poll(&mut heap), None);
//! // > (set! x #f)
//! x_root.set(Value::FALSE);
//! // ... after a collection proves the pair inaccessible. The pair
//! // survived one collection, so it now lives in generation 1 and only a
//! // collection of generation >= 1 can prove it dead:
//! heap.collect(1);
//! // > (G)  =>  (a . b)   — saved from destruction, data intact
//! let saved = g.poll(&mut heap).expect("retrievable exactly once");
//! assert_eq!(heap.symbol_name(heap.car(saved)), "a");
//! // > (G)  =>  #f
//! assert_eq!(g.poll(&mut heap), None);
//! ```

mod access;
mod census;
mod collect;
mod config;
mod error;
mod guardian;
mod header;
mod heap;
mod inspect;
mod metrics;
mod roots;
mod stats;
mod tconc;
mod trace;
mod value;
mod verify;

pub use census::{GenCensus, HeapCensus, KindCensus};
pub use config::{GcConfig, Promotion};
pub use error::GcError;
pub use guardian::Guardian;
pub use header::{Header, ObjKind};
pub use heap::Heap;
pub use inspect::GenerationUsage;
pub use metrics::{pause_bounds, Histogram, MetricsRegistry};
pub use roots::{Rooted, RootedVec};
pub use stats::{CollectionReport, HeapStats, PhaseTimes};
pub use trace::{
    chrome_trace_json, events_jsonl, replay_stats, GcEvent, GcPhase, SiteStats, TraceConfig,
    TracedEvent,
};
pub use value::{Value, FIXNUM_MAX, FIXNUM_MIN};
pub use verify::VerifyError;

// The shared-capacity types, re-exported so multi-heap embedders (the
// zone layer) need not depend on the segments crate directly.
pub use guardians_segments::{PoolStats, SegmentPool};
