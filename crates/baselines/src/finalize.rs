//! Dickey-style collector-invoked finalization (paper Section 2):
//!
//! > "The procedure `register-for-finalization` accepts two arguments: an
//! > object and a thunk (zero-arity procedure). The thunk is invoked
//! > automatically during garbage collection if the object has been
//! > reclaimed. … the thunk is not permitted to cause heap allocation
//! > since it is invoked as part of the garbage collection process …
//! > Furthermore, since garbage collections happen at arbitrary times, the
//! > programmer has no control over when the actions are invoked. Errors
//! > that occur within the thunk are problematic as well."
//!
//! This registry reproduces those restrictions faithfully: thunks run
//! immediately after the collection that proved the object dead, they
//! cannot allocate (a thunk is handed `&Heap`, and every allocator takes
//! `&mut Heap`), and thunk errors are collected rather than propagated,
//! "suppressed or somehow delayed until all finalization is complete."
//!
//! # Built on weak pairs
//!
//! The mechanism needs nothing from the collector beyond the paper's weak
//! pairs. Each registration is a weak pair `(obj . id)` held by the
//! registry; the collection that reclaims `obj` breaks its car to `#f`.
//! The weak pass runs after the guardian pass, so an object a guardian
//! salvages keeps its car and is not finalized, and a broken car is
//! exactly "reclaimed by this collection": the object was in a collected
//! generation and was neither reached nor salvaged. Like the original,
//! the mechanism discards the object — the thunk sees only what it
//! captured.

use guardians_gc::{Heap, RootedVec, Value};
use std::collections::HashMap;

/// A clean-up thunk. It receives the heap read-only — it cannot even see
/// the dead object (the mechanism "discards the object and leaves behind"
/// only what the thunk captured), and cannot allocate.
pub type FinalizeThunk = Box<dyn FnMut(&Heap) -> Result<(), String>>;

/// The `register-for-finalization` registry.
///
/// A thunk reads the heap but cannot allocate: allocation needs
/// `&mut Heap`, and the thunk is handed `&Heap`.
///
/// ```
/// # use guardians_baselines::FinalizationRegistry;
/// # use guardians_gc::{Heap, Value};
/// let mut heap = Heap::default();
/// let mut reg = FinalizationRegistry::new();
/// let obj = heap.cons(Value::NIL, Value::NIL);
/// reg.register_for_finalization(&mut heap, obj, |h| {
///     let _ = h.collection_count();
///     Ok(())
/// });
/// heap.collect(heap.config().max_generation());
/// assert_eq!(reg.run_pending(&mut heap), 1);
/// ```
///
/// The same thunk calling `h.cons(..)` does not compile (E0596, cannot
/// borrow `*h` as mutable behind a `&` reference); `tests/thunk_ban.rs`
/// pins that.
#[derive(Default)]
pub struct FinalizationRegistry {
    /// One weak pair `(obj . id)` per pending registration, in
    /// registration order; created with the first registration.
    watch: Option<RootedVec>,
    thunks: HashMap<u64, FinalizeThunk>,
    next_id: u64,
    /// Thunks run so far.
    pub runs: u64,
    /// Errors raised by thunks, suppressed and accumulated.
    pub suppressed_errors: Vec<String>,
}

impl FinalizationRegistry {
    /// An empty registry.
    pub fn new() -> FinalizationRegistry {
        FinalizationRegistry::default()
    }

    /// Registers `obj` for finalization by `thunk`. An immediate (a
    /// fixnum, `#f`, …) is never reclaimed: its thunk stays pending, unrun.
    pub fn register_for_finalization(
        &mut self,
        heap: &mut Heap,
        obj: Value,
        thunk: impl FnMut(&Heap) -> Result<(), String> + 'static,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        self.thunks.insert(id, Box::new(thunk));
        // No weak pair: an immediate `#f` car would read as a death notice.
        if !obj.is_ptr() {
            return;
        }
        let entry = heap.weak_cons(obj, Value::fixnum(id as i64));
        self.watch
            .get_or_insert_with(|| heap.root_vec())
            .push(entry);
    }

    /// Runs, once each and in registration order, the thunks of every
    /// object a collection has reclaimed since the last call. In the
    /// original design this happens *inside* the collector; call this
    /// immediately after `collect` to reproduce that timing. Returns how
    /// many thunks ran.
    pub fn run_pending(&mut self, heap: &mut Heap) -> usize {
        let Some(watch) = &self.watch else {
            return 0;
        };
        let mut kept = 0;
        let mut ran = 0;
        for i in 0..watch.len() {
            let entry = watch.get(i);
            if heap.car(entry) != Value::FALSE {
                watch.set(kept, entry);
                kept += 1;
                continue;
            }
            let id = heap.cdr(entry).as_fixnum() as u64;
            let mut thunk = self.thunks.remove(&id).expect("a pending id has a thunk");
            if let Err(e) = thunk(heap) {
                // "error signals must be suppressed or somehow delayed
                // until all finalization is complete."
                self.suppressed_errors.push(e);
            }
            ran += 1;
        }
        watch.truncate(kept);
        self.runs += ran as u64;
        ran
    }

    /// Objects still awaiting death.
    pub fn pending(&self) -> usize {
        self.thunks.len()
    }
}

impl std::fmt::Debug for FinalizationRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FinalizationRegistry")
            .field("pending", &self.thunks.len())
            .field("runs", &self.runs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardians_gc::{GcConfig, Guardian};
    use proptest::prelude::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use std::time::Duration;

    fn full_collect(h: &mut Heap) {
        h.collect(h.config().max_generation());
    }

    /// A thunk that logs `id` when it runs.
    fn logging(log: &Rc<RefCell<Vec<u64>>>, id: u64) -> impl FnMut(&Heap) -> Result<(), String> {
        let log = Rc::clone(log);
        move |_| {
            log.borrow_mut().push(id);
            Ok(())
        }
    }

    #[test]
    fn thunks_run_after_death() {
        let mut heap = Heap::default();
        let mut reg = FinalizationRegistry::new();
        let ran = Rc::new(Cell::new(0));
        let a = heap.cons(Value::fixnum(1), Value::NIL);
        let b = heap.cons(Value::fixnum(2), Value::NIL);
        let keep = heap.root(b);
        for obj in [a, b] {
            let ran = Rc::clone(&ran);
            reg.register_for_finalization(&mut heap, obj, move |_| {
                ran.set(ran.get() + 1);
                Ok(())
            });
        }
        heap.collect(heap.config().max_generation());
        assert_eq!(
            reg.run_pending(&mut heap),
            1,
            "only the dead object's thunk"
        );
        assert_eq!(ran.get(), 1);
        assert_eq!(reg.pending(), 1);
        drop(keep);
        heap.collect(heap.config().max_generation());
        reg.run_pending(&mut heap);
        assert_eq!(ran.get(), 2);
    }

    #[test]
    fn immediates_are_never_finalized() {
        let mut heap = Heap::default();
        let mut reg = FinalizationRegistry::new();
        for obj in [Value::FALSE, Value::fixnum(3)] {
            reg.register_for_finalization(&mut heap, obj, |_| Err("ran".into()));
        }
        full_collect(&mut heap);
        assert_eq!(reg.run_pending(&mut heap), 0);
        assert_eq!(reg.pending(), 2);
    }

    #[test]
    fn thunk_errors_are_suppressed_not_raised() {
        let mut heap = Heap::default();
        let mut reg = FinalizationRegistry::new();
        let a = heap.cons(Value::NIL, Value::NIL);
        let b = heap.cons(Value::NIL, Value::NIL);
        reg.register_for_finalization(&mut heap, a, |_| Err("fd already closed".into()));
        let ran = Rc::new(Cell::new(false));
        let r2 = Rc::clone(&ran);
        reg.register_for_finalization(&mut heap, b, move |_| {
            r2.set(true);
            Ok(())
        });
        heap.collect(heap.config().max_generation());
        reg.run_pending(&mut heap);
        assert_eq!(reg.suppressed_errors, vec!["fd already closed".to_string()]);
        assert!(
            ran.get(),
            "later thunks still ran despite the earlier error"
        );
    }

    #[test]
    fn finalization_happens_at_collector_timing_not_program_timing() {
        // The contrast with guardians: the program cannot defer this.
        let mut heap = Heap::default();
        let mut reg = FinalizationRegistry::new();
        let seen = Rc::new(Cell::new(false));
        let s = Rc::clone(&seen);
        let a = heap.cons(Value::NIL, Value::NIL);
        reg.register_for_finalization(&mut heap, a, move |_| {
            s.set(true);
            Ok(())
        });
        // Some library code happens to trigger a collection...
        heap.collect(heap.config().max_generation());
        reg.run_pending(&mut heap);
        assert!(
            seen.get(),
            "...and the clean-up ran right there, mid-'collection'"
        );
    }

    #[test]
    fn dickey_finalization_reports_dead_ids_once() {
        let mut h = Heap::default();
        let mut reg = FinalizationRegistry::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = h.cons(Value::fixnum(1), Value::NIL);
        let b = h.cons(Value::fixnum(2), Value::NIL);
        let keep = h.root(b);
        reg.register_for_finalization(&mut h, a, logging(&log, 100));
        reg.register_for_finalization(&mut h, b, logging(&log, 200));

        full_collect(&mut h);
        reg.run_pending(&mut h);
        assert_eq!(log.take(), vec![100], "only the dead object");
        full_collect(&mut h);
        reg.run_pending(&mut h);
        assert!(log.take().is_empty(), "never reported twice");

        drop(keep);
        full_collect(&mut h);
        reg.run_pending(&mut h);
        assert_eq!(log.take(), vec![200]);
    }

    #[test]
    fn dickey_watch_lists_are_generation_friendly_but_object_is_lost() {
        let mut h = Heap::default();
        let mut reg = FinalizationRegistry::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = h.cons(Value::fixnum(1), Value::NIL);
        let w = h.weak_cons(a, Value::NIL);
        let wr = h.root(w);
        reg.register_for_finalization(&mut h, a, logging(&log, 7));
        full_collect(&mut h);
        reg.run_pending(&mut h);
        assert_eq!(log.take(), vec![7]);
        // Unlike a guardian, the mechanism discards the object.
        assert_eq!(
            h.car(wr.get()),
            Value::FALSE,
            "object is gone — only the id remains"
        );
    }

    #[test]
    fn guardian_wins_over_dickey_watch() {
        // An object both guarded and watched: the guardian pass runs first
        // and resurrects it, so the watch keeps seeing it alive.
        let mut h = Heap::default();
        let mut reg = FinalizationRegistry::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let g = h.make_guardian();
        let a = h.cons(Value::fixnum(1), Value::NIL);
        g.register(&mut h, a);
        reg.register_for_finalization(&mut h, a, logging(&log, 9));
        full_collect(&mut h);
        reg.run_pending(&mut h);
        assert!(log.take().is_empty(), "guardian resurrection wins");
        assert!(g.poll(&mut h).is_some());
    }

    /// A random pair graph: per node, its car and cdr targets (`n` and
    /// above mean none) and three flags — rooted, registered with the
    /// registry, registered with the guardian.
    type Graph = Vec<(usize, usize, u8)>;

    /// The nodes reachable from every node whose `flags` has `mask` set.
    fn reachable_from(graph: &Graph, mask: u8) -> Vec<bool> {
        let n = graph.len();
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&i| graph[i].2 & mask != 0).collect();
        while let Some(i) = stack.pop() {
            if i >= n || seen[i] {
                continue;
            }
            seen[i] = true;
            stack.extend([graph[i].0, graph[i].1]);
        }
        seen
    }

    /// Builds `graph` and runs three full collections: the registry must
    /// run the thunks of exactly the registered nodes reachable neither
    /// from a root nor from a guarded node; then none more while the
    /// guardian holds its deliveries; then, with the deliveries dropped,
    /// those of every registered node no root reaches — each once.
    fn check_graph(graph: &Graph, budget: Option<Duration>) {
        let n = graph.len();
        let mut heap = Heap::new(GcConfig {
            pause_budget: budget,
            ..GcConfig::new()
        });
        let mut reg = FinalizationRegistry::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let g: Guardian = heap.make_guardian();
        let nodes: Vec<Value> = (0..n).map(|_| heap.cons(Value::NIL, Value::NIL)).collect();
        let mut roots = Vec::new();
        for (i, &(car, cdr, flags)) in graph.iter().enumerate() {
            if let Some(&v) = nodes.get(car) {
                heap.set_car(nodes[i], v);
            }
            if let Some(&v) = nodes.get(cdr) {
                heap.set_cdr(nodes[i], v);
            }
            if flags & 1 != 0 {
                roots.push(heap.root(nodes[i]));
            }
            if flags & 2 != 0 {
                reg.register_for_finalization(&mut heap, nodes[i], logging(&log, i as u64));
            }
            if flags & 4 != 0 {
                g.register(&mut heap, nodes[i]);
            }
        }
        let registered = |live: &[bool]| -> Vec<u64> {
            (0..n)
                .filter(|&i| graph[i].2 & 2 != 0 && !live[i])
                .map(|i| i as u64)
                .collect()
        };

        full_collect(&mut heap);
        reg.run_pending(&mut heap);
        let first = registered(&reachable_from(graph, 1 | 4));
        assert_eq!(*log.borrow(), first, "{budget:?}: the first collection");

        full_collect(&mut heap);
        reg.run_pending(&mut heap);
        assert_eq!(*log.borrow(), first, "{budget:?}: nothing twice");

        while g.poll(&mut heap).is_some() {}
        full_collect(&mut heap);
        reg.run_pending(&mut heap);
        let mut all = log.take();
        all.sort_unstable();
        assert_eq!(
            all,
            registered(&reachable_from(graph, 1)),
            "{budget:?}: the rest, once"
        );
        assert_eq!(reg.pending() + all.len(), registered(&vec![false; n]).len());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Thunks run for exactly the unreachable, not guardian-held
        /// registered objects, at most once each, under both schedules.
        #[test]
        fn thunks_run_for_exactly_the_reclaimed(
            graph in proptest::collection::vec((0usize..48, 0usize..48, 0u8..8), 1..40)
        ) {
            check_graph(&graph, None);
            check_graph(&graph, Some(Duration::ZERO));
        }
    }
}
