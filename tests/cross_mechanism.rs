//! Cross-mechanism integration: guardians, the Dickey-baseline registry,
//! weak sets, weak hashing, and transport guardians observing the *same*
//! objects simultaneously — each mechanism must see exactly the behaviour
//! its contract promises, in one heap.

use guardians::baselines::{FinalizationRegistry, WeakHasher, WeakSet};
use guardians::gc::{Heap, Value};
use guardians::runtime::TransportGuardian;
use std::cell::Cell;
use std::rc::Rc;

#[test]
fn five_mechanisms_one_object() {
    let mut heap = Heap::default();
    let g = heap.make_guardian();
    let mut reg = FinalizationRegistry::new();
    let mut set = WeakSet::new(&mut heap);
    let mut hasher = WeakHasher::new(&mut heap);
    let tg = TransportGuardian::new(&mut heap);

    let obj = heap.cons(Value::fixnum(42), Value::NIL);
    let root = heap.root(obj);

    g.register(&mut heap, obj);
    let dickey_ran = Rc::new(Cell::new(false));
    let flag = Rc::clone(&dickey_ran);
    reg.register_for_finalization(&mut heap, obj, move |_| {
        flag.set(true);
        Ok(())
    });
    set.add(&mut heap, obj);
    let id = hasher.hash(&mut heap, obj);
    tg.register(&mut heap, obj);
    let w = heap.weak_cons(obj, Value::NIL);
    let wr = heap.root(w);

    // Phase 1: object alive and moving.
    heap.collect(0);
    heap.verify().unwrap();
    reg.run_pending(&mut heap);
    assert!(!dickey_ran.get(), "alive: no finalization");
    assert_eq!(g.poll(&mut heap), None, "alive: guardian silent");
    assert_eq!(
        set.members(&mut heap),
        vec![root.get()],
        "alive: in the weak set"
    );
    assert_eq!(
        hasher.unhash(&mut heap, id),
        Some(root.get()),
        "alive: unhash resolves"
    );
    assert_eq!(
        tg.poll(&mut heap),
        Some(root.get()),
        "it DID move: transport reports"
    );
    assert_eq!(heap.car(wr.get()), root.get(), "weak car forwarded");

    // Phase 2: drop it.
    drop(root);
    heap.collect(heap.config().max_generation());
    heap.verify().unwrap();

    // Guardians resurrect — and the guardian pass runs before everything
    // that breaks weak pointers, so every weak view still sees the
    // salvaged object.
    let saved = g.poll(&mut heap).expect("guardian saved it");
    assert_eq!(heap.car(saved), Value::fixnum(42));
    assert_eq!(
        heap.car(wr.get()),
        saved,
        "weak pair kept the salvaged object"
    );
    assert_eq!(set.members(&mut heap), vec![saved], "weak set too");
    assert_eq!(
        hasher.unhash(&mut heap, id),
        Some(saved),
        "weak hashing too"
    );
    reg.run_pending(&mut heap);
    assert!(
        !dickey_ran.get(),
        "guardian resurrection means Dickey sees it alive"
    );

    // Phase 3: drop the last reference (the guardian already delivered).
    heap.collect(heap.config().max_generation());
    heap.verify().unwrap();
    assert_eq!(g.poll(&mut heap), None);
    assert_eq!(
        heap.car(wr.get()),
        Value::FALSE,
        "now the weak pointer breaks"
    );
    assert!(set.members(&mut heap).is_empty());
    assert_eq!(hasher.unhash(&mut heap, id), None);
    reg.run_pending(&mut heap);
    assert!(dickey_ran.get(), "and the Dickey thunk finally fires");
}

#[test]
fn guardian_beats_dickey_on_error_handling() {
    // The same clean-up written both ways; the error surfaces only where
    // the paper says it can.
    let mut heap = Heap::default();

    // Dickey: the error is swallowed into the suppressed list.
    let mut reg = FinalizationRegistry::new();
    let a = heap.cons(Value::NIL, Value::NIL);
    reg.register_for_finalization(&mut heap, a, |_| Err("cleanup exploded".into()));
    heap.collect(heap.config().max_generation());
    reg.run_pending(&mut heap);
    assert_eq!(reg.suppressed_errors, vec!["cleanup exploded".to_string()]);

    // Guardian: the clean-up runs as ordinary code; the error is an
    // ordinary Result the caller handles where it chooses.
    let g = heap.make_guardian();
    let b = heap.cons(Value::NIL, Value::NIL);
    g.register(&mut heap, b);
    heap.collect(heap.config().max_generation());
    let outcome: Result<(), String> = match g.poll(&mut heap) {
        Some(_dead) => Err("cleanup exploded".into()),
        None => Ok(()),
    };
    assert_eq!(
        outcome.unwrap_err(),
        "cleanup exploded",
        "handled at program level"
    );
}

#[test]
#[cfg_attr(miri, ignore = "spawns rustc")]
fn dickey_thunks_cannot_allocate_but_guardian_cleanups_can() {
    let mut heap = Heap::default();
    // Guardian clean-up allocating: fine (this is the paper's selling
    // point; no restriction applies).
    let g = heap.make_guardian();
    let x = heap.cons(Value::NIL, Value::NIL);
    g.register(&mut heap, x);
    heap.collect(heap.config().max_generation());
    assert!(g.poll(&mut heap).is_some());
    let report = heap.make_vector(64, Value::TRUE);
    assert_eq!(heap.vector_len(report), 64);

    // Dickey thunk allocating: rejected at compile time, because the
    // registry hands the thunk only `&Heap`.
    trybuild::TestCases::new()
        .extern_crate("guardians_baselines")
        .extern_crate("guardians_gc")
        .compile_fail("crates/baselines/tests/ui/thunk_allocates.rs")
        .run();
}

#[test]
fn transport_and_guardian_compose_on_the_same_object() {
    let mut heap = Heap::default();
    let g = heap.make_guardian();
    let tg = TransportGuardian::new(&mut heap);
    let obj = heap.cons(Value::fixnum(5), Value::NIL);
    let root = heap.root(obj);
    g.register(&mut heap, obj);
    tg.register(&mut heap, obj);

    // Move it twice while alive: transport reports each time.
    heap.collect(0);
    assert_eq!(tg.poll(&mut heap), Some(root.get()));
    heap.collect(1);
    assert_eq!(tg.poll(&mut heap), Some(root.get()));
    assert_eq!(g.poll(&mut heap), None);

    // Kill it: the guardian reports, transport goes silent.
    drop(root);
    heap.collect(heap.config().max_generation());
    let saved = g.poll(&mut heap).expect("guardian");
    assert_eq!(heap.car(saved), Value::fixnum(5));
    // The transport marker saw its referent die before resurrection...
    // conservatively it may or may not report once more; drain and verify
    // silence afterwards.
    let _ = tg.drain(&mut heap);
    heap.collect(heap.config().max_generation());
    heap.collect(heap.config().max_generation());
    assert_eq!(tg.poll(&mut heap), None);
    heap.verify().unwrap();
}
