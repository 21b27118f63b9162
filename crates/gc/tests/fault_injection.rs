//! Segment-exhaustion fault injection: the `try_*` entry points must
//! either complete or fail with a clean [`GcError::Exhausted`] leaving the
//! heap untouched and `verify()`-valid — never a partial mutation. The
//! torture crate sweeps the fault across whole op traces; these tests pin
//! the contract for each entry point in isolation.

use guardians_gc::{GcConfig, GcError, Heap, Value};

fn exhausted(e: GcError) -> (u64, u64) {
    match e {
        GcError::Exhausted { needed, remaining } => (needed, remaining),
    }
}

#[test]
fn try_cons_fails_cleanly_at_the_limit() {
    let mut h = Heap::default();
    // Freeze the budget at exactly what has been acquired so far: the
    // next segment acquisition must fail.
    let p = h.cons(Value::fixnum(1), Value::fixnum(2));
    let _r = h.root(p);
    h.set_acquisition_fault(Some(h.acquisitions()));

    // The open pair segment still has room: these succeed without
    // acquiring anything.
    for i in 0..10 {
        h.try_cons(Value::fixnum(i), Value::NIL)
            .expect("fits the open cursor");
    }

    // A typed allocation needs a fresh segment and must fail cleanly.
    let before = h.stats().objects_allocated;
    let err = h.try_make_vector(4, Value::NIL).unwrap_err();
    let (needed, remaining) = exhausted(err);
    assert_eq!((needed, remaining), (1, 0));
    assert_eq!(h.stats().objects_allocated, before, "no partial mutation");
    h.verify().expect("heap intact after clean failure");

    // Lifting the fault un-wedges the heap.
    h.set_acquisition_fault(None);
    let v = h.try_make_vector(4, p).expect("budget lifted");
    assert_eq!(h.vector_ref(v, 0), p);
    h.verify().expect("heap valid after recovery");
}

#[test]
fn try_large_allocations_report_run_demand() {
    let mut h = Heap::default();
    h.set_acquisition_fault(Some(h.acquisitions() + 2));
    // 2000 fixnum slots + header needs a 4-segment run: more than the
    // remaining 2.
    let err = h.try_make_vector(2000, Value::NIL).unwrap_err();
    assert_eq!(exhausted(err), (4, 2));
    // A bytevector of the same footprint fails identically (pure space).
    let err = h.try_make_bytevector(2000 * 8, 0).unwrap_err();
    assert_eq!(exhausted(err).0, 4);
    h.verify().expect("heap intact");
}

#[test]
fn try_collect_fails_before_the_flip_or_runs_to_completion() {
    let mut h = Heap::default();
    let g = h.make_guardian();
    let mut keep = Vec::new();
    for i in 0..2000 {
        let s = h.make_string(&format!("obj-{i}"));
        let p = h.cons(Value::fixnum(i), s);
        if i % 3 == 0 {
            g.register(&mut h, p);
        }
        if i % 2 == 0 {
            keep.push(h.root(p));
        }
    }
    let w = {
        let target = keep[0].get();
        h.weak_cons(target, Value::NIL)
    };
    let _wr = h.root(w);

    // Budget below the reservation: the collection must refuse up front.
    let reservation = h.collection_reservation(0);
    assert!(reservation > 0);
    h.set_acquisition_fault(Some(h.acquisitions() + reservation - 1));
    let before_collections = h.collection_count();
    let census_before = h.census();
    let err = h.try_collect(0).unwrap_err();
    let (needed, remaining) = exhausted(err);
    assert_eq!(needed, reservation);
    assert_eq!(remaining, reservation - 1);
    assert_eq!(h.collection_count(), before_collections, "no flip happened");
    assert_eq!(h.census(), census_before, "heap shape untouched");
    h.verify().expect("heap intact after refused collection");

    // Budget exactly at the reservation: the collection must run to
    // completion without tripping the mid-collection panic — this is the
    // soundness test for the worst-case bound.
    h.set_acquisition_fault(Some(h.acquisitions() + reservation));
    h.try_collect(0).expect("reservation is sufficient");
    h.verify()
        .expect("heap valid after fault-bounded collection");
    assert_eq!(
        h.generation_of(keep[0].get()),
        Some(1),
        "survivors promoted"
    );
}

#[test]
fn collections_under_tight_budgets_never_corrupt() {
    // Sweep the fault across the interesting range around a collection's
    // real demand: every offset must yield either a clean refusal or a
    // completed, verify-valid collection.
    for offset in 0..40 {
        let mut h = Heap::new(GcConfig::default());
        let g = h.make_guardian();
        let mut roots = Vec::new();
        for i in 0..500 {
            let v = h.make_vector(3, Value::fixnum(i));
            g.register(&mut h, v);
            if i % 4 != 0 {
                roots.push(h.root(v));
            }
        }
        h.set_acquisition_fault(Some(h.acquisitions() + offset));
        match h.try_collect(0) {
            Ok(_) => {
                h.verify()
                    .expect("completed collection leaves a valid heap");
                assert!(h.collection_count() == 1);
            }
            Err(GcError::Exhausted { needed, remaining }) => {
                assert!(needed > remaining, "refusal must be justified");
                h.verify()
                    .expect("refused collection leaves heap untouched");
                assert_eq!(h.collection_count(), 0);
                // The heap still works once the pressure is lifted.
                h.set_acquisition_fault(None);
                h.collect(0);
                h.verify().expect("valid after recovery collection");
            }
        }
    }
}

#[test]
fn guardians_and_weak_pairs_survive_budgeted_collections() {
    let mut h = Heap::default();
    let g = h.make_guardian();
    let p = h.cons(Value::fixnum(7), Value::NIL);
    g.register(&mut h, p);
    let w = h.weak_cons(p, Value::NIL);
    let wr = h.root(w);
    // Drop the only strong reference; collect under an exact-reservation
    // budget. The guardian must still salvage the pair and the weak car
    // must still be forwarded (not broken), fault or no fault.
    let reservation = h.collection_reservation(0);
    h.set_acquisition_fault(Some(h.acquisitions() + reservation));
    h.try_collect(0).expect("within reservation");
    let salvaged = g.poll(&mut h).expect("guardian saved the pair");
    assert_eq!(h.car(salvaged), Value::fixnum(7));
    assert_eq!(h.car(wr.get()), salvaged, "weak car forwarded, not broken");
    h.verify().expect("valid");
}

#[test]
#[should_panic(expected = "infallible path")]
fn infallible_allocation_across_the_limit_trips_the_tripwire() {
    let mut h = Heap::default();
    h.set_acquisition_fault(Some(h.acquisitions()));
    // Infallible `cons` needs a segment it cannot acquire: the tripwire
    // panic (not silent corruption) is the specified behaviour.
    let _ = h.cons(Value::NIL, Value::NIL);
}
