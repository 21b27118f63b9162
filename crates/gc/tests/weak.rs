//! Weak-pair semantics (paper Sections 2–4) and their interaction with
//! guardians.

use guardians_gc::{Heap, Value};

fn full_collect(h: &mut Heap) {
    h.collect(h.config().max_generation());
    h.verify().expect("heap valid after collection");
}

#[test]
fn weak_car_breaks_when_referent_dies() {
    let mut h = Heap::default();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let w = h.weak_cons(x, Value::fixnum(2));
    let r = h.root(w);
    full_collect(&mut h);
    let w = r.get();
    assert_eq!(h.car(w), Value::FALSE, "#f is placed in the car field");
    assert_eq!(h.cdr(w), Value::fixnum(2), "cdr is a normal pointer");
}

#[test]
fn weak_car_follows_surviving_referent() {
    let mut h = Heap::default();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let xr = h.root(x);
    let w = h.weak_cons(x, Value::NIL);
    let wr = h.root(w);
    full_collect(&mut h);
    assert_eq!(
        h.car(wr.get()),
        xr.get(),
        "weak car updated to the new address"
    );
    assert_eq!(h.car(xr.get()), Value::fixnum(1));
}

#[test]
fn weak_pointer_does_not_keep_referent_alive() {
    // "an object that is not accessible except by way of one or more weak
    // sets is ultimately discarded".
    let mut h = Heap::default();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let w1 = h.weak_cons(x, Value::NIL);
    let w2 = h.weak_cons(x, Value::NIL);
    let r1 = h.root(w1);
    let r2 = h.root(w2);
    full_collect(&mut h);
    assert_eq!(h.car(r1.get()), Value::FALSE);
    assert_eq!(
        h.car(r2.get()),
        Value::FALSE,
        "every weak pointer to it is broken"
    );
}

#[test]
fn strong_cdr_keeps_referent_alive_for_the_weak_car() {
    // Same object weakly in one pair's car and strongly in another's cdr.
    let mut h = Heap::default();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let strong = h.cons(Value::NIL, x);
    let weak = h.weak_cons(x, Value::NIL);
    let sr = h.root(strong);
    let wr = h.root(weak);
    full_collect(&mut h);
    let alive = h.cdr(sr.get());
    assert_eq!(h.car(wr.get()), alive, "weak car sees the surviving object");
}

#[test]
fn guardian_saved_object_keeps_its_weak_pointers() {
    // The ordering requirement in Section 4: the weak pass runs after the
    // guardian pass, "so if the car field of a weak pair points to an
    // object that has been salvaged, the object will still be in the car
    // field after collection."
    let mut h = Heap::default();
    let g = h.make_guardian();
    let x = h.cons(Value::fixnum(42), Value::NIL);
    let w = h.weak_cons(x, Value::NIL);
    let wr = h.root(w);
    g.register(&mut h, x);

    full_collect(&mut h);
    let saved = g.poll(&mut h).expect("salvaged");
    assert_eq!(
        h.car(wr.get()),
        saved,
        "weak pointer NOT broken for a salvaged object"
    );
    assert_eq!(h.car(saved), Value::fixnum(42));
}

#[test]
fn weak_registration_does_not_block_guardian_transfer() {
    // "The existence of a weak pointer to an object in the car field of a
    // weak pair does not prevent the object from being transferred from
    // the accessible list of a guardian to the inaccessible list."
    let mut h = Heap::default();
    let g = h.make_guardian();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let w = h.weak_cons(x, Value::NIL);
    let _wr = h.root(w);
    g.register(&mut h, x);
    full_collect(&mut h);
    assert!(
        g.poll(&mut h).is_some(),
        "weak pointer alone does not make x accessible"
    );
}

#[test]
fn weak_car_non_pointer_is_untouched() {
    let mut h = Heap::default();
    let w1 = h.weak_cons(Value::fixnum(5), Value::NIL);
    let w2 = h.weak_cons(Value::FALSE, Value::NIL);
    let w3 = h.weak_cons(Value::char('q'), Value::NIL);
    let (r1, r2, r3) = (h.root(w1), h.root(w2), h.root(w3));
    full_collect(&mut h);
    assert_eq!(h.car(r1.get()), Value::fixnum(5));
    assert_eq!(h.car(r2.get()), Value::FALSE);
    assert_eq!(h.car(r3.get()), Value::char('q'));
}

#[test]
fn old_weak_pair_mutated_to_young_referent() {
    // A weak pair aged into an old generation, then set-car!'d to a young
    // object: the write barrier must get the weak pair into the weak pass
    // even though its own generation is not collected.
    let mut h = Heap::default();
    let w = h.weak_cons(Value::NIL, Value::NIL);
    let wr = h.root(w);
    h.collect(0);
    h.collect(1); // weak pair in generation 2
    assert_eq!(h.generation_of(wr.get()), Some(2));

    // Case 1: young referent dies.
    let young = h.cons(Value::fixnum(1), Value::NIL);
    h.set_car(wr.get(), young);
    h.collect(0);
    h.verify().unwrap();
    assert_eq!(
        h.car(wr.get()),
        Value::FALSE,
        "dead young referent broken in old weak pair"
    );

    // Case 2: young referent survives.
    let young2 = h.cons(Value::fixnum(2), Value::NIL);
    let keep = h.root(young2);
    h.set_car(wr.get(), young2);
    h.collect(0);
    h.verify().unwrap();
    assert_eq!(
        h.car(wr.get()),
        keep.get(),
        "surviving young referent forwarded"
    );
    assert_eq!(h.car(keep.get()), Value::fixnum(2));
}

#[test]
fn clean_old_weak_pairs_are_not_scanned() {
    let mut h = Heap::default();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let xr = h.root(x);
    let w = h.weak_cons(x, Value::NIL);
    let _wr = h.root(w);
    h.collect(0);
    h.collect(1); // both in generation 2, weak pair clean
    let _ = xr;
    h.collect(0);
    let report = h.last_report().unwrap();
    assert_eq!(
        report.weak_pairs_scanned, 0,
        "no young weak pairs, no dirty old ones"
    );
}

#[test]
fn weak_list_partial_deaths() {
    // A list of weak pairs over objects with mixed lifetimes.
    let mut h = Heap::default();
    let mut keep_roots = Vec::new();
    let mut list = Value::NIL;
    for i in 0..20 {
        let obj = h.cons(Value::fixnum(i), Value::NIL);
        if i % 3 == 0 {
            keep_roots.push(h.root(obj));
        }
        list = h.weak_cons(obj, list);
    }
    let lr = h.root(list);
    full_collect(&mut h);

    let mut cur = lr.get();
    let mut idx = 19i64;
    while !cur.is_nil() {
        let car = h.car(cur);
        if idx % 3 == 0 {
            assert!(car.is_pair_ptr(), "kept object {idx} survives");
            assert_eq!(h.car(car), Value::fixnum(idx));
        } else {
            assert_eq!(car, Value::FALSE, "dropped object {idx} broken");
        }
        idx -= 1;
        cur = h.cdr(cur);
    }
    assert_eq!(idx, -1);
}

#[test]
fn self_referential_weak_pair() {
    let mut h = Heap::default();
    let w = h.weak_cons(Value::NIL, Value::NIL);
    h.set_car(w, w); // weak pointer to itself
    let r = h.root(w);
    full_collect(&mut h);
    let w = r.get();
    assert_eq!(
        h.car(w),
        w,
        "rooted self-weak pair keeps (forwarded) self pointer"
    );
    h.verify().unwrap();
}

#[test]
fn chain_of_weak_pairs_is_itself_collectable() {
    let mut h = Heap::default();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let mut w = h.weak_cons(x, Value::NIL);
    for _ in 0..100 {
        w = h.weak_cons(x, w);
    }
    // Nothing rooted: everything dies.
    let before = {
        full_collect(&mut h);
        h.capacity_bytes()
    };
    for _ in 0..100 {
        let _ = h.weak_cons(Value::NIL, Value::NIL);
    }
    full_collect(&mut h);
    assert!(
        h.capacity_bytes() <= before,
        "dead weak chains are reclaimed"
    );
}

#[test]
fn broken_weak_car_counts_are_reported() {
    let mut h = Heap::default();
    let mut weaks = Vec::new();
    for i in 0..10 {
        let obj = h.cons(Value::fixnum(i), Value::NIL);
        let w = h.weak_cons(obj, Value::NIL);
        weaks.push(h.root(w));
    }
    full_collect(&mut h);
    let report = h.last_report().unwrap();
    assert_eq!(report.weak_cars_broken, 10);
    assert_eq!(report.weak_cars_forwarded, 0);
    assert!(report.weak_pairs_scanned >= 10);
}

#[test]
fn weak_pairs_copied_by_the_guardian_pass_are_fixed_by_the_weak_pass() {
    // A weak pair the guardian pass resurrects is copied late, into a weak
    // segment that has been open since the sweep. The one weak pass comes
    // after and must still fix its car, on both schedules, for both a pair
    // reached through a guarded object and a guarded weak pair itself.
    use guardians_gc::GcConfig;
    use std::time::Duration;
    let drivers = [("serial", None), ("zero budget", Some(Duration::ZERO))];
    for (name, pause_budget) in drivers {
        for guard_the_pair_itself in [false, true] {
            let mut h = Heap::new(GcConfig {
                pause_budget,
                ..GcConfig::new()
            });
            let y = h.cons(Value::fixnum(7), Value::NIL);
            let yr = h.root(y);
            // A rooted weak pair opens the to-space weak segment early.
            let opener = h.weak_cons(y, Value::NIL);
            let _opener = h.root(opener);
            let w = h.weak_cons(y, Value::NIL);
            let g = h.make_guardian();
            if guard_the_pair_itself {
                g.register(&mut h, w);
            } else {
                let x = h.cons(w, Value::NIL);
                g.register(&mut h, x);
            }
            h.collect(0);
            let what = format!("{name}, guard_the_pair_itself={guard_the_pair_itself}");
            h.verify().unwrap_or_else(|e| panic!("{what}: {e}"));
            let saved = g.poll(&mut h).expect("resurrected");
            let w = if guard_the_pair_itself {
                saved
            } else {
                h.car(saved)
            };
            assert_eq!(h.car(w), yr.get(), "{what}");
        }
    }
}
