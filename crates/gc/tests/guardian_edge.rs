//! Edge cases: the Section 5 agent generalisation, the Dickey-style
//! collector-invoked finalization baseline, and stress shapes for the
//! protected-list machinery.

use guardians_gc::{GcConfig, GcEvent, Heap, TraceConfig, Value};

fn full_collect(h: &mut Heap) {
    h.collect(h.config().max_generation());
    h.verify().expect("heap valid after collection");
}

#[test]
fn agent_is_returned_instead_of_object() {
    // Section 5: "Rather than returning the object when it becomes
    // inaccessible, the guardian returns the agent."
    let mut h = Heap::default();
    let g = h.make_guardian();
    let desc = h.make_symbol("fd-agent");
    let agent = h.make_record(desc, &[Value::fixnum(17)]);
    let obj = h.cons(Value::fixnum(1), Value::NIL);
    g.register_with_agent(&mut h, obj, agent);

    full_collect(&mut h);
    let got = g.poll(&mut h).expect("agent delivered");
    assert!(h.is_record(got));
    assert_eq!(h.record_ref(got, 0), Value::fixnum(17));
}

#[test]
fn with_a_distinct_agent_the_object_is_discarded() {
    // "it allows objects to be discarded if something less than the
    // object is needed to perform the finalization" — observable through
    // a weak pointer to the object.
    let mut h = Heap::default();
    let g = h.make_guardian();
    let agent = h.make_box(Value::fixnum(5));
    let obj = h.cons(Value::fixnum(1), Value::NIL);
    let w = h.weak_cons(obj, Value::NIL);
    let wr = h.root(w);
    g.register_with_agent(&mut h, obj, agent);

    full_collect(&mut h);
    assert!(g.poll(&mut h).is_some(), "agent enqueued");
    assert_eq!(
        h.car(wr.get()),
        Value::FALSE,
        "object itself was NOT preserved"
    );
}

#[test]
fn agent_survives_while_object_lives() {
    // The entry is the agent's only reference; the agent must stay alive
    // as long as the (live) object might still die later.
    let mut h = Heap::default();
    let g = h.make_guardian();
    let obj = h.cons(Value::fixnum(1), Value::NIL);
    let r = h.root(obj);
    let agent = h.make_box(Value::fixnum(99));
    g.register_with_agent(&mut h, obj, agent);

    full_collect(&mut h);
    full_collect(&mut h);
    assert_eq!(g.poll(&mut h), None, "object alive, nothing delivered");

    r.set(Value::FALSE);
    full_collect(&mut h);
    let got = g.poll(&mut h).expect("object finally died");
    assert_eq!(
        h.box_ref(got),
        Value::fixnum(99),
        "agent data intact after aging"
    );
}

#[test]
fn agent_identical_to_object_behaves_like_simple_interface() {
    // "Since the agent can be the object itself, this subsumes the
    // simpler interface."
    let mut h = Heap::default();
    let g = h.make_guardian();
    let obj = h.cons(Value::fixnum(3), Value::NIL);
    g.register_with_agent(&mut h, obj, obj);
    full_collect(&mut h);
    let got = g.poll(&mut h).expect("object preserved and returned");
    assert_eq!(h.car(got), Value::fixnum(3));
}

#[test]
fn immediate_agents_work() {
    let mut h = Heap::default();
    let g = h.make_guardian();
    let obj = h.cons(Value::NIL, Value::NIL);
    g.register_with_agent(&mut h, obj, Value::fixnum(1234));
    full_collect(&mut h);
    assert_eq!(g.poll(&mut h), Some(Value::fixnum(1234)));
}

#[test]
fn mixed_registrations_on_one_object() {
    let mut h = Heap::default();
    let g = h.make_guardian();
    let obj = h.cons(Value::fixnum(7), Value::NIL);
    let agent = h.make_box(Value::fixnum(1));
    g.register(&mut h, obj); // simple: preserves obj
    g.register_with_agent(&mut h, obj, agent);
    full_collect(&mut h);
    let mut got = [g.poll(&mut h).unwrap(), g.poll(&mut h).unwrap()];
    assert_eq!(g.poll(&mut h), None);
    got.sort_by_key(|v| h.is_box(*v));
    assert_eq!(h.car(got[0]), Value::fixnum(7), "the preserved object");
    assert_eq!(h.box_ref(got[1]), Value::fixnum(1), "the agent");
}

#[test]
fn many_guardians_many_objects_stress() {
    let mut h = Heap::default();
    let guardians: Vec<_> = (0..20).map(|_| h.make_guardian()).collect();
    let mut roots = Vec::new();
    for i in 0..400i64 {
        let obj = h.cons(Value::fixnum(i), Value::NIL);
        guardians[(i % 20) as usize].register(&mut h, obj);
        if i % 2 == 0 {
            roots.push(h.root(obj));
        }
    }
    full_collect(&mut h);
    for (k, g) in guardians.iter().enumerate() {
        let dead = g.drain(&mut h);
        // Guardian k watches objects with i % 20 == k; those died iff i is
        // odd, i.e. iff k is odd.
        let expected = if k % 2 == 1 { 20 } else { 0 };
        assert_eq!(dead.len(), expected, "guardian {k}");
        for v in dead {
            let n = h.car(v).as_fixnum();
            assert_eq!(n % 2, 1, "guardian {k} got a live object {n}");
            assert_eq!((n % 20) as usize, k, "delivered to the right guardian");
        }
    }
    // The even ones are still watched.
    let total_watched: usize = guardians
        .iter()
        .map(|g| h.guardian_watched(g.tconc()))
        .sum();
    assert_eq!(total_watched, 200);
    h.verify().unwrap();
}

#[test]
fn interleaved_guardians_finalized_in_one_round_poll_in_registration_order() {
    // The collector appends a round's entries one chain per run of entries
    // on one tconc: A | B | A | C | B | A A, the last a distinct agent's.
    // The tconcs are aged first, so the appends land in generation 2
    // cells and stamp their cards.
    let mut h = Heap::default();
    let guardians = [h.make_guardian(), h.make_guardian(), h.make_guardian()];
    h.collect(0);
    h.collect(1);
    h.verify().unwrap();
    h.enable_tracing(TraceConfig {
        capacity: 1 << 16,
        ..TraceConfig::default()
    });
    for (i, k) in [0, 1, 0, 2, 1, 0].into_iter().enumerate() {
        let obj = h.cons(Value::fixnum(i as i64), Value::NIL);
        guardians[k].register(&mut h, obj);
    }
    let obj = h.cons(Value::fixnum(6), Value::NIL);
    let agent = h.make_box(Value::fixnum(60));
    guardians[0].register_with_agent(&mut h, obj, agent);
    h.drain_trace_events();

    h.collect(0);
    h.verify().unwrap();
    let report = h.last_report().unwrap().clone();
    let events = h.disable_tracing();
    let count = |pick: fn(&GcEvent) -> bool| events.iter().filter(|e| pick(&e.event)).count();
    let appends = count(|e| {
        matches!(
            e,
            GcEvent::TconcAppend {
                during_collection: true
            }
        )
    });
    let rounds = count(|e| matches!(e, GcEvent::GuardianRound { resurrected: 7, .. }));
    assert_eq!(report.guardian_entries_finalized, 7);
    assert_eq!(appends as u64, report.guardian_entries_finalized);
    assert_eq!(rounds, 1, "all seven in one round");

    let polled: Vec<Vec<i64>> = guardians
        .iter()
        .map(|g| {
            g.drain(&mut h)
                .into_iter()
                .map(|v| match h.is_box(v) {
                    true => h.box_ref(v).as_fixnum(),
                    false => h.car(v).as_fixnum(),
                })
                .collect()
        })
        .collect();
    assert_eq!(polled, [vec![0, 2, 5, 60], vec![1, 4], vec![3]]);
    for g in 0..=h.config().max_generation() {
        h.collect(g);
        h.verify().unwrap();
    }
}

#[test]
fn deep_guardian_chain_needs_proportional_fixpoint_iterations() {
    // G1 guards G2's tconc, G2 guards G3's tconc, ... Gn guards an object.
    // Dropping all of G2..Gn forces the pend-final loop to iterate ~n
    // times, resurrecting one guardian per round.
    const N: usize = 8;
    let mut h = Heap::default();
    let keeper = h.make_guardian();
    let mut chain = Vec::new();
    for _ in 0..N {
        chain.push(h.make_guardian());
    }
    keeper.register(&mut h, chain[0].tconc());
    for i in 1..N {
        let inner_tconc = chain[i].tconc();
        chain[i - 1].register(&mut h, inner_tconc);
    }
    let obj = h.cons(Value::fixnum(N as i64), Value::NIL);
    chain[N - 1].register(&mut h, obj);
    drop(chain);

    full_collect(&mut h);
    let report = h.last_report().unwrap();
    assert!(
        report.guardian_loop_iterations as usize >= N,
        "expected >= {N} fixpoint iterations, got {}",
        report.guardian_loop_iterations
    );

    // Unwind the chain from the keeper: N-1 hops between guardians, then
    // one final poll yields the innermost object.
    let mut tconc = keeper.poll(&mut h).expect("first dropped guardian");
    for _ in 1..N {
        let g = guardians_gc::Guardian::from_tconc(&mut h, tconc);
        tconc = g.poll(&mut h).expect("next link");
    }
    let last = guardians_gc::Guardian::from_tconc(&mut h, tconc);
    let obj = last.poll(&mut h).expect("the innermost object");
    assert_eq!(
        h.car(obj),
        Value::fixnum(N as i64),
        "the innermost object arrives intact"
    );
}

#[test]
fn two_generation_config_works_end_to_end() {
    let mut h = Heap::new(GcConfig::with_generations(2));
    let g = h.make_guardian();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let r = h.root(x);
    g.register(&mut h, x);
    h.collect(0);
    h.collect(1);
    h.collect(1);
    assert_eq!(
        h.generation_of(r.get()),
        Some(1),
        "capped at the oldest generation"
    );
    r.set(Value::FALSE);
    h.collect(1);
    assert_eq!(g.poll(&mut h).map(|v| h.car(v)), Some(Value::fixnum(1)));
    h.verify().unwrap();
}

#[test]
fn registrations_during_pending_retrievals_compose() {
    let mut h = Heap::default();
    let g = h.make_guardian();
    let a = h.cons(Value::fixnum(1), Value::NIL);
    g.register(&mut h, a);
    full_collect(&mut h);
    // While `a` waits in the inaccessible group, register and kill b.
    let b = h.cons(Value::fixnum(2), Value::NIL);
    g.register(&mut h, b);
    full_collect(&mut h);
    let xs: Vec<i64> = g
        .drain(&mut h)
        .into_iter()
        .map(|v| h.car(v).as_fixnum())
        .collect();
    assert_eq!(xs, vec![1, 2]);
}

#[test]
fn zombie_guardian_in_old_generation_conservatively_retains() {
    // Found by the model-based property test: a dropped guardian whose
    // tconc has aged into an uncollected generation is not *provably*
    // dead, so a young collection must treat it as live — per the paper's
    // forwarded? definition — and will resurrect registered objects into
    // the zombie tconc. Only a collection covering the tconc's generation
    // proves the death and releases everything.
    let mut h = Heap::default();
    let g = h.make_guardian();
    // Age the tconc to generation 2.
    h.collect(0);
    h.collect(1);
    assert_eq!(h.generation_of(g.tconc()), Some(2));

    // Register a fresh object, drop both it and the guardian handle.
    let obj = h.cons(Value::fixnum(1), Value::NIL);
    let w = h.weak_cons(obj, Value::NIL);
    let wr = h.root(w);
    g.register(&mut h, obj);
    drop(g);

    // A young collection cannot prove the tconc dead: the object is
    // conservatively resurrected into the zombie tconc, so the weak
    // pointer is NOT broken.
    h.collect(0);
    h.verify().unwrap();
    assert!(
        h.car(wr.get()).is_truthy(),
        "object retained by the unproven zombie tconc"
    );
    assert_eq!(h.last_report().unwrap().guardian_entries_finalized, 1);

    // Collecting the tconc's generation proves the death; the zombie and
    // its contents are reclaimed together.
    h.collect(2);
    h.verify().unwrap();
    assert_eq!(
        h.car(wr.get()),
        Value::FALSE,
        "released once death was proven"
    );
}

#[test]
fn figure_4_field_clearing_prevents_retention_through_old_pairs() {
    // "since the pair is sometimes in an older generation than the
    // objects to which it points, maintaining these pointers after they
    // are no longer needed may result in unnecessary storage retention."
    // Compare the proper pop (clears the don't-care fields) with a
    // naive pop that leaves them.
    let retention_after = |clear: bool| -> bool {
        let mut h = Heap::default();
        let g = h.make_guardian();
        // Age the guardian's tconc (header + sentinel pair) to gen 2.
        h.collect(0);
        h.collect(1);

        // A young object dies and is enqueued onto the old tconc.
        let obj = h.cons(Value::fixnum(1), Value::NIL);
        let w = h.weak_cons(obj, Value::NIL);
        let wr = h.root(w);
        g.register(&mut h, obj);
        h.collect(0);

        let tconc = g.tconc();
        if clear {
            // The paper's protocol (Figure 4).
            h.tconc_pop(tconc).expect("delivered");
        } else {
            // Naive pop: advance the header car but leave the old pair's
            // fields pointing at the popped object.
            let x = h.car(tconc);
            let rest = h.cdr(x);
            h.set_car(tconc, rest);
        }
        // The popped object is dropped either way. Does it die while the
        // tconc's own (old) generation remains uncollected?
        h.collect(0);
        h.collect(1);
        h.verify().unwrap();
        h.car(wr.get()).is_truthy()
    };
    assert!(
        !retention_after(true),
        "with field clearing, the popped object is reclaimed"
    );
    assert!(
        retention_after(false),
        "without clearing, the old pair retains the dead object until its own \
         generation is finally collected — the leak Figure 4 prevents"
    );
}
