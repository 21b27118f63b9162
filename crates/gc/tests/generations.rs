//! Generational behaviour: aging, promotion, remembered sets, and the
//! generation-friendliness of guardian processing (the paper's central
//! implementation claim).

use guardians_gc::{GcConfig, Heap, Promotion, Value};

#[test]
fn survivors_age_one_generation_per_collection() {
    let mut h = Heap::default();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let r = h.root(x);
    assert_eq!(h.generation_of(r.get()), Some(0));
    h.collect(0);
    assert_eq!(h.generation_of(r.get()), Some(1));
    h.collect(1);
    assert_eq!(h.generation_of(r.get()), Some(2));
    h.collect(2);
    assert_eq!(h.generation_of(r.get()), Some(3));
    // Generation 3 is the oldest: survivors of collecting it stay there.
    h.collect(3);
    assert_eq!(h.generation_of(r.get()), Some(3));
    assert_eq!(h.car(r.get()), Value::fixnum(1));
    h.verify().unwrap();
}

#[test]
fn young_collection_does_not_move_old_objects() {
    let mut h = Heap::default();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let r = h.root(x);
    h.collect(0);
    let addr = h.address_of(r.get()).unwrap();
    h.collect(0);
    h.collect(0);
    assert_eq!(
        h.address_of(r.get()),
        Some(addr),
        "gen-1 object untouched by gen-0 GCs"
    );
}

#[test]
fn old_to_young_pointer_survives_via_write_barrier() {
    let mut h = Heap::default();
    let vec = h.make_vector(4, Value::NIL);
    let vr = h.root(vec);
    h.collect(0);
    h.collect(1); // vector now in generation 2
    assert_eq!(h.generation_of(vr.get()), Some(2));

    // Mutate the old vector to point at a brand-new pair.
    let young = h.cons(Value::fixnum(77), Value::NIL);
    let v = vr.get();
    h.vector_set(v, 0, young);
    h.collect(0);
    h.verify().unwrap();
    let survivor = h.vector_ref(vr.get(), 0);
    assert_eq!(
        h.car(survivor),
        Value::fixnum(77),
        "remembered set saved the young pair"
    );
    assert_eq!(h.generation_of(survivor), Some(1));
    let report = h.last_report().unwrap();
    assert!(
        report.dirty_segments_scanned >= 1,
        "the dirtied segment was scanned"
    );
}

#[test]
fn clean_old_segments_are_never_scanned() {
    let mut h = Heap::default();
    // Build a large old structure, never mutated afterwards.
    let mut head = Value::NIL;
    for i in 0..1000 {
        head = h.cons(Value::fixnum(i), head);
    }
    let r = h.root(head);
    h.collect(0);
    h.collect(1); // structure parked in generation 2
                  // Churn some young garbage and collect generation 0 repeatedly.
    for _ in 0..5 {
        for _ in 0..100 {
            let _ = h.cons(Value::NIL, Value::NIL);
        }
        h.collect(0);
        let report = h.last_report().unwrap();
        assert_eq!(
            report.dirty_segments_scanned, 0,
            "no mutation → no dirty scans"
        );
        assert!(
            report.words_copied < 100,
            "old structure is not being re-copied"
        );
    }
    assert_eq!(h.car(r.get()), Value::fixnum(999));
}

/// `(runs, cards)` the last collection's remembered-set scan visited.
fn remset_work(h: &Heap) -> (u64, u64) {
    let r = h.last_report().unwrap();
    (r.dirty_segments_scanned, r.dirty_cards_scanned)
}

#[test]
fn one_store_costs_one_card_and_only_until_its_referent_catches_up() {
    // The remembered-set half of generation-friendliness: a store into a
    // full old segment costs one card, not the segment, and once the
    // stored pair has been promoted it costs minor collections nothing.
    let mut h = Heap::default();
    let vectors = h.root_vec();
    for i in 0..100 {
        vectors.push(h.make_vector(8, Value::fixnum(i)));
    }
    h.collect(0);
    h.collect(1); // ~2 full segments of vectors in generation 2
    let young = h.cons(Value::fixnum(77), Value::NIL);
    h.vector_set(vectors.get(31), 3, young);

    h.collect(0);
    assert_eq!(remset_work(&h), (1, 1), "one run, one card");
    assert_eq!(h.generation_of(h.vector_ref(vectors.get(31), 3)), Some(1));
    h.collect(0);
    assert_eq!(
        remset_work(&h),
        (0, 0),
        "the card reads 1: not a minor GC's"
    );
    h.collect(1);
    assert_eq!(
        remset_work(&h),
        (1, 1),
        "generation 1's collection visits it"
    );
    h.collect(1);
    assert_eq!(remset_work(&h), (0, 0), "referent caught up: card clean");
    h.verify().unwrap();
    assert_eq!(
        h.car(h.vector_ref(vectors.get(31), 3)),
        Value::fixnum(77),
        "and the pair survived all of it"
    );
}

#[test]
fn store_into_the_tail_of_a_large_vector_is_found() {
    let mut h = Heap::default();
    let big = h.make_vector(1500, Value::NIL); // a 3-segment run
    let r = h.root(big);
    h.collect(0);
    h.collect(1);
    let young = h.cons(Value::fixnum(600), Value::NIL);
    h.vector_set(r.get(), 599, young); // word 600: the run's second segment
    h.verify().unwrap();
    h.collect(0);
    assert_eq!(remset_work(&h), (1, 1));
    h.verify().unwrap();
    assert_eq!(h.car(h.vector_ref(r.get(), 599)), Value::fixnum(600));
}

#[test]
fn cards_stay_dirty_while_the_target_is_younger_than_the_holder() {
    // Under SameGeneration a generation-1 collection promotes into
    // generation 1, so a generation-2 holder's card must be visited by
    // every one of them.
    let mut h = Heap::new(GcConfig {
        promotion: Promotion::SameGeneration,
        ..GcConfig::new()
    });
    let holder = h.make_vector(8, Value::NIL);
    let r = h.root(holder);
    h.collect(0);
    h.collect(2);
    let holder_gen = h.generation_of(r.get()).unwrap();
    assert_eq!(holder_gen, 2);
    let young = h.cons(Value::fixnum(5), Value::NIL);
    h.vector_set(r.get(), 0, young);
    h.collect(0);
    assert_eq!(remset_work(&h), (1, 1));
    for _ in 0..3 {
        h.collect(1);
        assert_eq!(remset_work(&h), (1, 1), "target 1 < holder {holder_gen}");
        assert_eq!(h.generation_of(h.vector_ref(r.get(), 0)), Some(1));
        h.collect(0);
        assert_eq!(remset_work(&h), (0, 0));
        h.verify().unwrap();
    }
    assert_eq!(h.car(h.vector_ref(r.get(), 0)), Value::fixnum(5));
}

/// Registers `n` objects with `g` and drops them, so the next collection
/// of generation 0 finalizes all of them.
fn register_dead(h: &mut Heap, g: &guardians_gc::Guardian, n: i64) {
    for i in 0..n {
        let obj = h.cons(Value::fixnum(i), Value::NIL);
        g.register(h, obj);
    }
}

#[test]
fn the_collectors_tconc_appends_stamp_exact_cards() {
    // A generation-3 tconc whose entries a generation-0 collection
    // finalizes into generation 1: every store the guardian pass makes
    // into it points into generation 1, so its cards read 1 — not the
    // barrier's 0 — and minor collections do not visit them.
    let mut h = Heap::default();
    let g = h.make_guardian();
    for gen in 0..3 {
        h.collect(gen);
    }
    let tconc = g.tconc();
    let sentinel = h.cdr(tconc);
    assert_eq!(h.generation_of(tconc), Some(3));
    assert_eq!(h.generation_of(sentinel), Some(3));
    register_dead(&mut h, &g, 3);
    h.collect(0);
    h.verify().unwrap();
    assert_eq!(h.last_report().unwrap().guardian_entries_finalized, 3);
    assert_eq!(h.card_byte(tconc, 1), 1, "header cdr: a generation-1 pair");
    assert_eq!(h.card_byte(sentinel, 0), 1, "old last cell: rep and pair");
    assert_eq!(h.card_byte(sentinel, 1), 1);
    h.collect(0);
    assert_eq!(remset_work(&h), (0, 0), "not a minor collection's cards");
    h.verify().unwrap();
    // The mutator's pop stores through its own barrier: 0, as ever.
    assert_eq!(g.poll(&mut h).map(|v| h.car(v)), Some(Value::fixnum(0)));
    assert_eq!(h.card_byte(tconc, 0), 0);
    h.collect(0);
    assert_eq!(remset_work(&h).0, 1, "the popped header is visited");
    h.verify().unwrap();
    let rest: Vec<i64> = g
        .drain(&mut h)
        .iter()
        .map(|&v| h.car(v).as_fixnum())
        .collect();
    assert_eq!(rest, [1, 2]);

    // With one generation every holder is in the target generation: the
    // header and every cell of its list, the last included, stay unmarked.
    let mut h = Heap::new(GcConfig::with_generations(1));
    let g = h.make_guardian();
    h.collect(0);
    register_dead(&mut h, &g, 3);
    h.collect(0);
    assert_eq!(h.last_report().unwrap().guardian_entries_finalized, 3);
    let tconc = g.tconc();
    let mut cells = vec![tconc, h.car(tconc)];
    while cells[cells.len() - 1] != h.cdr(tconc) {
        cells.push(h.cdr(cells[cells.len() - 1]));
    }
    assert_eq!(cells.len(), 5);
    for cell in cells {
        assert_eq!(
            (h.card_byte(cell, 0), h.card_byte(cell, 1)),
            (u8::MAX, u8::MAX)
        );
    }
    h.collect(0);
    assert_eq!(remset_work(&h), (0, 0));
    h.verify().unwrap();
    assert_eq!(g.drain(&mut h).len(), 3);
}

#[test]
fn guardian_entries_park_with_their_objects() {
    // THE generation-friendliness property (experiment E3's correctness
    // core): entries whose objects live in old generations are not even
    // visited by young collections.
    let mut h = Heap::default();
    let g = h.make_guardian();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let r = h.root(x);
    g.register(&mut h, x);

    h.collect(0); // entry migrates to protected[1]
    assert_eq!(h.last_report().unwrap().guardian_entries_visited, 1);
    h.collect(0); // protected[1] untouched
    assert_eq!(h.last_report().unwrap().guardian_entries_visited, 0);
    h.collect(0);
    assert_eq!(h.last_report().unwrap().guardian_entries_visited, 0);

    // Drop the object: a young collection cannot prove it dead...
    r.set(Value::FALSE);
    h.collect(0);
    assert_eq!(g.poll(&mut h), None);
    // ...but a collection of its generation can.
    h.collect(1);
    assert_eq!(h.last_report().unwrap().guardian_entries_visited, 1);
    let saved = g.poll(&mut h).expect("proven dead by gen-1 collection");
    assert_eq!(h.car(saved), Value::fixnum(1));
    h.verify().unwrap();
}

#[test]
fn maybe_collect_fires_on_the_allocation_trigger() {
    let mut h = Heap::new(GcConfig {
        trigger_bytes: 4096,
        ..GcConfig::new()
    });
    assert!(h.maybe_collect().is_none(), "nothing allocated yet");
    for _ in 0..300 {
        let _ = h.cons(Value::NIL, Value::NIL); // 300 * 16 bytes > 4096
    }
    let report = h.maybe_collect().expect("trigger crossed");
    assert_eq!(report.collected_generation, 0);
    assert!(h.maybe_collect().is_none(), "counter reset");
}

#[test]
fn maybe_collect_follows_the_generation_schedule() {
    let mut h = Heap::new(GcConfig {
        trigger_bytes: 0,
        frequency: vec![1, 2, 4, 8],
        ..GcConfig::new()
    });
    let mut gens = Vec::new();
    for _ in 0..8 {
        let _ = h.cons(Value::NIL, Value::NIL);
        gens.push(h.maybe_collect().unwrap().collected_generation);
    }
    assert_eq!(gens, vec![0, 1, 0, 2, 0, 1, 0, 3]);
}

#[test]
fn garbage_is_actually_reclaimed() {
    let mut h = Heap::default();
    for _ in 0..10_000 {
        let _ = h.cons(Value::NIL, Value::NIL);
    }
    let before = h.capacity_bytes();
    h.collect(0);
    let after = h.capacity_bytes();
    assert!(
        after < before / 2,
        "dead segments returned to the pool: {before} -> {after}"
    );
    assert!(h.last_report().unwrap().segments_freed > 0);
}

#[test]
fn large_objects_survive_and_die_correctly() {
    let mut h = Heap::default();
    let big = h.make_vector(5000, Value::fixnum(3)); // ~10 segments
    let r = h.root(big);
    h.collect(0);
    h.verify().unwrap();
    let big = r.get();
    assert_eq!(h.vector_len(big), 5000);
    assert_eq!(h.vector_ref(big, 4999), Value::fixnum(3));
    assert_eq!(h.generation_of(big), Some(1));

    let occupied = h.capacity_bytes();
    drop(r);
    h.collect(1);
    h.verify().unwrap();
    assert!(h.capacity_bytes() < occupied, "large run reclaimed");
}

#[test]
fn deep_structure_survives_collection() {
    let mut h = Heap::default();
    let mut head = Value::NIL;
    for i in 0..50_000 {
        head = h.cons(Value::fixnum(i), head);
    }
    let r = h.root(head);
    h.collect(0);
    h.verify().unwrap();
    // Walk the whole copied list.
    let mut cur = r.get();
    let mut expected = 49_999;
    while !cur.is_nil() {
        assert_eq!(h.car(cur).as_fixnum(), expected);
        expected -= 1;
        cur = h.cdr(cur);
    }
    assert_eq!(expected, -1);
}

#[test]
fn all_object_kinds_survive_collection_with_contents() {
    let mut h = Heap::default();
    let s = h.make_string("the quick brown fox");
    let sym = h.make_symbol("state");
    let bv = h.make_bytevector(13, 0x5A);
    let fl = h.make_flonum(6.25);
    let bx = h.make_box(Value::fixnum(-4));
    let vec = h.make_vector(2, s);
    let rec = h.make_record(sym, &[bv, fl, bx, vec]);
    let weak = h.weak_cons(rec, Value::fixnum(1));
    let r = h.root(rec);
    let w = h.root(weak);

    h.collect(0);
    h.collect(1);
    h.verify().unwrap();

    let rec = r.get();
    assert_eq!(h.symbol_name(h.record_descriptor(rec)), "state");
    let bv = h.record_ref(rec, 0);
    assert_eq!(h.bytevector_value(bv), vec![0x5A; 13]);
    assert_eq!(h.flonum_value(h.record_ref(rec, 1)), 6.25);
    assert_eq!(h.box_ref(h.record_ref(rec, 2)), Value::fixnum(-4));
    let v = h.record_ref(rec, 3);
    assert_eq!(h.string_value(h.vector_ref(v, 1)), "the quick brown fox");
    // The weak pair's referent survived: the weak car was forwarded.
    assert_eq!(h.car(w.get()), rec);
}

#[test]
fn collecting_the_oldest_generation_reclaims_old_garbage() {
    let mut h = Heap::default();
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let r = h.root(x);
    for g in [0u8, 1, 2, 3] {
        h.collect(g);
    }
    assert_eq!(h.generation_of(r.get()), Some(3));
    let before = h.capacity_bytes();
    drop(r);
    h.collect(3);
    h.verify().unwrap();
    assert!(h.capacity_bytes() <= before);
}

#[test]
fn guardian_entry_for_old_object_crawls_up_to_it() {
    // Registering an already-old object puts the entry on protected[0];
    // the entry must migrate upward collection by collection without ever
    // falsely finalizing the (live) object.
    let mut h = Heap::default();
    let x = h.cons(Value::fixnum(6), Value::NIL);
    let r = h.root(x);
    h.collect(0);
    h.collect(1); // x in generation 2
    let g = h.make_guardian();
    g.register(&mut h, r.get());

    h.collect(0);
    h.collect(0);
    assert_eq!(g.poll(&mut h), None);
    h.verify().unwrap();

    drop(r);
    h.collect(2);
    let saved = g
        .poll(&mut h)
        .expect("found dead once its generation was collected");
    assert_eq!(h.car(saved), Value::fixnum(6));
}

#[test]
fn pointer_free_objects_are_copied_without_scanning() {
    // Strings, bytevectors, and flonums live in the pure space (the
    // paper's cited segregate-by-characteristics design): the collector
    // copies them but never scans their payloads.
    let mut h = Heap::default();
    let mut keep = Vec::new();
    for i in 0..200 {
        let s = h.make_string(&format!("payload string number {i:03}"));
        keep.push(h.root(s));
    }
    let bv = h.make_bytevector(10_000, 0xEE);
    keep.push(h.root(bv));
    h.collect(0);
    h.verify().unwrap();
    let report = h.last_report().unwrap();
    assert!(
        report.pure_words_skipped > 1_000,
        "the pure-space scan skip did real work: {}",
        report.pure_words_skipped
    );
    // Contents intact after the unscanned copy.
    for (i, r) in keep[..200].iter().enumerate() {
        assert_eq!(
            h.string_value(r.get()),
            format!("payload string number {i:03}")
        );
    }
    assert_eq!(h.bytevector_ref(keep[200].get(), 9_999), 0xEE);
}

#[test]
fn pure_space_objects_interlink_correctly_with_typed_ones() {
    // A vector (typed, scanned) holding strings (pure, unscanned): the
    // scan of the vector forwards the strings; the strings' segments are
    // never scanned.
    let mut h = Heap::default();
    let v = h.make_vector(50, Value::NIL);
    for i in 0..50 {
        let s = h.make_string(&format!("{i}"));
        h.vector_set(v, i, s);
    }
    let r = h.root(v);
    h.collect(0);
    h.collect(1);
    h.verify().unwrap();
    for i in 0..50 {
        let s = h.vector_ref(r.get(), i);
        assert_eq!(h.string_value(s), format!("{i}"));
    }
}

#[test]
fn capped_promotion_is_a_tenure_ceiling() {
    use guardians_gc::Promotion;
    let mut h = Heap::new(GcConfig {
        promotion: Promotion::Capped(2),
        ..GcConfig::new()
    });
    let x = h.cons(Value::fixnum(1), Value::NIL);
    let r = h.root(x);
    for g in [0u8, 1, 2, 3, 3] {
        h.collect(g);
        h.verify().unwrap();
    }
    assert_eq!(
        h.generation_of(r.get()),
        Some(2),
        "never promoted past the cap"
    );
    assert_eq!(h.car(r.get()), Value::fixnum(1));

    // Guardian entries park at the cap too and stay generation-friendly.
    let g = h.make_guardian();
    let y = h.cons(Value::fixnum(2), Value::NIL);
    let yr = h.root(y);
    g.register(&mut h, y);
    h.collect(0);
    h.collect(1);
    h.collect(2);
    h.collect(0);
    assert_eq!(
        h.last_report().unwrap().guardian_entries_visited,
        0,
        "parked at gen 2"
    );
    yr.set(Value::FALSE);
    h.collect(2);
    assert_eq!(g.poll(&mut h).map(|v| h.car(v)), Some(Value::fixnum(2)));
}

#[test]
fn same_generation_promotion_works_end_to_end() {
    use guardians_gc::Promotion;
    let mut h = Heap::new(GcConfig {
        promotion: Promotion::SameGeneration,
        ..GcConfig::new()
    });
    let x = h.cons(Value::fixnum(7), Value::NIL);
    let r = h.root(x);
    h.collect(0);
    assert_eq!(h.generation_of(r.get()), Some(1), "leaves the nursery once");
    for _ in 0..3 {
        h.collect(1);
        h.verify().unwrap();
        assert_eq!(h.generation_of(r.get()), Some(1), "then stays put");
    }
    // Guardians still work under the two-speed policy.
    let g = h.make_guardian();
    g.register(&mut h, r.get());
    r.set(Value::FALSE);
    h.collect(1);
    assert_eq!(g.poll(&mut h).map(|v| h.car(v)), Some(Value::fixnum(7)));
    h.verify().unwrap();
}

// ---- the generation-stamped root table --------------------------------

#[test]
fn an_aged_root_is_not_traced_by_a_young_collection() {
    let mut h = Heap::default();
    let roots: Vec<_> = (0..100)
        .map(|i| {
            let p = h.cons(Value::fixnum(i), Value::NIL);
            h.root(p)
        })
        .collect();
    let stack = h.root_vec();
    for r in &roots {
        stack.push(r.get());
    }
    assert_eq!(h.collect(0).roots_traced, 200, "fresh roots are all due");
    assert_eq!(h.collect(0).roots_traced, 0, "generation-1 referents");
    let r = h.collect(1).clone();
    assert_eq!((r.roots_traced, r.pairs_copied), (200, 100));
    assert_eq!(h.collect(1).roots_traced, 0, "generation-2 referents");
    assert_eq!(h.collect(0).roots_retraced, 0, "always 0 stop-the-world");
    // Non-pointer roots are never due.
    let _n = h.root(Value::fixnum(5));
    assert_eq!(h.collect(3).roots_traced, 201);
    assert_eq!(h.collect(3).roots_traced, 200, "the fixnum slot is clean");
    for (i, r) in roots.iter().enumerate() {
        assert_eq!(h.car(r.get()), Value::fixnum(i as i64));
        assert_eq!(h.car(stack.get(i)), Value::fixnum(i as i64));
    }
    h.verify().unwrap();
}

#[test]
fn a_store_into_an_aged_root_is_traced_and_survives() {
    let mut h = Heap::default();
    let old = h.cons(Value::fixnum(1), Value::NIL);
    let r = h.root(old);
    let stack = h.root_vec();
    stack.push(old);
    h.collect(0);
    h.collect(1);
    assert_eq!(h.collect(0).roots_traced, 0);
    // The root write barrier: both stores must be found by the very next
    // generation-0 collection, or the fresh pairs die under their roots.
    let fresh = h.cons(Value::fixnum(2), Value::NIL);
    r.set(fresh);
    let fresh = h.cons(Value::fixnum(3), Value::NIL);
    stack.set(0, fresh);
    let report = h.collect(0).clone();
    assert_eq!((report.roots_traced, report.pairs_copied), (2, 2));
    h.verify().unwrap();
    assert_eq!(h.car(r.get()), Value::fixnum(2));
    assert_eq!(h.car(stack.get(0)), Value::fixnum(3));
    assert_eq!(h.generation_of(r.get()), Some(1));
}

#[test]
fn pop_then_push_into_a_stamped_position_is_traced() {
    let mut h = Heap::default();
    let stack = h.root_vec();
    for i in 0..20 {
        let p = h.cons(Value::fixnum(i), Value::NIL);
        stack.push(p);
    }
    h.collect(0);
    assert_eq!(h.collect(0).roots_traced, 0, "all twenty are stamped 1");
    // Positions 17..20 are re-filled with fresh pairs: their old stamps
    // must not outlive the pop.
    stack.truncate(18);
    stack.pop();
    for i in 17..20 {
        let p = h.cons(Value::fixnum(100 + i), Value::NIL);
        stack.push(p);
    }
    let report = h.collect(0).clone();
    assert_eq!((report.roots_traced, report.pairs_copied), (3, 3));
    h.verify().unwrap();
    for i in 0..20 {
        let want = if i < 17 { i } else { 100 + i };
        assert_eq!(h.car(stack.get(i as usize)), Value::fixnum(want));
    }
}

#[test]
fn stamps_are_exact_when_the_target_is_below_g_plus_one() {
    // Under a tenure cap or SameGeneration, collecting `0..=g` can land a
    // survivor below `g + 1`: the stamp must be the generation it lands
    // in, or the next collection of that generation would skip it.
    for (promotion, age, g, lands_in) in [
        (Promotion::Capped(1), &[0u8][..], 3u8, 1u8),
        (Promotion::Capped(2), &[0, 1], 3, 2),
        (Promotion::SameGeneration, &[0], 2, 2),
    ] {
        let mut h = Heap::new(GcConfig {
            promotion,
            ..GcConfig::new()
        });
        let p = h.cons(Value::fixnum(9), Value::NIL);
        let r = h.root(p);
        for &gen in age {
            h.collect(gen);
        }
        assert_eq!(h.collect(g).roots_traced, 1, "{promotion:?}");
        assert_eq!(h.generation_of(r.get()), Some(lands_in), "{promotion:?}");
        h.verify().unwrap();
        // The collection that can move it again must find it again.
        let addr = h.address_of(r.get());
        assert_eq!(h.collect(lands_in).roots_traced, 1, "{promotion:?}");
        assert_ne!(h.address_of(r.get()), addr, "{promotion:?}: moved again");
        assert_eq!(h.car(r.get()), Value::fixnum(9));
        h.verify().unwrap();
    }
}
