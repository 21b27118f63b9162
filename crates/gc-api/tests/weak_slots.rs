//! A typed `Weak<T>` is a weak slot of the heap's root table, settled in
//! phase 6 after the guardian pass: these tests pin the paper's ordering,
//! the generation stamp's filter and the between-increments rule. Each
//! fails if the weak-slot pass does nothing.

use guardians_gc_api::{impl_trace, GcConfig, GcHeap, Guardian, Root};
use std::time::Duration;

impl_trace! {
    pub struct Node {
        pub id: i64,
        pub next: Option<Root<Node>>,
    }
}

/// §4's ordering: the weak pass runs after the guardian pass, so a weak
/// reference to an object a guardian saves upgrades to the saved copy.
/// Once the poller lets go of it, the next collection of its generation
/// breaks the reference.
#[test]
fn a_weak_to_a_guardian_saved_object_upgrades_to_the_copy() {
    let mut h = GcHeap::default();
    let g: Guardian<Node> = h.guardian();
    let doomed = h.alloc(&Node { id: 7, next: None });
    h.guard(&g, &doomed);
    let w = h.downgrade(&doomed);
    let before = doomed.value();
    drop(doomed);
    let report = h.collect(0);
    assert_eq!(report.guardian_entries_finalized, 1);
    assert_eq!((report.weak_roots_traced, report.weak_roots_broken), (1, 0));
    let saved = h.poll(&g).expect("the guardian saved the node");
    let up = h
        .upgrade(&w)
        .expect("saved before the weak pass ran")
        .value();
    assert_ne!(up, before, "the node was copied");
    assert_eq!(up, saved.value(), "the weak reads the saved copy");
    assert_eq!(h.read(&saved).id, 7);
    assert!(!w.is_broken());
    // The copy sits in generation 1, which a generation-1 collection
    // collects.
    drop(saved);
    let report = h.collect(1);
    assert_eq!((report.weak_roots_traced, report.weak_roots_broken), (1, 1));
    assert!(h.upgrade(&w).is_none());
    assert!(w.is_broken());
    h.raw().verify().expect("valid heap");
}

/// The weak slot's stamp is the root table's: once the referent sits in
/// generation 2, younger collections do not visit the slot, and a
/// generation-2 collection does.
#[test]
fn a_weak_to_an_old_object_is_visited_only_when_its_generation_is() {
    let mut h = GcHeap::default();
    let r = h.alloc(&Node { id: 1, next: None });
    h.collect(0);
    h.collect(1);
    assert_eq!(h.raw().generation_of(r.value()), Some(2));
    let w = h.downgrade(&r);
    // A fresh slot is stamped 0: the next collection visits it once and
    // stamps it with its referent's generation.
    assert_eq!(h.collect(0).weak_roots_traced, 1);
    assert_eq!(h.collect(0).weak_roots_traced, 0);
    assert_eq!(h.collect(1).weak_roots_traced, 0);
    let report = h.collect(2);
    assert_eq!((report.weak_roots_traced, report.weak_roots_broken), (1, 0));
    assert_eq!(h.raw().generation_of(r.value()), Some(3));
    let up = h.upgrade(&w).expect("the referent is rooted").value();
    assert_eq!(up, r.value(), "the slot followed the referent");
    assert_eq!(h.collect(2).weak_roots_traced, 0, "generation 3 now");
    h.raw().verify().expect("valid heap");
}

/// Under `pause_budget`, a weak made between increments may point at an
/// unforwarded from-space object. It reads the copy once the object is
/// copied, before the collection ends, and breaks at the terminal
/// increment if the object dies.
#[test]
fn a_weak_made_between_increments_follows_the_copy_or_breaks_at_the_end() {
    let mut h = GcHeap::new(GcConfig {
        pause_budget: Some(Duration::ZERO),
        ..GcConfig::new()
    });
    // A chain long enough that one sweep unit cannot copy it all: the
    // head is rooted, the rest is reachable only through `next`.
    let mut head = h.alloc(&Node { id: 0, next: None });
    for id in 1..3000 {
        head = h.alloc(&Node {
            id,
            next: Some(head),
        });
    }
    h.raw_mut().begin_incremental(0);
    assert!(h.gc_step().is_none(), "one unit does not copy the chain");
    // Walk to the far end: the second-to-last node and the last one.
    let mut at = head.clone();
    for _ in 0..2998 {
        at = h
            .field::<Node, Option<Root<Node>>>(&at, 1)
            .expect("chained");
    }
    let last = h
        .field::<Node, Option<Root<Node>>>(&at, 1)
        .expect("chained");
    assert_eq!((h.read(&at).id, h.read(&last).id), (1, 0));
    let (at_before, w_at, w_last) = (at.value(), h.downgrade(&at), h.downgrade(&last));
    assert_eq!(h.upgrade(&w_at).expect("alive").value(), at_before);
    // Cut the last node off; only the weak watches it now.
    h.set_field(&at, 1, &None::<Root<Node>>);
    drop(last);
    assert!(h.gc_step().is_none(), "still suspended");
    // The roots phase of that increment copied `at`; its weak slot still
    // holds the from-space address and reads the copy through it.
    assert_ne!(at.value(), at_before, "the node was copied");
    let up = h.upgrade(&w_at).expect("alive").value();
    assert_eq!(up, at.value(), "the weak reads the copy between increments");
    assert!(!w_last.is_broken(), "nothing is broken before the end");
    h.raw().verify().expect("valid mid-cycle");
    let report = loop {
        if let Some(r) = h.gc_step() {
            break r.clone();
        }
    };
    assert_eq!((report.weak_roots_traced, report.weak_roots_broken), (2, 1));
    assert!(w_last.is_broken(), "the cut node died");
    assert_eq!(h.upgrade(&w_at).expect("alive").value(), at.value());
    assert_eq!(h.read(&at).id, 1);
    h.raw().verify().expect("valid heap");
}

/// A typed root claimed between increments holds the object's current
/// address. A field of a not-yet-scanned node may still hold the
/// from-space address of an object the collector has already copied;
/// rooting that field roots the copy, the address every other root of the
/// object reads.
#[test]
fn a_root_claimed_between_increments_holds_the_copy() {
    let mut h = GcHeap::new(GcConfig {
        pause_budget: Some(Duration::ZERO),
        ..GcConfig::new()
    });
    let mut head = h.alloc(&Node { id: 0, next: None });
    let mut mid = None;
    for id in 1..3000 {
        head = h.alloc(&Node {
            id,
            next: Some(head),
        });
        if id == 1500 {
            mid = Some(head.clone());
        }
    }
    let mid = mid.expect("node 1500 is rooted");
    h.raw_mut().begin_incremental(0);
    assert!(h.gc_step().is_none(), "one unit does not copy the chain");
    // The roots phase copied node 1500. Node 1501 is reachable only along
    // the chain, so its `next` field still holds 1500's from-space address.
    let mut at = head.clone();
    for _ in 1501..2999 {
        at = h
            .field::<Node, Option<Root<Node>>>(&at, 1)
            .expect("chained");
    }
    assert_eq!(h.field::<Node, i64>(&at, 0), 1501);
    let next = h
        .field::<Node, Option<Root<Node>>>(&at, 1)
        .expect("chained");
    assert!(h.raw().eqv(next.value(), mid.value()));
    assert!(
        h.get(&next).ptr_eq(h.get(&mid)),
        "the claimed root reads {:?}, the other root {:?}",
        next.value(),
        mid.value()
    );
    h.raw().verify().expect("valid mid-cycle");
    while h.gc_step().is_none() {}
    assert_eq!(next.value(), mid.value());
    assert_eq!(h.read(&next).id, 1500);
    h.raw().verify().expect("valid heap");
}
