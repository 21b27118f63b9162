#![doc = include_str!("../README.md")]
//!
//! ## Module map
//!
//! * [`handle`] — [`Gc`], [`Root`], [`GcRead`]: the lifetime discipline.
//! * [`trace`] — [`Trace`]/[`Field`] lowering and the [`impl_trace!`]
//!   derive-style macro.
//! * [`heap`] — [`GcHeap`], the one front door: every typed operation is
//!   one of its methods.
//! * [`ctx`] — [`ApiCtx`], internal state a `GcHeap` keeps beside its heap
//!   (the root-table handle and the descriptor table); public only because
//!   [`Trace`]/[`Field`] signatures name it.
//! * [`weak`] — [`Weak`] typed weak references.
//! * [`guardian`] — [`Guardian`] typed finalization queues and the
//!   `Send`-bounded [`OffThreadDrain`].
//!
//! All accessors route through the raw layer's public record accessors,
//! which apply `resolve_read` (forwarded-on-read during incremental
//! cycles) and the write barrier — the typed API is schedule-agnostic by
//! construction.

pub mod ctx;
pub mod guardian;
pub mod handle;
pub mod heap;
pub mod trace;
pub mod weak;

pub use ctx::ApiCtx;
pub use guardian::{Guardian, OffThreadDrain};
pub use handle::{Gc, GcRead, Root};
pub use heap::GcHeap;
pub use trace::{Field, Trace};
pub use weak::Weak;

// Raw-layer re-exports used by `impl_trace!` expansions and embeddings.
pub use guardians_gc::{GcConfig, GcError, Heap as RawHeap, Promotion, Value};

#[cfg(test)]
mod tests {
    use super::*;

    impl_trace! {
        #[derive(Debug, PartialEq, Clone)]
        pub struct Point {
            pub x: i64,
            pub y: i64,
            pub label: String,
        }
    }

    impl_trace! {
        pub struct Node {
            pub id: i64,
            pub next: Option<Root<Node>>,
        }
    }

    #[test]
    fn alloc_load_round_trip() {
        let mut h = GcHeap::default();
        let p = Point {
            x: 3,
            y: -4,
            label: "origin-ish".into(),
        };
        let r = h.alloc(&p);
        assert_eq!(h.load(&r), p);
        assert_eq!(h.read(&r).x, 3);
        assert_eq!(h.field::<Point, String>(&r, 2), "origin-ish");
    }

    #[test]
    fn roots_survive_collection_and_track_relocation() {
        let mut h = GcHeap::default();
        let r = h.alloc(&Point {
            x: 1,
            y: 2,
            label: "keep".into(),
        });
        let before = r.value();
        h.collect(0);
        // The object was copied; the root followed it.
        assert_ne!(r.value(), before);
        assert_eq!(h.read(&r).label, "keep");
    }

    #[test]
    fn dropped_roots_let_objects_die() {
        let mut h = GcHeap::default();
        let live = h.alloc(&Point {
            x: 1,
            y: 1,
            label: "live".into(),
        });
        let dead = h.alloc(&Point {
            x: 2,
            y: 2,
            label: "dead".into(),
        });
        let w = h.downgrade(&dead);
        drop(dead);
        h.collect(0);
        assert!(h.upgrade(&w).is_none());
        assert!(w.is_broken());
        assert_eq!(h.read(&live).x, 1);
    }

    #[test]
    fn linked_nodes_keep_each_other_alive_through_edges() {
        let mut h = GcHeap::default();
        let tail = h.alloc(&Node { id: 2, next: None });
        let head = h.alloc(&Node {
            id: 1,
            next: Some(tail),
        });
        // Only the head is rooted now (`tail` was moved into the struct
        // we lowered, whose edge re-rooted it — drop the mirror).
        h.collect(0);
        let got = h.read(&head);
        let tail_again = got.next.as_ref().expect("edge survived");
        assert_eq!(h.read(tail_again).id, 2);
    }

    #[test]
    fn edge_fields_reroot_on_lift() {
        let mut h = GcHeap::default();
        let tail = h.alloc(&Node { id: 7, next: None });
        let head = h.alloc(&Node {
            id: 6,
            next: Some(tail),
        });
        let lifted = h.load(&head);
        drop(head);
        // `lifted.next` is an owning root: the tail survives even though
        // the head (its only in-heap referrer) is garbage.
        h.collect(0);
        let tail_root = lifted.next.expect("rerooted");
        assert_eq!(h.read(&tail_root).id, 7);
    }

    #[test]
    fn gc_reborrow_and_promotion() {
        let mut h = GcHeap::default();
        let r = h.alloc(&Point {
            x: 9,
            y: 9,
            label: "p".into(),
        });
        let gc = h.get(&r);
        let r2 = h.root(gc);
        assert!(gc.ptr_eq(h.get(&r2)));
        drop(r);
        h.collect(0);
        assert_eq!(h.read(&r2).x, 9);
    }

    fn origin() -> Point {
        Point {
            x: 0,
            y: 0,
            label: String::new(),
        }
    }

    #[test]
    fn slot_reuse_keeps_the_root_table_compact() {
        let mut h = GcHeap::default();
        // The first allocation roots `Point`'s descriptor symbol for good.
        drop(h.alloc(&origin()));
        let baseline = h.ctx().live_roots();
        for _ in 0..64 {
            drop(h.alloc(&origin()));
        }
        assert_eq!(h.ctx().live_roots(), baseline);
    }

    #[test]
    fn a_cloned_root_shares_its_slot() {
        let mut h = GcHeap::default();
        drop(h.alloc(&origin()));
        let baseline = h.ctx().live_roots();
        let a = h.alloc(&Point {
            x: 3,
            y: 4,
            label: "shared".into(),
        });
        assert_eq!(h.ctx().live_roots(), baseline + 1);
        let b = a.clone();
        assert_eq!(h.ctx().live_roots(), baseline + 1, "a clone claims nothing");
        // Either handle alone keeps the referent and reads its new address.
        drop(b);
        h.collect(0);
        assert_eq!(h.read(&a).label, "shared");
        let b = a.clone();
        drop(a);
        h.collect(1);
        assert_eq!(h.read(&b).x, 3);
        assert_eq!(h.ctx().live_roots(), baseline + 1);
        drop(b);
        assert_eq!(h.ctx().live_roots(), baseline);
    }

    #[test]
    fn guardian_poll_returns_rooted_objects_once_per_registration() {
        let mut h = GcHeap::default();
        let g: Guardian<Point> = h.guardian();
        let r = h.alloc(&Point {
            x: 5,
            y: 5,
            label: "res".into(),
        });
        h.guard(&g, &r);
        h.guard(&g, &r);
        drop(r);
        assert!(h.poll(&g).is_none());
        h.collect(0);
        let first = h.poll(&g).expect("registered twice");
        let second = h.poll(&g).expect("registered twice");
        assert_eq!(h.read(&first).x, 5);
        assert_eq!(first.value(), second.value());
        assert!(h.poll(&g).is_none());
    }

    #[test]
    fn off_thread_drain_is_send() {
        let mut h = GcHeap::default();
        let g: Guardian<Point> = h.guardian();
        let r = h.alloc(&Point {
            x: 8,
            y: 8,
            label: "ship".into(),
        });
        h.guard(&g, &r);
        drop(r);
        h.collect(0);
        let drain = h.drain_off_thread(&g);
        fn assert_send<S: Send>(s: S) -> S {
            s
        }
        let items: Vec<Point> = assert_send(drain).collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].label, "ship");
    }

    #[test]
    fn typed_and_raw_layers_interoperate() {
        let mut h = GcHeap::default();
        let r = h.alloc(&Point {
            x: 4,
            y: 2,
            label: "raw".into(),
        });
        // Raw layer reads the same record through the tagged accessors.
        let v = r.value();
        assert!(h.raw().is_record(v));
        assert_eq!(h.raw().record_ref(v, 0), Value::fixnum(4));
        // And a raw value adopts back into the typed layer.
        let again: Root<Point> = h.adopt(v);
        assert_eq!(h.read(&again).y, 2);
    }

    #[test]
    #[should_panic(expected = "descriptor mismatch")]
    fn adopting_the_wrong_type_panics() {
        let mut h = GcHeap::default();
        let r = h.alloc(&Point {
            x: 0,
            y: 0,
            label: String::new(),
        });
        let v = r.value();
        let _: Root<Node> = h.adopt(v);
    }

    mod a {
        crate::impl_trace! {
            pub struct Node {
                pub x: i64,
            }
        }
    }

    mod b {
        crate::impl_trace! {
            pub struct Node {
                pub flag: bool,
                pub y: i64,
            }
        }
    }

    #[test]
    #[should_panic(expected = "typed-layer descriptor mismatch")]
    fn same_named_types_in_different_modules_are_different_layouts() {
        let mut h = GcHeap::default();
        let r = h.alloc(&a::Node { x: 41 });
        let v = r.value();
        let _: Root<b::Node> = h.adopt(v);
    }

    #[test]
    fn works_under_all_three_engines() {
        // Both schedules (the name predates the worker engine's removal).
        let budgeted = GcConfig {
            pause_budget: Some(std::time::Duration::from_micros(100)),
            ..GcConfig::new()
        };
        for cfg in [GcConfig::new(), budgeted] {
            let mut h = GcHeap::new(cfg);
            let g: Guardian<Node> = h.guardian();
            let mut chain = h.alloc(&Node { id: 0, next: None });
            for id in 1..50 {
                chain = h.alloc(&Node {
                    id,
                    next: Some(chain),
                });
            }
            let doomed = h.alloc(&Node {
                id: 999,
                next: None,
            });
            h.guard(&g, &doomed);
            let w = h.downgrade(&doomed);
            drop(doomed);
            h.collect(0);
            // A budgeted heap may leave the cycle mid-flight from a
            // `maybe_collect`; `collect` runs to completion regardless.
            let saved = h.poll(&g).expect("doomed node saved by guardian");
            assert_eq!(h.read(&saved).id, 999);
            // Paper ordering: the weak still upgrades (guardian pass
            // precedes the weak break).
            assert!(h.upgrade(&w).is_some());
            // The 50-node chain is fully reachable from one root.
            let mut n = h.load(&chain);
            let mut count = 1;
            while let Some(next) = n.next {
                n = h.load(&next);
                count += 1;
            }
            assert_eq!(count, 50);
        }
    }
}
