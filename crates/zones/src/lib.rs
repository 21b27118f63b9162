//! Multi-tenant heap zones over a shared segment pool.
//!
//! A *zone* ([`Zone`]) is one tenant's isolated world: its own
//! [`Heap`](guardians_gc::Heap) (generations, guardians, metrics, census),
//! its own simulated OS fd table and external arena — while every zone's
//! heap draws segment *capacity* from one shared
//! [`SegmentPool`](guardians_gc::SegmentPool). Scarcity is shared;
//! everything observable is not: a zone's request-level observables are
//! byte-identical whether its heap is private or pooled, whichever
//! collection schedule runs it, and whether it runs alone or among a fleet.
//!
//! Tenant sessions hold real external resources (an fd, an arena block).
//! Eviction just drops the session's root; the zone's guardian proves the
//! session dead at a later collection and only then does the zone close
//! the fd and free the block — the paper's program-controlled
//! finalization doing fleet resource reclamation.
//!
//! [`ZoneManager`] runs a fleet single-threaded; [`ZoneRouter`] is the
//! thread-per-core front end (zones pinned to workers, requests over
//! per-worker FIFO channels — heaps are `!Send` and never migrate).
//! [`fleet_stats_json`] rolls per-zone snapshots and pool accounting into
//! one JSON document; [`soak`] is the randomized create/dispatch/evict
//! campaign with a private-replay oracle, used by nightly CI.
//!
//! Lock order: the segment pool's mutex is a leaf — it is only taken
//! inside `SegmentPool` methods, which never call back into any heap or
//! table, so zone code may hold no lock while allocating and the
//! router's workers cannot deadlock through the pool.

#![warn(missing_docs)]

pub mod fleet;
pub mod manager;
pub mod router;
pub mod soak;
pub mod zone;

pub use fleet::{fleet_stats_json, FleetStats};
pub use manager::ZoneManager;
pub use router::{session_zone, ZoneRouter};
pub use zone::{
    schedule_label, Request, Session, WorkloadKind, Zone, ZoneConfig, ZoneObservables,
    ZoneSnapshot, SCHEDULES,
};
