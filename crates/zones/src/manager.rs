//! Single-threaded multi-tenant zone manager: creates zones over one
//! shared [`SegmentPool`], dispatches requests into them, and tears
//! zones down returning their segments to the pool.

use crate::zone::{Request, Zone, ZoneConfig, ZoneSnapshot};
use guardians_gc::{PoolStats, SegmentPool};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Owns a set of zones drawing segments from one shared pool.
///
/// Zone ids are dense-ish `u64`s chosen by the caller; iteration order is
/// ascending id (a `BTreeMap`), so every fleet-wide operation is
/// deterministic.
pub struct ZoneManager {
    pool: Arc<SegmentPool>,
    zones: BTreeMap<u64, Zone>,
}

impl ZoneManager {
    /// A manager over an unbounded shared pool.
    pub fn new() -> ZoneManager {
        ZoneManager::with_pool(SegmentPool::unbounded())
    }

    /// A manager over a pool capped at `segments` outstanding segments.
    pub fn with_capacity(segments: usize) -> ZoneManager {
        ZoneManager::with_pool(SegmentPool::with_capacity(segments))
    }

    /// A manager over an existing pool (shared with other managers or
    /// router workers).
    pub fn with_pool(pool: Arc<SegmentPool>) -> ZoneManager {
        ZoneManager {
            pool,
            zones: BTreeMap::new(),
        }
    }

    /// The shared pool.
    pub fn pool(&self) -> &Arc<SegmentPool> {
        &self.pool
    }

    /// Shared-pool accounting.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Creates a zone with `id` drawing on the shared pool.
    ///
    /// # Panics
    ///
    /// Panics if a zone with this id already exists.
    pub fn create_zone(&mut self, id: u64, config: &ZoneConfig) -> &mut Zone {
        assert!(!self.zones.contains_key(&id), "zone {id} already exists");
        let zone = Zone::with_pool(id, config, Arc::clone(&self.pool));
        self.zones.entry(id).or_insert(zone)
    }

    /// Number of live zones.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// Whether the manager has no zones.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// The zone with `id`, if live.
    pub fn zone(&self, id: u64) -> Option<&Zone> {
        self.zones.get(&id)
    }

    /// The zone with `id`, exclusive.
    pub fn zone_mut(&mut self, id: u64) -> Option<&mut Zone> {
        self.zones.get_mut(&id)
    }

    /// Live zone ids, ascending.
    pub fn zone_ids(&self) -> Vec<u64> {
        self.zones.keys().copied().collect()
    }

    /// Dispatches `req` into zone `id` (safe point included).
    ///
    /// # Panics
    ///
    /// Panics if the zone does not exist — routing to a dead zone is a
    /// harness bug, not a tenant condition.
    pub fn dispatch(&mut self, id: u64, req: Request) {
        self.zones
            .get_mut(&id)
            .unwrap_or_else(|| panic!("dispatch to nonexistent zone {id}"))
            .dispatch(req);
    }

    /// Quiesces every zone (ascending id order).
    pub fn quiesce(&mut self) {
        for zone in self.zones.values_mut() {
            zone.quiesce();
        }
    }

    /// Tears zone `id` down: quiesces it (reclaiming evicted-session
    /// resources through its guardian), snapshots it, then drops it — the
    /// drop returns every segment the zone's heap held to the shared pool.
    /// Returns the final snapshot, or `None` if no such zone.
    pub fn teardown_zone(&mut self, id: u64) -> Option<ZoneSnapshot> {
        let mut zone = self.zones.remove(&id)?;
        zone.quiesce();
        let snap = zone.snapshot();
        drop(zone);
        Some(snap)
    }

    /// Snapshots every live zone, ascending id order.
    pub fn snapshots(&mut self) -> Vec<ZoneSnapshot> {
        self.zones.values_mut().map(Zone::snapshot).collect()
    }
}

impl Default for ZoneManager {
    fn default() -> ZoneManager {
        ZoneManager::new()
    }
}

impl std::fmt::Debug for ZoneManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZoneManager")
            .field("zones", &self.zone_ids())
            .field("pool", &self.pool.stats())
            .finish()
    }
}
