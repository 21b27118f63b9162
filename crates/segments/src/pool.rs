//! A shared free-segment pool: the capacity source multiple
//! [`SegmentTable`](crate::SegmentTable)s (and therefore multiple heaps)
//! draw from when they coexist in one process.
//!
//! The multi-tenant zone layer gives every tenant an isolated heap but
//! wants fleet-level capacity management: one budget of segments, drawn
//! on demand, given back after every collection and returned in full when
//! a zone is torn down. The pool is that budget. It hands out raw
//! [`Segment`] storage (zeroed, exactly as `Segment::new()` would be),
//! recycles returned storage, and enforces an optional capacity cap on
//! *outstanding* segments — storage is created lazily, so an idle pool
//! with a large cap costs nothing.
//!
//! A table that shares the pool with another gives its free segments'
//! storage back once per collection, in one [`SegmentPool::release_all`],
//! so the pool's peak is the peak of the fleet's sum, not the sum of each
//! tenant's own peak. A table alone on the pool keeps its free storage:
//! it draws on the pool only to grow, and returns everything on drop.
//!
//! Lock order: the pool's internal mutex is a leaf lock. It is taken only
//! inside [`SegmentPool`] methods, which never call back into a table or
//! heap, so any caller may hold heap-side state while acquiring or
//! releasing. Tables cache nothing about the pool between calls; the
//! mutex is the single source of truth for capacity accounting.

use crate::seg::Segment;
use std::sync::{Arc, Mutex};

/// Accounting snapshot of a pool, for fleet dashboards and tests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Maximum outstanding segments, or `None` for an unbounded pool.
    pub capacity: Option<usize>,
    /// Segments currently checked out to tables.
    pub outstanding: usize,
    /// Returned segments held for reuse.
    pub free: usize,
    /// High-water mark of `outstanding`.
    pub peak_outstanding: usize,
    /// Total acquisitions served.
    pub acquires: u64,
    /// Total segments returned.
    pub releases: u64,
    /// Tables currently attached to the pool.
    pub attached_tables: usize,
}

#[derive(Default)]
struct PoolInner {
    free: Vec<Segment>,
    capacity: Option<usize>,
    outstanding: usize,
    peak_outstanding: usize,
    acquires: u64,
    releases: u64,
    attached_tables: usize,
}

/// A shared, thread-safe pool of segment storage.
///
/// `Segment` is `Send` raw storage behind the pool's mutex, so the pool is
/// safely shared across the router's worker threads; each worker's heaps
/// draw from and return to the same budget.
pub struct SegmentPool {
    inner: Mutex<PoolInner>,
}

impl SegmentPool {
    /// A pool with no capacity cap: acquisitions always succeed (fresh
    /// storage is created on demand), but teardown accounting and reuse
    /// still apply.
    pub fn unbounded() -> Arc<SegmentPool> {
        Arc::new(SegmentPool {
            inner: Mutex::new(PoolInner::default()),
        })
    }

    /// A pool capped at `capacity` outstanding segments. Storage is
    /// created lazily up to the cap.
    pub fn with_capacity(capacity: usize) -> Arc<SegmentPool> {
        Arc::new(SegmentPool {
            inner: Mutex::new(PoolInner {
                capacity: Some(capacity),
                ..PoolInner::default()
            }),
        })
    }

    /// Acquires one segment of zeroed storage, or `None` if the pool is
    /// at capacity. Recycled storage is re-zeroed here, so an acquired
    /// segment is indistinguishable from `Segment::new()`.
    pub fn try_acquire(&self) -> Option<Segment> {
        let mut inner = self.inner.lock().expect("segment pool poisoned");
        if let Some(cap) = inner.capacity {
            if inner.outstanding >= cap {
                return None;
            }
        }
        let seg = match inner.free.pop() {
            Some(mut seg) => {
                seg.fill(0);
                seg
            }
            None => Segment::new(),
        };
        inner.outstanding += 1;
        inner.peak_outstanding = inner.peak_outstanding.max(inner.outstanding);
        inner.acquires += 1;
        Some(seg)
    }

    /// Returns one segment's storage to the pool.
    pub fn release(&self, seg: Segment) {
        self.release_all(std::iter::once(seg));
    }

    /// Returns a batch of segments (a table tearing down) to the pool.
    ///
    /// # Panics
    ///
    /// Panics if more segments are returned than are outstanding — a
    /// double-release, which would corrupt capacity accounting.
    pub fn release_all(&self, segs: impl IntoIterator<Item = Segment>) {
        let mut inner = self.inner.lock().expect("segment pool poisoned");
        for seg in segs {
            assert!(
                inner.outstanding > 0,
                "segment released to a pool with none outstanding"
            );
            inner.outstanding -= 1;
            inner.releases += 1;
            inner.free.push(seg);
        }
    }

    /// Segments still acquirable before the cap: `u64::MAX` when
    /// unbounded. This is the headroom heaps fold into their
    /// `try_*`-preflight budget.
    pub fn remaining(&self) -> u64 {
        let inner = self.inner.lock().expect("segment pool poisoned");
        match inner.capacity {
            None => u64::MAX,
            Some(cap) => (cap - inner.outstanding) as u64,
        }
    }

    /// Segments currently checked out.
    pub fn outstanding(&self) -> usize {
        self.inner
            .lock()
            .expect("segment pool poisoned")
            .outstanding
    }

    /// Tables currently attached (created with this pool and not yet
    /// dropped) — the teardown tests' "no lingering owners" check.
    pub fn attached_tables(&self) -> usize {
        self.inner
            .lock()
            .expect("segment pool poisoned")
            .attached_tables
    }

    /// Full accounting snapshot.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock().expect("segment pool poisoned");
        PoolStats {
            capacity: inner.capacity,
            outstanding: inner.outstanding,
            free: inner.free.len(),
            peak_outstanding: inner.peak_outstanding,
            acquires: inner.acquires,
            releases: inner.releases,
            attached_tables: inner.attached_tables,
        }
    }

    pub(crate) fn attach(&self) {
        self.inner
            .lock()
            .expect("segment pool poisoned")
            .attached_tables += 1;
    }

    pub(crate) fn detach(&self) {
        let mut inner = self.inner.lock().expect("segment pool poisoned");
        assert!(inner.attached_tables > 0, "detach without attach");
        inner.attached_tables -= 1;
    }
}

impl std::fmt::Debug for SegmentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SegmentPool")
            .field("capacity", &s.capacity)
            .field("outstanding", &s.outstanding)
            .field("free", &s.free)
            .field("attached_tables", &s.attached_tables)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_always_acquires() {
        let p = SegmentPool::unbounded();
        assert_eq!(p.remaining(), u64::MAX);
        let a = p.try_acquire().expect("unbounded");
        let b = p.try_acquire().expect("unbounded");
        assert_eq!(p.outstanding(), 2);
        p.release(a);
        p.release(b);
        assert_eq!(p.outstanding(), 0);
        assert_eq!(p.stats().free, 2);
    }

    #[test]
    fn capacity_caps_outstanding_not_total_traffic() {
        let p = SegmentPool::with_capacity(2);
        let a = p.try_acquire().expect("1 of 2");
        let _b = p.try_acquire().expect("2 of 2");
        assert!(p.try_acquire().is_none(), "at capacity");
        assert_eq!(p.remaining(), 0);
        p.release(a);
        assert_eq!(p.remaining(), 1);
        assert!(p.try_acquire().is_some(), "freed capacity is reusable");
    }

    #[test]
    fn recycled_storage_is_rezeroed() {
        let p = SegmentPool::unbounded();
        let mut seg = p.try_acquire().expect("acquire");
        seg.fill(0xDEAD);
        p.release(seg);
        let seg = p.try_acquire().expect("reacquire");
        assert!(seg.words().iter().all(|&w| w == 0));
        p.release(seg);
    }

    #[test]
    fn peak_and_traffic_counters_track() {
        let p = SegmentPool::with_capacity(8);
        let segs: Vec<Segment> = (0..3)
            .map(|_| p.try_acquire().expect("under cap"))
            .collect();
        p.release_all(segs);
        let s = p.stats();
        assert_eq!(s.peak_outstanding, 3);
        assert_eq!(s.acquires, 3);
        assert_eq!(s.releases, 3);
        assert_eq!(s.outstanding, 0);
    }

    #[test]
    fn attached_tables_counts_the_live_tables() {
        let p = SegmentPool::unbounded();
        let a = crate::SegmentTable::with_pool(p.clone(), None);
        let b = crate::SegmentTable::with_pool(p.clone(), None);
        assert_eq!(p.attached_tables(), 2);
        drop(a);
        assert_eq!(p.attached_tables(), 1);
        drop(b);
        assert_eq!(p.stats().attached_tables, 0);
    }

    #[test]
    #[should_panic(expected = "none outstanding")]
    fn over_release_panics() {
        let p = SegmentPool::unbounded();
        p.release(Segment::new());
    }
}
