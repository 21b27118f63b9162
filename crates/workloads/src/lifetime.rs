//! A generational-hypothesis mutator: most objects die young, some
//! survive to middle age, a few live (nearly) forever. Used to
//! characterise the whole collector (experiment E11) and as background
//! load in other experiments.

use crate::keys::KeyGen;
use guardians_gc::{Heap, Rooted, Value};

/// Parameters for the lifetime workload.
#[derive(Clone, Debug)]
pub struct LifetimeParams {
    /// Objects to allocate.
    pub allocations: usize,
    /// Fraction that survives infancy (roots held for a while).
    pub survivor_fraction: f64,
    /// Fraction of survivors that become effectively permanent.
    pub long_lived_fraction: f64,
    /// Number of root slots for the temporary-survivor window.
    pub window: usize,
    /// Payload size: list length per allocation unit.
    pub list_len: usize,
    /// Call `maybe_collect` every this many allocations.
    pub safe_point_every: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LifetimeParams {
    fn default() -> Self {
        LifetimeParams {
            allocations: 20_000,
            survivor_fraction: 0.1,
            long_lived_fraction: 0.05,
            window: 256,
            list_len: 4,
            safe_point_every: 64,
            seed: 0x11FE,
        }
    }
}

/// What the workload observed.
#[derive(Clone, Debug, Default)]
pub struct LifetimeStats {
    /// Collections that ran.
    pub collections: u64,
    /// Total words copied by those collections.
    pub words_copied: u64,
    /// Permanent objects retained at the end.
    pub permanent: usize,
}

/// Runs the workload on `heap`, driving `maybe_collect` at safe points.
/// Returns observed statistics; the permanent roots are dropped on exit.
pub fn run_lifetime_workload(heap: &mut Heap, params: &LifetimeParams) -> LifetimeStats {
    let mut gen = KeyGen::new(params.seed, 0.0);
    let mut window: Vec<Option<Rooted>> = (0..params.window).map(|_| None).collect();
    let mut permanent: Vec<Rooted> = Vec::new();
    let mut stats = LifetimeStats::default();
    let start_collections = heap.collection_count();

    for i in 0..params.allocations {
        // Build a small list payload.
        let mut list = Value::NIL;
        for k in 0..params.list_len {
            list = heap.cons(Value::fixnum((i * 31 + k) as i64), list);
        }
        if gen.flip(params.survivor_fraction) {
            if gen.flip(params.long_lived_fraction) {
                permanent.push(heap.root(list));
            } else {
                // Occupy a window slot, evicting (killing) its tenant.
                let slot = gen.uniform(window.len().max(1));
                window[slot] = Some(heap.root(list));
            }
        }
        if params.safe_point_every > 0 && i % params.safe_point_every == 0 {
            heap.maybe_collect();
        }
    }
    stats.collections = heap.collection_count() - start_collections;
    stats.words_copied = heap.stats().total_words_copied;
    stats.permanent = permanent.len();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardians_gc::GcConfig;

    #[test]
    fn workload_drives_collections_and_stays_valid() {
        let mut heap = Heap::new(GcConfig {
            trigger_bytes: 64 * 1024,
            ..GcConfig::new()
        });
        let params = LifetimeParams {
            allocations: 5_000,
            ..LifetimeParams::default()
        };
        let stats = run_lifetime_workload(&mut heap, &params);
        assert!(stats.collections > 0, "the trigger fired");
        assert!(stats.words_copied > 0, "survivors were copied");
        heap.verify().expect("heap valid after the workload");
    }

    #[test]
    fn workload_is_deterministic_in_allocation_counts() {
        let run = || {
            let mut heap = Heap::new(GcConfig {
                trigger_bytes: 64 * 1024,
                ..GcConfig::new()
            });
            let params = LifetimeParams {
                allocations: 3_000,
                ..LifetimeParams::default()
            };
            run_lifetime_workload(&mut heap, &params);
            (heap.stats().pairs_allocated, heap.collection_count())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn higher_survival_copies_more() {
        let run = |survivor_fraction: f64| {
            let mut heap = Heap::new(GcConfig {
                trigger_bytes: 64 * 1024,
                ..GcConfig::new()
            });
            let params = LifetimeParams {
                allocations: 5_000,
                survivor_fraction,
                ..LifetimeParams::default()
            };
            run_lifetime_workload(&mut heap, &params).words_copied
        };
        assert!(run(0.5) > run(0.01) * 2, "survival drives copying cost");
    }
}
