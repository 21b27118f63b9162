//! Collector configuration.
//!
//! The paper notes that "the number of generations and the promotion and
//! tenure strategies supported by the collector are under programmer
//! control", then assumes a simple fixed policy for exposition. This
//! configuration captures the same knobs — generation count, collection
//! frequency per generation, the allocation trigger, the promotion
//! strategy — plus the one that picks a collection's schedule,
//! `pause_budget`. Nothing here switches a mechanism of the paper off:
//! the per-generation protected lists and the weak-pass-after-guardians
//! order are the collector, not options of it.

use guardians_segments::SEGMENT_BYTES;
use std::time::Duration;

/// Promotion strategy: where survivors of a collection go. The paper
/// notes that "the number of generations and the promotion and tenure
/// strategies supported by the collector are under programmer control",
/// then assumes the simple advance-by-one policy for exposition.
///
/// Every strategy here promotes all survivors of one collection
/// *uniformly*, which preserves the invariant the remembered set relies
/// on: an old-to-young pointer can only be created by mutation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Promotion {
    /// The paper's policy: survivors of collecting generation `g` move to
    /// `min(g + 1, max_generation)`.
    NextGeneration,
    /// Advance by one but never beyond `cap`: a tenure ceiling below the
    /// oldest generation, keeping long-lived data where it is still
    /// collected reasonably often.
    Capped(u8),
    /// Survivors stay in the generation collected (`max(g, 1)` so fresh
    /// data still leaves the nursery): a two-speed heap.
    SameGeneration,
}

impl Promotion {
    /// The target generation for a collection of `0..=g`.
    pub fn target(self, g: u8, max_generation: u8) -> u8 {
        match self {
            Promotion::NextGeneration => (g + 1).min(max_generation),
            Promotion::Capped(cap) => (g + 1).min(cap).min(max_generation),
            Promotion::SameGeneration => g.max(1).min(max_generation),
        }
    }
}

/// Configuration for a [`Heap`](crate::Heap).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcConfig {
    /// Number of generations (`1..=254`). Generation `0` is youngest; objects
    /// surviving a collection of generation `g` are placed in generation
    /// `min(g + 1, generations - 1)` (the paper's promotion strategy).
    pub generations: u8,
    /// `frequency[i]` controls how often generation `i` is collected by
    /// [`Heap::maybe_collect`](crate::Heap::maybe_collect): collection
    /// number `c` (counting from 1) collects the highest generation whose
    /// frequency divides `c`. `frequency[0]` should be 1. Missing entries
    /// default to 4× the previous one ("the older the generation, the less
    /// frequently it is collected").
    pub frequency: Vec<u64>,
    /// `maybe_collect` triggers once this many bytes have been allocated
    /// since the previous collection.
    pub trigger_bytes: usize,
    /// Where survivors are promoted (see [`Promotion`]).
    pub promotion: Promotion,
    /// Inert, read by nothing: the benchmark-only PR deletes it together with
    /// `resident_cache_par2`, `par_speedup` and `worker_time_s`.
    pub workers: usize,
    /// Bounded-pause ("incremental") collection. `None` (the default)
    /// keeps every collection a single stop-the-world pause. `Some(b)`
    /// is every increment's deadline: a collection is split into
    /// *increments*, each yielding back to the mutator once `b` of
    /// wall-clock work has been done (always completing at least one work
    /// unit, so `Duration::ZERO` gives the finest possible slicing).
    /// Between increments the mutator runs against a forwarded-on-read
    /// invariant and a write barrier that logs every store of a from-space
    /// pointer, and every store into a from-space object, for the next
    /// increment to settle slot by slot; the guardian and
    /// weak passes stay atomic inside the final increment, so
    /// guardian/weak observables are identical to a stop-the-world
    /// collection's.
    pub pause_budget: Option<Duration>,
}

impl GcConfig {
    /// The default configuration: 4 generations, frequencies 1/4/16/64,
    /// 1 MB allocation trigger, the paper's promotion, stop-the-world.
    pub fn new() -> GcConfig {
        GcConfig {
            generations: 4,
            frequency: vec![1, 4, 16, 64],
            trigger_bytes: 256 * SEGMENT_BYTES,
            promotion: Promotion::NextGeneration,
            workers: 1,
            pause_budget: None,
        }
    }

    /// A configuration with `n` generations and default frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_generations(n: u8) -> GcConfig {
        assert!(n >= 1, "at least one generation is required");
        GcConfig {
            generations: n,
            ..GcConfig::new()
        }
    }

    /// The oldest generation number.
    pub fn max_generation(&self) -> u8 {
        self.generations - 1
    }

    /// The frequency for generation `g`, applying the 4× default rule for
    /// generations beyond the explicit `frequency` list.
    pub fn frequency_of(&self, g: u8) -> u64 {
        let g = g as usize;
        if let Some(&f) = self.frequency.get(g) {
            return f.max(1);
        }
        let last = self.frequency.last().copied().unwrap_or(1).max(1);
        let extra = (g + 1).saturating_sub(self.frequency.len().max(1)) as u32;
        last.saturating_mul(4u64.saturating_pow(extra))
    }

    /// The generation `maybe_collect` would pick for collection number `c`
    /// (1-based): the highest generation whose frequency divides `c`.
    pub fn generation_for_collection(&self, c: u64) -> u8 {
        let mut pick = 0;
        for g in 0..self.generations {
            if c.is_multiple_of(self.frequency_of(g)) {
                pick = g;
            }
        }
        pick
    }

    /// The frequency ladder materialized for every generation, with the
    /// missing-entry defaulting rule ("4× the previous one") and the
    /// zero-means-one rule applied. This is the ladder `maybe_collect`
    /// actually runs, and the form benchmark tables report.
    pub fn effective_frequency(&self) -> Vec<u64> {
        (0..self.generations)
            .map(|g| self.frequency_of(g))
            .collect()
    }

    /// A compact, deterministic JSON rendering of the policy-relevant
    /// knobs (generation count, *effective* frequency ladder, trigger,
    /// promotion), used by benchmark tables and experiment notes so the
    /// configuration is visible wherever results are reported.
    pub fn to_json(&self) -> String {
        let ladder = self
            .effective_frequency()
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let promotion = match self.promotion {
            Promotion::NextGeneration => "next".to_string(),
            Promotion::Capped(c) => format!("cap{c}"),
            Promotion::SameGeneration => "same".to_string(),
        };
        format!(
            "{{\"generations\":{},\"frequency\":[{}],\"trigger_bytes\":{},\"promotion\":\"{}\"}}",
            self.generations, ladder, self.trigger_bytes, promotion
        )
    }
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_collects_young_most_often() {
        let c = GcConfig::new();
        assert_eq!(c.generation_for_collection(1), 0);
        assert_eq!(c.generation_for_collection(4), 1);
        assert_eq!(c.generation_for_collection(16), 2);
        assert_eq!(c.generation_for_collection(64), 3);
        assert_eq!(c.generation_for_collection(65), 0);
        assert_eq!(c.generation_for_collection(68), 1);
    }

    #[test]
    fn frequencies_extend_by_quadrupling() {
        let c = GcConfig {
            generations: 6,
            frequency: vec![1, 4],
            ..GcConfig::new()
        };
        assert_eq!(c.frequency_of(1), 4);
        assert_eq!(c.frequency_of(2), 16);
        assert_eq!(c.frequency_of(3), 64);
    }

    #[test]
    fn single_generation_always_collects_zero() {
        let c = GcConfig::with_generations(1);
        for i in 1..100 {
            assert_eq!(c.generation_for_collection(i), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one generation")]
    fn zero_generations_rejected() {
        let _ = GcConfig::with_generations(0);
    }

    /// Every field, by name: adding one stops this compiling. A field is an
    /// axis every test matrix and the benchmark must then cover, so a new
    /// one needs a `BENCHMARK.json` workload that sets it — policy
    /// (`generations`, `frequency`, `trigger_bytes`, `promotion`) aside,
    /// the one here that selects code is `pause_budget`, and it has one.
    /// `workers` is inert and leaves with the benchmark-only PR.
    #[test]
    fn the_configuration_is_exactly_six_fields() {
        let GcConfig {
            generations: _,
            frequency: _,
            trigger_bytes: _,
            promotion: _,
            workers: _,
            pause_budget: _,
        } = GcConfig::new();
    }

    #[test]
    fn zero_frequency_is_treated_as_one() {
        let c = GcConfig {
            generations: 2,
            frequency: vec![0, 0],
            ..GcConfig::new()
        };
        assert_eq!(c.frequency_of(0), 1);
        assert_eq!(c.generation_for_collection(3), 1);
    }

    #[test]
    fn empty_ladder_defaults_from_one() {
        let c = GcConfig {
            generations: 4,
            frequency: vec![],
            ..GcConfig::new()
        };
        assert_eq!(c.frequency_of(0), 1);
        assert_eq!(c.frequency_of(1), 4, "4x the implied 1");
        assert_eq!(c.frequency_of(2), 16);
        assert_eq!(c.effective_frequency(), vec![1, 4, 16, 64]);
    }

    #[test]
    fn quadrupling_saturates_instead_of_overflowing() {
        let c = GcConfig {
            generations: 40,
            frequency: vec![1],
            ..GcConfig::new()
        };
        assert_eq!(c.frequency_of(39), u64::MAX, "saturates, never panics");
    }

    #[test]
    fn effective_frequency_materializes_defaults_and_zero_rule() {
        let c = GcConfig {
            generations: 4,
            frequency: vec![0, 4],
            ..GcConfig::new()
        };
        assert_eq!(c.effective_frequency(), vec![1, 4, 16, 64]);
    }

    #[test]
    fn to_json_shows_the_effective_ladder() {
        let c = GcConfig {
            generations: 4,
            frequency: vec![1, 8],
            promotion: Promotion::Capped(2),
            ..GcConfig::new()
        };
        assert_eq!(
            c.to_json(),
            format!(
                "{{\"generations\":4,\"frequency\":[1,8,32,128],\
                 \"trigger_bytes\":{},\"promotion\":\"cap2\"}}",
                c.trigger_bytes
            )
        );
        assert!(GcConfig::new().to_json().contains("\"promotion\":\"next\""));
        let mut same = GcConfig::new();
        same.promotion = Promotion::SameGeneration;
        assert!(same.to_json().contains("\"promotion\":\"same\""));
    }
}

#[cfg(test)]
mod promotion_tests {
    use super::*;

    #[test]
    fn next_generation_matches_the_paper() {
        let p = Promotion::NextGeneration;
        assert_eq!(p.target(0, 3), 1);
        assert_eq!(p.target(2, 3), 3);
        assert_eq!(p.target(3, 3), 3, "oldest collects into itself");
    }

    #[test]
    fn capped_promotion_stops_at_the_ceiling() {
        let p = Promotion::Capped(2);
        assert_eq!(p.target(0, 3), 1);
        assert_eq!(p.target(1, 3), 2);
        assert_eq!(p.target(2, 3), 2, "never beyond the cap");
        assert_eq!(p.target(3, 3), 2);
    }

    #[test]
    fn same_generation_keeps_survivors_put() {
        let p = Promotion::SameGeneration;
        assert_eq!(p.target(0, 3), 1, "nursery still empties");
        assert_eq!(p.target(2, 3), 2);
    }
}
