//! Seeded input generation. Every workload draws its whole op stream from
//! one of these before timing starts, so the program under test sees only
//! generated ops and the same `--seed` always yields the same inputs.

/// SplitMix64: tiny, full-period, and good enough to shape traffic.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per workload by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// a traffic shape can show.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// FNV-1a over a stream of words: the op-stream fingerprint `check` uses
/// to show that a different seed really changes the inputs.
#[derive(Clone, Copy, Debug)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> StreamHash {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    pub fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x100_0000_01B3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 7);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn streams_of_one_seed_are_decorrelated() {
        let mut a = Rng::new(1, 1);
        let mut b = Rng::new(1, 2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_stays_in_range_and_chance_tracks_its_odds() {
        let mut r = Rng::new(3, 0);
        assert!((0..10_000).all(|_| r.below(17) < 17));
        let hits = (0..100_000).filter(|_| r.chance(1, 10)).count();
        assert!((9_000..11_000).contains(&hits), "{hits}");
    }
}
