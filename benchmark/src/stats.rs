//! Order statistics. Timings are reported as medians and nearest-rank
//! percentiles; a percentile is only trusted when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile before it is reported from
/// one repetition alone.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of unsorted `samples` (`0 < q <= 1`): the
/// smallest sample with at least `q` of the samples at or below it.
/// `None` on an empty slice.
pub fn percentile(samples: &mut [u32], q: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    Some(*v)
}

/// Whether `n` samples put at least [`MIN_BEYOND`] beyond the `q`
/// percentile.
pub fn enough_beyond(n: usize, q: f64) -> bool {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + MIN_BEYOND
}

/// A percentile over several repetitions' samples.
#[derive(Clone, Debug, PartialEq)]
pub enum RepPercentile {
    /// Every repetition had enough samples beyond the percentile: one
    /// value per repetition, each over at least `samples` samples.
    PerRep { values: Vec<f64>, samples: usize },
    /// Some repetition had too few: the percentile of all repetitions'
    /// samples pooled.
    Pooled { value: f64, samples: usize },
}

/// The `q` percentile of each repetition when every repetition has
/// enough samples beyond it, otherwise of all repetitions' samples
/// pooled.
pub fn rep_percentile(reps: &mut [Vec<u32>], q: f64) -> RepPercentile {
    let min_n = reps.iter().map(Vec::len).min().unwrap_or(0);
    if min_n > 0 && enough_beyond(min_n, q) {
        let values = reps
            .iter_mut()
            .map(|r| f64::from(percentile(r, q).expect("non-empty")))
            .collect();
        return RepPercentile::PerRep {
            values,
            samples: min_n,
        };
    }
    let mut all: Vec<u32> = reps.iter().flatten().copied().collect();
    RepPercentile::Pooled {
        value: percentile(&mut all, q).map_or(0.0, f64::from),
        samples: all.len(),
    }
}

/// Median of `values` (mean of the middle two for an even count); `0.0`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance
/// criterion's spread is defined with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, clamped into the data.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the spread the
/// acceptance criterion bounds.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_hand_table() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        assert_eq!(percentile(&mut v, 0.001), Some(1));
        let mut five = vec![15, 20, 35, 40, 50];
        assert_eq!(percentile(&mut five, 0.30), Some(20));
        assert_eq!(percentile(&mut five, 0.40), Some(20));
        assert_eq!(percentile(&mut five, 0.50), Some(35));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1,000 samples is rank 990: exactly 10 beyond it.
        assert!(enough_beyond(1_000, 0.99));
        assert!(!enough_beyond(999, 0.99));
        // A median needs 20 samples.
        assert!(enough_beyond(20, 0.5));
        assert!(!enough_beyond(19, 0.5));
        assert!(!enough_beyond(0, 0.5));
    }

    #[test]
    fn short_repetitions_are_pooled_long_ones_are_not() {
        let long = |base: u32| (0..1_000).map(|i| base + i).collect::<Vec<u32>>();
        let mut reps = vec![long(0), long(10), long(20)];
        assert_eq!(
            rep_percentile(&mut reps, 0.99),
            RepPercentile::PerRep {
                values: vec![989.0, 999.0, 1009.0],
                samples: 1_000
            }
        );
        let mut short = vec![(0..400).collect::<Vec<u32>>(); 3];
        assert_eq!(
            rep_percentile(&mut short, 0.99),
            RepPercentile::Pooled {
                value: 395.0,
                samples: 1_200
            }
        );
        assert_eq!(
            rep_percentile(&mut [], 0.99),
            RepPercentile::Pooled {
                value: 0.0,
                samples: 0
            }
        );
    }

    #[test]
    fn median_and_python_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_iqr(&v), Some(1.0));
    }
}
