//! Order statistics over the benchmark's own samples.
//!
//! Every timing the benchmark reports comes from a sorted `Vec<f64>` of
//! raw samples — never from the program's log2 histogram buckets — so a
//! percentile is an observed value, not a bucket bound.

/// How many samples must lie strictly beyond a percentile's rank before
/// the percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// The sorted samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (total order, so a stray NaN sorts last instead of
    /// poisoning the comparison).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        // Folded from +0.0: `Iterator::sum` of no floats is -0.0.
        self.sorted.iter().fold(0.0, |a, b| a + b)
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sum() / self.len() as f64)
    }

    /// Median as Python's `statistics.median` computes it: the middle
    /// sample, or the mean of the two middle samples.
    pub fn median(&self) -> Option<f64> {
        let n = self.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// Nearest-rank `p`-th percentile (`0 < p < 100`), reported only when
    /// at least [`MIN_BEYOND`] samples lie beyond its rank. With fewer,
    /// the tail is too thin for the number to mean anything and the
    /// answer is `None`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
        let n = self.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize; // 1-based
        if rank == 0 || n - rank < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[rank - 1])
    }

    /// First quartile, median and third quartile exactly as Python's
    /// `statistics.quantiles(values, n=4)` (the default `exclusive`
    /// method) computes them. Needs at least two samples.
    pub fn quartiles(&self) -> Option<(f64, f64, f64)> {
        let ld = self.len();
        if ld < 2 {
            return None;
        }
        let (n, m) = (4i64, ld as i64 + 1);
        let cut = |i: i64| {
            let j = (i * m / n).clamp(1, ld as i64 - 1);
            // Signed: at the clamped ends Python extrapolates.
            let delta = (i * m - j * n) as f64;
            let (lo, hi) = (self.sorted[j as usize - 1], self.sorted[j as usize]);
            (lo * (n as f64 - delta) + hi * delta) / n as f64
        };
        Some((cut(1), cut(2), cut(3)))
    }

    /// Quartile spread as a share of the median: `(q3 − q1) / median`.
    pub fn spread(&self) -> Option<f64> {
        let (q1, _, q3) = self.quartiles()?;
        let median = self.median()?;
        (median != 0.0).then(|| (q3 - q1) / median.abs())
    }
}

/// Several rounds over the same input, position by position:
/// `rounds[r][i]` is window `i` of round `r`, and window `i` does the
/// same work in every round. Each position gets the median of its values
/// over the rounds, so a burst of host noise in one round moves none of
/// them; the result has one value per position the shortest round reaches.
pub fn median_by_position(rounds: &[Vec<f64>]) -> Vec<f64> {
    let positions = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..positions)
        .map(|i| {
            let at: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
            Samples::new(at).median().expect("at least one round")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        // Reverse order: construction must sort.
        Samples::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(Samples::new(vec![]).median(), None);
        assert_eq!(Samples::new(vec![3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(Samples::new(vec![4.0, 1.0, 3.0, 2.0]).median(), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(samples(10).quartiles(), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(
            Samples::new(vec![2.0, 1.0]).quartiles(),
            Some((0.75, 1.5, 2.25))
        );
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(samples(5).quartiles(), Some((1.5, 3.0, 4.5)));
        assert_eq!(Samples::new(vec![1.0]).quartiles(), None);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let s = samples(10);
        assert_eq!(s.spread(), Some((8.25 - 2.75) / 5.5));
        assert_eq!(Samples::new(vec![0.0, 0.0, 0.0]).spread(), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        // 100 samples 1..=100: p50 is rank 50 → value 50, with 50 beyond.
        let s = samples(100);
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        // p95 is rank 95, only 5 beyond: withheld.
        assert_eq!(s.percentile(95.0), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of n samples sits at rank ceil(0.99 n); it is reported only
        // once n − rank ≥ 10, which first happens at n = 1000.
        assert_eq!(samples(999).percentile(99.0), None);
        assert_eq!(samples(1000).percentile(99.0), Some(990.0));
        // p50 needs n − ceil(n/2) ≥ 10: n = 20 is the smallest.
        assert_eq!(samples(19).percentile(50.0), None);
        assert_eq!(samples(20).percentile(50.0), Some(10.0));
        assert_eq!(Samples::new(vec![]).percentile(50.0), None);
    }

    #[test]
    fn median_by_position_takes_each_positions_median_round() {
        let rounds = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0], vec![6.0, 2.0, 0.5]];
        // Position 2 is missing from the second round, so it is dropped.
        assert_eq!(median_by_position(&rounds), vec![3.0, 2.0]);
        assert_eq!(median_by_position(&rounds[1..]), vec![4.0, 3.0]);
        assert!(median_by_position(&[]).is_empty());
    }

    #[test]
    fn mean_and_sum() {
        let s = samples(4);
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(Samples::default().mean(), None);
        assert!(Samples::default().sum().is_sign_positive());
    }
}
