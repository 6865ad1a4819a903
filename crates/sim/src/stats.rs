/// Summary statistics of a sample of observations (response times,
/// deviations, …).
///
/// All experiments in the harness report means over many random query
/// placements; the stddev and a normal-approximation 95% confidence
/// half-width are kept so tables can show how tight the estimates are.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. An empty sample yields all-zero statistics.
    pub fn of(values: &[f64]) -> Self {
        Self::of_iter(values.len(), values.iter().copied())
    }

    /// Summarizes integer observations without copying them: bit for
    /// bit [`Summary::of`] on the counts converted to `f64`. The fault
    /// sweep's degraded RTs, which can saturate near 2^64, take this
    /// form; sweep points summarize an RT histogram instead
    /// ([`Summary::of_histogram`]).
    pub fn of_counts(values: &[u64]) -> Self {
        Self::of_iter(values.len(), values.iter().map(|&v| v as f64))
    }

    /// Summarizes the sample `hist` describes, `hist[v]` observations
    /// of the value `v` (a sweep point's RT histogram), in one pass over
    /// the bins plus one for the variance. While the sample's sum stays
    /// below 2^53, `n`, `mean`, `min` and `max` are bit for bit
    /// [`Summary::of_counts`] on the expanded sample: the mean divides
    /// the exact integer sum, which a float sum of such integers reaches
    /// exactly. The variance sums `count · (v − mean)²` bin by bin in
    /// value order, so `stddev` may differ from `of_counts`' in its last
    /// bits. An empty histogram yields all-zero statistics.
    pub fn of_histogram(hist: &[u64]) -> Self {
        let (mut n, mut sum, mut min, mut max) = (0u64, 0u128, None, 0u64);
        for (v, &count) in (0u64..).zip(hist) {
            if count > 0 {
                n += count;
                sum += u128::from(v) * u128::from(count);
                min.get_or_insert(v);
                max = v;
            }
        }
        let Some(min) = min else {
            return Self::empty();
        };
        let len = n as f64;
        let mean = sum as f64 / len;
        let var = (0u64..)
            .zip(hist)
            .filter(|&(_, &count)| count > 0)
            .map(|(v, &count)| {
                let d = v as f64 - mean;
                count as f64 * d * d
            })
            .sum::<f64>()
            / len;
        Summary {
            n: n as usize,
            mean,
            stddev: var.sqrt(),
            min: min as f64,
            max: max as f64,
        }
    }

    /// The all-zero summary of an empty sample.
    fn empty() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            stddev: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// The one implementation behind [`Summary::of`] and
    /// [`Summary::of_counts`]: the same float operations in the same
    /// order over the `n` values `values` yields.
    fn of_iter(n: usize, values: impl Iterator<Item = f64> + Clone) -> Self {
        if n == 0 {
            return Self::empty();
        }
        let len = n as f64;
        let mean = values.clone().sum::<f64>() / len;
        let var = values.clone().map(|v| (v - mean) * (v - mean)).sum::<f64>() / len;
        let min = values.clone().fold(f64::INFINITY, f64::min);
        let max = values.fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            stddev: var.sqrt(),
            min,
            max,
        }
    }

    /// Half-width of a ~95% confidence interval for the mean (normal
    /// approximation, `1.96 · σ / √n`). Zero for n < 2.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.stddev / (self.n as f64).sqrt()
        }
    }
}

/// Exact latency tail quantiles, extracted by nearest-rank from the full
/// sample (no sketches, no interpolation): deterministic for a
/// deterministic sample, so 1-thread and N-thread runs agree bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quantiles {
    /// Median (nearest-rank p50).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

impl Quantiles {
    /// Zero-based index of the nearest-rank `q` quantile in an ascending
    /// sample of `n > 0` observations: the smallest rank `r` with
    /// `r / n >= q`, minus one.
    fn rank_index(n: usize, q: f64) -> usize {
        ((q * n as f64).ceil() as usize).max(1) - 1
    }

    /// Extracts p50/p95/p99 from an ascending-sorted sample. An empty
    /// sample yields all-zero quantiles.
    pub fn of_sorted(sorted: &[f64]) -> Self {
        if sorted.is_empty() {
            return Self::default();
        }
        let at = |q| sorted[Self::rank_index(sorted.len(), q)];
        Quantiles {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
        }
    }

    /// The quantiles [`Quantiles::of_sorted`] reads from a sorted copy
    /// of `values`, found by selection in `O(n)` instead of a sort: p99
    /// over the whole slice, then p95 within the prefix that selection
    /// leaves ending at p99, then p50 within the prefix ending at p95.
    /// Ranks follow the total order (so NaNs cannot poison them), which
    /// makes each selected element the sorted copy's, bit for bit.
    /// Reorders `values` in place; allocation-free. An empty sample
    /// yields all-zero quantiles.
    pub fn of_unsorted(values: &mut [f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let [i50, i95, i99] = [0.50, 0.95, 0.99].map(|q| Self::rank_index(values.len(), q));
        let select = |v: &mut [f64], i| *v.select_nth_unstable_by(i, f64::total_cmp).1;
        let p99 = select(values, i99);
        let p95 = select(&mut values[..=i99], i95);
        let p50 = select(&mut values[..=i95], i50);
        Quantiles { p50, p95, p99 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_sample() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn single_observation() {
        let s = Summary::of(&[4.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // Population variance of 1..4 is 1.25.
        assert!((s.stddev - 1.25f64.sqrt()).abs() < 1e-12);
        assert!(s.ci95_half_width() > 0.0);
    }

    /// `of_counts` equals `of` on the counts converted to `f64`, every
    /// field bit for bit.
    fn assert_of_counts_matches_of(counts: &[u64]) {
        let floats: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let (got, want) = (Summary::of_counts(counts), Summary::of(&floats));
        assert_eq!(got.n, want.n, "{counts:?}");
        for (g, w) in [
            (got.mean, want.mean),
            (got.stddev, want.stddev),
            (got.min, want.min),
            (got.max, want.max),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{counts:?}");
        }
    }

    #[test]
    fn of_counts_matches_of() {
        const P53: u64 = 1 << 53;
        for counts in [
            &[][..],
            &[4],
            &[P53 + 1],
            &[1, 2, 3],
            &[P53 - 1, P53, P53 + 1, P53 + 2, P53 + 3],
            &[0, u64::MAX, 3 * P53 + 1],
        ] {
            assert_of_counts_matches_of(counts);
        }
    }

    /// Counts around `2^53`, where `u64 -> f64` starts rounding, mixed
    /// with small ones.
    fn counts_near_2_pow_53() -> impl Strategy<Value = Vec<u64>> {
        let value = prop_oneof![0u64..64, (1u64 << 53) - 16..(1u64 << 53) + 16, any::<u64>(),];
        prop::collection::vec(value, 0..40)
    }

    /// `of_histogram` on the histogram of `values` against `of_counts`
    /// on `values`: `n`, `mean`, `min` and `max` bit for bit, and
    /// `stddev` within 4 ulps of the exact value, whose variance
    /// numerator `n·Σv² − (Σv)²` is an integer.
    fn assert_of_histogram_matches_of_counts(values: &[u64]) {
        let mut hist = Vec::new();
        for &v in values {
            let v = v as usize;
            if v >= hist.len() {
                hist.resize(v + 1, 0);
            }
            hist[v] += 1;
        }
        let (got, want) = (Summary::of_histogram(&hist), Summary::of_counts(values));
        assert_eq!(got.n, want.n, "{values:?}");
        for (g, w) in [
            (got.mean, want.mean),
            (got.min, want.min),
            (got.max, want.max),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{values:?}");
        }
        let n = values.len() as u128;
        let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
        let squares: u128 = values.iter().map(|&v| u128::from(v).pow(2)).sum();
        let exact = if n == 0 {
            0.0
        } else {
            ((n * squares - sum * sum) as f64).sqrt() / n as f64
        };
        assert!(
            (got.stddev - exact).abs() <= 4.0 * f64::EPSILON * exact,
            "stddev {} vs exact {exact} for {values:?}",
            got.stddev
        );
    }

    #[test]
    fn of_histogram_of_empty_and_pinned_samples() {
        for hist in [&[][..], &[0, 0, 0]] {
            assert_eq!(Summary::of_histogram(hist), Summary::of_counts(&[]));
        }
        // Bins 2 and 5 hold 3 and 1 observations.
        let s = Summary::of_histogram(&[0, 0, 3, 0, 0, 1]);
        assert_eq!((s.n, s.mean, s.min, s.max), (4, 2.75, 2.0, 5.0));
        assert_eq!(s.stddev, 1.6875f64.sqrt());
        for values in [&[7][..], &[3, 3, 3], &[0, 1, 1, 2, 30], &[5, 0, 9, 9, 1]] {
            assert_of_histogram_matches_of_counts(values);
        }
    }

    #[test]
    fn constant_sample_has_zero_spread() {
        let s = Summary::of(&[7.0; 100]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn quantiles_of_empty_sample_are_zero() {
        assert_eq!(Quantiles::of_sorted(&[]), Quantiles::default());
    }

    #[test]
    fn quantiles_of_singleton_are_that_value() {
        let q = Quantiles::of_sorted(&[3.5]);
        assert_eq!(
            q,
            Quantiles {
                p50: 3.5,
                p95: 3.5,
                p99: 3.5
            }
        );
    }

    #[test]
    fn nearest_rank_on_1_to_100() {
        // With n = 100 the nearest-rank quantile of value k at rank k is
        // exact: p50 = 50, p95 = 95, p99 = 99.
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let q = Quantiles::of_sorted(&sorted);
        assert_eq!(q.p50, 50.0);
        assert_eq!(q.p95, 95.0);
        assert_eq!(q.p99, 99.0);
    }

    #[test]
    fn of_unsorted_matches_of_sorted() {
        let mut shuffled = vec![9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0];
        let mut sorted = shuffled.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        assert_eq!(
            Quantiles::of_unsorted(&mut shuffled),
            Quantiles::of_sorted(&sorted)
        );
    }

    /// Tie-heavy samples over signed zeros, infinities and NaNs of both
    /// signs, next to a few ordinary values.
    fn awkward_sample() -> impl Strategy<Value = Vec<f64>> {
        let value = prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(-f64::NAN),
            (0u32..4).prop_map(f64::from),
            -1e3f64..1e3,
        ];
        prop::collection::vec(value, 0..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn of_counts_is_of_on_converted_counts(counts in counts_near_2_pow_53()) {
            assert_of_counts_matches_of(&counts);
        }

        #[test]
        fn of_histogram_is_of_counts_on_the_expanded_sample(
            values in prop::collection::vec(0u64..64, 0..300)
        ) {
            assert_of_histogram_matches_of_counts(&values);
        }

        #[test]
        fn selection_matches_a_full_sort(values in awkward_sample()) {
            let mut sorted = values.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let want = Quantiles::of_sorted(&sorted);
            let mut scratch = values.clone();
            let got = Quantiles::of_unsorted(&mut scratch);
            for (g, w) in [(got.p50, want.p50), (got.p95, want.p95), (got.p99, want.p99)] {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?}", values);
            }
        }
    }

    #[test]
    fn quantiles_are_always_observations() {
        let sorted = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5];
        let q = Quantiles::of_sorted(&sorted);
        for v in [q.p50, q.p95, q.p99] {
            assert!(sorted.contains(&v), "{v} not an observation");
        }
        assert!(q.p50 <= q.p95 && q.p95 <= q.p99);
    }
}
