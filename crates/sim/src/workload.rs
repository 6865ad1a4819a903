//! Deterministic workload generators for every query population the paper
//! sweeps.
//!
//! All generators take an explicit [`rand::Rng`] seeded by the experiment
//! harness, so a given `(seed, configuration)` always produces the same
//! query stream — runs are exactly reproducible.

use crate::{Result, SimError};
use decluster_grid::{BucketCoord, BucketRegion, GridSpace, PartialMatchQuery, COORD_INLINE_DIMS};
use rand::Rng;
use smallvec::SmallVec;

/// Seedable inter-arrival distribution of an open-loop request stream:
/// the gap between consecutive arrivals, parameterized by the offered
/// rate. Poisson is the paper-era default (memoryless clients); Uniform
/// and Constant bound the burstiness from either side at the same mean.
///
/// Sampling is deterministic per RNG state; the serving engine's
/// [`crate::events::sharded_arrivals`] draws per-chunk streams from this
/// to build arbitrarily long arrival vectors byte-identically at any
/// thread count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InterArrival {
    /// Exponential gaps (a Poisson arrival process) at `rate_qps`.
    Poisson {
        /// Offered load, queries per second.
        rate_qps: f64,
    },
    /// Uniform gaps on `[0, 2/rate)` — same mean, bounded burst.
    Uniform {
        /// Offered load, queries per second.
        rate_qps: f64,
    },
    /// Fixed gaps of exactly `1/rate` — a metronome, no randomness.
    Constant {
        /// Offered load, queries per second.
        rate_qps: f64,
    },
}

impl InterArrival {
    /// The offered rate, queries per second.
    pub fn rate_qps(&self) -> f64 {
        match *self {
            InterArrival::Poisson { rate_qps }
            | InterArrival::Uniform { rate_qps }
            | InterArrival::Constant { rate_qps } => rate_qps,
        }
    }

    /// Mean gap between arrivals, ms.
    ///
    /// # Panics
    /// Panics unless the rate is positive.
    pub fn mean_gap_ms(&self) -> f64 {
        let rate = self.rate_qps();
        assert!(rate > 0.0, "arrival rate must be positive");
        1000.0 / rate
    }

    /// Draws one inter-arrival gap in ms. The Poisson draw consumes the
    /// RNG exactly like [`crate::poisson_arrivals`] (same formula, same
    /// stream), so chunked generation reproduces the pinned vectors.
    pub fn sample_gap_ms<R: Rng>(&self, rng: &mut R) -> f64 {
        let mean = self.mean_gap_ms();
        match self {
            InterArrival::Poisson { .. } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -u.ln() * mean
            }
            InterArrival::Uniform { .. } => rng.gen_range(0.0..2.0 * mean),
            InterArrival::Constant { .. } => mean,
        }
    }
}

/// Near-isotropic integer side lengths whose product is exactly `area`,
/// fitted to `dims` (per-dimension grid sizes).
///
/// For 2-D this is the divisor pair closest to a square; for higher
/// dimensions the factorization proceeds greedily from the k-th root.
/// Returns `None` if no factorization fits inside the grid (e.g. a prime
/// area larger than every side).
pub fn rect_sides_for_area(area: u64, dims: &[u32]) -> Option<Vec<u32>> {
    fn fit(area: u64, dims: &[u32]) -> Option<Vec<u32>> {
        if dims.len() == 1 {
            return (area <= u64::from(dims[0]) && area >= 1).then(|| vec![area as u32]);
        }
        // Ideal side on this dimension: the k-th root of the area.
        let k = dims.len() as f64;
        let ideal = (area as f64).powf(1.0 / k).round() as u64;
        let max_side = u64::from(dims[0]);
        // Try divisors of `area` near the ideal, preferring closeness.
        let mut candidates: Vec<u64> = (1..=area.min(max_side))
            .filter(|d| area.is_multiple_of(*d))
            .collect();
        candidates.sort_by_key(|&d| d.abs_diff(ideal));
        for d in candidates {
            if let Some(mut rest) = fit(area / d, &dims[1..]) {
                let mut sides = vec![d as u32];
                sides.append(&mut rest);
                return Some(sides);
            }
        }
        None
    }
    if area == 0 {
        return None;
    }
    fit(area, dims)
}

/// A uniformly random placement of a query box with the given side
/// lengths inside the grid.
///
/// # Errors
/// [`SimError::QueryDoesNotFit`] if any side exceeds the grid.
pub fn random_region<R: Rng>(
    rng: &mut R,
    space: &GridSpace,
    sides: &[u32],
) -> Result<BucketRegion> {
    if sides.len() != space.k()
        || sides
            .iter()
            .zip(space.dims())
            .any(|(&s, &d)| s == 0 || s > d)
    {
        return Err(SimError::QueryDoesNotFit {
            extents: sides.to_vec(),
            dims: space.dims().to_vec(),
        });
    }
    // Corners fill inline (up to `COORD_INLINE_DIMS` dimensions): a
    // sweep draws thousands of placements per point.
    let mut lo = SmallVec::<[u32; COORD_INLINE_DIMS]>::new();
    let mut hi = SmallVec::<[u32; COORD_INLINE_DIMS]>::new();
    for (d, &s) in sides.iter().enumerate() {
        let max_lo = space.dim(d) - s;
        let l = if max_lo == 0 {
            0
        } else {
            rng.gen_range(0..=max_lo)
        };
        lo.push(l);
        hi.push(l + s - 1);
    }
    Ok(
        BucketRegion::new(space, BucketCoord::new(lo), BucketCoord::new(hi))
            .expect("placement stays in grid"),
    )
}

/// A uniformly random range query: each dimension gets an independent
/// random inclusive interval.
pub fn random_range_region<R: Rng>(rng: &mut R, space: &GridSpace) -> BucketRegion {
    let mut lo = Vec::with_capacity(space.k());
    let mut hi = Vec::with_capacity(space.k());
    for &d in space.dims() {
        let a = rng.gen_range(0..d);
        let b = rng.gen_range(0..d);
        lo.push(a.min(b));
        hi.push(a.max(b));
    }
    BucketRegion::new(space, BucketCoord::from(lo), BucketCoord::from(hi))
        .expect("random interval is valid")
}

/// Experiment 1's independent variable: a sweep over query sizes (area in
/// buckets), each realized as a near-square box placed uniformly at
/// random.
#[derive(Clone, Debug)]
pub struct SizeSweep {
    areas: Vec<u64>,
}

impl SizeSweep {
    /// Log-spaced integer areas from `min_area` to `max_area` (inclusive,
    /// deduplicated), `points` of them. The paper's Experiment 1 is
    /// `SizeSweep::new(1, 1024, …)`.
    pub fn new(min_area: u64, max_area: u64, points: usize) -> Self {
        let (min_area, max_area) = (min_area.max(1), max_area.max(1));
        if points <= 1 || min_area >= max_area {
            return SizeSweep {
                areas: vec![min_area],
            };
        }
        let lo = (min_area as f64).ln();
        let hi = (max_area as f64).ln();
        let mut areas: Vec<u64> = (0..points)
            .map(|i| {
                let t = i as f64 / (points - 1) as f64;
                (lo + (hi - lo) * t).exp().round() as u64
            })
            .collect();
        areas.dedup();
        SizeSweep { areas }
    }

    /// An explicit list of areas.
    pub fn explicit(areas: Vec<u64>) -> Self {
        SizeSweep { areas }
    }

    /// The areas this sweep visits.
    pub fn areas(&self) -> &[u64] {
        &self.areas
    }
}

/// Experiment 2's independent variable: aspect ratios `1 : 2^p` at fixed
/// area, from a square (`p = 0`) toward a line.
#[derive(Clone, Debug)]
pub struct ShapeSweep {
    area: u64,
    powers: Vec<u32>,
}

impl ShapeSweep {
    /// All ratios `1:1, 1:2, 1:4, … 1:2^max_power` whose side lengths
    /// divide exactly: sides are `(sqrt(area/2^p), sqrt(area·2^p))`, kept
    /// only when both are integers. Use a power-of-four area (16, 64, 256,
    /// 1024 …) for the full even-power ladder.
    pub fn new(area: u64, max_power: u32) -> Self {
        let powers = (0..=max_power)
            .filter(|&p| Self::sides_for(area, p).is_some())
            .collect();
        ShapeSweep { area, powers }
    }

    /// The fixed query area.
    pub fn area(&self) -> u64 {
        self.area
    }

    /// The admitted powers `p` (aspect `1:2^p`).
    pub fn powers(&self) -> &[u32] {
        &self.powers
    }

    /// Integer sides for aspect `1:2^p`, if they exist.
    pub fn sides_for(area: u64, p: u32) -> Option<(u32, u32)> {
        // a = sqrt(area / 2^p), b = a * 2^p.
        if p >= 63 || !area.is_multiple_of(1u64 << p) {
            return None;
        }
        let a2 = area >> p;
        let a = (a2 as f64).sqrt().round() as u64;
        (a * a == a2 && a >= 1).then(|| ((a as u32), (a << p) as u32))
    }
}

/// Every partial-match query on a grid: each attribute bound to one of its
/// partitions or left unspecified, excluding the trivial all-unspecified
/// query (the full relation scan).
pub fn all_partial_match_queries(space: &GridSpace) -> Vec<PartialMatchQuery> {
    let k = space.k();
    let mut out = Vec::new();
    // Mixed-radix counter over (d_i + 1) choices per dimension; the extra
    // value means "unspecified".
    let mut idx = vec![0u32; k];
    loop {
        let bindings: Vec<Option<u32>> = idx
            .iter()
            .zip(space.dims())
            .map(|(&c, &d)| (c < d).then_some(c))
            .collect();
        if bindings.iter().any(Option::is_some) {
            out.push(PartialMatchQuery::new(bindings).expect("non-empty"));
        }
        // Increment.
        let mut dim = k;
        loop {
            if dim == 0 {
                return out;
            }
            dim -= 1;
            idx[dim] += 1;
            if idx[dim] <= space.dim(dim) {
                break;
            }
            idx[dim] = 0;
        }
    }
}

/// A mixed query population: the proportions of the paper's query
/// classes a real workload would blend.
///
/// Proportions are weights (not required to sum to 1); each generated
/// query independently picks its class by weight. Use with
/// [`WorkloadMix::generate`] for a reproducible stream.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadMix {
    /// Weight of point queries.
    pub point: f64,
    /// Weight of partial-match queries (one random attribute left free).
    pub partial_match: f64,
    /// Weight of small near-square range queries, with their area.
    pub small_range: f64,
    /// Area of a small range query.
    pub small_area: u64,
    /// Weight of large near-square range queries, with their area.
    pub large_range: f64,
    /// Area of a large range query.
    pub large_area: u64,
}

impl Default for WorkloadMix {
    /// An OLTP-leaning default: 40% points, 20% partial match, 30% small
    /// ranges (area 9), 10% large ranges (area 256).
    fn default() -> Self {
        WorkloadMix {
            point: 0.4,
            partial_match: 0.2,
            small_range: 0.3,
            small_area: 9,
            large_range: 0.1,
            large_area: 256,
        }
    }
}

impl WorkloadMix {
    /// Generates `n` query regions from the mix, deterministically per
    /// RNG state. Range areas that cannot fit the grid are clamped to the
    /// largest near-square that does.
    ///
    /// # Errors
    /// [`SimError::EmptySweep`] if all weights are zero or negative.
    pub fn generate<R: Rng>(
        &self,
        rng: &mut R,
        space: &GridSpace,
        n: usize,
    ) -> Result<Vec<BucketRegion>> {
        let weights = [
            self.point.max(0.0),
            self.partial_match.max(0.0),
            self.small_range.max(0.0),
            self.large_range.max(0.0),
        ];
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(SimError::EmptySweep);
        }
        let clamp_area = |area: u64| -> Vec<u32> {
            let mut a = area.min(space.num_buckets()).max(1);
            loop {
                if let Some(sides) = rect_sides_for_area(a, space.dims()) {
                    return sides;
                }
                a -= 1; // area 1 always factorizes, so this terminates
            }
        };
        let small = clamp_area(self.small_area);
        let large = clamp_area(self.large_area);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut pick = rng.gen_range(0.0..total);
            let class = weights
                .iter()
                .position(|&w| {
                    if pick < w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .unwrap_or(3);
            let region = match class {
                0 => {
                    let coords: Vec<u32> =
                        space.dims().iter().map(|&d| rng.gen_range(0..d)).collect();
                    BucketRegion::new(
                        space,
                        BucketCoord::from(coords.clone()),
                        BucketCoord::from(coords),
                    )
                    .expect("point in grid")
                }
                1 => {
                    let free = rng.gen_range(0..space.k());
                    let bindings: Vec<Option<u32>> = (0..space.k())
                        .map(|d| (d != free).then(|| rng.gen_range(0..space.dim(d))))
                        .collect();
                    PartialMatchQuery::new(bindings)
                        .expect("non-empty")
                        .region(space)
                        .expect("bindings in range")
                }
                2 => random_region(rng, space, &small)?,
                _ => random_region(rng, space, &large)?,
            };
            out.push(region);
        }
        Ok(out)
    }
}

/// Partial-match queries with exactly `unspecified` free attributes,
/// sampled uniformly (all of them if fewer than `limit`).
pub fn partial_match_with_unspecified<R: Rng>(
    rng: &mut R,
    space: &GridSpace,
    unspecified: usize,
    limit: usize,
) -> Vec<PartialMatchQuery> {
    let k = space.k();
    assert!(unspecified <= k, "cannot free more attributes than exist");
    let mut out = Vec::with_capacity(limit);
    for _ in 0..limit {
        // Choose which attributes are free.
        let mut free = vec![false; k];
        let mut remaining = unspecified;
        for (d, slot) in free.iter_mut().enumerate() {
            let slots_left = k - d;
            if remaining > 0 && rng.gen_range(0..slots_left) < remaining {
                *slot = true;
                remaining -= 1;
            }
        }
        let bindings: Vec<Option<u32>> = (0..k)
            .map(|d| (!free[d]).then(|| rng.gen_range(0..space.dim(d))))
            .collect();
        if bindings.iter().any(Option::is_some) {
            out.push(PartialMatchQuery::new(bindings).expect("non-empty"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn inter_arrival_poisson_matches_poisson_arrivals_stream() {
        // Same seed, same formula: cumulative gaps reproduce the pinned
        // poisson_arrivals vector bit for bit.
        let dist = InterArrival::Poisson { rate_qps: 40.0 };
        let mut a = StdRng::seed_from_u64(123);
        let mut t = 0.0;
        let via_dist: Vec<f64> = (0..50)
            .map(|_| {
                t += dist.sample_gap_ms(&mut a);
                t
            })
            .collect();
        let mut b = StdRng::seed_from_u64(123);
        let pinned = crate::poisson_arrivals(&mut b, 50, 40.0);
        for (x, y) in via_dist.iter().zip(&pinned) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn inter_arrival_means_agree() {
        for dist in [
            InterArrival::Poisson { rate_qps: 25.0 },
            InterArrival::Uniform { rate_qps: 25.0 },
            InterArrival::Constant { rate_qps: 25.0 },
        ] {
            assert_eq!(dist.rate_qps(), 25.0);
            assert_eq!(dist.mean_gap_ms(), 40.0);
            let mut r = rng();
            let n = 20_000;
            let mean = (0..n).map(|_| dist.sample_gap_ms(&mut r)).sum::<f64>() / n as f64;
            assert!(
                (mean - 40.0).abs() < 2.0,
                "{dist:?} sample mean {mean} far from 40"
            );
        }
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn inter_arrival_rejects_zero_rate() {
        let _ = InterArrival::Constant { rate_qps: 0.0 }.mean_gap_ms();
    }

    #[test]
    fn rect_sides_prefer_squares() {
        assert_eq!(rect_sides_for_area(16, &[64, 64]), Some(vec![4, 4]));
        assert_eq!(rect_sides_for_area(12, &[64, 64]), Some(vec![3, 4]));
        assert_eq!(rect_sides_for_area(1, &[64, 64]), Some(vec![1, 1]));
        // Prime areas become lines.
        let sides = rect_sides_for_area(13, &[64, 64]).unwrap();
        assert_eq!(sides.iter().map(|&s| u64::from(s)).product::<u64>(), 13);
    }

    #[test]
    fn rect_sides_respect_grid_bounds() {
        // 128 = 2x64 fits a 64x64 grid; as 1x128 it would not.
        let sides = rect_sides_for_area(128, &[64, 64]).unwrap();
        assert!(sides.iter().all(|&s| s <= 64));
        assert_eq!(sides.iter().map(|&s| u64::from(s)).product::<u64>(), 128);
        // A prime bigger than the side cannot fit.
        assert_eq!(rect_sides_for_area(67, &[64, 64]), None);
        assert_eq!(rect_sides_for_area(0, &[64, 64]), None);
    }

    #[test]
    fn rect_sides_three_dimensions() {
        let sides = rect_sides_for_area(64, &[16, 16, 16]).unwrap();
        assert_eq!(sides, vec![4, 4, 4]);
        let sides = rect_sides_for_area(32, &[16, 16, 16]).unwrap();
        assert_eq!(sides.iter().map(|&s| u64::from(s)).product::<u64>(), 32);
    }

    #[test]
    fn random_region_respects_sides_and_bounds() {
        let g = GridSpace::new_2d(16, 16).unwrap();
        let mut r = rng();
        for _ in 0..100 {
            let region = random_region(&mut r, &g, &[3, 5]).unwrap();
            assert_eq!(region.extent(0), 3);
            assert_eq!(region.extent(1), 5);
            assert!(region.hi()[0] < 16 && region.hi()[1] < 16);
        }
    }

    #[test]
    fn random_region_rejects_oversize() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let mut r = rng();
        assert!(matches!(
            random_region(&mut r, &g, &[9, 1]).unwrap_err(),
            SimError::QueryDoesNotFit { .. }
        ));
        assert!(random_region(&mut r, &g, &[0, 1]).is_err());
        assert!(random_region(&mut r, &g, &[1]).is_err());
    }

    #[test]
    fn random_region_is_deterministic_per_seed() {
        let g = GridSpace::new_2d(32, 32).unwrap();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(
                random_region(&mut a, &g, &[4, 4]).unwrap(),
                random_region(&mut b, &g, &[4, 4]).unwrap()
            );
        }
    }

    #[test]
    fn random_range_region_is_valid() {
        let g = GridSpace::new(vec![8, 4, 6]).unwrap();
        let mut r = rng();
        for _ in 0..200 {
            let region = random_range_region(&mut r, &g);
            assert!(region.num_buckets() >= 1);
            for d in 0..3 {
                assert!(region.hi()[d] < g.dim(d));
            }
        }
    }

    #[test]
    fn size_sweep_is_log_spaced_and_deduplicated() {
        let s = SizeSweep::new(1, 1024, 11);
        assert_eq!(s.areas().first(), Some(&1));
        assert_eq!(s.areas().last(), Some(&1024));
        assert!(s.areas().windows(2).all(|w| w[0] < w[1]));
        let single = SizeSweep::new(5, 5, 10);
        assert_eq!(single.areas(), &[5]);
    }

    #[test]
    fn shape_sweep_even_powers_of_area_64() {
        // 64 = 8^2: p=0 -> 8x8, p=2 -> 4x16, p=4 -> 2x32, p=6 -> 1x64.
        let s = ShapeSweep::new(64, 6);
        assert_eq!(s.powers(), &[0, 2, 4, 6]);
        assert_eq!(ShapeSweep::sides_for(64, 0), Some((8, 8)));
        assert_eq!(ShapeSweep::sides_for(64, 2), Some((4, 16)));
        assert_eq!(ShapeSweep::sides_for(64, 6), Some((1, 64)));
        assert_eq!(ShapeSweep::sides_for(64, 1), None); // 32 is not square
    }

    #[test]
    fn workload_mix_generates_all_classes() {
        let g = GridSpace::new_2d(32, 32).unwrap();
        let mut r = rng();
        let mix = WorkloadMix::default();
        let regions = mix.generate(&mut r, &g, 500).unwrap();
        assert_eq!(regions.len(), 500);
        let points = regions.iter().filter(|q| q.num_buckets() == 1).count();
        let pm = regions
            .iter()
            .filter(|q| q.num_buckets() == 32) // full row/column
            .count();
        let small = regions.iter().filter(|q| q.num_buckets() == 9).count();
        let large = regions.iter().filter(|q| q.num_buckets() == 256).count();
        assert!(points > 100, "points {points}");
        assert!(pm > 30, "pm {pm}");
        assert!(small > 80, "small {small}");
        assert!(large > 10, "large {large}");
        assert_eq!(points + pm + small + large, 500);
    }

    #[test]
    fn workload_mix_is_deterministic_per_seed() {
        let g = GridSpace::new_2d(16, 16).unwrap();
        let mix = WorkloadMix::default();
        let a = mix.generate(&mut StdRng::seed_from_u64(5), &g, 50).unwrap();
        let b = mix.generate(&mut StdRng::seed_from_u64(5), &g, 50).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn workload_mix_clamps_oversize_areas() {
        let g = GridSpace::new_2d(4, 4).unwrap();
        let mix = WorkloadMix {
            large_area: 10_000,
            large_range: 1.0,
            point: 0.0,
            partial_match: 0.0,
            small_range: 0.0,
            small_area: 9,
        };
        let mut r = rng();
        let regions = mix.generate(&mut r, &g, 20).unwrap();
        assert!(regions.iter().all(|q| q.num_buckets() <= 16));
    }

    #[test]
    fn workload_mix_rejects_zero_weights() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let mix = WorkloadMix {
            point: 0.0,
            partial_match: 0.0,
            small_range: 0.0,
            large_range: 0.0,
            small_area: 4,
            large_area: 16,
        };
        let mut r = rng();
        assert!(matches!(
            mix.generate(&mut r, &g, 10).unwrap_err(),
            SimError::EmptySweep
        ));
    }

    #[test]
    fn all_partial_match_counts() {
        // (d0+1)(d1+1) - 1 combos.
        let g = GridSpace::new_2d(3, 4).unwrap();
        let qs = all_partial_match_queries(&g);
        assert_eq!(qs.len(), 4 * 5 - 1);
        // All valid, none all-unspecified.
        for q in &qs {
            assert!(q.bindings().iter().any(Option::is_some));
            assert!(q.region(&g).is_ok());
        }
    }

    #[test]
    fn partial_match_with_fixed_unspecified_count() {
        let g = GridSpace::new(vec![4, 4, 4]).unwrap();
        let mut r = rng();
        let qs = partial_match_with_unspecified(&mut r, &g, 2, 50);
        assert_eq!(qs.len(), 50);
        for q in &qs {
            assert_eq!(q.unspecified(), 2);
        }
        // Zero unspecified = point queries.
        let points = partial_match_with_unspecified(&mut r, &g, 0, 10);
        assert!(points.iter().all(|q| q.is_point()));
    }
}
