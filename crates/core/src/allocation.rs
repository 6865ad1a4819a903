use crate::{DeclusteringMethod, Result};
use decluster_grid::{BucketRegion, DiskId, GridSpace};

/// A declustering method materialized over a grid: one disk id per bucket.
///
/// Materialization makes the per-bucket lookup a single indexed load and —
/// more importantly for the study — lets the harness evaluate thousands of
/// queries against a fixed allocation without re-running the method.
/// `AllocationMap` is itself a [`DeclusteringMethod`], so anything that
/// accepts a method accepts a materialized one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocationMap {
    space: GridSpace,
    m: u32,
    name: &'static str,
    disks: Vec<u32>,
}

impl AllocationMap {
    /// Materializes `method` over `space`.
    ///
    /// # Errors
    /// Grid errors if the space cannot be enumerated in memory.
    ///
    /// # Panics
    /// Panics if the method returns a disk outside `0..num_disks()`
    /// (a broken `DeclusteringMethod` contract).
    pub fn from_method(space: &GridSpace, method: &dyn DeclusteringMethod) -> Result<Self> {
        let m = method.num_disks();
        let total = usize::try_from(space.num_buckets()).map_err(|_| {
            crate::MethodError::UnsupportedGrid {
                method: "AllocationMap",
                reason: "grid too large to materialize".into(),
            }
        })?;
        let mut disks = Vec::with_capacity(total);
        space.for_each_bucket(|bucket| {
            let d = method.disk_of(bucket.as_slice());
            assert!(
                d.0 < m,
                "{} returned {d} with only {m} disks",
                method.name()
            );
            disks.push(d.0);
        });
        Ok(AllocationMap {
            space: space.clone(),
            m,
            name: method.name(),
            disks,
        })
    }

    /// Builds an allocation directly from a per-bucket disk table in
    /// row-major order (used by the theory crate's search).
    ///
    /// # Errors
    /// [`crate::MethodError::UnsupportedGrid`] if the table length does not
    /// match the grid or contains out-of-range disks.
    pub fn from_table(space: &GridSpace, m: u32, disks: Vec<u32>) -> Result<Self> {
        if disks.len() as u64 != space.num_buckets() || disks.iter().any(|&d| d >= m) {
            return Err(crate::MethodError::UnsupportedGrid {
                method: "AllocationMap",
                reason: "table shape or disk range mismatch".into(),
            });
        }
        Ok(AllocationMap {
            space: space.clone(),
            m,
            name: "TABLE",
            disks,
        })
    }

    /// The grid this allocation covers.
    pub fn space(&self) -> &GridSpace {
        &self.space
    }

    /// The raw per-bucket disk table (row-major).
    pub fn table(&self) -> &[u32] {
        &self.disks
    }

    /// Returns the same allocation carrying a different display name
    /// (used when deserializing a map whose method we recognize).
    pub(crate) fn renamed(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Response time of a query region in bucket retrievals: the maximum,
    /// over disks, of the number of the region's buckets on that disk.
    ///
    /// This is the paper's cost metric — with all disks working in
    /// parallel, the slowest disk determines the finish time.
    pub fn response_time(&self, region: &BucketRegion) -> u64 {
        let mut per_disk = vec![0u64; self.m as usize];
        for bucket in region.iter() {
            let id = self.space.linearize_unchecked(bucket.as_slice());
            per_disk[self.disks[id as usize] as usize] += 1;
        }
        per_disk.into_iter().max().unwrap_or(0)
    }

    /// As [`AllocationMap::response_time`], accumulating into `scratch`'s
    /// reusable buffer instead of allocating per query — the naive-walk
    /// counterpart of [`crate::DiskCounts::response_time_with`], used as
    /// the fallback path when the kernel table is too large to build.
    pub fn response_time_with(&self, region: &BucketRegion, scratch: &mut crate::Scratch) -> u64 {
        let per_disk = scratch.lanes_mut(self.m as usize);
        for bucket in region.iter() {
            let id = self.space.linearize_unchecked(bucket.as_slice());
            per_disk[self.disks[id as usize] as usize] += 1;
        }
        per_disk.iter().map(|&c| c.max(0) as u64).max().unwrap_or(0)
    }

    /// Per-disk bucket counts for a query region (the I/O histogram behind
    /// [`AllocationMap::response_time`]).
    pub fn access_histogram(&self, region: &BucketRegion) -> Vec<u64> {
        let mut per_disk = vec![0u64; self.m as usize];
        for bucket in region.iter() {
            let id = self.space.linearize_unchecked(bucket.as_slice());
            per_disk[self.disks[id as usize] as usize] += 1;
        }
        per_disk
    }

    /// As [`AllocationMap::access_histogram`], written into a caller-owned
    /// buffer (cleared first) so sweep loops allocate nothing per query.
    /// Reads the table one run of the region at a time
    /// (`AllocationMap::for_each_disk_run`).
    pub fn access_histogram_into(&self, region: &BucketRegion, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.m as usize, 0);
        self.for_each_disk_run(region, |disks| {
            for &d in disks {
                out[d as usize] += 1;
            }
        });
    }

    /// Calls `f` with the disks of `region`'s buckets, one contiguous
    /// slice of the table per run along the last dimension
    /// ([`BucketRegion::for_each_run`]), in row-major order.
    pub(crate) fn for_each_disk_run(&self, region: &BucketRegion, mut f: impl FnMut(&[u32])) {
        region.for_each_run(&self.space, |start, len| {
            f(&self.disks[start as usize..(start + len) as usize]);
        });
    }

    /// Static load statistics over the whole grid.
    pub fn load_stats(&self) -> LoadStats {
        let mut counts = vec![0u64; self.m as usize];
        for &d in &self.disks {
            counts[d as usize] += 1;
        }
        LoadStats::from_counts(counts)
    }

    /// Fraction of buckets on which two allocations agree (diagnostic for
    /// comparing methods).
    pub fn agreement(&self, other: &AllocationMap) -> f64 {
        assert_eq!(self.disks.len(), other.disks.len(), "grids differ");
        if self.disks.is_empty() {
            return 1.0;
        }
        let same = self
            .disks
            .iter()
            .zip(&other.disks)
            .filter(|(a, b)| a == b)
            .count();
        same as f64 / self.disks.len() as f64
    }
}

impl DeclusteringMethod for AllocationMap {
    fn name(&self) -> &'static str {
        self.name
    }

    fn num_disks(&self) -> u32 {
        self.m
    }

    #[inline]
    fn disk_of(&self, bucket: &[u32]) -> DiskId {
        let id = self.space.linearize_unchecked(bucket);
        DiskId(self.disks[id as usize])
    }
}

/// Summary of how many buckets each disk holds.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadStats {
    /// Buckets per disk.
    pub counts: Vec<u64>,
    /// Lightest disk.
    pub min: u64,
    /// Heaviest disk.
    pub max: u64,
    /// Mean buckets per disk.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl LoadStats {
    fn from_counts(counts: Vec<u64>) -> Self {
        let n = counts.len().max(1) as f64;
        let min = counts.iter().copied().min().unwrap_or(0);
        let max = counts.iter().copied().max().unwrap_or(0);
        let mean = counts.iter().sum::<u64>() as f64 / n;
        let var = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        LoadStats {
            counts,
            min,
            max,
            mean,
            stddev: var.sqrt(),
        }
    }

    /// Max-over-min imbalance; 1.0 is perfect (guards `min == 0` with
    /// `f64::INFINITY`).
    pub fn imbalance(&self) -> f64 {
        if self.min == 0 {
            if self.max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.max as f64 / self.min as f64
        }
    }
}

/// Convenience: materialize a method and return its response time for one
/// region. Prefer building an [`AllocationMap`] once when evaluating many
/// queries.
pub fn one_shot_response_time(method: &dyn DeclusteringMethod, region: &BucketRegion) -> u64 {
    let mut per_disk = vec![0u64; method.num_disks() as usize];
    for bucket in region.iter() {
        per_disk[method.disk_of(bucket.as_slice()).index()] += 1;
    }
    per_disk.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskModulo, RoundRobin};
    use decluster_grid::RangeQuery;

    fn grid8() -> GridSpace {
        GridSpace::new_2d(8, 8).unwrap()
    }

    #[test]
    fn materialization_matches_method() {
        let g = grid8();
        let dm = DiskModulo::new(&g, 4).unwrap();
        let map = AllocationMap::from_method(&g, &dm).unwrap();
        for b in g.iter() {
            assert_eq!(map.disk_of(b.as_slice()), dm.disk_of(b.as_slice()));
        }
        assert_eq!(map.name(), "DM");
        assert_eq!(map.num_disks(), 4);
    }

    #[test]
    fn response_time_is_max_per_disk() {
        let g = grid8();
        let dm = DiskModulo::new(&g, 4).unwrap();
        let map = AllocationMap::from_method(&g, &dm).unwrap();
        // A 1x4 row query under DM touches disks (r+c) mod 4 for c=0..4:
        // all four disks once -> RT 1.
        let row = RangeQuery::new([0, 0], [0, 3]).unwrap().region(&g).unwrap();
        assert_eq!(map.response_time(&row), 1);
        // An anti-diagonal-aligned square 2x2 starting at <0,0>: sums
        // 0,1,1,2 -> disk1 twice -> RT 2.
        let sq = RangeQuery::new([0, 0], [1, 1]).unwrap().region(&g).unwrap();
        assert_eq!(map.response_time(&sq), 2);
        let hist = map.access_histogram(&sq);
        assert_eq!(hist.iter().sum::<u64>(), 4);
        assert_eq!(hist[1], 2);
    }

    #[test]
    fn one_shot_matches_materialized() {
        let g = grid8();
        let dm = DiskModulo::new(&g, 3).unwrap();
        let map = AllocationMap::from_method(&g, &dm).unwrap();
        let r = RangeQuery::new([1, 2], [5, 6]).unwrap().region(&g).unwrap();
        assert_eq!(one_shot_response_time(&dm, &r), map.response_time(&r));
    }

    #[test]
    fn from_table_validates() {
        let g = GridSpace::new_2d(2, 2).unwrap();
        assert!(AllocationMap::from_table(&g, 2, vec![0, 1, 1, 0]).is_ok());
        assert!(AllocationMap::from_table(&g, 2, vec![0, 1, 2, 0]).is_err());
        assert!(AllocationMap::from_table(&g, 2, vec![0, 1]).is_err());
    }

    #[test]
    fn load_stats_balanced_round_robin() {
        let g = grid8();
        let rr = RoundRobin::new(&g, 4).unwrap();
        let map = AllocationMap::from_method(&g, &rr).unwrap();
        let stats = map.load_stats();
        assert_eq!(stats.counts, vec![16, 16, 16, 16]);
        assert_eq!(stats.min, 16);
        assert_eq!(stats.max, 16);
        assert!((stats.mean - 16.0).abs() < 1e-12);
        assert_eq!(stats.stddev, 0.0);
        assert_eq!(stats.imbalance(), 1.0);
    }

    #[test]
    fn load_stats_skewed() {
        let g = GridSpace::new_2d(2, 2).unwrap();
        let map = AllocationMap::from_table(&g, 2, vec![0, 0, 0, 1]).unwrap();
        let stats = map.load_stats();
        assert_eq!(stats.counts, vec![3, 1]);
        assert_eq!(stats.imbalance(), 3.0);
        assert!(stats.stddev > 0.0);
    }

    #[test]
    fn imbalance_with_empty_disk_is_infinite() {
        let g = GridSpace::new_2d(2, 2).unwrap();
        let map = AllocationMap::from_table(&g, 3, vec![0, 0, 1, 1]).unwrap();
        assert!(map.load_stats().imbalance().is_infinite());
    }

    #[test]
    fn agreement_reflexive_and_partial() {
        let g = GridSpace::new_2d(2, 2).unwrap();
        let a = AllocationMap::from_table(&g, 2, vec![0, 1, 0, 1]).unwrap();
        let b = AllocationMap::from_table(&g, 2, vec![0, 1, 1, 0]).unwrap();
        assert_eq!(a.agreement(&a), 1.0);
        assert_eq!(a.agreement(&b), 0.5);
    }

    #[test]
    fn scratch_variants_match_allocating_paths() {
        let g = grid8();
        let dm = DiskModulo::new(&g, 4).unwrap();
        let map = AllocationMap::from_method(&g, &dm).unwrap();
        let mut scratch = crate::Scratch::new();
        let mut hist = vec![99u64; 1]; // wrong size on purpose: must be resized
        for (lo, hi) in [([0, 0], [0, 3]), ([1, 2], [5, 6]), ([0, 0], [7, 7])] {
            let r = RangeQuery::new(lo, hi).unwrap().region(&g).unwrap();
            assert_eq!(
                map.response_time_with(&r, &mut scratch),
                map.response_time(&r)
            );
            map.access_histogram_into(&r, &mut hist);
            assert_eq!(hist, map.access_histogram(&r));
        }
    }

    /// A broken method: every bucket on disk `num_disks()`.
    struct OutOfRange;

    impl DeclusteringMethod for OutOfRange {
        fn name(&self) -> &'static str {
            "BROKEN"
        }

        fn num_disks(&self) -> u32 {
            2
        }

        fn disk_of(&self, _bucket: &[u32]) -> DiskId {
            DiskId(2)
        }
    }

    #[test]
    #[should_panic(expected = "BROKEN returned disk2 with only 2 disks")]
    fn from_method_panics_on_out_of_range_disk() {
        let _ = AllocationMap::from_method(&grid8(), &OutOfRange);
    }

    #[test]
    fn full_grid_response_time_equals_max_load() {
        let g = grid8();
        let dm = DiskModulo::new(&g, 5).unwrap();
        let map = AllocationMap::from_method(&g, &dm).unwrap();
        let full = BucketRegion::full(&g);
        assert_eq!(map.response_time(&full), map.load_stats().max);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{MethodKind, MethodRegistry};
    use decluster_grid::GridDirectory;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both materializations against a per-bucket `disk_of` walk over
        /// `space.iter()`, for every method that constructs on the grid.
        #[test]
        fn materializations_match_a_per_bucket_walk(
            sides in prop::collection::vec(1u32..=12, 1..5),
            m in 1u32..=20,
            seed in any::<u64>(),
        ) {
            let space = GridSpace::new(sides).unwrap();
            let registry = MethodRegistry::with_seed(seed);
            for kind in MethodKind::ALL {
                let Ok(method) = registry.build(kind, &space, m) else {
                    continue;
                };
                let walked: Vec<u32> = space
                    .iter()
                    .map(|b| method.disk_of(b.as_slice()).0)
                    .collect();
                let map = AllocationMap::from_method(&space, method.as_ref()).unwrap();
                prop_assert_eq!(map.table(), walked.as_slice(), "{:?}", kind);

                let built =
                    GridDirectory::build(space.clone(), m, |b| method.disk_of(b.as_slice()));
                let restored = GridDirectory::from_table(space.clone(), m, &walked).unwrap();
                prop_assert_eq!(&built, &restored, "{:?}", kind);
                // Pages count up per disk in linear bucket order.
                let mut per_disk = vec![Vec::new(); m as usize];
                for (id, &d) in walked.iter().enumerate() {
                    let page = built.lookup_linear(id as u64).unwrap();
                    prop_assert_eq!(page.disk, DiskId(d));
                    prop_assert_eq!(page.page, per_disk[d as usize].len() as u64);
                    per_disk[d as usize].push(id as u64);
                }
                for (d, ids) in per_disk.iter().enumerate() {
                    prop_assert_eq!(built.buckets_on_disk(DiskId(d as u32)), ids.as_slice());
                }
            }
        }
    }
}
