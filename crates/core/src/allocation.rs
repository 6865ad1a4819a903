use crate::{DeclusteringMethod, MethodError, Result};
use decluster_grid::{BucketRegion, DiskId, GridSpace};

/// The most buckets a one-`u32`-per-bucket disk table may cover: 2^28
/// cells are 1 GiB, the cap [`crate::DiskCounts::build`] also puts on its
/// table.
const MAX_TABLE_BUCKETS: u64 = 1 << 28;

/// The length of a disk table over `space`, checked against the 1 GiB
/// cap before anything is allocated: a failed allocation aborts the
/// process, and a host that overcommits memory grants a huge reservation
/// that the fill then touches in full.
///
/// # Errors
/// [`MethodError::UnsupportedGrid`], naming `method`, when the grid has
/// more than 2^28 buckets.
pub(crate) fn table_len(space: &GridSpace, method: &'static str) -> Result<usize> {
    let buckets = space.num_buckets();
    if buckets > MAX_TABLE_BUCKETS {
        return Err(MethodError::UnsupportedGrid {
            method,
            reason: format!(
                "{buckets} buckets; a disk table holds at most {MAX_TABLE_BUCKETS} (1 GiB)"
            ),
        });
    }
    Ok(buckets as usize)
}

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
    /// Materializes `method` over `space` through
    /// [`DeclusteringMethod::fill_table`].
    ///
    /// # Errors
    /// [`MethodError::UnsupportedGrid`] if the grid has more than 2^28
    /// buckets (the table would pass 1 GiB); nothing is allocated then.
    ///
    /// # Panics
    /// Panics if the method returns a disk outside `0..num_disks()`, or
    /// fills other than one disk per bucket (a broken
    /// `DeclusteringMethod` contract).
    pub fn from_method(space: &GridSpace, method: &dyn DeclusteringMethod) -> Result<Self> {
        let m = method.num_disks();
        let total = table_len(space, "AllocationMap")?;
        let mut disks = Vec::with_capacity(total);
        method.fill_table(space, &mut disks);
        assert_eq!(
            disks.len(),
            total,
            "{} filled a table of the wrong length",
            method.name()
        );
        let top = disks.iter().copied().fold(0, u32::max);
        assert!(
            top < m,
            "{} returned {} with only {m} disks",
            method.name(),
            DiskId(top)
        );
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
            return Err(MethodError::UnsupportedGrid {
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

    fn fill_table(&self, space: &GridSpace, out: &mut Vec<u32>) {
        debug_assert_eq!(space, &self.space);
        out.extend_from_slice(&self.disks);
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
    fn tables_past_one_gib_are_refused_before_allocating() {
        // 2^28 buckets is the largest table; checking the length
        // allocates nothing.
        let at_cap = GridSpace::new_2d(1 << 14, 1 << 14).unwrap();
        assert_eq!(table_len(&at_cap, "X"), Ok(1 << 28));
        for dims in [vec![1 << 14, (1 << 14) + 1], vec![100_000, 100_000]] {
            let g = GridSpace::new(dims).unwrap();
            let dm = DiskModulo::new(&g, 16).unwrap();
            let err = AllocationMap::from_method(&g, &dm).unwrap_err();
            assert!(
                matches!(
                    err,
                    MethodError::UnsupportedGrid {
                        method: "AllocationMap",
                        ..
                    }
                ),
                "{err}"
            );
            assert!(err.to_string().contains("1 GiB"), "{err}");
        }
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
    use crate::{FieldwiseXor, GeneralizedDiskModulo, MethodKind, MethodRegistry};
    use decluster_grid::GridDirectory;
    use proptest::prelude::*;

    /// The per-bucket reference materialization: `disk_of` over
    /// `space.iter()`, each disk checked against `num_disks()`.
    fn reference_table(space: &GridSpace, method: &dyn DeclusteringMethod) -> Vec<u32> {
        space
            .iter()
            .map(|b| {
                let d = method.disk_of(b.as_slice()).0;
                assert!(d < method.num_disks(), "{} returned disk{d}", method.name());
                d
            })
            .collect()
    }

    /// `fill_table` (appending after an entry already in the buffer),
    /// `from_method` and `GridDirectory::build` against the reference.
    fn check_materializations(space: &GridSpace, method: &dyn DeclusteringMethod) {
        let name = method.name();
        let m = method.num_disks();
        let walked = reference_table(space, method);
        let mut filled = vec![u32::MAX];
        method.fill_table(space, &mut filled);
        assert_eq!(filled[0], u32::MAX, "{name} dropped what the buffer held");
        assert_eq!(&filled[1..], walked.as_slice(), "{name} fill_table");
        let map = AllocationMap::from_method(space, method).unwrap();
        assert_eq!(map.table(), walked.as_slice(), "{name} from_method");

        let built = GridDirectory::build(space.clone(), m, |b| method.disk_of(b.as_slice()));
        let restored = GridDirectory::from_table(space.clone(), m, &walked).unwrap();
        assert_eq!(&built, &restored, "{name}");
        // Pages count up per disk in linear bucket order.
        let mut per_disk = vec![Vec::new(); m as usize];
        for (id, &d) in walked.iter().enumerate() {
            let page = built.lookup_linear(id as u64).unwrap();
            assert_eq!(page.disk, DiskId(d));
            assert_eq!(page.page, per_disk[d as usize].len() as u64);
            per_disk[d as usize].push(id as u64);
        }
        for (d, ids) in per_disk.iter().enumerate() {
            assert_eq!(built.buckets_on_disk(DiskId(d as u32)), ids.as_slice());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every registry kind, plain FX, ExFX and GDM with arbitrary
        /// coefficients on grids of any sides (the registry's FX runs
        /// ExFX whenever a side is below `M`), and the materialized map
        /// itself.
        #[test]
        fn materializations_match_a_per_bucket_walk(
            sides in prop::collection::vec(1u32..=12, 1..5),
            m in 1u32..=20,
            seed in any::<u64>(),
            coefficients in prop::collection::vec(any::<u64>(), 4..5),
        ) {
            let space = GridSpace::new(sides).unwrap();
            let registry = MethodRegistry::with_seed(seed);
            for kind in MethodKind::ALL {
                if let Ok(method) = registry.build(kind, &space, m) {
                    check_materializations(&space, method.as_ref());
                }
            }
            check_materializations(&space, &FieldwiseXor::plain(&space, m).unwrap());
            // One disk more than the widest side engages ExFX on every grid.
            let wide = space.dims().iter().max().unwrap() + 1;
            let exfx = FieldwiseXor::new(&space, wide).unwrap();
            assert!(exfx.is_extended());
            check_materializations(&space, &exfx);
            let coefficients = coefficients[..space.k()].to_vec();
            let gdm = GeneralizedDiskModulo::new(&space, m, coefficients).unwrap();
            check_materializations(&space, &gdm);
            let map = AllocationMap::from_method(&space, &gdm).unwrap();
            check_materializations(&space, &map);
        }

        /// Every kind on power-of-two grids and disk counts, where ECC
        /// constructs.
        #[test]
        fn power_of_two_materializations_match_a_per_bucket_walk(
            bits in prop::collection::vec(0u32..=3, 1..5),
            r in 0u32..=5,
            seed in any::<u64>(),
        ) {
            let space = GridSpace::new(bits.iter().map(|&b| 1u32 << b).collect::<Vec<_>>()).unwrap();
            let registry = MethodRegistry::with_seed(seed);
            for kind in MethodKind::ALL {
                if let Ok(method) = registry.build(kind, &space, 1 << r) {
                    check_materializations(&space, method.as_ref());
                }
            }
        }
    }
}
