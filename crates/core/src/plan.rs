//! Per-disk page counts for a [`GridDirectory`].
//!
//! The multi-user simulator's closed-loop, open-loop, and degraded loops
//! never look at page *identities* — they only need "how many pages must
//! disk `d` fetch for this query", i.e. the lengths of the I/O plan's
//! per-disk groups. [`PlanCounts`] answers exactly that with zero
//! allocation per query, on one of two paths chosen by the region's
//! shape:
//!
//! * a region of at most `2^k` buckets — no more than its corner plan has
//!   rows — is counted by walking its buckets in the allocation table,
//!   one contiguous run along the last dimension at a time
//!   ([`BucketRegion::for_each_run`]);
//! * a larger region is counted by the [`DiskCounts`] prefix-sum kernel
//!   in `O(M · 2^k)`, whatever its area.
//!
//! Correctness rests on a [`GridDirectory::build`] invariant: pages are
//! assigned per disk in row-major bucket order, so the number of pages a
//! region touches on disk `d` equals the number of the region's buckets
//! allocated to `d` — the access histogram of the directory's disk table.

use crate::{AllocationMap, DeclusteringMethod, DiskCounts, PlanCache, Scratch};
use decluster_grid::{BucketRegion, GridDirectory};

/// Per-disk page-count oracle for a directory: a table walk for small
/// regions, a cached prefix-sum kernel for large ones, and the walk for
/// every region on grids too large to materialize a kernel table.
///
/// Build once per directory, then call [`PlanCounts::counts_into`] or
/// [`PlanCounts::sparse_counts_into`] per query with caller-owned
/// buffers — nothing is allocated per query on any path once the buffers
/// have grown.
#[derive(Clone, Debug)]
pub struct PlanCounts {
    kernel: Option<DiskCounts>,
    fallback: AllocationMap,
}

/// Whether `region` is counted by walking its buckets rather than
/// through the kernel: it has at most `2^k` buckets, so the walk reads
/// no more table entries than the kernel's `2^k` corner rows (each `M`
/// lanes wide). The extent product stops as soon as it passes `2^k`,
/// so a large region costs the check one or two multiplies.
fn walks(region: &BucketRegion) -> bool {
    let (lo, hi) = (region.lo().as_slice(), region.hi().as_slice());
    let Some(corners) = 1u64.checked_shl(lo.len() as u32) else {
        return true;
    };
    let mut buckets = 1u64;
    for (&l, &h) in lo.iter().zip(hi) {
        buckets *= u64::from(h - l) + 1;
        if buckets > corners {
            return false;
        }
    }
    true
}

impl PlanCounts {
    /// Snapshots `dir`'s disk table and builds the count kernel over it.
    ///
    /// Falls back to the naive per-bucket walk (still allocation-free per
    /// query) when the `buckets × disks` table is too large to build; the
    /// choice is observable via [`PlanCounts::kernel_backed`].
    pub fn build(dir: &GridDirectory) -> Self {
        let map = AllocationMap::from_table(dir.space(), dir.num_disks(), dir.disk_table())
            .expect("directory disk table is grid-shaped by construction");
        let kernel = map.disk_counts().ok();
        PlanCounts {
            kernel,
            fallback: map,
        }
    }

    /// Warm-start constructor: snapshots `dir`'s disk table but adopts
    /// `kernel` (typically loaded from a persisted
    /// [`crate::KernelCache`] image) instead of rebuilding it, so no
    /// grid walk happens. With `kernel == None` this is the naive
    /// fallback, as when the table is too large to build.
    ///
    /// # Panics
    /// Panics if `kernel`'s disk count differs from `dir`'s — a loaded
    /// image must already have been revalidated against the directory.
    pub fn with_kernel(dir: &GridDirectory, kernel: Option<DiskCounts>) -> Self {
        let map = AllocationMap::from_table(dir.space(), dir.num_disks(), dir.disk_table())
            .expect("directory disk table is grid-shaped by construction");
        if let Some(k) = &kernel {
            assert_eq!(
                k.num_disks(),
                map.num_disks(),
                "adopted kernel disk count does not match the directory"
            );
        }
        PlanCounts {
            kernel,
            fallback: map,
        }
    }

    /// The compiled kernel, when the grid admitted one (for exporting
    /// into a [`crate::KernelCache`]).
    pub fn kernel(&self) -> Option<&DiskCounts> {
        self.kernel.as_ref()
    }

    /// The materialized allocation backing this oracle (the kernel
    /// image's revalidation identity is computed from it).
    pub fn allocation(&self) -> &AllocationMap {
        &self.fallback
    }

    /// Disks (`M`).
    pub fn num_disks(&self) -> u32 {
        self.fallback.num_disks()
    }

    /// Whether regions of more than `2^k` buckets are counted by the
    /// prefix-sum kernel (as opposed to the naive fallback walk).
    pub fn kernel_backed(&self) -> bool {
        self.kernel.is_some()
    }

    /// Heap footprint of the kernel table in bytes (0 on the fallback).
    pub fn table_bytes(&self) -> usize {
        self.kernel.as_ref().map_or(0, DiskCounts::table_bytes)
    }

    /// Writes the number of pages each disk must fetch for `region` into
    /// `out` (cleared first; `out[d]` == `io_plan` group length for `d`)
    /// and returns the total page count across disks (== the region's
    /// bucket count).
    ///
    /// A region of at most `2^k` buckets is walked in the allocation
    /// table; a larger one goes through the kernel and `scratch`'s plan
    /// slot, so repeated shapes amortize corner derivation exactly like
    /// RT scoring does.
    pub fn counts_into(
        &self,
        region: &BucketRegion,
        scratch: &mut Scratch,
        out: &mut Vec<u64>,
    ) -> u64 {
        match &self.kernel {
            Some(k) if !walks(region) => k.access_histogram_with(region, scratch, out),
            _ => self.fallback.access_histogram_into(region, out),
        }
        out.iter().sum()
    }

    /// The serving loop's entry point: writes `region`'s per-disk page
    /// counts into `row` as `(disk, pages)` pairs in disk order, one per
    /// disk the region touches (cleared first), and returns the total.
    ///
    /// A region of at most `2^k` buckets is walked in the allocation
    /// table and its disks sorted, so it neither probes `plans` nor
    /// clears and scans an `M`-wide histogram. A larger one goes through
    /// the kernel, its corner plan resolved through the cross-query
    /// [`PlanCache`] (one probe per region), since arrivals interleave
    /// shapes that a one-slot cache would thrash on.
    pub fn sparse_counts_into(
        &self,
        region: &BucketRegion,
        plans: &mut PlanCache,
        row: &mut Vec<(u32, u64)>,
    ) -> u64 {
        row.clear();
        match &self.kernel {
            _ if walks(region) => self.walk_sorted(region, row),
            Some(k) => k.sparse_histogram_cached(region, plans, row),
            None => self.walk_dense(region, row),
        }
        row.iter().map(|&(_, pages)| pages).sum()
    }

    /// The walked row: one `(disk, 1)` pair per bucket, sorted by disk
    /// and merged. Costs `O(|Q| log |Q|)` and touches no `M`-wide state.
    fn walk_sorted(&self, region: &BucketRegion, row: &mut Vec<(u32, u64)>) {
        self.fallback
            .for_each_disk_run(region, |disks| row.extend(disks.iter().map(|&d| (d, 1))));
        row.sort_unstable_by_key(|&(d, _)| d);
        row.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
    }

    /// The row of a large region when no kernel was built: an `M`-wide
    /// histogram in the row itself, then its zero entries dropped, so
    /// the row holds one entry per disk rather than one per bucket.
    fn walk_dense(&self, region: &BucketRegion, row: &mut Vec<(u32, u64)>) {
        row.extend((0..self.num_disks()).map(|d| (d, 0)));
        self.fallback.for_each_disk_run(region, |disks| {
            for &d in disks {
                row[d as usize].1 += 1;
            }
        });
        row.retain(|&(_, pages)| pages > 0);
    }
}

/// Per-query attribution of a [`SharedScan::absorb`] step.
///
/// `own_pages` is what the query would have read alone; `fresh_pages` is
/// what its absorption actually added to the merged schedule. The
/// difference is the I/O the shared scan saved for this query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShareAttribution {
    /// Pages the query's individual plan touches.
    pub own_pages: u64,
    /// Pages newly added to the merged plan (not already scheduled by an
    /// earlier query in the window).
    pub fresh_pages: u64,
}

impl ShareAttribution {
    /// Pages this query did not have to read because an earlier query in
    /// the window already scheduled them.
    pub fn saved_pages(&self) -> u64 {
        self.own_pages - self.fresh_pages
    }
}

/// Shared-count accumulator: merges the [`IoPlan`]s of a batch window's
/// queries into one deduplicated per-disk page schedule, attributing to
/// each query how many pages it added versus shared.
///
/// The three arenas (incoming plan, merged schedule, swap buffer) are
/// reused across windows, so a warmed accumulator absorbs queries with
/// zero heap allocation — the same contract as [`PlanCounts`].
///
/// [`IoPlan`]: decluster_grid::IoPlan
#[derive(Clone, Debug, Default)]
pub struct SharedScan {
    merged: decluster_grid::IoPlan,
    incoming: decluster_grid::IoPlan,
    swap: decluster_grid::IoPlan,
}

impl SharedScan {
    /// An empty accumulator (call [`SharedScan::begin`] before absorbing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new window over `num_disks` disks, discarding any merged
    /// schedule from the previous window but keeping buffer capacity.
    pub fn begin(&mut self, num_disks: usize) {
        self.merged.reset(num_disks);
    }

    /// Merges `region`'s I/O plan under `dir` into the window's schedule
    /// and reports the query's attribution.
    ///
    /// # Panics
    /// Panics if `dir`'s disk count differs from the `begin` width.
    pub fn absorb(&mut self, dir: &GridDirectory, region: &BucketRegion) -> ShareAttribution {
        dir.io_plan_into(region, &mut self.incoming);
        let before = self.merged.total_pages();
        self.swap.merge_union(&self.merged, &self.incoming);
        std::mem::swap(&mut self.swap, &mut self.merged);
        ShareAttribution {
            own_pages: self.incoming.total_pages() as u64,
            fresh_pages: (self.merged.total_pages() - before) as u64,
        }
    }

    /// The window's merged, deduplicated per-disk schedule so far.
    pub fn merged(&self) -> &decluster_grid::IoPlan {
        &self.merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskModulo, FieldwiseXor};
    use decluster_grid::{GridSpace, IoPlan};

    fn dm_directory(w: u32, h: u32, m: u32) -> GridDirectory {
        let g = GridSpace::new_2d(w, h).unwrap();
        let dm = DiskModulo::new(&g, m).unwrap();
        GridDirectory::build(g, m, |b| dm.disk_of(b.as_slice()))
    }

    #[test]
    fn counts_equal_io_plan_group_lengths() {
        let dir = dm_directory(8, 8, 4);
        let pc = PlanCounts::build(&dir);
        assert!(pc.kernel_backed());
        assert_eq!(pc.num_disks(), 4);
        let mut scratch = Scratch::new();
        let mut counts = Vec::new();
        let mut plan = IoPlan::new();
        let g = dir.space().clone();
        for (lo, hi) in [
            ([0u32, 0u32], [7u32, 7u32]),
            ([1, 1], [3, 6]),
            ([5, 2], [5, 2]),
        ] {
            let r = BucketRegion::new(&g, lo.into(), hi.into()).unwrap();
            let total = pc.counts_into(&r, &mut scratch, &mut counts);
            assert_eq!(total, r.num_buckets(), "returned total is the page sum");
            dir.io_plan_into(&r, &mut plan);
            let derived: Vec<u64> = (0..plan.num_disks())
                .map(|d| plan.disk_pages(d).len() as u64)
                .collect();
            assert_eq!(counts, derived);
        }
    }

    /// Every region of `dir`'s grid, in row-major order of its corners.
    fn every_region(dir: &GridDirectory) -> Vec<BucketRegion> {
        let g = dir.space();
        let mut regions = Vec::new();
        for lo in g.iter() {
            for hi in g.iter() {
                if let Ok(r) = BucketRegion::new(g, lo.clone(), hi) {
                    regions.push(r);
                }
            }
        }
        regions
    }

    /// The nonzero entries of a dense histogram, as `(disk, count)`.
    fn sparse(hist: &[u64]) -> Vec<(u32, u64)> {
        (0u32..)
            .zip(hist.iter().copied())
            .filter(|&(_, c)| c > 0)
            .collect()
    }

    /// The walk, the kernel and the I/O plan's group lengths agree on
    /// every region of a 4-D grid and of an 8×8 grid, on both sides of
    /// the `2^k` rule and on the grids' low edges.
    #[test]
    fn walk_kernel_and_io_plan_agree_on_every_region() {
        let g4 = GridSpace::new(vec![2, 3, 2, 17]).unwrap();
        let fx = FieldwiseXor::new(&g4, 5).unwrap();
        let dir4 = GridDirectory::build(g4, 5, |b| fx.disk_of(b.as_slice()));
        for dir in [dir4, dm_directory(8, 8, 3)] {
            let pc = PlanCounts::build(&dir);
            let kernel = pc.kernel().expect("small grids build a kernel");
            let corners = 1u64 << dir.space().k();
            let (mut scratch, mut plans) = (Scratch::new(), PlanCache::new());
            let (mut counts, mut row, mut walked, mut plan) =
                (Vec::new(), Vec::new(), Vec::new(), IoPlan::new());
            let (mut at_rule, mut past_rule, mut on_edge) = (0, 0, 0);
            for r in every_region(&dir) {
                dir.io_plan_into(&r, &mut plan);
                let want: Vec<u64> = (0..plan.num_disks())
                    .map(|d| plan.disk_pages(d).len() as u64)
                    .collect();
                assert_eq!(kernel.access_histogram(&r), want, "kernel {r:?}");
                for walk in [PlanCounts::walk_sorted, PlanCounts::walk_dense] {
                    walked.clear();
                    walk(&pc, &r, &mut walked);
                    assert_eq!(walked, sparse(&want), "walk {r:?}");
                }
                assert_eq!(
                    pc.counts_into(&r, &mut scratch, &mut counts),
                    r.num_buckets()
                );
                assert_eq!(counts, want, "counts_into {r:?}");
                let total = pc.sparse_counts_into(&r, &mut plans, &mut row);
                assert_eq!((total, &row), (r.num_buckets(), &sparse(&want)));
                at_rule += u32::from(r.num_buckets() == corners);
                past_rule += u32::from(r.num_buckets() == corners + 1);
                on_edge += u32::from(r.lo().as_slice().contains(&0));
            }
            assert!(at_rule > 0 && past_rule > 0 && on_edge > 0);
        }
    }

    /// A region of `2^k` buckets is walked and probes no corner plan; a
    /// region of `2^k + 1` buckets goes through the kernel and probes
    /// the cache once, on the sparse and the dense entry point alike.
    #[test]
    fn only_regions_past_two_to_the_k_probe_the_plan_cache() {
        let dir = dm_directory(8, 8, 4);
        let pc = PlanCounts::build(&dir);
        let g = dir.space().clone();
        let (mut plans, mut row) = (PlanCache::new(), Vec::new());
        let square = BucketRegion::new(&g, [3, 3].into(), [4, 4].into()).unwrap();
        let line = BucketRegion::new(&g, [0, 2].into(), [0, 6].into()).unwrap();
        assert_eq!((square.num_buckets(), line.num_buckets()), (4, 5));
        assert_eq!(pc.sparse_counts_into(&square, &mut plans, &mut row), 4);
        assert_eq!(plans.drain_stats(), (0, 0), "the 2x2 square is walked");
        assert!(plans.is_empty());
        assert_eq!(pc.sparse_counts_into(&line, &mut plans, &mut row), 5);
        assert_eq!(plans.drain_stats(), (0, 1), "the 1x5 line is planned");
        pc.sparse_counts_into(&line, &mut plans, &mut row);
        pc.sparse_counts_into(&square, &mut plans, &mut row);
        assert_eq!(plans.drain_stats(), (1, 0));
        let (mut scratch, mut counts) = (Scratch::new(), Vec::new());
        pc.counts_into(&square, &mut scratch, &mut counts);
        assert_eq!(scratch.drain_plan_stats(), (0, 0), "walked");
        pc.counts_into(&line, &mut scratch, &mut counts);
        assert_eq!(scratch.drain_plan_stats(), (0, 1), "planned");
    }

    #[test]
    fn shared_scan_attributes_overlap_and_dedups() {
        let dir = dm_directory(8, 8, 4);
        let g = dir.space().clone();
        let a = BucketRegion::new(&g, [0, 0].into(), [3, 3].into()).unwrap();
        let b = BucketRegion::new(&g, [2, 2].into(), [5, 5].into()).unwrap();
        let mut scan = SharedScan::new();
        scan.begin(4);
        let first = scan.absorb(&dir, &a);
        assert_eq!(first.own_pages, 16);
        assert_eq!(first.fresh_pages, 16, "first query shares nothing");
        assert_eq!(first.saved_pages(), 0);
        let second = scan.absorb(&dir, &b);
        assert_eq!(second.own_pages, 16);
        // The [2,2]..[3,3] overlap (4 buckets) is already scheduled.
        assert_eq!(second.fresh_pages, 12);
        assert_eq!(second.saved_pages(), 4);
        assert_eq!(scan.merged().total_pages(), 28);
        // The merged schedule equals the per-disk set union of both plans.
        let (mut pa, mut pb) = (IoPlan::new(), IoPlan::new());
        dir.io_plan_into(&a, &mut pa);
        dir.io_plan_into(&b, &mut pb);
        for d in 0..4 {
            let mut expect: Vec<u64> = pa.disk_pages(d).to_vec();
            expect.extend_from_slice(pb.disk_pages(d));
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(scan.merged().disk_pages(d), expect.as_slice());
        }
        // begin() starts the next window from scratch.
        scan.begin(4);
        assert_eq!(scan.merged().total_pages(), 0);
        assert_eq!(scan.absorb(&dir, &a).fresh_pages, 16);
    }

    #[test]
    fn fallback_walk_matches_kernel() {
        let dir = dm_directory(6, 6, 3);
        let kernel_backed = PlanCounts::build(&dir);
        let naive = PlanCounts {
            kernel: None,
            fallback: kernel_backed.fallback.clone(),
        };
        assert!(!naive.kernel_backed());
        assert_eq!(naive.table_bytes(), 0);
        let g = dir.space().clone();
        let r = BucketRegion::new(&g, [1, 0].into(), [4, 5].into()).unwrap();
        let mut scratch = Scratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        kernel_backed.counts_into(&r, &mut scratch, &mut a);
        naive.counts_into(&r, &mut scratch, &mut b);
        assert_eq!(a, b);
        let mut plans = PlanCache::new();
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        kernel_backed.sparse_counts_into(&r, &mut plans, &mut ra);
        naive.sparse_counts_into(&r, &mut plans, &mut rb);
        assert_eq!(ra, rb);
        assert_eq!(ra, sparse(&a));
        assert_eq!(plans.drain_stats(), (0, 1), "only the kernel probes");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{DiskModulo, FieldwiseXor, RandomAlloc, RoundRobin};
    use decluster_grid::{GridSpace, IoPlan};
    use proptest::prelude::*;

    /// Random grid (k in 1..=3, dims ≤ 32), method, and in-grid region —
    /// the same population as the kernel proptests in `prefix.rs`.
    fn grid_method_region() -> impl Strategy<Value = (GridSpace, AllocationMap, BucketRegion)> {
        (proptest::collection::vec(1u32..=32, 1..4), 2u32..=8, 0u8..4).prop_flat_map(
            |(dims, m, which)| {
                let g = GridSpace::new(dims.clone()).unwrap();
                let method: Box<dyn DeclusteringMethod> = match which {
                    0 => Box::new(DiskModulo::new(&g, m).unwrap()),
                    1 => Box::new(FieldwiseXor::new(&g, m).unwrap()),
                    2 => Box::new(RoundRobin::new(&g, m).unwrap()),
                    _ => Box::new(RandomAlloc::new(&g, m, 42).unwrap()),
                };
                let map = AllocationMap::from_method(&g, method.as_ref()).unwrap();
                proptest::collection::vec(0u64..u64::MAX, dims.len()..dims.len() + 1).prop_map(
                    move |raws| {
                        let mut lo = Vec::with_capacity(raws.len());
                        let mut hi = Vec::with_capacity(raws.len());
                        for (raw, &d) in raws.iter().zip(&dims) {
                            let a = (raw % u64::from(d)) as u32;
                            let b = ((raw >> 32) % u64::from(d)) as u32;
                            lo.push(a.min(b));
                            hi.push(a.max(b));
                        }
                        let r = BucketRegion::new(&g, lo.into(), hi.into()).unwrap();
                        (g.clone(), map.clone(), r)
                    },
                )
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Both count paths, dense and sparse, walked or kernel-backed,
        /// equal counts derived from the materialized I/O plan, for any
        /// grid, method, and region.
        #[test]
        fn plan_counts_equal_io_plan_lengths((g, map, r) in grid_method_region()) {
            let dir = GridDirectory::build(g, map.num_disks(), |b| map.disk_of(b.as_slice()));
            let pc = PlanCounts::build(&dir);
            let mut scratch = Scratch::new();
            let mut counts = Vec::new();
            pc.counts_into(&r, &mut scratch, &mut counts);
            let mut plan = IoPlan::new();
            dir.io_plan_into(&r, &mut plan);
            let derived: Vec<u64> = (0..plan.num_disks())
                .map(|d| plan.disk_pages(d).len() as u64)
                .collect();
            let mut row = Vec::new();
            pc.sparse_counts_into(&r, &mut PlanCache::new(), &mut row);
            let nonzero: Vec<(u32, u64)> = (0u32..)
                .zip(derived.iter().copied())
                .filter(|&(_, c)| c > 0)
                .collect();
            prop_assert_eq!(row, nonzero);
            prop_assert_eq!(counts, derived);
            prop_assert_eq!(plan.total_pages() as u64, r.num_buckets());
        }

        /// Shared-scan invariant: absorbing any window of regions yields,
        /// per disk, exactly the sorted deduplicated union of the
        /// individual plans' page groups, and the attribution totals
        /// reconcile (fresh sums to the merged size, own − fresh to the
        /// pages saved).
        #[test]
        fn merged_plan_is_the_deduplicated_union(
            (g, map, r) in grid_method_region(),
            picks in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 1..5),
        ) {
            let dir = GridDirectory::build(g.clone(), map.num_disks(), |b| map.disk_of(b.as_slice()));
            let m = map.num_disks() as usize;
            // Derive a window of regions from the base region's grid.
            let dims: Vec<u32> = g.dims().to_vec();
            let mut window = vec![r];
            for &(lo_raw, hi_raw) in &picks {
                let mut lo = Vec::with_capacity(dims.len());
                let mut hi = Vec::with_capacity(dims.len());
                for (a, &d) in dims.iter().enumerate() {
                    let x = ((lo_raw >> (8 * a)) % u64::from(d)) as u32;
                    let y = ((hi_raw >> (8 * a)) % u64::from(d)) as u32;
                    lo.push(x.min(y));
                    hi.push(x.max(y));
                }
                window.push(BucketRegion::new(&g, lo.into(), hi.into()).unwrap());
            }
            let mut scan = SharedScan::new();
            scan.begin(m);
            let mut fresh_sum = 0u64;
            let mut saved_sum = 0u64;
            for region in &window {
                let att = scan.absorb(&dir, region);
                fresh_sum += att.fresh_pages;
                saved_sum += att.saved_pages();
                prop_assert_eq!(att.own_pages, region.num_buckets());
            }
            // Per-disk: merged group == sorted dedup union of the plans.
            let mut plan = IoPlan::new();
            let mut union: Vec<std::collections::BTreeSet<u64>> =
                vec![std::collections::BTreeSet::new(); m];
            let mut own_sum = 0u64;
            for region in &window {
                dir.io_plan_into(region, &mut plan);
                own_sum += plan.total_pages() as u64;
                for (d, set) in union.iter_mut().enumerate() {
                    set.extend(plan.disk_pages(d).iter().copied());
                }
            }
            for (d, set) in union.iter().enumerate() {
                let expect: Vec<u64> = set.iter().copied().collect();
                prop_assert_eq!(scan.merged().disk_pages(d), expect.as_slice());
            }
            prop_assert_eq!(fresh_sum, scan.merged().total_pages() as u64);
            prop_assert_eq!(saved_sum, own_sum - fresh_sum);
        }
    }
}
