use crate::{BucketCoord, BucketRegion, DiskId, GridSpace, Result};

/// Physical placement of one bucket: which disk holds it and at which page
/// position on that disk.
///
/// Page numbers are assigned in row-major bucket order per disk, which is
/// how a bulk-loaded Cartesian product file would be laid out; the
/// simulator uses inter-page distance as a seek-distance proxy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketPage {
    /// Disk holding the bucket.
    pub disk: DiskId,
    /// Zero-based page position on that disk.
    pub page: u64,
}

/// A materialized bucket→(disk, page) directory for a grid, in the style of
/// the grid file's directory.
///
/// The directory is built once from an assignment function (a declustering
/// method) and thereafter answers placement lookups in O(1) and
/// disk-content queries in O(buckets-on-disk).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridDirectory {
    space: GridSpace,
    /// Placement per linear bucket id.
    pages: Vec<BucketPage>,
    /// Linear bucket ids per disk, in page order.
    per_disk: Vec<Vec<u64>>,
}

impl GridDirectory {
    /// Builds a directory by evaluating `assign` on every bucket of
    /// `space` in row-major order, then laying the resulting table out as
    /// [`GridDirectory::from_table`] does.
    ///
    /// `num_disks` fixes the directory width; any assignment ≥ `num_disks`
    /// is a bug in the method and panics (methods guarantee
    /// `disk < num_disks` by construction and tests).
    ///
    /// # Panics
    /// Panics if `assign` returns a disk id outside `0..num_disks`, or if
    /// the grid has more buckets than fit in memory (`usize`).
    pub fn build(
        space: GridSpace,
        num_disks: u32,
        mut assign: impl FnMut(&BucketCoord) -> DiskId,
    ) -> Self {
        let total = usize::try_from(space.num_buckets())
            .expect("grid too large to materialize a directory");
        let mut table = Vec::with_capacity(total);
        space.for_each_bucket(|bucket| {
            let disk = assign(bucket);
            assert!(
                disk.0 < num_disks,
                "declustering method assigned {disk} but only {num_disks} disks exist"
            );
            table.push(disk.0);
        });
        Self::from_table(space, num_disks, &table).expect("one checked disk per bucket")
    }

    /// Builds a directory directly from a disk-assignment table in
    /// linear (row-major) bucket order — the inverse of
    /// [`GridDirectory::disk_table`].
    ///
    /// This is the warm-start constructor: a persisted allocation image
    /// already holds the table, so rebuilding the directory needs no
    /// method evaluation and no per-bucket coordinate materialization.
    /// It lays the table out in two flat passes (count per disk, then
    /// scatter with pre-sized buffers), assigning page numbers in
    /// ascending linear order per disk. [`GridDirectory::build`] ends
    /// here too, so a directory built from a method and one restored from
    /// that method's table are bit-identical.
    ///
    /// # Errors
    /// [`crate::GridError::DimensionMismatch`] if the table length does
    /// not match the grid's bucket count, or if any entry is ≥
    /// `num_disks`.
    pub fn from_table(space: GridSpace, num_disks: u32, table: &[u32]) -> Result<Self> {
        let total = usize::try_from(space.num_buckets())
            .expect("grid too large to materialize a directory");
        if table.len() != total {
            return Err(crate::GridError::DimensionMismatch {
                expected: total,
                got: table.len(),
            });
        }
        let mut loads = vec![0u64; num_disks as usize];
        for &d in table {
            if d >= num_disks {
                return Err(crate::GridError::DimensionMismatch {
                    expected: num_disks as usize,
                    got: d as usize,
                });
            }
            loads[d as usize] += 1;
        }
        let mut per_disk: Vec<Vec<u64>> = loads
            .iter()
            .map(|&n| Vec::with_capacity(n as usize))
            .collect();
        let mut pages = Vec::with_capacity(total);
        for (id, &d) in table.iter().enumerate() {
            let bucket_list = &mut per_disk[d as usize];
            pages.push(BucketPage {
                disk: DiskId(d),
                page: bucket_list.len() as u64,
            });
            bucket_list.push(id as u64);
        }
        Ok(GridDirectory {
            space,
            pages,
            per_disk,
        })
    }

    /// The grid this directory covers.
    pub fn space(&self) -> &GridSpace {
        &self.space
    }

    /// Number of disks.
    pub fn num_disks(&self) -> u32 {
        self.per_disk.len() as u32
    }

    /// Placement of a bucket.
    ///
    /// # Errors
    /// Bounds errors if the bucket lies outside the grid.
    pub fn lookup(&self, bucket: &BucketCoord) -> Result<BucketPage> {
        let id = self.space.linearize(bucket)?;
        Ok(self.pages[id as usize])
    }

    /// Placement by linear bucket id.
    ///
    /// # Errors
    /// [`crate::GridError::LinearOutOfBounds`] for an invalid id.
    pub fn lookup_linear(&self, id: u64) -> Result<BucketPage> {
        // Reuse delinearize purely for its bounds check.
        self.space.delinearize(id)?;
        Ok(self.pages[id as usize])
    }

    /// Linear bucket ids stored on `disk`, in page order.
    ///
    /// Returns an empty slice for a disk id out of range (such a disk holds
    /// nothing by definition).
    pub fn buckets_on_disk(&self, disk: DiskId) -> &[u64] {
        self.per_disk
            .get(disk.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of buckets per disk (the static load vector).
    pub fn load_vector(&self) -> Vec<u64> {
        self.per_disk.iter().map(|v| v.len() as u64).collect()
    }

    /// Fills `plan` with the pages `region` touches, grouped per disk in a
    /// single flat arena. Steady-state this allocates nothing: the arena's
    /// buffers are reused across calls.
    ///
    /// Two passes over the region: one to size the per-disk groups, one to
    /// scatter page numbers into place. Because region iteration visits
    /// buckets in ascending linear order and [`GridDirectory::build`]
    /// assigns pages in that same order, each disk's group comes out sorted
    /// without a sort pass.
    pub fn io_plan_into(&self, region: &BucketRegion, plan: &mut IoPlan) {
        let m = self.per_disk.len();
        plan.offsets.clear();
        plan.offsets.resize(m + 1, 0);
        plan.cursors.clear();
        plan.cursors.resize(m, 0);
        for bucket in region.iter() {
            let id = self.space.linearize_unchecked(bucket.as_slice());
            plan.cursors[self.pages[id as usize].disk.index()] += 1;
        }
        let mut total = 0usize;
        for d in 0..m {
            plan.offsets[d] = total;
            total += plan.cursors[d];
            plan.cursors[d] = plan.offsets[d];
        }
        plan.offsets[m] = total;
        plan.pages.clear();
        plan.pages.resize(total, 0);
        for bucket in region.iter() {
            let id = self.space.linearize_unchecked(bucket.as_slice());
            let bp = self.pages[id as usize];
            let cursor = &mut plan.cursors[bp.disk.index()];
            plan.pages[*cursor] = bp.page;
            *cursor += 1;
        }
        debug_assert!((0..m).all(|d| plan.disk_pages(d).windows(2).all(|w| w[0] < w[1])));
    }

    /// Disk assignment per bucket, in linear (row-major) bucket order.
    ///
    /// This is the raw declustering table behind the directory; consumers
    /// that only need per-disk *counts* (not page identities) can feed it
    /// to a prefix-sum kernel instead of walking regions.
    pub fn disk_table(&self) -> Vec<u32> {
        self.pages.iter().map(|bp| bp.disk.0).collect()
    }
}

/// A flat I/O plan: every page a range query touches, in one contiguous
/// buffer sliced per disk.
///
/// Replaces the allocating `Vec<Vec<u64>>` plan: disk `d`'s (sorted) pages
/// are `pages[offsets[d]..offsets[d + 1]]`. Reusing one `IoPlan` across
/// queries makes plan construction allocation-free once the buffers have
/// grown to the working-set size.
#[derive(Clone, Debug, Default)]
pub struct IoPlan {
    /// Page numbers grouped by disk, each group sorted ascending.
    pages: Vec<u64>,
    /// `num_disks + 1` group boundaries into `pages`.
    offsets: Vec<usize>,
    /// Per-disk scatter cursors, reused by [`GridDirectory::io_plan_into`].
    cursors: Vec<usize>,
}

impl IoPlan {
    /// An empty plan (fill it with [`GridDirectory::io_plan_into`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of disk groups in the last fill (0 before any fill).
    pub fn num_disks(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The sorted pages disk `d` must fetch (empty for `d` out of range).
    pub fn disk_pages(&self, d: usize) -> &[u64] {
        match (self.offsets.get(d), self.offsets.get(d + 1)) {
            (Some(&lo), Some(&hi)) => &self.pages[lo..hi],
            _ => &[],
        }
    }

    /// Total pages across all disks.
    pub fn total_pages(&self) -> usize {
        self.pages.len()
    }

    /// Iterator over per-disk page groups, disk 0 first.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.num_disks()).map(move |d| self.disk_pages(d))
    }

    /// Resets the plan to `num_disks` empty groups, keeping the buffers'
    /// capacity so a warmed plan stays allocation-free.
    pub fn reset(&mut self, num_disks: usize) {
        self.pages.clear();
        self.offsets.clear();
        self.offsets.resize(num_disks + 1, 0);
        self.cursors.clear();
    }

    /// Fills `self` with the order-preserving deduplicated union of `a` and
    /// `b`: per disk, the sorted set union of both page groups.
    ///
    /// Both inputs must cover the same number of disks (a plan freshly
    /// [`reset`](IoPlan::reset) to that width counts). Relies on the
    /// invariant that every group is strictly ascending — which
    /// [`GridDirectory::io_plan_into`] guarantees and this union preserves —
    /// so a two-pointer merge is an exact multiset dedup. Allocation-free
    /// once `self` has grown to the working-set size.
    ///
    /// # Panics
    /// Panics if `a` and `b` have different disk counts.
    pub fn merge_union(&mut self, a: &IoPlan, b: &IoPlan) {
        let m = a.num_disks();
        assert_eq!(
            m,
            b.num_disks(),
            "cannot merge plans over different disk counts"
        );
        self.pages.clear();
        self.offsets.clear();
        self.offsets.reserve(m + 1);
        self.pages.reserve(a.total_pages() + b.total_pages());
        self.cursors.clear();
        self.offsets.push(0);
        for d in 0..m {
            let (xs, ys) = (a.disk_pages(d), b.disk_pages(d));
            let (mut i, mut j) = (0, 0);
            while i < xs.len() && j < ys.len() {
                let (x, y) = (xs[i], ys[j]);
                self.pages.push(x.min(y));
                i += usize::from(x <= y);
                j += usize::from(y <= x);
            }
            self.pages.extend_from_slice(&xs[i..]);
            self.pages.extend_from_slice(&ys[j..]);
            self.offsets.push(self.pages.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_robin_dir() -> GridDirectory {
        let space = GridSpace::new_2d(4, 4).unwrap();
        let s2 = space.clone();
        GridDirectory::build(space, 4, move |b| {
            DiskId((s2.linearize_unchecked(b.as_slice()) % 4) as u32)
        })
    }

    #[test]
    fn build_assigns_sequential_pages_per_disk() {
        let dir = round_robin_dir();
        // Bucket <0,0> is linear 0 -> disk 0 page 0; <1,0> is linear 4 ->
        // disk 0 page 1.
        assert_eq!(
            dir.lookup(&BucketCoord::from([0, 0])).unwrap(),
            BucketPage {
                disk: DiskId(0),
                page: 0
            }
        );
        assert_eq!(
            dir.lookup(&BucketCoord::from([1, 0])).unwrap(),
            BucketPage {
                disk: DiskId(0),
                page: 1
            }
        );
        assert_eq!(
            dir.lookup(&BucketCoord::from([0, 1])).unwrap(),
            BucketPage {
                disk: DiskId(1),
                page: 0
            }
        );
    }

    #[test]
    fn load_vector_is_balanced_for_round_robin() {
        let dir = round_robin_dir();
        assert_eq!(dir.load_vector(), vec![4, 4, 4, 4]);
        assert_eq!(dir.num_disks(), 4);
    }

    #[test]
    fn buckets_on_disk_in_page_order() {
        let dir = round_robin_dir();
        assert_eq!(dir.buckets_on_disk(DiskId(1)), &[1, 5, 9, 13]);
        assert!(dir.buckets_on_disk(DiskId(9)).is_empty());
    }

    #[test]
    fn lookup_errors_out_of_bounds() {
        let dir = round_robin_dir();
        assert!(dir.lookup(&BucketCoord::from([4, 0])).is_err());
        assert!(dir.lookup_linear(16).is_err());
        assert!(dir.lookup_linear(15).is_ok());
    }

    #[test]
    fn flat_io_plan_covers_region_exactly() {
        let dir = round_robin_dir();
        let region = BucketRegion::new(
            dir.space(),
            BucketCoord::from([0, 0]),
            BucketCoord::from([1, 1]),
        )
        .unwrap();
        let mut plan = IoPlan::new();
        dir.io_plan_into(&region, &mut plan);
        assert_eq!(plan.num_disks(), 4);
        assert_eq!(plan.total_pages() as u64, region.num_buckets());
        // Same groups as the nested plan: disks 0 and 1 fetch pages 0 and 1.
        assert_eq!(plan.disk_pages(0), &[0, 1]);
        assert_eq!(plan.disk_pages(1), &[0, 1]);
        assert!(plan.disk_pages(2).is_empty() && plan.disk_pages(3).is_empty());
        assert!(plan.disk_pages(99).is_empty());
        assert_eq!(plan.iter().count(), 4);
    }

    #[test]
    fn flat_io_plan_matches_fresh_plan_when_reused() {
        let dir = round_robin_dir();
        let mut plan = IoPlan::new();
        // Reuse one arena across regions of different sizes and positions;
        // each fill must match a freshly-built plan exactly.
        for (lo, hi) in [
            ([0u32, 0u32], [3u32, 3u32]),
            ([1, 2], [2, 3]),
            ([2, 2], [2, 2]),
        ] {
            let region =
                BucketRegion::new(dir.space(), BucketCoord::from(lo), BucketCoord::from(hi))
                    .unwrap();
            let mut fresh = IoPlan::new();
            dir.io_plan_into(&region, &mut fresh);
            dir.io_plan_into(&region, &mut plan);
            assert_eq!(plan.num_disks(), fresh.num_disks());
            for d in 0..fresh.num_disks() {
                assert_eq!(plan.disk_pages(d), fresh.disk_pages(d));
            }
        }
    }

    #[test]
    fn reset_yields_empty_groups() {
        let dir = round_robin_dir();
        let region = BucketRegion::new(
            dir.space(),
            BucketCoord::from([0, 0]),
            BucketCoord::from([3, 3]),
        )
        .unwrap();
        let mut plan = IoPlan::new();
        dir.io_plan_into(&region, &mut plan);
        assert!(plan.total_pages() > 0);
        plan.reset(4);
        assert_eq!(plan.num_disks(), 4);
        assert_eq!(plan.total_pages(), 0);
        assert!((0..4).all(|d| plan.disk_pages(d).is_empty()));
    }

    #[test]
    fn merge_union_deduplicates_overlapping_plans() {
        let dir = round_robin_dir();
        let a_region = BucketRegion::new(
            dir.space(),
            BucketCoord::from([0, 0]),
            BucketCoord::from([2, 2]),
        )
        .unwrap();
        let b_region = BucketRegion::new(
            dir.space(),
            BucketCoord::from([1, 1]),
            BucketCoord::from([3, 3]),
        )
        .unwrap();
        let (mut a, mut b, mut merged) = (IoPlan::new(), IoPlan::new(), IoPlan::new());
        dir.io_plan_into(&a_region, &mut a);
        dir.io_plan_into(&b_region, &mut b);
        merged.merge_union(&a, &b);
        assert_eq!(merged.num_disks(), 4);
        for d in 0..4 {
            let mut expect: Vec<u64> = a.disk_pages(d).to_vec();
            expect.extend_from_slice(b.disk_pages(d));
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(merged.disk_pages(d), expect.as_slice(), "disk {d}");
        }
        // The overlap ([1,1]..[2,2], 4 buckets) is read once, not twice.
        assert_eq!(merged.total_pages(), a.total_pages() + b.total_pages() - 4);
        // Union against an empty (reset) plan is the identity.
        let mut empty = IoPlan::new();
        empty.reset(4);
        let mut same = IoPlan::new();
        same.merge_union(&a, &empty);
        for d in 0..4 {
            assert_eq!(same.disk_pages(d), a.disk_pages(d));
        }
    }

    #[test]
    #[should_panic(expected = "different disk counts")]
    fn merge_union_rejects_width_mismatch() {
        let mut a = IoPlan::new();
        a.reset(3);
        let mut b = IoPlan::new();
        b.reset(4);
        IoPlan::new().merge_union(&a, &b);
    }

    #[test]
    fn disk_table_matches_lookups() {
        let dir = round_robin_dir();
        let table = dir.disk_table();
        assert_eq!(table.len(), 16);
        for id in 0..16u64 {
            assert_eq!(table[id as usize], dir.lookup_linear(id).unwrap().disk.0);
        }
    }

    #[test]
    fn from_table_matches_build_bit_for_bit() {
        let built = round_robin_dir();
        let table = built.disk_table();
        let restored = GridDirectory::from_table(built.space().clone(), 4, &table).unwrap();
        assert_eq!(restored.space(), built.space());
        assert_eq!(restored.num_disks(), built.num_disks());
        assert_eq!(restored.disk_table(), table);
        assert_eq!(restored.load_vector(), built.load_vector());
        for id in 0..16u64 {
            assert_eq!(
                restored.lookup_linear(id).unwrap(),
                built.lookup_linear(id).unwrap()
            );
        }
        for d in 0..4 {
            assert_eq!(
                restored.buckets_on_disk(DiskId(d)),
                built.buckets_on_disk(DiskId(d))
            );
        }
    }

    #[test]
    fn from_table_rejects_bad_input() {
        let space = GridSpace::new_2d(2, 2).unwrap();
        // Wrong length.
        assert!(GridDirectory::from_table(space.clone(), 2, &[0, 1, 0]).is_err());
        // Disk id out of range.
        assert!(GridDirectory::from_table(space.clone(), 2, &[0, 1, 0, 7]).is_err());
        // Exact fit succeeds.
        assert!(GridDirectory::from_table(space, 2, &[0, 1, 0, 1]).is_ok());
    }

    #[test]
    #[should_panic(expected = "declustering method assigned disk7 but only 2 disks exist")]
    fn build_panics_on_out_of_range_disk() {
        let space = GridSpace::new_2d(2, 2).unwrap();
        let _ = GridDirectory::build(space, 2, |_| DiskId(7));
    }

    #[test]
    fn single_disk_directory() {
        let space = GridSpace::new_2d(3, 3).unwrap();
        let dir = GridDirectory::build(space, 1, |_| DiskId(0));
        assert_eq!(dir.load_vector(), vec![9]);
        assert_eq!(dir.buckets_on_disk(DiskId(0)).len(), 9);
    }
}
