use crate::{DeclusteringMethod, MethodError, Result};
use decluster_grid::{DiskId, GridSpace};
use decluster_hilbert::{HilbertCurve, BLOCK_RANKS};

/// Hilbert Curve Allocation Method (HCAM), Faloutsos & Bhagwat (PDIS
/// 1993).
///
/// The k-dimensional Hilbert curve linearizes the grid's buckets; disks are
/// dealt round-robin along the curve: `disk = H(i₁, …, i_k) mod M`. The
/// curve's clustering property (successive buckets are grid neighbours)
/// means buckets close in space get different disks, which is why the '94
/// study finds HCAM strongest on small/square range queries.
///
/// Grids whose sides are not powers of two are covered by the smallest
/// enclosing power-of-two curve; out-of-grid curve points are skipped, so
/// the round-robin deal stays gap-free over real buckets. The walk
/// materializes a bucket→disk table at construction (`O(2^(k·b))` time,
/// one `u32` per bucket of memory).
#[derive(Clone, Debug)]
pub struct Hcam {
    m: u32,
    space: GridSpace,
    /// Disk per row-major linear bucket id.
    table: Vec<u32>,
}

impl Hcam {
    /// Creates an HCAM instance for `space` over `m` disks by walking the
    /// covering Hilbert curve once.
    ///
    /// # Errors
    /// [`MethodError::ZeroDisks`] when `m == 0`;
    /// [`MethodError::UnsupportedGrid`] when the grid has more than 2^28
    /// buckets (the table would pass 1 GiB); curve construction errors
    /// for degenerate grids.
    pub fn new(space: &GridSpace, m: u32) -> Result<Self> {
        if m == 0 {
            return Err(MethodError::ZeroDisks);
        }
        let total = crate::allocation::table_len(space, "HCAM")?;
        let curve = HilbertCurve::covering(space.dims())?;
        let mut table = vec![0u32; total];
        // Deal disks round-robin over in-grid points: `disk` is the
        // in-grid rank mod `m`.
        let mut disk = 0u32;
        let mut dealt = 0usize;
        let mut walk = curve.blocks();
        let mut ids = [0u64; BLOCK_RANKS];
        let mut inside = [false; BLOCK_RANKS];
        while let Some(block) = walk.next_block() {
            let lanes = block.len();
            ids[..lanes].fill(0);
            inside[..lanes].fill(true);
            // Row-major ids by Horner's rule, one axis at a time. Ids of
            // points outside the grid may wrap; they are never used.
            for (axis, &side) in space.dims().iter().enumerate() {
                let side_u64 = u64::from(side);
                for ((id, ok), &c) in ids.iter_mut().zip(inside.iter_mut()).zip(block.axis(axis)) {
                    *ok &= c < side;
                    *id = id.wrapping_mul(side_u64).wrapping_add(u64::from(c));
                }
            }
            for (&id, &ok) in ids[..lanes].iter().zip(&inside[..lanes]) {
                if ok {
                    table[id as usize] = disk;
                    disk += 1;
                    if disk == m {
                        disk = 0;
                    }
                    dealt += 1;
                }
            }
        }
        debug_assert_eq!(dealt, total);
        Ok(Hcam {
            m,
            space: space.clone(),
            table,
        })
    }

    /// The grid this instance was materialized for.
    pub fn space(&self) -> &GridSpace {
        &self.space
    }
}

impl DeclusteringMethod for Hcam {
    fn name(&self) -> &'static str {
        "HCAM"
    }

    fn num_disks(&self) -> u32 {
        self.m
    }

    #[inline]
    fn disk_of(&self, bucket: &[u32]) -> DiskId {
        let id = self.space.linearize_unchecked(bucket);
        DiskId(self.table[id as usize])
    }

    fn fill_table(&self, space: &GridSpace, out: &mut Vec<u32>) {
        debug_assert_eq!(space, &self.space);
        out.extend_from_slice(&self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table as the point-at-a-time walk over `curve.iter()` deals
    /// it: the reference for the block walk in [`Hcam::new`].
    fn reference_table(space: &GridSpace, m: u32) -> Vec<u32> {
        let curve = HilbertCurve::covering(space.dims()).unwrap();
        let mut table = vec![0u32; space.num_buckets() as usize];
        let mut rank_in_grid: u64 = 0;
        for point in curve.iter() {
            if point.iter().zip(space.dims()).all(|(&c, &d)| c < d) {
                let id = space.linearize_unchecked(&point);
                table[id as usize] = (rank_in_grid % u64::from(m)) as u32;
                rank_in_grid += 1;
            }
        }
        table
    }

    #[test]
    fn block_walk_deals_the_reference_table() {
        for dims in [
            vec![3u32, 5],
            vec![6, 10],
            vec![7, 1],
            vec![1, 1],
            vec![5, 9, 3],
        ] {
            let g = GridSpace::new(dims.clone()).unwrap();
            for m in [1u32, 3, 16, 64] {
                let h = Hcam::new(&g, m).unwrap();
                assert_eq!(h.table, reference_table(&g, m), "{dims:?} m={m}");
            }
        }
        let g = GridSpace::new_cube(4, 16).unwrap();
        assert_eq!(Hcam::new(&g, 64).unwrap().table, reference_table(&g, 64));
    }

    #[test]
    fn rejects_zero_disks() {
        let g = GridSpace::new_2d(4, 4).unwrap();
        assert_eq!(Hcam::new(&g, 0).unwrap_err(), MethodError::ZeroDisks);
    }

    #[test]
    fn rejects_grids_whose_table_passes_one_gib() {
        let g = GridSpace::new_2d(100_000, 100_000).unwrap();
        assert!(matches!(
            Hcam::new(&g, 16).unwrap_err(),
            MethodError::UnsupportedGrid { method: "HCAM", .. }
        ));
    }

    #[test]
    fn load_is_near_perfectly_balanced() {
        // Round-robin along a complete walk: loads differ by at most 1.
        for (dims, m) in [
            (vec![8u32, 8], 5u32),
            (vec![8, 8], 4),
            (vec![6, 10], 7), // non-power-of-two sides
            (vec![4, 4, 4], 6),
        ] {
            let g = GridSpace::new(dims.clone()).unwrap();
            let h = Hcam::new(&g, m).unwrap();
            let mut counts = vec![0u64; m as usize];
            for b in g.iter() {
                counts[h.disk_of(b.as_slice()).index()] += 1;
            }
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(hi - lo <= 1, "dims {dims:?} m {m}: {counts:?}");
        }
    }

    #[test]
    fn consecutive_curve_buckets_get_consecutive_disks() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let m = 5u32;
        let h = Hcam::new(&g, m).unwrap();
        let curve = HilbertCurve::covering(g.dims()).unwrap();
        let mut prev: Option<u32> = None;
        for p in curve.iter() {
            let disk = h.disk_of(&[p[0], p[1]]).0;
            if let Some(pd) = prev {
                assert_eq!(disk, (pd + 1) % m);
            }
            prev = Some(disk);
        }
    }

    #[test]
    fn skips_out_of_grid_points_without_gaps() {
        // A 3x5 grid inside an 8x8 curve: every disk count within 1.
        let g = GridSpace::new_2d(3, 5).unwrap();
        let h = Hcam::new(&g, 4).unwrap();
        let mut counts = [0u64; 4];
        for b in g.iter() {
            counts[h.disk_of(b.as_slice()).index()] += 1;
        }
        assert_eq!(counts.iter().sum::<u64>(), 15);
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(hi - lo <= 1, "{counts:?}");
    }

    #[test]
    fn single_bucket_grid() {
        let g = GridSpace::new(vec![1, 1]).unwrap();
        let h = Hcam::new(&g, 3).unwrap();
        assert_eq!(h.disk_of(&[0, 0]), DiskId(0));
    }

    #[test]
    fn three_dimensions() {
        let g = GridSpace::new_cube(3, 4).unwrap();
        let h = Hcam::new(&g, 8).unwrap();
        let mut counts = vec![0u64; 8];
        for b in g.iter() {
            counts[h.disk_of(b.as_slice()).index()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 8), "{counts:?}");
    }

    #[test]
    fn more_disks_than_buckets() {
        let g = GridSpace::new_2d(2, 2).unwrap();
        let h = Hcam::new(&g, 100).unwrap();
        // Four buckets on four distinct disks (first four along the curve).
        let mut disks: Vec<u32> = g.iter().map(|b| h.disk_of(b.as_slice()).0).collect();
        disks.sort_unstable();
        disks.dedup();
        assert_eq!(disks.len(), 4);
    }
}
