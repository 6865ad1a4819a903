use crate::traits::{fill_rows, Fold};
use crate::{DeclusteringMethod, MethodError, Result};
use decluster_grid::{DiskId, GridSpace};

/// Disk Modulo (DM) / Coordinate Modulo Declustering (CMD).
///
/// Du & Sobolewski's original proposal (TODS 1982), independently analyzed
/// as CMD by Li, Srivastava & Rotem (VLDB 1992): bucket `<i₁, …, i_k>`
/// goes to disk `(i₁ + i₂ + … + i_k) mod M`.
///
/// Strictly optimal for all partial-match queries with exactly one
/// unspecified attribute, and for all partial-match queries with an
/// unspecified attribute `i` such that `d_i mod M = 0` (see
/// `decluster-theory::partial_match`). The '94 study finds it weakest on
/// small range queries and competitive on large ones.
#[derive(Clone, Debug)]
pub struct DiskModulo {
    m: u32,
    k: usize,
}

impl DiskModulo {
    /// Creates a DM instance for `space` over `m` disks.
    ///
    /// DM applies to every grid; only `m == 0` is rejected.
    ///
    /// # Errors
    /// [`MethodError::ZeroDisks`] when `m == 0`.
    pub fn new(space: &GridSpace, m: u32) -> Result<Self> {
        if m == 0 {
            return Err(MethodError::ZeroDisks);
        }
        Ok(DiskModulo { m, k: space.k() })
    }

    /// Grid dimensionality this instance was built for.
    pub fn dims(&self) -> usize {
        self.k
    }
}

impl DeclusteringMethod for DiskModulo {
    fn name(&self) -> &'static str {
        "DM"
    }

    fn num_disks(&self) -> u32 {
        self.m
    }

    #[inline]
    fn disk_of(&self, bucket: &[u32]) -> DiskId {
        debug_assert_eq!(bucket.len(), self.k);
        let sum: u64 = bucket.iter().map(|&c| u64::from(c)).sum();
        DiskId((sum % u64::from(self.m)) as u32)
    }

    fn fill_table(&self, space: &GridSpace, out: &mut Vec<u32>) {
        fill_rows(space, Fold::AddMod(self.m), |_, c| c % self.m, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decluster_grid::BucketCoord;

    #[test]
    fn assigns_coordinate_sum_mod_m() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&g, 5).unwrap();
        assert_eq!(dm.disk_of(&[0, 0]), DiskId(0));
        assert_eq!(dm.disk_of(&[2, 3]), DiskId(0));
        assert_eq!(dm.disk_of(&[7, 7]), DiskId(4));
        assert_eq!(dm.name(), "DM");
        assert_eq!(dm.num_disks(), 5);
    }

    #[test]
    fn rejects_zero_disks() {
        let g = GridSpace::new_2d(4, 4).unwrap();
        assert_eq!(DiskModulo::new(&g, 0).unwrap_err(), MethodError::ZeroDisks);
    }

    #[test]
    fn diagonal_buckets_share_a_disk() {
        // DM's signature: anti-diagonals i+j = const are co-located.
        let g = GridSpace::new_2d(6, 6).unwrap();
        let dm = DiskModulo::new(&g, 6).unwrap();
        for s in 0..6u32 {
            let disks: Vec<DiskId> = (0..=s).map(|i| dm.disk_of(&[i, s - i])).collect();
            assert!(disks.windows(2).all(|w| w[0] == w[1]), "antidiagonal {s}");
        }
    }

    #[test]
    fn row_is_a_permutation_of_disks_when_d_multiple_of_m() {
        // With d_i = 8 and M = 4, each row uses each disk exactly d/M times.
        let g = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&g, 4).unwrap();
        for row in 0..8u32 {
            let mut counts = [0u32; 4];
            for col in 0..8u32 {
                counts[dm.disk_of(&[row, col]).index()] += 1;
            }
            assert_eq!(counts, [2, 2, 2, 2]);
        }
    }

    #[test]
    fn works_in_three_dimensions() {
        let g = GridSpace::new_cube(3, 4).unwrap();
        let dm = DiskModulo::new(&g, 3).unwrap();
        assert_eq!(dm.disk_of(&[1, 2, 3]), DiskId(0));
        assert_eq!(dm.disk_of(&[3, 3, 3]), DiskId(0));
        assert_eq!(dm.disk_of(&[0, 0, 1]), DiskId(1));
    }

    #[test]
    fn more_disks_than_buckets_is_legal() {
        let g = GridSpace::new_2d(2, 2).unwrap();
        let dm = DiskModulo::new(&g, 100).unwrap();
        // Sums 0..=2 only: most disks simply stay empty.
        for b in g.iter() {
            assert!(dm.disk_of(b.as_slice()).0 < 100);
        }
        let _ = BucketCoord::origin(2);
    }
}
