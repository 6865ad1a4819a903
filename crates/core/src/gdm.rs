use crate::traits::{fill_rows, Fold};
use crate::{DeclusteringMethod, MethodError, Result};
use decluster_grid::{DiskId, GridSpace};

/// Generalized Disk Modulo (GDM), Du (BIT 1986).
///
/// Bucket `<i₁, …, i_k>` goes to disk `(Σ cⱼ · iⱼ) mod M` for a fixed
/// integer coefficient vector `c`. DM is the special case `c = (1, …, 1)`;
/// skewed coefficient choices trade partial-match optimality on some
/// attributes for better range-query spread.
///
/// The Binary Disk Modulo (BDM) variant for binary/power-of-two Cartesian
/// product files corresponds to radix coefficients — see
/// [`GeneralizedDiskModulo::bdm`].
#[derive(Clone, Debug)]
pub struct GeneralizedDiskModulo {
    m: u32,
    coefficients: Vec<u64>,
    name: &'static str,
}

impl GeneralizedDiskModulo {
    /// Creates a GDM instance with explicit coefficients (one per grid
    /// dimension).
    ///
    /// # Errors
    /// [`MethodError::ZeroDisks`] when `m == 0`;
    /// [`MethodError::CoefficientMismatch`] when the coefficient count does
    /// not match the grid's dimensionality.
    pub fn new(space: &GridSpace, m: u32, coefficients: Vec<u64>) -> Result<Self> {
        if m == 0 {
            return Err(MethodError::ZeroDisks);
        }
        if coefficients.len() != space.k() {
            return Err(MethodError::CoefficientMismatch {
                expected: space.k(),
                got: coefficients.len(),
            });
        }
        Ok(GeneralizedDiskModulo {
            m,
            // Reduce eagerly so the hot path cannot overflow.
            coefficients: coefficients.into_iter().map(|c| c % u64::from(m)).collect(),
            name: "GDM",
        })
    }

    /// Binary Disk Modulo: GDM whose coefficients are the grid's row-major
    /// radix weights, i.e. the bucket's linearized number mod `M`.
    ///
    /// For the binary Cartesian product files Du studied (`d_i = 2`) the
    /// coefficients are `2^(k-1), …, 2, 1` — the bucket id read as a binary
    /// number.
    ///
    /// # Errors
    /// [`MethodError::ZeroDisks`] when `m == 0`.
    pub fn bdm(space: &GridSpace, m: u32) -> Result<Self> {
        if m == 0 {
            return Err(MethodError::ZeroDisks);
        }
        let mut weights = vec![1u64; space.k()];
        for i in (0..space.k().saturating_sub(1)).rev() {
            // Reduce as we go: (a*b) mod m needs only reduced factors.
            weights[i] = (weights[i + 1] * u64::from(space.dim(i + 1))) % u64::from(m);
        }
        let mut gdm = GeneralizedDiskModulo::new(space, m, weights)?;
        gdm.name = "BDM";
        Ok(gdm)
    }

    /// The (reduced) coefficient vector.
    pub fn coefficients(&self) -> &[u64] {
        &self.coefficients
    }
}

impl DeclusteringMethod for GeneralizedDiskModulo {
    fn name(&self) -> &'static str {
        self.name
    }

    fn num_disks(&self) -> u32 {
        self.m
    }

    #[inline]
    fn disk_of(&self, bucket: &[u32]) -> DiskId {
        debug_assert_eq!(bucket.len(), self.coefficients.len());
        let m = u64::from(self.m);
        let mut acc: u64 = 0;
        for (&c, &x) in self.coefficients.iter().zip(bucket) {
            // c < m and (x mod m) < m, so the product fits in u64 for any
            // m ≤ 2^32 and the running sum stays < 2^65 — reduce each term.
            acc = (acc + c * (u64::from(x) % m)) % m;
        }
        DiskId(acc as u32)
    }

    fn fill_table(&self, space: &GridSpace, out: &mut Vec<u32>) {
        let m = u64::from(self.m);
        let term = |dim: usize, x: u32| (self.coefficients[dim] * (u64::from(x) % m) % m) as u32;
        fill_rows(space, Fold::AddMod(self.m), term, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskModulo;

    #[test]
    fn unit_coefficients_reduce_to_dm() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let gdm = GeneralizedDiskModulo::new(&g, 5, vec![1, 1]).unwrap();
        let dm = DiskModulo::new(&g, 5).unwrap();
        for b in g.iter() {
            assert_eq!(gdm.disk_of(b.as_slice()), dm.disk_of(b.as_slice()));
        }
    }

    #[test]
    fn coefficients_weight_dimensions() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let gdm = GeneralizedDiskModulo::new(&g, 7, vec![1, 2]).unwrap();
        assert_eq!(gdm.disk_of(&[0, 3]), DiskId(6));
        assert_eq!(gdm.disk_of(&[3, 0]), DiskId(3));
        assert_eq!(gdm.disk_of(&[5, 4]), DiskId((5 + 8) % 7));
    }

    #[test]
    fn validation() {
        let g = GridSpace::new_2d(4, 4).unwrap();
        assert_eq!(
            GeneralizedDiskModulo::new(&g, 0, vec![1, 1]).unwrap_err(),
            MethodError::ZeroDisks
        );
        assert_eq!(
            GeneralizedDiskModulo::new(&g, 3, vec![1]).unwrap_err(),
            MethodError::CoefficientMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn large_coefficients_are_reduced() {
        let g = GridSpace::new_2d(4, 4).unwrap();
        let gdm = GeneralizedDiskModulo::new(&g, 3, vec![u64::MAX, 4]).unwrap();
        assert!(gdm.coefficients().iter().all(|&c| c < 3));
        for b in g.iter() {
            assert!(gdm.disk_of(b.as_slice()).0 < 3);
        }
    }

    #[test]
    fn bdm_equals_linearization_mod_m() {
        let g = GridSpace::new(vec![2, 2, 2, 2]).unwrap();
        let bdm = GeneralizedDiskModulo::bdm(&g, 4).unwrap();
        assert_eq!(bdm.name(), "BDM");
        for b in g.iter() {
            let lin = g.linearize(&b).unwrap();
            assert_eq!(bdm.disk_of(b.as_slice()).0 as u64, lin % 4, "bucket {b}");
        }
    }

    #[test]
    fn bdm_on_mixed_radix_grid() {
        let g = GridSpace::new(vec![3, 4, 5]).unwrap();
        let bdm = GeneralizedDiskModulo::bdm(&g, 7).unwrap();
        for b in g.iter() {
            let lin = g.linearize(&b).unwrap();
            assert_eq!(bdm.disk_of(b.as_slice()).0 as u64, lin % 7);
        }
    }

    #[test]
    fn one_dimensional_gdm() {
        let g = GridSpace::new(vec![16]).unwrap();
        let gdm = GeneralizedDiskModulo::new(&g, 4, vec![3]).unwrap();
        assert_eq!(gdm.disk_of(&[5]), DiskId(15 % 4));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn disk_always_in_range(
            m in 1u32..64,
            c0 in any::<u64>(),
            c1 in any::<u64>(),
            x in 0u32..1000,
            y in 0u32..1000,
        ) {
            let g = GridSpace::new_2d(1000, 1000).unwrap();
            let gdm = GeneralizedDiskModulo::new(&g, m, vec![c0, c1]).unwrap();
            prop_assert!(gdm.disk_of(&[x, y]).0 < m);
        }

        #[test]
        fn assignment_is_linear_in_each_coordinate(
            m in 2u32..32, c0 in 0u64..32, c1 in 0u64..32, x in 0u32..100, y in 0u32..100
        ) {
            let g = GridSpace::new_2d(200, 200).unwrap();
            let gdm = GeneralizedDiskModulo::new(&g, m, vec![c0, c1]).unwrap();
            // Moving one step on dimension 0 shifts the disk by c0 mod m.
            let a = gdm.disk_of(&[x, y]).0;
            let b = gdm.disk_of(&[x + 1, y]).0;
            prop_assert_eq!(u64::from(b), (u64::from(a) + c0 % u64::from(m)) % u64::from(m));
        }
    }
}
