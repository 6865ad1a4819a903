use crate::traits::{fill_rows, Fold};
use crate::{DeclusteringMethod, MethodError, Result};
use decluster_grid::{DiskId, GridSpace};

/// Field-wise eXclusive-or (FX) declustering, Kim & Pramanik (SIGMOD
/// 1988), with the ExFX extension for narrow dimensions.
///
/// Plain FX assigns bucket `<i₁, …, i_k>` to disk
/// `(i₁ ⊕ i₂ ⊕ … ⊕ i_k) mod M`, XORing the binary representations of the
/// coordinate values. The '94 study uses FX whenever every dimension has at
/// least `M` partitions and ExFX otherwise.
///
/// **ExFX** (engaged automatically by [`FieldwiseXor::new`] when some
/// `d_i < M`): the XOR of values all below `M` cannot reach every disk, so
/// each coordinate is placed at its cumulative bit offset within a
/// `ceil(log2 M)`-bit window (rotating on wrap-around) before XORing.
/// Each placement is a per-coordinate bijection; when the coordinate bits
/// fit the window without wrapping, ExFX degenerates to bit concatenation
/// and reaches every disk the grid can reach. (The precise published ExFX
/// table-driven construction is in the SIGMOD'88 paper; see DESIGN.md §4
/// for why this rendering is behaviour-preserving for the study — all the
/// paper's experiments run plain FX.)
#[derive(Clone, Debug)]
pub struct FieldwiseXor {
    m: u32,
    k: usize,
    /// `None` = plain FX; `Some(w)` = ExFX with a `w`-bit window.
    extended_width: Option<u32>,
    /// Per-dimension rotation offsets (cumulative bit widths), used by ExFX.
    dim_offsets: Vec<u32>,
}

impl FieldwiseXor {
    /// Creates an FX instance, selecting plain FX when all `d_i ≥ M` and
    /// ExFX otherwise.
    ///
    /// # Errors
    /// [`MethodError::ZeroDisks`] when `m == 0`.
    pub fn new(space: &GridSpace, m: u32) -> Result<Self> {
        if m == 0 {
            return Err(MethodError::ZeroDisks);
        }
        let needs_extension = space.dims().iter().any(|&d| d < m);
        // Offset of dimension i = total bits of dimensions 0..i.
        let mut dim_offsets = Vec::with_capacity(space.k());
        let mut acc = 0u32;
        for &d in space.dims() {
            dim_offsets.push(acc);
            acc += bits_for(d.max(2));
        }
        Ok(FieldwiseXor {
            m,
            k: space.k(),
            extended_width: needs_extension.then(|| bits_for(m.max(2))),
            dim_offsets,
        })
    }

    /// Forces plain FX regardless of dimension widths (for experiments
    /// that want the unextended method).
    ///
    /// # Errors
    /// [`MethodError::ZeroDisks`] when `m == 0`.
    pub fn plain(space: &GridSpace, m: u32) -> Result<Self> {
        let mut fx = FieldwiseXor::new(space, m)?;
        fx.extended_width = None;
        Ok(fx)
    }

    /// Whether this instance runs the ExFX extension.
    pub fn is_extended(&self) -> bool {
        self.extended_width.is_some()
    }

    /// What coordinate `c` on dimension `dim` XORs into the disk: the
    /// value itself for plain FX, its ExFX field placement otherwise.
    #[inline]
    fn term(&self, dim: usize, c: u32) -> u32 {
        match self.extended_width {
            None => c,
            // Rotate within a window wide enough for both the disk count
            // and this coordinate, so placement stays a bijection even on
            // mixed-width grids.
            Some(width) => {
                let w = width.max(bits_for(c.max(1) + 1));
                Self::rotate_in_window(c, w, self.dim_offsets[dim])
            }
        }
    }

    /// Rotates `value` left by `rot` within a `width`-bit window: the
    /// ExFX field placement. A bijection on the window for any rotation.
    fn rotate_in_window(value: u32, width: u32, rot: u32) -> u32 {
        debug_assert!(width >= 1);
        let mask = if width >= 32 {
            u32::MAX
        } else {
            (1 << width) - 1
        };
        let value = value & mask;
        let rot = rot % width;
        if rot == 0 {
            value
        } else {
            ((value << rot) | (value >> (width - rot))) & mask
        }
    }
}

/// Number of bits needed to represent values `0..d`.
fn bits_for(d: u32) -> u32 {
    32 - (d - 1).leading_zeros()
}

impl DeclusteringMethod for FieldwiseXor {
    fn name(&self) -> &'static str {
        if self.is_extended() {
            "ExFX"
        } else {
            "FX"
        }
    }

    fn num_disks(&self) -> u32 {
        self.m
    }

    #[inline]
    fn disk_of(&self, bucket: &[u32]) -> DiskId {
        debug_assert_eq!(bucket.len(), self.k);
        let x = bucket
            .iter()
            .enumerate()
            .fold(0u32, |acc, (dim, &c)| acc ^ self.term(dim, c));
        DiskId(x % self.m)
    }

    fn fill_table(&self, space: &GridSpace, out: &mut Vec<u32>) {
        fill_rows(space, Fold::XorMod(self.m), |dim, c| self.term(dim, c), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fx_is_xor_mod_m() {
        let g = GridSpace::new_2d(16, 16).unwrap();
        let fx = FieldwiseXor::new(&g, 8).unwrap();
        assert!(!fx.is_extended());
        assert_eq!(fx.name(), "FX");
        assert_eq!(fx.disk_of(&[0b1010, 0b0110]), DiskId(0b1100 % 8));
        assert_eq!(fx.disk_of(&[5, 5]), DiskId(0));
        assert_eq!(fx.disk_of(&[15, 0]), DiskId(15 % 8));
    }

    #[test]
    fn bits_for_counts_correctly() {
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(64), 6);
        assert_eq!(bits_for(65), 7);
    }

    #[test]
    fn extension_engages_when_dims_narrow() {
        let g = GridSpace::new_2d(4, 4).unwrap();
        let fx = FieldwiseXor::new(&g, 16).unwrap();
        assert!(fx.is_extended());
        assert_eq!(fx.name(), "ExFX");
        // With widening, more than the bottom 4 disk values are reachable.
        let mut used = std::collections::BTreeSet::new();
        for b in g.iter() {
            used.insert(fx.disk_of(b.as_slice()).0);
        }
        // Plain FX would reach only XOR values 0..4 (4 disks); ExFX must
        // reach strictly more on this 16-bucket grid.
        assert!(used.len() > 4, "ExFX reached only {used:?}");
    }

    #[test]
    fn plain_constructor_suppresses_extension() {
        let g = GridSpace::new_2d(4, 4).unwrap();
        let fx = FieldwiseXor::plain(&g, 16).unwrap();
        assert!(!fx.is_extended());
        let mut used = std::collections::BTreeSet::new();
        for b in g.iter() {
            used.insert(fx.disk_of(b.as_slice()).0);
        }
        assert_eq!(used.into_iter().max().unwrap(), 3);
    }

    #[test]
    fn rejects_zero_disks() {
        let g = GridSpace::new_2d(4, 4).unwrap();
        assert_eq!(
            FieldwiseXor::new(&g, 0).unwrap_err(),
            MethodError::ZeroDisks
        );
    }

    #[test]
    fn fx_rows_permute_disks_on_power_of_two_grid() {
        // With d = M = 8: XOR with a fixed row index permutes 0..8, so each
        // row spreads perfectly over the disks.
        let g = GridSpace::new_2d(8, 8).unwrap();
        let fx = FieldwiseXor::new(&g, 8).unwrap();
        for row in 0..8u32 {
            let mut seen = [false; 8];
            for col in 0..8u32 {
                seen[fx.disk_of(&[row, col]).index()] = true;
            }
            assert!(seen.iter().all(|&s| s), "row {row}");
        }
    }

    #[test]
    fn rotate_in_window_is_injective() {
        // Rotation is a bijection on the window for any rotation amount.
        for rot in 0..8 {
            let mut outs = std::collections::BTreeSet::new();
            for v in 0..16u32 {
                outs.insert(FieldwiseXor::rotate_in_window(v, 4, rot));
            }
            assert_eq!(outs.len(), 16, "rot={rot}");
        }
        assert_eq!(FieldwiseXor::rotate_in_window(0b0011, 4, 2), 0b1100);
        assert_eq!(FieldwiseXor::rotate_in_window(0b1001, 4, 1), 0b0011);
    }

    #[test]
    fn exfx_reaches_every_disk_when_buckets_allow() {
        // 4x4 grid, M=16: exactly one bucket per disk is achievable and
        // the concatenation-degenerate ExFX achieves it.
        let g = GridSpace::new_2d(4, 4).unwrap();
        let fx = FieldwiseXor::new(&g, 16).unwrap();
        let mut used = std::collections::BTreeSet::new();
        for b in g.iter() {
            used.insert(fx.disk_of(b.as_slice()).0);
        }
        assert_eq!(used.len(), 16);
    }

    #[test]
    fn exfx_handles_mixed_width_grids() {
        // One narrow and one wide dimension: all disks in range, wide
        // coordinates not truncated into collisions along the wide axis.
        let g = GridSpace::new(vec![4, 64]).unwrap();
        let fx = FieldwiseXor::new(&g, 16).unwrap();
        assert!(fx.is_extended());
        for b in g.iter() {
            assert!(fx.disk_of(b.as_slice()).0 < 16);
        }
        // Fixing the narrow coordinate, the wide axis alone should spread
        // across many disks.
        let mut used = std::collections::BTreeSet::new();
        for c in 0..64u32 {
            used.insert(fx.disk_of(&[0, c]).0);
        }
        assert!(used.len() >= 8, "only {used:?}");
    }

    #[test]
    fn three_dimensional_fx() {
        let g = GridSpace::new_cube(3, 16).unwrap();
        let fx = FieldwiseXor::new(&g, 16).unwrap();
        assert_eq!(fx.disk_of(&[0b1111, 0b1111, 0b1111]), DiskId(0b1111));
        assert_eq!(fx.disk_of(&[1, 2, 4]), DiskId(7));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn disk_always_in_range(m in 1u32..64, x in 0u32..64, y in 0u32..64, z in 0u32..64) {
            let g = GridSpace::new_cube(3, 64).unwrap();
            let fx = FieldwiseXor::new(&g, m).unwrap();
            prop_assert!(fx.disk_of(&[x, y, z]).0 < m);
        }

        #[test]
        fn exfx_disk_always_in_range(m in 1u32..64, x in 0u32..4, y in 0u32..4) {
            let g = GridSpace::new_2d(4, 4).unwrap();
            let fx = FieldwiseXor::new(&g, m).unwrap();
            prop_assert!(fx.disk_of(&[x, y]).0 < m);
        }

        #[test]
        fn fx_is_symmetric_in_its_fields(m in 1u32..32, x in 0u32..32, y in 0u32..32) {
            let g = GridSpace::new_2d(32, 32).unwrap();
            let fx = FieldwiseXor::plain(&g, m).unwrap();
            prop_assert_eq!(fx.disk_of(&[x, y]), fx.disk_of(&[y, x]));
        }
    }
}
