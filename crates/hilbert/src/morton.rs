//! Z-order (Morton) and Gray-coded linearizations.
//!
//! Alternative space-filling orders to the Hilbert curve, used to ablate
//! HCAM's design choice: Jagadish (SIGMOD 1990) showed the Hilbert curve
//! clusters better than bit-interleaving (Z-order), and Faloutsos &
//! Bhagwat built HCAM on that observation. `decluster-methods` exposes
//! curve-allocation variants over all three orders so the claim is
//! measurable here.

use crate::curve::{check_shape, last_rank};
use crate::{HilbertError, Result};

/// The Z-order (Morton) linearization of a `dims`-dimensional grid with
/// `bits` bits per dimension: coordinate bits are interleaved, dimension
/// 0 contributing the least significant bit of each group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MortonOrder {
    dims: usize,
    bits: u32,
}

impl MortonOrder {
    /// Creates a Z-order over `{0..2^bits}^dims`.
    ///
    /// # Errors
    /// Same shape constraints as [`crate::HilbertCurve::new`].
    pub fn new(dims: usize, bits: u32) -> Result<Self> {
        check_shape(dims, bits)?;
        Ok(MortonOrder { dims, bits })
    }

    /// The smallest Z-order covering per-dimension sides (cf.
    /// [`crate::HilbertCurve::covering`]).
    ///
    /// # Errors
    /// Rejects empty/zero sides.
    pub fn covering(sides: &[u32]) -> Result<Self> {
        if sides.is_empty() {
            return Err(HilbertError::ZeroDimensions);
        }
        if sides.contains(&0) {
            return Err(HilbertError::ZeroBits);
        }
        let max = *sides.iter().max().expect("non-empty");
        let bits = if max <= 1 {
            1
        } else {
            32 - (max - 1).leading_zeros()
        };
        MortonOrder::new(sides.len(), bits.max(1))
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bits per dimension.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Total points (`2^(dims·bits)`), or `None` for a 128-bit order,
    /// whose count does not fit a `u128`.
    pub fn num_points(&self) -> Option<u128> {
        1u128.checked_shl(self.dims as u32 * self.bits)
    }

    /// The highest rank (`2^(dims·bits) - 1`), defined for every order.
    pub fn last_rank(&self) -> u128 {
        last_rank(self.dims, self.bits)
    }

    /// Morton rank of a point: bit `q` of coordinate `i` lands at rank
    /// bit `q·dims + i`.
    ///
    /// # Errors
    /// Arity/range errors as for Hilbert encode.
    pub fn encode(&self, coords: &[u32]) -> Result<u128> {
        if coords.len() != self.dims {
            return Err(HilbertError::DimensionMismatch {
                expected: self.dims,
                got: coords.len(),
            });
        }
        let limit = if self.bits >= 32 {
            u32::MAX
        } else {
            (1u32 << self.bits) - 1
        };
        let mut rank: u128 = 0;
        for (dim, &c) in coords.iter().enumerate() {
            if c > limit {
                return Err(HilbertError::CoordTooLarge {
                    dim,
                    coord: c,
                    bits: self.bits,
                });
            }
            for q in 0..self.bits {
                let bit = u128::from((c >> q) & 1);
                rank |= bit << (q as usize * self.dims + dim);
            }
        }
        Ok(rank)
    }

    /// Inverse of [`MortonOrder::encode`].
    ///
    /// # Errors
    /// [`HilbertError::RankOutOfRange`] for ranks beyond the grid.
    pub fn decode(&self, rank: u128) -> Result<Vec<u32>> {
        if rank > self.last_rank() {
            return Err(HilbertError::RankOutOfRange);
        }
        let mut coords = vec![0u32; self.dims];
        for q in 0..self.bits {
            for (dim, c) in coords.iter_mut().enumerate() {
                let bit = ((rank >> (q as usize * self.dims + dim)) & 1) as u32;
                *c |= bit << q;
            }
        }
        Ok(coords)
    }
}

/// Gray-coded row-major order: the row-major index passed through the
/// reflected binary Gray code, so successive *ranks* differ in one index
/// bit (not necessarily adjacent in space — the weakest of the three
/// orders, included as the ablation floor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrayOrder {
    dims: usize,
    bits: u32,
}

impl GrayOrder {
    /// Creates a Gray order over `{0..2^bits}^dims`.
    ///
    /// # Errors
    /// Same shape constraints as [`MortonOrder::new`].
    pub fn new(dims: usize, bits: u32) -> Result<Self> {
        let m = MortonOrder::new(dims, bits)?;
        Ok(GrayOrder {
            dims: m.dims,
            bits: m.bits,
        })
    }

    /// Total points, or `None` for a 128-bit order (cf.
    /// [`MortonOrder::num_points`]).
    pub fn num_points(&self) -> Option<u128> {
        1u128.checked_shl(self.dims as u32 * self.bits)
    }

    /// The highest rank, defined for every order.
    pub fn last_rank(&self) -> u128 {
        last_rank(self.dims, self.bits)
    }

    /// Rank of a point: Gray-decode of its bit-concatenated index.
    ///
    /// # Errors
    /// Arity/range errors as for Morton encode.
    pub fn encode(&self, coords: &[u32]) -> Result<u128> {
        if coords.len() != self.dims {
            return Err(HilbertError::DimensionMismatch {
                expected: self.dims,
                got: coords.len(),
            });
        }
        let limit = if self.bits >= 32 {
            u32::MAX
        } else {
            (1u32 << self.bits) - 1
        };
        let mut word: u128 = 0;
        for (dim, &c) in coords.iter().enumerate() {
            if c > limit {
                return Err(HilbertError::CoordTooLarge {
                    dim,
                    coord: c,
                    bits: self.bits,
                });
            }
            word |= u128::from(c) << (dim as u32 * self.bits);
        }
        Ok(crate::gray_decode(word))
    }

    /// Point at a rank (Gray-encode, then split bits).
    ///
    /// # Errors
    /// [`HilbertError::RankOutOfRange`] for ranks beyond the grid.
    pub fn decode(&self, rank: u128) -> Result<Vec<u32>> {
        if rank > self.last_rank() {
            return Err(HilbertError::RankOutOfRange);
        }
        let word = crate::gray_encode(rank);
        let mask = (1u128 << self.bits) - 1;
        Ok((0..self.dims)
            .map(|dim| ((word >> (dim as u32 * self.bits)) & mask) as u32)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton_interleaves_bits() {
        let m = MortonOrder::new(2, 2).unwrap();
        // (x=0b11, y=0b00) -> bits of x at even positions.
        assert_eq!(m.encode(&[0b11, 0b00]).unwrap(), 0b0101);
        assert_eq!(m.encode(&[0b00, 0b11]).unwrap(), 0b1010);
        assert_eq!(m.encode(&[0b11, 0b11]).unwrap(), 0b1111);
    }

    #[test]
    fn morton_roundtrip_exhaustive() {
        for (dims, bits) in [(2usize, 3u32), (3, 2), (1, 5)] {
            let m = MortonOrder::new(dims, bits).unwrap();
            for rank in 0..=m.last_rank() {
                let c = m.decode(rank).unwrap();
                assert_eq!(m.encode(&c).unwrap(), rank);
            }
        }
    }

    #[test]
    fn morton_validation() {
        assert!(MortonOrder::new(0, 2).is_err());
        assert!(MortonOrder::new(2, 0).is_err());
        assert!(MortonOrder::new(5, 32).is_err());
        let m = MortonOrder::new(2, 2).unwrap();
        assert!(m.encode(&[4, 0]).is_err());
        assert!(m.encode(&[0]).is_err());
        assert!(m.decode(16).is_err());
    }

    #[test]
    fn morton_full_128_bit_order() {
        let m = MortonOrder::new(4, 32).unwrap();
        assert_eq!(m.num_points(), None);
        assert_eq!(m.last_rank(), u128::MAX);
        assert_eq!(m.decode(u128::MAX).unwrap(), vec![u32::MAX; 4]);
        for rank in [1, u128::MAX] {
            assert_eq!(m.encode(&m.decode(rank).unwrap()).unwrap(), rank);
        }
        assert!(MortonOrder::new(1, 33).is_err());
    }

    #[test]
    fn gray_full_128_bit_order() {
        let g = GrayOrder::new(4, 32).unwrap();
        assert_eq!(g.num_points(), None);
        assert_eq!(g.last_rank(), u128::MAX);
        for rank in [1, u128::MAX] {
            assert_eq!(g.encode(&g.decode(rank).unwrap()).unwrap(), rank);
        }
        assert_eq!(GrayOrder::new(2, 3).unwrap().num_points(), Some(64));
    }

    #[test]
    fn morton_covering_matches_hilbert_covering() {
        let m = MortonOrder::covering(&[48, 64]).unwrap();
        assert_eq!(m.bits(), 6);
        assert_eq!(m.dims(), 2);
        assert!(MortonOrder::covering(&[]).is_err());
    }

    #[test]
    fn gray_roundtrip_exhaustive() {
        let g = GrayOrder::new(2, 3).unwrap();
        for rank in 0..=g.last_rank() {
            let c = g.decode(rank).unwrap();
            assert_eq!(g.encode(&c).unwrap(), rank);
        }
    }

    #[test]
    fn gray_successive_ranks_differ_in_one_index_bit() {
        let g = GrayOrder::new(2, 3).unwrap();
        for rank in 0..g.last_rank() {
            let a = g.decode(rank).unwrap();
            let b = g.decode(rank + 1).unwrap();
            let word = |c: &[u32]| u64::from(c[0]) | (u64::from(c[1]) << 3);
            assert_eq!((word(&a) ^ word(&b)).count_ones(), 1);
        }
    }

    #[test]
    fn hilbert_clusters_better_than_morton() {
        // Jagadish's observation, quantified: mean spatial jump between
        // successive curve points is 1.0 for Hilbert, larger for Morton.
        let h = crate::HilbertCurve::new(2, 4).unwrap();
        let m = MortonOrder::new(2, 4).unwrap();
        let jump = |decode: &dyn Fn(u128) -> Vec<u32>| -> f64 {
            let mut total = 0u64;
            for rank in 0..(1u128 << 8) - 1 {
                let a = decode(rank);
                let b = decode(rank + 1);
                total += a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| u64::from(x.abs_diff(*y)))
                    .sum::<u64>();
            }
            total as f64 / 255.0
        };
        let hilbert_jump = jump(&|r| h.decode(r).unwrap());
        let morton_jump = jump(&|r| m.decode(r).unwrap());
        assert_eq!(hilbert_jump, 1.0);
        assert!(morton_jump > 1.5, "morton jump {morton_jump}");
    }
}
