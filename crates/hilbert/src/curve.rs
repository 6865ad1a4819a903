use crate::{HilbertError, Result};

/// A k-dimensional Hilbert curve over the grid `{0 .. 2^bits}^dims`.
///
/// Conversions use Skilling's transpose algorithm: coordinates are first
/// mapped to the curve's *transposed* index (one `bits`-bit word per
/// dimension whose bit-interleaving is the rank) and then interleaved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HilbertCurve {
    dims: usize,
    bits: u32,
}

impl HilbertCurve {
    /// Creates a curve with `dims` dimensions and `bits` bits of resolution
    /// per dimension (grid side `2^bits`).
    ///
    /// # Errors
    /// Rejects zero dimensions, zero bits, `bits > 32` (coordinates are
    /// `u32`) and `dims * bits > 128` (ranks are `u128`).
    pub fn new(dims: usize, bits: u32) -> Result<Self> {
        check_shape(dims, bits)?;
        Ok(HilbertCurve { dims, bits })
    }

    /// The smallest curve whose grid covers `sides` (per-dimension sizes):
    /// `bits = ceil(log2(max side))`, at least 1.
    ///
    /// HCAM uses this to linearize grids that are not powers of two: walk
    /// the covering curve and skip points outside the real grid.
    ///
    /// # Errors
    /// Rejects empty `sides`, any zero side, and overflowing resolutions.
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
        HilbertCurve::new(sides.len(), bits.max(1))
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bits of resolution per dimension.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Grid side length (`2^bits`).
    #[inline]
    pub fn side(&self) -> u64 {
        1u64 << self.bits
    }

    /// Total number of points on the curve (`2^(dims*bits)`), or `None`
    /// for a 128-bit curve, whose count does not fit a `u128`.
    #[inline]
    pub fn num_points(&self) -> Option<u128> {
        1u128.checked_shl(self.dims as u32 * self.bits)
    }

    /// The highest rank on the curve (`2^(dims*bits) - 1`), defined for
    /// every curve including 128-bit ones.
    #[inline]
    pub fn last_rank(&self) -> u128 {
        last_rank(self.dims, self.bits)
    }

    /// Hilbert rank of a grid point.
    ///
    /// # Errors
    /// Arity and range errors for malformed coordinates.
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
        for (dim, &c) in coords.iter().enumerate() {
            if c > limit {
                return Err(HilbertError::CoordTooLarge {
                    dim,
                    coord: c,
                    bits: self.bits,
                });
            }
        }
        let mut x: Vec<u32> = coords.to_vec();
        self.axes_to_transpose(&mut x);
        Ok(self.interleave(&x))
    }

    /// Grid point at a Hilbert rank.
    ///
    /// # Errors
    /// [`HilbertError::RankOutOfRange`] if `rank > last_rank()`.
    pub fn decode(&self, rank: u128) -> Result<Vec<u32>> {
        if rank > self.last_rank() {
            return Err(HilbertError::RankOutOfRange);
        }
        let mut x = vec![0u32; self.dims];
        self.deinterleave_into(rank, &mut x);
        self.transpose_to_axes(&mut x);
        Ok(x)
    }

    /// Iterates over the curve's points in rank order, one `Vec` per
    /// point. [`HilbertCurve::blocks`] walks the same points without a
    /// per-point allocation.
    pub fn iter(&self) -> CurveIter {
        CurveIter {
            curve: *self,
            next_rank: Some(0),
        }
    }

    /// Walks the curve's points in rank order a block at a time: each
    /// [`PointBlock`] holds [`BLOCK_RANKS`] consecutive ranks (every rank,
    /// on a shorter curve) in struct-of-arrays form, one lane per rank.
    ///
    /// The walk runs the same Skilling arithmetic as
    /// [`HilbertCurve::decode`] on every lane of a block at once, with the
    /// per-word branch turned into a mask select. Rank bits below the
    /// block length are deinterleaved once into a fixed table and ORed
    /// onto each block's deinterleaved high bits.
    pub fn blocks(&self) -> BlockWalk {
        self.blocks_at(0)
    }

    /// [`HilbertCurve::blocks`] from the block whose first rank is
    /// `first` (a multiple of the block length, at most `last_rank()`).
    fn blocks_at(&self, first: u128) -> BlockWalk {
        let dims = self.dims;
        let lanes = 1usize << BLOCK_BITS.min(dims as u32 * self.bits);
        debug_assert!(first & (lanes as u128 - 1) == 0 && first <= self.last_rank());
        let mut word = vec![0u32; dims];
        let mut low = vec![0u32; dims * lanes];
        for lane in 0..lanes {
            self.deinterleave_into(lane as u128, &mut word);
            for (i, &w) in word.iter().enumerate() {
                low[i * lanes + lane] = w;
            }
        }
        BlockWalk {
            curve: *self,
            next: Some(first),
            low,
            high: word,
            gray: vec![0; lanes],
            block: PointBlock {
                first,
                lanes,
                coords: vec![0; dims * lanes],
            },
        }
    }

    /// Skilling's AxesToTranspose: in-place conversion of coordinates to
    /// the transposed Hilbert index.
    fn axes_to_transpose(&self, x: &mut [u32]) {
        let n = self.dims;
        if self.bits > 1 {
            let m: u32 = 1 << (self.bits - 1);
            // Inverse undo of the excess work decode performs.
            let mut q = m;
            while q > 1 {
                let p = q - 1;
                for i in 0..n {
                    if x[i] & q != 0 {
                        x[0] ^= p; // invert low bits of x[0]
                    } else {
                        let t = (x[0] ^ x[i]) & p;
                        x[0] ^= t;
                        x[i] ^= t;
                    }
                }
                q >>= 1;
            }
        }
        // Gray encode.
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t: u32 = 0;
        if self.bits > 1 {
            let mut q: u32 = 1 << (self.bits - 1);
            while q > 1 {
                if x[n - 1] & q != 0 {
                    t ^= q - 1;
                }
                q >>= 1;
            }
        }
        for v in x.iter_mut() {
            *v ^= t;
        }
    }

    /// Skilling's TransposeToAxes: inverse of [`Self::axes_to_transpose`].
    fn transpose_to_axes(&self, x: &mut [u32]) {
        let n = self.dims;
        // Gray decode by H ^ (H/2).
        let t = x[n - 1] >> 1;
        for i in (1..n).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;
        if self.bits > 1 {
            // Undo excess work.
            let nn: u32 = 2 << (self.bits - 1);
            let mut q: u32 = 2;
            while q != nn {
                let p = q - 1;
                for i in (0..n).rev() {
                    if x[i] & q != 0 {
                        x[0] ^= p;
                    } else {
                        let t = (x[0] ^ x[i]) & p;
                        x[0] ^= t;
                        x[i] ^= t;
                    }
                }
                q <<= 1;
            }
        }
    }

    /// Bit-interleaves the transposed index into a rank: bit `q` of word
    /// `i` lands at rank bit `q*dims + (dims-1-i)`, MSB first.
    fn interleave(&self, x: &[u32]) -> u128 {
        let mut rank: u128 = 0;
        for q in (0..self.bits).rev() {
            for (i, &w) in x.iter().enumerate() {
                let bit = (w >> q) & 1;
                let pos = q as usize * self.dims + (self.dims - 1 - i);
                rank |= u128::from(bit) << pos;
            }
        }
        rank
    }

    /// Inverse of [`Self::interleave`], into `x` (one word per dimension,
    /// overwritten).
    fn deinterleave_into(&self, rank: u128, x: &mut [u32]) {
        x.fill(0);
        for q in 0..self.bits {
            for (i, xi) in x.iter_mut().enumerate() {
                let pos = q as usize * self.dims + (self.dims - 1 - i);
                let bit = ((rank >> pos) & 1) as u32;
                *xi |= bit << q;
            }
        }
    }
}

/// Rejects order shapes whose coordinates or ranks do not fit their
/// types: zero dimensions or bits, `bits > 32` (`u32` coordinates) and
/// `dims * bits > 128` (`u128` ranks). Shared by every order.
pub(crate) fn check_shape(dims: usize, bits: u32) -> Result<()> {
    if dims == 0 {
        return Err(HilbertError::ZeroDimensions);
    }
    if bits == 0 {
        return Err(HilbertError::ZeroBits);
    }
    if bits > 32 {
        return Err(HilbertError::CoordOverflow { bits });
    }
    if (dims as u128) * u128::from(bits) > 128 {
        return Err(HilbertError::RankOverflow { dims, bits });
    }
    Ok(())
}

/// The highest rank of an order with `dims * bits` rank bits (1..=128),
/// computed without the `1 << 128` a point count would need.
pub(crate) fn last_rank(dims: usize, bits: u32) -> u128 {
    u128::MAX >> (128 - dims as u32 * bits)
}

/// Iterator over the points of a [`HilbertCurve`] in rank order.
#[derive(Clone, Debug)]
pub struct CurveIter {
    curve: HilbertCurve,
    /// The next rank to decode; `None` once the last rank was yielded.
    next_rank: Option<u128>,
}

impl Iterator for CurveIter {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        let rank = self.next_rank?;
        self.next_rank = rank.checked_add(1).filter(|&r| r <= self.curve.last_rank());
        Some(self.curve.decode(rank).expect("rank checked in range"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.next_rank.map_or(Some(0), |r| {
            usize::try_from(self.curve.last_rank() - r)
                .ok()
                .and_then(|n| n.checked_add(1))
        });
        (n.unwrap_or(usize::MAX), n)
    }
}

/// Ranks per [`PointBlock`] of a [`BlockWalk`] (a curve with fewer points
/// is one block).
pub const BLOCK_RANKS: usize = 1 << BLOCK_BITS;

/// `log2` of [`BLOCK_RANKS`]: the rank bits the walk's fixed table holds.
const BLOCK_BITS: u32 = 6;

/// Consecutive points of a [`HilbertCurve`] in struct-of-arrays form:
/// lane `j` of every axis is the point at rank `first_rank() + j`.
#[derive(Clone, Debug)]
pub struct PointBlock {
    first: u128,
    lanes: usize,
    /// Coordinates, `coords[dim * lanes + lane]`.
    coords: Vec<u32>,
}

impl PointBlock {
    /// Rank of lane 0.
    pub fn first_rank(&self) -> u128 {
        self.first
    }

    /// Points in the block: [`BLOCK_RANKS`], or the whole curve when it
    /// is shorter.
    pub fn len(&self) -> usize {
        self.lanes
    }

    /// Always `false`: every block holds at least one point.
    pub fn is_empty(&self) -> bool {
        self.lanes == 0
    }

    /// Coordinate `dim` of every point in the block, one lane per rank.
    ///
    /// # Panics
    /// Panics if `dim` is not below the curve's dimension count.
    pub fn axis(&self, dim: usize) -> &[u32] {
        &self.coords[dim * self.lanes..(dim + 1) * self.lanes]
    }
}

/// Block-at-a-time walk over a [`HilbertCurve`], from
/// [`HilbertCurve::blocks`]. Call [`BlockWalk::next_block`] until it
/// returns `None`; the walk reuses one block's buffers throughout.
#[derive(Clone, Debug)]
pub struct BlockWalk {
    curve: HilbertCurve,
    /// First rank of the next block; `None` once the last block was
    /// decoded.
    next: Option<u128>,
    /// Deinterleaved low rank bits of every lane, `low[dim * lanes +
    /// lane]`.
    low: Vec<u32>,
    /// The current block's deinterleaved high rank bits, one per word.
    high: Vec<u32>,
    /// Per-lane Gray-decode term.
    gray: Vec<u32>,
    block: PointBlock,
}

impl BlockWalk {
    /// Decodes and returns the next block of points, or `None` after the
    /// block that holds the curve's last rank.
    pub fn next_block(&mut self) -> Option<&PointBlock> {
        let first = self.next?;
        let lanes = self.block.lanes;
        let last = first | (lanes as u128 - 1);
        self.next = (last < self.curve.last_rank()).then(|| last + 1);
        self.block.first = first;
        self.curve.deinterleave_into(first, &mut self.high);
        let x = &mut self.block.coords;
        for ((xi, low), &high) in x
            .chunks_exact_mut(lanes)
            .zip(self.low.chunks_exact(lanes))
            .zip(&self.high)
        {
            for (v, &l) in xi.iter_mut().zip(low) {
                *v = high | l;
            }
        }
        transpose_to_axes_lanes(self.curve.bits, lanes, x, &mut self.gray);
        Some(&self.block)
    }
}

/// [`HilbertCurve::transpose_to_axes`] on `lanes` transposed indices at
/// once: `x[i * lanes + j]` is word `i` of lane `j`. Each step runs over
/// contiguous lanes; the scalar code's `x[i] & q` branch becomes a mask.
fn transpose_to_axes_lanes(bits: u32, lanes: usize, x: &mut [u32], gray: &mut [u32]) {
    let n = x.len() / lanes;
    // Gray decode by H ^ (H/2).
    for (g, &v) in gray.iter_mut().zip(&x[(n - 1) * lanes..]) {
        *g = v >> 1;
    }
    for i in (1..n).rev() {
        let (lower, upper) = x.split_at_mut(i * lanes);
        for (v, &w) in upper[..lanes].iter_mut().zip(&lower[(i - 1) * lanes..]) {
            *v ^= w;
        }
    }
    for (v, &g) in x[..lanes].iter_mut().zip(gray.iter()) {
        *v ^= g;
    }
    if bits > 1 {
        // Undo excess work.
        let nn: u32 = 2 << (bits - 1);
        let mut q: u32 = 2;
        while q != nn {
            let p = q - 1;
            let (x0, rest) = x.split_at_mut(lanes);
            for xi in rest.chunks_exact_mut(lanes).rev() {
                for (a, b) in x0.iter_mut().zip(xi) {
                    // All ones where bit `q` of `x[i]` is clear.
                    let clear = 0u32.wrapping_sub(u32::from(*b & q == 0));
                    let t = (*a ^ *b) & p & clear;
                    *a ^= t | (p & !clear);
                    *b ^= t;
                }
            }
            for a in x0.iter_mut() {
                *a ^= p & 0u32.wrapping_sub(u32::from(*a & q != 0));
            }
            q <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert_eq!(
            HilbertCurve::new(0, 4).unwrap_err(),
            HilbertError::ZeroDimensions
        );
        assert_eq!(HilbertCurve::new(2, 0).unwrap_err(), HilbertError::ZeroBits);
        assert!(matches!(
            HilbertCurve::new(5, 32).unwrap_err(),
            HilbertError::RankOverflow { .. }
        ));
        assert_eq!(
            HilbertCurve::new(1, 33).unwrap_err(),
            HilbertError::CoordOverflow { bits: 33 }
        );
        assert!(HilbertCurve::new(4, 32).is_ok());
    }

    #[test]
    fn full_128_bit_curve_counts_and_decodes() {
        let c = HilbertCurve::new(4, 32).unwrap();
        assert_eq!(c.num_points(), None);
        assert_eq!(c.last_rank(), u128::MAX);
        for rank in [0, 1, u128::MAX - 1, u128::MAX] {
            let coords = c.decode(rank).unwrap();
            assert_eq!(c.encode(&coords).unwrap(), rank);
        }
        let mut it = c.iter();
        assert_eq!(it.size_hint(), (usize::MAX, None));
        assert_eq!(it.next(), Some(vec![0; 4]));
        assert_eq!(HilbertCurve::new(2, 3).unwrap().num_points(), Some(64));
    }

    #[test]
    fn iter_stops_after_the_last_rank() {
        let c = HilbertCurve::new(2, 2).unwrap();
        let mut it = c.iter();
        assert_eq!(it.size_hint(), (16, Some(16)));
        assert_eq!(it.by_ref().count(), 16);
        assert_eq!(it.size_hint(), (0, Some(0)));
        assert_eq!(it.next(), None);
    }

    #[test]
    fn block_walk_yields_every_decode() {
        // Every curve of up to 16 rank bits, short ones (fewer points
        // than a block) included.
        for dims in 1..=8usize {
            for bits in 1..=(16 / dims as u32) {
                let c = HilbertCurve::new(dims, bits).unwrap();
                let mut walk = c.blocks();
                let mut rank = 0u128;
                while let Some(block) = walk.next_block() {
                    assert_eq!(block.first_rank(), rank, "dims={dims} bits={bits}");
                    assert!(!block.is_empty());
                    for lane in 0..block.len() {
                        let got: Vec<u32> = (0..dims).map(|i| block.axis(i)[lane]).collect();
                        assert_eq!(got, c.decode(rank).unwrap(), "dims={dims} bits={bits}");
                        rank += 1;
                    }
                }
                assert_eq!(Some(rank), c.num_points(), "dims={dims} bits={bits}");
                assert!(walk.next_block().is_none());
            }
        }
    }

    #[test]
    fn block_walk_ends_on_a_128_bit_curve() {
        let c = HilbertCurve::new(4, 32).unwrap();
        let first = u128::MAX - (BLOCK_RANKS as u128 - 1);
        let mut walk = c.blocks_at(first);
        let block = walk.next_block().unwrap();
        assert_eq!(block.len(), BLOCK_RANKS);
        for lane in 0..BLOCK_RANKS {
            let got: Vec<u32> = (0..4).map(|i| block.axis(i)[lane]).collect();
            assert_eq!(got, c.decode(first + lane as u128).unwrap());
        }
        assert!(walk.next_block().is_none());
    }

    #[test]
    fn covering_picks_smallest_power_of_two() {
        assert_eq!(HilbertCurve::covering(&[64, 64]).unwrap().bits(), 6);
        assert_eq!(HilbertCurve::covering(&[5, 9]).unwrap().bits(), 4);
        assert_eq!(HilbertCurve::covering(&[1, 1]).unwrap().bits(), 1);
        assert_eq!(HilbertCurve::covering(&[16, 16, 16]).unwrap().dims(), 3);
        assert!(HilbertCurve::covering(&[]).is_err());
        assert!(HilbertCurve::covering(&[0, 4]).is_err());
    }

    #[test]
    fn rank_zero_is_origin() {
        for dims in 1..=4 {
            for bits in 1..=4 {
                let c = HilbertCurve::new(dims, bits).unwrap();
                assert_eq!(c.decode(0).unwrap(), vec![0; dims]);
                assert_eq!(c.encode(&vec![0; dims]).unwrap(), 0);
            }
        }
    }

    #[test]
    fn known_2x2_order() {
        // First-order 2-D Hilbert curve: a U shape starting at the origin.
        let c = HilbertCurve::new(2, 1).unwrap();
        let walk: Vec<Vec<u32>> = c.iter().collect();
        assert_eq!(walk[0], vec![0, 0]);
        // The three remaining points are the other corners, each adjacent
        // to its predecessor.
        assert_eq!(walk.len(), 4);
        for w in walk.windows(2) {
            let d: u32 = w[0].iter().zip(&w[1]).map(|(a, b)| a.abs_diff(*b)).sum();
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn encode_decode_roundtrip_exhaustive_small() {
        for (dims, bits) in [(1usize, 4u32), (2, 3), (3, 2), (4, 2)] {
            let c = HilbertCurve::new(dims, bits).unwrap();
            for rank in 0..=c.last_rank() {
                let coords = c.decode(rank).unwrap();
                assert_eq!(c.encode(&coords).unwrap(), rank, "dims={dims} bits={bits}");
            }
        }
    }

    #[test]
    fn curve_is_a_bijection() {
        let c = HilbertCurve::new(2, 3).unwrap();
        let mut seen = vec![false; 64];
        for p in c.iter() {
            let idx = (p[0] * 8 + p[1]) as usize;
            assert!(!seen[idx]);
            seen[idx] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn adjacency_property_2d() {
        let c = HilbertCurve::new(2, 4).unwrap();
        let mut prev: Option<Vec<u32>> = None;
        for p in c.iter() {
            if let Some(q) = prev {
                let d: u32 = p.iter().zip(&q).map(|(a, b)| a.abs_diff(*b)).sum();
                assert_eq!(d, 1, "{q:?} -> {p:?}");
            }
            prev = Some(p);
        }
    }

    #[test]
    fn adjacency_property_3d() {
        let c = HilbertCurve::new(3, 2).unwrap();
        let walk: Vec<Vec<u32>> = c.iter().collect();
        assert_eq!(walk.len(), 64);
        for w in walk.windows(2) {
            let d: u32 = w[0].iter().zip(&w[1]).map(|(a, b)| a.abs_diff(*b)).sum();
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn one_dimensional_curve_is_identity() {
        let c = HilbertCurve::new(1, 5).unwrap();
        for v in 0..32u32 {
            assert_eq!(c.encode(&[v]).unwrap(), u128::from(v));
            assert_eq!(c.decode(u128::from(v)).unwrap(), vec![v]);
        }
    }

    #[test]
    fn encode_rejects_bad_input() {
        let c = HilbertCurve::new(2, 3).unwrap();
        assert!(matches!(
            c.encode(&[1]).unwrap_err(),
            HilbertError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            c.encode(&[8, 0]).unwrap_err(),
            HilbertError::CoordTooLarge {
                dim: 0,
                coord: 8,
                bits: 3
            }
        ));
        assert_eq!(c.decode(64).unwrap_err(), HilbertError::RankOutOfRange);
    }

    #[test]
    fn full_resolution_32_bit_dimension() {
        let c = HilbertCurve::new(2, 32).unwrap();
        let coords = [u32::MAX, 12345];
        let rank = c.encode(&coords).unwrap();
        assert_eq!(c.decode(rank).unwrap(), coords.to_vec());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip(dims in 1usize..5, bits in 1u32..6, seed in any::<u64>()) {
            let c = HilbertCurve::new(dims, bits).unwrap();
            let rank = u128::from(seed) % c.num_points().unwrap();
            let coords = c.decode(rank).unwrap();
            prop_assert_eq!(c.encode(&coords).unwrap(), rank);
        }

        #[test]
        fn successive_ranks_are_neighbours(dims in 1usize..4, bits in 1u32..5, seed in any::<u64>()) {
            let c = HilbertCurve::new(dims, bits).unwrap();
            let rank = u128::from(seed) % c.last_rank();
            let a = c.decode(rank).unwrap();
            let b = c.decode(rank + 1).unwrap();
            let d: u32 = a.iter().zip(&b).map(|(x, y)| x.abs_diff(*y)).sum();
            prop_assert_eq!(d, 1);
        }
    }
}
