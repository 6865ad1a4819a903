use crate::{BucketCoord, GridError, GridSpace, Result};

/// A hyper-rectangular set of buckets: the grid footprint of a range query.
///
/// Bounds are **inclusive** on both ends, matching the paper's
/// `l_i ≤ x_i ≤ u_i` range-query definition. A region is always non-empty
/// and always lies inside the grid that produced it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BucketRegion {
    lo: BucketCoord,
    hi: BucketCoord,
}

impl BucketRegion {
    /// Creates a region from inclusive corner coordinates, validated against
    /// `space`.
    ///
    /// # Errors
    /// * [`GridError::DimensionMismatch`] / [`GridError::CoordOutOfBounds`]
    ///   if a corner is malformed.
    /// * [`GridError::InvertedRange`] if `lo > hi` on some dimension.
    pub fn new(space: &GridSpace, lo: BucketCoord, hi: BucketCoord) -> Result<Self> {
        space.check(&lo)?;
        space.check(&hi)?;
        for dim in 0..lo.dims() {
            if lo[dim] > hi[dim] {
                return Err(GridError::InvertedRange { dim });
            }
        }
        Ok(BucketRegion { lo, hi })
    }

    /// The whole grid as a single region.
    pub fn full(space: &GridSpace) -> Self {
        let lo = BucketCoord::origin(space.k());
        let hi = BucketCoord::from(space.dims().iter().map(|&d| d - 1).collect::<Vec<u32>>());
        BucketRegion { lo, hi }
    }

    /// A single-bucket region.
    pub fn point(space: &GridSpace, coord: BucketCoord) -> Result<Self> {
        space.check(&coord)?;
        Ok(BucketRegion {
            lo: coord.clone(),
            hi: coord,
        })
    }

    /// Inclusive lower corner.
    #[inline]
    pub fn lo(&self) -> &BucketCoord {
        &self.lo
    }

    /// Inclusive upper corner.
    #[inline]
    pub fn hi(&self) -> &BucketCoord {
        &self.hi
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.dims()
    }

    /// Extent (number of buckets spanned) on dimension `dim`.
    #[inline]
    pub fn extent(&self, dim: usize) -> u64 {
        u64::from(self.hi[dim] - self.lo[dim]) + 1
    }

    /// Whether `other` has the same extent on every dimension: both are
    /// placements of one query shape.
    pub fn same_shape(&self, other: &BucketRegion) -> bool {
        self.dims() == other.dims() && (0..self.dims()).all(|d| self.extent(d) == other.extent(d))
    }

    /// Total number of buckets in the region (`|Q|` in the paper).
    pub fn num_buckets(&self) -> u64 {
        (0..self.dims()).map(|d| self.extent(d)).product()
    }

    /// Whether `coord` falls inside the region.
    pub fn contains(&self, coord: &BucketCoord) -> bool {
        coord.dims() == self.dims()
            && (0..self.dims()).all(|d| self.lo[d] <= coord[d] && coord[d] <= self.hi[d])
    }

    /// The intersection of two regions, or `None` if they are disjoint.
    pub fn intersect(&self, other: &BucketRegion) -> Option<BucketRegion> {
        if self.dims() != other.dims() {
            return None;
        }
        let k = self.dims();
        let mut lo = Vec::with_capacity(k);
        let mut hi = Vec::with_capacity(k);
        for d in 0..k {
            let l = self.lo[d].max(other.lo[d]);
            let h = self.hi[d].min(other.hi[d]);
            if l > h {
                return None;
            }
            lo.push(l);
            hi.push(h);
        }
        Some(BucketRegion {
            lo: BucketCoord::from(lo),
            hi: BucketCoord::from(hi),
        })
    }

    /// Iterates over every bucket in the region in row-major order.
    pub fn iter(&self) -> RegionIter<'_> {
        RegionIter {
            region: self,
            next: Some(self.lo.clone()),
            remaining: self.num_buckets(),
        }
    }

    /// Calls `f(start, len)` once per contiguous run of the region's
    /// buckets along the last dimension, in row-major order: the run
    /// holds linear bucket ids `start..start + len` of `space`, and
    /// `len` is the region's extent on the last dimension. The walk
    /// advances one coordinate in place, so it clones no coordinate per
    /// bucket, and it allocates nothing for regions of up to
    /// [`crate::COORD_INLINE_DIMS`] dimensions.
    ///
    /// The caller guarantees the region lies in `space` (as every region
    /// built from `space` does).
    pub fn for_each_run(&self, space: &GridSpace, mut f: impl FnMut(u64, u64)) {
        let (lo, hi) = (self.lo.as_slice(), self.hi.as_slice());
        let strides = space.strides();
        let last = lo.len() - 1;
        let len = self.extent(last);
        let mut start = space.linearize_unchecked(lo);
        let mut coord = self.lo.clone();
        loop {
            f(start, len);
            // Carry into the dimensions before the last.
            let coords = coord.as_mut_slice();
            let mut i = last;
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                if coords[i] < hi[i] {
                    coords[i] += 1;
                    start += strides[i];
                    break;
                }
                start -= u64::from(coords[i] - lo[i]) * strides[i];
                coords[i] = lo[i];
            }
        }
    }

    /// Translates the region by `delta` (added per-dimension), staying
    /// inside `space`. Returns `None` if the translated region would leave
    /// the grid. Used by workload generators to place query shapes.
    pub fn translate(&self, space: &GridSpace, delta: &[u32]) -> Option<BucketRegion> {
        if delta.len() != self.dims() {
            return None;
        }
        let k = self.dims();
        let mut lo = Vec::with_capacity(k);
        let mut hi = Vec::with_capacity(k);
        for (d, &dd) in delta.iter().enumerate() {
            let l = self.lo[d].checked_add(dd)?;
            let h = self.hi[d].checked_add(dd)?;
            if h >= space.dim(d) {
                return None;
            }
            lo.push(l);
            hi.push(h);
        }
        Some(BucketRegion {
            lo: BucketCoord::from(lo),
            hi: BucketCoord::from(hi),
        })
    }
}

/// Row-major iterator over the buckets of a [`BucketRegion`].
#[derive(Clone, Debug)]
pub struct RegionIter<'a> {
    region: &'a BucketRegion,
    next: Option<BucketCoord>,
    remaining: u64,
}

impl Iterator for RegionIter<'_> {
    type Item = BucketCoord;

    fn next(&mut self) -> Option<BucketCoord> {
        let current = self.next.take()?;
        self.remaining -= 1;
        let mut succ = current.clone();
        let lo = self.region.lo.as_slice();
        let hi = self.region.hi.as_slice();
        let coords = succ.as_mut_slice();
        for i in (0..coords.len()).rev() {
            coords[i] += 1;
            if coords[i] <= hi[i] {
                self.next = Some(succ);
                return Some(current);
            }
            coords[i] = lo[i];
        }
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

impl ExactSizeIterator for RegionIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridSpace {
        GridSpace::new_2d(8, 8).unwrap()
    }

    #[test]
    fn new_validates_corners() {
        let g = grid();
        assert!(BucketRegion::new(&g, [1, 1].into(), [3, 3].into()).is_ok());
        assert_eq!(
            BucketRegion::new(&g, [3, 1].into(), [1, 3].into()).unwrap_err(),
            GridError::InvertedRange { dim: 0 }
        );
        assert!(matches!(
            BucketRegion::new(&g, [1, 1].into(), [8, 3].into()).unwrap_err(),
            GridError::CoordOutOfBounds { .. }
        ));
    }

    #[test]
    fn num_buckets_is_volume() {
        let g = grid();
        let r = BucketRegion::new(&g, [1, 2].into(), [3, 5].into()).unwrap();
        assert_eq!(r.num_buckets(), 3 * 4);
        assert_eq!(r.extent(0), 3);
        assert_eq!(r.extent(1), 4);
    }

    #[test]
    fn point_region_has_one_bucket() {
        let g = grid();
        let r = BucketRegion::point(&g, [4, 4].into()).unwrap();
        assert_eq!(r.num_buckets(), 1);
        assert_eq!(
            r.iter().collect::<Vec<_>>(),
            vec![BucketCoord::from([4, 4])]
        );
    }

    #[test]
    fn full_region_covers_grid() {
        let g = GridSpace::new(vec![2, 3, 4]).unwrap();
        let r = BucketRegion::full(&g);
        assert_eq!(r.num_buckets(), g.num_buckets());
    }

    #[test]
    fn iter_visits_exactly_the_contained_buckets() {
        let g = grid();
        let r = BucketRegion::new(&g, [2, 3].into(), [4, 5].into()).unwrap();
        let visited: Vec<BucketCoord> = r.iter().collect();
        assert_eq!(visited.len() as u64, r.num_buckets());
        for b in &visited {
            assert!(r.contains(b));
        }
        // And in row-major order.
        let mut sorted = visited.clone();
        sorted.sort();
        assert_eq!(visited, sorted);
    }

    #[test]
    fn contains_rejects_wrong_arity() {
        let g = grid();
        let r = BucketRegion::full(&g);
        assert!(!r.contains(&BucketCoord::from([1])));
    }

    #[test]
    fn intersect_overlapping() {
        let g = grid();
        let a = BucketRegion::new(&g, [0, 0].into(), [4, 4].into()).unwrap();
        let b = BucketRegion::new(&g, [2, 3].into(), [7, 7].into()).unwrap();
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.lo(), &BucketCoord::from([2, 3]));
        assert_eq!(i.hi(), &BucketCoord::from([4, 4]));
    }

    #[test]
    fn intersect_disjoint_is_none() {
        let g = grid();
        let a = BucketRegion::new(&g, [0, 0].into(), [1, 1].into()).unwrap();
        let b = BucketRegion::new(&g, [3, 3].into(), [4, 4].into()).unwrap();
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn translate_moves_and_clips() {
        let g = grid();
        let r = BucketRegion::new(&g, [0, 0].into(), [1, 1].into()).unwrap();
        let t = r.translate(&g, &[6, 6]).unwrap();
        assert_eq!(t.hi(), &BucketCoord::from([7, 7]));
        assert!(r.translate(&g, &[7, 0]).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn region_in(side: u32) -> impl Strategy<Value = (GridSpace, BucketRegion)> {
        (1..=side, 1..=side).prop_flat_map(move |(a, b)| {
            let g = GridSpace::new_2d(side, side).unwrap();
            (0..=(side - a), 0..=(side - b)).prop_map(move |(x, y)| {
                let g2 = g.clone();
                let r =
                    BucketRegion::new(&g2, [x, y].into(), [x + a - 1, y + b - 1].into()).unwrap();
                (g2, r)
            })
        })
    }

    proptest! {
        #[test]
        fn iter_count_matches_volume((_g, r) in region_in(6)) {
            prop_assert_eq!(r.iter().count() as u64, r.num_buckets());
        }

        /// The runs, each as long as the region's last extent and
        /// expanded, are the linear ids of `iter()`'s buckets in the
        /// same order, on grids of one to five dimensions.
        #[test]
        fn runs_expand_to_the_iterated_buckets(
            bounds in prop::collection::vec((1u32..=5, 0u32..5, 0u32..5), 1..6),
        ) {
            let sides: Vec<u32> = bounds.iter().map(|b| b.0).collect();
            let g = GridSpace::new(sides).unwrap();
            let lo: Vec<u32> = bounds.iter().map(|&(s, a, b)| (a % s).min(b % s)).collect();
            let hi: Vec<u32> = bounds.iter().map(|&(s, a, b)| (a % s).max(b % s)).collect();
            let r = BucketRegion::new(&g, lo.into(), hi.into()).unwrap();
            let last = r.extent(r.dims() - 1);
            let mut walked = Vec::new();
            r.for_each_run(&g, |start, len| {
                assert_eq!(len, last);
                walked.extend(start..start + len);
            });
            let iterated: Vec<u64> = r
                .iter()
                .map(|b| g.linearize(&b).unwrap())
                .collect();
            prop_assert_eq!(walked, iterated);
        }

        #[test]
        fn all_iterated_buckets_are_contained((_g, r) in region_in(6)) {
            for b in r.iter() {
                prop_assert!(r.contains(&b));
            }
        }

        #[test]
        fn intersection_is_commutative_and_contained(
            (g, a) in region_in(6),
            (y0, y1, x0, x1) in (0u32..6, 0u32..6, 0u32..6, 0u32..6)
        ) {
            let b = BucketRegion::new(
                &g,
                [y0.min(y1), x0.min(x1)].into(),
                [y0.max(y1), x0.max(x1)].into(),
            ).unwrap();
            let ab = a.intersect(&b);
            let ba = b.intersect(&a);
            prop_assert_eq!(&ab, &ba);
            if let Some(i) = ab {
                for bucket in i.iter() {
                    prop_assert!(a.contains(&bucket) && b.contains(&bucket));
                }
            }
        }
    }
}
