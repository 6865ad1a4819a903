use crate::{BucketCoord, GridError, Result};

/// The bucket grid: a `d_1 × d_2 × … × d_k` Cartesian product of partition
/// indices.
///
/// `GridSpace` knows nothing about attribute values — it is the purely
/// combinatorial object the declustering methods and the optimality theory
/// operate on. Value-level concerns (domains, partition boundaries, records)
/// live in [`crate::GridSchema`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridSpace {
    /// Number of partitions per dimension (`d_i` in the paper).
    dims: Vec<u32>,
    /// Row-major strides: `strides[i]` = product of `dims[i+1..]`.
    strides: Vec<u64>,
    /// Total number of buckets.
    total: u64,
}

impl GridSpace {
    /// Creates a grid with the given number of partitions per dimension.
    ///
    /// # Errors
    /// * [`GridError::EmptyGrid`] if `dims` is empty.
    /// * [`GridError::ZeroPartitions`] if any dimension has 0 partitions.
    /// * [`GridError::TooManyBuckets`] if the bucket count overflows `u64`.
    pub fn new(dims: impl Into<Vec<u32>>) -> Result<Self> {
        let dims = dims.into();
        if dims.is_empty() {
            return Err(GridError::EmptyGrid);
        }
        for (i, &d) in dims.iter().enumerate() {
            if d == 0 {
                return Err(GridError::ZeroPartitions { dim: i });
            }
        }
        let mut strides = vec![1u64; dims.len()];
        let mut total: u64 = 1;
        for i in (0..dims.len()).rev() {
            strides[i] = total;
            total = total
                .checked_mul(u64::from(dims[i]))
                .ok_or(GridError::TooManyBuckets)?;
        }
        Ok(GridSpace {
            dims,
            strides,
            total,
        })
    }

    /// Convenience constructor for the 2-attribute grids used throughout the
    /// paper's experiments.
    pub fn new_2d(d0: u32, d1: u32) -> Result<Self> {
        GridSpace::new(vec![d0, d1])
    }

    /// Convenience constructor for a cube grid: `k` dimensions of `d`
    /// partitions each.
    pub fn new_cube(k: usize, d: u32) -> Result<Self> {
        GridSpace::new(vec![d; k])
    }

    /// Number of dimensions (`k`, the number of attributes).
    #[inline]
    pub fn k(&self) -> usize {
        self.dims.len()
    }

    /// Partitions per dimension (`d_i`).
    #[inline]
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Number of partitions on dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim >= self.k()`.
    #[inline]
    pub fn dim(&self, dim: usize) -> u32 {
        self.dims[dim]
    }

    /// Total number of buckets in the grid.
    #[inline]
    pub fn num_buckets(&self) -> u64 {
        self.total
    }

    /// Row-major strides: `strides()[i]` is the product of the
    /// partitions of every dimension after `i`.
    #[inline]
    pub(crate) fn strides(&self) -> &[u64] {
        &self.strides
    }

    /// Whether `coord` lies inside the grid (correct arity and all
    /// coordinates in range).
    pub fn contains(&self, coord: &BucketCoord) -> bool {
        coord.dims() == self.dims.len()
            && coord
                .as_slice()
                .iter()
                .zip(&self.dims)
                .all(|(&c, &d)| c < d)
    }

    /// Validates that `coord` lies inside the grid.
    pub fn check(&self, coord: &BucketCoord) -> Result<()> {
        if coord.dims() != self.dims.len() {
            return Err(GridError::DimensionMismatch {
                expected: self.dims.len(),
                got: coord.dims(),
            });
        }
        for (i, (&c, &d)) in coord.as_slice().iter().zip(&self.dims).enumerate() {
            if c >= d {
                return Err(GridError::CoordOutOfBounds {
                    dim: i,
                    coord: c,
                    partitions: d,
                });
            }
        }
        Ok(())
    }

    /// Row-major linearization of a bucket coordinate.
    ///
    /// The last dimension varies fastest. Used by the round-robin baseline,
    /// the grid directory, and materialized allocation maps.
    ///
    /// # Errors
    /// Returns an error if the coordinate is out of bounds.
    pub fn linearize(&self, coord: &BucketCoord) -> Result<u64> {
        self.check(coord)?;
        Ok(self.linearize_unchecked(coord.as_slice()))
    }

    /// Row-major linearization without bounds checks. The caller must
    /// guarantee `coords` came from this grid.
    #[inline]
    pub fn linearize_unchecked(&self, coords: &[u32]) -> u64 {
        coords
            .iter()
            .zip(&self.strides)
            .map(|(&c, &s)| u64::from(c) * s)
            .sum()
    }

    /// Inverse of [`GridSpace::linearize`].
    ///
    /// # Errors
    /// Returns [`GridError::LinearOutOfBounds`] if `id >= num_buckets()`.
    pub fn delinearize(&self, id: u64) -> Result<BucketCoord> {
        if id >= self.total {
            return Err(GridError::LinearOutOfBounds {
                id,
                total: self.total,
            });
        }
        let mut rest = id;
        let mut coord = BucketCoord::origin(self.dims.len());
        for (i, &s) in self.strides.iter().enumerate() {
            coord.as_mut_slice()[i] = (rest / s) as u32;
            rest %= s;
        }
        Ok(coord)
    }

    /// Calls `f` on every bucket in row-major order (the order of
    /// [`GridSpace::iter`] and of linear ids), advancing one coordinate
    /// in place: unlike the iterator, the walk clones no coordinate per
    /// bucket.
    pub fn for_each_bucket(&self, mut f: impl FnMut(&BucketCoord)) {
        let last = self.dims.len() - 1;
        let mut coord = BucketCoord::origin(self.dims.len());
        loop {
            for c in 0..self.dims[last] {
                coord.as_mut_slice()[last] = c;
                f(&coord);
            }
            // Carry into the dimensions before the last.
            let coords = coord.as_mut_slice();
            coords[last] = 0;
            let mut i = last;
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                coords[i] += 1;
                if coords[i] < self.dims[i] {
                    break;
                }
                coords[i] = 0;
            }
        }
    }

    /// Iterates over every bucket in the grid in row-major order.
    pub fn iter(&self) -> SpaceIter<'_> {
        SpaceIter {
            space: self,
            next: Some(BucketCoord::origin(self.dims.len())),
            remaining: self.total,
        }
    }
}

/// Row-major iterator over all buckets of a [`GridSpace`].
#[derive(Clone, Debug)]
pub struct SpaceIter<'a> {
    space: &'a GridSpace,
    next: Option<BucketCoord>,
    remaining: u64,
}

impl Iterator for SpaceIter<'_> {
    type Item = BucketCoord;

    fn next(&mut self) -> Option<BucketCoord> {
        let current = self.next.take()?;
        self.remaining -= 1;
        // Advance: increment the last dimension, carrying leftward.
        let mut succ = current.clone();
        let dims = self.space.dims();
        let coords = succ.as_mut_slice();
        for i in (0..coords.len()).rev() {
            coords[i] += 1;
            if coords[i] < dims[i] {
                self.next = Some(succ);
                return Some(current);
            }
            coords[i] = 0;
        }
        // Wrapped all the way: iteration is complete.
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

impl ExactSizeIterator for SpaceIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_zero_dims() {
        assert_eq!(
            GridSpace::new(Vec::new()).unwrap_err(),
            GridError::EmptyGrid
        );
        assert_eq!(
            GridSpace::new(vec![4, 0, 2]).unwrap_err(),
            GridError::ZeroPartitions { dim: 1 }
        );
    }

    #[test]
    fn rejects_overflowing_grid() {
        let dims = vec![u32::MAX; 3];
        assert_eq!(GridSpace::new(dims).unwrap_err(), GridError::TooManyBuckets);
    }

    #[test]
    fn bucket_count_is_product_of_dims() {
        let g = GridSpace::new(vec![3, 4, 5]).unwrap();
        assert_eq!(g.num_buckets(), 60);
        assert_eq!(g.k(), 3);
        assert_eq!(g.dim(1), 4);
    }

    #[test]
    fn single_bucket_grid_is_legal() {
        let g = GridSpace::new(vec![1]).unwrap();
        assert_eq!(g.num_buckets(), 1);
        assert_eq!(g.iter().count(), 1);
    }

    #[test]
    fn linearize_is_row_major() {
        let g = GridSpace::new_2d(3, 4).unwrap();
        // <r, c> -> r*4 + c
        assert_eq!(g.linearize(&BucketCoord::from([0, 0])).unwrap(), 0);
        assert_eq!(g.linearize(&BucketCoord::from([0, 3])).unwrap(), 3);
        assert_eq!(g.linearize(&BucketCoord::from([1, 0])).unwrap(), 4);
        assert_eq!(g.linearize(&BucketCoord::from([2, 3])).unwrap(), 11);
    }

    #[test]
    fn linearize_checks_bounds() {
        let g = GridSpace::new_2d(3, 4).unwrap();
        assert_eq!(
            g.linearize(&BucketCoord::from([3, 0])).unwrap_err(),
            GridError::CoordOutOfBounds {
                dim: 0,
                coord: 3,
                partitions: 3
            }
        );
        assert_eq!(
            g.linearize(&BucketCoord::from([0])).unwrap_err(),
            GridError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn delinearize_inverts_linearize() {
        let g = GridSpace::new(vec![2, 3, 4]).unwrap();
        for id in 0..g.num_buckets() {
            let c = g.delinearize(id).unwrap();
            assert_eq!(g.linearize(&c).unwrap(), id);
        }
        assert_eq!(
            g.delinearize(24).unwrap_err(),
            GridError::LinearOutOfBounds { id: 24, total: 24 }
        );
    }

    #[test]
    fn iter_visits_every_bucket_once_in_order() {
        let g = GridSpace::new(vec![2, 3]).unwrap();
        let all: Vec<BucketCoord> = g.iter().collect();
        assert_eq!(all.len(), 6);
        let expected: Vec<BucketCoord> = (0..6).map(|i| g.delinearize(i).unwrap()).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn for_each_bucket_walks_the_iterator_order() {
        for dims in [
            vec![1],
            vec![5],
            vec![2, 3],
            vec![3, 1, 4],
            vec![2, 2, 1, 3],
        ] {
            let g = GridSpace::new(dims).unwrap();
            let mut walked = Vec::new();
            g.for_each_bucket(|b| walked.push(b.clone()));
            assert_eq!(walked, g.iter().collect::<Vec<_>>(), "{:?}", g.dims());
        }
    }

    #[test]
    fn iter_size_hint_is_exact() {
        let g = GridSpace::new(vec![4, 4]).unwrap();
        let mut it = g.iter();
        assert_eq!(it.len(), 16);
        it.next();
        assert_eq!(it.len(), 15);
    }

    #[test]
    fn contains_matches_check() {
        let g = GridSpace::new_2d(2, 2).unwrap();
        assert!(g.contains(&BucketCoord::from([1, 1])));
        assert!(!g.contains(&BucketCoord::from([2, 0])));
        assert!(!g.contains(&BucketCoord::from([0])));
    }

    #[test]
    fn cube_constructor() {
        let g = GridSpace::new_cube(3, 16).unwrap();
        assert_eq!(g.dims(), &[16, 16, 16]);
        assert_eq!(g.num_buckets(), 4096);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_grid() -> impl Strategy<Value = GridSpace> {
        proptest::collection::vec(1u32..6, 1..4).prop_map(|dims| GridSpace::new(dims).unwrap())
    }

    proptest! {
        #[test]
        fn linearize_roundtrips(g in small_grid()) {
            for bucket in g.iter() {
                let id = g.linearize(&bucket).unwrap();
                prop_assert_eq!(g.delinearize(id).unwrap(), bucket);
            }
        }

        #[test]
        fn iteration_count_equals_num_buckets(g in small_grid()) {
            prop_assert_eq!(g.iter().count() as u64, g.num_buckets());
        }

        #[test]
        fn linear_ids_are_dense_and_unique(g in small_grid()) {
            let mut seen = vec![false; g.num_buckets() as usize];
            for bucket in g.iter() {
                let id = g.linearize(&bucket).unwrap() as usize;
                prop_assert!(!seen[id]);
                seen[id] = true;
            }
            prop_assert!(seen.into_iter().all(|s| s));
        }
    }
}
