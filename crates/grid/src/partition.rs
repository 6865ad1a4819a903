use crate::record::Value;
use crate::{DomainKind, GridError, Result};

/// An ordered split of one attribute's domain into `d` intervals
/// (partitions), numbered `0..d`.
///
/// A partitioning is stored as its `d − 1` internal *cut points*: partition
/// `j` holds values `v` with `cut[j-1] ≤ v < cut[j]` (with the open ends of
/// the domain at either side). This is the grid-file style partitioning the
/// paper assumes; the study's experiments all use uniform partitionings, but
/// skewed data is served by explicit boundaries.
#[derive(Clone, Debug, PartialEq)]
pub struct Partitioning {
    /// Strictly increasing internal cut points; `cuts.len() + 1` partitions.
    cuts: Vec<Value>,
}

impl Partitioning {
    /// Builds a partitioning from explicit internal cut points.
    ///
    /// `cuts` must be strictly increasing and of a single type. An empty
    /// `cuts` gives a single all-encompassing partition.
    ///
    /// # Errors
    /// [`GridError::UnsortedBoundaries`] if the cut points are not strictly
    /// increasing or mix types.
    pub fn from_cuts(cuts: Vec<Value>) -> Result<Self> {
        for w in cuts.windows(2) {
            match w[0].partial_cmp_same_type(&w[1]) {
                Some(std::cmp::Ordering::Less) => {}
                _ => return Err(GridError::UnsortedBoundaries),
            }
        }
        Ok(Partitioning { cuts })
    }

    /// Uniform partitioning of an integer domain `[min, max]` into `d`
    /// intervals of (near-)equal width.
    ///
    /// # Errors
    /// [`GridError::IncompletePartitioning`] if `d == 0`, `min > max`, or
    /// the domain has fewer than `d` values.
    pub fn uniform_int(min: i64, max: i64, d: u32) -> Result<Self> {
        if d == 0 || min > max {
            return Err(GridError::IncompletePartitioning);
        }
        let width = (max - min + 1) as i128;
        if width < i128::from(d) {
            return Err(GridError::IncompletePartitioning);
        }
        let mut cuts = Vec::with_capacity(d as usize - 1);
        for j in 1..i128::from(d) {
            // Cut after floor(j * width / d) values.
            let cut = i128::from(min) + (j * width) / i128::from(d);
            cuts.push(Value::Int(cut as i64));
        }
        Partitioning::from_cuts(cuts)
    }

    /// Uniform partitioning of a float domain `[min, max)` into `d`
    /// intervals of equal width.
    ///
    /// # Errors
    /// [`GridError::IncompletePartitioning`] if `d == 0` or `min >= max` or
    /// a bound is not finite.
    pub fn uniform_float(min: f64, max: f64, d: u32) -> Result<Self> {
        if d == 0 || min >= max || !min.is_finite() || !max.is_finite() {
            return Err(GridError::IncompletePartitioning);
        }
        let width = (max - min) / f64::from(d);
        let cuts = (1..d)
            .map(|j| Value::Float(min + width * f64::from(j)))
            .collect();
        Partitioning::from_cuts(cuts)
    }

    /// Number of partitions (`d_i`).
    pub fn num_partitions(&self) -> u32 {
        self.cuts.len() as u32 + 1
    }

    /// The partition index a value falls in.
    ///
    /// Returns the number of cut points ≤ `v`, i.e. a binary search over the
    /// cuts. The caller is responsible for having checked `v` against the
    /// attribute's domain; any value of the right type gets *some* partition
    /// (out-of-domain values clamp to the end partitions).
    ///
    /// # Errors
    /// [`GridError::TypeMismatch`] if `v`'s type differs from the cuts'.
    pub fn partition_of(&self, v: &Value) -> Result<u32> {
        if let Some(first) = self.cuts.first() {
            if v.partial_cmp_same_type(first).is_none() {
                return Err(GridError::TypeMismatch { attribute: 0 });
            }
        }
        // Count cuts ≤ v: partition j covers [cut[j-1], cut[j]).
        let mut lo = 0usize;
        let mut hi = self.cuts.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.cuts[mid].partial_cmp_same_type(v) {
                Some(std::cmp::Ordering::Greater) => hi = mid,
                Some(_) => lo = mid + 1,
                None => return Err(GridError::TypeMismatch { attribute: 0 }),
            }
        }
        Ok(lo as u32)
    }

    /// The partitions overlapped by the inclusive value range `[lo, hi]`,
    /// as an inclusive partition-index range.
    ///
    /// # Errors
    /// [`GridError::TypeMismatch`] on type mismatch;
    /// [`GridError::InvertedRange`] if `lo > hi`.
    pub fn partitions_of_range(&self, lo: &Value, hi: &Value) -> Result<(u32, u32)> {
        match lo.partial_cmp_same_type(hi) {
            Some(std::cmp::Ordering::Greater) => return Err(GridError::InvertedRange { dim: 0 }),
            None => return Err(GridError::TypeMismatch { attribute: 0 }),
            _ => {}
        }
        Ok((self.partition_of(lo)?, self.partition_of(hi)?))
    }

    /// A sensible default partitioning for a domain: uniform with `d`
    /// partitions for bounded domains.
    ///
    /// # Errors
    /// Propagates the uniform constructors' errors; string domains cannot be
    /// uniformly partitioned automatically and yield
    /// [`GridError::IncompletePartitioning`] (supply explicit cuts instead).
    pub fn uniform_for(kind: &DomainKind, d: u32) -> Result<Self> {
        match kind {
            DomainKind::Int { min, max } => Partitioning::uniform_int(*min, *max, d),
            DomainKind::Float { min, max } => Partitioning::uniform_float(*min, *max, d),
            DomainKind::Str => Err(GridError::IncompletePartitioning),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_cuts_rejects_unsorted_and_mixed() {
        assert_eq!(
            Partitioning::from_cuts(vec![Value::Int(3), Value::Int(1)]).unwrap_err(),
            GridError::UnsortedBoundaries
        );
        assert_eq!(
            Partitioning::from_cuts(vec![Value::Int(3), Value::Int(3)]).unwrap_err(),
            GridError::UnsortedBoundaries
        );
        assert_eq!(
            Partitioning::from_cuts(vec![Value::Int(3), Value::Float(4.0)]).unwrap_err(),
            GridError::UnsortedBoundaries
        );
    }

    #[test]
    fn empty_cuts_is_one_partition() {
        let p = Partitioning::from_cuts(vec![]).unwrap();
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.partition_of(&Value::Int(42)).unwrap(), 0);
    }

    #[test]
    fn uniform_int_splits_evenly() {
        // [0, 99] into 4: cuts at 25, 50, 75.
        let p = Partitioning::uniform_int(0, 99, 4).unwrap();
        assert_eq!(p.num_partitions(), 4);
        assert_eq!(p.partition_of(&Value::Int(0)).unwrap(), 0);
        assert_eq!(p.partition_of(&Value::Int(24)).unwrap(), 0);
        assert_eq!(p.partition_of(&Value::Int(25)).unwrap(), 1);
        assert_eq!(p.partition_of(&Value::Int(99)).unwrap(), 3);
    }

    #[test]
    fn uniform_int_uneven_width_covers_all() {
        // [0, 9] into 3 partitions: every value lands somewhere in 0..3.
        let p = Partitioning::uniform_int(0, 9, 3).unwrap();
        for v in 0..=9 {
            let j = p.partition_of(&Value::Int(v)).unwrap();
            assert!(j < 3, "value {v} mapped to partition {j}");
        }
        // Partition of min is 0 and of max is d-1.
        assert_eq!(p.partition_of(&Value::Int(0)).unwrap(), 0);
        assert_eq!(p.partition_of(&Value::Int(9)).unwrap(), 2);
    }

    #[test]
    fn uniform_int_rejects_degenerate() {
        assert!(Partitioning::uniform_int(0, 9, 0).is_err());
        assert!(Partitioning::uniform_int(9, 0, 2).is_err());
        assert!(Partitioning::uniform_int(0, 1, 3).is_err()); // 2 values, 3 parts
    }

    #[test]
    fn uniform_float_splits_evenly() {
        let p = Partitioning::uniform_float(0.0, 1.0, 4).unwrap();
        assert_eq!(p.partition_of(&Value::Float(0.1)).unwrap(), 0);
        assert_eq!(p.partition_of(&Value::Float(0.25)).unwrap(), 1);
        assert_eq!(p.partition_of(&Value::Float(0.99)).unwrap(), 3);
        assert!(Partitioning::uniform_float(1.0, 0.0, 2).is_err());
        assert!(Partitioning::uniform_float(0.0, f64::INFINITY, 2).is_err());
    }

    #[test]
    fn string_cuts() {
        let p = Partitioning::from_cuts(vec![Value::from("h"), Value::from("p")]).unwrap();
        assert_eq!(p.num_partitions(), 3);
        assert_eq!(p.partition_of(&Value::from("aardvark")).unwrap(), 0);
        assert_eq!(p.partition_of(&Value::from("h")).unwrap(), 1);
        assert_eq!(p.partition_of(&Value::from("moose")).unwrap(), 1);
        assert_eq!(p.partition_of(&Value::from("zebra")).unwrap(), 2);
    }

    #[test]
    fn type_mismatch_is_reported() {
        let p = Partitioning::uniform_int(0, 9, 2).unwrap();
        assert!(matches!(
            p.partition_of(&Value::from("x")).unwrap_err(),
            GridError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn range_mapping() {
        let p = Partitioning::uniform_int(0, 99, 4).unwrap();
        assert_eq!(
            p.partitions_of_range(&Value::Int(10), &Value::Int(60))
                .unwrap(),
            (0, 2)
        );
        assert_eq!(
            p.partitions_of_range(&Value::Int(30), &Value::Int(30))
                .unwrap(),
            (1, 1)
        );
        assert!(matches!(
            p.partitions_of_range(&Value::Int(60), &Value::Int(10))
                .unwrap_err(),
            GridError::InvertedRange { .. }
        ));
    }

    #[test]
    fn out_of_domain_values_clamp() {
        let p = Partitioning::uniform_int(0, 99, 4).unwrap();
        assert_eq!(p.partition_of(&Value::Int(-5)).unwrap(), 0);
        assert_eq!(p.partition_of(&Value::Int(1000)).unwrap(), 3);
    }

    #[test]
    fn uniform_for_dispatches_on_kind() {
        assert!(Partitioning::uniform_for(&DomainKind::Int { min: 0, max: 9 }, 2).is_ok());
        assert!(Partitioning::uniform_for(&DomainKind::Str, 2).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn uniform_int_partition_counts_are_balanced(
            d in 1u32..16,
            span in 16i64..1000,
            min in -500i64..500,
        ) {
            let max = min + span;
            let p = Partitioning::uniform_int(min, max, d).unwrap();
            let mut counts = vec![0u64; d as usize];
            for v in min..=max {
                counts[p.partition_of(&Value::Int(v)).unwrap() as usize] += 1;
            }
            let lo = counts.iter().min().unwrap();
            let hi = counts.iter().max().unwrap();
            // Near-equal widths: differ by at most 1.
            prop_assert!(hi - lo <= 1, "counts {counts:?}");
        }

        #[test]
        fn partition_of_is_monotone(d in 1u32..16, a in -1000i64..1000, b in -1000i64..1000) {
            let p = Partitioning::uniform_int(-1000, 1000, d).unwrap();
            let (x, y) = (a.min(b), a.max(b));
            let px = p.partition_of(&Value::Int(x)).unwrap();
            let py = p.partition_of(&Value::Int(y)).unwrap();
            prop_assert!(px <= py);
        }
    }
}
