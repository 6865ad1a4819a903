use std::fmt;

/// Errors produced by Hilbert curve construction and conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HilbertError {
    /// The curve must have at least one dimension.
    ZeroDimensions,
    /// The curve must have at least one bit of resolution per dimension.
    ZeroBits,
    /// `bits` must fit in the 32-bit coordinate type.
    CoordOverflow {
        /// Requested bits per dimension.
        bits: u32,
    },
    /// `dims * bits` must fit in the 128-bit rank type.
    RankOverflow {
        /// Requested dimensions.
        dims: usize,
        /// Requested bits per dimension.
        bits: u32,
    },
    /// A coordinate vector has the wrong number of dimensions.
    DimensionMismatch {
        /// Expected dimensions.
        expected: usize,
        /// Supplied dimensions.
        got: usize,
    },
    /// A coordinate does not fit in the curve's per-dimension resolution.
    CoordTooLarge {
        /// Offending dimension.
        dim: usize,
        /// Supplied coordinate.
        coord: u32,
        /// Bits of resolution per dimension.
        bits: u32,
    },
    /// A rank is outside the curve (`rank > 2^(dims*bits) - 1`).
    RankOutOfRange,
}

impl fmt::Display for HilbertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HilbertError::ZeroDimensions => write!(f, "curve must have at least one dimension"),
            HilbertError::ZeroBits => write!(f, "curve must have at least one bit per dimension"),
            HilbertError::CoordOverflow { bits } => {
                write!(f, "{bits} bits per dimension exceed 32-bit coordinates")
            }
            HilbertError::RankOverflow { dims, bits } => {
                write!(
                    f,
                    "curve with {dims} dims x {bits} bits exceeds 128-bit ranks"
                )
            }
            HilbertError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} coordinates, got {got}")
            }
            HilbertError::CoordTooLarge { dim, coord, bits } => {
                write!(
                    f,
                    "coordinate {coord} on dimension {dim} exceeds {bits}-bit resolution"
                )
            }
            HilbertError::RankOutOfRange => write!(f, "rank outside the curve"),
        }
    }
}

impl std::error::Error for HilbertError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_the_problem() {
        assert!(HilbertError::ZeroBits.to_string().contains("bit"));
        assert!(HilbertError::RankOutOfRange.to_string().contains("rank"));
        let e = HilbertError::CoordTooLarge {
            dim: 2,
            coord: 9,
            bits: 3,
        };
        assert!(e.to_string().contains("dimension 2"));
    }
}
