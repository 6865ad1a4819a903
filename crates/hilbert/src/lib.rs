//! k-dimensional Hilbert space-filling curve.
//!
//! Substrate for the HCAM declustering method (Faloutsos & Bhagwat, PDIS
//! 1993): the Hilbert curve visits every point of a `2^b × … × 2^b`
//! k-dimensional grid exactly once, never crossing itself, and successive
//! points are always grid neighbours — the *clustering property* (Jagadish,
//! SIGMOD 1990) that makes round-robin along the curve a good declustering.
//!
//! The conversion between coordinates and curve rank uses Skilling's
//! transpose algorithm (J. Skilling, *Programming the Hilbert curve*, AIP
//! 2004), which works in any dimension with only bit operations.
//!
//! # Example
//!
//! ```
//! use decluster_hilbert::HilbertCurve;
//!
//! let curve = HilbertCurve::new(2, 3).unwrap(); // 8 × 8 grid
//! let rank = curve.encode(&[5, 2]).unwrap();
//! assert_eq!(curve.decode(rank).unwrap(), vec![5, 2]);
//!
//! // Successive curve points are grid neighbours.
//! let a = curve.decode(10).unwrap();
//! let b = curve.decode(11).unwrap();
//! let dist: u32 = a.iter().zip(&b).map(|(x, y)| x.abs_diff(*y)).sum();
//! assert_eq!(dist, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod curve;
mod error;
mod gray;
mod morton;

pub use curve::{BlockWalk, CurveIter, HilbertCurve, PointBlock, BLOCK_RANKS};
pub use error::HilbertError;
pub use gray::{gray_decode, gray_encode};
pub use morton::{GrayOrder, MortonOrder};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HilbertError>;
