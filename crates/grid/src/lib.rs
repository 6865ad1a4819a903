//! Grid partitioning of multi-attribute data spaces.
//!
//! This crate is the data-space substrate for grid-based declustering, as
//! used by the ICDE'94 study *Performance Evaluation of Grid Based
//! Multi-Attribute Record Declustering Methods* (Himatsingka & Srivastava).
//!
//! A relation with `k` attributes is modelled as a **Cartesian product
//! file**: attribute `i` is split into `d_i` intervals by a
//! [`Partitioning`], and the data space becomes a `d_1 × … × d_k` grid of
//! **buckets** ([`GridSpace`]). Records are routed to the bucket whose cell
//! contains them ([`GridSchema::bucket_of`]); queries are clipped to the
//! grid and become hyper-rectangular **bucket regions** ([`BucketRegion`]).
//!
//! Everything downstream (the declustering methods, the simulator, and the
//! optimality theory) works in terms of bucket coordinates produced here.
//!
//! # Example
//!
//! ```
//! use decluster_grid::{GridSpace, BucketCoord, RangeQuery};
//!
//! // A 2-attribute space partitioned 8 × 8.
//! let space = GridSpace::new_2d(8, 8).unwrap();
//! assert_eq!(space.num_buckets(), 64);
//!
//! // A range query covering bucket columns 1..=3 and rows 2..=5.
//! let q = RangeQuery::new(vec![1, 2], vec![3, 5]).unwrap();
//! let region = q.region(&space).unwrap();
//! assert_eq!(region.num_buckets(), 3 * 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bucket;
mod directory;
mod domain;
mod error;
mod partition;
mod query;
mod record;
mod region;
mod schema;
mod space;

pub use bucket::{BucketCoord, DiskId, COORD_INLINE_DIMS};
pub use directory::{BucketPage, GridDirectory, IoPlan};
pub use domain::{AttributeDomain, DomainKind};
pub use error::GridError;
pub use partition::Partitioning;
pub use query::{PartialMatchQuery, PointQuery, Query, RangeQuery, ValueRangeQuery};
pub use record::{Record, Value};
pub use region::{BucketRegion, RegionIter};
pub use schema::GridSchema;
pub use space::{GridSpace, SpaceIter};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GridError>;
