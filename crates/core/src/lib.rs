//! Grid-based multi-attribute declustering methods.
//!
//! The subject of the ICDE'94 study: algorithms that map each bucket of a
//! [`decluster_grid::GridSpace`] to one of `M` disks so that range,
//! partial-match, and point queries spread their I/O across disks.
//!
//! Implemented methods (one module each):
//!
//! | Method | Origin | Rule |
//! |---|---|---|
//! | [`DiskModulo`] (DM/CMD) | Du & Sobolewski '82; Li et al. '92 | `(Σ iⱼ) mod M` |
//! | [`GeneralizedDiskModulo`] (GDM) | Du '86 | `(Σ cⱼ·iⱼ) mod M` |
//! | BDM | Du '86 | GDM with radix coefficients |
//! | [`FieldwiseXor`] (FX/ExFX) | Kim & Pramanik '88 | `(i₁ ⊕ … ⊕ i_k) mod M` |
//! | [`EccDecluster`] (ECC) | Faloutsos & Metaxas '91 | coset syndrome |
//! | [`Hcam`] (HCAM) | Faloutsos & Bhagwat '93 | Hilbert rank `mod M` |
//! | [`RoundRobin`], [`RandomAlloc`] | baselines | row-major / hashed |
//!
//! All methods implement [`DeclusteringMethod`]; [`AllocationMap`]
//! materializes any method over a grid and computes response times and
//! load statistics; [`MethodRegistry`] constructs methods by name;
//! [`advise`] picks the best method for a sampled workload — the paper's
//! closing recommendation ("information about common queries … ought to be
//! used in deciding the declustering") turned into an API.
//!
//! # Example
//!
//! ```
//! use decluster_grid::{GridSpace, RangeQuery};
//! use decluster_methods::{AllocationMap, DeclusteringMethod, DiskModulo, Hcam};
//!
//! let space = GridSpace::new_2d(8, 8).unwrap();
//! let dm = DiskModulo::new(&space, 4).unwrap();
//! assert_eq!(dm.disk_of(&[2, 3]).0, (2 + 3) % 4);
//!
//! // Materialize and ask for a query's response time (max buckets on one disk).
//! let map = AllocationMap::from_method(&space, &dm).unwrap();
//! let region = RangeQuery::new([0, 0], [3, 3]).unwrap().region(&space).unwrap();
//! assert_eq!(map.response_time(&region), 4); // 16 buckets over 4 disks, perfectly spread
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod advisor;
mod allocation;
mod baseline;
mod dm;
mod ecc_method;
mod error;
mod fx;
mod gdm;
mod hash;
mod hcam;
mod persist;
mod plan;
mod prefix;
mod registry;
mod sfc;
mod traits;

pub use advisor::{advise, Advice};
pub use allocation::{one_shot_response_time, AllocationMap, LoadStats};
pub use baseline::{RandomAlloc, RoundRobin};
pub use dm::DiskModulo;
pub use ecc_method::EccDecluster;
pub use error::MethodError;
pub use fx::FieldwiseXor;
pub use gdm::GeneralizedDiskModulo;
pub use hash::{splitmix64, splitmix64_unit};
pub use hcam::Hcam;
pub use persist::KernelCache;
pub use plan::{PlanCounts, ShareAttribution, SharedScan};
pub use prefix::{
    kernel_build_count, CornerPlan, DiskCounts, PlanCache, ScoreBatch, Scratch, ShapeRun,
};
pub use registry::{MethodKind, MethodRegistry};
pub use sfc::{CurveAlloc, CurveKind};
pub use traits::DeclusteringMethod;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MethodError>;
