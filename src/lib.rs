//! # decluster — grid-based multi-attribute record declustering
//!
//! Facade crate for the reproduction of *Performance Evaluation of Grid
//! Based Multi-Attribute Record Declustering Methods* (Himatsingka &
//! Srivastava, ICDE 1994).
//!
//! Re-exports the workspace crates under stable module names:
//!
//! * [`grid`] — data-space partitioning: domains, buckets, queries.
//! * [`hilbert`] — k-dimensional Hilbert curve, Z-order, Gray order.
//! * [`ecc`] — GF(2) linear algebra and binary linear codes.
//! * [`methods`] — the declustering methods (DM/CMD, GDM, BDM, FX/ExFX,
//!   ECC, HCAM), curve ablations, baselines and the advisor.
//! * `file` ([`decluster_file`]) — a declustered multi-attribute file
//!   (records in, parallel scans out).
//! * [`obs`] — the observability layer: metrics registry, trace sinks,
//!   and the `Obs` recorder handle the simulator threads through its
//!   hot paths.
//! * [`sim`] — the parallel-I/O simulator, workloads, multi-user runs,
//!   and the experiment harness.
//! * [`theory`] — strict-optimality verification, exact shape profiles,
//!   and the `M > 5` impossibility result.
//!
//! The [`prelude`] pulls in the types needed for the common path
//! (grid → method → response time).
//!
//! ```
//! use decluster::prelude::*;
//!
//! let space = GridSpace::new_2d(16, 16).unwrap();
//! let method = Hcam::new(&space, 4).unwrap();
//! let region = RangeQuery::new([2, 3], [5, 9]).unwrap().region(&space).unwrap();
//! let rt = response_time(&method, &region);
//! assert!(rt >= optimal_response_time(region.num_buckets(), 4));
//! ```

pub use decluster_ecc as ecc;
pub use decluster_file as file;
pub use decluster_grid as grid;
pub use decluster_hilbert as hilbert;
pub use decluster_methods as methods;
pub use decluster_obs as obs;
pub use decluster_sim as sim;
pub use decluster_theory as theory;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use decluster_file::{DeclusteredFile, IoReport, ScanResult};
    pub use decluster_grid::{
        AttributeDomain, BucketCoord, BucketRegion, DiskId, GridSchema, GridSpace,
        PartialMatchQuery, Partitioning, PointQuery, Query, RangeQuery, Record, Value,
        ValueRangeQuery,
    };
    pub use decluster_methods::{
        advise, AllocationMap, CurveAlloc, CurveKind, DeclusteringMethod, DiskModulo, EccDecluster,
        FieldwiseXor, GeneralizedDiskModulo, Hcam, MethodKind, MethodRegistry, RandomAlloc,
        RoundRobin,
    };
    pub use decluster_sim::{
        deviation_from_optimal, optimal_response_time, response_time, DiskParams, Experiment,
        IoSimulator, MultiUserEngine, Quantiles, ServeSpec, ServeSweep, SweepResult,
    };
}
