//! Parallel-I/O simulator, workload generators, and experiment harness.
//!
//! This crate is the study's laboratory. It provides:
//!
//! * the paper's cost metric — [`response_time`] in bucket retrievals, with
//!   the [`optimal_response_time`] lower bound `ceil(|Q| / M)`;
//! * a physical disk timing model ([`DiskParams`], [`IoSimulator`]) that
//!   turns bucket counts into milliseconds for realism-oriented examples
//!   (the reproduced figures use the hardware-independent bucket metric,
//!   exactly as the paper does);
//! * deterministic workload generators ([`workload`]) for every query
//!   population the paper sweeps: query size (area 1..1024), query shape
//!   (aspect 1:1 → 1:M), dimensionality (2-D/3-D), partial-match and point
//!   queries;
//! * the [`Experiment`] harness and parameter sweeps that regenerate each
//!   figure as a [`SweepResult`] table.
//!
//! # Example
//!
//! ```
//! use decluster_grid::GridSpace;
//! use decluster_sim::{Experiment, workload::SizeSweep};
//!
//! let exp = Experiment::new(GridSpace::new_2d(16, 16).unwrap(), 8)
//!     .with_queries_per_point(50)
//!     .with_seed(7);
//! let result = exp.run_size_sweep(&SizeSweep::new(1, 64, 8)).unwrap();
//! assert!(!result.series.is_empty());
//! // Every method's mean RT is at least the optimal bound.
//! for s in &result.series {
//!     for (i, &rt) in s.means.iter().enumerate() {
//!         assert!(rt + 1e-9 >= result.optimal[i]);
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod disk;
mod eval;
mod events;
mod exec;
mod experiment;
pub mod faults;
mod multiuser;
mod report;
mod rt;
mod spec;
mod stats;
pub mod workload;

pub use disk::{DiskParams, IoSimulator};
pub use eval::{DegradedContext, EvalContext};
pub use events::{sharded_arrivals, LoopScratch, ServeSample};
pub use experiment::{
    AvailPoint, AvailSweep, DbSizePoint, Experiment, MethodSeries, ServeCurve, ServePoint,
    ServeSweep, SharePoint, ShareSweep, SweepResult,
};
pub use faults::{
    degraded_outcome, simulate_rebuild, DiskState, FaultEvent, FaultMethodStats, FaultReport,
    FaultSchedule, QueryOutcome, RebuildReport, ReplicaPolicy, RetryPolicy,
};
pub use multiuser::{
    load_sweep, poisson_arrivals, LoadPoint, LoadPointMethod, MultiUserEngine, MultiUserReport,
};
pub use report::{Report, ReportFormat, TextTable};
pub use rt::{deviation_from_optimal, optimal_response_time, response_time};
pub use spec::{AvailStats, ServeRun, ServeSpec, ShareStats, SpecError, DEFAULT_SPEC_SEED};
pub use stats::{Quantiles, Summary};

/// Errors from the simulator: configuration problems surface as the
/// underlying crates' errors.
///
/// Marked `#[non_exhaustive]`: future variants (e.g. observability I/O
/// errors) are not breaking changes, so match with a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// A grid/query construction failed.
    Grid(decluster_grid::GridError),
    /// A method construction failed.
    Method(decluster_methods::MethodError),
    /// A sweep was configured with no points.
    EmptySweep,
    /// Queries of the requested size/shape cannot fit the grid.
    QueryDoesNotFit {
        /// Requested query extents.
        extents: Vec<u32>,
        /// Grid dimensions.
        dims: Vec<u32>,
    },
    /// A fault specification is malformed or out of range.
    BadFaultSpec {
        /// The offending clause or value.
        spec: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A fault schedule was built for a different disk count than the
    /// experiment it was handed to.
    ScheduleMismatch {
        /// Disks the schedule covers.
        schedule_disks: u32,
        /// Disks the experiment uses.
        experiment_disks: u32,
    },
    /// A replica-selection policy name was not recognized.
    UnknownPolicy {
        /// The offending name.
        name: String,
    },
    /// A [`ServeSpec`] asked for a knob its mode cannot honor.
    Spec(SpecError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Grid(e) => write!(f, "grid error: {e}"),
            SimError::Method(e) => write!(f, "method error: {e}"),
            SimError::EmptySweep => write!(f, "sweep has no points"),
            SimError::QueryDoesNotFit { extents, dims } => {
                write!(f, "query extents {extents:?} do not fit grid {dims:?}")
            }
            SimError::BadFaultSpec { spec, reason } => {
                write!(f, "bad fault spec {spec:?}: {reason}")
            }
            SimError::ScheduleMismatch {
                schedule_disks,
                experiment_disks,
            } => {
                write!(
                    f,
                    "fault schedule covers {schedule_disks} disks but the experiment uses {experiment_disks}"
                )
            }
            SimError::UnknownPolicy { name } => {
                write!(
                    f,
                    "unknown replica policy {name:?} (accepted: {})",
                    faults::ReplicaPolicy::ACCEPTED_NAMES
                )
            }
            SimError::Spec(e) => write!(f, "bad serve spec: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Grid(e) => Some(e),
            SimError::Method(e) => Some(e),
            SimError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<decluster_grid::GridError> for SimError {
    fn from(e: decluster_grid::GridError) -> Self {
        SimError::Grid(e)
    }
}

impl From<decluster_methods::MethodError> for SimError {
    fn from(e: decluster_methods::MethodError) -> Self {
        SimError::Method(e)
    }
}

impl From<SpecError> for SimError {
    fn from(e: SpecError) -> Self {
        SimError::Spec(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
