//! Unified serving-run specification: one builder for every run the
//! serving loop can drive.
//!
//! [`ServeSpec`] picks a mode ([`ServeSpec::closed`] or
//! [`ServeSpec::open`]), chains the knobs that matter (replicas, policy,
//! retry, faults, sampling, admission, sharing), and runs. Every knob the
//! chosen mode cannot honor, and every input the loop cannot serve (an
//! empty query pool, arrival times that are not finite and
//! non-decreasing, more requests than a `u32` numbers), is a typed
//! one-line [`SpecError`] instead of a silent ignore or a panic.
//!
//! Every spec runs through the one event loop in [`crate::events`]; the
//! spec only picks its parts:
//!
//! | spec | source | router | batcher |
//! |---|---|---|---|
//! | `closed(c)` | `c` closed clients | FCFS on the primary | pass-through |
//! | `closed(c).faults(..)` | `c` closed clients | fault router | pass-through |
//! | `open(rate)` | arrival stream | FCFS on the primary | pass-through |
//! | `open(rate).faults(..)` | arrival stream | fault router | pass-through |
//! | `open(rate).share(w)` | arrival stream | FCFS on the primary | shared-scan window (`w > 0`) |
//!
//! Every run plans count rows from the kernel, except the shared-scan
//! window (which merges page lists at flush) and the rebuild's healthy
//! baseline (position rows, crate-internal).

use crate::events::{LoopScratch, Rows};
use crate::faults::{FaultSchedule, ReplicaPolicy, RetryPolicy};
use crate::multiuser::{MultiUserEngine, MultiUserReport};
use crate::workload::InterArrival;
use crate::{DiskParams, SimError};
use decluster_grid::{BucketRegion, GridDirectory};
use decluster_obs::Obs;

/// Default RNG seed of self-generated arrival streams (the repository's
/// pinned experiment seed).
pub const DEFAULT_SPEC_SEED: u64 = 1994;

/// A serving-run mode: a closed set of clients or an open arrival stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum SpecMode {
    /// `clients` users, each issuing its next query on completion.
    Closed { clients: usize },
    /// An open Poisson stream at `rate_qps` (ignored by
    /// [`ServeSpec::run_with_arrivals`], which takes explicit times).
    Open { rate_qps: f64 },
}

/// Why a [`ServeSpec`] was rejected. Every variant renders as one line,
/// ready for a CLI's `error:` prefix.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SpecError {
    /// A closed loop was configured with zero clients.
    NoClients,
    /// An open loop's offered rate is not finite and positive.
    BadRate {
        /// The offending rate, queries per second.
        rate_qps: f64,
    },
    /// The sampling interval is negative or not finite.
    BadSampling {
        /// The offending interval, ms.
        every_ms: f64,
    },
    /// The latency-ring window has zero capacity.
    BadWindow,
    /// The shared-scan batch window is negative or not finite.
    BadBatchWindow {
        /// The offending window, ms.
        window_ms: f64,
    },
    /// A shared-scan overlap fraction falls outside `[0, 1]`.
    BadOverlap {
        /// The offending fraction.
        overlap: f64,
    },
    /// More replicas than `M - 1` chain successors exist.
    TooManyReplicas {
        /// Requested chain replicas per bucket.
        replicas: u32,
        /// Disks in the directory.
        disks: usize,
    },
    /// Shared-scan batching combined with a fault schedule (the shared
    /// loop is healthy-mode only).
    SharingWithFaults,
    /// Shared-scan batching in a closed loop (windows are defined over
    /// arrival times, which a closed loop does not have).
    SharingClosedLoop,
    /// Admission control without a fault schedule (only the degraded
    /// loop sheds arrivals).
    AdmissionWithoutFaults,
    /// Explicit arrival times handed to a closed loop.
    ClosedArrivals,
    /// An open loop was handed an empty query pool.
    NoQueries,
    /// An arrival time is not finite or falls before its predecessor.
    UnsortedArrivals {
        /// Position of the first offending arrival.
        index: usize,
    },
    /// A run would issue more requests than a `u32` numbers.
    TooManyRequests {
        /// Requests the run would issue.
        requests: usize,
    },
    /// The retry budget exceeds `u16::MAX` re-issues.
    TooManyRetries {
        /// The offending budget.
        max_retries: u32,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoClients => write!(f, "closed loop needs at least one client"),
            SpecError::BadRate { rate_qps } => {
                write!(
                    f,
                    "open-loop rate must be finite and positive, got {rate_qps}"
                )
            }
            SpecError::BadSampling { every_ms } => {
                write!(
                    f,
                    "sampling interval must be finite and non-negative, got {every_ms}"
                )
            }
            SpecError::BadWindow => write!(f, "latency window must hold at least one sample"),
            SpecError::BadBatchWindow { window_ms } => {
                write!(
                    f,
                    "batch window must be finite and non-negative, got {window_ms}"
                )
            }
            SpecError::BadOverlap { overlap } => {
                write!(f, "overlap fraction must lie in [0, 1], got {overlap}")
            }
            SpecError::TooManyReplicas { replicas, disks } => {
                write!(
                    f,
                    "replica count {replicas} must be below the disk count {disks}"
                )
            }
            SpecError::SharingWithFaults => {
                write!(f, "shared-scan batching cannot run under a fault schedule")
            }
            SpecError::SharingClosedLoop => {
                write!(f, "shared-scan batching requires an open arrival stream")
            }
            SpecError::AdmissionWithoutFaults => {
                write!(f, "admission control requires a fault schedule")
            }
            SpecError::ClosedArrivals => {
                write!(
                    f,
                    "closed loops pace themselves; arrival times need an open spec"
                )
            }
            SpecError::NoQueries => write!(f, "open loop needs at least one query region"),
            SpecError::UnsortedArrivals { index } => {
                write!(
                    f,
                    "arrival times must be finite and non-decreasing; arrival {index} is not"
                )
            }
            SpecError::TooManyRequests { requests } => {
                write!(
                    f,
                    "a run issues at most {} requests, got {requests}",
                    u32::MAX
                )
            }
            SpecError::TooManyRetries { max_retries } => {
                write!(
                    f,
                    "retry budget must be at most {} re-issues, got {max_retries}",
                    u16::MAX
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Builder-style specification of one serving run. See the module docs
/// for the table of the parts each spec picks.
///
/// # Example
///
/// ```
/// use decluster_grid::{GridDirectory, GridSpace, RangeQuery};
/// use decluster_methods::{DeclusteringMethod, DiskModulo};
/// use decluster_sim::{DiskParams, ServeSpec};
///
/// let space = GridSpace::new_2d(8, 8).unwrap();
/// let dm = DiskModulo::new(&space, 4).unwrap();
/// let dir = GridDirectory::build(space.clone(), 4, |b| dm.disk_of(b.as_slice()));
/// let queries = [RangeQuery::new([0, 0], [3, 3])
///     .unwrap()
///     .region(&space)
///     .unwrap()];
/// let run = ServeSpec::closed(4)
///     .run_on(&dir, &DiskParams::default(), &queries)
///     .unwrap();
/// assert_eq!(run.report.queries, 1);
/// ```
#[derive(Clone, Debug)]
pub struct ServeSpec {
    pub(crate) mode: SpecMode,
    pub(crate) replicas: u32,
    pub(crate) policy: ReplicaPolicy,
    pub(crate) retry: RetryPolicy,
    pub(crate) faults: Option<FaultSchedule>,
    pub(crate) sample_every_ms: f64,
    pub(crate) window: usize,
    pub(crate) batch_window_ms: Option<f64>,
    pub(crate) max_in_flight: usize,
    pub(crate) seed: u64,
    threads: usize,
}

impl ServeSpec {
    fn new(mode: SpecMode) -> Self {
        ServeSpec {
            mode,
            replicas: 0,
            policy: ReplicaPolicy::PrimaryOnly,
            retry: RetryPolicy::default(),
            faults: None,
            sample_every_ms: 0.0,
            window: 1024,
            batch_window_ms: None,
            max_in_flight: 0,
            seed: DEFAULT_SPEC_SEED,
            threads: 1,
        }
    }

    /// Closed clients of the run (0 for an open stream).
    pub(crate) fn clients(&self) -> usize {
        match self.mode {
            SpecMode::Closed { clients } => clients,
            SpecMode::Open { .. } => 0,
        }
    }

    /// A closed loop: `clients` users repeatedly issue the next query as
    /// soon as their previous one completes.
    pub fn closed(clients: usize) -> Self {
        ServeSpec::new(SpecMode::Closed { clients })
    }

    /// An open loop: requests arrive as a Poisson stream at `rate_qps`
    /// regardless of completions. [`ServeSpec::run`] generates one
    /// arrival per query deterministically from the spec's seed;
    /// [`ServeSpec::run_with_arrivals`] takes explicit times instead.
    pub fn open(rate_qps: f64) -> Self {
        ServeSpec::new(SpecMode::Open { rate_qps })
    }

    /// Chain replicas per bucket (`r`): the copies the fault router and
    /// the shared-scan window route reads over.
    #[must_use]
    pub fn replicas(mut self, replicas: u32) -> Self {
        self.replicas = replicas;
        self
    }

    /// How reads pick among the `1 + r` copies.
    #[must_use]
    pub fn policy(mut self, policy: ReplicaPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Timeout and retry budget of failure detection.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Run under a fault schedule through the fault router. The
    /// schedule's clock is milliseconds of simulated time, in closed and
    /// open mode alike.
    #[must_use]
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// Sample mid-run state every `every_ms` of logical time (`0`
    /// disables sampling).
    #[must_use]
    pub fn sampling(mut self, every_ms: f64) -> Self {
        self.sample_every_ms = every_ms;
        self
    }

    /// Capacity of the windowed latency ring behind each sample's tails.
    #[must_use]
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Merge overlapping queries arriving within `batch_window_ms` into
    /// one deduplicated shared scan (open-loop healthy mode only; `0`
    /// keeps the merge machinery off and is bit-identical to not calling
    /// this at all).
    #[must_use]
    pub fn share(mut self, batch_window_ms: f64) -> Self {
        self.batch_window_ms = Some(batch_window_ms);
        self
    }

    /// Shed arrivals past `max_in_flight` in-flight requests (under a
    /// fault schedule only; `0` disables shedding). A closed client whose
    /// request is shed issues its next query at once.
    #[must_use]
    pub fn admission(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Seed of self-generated arrivals and retry jitter.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads used to generate the arrival stream in
    /// [`ServeSpec::run`] (the result is byte-identical at any count).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Accepted and ignored: every run is one serial loop that plans
    /// each distinct query once per run, so there is nothing to shard.
    #[deprecated(note = "serving is serial and plans each distinct query once; this is a no-op")]
    #[must_use]
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Checks every knob against the chosen mode and `disks`.
    ///
    /// # Errors
    /// The first [`SpecError`] the spec violates, in a fixed order.
    pub fn validate(&self, disks: usize) -> Result<(), SpecError> {
        match self.mode {
            SpecMode::Closed { clients } => {
                if clients == 0 {
                    return Err(SpecError::NoClients);
                }
                if self.batch_window_ms.is_some() {
                    return Err(SpecError::SharingClosedLoop);
                }
            }
            SpecMode::Open { rate_qps } => {
                if !(rate_qps.is_finite() && rate_qps > 0.0) {
                    return Err(SpecError::BadRate { rate_qps });
                }
            }
        }
        if !(self.sample_every_ms.is_finite() && self.sample_every_ms >= 0.0) {
            return Err(SpecError::BadSampling {
                every_ms: self.sample_every_ms,
            });
        }
        if self.window == 0 {
            return Err(SpecError::BadWindow);
        }
        if let Some(w) = self.batch_window_ms {
            if !(w.is_finite() && w >= 0.0) {
                return Err(SpecError::BadBatchWindow { window_ms: w });
            }
            if self.faults.is_some() {
                return Err(SpecError::SharingWithFaults);
            }
        }
        if self.replicas as usize >= disks {
            return Err(SpecError::TooManyReplicas {
                replicas: self.replicas,
                disks,
            });
        }
        if self.max_in_flight > 0 && self.faults.is_none() {
            return Err(SpecError::AdmissionWithoutFaults);
        }
        if self.retry.max_retries > u32::from(u16::MAX) {
            return Err(SpecError::TooManyRetries {
                max_retries: self.retry.max_retries,
            });
        }
        Ok(())
    }

    /// Checks the inputs an open loop serves: a non-empty query pool and
    /// arrival times that are finite and non-decreasing.
    fn check_open_inputs(queries: &[BucketRegion], arrivals_ms: &[f64]) -> Result<(), SpecError> {
        if queries.is_empty() {
            return Err(SpecError::NoQueries);
        }
        let mut prev = f64::NEG_INFINITY;
        for (index, &t) in arrivals_ms.iter().enumerate() {
            // `prev <= t` is false for a NaN on either side.
            if !(t.is_finite() && prev <= t) {
                return Err(SpecError::UnsortedArrivals { index });
            }
            prev = t;
        }
        Ok(())
    }

    /// Runs the spec, generating the open-loop arrival stream (one
    /// arrival per query, Poisson at the spec's rate, from the spec's
    /// seed) when the mode needs one. Sweeps should prefer
    /// [`ServeSpec::run_with_arrivals`] and reuse one stream.
    ///
    /// # Errors
    /// [`SimError::Spec`] when the spec is invalid for the engine;
    /// [`SimError::ScheduleMismatch`] when a fault schedule covers a
    /// different disk count.
    pub fn run(
        &self,
        engine: &MultiUserEngine,
        params: &DiskParams,
        queries: &[BucketRegion],
        obs: &Obs,
        ls: &mut LoopScratch,
    ) -> crate::Result<ServeRun> {
        match self.mode {
            SpecMode::Closed { .. } => {
                self.serve_rows(engine, Rows::Counts, params, queries, &[], obs, ls)
            }
            SpecMode::Open { rate_qps } => {
                self.validate(engine.num_disks()).map_err(SimError::Spec)?;
                let arrivals = crate::events::sharded_arrivals(
                    self.seed,
                    queries.len(),
                    InterArrival::Poisson { rate_qps },
                    self.threads,
                    obs,
                );
                self.serve_rows(engine, Rows::Counts, params, queries, &arrivals, obs, ls)
            }
        }
    }

    /// Runs an open-mode spec over explicit arrival times (allocation-free
    /// once the scratch is warm). `arrivals_ms[i]` issues query
    /// `i % queries.len()`.
    ///
    /// # Errors
    /// As [`ServeSpec::run`]; also [`SpecError::ClosedArrivals`] for
    /// closed mode, [`SpecError::NoQueries`] for an empty `queries`, and
    /// [`SpecError::UnsortedArrivals`] when an arrival time is NaN,
    /// infinite, or earlier than its predecessor.
    pub fn run_with_arrivals(
        &self,
        engine: &MultiUserEngine,
        params: &DiskParams,
        queries: &[BucketRegion],
        arrivals_ms: &[f64],
        obs: &Obs,
        ls: &mut LoopScratch,
    ) -> crate::Result<ServeRun> {
        if matches!(self.mode, SpecMode::Closed { .. }) {
            return Err(SimError::Spec(SpecError::ClosedArrivals));
        }
        self.serve_rows(engine, Rows::Counts, params, queries, arrivals_ms, obs, ls)
    }

    /// One-shot convenience: builds an engine and scratch for `dir` and
    /// runs without observability. Sweeps should build a
    /// [`MultiUserEngine`] once and call [`ServeSpec::run`] instead.
    ///
    /// # Errors
    /// As [`ServeSpec::run`].
    pub fn run_on(
        &self,
        dir: &GridDirectory,
        params: &DiskParams,
        queries: &[BucketRegion],
    ) -> crate::Result<ServeRun> {
        self.run(
            &MultiUserEngine::new(dir),
            params,
            queries,
            &Obs::disabled(),
            &mut LoopScratch::new(),
        )
    }

    /// Validates the spec and its inputs against `engine`, then runs it
    /// through the serving loop with `rows`-costed plan rows.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_rows(
        &self,
        engine: &MultiUserEngine,
        rows: Rows,
        params: &DiskParams,
        queries: &[BucketRegion],
        arrivals_ms: &[f64],
        obs: &Obs,
        ls: &mut LoopScratch,
    ) -> crate::Result<ServeRun> {
        let disks = engine.num_disks();
        self.validate(disks)?;
        let requests = match self.mode {
            SpecMode::Closed { .. } => queries.len(),
            SpecMode::Open { .. } => {
                Self::check_open_inputs(queries, arrivals_ms)?;
                arrivals_ms.len()
            }
        };
        if u32::try_from(requests).is_err() {
            return Err(SpecError::TooManyRequests { requests }.into());
        }
        if let Some(schedule) = &self.faults {
            if schedule.num_disks() as usize != disks {
                return Err(SimError::ScheduleMismatch {
                    schedule_disks: schedule.num_disks(),
                    experiment_disks: disks as u32,
                });
            }
        }
        Ok(engine.serve(self, rows, params, queries, arrivals_ms, obs, ls))
    }
}

/// Availability accounting of a fault-injected run. Every request is
/// exactly one of served, shed, or lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AvailStats {
    /// Requests that completed.
    pub served: u64,
    /// Requests refused at admission.
    pub shed: u64,
    /// Requests abandoned with no live copy.
    pub lost: u64,
    /// Retry events scheduled.
    pub retries: u64,
    /// Timed-out batch attempts paid during chain failover.
    pub timeouts: u64,
    /// Batches served by a non-primary copy.
    pub failovers: u64,
    /// Disk health transitions processed.
    pub transitions: u64,
}

impl AvailStats {
    /// Fraction of arrivals served, in `[0, 1]` (1.0 for an empty run).
    pub fn availability(&self) -> f64 {
        let offered = self.served + self.shed + self.lost;
        if offered == 0 {
            1.0
        } else {
            self.served as f64 / offered as f64
        }
    }
}

/// Shared-scan accounting of a batching run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShareStats {
    /// Batch windows flushed.
    pub windows: u64,
    /// Queries that shared a window with at least one other query.
    pub merged_queries: u64,
    /// Duplicate pages eliminated by merging.
    pub pages_saved: u64,
}

/// The unified result of one [`ServeSpec`] run: the aggregate report,
/// the event-loop counters, and the availability/sharing accounting of
/// the runs that track them.
#[derive(Clone, Debug)]
pub struct ServeRun {
    /// Aggregate throughput/latency/utilization.
    pub report: MultiUserReport,
    /// Events processed: every heap pop plus every open arrival.
    pub events: u64,
    /// High-water mark of in-flight requests.
    pub peak_in_flight: usize,
    /// Total pages fetched (deduplicated under a shared-scan window).
    pub pages: u64,
    /// Mid-run samples recorded into the scratch.
    pub samples: usize,
    /// Fault accounting, present when the spec had a fault schedule.
    pub availability: Option<AvailStats>,
    /// Sharing accounting, present when the spec had a batch window.
    pub sharing: Option<ShareStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::random_region;
    use decluster_grid::GridSpace;
    use decluster_methods::{DeclusteringMethod, Hcam};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (GridDirectory, Vec<BucketRegion>, Vec<f64>) {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 8).unwrap();
        let dir = GridDirectory::build(space.clone(), 8, |b| hcam.disk_of(b.as_slice()));
        let mut rng = StdRng::seed_from_u64(42);
        let queries: Vec<BucketRegion> = (0..40)
            .map(|_| random_region(&mut rng, &space, &[6, 6]).unwrap())
            .collect();
        let arrivals = crate::multiuser::poisson_arrivals(&mut rng, 40, 200.0);
        (dir, queries, arrivals)
    }

    #[test]
    fn validation_errors_render_as_one_line() {
        let schedule = FaultSchedule::parse("fail:0@5", 8).unwrap();
        let cases: Vec<(ServeSpec, SpecError)> = vec![
            (ServeSpec::closed(0), SpecError::NoClients),
            (ServeSpec::open(0.0), SpecError::BadRate { rate_qps: 0.0 }),
            (
                ServeSpec::open(100.0).sampling(f64::NAN),
                SpecError::BadSampling { every_ms: f64::NAN },
            ),
            (ServeSpec::open(100.0).window(0), SpecError::BadWindow),
            (
                ServeSpec::open(100.0).share(-1.0),
                SpecError::BadBatchWindow { window_ms: -1.0 },
            ),
            (
                ServeSpec::open(100.0).replicas(8),
                SpecError::TooManyReplicas {
                    replicas: 8,
                    disks: 8,
                },
            ),
            (
                ServeSpec::open(100.0).share(4.0).faults(schedule.clone()),
                SpecError::SharingWithFaults,
            ),
            (
                ServeSpec::closed(4).share(4.0),
                SpecError::SharingClosedLoop,
            ),
            (
                ServeSpec::open(100.0).admission(64),
                SpecError::AdmissionWithoutFaults,
            ),
            (
                ServeSpec::open(100.0).retry(RetryPolicy {
                    timeout_units: 1,
                    max_retries: 1 << 16,
                }),
                SpecError::TooManyRetries {
                    max_retries: 1 << 16,
                },
            ),
        ];
        for (spec, want) in cases {
            let got = spec.validate(8).expect_err("spec must be rejected");
            match (&got, &want) {
                // NaN != NaN, so compare the variant by its rendering.
                (SpecError::BadSampling { .. }, SpecError::BadSampling { .. }) => {}
                _ => assert_eq!(got, want),
            }
            assert_eq!(
                got.to_string().lines().count(),
                1,
                "{got:?} must render as one line"
            );
        }
    }

    /// Every open mode (plain, shared scan, fault-injected) run over
    /// `queries` and `arrivals` on the fixture's engine.
    fn run_open_modes(
        dir: &GridDirectory,
        queries: &[BucketRegion],
        arrivals: &[f64],
    ) -> Vec<crate::Result<ServeRun>> {
        let engine = MultiUserEngine::new(dir);
        let schedule = FaultSchedule::parse("fail:2@10", 8).unwrap();
        [
            ServeSpec::open(200.0),
            ServeSpec::open(200.0).share(5.0),
            ServeSpec::open(200.0).replicas(1).faults(schedule),
        ]
        .iter()
        .map(|spec| {
            spec.run_with_arrivals(
                &engine,
                &DiskParams::default(),
                queries,
                arrivals,
                &Obs::disabled(),
                &mut LoopScratch::new(),
            )
        })
        .collect()
    }

    fn assert_spec_error(runs: Vec<crate::Result<ServeRun>>, want: &SpecError) {
        for run in runs {
            match run {
                Err(SimError::Spec(got)) => {
                    assert_eq!(&got, want);
                    assert_eq!(got.to_string().lines().count(), 1, "{got:?}");
                }
                other => panic!("expected {want:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_query_pool_is_a_typed_error() {
        let (dir, _, arrivals) = fixture();
        assert_spec_error(run_open_modes(&dir, &[], &arrivals), &SpecError::NoQueries);
        // Even with nothing to serve, an empty pool is rejected.
        assert_spec_error(run_open_modes(&dir, &[], &[]), &SpecError::NoQueries);
    }

    #[test]
    fn unsorted_arrivals_are_a_typed_error() {
        let (dir, queries, mut arrivals) = fixture();
        arrivals.swap(4, 5);
        assert_spec_error(
            run_open_modes(&dir, &queries, &arrivals),
            &SpecError::UnsortedArrivals { index: 5 },
        );
    }

    #[test]
    fn nan_arrival_is_a_typed_error() {
        let (dir, queries, mut arrivals) = fixture();
        arrivals[7] = f64::NAN;
        assert_spec_error(
            run_open_modes(&dir, &queries, &arrivals),
            &SpecError::UnsortedArrivals { index: 7 },
        );
        // A lone NaN has no neighbour to be out of order with.
        assert_spec_error(
            run_open_modes(&dir, &queries, &[f64::NAN]),
            &SpecError::UnsortedArrivals { index: 0 },
        );
    }

    #[test]
    fn closed_replicas_route_through_the_fault_router() {
        let (dir, queries, _) = fixture();
        let params = DiskParams::default();
        let plain = ServeSpec::closed(4)
            .run_on(&dir, &params, &queries)
            .unwrap();
        assert_eq!(plain.events, 4 + queries.len() as u64);
        assert_eq!(plain.peak_in_flight, 4);
        assert!(plain.availability.is_none() && plain.sharing.is_none());
        // Without a schedule, replicas change nothing; with one, the
        // closed clients fail over along the chain.
        let replicated = ServeSpec::closed(4)
            .replicas(1)
            .run_on(&dir, &params, &queries)
            .unwrap();
        assert_eq!(
            plain.report.makespan_ms.to_bits(),
            replicated.report.makespan_ms.to_bits()
        );
        let schedule = FaultSchedule::parse("fail:2@0", 8).unwrap();
        let run = ServeSpec::closed(4)
            .replicas(1)
            .policy(ReplicaPolicy::FailoverOnly)
            .faults(schedule)
            .run_on(&dir, &params, &queries)
            .unwrap();
        let avail = run.availability.unwrap();
        assert_eq!(avail.served, queries.len() as u64);
        assert!(avail.failovers > 0);
    }

    #[test]
    fn warm_started_engine_is_bit_identical_to_cold() {
        let (dir, queries, arrivals) = fixture();
        let params = DiskParams::default();
        // Cold: build the kernel, export it to a persist-v3 image.
        let cold = MultiUserEngine::new(&dir);
        let mut cache = decluster_methods::KernelCache::new();
        let map = cold.counts().allocation();
        let kernel = cold.counts().kernel().expect("kernel-backed");
        cache.insert("HCAM", map, kernel);
        // Warm: reload the image and adopt the stored kernel.
        let loaded = decluster_methods::KernelCache::from_bytes(&cache.to_bytes()).unwrap();
        let warm =
            MultiUserEngine::with_kernel(&dir, Some(loaded.lookup("HCAM", map).expect("fresh")));
        assert!(warm.kernel_backed());
        let schedule = FaultSchedule::parse("fail:2@10", 8).unwrap();
        let closed_cold = ServeSpec::closed(4)
            .run(
                &cold,
                &params,
                &queries,
                &Obs::disabled(),
                &mut LoopScratch::new(),
            )
            .unwrap();
        let closed_warm = ServeSpec::closed(4)
            .run(
                &warm,
                &params,
                &queries,
                &Obs::disabled(),
                &mut LoopScratch::new(),
            )
            .unwrap();
        assert_eq!(
            closed_cold.report.makespan_ms.to_bits(),
            closed_warm.report.makespan_ms.to_bits()
        );
        assert_eq!(
            closed_cold.report.throughput_qps.to_bits(),
            closed_warm.report.throughput_qps.to_bits()
        );
        for spec in [
            ServeSpec::open(200.0),
            ServeSpec::open(200.0).share(5.0),
            ServeSpec::open(200.0)
                .replicas(1)
                .policy(ReplicaPolicy::NearestFreeQueue)
                .faults(schedule),
        ] {
            let a = spec
                .clone()
                .run_with_arrivals(
                    &cold,
                    &params,
                    &queries,
                    &arrivals,
                    &Obs::disabled(),
                    &mut LoopScratch::new(),
                )
                .unwrap();
            let b = spec
                .run_with_arrivals(
                    &warm,
                    &params,
                    &queries,
                    &arrivals,
                    &Obs::disabled(),
                    &mut LoopScratch::new(),
                )
                .unwrap();
            assert_eq!(
                a.report.makespan_ms.to_bits(),
                b.report.makespan_ms.to_bits()
            );
            assert_eq!(
                a.report.throughput_qps.to_bits(),
                b.report.throughput_qps.to_bits()
            );
            assert_eq!(
                a.report.utilization.to_bits(),
                b.report.utilization.to_bits()
            );
            assert_eq!(a.pages, b.pages);
            assert_eq!(a.events, b.events);
            assert_eq!(a.availability, b.availability);
            assert_eq!(a.sharing, b.sharing);
        }
    }

    #[test]
    fn zero_batch_window_is_bit_identical_to_unshared() {
        let (dir, queries, arrivals) = fixture();
        let params = DiskParams::default();
        let engine = MultiUserEngine::new(&dir);
        let plain = ServeSpec::open(200.0)
            .run_with_arrivals(
                &engine,
                &params,
                &queries,
                &arrivals,
                &Obs::disabled(),
                &mut LoopScratch::new(),
            )
            .unwrap();
        let shared = ServeSpec::open(200.0)
            .share(0.0)
            .run_with_arrivals(
                &engine,
                &params,
                &queries,
                &arrivals,
                &Obs::disabled(),
                &mut LoopScratch::new(),
            )
            .unwrap();
        assert_eq!(
            plain.report.makespan_ms.to_bits(),
            shared.report.makespan_ms.to_bits()
        );
        assert_eq!(plain.pages, shared.pages);
        assert_eq!(plain.events, shared.events);
        let sharing = shared.sharing.expect("share(0) still reports stats");
        assert_eq!(sharing, ShareStats::default());
    }

    #[test]
    fn sharing_saves_pages_on_overlapping_bursts() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 8).unwrap();
        let dir = GridDirectory::build(space.clone(), 8, |b| hcam.disk_of(b.as_slice()));
        let region = decluster_grid::RangeQuery::new([0, 0], [7, 7])
            .unwrap()
            .region(&space)
            .unwrap();
        let queries = vec![region; 4];
        // All four arrive inside one 5 ms window.
        let arrivals = [0.0, 1.0, 2.0, 3.0];
        let engine = MultiUserEngine::new(&dir);
        let params = DiskParams::default();
        let run = ServeSpec::open(200.0)
            .share(5.0)
            .run_with_arrivals(
                &engine,
                &params,
                &queries,
                &arrivals,
                &Obs::disabled(),
                &mut LoopScratch::new(),
            )
            .unwrap();
        let sharing = run.sharing.expect("sharing stats present");
        assert_eq!(sharing.windows, 1);
        assert_eq!(sharing.merged_queries, 4);
        // Four identical 64-page scans dedup to one: 3 × 64 pages saved.
        assert_eq!(sharing.pages_saved, 3 * 64);
        assert_eq!(run.pages, 64);
        assert_eq!(run.report.queries, 4);
    }
}
