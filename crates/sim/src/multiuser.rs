//! Closed-loop multi-user simulation of the parallel I/O subsystem.
//!
//! The paper's motivation cites multi-user performance analyses of
//! declustering (Ghandeharizadeh & DeWitt, ICDE'90 / SIGMOD'92); this
//! module provides that view: `clients` concurrent users issue queries
//! back-to-back from a shared workload, each query fans out one page
//! batch per disk, disks serve batches FCFS, and a query completes when
//! its slowest batch does. Declustering quality shows up as throughput:
//! methods that spread each query thinly across disks keep all spindles
//! busy and finish the workload sooner.
//!
//! # The event core
//!
//! Every loop here is a driver over the serving core in
//! [`crate::events`]: client readiness and query completions flow
//! through the deterministic [`crate::events::EventHeap`], and the
//! per-query FCFS fan-out is [`ServingEngine::fan_out`] — the identical
//! float sequence the loops always computed, now shared. Open-loop runs
//! (a load generator rather than a closed set of clients) are the
//! streaming serve, reached through [`crate::ServeSpec::open`]; the
//! load sweep below drives it once per (rate, method) cell.
//!
//! # The counts fast path
//!
//! None of the loops here ever look at page *identities* — FCFS queueing
//! needs only "how many pages must disk `d` fetch", which is exactly what
//! the [`PlanCounts`] kernel answers in `O(M · 2^k)` per query. The
//! [`MultiUserEngine`] caches that kernel per directory and runs every
//! loop allocation-free through a caller-owned [`LoopScratch`]; batch
//! service times come from [`DiskParams::batch_ms_counts`]. Consumers
//! that do need page positions (the rebuild replay in
//! [`crate::faults`]) use the flat [`IoPlan`] arena and the position
//! model instead — see `run_closed_loop_positions_obs`.

use crate::events::{EventHeap, LoopScratch, ServingEngine};
use crate::faults::{DiskState, FaultSchedule, RetryPolicy};
use crate::spec::ServeSpec;
use crate::stats::Quantiles;
use crate::{DiskParams, Result, SimError, Summary};
use decluster_grid::{BucketRegion, GridDirectory, IoPlan};
#[allow(unused_imports)] // rustdoc links
use decluster_methods::PlanCounts;
use decluster_obs::{CounterHandle, GaugeHandle, HistogramHandle, Obs, TraceEvent};

/// Pre-interned handles for the shared closed/open-loop metrics: every
/// name is formatted and resolved once per run, never inside the
/// per-query or per-disk recording loops. Everything recorded here is
/// derived from simulated (logical) milliseconds and counts, so the
/// deterministic sections stay bit-identical across runs; only the
/// sub-millisecond float rounding is quantized (to microseconds for busy
/// time, milliseconds for latencies).
pub(crate) struct LoopMeters {
    queries: CounterHandle,
    batches: CounterHandle,
    queued_batches: CounterHandle,
    disk_busy_us: Vec<CounterHandle>,
    latency_ms: HistogramHandle,
    max_latency_ms: GaugeHandle,
}

impl LoopMeters {
    pub(crate) fn new(obs: &Obs, prefix: &str, m: usize) -> Self {
        LoopMeters {
            queries: obs.counter_handle(&format!("{prefix}.queries")),
            batches: obs.counter_handle(&format!("{prefix}.batches")),
            queued_batches: obs.counter_handle(&format!("{prefix}.queued_batches")),
            disk_busy_us: (0..m)
                .map(|d| obs.counter_handle(&format!("{prefix}.disk{d:02}.busy_us")))
                .collect(),
            latency_ms: obs.histogram_handle(&format!("{prefix}.latency_ms")),
            max_latency_ms: obs.gauge_handle(&format!("{prefix}.max_latency_ms")),
        }
    }

    pub(crate) fn record(
        &self,
        queries: usize,
        batches: u64,
        queued_batches: u64,
        disk_busy_ms: &[f64],
        latencies: &[f64],
    ) {
        self.queries.add(queries as u64);
        self.batches.add(batches);
        self.queued_batches.add(queued_batches);
        for (handle, &busy) in self.disk_busy_us.iter().zip(disk_busy_ms) {
            handle.add((busy * 1000.0).round() as u64);
        }
        let mut max_latency = 0u64;
        for &l in latencies {
            let ms = l.round() as u64;
            self.latency_ms.observe(ms);
            max_latency = max_latency.max(ms);
        }
        self.max_latency_ms.max(max_latency);
    }
}

/// Aggregate results of one closed-loop run.
#[derive(Clone, Debug)]
pub struct MultiUserReport {
    /// Number of queries completed.
    pub queries: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Time the last query completed, ms.
    pub makespan_ms: f64,
    /// Completed queries per second.
    pub throughput_qps: f64,
    /// Per-query latency statistics (issue → completion), ms.
    pub latency: Summary,
    /// Exact nearest-rank p50/p95/p99 latency tails, ms.
    pub tail: Quantiles,
    /// Mean disk utilization in `[0, 1]`: busy time over `M · makespan`.
    pub utilization: f64,
}

/// Builds the aggregate report. Sorts `latencies` in place for the tail
/// quantiles — the summary moments are taken first, in recording order,
/// so their floating-point sums keep their historical bit patterns.
pub(crate) fn assemble_report(
    queries: usize,
    clients: usize,
    makespan: f64,
    m: usize,
    disk_busy_ms: &[f64],
    latencies: &mut [f64],
) -> MultiUserReport {
    let throughput_qps = if makespan > 0.0 {
        queries as f64 / (makespan / 1000.0)
    } else {
        0.0
    };
    let utilization = if makespan > 0.0 && m > 0 {
        disk_busy_ms.iter().sum::<f64>() / (makespan * m as f64)
    } else {
        0.0
    };
    let latency = Summary::of(latencies);
    let tail = Quantiles::of_unsorted(latencies);
    MultiUserReport {
        queries,
        clients,
        makespan_ms: makespan,
        throughput_qps,
        latency,
        tail,
        utilization,
    }
}

/// A directory's multi-user simulation engine: a [`ServingEngine`] (the
/// cached [`PlanCounts`] kernel plus the static load vector) with the
/// whole-run loop drivers on top. Build once per directory (the kernel
/// build walks the grid once), then run any number of closed-loop,
/// open-loop, or degraded workloads against it — each query costs
/// `O(M · 2^k)` kernel lookups and zero heap allocations.
///
/// The engine is immutable and `Sync`: parallel sweeps share one engine
/// per method across worker threads, each worker carrying its own
/// [`LoopScratch`].
#[derive(Clone, Debug)]
pub struct MultiUserEngine {
    core: ServingEngine,
    dir: GridDirectory,
}

impl MultiUserEngine {
    /// Builds the count kernel for `dir` and snapshots its load vector.
    pub fn new(dir: &GridDirectory) -> Self {
        MultiUserEngine {
            core: ServingEngine::new(dir),
            dir: dir.clone(),
        }
    }

    /// Warm-start constructor: adopts a previously compiled kernel (from
    /// a persist-v3 [`decluster_methods::KernelCache`] image) instead of
    /// building one; see [`ServingEngine::with_kernel`].
    ///
    /// # Panics
    /// Panics if the kernel's disk count disagrees with the directory's.
    pub fn with_kernel(dir: &GridDirectory, kernel: Option<decluster_methods::DiskCounts>) -> Self {
        MultiUserEngine {
            core: ServingEngine::with_kernel(dir, kernel),
            dir: dir.clone(),
        }
    }

    /// Disks (`M`).
    pub fn num_disks(&self) -> usize {
        self.core.num_disks()
    }

    /// The directory this engine was built from (shared-scan runs need
    /// the page-level [`GridDirectory::io_plan_into`] arena, not just the
    /// count kernel).
    pub fn directory(&self) -> &GridDirectory {
        &self.dir
    }

    /// Whether queries are served by the prefix-sum kernel (false means
    /// the grid was too large for a table and the engine walks buckets).
    pub fn kernel_backed(&self) -> bool {
        self.core.kernel_backed()
    }

    /// The underlying streaming serving core (for
    /// [`crate::ServeSpec`] arrival-stream runs).
    pub fn serving(&self) -> &ServingEngine {
        &self.core
    }

    /// Closed-loop run against this engine: `clients` users repeatedly
    /// take the next query from `queries` (in order), waiting for their
    /// previous query to finish first. Returns aggregate
    /// throughput/latency/utilization. Deterministic: the only inputs
    /// are the directory, the disk parameters, and the query order. With
    /// observability enabled it records `multiuser.*` counters, the
    /// latency histogram, and a `closed_loop_done` trace event. Reach it
    /// through [`crate::ServeSpec::closed`].
    ///
    /// # Panics
    /// Panics if `clients == 0`.
    pub fn closed_loop_obs(
        &self,
        params: &DiskParams,
        queries: &[BucketRegion],
        clients: usize,
        obs: &Obs,
        ls: &mut LoopScratch,
    ) -> MultiUserReport {
        assert!(clients > 0, "closed loop needs at least one client");
        let record = obs.enabled();
        let meters = record.then(|| LoopMeters::new(obs, "multiuser", self.core.num_disks()));
        let m = self.core.num_disks();
        ls.begin(m, queries.len());
        let mut makespan: f64 = 0.0;
        let mut batches = 0u64;
        let mut queued_batches = 0u64;
        // A client-ready event per client; the earliest-free client
        // (ties by event order) issues the next query.
        for _ in 0..clients {
            ls.events.push(0.0, 0.0);
        }

        for region in queries {
            let issue_at = ls.events.pop().expect("clients > 0").time;
            self.core.counts_into(region, &mut ls.plans, &mut ls.hist);
            let completion = ServingEngine::fan_out(
                issue_at,
                ls.hist
                    .iter()
                    .enumerate()
                    .filter(|(_, &count)| count > 0)
                    .map(|(d, &count)| (d, params.batch_ms_counts(count, self.core.load_of(d)))),
                &mut ls.disk_free_at,
                &mut ls.disk_busy_ms,
                record,
                &mut batches,
                &mut queued_batches,
            );
            ls.latencies.push(completion - issue_at);
            makespan = makespan.max(completion);
            ls.events.push(completion, completion - issue_at);
        }

        let (shape_hits, shape_misses) = ls.plans.drain_stats();
        if let Some(meters) = &meters {
            meters.record(
                queries.len(),
                batches,
                queued_batches,
                &ls.disk_busy_ms,
                &ls.latencies,
            );
            obs.counter_add("kernel.shape_cache_hits", shape_hits);
            obs.counter_add("kernel.shape_cache_misses", shape_misses);
        }
        let report = assemble_report(
            queries.len(),
            clients,
            makespan,
            m,
            &ls.disk_busy_ms,
            &mut ls.latencies,
        );
        if obs.trace_enabled() {
            obs.emit(
                TraceEvent::new("closed_loop_done")
                    .with("queries", queries.len())
                    .with("clients", clients)
                    .with("makespan_ms", report.makespan_ms)
                    .with("utilization", report.utilization),
            );
        }
        report
    }

    /// Degraded closed-loop run against this engine: the closed-loop
    /// workload under a fault schedule with chained-declustering
    /// failover. Query `i` executes at logical fault time `i`, so the
    /// result is a pure function of the inputs — reproducible under any
    /// thread count of the surrounding sweep.
    ///
    /// Batches to a down disk fail over to the chain successor
    /// `(d + 1) mod M`, starting no earlier than
    /// `issue + detection_units × transfer_ms` (the client's timeout and
    /// retries); batches on a gray disk take its latency factor times as
    /// long. A query whose down disk has a down successor is counted
    /// unavailable and abandoned — its client immediately moves on. The
    /// simulation never panics on a fault. Reach it through
    /// [`crate::ServeSpec::closed`] plus [`crate::ServeSpec::faults`].
    ///
    /// # Errors
    /// [`SimError::ScheduleMismatch`] when the schedule's disk count
    /// differs from the engine's.
    ///
    /// # Panics
    /// Panics if `clients == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn degraded_obs(
        &self,
        params: &DiskParams,
        queries: &[BucketRegion],
        clients: usize,
        schedule: &FaultSchedule,
        policy: &RetryPolicy,
        obs: &Obs,
        ls: &mut LoopScratch,
    ) -> Result<DegradedMultiUserReport> {
        assert!(clients > 0, "closed loop needs at least one client");
        let m = self.core.num_disks();
        if schedule.num_disks() as usize != m {
            return Err(SimError::ScheduleMismatch {
                schedule_disks: schedule.num_disks(),
                experiment_disks: m as u32,
            });
        }
        let record = obs.enabled();
        let meters = record.then(|| LoopMeters::new(obs, "multiuser_degraded", m));
        let timeout_ms = policy.detection_units() as f64 * params.transfer_ms;
        ls.begin(m, queries.len());
        let mut makespan: f64 = 0.0;
        let mut unavailable = 0usize;
        let mut failover_batches = 0usize;
        let mut batches = 0u64;
        let mut queued_batches = 0u64;
        for _ in 0..clients {
            ls.events.push(0.0, 0.0);
        }

        for (i, region) in queries.iter().enumerate() {
            let t = i as u64;
            let issue_at = ls.events.pop().expect("clients > 0").time;
            self.core.counts_into(region, &mut ls.plans, &mut ls.hist);
            // Availability first: abandon (don't half-schedule) a query
            // whose down disk has a down chain successor.
            let lost = ls
                .hist
                .iter()
                .enumerate()
                .any(|(d, &count)| count > 0 && schedule.chain_dead(d as u32, t));
            if lost {
                unavailable += 1;
                ls.events.push(issue_at, 0.0);
                continue;
            }
            let mut completion = issue_at;
            for (d, &count) in ls.hist.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                match schedule.state_at(d as u32, t) {
                    state @ (DiskState::Up | DiskState::Slow(_)) => {
                        let start = issue_at.max(ls.disk_free_at[d]);
                        let service = params.batch_ms_counts(count, self.core.load_of(d))
                            * state.latency_factor();
                        ls.disk_free_at[d] = start + service;
                        ls.disk_busy_ms[d] += service;
                        completion = completion.max(start + service);
                        if record {
                            batches += 1;
                            if start > issue_at {
                                queued_batches += 1;
                            }
                        }
                    }
                    DiskState::Down => {
                        let b = (d + 1) % m;
                        let backup_state = schedule.state_at(b as u32, t);
                        let start = (issue_at + timeout_ms).max(ls.disk_free_at[b]);
                        let service = params.batch_ms_counts(count, self.core.load_of(b))
                            * backup_state.latency_factor();
                        ls.disk_free_at[b] = start + service;
                        ls.disk_busy_ms[b] += service;
                        completion = completion.max(start + service);
                        failover_batches += 1;
                        if record {
                            batches += 1;
                            if start > issue_at + timeout_ms {
                                queued_batches += 1;
                            }
                        }
                    }
                }
            }
            ls.latencies.push(completion - issue_at);
            makespan = makespan.max(completion);
            ls.events.push(completion, completion - issue_at);
        }

        let served = ls.latencies.len();
        let (shape_hits, shape_misses) = ls.plans.drain_stats();
        if let Some(meters) = &meters {
            meters.record(
                served,
                batches,
                queued_batches,
                &ls.disk_busy_ms,
                &ls.latencies,
            );
            obs.counter_add("kernel.shape_cache_hits", shape_hits);
            obs.counter_add("kernel.shape_cache_misses", shape_misses);
            obs.counter_add("multiuser_degraded.unavailable", unavailable as u64);
            obs.counter_add(
                "multiuser_degraded.failover_batches",
                failover_batches as u64,
            );
        }
        let report = assemble_report(
            served,
            clients,
            makespan,
            m,
            &ls.disk_busy_ms,
            &mut ls.latencies,
        );
        if obs.trace_enabled() {
            obs.emit(
                TraceEvent::new("degraded_loop_done")
                    .with("served", served)
                    .with("unavailable", unavailable)
                    .with("failover_batches", failover_batches)
                    .with("makespan_ms", report.makespan_ms),
            );
        }
        Ok(DegradedMultiUserReport {
            report,
            served,
            unavailable,
            failover_batches,
        })
    }
}

/// Position-model closed loop over the flat [`IoPlan`] arena: identical
/// queueing structure to the engine's counts loop, but batch service
/// times come from [`DiskParams::batch_ms`] over actual page positions.
/// The rebuild simulation keeps using this so its healthy baseline and
/// its degraded replay (both position-based) stay directly comparable.
pub(crate) fn run_closed_loop_positions_obs(
    dir: &GridDirectory,
    params: &DiskParams,
    queries: &[BucketRegion],
    clients: usize,
    obs: &Obs,
) -> MultiUserReport {
    assert!(clients > 0, "closed loop needs at least one client");
    let record = obs.enabled();
    let m = dir.num_disks() as usize;
    let meters = record.then(|| LoopMeters::new(obs, "multiuser", m));
    let loads = dir.load_vector();
    let mut plan = IoPlan::new();
    let mut disk_free_at = vec![0.0f64; m];
    let mut disk_busy_ms = vec![0.0f64; m];
    let mut latencies = Vec::with_capacity(queries.len());
    let mut makespan: f64 = 0.0;
    let mut batches = 0u64;
    let mut queued_batches = 0u64;

    let mut ready: EventHeap<()> = EventHeap::new();
    for _ in 0..clients {
        ready.push(0.0, ());
    }

    for region in queries {
        let issue_at = ready.pop().expect("clients > 0").time;
        dir.io_plan_into(region, &mut plan);
        let mut completion = issue_at;
        for (d, pages) in plan.iter().enumerate() {
            if pages.is_empty() {
                continue;
            }
            let start = issue_at.max(disk_free_at[d]);
            let service = params.batch_ms(pages, loads[d]);
            disk_free_at[d] = start + service;
            disk_busy_ms[d] += service;
            completion = completion.max(start + service);
            if record {
                batches += 1;
                if start > issue_at {
                    queued_batches += 1;
                }
            }
        }
        latencies.push(completion - issue_at);
        makespan = makespan.max(completion);
        ready.push(completion, ());
    }

    if let Some(meters) = &meters {
        meters.record(
            queries.len(),
            batches,
            queued_batches,
            &disk_busy_ms,
            &latencies,
        );
    }
    let report = assemble_report(
        queries.len(),
        clients,
        makespan,
        m,
        &disk_busy_ms,
        &mut latencies,
    );
    if obs.trace_enabled() {
        obs.emit(
            TraceEvent::new("closed_loop_done")
                .with("queries", queries.len())
                .with("clients", clients)
                .with("makespan_ms", report.makespan_ms)
                .with("utilization", report.utilization),
        );
    }
    report
}

/// A [`MultiUserReport`] plus the fault accounting of a degraded run.
#[derive(Clone, Debug)]
pub struct DegradedMultiUserReport {
    /// Aggregate stats over the *served* queries (throughput counts only
    /// completed queries; the makespan covers the whole run).
    pub report: MultiUserReport,
    /// Queries that completed.
    pub served: usize,
    /// Queries abandoned because some batch had no live copy.
    pub unavailable: usize,
    /// Batches served by a chain backup instead of their primary disk.
    pub failover_batches: usize,
}

/// One method's measurements at one offered load.
#[derive(Clone, Debug)]
pub struct LoadPointMethod {
    /// Declustering method name.
    pub name: String,
    /// Mean query latency, ms.
    pub mean_latency_ms: f64,
    /// Mean disk utilization in `[0, 1]`.
    pub utilization: f64,
    /// Exact p50/p95/p99 latency tails, ms.
    pub tail_ms: Quantiles,
}

/// One point of a latency-vs-load curve: the offered arrival rate and
/// the per-method measurements at it.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered load, queries per second.
    pub rate_qps: f64,
    /// Per-method latency/utilization/tail measurements.
    pub methods: Vec<LoadPointMethod>,
}

/// Sweeps open-loop arrival rates against a set of directories (one per
/// method), producing the classic latency-vs-load curves. The same
/// queries and the same Poisson arrival draws (one arrival per query)
/// are replayed against every method at every rate, so curves differ
/// only by the declustering.
///
/// # Errors
/// As [`ServeSpec::run_with_arrivals`]: [`crate::SpecError::NoQueries`]
/// for an empty `queries`, [`crate::SpecError::BadRate`] for a
/// non-finite rate.
///
/// # Panics
/// Panics if a rate is not positive (see [`poisson_arrivals`]).
pub fn load_sweep(
    dirs: &[(&str, &GridDirectory)],
    params: &DiskParams,
    queries: &[BucketRegion],
    rates_qps: &[f64],
    seed: u64,
) -> Result<Vec<LoadPoint>> {
    load_sweep_with_threads(dirs, params, queries, rates_qps, seed, 1)
}

/// [`load_sweep`] fanned over the deterministic executor: every
/// `(rate, method)` cell runs as an independent [`ServeSpec::open`] run
/// on up to `threads` worker threads, each worker carrying its own
/// [`LoopScratch`]. Engines and arrival draws are built before the
/// fan-out, so the result is bit-identical for any thread count.
///
/// # Errors
/// As [`load_sweep`].
///
/// # Panics
/// As [`load_sweep`].
pub fn load_sweep_with_threads(
    dirs: &[(&str, &GridDirectory)],
    params: &DiskParams,
    queries: &[BucketRegion],
    rates_qps: &[f64],
    seed: u64,
    threads: usize,
) -> Result<Vec<LoadPoint>> {
    use rand::SeedableRng;
    let engines: Vec<MultiUserEngine> = dirs
        .iter()
        .map(|(_, dir)| MultiUserEngine::new(dir))
        .collect();
    let arrivals: Vec<Vec<f64>> = rates_qps
        .iter()
        .map(|&rate| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            poisson_arrivals(&mut rng, queries.len(), rate)
        })
        .collect();
    let nm = dirs.len();
    let obs = Obs::disabled();
    let cells = crate::exec::run_indexed_with(
        threads,
        rates_qps.len() * nm,
        &obs,
        LoopScratch::new,
        |i, ls| {
            let run = ServeSpec::open(rates_qps[i / nm]).run_with_arrivals(
                &engines[i % nm],
                params,
                queries,
                &arrivals[i / nm],
                &obs,
                ls,
            )?;
            Ok((
                run.report.latency.mean,
                run.report.utilization,
                run.report.tail,
            ))
        },
    );
    let cells = cells.into_iter().collect::<Result<Vec<_>>>()?;
    Ok(rates_qps
        .iter()
        .enumerate()
        .map(|(ri, &rate)| LoadPoint {
            rate_qps: rate,
            methods: dirs
                .iter()
                .enumerate()
                .map(|(mi, (name, _))| {
                    let (mean_latency_ms, utilization, tail_ms) = cells[ri * nm + mi];
                    LoadPointMethod {
                        name: (*name).to_owned(),
                        mean_latency_ms,
                        utilization,
                        tail_ms,
                    }
                })
                .collect(),
        })
        .collect())
}

/// Exponential (Poisson-process) arrival times for `n` queries at
/// `rate_qps` queries per second, starting at time 0, from any
/// [`rand::Rng`]. Deterministic per seed.
pub fn poisson_arrivals<R: rand::Rng>(rng: &mut R, n: usize, rate_qps: f64) -> Vec<f64> {
    assert!(rate_qps > 0.0, "arrival rate must be positive");
    let mean_gap_ms = 1000.0 / rate_qps;
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() * mean_gap_ms;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use decluster_grid::{BucketCoord, DiskId, GridSpace};
    use decluster_methods::{DeclusteringMethod, DiskModulo, Hcam};

    fn directory(m: u32, method: &dyn DeclusteringMethod, space: &GridSpace) -> GridDirectory {
        GridDirectory::build(space.clone(), m, |b| method.disk_of(b.as_slice()))
    }

    // Test-local shorthands mirroring the removed free-function wrappers:
    // one engine + fresh scratch per call, observability off.
    fn run_closed_loop(
        dir: &GridDirectory,
        params: &DiskParams,
        queries: &[BucketRegion],
        clients: usize,
    ) -> MultiUserReport {
        MultiUserEngine::new(dir).closed_loop_obs(
            params,
            queries,
            clients,
            &Obs::disabled(),
            &mut LoopScratch::new(),
        )
    }

    fn run_open_loop(
        dir: &GridDirectory,
        params: &DiskParams,
        queries: &[BucketRegion],
        arrivals_ms: &[f64],
    ) -> MultiUserReport {
        ServeSpec::open(1.0)
            .run_with_arrivals(
                &MultiUserEngine::new(dir),
                params,
                queries,
                arrivals_ms,
                &Obs::disabled(),
                &mut LoopScratch::new(),
            )
            .expect("test arrivals are sorted and queries non-empty")
            .report
    }

    fn run_closed_loop_degraded(
        dir: &GridDirectory,
        params: &DiskParams,
        queries: &[BucketRegion],
        clients: usize,
        schedule: &FaultSchedule,
        policy: &RetryPolicy,
    ) -> Result<DegradedMultiUserReport> {
        MultiUserEngine::new(dir).degraded_obs(
            params,
            queries,
            clients,
            schedule,
            policy,
            &Obs::disabled(),
            &mut LoopScratch::new(),
        )
    }

    fn small_squares(space: &GridSpace) -> Vec<BucketRegion> {
        let mut v = Vec::new();
        for r in (0..space.dim(0) - 1).step_by(2) {
            for c in (0..space.dim(1) - 1).step_by(2) {
                v.push(
                    BucketRegion::new(
                        space,
                        BucketCoord::from([r, c]),
                        BucketCoord::from([r + 1, c + 1]),
                    )
                    .unwrap(),
                );
            }
        }
        v
    }

    /// Count-model response time of a lone query: max over disks of
    /// `batch_ms_counts` over the I/O plan's group sizes — an
    /// independent (arena-based) derivation of what the engine's kernel
    /// path must produce.
    fn solo_ms(dir: &GridDirectory, params: &DiskParams, region: &BucketRegion) -> f64 {
        let mut plan = IoPlan::new();
        dir.io_plan_into(region, &mut plan);
        let loads = dir.load_vector();
        plan.iter()
            .zip(&loads)
            .map(|(pages, &disk_pages)| params.batch_ms_counts(pages.len() as u64, disk_pages))
            .fold(0.0, f64::max)
    }

    #[test]
    fn single_client_latency_equals_single_query_time() {
        let space = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&space, 4).unwrap();
        let dir = directory(4, &dm, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let report = run_closed_loop(&dir, &params, &queries[..1], 1);
        assert_eq!(report.queries, 1);
        let expected = solo_ms(&dir, &params, &queries[0]);
        assert!((report.latency.mean - expected).abs() < 1e-9);
        assert!((report.makespan_ms - expected).abs() < 1e-9);
    }

    #[test]
    fn engine_reuse_is_bit_identical_to_fresh_runs() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 8).unwrap();
        let dir = directory(8, &hcam, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let engine = MultiUserEngine::new(&dir);
        assert!(engine.kernel_backed());
        assert_eq!(engine.num_disks(), 8);
        let obs = Obs::disabled();
        let mut ls = LoopScratch::new();
        // A warm scratch (reused across runs) must not change any bit of
        // the output relative to one-shot wrapper runs.
        let _warmup = engine.closed_loop_obs(&params, &queries, 4, &obs, &mut ls);
        let reused = engine.closed_loop_obs(&params, &queries, 4, &obs, &mut ls);
        let fresh = run_closed_loop(&dir, &params, &queries, 4);
        assert_eq!(reused.makespan_ms.to_bits(), fresh.makespan_ms.to_bits());
        assert_eq!(reused.latency.mean.to_bits(), fresh.latency.mean.to_bits());
        assert_eq!(
            reused.throughput_qps.to_bits(),
            fresh.throughput_qps.to_bits()
        );
        assert_eq!(reused.tail, fresh.tail);
    }

    #[test]
    fn more_clients_increase_throughput_until_saturation() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 8).unwrap();
        let dir = directory(8, &hcam, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let t1 = run_closed_loop(&dir, &params, &queries, 1).throughput_qps;
        let t4 = run_closed_loop(&dir, &params, &queries, 4).throughput_qps;
        assert!(
            t4 > t1,
            "4 clients ({t4:.1} qps) should beat 1 ({t1:.1} qps)"
        );
    }

    #[test]
    fn better_declustering_gives_higher_throughput() {
        // All-on-one-disk versus HCAM on the same workload: the spread
        // allocation must win on throughput and utilization.
        let space = GridSpace::new_2d(16, 16).unwrap();
        let m = 8;
        let hcam = Hcam::new(&space, m).unwrap();
        let spread = directory(m, &hcam, &space);
        let stacked = GridDirectory::build(space.clone(), m, |_| DiskId(0));
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let good = run_closed_loop(&spread, &params, &queries, 4);
        let bad = run_closed_loop(&stacked, &params, &queries, 4);
        assert!(good.throughput_qps > bad.throughput_qps);
        assert!(good.utilization > bad.utilization);
    }

    #[test]
    fn latency_suffers_under_contention() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 4).unwrap();
        let dir = directory(4, &hcam, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let solo = run_closed_loop(&dir, &params, &queries, 1);
        let busy = run_closed_loop(&dir, &params, &queries, 8);
        assert!(busy.latency.mean >= solo.latency.mean);
    }

    #[test]
    fn reports_are_deterministic() {
        let space = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&space, 4).unwrap();
        let dir = directory(4, &dm, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let a = run_closed_loop(&dir, &params, &queries, 3);
        let b = run_closed_loop(&dir, &params, &queries, 3);
        assert_eq!(a.makespan_ms, b.makespan_ms);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.tail, b.tail);
    }

    #[test]
    fn report_tails_are_ordered_and_within_range() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 4).unwrap();
        let dir = directory(4, &hcam, &space);
        let report = run_closed_loop(&dir, &DiskParams::default(), &small_squares(&space), 4);
        assert!(report.latency.min <= report.tail.p50);
        assert!(report.tail.p50 <= report.tail.p95);
        assert!(report.tail.p95 <= report.tail.p99);
        assert!(report.tail.p99 <= report.latency.max);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let space = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&space, 4).unwrap();
        let dir = directory(4, &dm, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let report = run_closed_loop(&dir, &params, &queries, 2);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
    }

    #[test]
    fn open_loop_light_load_has_unqueued_latencies() {
        // With arrivals far apart, each query sees an idle subsystem:
        // its latency equals the single-query response time.
        let space = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&space, 4).unwrap();
        let dir = directory(4, &dm, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let arrivals: Vec<f64> = (0..queries.len()).map(|i| i as f64 * 1e6).collect();
        let report = run_open_loop(&dir, &params, &queries, &arrivals);
        // Mean latency equals mean solo response time.
        let solo_mean: f64 = queries
            .iter()
            .map(|q| solo_ms(&dir, &params, q))
            .sum::<f64>()
            / queries.len() as f64;
        assert!((report.latency.mean - solo_mean).abs() < 1e-9);
    }

    #[test]
    fn open_loop_heavy_load_queues_up() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 4).unwrap();
        let dir = directory(4, &hcam, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        // All queries arrive at t=0: maximal queueing.
        let slammed = run_open_loop(&dir, &params, &queries, &vec![0.0; queries.len()]);
        let spaced: Vec<f64> = (0..queries.len()).map(|i| i as f64 * 1e5).collect();
        let idle = run_open_loop(&dir, &params, &queries, &spaced);
        assert!(slammed.latency.mean > idle.latency.mean * 2.0);
        assert!(slammed.utilization > idle.utilization);
    }

    #[test]
    fn load_sweep_produces_monotone_curves() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let m = 4;
        let dm = DiskModulo::new(&space, m).unwrap();
        let hcam = Hcam::new(&space, m).unwrap();
        let dir_dm = directory(m, &dm, &space);
        let dir_hcam = directory(m, &hcam, &space);
        let queries = small_squares(&space);
        let points = load_sweep(
            &[("DM", &dir_dm), ("HCAM", &dir_hcam)],
            &DiskParams::default(),
            &queries,
            &[1.0, 20.0, 200.0],
            42,
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        // Per method, latency never decreases with rate.
        for mi in 0..2 {
            let lats: Vec<f64> = points
                .iter()
                .map(|p| p.methods[mi].mean_latency_ms)
                .collect();
            assert!(lats.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{lats:?}");
        }
        // At the light-load end, HCAM (better spreader on 2x2s) is at
        // least as fast as DM.
        let (dm_lat, hcam_lat) = (
            points[0].methods[0].mean_latency_ms,
            points[0].methods[1].mean_latency_ms,
        );
        assert!(hcam_lat <= dm_lat + 1e-9, "HCAM {hcam_lat} vs DM {dm_lat}");
        // Tails are ordered per cell.
        for p in &points {
            for mm in &p.methods {
                assert!(mm.tail_ms.p50 <= mm.tail_ms.p95);
                assert!(mm.tail_ms.p95 <= mm.tail_ms.p99);
            }
        }
    }

    #[test]
    fn load_sweep_is_thread_count_invariant() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let m = 4;
        let dm = DiskModulo::new(&space, m).unwrap();
        let hcam = Hcam::new(&space, m).unwrap();
        let dir_dm = directory(m, &dm, &space);
        let dir_hcam = directory(m, &hcam, &space);
        let dirs: Vec<(&str, &GridDirectory)> = vec![("DM", &dir_dm), ("HCAM", &dir_hcam)];
        let queries = small_squares(&space);
        let rates = [1.0, 10.0, 50.0, 200.0];
        let params = DiskParams::default();
        let serial = load_sweep_with_threads(&dirs, &params, &queries, &rates, 42, 1).unwrap();
        let parallel = load_sweep_with_threads(&dirs, &params, &queries, &rates, 42, 8).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.rate_qps.to_bits(), b.rate_qps.to_bits());
            for (ma, mb) in a.methods.iter().zip(&b.methods) {
                assert_eq!(ma.name, mb.name);
                assert_eq!(
                    ma.mean_latency_ms.to_bits(),
                    mb.mean_latency_ms.to_bits(),
                    "latency differs"
                );
                assert_eq!(
                    ma.utilization.to_bits(),
                    mb.utilization.to_bits(),
                    "utilization differs"
                );
                assert_eq!(ma.tail_ms, mb.tail_ms, "tails differ");
            }
        }
    }

    #[test]
    fn poisson_arrivals_have_the_right_rate() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let arrivals = poisson_arrivals(&mut rng, 10_000, 50.0);
        assert_eq!(arrivals.len(), 10_000);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap ~ 20ms within 10%.
        let span = arrivals.last().unwrap() - arrivals[0];
        let mean_gap = span / 9_999.0;
        assert!((mean_gap - 20.0).abs() < 2.0, "mean gap {mean_gap}");
    }

    #[test]
    fn degraded_loop_with_healthy_schedule_matches_plain_loop() {
        let space = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&space, 4).unwrap();
        let dir = directory(4, &dm, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let plain = run_closed_loop(&dir, &params, &queries, 3);
        let degraded = run_closed_loop_degraded(
            &dir,
            &params,
            &queries,
            3,
            &FaultSchedule::healthy(4),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(degraded.served, queries.len());
        assert_eq!(degraded.unavailable, 0);
        assert_eq!(degraded.failover_batches, 0);
        assert_eq!(degraded.report.makespan_ms, plain.makespan_ms);
        assert_eq!(degraded.report.latency, plain.latency);
        assert_eq!(degraded.report.tail, plain.tail);
    }

    #[test]
    fn mid_workload_failure_degrades_but_serves_everything() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 4).unwrap();
        let dir = directory(4, &hcam, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let half = queries.len() as u64 / 2;
        let schedule = FaultSchedule::healthy(4).fail_stop(1, half).unwrap();
        let healthy = run_closed_loop(&dir, &params, &queries, 2);
        let degraded = run_closed_loop_degraded(
            &dir,
            &params,
            &queries,
            2,
            &schedule,
            &RetryPolicy::default(),
        )
        .unwrap();
        // Chained failover keeps every query alive...
        assert_eq!(degraded.served, queries.len());
        assert_eq!(degraded.unavailable, 0);
        assert!(degraded.failover_batches > 0);
        // ...at a throughput cost.
        assert!(degraded.report.throughput_qps <= healthy.throughput_qps + 1e-9);
        assert!(degraded.report.makespan_ms >= healthy.makespan_ms - 1e-9);
    }

    #[test]
    fn adjacent_double_failure_drops_queries_without_panicking() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 4).unwrap();
        let dir = directory(4, &hcam, &space);
        let queries = small_squares(&space);
        let schedule = FaultSchedule::healthy(4)
            .fail_stop(1, 0)
            .unwrap()
            .fail_stop(2, 0)
            .unwrap();
        let degraded = run_closed_loop_degraded(
            &dir,
            &DiskParams::default(),
            &queries,
            2,
            &schedule,
            &RetryPolicy::default(),
        )
        .unwrap();
        // 2x2 queries under HCAM at M=4 touch disk 1 (whose backup, disk
        // 2, is also down) often enough that some queries are lost — but
        // the run completes and accounts for every query.
        assert_eq!(degraded.served + degraded.unavailable, queries.len());
        assert!(degraded.unavailable > 0);
    }

    #[test]
    fn slow_disk_stretches_latency() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 4).unwrap();
        let dir = directory(4, &hcam, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let schedule = FaultSchedule::healthy(4).slow(0, 4.0, 0, u64::MAX).unwrap();
        let healthy = run_closed_loop(&dir, &params, &queries, 2);
        let gray = run_closed_loop_degraded(
            &dir,
            &params,
            &queries,
            2,
            &schedule,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(gray.served, queries.len());
        assert!(gray.report.latency.mean > healthy.latency.mean);
    }

    #[test]
    fn degraded_loop_rejects_mismatched_schedule() {
        let space = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&space, 4).unwrap();
        let dir = directory(4, &dm, &space);
        let queries = small_squares(&space);
        assert!(matches!(
            run_closed_loop_degraded(
                &dir,
                &DiskParams::default(),
                &queries,
                1,
                &FaultSchedule::healthy(8),
                &RetryPolicy::default(),
            )
            .unwrap_err(),
            SimError::ScheduleMismatch { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_panics() {
        let space = GridSpace::new_2d(4, 4).unwrap();
        let dm = DiskModulo::new(&space, 2).unwrap();
        let dir = directory(2, &dm, &space);
        let _ = run_closed_loop(&dir, &DiskParams::default(), &[], 0);
    }
}
