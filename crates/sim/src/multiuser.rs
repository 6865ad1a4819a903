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
//! # The event loop
//!
//! Every run here — closed loops, open-loop load sweeps, fault-injected
//! and shared-scan serves, and the rebuild's healthy baseline — is one
//! [`crate::ServeSpec`] run through the single serving loop in
//! [`crate::events`]: client readiness, arrivals and completions flow
//! through one deterministic [`crate::events::EventHeap`], and each
//! query's per-disk batches are pre-costed rows of the run's plan
//! table. The load sweep below drives one open run per (rate, method)
//! cell.
//!
//! # The counts fast path
//!
//! FCFS queueing needs only "how many pages must disk `d` fetch", which
//! is exactly what [`PlanCounts`] answers: by walking a region of at
//! most `2^k` buckets in the allocation table, and through the kernel in
//! `O(M · 2^k)` for a larger one. The [`MultiUserEngine`] caches both
//! per directory and runs every loop allocation-free through a
//! caller-owned [`LoopScratch`]; batch service times come from
//! [`DiskParams::batch_ms_counts`]. Consumers that need page positions
//! (the shared-scan merge, the rebuild baseline) read the engine's
//! [`GridDirectory`] instead.

use crate::events::LoopScratch;
use crate::spec::{ServeSpec, SpecError};
use crate::stats::Quantiles;
use crate::{DiskParams, Result, Summary};
use decluster_grid::{BucketRegion, GridDirectory};
use decluster_methods::{DiskCounts, PlanCounts};
use decluster_obs::{CounterHandle, GaugeHandle, HistogramHandle, Obs};

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

/// A directory's serving engine: the cached [`PlanCounts`] kernel, the
/// static load vector, and the directory itself (the shared-scan merge
/// and the position model read page lists). Build once per directory
/// (the kernel build walks the grid once), then run any number of
/// [`ServeSpec`]s against it — each query region is counted once per
/// run, in `O(M · 2^k)` kernel lookups or a walk of at most `2^k`
/// buckets, and each event makes zero heap allocations.
///
/// The engine is immutable and `Sync`: parallel sweeps share one engine
/// per method across worker threads, each worker carrying its own
/// [`LoopScratch`].
#[derive(Clone, Debug)]
pub struct MultiUserEngine {
    pub(crate) counts: PlanCounts,
    pub(crate) loads: Vec<u64>,
    pub(crate) dir: GridDirectory,
}

impl MultiUserEngine {
    /// Builds the count kernel for `dir` and snapshots its load vector.
    pub fn new(dir: &GridDirectory) -> Self {
        Self::from_counts(dir, PlanCounts::build(dir))
    }

    /// Warm-start constructor: adopts a previously compiled kernel (from
    /// a persist-v3 [`decluster_methods::KernelCache`] image) instead of
    /// building one, so the engine reaches its first scored query with
    /// zero build-phase work. `None` behaves like [`MultiUserEngine::new`]
    /// minus the kernel (bucket-walk fallback).
    ///
    /// # Panics
    /// Panics if the kernel's disk count disagrees with the directory's.
    pub fn with_kernel(dir: &GridDirectory, kernel: Option<DiskCounts>) -> Self {
        Self::from_counts(dir, PlanCounts::with_kernel(dir, kernel))
    }

    fn from_counts(dir: &GridDirectory, counts: PlanCounts) -> Self {
        MultiUserEngine {
            counts,
            loads: dir.load_vector(),
            dir: dir.clone(),
        }
    }

    /// Disks (`M`).
    pub fn num_disks(&self) -> usize {
        self.loads.len()
    }

    /// The directory this engine was built from.
    pub fn directory(&self) -> &GridDirectory {
        &self.dir
    }

    /// Whether queries are served by the prefix-sum kernel (false means
    /// the grid was too large for a table and the engine walks buckets).
    pub fn kernel_backed(&self) -> bool {
        self.counts.kernel_backed()
    }

    /// The engine's count kernel (for exporting into a
    /// [`decluster_methods::KernelCache`]).
    pub fn counts(&self) -> &PlanCounts {
        &self.counts
    }

    /// Returns this engine, which is its own serving core.
    #[deprecated(note = "the engine is its own serving core; call its methods directly")]
    pub fn serving(&self) -> &Self {
        self
    }
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
/// only by the declustering. Every `(rate, method)` cell is an
/// independent [`ServeSpec::open`] run on up to `threads` worker
/// threads, each carrying its own [`LoopScratch`]; engines and arrival
/// draws are built before the fan-out, so the result is bit-identical
/// for any thread count.
///
/// # Errors
/// [`SpecError::BadRate`] for a rate that is not finite and positive;
/// [`SpecError::NoQueries`] for an empty `queries`.
pub fn load_sweep(
    dirs: &[(&str, &GridDirectory)],
    params: &DiskParams,
    queries: &[BucketRegion],
    rates_qps: &[f64],
    seed: u64,
    threads: usize,
) -> Result<Vec<LoadPoint>> {
    use rand::SeedableRng;
    if let Some(&rate_qps) = rates_qps.iter().find(|&&r| !(r.is_finite() && r > 0.0)) {
        return Err(SpecError::BadRate { rate_qps }.into());
    }
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
            Ok(LoadPointMethod {
                name: dirs[i % nm].0.to_owned(),
                mean_latency_ms: run.report.latency.mean,
                utilization: run.report.utilization,
                tail_ms: run.report.tail,
            })
        },
    );
    let mut cells = cells.into_iter();
    rates_qps
        .iter()
        .map(|&rate_qps| {
            Ok(LoadPoint {
                rate_qps,
                methods: cells.by_ref().take(nm).collect::<Result<_>>()?,
            })
        })
        .collect()
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
    use crate::faults::{FaultSchedule, ReplicaPolicy};
    use crate::SimError;
    use decluster_grid::{BucketCoord, DiskId, GridSpace, IoPlan};
    use decluster_methods::{DeclusteringMethod, DiskModulo, Hcam};

    fn directory(m: u32, method: &dyn DeclusteringMethod, space: &GridSpace) -> GridDirectory {
        GridDirectory::build(space.clone(), m, |b| method.disk_of(b.as_slice()))
    }

    // Test-local shorthands: one engine + fresh scratch per call,
    // observability off.
    fn run_closed_loop(
        dir: &GridDirectory,
        params: &DiskParams,
        queries: &[BucketRegion],
        clients: usize,
    ) -> MultiUserReport {
        ServeSpec::closed(clients)
            .run_on(dir, params, queries)
            .expect("test clients are positive")
            .report
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

    /// A closed loop through the fault router with one chained replica
    /// and failover routing.
    fn run_closed_chained(
        dir: &GridDirectory,
        params: &DiskParams,
        queries: &[BucketRegion],
        clients: usize,
        schedule: &FaultSchedule,
    ) -> crate::Result<crate::ServeRun> {
        ServeSpec::closed(clients)
            .replicas(1)
            .policy(ReplicaPolicy::FailoverOnly)
            .faults(schedule.clone())
            .run_on(dir, params, queries)
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
        // the output relative to one-shot runs.
        let spec = ServeSpec::closed(4);
        let _warmup = spec.run(&engine, &params, &queries, &obs, &mut ls).unwrap();
        let reused = spec
            .run(&engine, &params, &queries, &obs, &mut ls)
            .unwrap()
            .report;
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
            1,
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
        let serial = load_sweep(&dirs, &params, &queries, &rates, 42, 1).unwrap();
        let parallel = load_sweep(&dirs, &params, &queries, &rates, 42, 8).unwrap();
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
    fn load_sweep_rejects_a_bad_rate() {
        let space = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&space, 4).unwrap();
        let dir = directory(4, &dm, &space);
        let err = load_sweep(
            &[("DM", &dir)],
            &DiskParams::default(),
            &small_squares(&space),
            &[10.0, 0.0],
            1,
            1,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::Spec(SpecError::BadRate { rate_qps }) if rate_qps == 0.0
        ));
    }

    #[test]
    fn fault_router_with_healthy_schedule_matches_plain_loop() {
        let space = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&space, 4).unwrap();
        let dir = directory(4, &dm, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let plain = run_closed_loop(&dir, &params, &queries, 3);
        let run = ServeSpec::closed(3)
            .faults(FaultSchedule::healthy(4))
            .run_on(&dir, &params, &queries)
            .unwrap();
        let avail = run.availability.unwrap();
        assert_eq!(avail.served, queries.len() as u64);
        assert_eq!((avail.lost, avail.failovers), (0, 0));
        assert_eq!(run.report.makespan_ms, plain.makespan_ms);
        assert_eq!(run.report.latency, plain.latency);
        assert_eq!(run.report.tail, plain.tail);
    }

    #[test]
    fn mid_workload_failure_degrades_but_serves_everything() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 4).unwrap();
        let dir = directory(4, &hcam, &space);
        let params = DiskParams::default();
        let queries = small_squares(&space);
        let healthy = run_closed_loop(&dir, &params, &queries, 2);
        // Disk 1 fails halfway through the healthy run.
        let half = (healthy.makespan_ms / 2.0) as u64;
        let schedule = FaultSchedule::healthy(4).fail_stop(1, half).unwrap();
        let run = run_closed_chained(&dir, &params, &queries, 2, &schedule).unwrap();
        let avail = run.availability.unwrap();
        // Chained failover keeps every query alive...
        assert_eq!(avail.served, queries.len() as u64);
        assert_eq!(avail.lost, 0);
        assert!(avail.failovers > 0);
        // ...at a throughput cost.
        assert!(run.report.throughput_qps <= healthy.throughput_qps + 1e-9);
        assert!(run.report.makespan_ms >= healthy.makespan_ms - 1e-9);
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
        let run = run_closed_chained(&dir, &DiskParams::default(), &queries, 2, &schedule).unwrap();
        let avail = run.availability.unwrap();
        // 2x2 queries under HCAM at M=4 touch disk 1 (whose backup, disk
        // 2, is also down) often enough that some queries are lost — but
        // the run completes and accounts for every query.
        assert_eq!(avail.served + avail.lost, queries.len() as u64);
        assert!(avail.lost > 0);
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
        let gray = run_closed_chained(&dir, &params, &queries, 2, &schedule).unwrap();
        assert_eq!(gray.availability.unwrap().served, queries.len() as u64);
        assert!(gray.report.latency.mean > healthy.latency.mean);
    }

    #[test]
    fn closed_loop_rejects_mismatched_schedule() {
        let space = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&space, 4).unwrap();
        let dir = directory(4, &dm, &space);
        let queries = small_squares(&space);
        assert!(matches!(
            run_closed_chained(
                &dir,
                &DiskParams::default(),
                &queries,
                1,
                &FaultSchedule::healthy(8)
            )
            .unwrap_err(),
            SimError::ScheduleMismatch { .. }
        ));
    }

    #[test]
    fn zero_clients_is_a_typed_error() {
        let space = GridSpace::new_2d(4, 4).unwrap();
        let dm = DiskModulo::new(&space, 2).unwrap();
        let dir = directory(2, &dm, &space);
        assert!(matches!(
            ServeSpec::closed(0)
                .run_on(&dir, &DiskParams::default(), &[])
                .unwrap_err(),
            SimError::Spec(SpecError::NoClients)
        ));
    }
}
