use crate::eval::{DegradedContext, EvalContext};
use crate::events::{sharded_arrivals, LoopScratch, Rows, ServeSample};
use crate::exec::{derive_point_seed, run_indexed, run_indexed_with};
use crate::faults::{FaultReport, FaultSchedule, ReplicaPolicy, RetryPolicy};
use crate::multiuser::{load_sweep, LoadPoint, MultiUserEngine};
use crate::spec::{ServeRun, ServeSpec, SpecError};
use crate::stats::Quantiles;
use crate::workload::{
    partial_match_with_unspecified, random_corners, random_region, rect_sides_for_area,
    InterArrival, ShapeSweep, SizeSweep,
};
use crate::{DiskParams, Result, SimError, Summary};
use decluster_grid::{BucketRegion, GridDirectory, GridSpace};
use decluster_methods::{AllocationMap, DeclusteringMethod, KernelCache, MethodRegistry, Scratch};
use decluster_obs::{Obs, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// One method's curve in a sweep: mean response time (or deviation) per
/// x-value. Points where the method does not apply (e.g. ECC at a
/// non-power-of-two disk count) are `NaN` and render as `-`.
#[derive(Clone, Debug)]
pub struct MethodSeries {
    /// Method name (`DM`, `FX`, `ECC`, `HCAM`, …).
    pub name: String,
    /// Mean response time at each x.
    pub means: Vec<f64>,
    /// Full summary statistics at each x (empty summary at NaN points).
    pub summaries: Vec<Summary>,
}

impl MethodSeries {
    fn new(name: String, len: usize) -> Self {
        MethodSeries {
            name,
            means: vec![f64::NAN; len],
            summaries: vec![Summary::of(&[]); len],
        }
    }
}

/// The output of one experiment: x-values, the optimal lower-bound curve,
/// and one series per method. This is the in-memory form of one paper
/// figure.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Human-readable experiment title.
    pub title: String,
    /// Label of the x axis.
    pub xlabel: String,
    /// The x-values visited.
    pub xs: Vec<f64>,
    /// Mean optimal response time `ceil(|Q|/M)` at each x.
    pub optimal: Vec<f64>,
    /// One curve per method.
    pub series: Vec<MethodSeries>,
}

impl SweepResult {
    /// The series for a method name, if present.
    pub fn series_for(&self, name: &str) -> Option<&MethodSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Mean of `series / optimal` across all points where both are finite
    /// and the optimum is nonzero — a single "deviation factor" per method.
    pub fn mean_deviation_factor(&self, name: &str) -> Option<f64> {
        let s = self.series_for(name)?;
        let mut ratios = Vec::new();
        for (m, o) in s.means.iter().zip(&self.optimal) {
            if m.is_finite() && *o > 0.0 {
                ratios.push(m / o);
            }
        }
        (!ratios.is_empty()).then(|| ratios.iter().sum::<f64>() / ratios.len() as f64)
    }
}

/// A point of the database-size experiment (E6).
#[derive(Clone, Debug)]
pub struct DbSizePoint {
    /// Grid side length.
    pub side: u32,
    /// Query side length used at this grid size.
    pub query_side: u32,
}

/// One `(arrival rate, method)` cell of a serve sweep: offered versus
/// achieved throughput, latency mean and tails, utilization, the peak
/// in-flight count, and the mid-run samples.
#[derive(Clone, Debug)]
pub struct ServePoint {
    /// Offered arrival rate, queries/s.
    pub offered_qps: f64,
    /// Achieved completion throughput, queries/s.
    pub achieved_qps: f64,
    /// Mean issue-to-completion latency, ms.
    pub mean_latency_ms: f64,
    /// Exact nearest-rank p50/p95/p99 latency tails, ms.
    pub tail_ms: Quantiles,
    /// Mean disk utilization in `[0, 1]`.
    pub utilization: f64,
    /// High-water mark of concurrently in-flight queries.
    pub peak_in_flight: usize,
    /// Mid-run metric samples at the configured logical-time interval.
    pub samples: Vec<ServeSample>,
}

/// A per-method saturation curve: one [`ServePoint`] per offered rate
/// plus the knee — the largest offered rate the method still serves at
/// ≥95% of offered throughput.
#[derive(Clone, Debug)]
pub struct ServeCurve {
    /// Method name.
    pub method: String,
    /// One point per offered rate, in sweep order.
    pub points: Vec<ServePoint>,
    /// Saturation knee, queries/s (`0.0` when every rate saturates).
    pub knee_qps: f64,
}

/// Result of [`Experiment::run_serve_sweep`]: per-method saturation
/// curves over a shared arrival-rate sweep.
#[derive(Clone, Debug)]
pub struct ServeSweep {
    /// Human-readable description of the sweep.
    pub title: String,
    /// Arrivals simulated per (rate, method) cell.
    pub clients: usize,
    /// The offered rates, queries/s.
    pub rates_qps: Vec<f64>,
    /// One curve per method, in registry order.
    pub curves: Vec<ServeCurve>,
}

/// One `(method, overlap, replica count)` cell of a share sweep: the
/// same arrival stream served once without batching and once with the
/// shared-scan window, plus the merge accounting of the shared run.
#[derive(Clone, Debug)]
pub struct SharePoint {
    /// Method name.
    pub method: String,
    /// Fraction of queries redirected to the hot pool, in `[0, 1]`.
    pub overlap: f64,
    /// Chain replicas per bucket (`r`) the merged reads spread over.
    pub replicas: u32,
    /// Achieved throughput without batching, queries/s.
    pub unshared_qps: f64,
    /// Achieved throughput with the batch window, queries/s.
    pub shared_qps: f64,
    /// Mean latency without batching, ms.
    pub unshared_mean_ms: f64,
    /// Mean latency with the batch window, ms.
    pub shared_mean_ms: f64,
    /// Batch windows flushed in the shared run.
    pub windows: u64,
    /// Queries that shared their window with at least one other query.
    pub merged_queries: u64,
    /// Duplicate pages the merge eliminated.
    pub pages_saved: u64,
}

impl SharePoint {
    /// Shared-over-unshared throughput ratio (`> 1` means batching won).
    pub fn speedup(&self) -> f64 {
        self.shared_qps / self.unshared_qps
    }
}

/// Result of [`Experiment::run_share_sweep`]: one [`SharePoint`] per
/// `(method, overlap, replicas)` cell, in that nesting order.
#[derive(Clone, Debug)]
pub struct ShareSweep {
    /// Human-readable description of the sweep.
    pub title: String,
    /// Arrivals simulated per cell.
    pub clients: usize,
    /// Offered arrival rate, queries/s.
    pub rate_qps: f64,
    /// Length of the shared-scan merge window, ms.
    pub batch_window_ms: f64,
    /// One point per cell, in sweep order.
    pub points: Vec<SharePoint>,
}

/// One `(fault schedule, replica count, policy)` cell of an availability
/// sweep: the fraction of arrivals served, the loss/shed/retry volume,
/// and what the configuration costs in response time and storage
/// relative to the fault-free unreplicated baseline.
#[derive(Clone, Debug)]
pub struct AvailPoint {
    /// The fault schedule this cell ran under (CLI grammar).
    pub schedule: String,
    /// Extra copies per bucket (`r`).
    pub replicas: u32,
    /// Replica-selection policy.
    pub policy: ReplicaPolicy,
    /// Served fraction of all arrivals, in `[0, 1]`.
    pub availability: f64,
    /// Arrivals served to completion.
    pub served: u64,
    /// Arrivals shed at admission.
    pub shed: u64,
    /// Arrivals lost after exhausting retries.
    pub lost: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Failover timeout penalties paid (chain hops).
    pub timeouts: u64,
    /// Requests served by a non-primary copy.
    pub failovers: u64,
    /// Achieved completion throughput, queries/s.
    pub achieved_qps: f64,
    /// Mean issue-to-completion latency over served requests, ms.
    pub mean_latency_ms: f64,
    /// Exact nearest-rank latency tails, ms.
    pub tail_ms: Quantiles,
    /// Mean latency relative to the sweep's first cell (the fault-free
    /// `r = 1` primary-only baseline); `1.0` for the baseline itself.
    pub rt_overhead: f64,
    /// Storage cost relative to no replication: `1 + r`.
    pub storage_overhead: f64,
}

/// Result of [`Experiment::run_avail_sweep`]: one [`AvailPoint`] per
/// `(schedule, replica count, policy)` combination for a single method,
/// in `schedules × replicas × ReplicaPolicy::ALL` order.
#[derive(Clone, Debug)]
pub struct AvailSweep {
    /// Human-readable description of the sweep.
    pub title: String,
    /// The method under study.
    pub method: String,
    /// Arrivals simulated per cell.
    pub clients: usize,
    /// Offered arrival rate, queries/s.
    pub rate_qps: f64,
    /// One point per cell, in sweep order.
    pub points: Vec<AvailPoint>,
}

/// The shared-scan drivers' query stream: `base` with an `overlap`
/// fraction of its queries redirected to one hot scan (the first
/// region), which maximizes page overlap inside a window — the regime
/// batching is supposed to win in. The redirect test is a
/// splitmix64-finalized hash of the query index, so overlap streams are
/// identical at any thread count.
fn redirect_hot(base: &[BucketRegion], overlap: f64) -> Vec<BucketRegion> {
    base.iter()
        .enumerate()
        .map(|(i, region)| {
            if decluster_methods::splitmix64_unit(i as u64) < overlap {
                &base[0]
            } else {
                region
            }
        })
        .cloned()
        .collect()
}

/// One serve-driver cell: the engine, query stream and arrival stream a
/// [`ServeSpec`] runs over.
type ServeCell<'a> = (
    &'a MultiUserEngine,
    &'a [BucketRegion],
    &'a [f64],
    ServeSpec,
);

/// The serve drivers' load checks: at least one rate, at least one
/// client, and every offered rate finite and positive.
fn check_load(clients: usize, rates_qps: &[f64]) -> Result<()> {
    if rates_qps.is_empty() {
        return Err(SimError::EmptySweep);
    }
    if clients == 0 {
        return Err(SpecError::NoClients.into());
    }
    match rates_qps.iter().find(|&&r| !(r.is_finite() && r > 0.0)) {
        Some(&rate_qps) => Err(SpecError::BadRate { rate_qps }.into()),
        None => Ok(()),
    }
}

/// The shared drivers' checks: every overlap fraction in `[0, 1]` and a
/// finite, non-negative batch window.
fn check_sharing(overlaps: &[f64], batch_window_ms: f64) -> Result<()> {
    if let Some(&overlap) = overlaps.iter().find(|&&o| !(0.0..=1.0).contains(&o)) {
        return Err(SpecError::BadOverlap { overlap }.into());
    }
    if !(batch_window_ms.is_finite() && batch_window_ms >= 0.0) {
        return Err(SpecError::BadBatchWindow {
            window_ms: batch_window_ms,
        }
        .into());
    }
    Ok(())
}

/// One evaluated sweep point: the x-value plus each method's summary and
/// the mean optimal bound. Sweep points are independent — each is scored
/// from its own derived RNG stream — which is what lets the executor fan
/// them out over threads without changing any number.
struct PointScore {
    x: f64,
    names: Vec<String>,
    summaries: Vec<Summary>,
    optimal: f64,
}

impl PointScore {
    /// Point `x` of `ctx`'s methods, from what its scorer returned. The
    /// scorers reset the worker's plan cache at batch start, so a scratch
    /// that last served another point — or another *grid* (the
    /// database-size sweep) — cannot influence results or metrics.
    fn new(ctx: &EvalContext, x: f64, (summaries, optimal): (Vec<Summary>, f64)) -> Self {
        PointScore {
            x,
            names: ctx.names().into_iter().map(str::to_owned).collect(),
            summaries,
            optimal,
        }
    }
}

/// An [`Experiment`]'s context over its own grid and `M`: built by the
/// first sweep that needs it, then shared by every later sweep (and by
/// clones of the experiment) until a builder that changes what it holds
/// swaps in an empty cell. `Debug` prints only whether it is built.
#[derive(Clone, Default)]
struct SweepContext(Arc<OnceLock<EvalContext>>);

impl fmt::Debug for SweepContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.0.get() {
            Some(_) => "SweepContext(built)",
            None => "SweepContext(unbuilt)",
        })
    }
}

/// The experiment harness: a grid, a disk count, a query budget per data
/// point, and a seed. Each `run_*` method regenerates one of the paper's
/// figures as a [`SweepResult`].
///
/// # Evaluation engine
///
/// Every sweep materializes its methods into an [`EvalContext`], scoring
/// queries through the `O(M · 2^k)` prefix-sum kernel with a naive-walk
/// fallback. Sweeps over the experiment's own grid and `M` share one
/// context, built by the first of them to run; the disk and
/// database-size sweeps, whose `M` or grid varies, build one per point.
/// [`Experiment::with_seed`], [`Experiment::with_baselines`],
/// [`Experiment::with_obs`] and [`Experiment::with_kernel_cache`] drop a
/// built context, so the next sweep builds one that reflects them.
/// Points are evaluated by a deterministic parallel executor: each point
/// draws from an RNG seeded by `(seed, point index)`, so results are
/// bit-identical for any thread count, including one.
#[derive(Clone, Debug)]
pub struct Experiment {
    space: GridSpace,
    m: u32,
    queries_per_point: usize,
    seed: u64,
    include_baselines: bool,
    threads: usize,
    method_filter: Option<String>,
    obs: Obs,
    kernel_cache: Option<Arc<Mutex<KernelCache>>>,
    context: SweepContext,
}

impl Experiment {
    /// An experiment on `space` with `m` disks, 1000 queries per point,
    /// seed 1994, paper methods only, single-threaded.
    pub fn new(space: GridSpace, m: u32) -> Self {
        Experiment {
            space,
            m,
            queries_per_point: 1000,
            seed: 1994,
            include_baselines: false,
            threads: 1,
            method_filter: None,
            obs: Obs::disabled(),
            kernel_cache: None,
            context: SweepContext::default(),
        }
    }

    /// Attaches a persist-v3 [`KernelCache`]: engine and context
    /// construction consults it before compiling each count kernel (a
    /// hit skips the build phase entirely) and inserts freshly built
    /// kernels back, so a cold run warms the cache for the next start.
    /// Results are byte-identical with or without a cache — a stored
    /// kernel is revalidated against the live allocation and a stale
    /// entry simply misses. The default is no cache (always build).
    /// Drops a built sweep context.
    pub fn with_kernel_cache(mut self, cache: Arc<Mutex<KernelCache>>) -> Self {
        self.kernel_cache = Some(cache);
        self.context = SweepContext::default();
        self
    }

    /// Sets how many random query placements are averaged per data point.
    pub fn with_queries_per_point(mut self, q: usize) -> Self {
        self.queries_per_point = q.max(1);
        self
    }

    /// Sets the RNG seed (which also seeds the method registry). Drops a
    /// built sweep context.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.context = SweepContext::default();
        self
    }

    /// Also evaluates the RR and RND baselines. Drops a built sweep
    /// context.
    pub fn with_baselines(mut self, yes: bool) -> Self {
        self.include_baselines = yes;
        self.context = SweepContext::default();
        self
    }

    /// Sets how many worker threads evaluate sweep points; `0` means one
    /// per available CPU. Results do not depend on this setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Restricts the multi-user and serve engine set to one method by
    /// name (e.g. `"HCAM"`). The query stream and arrival streams are
    /// unchanged, so the surviving method's numbers are bit-identical
    /// to its column in the unrestricted run.
    pub fn with_method_filter(mut self, name: &str) -> Self {
        self.method_filter = Some(name.to_owned());
        self
    }

    /// Attaches an observability handle; every context the experiment
    /// materializes shares it, sweep points record per-point wall time
    /// and logical counters, and (when tracing is on) each completed
    /// point emits a `point_done` event. Deterministic metric values do
    /// not depend on the thread count. The default is the no-op
    /// recorder. Drops a built sweep context.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self.context = SweepContext::default();
        self
    }

    /// The grid under study.
    pub fn space(&self) -> &GridSpace {
        &self.space
    }

    /// The disk count under study.
    pub fn num_disks(&self) -> u32 {
        self.m
    }

    fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Materializes the method set (and RT kernels) for one grid and
    /// disk count, serially. Sweeps whose grid or `M` varies build one
    /// per point inside executor workers; the others share the one
    /// [`Experiment::sweep_context`] builds.
    fn context_for(&self, space: &GridSpace, m: u32) -> EvalContext {
        let registry = MethodRegistry::with_seed(self.seed);
        match &self.kernel_cache {
            Some(cache) => {
                let maps = Self::materialize_maps(&registry, space, m, self.include_baselines);
                let mut guard = cache.lock().expect("kernel cache lock");
                EvalContext::from_maps_cached(m, maps, &mut guard)
            }
            None => EvalContext::materialize(&registry, space, m, self.include_baselines),
        }
        .with_obs(self.obs.clone())
    }

    fn materialize_maps(
        registry: &MethodRegistry,
        space: &GridSpace,
        m: u32,
        baselines: bool,
    ) -> Vec<AllocationMap> {
        let methods = if baselines {
            registry.with_baselines(space, m)
        } else {
            registry.paper_methods(space, m)
        };
        methods
            .iter()
            .map(|method| {
                AllocationMap::from_method(space, method.as_ref())
                    .expect("experiment grids are materializable")
            })
            .collect()
    }

    /// The one context every sweep over the experiment's own grid and
    /// `M` shares across its points, built on first use. Build wall time
    /// lands in the `kernel.build_ms` phase (wall-clock section, outside
    /// the deterministic contract).
    fn sweep_context(&self) -> &EvalContext {
        self.context.0.get_or_init(|| {
            let _build = self.obs.time_phase("kernel.build_ms");
            self.context_for(&self.space, self.m)
        })
    }

    /// Evaluates `total` sweep points through the parallel executor,
    /// handing each point an RNG derived from `(seed, index)` and its
    /// worker's reusable [`Scratch`] (accumulators + query-plan cache;
    /// never observable in the results).
    fn run_points<F>(&self, total: usize, eval: F) -> Result<Vec<PointScore>>
    where
        F: Fn(usize, &mut StdRng, &mut Scratch) -> Result<PointScore> + Sync,
    {
        run_indexed_with(
            self.effective_threads(),
            total,
            &self.obs,
            Scratch::new,
            |i, scratch| {
                let _point_timer = self.obs.time_phase("sweep.point_ms");
                let mut rng = StdRng::seed_from_u64(derive_point_seed(self.seed, i as u64));
                let point = eval(i, &mut rng, scratch);
                if self.obs.enabled() {
                    self.obs.counter_add("sweep.points", 1);
                }
                if self.obs.trace_enabled() {
                    if let Ok(p) = &point {
                        self.obs.emit(
                            TraceEvent::new("point_done")
                                .with("point", i)
                                .with("x", p.x)
                                .with("methods", p.names.len()),
                        );
                    }
                }
                point
            },
        )
        .into_iter()
        .collect()
    }

    /// Assembles evaluated points into a [`SweepResult`], padding series
    /// that were absent at some points with NaN.
    fn assemble(title: String, xlabel: String, points: Vec<PointScore>) -> SweepResult {
        let total = points.len();
        let mut xs = Vec::with_capacity(total);
        let mut optimal = Vec::with_capacity(total);
        let mut series: Vec<MethodSeries> = Vec::new();
        for (i, point) in points.into_iter().enumerate() {
            xs.push(point.x);
            optimal.push(point.optimal);
            for (name, summary) in point.names.into_iter().zip(point.summaries) {
                let entry = match series.iter_mut().find(|s| s.name == name) {
                    Some(e) => e,
                    None => {
                        series.push(MethodSeries::new(name, total));
                        series.last_mut().expect("just pushed")
                    }
                };
                entry.means[i] = summary.mean;
                entry.summaries[i] = summary;
            }
        }
        SweepResult {
            title,
            xlabel,
            xs,
            optimal,
            series,
        }
    }

    /// **Experiment 1 (query size).** Near-square queries of each area in
    /// the sweep, placed uniformly at random; reports mean RT per method
    /// and the optimal curve. Paper: "The query size was varied from
    /// area = 1 to area = 1024."
    ///
    /// # Errors
    /// [`SimError::EmptySweep`] for an empty sweep;
    /// [`SimError::QueryDoesNotFit`] if an area cannot be realized.
    pub fn run_size_sweep(&self, sweep: &SizeSweep) -> Result<SweepResult> {
        if sweep.areas().is_empty() {
            return Err(SimError::EmptySweep);
        }
        // Resolve every area's rectangle up front so shape errors surface
        // before any evaluation starts.
        let sides: Vec<Vec<u32>> = sweep
            .areas()
            .iter()
            .map(|&area| {
                rect_sides_for_area(area, self.space.dims()).ok_or_else(|| {
                    SimError::QueryDoesNotFit {
                        extents: vec![area as u32],
                        dims: self.space.dims().to_vec(),
                    }
                })
            })
            .collect::<Result<_>>()?;
        let ctx = self.sweep_context();
        let points = self.run_points(sweep.areas().len(), |i, rng, scratch| {
            let n = self.queries_per_point;
            random_corners(rng, &self.space, &sides[i], n, scratch.corners_mut())?;
            let x = sweep.areas()[i] as f64;
            Ok(PointScore::new(
                ctx,
                x,
                ctx.score_corners_with(&sides[i], scratch),
            ))
        })?;
        Ok(Self::assemble(
            format!(
                "Query-size sweep: mean response time vs query area (grid {:?}, M={})",
                self.space.dims(),
                self.m
            ),
            "query area (buckets)".into(),
            points,
        ))
    }

    /// **Experiment 2 (query shape).** Fixed-area queries swept from a
    /// square (aspect 1:1) toward a line (1:2^p). Paper: "vary the full
    /// range from a square to a line by varying the aspect ratio from 1:1
    /// to 1:M."
    ///
    /// # Errors
    /// [`SimError::EmptySweep`] if no aspect ratio divides the area.
    pub fn run_shape_sweep(&self, sweep: &ShapeSweep) -> Result<SweepResult> {
        if sweep.powers().is_empty() {
            return Err(SimError::EmptySweep);
        }
        let ctx = self.sweep_context();
        let points = self.run_points(sweep.powers().len(), |i, rng, scratch| {
            let p = sweep.powers()[i];
            let (a, b) = ShapeSweep::sides_for(sweep.area(), p).expect("sweep admitted this power");
            let sides = [a, b];
            let n = self.queries_per_point;
            random_corners(rng, &self.space, &sides, n, scratch.corners_mut())?;
            let x = f64::from(1u32 << p);
            Ok(PointScore::new(
                ctx,
                x,
                ctx.score_corners_with(&sides, scratch),
            ))
        })?;
        Ok(Self::assemble(
            format!(
                "Shape sweep: mean response time vs aspect ratio 1:x at area {} (grid {:?}, M={})",
                sweep.area(),
                self.space.dims(),
                self.m
            ),
            "aspect ratio 1:x".into(),
            points,
        ))
    }

    /// **Figure 5 sweep (number of disks).** Fixed query area, `M` swept.
    /// Paper Figure 5(a) uses small queries, 5(b) large ones.
    ///
    /// # Errors
    /// [`SimError::EmptySweep`] / [`SimError::QueryDoesNotFit`] as above.
    pub fn run_disk_sweep(&self, disk_counts: &[u32], area: u64) -> Result<SweepResult> {
        if disk_counts.is_empty() {
            return Err(SimError::EmptySweep);
        }
        let sides = rect_sides_for_area(area, self.space.dims()).ok_or_else(|| {
            SimError::QueryDoesNotFit {
                extents: vec![area as u32],
                dims: self.space.dims().to_vec(),
            }
        })?;
        // One shared query population, generated before the fan-out, so
        // every M sees identical queries.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut corners = Vec::new();
        random_corners(
            &mut rng,
            &self.space,
            &sides,
            self.queries_per_point,
            &mut corners,
        )?;
        let points = self.run_points(disk_counts.len(), |i, _rng, scratch| {
            let m = disk_counts[i];
            let ctx = self.context_for(&self.space, m);
            scratch.corners_mut().extend_from_slice(&corners);
            Ok(PointScore::new(
                &ctx,
                f64::from(m),
                ctx.score_corners_with(&sides, scratch),
            ))
        })?;
        Ok(Self::assemble(
            format!(
                "Disk sweep: response time vs M at query area {} (grid {:?})",
                area,
                self.space.dims()
            ),
            "number of disks M".into(),
            points,
        ))
    }

    /// **Experiment 6 (database size).** Square grids of growing side;
    /// the query side grows with each point as given. Reports mean RT per
    /// method at each grid size.
    ///
    /// # Errors
    /// [`SimError::EmptySweep`] / construction errors as above.
    pub fn run_dbsize_sweep(&self, points: &[DbSizePoint]) -> Result<SweepResult> {
        if points.is_empty() {
            return Err(SimError::EmptySweep);
        }
        let k = self.space.k();
        let scored = self.run_points(points.len(), |i, rng, scratch| {
            let pt = &points[i];
            let space = GridSpace::new(vec![pt.side; k])?;
            let ctx = self.context_for(&space, self.m);
            let sides = vec![pt.query_side.min(pt.side).max(1); k];
            let n = self.queries_per_point;
            random_corners(rng, &space, &sides, n, scratch.corners_mut())?;
            let x = f64::from(pt.side);
            Ok(PointScore::new(
                &ctx,
                x,
                ctx.score_corners_with(&sides, scratch),
            ))
        })?;
        Ok(Self::assemble(
            format!(
                "Database-size sweep: mean response time vs grid side (M={})",
                self.m
            ),
            "grid side (partitions per attribute)".into(),
            scored,
        ))
    }

    /// **Mixed workload (extension).** One data point per workload mix:
    /// mean RT per method over a query stream drawn from the mix. The
    /// x-axis indexes the supplied mixes (0, 1, …).
    ///
    /// # Errors
    /// [`SimError::EmptySweep`] for no mixes; generation errors.
    pub fn run_mix(&self, mixes: &[crate::workload::WorkloadMix]) -> Result<SweepResult> {
        if mixes.is_empty() {
            return Err(SimError::EmptySweep);
        }
        let ctx = self.sweep_context();
        let points = self.run_points(mixes.len(), |i, rng, scratch| {
            let regions = mixes[i].generate(rng, &self.space, self.queries_per_point)?;
            Ok(PointScore::new(
                ctx,
                i as f64,
                ctx.score_with(&regions, scratch),
            ))
        })?;
        Ok(Self::assemble(
            format!(
                "Mixed-workload sweep: mean response time per mix (grid {:?}, M={})",
                self.space.dims(),
                self.m
            ),
            "workload mix index".into(),
            points,
        ))
    }

    /// **Fault-injection workload (extension).** A single query stream
    /// of near-square queries of `area`, executed against `schedule`
    /// (query `i` at logical fault time `i`) under `policy`. Every method
    /// is reported twice — unreplicated and with chained-declustering
    /// failover (`<name>+chain`) — so the table shows degraded response
    /// time, availability, and what replication buys, side by side.
    ///
    /// Methods are scored by the deterministic parallel executor, one
    /// task per method variant; since the query stream and the schedule
    /// are fixed up front, results are bit-identical for any thread
    /// count.
    ///
    /// # Errors
    /// [`SimError::ScheduleMismatch`] when the schedule covers a
    /// different disk count; [`SimError::QueryDoesNotFit`] as above.
    pub fn run_fault_workload(
        &self,
        area: u64,
        schedule: &FaultSchedule,
        policy: &RetryPolicy,
    ) -> Result<FaultReport> {
        self.run_fault_workload_with(area, schedule, policy, 1, ReplicaPolicy::FailoverOnly)
    }

    /// [`Experiment::run_fault_workload`] with the replication depth and
    /// replica-selection policy exposed: the `<name>+chain` rows walk an
    /// `r`-way chain under `selection` instead of the default one-backup
    /// failover. `replicas = 1` with [`ReplicaPolicy::FailoverOnly`] is
    /// bit-identical to [`Experiment::run_fault_workload`].
    ///
    /// `replicas = 0` makes the `<name>+chain` rows unreplicated.
    ///
    /// # Errors
    /// As [`Experiment::run_fault_workload`]; also
    /// [`SpecError::TooManyReplicas`] when `replicas` reaches `M`.
    pub fn run_fault_workload_with(
        &self,
        area: u64,
        schedule: &FaultSchedule,
        policy: &RetryPolicy,
        replicas: u32,
        selection: ReplicaPolicy,
    ) -> Result<FaultReport> {
        let sides = rect_sides_for_area(area, self.space.dims()).ok_or_else(|| {
            SimError::QueryDoesNotFit {
                extents: vec![area as u32],
                dims: self.space.dims().to_vec(),
            }
        })?;
        // One shared stream: the fault clock is the query index, so the
        // whole stream is generated before any fan-out.
        let mut rng = StdRng::seed_from_u64(derive_point_seed(self.seed, 0));
        let regions: Vec<BucketRegion> = (0..self.queries_per_point)
            .map(|_| random_region(&mut rng, &self.space, &sides))
            .collect::<Result<_>>()?;
        let ctx = self.sweep_context();
        let dctx =
            DegradedContext::new(ctx, schedule, *policy)?.with_replication(replicas, selection)?;
        let variants = ctx.maps().len() * 2;
        let rows = run_indexed(self.effective_threads(), variants, &self.obs, |i| {
            dctx.score_variant(i / 2, &regions, i % 2 == 1)
        })
        .into_iter()
        .collect::<Result<_>>()?;
        Ok(FaultReport {
            title: format!(
                "Fault workload: degraded RT and availability at query area {} (grid {:?}, M={}, faults: {})",
                area,
                self.space.dims(),
                self.m,
                schedule.describe()
            ),
            schedule: schedule.describe(),
            rows,
        })
    }

    /// Materializes one [`GridDirectory`] and [`MultiUserEngine`] per
    /// method (the paper set, plus baselines when enabled), serially and
    /// before any fan-out — the engines are shared read-only across
    /// worker threads, so building them up front is what keeps sweep
    /// results independent of the thread count. Build wall time lands in
    /// the `multiuser.build_ms` phase.
    fn multiuser_dirs(&self) -> Vec<(String, GridDirectory)> {
        let _build = self.obs.time_phase("multiuser.build_ms");
        let registry = MethodRegistry::with_seed(self.seed);
        let methods = if self.include_baselines {
            registry.with_baselines(&self.space, self.m)
        } else {
            registry.paper_methods(&self.space, self.m)
        };
        methods
            .iter()
            .filter(|method| {
                self.method_filter
                    .as_deref()
                    .is_none_or(|f| method.name() == f)
            })
            .map(|method| {
                let dir = GridDirectory::build(self.space.clone(), self.m, |b| {
                    method.disk_of(b.as_slice())
                });
                (method.name().to_owned(), dir)
            })
            .collect()
    }

    fn multiuser_engines(&self) -> Vec<(String, MultiUserEngine)> {
        let dirs = self.multiuser_dirs();
        let _build = self.obs.time_phase("multiuser.build_ms");
        dirs.into_iter()
            .map(|(name, dir)| {
                let engine = match &self.kernel_cache {
                    Some(cache) => {
                        let map = AllocationMap::from_table(
                            dir.space(),
                            dir.num_disks(),
                            dir.disk_table(),
                        )
                        .expect("directory disk table is grid-shaped by construction");
                        let mut guard = cache.lock().expect("kernel cache lock");
                        match guard.lookup(&name, &map) {
                            // Warm: adopt the stored compiled kernel —
                            // zero build-phase work for this engine.
                            Some(kernel) => MultiUserEngine::with_kernel(&dir, Some(kernel)),
                            // Cold (or stale image): build as usual and
                            // persist the fresh kernel for the next start.
                            None => {
                                let engine = MultiUserEngine::new(&dir);
                                if let Some(k) = engine.counts().kernel() {
                                    guard.insert(&name, &map, k);
                                }
                                engine
                            }
                        }
                    }
                    None => MultiUserEngine::new(&dir),
                };
                (name, engine)
            })
            .collect()
    }

    /// One shared near-square query stream of `area`, generated before
    /// any fan-out so every method and every load level replays the
    /// identical queries.
    fn shared_regions(&self, area: u64) -> Result<Vec<BucketRegion>> {
        let sides = rect_sides_for_area(area, self.space.dims()).ok_or_else(|| {
            SimError::QueryDoesNotFit {
                extents: vec![area as u32],
                dims: self.space.dims().to_vec(),
            }
        })?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.queries_per_point)
            .map(|_| random_region(&mut rng, &self.space, &sides))
            .collect()
    }

    /// One Poisson stream of `clients` arrivals at `rate_qps`, drawn from
    /// `seed` in chunks on the executor (identical at any thread count).
    fn arrivals(&self, clients: usize, rate_qps: f64, seed: u64) -> Vec<f64> {
        sharded_arrivals(
            seed,
            clients,
            InterArrival::Poisson { rate_qps },
            self.effective_threads(),
            &self.obs,
        )
    }

    /// The serve drivers' shared body: `cells` [`ServeSpec`] runs on the
    /// deterministic executor, one reusable [`LoopScratch`] per worker, so
    /// every number is bit-identical for any thread count. `cell(i)`
    /// names cell `i`'s engine, query stream, arrival stream (ignored by
    /// closed specs) and spec; `read(i, run, samples)` turns its run into
    /// the driver's point. The first failing cell's error wins.
    fn serve_cells<'a, T: Send>(
        &self,
        params: &DiskParams,
        cells: usize,
        cell: impl Fn(usize) -> ServeCell<'a> + Sync,
        read: impl Fn(usize, ServeRun, &[ServeSample]) -> T + Sync,
    ) -> Result<Vec<T>> {
        let threads = self.effective_threads();
        run_indexed_with(threads, cells, &self.obs, LoopScratch::new, |i, ls| {
            let (engine, queries, arrivals, spec) = cell(i);
            let run = spec.serve_rows(
                engine,
                Rows::Counts,
                params,
                queries,
                arrivals,
                &self.obs,
                ls,
            )?;
            Ok(read(i, run, ls.samples()))
        })
        .into_iter()
        .collect()
    }

    /// **Multi-user throughput grid (extension).** Closed-loop throughput
    /// per method as the client count grows: every `(client count,
    /// method)` cell replays the same query stream of near-square
    /// queries of `area` as one [`ServeSpec::closed`] run through that
    /// method's [`MultiUserEngine`].
    ///
    /// The returned [`SweepResult`] has client counts on the x-axis,
    /// throughput (queries/s) as each series' means, per-cell latency
    /// summaries, and as `optimal` the ideal-spread service bound: `M`
    /// disks continuously busy, every page at the minimum per-page cost.
    ///
    /// # Errors
    /// [`SimError::EmptySweep`] for no client counts;
    /// [`SpecError::NoClients`] for a zero client count;
    /// [`SimError::QueryDoesNotFit`] as above.
    pub fn run_multiuser_grid(
        &self,
        params: &DiskParams,
        clients: &[usize],
        area: u64,
    ) -> Result<SweepResult> {
        if clients.is_empty() {
            return Err(SimError::EmptySweep);
        }
        let regions = self.shared_regions(area)?;
        let engines = self.multiuser_engines();
        let nm = engines.len();
        let cells = self.serve_cells(
            params,
            clients.len() * nm,
            |i| {
                let spec = ServeSpec::closed(clients[i / nm]);
                (&engines[i % nm].1, &regions[..], &[][..], spec)
            },
            |_, run, _| (run.report.throughput_qps, run.report.latency),
        )?;
        let bound_qps = 1000.0 * f64::from(self.m) / (area as f64 * params.per_page_ms());
        let mut series: Vec<MethodSeries> = engines
            .iter()
            .map(|(name, _)| MethodSeries::new(name.clone(), clients.len()))
            .collect();
        for (i, (qps, latency)) in cells.into_iter().enumerate() {
            let (ci, mi) = (i / nm, i % nm);
            series[mi].means[ci] = qps;
            series[mi].summaries[ci] = latency;
        }
        Ok(SweepResult {
            title: format!(
                "Multi-user closed loop: throughput (q/s) vs clients at query area {} (grid {:?}, M={})",
                area,
                self.space.dims(),
                self.m
            ),
            xlabel: "clients".into(),
            xs: clients.iter().map(|&c| c as f64).collect(),
            optimal: vec![bound_qps; clients.len()],
            series,
        })
    }

    /// **Open-loop load sweep (extension).** The classic latency-vs-load
    /// curves over the same engines and query stream as
    /// [`Experiment::run_multiuser_grid`]: Poisson arrivals at each rate
    /// (same draws for every method), fanned over the deterministic
    /// executor with the experiment's thread setting.
    ///
    /// # Errors
    /// [`SimError::EmptySweep`] for no rates; [`SpecError::BadRate`] for a
    /// rate that is not finite and positive;
    /// [`SimError::QueryDoesNotFit`] as above.
    pub fn run_load_sweep(
        &self,
        params: &DiskParams,
        rates_qps: &[f64],
        area: u64,
    ) -> Result<Vec<LoadPoint>> {
        if rates_qps.is_empty() {
            return Err(SimError::EmptySweep);
        }
        let regions = self.shared_regions(area)?;
        let named = self.multiuser_dirs();
        let dirs: Vec<(&str, &GridDirectory)> = named
            .iter()
            .map(|(name, dir)| (name.as_str(), dir))
            .collect();
        load_sweep(
            &dirs,
            params,
            &regions,
            rates_qps,
            self.seed,
            self.effective_threads(),
        )
    }

    /// The serve sweeps' shared body: one arrival stream per offered rate
    /// (identical for every method), one `spec(rate)` run per `(rate,
    /// method)` cell with mid-run samples every 1/32nd of the expected
    /// span, and per-method curves whose knee is the largest offered rate
    /// the method still completes at ≥95% of the offered throughput
    /// (`0.0` when even the lowest rate saturates).
    fn serve_curves(
        &self,
        params: &DiskParams,
        clients: usize,
        rates_qps: &[f64],
        regions: &[BucketRegion],
        spec: impl Fn(f64) -> ServeSpec + Sync,
    ) -> Result<Vec<ServeCurve>> {
        let engines = self.multiuser_engines();
        let nm = engines.len();
        let arrivals: Vec<Vec<f64>> = rates_qps
            .iter()
            .enumerate()
            .map(|(r, &rate)| self.arrivals(clients, rate, derive_point_seed(self.seed, r as u64)))
            .collect();
        let points = self.serve_cells(
            params,
            rates_qps.len() * nm,
            |i| {
                let rate = rates_qps[i / nm];
                let spec = spec(rate).sampling((clients as f64 * 1000.0 / rate) / 32.0);
                (&engines[i % nm].1, regions, &arrivals[i / nm][..], spec)
            },
            |i, run, samples| ServePoint {
                offered_qps: rates_qps[i / nm],
                achieved_qps: run.report.throughput_qps,
                mean_latency_ms: run.report.latency.mean,
                tail_ms: run.report.tail,
                utilization: run.report.utilization,
                peak_in_flight: run.peak_in_flight,
                samples: samples.to_vec(),
            },
        )?;
        let mut curves: Vec<ServeCurve> = engines
            .iter()
            .map(|(name, _)| ServeCurve {
                method: name.clone(),
                points: Vec::with_capacity(rates_qps.len()),
                knee_qps: 0.0,
            })
            .collect();
        for (i, point) in points.into_iter().enumerate() {
            curves[i % nm].points.push(point);
        }
        for curve in &mut curves {
            curve.knee_qps = curve
                .points
                .iter()
                .filter(|p| p.achieved_qps >= 0.95 * p.offered_qps)
                .map(|p| p.offered_qps)
                .fold(0.0, f64::max);
        }
        Ok(curves)
    }

    /// **Serve sweep (extension).** Per-method saturation-knee curves
    /// from the serving loop: for every offered arrival rate, `clients`
    /// Poisson arrivals — sharded deterministically across the executor
    /// and identical for every method — stream through each method's
    /// engine (see [`Experiment::run_multiuser_grid`] for the executor
    /// contract: every table and every sample is bit-identical for any
    /// thread count).
    ///
    /// # Errors
    /// [`SimError::EmptySweep`] for no rates;
    /// [`SpecError::NoClients`] for zero clients; [`SpecError::BadRate`]
    /// for a rate that is not finite and positive;
    /// [`SimError::QueryDoesNotFit`] as above.
    pub fn run_serve_sweep(
        &self,
        params: &DiskParams,
        clients: usize,
        rates_qps: &[f64],
        area: u64,
    ) -> Result<ServeSweep> {
        check_load(clients, rates_qps)?;
        let regions = self.shared_regions(area)?;
        let curves = self.serve_curves(params, clients, rates_qps, &regions, ServeSpec::open)?;
        Ok(ServeSweep {
            title: format!(
                "Serve sweep: {} open-loop clients per rate at query area {} (grid {:?}, M={})",
                clients,
                area,
                self.space.dims(),
                self.m
            ),
            clients,
            rates_qps: rates_qps.to_vec(),
            curves,
        })
    }

    /// **Degraded serve sweep (extension).** [`Experiment::run_serve_sweep`]
    /// with a fault schedule injected mid-run: same rates, same arrival
    /// streams, same query stream, but every cell serves through
    /// `schedule` under `r`-way chained replication and `policy`, with
    /// `retry` governing backoff. With the healthy schedule, `r = 1`,
    /// [`ReplicaPolicy::PrimaryOnly`], and shedding off, every number is
    /// bit-identical to the fault-free sweep.
    ///
    /// # Errors
    /// As [`Experiment::run_serve_sweep`]; also
    /// [`SimError::ScheduleMismatch`] for a schedule covering a
    /// different disk count, and [`SpecError::TooManyReplicas`] when
    /// `replicas` reaches `M`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_serve_sweep_degraded(
        &self,
        params: &DiskParams,
        clients: usize,
        rates_qps: &[f64],
        area: u64,
        schedule: &FaultSchedule,
        replicas: u32,
        policy: ReplicaPolicy,
        retry: RetryPolicy,
    ) -> Result<ServeSweep> {
        check_load(clients, rates_qps)?;
        let regions = self.shared_regions(area)?;
        let curves = self.serve_curves(params, clients, rates_qps, &regions, |rate| {
            ServeSpec::open(rate)
                .seed(self.seed)
                .faults(schedule.clone())
                .replicas(replicas)
                .policy(policy)
                .retry(retry)
        })?;
        Ok(ServeSweep {
            title: format!(
                "Degraded serve sweep: {} open-loop clients per rate at query area {} (grid {:?}, M={}, r={replicas}, policy {}, faults: {})",
                clients,
                area,
                self.space.dims(),
                self.m,
                policy.name(),
                schedule.describe()
            ),
            clients,
            rates_qps: rates_qps.to_vec(),
            curves,
        })
    }

    /// **Shared serve sweep (extension).** [`Experiment::run_serve_sweep`]
    /// through the shared-scan batcher: an `overlap` fraction of the
    /// query stream is redirected to one hot scan, and arrivals inside a
    /// `batch_window_ms` window merge into one deduplicated schedule
    /// spread over the `1 + replicas` chain copies
    /// ([`ReplicaPolicy::Spread`]).
    ///
    /// With `overlap == 0` and `batch_window_ms == 0` this delegates to
    /// [`Experiment::run_serve_sweep`] outright, so the output is
    /// byte-identical to the unshared sweep — the CLI's `--share 0
    /// --batch-window 0` pin.
    ///
    /// # Errors
    /// As [`Experiment::run_serve_sweep`]; also [`SpecError::BadOverlap`]
    /// for an `overlap` outside `[0, 1]`, [`SpecError::BadBatchWindow`]
    /// for a negative or non-finite window, and
    /// [`SpecError::TooManyReplicas`] when `replicas` reaches `M`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_serve_sweep_shared(
        &self,
        params: &DiskParams,
        clients: usize,
        rates_qps: &[f64],
        area: u64,
        overlap: f64,
        batch_window_ms: f64,
        replicas: u32,
    ) -> Result<ServeSweep> {
        if overlap == 0.0 && batch_window_ms == 0.0 {
            return self.run_serve_sweep(params, clients, rates_qps, area);
        }
        check_load(clients, rates_qps)?;
        check_sharing(&[overlap], batch_window_ms)?;
        let regions = redirect_hot(&self.shared_regions(area)?, overlap);
        let curves = self.serve_curves(params, clients, rates_qps, &regions, |rate| {
            ServeSpec::open(rate)
                .seed(self.seed)
                .share(batch_window_ms)
                .replicas(replicas)
                .policy(ReplicaPolicy::Spread)
        })?;
        Ok(ServeSweep {
            title: format!(
                "Shared serve sweep: {} open-loop clients per rate, overlap {:.2}, {} ms window, r={} (query area {}, grid {:?}, M={})",
                clients,
                overlap,
                batch_window_ms,
                replicas,
                area,
                self.space.dims(),
                self.m
            ),
            clients,
            rates_qps: rates_qps.to_vec(),
            curves,
        })
    }

    /// **Share sweep (extension).** Shared-scan batching versus the plain
    /// serving path across query overlap and replica depth: for every
    /// `(method, overlap, r)` cell, `clients` Poisson arrivals at
    /// `rate_qps` replay a query stream in which an `overlap` fraction of
    /// queries is redirected to one hot scan, once unbatched and once
    /// through a `batch_window_ms`-wide shared-scan window spreading
    /// merged reads over the `1 + r` chain copies
    /// ([`ReplicaPolicy::Spread`]).
    ///
    /// The redirect is a pure function of the query index, and both runs
    /// of a cell replay the identical arrival and query streams, so the
    /// shared-vs-unshared delta isolates the merge.
    ///
    /// # Errors
    /// [`SimError::EmptySweep`] for no overlaps or no replica counts;
    /// [`SpecError::NoClients`], [`SpecError::BadRate`],
    /// [`SpecError::BadOverlap`] and [`SpecError::BadBatchWindow`] as in
    /// [`Experiment::run_serve_sweep_shared`];
    /// [`SimError::QueryDoesNotFit`] as above;
    /// [`SpecError::TooManyReplicas`] when a replica count reaches `M`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_share_sweep(
        &self,
        params: &DiskParams,
        clients: usize,
        rate_qps: f64,
        area: u64,
        overlaps: &[f64],
        replicas: &[u32],
        batch_window_ms: f64,
    ) -> Result<ShareSweep> {
        if overlaps.is_empty() || replicas.is_empty() {
            return Err(SimError::EmptySweep);
        }
        check_load(clients, &[rate_qps])?;
        check_sharing(overlaps, batch_window_ms)?;
        let base = self.shared_regions(area)?;
        let streams: Vec<Vec<BucketRegion>> =
            overlaps.iter().map(|&o| redirect_hot(&base, o)).collect();
        let engines = self.multiuser_engines();
        let arrivals = self.arrivals(clients, rate_qps, self.seed);
        let (no, nr) = (overlaps.len(), replicas.len());
        // Cell c = (method, overlap, r) runs twice: 2c unshared, 2c + 1
        // through the window.
        let cell = |c: usize| (c / (no * nr), (c / nr) % no, c % nr);
        let runs = self.serve_cells(
            params,
            engines.len() * no * nr * 2,
            |i| {
                let (mi, oi, ri) = cell(i / 2);
                let spec = ServeSpec::open(rate_qps).seed(self.seed);
                let spec = if i % 2 == 0 {
                    spec
                } else {
                    spec.share(batch_window_ms)
                        .replicas(replicas[ri])
                        .policy(ReplicaPolicy::Spread)
                };
                (&engines[mi].1, &streams[oi][..], &arrivals[..], spec)
            },
            |_, run, _| run,
        )?;
        let points = runs
            .chunks(2)
            .enumerate()
            .map(|(c, pair)| {
                let (mi, oi, ri) = cell(c);
                let (unshared, shared) = (&pair[0], &pair[1]);
                let sharing = shared.sharing.unwrap_or_default();
                SharePoint {
                    method: engines[mi].0.clone(),
                    overlap: overlaps[oi],
                    replicas: replicas[ri],
                    unshared_qps: unshared.report.throughput_qps,
                    shared_qps: shared.report.throughput_qps,
                    unshared_mean_ms: unshared.report.latency.mean,
                    shared_mean_ms: shared.report.latency.mean,
                    windows: sharing.windows,
                    merged_queries: sharing.merged_queries,
                    pages_saved: sharing.pages_saved,
                }
            })
            .collect();
        Ok(ShareSweep {
            title: format!(
                "Share sweep: {clients} arrivals at {rate_qps} q/s, {batch_window_ms} ms window, query area {area} (grid {:?}, M={})",
                self.space.dims(),
                self.m
            ),
            clients,
            rate_qps,
            batch_window_ms,
            points,
        })
    }

    /// **Availability sweep (extension).** One fault-injected serve run
    /// per `(schedule, replica count, policy)` cell for a single method
    /// (the first survivor of the method filter): `clients` Poisson
    /// arrivals at `rate_qps` stream through the serving loop while the
    /// schedule fails, slows, and recovers disks mid-run, under every
    /// [`ReplicaPolicy`] and each requested `r`-way chain depth, with
    /// `max_in_flight` bounding admission.
    ///
    /// The arrival stream and query stream are shared across all cells
    /// (and match [`Experiment::run_serve_sweep`] for a single-rate
    /// sweep at the same rate, which is what pins the fault-free
    /// baseline cell bit-for-bit to the plain serve path).
    ///
    /// Put the healthy schedule first and `r = 1` first: the sweep's
    /// first cell (fault-free, `r = 1`, primary-only) is the baseline
    /// every cell's `rt_overhead` is measured against.
    ///
    /// # Errors
    /// [`SimError::EmptySweep`] for no schedules or no replica counts;
    /// [`SpecError::NoClients`] and [`SpecError::BadRate`] as in
    /// [`Experiment::run_serve_sweep`]; [`SimError::ScheduleMismatch`]
    /// when any schedule covers a different disk count;
    /// [`SpecError::TooManyReplicas`] when a replica count reaches `M`;
    /// [`SimError::QueryDoesNotFit`] as above.
    #[allow(clippy::too_many_arguments)]
    pub fn run_avail_sweep(
        &self,
        params: &DiskParams,
        clients: usize,
        rate_qps: f64,
        area: u64,
        schedules: &[(String, FaultSchedule)],
        replicas: &[u32],
        retry: RetryPolicy,
        max_in_flight: usize,
    ) -> Result<AvailSweep> {
        if schedules.is_empty() || replicas.is_empty() {
            return Err(SimError::EmptySweep);
        }
        check_load(clients, &[rate_qps])?;
        let regions = self.shared_regions(area)?;
        let engines = self.multiuser_engines();
        let Some((method, engine)) = engines.first() else {
            // A method filter that matches nothing leaves no engine to
            // sweep — the caller's filter name is the problem.
            return Err(SimError::EmptySweep);
        };
        let arrivals = self.arrivals(clients, rate_qps, derive_point_seed(self.seed, 0));
        let np = ReplicaPolicy::ALL.len();
        let per_schedule = replicas.len() * np;
        let cell = |i: usize| {
            let (si, rest) = (i / per_schedule, i % per_schedule);
            (si, replicas[rest / np], ReplicaPolicy::ALL[rest % np])
        };
        let mut points = self.serve_cells(
            params,
            schedules.len() * per_schedule,
            |i| {
                let (si, r, policy) = cell(i);
                let spec = ServeSpec::open(rate_qps)
                    .seed(self.seed)
                    .sampling((clients as f64 * 1000.0 / rate_qps) / 32.0)
                    .faults(schedules[si].1.clone())
                    .replicas(r)
                    .policy(policy)
                    .retry(retry)
                    .admission(max_in_flight);
                (engine, &regions[..], &arrivals[..], spec)
            },
            |i, run, _| {
                let (si, r, policy) = cell(i);
                let a = run.availability.unwrap_or_default();
                AvailPoint {
                    schedule: schedules[si].0.clone(),
                    replicas: r,
                    policy,
                    availability: a.availability(),
                    served: a.served,
                    shed: a.shed,
                    lost: a.lost,
                    retries: a.retries,
                    timeouts: a.timeouts,
                    failovers: a.failovers,
                    achieved_qps: run.report.throughput_qps,
                    mean_latency_ms: run.report.latency.mean,
                    tail_ms: run.report.tail,
                    rt_overhead: 1.0,
                    storage_overhead: f64::from(1 + r),
                }
            },
        )?;
        let baseline = points[0].mean_latency_ms;
        for p in &mut points {
            p.rt_overhead = if baseline > 0.0 {
                p.mean_latency_ms / baseline
            } else {
                1.0
            };
        }
        Ok(AvailSweep {
            title: format!(
                "Availability sweep: {method} serving {clients} arrivals at {rate_qps} q/s, query area {} (grid {:?}, M={})",
                area,
                self.space.dims(),
                self.m
            ),
            method: method.clone(),
            clients,
            rate_qps,
            points,
        })
    }

    /// **Partial-match table.** Mean RT per method for partial-match
    /// queries with 1, 2, … `k − 1` unspecified attributes (sampled), plus
    /// point queries at x = 0.
    ///
    /// # Errors
    /// Construction errors as above.
    pub fn run_partial_match(&self) -> Result<SweepResult> {
        let ctx = self.sweep_context();
        let k = self.space.k();
        let points = self.run_points(k, |unspec, rng, scratch| {
            let queries =
                partial_match_with_unspecified(rng, &self.space, unspec, self.queries_per_point);
            let regions: Vec<BucketRegion> = queries
                .iter()
                .map(|q| q.region(&self.space).map_err(SimError::from))
                .collect::<Result<_>>()?;
            Ok(PointScore::new(
                ctx,
                unspec as f64,
                ctx.score_with(&regions, scratch),
            ))
        })?;
        Ok(Self::assemble(
            format!(
                "Partial-match sweep: mean response time vs unspecified attributes (grid {:?}, M={})",
                self.space.dims(),
                self.m
            ),
            "unspecified attributes".into(),
            points,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment() -> Experiment {
        Experiment::new(GridSpace::new_2d(16, 16).unwrap(), 8)
            .with_queries_per_point(64)
            .with_seed(3)
    }

    #[test]
    fn size_sweep_has_all_methods_and_bounds_hold() {
        let r = experiment()
            .run_size_sweep(&SizeSweep::explicit(vec![1, 4, 16, 64]))
            .unwrap();
        assert_eq!(r.xs, vec![1.0, 4.0, 16.0, 64.0]);
        let names: Vec<&str> = r.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["DM", "FX", "ECC", "HCAM"]);
        for s in &r.series {
            assert_eq!(s.means.len(), 4);
            for (mean, opt) in s.means.iter().zip(&r.optimal) {
                assert!(mean + 1e-9 >= *opt, "{} mean {mean} < opt {opt}", s.name);
            }
        }
        // Area 1: every method retrieves exactly one bucket.
        for s in &r.series {
            assert_eq!(s.means[0], 1.0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = experiment()
            .run_size_sweep(&SizeSweep::explicit(vec![16]))
            .unwrap();
        let b = experiment()
            .run_size_sweep(&SizeSweep::explicit(vec![16]))
            .unwrap();
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.means, sb.means);
        }
    }

    /// The determinism contract of the parallel executor: any thread
    /// count yields byte-identical sweeps.
    #[test]
    fn thread_count_does_not_change_results() {
        let sweep = SizeSweep::explicit(vec![1, 4, 16, 64]);
        let sequential = experiment().with_threads(1).run_size_sweep(&sweep).unwrap();
        for threads in [2, 4, 0] {
            let parallel = experiment()
                .with_threads(threads)
                .run_size_sweep(&sweep)
                .unwrap();
            assert_eq!(sequential.xs, parallel.xs);
            assert_eq!(sequential.optimal, parallel.optimal);
            assert_eq!(sequential.series.len(), parallel.series.len());
            for (sa, sb) in sequential.series.iter().zip(&parallel.series) {
                assert_eq!(sa.name, sb.name);
                assert_eq!(sa.means, sb.means);
                assert_eq!(sa.summaries, sb.summaries);
            }
        }
    }

    #[test]
    fn shape_sweep_runs_square_to_line() {
        let r = experiment()
            .run_shape_sweep(&ShapeSweep::new(16, 8))
            .unwrap();
        // 16 = 4^2: powers 0 (4x4), 2 (2x8), 4 (1x16).
        assert_eq!(r.xs, vec![1.0, 4.0, 16.0]);
        // Optimal is flat (area fixed): ceil(16/8) = 2.
        for &o in &r.optimal {
            assert_eq!(o, 2.0);
        }
    }

    #[test]
    fn disk_sweep_marks_ecc_gaps_with_nan() {
        let r = experiment().run_disk_sweep(&[4, 6, 8], 16).unwrap();
        let ecc = r.series_for("ECC").unwrap();
        assert!(ecc.means[0].is_finite());
        assert!(ecc.means[1].is_nan(), "ECC should not apply at M=6");
        assert!(ecc.means[2].is_finite());
        let dm = r.series_for("DM").unwrap();
        assert!(dm.means.iter().all(|m| m.is_finite()));
    }

    #[test]
    fn dbsize_sweep_runs_multiple_grids() {
        let pts = vec![
            DbSizePoint {
                side: 8,
                query_side: 2,
            },
            DbSizePoint {
                side: 16,
                query_side: 4,
            },
        ];
        let r = experiment().run_dbsize_sweep(&pts).unwrap();
        assert_eq!(r.xs, vec![8.0, 16.0]);
        for s in &r.series {
            assert!(s.means.iter().all(|m| m.is_finite()), "{}", s.name);
        }
    }

    #[test]
    fn partial_match_point_queries_have_rt_one() {
        let r = experiment().run_partial_match().unwrap();
        assert_eq!(r.xs[0], 0.0);
        for s in &r.series {
            assert_eq!(s.means[0], 1.0, "{} point-query RT must be 1", s.name);
        }
        // One unspecified attribute on a 16-wide grid with M=8: DM is
        // provably optimal (RT = ceil(16/8) = 2).
        let dm = r.series_for("DM").unwrap();
        assert_eq!(dm.means[1], 2.0);
    }

    #[test]
    fn mix_sweep_scores_each_mix() {
        use crate::workload::WorkloadMix;
        let point_heavy = WorkloadMix {
            point: 1.0,
            partial_match: 0.0,
            small_range: 0.0,
            large_range: 0.0,
            small_area: 4,
            large_area: 64,
        };
        let range_heavy = WorkloadMix {
            point: 0.0,
            partial_match: 0.0,
            small_range: 0.0,
            large_range: 1.0,
            small_area: 4,
            large_area: 64,
        };
        let r = experiment().run_mix(&[point_heavy, range_heavy]).unwrap();
        assert_eq!(r.xs, vec![0.0, 1.0]);
        // Pure point queries: every method at RT 1. Pure 64-area ranges:
        // everything at least the optimal 8.
        for s in &r.series {
            assert_eq!(s.means[0], 1.0, "{}", s.name);
            assert!(s.means[1] >= 8.0, "{}", s.name);
        }
        assert!(matches!(
            experiment().run_mix(&[]).unwrap_err(),
            SimError::EmptySweep
        ));
    }

    #[test]
    fn empty_sweeps_are_rejected() {
        assert!(matches!(
            experiment().run_disk_sweep(&[], 4).unwrap_err(),
            SimError::EmptySweep
        ));
        assert!(matches!(
            experiment()
                .run_size_sweep(&SizeSweep::explicit(vec![]))
                .unwrap_err(),
            SimError::EmptySweep
        ));
    }

    #[test]
    fn fault_workload_reports_both_variants_per_method() {
        let schedule = FaultSchedule::healthy(8).fail_stop(3, 32).unwrap();
        let r = experiment()
            .run_fault_workload(16, &schedule, &RetryPolicy::default())
            .unwrap();
        assert_eq!(r.rows.len(), 8); // 4 paper methods x {plain, +chain}
        assert!(r.title.contains("fail:3@32"));
        for pair in r.rows.chunks(2) {
            let (plain, chain) = (&pair[0], &pair[1]);
            assert_eq!(format!("{}+chain", plain.name), chain.name);
            // Single failure: chained serves everything, degraded >= healthy.
            assert_eq!(chain.availability, 1.0, "{}", chain.name);
            assert_eq!(chain.unavailable, 0);
            assert!(chain.degraded.mean >= chain.healthy.mean, "{}", chain.name);
            assert!(chain.degraded.max >= chain.degraded.mean);
            // Unreplicated: queries from time 32 on that touch disk 3 die.
            assert!(plain.availability < 1.0, "{}", plain.name);
            assert_eq!(plain.served + plain.unavailable, 64);
        }
    }

    #[test]
    fn fault_workload_is_thread_count_invariant() {
        let schedule = FaultSchedule::healthy(8)
            .fail_stop(1, 10)
            .unwrap()
            .slow(5, 2.0, 0, 40)
            .unwrap();
        let base = experiment()
            .with_threads(1)
            .run_fault_workload(16, &schedule, &RetryPolicy::default())
            .unwrap();
        for threads in [2, 8, 0] {
            let other = experiment()
                .with_threads(threads)
                .run_fault_workload(16, &schedule, &RetryPolicy::default())
                .unwrap();
            assert_eq!(base.rows.len(), other.rows.len());
            for (a, b) in base.rows.iter().zip(&other.rows) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.degraded, b.degraded, "{} at {threads} threads", a.name);
                assert_eq!(a.healthy, b.healthy);
                assert_eq!(a.served, b.served);
                assert_eq!(a.unavailable, b.unavailable);
                assert_eq!(a.failover_buckets, b.failover_buckets);
            }
        }
    }

    #[test]
    fn fault_workload_healthy_schedule_changes_nothing() {
        let r = experiment()
            .run_fault_workload(16, &FaultSchedule::healthy(8), &RetryPolicy::default())
            .unwrap();
        for row in &r.rows {
            assert_eq!(row.availability, 1.0, "{}", row.name);
            assert_eq!(row.degraded.mean, row.healthy.mean, "{}", row.name);
            assert_eq!(row.failover_buckets, 0);
        }
    }

    #[test]
    fn fault_workload_rejects_mismatched_schedule() {
        assert!(matches!(
            experiment()
                .run_fault_workload(16, &FaultSchedule::healthy(4), &RetryPolicy::default())
                .unwrap_err(),
            SimError::ScheduleMismatch { .. }
        ));
    }

    #[test]
    fn multiuser_grid_reports_all_methods_under_the_bound() {
        let r = experiment()
            .run_multiuser_grid(&DiskParams::default(), &[1, 4, 8], 16)
            .unwrap();
        assert_eq!(r.xs, vec![1.0, 4.0, 8.0]);
        let names: Vec<&str> = r.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["DM", "FX", "ECC", "HCAM"]);
        for s in &r.series {
            for (&qps, &bound) in s.means.iter().zip(&r.optimal) {
                assert!(qps.is_finite() && qps > 0.0, "{}", s.name);
                assert!(qps <= bound + 1e-9, "{} {qps} above bound {bound}", s.name);
            }
            // More clients never hurt makespan-derived throughput here.
            assert!(s.means[2] >= s.means[0] - 1e-9, "{}", s.name);
        }
        assert!(matches!(
            experiment()
                .run_multiuser_grid(&DiskParams::default(), &[], 16)
                .unwrap_err(),
            SimError::EmptySweep
        ));
    }

    #[test]
    fn multiuser_grid_is_thread_count_invariant() {
        let params = DiskParams::default();
        let base = experiment()
            .with_threads(1)
            .run_multiuser_grid(&params, &[1, 2, 4, 8], 16)
            .unwrap();
        for threads in [2, 8, 0] {
            let other = experiment()
                .with_threads(threads)
                .run_multiuser_grid(&params, &[1, 2, 4, 8], 16)
                .unwrap();
            assert_eq!(base.xs, other.xs);
            for (a, b) in base.series.iter().zip(&other.series) {
                assert_eq!(a.name, b.name);
                for (x, y) in a.means.iter().zip(&b.means) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{} at {threads} threads", a.name);
                }
                assert_eq!(a.summaries, b.summaries);
            }
        }
    }

    #[test]
    fn experiment_load_sweep_is_thread_count_invariant() {
        let params = DiskParams::default();
        let rates = [5.0, 50.0, 500.0];
        let base = experiment()
            .with_threads(1)
            .run_load_sweep(&params, &rates, 16)
            .unwrap();
        assert_eq!(base.len(), 3);
        for threads in [4, 0] {
            let other = experiment()
                .with_threads(threads)
                .run_load_sweep(&params, &rates, 16)
                .unwrap();
            for (a, b) in base.iter().zip(&other) {
                assert_eq!(a.rate_qps.to_bits(), b.rate_qps.to_bits());
                for (ma, mb) in a.methods.iter().zip(&b.methods) {
                    assert_eq!(ma.name, mb.name);
                    assert_eq!(ma.mean_latency_ms.to_bits(), mb.mean_latency_ms.to_bits());
                    assert_eq!(ma.utilization.to_bits(), mb.utilization.to_bits());
                    assert_eq!(ma.tail_ms.p95.to_bits(), mb.tail_ms.p95.to_bits());
                    assert_eq!(ma.tail_ms.p99.to_bits(), mb.tail_ms.p99.to_bits());
                }
            }
        }
        assert!(matches!(
            experiment().run_load_sweep(&params, &[], 16).unwrap_err(),
            SimError::EmptySweep
        ));
    }

    #[test]
    fn experiment_serve_sweep_is_thread_count_invariant() {
        let params = DiskParams::default();
        let rates = [2.0, 200.0];
        let base = experiment()
            .with_threads(1)
            .run_serve_sweep(&params, 300, &rates, 16)
            .unwrap();
        assert_eq!(base.rates_qps, rates);
        for threads in [4, 0] {
            let other = experiment()
                .with_threads(threads)
                .run_serve_sweep(&params, 300, &rates, 16)
                .unwrap();
            for (a, b) in base.curves.iter().zip(&other.curves) {
                assert_eq!(a.method, b.method);
                assert_eq!(a.knee_qps.to_bits(), b.knee_qps.to_bits());
                for (pa, pb) in a.points.iter().zip(&b.points) {
                    assert_eq!(pa.achieved_qps.to_bits(), pb.achieved_qps.to_bits());
                    assert_eq!(pa.mean_latency_ms.to_bits(), pb.mean_latency_ms.to_bits());
                    assert_eq!(pa.tail_ms, pb.tail_ms);
                    assert_eq!(pa.peak_in_flight, pb.peak_in_flight);
                    assert_eq!(pa.samples, pb.samples);
                }
            }
        }
    }

    #[test]
    fn share_sweep_is_thread_count_invariant() {
        let params = DiskParams::default();
        let base = experiment()
            .with_threads(1)
            .run_share_sweep(&params, 300, 400.0, 16, &[0.0, 0.9], &[0, 1], 8.0)
            .unwrap();
        for threads in [4, 0] {
            let other = experiment()
                .with_threads(threads)
                .run_share_sweep(&params, 300, 400.0, 16, &[0.0, 0.9], &[0, 1], 8.0)
                .unwrap();
            assert_eq!(base.points.len(), other.points.len());
            for (a, b) in base.points.iter().zip(&other.points) {
                assert_eq!(a.method, b.method);
                assert_eq!(a.unshared_qps.to_bits(), b.unshared_qps.to_bits());
                assert_eq!(a.shared_qps.to_bits(), b.shared_qps.to_bits());
                assert_eq!(a.unshared_mean_ms.to_bits(), b.unshared_mean_ms.to_bits());
                assert_eq!(a.shared_mean_ms.to_bits(), b.shared_mean_ms.to_bits());
                assert_eq!(
                    (a.windows, a.merged_queries, a.pages_saved),
                    (b.windows, b.merged_queries, b.pages_saved)
                );
            }
        }
    }

    #[test]
    fn share_sweep_saves_pages_at_high_overlap() {
        let params = DiskParams::default();
        let sweep = experiment()
            .run_share_sweep(&params, 400, 800.0, 16, &[0.0, 1.0], &[1], 8.0)
            .unwrap();
        // Points nest method-major: [m0 o=0, m0 o=1, m1 o=0, ...].
        for pair in sweep.points.chunks(2) {
            let (cold, hot) = (&pair[0], &pair[1]);
            assert_eq!(cold.method, hot.method);
            assert!(
                hot.pages_saved > 0,
                "{}: full overlap must dedup pages",
                hot.method
            );
            assert!(hot.merged_queries > 0, "{}", hot.method);
            assert!(
                hot.pages_saved >= cold.pages_saved,
                "{}: overlap 1.0 saved {} < overlap 0.0 saved {}",
                hot.method,
                hot.pages_saved,
                cold.pages_saved
            );
        }
        assert!(matches!(
            experiment()
                .run_share_sweep(&params, 400, 800.0, 16, &[], &[1], 8.0)
                .unwrap_err(),
            SimError::EmptySweep
        ));
    }

    #[test]
    fn experiment_serve_sweep_finds_a_knee_and_samples() {
        let params = DiskParams::default();
        // 2 q/s is far below saturation for area 16 on 8 disks; 500 q/s
        // is far above it.
        let sweep = experiment()
            .run_serve_sweep(&params, 2000, &[2.0, 500.0], 16)
            .unwrap();
        for curve in &sweep.curves {
            assert_eq!(curve.points.len(), 2);
            let slow = &curve.points[0];
            let fast = &curve.points[1];
            assert!(
                slow.achieved_qps >= 0.95 * slow.offered_qps,
                "{}",
                curve.method
            );
            assert!(
                fast.achieved_qps < 0.95 * fast.offered_qps,
                "{}",
                curve.method
            );
            assert_eq!(curve.knee_qps, 2.0, "{}", curve.method);
            assert!(!slow.samples.is_empty());
            assert!(slow.tail_ms.p50 <= slow.tail_ms.p95);
            assert!(fast.mean_latency_ms > slow.mean_latency_ms);
            assert!(fast.peak_in_flight > slow.peak_in_flight);
        }
        assert!(matches!(
            experiment()
                .run_serve_sweep(&params, 300, &[], 16)
                .unwrap_err(),
            SimError::EmptySweep
        ));
    }

    #[test]
    fn experiment_serve_sweep_rejects_zero_clients() {
        assert!(matches!(
            experiment()
                .run_serve_sweep(&DiskParams::default(), 0, &[5.0], 16)
                .unwrap_err(),
            SimError::Spec(SpecError::NoClients)
        ));
    }

    /// One bad input per serve driver, each a typed error instead of a
    /// panic.
    #[test]
    fn serve_drivers_return_typed_input_errors() {
        let p = DiskParams::default();
        let exp = experiment();
        let healthy = FaultSchedule::healthy(8);
        let retry = RetryPolicy::default();
        let spec_error = |r: Result<()>| match r {
            Err(SimError::Spec(e)) => e,
            other => panic!("expected a spec error, got {other:?}"),
        };
        let e = spec_error(
            exp.run_serve_sweep(&p, 50, &[5.0, f64::INFINITY], 16)
                .map(drop),
        );
        assert!(matches!(e, SpecError::BadRate { rate_qps } if rate_qps.is_infinite()));
        let e = spec_error(
            exp.run_serve_sweep_degraded(
                &p,
                50,
                &[f64::NAN],
                16,
                &healthy,
                1,
                ReplicaPolicy::PrimaryOnly,
                retry,
            )
            .map(drop),
        );
        assert!(matches!(e, SpecError::BadRate { rate_qps } if rate_qps.is_nan()));
        let e = spec_error(
            exp.run_serve_sweep_shared(&p, 50, &[5.0], 16, 1.5, 2.0, 1)
                .map(drop),
        );
        assert_eq!(e, SpecError::BadOverlap { overlap: 1.5 });
        let e = spec_error(
            exp.run_share_sweep(&p, 50, 5.0, 16, &[0.5], &[1], -1.0)
                .map(drop),
        );
        assert_eq!(e, SpecError::BadBatchWindow { window_ms: -1.0 });
        let schedules = [("none".to_owned(), healthy.clone())];
        let e = spec_error(
            exp.run_avail_sweep(&p, 0, 5.0, 16, &schedules, &[1], retry, 0)
                .map(drop),
        );
        assert_eq!(e, SpecError::NoClients);
    }

    #[test]
    fn multiuser_grid_rejects_a_zero_client_count() {
        assert!(matches!(
            experiment()
                .run_multiuser_grid(&DiskParams::default(), &[2, 0], 16)
                .unwrap_err(),
            SimError::Spec(SpecError::NoClients)
        ));
    }

    #[test]
    fn avail_sweep_rejects_a_replica_count_at_m() {
        let schedules = [("none".to_owned(), FaultSchedule::healthy(8))];
        let err = experiment()
            .run_avail_sweep(
                &DiskParams::default(),
                50,
                5.0,
                16,
                &schedules,
                &[1, 8],
                RetryPolicy::default(),
                0,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Spec(SpecError::TooManyReplicas {
                replicas: 8,
                disks: 8
            })
        ));
    }

    #[test]
    fn degraded_serve_sweep_with_no_faults_matches_the_plain_sweep_bitwise() {
        let params = DiskParams::default();
        let rates = [20.0, 80.0];
        let plain = experiment()
            .run_serve_sweep(&params, 300, &rates, 16)
            .unwrap();
        let degraded = experiment()
            .run_serve_sweep_degraded(
                &params,
                300,
                &rates,
                16,
                &FaultSchedule::healthy(8),
                1,
                ReplicaPolicy::PrimaryOnly,
                RetryPolicy::default(),
            )
            .unwrap();
        for (a, b) in plain.curves.iter().zip(&degraded.curves) {
            assert_eq!(a.method, b.method);
            assert_eq!(a.knee_qps.to_bits(), b.knee_qps.to_bits());
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert_eq!(pa.achieved_qps.to_bits(), pb.achieved_qps.to_bits());
                assert_eq!(pa.mean_latency_ms.to_bits(), pb.mean_latency_ms.to_bits());
                assert_eq!(pa.tail_ms, pb.tail_ms);
                assert_eq!(pa.peak_in_flight, pb.peak_in_flight);
                assert_eq!(pa.samples, pb.samples);
            }
        }
    }

    #[test]
    fn degraded_serve_sweep_serves_through_a_fail_stop_with_failover() {
        let params = DiskParams::default();
        let schedule = FaultSchedule::healthy(8).fail_stop(2, 1000).unwrap();
        let sweep = experiment()
            .with_method_filter("HCAM")
            .run_serve_sweep_degraded(
                &params,
                300,
                &[40.0],
                16,
                &schedule,
                1,
                ReplicaPolicy::FailoverOnly,
                RetryPolicy::default(),
            )
            .unwrap();
        assert_eq!(sweep.curves.len(), 1);
        let p = &sweep.curves[0].points[0];
        // Every arrival still completes: the chain absorbs the failure.
        assert!(p.achieved_qps > 0.0);
        assert!(p.mean_latency_ms.is_finite());
        assert!(sweep.title.contains("fail:2@1000"));
        assert!(matches!(
            experiment()
                .run_serve_sweep_degraded(
                    &params,
                    300,
                    &[40.0],
                    16,
                    &FaultSchedule::healthy(4),
                    1,
                    ReplicaPolicy::FailoverOnly,
                    RetryPolicy::default(),
                )
                .unwrap_err(),
            SimError::ScheduleMismatch { .. }
        ));
    }

    fn avail_schedules() -> Vec<(String, FaultSchedule)> {
        vec![
            ("none".into(), FaultSchedule::healthy(8)),
            (
                "fail:3@2000".into(),
                FaultSchedule::healthy(8).fail_stop(3, 2000).unwrap(),
            ),
        ]
    }

    /// The acceptance pin: the sweep's first cell (healthy schedule,
    /// `r = 1`, primary-only, shedding off) reproduces the plain serve
    /// path bit for bit.
    #[test]
    fn avail_sweep_baseline_cell_matches_serve_sweep_bitwise() {
        let params = DiskParams::default();
        let exp = experiment().with_method_filter("HCAM");
        let serve = exp.run_serve_sweep(&params, 400, &[40.0], 16).unwrap();
        let avail = exp
            .run_avail_sweep(
                &params,
                400,
                40.0,
                16,
                &avail_schedules(),
                &[1, 2],
                RetryPolicy::default(),
                0,
            )
            .unwrap();
        assert_eq!(avail.method, "HCAM");
        assert_eq!(avail.points.len(), 2 * 2 * ReplicaPolicy::ALL.len());
        let base = &avail.points[0];
        assert_eq!(base.schedule, "none");
        assert_eq!(base.replicas, 1);
        assert_eq!(base.policy, ReplicaPolicy::PrimaryOnly);
        let sp = &serve.curves[0].points[0];
        assert_eq!(base.achieved_qps.to_bits(), sp.achieved_qps.to_bits());
        assert_eq!(base.mean_latency_ms.to_bits(), sp.mean_latency_ms.to_bits());
        assert_eq!(base.tail_ms, sp.tail_ms);
        assert_eq!(base.availability, 1.0);
        assert_eq!(base.rt_overhead, 1.0);
        assert_eq!(base.storage_overhead, 2.0);
        assert_eq!(base.shed + base.lost + base.retries + base.failovers, 0);
    }

    #[test]
    fn avail_sweep_failover_beats_primary_only_through_a_failure() {
        let params = DiskParams::default();
        let avail = experiment()
            .with_method_filter("HCAM")
            .run_avail_sweep(
                &params,
                400,
                40.0,
                16,
                &avail_schedules(),
                &[1],
                RetryPolicy::default(),
                0,
            )
            .unwrap();
        // Second schedule block: fail-stop of disk 3 mid-run.
        let faulted = &avail.points[ReplicaPolicy::ALL.len()..];
        let by_policy = |p: ReplicaPolicy| faulted.iter().find(|c| c.policy == p).unwrap();
        let primary = by_policy(ReplicaPolicy::PrimaryOnly);
        let failover = by_policy(ReplicaPolicy::FailoverOnly);
        assert!(primary.availability < 1.0);
        assert!(primary.lost > 0);
        assert_eq!(failover.availability, 1.0);
        assert!(failover.failovers > 0);
        // Surviving the failure costs response time, not requests.
        assert!(failover.rt_overhead >= 1.0);
    }

    #[test]
    fn avail_sweep_is_thread_count_invariant() {
        let params = DiskParams::default();
        let run = |threads| {
            experiment()
                .with_threads(threads)
                .with_method_filter("HCAM")
                .run_avail_sweep(
                    &params,
                    300,
                    40.0,
                    16,
                    &avail_schedules(),
                    &[1, 2],
                    RetryPolicy::default(),
                    8,
                )
                .unwrap()
        };
        let base = run(1);
        for threads in [4, 0] {
            let other = run(threads);
            assert_eq!(base.points.len(), other.points.len());
            for (a, b) in base.points.iter().zip(&other.points) {
                assert_eq!(
                    (a.schedule.as_str(), a.replicas, a.policy),
                    (b.schedule.as_str(), b.replicas, b.policy)
                );
                assert_eq!(a.availability.to_bits(), b.availability.to_bits());
                assert_eq!(a.mean_latency_ms.to_bits(), b.mean_latency_ms.to_bits());
                assert_eq!(a.achieved_qps.to_bits(), b.achieved_qps.to_bits());
                assert_eq!(a.tail_ms, b.tail_ms);
                assert_eq!(
                    (a.served, a.shed, a.lost, a.retries, a.timeouts, a.failovers),
                    (b.served, b.shed, b.lost, b.retries, b.timeouts, b.failovers)
                );
            }
        }
    }

    #[test]
    fn avail_sweep_rejects_bad_inputs() {
        let params = DiskParams::default();
        assert!(matches!(
            experiment()
                .run_avail_sweep(&params, 100, 40.0, 16, &[], &[1], RetryPolicy::default(), 0)
                .unwrap_err(),
            SimError::EmptySweep
        ));
        assert!(matches!(
            experiment()
                .run_avail_sweep(
                    &params,
                    100,
                    40.0,
                    16,
                    &[("none".into(), FaultSchedule::healthy(4))],
                    &[1],
                    RetryPolicy::default(),
                    0
                )
                .unwrap_err(),
            SimError::ScheduleMismatch { .. }
        ));
    }

    #[test]
    fn fault_workload_rejects_a_chain_as_long_as_the_array() {
        let err = experiment()
            .run_fault_workload_with(
                16,
                &FaultSchedule::healthy(8),
                &RetryPolicy::default(),
                8,
                ReplicaPolicy::FailoverOnly,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Spec(SpecError::TooManyReplicas {
                replicas: 8,
                disks: 8
            })
        ));
    }

    /// The E1- and E2-style tables `exp` renders, sweeping its own
    /// context twice.
    fn tables(exp: &Experiment) -> [String; 2] {
        let e1 = exp
            .run_size_sweep(&SizeSweep::explicit(vec![1, 16]))
            .unwrap();
        let e2 = exp.run_shape_sweep(&ShapeSweep::new(16, 4)).unwrap();
        [e1, e2].map(|r| crate::Report::render(&r, crate::ReportFormat::Table))
    }

    /// Each builder that changes what the sweep context holds, applied
    /// after a sweep built one, gives the tables a fresh experiment
    /// gives. Baselines are on so that the RND column follows the seed.
    #[test]
    fn builders_that_change_the_context_drop_a_built_one() {
        use decluster_obs::{MetricsRecorder, Recorder};
        let fresh = || experiment().with_baselines(true);
        let swept = |exp: Experiment| {
            tables(&exp);
            let debug = format!("{exp:?}");
            assert!(debug.contains("SweepContext(built)") && debug.len() < 400);
            exp
        };

        let reseeded = swept(fresh()).with_seed(11);
        assert!(format!("{reseeded:?}").contains("SweepContext(unbuilt)"));
        assert_eq!(tables(&reseeded), tables(&fresh().with_seed(11)));

        let widened = swept(experiment()).with_baselines(true);
        assert_eq!(tables(&widened), tables(&fresh()));

        let rec = Arc::new(MetricsRecorder::new());
        let observed = swept(fresh()).with_obs(Obs::new(rec.clone()));
        assert_eq!(tables(&observed), tables(&fresh()));
        assert_eq!(
            rec.snapshot().counter("rt.queries"),
            Some(5 * 64),
            "the new recorder sees every point of both sweeps"
        );

        let cache = Arc::new(Mutex::new(KernelCache::new()));
        let cached = swept(fresh()).with_kernel_cache(cache.clone());
        assert_eq!(tables(&cached), tables(&fresh()));
        assert_eq!(
            cache.lock().unwrap().len(),
            6,
            "the next sweep's context consulted and warmed the cache"
        );
    }

    #[test]
    fn mean_deviation_factor_computes() {
        let r = experiment()
            .run_size_sweep(&SizeSweep::explicit(vec![4, 16, 64]))
            .unwrap();
        let f = r.mean_deviation_factor("DM").unwrap();
        assert!(f >= 1.0);
        assert!(r.mean_deviation_factor("NOPE").is_none());
    }

    #[test]
    fn baselines_included_on_request() {
        let r = Experiment::new(GridSpace::new_2d(8, 8).unwrap(), 4)
            .with_queries_per_point(16)
            .with_baselines(true)
            .run_size_sweep(&SizeSweep::explicit(vec![4]))
            .unwrap();
        let names: Vec<&str> = r.series.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"RR"));
        assert!(names.contains(&"RND"));
    }
}
