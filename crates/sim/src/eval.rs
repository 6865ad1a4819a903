use crate::faults::{
    degraded_outcome, FaultMethodStats, FaultSchedule, QueryOutcome, ReplicaPolicy, RetryPolicy,
};
use crate::{optimal_response_time, Result, SimError, SpecError, Summary};
use decluster_grid::{BucketRegion, GridSpace};
use decluster_methods::{
    AllocationMap, DeclusteringMethod, DiskCounts, KernelCache, MethodRegistry, ScoreBatch, Scratch,
};
use decluster_obs::{Obs, TraceEvent};

/// The methods under evaluation at one sweep point, materialized once.
///
/// For each method the context holds its [`AllocationMap`] and, where the
/// grid admits one, the [`DiskCounts`] prefix-sum kernel, so scoring a
/// query population costs `O(M · 2^k)` per query instead of `O(|Q|)`.
/// Methods whose kernel cannot be built (the `buckets × disks` table
/// would not fit in memory) transparently fall back to the naive
/// per-bucket walk — results are identical either way, only the cost
/// differs.
///
/// A context is immutable after construction and `Sync`, so one context
/// can be shared by every worker thread of a sweep.
#[derive(Clone, Debug)]
pub struct EvalContext {
    m: u32,
    maps: Vec<AllocationMap>,
    kernels: Vec<Option<DiskCounts>>,
    obs: Obs,
}

impl EvalContext {
    /// Materializes the registry's method set over `space` with `m`
    /// disks (paper methods, plus baselines when `baselines` is set),
    /// building the RT kernel for each.
    pub fn materialize(
        registry: &MethodRegistry,
        space: &GridSpace,
        m: u32,
        baselines: bool,
    ) -> Self {
        let methods = if baselines {
            registry.with_baselines(space, m)
        } else {
            registry.paper_methods(space, m)
        };
        let maps = methods
            .iter()
            .map(|method| {
                AllocationMap::from_method(space, method.as_ref())
                    .expect("experiment grids are materializable")
            })
            .collect();
        Self::from_maps(m, maps)
    }

    /// Wraps already-materialized allocations, building each kernel.
    pub fn from_maps(m: u32, maps: Vec<AllocationMap>) -> Self {
        let kernels = maps.iter().map(|map| map.disk_counts().ok()).collect();
        EvalContext {
            m,
            maps,
            kernels,
            obs: Obs::disabled(),
        }
    }

    /// As [`EvalContext::from_maps`], but consulting a persist-v3
    /// [`KernelCache`] before building each kernel. A hit adopts the
    /// stored compiled kernel — zero build-phase work, bit-identical to
    /// a rebuild by the cache's revalidation contract. A miss (method
    /// absent, or its stored image stale against the live allocation)
    /// builds as usual and inserts the fresh kernel back into `cache`
    /// under the map's method name, so a cold run warms the cache for
    /// the next start.
    pub fn from_maps_cached(m: u32, maps: Vec<AllocationMap>, cache: &mut KernelCache) -> Self {
        let kernels = maps
            .iter()
            .map(|map| match cache.lookup(map.name(), map) {
                Some(kernel) => Some(kernel),
                None => {
                    let kernel = map.disk_counts().ok();
                    if let Some(k) = &kernel {
                        cache.insert(map.name(), map, k);
                    }
                    kernel
                }
            })
            .collect();
        EvalContext {
            m,
            maps,
            kernels,
            obs: Obs::disabled(),
        }
    }

    /// Exports every built kernel into `cache` under its method name
    /// (replacing same-name entries), so a process that paid the build
    /// phase can persist the compiled kernels for the next start.
    pub fn export_kernels(&self, cache: &mut KernelCache) {
        for (map, kernel) in self.maps.iter().zip(&self.kernels) {
            if let Some(k) = kernel {
                cache.insert(map.name(), map, k);
            }
        }
    }

    /// Attaches an observability handle; [`EvalContext::score`] then
    /// records logical counters (queries, kernel vs naive invocations,
    /// cells read) and the RT histogram. The default handle is the no-op
    /// recorder, which keeps the scoring loop free of aggregation.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The context's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The disk count every method in the context uses.
    pub fn num_disks(&self) -> u32 {
        self.m
    }

    /// The materialized allocations, in registry order.
    pub fn maps(&self) -> &[AllocationMap] {
        &self.maps
    }

    /// Method display names, in registry order.
    pub fn names(&self) -> Vec<&str> {
        self.maps.iter().map(|m| m.name()).collect()
    }

    /// How many methods have a working kernel (the rest use the naive
    /// walk).
    pub fn kernel_coverage(&self) -> usize {
        self.kernels.iter().flatten().count()
    }

    /// Response time of `region` under method `idx`, through the kernel
    /// when one exists.
    pub fn response_time(&self, idx: usize, region: &BucketRegion) -> u64 {
        match &self.kernels[idx] {
            Some(kernel) => kernel.response_time(region),
            None => self.maps[idx].response_time(region),
        }
    }

    /// As [`EvalContext::response_time`], through `scratch`'s
    /// shape-compiled plan cache and reusable accumulator: zero
    /// allocations per query, and the `2^k` corner offsets are computed
    /// once per query shape instead of once per query. All kernels of a
    /// context share one grid, so a plan compiled against one method's
    /// kernel answers every other method's too.
    pub fn response_time_with(
        &self,
        idx: usize,
        region: &BucketRegion,
        scratch: &mut Scratch,
    ) -> u64 {
        match &self.kernels[idx] {
            Some(kernel) => kernel.response_time_with(region, scratch),
            None => self.maps[idx].response_time_with(region, scratch),
        }
    }

    /// Per-disk bucket counts of `region` under method `idx`, through the
    /// kernel (`O(M · 2^k)`) when one exists, the naive walk otherwise.
    pub fn access_histogram(&self, idx: usize, region: &BucketRegion) -> Vec<u64> {
        match &self.kernels[idx] {
            Some(kernel) => kernel.access_histogram(region),
            None => self.maps[idx].access_histogram(region),
        }
    }

    /// As [`EvalContext::access_histogram`], written into a caller-owned
    /// buffer through the scratch's plan cache — the zero-allocation
    /// variant behind degraded-mode scoring.
    pub fn access_histogram_into(
        &self,
        idx: usize,
        region: &BucketRegion,
        scratch: &mut Scratch,
        out: &mut Vec<u64>,
    ) {
        match &self.kernels[idx] {
            Some(kernel) => kernel.access_histogram_with(region, scratch, out),
            None => self.maps[idx].access_histogram_into(region, out),
        }
    }

    /// Scores every method against a query population: per-method
    /// response-time summaries plus the mean optimal bound
    /// `ceil(|Q|/M)`. Allocates a fresh [`Scratch`] per call; sweep
    /// loops that score many batches should hold one per worker and call
    /// [`EvalContext::score_with`].
    pub fn score(&self, regions: &[BucketRegion]) -> (Vec<Summary>, f64) {
        self.score_with(regions, &mut Scratch::new())
    }

    /// [`EvalContext::score`] through a caller-owned [`Scratch`]: the
    /// kernel-v2 hot path. Every method's kernel scores the whole batch
    /// as one [`decluster_methods::ScoreBatch`], sharing the placement
    /// keys the first kernel computes and resolving the corner plan once
    /// per run of equal shapes.
    ///
    /// The plan cache is reset at batch start and its hit/compile counts
    /// are drained into the `kernel.plan_hits` / `kernel.plan_compiles`
    /// counters at batch end, so those counters are a pure function of
    /// the batch's query sequence — never of which worker (and thus
    /// which scratch) ran the previous batch. That keeps metrics
    /// snapshots bit-identical for any thread count.
    pub fn score_with(
        &self,
        regions: &[BucketRegion],
        scratch: &mut Scratch,
    ) -> (Vec<Summary>, f64) {
        self.score_fresh(scratch, |scratch| self.score_batch(scratch.batch(regions)))
    }

    /// [`EvalContext::score_with`] over the placements of one box with
    /// per-dimension `sides`, whose `lo` corners the caller drew into
    /// `scratch`'s corner buffer ([`Scratch::corners_mut`], filled by
    /// [`crate::workload::random_corners`]): the fixed-shape sweeps'
    /// path. No region is built; the batch is one shape run with one
    /// corner plan. Summaries, optimal bound and every metric equal what
    /// [`EvalContext::score_with`] gives on the same placements' regions.
    ///
    /// # Panics
    /// Panics if a corner places the box off the grid, or if the buffer
    /// does not hold whole `sides.len()`-D corners.
    pub fn score_corners_with(&self, sides: &[u32], scratch: &mut Scratch) -> (Vec<Summary>, f64) {
        self.score_fresh(scratch, |scratch| {
            self.score_batch(scratch.shape_batch(sides))
        })
    }

    /// Runs `score` on `scratch` with the plan slot reset and its
    /// counters drained around it (see [`EvalContext::score_with`]).
    fn score_fresh(
        &self,
        scratch: &mut Scratch,
        score: impl FnOnce(&mut Scratch) -> (Vec<Summary>, f64),
    ) -> (Vec<Summary>, f64) {
        scratch.reset_plan();
        let _ = scratch.drain_plan_stats();
        let scored = score(scratch);
        let (plan_hits, plan_compiles) = scratch.drain_plan_stats();
        if self.obs.enabled() {
            self.obs.counter_add("kernel.plan_hits", plan_hits);
            self.obs.counter_add("kernel.plan_compiles", plan_compiles);
        }
        scored
    }

    /// Scores `batch` on every method, kernel or naive walk, and records
    /// the `rt.*` metrics. The bucket counts, cells read and the optimal
    /// bound depend on a placement's shape alone, so they are summed per
    /// shape run.
    fn score_batch(&self, mut batch: ScoreBatch<'_>) -> (Vec<Summary>, f64) {
        let n = batch.len();
        let mut summaries = Vec::with_capacity(self.maps.len());
        let mut rts = vec![0u64; n];
        // All observability aggregation sits behind this one branch, so
        // the disabled recorder costs nothing on the scoring path.
        let enabled = self.obs.enabled();
        let mut max_rt = 0u64;
        for (map, kernel) in self.maps.iter().zip(&self.kernels) {
            match kernel {
                Some(kernel) => batch.response_times(kernel, &mut rts),
                None => batch.naive_response_times(map, &mut rts),
            }
            if enabled {
                for &rt in &rts {
                    self.obs.observe("rt.response_time", rt);
                    max_rt = max_rt.max(rt);
                }
            }
            summaries.push(Summary::of_counts(&rts));
        }
        let (mut buckets, mut cells, mut opt_sum) = (0u64, 0u64, 0.0f64);
        for run in batch.shape_runs() {
            let len = run.len as u64;
            buckets += run.buckets * len;
            // Inclusion–exclusion over 2^k prefix corners, M per-disk
            // counts each.
            cells += (u64::from(self.m) << run.arity) * len;
            opt_sum += optimal_response_time(run.buckets, self.m) as f64 * run.len as f64;
        }
        if enabled {
            let kernels = self.kernel_coverage() as u64;
            let naive = self.maps.len() as u64 - kernels;
            self.obs.counter_add("rt.queries", n as u64);
            self.obs.counter_add("rt.buckets_requested", buckets);
            self.obs
                .counter_add("rt.kernel_invocations", kernels * n as u64);
            self.obs
                .counter_add("rt.naive_invocations", naive * n as u64);
            self.obs
                .counter_add("rt.kernel_cells_read", kernels * cells);
            self.obs
                .counter_add("rt.naive_buckets_scanned", naive * buckets);
            self.obs.gauge_max("rt.max_response_time", max_rt);
        }
        let opt_mean = if n == 0 { 0.0 } else { opt_sum / n as f64 };
        (summaries, opt_mean)
    }
}

/// A fault-injection view over an [`EvalContext`]: the same methods, the
/// same kernels, but every query is executed against a [`FaultSchedule`]
/// at a logical time equal to its index in the stream.
///
/// Each method is scored twice — unreplicated (a touched dead disk makes
/// the query [`QueryOutcome::Unavailable`]) and with chained-declustering
/// failover (`<name>+chain`) — so the availability gap replication buys
/// is visible in one table.
#[derive(Clone, Debug)]
pub struct DegradedContext<'a> {
    ctx: &'a EvalContext,
    schedule: &'a FaultSchedule,
    policy: RetryPolicy,
    replicas: u32,
    selection: ReplicaPolicy,
}

/// The reusable per-variant buffers of a scored degraded stream: the
/// kernel [`Scratch`] plus the histogram and per-disk-load vectors every
/// query rewrites in place.
#[derive(Default)]
struct VariantBuffers {
    scratch: Scratch,
    hist: Vec<u64>,
    loads: Vec<u64>,
}

impl<'a> DegradedContext<'a> {
    /// Wraps a context for degraded evaluation under `schedule`.
    ///
    /// # Errors
    /// [`SimError::ScheduleMismatch`] when the schedule covers a
    /// different disk count than the context's methods.
    pub fn new(
        ctx: &'a EvalContext,
        schedule: &'a FaultSchedule,
        policy: RetryPolicy,
    ) -> Result<Self> {
        if schedule.num_disks() != ctx.num_disks() {
            return Err(SimError::ScheduleMismatch {
                schedule_disks: schedule.num_disks(),
                experiment_disks: ctx.num_disks(),
            });
        }
        Ok(DegradedContext {
            ctx,
            schedule,
            policy,
            replicas: 1,
            selection: ReplicaPolicy::FailoverOnly,
        })
    }

    /// Overrides the replication depth and replica-selection policy of
    /// the chained variants (the defaults — one backup, failover-only —
    /// reproduce the classic chain bit for bit).
    ///
    /// # Errors
    /// [`SpecError::TooManyReplicas`] if `replicas >= M`: an r-way chain
    /// would wrap onto its own primary.
    pub fn with_replication(mut self, replicas: u32, selection: ReplicaPolicy) -> Result<Self> {
        let disks = self.ctx.num_disks();
        if replicas >= disks {
            return Err(SpecError::TooManyReplicas {
                replicas,
                disks: disks as usize,
            }
            .into());
        }
        self.replicas = replicas;
        self.selection = selection;
        Ok(self)
    }

    /// The outcome of `region` under method `idx` at logical time `t`,
    /// with or without replicated failover (`chained` uses the context's
    /// replication depth and selection policy).
    ///
    /// # Errors
    /// As [`degraded_outcome`]: [`SimError::ScheduleMismatch`] when the
    /// method's allocation covers a different disk count than the
    /// schedule.
    pub fn outcome(
        &self,
        idx: usize,
        t: u64,
        region: &BucketRegion,
        chained: bool,
    ) -> Result<QueryOutcome> {
        let hist = self.ctx.access_histogram(idx, region);
        degraded_outcome(
            &hist,
            self.schedule,
            t,
            &self.policy,
            if chained { self.replicas } else { 0 },
            self.selection,
            &mut Vec::new(),
        )
    }

    /// [`DegradedContext::outcome`] through caller-owned buffers: the
    /// query's histogram lands in `buf.hist` (via the scratch's plan
    /// cache) and the degraded per-disk loads in `buf.loads`, so a
    /// scored stream allocates nothing per query.
    fn outcome_with(
        &self,
        idx: usize,
        t: u64,
        region: &BucketRegion,
        chained: bool,
        buf: &mut VariantBuffers,
    ) -> Result<QueryOutcome> {
        self.ctx
            .access_histogram_into(idx, region, &mut buf.scratch, &mut buf.hist);
        degraded_outcome(
            &buf.hist,
            self.schedule,
            t,
            &self.policy,
            if chained { self.replicas } else { 0 },
            self.selection,
            &mut buf.loads,
        )
    }

    /// Scores every method against a query stream (query `i` executes at
    /// logical time `i`), returning two rows per method: the unreplicated
    /// variant and `<name>+chain`. Deterministic for any caller-side
    /// parallelization, because outcomes depend only on `(method, i)`.
    ///
    /// # Errors
    /// As [`DegradedContext::outcome`].
    pub fn score(&self, regions: &[BucketRegion]) -> Result<Vec<FaultMethodStats>> {
        let mut rows = Vec::with_capacity(self.ctx.maps().len() * 2);
        for idx in 0..self.ctx.maps().len() {
            for chained in [false, true] {
                rows.push(self.score_variant(idx, regions, chained)?);
            }
        }
        Ok(rows)
    }

    /// Scores one method/variant pair of [`DegradedContext::score`]:
    /// method `idx`, with or without chained failover. Exposed separately
    /// so the experiment harness can fan variants out over its executor.
    ///
    /// # Errors
    /// As [`DegradedContext::outcome`].
    pub fn score_variant(
        &self,
        idx: usize,
        regions: &[BucketRegion],
        chained: bool,
    ) -> Result<FaultMethodStats> {
        let name = self.ctx.maps()[idx].name();
        let obs = self.ctx.obs();
        let enabled = obs.enabled();
        let mut healthy = Vec::with_capacity(regions.len());
        let mut degraded = Vec::with_capacity(regions.len());
        let mut unavailable = 0usize;
        let mut failover_buckets = 0u64;
        let mut timeout_units = 0u64;
        // Per-variant buffers: the scratch's plan cache starts cold here,
        // so plan hit/compile counts stay a function of the variant's
        // query sequence alone (thread-count deterministic).
        let mut buf = VariantBuffers::default();
        for (i, region) in regions.iter().enumerate() {
            healthy.push(self.ctx.response_time_with(idx, region, &mut buf.scratch));
            match self.outcome_with(idx, i as u64, region, chained, &mut buf)? {
                QueryOutcome::Served {
                    response_time,
                    failover_buckets: fo,
                    timeout_penalty,
                } => {
                    degraded.push(response_time);
                    failover_buckets += fo;
                    if enabled {
                        timeout_units += timeout_penalty;
                        obs.observe("faults.degraded_rt", response_time);
                    }
                }
                QueryOutcome::Unavailable { .. } => unavailable += 1,
            }
        }
        let served = degraded.len();
        let (plan_hits, plan_compiles) = buf.scratch.drain_plan_stats();
        if enabled {
            obs.counter_add("kernel.plan_hits", plan_hits);
            obs.counter_add("kernel.plan_compiles", plan_compiles);
            obs.counter_add("faults.queries", regions.len() as u64);
            obs.counter_add("faults.served", served as u64);
            obs.counter_add("faults.unavailable", unavailable as u64);
            obs.counter_add("faults.failover_buckets", failover_buckets);
            obs.counter_add("faults.timeout_penalty_units", timeout_units);
        }
        if obs.trace_enabled() {
            obs.emit(
                TraceEvent::new("fault_variant_scored")
                    .with("method", name)
                    .with("chained", chained)
                    .with("served", served)
                    .with("unavailable", unavailable)
                    .with("failover_buckets", failover_buckets),
            );
        }
        Ok(FaultMethodStats {
            name: if chained {
                format!("{name}+chain")
            } else {
                name.to_owned()
            },
            healthy: Summary::of_counts(&healthy),
            degraded: Summary::of_counts(&degraded),
            served,
            unavailable,
            availability: if regions.is_empty() {
                1.0
            } else {
                served as f64 / regions.len() as f64
            },
            failover_buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decluster_grid::RangeQuery;

    fn context() -> EvalContext {
        let g = GridSpace::new_2d(8, 8).unwrap();
        EvalContext::materialize(&MethodRegistry::with_seed(1), &g, 4, false)
    }

    #[test]
    fn kernel_and_naive_agree_inside_a_context() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let ctx = context();
        assert_eq!(ctx.kernel_coverage(), ctx.maps().len());
        for (lo, hi) in [([0, 0], [3, 3]), ([2, 5], [7, 7]), ([1, 1], [1, 1])] {
            let r = RangeQuery::new(lo, hi).unwrap().region(&g).unwrap();
            for (idx, map) in ctx.maps().iter().enumerate() {
                assert_eq!(ctx.response_time(idx, &r), map.response_time(&r));
            }
        }
    }

    #[test]
    fn score_reports_every_method_and_the_bound() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let ctx = context();
        let r = RangeQuery::new([0, 0], [3, 3]).unwrap().region(&g).unwrap();
        let (summaries, opt) = ctx.score(&[r]);
        assert_eq!(summaries.len(), ctx.maps().len());
        assert_eq!(opt, 4.0); // 16 buckets / 4 disks
        for s in &summaries {
            assert!(s.mean >= opt);
        }
        let (empty, opt0) = ctx.score(&[]);
        assert_eq!(empty.len(), ctx.maps().len());
        assert_eq!(opt0, 0.0);
    }

    #[test]
    fn cached_context_round_trips_through_a_kernel_image() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let serial = context();
        let maps = serial.maps().to_vec();
        // Cold: empty cache, every kernel is built and inserted.
        let mut cache = KernelCache::new();
        let cold = EvalContext::from_maps_cached(4, maps.clone(), &mut cache);
        assert_eq!(cache.len(), cold.kernel_coverage());
        // Warm: reload the persisted image; every kernel is adopted.
        let mut warm_cache = KernelCache::from_bytes(&cache.to_bytes()).unwrap();
        let warm = EvalContext::from_maps_cached(4, maps, &mut warm_cache);
        assert_eq!(warm.kernel_coverage(), cold.kernel_coverage());
        let regions: Vec<_> = (0..4)
            .map(|i| {
                RangeQuery::new([0, i], [5, i + 2])
                    .unwrap()
                    .region(&g)
                    .unwrap()
            })
            .collect();
        let (a, opt_a) = cold.score(&regions);
        let (b, opt_b) = warm.score(&regions);
        assert_eq!(opt_a, opt_b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean, y.mean);
            assert_eq!(x.max, y.max);
        }
        // export_kernels re-persists to a byte-identical image.
        let mut exported = KernelCache::new();
        warm.export_kernels(&mut exported);
        assert_eq!(exported.to_bytes(), cache.to_bytes());
    }

    #[test]
    fn score_with_reused_scratch_matches_score() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let ctx = context();
        let regions: Vec<_> = (0..4)
            .map(|i| {
                RangeQuery::new([i, 0], [i + 3, 3])
                    .unwrap()
                    .region(&g)
                    .unwrap()
            })
            .collect();
        let (fresh, opt) = ctx.score(&regions);
        let mut scratch = decluster_methods::Scratch::new();
        for _ in 0..3 {
            // A scratch re-used across batches (as a sweep worker would)
            // must not change results.
            let (again, opt2) = ctx.score_with(&regions, &mut scratch);
            assert_eq!(opt2, opt);
            for (a, b) in again.iter().zip(&fresh) {
                assert_eq!(a.mean, b.mean);
                assert_eq!(a.max, b.max);
            }
        }
    }

    #[test]
    fn plan_counters_are_a_function_of_the_batch() {
        use decluster_obs::{MetricsRecorder, Recorder};
        use std::sync::Arc;
        let g = GridSpace::new_2d(8, 8).unwrap();
        let regions: Vec<_> = (0..5)
            .map(|i| {
                RangeQuery::new([i, 1], [i + 2, 4])
                    .unwrap()
                    .region(&g)
                    .unwrap()
            })
            .collect();
        let counters_for = |prewarm: bool| {
            let rec = Arc::new(MetricsRecorder::new());
            let ctx = context().with_obs(Obs::new(rec.clone()));
            let mut scratch = decluster_methods::Scratch::new();
            if prewarm {
                // Leave a stale plan + stats in the scratch, as a worker
                // that just scored a different batch would.
                let full = decluster_grid::BucketRegion::full(&g);
                let _ = ctx.response_time_with(0, &full, &mut scratch);
            }
            let _ = ctx.score_with(&regions, &mut scratch);
            let snap = rec.snapshot();
            let get = |name: &str| {
                snap.counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or(0)
            };
            (get("kernel.plan_hits"), get("kernel.plan_compiles"))
        };
        let cold = counters_for(false);
        let warm = counters_for(true);
        assert_eq!(
            cold, warm,
            "plan counters must not depend on scratch history"
        );
        // One shape, 5 placements, 4 methods on one grid: one compile,
        // the rest hits.
        assert_eq!(cold.1, 1);
        assert_eq!(cold.0 + cold.1, 4 * 5);
    }

    /// `n` placements of a `sides` box on `g` drawn from `seed`, as
    /// `lo` corners and as the same placements' regions.
    fn placements(
        g: &GridSpace,
        sides: &[u32],
        n: usize,
        seed: u64,
    ) -> (Vec<u32>, Vec<BucketRegion>) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut corners = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        crate::workload::random_corners(&mut rng, g, sides, n, &mut corners).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let regions = (0..n)
            .map(|_| crate::workload::random_region(&mut rng, g, sides).unwrap())
            .collect();
        (corners, regions)
    }

    #[test]
    fn a_corner_batch_reports_what_its_regions_report() {
        use decluster_obs::{MetricsRecorder, Recorder};
        use std::sync::Arc;
        let g = GridSpace::new_2d(8, 8).unwrap();
        // [8, 1] fills the first dimension: every placement sits on its
        // low edge.
        for sides in [[3u32, 2], [8, 1], [1, 1]] {
            let (corners, regions) = placements(&g, &sides, 40, 9);
            let run = |by_corner: bool| {
                let rec = Arc::new(MetricsRecorder::new());
                let ctx = context().with_obs(Obs::new(rec.clone()));
                let mut scratch = Scratch::new();
                let scored = if by_corner {
                    scratch.corners_mut().extend_from_slice(&corners);
                    ctx.score_corners_with(&sides, &mut scratch)
                } else {
                    ctx.score_with(&regions, &mut scratch)
                };
                let snap = rec.snapshot();
                (scored, snap.counters, snap.gauges, snap.histograms)
            };
            let by_corner = run(true);
            assert_eq!(by_corner, run(false), "{sides:?}");
            let counter = |name: &str| by_corner.1.iter().find(|(n, _)| n == name).map(|c| c.1);
            assert_eq!(counter("rt.queries"), Some(40));
            assert_eq!(counter("kernel.plan_compiles"), Some(1));
            assert_eq!(counter("kernel.plan_hits"), Some(4 * 40 - 1));
            let rts = by_corner
                .3
                .iter()
                .find(|h| h.name == "rt.response_time")
                .unwrap();
            assert_eq!(rts.count, 4 * 40);
        }
    }

    #[test]
    fn a_context_without_kernels_walks_corner_batches() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let mut naive = context();
        naive.kernels = vec![None; naive.maps.len()];
        assert_eq!(naive.kernel_coverage(), 0);
        for sides in [[3u32, 8], [1, 5]] {
            let (corners, regions) = placements(&g, &sides, 30, 4);
            let mut scratch = Scratch::new();
            scratch.corners_mut().extend_from_slice(&corners);
            let by_corner = naive.score_corners_with(&sides, &mut scratch);
            assert_eq!(by_corner, naive.score(&regions), "{sides:?}");
            assert_eq!(by_corner, context().score(&regions), "{sides:?}");
        }
    }

    #[test]
    fn degraded_context_rejects_a_chain_as_long_as_the_array() {
        let ctx = context(); // 4 disks
        let schedule = FaultSchedule::healthy(4);
        let dctx = DegradedContext::new(&ctx, &schedule, RetryPolicy::default()).unwrap();
        assert!(dctx
            .clone()
            .with_replication(3, ReplicaPolicy::Spread)
            .is_ok());
        assert!(matches!(
            dctx.with_replication(4, ReplicaPolicy::FailoverOnly)
                .unwrap_err(),
            SimError::Spec(SpecError::TooManyReplicas {
                replicas: 4,
                disks: 4
            })
        ));
    }

    #[test]
    fn degraded_context_rejects_wrong_disk_count() {
        let ctx = context(); // 4 disks
        let schedule = FaultSchedule::healthy(8);
        assert!(matches!(
            DegradedContext::new(&ctx, &schedule, RetryPolicy::default()).unwrap_err(),
            crate::SimError::ScheduleMismatch { .. }
        ));
    }

    #[test]
    fn degraded_context_healthy_schedule_matches_plain_scoring() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let ctx = context();
        let schedule = FaultSchedule::healthy(4);
        let dctx = DegradedContext::new(&ctx, &schedule, RetryPolicy::default()).unwrap();
        let regions: Vec<_> = [([0u32, 0u32], [3u32, 3u32]), ([2, 2], [6, 5])]
            .iter()
            .map(|&(lo, hi)| RangeQuery::new(lo, hi).unwrap().region(&g).unwrap())
            .collect();
        let rows = dctx.score(&regions).unwrap();
        assert_eq!(rows.len(), 2 * ctx.maps().len());
        for row in &rows {
            assert_eq!(row.unavailable, 0);
            assert_eq!(row.availability, 1.0);
            assert_eq!(row.failover_buckets, 0);
            assert_eq!(row.degraded.mean, row.healthy.mean, "{}", row.name);
        }
    }

    #[test]
    fn chained_rows_stay_available_under_a_single_failure() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let ctx = context();
        let schedule = FaultSchedule::healthy(4).fail_stop(1, 0).unwrap();
        let dctx = DegradedContext::new(&ctx, &schedule, RetryPolicy::default()).unwrap();
        // Big queries: every method touches all 4 disks, so unreplicated
        // availability collapses while chained stays perfect.
        let regions: Vec<_> = (0..4)
            .map(|i| {
                RangeQuery::new([0, i], [7, i + 3])
                    .unwrap()
                    .region(&g)
                    .unwrap()
            })
            .collect();
        let rows = dctx.score(&regions).unwrap();
        for row in &rows {
            if row.name.ends_with("+chain") {
                assert_eq!(row.availability, 1.0, "{}", row.name);
                assert!(
                    row.degraded.mean >= row.healthy.mean,
                    "{}: degraded {} < healthy {}",
                    row.name,
                    row.degraded.mean,
                    row.healthy.mean
                );
                assert!(row.failover_buckets > 0, "{}", row.name);
            } else {
                assert_eq!(row.availability, 0.0, "{}", row.name);
                assert_eq!(row.served, 0, "{}", row.name);
            }
        }
    }
}
