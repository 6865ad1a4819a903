//! The four workloads: their inputs, ops, correctness checks and the
//! layer probes of the traced run.
//!
//! Every op is a closed loop of one client: the benchmark issues op
//! `i + 1` only after op `i` returns. All e2e runs use one thread and one
//! shard (the `repro` defaults).

use crate::trace::{Phase, Tracer};
use crate::Metric;
use decluster_grid::{BucketRegion, GridDirectory, GridSpace, IoPlan};
use decluster_methods::{
    kernel_build_count, splitmix64, AllocationMap, DeclusteringMethod, DiskCounts, Hcam,
    KernelCache, MethodRegistry, PlanCounts, Scratch,
};
use decluster_obs::Obs;
use decluster_sim::workload::{
    random_region, rect_sides_for_area, InterArrival, ShapeSweep, SizeSweep,
};
use decluster_sim::{
    sharded_arrivals, DiskParams, Experiment, FaultSchedule, LoopScratch, MultiUserEngine,
    ReplicaPolicy, Report, ReportFormat, RetryPolicy, ServeRun, ServeSpec, SweepResult,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["paper_sweep", "serve_open", "serve_share", "serve_faults"];

/// The paper's default study: a 64×64 grid on M = 16 disks.
const PAPER_SIDE: u32 = 64;
const PAPER_DISKS: u32 = 16;
/// E1 area ladder (areas 1..1024).
const E1_AREAS: [u64; 19] = [
    1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
];
/// E2 shape ladder: aspect 1:1 → 1:64 at area 64.
const E2_AREA: u64 = 64;
const E2_MAX_POWER: u32 = 6;
/// Placements scored per ladder point and method.
const SWEEP_PLACEMENTS: usize = 1_600;
/// Placements per op checked against the naive RT walk.
const CHECK_SAMPLES: usize = 8;
/// Arrivals per run of paper_sweep's serving probe.
const SWEEP_ARRIVALS: usize = 8_000;

/// serve_open: HCAM on a 16^4 grid with M = 64; its kernel image is 16 MiB.
const OPEN_SIDE: u32 = 16;
const OPEN_DIMS: usize = 4;
const OPEN_DISKS: u32 = 64;
const OPEN_ARRIVALS: usize = 20_000;
/// The method name the serve_open images are stored under.
const OPEN_METHOD: &str = "HCAM";

/// Regions a serve workload's arrivals cycle over.
const POOL: usize = 1000;
const RATE_QPS: f64 = 12.0;
/// serve_share and serve_faults query area.
const SERVE_AREA: u64 = 64;
/// serve_share: share of the pool redirected to one hot scan, and the
/// batch window in mean inter-arrival gaps.
const HOT_PCT: usize = 90;
const BATCH_GAPS: f64 = 8.0;
const SHARE_ARRIVALS: usize = 3_000;
/// serve_faults: chain depth, admission cap, arrivals per op.
const FAULT_REPLICAS: u32 = 2;
const ADMISSION_CAP: usize = 64;
const FAULT_ARRIVALS: usize = 24_000;

/// Layer probes repeat until both bounds are met.
const PROBE_MIN_REPS: u64 = 3;
const PROBE_MIN_TIME: Duration = Duration::from_millis(40);
/// Shared-scan window size used by the merge probe.
const MERGE_WINDOW: usize = 8;

/// Deterministic work one op did. Summed over the first ops of a run,
/// these repeat exactly for a given seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub kernel_builds: u64,
    pub queries: u64,
    pub placements_checked: u64,
    pub rt_sum: u64,
    pub events: u64,
    pub pages: u64,
    pub peak_in_flight: u64,
    pub share_windows: u64,
    pub share_merged: u64,
    pub share_saved: u64,
    pub served: u64,
    pub shed: u64,
    pub lost: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub failovers: u64,
    pub transitions: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.kernel_builds += o.kernel_builds;
        self.queries += o.queries;
        self.placements_checked += o.placements_checked;
        self.rt_sum += o.rt_sum;
        self.events += o.events;
        self.pages += o.pages;
        self.peak_in_flight = self.peak_in_flight.max(o.peak_in_flight);
        self.share_windows += o.share_windows;
        self.share_merged += o.share_merged;
        self.share_saved += o.share_saved;
        self.served += o.served;
        self.shed += o.shed;
        self.lost += o.lost;
        self.retries += o.retries;
        self.timeouts += o.timeouts;
        self.failovers += o.failovers;
        self.transitions += o.transitions;
    }

    /// The counts under their metric names.
    pub fn fields(&self) -> [(&'static str, u64); 17] {
        [
            ("core.kernel_builds", self.kernel_builds),
            ("work.queries", self.queries),
            ("work.placements_checked", self.placements_checked),
            ("work.rt_sum", self.rt_sum),
            ("work.events", self.events),
            ("work.pages", self.pages),
            ("work.peak_in_flight", self.peak_in_flight),
            ("work.share.windows", self.share_windows),
            ("work.share.merged_queries", self.share_merged),
            ("work.share.pages_saved", self.share_saved),
            ("work.faults.served", self.served),
            ("work.faults.shed", self.shed),
            ("work.faults.lost", self.lost),
            ("work.faults.retries", self.retries),
            ("work.faults.timeouts", self.timeouts),
            ("work.faults.failovers", self.failovers),
            ("work.faults.transitions", self.transitions),
        ]
    }

    fn of_serve(run: &ServeRun) -> Counts {
        let mut c = Counts {
            queries: run.report.queries as u64,
            events: run.events,
            pages: run.pages,
            peak_in_flight: run.peak_in_flight as u64,
            ..Counts::default()
        };
        if let Some(s) = run.sharing {
            c.share_windows = s.windows;
            c.share_merged = s.merged_queries;
            c.share_saved = s.pages_saved;
        }
        if let Some(a) = run.availability {
            c.served = a.served;
            c.shed = a.shed;
            c.lost = a.lost;
            c.retries = a.retries;
            c.timeouts = a.timeouts;
            c.failovers = a.failovers;
            c.transitions = a.transitions;
        }
        c
    }
}

/// What one op returns: the queries it completed, whether every
/// correctness check passed, and its work counts.
pub struct Outcome {
    pub queries: u64,
    pub ok: bool,
    pub counts: Counts,
}

pub trait Workload {
    /// Runs op `op` (its timed calls, then its correctness checks).
    fn op(&mut self, op: u64, obs: &Obs, tr: &mut Tracer) -> Outcome;

    /// Kernel builds one set-up performs.
    fn setup_kernel_builds(&self) -> u64;

    /// Hash of the generated inputs; differs between seeds.
    fn fingerprint(&self) -> u64;

    /// Runs the traced run's layer probes (spans in [`Phase::Probe`]) and
    /// returns the per-layer metrics only the workload can compute, and
    /// whether the probes' own output checks passed.
    fn probes(&mut self, tr: &mut Tracer) -> (Vec<Metric>, bool);
}

/// The seed of op `op`, derived from the workload seed.
fn op_seed(seed: u64, op: u64) -> u64 {
    splitmix64(seed ^ splitmix64(op))
}

fn hash_regions(regions: &[BucketRegion]) -> u64 {
    regions.iter().fold(0u64, |h, r| {
        let lo = r.lo().as_slice().iter().chain(r.hi().as_slice());
        lo.fold(h, |h, &c| splitmix64(h ^ u64::from(c)))
    })
}

fn ceil_div(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// Runs `f` in probe spans named `name` until both repetition bounds are
/// met; returns the median repetition in ms.
fn probe(tr: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut rep = 0;
    while rep < PROBE_MIN_REPS || start.elapsed() < PROBE_MIN_TIME {
        tr.span(name, Phase::Probe, rep, &mut f);
        rep += 1;
    }
    tr.layer_ms(name, Phase::Probe)
        .expect("the probe just recorded spans")
}

/// Per-query layer probes over a pool of regions: I/O plan
/// materialization, shared-scan merging, RT scoring and count planning.
fn pool_probes(
    tr: &mut Tracer,
    dir: &GridDirectory,
    counts: &PlanCounts,
    kernels: &[&DiskCounts],
    pool: &[BucketRegion],
) -> Vec<Metric> {
    let n = pool.len() as f64;
    let mut plan = IoPlan::new();
    let ioplan_ms = probe(tr, "grid.ioplan", || {
        for r in pool {
            dir.io_plan_into(r, &mut plan);
            black_box(&plan);
        }
    });

    let plans: Vec<IoPlan> = pool
        .iter()
        .map(|r| {
            let mut p = IoPlan::new();
            dir.io_plan_into(r, &mut p);
            p
        })
        .collect();
    let windows = plans.len() / MERGE_WINDOW;
    let (mut acc, mut out) = (IoPlan::new(), IoPlan::new());
    let merge_ms = probe(tr, "grid.merge_union", || {
        for w in plans.chunks_exact(MERGE_WINDOW) {
            acc.merge_union(&w[0], &w[1]);
            for p in &w[2..] {
                out.merge_union(&acc, p);
                std::mem::swap(&mut acc, &mut out);
            }
            black_box(&acc);
        }
    });

    let mut scratch = Scratch::new();
    let rt_ms = probe(tr, "core.rt", || {
        for k in kernels {
            for r in pool {
                black_box(k.response_time_with(r, &mut scratch));
            }
        }
    });
    let mut disk_counts = Vec::new();
    let plan_ms = probe(tr, "core.plan", || {
        for r in pool {
            black_box(counts.counts_into(r, &mut scratch, &mut disk_counts));
        }
    });
    vec![
        Metric::new("grid.ioplan_us_per_query", ioplan_ms * 1e3 / n, "us"),
        Metric::new(
            "grid.merge_union_us_per_window",
            merge_ms * 1e3 / windows as f64,
            "us",
        ),
        Metric::new(
            "core.rt_us_per_eval",
            rt_ms * 1e3 / (n * kernels.len() as f64),
            "us",
        ),
        Metric::new("core.plan_us_per_query", plan_ms * 1e3 / n, "us"),
    ]
}

/// One compiled kernel with what adopting it needs.
struct KernelEntry<'a> {
    name: &'a str,
    map: &'a AllocationMap,
    kernel: &'a DiskCounts,
    dir: &'a GridDirectory,
}

/// Times adopting `entries` from one persist-v3 image (parse, identity
/// lookup, engine construction) for workloads that build their kernels
/// cold; returns the image size in MiB.
fn adopt_probe(tr: &mut Tracer, entries: &[KernelEntry<'_>]) -> f64 {
    let mut cache = KernelCache::new();
    for e in entries {
        cache.insert(e.name, e.map, e.kernel);
    }
    let image = cache.to_bytes();
    probe(tr, "core.kernel_adopt", || {
        let loaded = KernelCache::from_bytes(&image).expect("a just-written image loads");
        for e in entries {
            let kernel = loaded.lookup(e.name, e.map);
            assert!(kernel.is_some(), "a just-written kernel revalidates");
            black_box(MultiUserEngine::with_kernel(e.dir, kernel));
        }
    });
    image.len() as f64 / f64::from(1u32 << 20)
}

/// Times one E1-style sweep point (and its rendering) on a workload's own
/// grid, for the serve workloads whose ops never sweep.
fn sweep_probe(tr: &mut Tracer, space: &GridSpace, m: u32, area: u64, seed: u64) {
    let exp = Experiment::new(space.clone(), m)
        .with_queries_per_point(POOL)
        .with_seed(seed);
    let mut rep = 0;
    let start = Instant::now();
    while rep < PROBE_MIN_REPS || start.elapsed() < PROBE_MIN_TIME {
        let result = tr.span("sim.sweep", Phase::Probe, rep, || {
            exp.run_size_sweep(&SizeSweep::explicit(vec![area]))
                .expect("the probe area fits the grid")
        });
        tr.span("sim.render", Phase::Probe, rep, || {
            black_box(render_all(&result))
        });
        rep += 1;
    }
}

fn render_all(result: &SweepResult) -> [String; 3] {
    [ReportFormat::Table, ReportFormat::Csv, ReportFormat::Json].map(|f| result.render(f))
}

// ---------------------------------------------------------------------
// paper_sweep

pub struct PaperSweep {
    seed: u64,
    space: GridSpace,
    maps: Vec<AllocationMap>,
    dirs: Vec<GridDirectory>,
    kernels: Vec<DiskCounts>,
    /// Query sides of every E1 point, then of every E2 point.
    e1_shapes: Vec<Vec<u32>>,
    e2_shapes: Vec<Vec<u32>>,
    scratch: Scratch,
}

impl PaperSweep {
    /// Cold set-up: every paper method, its directory and its kernel.
    pub fn setup(seed: u64, rep: u64, tr: &mut Tracer) -> Self {
        let space = GridSpace::new_2d(PAPER_SIDE, PAPER_SIDE).expect("paper grid");
        let (methods, maps) = tr.span("core.method_build", Phase::Setup, rep, || {
            let methods = MethodRegistry::with_seed(seed).paper_methods(&space, PAPER_DISKS);
            let maps: Vec<AllocationMap> = methods
                .iter()
                .map(|m| AllocationMap::from_method(&space, m.as_ref()).expect("materializes"))
                .collect();
            (methods, maps)
        });
        let dirs = tr.span("grid.directory_build", Phase::Setup, rep, || {
            methods
                .iter()
                .map(|m| {
                    GridDirectory::build(space.clone(), PAPER_DISKS, |b| m.disk_of(b.as_slice()))
                })
                .collect()
        });
        let kernels = tr.span("core.kernel_build", Phase::Setup, rep, || {
            maps.iter()
                .map(|m| m.disk_counts().expect("the paper grid admits a kernel"))
                .collect()
        });
        let e1_shapes = E1_AREAS
            .iter()
            .map(|&a| rect_sides_for_area(a, space.dims()).expect("E1 areas fit the grid"))
            .collect();
        let e2_shapes = ShapeSweep::new(E2_AREA, E2_MAX_POWER)
            .powers()
            .iter()
            .map(|&p| {
                let (a, b) = ShapeSweep::sides_for(E2_AREA, p).expect("admitted power");
                vec![a, b]
            })
            .collect();
        PaperSweep {
            seed,
            space,
            maps,
            dirs,
            kernels,
            e1_shapes,
            e2_shapes,
            scratch: Scratch::new(),
        }
    }

    /// The query sides of check sample `i` of op `op`: the samples of
    /// successive ops walk every E1 and E2 point in turn.
    fn sample_shape(&self, op: u64, i: usize) -> &[u32] {
        let n = self.e1_shapes.len() + self.e2_shapes.len();
        let k = (op as usize * CHECK_SAMPLES + i) % n;
        match self.e1_shapes.get(k) {
            Some(sides) => sides,
            None => &self.e2_shapes[k - self.e1_shapes.len()],
        }
    }

    /// Whether the sweep result covers every method and point, and every
    /// scored RT respects the `ceil(|Q|/M)` lower bound.
    fn check_result(&self, result: &SweepResult, shapes: &[Vec<u32>]) -> bool {
        let mut ok = result.series.len() == self.maps.len() && result.xs.len() == shapes.len();
        for s in &result.series {
            for (j, sides) in shapes.iter().enumerate() {
                let area: u64 = sides.iter().map(|&x| u64::from(x)).product();
                let bound = ceil_div(area, u64::from(PAPER_DISKS)) as f64;
                let sum = &s.summaries[j];
                ok &= sum.n == SWEEP_PLACEMENTS
                    && sum.min >= bound
                    && s.means[j] >= result.optimal[j];
            }
        }
        ok
    }
}

impl Workload for PaperSweep {
    fn op(&mut self, op: u64, obs: &Obs, tr: &mut Tracer) -> Outcome {
        let seed = op_seed(self.seed, op);
        let exp = Experiment::new(self.space.clone(), PAPER_DISKS)
            .with_queries_per_point(SWEEP_PLACEMENTS)
            .with_seed(seed)
            .with_obs(obs.clone());
        let results = tr.span("sim.sweep", Phase::Op, op, || {
            Some((
                exp.run_size_sweep(&SizeSweep::explicit(E1_AREAS.to_vec()))
                    .ok()?,
                exp.run_shape_sweep(&ShapeSweep::new(E2_AREA, E2_MAX_POWER))
                    .ok()?,
            ))
        });
        let Some((e1, e2)) = results else {
            return Outcome {
                queries: 0,
                ok: false,
                counts: Counts::default(),
            };
        };
        let rendered = tr.span("sim.render", Phase::Op, op, || {
            [render_all(&e1), render_all(&e2)]
        });

        let mut ok = self.check_result(&e1, &self.e1_shapes)
            && self.check_result(&e2, &self.e2_shapes)
            && rendered.iter().flatten().all(|r| !r.is_empty())
            && self
                .maps
                .iter()
                .all(|m| rendered.iter().all(|r| r[0].contains(m.name())));
        let points = self.e1_shapes.len() + self.e2_shapes.len();
        let mut counts = Counts {
            queries: (SWEEP_PLACEMENTS * points * self.maps.len()) as u64,
            ..Counts::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..CHECK_SAMPLES {
            let region = random_region(&mut rng, &self.space, self.sample_shape(op, i))
                .expect("ladder shapes fit the grid");
            let bound = ceil_div(region.num_buckets(), u64::from(PAPER_DISKS));
            for (map, kernel) in self.maps.iter().zip(&self.kernels) {
                let rt = kernel.response_time_with(&region, &mut self.scratch);
                ok &= rt == map.response_time(&region) && rt >= bound;
                counts.rt_sum += rt;
                counts.placements_checked += 1;
            }
        }
        Outcome {
            queries: counts.queries,
            ok,
            counts,
        }
    }

    fn setup_kernel_builds(&self) -> u64 {
        self.kernels.len() as u64
    }

    fn fingerprint(&self) -> u64 {
        let mut rng = StdRng::seed_from_u64(op_seed(self.seed, 0));
        let sample: Vec<BucketRegion> = (0..CHECK_SAMPLES)
            .map(|i| random_region(&mut rng, &self.space, self.sample_shape(0, i)).expect("fits"))
            .collect();
        hash_regions(&sample)
    }

    fn probes(&mut self, tr: &mut Tracer) -> (Vec<Metric>, bool) {
        // The op sweeps every ladder point in two calls; the metric is
        // per point.
        let points = (self.e1_shapes.len() + self.e2_shapes.len()) as f64;
        let sweep_ms = tr
            .layer_ms("sim.sweep", Phase::Op)
            .expect("the timed loop swept");
        let mut metrics = vec![Metric::new(
            "sim.sweep_ms_per_point",
            sweep_ms / points,
            "ms",
        )];

        // One pass over the E1 ladder, placed from the workload seed.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let pool: Vec<BucketRegion> = (0..POOL)
            .map(|i| {
                let sides = &self.e1_shapes[i % self.e1_shapes.len()];
                random_region(&mut rng, &self.space, sides).expect("fits")
            })
            .collect();
        let hcam = self
            .maps
            .iter()
            .position(|m| m.name() == "HCAM")
            .expect("HCAM is a paper method");
        let counts = PlanCounts::with_kernel(&self.dirs[hcam], Some(self.kernels[hcam].clone()));
        let kernels: Vec<&DiskCounts> = self.kernels.iter().collect();
        metrics.extend(pool_probes(tr, &self.dirs[hcam], &counts, &kernels, &pool));

        let entries: Vec<KernelEntry<'_>> = self
            .maps
            .iter()
            .zip(&self.kernels)
            .zip(&self.dirs)
            .map(|((map, kernel), dir)| KernelEntry {
                name: map.name(),
                map,
                kernel,
                dir,
            })
            .collect();
        let mib = adopt_probe(tr, &entries);
        metrics.push(Metric::new("core.kernel_image_mib", mib, "MiB"));

        // The sweep never serves; these probes time the serving layers on
        // the same placements so every layer is measured on every workload.
        let engine =
            MultiUserEngine::with_kernel(&self.dirs[hcam], Some(self.kernels[hcam].clone()));
        let params = DiskParams::default();
        let mut ls = LoopScratch::new();
        let obs = Obs::disabled();
        let arrivals_of = |seed| {
            sharded_arrivals(
                seed,
                SWEEP_ARRIVALS,
                InterArrival::Poisson { rate_qps: RATE_QPS },
                1,
                &obs,
            )
        };
        let mut rep = 0;
        let start = Instant::now();
        while rep < PROBE_MIN_REPS || start.elapsed() < PROBE_MIN_TIME {
            let seed = op_seed(self.seed, rep);
            let arrivals = tr.span("sim.arrivals", Phase::Probe, rep, || arrivals_of(seed));
            tr.span("sim.serve", Phase::Probe, rep, || {
                ServeSpec::open(RATE_QPS)
                    .seed(seed)
                    .run_with_arrivals(&engine, &params, &pool, &arrivals, &obs, &mut ls)
                    .expect("the probe spec is valid")
            });
            rep += 1;
        }
        // The sweep has no sharded path; the cells shard the same serving
        // probe instead.
        let seed = op_seed(self.seed, 0);
        let spec = ServeSpec::open(RATE_QPS).seed(seed);
        let (shard_metrics, identical) =
            attribution(&engine, &params, &pool, &arrivals_of(seed), &spec, &mut ls);
        metrics.extend(shard_metrics);
        (metrics, identical)
    }
}

// ---------------------------------------------------------------------
// serve_open, serve_share, serve_faults

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKind {
    Open,
    Share,
    Faults,
}

pub struct Serve {
    kind: ServeKind,
    seed: u64,
    space: GridSpace,
    disks: u32,
    dir: GridDirectory,
    engine: MultiUserEngine,
    pool: Vec<BucketRegion>,
    /// Pages each pool region reads alone (its `PlanCounts` total).
    pool_pages: Vec<u64>,
    arrivals_per_op: usize,
    params: DiskParams,
    ls: LoopScratch,
    kernel_builds: u64,
    image_mib: Option<f64>,
}

fn open_space() -> GridSpace {
    GridSpace::new(vec![OPEN_SIDE; OPEN_DIMS]).expect("serve_open grid")
}

fn image_paths(work: &Path) -> (std::path::PathBuf, std::path::PathBuf) {
    (
        work.join("serve_open.alloc"),
        work.join("serve_open.kernel"),
    )
}

/// Writes the allocation (persist v2) and kernel (persist v3) images that
/// serve_open adopts at set-up. Runs in its own process before the
/// measured one, so the measured process starts warm.
pub fn prepare_open(work: &Path) -> std::io::Result<()> {
    let space = open_space();
    let method = Hcam::new(&space, OPEN_DISKS).expect("HCAM builds on the serve_open grid");
    let dir = GridDirectory::build(space, OPEN_DISKS, |b| method.disk_of(b.as_slice()));
    let engine = MultiUserEngine::new(&dir);
    let counts = engine.serving().counts();
    let mut cache = KernelCache::new();
    cache.insert(
        OPEN_METHOD,
        counts.allocation(),
        counts
            .kernel()
            .expect("the serve_open grid admits a kernel"),
    );
    let (alloc_path, kernel_path) = image_paths(work);
    std::fs::create_dir_all(work)?;
    std::fs::write(alloc_path, counts.allocation().to_bytes())?;
    std::fs::write(kernel_path, cache.to_bytes())
}

impl Serve {
    pub fn setup(kind: ServeKind, seed: u64, rep: u64, work: &Path, tr: &mut Tracer) -> Self {
        let builds_before = kernel_build_count();
        let (space, disks, dir, engine, image_mib) = match kind {
            ServeKind::Open => {
                let space = open_space();
                let (alloc_path, kernel_path) = image_paths(work);
                let (alloc_image, kernel_image) =
                    tr.span("bench.read_images", Phase::Setup, rep, || {
                        let read = |p: &Path| {
                            std::fs::read(p).unwrap_or_else(|e| {
                                panic!("cannot read {}: {e} (run --prepare first)", p.display())
                            })
                        };
                        (read(&alloc_path), read(&kernel_path))
                    });
                let map = tr.span("core.alloc_load", Phase::Setup, rep, || {
                    AllocationMap::from_bytes(&alloc_image).expect("the allocation image parses")
                });
                let dir = tr.span("grid.directory_build", Phase::Setup, rep, || {
                    GridDirectory::from_table(space.clone(), OPEN_DISKS, map.table())
                        .expect("the allocation image is grid-shaped")
                });
                let engine = tr.span("core.kernel_adopt", Phase::Setup, rep, || {
                    let cache =
                        KernelCache::from_bytes(&kernel_image).expect("the kernel image parses");
                    let kernel = cache.lookup(OPEN_METHOD, &map);
                    assert!(
                        kernel.is_some(),
                        "the kernel image revalidates against the allocation"
                    );
                    MultiUserEngine::with_kernel(&dir, kernel)
                });
                let mib = kernel_image.len() as f64 / f64::from(1u32 << 20);
                (space, OPEN_DISKS, dir, engine, Some(mib))
            }
            ServeKind::Share | ServeKind::Faults => {
                let space = GridSpace::new_2d(PAPER_SIDE, PAPER_SIDE).expect("paper grid");
                let method = tr.span("core.method_build", Phase::Setup, rep, || {
                    Hcam::new(&space, PAPER_DISKS).expect("HCAM builds on the paper grid")
                });
                let dir = tr.span("grid.directory_build", Phase::Setup, rep, || {
                    GridDirectory::build(space.clone(), PAPER_DISKS, |b| {
                        method.disk_of(b.as_slice())
                    })
                });
                let engine = tr.span("core.kernel_build", Phase::Setup, rep, || {
                    MultiUserEngine::new(&dir)
                });
                (space, PAPER_DISKS, dir, engine, None)
            }
        };

        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<BucketRegion> = match kind {
            // Region i takes shape i mod 16, so every seed's pool holds
            // each shape equally often (to within one) and reads the same
            // pages; the seed places the regions.
            ServeKind::Open => (0..POOL)
                .map(|i| {
                    let sides: Vec<u32> = (0..OPEN_DIMS).map(|d| 1 + (i >> d & 1) as u32).collect();
                    random_region(&mut rng, &space, &sides).expect("fits")
                })
                .collect(),
            ServeKind::Share | ServeKind::Faults => {
                let sides = rect_sides_for_area(SERVE_AREA, space.dims()).expect("area fits");
                let base: Vec<BucketRegion> = (0..POOL)
                    .map(|_| random_region(&mut rng, &space, &sides).expect("fits"))
                    .collect();
                if kind == ServeKind::Share {
                    // Redirect HOT_PCT% of the pool onto one hot scan so
                    // merged windows dedup pages.
                    let hot = base[0].clone();
                    base.iter()
                        .enumerate()
                        .map(|(i, r)| {
                            if i % 100 < HOT_PCT {
                                hot.clone()
                            } else {
                                r.clone()
                            }
                        })
                        .collect()
                } else {
                    base
                }
            }
        };
        let pool_pages = tr.span("core.plan", Phase::Setup, rep, || {
            let mut scratch = Scratch::new();
            let mut out = Vec::new();
            pool.iter()
                .map(|r| {
                    engine
                        .serving()
                        .counts()
                        .counts_into(r, &mut scratch, &mut out)
                })
                .collect::<Vec<u64>>()
        });
        assert!(
            pool.iter()
                .zip(&pool_pages)
                .all(|(r, &p)| r.num_buckets() == p),
            "a region's planned pages equal its bucket count"
        );
        let arrivals_per_op = match kind {
            ServeKind::Open => OPEN_ARRIVALS,
            ServeKind::Share => SHARE_ARRIVALS,
            ServeKind::Faults => FAULT_ARRIVALS,
        };
        Serve {
            kind,
            seed,
            space,
            disks,
            dir,
            engine,
            pool,
            pool_pages,
            arrivals_per_op,
            params: DiskParams::default(),
            ls: LoopScratch::new(),
            kernel_builds: kernel_build_count() - builds_before,
            image_mib,
        }
    }

    /// The serve spec of an op whose arrivals span `span_ms`.
    fn spec(&self, seed: u64, span_ms: f64) -> ServeSpec {
        let spec = ServeSpec::open(RATE_QPS).seed(seed);
        match self.kind {
            ServeKind::Open => spec,
            ServeKind::Share => spec
                .share(BATCH_GAPS * 1000.0 / RATE_QPS)
                .replicas(1)
                .policy(ReplicaPolicy::Spread),
            ServeKind::Faults => {
                // Fault phases scale with the op's span, so every op
                // crosses the same fail-stop and transient windows. While
                // disks 4 and 5 are out, every copy of disk 3's buckets
                // (3, 4, 5 under r = 2) is down, so its reads back off,
                // retry and are finally lost.
                let span = span_ms as u64;
                let (from, until) = (span / 2, 5 * span / 8);
                let schedule = FaultSchedule::healthy(self.disks)
                    .fail_stop(3, span / 3)
                    .and_then(|s| s.transient(4, from, until))
                    .and_then(|s| s.transient(5, from, until))
                    .expect("the fault schedule is valid");
                spec.replicas(FAULT_REPLICAS)
                    .policy(ReplicaPolicy::NearestFreeQueue)
                    .retry(RetryPolicy::default())
                    .admission(ADMISSION_CAP)
                    .faults(schedule)
            }
        }
    }

    fn arrivals(&self, seed: u64, obs: &Obs) -> Vec<f64> {
        sharded_arrivals(
            seed,
            self.arrivals_per_op,
            InterArrival::Poisson { rate_qps: RATE_QPS },
            1,
            obs,
        )
    }

    /// Pages the op's arrivals read when served alone.
    fn unshared_pages(&self, arrivals: usize) -> u64 {
        (0..arrivals)
            .map(|i| self.pool_pages[i % self.pool.len()])
            .sum()
    }

    fn check(&self, run: &ServeRun, arrivals: usize) -> bool {
        let n = arrivals as u64;
        match self.kind {
            ServeKind::Open => {
                run.report.queries == arrivals && run.pages == self.unshared_pages(arrivals)
            }
            ServeKind::Share => run.sharing.is_some_and(|s| {
                run.report.queries == arrivals
                    && run.pages + s.pages_saved == self.unshared_pages(arrivals)
            }),
            ServeKind::Faults => run
                .availability
                .is_some_and(|a| a.served + a.shed + a.lost == n),
        }
    }

    /// The attribution cells on op 0's inputs.
    fn attribution(&mut self) -> (Vec<Metric>, bool) {
        let seed = op_seed(self.seed, 0);
        let arrivals = self.arrivals(seed, &Obs::disabled());
        let span = arrivals.last().copied().unwrap_or(0.0);
        let spec = self.spec(seed, span);
        attribution(
            &self.engine,
            &self.params,
            &self.pool,
            &arrivals,
            &spec,
            &mut self.ls,
        )
    }
}

/// Runs `spec` at (shards, threads) = (1, 1), (2, 1) and (2, 2), three
/// times each, and checks that the three outputs are byte-identical.
/// Returns `sim.shard.plan_once_speedup` ((1, 1) over (2, 1)) and
/// `sim.shard.thread_speedup` ((2, 1) over (2, 2)) from median times.
fn attribution(
    engine: &MultiUserEngine,
    params: &DiskParams,
    pool: &[BucketRegion],
    arrivals: &[f64],
    spec: &ServeSpec,
    ls: &mut LoopScratch,
) -> (Vec<Metric>, bool) {
    let obs = Obs::disabled();
    let cells = [(1, 1), (2, 1), (2, 2)].map(|(shards, threads)| {
        let spec = spec.clone().shards(shards).threads(threads);
        let mut times = Vec::new();
        let mut out = String::new();
        for _ in 0..3 {
            let t = Instant::now();
            let run = spec
                .run_with_arrivals(engine, params, pool, arrivals, &obs, ls)
                .expect("the attribution spec is valid");
            times.push(t.elapsed().as_secs_f64());
            out = format!("{run:?}");
        }
        (crate::median(&times), out)
    });
    let [(serial, a), (sharded, b), (threaded, c)] = cells;
    let metrics = vec![
        Metric::new("sim.shard.plan_once_speedup", serial / sharded, "x"),
        Metric::new("sim.shard.thread_speedup", sharded / threaded, "x"),
    ];
    (metrics, a == b && b == c)
}

impl Workload for Serve {
    fn op(&mut self, op: u64, obs: &Obs, tr: &mut Tracer) -> Outcome {
        let seed = op_seed(self.seed, op);
        let arrivals = tr.span("sim.arrivals", Phase::Op, op, || self.arrivals(seed, obs));
        let span = arrivals.last().copied().unwrap_or(0.0);
        let spec = self.spec(seed, span);
        let (engine, params, pool, ls) = (&self.engine, &self.params, &self.pool, &mut self.ls);
        let run = tr.span("sim.serve", Phase::Op, op, || {
            spec.run_with_arrivals(engine, params, pool, &arrivals, obs, ls)
        });
        match run {
            Ok(run) => Outcome {
                queries: arrivals.len() as u64,
                ok: self.check(&run, arrivals.len()),
                counts: Counts::of_serve(&run),
            },
            Err(_) => Outcome {
                queries: 0,
                ok: false,
                counts: Counts::default(),
            },
        }
    }

    fn setup_kernel_builds(&self) -> u64 {
        self.kernel_builds
    }

    fn fingerprint(&self) -> u64 {
        let arrivals = self.arrivals(op_seed(self.seed, 0), &Obs::disabled());
        let times = arrivals
            .iter()
            .take(64)
            .fold(0u64, |h, t| splitmix64(h ^ t.to_bits()));
        hash_regions(&self.pool) ^ times
    }

    fn probes(&mut self, tr: &mut Tracer) -> (Vec<Metric>, bool) {
        let counts = self.engine.serving().counts();
        let kernel = counts.kernel().expect("serve grids admit a kernel").clone();
        let mut metrics = pool_probes(tr, &self.dir, counts, &[&kernel], &self.pool);

        let mib = match self.image_mib {
            Some(mib) => mib,
            None => {
                let entry = KernelEntry {
                    name: OPEN_METHOD,
                    map: counts.allocation(),
                    kernel: &kernel,
                    dir: &self.dir,
                };
                adopt_probe(tr, &[entry])
            }
        };
        metrics.push(Metric::new("core.kernel_image_mib", mib, "MiB"));

        if self.kind == ServeKind::Open {
            // The warm set-up skips these layers; time them cold here.
            let space = self.space.clone();
            let method = Hcam::new(&space, self.disks).expect("HCAM builds");
            probe(tr, "core.method_build", || {
                black_box(Hcam::new(&space, self.disks).expect("HCAM builds"));
            });
            probe(tr, "grid.directory_build", || {
                black_box(GridDirectory::build(space.clone(), self.disks, |b| {
                    method.disk_of(b.as_slice())
                }));
            });
            probe(tr, "core.kernel_build", || {
                black_box(MultiUserEngine::new(&self.dir));
            });
        }

        let area = match self.kind {
            ServeKind::Open => 1 << OPEN_DIMS,
            ServeKind::Share | ServeKind::Faults => SERVE_AREA,
        };
        sweep_probe(tr, &self.space, self.disks, area, self.seed);

        let (shard_metrics, identical) = self.attribution();
        metrics.extend(shard_metrics);
        (metrics, identical)
    }
}

/// Builds workload `name` once, recording its set-up spans under `rep`.
pub fn setup(name: &str, seed: u64, rep: u64, work: &Path, tr: &mut Tracer) -> Box<dyn Workload> {
    match name {
        "paper_sweep" => Box::new(PaperSweep::setup(seed, rep, tr)),
        "serve_open" => Box::new(Serve::setup(ServeKind::Open, seed, rep, work, tr)),
        "serve_share" => Box::new(Serve::setup(ServeKind::Share, seed, rep, work, tr)),
        "serve_faults" => Box::new(Serve::setup(ServeKind::Faults, seed, rep, work, tr)),
        _ => unreachable!("workload names are validated at argument parsing"),
    }
}
