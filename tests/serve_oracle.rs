//! Oracle test of the open-loop serving paths: `ServeSpec::open(..)
//! .run_with_arrivals` must equal, bit for bit, a reference simulator
//! written only for clarity, both plain and through the fault router
//! under a healthy schedule. The reference walks the arrivals in order,
//! plans each one from scratch with the uncached
//! `PlanCounts::counts_into`, and fans it out FCFS over per-disk queues
//! — no event heap, no plan table, no cross-query plan cache. Cases
//! cover small random grids and allocations, query pools shorter and
//! longer than the arrival stream, pools with more distinct shapes than
//! the `PlanCache` holds, pools of 1-bucket regions (one-entry plan
//! rows), pools led by the whole grid (an entry for every disk), tied
//! arrival times, and sampling on and off.

use decluster::grid::{BucketRegion, DiskId, GridDirectory, GridSpace};
use decluster::methods::{splitmix64, PlanCache, PlanCounts, Scratch};
use decluster::obs::{MetricsRecorder, Obs};
use decluster::sim::workload::random_region;
use decluster::sim::{
    DiskParams, FaultSchedule, LoopScratch, MultiUserEngine, ServeRun, ServeSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// What the reference simulator measures, in the serving report's terms.
#[derive(Debug)]
struct Reference {
    makespan: f64,
    mean: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    utilization: f64,
    pages: u64,
    events: u64,
}

/// Nearest-rank quantile of an ascending sample (0 when empty).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Serves `arrivals[i]` with `pool[i % pool.len()]`, one arrival at a
/// time: plan the query, then queue one batch per touched disk behind
/// that disk's earlier batches. Completions never change disk state, so
/// arrival order is the whole schedule.
fn reference_serve(
    dir: &GridDirectory,
    params: &DiskParams,
    pool: &[BucketRegion],
    arrivals: &[f64],
) -> Reference {
    let counts = PlanCounts::build(dir);
    let loads = dir.load_vector();
    let m = loads.len();
    let mut scratch = Scratch::new();
    let mut hist = Vec::new();
    let mut free_at = vec![0.0f64; m];
    let mut busy = vec![0.0f64; m];
    let mut latencies = Vec::with_capacity(arrivals.len());
    let mut makespan = 0.0f64;
    let mut pages = 0u64;
    for (i, &at) in arrivals.iter().enumerate() {
        pages += counts.counts_into(&pool[i % pool.len()], &mut scratch, &mut hist);
        let mut done = at;
        for (d, &count) in hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let start = at.max(free_at[d]);
            let service = params.batch_ms_counts(count, loads[d]);
            free_at[d] = start + service;
            busy[d] += service;
            done = done.max(start + service);
        }
        latencies.push(done - at);
        makespan = makespan.max(done);
    }
    let n = latencies.len();
    let mean = if n == 0 {
        0.0
    } else {
        latencies.iter().sum::<f64>() / n as f64
    };
    let utilization = if makespan > 0.0 {
        busy.iter().sum::<f64>() / (makespan * m as f64)
    } else {
        0.0
    };
    latencies.sort_by(f64::total_cmp);
    Reference {
        makespan,
        mean,
        p50: nearest_rank(&latencies, 0.50),
        p95: nearest_rank(&latencies, 0.95),
        p99: nearest_rank(&latencies, 0.99),
        utilization,
        pages,
        // One arrival and one completion per request.
        events: 2 * n as u64,
    }
}

/// Runs the spec with a live metrics recorder; returns the run and the
/// shape-cache `(hits, misses)` counters.
fn serve(
    spec: &ServeSpec,
    engine: &MultiUserEngine,
    pool: &[BucketRegion],
    arrivals: &[f64],
) -> (ServeRun, (u64, u64)) {
    let rec = Arc::new(MetricsRecorder::new());
    let run = spec
        .run_with_arrivals(
            engine,
            &DiskParams::default(),
            pool,
            arrivals,
            &Obs::new(rec.clone()),
            &mut LoopScratch::new(),
        )
        .expect("every generated spec and input is valid");
    let snap = rec.registry().snapshot();
    let counter = |name| snap.counter(name).unwrap_or(0);
    let cache = (
        counter("kernel.shape_cache_hits"),
        counter("kernel.shape_cache_misses"),
    );
    (run, cache)
}

fn assert_matches(run: &ServeRun, want: &Reference, tag: &str) {
    let r = &run.report;
    assert_eq!(r.queries as u64 * 2, want.events, "{tag}: queries");
    assert_eq!(
        r.makespan_ms.to_bits(),
        want.makespan.to_bits(),
        "{tag}: makespan"
    );
    assert_eq!(r.latency.mean.to_bits(), want.mean.to_bits(), "{tag}: mean");
    assert_eq!(r.tail.p50.to_bits(), want.p50.to_bits(), "{tag}: p50");
    assert_eq!(r.tail.p95.to_bits(), want.p95.to_bits(), "{tag}: p95");
    assert_eq!(r.tail.p99.to_bits(), want.p99.to_bits(), "{tag}: p99");
    assert_eq!(
        r.utilization.to_bits(),
        want.utilization.to_bits(),
        "{tag}: utilization"
    );
    assert_eq!(run.pages, want.pages, "{tag}: pages");
    assert_eq!(run.events, want.events, "{tag}: events");
}

/// How a case draws its query pool.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Pool {
    /// Random extents per region.
    Random,
    /// All-distinct shapes, more of them than the plan cache holds.
    Thrash,
    /// 1-bucket regions: every plan row has one entry.
    Points,
    /// The whole grid, then random regions: the first row has an entry
    /// for every disk.
    WholeGrid,
}

#[derive(Clone, Debug)]
struct Case {
    /// Grid side per dimension (2-D or 3-D).
    sides: Vec<u32>,
    disks: u32,
    /// Seed of the random bucket-to-disk allocation.
    alloc_seed: u64,
    kind: Pool,
    pool: usize,
    place_seed: u64,
    /// Inter-arrival gaps, ms (zeros make tied arrivals).
    gaps: Vec<f64>,
    sampling: Option<f64>,
}

fn case() -> impl Strategy<Value = Case> {
    let grid = prop_oneof![
        // Small 2-D and 3-D grids with random extents.
        (
            prop::collection::vec(2u32..=9, 2..4),
            Just(Pool::Random),
            1usize..=40
        ),
        // Grids with at least 49 shapes and a pool of more distinct
        // shapes than the plan cache holds.
        (
            prop::collection::vec(7u32..=10, 2..3),
            Just(Pool::Thrash),
            (PlanCache::DEFAULT_CAPACITY + 1)..=48
        ),
        (
            prop::collection::vec(2u32..=9, 2..4),
            Just(Pool::Points),
            1usize..=40
        ),
        // At least 9 buckets, so every one of up to 9 disks holds one.
        (
            prop::collection::vec(3u32..=9, 2..4),
            Just(Pool::WholeGrid),
            1usize..=40
        ),
    ];
    (
        grid,
        2u32..=9,
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(prop_oneof![Just(0.0f64), 0.0f64..6.0], 0..61),
        prop_oneof![Just(None), (2.0f64..40.0).prop_map(Some)],
    )
        .prop_map(
            |((sides, kind, pool), disks, alloc_seed, place_seed, gaps, sampling)| Case {
                sides,
                disks,
                alloc_seed,
                kind,
                pool,
                place_seed,
                gaps,
                sampling,
            },
        )
}

/// The case's grid, its randomly allocated directory, and the pool. The
/// first `M` buckets in row-major order go to distinct disks (rotated
/// by the seed), so a grid of at least `M` buckets leaves no disk empty.
fn build(case: &Case) -> (GridDirectory, Vec<BucketRegion>) {
    let space = GridSpace::new(case.sides.clone()).expect("sides are positive");
    let disks = u64::from(case.disks);
    let dir = GridDirectory::build(space.clone(), case.disks, |b| {
        let coords = b.as_slice();
        let linear = coords
            .iter()
            .zip(&case.sides)
            .fold(0u64, |acc, (&x, &s)| acc * u64::from(s) + u64::from(x));
        let key = if linear < disks {
            linear + case.alloc_seed % disks
        } else {
            coords
                .iter()
                .fold(case.alloc_seed, |h, &x| splitmix64(h ^ u64::from(x)))
        };
        DiskId((key % disks) as u32)
    });
    let mut rng = StdRng::seed_from_u64(case.place_seed);
    let pool = (0..case.pool)
        .map(|i| {
            let extents: Vec<u32> = match case.kind {
                // Region i has shape (1 + i % s0, 1 + i / s0): all
                // distinct, since the pool is shorter than s0 * s1.
                Pool::Thrash => {
                    let s0 = case.sides[0] as usize;
                    vec![1 + (i % s0) as u32, 1 + (i / s0) as u32]
                }
                Pool::Points => vec![1; case.sides.len()],
                Pool::WholeGrid if i == 0 => case.sides.clone(),
                Pool::Random | Pool::WholeGrid => {
                    case.sides.iter().map(|&s| rng.gen_range(1..=s)).collect()
                }
            };
            random_region(&mut rng, &space, &extents).expect("extents fit the grid")
        })
        .collect();
    (dir, pool)
}

/// Deterministic pin of the plan-cache thrash regime: 40 distinct
/// shapes cycled round-robin overflow the 32-slot `PlanCache` on every
/// probe, over a stream 20 times longer than the pool. The serve still
/// matches the reference, and the shape-cache counters count one probe
/// per planned region — here all misses, since an LRU cache never hits
/// a cycle longer than itself.
#[test]
fn plan_cache_thrash_matches_reference() {
    let space = GridSpace::new_2d(32, 32).unwrap();
    let m = 8u32;
    let hcam = decluster::methods::Hcam::new(&space, m).unwrap();
    let dir = GridDirectory::build(space.clone(), m, |b| {
        decluster::methods::DeclusteringMethod::disk_of(&hcam, b.as_slice())
    });
    let engine = MultiUserEngine::new(&dir);
    let mut rng = StdRng::seed_from_u64(11);
    let pool: Vec<BucketRegion> = (0..200)
        .map(|i| {
            let shape = [1 + (i / 8) as u32 % 5, 1 + i as u32 % 8];
            random_region(&mut rng, &space, &shape).unwrap()
        })
        .collect();
    let arrivals: Vec<f64> = (0..4000).map(|i| f64::from(i) * 0.4).collect();
    let want = reference_serve(&dir, &DiskParams::default(), &pool, &arrivals);
    for spec in [
        ServeSpec::open(100.0),
        ServeSpec::open(100.0).sampling(32.0),
        ServeSpec::open(100.0).faults(FaultSchedule::healthy(m)),
    ] {
        let (run, cache) = serve(&spec, &engine, &pool, &arrivals);
        assert_matches(&run, &want, "thrash");
        assert_eq!(cache, (0, 200), "one miss per planned region");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn open_serve_matches_reference_simulator(case in case()) {
        let (dir, pool) = build(&case);
        let engine = MultiUserEngine::new(&dir);
        prop_assume!(engine.kernel_backed());
        let mut t = 0.0f64;
        let arrivals: Vec<f64> = case
            .gaps
            .iter()
            .map(|g| {
                t += g;
                t
            })
            .collect();
        if case.kind == Pool::WholeGrid {
            prop_assert!(dir.load_vector().iter().all(|&pages| pages > 0));
        }
        let want = reference_serve(&dir, &DiskParams::default(), &pool, &arrivals);
        let mut spec = ServeSpec::open(100.0);
        if let Some(every_ms) = case.sampling {
            spec = spec.sampling(every_ms);
        }
        // The fault router under a healthy schedule, with the default
        // replica policy and no admission cap, serves the same schedule.
        let faulted = spec.clone().faults(FaultSchedule::healthy(case.disks));
        for (spec, path) in [(spec, "plain"), (faulted, "faults")] {
            let (run, (hits, misses)) = serve(&spec, &engine, &pool, &arrivals);
            assert_matches(&run, &want, &format!("{path} {case:?}"));
            // The plan table probes the shape cache once per region the
            // run issues.
            prop_assert_eq!(hits + misses, pool.len().min(arrivals.len()) as u64);
        }
    }
}
