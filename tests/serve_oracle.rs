//! Oracle tests of the serving loop: every `ServeSpec` source, router
//! and batcher must equal, bit for bit, a reference simulator written
//! only for clarity — no event heap, no plan table, no cross-query plan
//! cache.
//!
//! * Open arrivals, plain and through the fault router under a healthy
//!   schedule: the reference walks the arrivals in order, takes each
//!   one's per-disk page counts from the group lengths of its
//!   `GridDirectory::io_plan_into` plan (no kernel and no table walk),
//!   and fans it out FCFS over per-disk queues.
//! * Closed clients, plain and through the fault router: the reference
//!   tracks each client's ready time, hands the next query to the
//!   earliest-ready client (ties broken by issue order), and plans and
//!   fans it out the same way.
//! * The shared-scan window, unreplicated, spread over one replica, and
//!   routed whole to the copy whose queue frees first: the reference
//!   groups arrivals into windows by time alone, merges each window's
//!   pages per disk through a `BTreeSet` of page positions looked up
//!   bucket by bucket, and costs each disk's merged count FCFS at the
//!   flush.
//!
//! Cases cover small random 2-D to 4-D grids and allocations, so pools
//! hold regions the serving loop walks (at most `2^k` buckets) and
//! regions it counts through the kernel; query pools shorter and longer
//! than the arrival stream, pools with more distinct shapes than the
//! `PlanCache` holds, pools of 1-bucket regions (one-entry plan rows),
//! pools led by the whole grid (an entry for every disk), tied arrival
//! times, and sampling on and off.

use decluster::grid::{BucketRegion, DiskId, GridDirectory, GridSpace, IoPlan};
use decluster::methods::{splitmix64, PlanCache};
use decluster::obs::{MetricsRecorder, Obs};
use decluster::sim::workload::random_region;
use decluster::sim::{
    DiskParams, FaultSchedule, LoopScratch, MultiUserEngine, ReplicaPolicy, ServeRun, ServeSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
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

/// The report figures of a finished reference run. Latencies are in
/// issue order, so their sum adds the same floats in the same order as
/// the serving report's mean.
fn summarize(
    mut latencies: Vec<f64>,
    busy: &[f64],
    makespan: f64,
    pages: u64,
    events: u64,
) -> Reference {
    let n = latencies.len();
    let mean = if n == 0 {
        0.0
    } else {
        latencies.iter().sum::<f64>() / n as f64
    };
    let utilization = if makespan > 0.0 {
        busy.iter().sum::<f64>() / (makespan * busy.len() as f64)
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
        events,
    }
}

/// Queues `service` ms on disk `d` at time `at` behind its earlier
/// batches; returns the batch's end.
fn fcfs(d: usize, at: f64, service: f64, free_at: &mut [f64], busy: &mut [f64]) -> f64 {
    let start = at.max(free_at[d]);
    free_at[d] = start + service;
    busy[d] += service;
    start + service
}

/// Plans `region` from scratch through the directory's page lists and
/// queues one batch per touched disk at `at`; returns the query's pages
/// and its completion.
#[allow(clippy::too_many_arguments)]
fn plan_and_fan_out(
    dir: &GridDirectory,
    loads: &[u64],
    params: &DiskParams,
    region: &BucketRegion,
    at: f64,
    plan: &mut IoPlan,
    free_at: &mut [f64],
    busy: &mut [f64],
) -> (u64, f64) {
    dir.io_plan_into(region, plan);
    let mut done = at;
    for (d, pages) in plan.iter().enumerate() {
        let count = pages.len() as u64;
        if count > 0 {
            let service = params.batch_ms_counts(count, loads[d]);
            done = done.max(fcfs(d, at, service, free_at, busy));
        }
    }
    (plan.total_pages() as u64, done)
}

/// How many of `planned` the serving loop counts through the kernel,
/// and so probes the shape cache for: those of more than `2^k` buckets.
/// Smaller regions are walked in the allocation table.
fn kernel_planned(planned: &[BucketRegion]) -> u64 {
    planned
        .iter()
        .filter(|r| r.num_buckets() > 1 << r.dims())
        .count() as u64
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
    let loads = dir.load_vector();
    let m = loads.len();
    let mut plan = IoPlan::new();
    let (mut free_at, mut busy) = (vec![0.0f64; m], vec![0.0f64; m]);
    let mut latencies = Vec::with_capacity(arrivals.len());
    let (mut makespan, mut pages) = (0.0f64, 0u64);
    for (i, &at) in arrivals.iter().enumerate() {
        let region = &pool[i % pool.len()];
        let (p, done) = plan_and_fan_out(
            dir,
            &loads,
            params,
            region,
            at,
            &mut plan,
            &mut free_at,
            &mut busy,
        );
        pages += p;
        latencies.push(done - at);
        makespan = makespan.max(done);
    }
    // One arrival and one completion per request.
    let events = 2 * arrivals.len() as u64;
    summarize(latencies, &busy, makespan, pages, events)
}

/// Serves `pool` once, in order, with `clients` closed clients: each
/// query goes to the client that is ready earliest, ties broken by the
/// order in which the clients became ready (every client at time 0 in
/// client order, then each in the order of the issue that freed it),
/// and that client is ready again when the query completes.
fn reference_closed(
    dir: &GridDirectory,
    params: &DiskParams,
    pool: &[BucketRegion],
    clients: usize,
) -> Reference {
    let loads = dir.load_vector();
    let m = loads.len();
    let mut plan = IoPlan::new();
    let (mut free_at, mut busy) = (vec![0.0f64; m], vec![0.0f64; m]);
    // (ready time, tie key) per client.
    let mut ready: Vec<(f64, usize)> = (0..clients).map(|k| (0.0, k)).collect();
    let mut latencies = Vec::with_capacity(pool.len());
    let (mut makespan, mut pages) = (0.0f64, 0u64);
    for (i, region) in pool.iter().enumerate() {
        let slot = (0..clients)
            .min_by(|&a, &b| {
                let (ta, ka) = ready[a];
                let (tb, kb) = ready[b];
                ta.total_cmp(&tb).then(ka.cmp(&kb))
            })
            .expect("at least one client");
        let at = ready[slot].0;
        let (p, done) = plan_and_fan_out(
            dir,
            &loads,
            params,
            region,
            at,
            &mut plan,
            &mut free_at,
            &mut busy,
        );
        pages += p;
        latencies.push(done - at);
        makespan = makespan.max(done);
        ready[slot] = (done, clients + i);
    }
    // One ready event per client and one completion per query.
    let events = (clients + pool.len()) as u64;
    summarize(latencies, &busy, makespan, pages, events)
}

/// The shared-scan accounting a reference window run produces.
#[derive(Debug, PartialEq)]
struct Sharing {
    windows: u64,
    merged_queries: u64,
    pages_saved: u64,
}

/// Serves `arrivals` through shared-scan windows of `window_ms`: the
/// first arrival opens a window, every arrival before `open +
/// window_ms` joins it, and one at exactly `open + window_ms` opens the
/// next. At the flush each disk's distinct member pages (looked up
/// bucket by bucket into a `BTreeSet`) are read FCFS, split evenly over
/// the primary and its `replicas` chain successors, in disk order then
/// copy order; every member completes with the window.
fn reference_shared(
    dir: &GridDirectory,
    params: &DiskParams,
    pool: &[BucketRegion],
    arrivals: &[f64],
    window_ms: f64,
    replicas: usize,
) -> (Reference, Sharing) {
    let spread = ReplicaPolicy::Spread;
    reference_shared_routed(dir, params, pool, arrivals, window_ms, replicas, spread)
}

/// [`reference_shared`] under any policy: `Spread` splits each disk's
/// pages over its chain, and `NearestFreeQueue` reads them all from the
/// chain copy whose queue frees first (ties to the lower chain
/// position), as queued by the disks before it in this flush.
fn reference_shared_routed(
    dir: &GridDirectory,
    params: &DiskParams,
    pool: &[BucketRegion],
    arrivals: &[f64],
    window_ms: f64,
    replicas: usize,
    policy: ReplicaPolicy,
) -> (Reference, Sharing) {
    let loads = dir.load_vector();
    let m = loads.len();
    let copies = replicas as u64 + 1;
    let (mut free_at, mut busy) = (vec![0.0f64; m], vec![0.0f64; m]);
    let mut latencies = Vec::with_capacity(arrivals.len());
    let (mut makespan, mut pages) = (0.0f64, 0u64);
    let mut sharing = Sharing {
        windows: 0,
        merged_queries: 0,
        pages_saved: 0,
    };
    let mut first = 0;
    while first < arrivals.len() {
        let flush = arrivals[first] + window_ms;
        let end = (first..arrivals.len())
            .find(|&i| arrivals[i] >= flush)
            .unwrap_or(arrivals.len());
        let mut merged = vec![BTreeSet::new(); m];
        let mut own = 0u64;
        for i in first..end {
            for bucket in pool[i % pool.len()].iter() {
                let at = dir.lookup(&bucket).expect("regions lie in the grid");
                merged[at.disk.0 as usize].insert(at.page);
                own += 1;
            }
        }
        let fresh: u64 = merged.iter().map(|pages| pages.len() as u64).sum();
        pages += fresh;
        sharing.pages_saved += own - fresh;
        sharing.windows += 1;
        if end - first > 1 {
            sharing.merged_queries += (end - first) as u64;
        }
        let mut done = flush;
        for (d, disk_pages) in merged.iter().enumerate() {
            let count = disk_pages.len() as u64;
            if policy == ReplicaPolicy::NearestFreeQueue && count > 0 {
                let s = (0..=replicas)
                    .map(|j| (d + j) % m)
                    .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                    .expect("a chain has a primary");
                let service = params.batch_ms_counts(count, loads[s]);
                done = done.max(fcfs(s, flush, service, &mut free_at, &mut busy));
                continue;
            }
            for j in 0..copies {
                let share = count / copies + u64::from(j < count % copies);
                if share > 0 {
                    let s = (d + j as usize) % m;
                    let service = params.batch_ms_counts(share, loads[s]);
                    done = done.max(fcfs(s, flush, service, &mut free_at, &mut busy));
                }
            }
        }
        latencies.extend(arrivals[first..end].iter().map(|&at| done - at));
        makespan = makespan.max(done);
        first = end;
    }
    // One arrival and one completion per request, one flush per window.
    let events = 2 * arrivals.len() as u64 + sharing.windows;
    (
        summarize(latencies, &busy, makespan, pages, events),
        sharing,
    )
}

/// Runs the spec with a live metrics recorder (over `arrivals` when it
/// is open, over `pool` once when it is closed); returns the run and the
/// shape-cache `(hits, misses)` counters.
fn serve(
    spec: &ServeSpec,
    engine: &MultiUserEngine,
    pool: &[BucketRegion],
    arrivals: Option<&[f64]>,
) -> (ServeRun, (u64, u64)) {
    let rec = Arc::new(MetricsRecorder::new());
    let (params, obs, mut ls) = (
        DiskParams::default(),
        Obs::new(rec.clone()),
        LoopScratch::new(),
    );
    let run = match arrivals {
        Some(arrivals) => spec.run_with_arrivals(engine, &params, pool, arrivals, &obs, &mut ls),
        None => spec.run(engine, &params, pool, &obs, &mut ls),
    }
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
    /// Grid side per dimension (2-D to 4-D).
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
        // Small 4-D grids: regions of 1 to 16 buckets are walked, and
        // larger ones go through the kernel.
        (
            prop::collection::vec(2u32..=4, 4..5),
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
/// shapes of 6 to 60 buckets, so every region goes through the kernel,
/// cycled round-robin overflow the 32-slot `PlanCache` on every probe,
/// over a stream 20 times longer than the pool. The serve still matches
/// the reference, and the shape-cache counters count one probe per
/// planned region — here all misses, since an LRU cache never hits a
/// cycle longer than itself.
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
            let shape = [2 + (i / 8) as u32 % 5, 3 + i as u32 % 8];
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
        let (run, cache) = serve(&spec, &engine, &pool, Some(&arrivals));
        assert_matches(&run, &want, "thrash");
        assert_eq!(kernel_planned(&pool), 200);
        assert_eq!(cache, (0, 200), "one miss per planned region");
    }
}

/// Deterministic pin of the window boundary: with arrivals on a 1 ms
/// grid and integer windows, arrivals land exactly at `open + w`, where
/// each opens the next window instead of joining the closing one.
#[test]
fn shared_window_boundary_opens_the_next_window() {
    let space = GridSpace::new_2d(16, 16).unwrap();
    let m = 4u32;
    let hcam = decluster::methods::Hcam::new(&space, m).unwrap();
    let dir = GridDirectory::build(space.clone(), m, |b| {
        decluster::methods::DeclusteringMethod::disk_of(&hcam, b.as_slice())
    });
    let engine = MultiUserEngine::new(&dir);
    let mut rng = StdRng::seed_from_u64(5);
    let pool: Vec<BucketRegion> = (0..6)
        .map(|_| random_region(&mut rng, &space, &[3, 3]).unwrap())
        .collect();
    let arrivals: Vec<f64> = (0..40).map(f64::from).collect();
    for window_ms in [1.0, 2.0, 3.0] {
        for replicas in [0, 1] {
            let (want, sharing) = reference_shared(
                &dir,
                &DiskParams::default(),
                &pool,
                &arrivals,
                window_ms,
                replicas,
            );
            assert_eq!(sharing.windows, (40.0 / window_ms).ceil() as u64);
            let spec = ServeSpec::open(100.0)
                .share(window_ms)
                .replicas(replicas as u32)
                .policy(ReplicaPolicy::Spread);
            let (run, _) = serve(&spec, &engine, &pool, Some(&arrivals));
            assert_matches(&run, &want, &format!("w={window_ms} r={replicas}"));
            assert_eq!(run.sharing.unwrap().windows, sharing.windows);
        }
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
            let (run, (hits, misses)) = serve(&spec, &engine, &pool, Some(&arrivals));
            assert_eq!(run.report.queries, arrivals.len(), "{path}: queries");
            assert_matches(&run, &want, &format!("{path} {case:?}"));
            // The plan table probes the shape cache once per region the
            // run issues and counts through the kernel.
            let planned = &pool[..pool.len().min(arrivals.len())];
            prop_assert_eq!(hits + misses, kernel_planned(planned));
        }
    }

    #[test]
    fn closed_serve_matches_reference_simulator(case in case()) {
        let (dir, pool) = build(&case);
        let engine = MultiUserEngine::new(&dir);
        prop_assume!(engine.kernel_backed());
        for clients in [1, 2, 7, pool.len() + 3] {
            let want = reference_closed(&dir, &DiskParams::default(), &pool, clients);
            let mut spec = ServeSpec::closed(clients);
            if let Some(every_ms) = case.sampling {
                spec = spec.sampling(every_ms);
            }
            // The fault router under a healthy schedule serves the same
            // schedule for closed clients too.
            let faulted = spec.clone().faults(FaultSchedule::healthy(case.disks));
            for (spec, path) in [(spec, "closed"), (faulted, "closed faults")] {
                let (run, (hits, misses)) = serve(&spec, &engine, &pool, None);
                let tag = format!("{path} c={clients} {case:?}");
                prop_assert_eq!(run.report.queries, pool.len(), "{}", tag);
                assert_matches(&run, &want, &tag);
                prop_assert_eq!(run.peak_in_flight, clients.min(pool.len()));
                // A closed run plans each query once, in issue order,
                // and probes the shape cache for those of more than 2^k
                // buckets.
                prop_assert_eq!(hits + misses, kernel_planned(&pool));
            }
        }
    }

    #[test]
    fn shared_window_matches_reference_simulator(case in case(), window_ms in 0.5f64..20.0) {
        let (dir, pool) = build(&case);
        let engine = MultiUserEngine::new(&dir);
        let mut t = 0.0f64;
        let arrivals: Vec<f64> = case
            .gaps
            .iter()
            .map(|g| {
                t += g;
                t
            })
            .collect();
        let cases = [
            (0, ReplicaPolicy::Spread),
            (1, ReplicaPolicy::Spread),
            (1, ReplicaPolicy::NearestFreeQueue),
        ];
        for (replicas, policy) in cases {
            let (want, sharing) = reference_shared_routed(
                &dir,
                &DiskParams::default(),
                &pool,
                &arrivals,
                window_ms,
                replicas,
                policy,
            );
            let mut spec = ServeSpec::open(100.0)
                .share(window_ms)
                .replicas(replicas as u32)
                .policy(policy);
            if let Some(every_ms) = case.sampling {
                spec = spec.sampling(every_ms);
            }
            let (run, cache) = serve(&spec, &engine, &pool, Some(&arrivals));
            let tag = format!("r={replicas} {policy:?} w={window_ms} {case:?}");
            prop_assert_eq!(run.report.queries, arrivals.len(), "{}", tag);
            assert_matches(&run, &want, &tag);
            let got = run.sharing.expect("shared runs report sharing");
            prop_assert_eq!(
                Sharing {
                    windows: got.windows,
                    merged_queries: got.merged_queries,
                    pages_saved: got.pages_saved,
                },
                sharing
            );
            // The window merges page lists; it plans no count rows.
            prop_assert_eq!(cache, (0, 0));
        }
    }
}
