//! End-to-end equivalence tests for the kernel-backed multi-user engine:
//! closed and open runs of the serving loop behind `ServeSpec` must
//! produce bit-identical reports to independent reference loops that
//! materialize each query's I/O plan and read counts off its group
//! lengths — the pre-rewire data path. This pins the kernel and the
//! per-run plan table as pure data-path optimizations: same queueing,
//! same service model, same bytes. The closed fault router is checked
//! for the availability it promises.

use decluster::grid::{BucketRegion, GridDirectory, GridSpace, IoPlan};
use decluster::prelude::*;
use decluster::sim::workload::random_region;
use decluster::sim::{
    load_sweep, poisson_arrivals, DiskParams, LoopScratch, MultiUserEngine, ServeRun, ServeSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const M: u32 = 8;

fn directory() -> (GridSpace, GridDirectory) {
    let space = GridSpace::new_2d(32, 32).unwrap();
    let hcam = Hcam::new(&space, M).unwrap();
    let dir = GridDirectory::build(space.clone(), M, |b| hcam.disk_of(b.as_slice()));
    (space, dir)
}

/// A mixed-size query stream (areas 1..64) placed deterministically.
fn query_stream(space: &GridSpace, n: usize) -> Vec<BucketRegion> {
    let shapes: [[u32; 2]; 5] = [[1, 1], [2, 2], [2, 8], [4, 4], [8, 8]];
    let mut rng = StdRng::seed_from_u64(77);
    (0..n)
        .map(|i| random_region(&mut rng, space, &shapes[i % shapes.len()]).unwrap())
        .collect()
}

/// The pre-rewire closed loop: one materialized `IoPlan` per query,
/// per-disk counts taken as group lengths, identical queueing to the
/// engine. Returns `(makespan_ms, latencies)`.
fn reference_closed_loop(
    dir: &GridDirectory,
    params: &DiskParams,
    queries: &[BucketRegion],
    clients: usize,
) -> (f64, Vec<f64>) {
    let loads = dir.load_vector();
    let m = loads.len();
    let mut plan = IoPlan::new();
    let mut disk_free_at = vec![0.0f64; m];
    let mut clients_ready = vec![0.0f64; clients];
    let mut latencies = Vec::new();
    let mut makespan = 0.0f64;
    for region in queries {
        let (slot, _) = clients_ready
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let issue_at = clients_ready[slot];
        dir.io_plan_into(region, &mut plan);
        let mut completion = issue_at;
        for d in 0..m {
            let count = plan.disk_pages(d).len() as u64;
            if count == 0 {
                continue;
            }
            let start = issue_at.max(disk_free_at[d]);
            let service = params.batch_ms_counts(count, loads[d]);
            disk_free_at[d] = start + service;
            completion = completion.max(start + service);
        }
        latencies.push(completion - issue_at);
        makespan = makespan.max(completion);
        clients_ready[slot] = completion;
    }
    (makespan, latencies)
}

#[test]
fn closed_loop_is_bit_identical_to_materialized_plan_loop() {
    let (space, dir) = directory();
    let params = DiskParams::default();
    let queries = query_stream(&space, 300);
    for clients in [1, 3, 8] {
        let (ref_makespan, ref_latencies) = reference_closed_loop(&dir, &params, &queries, clients);
        let report = ServeSpec::closed(clients)
            .run_on(&dir, &params, &queries)
            .unwrap()
            .report;
        assert_eq!(
            report.makespan_ms.to_bits(),
            ref_makespan.to_bits(),
            "makespan differs at {clients} clients"
        );
        let ref_mean = ref_latencies.iter().sum::<f64>() / ref_latencies.len() as f64;
        assert_eq!(
            report.latency.mean.to_bits(),
            ref_mean.to_bits(),
            "mean latency differs at {clients} clients"
        );
        let ref_qps = queries.len() as f64 / (ref_makespan / 1000.0);
        assert_eq!(report.throughput_qps.to_bits(), ref_qps.to_bits());
    }
}

/// The pre-rewire open loop: arrival `i` issues `queries[i % L]` at
/// `arrivals[i]` through a materialized `IoPlan`, FCFS per disk.
/// Returns `(makespan_ms, latencies, total disk busy ms)`.
fn reference_open_loop(
    dir: &GridDirectory,
    params: &DiskParams,
    queries: &[BucketRegion],
    arrivals: &[f64],
) -> (f64, Vec<f64>, f64) {
    let loads = dir.load_vector();
    let m = loads.len();
    let mut plan = IoPlan::new();
    let mut disk_free_at = vec![0.0f64; m];
    let mut disk_busy = vec![0.0f64; m];
    let mut latencies = Vec::with_capacity(arrivals.len());
    let mut makespan = 0.0f64;
    for (i, &issue_at) in arrivals.iter().enumerate() {
        dir.io_plan_into(&queries[i % queries.len()], &mut plan);
        let mut completion = issue_at;
        for d in 0..m {
            let count = plan.disk_pages(d).len() as u64;
            if count == 0 {
                continue;
            }
            let start = issue_at.max(disk_free_at[d]);
            let service = params.batch_ms_counts(count, loads[d]);
            disk_free_at[d] = start + service;
            disk_busy[d] += service;
            completion = completion.max(start + service);
        }
        latencies.push(completion - issue_at);
        makespan = makespan.max(completion);
    }
    (makespan, latencies, disk_busy.iter().sum())
}

/// One open-loop `ServeSpec` run with observability off.
fn open_run(
    engine: &MultiUserEngine,
    params: &DiskParams,
    queries: &[BucketRegion],
    arrivals: &[f64],
    spec: ServeSpec,
) -> ServeRun {
    spec.run_with_arrivals(
        engine,
        params,
        queries,
        arrivals,
        &decluster::obs::Obs::disabled(),
        &mut LoopScratch::new(),
    )
    .expect("sorted arrivals over a non-empty pool")
}

#[test]
fn open_loop_is_bit_identical_to_materialized_plan_loop() {
    let (space, dir) = directory();
    let params = DiskParams::default();
    let queries = query_stream(&space, 200);
    let mut rng = StdRng::seed_from_u64(5);
    let arrivals = poisson_arrivals(&mut rng, queries.len(), 80.0);
    let (makespan, latencies, _) = reference_open_loop(&dir, &params, &queries, &arrivals);
    let engine = MultiUserEngine::new(&dir);
    let report = open_run(&engine, &params, &queries, &arrivals, ServeSpec::open(80.0)).report;
    assert_eq!(report.makespan_ms.to_bits(), makespan.to_bits());
    let ref_mean = latencies.iter().sum::<f64>() / queries.len() as f64;
    assert_eq!(report.latency.mean.to_bits(), ref_mean.to_bits());
}

#[test]
fn engine_scratch_reuse_across_workloads_changes_nothing() {
    let (space, dir) = directory();
    let params = DiskParams::default();
    let engine = MultiUserEngine::new(&dir);
    assert!(engine.kernel_backed());
    let obs = decluster::obs::Obs::disabled();
    let big = query_stream(&space, 400);
    let small = query_stream(&space, 50);
    // One scratch serving runs of different sizes, interleaved, must
    // reproduce fresh-scratch results bit for bit.
    let mut shared = LoopScratch::new();
    let closed = |queries: &[BucketRegion], clients, ls: &mut LoopScratch| {
        ServeSpec::closed(clients)
            .run(&engine, &params, queries, &obs, ls)
            .expect("clients are positive")
            .report
    };
    let _warm = closed(&big, 8, &mut shared);
    let small_shared = closed(&small, 2, &mut shared);
    let big_shared = closed(&big, 8, &mut shared);
    let small_fresh = closed(&small, 2, &mut LoopScratch::new());
    let big_fresh = closed(&big, 8, &mut LoopScratch::new());
    assert_eq!(
        small_shared.makespan_ms.to_bits(),
        small_fresh.makespan_ms.to_bits()
    );
    assert_eq!(
        small_shared.latency.mean.to_bits(),
        small_fresh.latency.mean.to_bits()
    );
    assert_eq!(
        big_shared.makespan_ms.to_bits(),
        big_fresh.makespan_ms.to_bits()
    );
    assert_eq!(
        big_shared.latency.mean.to_bits(),
        big_fresh.latency.mean.to_bits()
    );
}

#[test]
fn load_sweep_matches_individual_open_loop_runs() {
    let (space, dir) = directory();
    let params = DiskParams::default();
    let queries = query_stream(&space, 120);
    let rates = [20.0, 150.0];
    let points = load_sweep(&[("HCAM", &dir)], &params, &queries, &rates, 9, 1).unwrap();
    assert_eq!(points.len(), 2);
    let engine = MultiUserEngine::new(&dir);
    for (point, &rate) in points.iter().zip(&rates) {
        let mut rng = StdRng::seed_from_u64(9);
        let arrivals = poisson_arrivals(&mut rng, queries.len(), rate);
        let solo = open_run(&engine, &params, &queries, &arrivals, ServeSpec::open(rate)).report;
        assert_eq!(point.methods.len(), 1);
        assert_eq!(point.methods[0].name, "HCAM");
        assert_eq!(
            point.methods[0].mean_latency_ms.to_bits(),
            solo.latency.mean.to_bits()
        );
        assert_eq!(
            point.methods[0].utilization.to_bits(),
            solo.utilization.to_bits()
        );
        assert_eq!(point.methods[0].tail_ms, solo.tail);
    }
}

/// Closed clients through the fault router: with one chained replica
/// and failover routing, a disk that fail-stops mid-run (on the
/// millisecond clock) costs response time, not queries — every query is
/// served, the dead disk's batches fail over along the chain, and each
/// failover pays the detection timeout.
#[test]
fn closed_fault_router_fails_over_through_a_fail_stop() {
    use decluster::sim::faults::{FaultSchedule, ReplicaPolicy};
    let (space, dir) = directory();
    let params = DiskParams::default();
    let queries = query_stream(&space, 250);
    let clients = 4;
    let healthy = ServeSpec::closed(clients)
        .run_on(&dir, &params, &queries)
        .unwrap();
    let fail_at = (healthy.report.makespan_ms / 3.0) as u64;
    let run = ServeSpec::closed(clients)
        .replicas(1)
        .policy(ReplicaPolicy::FailoverOnly)
        .faults(FaultSchedule::healthy(M).fail_stop(2, fail_at).unwrap())
        .run_on(&dir, &params, &queries)
        .unwrap();
    let avail = run.availability.expect("fault runs report availability");
    assert_eq!(avail.served, queries.len() as u64);
    assert_eq!((avail.lost, avail.shed, avail.retries), (0, 0, 0));
    assert!(avail.failovers > 0, "disk 2's batches move to disk 3");
    assert_eq!(
        avail.timeouts, avail.failovers,
        "one dead copy per failover"
    );
    assert_eq!(avail.transitions, 1);
    assert_eq!(run.report.queries, queries.len());
    assert!(run.report.makespan_ms >= healthy.report.makespan_ms);
    assert_eq!(run.peak_in_flight, clients);
}

/// The serve loop over an arrival stream three times longer than its
/// query pool is the open loop replaying the pool round-robin, expressed
/// as events: identical service model at issue time, so the aggregate
/// report must match the materialized-plan open loop bit for bit.
#[test]
fn serve_report_is_bit_identical_to_open_loop() {
    use decluster::sim::workload::InterArrival;
    use decluster::sim::{sharded_arrivals, Quantiles};
    let (space, dir) = directory();
    let params = DiskParams::default();
    let queries = query_stream(&space, 240);
    let obs = decluster::obs::Obs::disabled();
    let n = 3 * queries.len();
    let arrivals = sharded_arrivals(11, n, InterArrival::Poisson { rate_qps: 60.0 }, 1, &obs);
    let engine = MultiUserEngine::new(&dir);
    let mut ls = LoopScratch::new();
    // Sampling on: mid-run snapshots must not perturb the report.
    let serve = ServeSpec::open(60.0)
        .sampling(500.0)
        .run_with_arrivals(&engine, &params, &queries, &arrivals, &obs, &mut ls)
        .unwrap();
    let (makespan, mut latencies, busy) = reference_open_loop(&dir, &params, &queries, &arrivals);
    assert_eq!(serve.report.makespan_ms.to_bits(), makespan.to_bits());
    let ref_mean = latencies.iter().sum::<f64>() / n as f64;
    assert_eq!(serve.report.latency.mean.to_bits(), ref_mean.to_bits());
    assert_eq!(serve.report.tail, Quantiles::of_unsorted(&mut latencies));
    let ref_utilization = busy / (makespan * f64::from(M));
    assert_eq!(
        serve.report.utilization.to_bits(),
        ref_utilization.to_bits()
    );
    assert_eq!(serve.events, 2 * n as u64);
    assert!(serve.peak_in_flight >= 1);
    assert!(!ls.samples().is_empty());
}
