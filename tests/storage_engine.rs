//! Integration tests for the storage layer: the declustered file,
//! allocation persistence, and the multi-user simulator working together.

use decluster::grid::GridDirectory;
use decluster::prelude::*;
use decluster::sim::workload::WorkloadMix;
use decluster::sim::{poisson_arrivals, DiskParams, LoopScratch, MultiUserEngine, ServeSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn int_schema(d: u32) -> GridSchema {
    GridSchema::uniform(
        vec![
            AttributeDomain::int("x", 0, 9_999),
            AttributeDomain::int("y", 0, 9_999),
        ],
        d,
    )
    .expect("schema builds")
}

/// Persistence: an allocation saved and reloaded drives identical scans.
#[test]
fn persisted_allocation_reproduces_response_times() {
    let schema = int_schema(16);
    let space = schema.space().clone();
    let fx = FieldwiseXor::new(&space, 8).expect("fx builds");
    let map = AllocationMap::from_method(&space, &fx).expect("materializes");
    let restored = AllocationMap::from_bytes(&map.to_bytes()).expect("roundtrips");

    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..100 {
        let region =
            decluster::sim::workload::random_region(&mut rng, &space, &[3, 5]).expect("fits");
        assert_eq!(map.response_time(&region), restored.response_time(&region));
    }
}

/// In the latency-bound regime (one client), the closed loop ranks
/// methods like the single-query bucket metric: the best spreader has the
/// highest throughput. (Under saturation the ranking can flip — seek
/// locality starts to matter — which the multiuser example demonstrates.)
#[test]
fn closed_loop_ranking_tracks_bucket_metric() {
    let space = GridSpace::new_2d(32, 32).expect("grid");
    let m = 8;
    let mut rng = StdRng::seed_from_u64(23);
    let queries: Vec<BucketRegion> = (0..150)
        .map(|_| decluster::sim::workload::random_region(&mut rng, &space, &[2, 2]).expect("fits"))
        .collect();
    let params = DiskParams::default();
    let registry = MethodRegistry::default();

    let mut results: Vec<(String, f64, u64)> = Vec::new();
    for method in registry.paper_methods(&space, m) {
        let dir = GridDirectory::build(space.clone(), m, |b| method.disk_of(b.as_slice()));
        let run = ServeSpec::closed(1)
            .run_on(&dir, &params, &queries)
            .expect("the closed spec is valid");
        let buckets: u64 = queries.iter().map(|q| response_time(&method, q)).sum();
        results.push((method.name().to_owned(), run.report.throughput_qps, buckets));
    }
    // Latency-bound: the best bucket-metric method has the best
    // throughput, the worst the worst.
    let best_buckets = results
        .iter()
        .min_by_key(|r| r.2)
        .expect("non-empty")
        .clone();
    let worst_buckets = results
        .iter()
        .max_by_key(|r| r.2)
        .expect("non-empty")
        .clone();
    assert!(
        best_buckets.1 > worst_buckets.1,
        "bucket-best {best_buckets:?} should out-throughput bucket-worst {worst_buckets:?}: {results:?}"
    );
}

/// Open-loop: higher arrival rates raise latency, never lower it.
#[test]
fn open_loop_latency_is_monotone_in_load() {
    let space = GridSpace::new_2d(16, 16).expect("grid");
    let hcam = Hcam::new(&space, 4).expect("hcam builds");
    let dir = GridDirectory::build(space.clone(), 4, |b| hcam.disk_of(b.as_slice()));
    let params = DiskParams::default();
    let mut rng = StdRng::seed_from_u64(3);
    let queries: Vec<BucketRegion> = (0..200)
        .map(|_| decluster::sim::workload::random_region(&mut rng, &space, &[2, 2]).expect("fits"))
        .collect();

    let engine = MultiUserEngine::new(&dir);
    let obs = decluster::obs::Obs::disabled();
    let mut last = 0.0f64;
    for rate in [1.0, 10.0, 100.0] {
        let mut arr_rng = StdRng::seed_from_u64(99);
        let arrivals = poisson_arrivals(&mut arr_rng, queries.len(), rate);
        let report = ServeSpec::open(rate)
            .run_with_arrivals(
                &engine,
                &params,
                &queries,
                &arrivals,
                &obs,
                &mut LoopScratch::new(),
            )
            .expect("sorted arrivals over a non-empty pool")
            .report;
        assert!(
            report.latency.mean + 1e-9 >= last,
            "latency fell from {last} at rate {rate}"
        );
        last = report.latency.mean;
    }
}

/// The workload mix feeds the advisor end to end.
#[test]
fn advisor_handles_mixed_workloads() {
    let space = GridSpace::new_2d(32, 32).expect("grid");
    let mut rng = StdRng::seed_from_u64(12);
    let mix = WorkloadMix::default();
    let sample = mix.generate(&mut rng, &space, 300).expect("generates");
    let advice = decluster::methods::advise(&space, 16, &sample).expect("advises");
    assert_eq!(advice.ranking.len(), 4);
    // Whatever wins must genuinely have the lowest mean.
    for (_, rt) in &advice.ranking {
        assert!(*rt >= advice.ranking[0].1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DeclusteredFile scans agree with a naive filter over the records,
    /// for arbitrary data and queries.
    #[test]
    fn declustered_file_scan_matches_naive_filter(
        points in proptest::collection::vec((0i64..10_000, 0i64..10_000), 1..120),
        (qx0, qx1, qy0, qy1) in (0i64..10_000, 0i64..10_000, 0i64..10_000, 0i64..10_000),
    ) {
        let mut file = DeclusteredFile::create(int_schema(8), MethodKind::Fx, 4)
            .expect("file builds");
        for &(x, y) in &points {
            file.insert(Record::new(vec![Value::Int(x), Value::Int(y)])).expect("in domain");
        }
        let (xl, xh) = (qx0.min(qx1), qx0.max(qx1));
        let (yl, yh) = (qy0.min(qy1), qy0.max(qy1));
        let q = ValueRangeQuery::new(vec![
            Some((Value::Int(xl), Value::Int(xh))),
            Some((Value::Int(yl), Value::Int(yh))),
        ]).expect("query builds");
        let got = file.scan(&q).expect("scans").records.len();
        let expected = points
            .iter()
            .filter(|&&(x, y)| xl <= x && x <= xh && yl <= y && y <= yh)
            .count();
        prop_assert_eq!(got, expected);
    }
}
