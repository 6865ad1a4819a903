//! Fault-injection benchmarks: what degraded-mode evaluation costs on
//! top of the healthy paths it wraps.
//!
//! * **Masked vs plain kernel RT** — the degraded kernel query is the
//!   same `O(M · 2^k)` corner walk plus a live-mask filter; the gap is
//!   the whole per-query price of fault awareness.
//! * **Degraded outcome scoring** — `degraded_outcome` over a healthy,
//!   a failed, and a slow-disk schedule, against the plain RT lookup.
//! * **Rebuild simulation** — the closed-loop replica replay behind the
//!   `repro faults` interference numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use decluster_grid::{BucketRegion, GridDirectory, GridSpace};
use decluster_methods::{AllocationMap, DeclusteringMethod, DiskModulo, Hcam};
use decluster_obs::Obs;
use decluster_sim::workload::random_region;
use decluster_sim::{
    degraded_outcome, simulate_rebuild, DiskParams, FaultSchedule, ReplicaPolicy, RetryPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const SEED: u64 = 1994;

fn sample_regions(space: &GridSpace, sides: &[u32], n: usize) -> Vec<BucketRegion> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..n)
        .map(|_| random_region(&mut rng, space, sides).expect("shape fits"))
        .collect()
}

fn bench_masked_vs_plain_rt(c: &mut Criterion) {
    let space = GridSpace::new_2d(64, 64).expect("grid");
    let m = 16u32;
    let map = AllocationMap::from_method(&space, &Hcam::new(&space, m).expect("hcam"))
        .expect("materializes");
    let kernel = map.disk_counts().expect("kernel fits");
    let regions = sample_regions(&space, &[8, 8], 512);
    let mut live = vec![true; m as usize];
    live[3] = false;

    let mut group = c.benchmark_group("faults_kernel_rt_512q");
    group.bench_function("plain", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for r in &regions {
                total += kernel.response_time(black_box(r));
            }
            black_box(total)
        })
    });
    group.bench_function("masked", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for r in &regions {
                total += kernel.masked_response_time(black_box(r), &live);
            }
            black_box(total)
        })
    });
    group.finish();
}

fn bench_degraded_outcome(c: &mut Criterion) {
    let space = GridSpace::new_2d(64, 64).expect("grid");
    let m = 16u32;
    let map = AllocationMap::from_method(&space, &Hcam::new(&space, m).expect("hcam"))
        .expect("materializes");
    let kernel = map.disk_counts().expect("kernel fits");
    let regions = sample_regions(&space, &[8, 8], 512);
    let hists: Vec<Vec<u64>> = regions.iter().map(|r| kernel.access_histogram(r)).collect();
    let policy = RetryPolicy::default();
    let schedules = [
        ("healthy", FaultSchedule::healthy(m)),
        (
            "one_failed",
            FaultSchedule::healthy(m).fail_stop(3, 0).expect("valid"),
        ),
        (
            "one_slow",
            FaultSchedule::healthy(m)
                .slow(3, 4.0, 0, u64::MAX)
                .expect("valid"),
        ),
    ];
    let mut group = c.benchmark_group("faults_degraded_outcome_512q");
    for (label, schedule) in &schedules {
        group.bench_with_input(BenchmarkId::from_parameter(label), schedule, |b, s| {
            let mut loads = Vec::new();
            b.iter(|| {
                let mut served = 0usize;
                for (t, hist) in hists.iter().enumerate() {
                    let out = degraded_outcome(
                        black_box(hist),
                        s,
                        t as u64,
                        &policy,
                        1,
                        ReplicaPolicy::FailoverOnly,
                        &mut loads,
                    );
                    served += usize::from(out.is_served());
                }
                black_box(served)
            })
        });
    }
    group.finish();
}

fn bench_rebuild_simulation(c: &mut Criterion) {
    let space = GridSpace::new_2d(32, 32).expect("grid");
    let m = 8u32;
    let method = DiskModulo::new(&space, m).expect("dm");
    let dir = GridDirectory::build(space.clone(), m, |b| method.disk_of(b.as_slice()));
    let regions = sample_regions(&space, &[4, 4], 64);
    let params = DiskParams::default();
    c.bench_function("faults_rebuild_64q_8clients", |b| {
        b.iter(|| {
            black_box(
                simulate_rebuild(&dir, &params, 3, black_box(&regions), 8, &Obs::disabled())
                    .expect("disk in range"),
            )
        })
    });
}

criterion_group!(
    faults,
    bench_masked_vs_plain_rt,
    bench_degraded_outcome,
    bench_rebuild_simulation
);
criterion_main!(faults);
