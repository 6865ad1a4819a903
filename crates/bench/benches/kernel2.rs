//! Kernel v1 vs v2 benchmarks.
//!
//! Scoring: the BENCH_rt.json workload — a 64×64 grid, M = 16, and 1000
//! placements of one repeated query shape — scored through the v1 kernel
//! path (u32 count lanes, per-query corner derivation, per-query
//! accumulator allocation) and the v2 path (adaptive u16 lanes, a
//! shape-compiled [`CornerPlan`] cached in a reusable
//! [`decluster_methods::Scratch`]). The acceptance target for the v2
//! path is ≥ 2× over v1 on this workload.
//!
//! Construction: the per-method kernel build of an [`EvalContext`].

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use decluster_grid::{BucketRegion, GridSpace};
use decluster_methods::{AllocationMap, DiskCounts, MethodRegistry, Scratch};
use decluster_sim::EvalContext;
use std::hint::black_box;

/// The repeated-shape placement stream every scoring bench shares:
/// `count` translates of a `side × side` query walked over the grid.
fn placements(space: &GridSpace, side: u32, count: usize) -> Vec<BucketRegion> {
    let base =
        BucketRegion::new(space, [0, 0].into(), [side - 1, side - 1].into()).expect("shape fits");
    let span = space.dims()[0] - side;
    (0..count)
        .map(|i| {
            let dy = (i as u32 * 7) % (span + 1);
            let dx = (i as u32 * 13) % (span + 1);
            base.translate(space, &[dy, dx]).expect("stays inside")
        })
        .collect()
}

fn maps_64x64_m16() -> Vec<AllocationMap> {
    let space = GridSpace::new_2d(64, 64).expect("grid");
    let registry = MethodRegistry::default();
    registry
        .paper_methods(&space, 16)
        .iter()
        .map(|m| AllocationMap::from_method(&space, m.as_ref()).expect("materializes"))
        .collect()
}

fn bench_scoring(c: &mut Criterion) {
    let space = GridSpace::new_2d(64, 64).expect("grid");
    let maps = maps_64x64_m16();
    let regions = placements(&space, 16, 1000);
    let v1: Vec<DiskCounts> = maps
        .iter()
        .map(|m| DiskCounts::build_wide(m).expect("kernel"))
        .collect();
    let v2: Vec<DiskCounts> = maps
        .iter()
        .map(|m| DiskCounts::build(m).expect("kernel"))
        .collect();
    assert!(v2.iter().all(|k| k.lane_bits() == 16), "64x64 fits u16");

    let mut group = c.benchmark_group("kernel2_score_64x64_m16_1000q");
    group.throughput(Throughput::Elements((regions.len() * v1.len()) as u64));
    group.bench_function("v1_wide_per_query_corners", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for kernel in &v1 {
                for r in &regions {
                    acc += kernel.response_time(r);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("v2_planned_scratch", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            let mut acc = 0u64;
            for kernel in &v2 {
                for r in &regions {
                    acc += kernel.response_time_with(r, &mut scratch);
                }
            }
            black_box(acc)
        })
    });
    // The intermediate variants, to attribute the win: plan+scratch on
    // the wide table (plan alone) and per-query corners on the narrow
    // table (lane width alone).
    group.bench_function("v1_wide_planned_scratch", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            let mut acc = 0u64;
            for kernel in &v1 {
                for r in &regions {
                    acc += kernel.response_time_with(r, &mut scratch);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("v2_narrow_per_query_corners", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for kernel in &v2 {
                for r in &regions {
                    acc += kernel.response_time(r);
                }
            }
            black_box(acc)
        })
    });
    group.finish();

    let mut masked = c.benchmark_group("kernel2_masked_64x64_m16_1000q");
    let mut live = [true; 16];
    live[3] = false;
    live[11] = false;
    masked.bench_function("v1_masked", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for r in &regions {
                acc += v1[0].masked_response_time(r, &live);
            }
            black_box(acc)
        })
    });
    masked.bench_function("v2_masked_planned", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            let mut acc = 0u64;
            for r in &regions {
                acc += v2[0].masked_response_time_with(r, &live, &mut scratch);
            }
            black_box(acc)
        })
    });
    masked.finish();
}

fn bench_build(c: &mut Criterion) {
    // A larger grid than the scoring bench (the paper's E6 tops out at
    // 128 partitions/side).
    let space = GridSpace::new_2d(128, 128).expect("grid");
    let registry = MethodRegistry::default();
    let maps: Vec<AllocationMap> = registry
        .paper_methods(&space, 16)
        .iter()
        .map(|m| AllocationMap::from_method(&space, m.as_ref()).expect("materializes"))
        .collect();

    let mut group = c.benchmark_group("kernel2_build_128x128_m16");
    group.sample_size(20);
    group.bench_function("from_maps", |b| {
        b.iter_with_setup(
            || maps.clone(),
            |maps| black_box(EvalContext::from_maps(16, maps).kernel_coverage()),
        )
    });
    group.finish();
}

criterion_group!(kernel2, bench_scoring, bench_build);
criterion_main!(kernel2);
