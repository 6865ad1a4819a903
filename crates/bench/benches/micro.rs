//! Microbenchmarks of the hot paths: per-bucket disk assignment for each
//! method, Hilbert encode/decode, ECC syndromes, allocation
//! materialization, and response-time evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use decluster_ecc::BinaryLinearCode;
use decluster_grid::{GridSpace, RangeQuery};
use decluster_hilbert::HilbertCurve;
use decluster_methods::{AllocationMap, MethodKind, MethodRegistry};
use std::hint::black_box;

fn bench_method_assignment(c: &mut Criterion) {
    let space = GridSpace::new_2d(64, 64).expect("grid");
    let registry = MethodRegistry::default();
    let mut group = c.benchmark_group("assign_64x64_m16");
    group.throughput(Throughput::Elements(64 * 64));
    for kind in MethodKind::ALL {
        let method = registry.build(kind, &space, 16).expect("builds at M=16");
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for r in 0..64u32 {
                    for col in 0..64u32 {
                        acc += u64::from(method.disk_of(&[r, col]).0);
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_hilbert(c: &mut Criterion) {
    let curve = HilbertCurve::new(2, 16).expect("curve");
    c.bench_function("hilbert_encode_2d_16bit", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            for i in 0..1000u32 {
                acc ^= curve
                    .encode(&[i * 37 % 65536, i * 101 % 65536])
                    .expect("in range");
            }
            black_box(acc)
        })
    });
    c.bench_function("hilbert_decode_2d_16bit", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..1000u128 {
                acc ^= curve
                    .decode(i * 4_294_967_291 % (curve.last_rank() + 1))
                    .expect("in range")[0];
            }
            black_box(acc)
        })
    });
}

fn bench_ecc_syndrome(c: &mut Criterion) {
    let code = BinaryLinearCode::hamming(4, 12).expect("code");
    c.bench_function("ecc_syndrome_12bit", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            for w in 0..4096u128 {
                acc ^= code.syndrome(w);
            }
            black_box(acc)
        })
    });
}

fn bench_materialization(c: &mut Criterion) {
    let registry = MethodRegistry::default();
    let mut group = c.benchmark_group("materialize_128x128_m16");
    for kind in [
        MethodKind::Dm,
        MethodKind::Fx,
        MethodKind::Ecc,
        MethodKind::Hcam,
    ] {
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter_with_setup(
                || GridSpace::new_2d(128, 128).expect("grid"),
                |space| {
                    let method = registry.build(kind, &space, 16).expect("builds");
                    black_box(AllocationMap::from_method(&space, method.as_ref()).expect("maps"))
                },
            )
        });
    }
    group.finish();
}

fn bench_response_time(c: &mut Criterion) {
    let space = GridSpace::new_2d(64, 64).expect("grid");
    let registry = MethodRegistry::default();
    let method = registry.build(MethodKind::Fx, &space, 16).expect("fx");
    let map = AllocationMap::from_method(&space, method.as_ref()).expect("map");
    let mut group = c.benchmark_group("response_time");
    for (label, hi) in [("16_buckets", [3u32, 3u32]), ("1024_buckets", [31, 31])] {
        let region = RangeQuery::new([0, 0], hi)
            .expect("query")
            .region(&space)
            .expect("fits");
        group.throughput(Throughput::Elements(region.num_buckets()));
        group.bench_function(label, |b| b.iter(|| black_box(map.response_time(&region))));
    }
    group.finish();
}

/// An E1-style query population: the paper's area ladder cycled over a
/// thousand deterministic placements on the 64×64 grid.
fn e1_population(space: &GridSpace) -> Vec<decluster_grid::BucketRegion> {
    let areas: [u64; 19] = [
        1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
    ];
    let mut state = 0x1994_u64;
    (0..1000)
        .map(|i| {
            let area = areas[i % areas.len()];
            // Near-square sides for the area, clipped to the grid.
            let mut a = (area as f64).sqrt().floor() as u64;
            while !area.is_multiple_of(a) {
                a -= 1;
            }
            let (w, h) = (a as u32, (area / a) as u32);
            // SplitMix64 placements — deterministic, no rand dependency.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let lo0 = (z as u32) % (64 - w + 1);
            let lo1 = ((z >> 32) as u32) % (64 - h + 1);
            RangeQuery::new([lo0, lo1], [lo0 + w - 1, lo1 + h - 1])
                .expect("query")
                .region(space)
                .expect("fits")
        })
        .collect()
}

fn bench_rt_naive(c: &mut Criterion) {
    let space = GridSpace::new_2d(64, 64).expect("grid");
    let registry = MethodRegistry::default();
    let regions = e1_population(&space);
    let mut group = c.benchmark_group("rt_naive_e1_1000q");
    group.sample_size(10);
    for kind in [
        MethodKind::Dm,
        MethodKind::Fx,
        MethodKind::Ecc,
        MethodKind::Hcam,
    ] {
        let method = registry.build(kind, &space, 16).expect("builds");
        let map = AllocationMap::from_method(&space, method.as_ref()).expect("map");
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                let total: u64 = regions.iter().map(|r| map.response_time(r)).sum();
                black_box(total)
            })
        });
    }
    group.finish();
}

fn bench_rt_kernel(c: &mut Criterion) {
    let space = GridSpace::new_2d(64, 64).expect("grid");
    let registry = MethodRegistry::default();
    let regions = e1_population(&space);
    let mut group = c.benchmark_group("rt_kernel_e1_1000q");
    group.sample_size(10);
    for kind in [
        MethodKind::Dm,
        MethodKind::Fx,
        MethodKind::Ecc,
        MethodKind::Hcam,
    ] {
        let method = registry.build(kind, &space, 16).expect("builds");
        let map = AllocationMap::from_method(&space, method.as_ref()).expect("map");
        // Kernel build is included: this is the cost a sweep point pays.
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                let kernel = map.disk_counts().expect("table fits");
                let total: u64 = regions.iter().map(|r| kernel.response_time(r)).sum();
                black_box(total)
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets =
        bench_method_assignment,
        bench_hilbert,
        bench_ecc_syndrome,
        bench_materialization,
        bench_response_time,
        bench_rt_naive,
        bench_rt_kernel,
);
criterion_main!(micro);
