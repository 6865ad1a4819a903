//! Warm-start benchmarks: cold construction vs image-driven adoption.
//!
//! Cold: evaluate every paper method over the grid, build each
//! directory, and compile each count kernel. Warm: reload the same
//! state from persisted images — v2 allocation images plus one
//! persist-v3 kernel image — revalidate, and adopt. The warm path is
//! the `repro bench_warm` startup path; its win is skipping both method
//! evaluation and kernel compilation, paying only image parse + CRC.
//!
//! Also measured on their own: serializing and parsing the kernel
//! image (the slicing-by-16 CRC plus bulk lane encode/decode), and the
//! cross-query shape-plan cache against the uncached per-query plan
//! build it replaces.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use decluster_grid::{BucketRegion, GridDirectory, GridSpace};
use decluster_methods::{AllocationMap, KernelCache, MethodRegistry, PlanCache, Scratch};
use std::hint::black_box;

const SIDE: u32 = 64;
const DISKS: u32 = 16;

fn space() -> GridSpace {
    GridSpace::new_2d(SIDE, SIDE).expect("grid")
}

/// Cold-built state for every paper method: (name, directory, kernel).
fn cold_state() -> Vec<(String, GridDirectory, AllocationMap)> {
    let space = space();
    let registry = MethodRegistry::default();
    registry
        .paper_methods(&space, DISKS)
        .iter()
        .map(|m| {
            let dir = GridDirectory::build(space.clone(), DISKS, |b| m.disk_of(b.as_slice()));
            let map = AllocationMap::from_method(&space, m.as_ref()).expect("materializes");
            (m.name().to_owned(), dir, map)
        })
        .collect()
}

fn persisted_images(
    state: &[(String, GridDirectory, AllocationMap)],
) -> (Vec<u8>, Vec<(String, Vec<u8>)>) {
    let mut cache = KernelCache::new();
    let mut allocs = Vec::new();
    for (name, _, map) in state {
        let kernel = map.disk_counts().expect("kernel compiles");
        cache.insert(name, map, &kernel);
        allocs.push((name.clone(), map.to_bytes().to_vec()));
    }
    (cache.to_bytes().to_vec(), allocs)
}

fn bench_startup(c: &mut Criterion) {
    let space = space();
    let registry = MethodRegistry::default();
    let state = cold_state();
    let (kernel_image, alloc_images) = persisted_images(&state);

    let mut group = c.benchmark_group("warm_startup_64x64_m16");
    group.throughput(Throughput::Elements(state.len() as u64));
    group.bench_function("cold_methods_dirs_kernels", |b| {
        b.iter(|| {
            let methods = registry.paper_methods(&space, DISKS);
            let built: Vec<_> = methods
                .iter()
                .map(|m| {
                    let dir =
                        GridDirectory::build(space.clone(), DISKS, |bk| m.disk_of(bk.as_slice()));
                    let map = AllocationMap::from_method(&space, m.as_ref()).expect("materializes");
                    let kernel = map.disk_counts().expect("kernel compiles");
                    (dir, kernel)
                })
                .collect();
            black_box(built)
        })
    });
    group.bench_function("warm_images_revalidate_adopt", |b| {
        b.iter(|| {
            let loaded = KernelCache::from_bytes(&kernel_image).expect("image loads");
            let built: Vec<_> = alloc_images
                .iter()
                .map(|(name, bytes)| {
                    let map = AllocationMap::from_bytes(bytes).expect("image loads");
                    let dir = GridDirectory::from_table(space.clone(), DISKS, map.table())
                        .expect("grid-shaped");
                    let kernel = loaded.lookup(name, &map).expect("fresh image revalidates");
                    (dir, kernel)
                })
                .collect();
            black_box(built)
        })
    });
    group.finish();
}

fn bench_image_codec(c: &mut Criterion) {
    let state = cold_state();
    let mut cache = KernelCache::new();
    for (name, _, map) in &state {
        let kernel = map.disk_counts().expect("kernel compiles");
        cache.insert(name, map, &kernel);
    }
    let image = cache.to_bytes();

    let mut group = c.benchmark_group("warm_kernel_image_codec");
    group.throughput(Throughput::Bytes(image.len() as u64));
    group.bench_function("serialize_v3", |b| b.iter(|| black_box(cache.to_bytes())));
    group.bench_function("parse_v3", |b| {
        b.iter(|| black_box(KernelCache::from_bytes(&image).expect("image loads")))
    });
    group.finish();
}

fn bench_shape_cache(c: &mut Criterion) {
    let space = space();
    let map = cold_state().remove(0).2;
    let kernel = map.disk_counts().expect("kernel compiles");
    // Four shapes interleaved query-by-query: the serving-loop case the
    // cross-query cache exists for. The scratch's single plan slot
    // misses every query (the previous query always had a different
    // shape); the LRU holds all four plans at once.
    let shapes: [[u32; 2]; 4] = [[1, 1], [2, 2], [2, 8], [8, 8]];
    let regions: Vec<BucketRegion> = (0..1000)
        .map(|i| {
            let [h, w] = shapes[i % shapes.len()];
            let dy = (i as u32 * 7) % (SIDE - h + 1);
            let dx = (i as u32 * 13) % (SIDE - w + 1);
            BucketRegion::new(&space, [dy, dx].into(), [dy + h - 1, dx + w - 1].into())
                .expect("stays inside")
        })
        .collect();
    let mut hist: Vec<u64> = Vec::with_capacity(DISKS as usize);

    let mut group = c.benchmark_group("warm_shape_cache_1000q");
    group.throughput(Throughput::Elements(regions.len() as u64));
    group.bench_function("uncached_plan_per_query", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            let mut acc = 0u64;
            for r in &regions {
                kernel.access_histogram_with(r, &mut scratch, &mut hist);
                acc += hist[0];
            }
            black_box(acc)
        })
    });
    group.bench_function("cached_plan_lru", |b| {
        let mut plans = PlanCache::new();
        b.iter(|| {
            let mut acc = 0u64;
            for r in &regions {
                kernel.access_histogram_cached(r, &mut plans, &mut hist);
                acc += hist[0];
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_startup, bench_image_codec, bench_shape_cache);
criterion_main!(benches);
