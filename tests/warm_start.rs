//! Proof of the warm-start contract: a process started from persisted
//! images — v2 allocation images plus one persist-v3 kernel image —
//! reaches its first scored query with **zero** kernel compilations,
//! and serves the exact same answers as a cold process, bit for bit.
//!
//! The file holds exactly one test: `kernel_build_count` is a
//! process-wide counter, and a concurrently running test that builds
//! any engine would pollute the zero-build measurement.

use decluster::grid::{BucketCoord, BucketRegion, GridDirectory, GridSpace};
use decluster::methods::{kernel_build_count, KernelCache};
use decluster::prelude::*;
use decluster::sim::{DiskParams, LoopScratch, MultiUserEngine, ServeSpec};

/// A deterministic mixed-shape query stream tiled over the grid.
fn query_stream(space: &GridSpace, n: usize) -> Vec<BucketRegion> {
    let shapes: [[u32; 2]; 4] = [[1, 1], [2, 2], [2, 8], [4, 4]];
    (0..n)
        .map(|i| {
            let [h, w] = shapes[i % shapes.len()];
            let r = (i as u32 * 5) % (space.dim(0) - h + 1);
            let c = (i as u32 * 11) % (space.dim(1) - w + 1);
            BucketRegion::new(
                space,
                BucketCoord::from([r, c]),
                BucketCoord::from([r + h - 1, c + w - 1]),
            )
            .unwrap()
        })
        .collect()
}

#[test]
fn warm_start_compiles_nothing_and_matches_cold_bit_for_bit() {
    let space = GridSpace::new_2d(32, 32).unwrap();
    let m = 8;
    let registry = MethodRegistry::with_seed(7);
    let methods = registry.paper_methods(&space, m);
    assert!(
        methods.len() >= 2,
        "need several methods to make the pin meaningful"
    );

    // Cold start: evaluate every method, compile every kernel.
    let cold: Vec<(String, GridDirectory, MultiUserEngine)> = methods
        .iter()
        .map(|meth| {
            let dir = GridDirectory::build(space.clone(), m, |b| meth.disk_of(b.as_slice()));
            let engine = MultiUserEngine::new(&dir);
            (meth.name().to_owned(), dir, engine)
        })
        .collect();
    for (name, _, engine) in &cold {
        assert!(engine.kernel_backed(), "{name} must compile a kernel cold");
    }

    // Persist the full warm-start state: allocations as v2 images, all
    // compiled kernels in one v3 image.
    let mut cache = KernelCache::new();
    let mut alloc_images: Vec<(String, Vec<u8>)> = Vec::new();
    for (name, _, engine) in &cold {
        let counts = engine.counts();
        let kernel = counts.kernel().expect("cold engines are kernel-backed");
        cache.insert(name, counts.allocation(), kernel);
        alloc_images.push((name.clone(), counts.allocation().to_bytes().to_vec()));
    }
    let image = cache.to_bytes();

    // Warm start from the images alone. The pin: the global kernel-build
    // counter must not move — every kernel is adopted from the image
    // after identity revalidation, none is recompiled.
    let builds_before = kernel_build_count();
    let loaded = KernelCache::from_bytes(&image).expect("a just-written image loads");
    let warm: Vec<MultiUserEngine> = alloc_images
        .iter()
        .map(|(name, bytes)| {
            let map = AllocationMap::from_bytes(bytes).expect("a just-written image loads");
            let dir = GridDirectory::from_table(space.clone(), m, map.table())
                .expect("a persisted allocation is grid-shaped");
            let kernel = loaded
                .lookup(name, &map)
                .expect("a fresh image revalidates against its own allocation");
            MultiUserEngine::with_kernel(&dir, Some(kernel))
        })
        .collect();
    assert_eq!(
        kernel_build_count() - builds_before,
        0,
        "warm-start construction must compile zero kernels"
    );

    // A full serve run on the warm engines still compiles nothing...
    let queries = query_stream(&space, 128);
    let arrivals: Vec<f64> = (0..queries.len()).map(|i| i as f64 * 2.0).collect();
    let params = DiskParams::default();
    let obs = decluster::obs::Obs::disabled();
    let spec = ServeSpec::open(150.0).seed(42);
    let mut ls = LoopScratch::new();
    let builds_before = kernel_build_count();
    let warm_runs: Vec<_> = warm
        .iter()
        .map(|engine| {
            spec.run_with_arrivals(engine, &params, &queries, &arrivals, &obs, &mut ls)
                .expect("the warm spec is valid")
        })
        .collect();
    assert_eq!(
        kernel_build_count() - builds_before,
        0,
        "warm serving must compile zero kernels"
    );

    // ...and answers bit-for-bit what the cold engines answer.
    for ((name, _, engine), warm_run) in cold.iter().zip(&warm_runs) {
        let cold_run = spec
            .run_with_arrivals(engine, &params, &queries, &arrivals, &obs, &mut ls)
            .expect("the cold spec is valid");
        assert_eq!(
            cold_run.report.makespan_ms.to_bits(),
            warm_run.report.makespan_ms.to_bits(),
            "{name}: cold and warm makespan must agree bit for bit"
        );
        assert_eq!(
            cold_run.report.throughput_qps.to_bits(),
            warm_run.report.throughput_qps.to_bits(),
            "{name}: cold and warm throughput must agree bit for bit"
        );
        assert_eq!(
            cold_run.report.latency.mean.to_bits(),
            warm_run.report.latency.mean.to_bits(),
            "{name}: cold and warm latency must agree bit for bit"
        );
        assert_eq!(cold_run.pages, warm_run.pages, "{name}: pages diverged");
        assert_eq!(cold_run.events, warm_run.events, "{name}: events diverged");
    }

    // A stale image (different allocation) must miss, never misread:
    // lookup against a shifted allocation returns None.
    let (name, _, engine) = &cold[0];
    let counts = engine.counts();
    let mut shifted = counts.allocation().table().to_vec();
    shifted[0] = (shifted[0] + 1) % m;
    let shifted_map = AllocationMap::from_table(&space, m, shifted).unwrap();
    assert!(
        loaded.lookup(name, &shifted_map).is_none(),
        "a kernel image must not revalidate against a drifted allocation"
    );
}
