//! Proof of the multi-user engine's allocation-free hot path: a counting
//! global allocator observes zero heap allocations across an entire
//! closed-loop, event-driven serve, degraded (primary-only and
//! queue-aware), and shared-scan run, and an open run over a 4-D pool
//! of 1- to 16-bucket regions whose plan rows are walked in the
//! allocation table rather than read from the kernel (mid-run sampling
//! and the per-run plan table included), once the caller-owned
//! `LoopScratch` has been warmed. Lives at the workspace root because the library crates
//! `forbid(unsafe_code)` and a `GlobalAlloc` impl is necessarily unsafe.
//!
//! The file holds exactly one test: the counter is process-wide, and a
//! concurrently running test would pollute the measurement.

use decluster::grid::{BucketCoord, BucketRegion, GridDirectory, GridSpace};
use decluster::prelude::*;
use decluster::sim::{
    DiskParams, FaultSchedule, LoopScratch, MultiUserEngine, ReplicaPolicy, RetryPolicy, ServeSpec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a relaxed atomic with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A deterministic mixed-shape query stream tiled over the grid (no RNG:
/// the stream itself must not allocate inside the measured section, so
/// it is built entirely up front).
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

/// Regions of 1 to 16 buckets on a 4-D grid (each side 1 or 2, shape
/// `i mod 16`), tiled without an RNG: all at most `2^4` buckets, so the
/// serving loop walks every one.
fn small_4d_stream(space: &GridSpace, n: usize) -> Vec<BucketRegion> {
    (0..n)
        .map(|i| {
            let ext: Vec<u32> = (0..4).map(|d| 1 + (i >> d & 1) as u32).collect();
            let lo: Vec<u32> = (0..4)
                .map(|d| (i as u32 * (3 + 2 * d as u32)) % (space.dim(d) - ext[d] + 1))
                .collect();
            let hi: Vec<u32> = lo.iter().zip(&ext).map(|(&l, &e)| l + e - 1).collect();
            BucketRegion::new(space, BucketCoord::from(lo), BucketCoord::from(hi)).unwrap()
        })
        .collect()
}

#[test]
fn warmed_loops_make_zero_heap_allocations() {
    let space = GridSpace::new_2d(32, 32).unwrap();
    let m = 8;
    let hcam = Hcam::new(&space, m).unwrap();
    let dir = GridDirectory::build(space.clone(), m, |b| hcam.disk_of(b.as_slice()));
    let params = DiskParams::default();
    let engine = MultiUserEngine::new(&dir);
    assert!(engine.kernel_backed());
    let obs = decluster::obs::Obs::disabled();
    let queries = query_stream(&space, 256);
    let arrivals: Vec<f64> = (0..queries.len()).map(|i| i as f64 * 3.0).collect();

    // Degraded serve: a transient outage mid-stream (so retries, timeouts,
    // and losses all fire), a tight admission bound (so sheds fire), and a
    // burst arrival pattern that keeps the queue pressed against it. Every
    // spec is built before the measured section (a spec holding a fault
    // schedule owns a copy of its event list).
    let schedule = FaultSchedule::healthy(m)
        .transient(3, 20, 90)
        .expect("disk 3 exists on the test array");
    let burst: Vec<f64> = (0..queries.len()).map(|i| i as f64 * 0.5).collect();
    // Mid-run sampling on throughout: the loops must stay allocation-free
    // even while taking latency-tail snapshots.
    let serve_spec = ServeSpec::open(200.0).sampling(64.0);
    let degraded_spec = ServeSpec::open(200.0)
        .sampling(64.0)
        .replicas(1)
        .policy(ReplicaPolicy::PrimaryOnly)
        .retry(RetryPolicy {
            timeout_units: 2,
            max_retries: 3,
        })
        .admission(4)
        .faults(schedule)
        .seed(9);
    // Queue-aware routing over r = 2 chains, shaped like the benchmark's
    // fault load: disk 3 fail-stops, and while disks 4 and 5 are out
    // every copy of disk 3's batches (3, 4, 5) is down, so those requests
    // back off and retry, while every other batch picks its copy from the
    // router's per-disk keys.
    let chain_down = FaultSchedule::healthy(m)
        .fail_stop(3, 20)
        .and_then(|s| s.transient(4, 40, 90))
        .and_then(|s| s.transient(5, 40, 90))
        .expect("disks 3 to 5 exist on the test array");
    let nearest_spec = ServeSpec::open(200.0)
        .sampling(64.0)
        .replicas(2)
        .policy(ReplicaPolicy::NearestFreeQueue)
        .retry(RetryPolicy::default())
        .admission(64)
        .faults(chain_down)
        .seed(9);
    // Shared scans over the burst: a 24 ms batch window spans dozens of
    // arrivals, so windows flush, queries merge, and duplicate pages drop
    // while the loop runs out of the three warmed SharedScan arenas.
    let shared_spec = ServeSpec::open(200.0)
        .sampling(64.0)
        .share(24.0)
        .replicas(1)
        .policy(ReplicaPolicy::Spread);

    // An open run over a 4-D grid, shaped like the benchmark's open
    // load: every pool region has at most 16 buckets, so every plan row
    // is walked in the allocation table.
    let space4 = GridSpace::new(vec![8; 4]).unwrap();
    let m4 = 16;
    let hcam4 = Hcam::new(&space4, m4).unwrap();
    let dir4 = GridDirectory::build(space4.clone(), m4, |b| hcam4.disk_of(b.as_slice()));
    let engine4 = MultiUserEngine::new(&dir4);
    let small = small_4d_stream(&space4, 160);
    assert!(small.iter().all(|r| r.num_buckets() <= 16));
    assert!(small.iter().any(|r| r.num_buckets() == 16));
    let small_arrivals: Vec<f64> = (0..small.len() * 4).map(|i| i as f64 * 0.25).collect();

    // Warm-up: grows every LoopScratch buffer (the plan table included)
    // to the working-set size and compiles the kernel's per-shape corner
    // plans.
    let mut ls = LoopScratch::new();
    let closed_spec = ServeSpec::closed(8);
    let warm_closed = closed_spec
        .run(&engine, &params, &queries, &obs, &mut ls)
        .expect("the closed spec is valid")
        .report;
    let warm_serve = serve_spec
        .run_with_arrivals(&engine, &params, &queries, &arrivals, &obs, &mut ls)
        .expect("the serve spec is valid");
    let warm_degraded = degraded_spec
        .run_with_arrivals(&engine, &params, &queries, &burst, &obs, &mut ls)
        .expect("schedule matches the test array");
    let warm_nearest = nearest_spec
        .run_with_arrivals(&engine, &params, &queries, &burst, &obs, &mut ls)
        .expect("schedule matches the test array");
    let warm_shared = shared_spec
        .run_with_arrivals(&engine, &params, &queries, &burst, &obs, &mut ls)
        .expect("the shared spec is valid");
    let warm_walked = serve_spec
        .run_with_arrivals(&engine4, &params, &small, &small_arrivals, &obs, &mut ls)
        .expect("the serve spec is valid");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let closed = closed_spec
        .run(&engine, &params, &queries, &obs, &mut ls)
        .expect("the closed spec is valid")
        .report;
    let serve = serve_spec
        .run_with_arrivals(&engine, &params, &queries, &arrivals, &obs, &mut ls)
        .expect("the serve spec is valid");
    let degraded = degraded_spec
        .run_with_arrivals(&engine, &params, &queries, &burst, &obs, &mut ls)
        .expect("schedule matches the test array");
    let nearest = nearest_spec
        .run_with_arrivals(&engine, &params, &queries, &burst, &obs, &mut ls)
        .expect("schedule matches the test array");
    let shared = shared_spec
        .run_with_arrivals(&engine, &params, &queries, &burst, &obs, &mut ls)
        .expect("the shared spec is valid");
    let walked = serve_spec
        .run_with_arrivals(&engine4, &params, &small, &small_arrivals, &obs, &mut ls)
        .expect("the serve spec is valid");
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(
        during, 0,
        "warmed closed+serve+degraded+nearest+shared+walked loops must not touch the heap ({during} allocations observed)"
    );
    // The measured runs are the warm-up runs, bit for bit.
    assert_eq!(
        closed.makespan_ms.to_bits(),
        warm_closed.makespan_ms.to_bits()
    );
    assert_eq!(
        closed.latency.mean.to_bits(),
        warm_closed.latency.mean.to_bits()
    );
    assert_eq!(
        serve.report.makespan_ms.to_bits(),
        warm_serve.report.makespan_ms.to_bits()
    );
    assert_eq!(serve.events, warm_serve.events);
    assert_eq!(serve.samples, warm_serve.samples);
    assert!(serve.samples > 0, "sampling was live in the measured run");
    // The degraded run exercised the availability paths while staying off
    // the heap, and repeats bit for bit.
    let avail = degraded
        .availability
        .expect("degraded runs report availability");
    let warm_avail = warm_degraded
        .availability
        .expect("degraded runs report availability");
    assert!(avail.retries > 0, "the transient outage forced retries");
    assert!(avail.shed > 0, "the admission bound forced sheds");
    assert!(avail.transitions > 0, "fault events reached the heap");
    assert_eq!(
        degraded.report.makespan_ms.to_bits(),
        warm_degraded.report.makespan_ms.to_bits()
    );
    assert_eq!(
        degraded.report.latency.mean.to_bits(),
        warm_degraded.report.latency.mean.to_bits()
    );
    assert_eq!(avail, warm_avail);
    // The queue-aware run failed over, retried through the chain outage,
    // and repeats bit for bit.
    let avail = nearest
        .availability
        .expect("degraded runs report availability");
    assert!(
        avail.failovers > 0,
        "nearest-queue routing left the primary"
    );
    assert!(avail.retries > 0, "the chain outage forced retries");
    assert_eq!(
        nearest.report.makespan_ms.to_bits(),
        warm_nearest.report.makespan_ms.to_bits()
    );
    assert_eq!(Some(avail), warm_nearest.availability);
    // The shared run merged windows and dropped duplicate pages while
    // staying off the heap, and repeats bit for bit.
    let sharing = shared.sharing.expect("shared runs report sharing stats");
    let warm_sharing = warm_shared
        .sharing
        .expect("shared runs report sharing stats");
    assert!(sharing.windows > 0, "the batch window flushed");
    assert!(sharing.merged_queries > 0, "the burst merged queries");
    assert!(sharing.pages_saved > 0, "merging deduplicated pages");
    assert_eq!(
        shared.report.makespan_ms.to_bits(),
        warm_shared.report.makespan_ms.to_bits()
    );
    assert_eq!(shared.events, warm_shared.events);
    assert_eq!(shared.pages, warm_shared.pages);
    assert_eq!(sharing, warm_sharing);
    // The walked open run repeats bit for bit.
    assert_eq!(
        walked.report.makespan_ms.to_bits(),
        warm_walked.report.makespan_ms.to_bits()
    );
    assert_eq!(walked.events, warm_walked.events);
    assert_eq!(walked.pages, warm_walked.pages);
    assert_eq!(
        walked.pages,
        small_arrivals.len() as u64 / small.len() as u64
            * small.iter().map(BucketRegion::num_buckets).sum::<u64>()
    );
}
