//! Microbenchmarks of the event-driven serving primitive `EventHeap`:
//! push/pop under the fill-then-drain and steady-state patterns the
//! serve loop produces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use decluster_sim::EventHeap;
use std::hint::black_box;

/// Deterministic pseudo-random event times (splitmix64, no rand dep
/// needed on the hot path being measured).
fn times(n: usize) -> Vec<f64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64 * 1.0e6
        })
        .collect()
}

fn bench_heap_fill_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_heap_fill_drain");
    for &n in &[1usize << 10, 1 << 14] {
        let ts = times(n);
        group.throughput(Throughput::Elements(2 * n as u64));
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            let mut heap: EventHeap<u32> = EventHeap::new();
            b.iter(|| {
                heap.clear();
                for (i, &t) in ts.iter().enumerate() {
                    heap.push(t, i as u32);
                }
                let mut acc = 0u64;
                while let Some(e) = heap.pop() {
                    acc = acc.wrapping_add(u64::from(e.payload));
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// The serve loop's steady state: the heap holds roughly the in-flight
/// request count while arrivals push and completions pop in alternation.
fn bench_heap_steady_state(c: &mut Criterion) {
    let depth = 512usize;
    let ops = 1usize << 14;
    let ts = times(depth + ops);
    c.bench_function("event_heap_steady_state_512", |b| {
        let mut heap: EventHeap<u32> = EventHeap::new();
        b.iter(|| {
            heap.clear();
            for (i, &t) in ts[..depth].iter().enumerate() {
                heap.push(t, i as u32);
            }
            let mut acc = 0u64;
            for (i, &t) in ts[depth..].iter().enumerate() {
                let e = heap.pop().expect("heap stays at depth");
                acc = acc.wrapping_add(u64::from(e.payload));
                // Keep times moving forward the way completions do.
                heap.push(e.time + t, i as u32);
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench_heap_fill_drain, bench_heap_steady_state);
criterion_main!(benches);
