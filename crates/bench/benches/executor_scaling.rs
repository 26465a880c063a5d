//! Why the persistent executor exists: an imbalanced population (job cost
//! growing quadratically with index, like deep late-generation genomes or
//! long gym episodes) under three schedules:
//!
//! * `serial` — one thread, the lower bound on total work.
//! * `static_chunks` — the pre-executor PLP path: fresh scoped threads per
//!   generation and `div_ceil` index chunking, so the last chunk (holding
//!   all the expensive jobs) serializes the batch and the spawn cost is
//!   paid every iteration.
//! * `pool` — a persistent `genesys_neat::Executor`: threads spawned once
//!   outside the measurement loop, the workers and the caller claiming
//!   short runs of indices from one shared counter, so whoever finishes
//!   early takes the next unclaimed jobs.
//!
//! On an imbalanced load `pool` should approach `serial / workers`, while
//! `static_chunks` is pinned near the cost of its heaviest chunk (~53 % of
//! serial here, for quadratic costs over 4 chunks). On a single-core
//! machine all three arms converge to serial cost — the gap only opens
//! with real hardware parallelism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genesys_neat::Executor;

const JOBS: usize = 64;
const WORKERS: usize = 4;

/// Quadratically imbalanced cost model: job 63 is ~4096× job 0.
fn job_cost(i: usize) -> u64 {
    (i as u64 + 1) * (i as u64 + 1) * 60
}

/// Deterministic CPU-bound work of `units` arithmetic steps.
fn spin(units: u64) -> u64 {
    let mut acc = 0u64;
    for k in 0..units {
        acc = acc.wrapping_add(std::hint::black_box(k ^ 0x9E37_79B9));
    }
    acc
}

fn bench_imbalanced(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_imbalanced");
    group.sample_size(40);

    group.bench_function(BenchmarkId::new("serial", JOBS), |b| {
        b.iter(|| (0..JOBS).map(|i| spin(job_cost(i))).sum::<u64>())
    });

    group.bench_function(BenchmarkId::new("static_chunks", WORKERS), |b| {
        b.iter(|| {
            let indices: Vec<usize> = (0..JOBS).collect();
            let chunk = JOBS.div_ceil(WORKERS);
            let mut out = vec![0u64; JOBS];
            std::thread::scope(|scope| {
                for (idx_chunk, out_chunk) in indices.chunks(chunk).zip(out.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        for (i, o) in idx_chunk.iter().zip(out_chunk.iter_mut()) {
                            *o = spin(job_cost(*i));
                        }
                    });
                }
            });
            out.iter().sum::<u64>()
        })
    });

    // Spawned once, outside the measurement loop — the whole point.
    let pool = Executor::new(WORKERS);
    group.bench_function(BenchmarkId::new("pool", WORKERS), |b| {
        b.iter(|| pool.map(JOBS, |i| spin(job_cost(i))).iter().sum::<u64>())
    });

    group.finish();
}

criterion_group!(benches, bench_imbalanced);
criterion_main!(benches);
