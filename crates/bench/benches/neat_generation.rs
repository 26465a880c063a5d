//! Wall-clock cost of one software NEAT generation (evaluation via a
//! synthetic fitness plus reproduction), serial vs PLP-threaded — the
//! software half of the paper's Table III CPU rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genesys_neat::{EvalContext, NeatConfig, Network, Population, Session};

fn proxy_fitness(_ctx: EvalContext, net: &Network) -> f64 {
    let mut fit = 0.0;
    for case in [
        [0.1, 0.9, 0.2, 0.8],
        [0.5, 0.5, 0.5, 0.5],
        [0.9, 0.1, 0.8, 0.2],
    ] {
        fit += net.activate(&case)[0];
    }
    fit
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("neat_generation");
    for &pop_size in &[50usize, 150] {
        for (label, threads) in [("serial", 1), ("plp_4_threads", 4)] {
            group.bench_with_input(BenchmarkId::new(label, pop_size), &pop_size, |b, &n| {
                let config = NeatConfig::builder(4, 1).pop_size(n).build().unwrap();
                let mut session = Session::on(Population::new(config, 1), 1)
                    .workload(proxy_fitness)
                    .threads(threads)
                    .build();
                b.iter(|| session.step());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
