//! End-to-end SoC simulation cost: one full hardware generation
//! (inference on real environments + functional EvE reproduction).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genesys_core::{GenesysSoc, SocConfig};
use genesys_gym::{episode_into, CartPole, RolloutScratch};
use genesys_neat::{EvalContext, Evaluation, Evaluator, NeatConfig, Network, Session, WorkerLocal};

/// Genome `i` plays one episode of `CartPole::new(i)` every generation.
struct IndexedCartPole {
    scratch: WorkerLocal<RolloutScratch>,
}

impl Evaluator for IndexedCartPole {
    fn evaluate(&self, ctx: EvalContext, net: &Network) -> Evaluation {
        let mut env = CartPole::new(ctx.index);
        let (fitness, env_steps) = self
            .scratch
            .with(|scratch| episode_into(net, &mut env, scratch));
        Evaluation { fitness, env_steps }
    }
}

fn bench_soc(c: &mut Criterion) {
    let mut group = c.benchmark_group("soc_generation");
    group.sample_size(10);
    for &pop in &[16usize, 48] {
        group.bench_with_input(BenchmarkId::new("cartpole", pop), &pop, |b, &n| {
            let neat = NeatConfig::builder(4, 1).pop_size(n).build().unwrap();
            let soc = GenesysSoc::new(SocConfig::default().with_num_eve_pes(32), neat, 3);
            let mut session = Session::on(soc, 3)
                .workload(IndexedCartPole {
                    scratch: WorkerLocal::new(RolloutScratch::new),
                })
                .build();
            b.iter(|| session.step());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_soc);
criterion_main!(benches);
