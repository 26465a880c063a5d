//! Steady-state rollout throughput per environment kind.
//!
//! One iteration = one full episode of an evolved policy on each of a
//! fixed set of seed-derived environments ([`SEEDS`]) — the unit of work
//! the persistent evaluation engine schedules, repeated. Every iteration
//! runs the same seeds, so every iteration does the same work and the
//! min-time measures the loop, not the shortest episode a run happened to
//! draw. This is the hot loop the compiled zero-allocation pipeline
//! targets: report min-time here before and after touching
//! `Network::activate_into`, `Environment::step_into` or the rollout
//! buffers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genesys_gym::{episode_rollout_with, EnvKind, RolloutScratch};
use genesys_neat::trace::OpCounters;
use genesys_neat::{Genome, InnovationTracker, Network, XorWow};

/// Environment seeds of one iteration.
const SEEDS: std::ops::Range<u64> = 1..9;

/// Evolves a genome with a little hidden structure so the benchmark walks
/// a multi-wavefront plan, not just the initial input→output matrix.
fn evolved_net(kind: EnvKind, rounds: usize) -> Network {
    let config = kind.neat_config();
    let mut rng = XorWow::seed_from_u64_value(7);
    let mut innov = InnovationTracker::new(config.first_hidden_id());
    let mut g = Genome::initial(0, &config, &mut rng);
    let mut ops = OpCounters::new();
    for _ in 0..rounds {
        g.mutate_add_node(&mut innov, &mut rng, &mut ops);
        g.mutate_add_conn(&mut rng, &mut ops);
        g.mutate_attributes(&config, &mut rng, &mut ops);
    }
    Network::from_genome(&g).expect("mutated genome stays acyclic")
}

fn bench_rollout(c: &mut Criterion) {
    let mut group = c.benchmark_group("rollout_hot_loop");
    for kind in EnvKind::ALL {
        let net = evolved_net(kind, 6);
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                // Buffers persist across iterations, like a pool worker's.
                let mut scratch = RolloutScratch::new();
                b.iter(|| {
                    SEEDS
                        .map(|seed| episode_rollout_with(kind, &net, seed, &mut scratch))
                        .fold((0.0, 0), |(f, s), (fitness, steps)| {
                            (f + fitness, s + steps)
                        })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rollout);
criterion_main!(benches);
