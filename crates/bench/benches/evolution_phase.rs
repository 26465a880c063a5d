//! Wall-clock cost of the evolution phase in isolation — speciation
//! (compatibility-distance clustering) and reproduction (plan/execute
//! child construction) — serial vs executor-parallel. This is the phase
//! the GeneSys paper accelerates with the EvE PE array; the software
//! pipeline must not serialize the generation loop on it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genesys_neat::reproduction::reproduce_into;
use genesys_neat::trace::OpCounters;
use genesys_neat::{Executor, Genome, InnovationTracker, NeatConfig, SpeciesSet, XorWow};

/// An evaluated, structurally diverged population plus its speciation —
/// the state the evolution phase starts from each generation.
fn evolved_state(pop: usize) -> (Vec<Genome>, NeatConfig, SpeciesSet, u32) {
    let c = NeatConfig::builder(6, 2).pop_size(pop).build().unwrap();
    let mut rng = XorWow::seed_from_u64_value(42);
    let mut innov = InnovationTracker::new(c.first_hidden_id());
    let mut genomes: Vec<Genome> = (0..pop as u64)
        .map(|k| Genome::initial(k, &c, &mut rng))
        .collect();
    let mut ops = OpCounters::new();
    for (i, g) in genomes.iter_mut().enumerate() {
        // Diverge a third of the population structurally so speciation
        // has real clustering work and children have hidden nodes.
        if i % 3 == 0 {
            for _ in 0..4 {
                g.mutate_add_node(&mut innov, &mut rng, &mut ops);
                g.mutate_attributes(&c, &mut rng, &mut ops);
            }
        }
        g.set_fitness(((i * 37 + 11) % 29) as f64);
    }
    let mut species = SpeciesSet::new();
    species.speciate(&genomes, &c, 0);
    species.share_fitness(&genomes);
    (genomes, c, species, innov.next_node_id())
}

fn bench_evolution_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("evolution_phase");
    for &pop in &[64usize, 150] {
        let (genomes, config, species, next_node) = evolved_state(pop);

        group.bench_with_input(BenchmarkId::new("speciate", pop), &pop, |b, _| {
            let mut set = species.clone();
            b.iter(|| {
                set.speciate(&genomes, &config, 1);
            });
        });

        let run_reproduce = |pool: Option<&Executor>, arena: &mut Vec<Genome>| {
            let mut innov = InnovationTracker::new(next_node);
            let mut rng = XorWow::seed_from_u64_value(7);
            let mut key = 100_000;
            reproduce_into(
                &genomes, &species, &config, &mut innov, &mut rng, 1, &mut key, 99, pool, arena,
            )
        };

        group.bench_with_input(BenchmarkId::new("reproduce_serial", pop), &pop, |b, _| {
            let mut arena: Vec<Genome> = Vec::new();
            b.iter(|| run_reproduce(None, &mut arena));
        });

        group.bench_with_input(BenchmarkId::new("reproduce_pool4", pop), &pop, |b, _| {
            let pool = Executor::new(4);
            let mut arena: Vec<Genome> = Vec::new();
            b.iter(|| run_reproduce(Some(&pool), &mut arena));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_evolution_phase);
criterion_main!(benches);
