//! Ablation benches for two of EvE's design choices:
//! GLR-aware greedy PE allocation vs round-robin, and the multicast tree
//! vs point-to-point buses, measured as modelled SRAM reads (reported via
//! custom criterion measurement of the replay work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genesys_core::{
    allocate_pes, select_parents, AllocPolicy, EveEngine, GenomeBuffer, NocKind, PeConfig,
    SramConfig,
};
use genesys_neat::{Genome, NeatConfig, SpeciesSet, XorWow};

fn population(n: usize) -> (Vec<Genome>, NeatConfig) {
    let c = NeatConfig::builder(6, 2).pop_size(n).build().unwrap();
    let mut rng = XorWow::seed_from_u64_value(77);
    let mut genomes: Vec<Genome> = (0..n as u64)
        .map(|k| Genome::initial(k, &c, &mut rng))
        .collect();
    for (i, g) in genomes.iter_mut().enumerate() {
        g.set_fitness((i % 11) as f64);
    }
    (genomes, c)
}

fn bench_alloc_policy(c: &mut Criterion) {
    let (genomes, config) = population(150);
    let mut species = SpeciesSet::new();
    let mut rng = XorWow::seed_from_u64_value(3);
    let plans = select_parents(&genomes, &mut species, &config, 0, &mut rng);
    let pe_config = PeConfig::from_neat(&config, 10);

    let mut group = c.benchmark_group("alloc_policy_reproduction");
    group.sample_size(10);
    for policy in [AllocPolicy::Greedy, AllocPolicy::RoundRobin] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &p| {
                b.iter(|| {
                    let schedule = allocate_pes(&plans, 64, p);
                    let mut engine =
                        EveEngine::new(64, pe_config.clone(), NocKind::MulticastTree, 5);
                    let mut buffer = GenomeBuffer::new(SramConfig::default());
                    let mut key = 10_000;
                    engine.reproduce(&genomes, &plans, &schedule, &mut buffer, &mut key)
                });
            },
        );
    }
    group.finish();

    // Print the modelled SRAM-read ablation once (criterion measures time;
    // the architectural win is reads, so they are printed beside the
    // timings).
    for policy in [AllocPolicy::Greedy, AllocPolicy::RoundRobin] {
        let schedule = allocate_pes(&plans, 64, policy);
        let mut engine = EveEngine::new(64, pe_config.clone(), NocKind::MulticastTree, 5);
        let mut buffer = GenomeBuffer::new(SramConfig::default());
        let mut key = 10_000;
        let report = engine.reproduce(&genomes, &plans, &schedule, &mut buffer, &mut key);
        eprintln!(
            "[ablation] {policy:?} + multicast: SRAM reads = {}",
            report.noc.sram_reads
        );
    }
}

fn bench_noc_kind(c: &mut Criterion) {
    let (genomes, config) = population(150);
    let mut species = SpeciesSet::new();
    let mut rng = XorWow::seed_from_u64_value(4);
    let plans = select_parents(&genomes, &mut species, &config, 0, &mut rng);
    let pe_config = PeConfig::from_neat(&config, 10);
    let schedule = allocate_pes(&plans, 64, AllocPolicy::Greedy);

    let mut group = c.benchmark_group("noc_kind_reproduction");
    group.sample_size(10);
    for noc in [NocKind::PointToPoint, NocKind::MulticastTree] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{noc}")),
            &noc,
            |b, &n| {
                b.iter(|| {
                    let mut engine = EveEngine::new(64, pe_config.clone(), n, 5);
                    let mut buffer = GenomeBuffer::new(SramConfig::default());
                    let mut key = 10_000;
                    engine.reproduce(&genomes, &plans, &schedule, &mut buffer, &mut key)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_alloc_policy, bench_noc_kind);
criterion_main!(benches);
