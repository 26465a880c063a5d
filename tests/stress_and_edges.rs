//! Stress and edge-case tests: capacity spills, degenerate selections,
//! extreme configurations — the failure modes a downstream user will hit.

use genesys::gym::{EnvKind, EpisodeEvaluator};
use genesys::neat::{
    EvalContext, Genome, NeatConfig, Network, Population, Session, SpeciesSet, XorWow,
};
use genesys::soc::{
    allocate_pes, select_parents, AllocPolicy, EveEngine, GenesysSoc, GenomeBuffer, NocKind,
    PeConfig, SocConfig, SramConfig,
};

#[test]
fn oversized_population_spills_to_dram_but_still_works() {
    // Shrink the genome buffer until the generation cannot fit: reads must
    // split between SRAM and DRAM, energy must rise, nothing crashes.
    let tiny = SramConfig {
        banks: 2,
        depth: 16, // 32 words = 4 genomes worth of genes
        ..SramConfig::default()
    };
    let mut buffer = GenomeBuffer::new(tiny);
    buffer.set_resident(1000);
    buffer.read_genes(10_000);
    assert!(buffer.stats().dram_accesses > 0, "spill must be charged");
    assert!(buffer.stats().reads > 0, "resident fraction still served");
    let spill_energy = buffer.energy_uj();

    let mut big = GenomeBuffer::new(SramConfig::default());
    big.set_resident(1000);
    big.read_genes(10_000);
    assert!(spill_energy > 10.0 * big.energy_uj(), "DRAM must dominate");
}

#[test]
fn selection_with_uniform_fitness_still_fills_population() {
    let config = NeatConfig::builder(3, 1).pop_size(20).build().unwrap();
    let mut rng = XorWow::seed_from_u64_value(1);
    let mut genomes: Vec<Genome> = (0..20u64)
        .map(|k| Genome::initial(k, &config, &mut rng))
        .collect();
    for g in &mut genomes {
        g.set_fitness(5.0); // everyone identical
    }
    let mut species = SpeciesSet::new();
    let plans = select_parents(&genomes, &mut species, &config, 0, &mut rng);
    assert_eq!(plans.len(), 20);
}

#[test]
fn selection_with_negative_fitness_works() {
    // MountainCar-style all-negative rewards.
    let config = NeatConfig::builder(2, 1).pop_size(16).build().unwrap();
    let mut rng = XorWow::seed_from_u64_value(2);
    let mut genomes: Vec<Genome> = (0..16u64)
        .map(|k| Genome::initial(k, &config, &mut rng))
        .collect();
    for (i, g) in genomes.iter_mut().enumerate() {
        g.set_fitness(-200.0 + i as f64);
    }
    let mut species = SpeciesSet::new();
    let plans = select_parents(&genomes, &mut species, &config, 0, &mut rng);
    assert_eq!(plans.len(), 16);
    for p in plans.iter().filter(|p| !p.is_elite) {
        // Parents still come from the top of the (negative) range.
        assert!(genomes[p.fit_parent].fitness().unwrap() >= -190.0);
    }
}

#[test]
fn single_pe_engine_handles_a_whole_generation() {
    let config = NeatConfig::builder(3, 1).pop_size(12).build().unwrap();
    let mut rng = XorWow::seed_from_u64_value(3);
    let mut genomes: Vec<Genome> = (0..12u64)
        .map(|k| Genome::initial(k, &config, &mut rng))
        .collect();
    for (i, g) in genomes.iter_mut().enumerate() {
        g.set_fitness(i as f64);
    }
    let mut species = SpeciesSet::new();
    let plans = select_parents(&genomes, &mut species, &config, 0, &mut rng);
    let schedule = allocate_pes(&plans, 1, AllocPolicy::Greedy);
    let mut engine = EveEngine::new(1, PeConfig::from_neat(&config, 5), NocKind::PointToPoint, 4);
    let mut buffer = GenomeBuffer::new(SramConfig::default());
    let mut key = 100;
    let report = engine.reproduce(&genomes, &plans, &schedule, &mut buffer, &mut key);
    assert_eq!(report.children.len(), 12);
    let non_elite = plans.iter().filter(|p| !p.is_elite).count();
    assert_eq!(report.rounds, non_elite, "one PE = one child per round");
}

/// A serial session on a fresh population of `config` seeded `seed`.
fn session<F>(config: NeatConfig, seed: u64, fitness: F) -> Session<F, Population>
where
    F: Fn(EvalContext, &Network) -> f64 + Sync,
{
    Session::on(Population::new(config, seed), seed)
        .workload(fitness)
        .build()
}

#[test]
fn tiny_population_of_two_survives_many_generations() {
    let config = NeatConfig::builder(2, 1)
        .pop_size(2)
        .elitism(1)
        .min_species_size(1)
        .build()
        .unwrap();
    let mut pop = session(config, 5, |_, net| net.activate(&[0.5, 0.5])[0]);
    for _ in 0..30 {
        let stats = pop.step();
        assert_eq!(pop.genomes().count(), 2);
        assert!(stats.max_fitness.is_finite());
    }
}

#[test]
fn soc_with_one_pe_and_one_genome_per_species_runs() {
    let neat = NeatConfig::builder(4, 1)
        .pop_size(4)
        .elitism(1)
        .min_species_size(1)
        .build()
        .unwrap();
    let soc = GenesysSoc::new(SocConfig::default().with_num_eve_pes(1), neat, 6);
    let mut soc = Session::on(soc, 6)
        .workload(EpisodeEvaluator::new(EnvKind::CartPole))
        .build();
    for _ in 0..3 {
        soc.step();
        assert_eq!(soc.genomes().count(), 4);
        assert!(soc.backend().last_report().unwrap().evolution.rounds >= 1);
    }
}

#[test]
fn extreme_mutation_rates_never_break_invariants() {
    let config = NeatConfig::builder(3, 2)
        .pop_size(10)
        .conn_add_prob(1.0)
        .conn_delete_prob(1.0)
        .node_add_prob(1.0)
        .node_delete_prob(1.0)
        .weight_mutate_rate(1.0)
        .build()
        .unwrap();
    let mut pop = session(config, 7, |_, net| {
        net.activate(&[0.1, 0.2, 0.3]).iter().sum()
    });
    for _ in 0..15 {
        pop.step();
        for g in pop.genomes() {
            assert!(g.validate().is_ok());
        }
    }
}

#[test]
fn zero_structural_mutation_preserves_minimal_topology() {
    let config = NeatConfig::builder(3, 1)
        .pop_size(10)
        .conn_add_prob(0.0)
        .conn_delete_prob(0.0)
        .node_add_prob(0.0)
        .node_delete_prob(0.0)
        .build()
        .unwrap();
    let mut pop = session(config, 8, |_, net| net.activate(&[0.1, 0.2, 0.3])[0]);
    pop.run(10);
    for g in pop.genomes() {
        assert_eq!(g.num_nodes(), 4, "weights-only evolution keeps topology");
        assert_eq!(g.num_conns(), 3);
    }
}

#[test]
fn genome_buffer_capacity_matches_atari_working_set() {
    // Paper claim: the 1.5 MB buffer holds every workload's generation.
    // Our biggest initial working set: pop 150 Atari = 150 × 257 genes.
    let sram = SramConfig::default();
    let atari_generation_words = 150 * 257 * 2; // parents + children
    assert!(
        atari_generation_words < sram.capacity_words(),
        "{} words must fit in {}",
        atari_generation_words,
        sram.capacity_words()
    );
}
