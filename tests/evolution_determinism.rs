//! The evolution-phase determinism contract, end to end: one full
//! generation (`Session::step` on a `Population`) — evaluation, parallel
//! speciation, parallel plan/execute reproduction, serial innovation
//! assignment — must be **bit-identical** at any worker count, and the
//! two-pass innovation assignment must match the direct serial tracker
//! path on arbitrary genomes.

use genesys::neat::reproduction::{child_seed, plan_offspring, ChildKind};
use genesys::neat::trace::OpCounters;
use genesys::neat::{
    EvalContext, Executor, Genome, InnovationTracker, NeatConfig, Network, NodeId, Population,
    Session, SessionBuilder, SpeciesSet, SplitRecorder, XorWow,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A cheap, index-seeded fitness so every genome gets a distinct,
/// deterministic score regardless of evaluation order.
fn indexed_fitness(ctx: EvalContext, net: &Network) -> f64 {
    let index = ctx.index as usize;
    let inputs: Vec<f64> = (0..net.num_inputs())
        .map(|i| ((index + i) % 7) as f64 * 0.3 - 0.9)
        .collect();
    net.activate(&inputs).iter().sum::<f64>() + (index % 13) as f64 * 1e-3
}

fn config(pop: usize) -> NeatConfig {
    NeatConfig::builder(4, 2)
        .pop_size(pop)
        .build()
        .expect("valid config")
}

/// A session builder on a fresh population of `pop` seeded `seed`.
fn on(pop: usize, seed: u64) -> SessionBuilder<Population> {
    Session::on(Population::new(config(pop), seed), seed)
}

fn species_fingerprint(species: &SpeciesSet) -> Vec<(u32, Vec<usize>, u64, usize)> {
    species
        .iter()
        .map(|s| {
            (
                s.id.0,
                s.members.clone(),
                s.adjusted_fitness.to_bits(),
                s.representative.num_genes(),
            )
        })
        .collect()
}

/// Each generation produces bit-identical genomes, species and traces
/// at 1, 4 and 8 workers — the acceptance test of the staged pipeline.
#[test]
fn evolve_once_bit_identical_at_1_4_8_workers() {
    const GENERATIONS: usize = 6;
    let run = |workers: Option<usize>| {
        let mut builder = on(48, 2024).workload(indexed_fitness);
        if let Some(w) = workers {
            builder = builder.executor(Arc::new(Executor::new(w)));
        }
        let mut session = builder.build();
        let mut traces = Vec::new();
        for _ in 0..GENERATIONS {
            session.step();
            traces.push(session.backend().last_trace().expect("reproduced").clone());
        }
        let genomes: Vec<Genome> = session.genomes().cloned().collect();
        (
            genomes,
            species_fingerprint(session.backend().species()),
            traces,
        )
    };

    let (serial_genomes, serial_species, serial_traces) = run(None);
    for workers in [1usize, 4, 8] {
        let (genomes, species, traces) = run(Some(workers));
        assert_eq!(
            serial_genomes, genomes,
            "genomes diverged at {workers} workers"
        );
        assert_eq!(
            serial_species, species,
            "species diverged at {workers} workers"
        );
        assert_eq!(
            serial_traces, traces,
            "traces diverged at {workers} workers"
        );
    }
}

/// Same-seed populations stay in lockstep even when one runs serial and
/// the other shares a pool across generations (pool reuse must not leak
/// state between batches).
#[test]
fn shared_pool_across_generations_stays_in_lockstep() {
    let pool = Arc::new(Executor::new(4));
    let mut serial = on(32, 7).workload(indexed_fitness).build();
    let mut parallel = on(32, 7)
        .workload(indexed_fitness)
        .executor(Arc::clone(&pool))
        .build();
    for generation in 0..5 {
        let a = serial.step();
        let b = parallel.step();
        assert_eq!(a.max_fitness.to_bits(), b.max_fitness.to_bits());
        assert_eq!(a.total_genes, b.total_genes);
        assert_eq!(a.ops, b.ops, "generation {generation}");
        assert!(
            serial.genomes().eq(parallel.genomes()),
            "generation {generation}"
        );
    }
    assert_eq!(pool.threads_spawned(), 4, "no hidden thread growth");
}

/// The planning pass is a pure function of `(population, rng, seeds)`:
/// replaying it yields the identical plan, and every child kind maps onto
/// a buildable slot.
#[test]
fn plan_offspring_replays_identically() {
    let c = config(40);
    let mut rng = XorWow::seed_from_u64_value(5);
    let mut genomes: Vec<Genome> = (0..40u64)
        .map(|k| Genome::initial(k, &c, &mut rng))
        .collect();
    for (i, g) in genomes.iter_mut().enumerate() {
        g.set_fitness((i % 9) as f64);
    }
    let mut species = SpeciesSet::new();
    species.speciate(&genomes, &c, 0);
    species.share_fitness(&genomes);

    let plan_once = || {
        let mut r = XorWow::seed_from_u64_value(11);
        let mut key = 100;
        plan_offspring(&genomes, &species, &c, &mut r, 4, &mut key, 77)
    };
    let a = plan_once();
    let b = plan_once();
    assert_eq!(a, b);
    assert_eq!(a.len(), 40);
    for p in &a {
        assert_eq!(p.seed, child_seed(77, 4, p.child_index as u64));
        if p.kind == ChildKind::Crossover {
            assert!(
                genomes[p.parent1].fitness() >= genomes[p.parent2].fitness(),
                "parent1 must be the fitter crossover parent"
            );
        } else {
            assert_eq!(p.parent1, p.parent2, "asexual kinds have one parent");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two-pass innovation assignment (per-child `SplitRecorder` with
    /// provisional ids + serial resolution through the tracker) produces
    /// **bit-identical genomes and tracker state** to the old serial path
    /// that mutated against the global tracker directly, on arbitrarily
    /// evolved genomes.
    #[test]
    fn planned_innovation_assignment_matches_direct_serial_path(
        seed in any::<u64>(),
        warmup in 0usize..25,
        mutations in 1usize..12,
    ) {
        let mut c = config(8);
        // Make structural ops likely so splits actually happen.
        c.node_add_prob = 0.6;
        c.conn_add_prob = 0.5;
        c.node_delete_prob = 0.2;
        c.conn_delete_prob = 0.2;
        let mut rng = XorWow::seed_from_u64_value(seed);
        let mut tracker_a = InnovationTracker::new(c.first_hidden_id());
        let mut genome = Genome::initial(0, &c, &mut rng);
        let mut ops = OpCounters::new();
        for _ in 0..warmup {
            genome.mutate(&c, &mut tracker_a, &mut rng, &mut ops);
        }
        tracker_a.begin_generation();
        let mut tracker_b = tracker_a.clone();

        // Path A: the old serial semantics — mutate straight against the
        // global tracker.
        let mut direct = genome.clone();
        let mut rng_a = XorWow::seed_from_u64_value(seed ^ 0xD1CE);
        let mut ops_a = OpCounters::new();
        for _ in 0..mutations {
            direct.mutate(&c, &mut tracker_a, &mut rng_a, &mut ops_a);
        }

        // Path B: the staged semantics — record splits against provisional
        // ids, then resolve through the tracker in request order.
        let mut staged = genome.clone();
        let mut rng_b = XorWow::seed_from_u64_value(seed ^ 0xD1CE);
        let mut ops_b = OpCounters::new();
        let mut recorder = SplitRecorder::new();
        for _ in 0..mutations {
            staged.mutate(&c, &mut recorder, &mut rng_b, &mut ops_b);
        }
        let map: Vec<(NodeId, NodeId)> = recorder
            .into_requests()
            .into_iter()
            .map(|(key, provisional)| (provisional, tracker_b.node_for_split(key)))
            .collect();
        staged.remap_new_nodes(&map);

        prop_assert_eq!(&direct, &staged);
        prop_assert_eq!(ops_a, ops_b);
        prop_assert_eq!(tracker_a.next_node_id(), tracker_b.next_node_id());
        prop_assert!(staged.validate().is_ok());
    }

    /// Full staged reproduction agrees with itself across worker counts on
    /// random populations (random sizes, fitness landscapes and seeds).
    #[test]
    fn staged_reproduction_worker_invariant_on_random_populations(
        seed in any::<u64>(),
        pop in 6usize..40,
        workers in 2usize..6,
    ) {
        let c = config(pop);
        let mut rng = XorWow::seed_from_u64_value(seed);
        let mut genomes: Vec<Genome> = (0..pop as u64)
            .map(|k| Genome::initial(k, &c, &mut rng))
            .collect();
        let mut innov_seed = InnovationTracker::new(c.first_hidden_id());
        let mut ops = OpCounters::new();
        for (i, g) in genomes.iter_mut().enumerate() {
            if i % 3 == 0 {
                g.mutate(&c, &mut innov_seed, &mut rng, &mut ops);
            }
            g.set_fitness(((i * 31 + 7) % 11) as f64);
        }
        let mut species = SpeciesSet::new();
        species.speciate(&genomes, &c, 0);
        species.share_fitness(&genomes);

        let run = |pool: Option<&Executor>| {
            let mut innov = InnovationTracker::new(innov_seed.next_node_id());
            let mut r = XorWow::seed_from_u64_value(seed ^ 0xBEEF);
            let mut key = 10_000;
            let mut offspring = Vec::new();
            let trace = genesys::neat::reproduction::reproduce_into(
                &genomes, &species, &c, &mut innov, &mut r, 0, &mut key, seed, pool,
                &mut offspring,
            );
            (offspring, trace)
        };
        let (serial, serial_trace) = run(None);
        let pool = Executor::new(workers);
        let (parallel, parallel_trace) = run(Some(&pool));
        prop_assert_eq!(serial, parallel);
        prop_assert_eq!(serial_trace, parallel_trace);
    }
}
