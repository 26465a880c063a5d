//! Blocked-vs-exact speciation A/B, end to end: the blocked columnar
//! scan (what the default `speciate_exact = false` runs at 128 genomes
//! and up) must produce **bit-identical** evolution — genomes, species
//! membership, representatives, RNG streams — to the scalar reference
//! scan (`speciate_exact = true`), at every worker count, on both the
//! monolithic and the archipelago backend, and on the monolithic one it
//! must consume exactly as many candidate distances each generation.
//! The same holds on populations carrying NaN and ±∞ genes. The blocked
//! scan is a pure acceleration;
//! any divergence here means a `RepColumns` lane scored a candidate
//! differently from the scalar kernel.
//!
//! Configs deliberately differ between the two arms (the `speciate_exact`
//! flag itself), so the comparisons cover everything *except* the config:
//! never compare exported states wholesale here.

use genesys::neat::trace::OpCounters;
use genesys::neat::{
    ConnGene, EvalContext, Executor, Genome, InnovationTracker, NeatConfig, Network, NodeGene,
    Population, Session, SpeciesSet, XorWow,
};
use std::sync::Arc;

const GENERATIONS: usize = 8;

fn config(pop: usize, exact: bool) -> NeatConfig {
    NeatConfig::builder(4, 2)
        .pop_size(pop)
        .node_add_prob(0.4)
        .conn_add_prob(0.4)
        .speciate_exact(exact)
        .build()
        .expect("valid config")
}

/// Index-seeded fitness: deterministic and order-independent.
fn indexed_fitness(ctx: EvalContext, net: &Network) -> f64 {
    let index = ctx.index as usize;
    let inputs: Vec<f64> = (0..net.num_inputs())
        .map(|i| ((index + i) % 7) as f64 * 0.3 - 0.9)
        .collect();
    net.activate(&inputs).iter().sum::<f64>() + (index % 13) as f64 * 1e-3
}

/// Per-species digest: identity, membership, shared fitness bits, and
/// the retained representative genome.
type SpeciesFingerprint = (u32, Vec<usize>, u64, Genome);

/// Per-island digest: genomes, RNG stream state, and the key counter.
type IslandFingerprint = (Vec<Genome>, ([u32; 5], u32), u64);

/// Everything speciation decides, per species: identity, membership,
/// shared fitness bits, and the retained representative genome.
fn species_fingerprint(pop: &Population) -> Vec<SpeciesFingerprint> {
    pop.species()
        .iter()
        .map(|s| {
            (
                s.id.0,
                s.members.clone(),
                s.adjusted_fitness.to_bits(),
                s.representative.clone(),
            )
        })
        .collect()
}

/// Final genomes, final species, and each generation's count of
/// candidate distances the speciation scan consumed.
type MonolithicRun = (Vec<Genome>, Vec<SpeciesFingerprint>, Vec<u64>);

fn run_monolithic(exact: bool, workers: Option<usize>) -> MonolithicRun {
    // Populations below the blocked-scan cutoff (128) take the scalar scan
    // in both arms; 192 keeps the default arm on the blocked path so the
    // A/B actually exercises the columnar kernel.
    let mut builder =
        Session::on(Population::new(config(192, exact), 2024), 2024).workload(indexed_fitness);
    if let Some(w) = workers {
        builder = builder.executor(Arc::new(Executor::new(w)));
    }
    let mut session = builder.build();
    let mut distances = Vec::with_capacity(GENERATIONS);
    for _ in 0..GENERATIONS {
        session.step();
        distances.push(session.backend().species().scan_stats().exact);
    }
    let pop = session.backend();
    (pop.genomes().to_vec(), species_fingerprint(pop), distances)
}

/// Monolithic backend: blocked ≡ exact at serial, 1, 4 and 8 workers,
/// down to the number of candidate distances each generation consumed —
/// the blocked scan may not score more candidates than the scalar one.
#[test]
fn pruned_speciation_is_bit_identical_monolithic_1_4_8_workers() {
    let (ref_genomes, ref_species, ref_distances) = run_monolithic(true, None);
    assert!(ref_distances.iter().all(|&n| n > 0));
    for workers in [None, Some(1), Some(4), Some(8)] {
        for exact in [true, false] {
            let (genomes, species, distances) = run_monolithic(exact, workers);
            assert_eq!(
                ref_genomes, genomes,
                "genomes diverged (exact={exact}, workers={workers:?})"
            );
            assert_eq!(
                ref_species, species,
                "species diverged (exact={exact}, workers={workers:?})"
            );
            assert_eq!(
                ref_distances, distances,
                "per-generation distance counts diverged (exact={exact}, workers={workers:?})"
            );
        }
    }
}

fn run_archipelago(exact: bool, workers: Option<usize>) -> Vec<IslandFingerprint> {
    // 3 islands × 144 genomes: each island's population stays above the
    // blocked-scan cutoff (128), so per-island speciation runs the blocked
    // scan in the non-exact arm.
    let config = NeatConfig::builder(3, 1)
        .pop_size(432)
        .islands(3)
        .migration_interval(2)
        .migration_k(1)
        .node_add_prob(0.5)
        .conn_add_prob(0.5)
        .speciate_exact(exact)
        .build()
        .expect("valid config");
    let fitness = |ctx: EvalContext, net: &Network| {
        let x = (ctx.seed() % 17) as f64 / 17.0;
        net.activate(&[x, 0.5, 1.0 - x])[0]
    };
    let mut builder = Session::builder(config, 99).expect("valid session");
    if let Some(w) = workers {
        builder = builder.executor(Arc::new(Executor::new(w)));
    }
    let mut session = builder.workload(fitness).build();
    session.run(GENERATIONS);
    let state = session.export_state();
    let state = state.as_archipelago().expect("archipelago backend");
    state
        .islands
        .iter()
        .map(|island| (island.genomes.clone(), island.rng_state, island.next_key))
        .collect()
}

/// Archipelago backend (3 islands, mid-schedule ring migration): blocked
/// ≡ exact at serial, 1, 4 and 8 workers, down to each island's RNG
/// stream — migration re-speciates migrants, so a scan divergence would
/// compound across islands.
#[test]
fn pruned_speciation_is_bit_identical_archipelago_1_4_8_workers() {
    let reference = run_archipelago(true, None);
    for workers in [None, Some(1), Some(4), Some(8)] {
        for exact in [true, false] {
            let islands = run_archipelago(exact, workers);
            assert_eq!(
                reference, islands,
                "island states diverged (exact={exact}, workers={workers:?})"
            );
        }
    }
}

/// Overwrites some of a genome's attributes with non-finite values.
type Poison = fn(&mut [NodeGene], &mut [ConnGene]);

/// A 200-genome population (above the blocked-scan cutoff) in which
/// every `period`-th genome is rebuilt with `poison` applied to its genes.
fn poisoned_population(config: &NeatConfig, seed: u64, period: u64, poison: Poison) -> Vec<Genome> {
    let mut rng = XorWow::seed_from_u64_value(seed);
    let mut innov = InnovationTracker::new(config.first_hidden_id());
    let mut ops = OpCounters::new();
    (0..200u64)
        .map(|k| {
            let mut g = Genome::initial(k, config, &mut rng);
            for _ in 0..k % 7 {
                innov.begin_generation();
                g.mutate(config, &mut innov, &mut rng, &mut ops);
            }
            if !k.is_multiple_of(period) {
                return g;
            }
            let mut nodes = g.node_genes().to_vec();
            let mut conns = g.conn_genes().to_vec();
            poison(&mut nodes, &mut conns);
            Genome::from_parts(k, g.num_inputs(), g.num_outputs(), nodes, conns)
                .expect("poisoning attributes keeps the structure valid")
        })
        .collect()
}

/// Species ids, member lists and representative keys (genome keys are
/// unique, so the key names the representative; `Genome` equality would
/// fail on NaN genes), plus the call's distance count.
fn species_digest(set: &SpeciesSet) -> (Vec<(u32, Vec<usize>, u64)>, u64) {
    let species = set
        .iter()
        .map(|s| (s.id.0, s.members.clone(), s.representative.key()))
        .collect();
    (species, set.scan_stats().exact)
}

/// NaN and ±∞ weights and biases: distances to a poisoned genome are NaN
/// or infinite, so matching, nearest-candidate ties, founder self-distances
/// and representative re-election all run on non-finite values. The
/// blocked scan (serial and pooled) must agree with the scalar oracle over
/// two calls — the second scores every genome against representatives
/// packed into `RepColumns`, poisoned ones included.
#[test]
fn nonfinite_genes_speciate_identically_blocked_and_exact() {
    let poisons: [(u64, Poison); 3] = [
        (9, |_, conns| conns[0].weight = f64::NAN),
        (13, |nodes, _| {
            nodes.last_mut().expect("non-empty").bias = f64::INFINITY
        }),
        (17, |nodes, conns| {
            conns.last_mut().expect("non-empty").weight = f64::NEG_INFINITY;
            nodes.last_mut().expect("non-empty").bias = f64::NAN;
        }),
    ];
    let pool = Executor::new(4);
    for (period, poison) in poisons {
        let mut digests = Vec::new();
        for (exact, pool) in [(true, None), (false, None), (false, Some(&pool))] {
            let config = NeatConfig::builder(4, 2)
                .pop_size(200)
                .node_add_prob(0.5)
                .conn_add_prob(0.5)
                .speciate_exact(exact)
                .build()
                .expect("valid config");
            let first = poisoned_population(&config, 5, period, poison);
            let second = poisoned_population(&config, 6, period, poison);
            let mut set = SpeciesSet::new();
            set.speciate_on(&first, &config, 0, pool);
            let call0 = species_digest(&set);
            set.speciate_on(&second, &config, 1, pool);
            assert!(set.len() > 1, "period {period}: the A/B needs candidates");
            digests.push((call0, species_digest(&set)));
        }
        assert_eq!(digests[0], digests[1], "period {period}: serial blocked");
        assert_eq!(digests[0], digests[2], "period {period}: pooled blocked");
    }
}
