//! Megapopulation hot paths at `--pop 10_000` scale: the geometric-skip
//! attribute-mutation sweep (O(mutations) instead of O(genes)), capped
//! speciation through the blocked columnar scan, population packing into
//! a [`PopulationArena`], and the lockstep population lanes
//! ([`LaneNetworks`]) against the scalar activation. These are the paths
//! the megapopulation refactor exists for; the bench-regression gate keeps
//! them from quietly sliding back to per-gene costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genesys_neat::trace::OpCounters;
use genesys_neat::{
    Genome, InnovationTracker, LaneNetworks, NeatConfig, Network, PopulationArena, Scratch,
    SpeciesSet, XorWow, LANES,
};

const POP: usize = 10_000;

/// A structurally diverged megapopulation with fitness assigned — the
/// state the mutation and speciation sweeps start from.
fn megapopulation(pop: usize) -> (Vec<Genome>, NeatConfig) {
    let c = NeatConfig::builder(6, 2).pop_size(pop).build().unwrap();
    let mut rng = XorWow::seed_from_u64_value(42);
    let mut innov = InnovationTracker::new(c.first_hidden_id());
    let mut ops = OpCounters::new();
    let mut genomes: Vec<Genome> = (0..pop as u64)
        .map(|k| Genome::initial(k, &c, &mut rng))
        .collect();
    for (i, g) in genomes.iter_mut().enumerate() {
        if i % 5 == 0 {
            for _ in 0..3 {
                g.mutate_add_node(&mut innov, &mut rng, &mut ops);
                g.mutate_attributes(&c, &mut rng, &mut ops);
            }
        }
        g.set_fitness(((i * 37 + 11) % 29) as f64);
    }
    (genomes, c)
}

/// An evolved policy net for the activation kernels (4 in, 1 out, hidden
/// structure from a few add-node/add-conn rounds).
fn evolved_net() -> Network {
    let c = NeatConfig::builder(4, 1).build().unwrap();
    let mut rng = XorWow::seed_from_u64_value(11);
    let mut innov = InnovationTracker::new(c.first_hidden_id());
    let mut ops = OpCounters::new();
    let mut g = Genome::initial(0, &c, &mut rng);
    for _ in 0..5 {
        g.mutate_add_node(&mut innov, &mut rng, &mut ops);
        g.mutate_add_conn(&mut rng, &mut ops);
        g.mutate_attributes(&c, &mut rng, &mut ops);
    }
    Network::from_genome(&g).expect("mutated genome stays acyclic")
}

fn bench_megapop(c: &mut Criterion) {
    let mut group = c.benchmark_group("megapop");
    let (mut genomes, config) = megapopulation(POP);

    // Geometric-skip attribute mutation across the whole population.
    group.bench_with_input(BenchmarkId::new("mutate", POP), &POP, |b, _| {
        let mut rng = XorWow::seed_from_u64_value(7);
        let mut ops = OpCounters::new();
        b.iter(|| {
            for g in &mut genomes {
                g.mutate_attributes(&config, &mut rng, &mut ops);
            }
        });
    });

    // Capped speciation (representative cap 64) over the megapopulation:
    // at this size every genome takes the blocked `RepColumns` scan.
    group.bench_with_input(BenchmarkId::new("speciate", POP), &POP, |b, _| {
        let mut species = SpeciesSet::new();
        species.speciate(&genomes, &config, 0);
        b.iter(|| {
            species.speciate(&genomes, &config, 1);
        });
    });

    // Packing every genome's gene clusters into the flat arena.
    group.bench_with_input(BenchmarkId::new("arena_pack", POP), &POP, |b, _| {
        let mut arena = PopulationArena::new();
        b.iter(|| {
            arena.pack(genomes.iter());
            arena.total_genes()
        });
    });

    // One policy net evaluated POP times: scalar activation vs the
    // lockstep lanes at 16 lanes. Identical arithmetic per lane, so min
    // times are directly comparable.
    let net = evolved_net();
    let obs: Vec<f64> = (0..POP * 4).map(|i| (i % 97) as f64 / 97.0).collect();

    group.bench_with_input(BenchmarkId::new("activate_scalar", POP), &POP, |b, _| {
        let mut scratch = Scratch::new();
        let mut out = [0.0f64; 1];
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..POP {
                net.activate_into(&mut scratch, &obs[i * 4..(i + 1) * 4], &mut out);
                acc += out[0];
            }
            acc
        });
    });

    group.bench_with_input(BenchmarkId::new("activate_lanes16", POP), &POP, |b, _| {
        // The same net in every lane, loaded once, as a lane stepper loads
        // each genome once for its whole episode.
        let mut lanes = LaneNetworks::new();
        for l in 0..LANES {
            lanes.load(l, &net);
        }
        b.iter(|| {
            let mut acc = 0.0;
            // One activation per 16 consecutive observations, each written
            // into its lane's input slots.
            for inputs in obs.chunks_exact(4 * LANES) {
                for (l, input) in inputs.chunks_exact(4).enumerate() {
                    lanes.input_slots(l).copy_from_slice(input);
                }
                lanes.activate(LANES);
                acc += (0..LANES).map(|l| lanes.output(l, 0)).sum::<f64>();
            }
            acc
        });
    });

    group.finish();
}

criterion_group!(benches, bench_megapop);
criterion_main!(benches);
