//! Reproduction: selection, elitism, offspring allocation, crossover and
//! mutation — the work the GeneSys Gene Selector + EvE perform each
//! generation (walkthrough steps 7–10).
//!
//! # The staged pipeline
//!
//! The paper's central observation is that evolution is embarrassingly
//! parallel: every child can be produced by an independent PE once the
//! selector has decided the parent list. The software path mirrors that
//! structure as a **plan / execute / assign** split:
//!
//! 1. **Plan** ([`plan_offspring`], serial): offspring slots are allocated
//!    per species (elites, crossover pairs, clone-mutate parents, top-up
//!    clones of the global best) and every slot receives a genome key and
//!    a private PRNG seed. This is the software analogue of the CPU-side
//!    Gene Selector forwarding the child list to Gene Split.
//! 2. **Execute** ([`reproduce_into`], parallel): each planned child is
//!    built into its preallocated arena slot as an index-keyed job on the
//!    persistent [`Executor`] — one job per child, exactly like one EvE PE
//!    per child genome. Structural add-node mutations do **not** touch the
//!    global innovation table; they are recorded as *split requests*
//!    against per-child provisional ids
//!    (a [`crate::innovation::SplitRecorder`]).
//! 3. **Assign** (serial): the recorded split requests are resolved through
//!    the global [`InnovationTracker`] in canonical child order and the
//!    provisional ids are remapped, so "same split, same generation, same
//!    node id" holds for the whole population regardless of which worker
//!    built which child.
//!
//! # Determinism contract
//!
//! Reproduction is **bit-identical at any worker count** (including the
//! serial path) because:
//!
//! * All shared-state decisions — offspring allocation, member ranking,
//!   parent draws, keys — happen in the serial plan phase, consuming the
//!   population RNG in a fixed order.
//! * Each child's crossover/mutation randomness comes from a private
//!   [`XorWow`] stream seeded by [`child_seed`]`(base_seed, generation,
//!   child_index)` — a pure function of the child's position, never of
//!   scheduling order, a worker id, or shared counters.
//! * Innovation numbers are assigned by the serial pass in child order
//!   (step 3 above), so the [`InnovationTracker`] observes the identical
//!   request sequence every run.
//!
//! Note the per-child seed derivation *replaces* the single interleaved
//! RNG stream of the pre-pipeline implementation (the same trade the
//! evaluation engine made when per-genome episode seeds replaced the
//! shared seed counter): trajectories differ from that implementation, but
//! are reproducible and worker-count-invariant under the new contract.
//! Ranking ties and NaN fitness break deterministically via
//! [`f64::total_cmp`].
//!
//! The megapopulation refactor made the same trade a third time, inside
//! each child's own stream: `Genome::mutate_attributes` now draws one
//! geometric skip per *hit* instead of one coin flip per *gene* (see
//! `geometric_hits` in [`crate::genome`]). The marginal per-gene mutation
//! probability is unchanged and every per-hit payload draw is the one the
//! coin-flip path made, but the PRNG stream *shape* differs, so child
//! genomes differ bit-for-bit from pre-refactor builds. As before:
//! trajectories are reproducible, worker-count-invariant, and
//! checkpoint/resume-exact under the current contract — the trade buys
//! O(mutations) attribute sweeps instead of O(genes), which is what makes
//! `--pop 10_000..100_000` practical. Speciation's representative cap
//! (`NeatConfig::species_representative_cap`) is the companion trade on
//! the clustering side; see [`crate::species`].
//!
//! The session server (`genesys_serve`) adds **no** new trade: tenants
//! multiplex one executor but each owns a private population RNG keyed by
//! its own `(base_seed, generation, index)` tuples, so cross-tenant
//! scheduling order, eviction/rehydration (a snapshot round-trip), and
//! the resident-cap churn are all invisible to every trajectory — a
//! server-mediated session is byte-identical to a direct [`crate::Session`]
//! run of the same seed at any worker count. The one *semantic* (not
//! determinism) difference: the server's `step(n)` verb runs exactly `n`
//! generations, while `Session::run(n)` may stop early on
//! `target_fitness` — convergence gating is the client's call, made from
//! the observed event stream.
//!
//! The island backend ([`crate::island`]) makes the seed-derivation trade
//! a fourth time, at **epoch granularity**: an [`crate::Archipelago`]
//! splits the run seed into per-island streams via
//! [`crate::island_seed`]`(seed, island)`, and every downstream seed — a
//! genome's evaluation episode, a child's reproduction stream — derives
//! from the island-local `(island_seed, generation, index)` triple
//! instead of the global one. Trajectories therefore differ from a
//! monolithic run of the same seed at `islands > 1` (different islands,
//! different streams), but remain reproducible, worker-count-invariant
//! and checkpoint/resume-exact; migration is RNG-free (fitness-ranked
//! emigrants on a schedule that is a pure function of the generation
//! index), and island 0 keeps the run seed unchanged, so `islands = 1`
//! collapses the trade entirely — bit-identical to the monolithic
//! backend. The buy: islands schedule as whole-generation jobs with no
//! cross-island phase barrier, the multi-worker win quantified by the
//! `islands` bench.

use crate::config::NeatConfig;
use crate::executor::Executor;
use crate::gene::NodeId;
use crate::genome::Genome;
use crate::innovation::{InnovationTracker, SplitRecorder};
use crate::rng::XorWow;
use crate::species::SpeciesSet;
use crate::trace::{ChildTrace, GenerationTrace, OpCounters};

/// Result of one reproduction step.
#[derive(Debug)]
pub struct ReproductionReport {
    /// The next generation's genomes.
    pub offspring: Vec<Genome>,
    /// The reproduction trace (consumed by the hardware model and Fig 5(a)).
    pub trace: GenerationTrace,
}

/// How a planned child is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildKind {
    /// Verbatim copy of `parent1` (skips the EvE PEs entirely).
    Elite,
    /// Crossover of `parent1` (the fitter) and `parent2`, then mutation.
    Crossover,
    /// Clone of `parent1`, then mutation.
    CloneMutate,
    /// Rounding/extinction top-up: clone of the global best, then
    /// mutation.
    TopUp,
}

/// One offspring slot produced by the serial planning pass — everything an
/// executor job (or a hardware PE) needs to build the child independently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildPlan {
    /// Index of the child within the new generation.
    pub child_index: usize,
    /// Index of the first parent (the fitter one for crossover).
    pub parent1: usize,
    /// Index of the second parent (equals `parent1` for asexual kinds).
    pub parent2: usize,
    /// How the child is produced.
    pub kind: ChildKind,
    /// Genome key assigned to the child.
    pub key: u64,
    /// Seed of the child's private PRNG stream (see [`child_seed`]).
    pub seed: u64,
}

/// Derives the seed of one child's private PRNG stream from
/// `(base_seed, generation, child_index)` — a SplitMix64-style mix, the
/// reproduction-phase sibling of `genesys_gym::episode_seed`. Pure in its
/// inputs, so child construction is independent of scheduling order.
pub fn child_seed(base_seed: u64, generation: u64, child_index: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(generation.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(child_index.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Allocates offspring counts to species proportionally to their
/// fitness-shared adjusted fitness, with a floor of
/// `min_species_size.max(elitism)` per species, normalized to `pop_size`.
pub fn allocate_offspring(adjusted: &[f64], pop_size: usize, min_size: usize) -> Vec<usize> {
    if adjusted.is_empty() {
        return Vec::new();
    }
    let total: f64 = adjusted.iter().sum();
    let mut alloc: Vec<usize> = if total <= 0.0 {
        // Degenerate: share equally.
        vec![(pop_size / adjusted.len()).max(min_size); adjusted.len()]
    } else {
        adjusted
            .iter()
            .map(|af| ((af / total) * pop_size as f64).round() as usize)
            .map(|n| n.max(min_size))
            .collect()
    };
    // Normalize the rounded total back to exactly pop_size: trim from the
    // largest allocations, pad the smallest.
    loop {
        let sum: usize = alloc.iter().sum();
        if sum == pop_size {
            break;
        }
        if sum > pop_size {
            let i = alloc
                .iter()
                .enumerate()
                .max_by_key(|&(_, &n)| n)
                .map(|(i, _)| i)
                .expect("non-empty");
            if alloc[i] > min_size {
                alloc[i] -= 1;
            } else {
                // Every species is at the floor; steal anyway to respect
                // pop_size exactly.
                alloc[i] = alloc[i].saturating_sub(1);
            }
        } else {
            let i = alloc
                .iter()
                .enumerate()
                .min_by_key(|&(_, &n)| n)
                .map(|(i, _)| i)
                .expect("non-empty");
            alloc[i] += 1;
        }
    }
    alloc
}

/// The serial planning pass: allocates every offspring slot of the next
/// generation from an evaluated, speciated population.
///
/// Within each species, members are ranked by raw fitness; the top
/// [`NeatConfig::elitism`] genomes become [`ChildKind::Elite`] slots, and
/// the top [`NeatConfig::survival_threshold`] fraction form the parent pool
/// ("only individuals above a certain fitness threshold are allowed to
/// participate in reproduction"). Remaining slots draw two parents from the
/// pool and become [`ChildKind::Crossover`] (probability
/// [`NeatConfig::crossover_prob`], distinct parents) or
/// [`ChildKind::CloneMutate`]. If rounding or extinction leaves the plan
/// short, [`ChildKind::TopUp`] slots clone the global best. Keys are
/// assigned sequentially from `next_key` and per-child seeds via
/// [`child_seed`] from `base_seed`.
///
/// This is also the planning step of `genesys-core`'s hardware selector:
/// the returned slots map 1:1 onto its PE mating plans.
pub fn plan_offspring(
    genomes: &[Genome],
    species: &SpeciesSet,
    config: &NeatConfig,
    rng: &mut XorWow,
    generation: usize,
    next_key: &mut u64,
    base_seed: u64,
) -> Vec<ChildPlan> {
    let adjusted: Vec<f64> = species.iter().map(|s| s.adjusted_fitness).collect();
    let floor = config.min_species_size.max(config.elitism);
    let alloc = allocate_offspring(&adjusted, config.pop_size, floor);

    let mut plans: Vec<ChildPlan> = Vec::with_capacity(config.pop_size);
    let push = |plans: &mut Vec<ChildPlan>,
                next_key: &mut u64,
                parent1: usize,
                parent2: usize,
                kind: ChildKind| {
        let child_index = plans.len();
        plans.push(ChildPlan {
            child_index,
            parent1,
            parent2,
            kind,
            key: *next_key,
            seed: child_seed(base_seed, generation as u64, child_index as u64),
        });
        *next_key += 1;
    };

    for (s, &spawn) in species.iter().zip(alloc.iter()) {
        if spawn == 0 {
            continue;
        }
        // Rank members by raw fitness, best first (NaN-tolerant).
        let mut ranked: Vec<usize> = s.members.clone();
        ranked.sort_by(|&a, &b| {
            let fa = genomes[a].fitness().unwrap_or(f64::NEG_INFINITY);
            let fb = genomes[b].fitness().unwrap_or(f64::NEG_INFINITY);
            fb.total_cmp(&fa)
        });

        // Elites pass through unchanged.
        let elites = config.elitism.min(spawn);
        for &elite_idx in ranked.iter().take(elites) {
            push(&mut plans, next_key, elite_idx, elite_idx, ChildKind::Elite);
        }

        // Parent pool: the surviving top fraction, at least two if possible.
        let pool_size = ((ranked.len() as f64 * config.survival_threshold).ceil() as usize)
            .clamp(1, ranked.len());
        let pool = &ranked[..pool_size.max(2.min(ranked.len()))];

        for _ in elites..spawn {
            let p1 = pool[rng.below(pool.len())];
            let p2 = pool[rng.below(pool.len())];
            let sexual = p1 != p2 && rng.chance(config.crossover_prob);
            if sexual {
                // Order parents by fitness: parent1 must be the fitter one.
                let (hi, lo) = if genomes[p1].fitness() >= genomes[p2].fitness() {
                    (p1, p2)
                } else {
                    (p2, p1)
                };
                push(&mut plans, next_key, hi, lo, ChildKind::Crossover);
            } else {
                push(&mut plans, next_key, p1, p1, ChildKind::CloneMutate);
            }
        }
    }

    // Guard against rounding leaving us short (e.g. all species died):
    // top-up by mutating clones of the global best.
    if plans.len() < config.pop_size {
        let best = genomes
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.fitness()
                    .unwrap_or(f64::NEG_INFINITY)
                    .total_cmp(&b.fitness().unwrap_or(f64::NEG_INFINITY))
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        while plans.len() < config.pop_size {
            push(&mut plans, next_key, best, best, ChildKind::TopUp);
        }
    }
    plans.truncate(config.pop_size);
    plans
}

/// Per-child result of the parallel execute phase.
struct ChildOutcome {
    /// `(split key, provisional id)` requests, allocation order.
    requests: Vec<(crate::gene::ConnKey, NodeId)>,
    /// Operation tallies for the trace.
    ops: OpCounters,
    /// Parent gene pairs streamed through the PE for this child.
    genes_streamed: u64,
}

/// Produces the next generation from an evaluated, speciated population,
/// writing the children into `offspring` (an arena of recycled genome
/// shells: existing entries are overwritten in place, reusing their gene
/// buffers; the vector is resized to exactly `pop_size`).
///
/// When `pool` is given, children are built in parallel as index-keyed
/// executor jobs; results are bit-identical to the serial path (see the
/// module-level determinism contract). Returns the generation trace.
#[allow(clippy::too_many_arguments)]
pub fn reproduce_into(
    genomes: &[Genome],
    species: &SpeciesSet,
    config: &NeatConfig,
    innovations: &mut InnovationTracker,
    rng: &mut XorWow,
    generation: usize,
    next_key: &mut u64,
    base_seed: u64,
    pool: Option<&Executor>,
    offspring: &mut Vec<Genome>,
) -> GenerationTrace {
    innovations.begin_generation();

    // ---- Phase 1: serial planning --------------------------------------
    let plan = plan_offspring(
        genomes, species, config, rng, generation, next_key, base_seed,
    );

    // ---- Phase 2: parallel execute into the arena ----------------------
    offspring.truncate(plan.len());
    offspring.resize_with(plan.len(), Genome::shell);
    let build = |i: usize, slot: &mut Genome| -> ChildOutcome {
        let p = &plan[i];
        let mut ops = OpCounters::new();
        match p.kind {
            ChildKind::Elite => {
                slot.clone_from(&genomes[p.parent1]);
                slot.set_key(p.key);
                ChildOutcome {
                    requests: Vec::new(),
                    ops,
                    genes_streamed: genomes[p.parent1].num_genes() as u64,
                }
            }
            ChildKind::Crossover => {
                let mut crng = XorWow::seed_from_u64_value(p.seed);
                let mut recorder = SplitRecorder::new();
                Genome::crossover_into(
                    slot,
                    p.key,
                    &genomes[p.parent1],
                    &genomes[p.parent2],
                    0.5,
                    &mut crng,
                    &mut ops,
                );
                slot.mutate(config, &mut recorder, &mut crng, &mut ops);
                ChildOutcome {
                    requests: recorder.into_requests(),
                    ops,
                    genes_streamed: genomes[p.parent1]
                        .num_genes()
                        .max(genomes[p.parent2].num_genes())
                        as u64,
                }
            }
            ChildKind::CloneMutate | ChildKind::TopUp => {
                let mut crng = XorWow::seed_from_u64_value(p.seed);
                let mut recorder = SplitRecorder::new();
                slot.clone_from(&genomes[p.parent1]);
                slot.set_key(p.key);
                // A cloned child still streams through the PE (its genes
                // are "crossed" with themselves in hardware terms).
                ops.crossover += slot.num_genes() as u64;
                slot.mutate(config, &mut recorder, &mut crng, &mut ops);
                let genes_streamed = if p.kind == ChildKind::TopUp {
                    slot.num_genes() as u64
                } else {
                    genomes[p.parent1].num_genes() as u64
                };
                ChildOutcome {
                    requests: recorder.into_requests(),
                    ops,
                    genes_streamed,
                }
            }
        }
    };
    let outcomes: Vec<ChildOutcome> = match pool {
        Some(pool) => pool.map_mut(offspring.as_mut_slice(), build),
        None => offspring
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| build(i, slot))
            .collect(),
    };

    // ---- Phase 3: serial innovation assignment, canonical child order --
    let mut remap: Vec<(NodeId, NodeId)> = Vec::new();
    let mut children: Vec<ChildTrace> = Vec::with_capacity(plan.len());
    for ((p, outcome), slot) in plan.iter().zip(outcomes).zip(offspring.iter_mut()) {
        if !outcome.requests.is_empty() {
            remap.clear();
            for &(key, provisional) in &outcome.requests {
                remap.push((provisional, innovations.node_for_split(key)));
            }
            slot.remap_new_nodes(&remap);
        }
        children.push(ChildTrace {
            child_index: p.child_index,
            parent1: p.parent1,
            parent2: p.parent2,
            genes_streamed: outcome.genes_streamed,
            ops: outcome.ops,
            is_elite: p.kind == ChildKind::Elite,
        });
    }

    GenerationTrace {
        generation,
        children,
    }
}

/// Produces the next generation from an evaluated, speciated population.
///
/// Serial compatibility wrapper over [`reproduce_into`]: allocates a fresh
/// offspring vector and derives the per-child seed base from `rng`. Hot
/// callers ([`crate::Population`]) use `reproduce_into` directly with a
/// recycled arena and an optional executor.
pub fn reproduce(
    genomes: &[Genome],
    species: &SpeciesSet,
    config: &NeatConfig,
    innovations: &mut InnovationTracker,
    rng: &mut XorWow,
    generation: usize,
    next_key: &mut u64,
) -> ReproductionReport {
    let base_seed = (u64::from(rng.next_u32_value()) << 32) | u64::from(rng.next_u32_value());
    let mut offspring = Vec::new();
    let trace = reproduce_into(
        genomes,
        species,
        config,
        innovations,
        rng,
        generation,
        next_key,
        base_seed,
        None,
        &mut offspring,
    );
    ReproductionReport { offspring, trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(
        pop: usize,
    ) -> (
        Vec<Genome>,
        SpeciesSet,
        NeatConfig,
        InnovationTracker,
        XorWow,
    ) {
        let c = NeatConfig::builder(3, 1).pop_size(pop).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(42);
        let mut genomes: Vec<Genome> = (0..pop as u64)
            .map(|k| Genome::initial(k, &c, &mut rng))
            .collect();
        for (i, g) in genomes.iter_mut().enumerate() {
            g.set_fitness(i as f64);
        }
        let mut species = SpeciesSet::new();
        species.speciate(&genomes, &c, 0);
        species.share_fitness(&genomes);
        let innov = InnovationTracker::new(c.first_hidden_id());
        (genomes, species, c, innov, rng)
    }

    #[test]
    fn allocation_sums_to_pop_size() {
        for (adjusted, pop) in [
            (vec![0.5, 0.3, 0.2], 150usize),
            (vec![1.0], 10),
            (vec![0.0, 0.0], 20),
            (vec![0.9, 0.05, 0.03, 0.02], 7),
        ] {
            let alloc = allocate_offspring(&adjusted, pop, 2);
            assert_eq!(alloc.iter().sum::<usize>(), pop, "{adjusted:?}");
        }
    }

    #[test]
    fn allocation_respects_proportionality() {
        let alloc = allocate_offspring(&[0.8, 0.2], 100, 2);
        assert!(alloc[0] > alloc[1]);
    }

    #[test]
    fn reproduce_produces_exactly_pop_size() {
        let (genomes, species, c, mut innov, mut rng) = setup(30);
        let mut key = 1000;
        let report = reproduce(&genomes, &species, &c, &mut innov, &mut rng, 0, &mut key);
        assert_eq!(report.offspring.len(), 30);
        assert_eq!(report.trace.children.len(), 30);
    }

    #[test]
    fn plan_covers_population_with_sequential_keys_and_unique_seeds() {
        let (genomes, species, c, _innov, mut rng) = setup(40);
        let mut key = 500;
        let plan = plan_offspring(&genomes, &species, &c, &mut rng, 3, &mut key, 77);
        assert_eq!(plan.len(), 40);
        assert_eq!(key, 540);
        for (i, p) in plan.iter().enumerate() {
            assert_eq!(p.child_index, i);
            assert_eq!(p.key, 500 + i as u64);
            assert_eq!(p.seed, child_seed(77, 3, i as u64));
        }
        let mut seeds: Vec<u64> = plan.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 40, "per-child seeds must be distinct");
    }

    #[test]
    fn parallel_reproduction_is_bit_identical_to_serial() {
        let (genomes, species, c, _, _) = setup(40);
        let run = |pool: Option<&Executor>| {
            let mut innov = InnovationTracker::new(c.first_hidden_id());
            let mut rng = XorWow::seed_from_u64_value(7);
            let mut key = 1000;
            let mut offspring = Vec::new();
            let trace = reproduce_into(
                &genomes,
                &species,
                &c,
                &mut innov,
                &mut rng,
                0,
                &mut key,
                99,
                pool,
                &mut offspring,
            );
            (offspring, trace, innov.next_node_id())
        };
        let (serial_offspring, serial_trace, serial_next) = run(None);
        for workers in [1usize, 4, 8] {
            let pool = Executor::new(workers);
            let (par_offspring, par_trace, par_next) = run(Some(&pool));
            assert_eq!(serial_offspring, par_offspring, "workers={workers}");
            assert_eq!(serial_trace, par_trace, "workers={workers}");
            assert_eq!(serial_next, par_next, "workers={workers}");
        }
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_buffers() {
        let (genomes, species, c, _, _) = setup(30);
        let run = |offspring: &mut Vec<Genome>| {
            let mut innov = InnovationTracker::new(c.first_hidden_id());
            let mut rng = XorWow::seed_from_u64_value(3);
            let mut key = 0;
            reproduce_into(
                &genomes, &species, &c, &mut innov, &mut rng, 0, &mut key, 5, None, offspring,
            )
        };
        let mut fresh = Vec::new();
        let t1 = run(&mut fresh);
        // Dirty arena: pre-populated with unrelated genomes of odd sizes.
        let mut dirty: Vec<Genome> = genomes.iter().rev().cloned().collect();
        dirty.truncate(17);
        let t2 = run(&mut dirty);
        assert_eq!(fresh, dirty);
        assert_eq!(t1, t2);
    }

    #[test]
    fn elites_are_preserved_verbatim() {
        let (genomes, species, c, mut innov, mut rng) = setup(30);
        let mut key = 1000;
        let report = reproduce(&genomes, &species, &c, &mut innov, &mut rng, 0, &mut key);
        let elite_traces: Vec<&ChildTrace> = report
            .trace
            .children
            .iter()
            .filter(|t| t.is_elite)
            .collect();
        assert!(!elite_traces.is_empty());
        for t in elite_traces {
            let child = &report.offspring[t.child_index];
            let parent = &genomes[t.parent1];
            assert_eq!(child.num_genes(), parent.num_genes());
            assert_eq!(t.ops.total(), 0, "elites bypass the PEs");
        }
    }

    #[test]
    fn children_are_valid_genomes() {
        let (genomes, species, c, mut innov, mut rng) = setup(50);
        let mut key = 0;
        let report = reproduce(&genomes, &species, &c, &mut innov, &mut rng, 0, &mut key);
        for child in &report.offspring {
            assert!(child.validate().is_ok());
        }
    }

    #[test]
    fn trace_records_crossover_work() {
        let (genomes, species, c, mut innov, mut rng) = setup(50);
        let mut key = 0;
        let report = reproduce(&genomes, &species, &c, &mut innov, &mut rng, 0, &mut key);
        let totals = report.trace.totals();
        assert!(totals.crossover > 0, "non-elite children stream genes");
        assert!(
            report.trace.total_ops() > totals.crossover,
            "mutations occurred"
        );
    }

    #[test]
    fn parents_come_from_top_fraction() {
        let (genomes, species, c, mut innov, mut rng) = setup(50);
        let mut key = 0;
        let report = reproduce(&genomes, &species, &c, &mut innov, &mut rng, 0, &mut key);
        // With one species of 50 and survival 0.2, parents are the top 10
        // (fitness 40..49).
        for t in report.trace.children.iter().filter(|t| !t.is_elite) {
            assert!(genomes[t.parent1].fitness().unwrap() >= 40.0);
            assert!(genomes[t.parent2].fitness().unwrap() >= 40.0);
        }
    }

    #[test]
    fn unique_keys_assigned() {
        let (genomes, species, c, mut innov, mut rng) = setup(20);
        let mut key = 500;
        let report = reproduce(&genomes, &species, &c, &mut innov, &mut rng, 0, &mut key);
        let mut keys: Vec<u64> = report.offspring.iter().map(|g| g.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 20, "genome keys must be unique");
        assert!(key >= 520);
    }

    #[test]
    fn reuse_statistic_positive_with_small_pool() {
        let (genomes, species, c, mut innov, mut rng) = setup(60);
        let mut key = 0;
        let report = reproduce(&genomes, &species, &c, &mut innov, &mut rng, 0, &mut key);
        // 60 children from a pool of 12 parents: some parent is reused.
        assert!(report.trace.fittest_parent_reuse() >= 5);
    }

    #[test]
    fn child_seed_is_sensitive_to_every_input() {
        let base = child_seed(1, 2, 3);
        assert_ne!(base, child_seed(2, 2, 3));
        assert_ne!(base, child_seed(1, 3, 3));
        assert_ne!(base, child_seed(1, 2, 4));
        assert_eq!(base, child_seed(1, 2, 3));
    }
}
