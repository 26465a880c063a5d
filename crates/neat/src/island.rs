//! Asynchronous island evolution — dropping the global generation barrier.
//!
//! The megapopulation backend evolves one shared [`Population`]: every
//! generation is a sequence of population-wide phases (evaluate →
//! speciate → reproduce) separated by implicit barriers, so the slowest
//! genome of each phase gates every worker. An [`Archipelago`] removes
//! that barrier by splitting the population into `config.islands`
//! independent islands. Each island is a self-contained evolution unit —
//! its own species set, innovation tracker and RNG stream, seeded by
//! [`island_seed`]`(seed, island)` — and one island's *entire* generation
//! (evaluation, speciation, reproduction) is a single unit of work on the
//! shared [`Executor`]. Workers never wait at a phase boundary for other
//! islands: a fast island's worker claims the next island job instead of
//! idling, which is where the multi-worker speedup comes from.
//!
//! # Migration
//!
//! Islands exchange genomes on a deterministic schedule: every
//! `config.migration_interval` generations (a *migration epoch*), each
//! island sends clones of its top `config.migration_k` genomes (ranked by
//! fitness `total_cmp`, index on ties — RNG-free) to its ring successor
//! `(i + 1) % islands`, where they replace the worst residents. The
//! exchange is simultaneous: every emigrant is selected from the
//! pre-migration state, so the outcome is independent of island
//! processing order. Within a migration generation the schedule is keyed
//! purely by `(seed, epoch, island)` — never by wall-clock progress — so
//! results remain **bit-identical at any worker count**. The exchange
//! hands [`Genome`] values across directly.
//!
//! So that a migrant's hidden-node ids can never collide with ids its new
//! island later assigns to *different* splits, the islands' hidden-node id
//! spaces are disjoint: island `i` of `n` allocates ids from the residue
//! class `first_hidden_id + i (mod n)`
//! ([`InnovationTracker::set_stride`](crate::InnovationTracker::set_stride)).
//! Two islands discovering the same split still receive different ids —
//! the standard island-model relaxation of NEAT's global innovation
//! numbering, traded for barrier-free scheduling.
//!
//! # Determinism trade
//!
//! Per-genome evaluation seeds are derived from the *island-local* triple
//! `(island_seed(base_seed, island), generation, island_index)` — the
//! epoch-granular seed derivation recorded in the determinism-trade
//! ledger of [`crate::reproduction`]. The payoff: island 0's seed equals
//! the monolithic seed, so an archipelago with `--islands 1` is
//! **bit-identical to the monolithic backend**, generation by generation
//! (the equivalence test below pins this).
//!
//! See `docs/islands.md` for the pinned topology, schedule and seed
//! derivation.

use crate::config::NeatConfig;
use crate::executor::Executor;
use crate::genome::Genome;
use crate::population::Population;
use crate::session::{
    check_counter, Backend, EvalContext, Evaluator, EvolutionState, RunState, SessionError,
};
use crate::stats::GenerationStats;
use crate::trace::{GenerationTrace, OpCounters};
use std::sync::Arc;

/// Derives island `i`'s private base seed from the run's seed: a
/// SplitMix64-style mix (the [`EvalContext::seed`] constants), except that
/// **island 0 keeps the run seed unchanged** so a 1-island archipelago is
/// bit-identical to the monolithic backend.
pub fn island_seed(seed: u64, island: usize) -> u64 {
    if island == 0 {
        return seed;
    }
    let mut z = seed ^ (island as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The complete checkpoint of an [`Archipelago`] at a generation
/// boundary: the global knobs plus one full [`EvolutionState`] per
/// island. Restoring it and evolving N more generations is bit-identical
/// to never stopping, at any worker count — including checkpoints taken
/// mid-migration-epoch (the schedule is a pure function of the generation
/// counter). Serialized by `genesys_core::snapshot` as format v3.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchipelagoState {
    /// The run's global configuration (`pop_size` is the *total*
    /// population; `islands`/`migration_interval`/`migration_k` drive the
    /// split and the schedule).
    pub config: NeatConfig,
    /// The run's base seed (root of every island seed).
    pub seed: u64,
    /// Global generation counter (the next generation to evaluate).
    pub generation: u64,
    /// Per-island evolution state, in ring order. Island configs carry
    /// the per-island population share with `islands = 1`.
    pub islands: Vec<EvolutionState>,
    /// Opaque workload state (`Evaluator::state`).
    pub workload_state: u64,
}

impl ArchipelagoState {
    /// Validates internal consistency: the global config, the global
    /// generation counter, the island count, the population split, and
    /// every per-island state.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`SessionError`].
    pub fn validate(&self) -> Result<(), SessionError> {
        self.config.validate().map_err(SessionError::Config)?;
        check_counter("generation", self.generation, u64::MAX)?;
        if self.islands.is_empty() {
            return Err(SessionError::EmptyState);
        }
        if self.islands.len() != self.config.islands {
            return Err(SessionError::IslandCountMismatch {
                config: self.config.islands,
                islands: self.islands.len(),
            });
        }
        let total: usize = self.islands.iter().map(|s| s.genomes.len()).sum();
        if total != self.config.pop_size {
            return Err(SessionError::PopulationSizeMismatch {
                config: self.config.pop_size,
                genomes: total,
            });
        }
        let n = self.islands.len() as u32;
        for (i, island) in self.islands.iter().enumerate() {
            island.validate_island(i as u32, n)?;
        }
        Ok(())
    }
}

/// Builds island `i`'s configuration: the global config with this
/// island's population share (`pop/n`, the first `pop % n` islands taking
/// one extra) and `islands = 1` (an island never recursively splits).
fn island_config(config: &NeatConfig, island: usize) -> NeatConfig {
    let n = config.islands;
    let base = config.pop_size / n;
    let extra = config.pop_size % n;
    let mut c = config.clone();
    c.pop_size = base + usize::from(island < extra);
    c.islands = 1;
    c
}

/// The island-model backend: `config.islands` self-contained
/// [`Population`]s scheduled as independent whole-generation jobs on one
/// shared [`Executor`], with deterministic ring migration every
/// `config.migration_interval` generations. See the [module docs](self).
#[derive(Debug)]
pub struct Archipelago {
    config: NeatConfig,
    seed: u64,
    generation: u64,
    islands: Vec<Population>,
    executor: Option<Arc<Executor>>,
    /// Concatenated view of every island's genomes (ring order), refreshed
    /// after each step so [`Backend::genomes`] can return one slice.
    genomes: Vec<Genome>,
}

impl Archipelago {
    /// Creates generation 0: the total population split across
    /// `config.islands` islands, island `i` seeded with
    /// [`island_seed`]`(seed, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation; construct configs through
    /// [`NeatConfig::builder`] to catch errors earlier.
    pub fn new(config: NeatConfig, seed: u64) -> Self {
        config.validate().expect("invalid NeatConfig");
        let islands: Vec<Population> = (0..config.islands)
            .map(|i| {
                let mut island = Population::new(island_config(&config, i), island_seed(seed, i));
                island.set_innovation_stride(i as u32, config.islands as u32);
                island
            })
            .collect();
        let mut archipelago = Archipelago {
            config,
            seed,
            generation: 0,
            islands,
            executor: None,
            genomes: Vec::new(),
        };
        archipelago.refresh_genome_cache();
        archipelago
    }

    /// Rebuilds an archipelago from an exported state; the exact inverse
    /// of its [`Backend::export_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if the state fails validation.
    pub fn from_state(state: ArchipelagoState) -> Result<Self, SessionError> {
        state.validate()?;
        let ArchipelagoState {
            config,
            seed,
            generation,
            islands,
            workload_state: _,
        } = state;
        let n = islands.len();
        let islands = islands
            .into_iter()
            .enumerate()
            .map(|(i, state)| {
                let mut island = Population::from_valid_state(state);
                island.set_innovation_stride(i as u32, n as u32);
                island
            })
            .collect();
        let mut archipelago = Archipelago {
            config,
            seed,
            generation,
            islands,
            executor: None,
            genomes: Vec::new(),
        };
        archipelago.refresh_genome_cache();
        Ok(archipelago)
    }

    /// The islands, in ring order.
    pub fn islands(&self) -> &[Population] {
        &self.islands
    }

    /// Trace of island 0's most recent reproduction step, if any — the
    /// representative trace the bench harness samples (each island keeps
    /// its own).
    pub fn last_trace(&self) -> Option<&GenerationTrace> {
        self.islands.first().and_then(Population::last_trace)
    }

    /// Is the generation about to be evaluated a migration generation?
    /// A pure function of the generation counter (never of wall-clock
    /// progress), so checkpoints taken mid-epoch resume on schedule.
    fn migration_due(&self) -> bool {
        self.islands.len() > 1
            && (self.generation + 1).is_multiple_of(self.config.migration_interval as u64)
    }

    /// Runs `f(i, island_i)` for every island — one whole-island job per
    /// executor task when a pool is attached, in index order otherwise.
    /// Islands hold no executor of their own (executor entry is
    /// non-reentrant), so each island's internal phases run serially
    /// inside its job; cross-island concurrency is the parallelism.
    fn run_islands<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut Population) -> R + Sync,
    {
        match &self.executor {
            Some(pool) => pool.map_mut(&mut self.islands, f),
            None => self
                .islands
                .iter_mut()
                .enumerate()
                .map(|(i, island)| f(i, island))
                .collect(),
        }
    }

    /// Simultaneous ring exchange: island `i`'s top `k` (selected from the
    /// pre-migration state) replace island `(i + 1) % n`'s worst. Serial
    /// and RNG-free — its cost is `k` genome clones per island, amortized
    /// over `migration_interval` generations.
    fn migrate(&mut self) {
        let n = self.islands.len();
        let k = self.config.migration_k;
        let emigrants: Vec<Vec<Genome>> = self
            .islands
            .iter()
            .map(|island| island.select_emigrants(k))
            .collect();
        for (from, batch) in emigrants.into_iter().enumerate() {
            self.islands[(from + 1) % n].integrate_migrants(&batch);
        }
    }

    /// Refreshes the concatenated genome cache from the islands,
    /// reusing the cached genomes' gene storage when the shape allows.
    fn refresh_genome_cache(&mut self) {
        let total: usize = self.islands.iter().map(|i| i.genomes().len()).sum();
        if self.genomes.len() == total {
            let mut slot = 0;
            for island in &self.islands {
                for g in island.genomes() {
                    self.genomes[slot].clone_from(g);
                    slot += 1;
                }
            }
        } else {
            self.genomes.clear();
            self.genomes.reserve(total);
            for island in &self.islands {
                self.genomes.extend(island.genomes().iter().cloned());
            }
        }
    }

    /// Merges per-island generation statistics into one population-wide
    /// entry: extrema over islands, means weighted by island population,
    /// everything else summed.
    fn merge_stats(&self, per_island: Vec<GenerationStats>) -> GenerationStats {
        let mut merged = GenerationStats {
            generation: self.generation as usize,
            max_fitness: f64::NEG_INFINITY,
            mean_fitness: 0.0,
            min_fitness: f64::INFINITY,
            num_species: 0,
            total_nodes: 0,
            total_conns: 0,
            total_genes: 0,
            max_genome_genes: 0,
            memory_bytes: 0,
            ops: OpCounters::default(),
            fittest_parent_reuse: 0,
            inference_macs: 0,
            env_steps: 0,
            diagnostics: crate::stats::PopulationDiagnostics::default(),
            speciate_ns: 0,
            reproduce_ns: 0,
            eval_ns: 0,
        };
        let mut weighted_sum = 0.0;
        let mut total_pop = 0usize;
        // Entropies merge as population-weighted means of the per-island
        // values (a within-island signal; see `docs/scenarios.md`).
        let mut entropy_sum = 0.0;
        let mut species_entropy_sum = 0.0;
        for (stats, island) in per_island.iter().zip(self.islands.iter()) {
            let pop = island.genomes().len();
            merged.max_fitness = merged.max_fitness.max(stats.max_fitness);
            merged.min_fitness = merged.min_fitness.min(stats.min_fitness);
            weighted_sum += stats.mean_fitness * pop as f64;
            total_pop += pop;
            merged.num_species += stats.num_species;
            merged.total_nodes += stats.total_nodes;
            merged.total_conns += stats.total_conns;
            merged.total_genes += stats.total_genes;
            merged.max_genome_genes = merged.max_genome_genes.max(stats.max_genome_genes);
            merged.memory_bytes += stats.memory_bytes;
            merged.ops.crossover += stats.ops.crossover;
            merged.ops.perturb += stats.ops.perturb;
            merged.ops.add_node += stats.ops.add_node;
            merged.ops.add_conn += stats.ops.add_conn;
            merged.ops.delete_node += stats.ops.delete_node;
            merged.ops.delete_conn += stats.ops.delete_conn;
            merged.fittest_parent_reuse =
                merged.fittest_parent_reuse.max(stats.fittest_parent_reuse);
            merged.inference_macs += stats.inference_macs;
            merged.env_steps += stats.env_steps;
            merged.diagnostics.unique_genomes += stats.diagnostics.unique_genomes;
            merged.diagnostics.largest_species = merged
                .diagnostics
                .largest_species
                .max(stats.diagnostics.largest_species);
            entropy_sum += stats.diagnostics.high_order_entropy * pop as f64;
            species_entropy_sum += stats.diagnostics.species_entropy * pop as f64;
            merged.speciate_ns += stats.speciate_ns;
            merged.reproduce_ns += stats.reproduce_ns;
            merged.eval_ns += stats.eval_ns;
        }
        merged.mean_fitness = weighted_sum / total_pop.max(1) as f64;
        if per_island.len() == 1 {
            // Exactly one island: copy its entropies bit-for-bit instead
            // of round-tripping through the weighting (×pop/÷pop is not
            // exact in floating point, and `--islands 1` must stay
            // bit-identical to the monolithic backend).
            merged.diagnostics.high_order_entropy = per_island[0].diagnostics.high_order_entropy;
            merged.diagnostics.species_entropy = per_island[0].diagnostics.species_entropy;
        } else {
            merged.diagnostics.high_order_entropy = entropy_sum / total_pop.max(1) as f64;
            merged.diagnostics.species_entropy = species_entropy_sum / total_pop.max(1) as f64;
        }
        merged
    }
}

/// Evaluates one island's generation through the workload: every genome
/// gets an [`EvalContext`] keyed by the island's private seed, the global
/// generation, and its island-local index. Returns evaluation side
/// tallies for the post-migration [`Population::finish_generation`].
fn evaluate_island(
    island: &mut Population,
    workload: &dyn Evaluator,
    island_base: u64,
    generation: u64,
) -> (u64, u64, u64) {
    let eval_start = std::time::Instant::now();
    let first = EvalContext {
        base_seed: island_base,
        generation,
        index: 0,
    };
    let (macs, env_steps) = island.evaluate_workload(workload, first);
    (macs, env_steps, eval_start.elapsed().as_nanos() as u64)
}

impl Backend for Archipelago {
    fn step(&mut self, workload: &dyn Evaluator, base_seed: u64) -> GenerationStats {
        let generation = self.generation;
        let per_island = if self.migration_due() {
            // Migration generation: evaluate everywhere, exchange on the
            // pre-reproduction state, then finish every island. The
            // exchange is the only cross-island synchronization point and
            // it occurs once per migration_interval generations.
            let evals = self.run_islands(|i, island| {
                evaluate_island(island, workload, island_seed(base_seed, i), generation)
            });
            self.migrate();
            self.run_islands(|i, island| {
                let (macs, env_steps, eval_ns) = evals[i];
                let mut stats = island.finish_generation(macs, eval_ns);
                stats.env_steps = env_steps;
                stats
            })
        } else {
            // Common case: one indivisible job per island, no cross-island
            // barrier between evaluation and reproduction.
            self.run_islands(|i, island| {
                let (macs, env_steps, eval_ns) =
                    evaluate_island(island, workload, island_seed(base_seed, i), generation);
                let mut stats = island.finish_generation(macs, eval_ns);
                stats.env_steps = env_steps;
                stats
            })
        };
        let merged = self.merge_stats(per_island);
        self.generation += 1;
        self.refresh_genome_cache();
        merged
    }

    fn generation(&self) -> usize {
        self.generation as usize
    }

    fn genomes(&self) -> &[Genome] {
        &self.genomes
    }

    fn best_genome(&self) -> Option<&Genome> {
        // Fold with a strict `>`: the first island wins ties, independent
        // of scheduling order.
        let mut best: Option<&Genome> = None;
        for island in &self.islands {
            if let Some(candidate) = island.best_genome() {
                let better = match best {
                    None => true,
                    Some(current) => {
                        candidate.fitness().unwrap_or(f64::NEG_INFINITY)
                            > current.fitness().unwrap_or(f64::NEG_INFINITY)
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
        best
    }

    fn champion(&self) -> Option<&Genome> {
        // Same strict-`>` fold as `best_genome`: the first island wins
        // ties, independent of scheduling order.
        let mut champion: Option<&Genome> = None;
        for island in &self.islands {
            if let Some(candidate) = island.champion() {
                let better = match champion {
                    None => true,
                    Some(current) => {
                        candidate.fitness().unwrap_or(f64::NEG_INFINITY)
                            > current.fitness().unwrap_or(f64::NEG_INFINITY)
                    }
                };
                if better {
                    champion = Some(candidate);
                }
            }
        }
        champion
    }

    fn neat_config(&self) -> &NeatConfig {
        &self.config
    }

    fn set_executor(&mut self, pool: Arc<Executor>) {
        self.executor = Some(pool);
    }

    fn export_state(&self) -> RunState {
        RunState::Archipelago(Box::new(ArchipelagoState {
            config: self.config.clone(),
            seed: self.seed,
            generation: self.generation,
            islands: self.islands.iter().map(Population::export_state).collect(),
            workload_state: 0,
        }))
    }
}

/// The run-surface backend: a [`Population`] when `config.islands <= 1`,
/// an [`Archipelago`] otherwise — what [`crate::Session::builder`] and
/// [`crate::Session::resume`] construct, so every session (and the
/// serving layer above it) gets islands from the config alone.
// One backend exists per session and is held by value for its whole
// lifetime — the variant size asymmetry never multiplies across a
// collection, so boxing would only add a pointer chase to every step.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum EvolutionBackend {
    /// One shared population (`config.islands <= 1`).
    Monolithic(Population),
    /// Independent islands on one shared executor.
    Archipelago(Archipelago),
}

impl EvolutionBackend {
    /// Builds the backend the config asks for.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation; construct configs through
    /// [`NeatConfig::builder`] to catch errors earlier.
    pub fn new(config: NeatConfig, seed: u64) -> Self {
        if config.islands <= 1 {
            EvolutionBackend::Monolithic(Population::new(config, seed))
        } else {
            EvolutionBackend::Archipelago(Archipelago::new(config, seed))
        }
    }

    /// Rebuilds the backend a checkpoint was taken from: a monolithic
    /// state restores a [`Population`], an archipelago state an
    /// [`Archipelago`].
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if the state fails validation.
    pub fn from_state(state: RunState) -> Result<Self, SessionError> {
        match state {
            RunState::Monolithic(s) => {
                Ok(EvolutionBackend::Monolithic(Population::from_state(*s)?))
            }
            RunState::Archipelago(s) => {
                Ok(EvolutionBackend::Archipelago(Archipelago::from_state(*s)?))
            }
        }
    }

    /// Trace of the most recent reproduction step (island 0's for an
    /// archipelago), if any.
    pub fn last_trace(&self) -> Option<&GenerationTrace> {
        match self {
            EvolutionBackend::Monolithic(p) => p.last_trace(),
            EvolutionBackend::Archipelago(a) => a.last_trace(),
        }
    }
}

impl Backend for EvolutionBackend {
    fn step(&mut self, workload: &dyn Evaluator, base_seed: u64) -> GenerationStats {
        match self {
            EvolutionBackend::Monolithic(p) => Backend::step(p, workload, base_seed),
            EvolutionBackend::Archipelago(a) => a.step(workload, base_seed),
        }
    }

    fn generation(&self) -> usize {
        match self {
            EvolutionBackend::Monolithic(p) => Backend::generation(p),
            EvolutionBackend::Archipelago(a) => Backend::generation(a),
        }
    }

    fn genomes(&self) -> &[Genome] {
        match self {
            EvolutionBackend::Monolithic(p) => Backend::genomes(p),
            EvolutionBackend::Archipelago(a) => Backend::genomes(a),
        }
    }

    fn best_genome(&self) -> Option<&Genome> {
        match self {
            EvolutionBackend::Monolithic(p) => Backend::best_genome(p),
            EvolutionBackend::Archipelago(a) => Backend::best_genome(a),
        }
    }

    fn champion(&self) -> Option<&Genome> {
        match self {
            EvolutionBackend::Monolithic(p) => Backend::champion(p),
            EvolutionBackend::Archipelago(a) => Backend::champion(a),
        }
    }

    fn neat_config(&self) -> &NeatConfig {
        match self {
            EvolutionBackend::Monolithic(p) => p.config(),
            EvolutionBackend::Archipelago(a) => Backend::neat_config(a),
        }
    }

    fn set_executor(&mut self, pool: Arc<Executor>) {
        match self {
            EvolutionBackend::Monolithic(p) => Backend::set_executor(p, pool),
            EvolutionBackend::Archipelago(a) => Backend::set_executor(a, pool),
        }
    }

    fn export_state(&self) -> RunState {
        match self {
            EvolutionBackend::Monolithic(p) => Backend::export_state(p),
            EvolutionBackend::Archipelago(a) => Backend::export_state(a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::session::Session;

    fn proxy(ctx: EvalContext, net: &Network) -> f64 {
        let x = (ctx.seed() % 101) as f64 / 101.0;
        let out = net.activate(&[x, 1.0 - x])[0];
        1.0 - (out - x) * (out - x)
    }

    fn island_config_of(pop: usize, islands: usize) -> NeatConfig {
        NeatConfig::builder(2, 1)
            .pop_size(pop)
            .islands(islands)
            .migration_interval(3)
            .migration_k(1)
            .build()
            .unwrap()
    }

    #[test]
    fn island_seed_is_identity_for_island_zero() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(island_seed(seed, 0), seed);
            assert_ne!(island_seed(seed, 1), island_seed(seed, 2));
        }
    }

    #[test]
    fn population_split_covers_the_whole_population() {
        let config = island_config_of(26, 4);
        let a = Archipelago::new(config, 7);
        let sizes: Vec<usize> = a.islands().iter().map(|i| i.genomes().len()).collect();
        assert_eq!(sizes, vec![7, 7, 6, 6]);
        assert_eq!(Backend::genomes(&a).len(), 26);
    }

    #[test]
    fn single_island_archipelago_equals_monolithic() {
        // Serially, then with one 4-worker pool shared by both sides: the
        // archipelago runs its island as one whole-generation job, while
        // the population evaluates in chunks and scans species in
        // parallel (pop 128 also takes the blocked scan).
        for pool in [None, Some(Arc::new(Executor::new(4)))] {
            let config = island_config_of(128, 1);
            let mut mono = Session::builder(config.clone(), 9).unwrap();
            let mut arch = Archipelago::new(config, 9);
            if let Some(pool) = &pool {
                mono = mono.executor(Arc::clone(pool));
                arch.set_executor(Arc::clone(pool));
            }
            let mut mono = mono.workload(proxy).build();
            for _ in 0..5 {
                assert_eq!(
                    mono.step(),
                    arch.step(&proxy, 9),
                    "pool: {}",
                    pool.is_some()
                );
            }
            assert_eq!(mono.genomes(), Backend::genomes(&arch));
        }
    }

    #[test]
    fn archipelago_is_bit_identical_across_worker_counts() {
        let reference = {
            let mut a = Archipelago::new(island_config_of(32, 4), 17);
            for _ in 0..7 {
                a.step(&proxy, 17);
            }
            a
        };
        for workers in [1usize, 4, 8] {
            let mut a = Archipelago::new(island_config_of(32, 4), 17);
            a.set_executor(Arc::new(Executor::new(workers)));
            for _ in 0..7 {
                a.step(&proxy, 17);
            }
            assert_eq!(
                Backend::genomes(&a),
                Backend::genomes(&reference),
                "workers={workers}"
            );
            assert_eq!(Backend::export_state(&a), Backend::export_state(&reference));
        }
    }

    #[test]
    fn migration_moves_genomes_around_the_ring() {
        // With migration every 3 generations and k=1, islands exchange
        // their champions; the archipelago must keep population sizes
        // intact and stay deterministic.
        let mut a = Archipelago::new(island_config_of(24, 3), 5);
        for _ in 0..6 {
            a.step(&proxy, 5);
        }
        let sizes: Vec<usize> = a.islands().iter().map(|i| i.genomes().len()).collect();
        assert_eq!(sizes, vec![8, 8, 8]);
        // Genome keys stay island-unique after re-keying.
        for island in a.islands() {
            let mut keys: Vec<u64> = island.genomes().iter().map(Genome::key).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), island.genomes().len());
        }
    }

    #[test]
    fn checkpoint_mid_epoch_resumes_bit_identically() {
        // Interrupt between two migration epochs (interval 3, stop at 4):
        // the resumed run must hit the same migration generations.
        let mut full = Archipelago::new(island_config_of(32, 4), 23);
        for _ in 0..8 {
            full.step(&proxy, 23);
        }

        let mut head = Archipelago::new(island_config_of(32, 4), 23);
        for _ in 0..4 {
            head.step(&proxy, 23);
        }
        let state = Backend::export_state(&head);
        drop(head);
        let mut tail = EvolutionBackend::from_state(state).unwrap();
        for _ in 0..4 {
            tail.step(&proxy, 23);
        }
        assert_eq!(Backend::genomes(&full), Backend::genomes(&tail));
        assert_eq!(Backend::export_state(&full), Backend::export_state(&tail));
    }

    /// The run-surface enum takes either state kind: the state picks the
    /// variant. (`GenesysSoc::from_state`, which models one shared genome
    /// buffer, returns `BackendMismatch` for an archipelago state; its
    /// test of the same name is in `genesys_core`.)
    #[test]
    fn wrong_state_kind_is_a_backend_mismatch() {
        let arch = Archipelago::new(island_config_of(16, 2), 3);
        let mono = Population::new(island_config_of(16, 1), 3);
        let arch_state = Backend::export_state(&arch);
        let mono_state = Backend::export_state(&mono);
        let backend = EvolutionBackend::from_state(arch_state.clone()).unwrap();
        assert!(matches!(backend, EvolutionBackend::Archipelago(_)));
        assert_eq!(Backend::export_state(&backend), arch_state);
        let backend = EvolutionBackend::from_state(mono_state.clone()).unwrap();
        assert!(matches!(backend, EvolutionBackend::Monolithic(_)));
        assert_eq!(Backend::export_state(&backend), mono_state);
    }

    #[test]
    fn session_builds_an_archipelago_from_the_config() {
        let mut s = Session::builder(island_config_of(24, 3), 31)
            .unwrap()
            .workload(proxy)
            .build();
        assert!(matches!(s.backend(), EvolutionBackend::Archipelago(_)));
        let report = s.run(4);
        assert_eq!(report.history.len(), 4);
        assert_eq!(s.generation(), 4);
        assert_eq!(s.genomes().len(), 24);
        assert!(report.best.is_some());

        // And resume through the session surface is bit-identical.
        let state = s.export_state();
        let mut resumed = Session::resume(state).unwrap().workload(proxy).build();
        s.run(3);
        resumed.run(3);
        assert_eq!(s.genomes(), resumed.genomes());
    }

    #[test]
    fn archipelago_state_validation_catches_corruption() {
        let a = Archipelago::new(island_config_of(24, 3), 2);
        let RunState::Archipelago(good) = Backend::export_state(&a) else {
            panic!("archipelago exports an archipelago state");
        };
        assert!(good.validate().is_ok());

        let mut missing = good.clone();
        missing.islands.pop();
        assert_eq!(
            missing.validate(),
            Err(SessionError::IslandCountMismatch {
                config: 3,
                islands: 2
            })
        );

        let mut short = good.clone();
        short.islands[0].genomes.pop();
        assert!(short.validate().is_err());

        let mut empty = good;
        empty.islands.clear();
        assert!(matches!(empty.validate(), Err(SessionError::EmptyState)));
    }
}
