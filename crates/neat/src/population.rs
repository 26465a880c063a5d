//! The outer evolutionary loop (Fig 3(a) of the paper).
//!
//! A [`Population`] owns the genomes of the current generation plus all
//! the evolution machinery, and it is a session [`Backend`]: one
//! [`Backend::step`] evaluates every genome through the session's workload
//! (in parallel on an attached [`Executor`]: the paper's
//! **population-level parallelism**, PLP), applies speciation and fitness
//! sharing, and reproduces the next generation, recording the
//! [`GenerationTrace`] that drives the hardware model. Drive it through
//! `Session::on(Population::new(config, seed), seed)`, or let
//! [`crate::Session::builder`] build one.

use crate::config::NeatConfig;
use crate::executor::{Executor, WorkerLocal};
use crate::genome::Genome;
use crate::innovation::InnovationTracker;
use crate::network::{NetworkPlan, LANES};
use crate::reproduction::reproduce_into;
use crate::rng::XorWow;
use crate::session::{
    Backend, EvalContext, Evaluation, Evaluator, EvolutionState, RunState, SessionError,
};
use crate::species::SpeciesSet;
use crate::stats::GenerationStats;
use crate::trace::GenerationTrace;
use std::sync::Arc;
use std::time::Instant;

/// A NEAT population: the set of genomes of the current generation plus all
/// evolution machinery.
#[derive(Debug)]
pub struct Population {
    config: NeatConfig,
    genomes: Vec<Genome>,
    species: SpeciesSet,
    innovations: InnovationTracker,
    rng: XorWow,
    /// Construction seed; base of the per-child reproduction seeds
    /// (`crate::reproduction::child_seed`).
    seed: u64,
    generation: usize,
    next_key: u64,
    executor: Option<Arc<Executor>>,
    last_trace: Option<GenerationTrace>,
    best_ever: Option<Genome>,
    /// Index into `arena` of the champion of the most recently
    /// *evaluated* generation (contrast `best_ever`, which is monotone
    /// across the whole run). Transient observability state: not
    /// serialized — the first step after a restore repopulates it before
    /// any observer can see it.
    last_champion: Option<usize>,
    /// Generation-scoped child arena: the *outgoing* generation's genome
    /// shells, recycled as the next generation's child buffers so
    /// reproduction reuses gene storage instead of allocating per child.
    /// Between steps it holds the evaluated generation, which is where
    /// `last_champion` points.
    arena: Vec<Genome>,
    /// Per-worker compiled-plan scratch: each evaluation job checks one
    /// out and hands it to [`Evaluator::evaluate_genomes`], which
    /// recompiles each genome through it instead of building a fresh
    /// [`crate::Network`] per genome per generation, so unchanged elites
    /// cost no heap allocation. A workload with buffers of its own (lanes)
    /// keeps them itself. Pure cache — never serialized, no effect on
    /// results.
    plans: WorkerLocal<NetworkPlan>,
}

impl Population {
    /// Creates generation 0: `pop_size` copies of the paper's minimal
    /// topology (inputs fully connected to outputs, weights per config).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation; construct configs through
    /// [`NeatConfig::builder`] to catch errors earlier.
    pub fn new(config: NeatConfig, seed: u64) -> Self {
        config.validate().expect("invalid NeatConfig");
        let mut rng = XorWow::seed_from_u64_value(seed);
        let genomes: Vec<Genome> = (0..config.pop_size as u64)
            .map(|k| Genome::initial(k, &config, &mut rng))
            .collect();
        let innovations = InnovationTracker::new(config.first_hidden_id());
        Population {
            next_key: config.pop_size as u64,
            config,
            genomes,
            species: SpeciesSet::new(),
            innovations,
            rng,
            seed,
            generation: 0,
            executor: None,
            last_trace: None,
            best_ever: None,
            last_champion: None,
            arena: Vec::new(),
            plans: WorkerLocal::new(NetworkPlan::new),
        }
    }

    /// The evaluation pool attached through [`Backend::set_executor`]
    /// (`SessionBuilder::{executor, threads}`), if any.
    pub fn executor(&self) -> Option<&Arc<Executor>> {
        self.executor.as_ref()
    }

    /// Restores a population from previously evolved genomes (e.g. a
    /// genome-buffer checkpoint decoded by
    /// `genesys_core::codec::decode_population`). The innovation counter
    /// resumes beyond every node id present; `generation` restarts at 0.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid, `genomes` is empty, or a genome's
    /// interface does not match `config`.
    pub fn from_genomes(config: NeatConfig, genomes: Vec<Genome>, seed: u64) -> Self {
        config.validate().expect("invalid NeatConfig");
        assert!(!genomes.is_empty(), "cannot restore an empty population");
        let mut innovations = InnovationTracker::new(config.first_hidden_id());
        let mut max_key = 0u64;
        for g in &genomes {
            assert_eq!(g.num_inputs(), config.num_inputs, "interface mismatch");
            assert_eq!(g.num_outputs(), config.num_outputs, "interface mismatch");
            innovations.witness(crate::gene::NodeId(g.max_node_id()));
            max_key = max_key.max(g.key());
        }
        let mut config = config;
        config.pop_size = genomes.len();
        Population {
            next_key: max_key + 1,
            config,
            genomes,
            species: SpeciesSet::new(),
            innovations,
            rng: XorWow::seed_from_u64_value(seed),
            seed,
            generation: 0,
            executor: None,
            last_trace: None,
            best_ever: None,
            last_champion: None,
            arena: Vec::new(),
            plans: WorkerLocal::new(NetworkPlan::new),
        }
    }

    /// Captures the complete evolution state at the current generation
    /// boundary — the [`EvolutionState`] a [`crate::session::Session`]
    /// checkpoints. Restoring it via [`Population::from_state`] and
    /// evolving N more generations is bit-identical to never stopping
    /// (the reproduction arena and the speciation scan scratch are
    /// warm-start caches with no influence on results, so they are not
    /// captured).
    pub fn export_state(&self) -> EvolutionState {
        EvolutionState {
            config: self.config.clone(),
            genomes: self.genomes.clone(),
            species: self.species.iter().cloned().collect(),
            species_next_id: self.species.next_species_id(),
            innovation_next_node: self.innovations.next_node_id(),
            rng_state: self.rng.state(),
            seed: self.seed,
            generation: self.generation as u64,
            next_key: self.next_key,
            best_ever: self.best_ever.clone(),
            workload_state: 0,
        }
    }

    /// Rebuilds a population from an exported state; the exact inverse of
    /// [`Population::export_state`]. (The innovation tracker's split memo
    /// is empty at every generation boundary, so its counter is its entire
    /// persistent state.)
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if the state fails validation.
    pub fn from_state(state: EvolutionState) -> Result<Self, SessionError> {
        state.validate()?;
        Ok(Population::from_valid_state(state))
    }

    /// [`Population::from_state`] for a state its caller has validated
    /// (an archipelago validates each island under its own rule).
    pub(crate) fn from_valid_state(state: EvolutionState) -> Self {
        let EvolutionState {
            config,
            genomes,
            species,
            species_next_id,
            innovation_next_node,
            rng_state,
            seed,
            generation,
            next_key,
            best_ever,
            workload_state: _,
        } = state;
        Population {
            config,
            genomes,
            species: SpeciesSet::from_parts(species, species_next_id),
            innovations: InnovationTracker::new(innovation_next_node),
            rng: XorWow::from_state(rng_state.0, rng_state.1),
            seed,
            generation: generation as usize,
            next_key,
            executor: None,
            last_trace: None,
            best_ever,
            last_champion: None,
            arena: Vec::new(),
            plans: WorkerLocal::new(NetworkPlan::new),
        }
    }

    /// Restricts this population's fresh hidden-node ids to island
    /// `island`'s residue class modulo `islands`, so that the id spaces of
    /// the islands in an archipelago are disjoint and migrants can never
    /// collide with locally assigned ids. Idempotent on a counter restored
    /// from a checkpoint (it is already in class).
    pub(crate) fn set_innovation_stride(&mut self, island: u32, islands: u32) {
        self.innovations
            .set_stride(self.config.first_hidden_id() + island, islands);
    }

    /// Current generation index (0 before the first [`Backend::step`]).
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// The configuration in use.
    pub fn config(&self) -> &NeatConfig {
        &self.config
    }

    /// Genomes of the current generation.
    pub fn genomes(&self) -> &[Genome] {
        &self.genomes
    }

    /// Living species.
    pub fn species(&self) -> &SpeciesSet {
        &self.species
    }

    /// Trace of the most recent reproduction step, if any.
    pub fn last_trace(&self) -> Option<&GenerationTrace> {
        self.last_trace.as_ref()
    }

    /// Best genome observed so far (across all generations).
    pub fn best_genome(&self) -> Option<&Genome> {
        self.best_ever.as_ref()
    }

    /// Champion of the most recently evaluated generation: the genome
    /// whose fitness is this generation's max (first index wins ties).
    /// Unlike [`Population::best_genome`] this is *not* monotone — on a
    /// shifting workload (drift, task sequences) it tracks what the
    /// population can do *now*, not the stalest high-water mark. `None`
    /// before the first evaluated generation and right after a restore
    /// (the next step repopulates it).
    pub fn champion(&self) -> Option<&Genome> {
        self.last_champion.map(|i| &self.arena[i])
    }

    /// Genomes per evaluation job: the whole generation when serial;
    /// about four jobs per worker with an executor (so a worker that
    /// finishes early claims another chunk), but never fewer than
    /// [`LANES`] genomes, so a lane-evaluating workload can fill its lanes.
    fn chunk_len(&self) -> usize {
        let n = self.genomes.len().max(1);
        match &self.executor {
            Some(pool) => n.div_ceil(4 * pool.workers()).max(LANES),
            None => n,
        }
    }

    /// Evaluates every genome through `workload`, genome `i` under
    /// `first` with index `first.index + i`, storing fitness in place and
    /// tracking the best-ever genome. Returns the inference MAC count (one
    /// forward pass per genome) and the environment steps consumed.
    ///
    /// This is the one evaluation loop. The generation splits into
    /// contiguous chunks ([`Population::chunk_len`]), one executor job
    /// each, and every job hands its chunk to
    /// [`Evaluator::evaluate_genomes`] with a checked-out per-worker
    /// [`NetworkPlan`] (recompiling an unchanged elite through a warm plan
    /// allocates nothing). Results are folded in index order, and each is
    /// a pure function of `(EvalContext, genome)`, so they are identical
    /// at any worker count and any chunk length.
    pub(crate) fn evaluate_workload(
        &mut self,
        workload: &dyn Evaluator,
        first: EvalContext,
    ) -> (u64, u64) {
        let n = self.genomes.len();
        let chunk = self.chunk_len();
        let mut results = vec![
            Evaluation {
                fitness: 0.0,
                env_steps: 0,
            };
            n
        ];
        let genomes = &self.genomes;
        let plans = &self.plans;
        let job = |c: usize, out: &mut [Evaluation]| {
            let start = c * chunk;
            let ctx = EvalContext {
                index: first.index + start as u64,
                ..first
            };
            plans.with(|plan| {
                workload.evaluate_genomes(&genomes[start..start + out.len()], ctx, plan, out)
            });
        };
        match &self.executor {
            Some(pool) => {
                let mut chunks: Vec<&mut [Evaluation]> = results.chunks_mut(chunk).collect();
                pool.for_each_mut(&mut chunks, |c, out| job(c, out));
            }
            None => {
                for (c, out) in results.chunks_mut(chunk).enumerate() {
                    job(c, out);
                }
            }
        }
        // Index-ordered folds: identical at any worker count.
        let mut macs = 0u64;
        let mut env_steps = 0u64;
        for (g, e) in self.genomes.iter_mut().zip(&results) {
            g.set_fitness(e.fitness);
            // One MAC per enabled connection: `Network::num_macs`.
            macs += g.conns().filter(|c| c.enabled).count() as u64;
            env_steps += e.env_steps;
        }
        // Track the best-ever genome (NaN-tolerant total order).
        if let Some(best_idx) =
            (0..n).max_by(|&a, &b| results[a].fitness.total_cmp(&results[b].fitness))
        {
            let better = self
                .best_ever
                .as_ref()
                .and_then(Genome::fitness)
                .is_none_or(|prev| results[best_idx].fitness > prev);
            if better {
                self.best_ever = Some(self.genomes[best_idx].clone());
            }
        }
        (macs, env_steps)
    }

    /// The post-evaluation half of a generation: speciate → stagnation →
    /// fitness sharing → reproduce → advance the generation counter.
    /// `macs` is the inference MAC count returned by
    /// [`Population::evaluate_workload`] and `eval_ns` the wall-clock
    /// nanoseconds the caller spent evaluating, both threaded into the
    /// stats.
    ///
    /// Split out so the archipelago backend (`crate::island`) can run its
    /// deterministic migration exchange between evaluation and
    /// reproduction on migration epochs; a population of its own runs
    /// both halves in [`Backend::step`].
    pub(crate) fn finish_generation(&mut self, macs: u64, eval_ns: u64) -> GenerationStats {
        let pool = self.executor.clone();
        let pool = pool.as_deref();
        let speciate_start = Instant::now();
        self.species
            .speciate_on(&self.genomes, &self.config, self.generation, pool);
        self.species
            .remove_stagnant(&self.genomes, &self.config, self.generation);
        self.species.share_fitness(&self.genomes);
        let speciate_ns = speciate_start.elapsed().as_nanos() as u64;

        let reproduce_start = Instant::now();
        let trace = reproduce_into(
            &self.genomes,
            &self.species,
            &self.config,
            &mut self.innovations,
            &mut self.rng,
            self.generation,
            &mut self.next_key,
            self.seed,
            pool,
            &mut self.arena,
        );
        let reproduce_ns = reproduce_start.elapsed().as_nanos() as u64;
        let mut stats = GenerationStats::collect(
            self.generation,
            &self.genomes,
            self.species.len(),
            Some(&trace),
            macs,
        );
        stats.speciate_ns = speciate_ns;
        stats.reproduce_ns = reproduce_ns;
        stats.eval_ns = eval_ns;
        stats
            .diagnostics
            .set_species_sizes(self.species.iter().map(|s| s.members.len()));
        // The evaluated generation's champion, picked after any migration
        // exchange so its fitness matches `stats.max_fitness` exactly.
        self.last_champion = fittest(self.genomes.iter().map(Some)).map(|(i, _)| i);
        self.last_trace = Some(trace);
        // The arena held the new generation; after the swap it holds the
        // evaluated one (where `last_champion` points) until the next
        // reproduction recycles its shells as child buffers.
        std::mem::swap(&mut self.genomes, &mut self.arena);
        self.generation += 1;
        stats
    }

    /// Clones this island's top `k` genomes — the migration emigrants —
    /// ranked by fitness (`total_cmp` descending, index ascending on
    /// ties). RNG-free and scheduling-independent, so migrant selection is
    /// bit-identical at any worker count. Call after evaluation, while
    /// every genome carries a fitness.
    pub(crate) fn select_emigrants(&self, k: usize) -> Vec<Genome> {
        let mut order: Vec<usize> = (0..self.genomes.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = self.genomes[a].fitness().unwrap_or(f64::NEG_INFINITY);
            let fb = self.genomes[b].fitness().unwrap_or(f64::NEG_INFINITY);
            fb.total_cmp(&fa).then(a.cmp(&b))
        });
        order
            .into_iter()
            .take(k)
            .map(|i| self.genomes[i].clone())
            .collect()
    }

    /// Integrates immigrant genomes: each replaces one of this island's
    /// worst residents (fitness `total_cmp` ascending, index ascending on
    /// ties), keeping its evaluated fitness but re-keyed from this
    /// island's key counter so genome keys stay island-unique.
    pub(crate) fn integrate_migrants(&mut self, migrants: &[Genome]) {
        let mut order: Vec<usize> = (0..self.genomes.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = self.genomes[a].fitness().unwrap_or(f64::NEG_INFINITY);
            let fb = self.genomes[b].fitness().unwrap_or(f64::NEG_INFINITY);
            fa.total_cmp(&fb).then(a.cmp(&b))
        });
        for (slot, migrant) in order.into_iter().zip(migrants.iter()) {
            // Buffer-reusing clone into the displaced resident's storage.
            self.genomes[slot].clone_from(migrant);
            self.genomes[slot].set_key(self.next_key);
            self.next_key += 1;
        }
    }
}

/// The fittest of `candidates` and its position: a strict-`>` fold over
/// fitness (unevaluated counts as −∞), so the first candidate wins ties,
/// independent of worker count and scheduling order.
pub(crate) fn fittest<'a>(
    candidates: impl Iterator<Item = Option<&'a Genome>>,
) -> Option<(usize, &'a Genome)> {
    let score = |g: &Genome| g.fitness().unwrap_or(f64::NEG_INFINITY);
    let mut best: Option<(usize, &Genome)> = None;
    for (i, candidate) in candidates.enumerate() {
        if let Some(g) = candidate {
            if best.is_none_or(|(_, b)| score(g) > score(b)) {
                best = Some((i, g));
            }
        }
    }
    best
}

/// The software backend. A step runs the whole generation (evaluation,
/// speciation's distance matrix and child construction) on the attached
/// executor, with results bit-identical to the serial path at any worker
/// count (see [`crate::executor`] and [`crate::reproduction`] for the
/// determinism contracts). The outgoing generation's genomes are recycled
/// as the next generation's child buffers, so steady-state reproduction
/// reuses gene storage instead of cloning per child.
impl Backend for Population {
    fn step(&mut self, workload: &dyn Evaluator, base_seed: u64) -> GenerationStats {
        let first = EvalContext {
            base_seed,
            generation: self.generation as u64,
            index: 0,
        };
        let eval_start = Instant::now();
        let (macs, env_steps) = self.evaluate_workload(workload, first);
        let eval_ns = eval_start.elapsed().as_nanos() as u64;
        let mut stats = self.finish_generation(macs, eval_ns);
        stats.env_steps = env_steps;
        stats
    }

    fn generation(&self) -> usize {
        self.generation
    }

    fn genomes(&self) -> impl Iterator<Item = &Genome> {
        self.genomes.iter()
    }

    fn best_genome(&self) -> Option<&Genome> {
        self.best_ever.as_ref()
    }

    fn champion(&self) -> Option<&Genome> {
        Population::champion(self)
    }

    fn neat_config(&self) -> &NeatConfig {
        &self.config
    }

    fn set_executor(&mut self, pool: Arc<Executor>) {
        self.executor = Some(pool);
    }

    fn export_state(&self) -> RunState {
        RunState::Monolithic(Box::new(Population::export_state(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::session::{Session, SessionBuilder};

    /// A toy separable fitness: reward networks whose output tracks the
    /// first input. Solvable by weight evolution alone.
    fn proxy_fitness(_ctx: EvalContext, net: &Network) -> f64 {
        let cases = [[0.0, 0.0], [0.25, 1.0], [0.5, 0.5], [1.0, 0.0]];
        let mut fit = 4.0;
        for c in &cases {
            let out = net.activate(c)[0];
            let want = c[0];
            fit -= (out - want) * (out - want);
        }
        fit
    }

    fn small_config() -> NeatConfig {
        NeatConfig::builder(2, 1)
            .pop_size(40)
            .target_fitness(Some(3.8))
            .build()
            .unwrap()
    }

    /// A session builder on a fresh population seeded with `seed`.
    fn on(seed: u64) -> SessionBuilder<Population> {
        Session::on(Population::new(small_config(), seed), seed)
    }

    /// A serial session evolving a fresh population against the proxy.
    fn session(seed: u64) -> Session<impl Evaluator, Population> {
        on(seed).workload(proxy_fitness).build()
    }

    #[test]
    fn generation_zero_is_uniform() {
        let pop = Population::new(small_config(), 7);
        assert_eq!(pop.genomes().len(), 40);
        assert_eq!(pop.generation(), 0);
        assert!(pop.genomes().iter().all(|g| g.num_genes() == 5));
    }

    #[test]
    fn evolve_once_advances_generation_and_records_trace() {
        let mut s = session(7);
        let stats = s.step();
        assert_eq!(stats.generation, 0);
        assert_eq!(s.generation(), 1);
        assert_eq!(s.genomes().count(), 40);
        assert!(s.backend().last_trace().is_some());
        assert!(stats.ops.total() > 0);
    }

    #[test]
    fn fitness_improves_over_generations() {
        let mut s = session(11);
        let first = s.step().max_fitness;
        let mut best = first;
        for _ in 0..25 {
            best = best.max(s.step().max_fitness);
        }
        assert!(
            best > first + 0.05,
            "25 generations should improve fitness: first {first}, best {best}"
        );
    }

    #[test]
    fn run_stops_at_target() {
        let mut s = session(3);
        let report = s.run(200);
        if report.converged() {
            let last = report.history.last().unwrap();
            assert!(last.max_fitness >= 3.8);
        } else {
            assert_eq!(report.history.len(), 200);
        }
        assert!(report.best.as_ref().and_then(Genome::fitness).is_some());
    }

    #[test]
    fn parallel_and_serial_evaluation_agree() {
        let mut serial = session(5);
        let serial_stats = serial.step();
        for workers in [1usize, 4, 8] {
            let mut par = on(5)
                .workload(proxy_fitness)
                .executor(Arc::new(Executor::new(workers)))
                .build();
            assert_eq!(par.step(), serial_stats, "workers={workers}");
            assert_eq!(
                par.export_state(),
                serial.export_state(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn step_passes_stable_indices() {
        let mut s = on(5)
            .workload(|ctx: EvalContext, _: &Network| ctx.index as f64)
            .threads(4)
            .build();
        s.step();
        // After the step the child arena holds the evaluated generation.
        for (i, g) in s.backend().arena.iter().enumerate() {
            assert_eq!(g.fitness(), Some(i as f64));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = session(99);
        let mut b = session(99);
        for _ in 0..5 {
            let sa = a.step();
            let sb = b.step();
            assert_eq!(sa.max_fitness, sb.max_fitness);
            assert_eq!(sa.total_genes, sb.total_genes);
            assert_eq!(sa.ops, sb.ops);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = session(1);
        let mut b = session(2);
        let mut any_diff = false;
        for _ in 0..5 {
            let sa = a.step();
            let sb = b.step();
            if sa.total_genes != sb.total_genes || sa.max_fitness != sb.max_fitness {
                any_diff = true;
            }
        }
        assert!(any_diff, "different seeds should explore differently");
    }

    #[test]
    fn best_ever_tracks_across_generations() {
        let mut s = session(21);
        let mut running_max = f64::NEG_INFINITY;
        for _ in 0..10 {
            let stats = s.step();
            running_max = running_max.max(stats.max_fitness);
            let best = s.best_genome().unwrap().fitness().unwrap();
            assert!((best - running_max).abs() < 1e-12);
        }
    }

    #[test]
    fn genome_count_stays_constant() {
        let mut s = session(13);
        for _ in 0..10 {
            s.step();
            assert_eq!(s.genomes().count(), 40);
        }
    }
}
