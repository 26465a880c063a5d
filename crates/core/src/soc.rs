//! The GeneSys SoC: the full closed learning loop of Section IV-B.
//!
//! A [`GenesysSoc`] is a session [`Backend`]: one [`Backend::step`]
//! (driven by `Session::on(GenesysSoc::new(..), seed)`) executes the
//! walkthrough's ten steps. Genomes are mapped onto ADAM (1), interact
//! with the session workload's environment instances (2–5), rewards
//! become fitness (6), the CPU-side selector picks parents (7), Gene Split
//! streams them into the EvE PEs (8–9), and Gene Merge writes the children
//! back to the genome buffer (10). The children are produced
//! *functionally* by the PE pipeline — quantized, hardware-semantics
//! evolution — while every phase is also accounted in cycles and energy.
//!
//! Step 7 runs the same serial planning pass
//! (`genesys_neat::reproduction::plan_offspring`) as the software
//! pipeline's staged reproduction, so the PE rounds scheduled here and the
//! software executor's per-child jobs execute one identical offspring
//! plan — the software path mirrors the EvE PE round structure one job
//! per child.

use crate::adam::{inference_timing, AdamReport};
use crate::config::SocConfig;
use crate::energy::EnergyBreakdown;
use crate::eve::{EveEngine, MergeDrops};
use crate::pe::PeConfig;
use crate::selector::{allocate_pes, select_parents};
use crate::sram::{GenomeBuffer, SramStats};
use genesys_neat::trace::OpCounters;
use genesys_neat::{
    Backend, EvalContext, Evaluation, Evaluator, EvolutionState, GenerationStats, Genome,
    NeatConfig, Network, NetworkPlan, RunState, SessionError, SpeciesSet, XorWow,
};

/// Inference-phase accounting (walkthrough steps 1–6).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InferencePhase {
    /// Environment steps executed across the population.
    pub env_steps: u64,
    /// ADAM timing, accumulated over all inferences.
    pub adam: AdamReport,
    /// Serialized inference cycles for the generation.
    pub cycles: u64,
}

/// Evolution-phase accounting (walkthrough steps 7–10).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvolutionPhase {
    /// EvE cycles for the generation.
    pub cycles: u64,
    /// Reproduction operations performed by the PEs.
    pub ops: OpCounters,
    /// SRAM reads issued by the gene-distribution NoC.
    pub noc_sram_reads: u64,
    /// Gene flits delivered to PEs.
    pub noc_flits: u64,
    /// Gene Merge repairs.
    pub drops: MergeDrops,
    /// PE rounds.
    pub rounds: usize,
    /// CPU cycles spent in the selector.
    pub selector_cpu_cycles: u64,
}

/// Report for one full generation on the SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationReport {
    /// Generation index that was evaluated.
    pub generation: usize,
    /// Best raw fitness.
    pub max_fitness: f64,
    /// Mean raw fitness.
    pub mean_fitness: f64,
    /// Living species after speciation.
    pub num_species: usize,
    /// Total genes across the population.
    pub total_genes: usize,
    /// Genome-buffer footprint (8 B/gene).
    pub memory_bytes: usize,
    /// Steps 1–6.
    pub inference: InferencePhase,
    /// Steps 7–10.
    pub evolution: EvolutionPhase,
    /// Buffer counters for the generation.
    pub sram: SramStats,
    /// Energy accounting.
    pub energy: EnergyBreakdown,
    /// Inference wall time at the SoC clock, seconds.
    pub inference_runtime_s: f64,
    /// Evolution wall time at the SoC clock, seconds.
    pub evolution_runtime_s: f64,
}

/// The GeneSys system-on-chip.
#[derive(Debug)]
pub struct GenesysSoc {
    soc: SocConfig,
    neat: NeatConfig,
    genomes: Vec<Genome>,
    species: SpeciesSet,
    rng: XorWow,
    seed: u64,
    generation: usize,
    next_key: u64,
    best_ever: Option<Genome>,
    last_report: Option<GenerationReport>,
}

impl GenesysSoc {
    /// Boots the SoC with generation 0 resident in the genome buffer.
    ///
    /// # Panics
    ///
    /// Panics if `neat` fails validation.
    pub fn new(soc: SocConfig, neat: NeatConfig, seed: u64) -> Self {
        neat.validate().expect("invalid NeatConfig");
        let mut rng = XorWow::seed_from_u64_value(seed);
        let genomes: Vec<Genome> = (0..neat.pop_size as u64)
            .map(|k| Genome::initial(k, &neat, &mut rng))
            .collect();
        GenesysSoc {
            next_key: neat.pop_size as u64,
            soc,
            neat,
            genomes,
            species: SpeciesSet::new(),
            rng,
            seed,
            generation: 0,
            best_ever: None,
            last_report: None,
        }
    }

    /// Boots the SoC from a checkpointed [`RunState`] (e.g. decoded by
    /// [`crate::snapshot`]) instead of generation 0 — the power-cycle
    /// half of the continuous-learning story: the genome buffer contents,
    /// species state and PRNG stream continue exactly where they stopped.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if the state fails validation, or
    /// [`SessionError::BackendMismatch`] for an archipelago checkpoint
    /// (the SoC models one shared genome buffer).
    pub fn from_state(soc: SocConfig, state: RunState) -> Result<Self, SessionError> {
        let RunState::Monolithic(state) = state else {
            return Err(SessionError::BackendMismatch);
        };
        state.validate()?;
        Ok(GenesysSoc {
            soc,
            neat: state.config,
            genomes: state.genomes,
            species: SpeciesSet::from_parts(state.species, state.species_next_id),
            rng: XorWow::from_state(state.rng_state.0, state.rng_state.1),
            seed: state.seed,
            generation: state.generation as usize,
            next_key: state.next_key,
            best_ever: state.best_ever,
            last_report: None,
        })
    }

    /// Current generation index.
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Genomes currently resident in the genome buffer.
    pub fn genomes(&self) -> &[Genome] {
        &self.genomes
    }

    /// The SoC configuration.
    pub fn config(&self) -> &SocConfig {
        &self.soc
    }

    /// The NEAT configuration programmed by the CPU.
    pub fn neat_config(&self) -> &NeatConfig {
        &self.neat
    }

    /// Best genome observed so far.
    pub fn best_genome(&self) -> Option<&Genome> {
        self.best_ever.as_ref()
    }

    /// The most recent generation's full SoC accounting (cycles, energy,
    /// NoC traffic); a session reads it as `session.backend().last_report()`.
    pub fn last_report(&self) -> Option<&GenerationReport> {
        self.last_report.as_ref()
    }

    /// The ten-step generation walkthrough: genome `i` earns its fitness
    /// from `workload` under the context `(base_seed, generation, i)`.
    /// Keeps the full SoC accounting as [`GenesysSoc::last_report`] and
    /// returns the software-comparable generation statistics.
    fn run_generation_inner(
        &mut self,
        workload: &dyn Evaluator,
        base_seed: u64,
    ) -> GenerationStats {
        let tech = self.soc.tech;
        let mut buffer = GenomeBuffer::new(self.soc.sram);
        let total_genes: usize = self.genomes.iter().map(Genome::num_genes).sum();
        // Parents stay resident while children are written: double buffer.
        buffer.set_resident(total_genes * 2);

        // ---- Steps 1–6: inference + fitness --------------------------------
        let mut inference = InferencePhase::default();
        let mut best_idx = 0usize;
        let mut best_fit = f64::NEG_INFINITY;
        let mut fitness_sum = 0.0;
        let mut one_pass_macs = 0u64;
        // One compile buffer for the generation: recompiling through it
        // allocates only when a genome outgrows every earlier one.
        let mut plan = NetworkPlan::new();
        for idx in 0..self.genomes.len() {
            let genome = &self.genomes[idx];
            Network::compile_into(&mut plan, genome).expect("resident genomes are valid");
            let net = plan.network();
            let timing = inference_timing(net, &self.soc.adam);
            one_pass_macs += net.num_macs();
            // Step 1: map the genome over the MAC units (one pass of its
            // genes from the buffer).
            buffer.read_genes(genome.num_genes() as u64);
            let ctx = EvalContext {
                base_seed,
                generation: self.generation as u64,
                index: idx as u64,
            };
            let Evaluation {
                fitness,
                env_steps: steps,
            } = workload.evaluate(ctx, net);
            // Steps 2–5: every environment step is one packed inference.
            inference.env_steps += steps;
            inference.cycles += steps * timing.total_cycles();
            let mut acc = timing;
            acc.array_cycles *= steps;
            acc.vectorize_cycles *= steps;
            acc.macs *= steps;
            inference.adam.merge(&acc);
            // Per-step input-vector staging reads.
            buffer.read_genes(steps * net.num_nodes() as u64);
            // Step 6: fitness is augmented to the genome in SRAM.
            self.genomes[idx].set_fitness(fitness);
            buffer.write_genes(1);
            fitness_sum += fitness;
            if fitness > best_fit {
                best_fit = fitness;
                best_idx = idx;
            }
        }
        inference.adam.utilization = if inference.adam.array_cycles > 0 {
            inference.adam.macs as f64
                / (inference.adam.array_cycles as f64 * self.soc.adam.num_macs() as f64)
        } else {
            0.0
        };
        if self
            .best_ever
            .as_ref()
            .and_then(Genome::fitness)
            .is_none_or(|f| best_fit > f)
        {
            self.best_ever = Some(self.genomes[best_idx].clone());
        }

        // ---- Step 7: selection (CPU) ----------------------------------------
        let plans = select_parents(
            &self.genomes,
            &mut self.species,
            &self.neat,
            self.generation,
            &mut self.rng,
        );
        // Selector cost model: rank + threshold scan per genome.
        let selector_cpu_cycles = (self.genomes.len() as u64) * 64;

        // ---- Steps 8–10: EvE reproduction ----------------------------------
        let schedule = allocate_pes(&plans, self.soc.num_eve_pes, self.soc.alloc_policy);
        let mean_genes = (total_genes / self.genomes.len().max(1)).max(1);
        let pe_config = PeConfig::from_neat(&self.neat, mean_genes);
        let mut engine = EveEngine::new(
            self.soc.num_eve_pes,
            pe_config,
            self.soc.noc_kind,
            self.soc.prng_seed ^ (self.generation as u64) << 32,
        );
        let report = engine.reproduce(
            &self.genomes,
            &plans,
            &schedule,
            &mut buffer,
            &mut self.next_key,
        );
        let evolution = EvolutionPhase {
            cycles: report.cycles,
            ops: report.ops,
            noc_sram_reads: report.noc.sram_reads,
            noc_flits: report.noc.flits_delivered + report.noc.flits_collected,
            drops: report.drops,
            rounds: report.rounds,
            selector_cpu_cycles,
        };

        // ---- Energy ----------------------------------------------------------
        let energy = EnergyBreakdown {
            eve_uj: evolution.ops.crossover as f64 * tech.e_pe_gene_pj / 1e6,
            adam_uj: inference.adam.macs as f64 * tech.e_mac_pj / 1e6,
            sram_uj: buffer.energy_uj(),
            noc_uj: evolution.noc_flits as f64 * tech.e_noc_flit_pj / 1e6,
            cpu_uj: (selector_cpu_cycles + inference.adam.vectorize_cycles) as f64
                * tech.e_cpu_cycle_pj
                / 1e6,
        };

        let num_species = self.species.len();
        let result = GenerationReport {
            generation: self.generation,
            max_fitness: best_fit,
            mean_fitness: fitness_sum / self.genomes.len().max(1) as f64,
            num_species,
            total_genes,
            memory_bytes: total_genes * 8,
            inference,
            evolution,
            sram: *buffer.stats(),
            energy,
            inference_runtime_s: inference.cycles as f64 * tech.cycle_time_s(),
            evolution_runtime_s: report.cycles as f64 * tech.cycle_time_s(),
        };
        // Software-comparable statistics of the *evaluated* generation
        // (gathered before the children overwrite the genome buffer).
        let mut stats = GenerationStats::collect(
            self.generation,
            &self.genomes,
            num_species,
            None,
            one_pass_macs,
        );
        stats.ops = result.evolution.ops;
        stats.env_steps = result.inference.env_steps;
        stats
            .diagnostics
            .set_species_sizes(self.species.iter().map(|s| s.members.len()));
        stats.fittest_parent_reuse = {
            // Same statistic GenerationTrace::fittest_parent_reuse reports
            // for the software path, computed from the mating plans.
            let mut uses: std::collections::HashMap<usize, usize> =
                std::collections::HashMap::new();
            for plan in plans.iter().filter(|p| !p.is_elite) {
                *uses.entry(plan.fit_parent).or_insert(0) += 1;
                if plan.other_parent != plan.fit_parent {
                    *uses.entry(plan.other_parent).or_insert(0) += 1;
                }
            }
            uses.values().copied().max().unwrap_or(0)
        };
        self.genomes = report.children;
        self.generation += 1;
        self.last_report = Some(result);
        stats
    }
}

/// The hardware half of the session API: a `genesys_neat::Session` can
/// drive the SoC model through the same loop as a software
/// [`genesys_neat::Population`] — `Session::on(GenesysSoc::new(..), seed)`.
///
/// Evaluation is serial (the SoC's environment instances are physical, not
/// worker threads), so [`Backend::set_executor`] is a no-op. The
/// **workload owns evaluation**, the episode count included (e.g.
/// `EpisodeEvaluator::episodes(n)`).
impl Backend for GenesysSoc {
    fn step(&mut self, workload: &dyn Evaluator, base_seed: u64) -> GenerationStats {
        self.run_generation_inner(workload, base_seed)
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

    fn neat_config(&self) -> &NeatConfig {
        &self.neat
    }

    fn export_state(&self) -> RunState {
        // The SoC has no global innovation tracker — the EvE PEs assign
        // node ids from the gene words themselves — so the persisted
        // counter is the witness of every id in the state: the resident
        // genomes, but also the species representatives and the best-ever
        // genome, which are past-generation individuals that may retain
        // ids deletion has since removed from the living population. A
        // software resume would otherwise re-issue those ids for new
        // structural innovations and alias distinct genes.
        let innovation_next_node = self
            .genomes
            .iter()
            .chain(self.species.iter().map(|s| &s.representative))
            .chain(self.best_ever.as_ref())
            .map(Genome::max_node_id)
            .max()
            .map_or(self.neat.first_hidden_id(), |id| {
                (id + 1).max(self.neat.first_hidden_id())
            });
        RunState::Monolithic(Box::new(EvolutionState {
            config: self.neat.clone(),
            genomes: self.genomes.clone(),
            species: self.species.iter().cloned().collect(),
            species_next_id: self.species.next_species_id(),
            innovation_next_node,
            rng_state: self.rng.state(),
            seed: self.seed,
            generation: self.generation as u64,
            next_key: self.next_key,
            best_ever: self.best_ever.clone(),
            workload_state: 0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_gym::{EnvKind, EpisodeEvaluator};
    use genesys_neat::Session;

    fn small_soc(pop: usize) -> GenesysSoc {
        let neat = NeatConfig::builder(4, 1)
            .pop_size(pop)
            .target_fitness(Some(195.0))
            .build()
            .unwrap();
        GenesysSoc::new(SocConfig::default().with_num_eve_pes(16), neat, 42)
    }

    /// A session evolving [`small_soc`] on one CartPole episode per genome.
    fn cartpole_session(pop: usize) -> Session<EpisodeEvaluator, GenesysSoc> {
        Session::on(small_soc(pop), 42)
            .workload(EpisodeEvaluator::new(EnvKind::CartPole))
            .build()
    }

    #[test]
    fn one_generation_produces_full_report() {
        let mut soc = cartpole_session(20);
        soc.step();
        let report = soc.backend().last_report().expect("one generation ran");
        assert_eq!(report.generation, 0);
        assert!(
            report.max_fitness >= 1.0,
            "CartPole always earns some reward"
        );
        assert!(report.inference.env_steps > 0);
        assert!(report.inference.adam.macs > 0);
        assert!(report.evolution.cycles > 0);
        assert!(report.energy.total() > 0.0);
        assert_eq!(soc.generation(), 1);
        assert_eq!(soc.genomes().count(), 20);
    }

    #[test]
    fn genomes_stay_valid_across_generations() {
        let mut soc = cartpole_session(16);
        for _ in 0..5 {
            soc.step();
            for g in soc.genomes() {
                assert!(g.validate().is_ok());
            }
        }
    }

    #[test]
    fn hardware_evolution_improves_cartpole_fitness() {
        let mut soc = cartpole_session(48);
        let first = soc.step().max_fitness;
        let mut best = first;
        for _ in 0..20 {
            best = best.max(soc.step().max_fitness);
        }
        assert!(
            best > first,
            "20 generations of hardware evolution should improve on {first}, best {best}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut soc = cartpole_session(16);
            let mut out = Vec::new();
            for _ in 0..3 {
                soc.step();
                let r = soc.backend().last_report().unwrap();
                out.push((r.max_fitness, r.total_genes, r.evolution.cycles));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_respects_generation_budget() {
        let report = cartpole_session(10).run(4);
        assert!(report.history.len() <= 4);
    }

    #[test]
    fn quantized_genomes_round_trip_the_codec() {
        use crate::codec::{decode_genome, encode_genome};
        let mut soc = cartpole_session(12);
        soc.step();
        // Children produced by the PEs carry only representable attribute
        // values, so an encode/decode round trip is lossless.
        for g in soc.genomes() {
            let words = encode_genome(g);
            let back = decode_genome(g.key(), g.num_inputs(), g.num_outputs(), &words).unwrap();
            for (a, b) in g.conns().zip(back.conns()) {
                assert_eq!(a.weight, b.weight);
            }
        }
    }

    #[test]
    fn session_drives_the_soc_backend() {
        let neat = NeatConfig::builder(4, 1).pop_size(12).build().unwrap();
        let soc = GenesysSoc::new(SocConfig::default().with_num_eve_pes(8), neat, 5);
        let mut session = Session::on(soc, 5)
            .workload(EpisodeEvaluator::new(EnvKind::CartPole))
            .build();
        let report = session.run(3);
        assert_eq!(report.history.len(), 3);
        assert!(report.history[0].env_steps > 0);
        assert!(report.history[0].ops.total() > 0, "EvE ops accounted");
        assert!(session.backend().last_report().is_some());
        assert_eq!(session.generation(), 3);
    }

    #[test]
    fn soc_session_resume_is_bit_identical() {
        let neat = || NeatConfig::builder(4, 1).pop_size(10).build().unwrap();
        let soc_config = || SocConfig::default().with_num_eve_pes(8);
        let workload = || EpisodeEvaluator::new(EnvKind::CartPole);

        let mut full = Session::on(GenesysSoc::new(soc_config(), neat(), 13), 13)
            .workload(workload())
            .build();
        let full_report = full.run(4);

        let mut head = Session::on(GenesysSoc::new(soc_config(), neat(), 13), 13)
            .workload(workload())
            .build();
        head.run(2);
        let state = head.export_state();
        let seed = state.seed();
        let restored = GenesysSoc::from_state(soc_config(), state).expect("valid state");
        let mut tail = Session::on(restored, seed).workload(workload()).build();
        let tail_report = tail.run(2);

        assert_eq!(&full_report.history[2..], &tail_report.history[..]);
        assert!(full.genomes().eq(tail.genomes()));
    }

    /// The SoC models one shared genome buffer, so an archipelago state
    /// is refused; a monolithic one boots to the state it was given.
    #[test]
    fn wrong_state_kind_is_a_backend_mismatch() {
        let islands = NeatConfig::builder(4, 1)
            .pop_size(16)
            .islands(2)
            .build()
            .unwrap();
        let arch = Backend::export_state(&genesys_neat::Archipelago::new(islands, 3));
        assert_eq!(
            GenesysSoc::from_state(SocConfig::default(), arch).unwrap_err(),
            SessionError::BackendMismatch
        );
        let mono = small_soc(12).export_state();
        let booted = GenesysSoc::from_state(SocConfig::default(), mono.clone()).unwrap();
        assert_eq!(booted.export_state(), mono);
    }

    #[test]
    fn works_with_every_suite_env() {
        for kind in [EnvKind::MountainCar, EnvKind::Acrobot] {
            let neat = kind.neat_config();
            let (inputs, outputs) = kind.interface();
            let small = NeatConfig::builder(inputs, outputs)
                .pop_size(8)
                .conn_add_prob(neat.conn_add_prob)
                .build()
                .unwrap();
            let soc = GenesysSoc::new(SocConfig::default().with_num_eve_pes(4), small, 7);
            let mut session = Session::on(soc, 7)
                .workload(EpisodeEvaluator::new(kind))
                .build();
            session.step();
            let report = session.backend().last_report().unwrap();
            assert!(report.inference.env_steps > 0, "{}", kind.label());
        }
    }
}
