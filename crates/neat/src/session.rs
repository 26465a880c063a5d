//! `Session` — the single run surface for continuous evolution.
//!
//! The paper's headline claim is *continuous* learning: evolution that
//! keeps adapting across power cycles. This module is the API for that
//! loop. A [`Session`] ties together
//!
//! * a **workload** — anything implementing [`Evaluator`] (a gym episode
//!   rollout, the SoC's environment instances, or a plain closure), handed
//!   each generation's genomes in contiguous runs
//!   ([`Evaluator::evaluate_genomes`]; by default one
//!   [`Evaluator::evaluate`] per genome) under the index-keyed determinism
//!   contract below;
//! * a **backend** — anything implementing [`Backend`]: the software
//!   [`Population`](crate::Population), the island-model
//!   [`Archipelago`](crate::Archipelago), or the cycle-accurate
//!   `GenesysSoc` hardware model (`genesys_core`), all driven by the same
//!   generation loop, which is the only way to advance any of them;
//! * an optional shared [`Executor`] for population-level parallelism;
//! * streaming [`GenerationEvent`] observers replacing ad-hoc history
//!   vectors;
//! * stop conditions (the config's target fitness plus a generation
//!   budget).
//!
//! # Determinism contract
//!
//! Every evaluation receives an [`EvalContext`] identifying the genome by
//! `(base_seed, generation, index)`. An [`Evaluator`] must derive **all**
//! of its randomness from that context (e.g. via [`EvalContext::seed`]) —
//! never from evaluation order, worker ids, or shared counters. Under that
//! contract a session's trajectory is bit-identical at any worker count,
//! and — combined with [`Session::export_state`] — a run that is
//! checkpointed, restored and resumed is bit-identical to one that never
//! stopped.
//!
//! # Save and resume
//!
//! [`Session::export_state`] captures the complete evolution state (a
//! [`RunState`]: one [`EvolutionState`] — genomes, species, innovation
//! counter, RNG, seed bookkeeping, generation counter, workload phase —
//! per population, so one for the monolithic backend and one per island
//! for an archipelago) and [`Session::resume`] rebuilds a
//! process-equivalent session from it. `genesys_core::snapshot`
//! serializes a [`RunState`] to a versioned binary image for on-disk
//! checkpoints.
//!
//! ```
//! use genesys_neat::{EvalContext, NeatConfig, Network, Session};
//!
//! let config = NeatConfig::builder(2, 1).pop_size(16).build()?;
//! // A deterministic workload: a pure function of (context, network).
//! let fitness = |ctx: EvalContext, net: &Network| {
//!     let x = (ctx.seed() % 97) as f64 / 97.0;
//!     net.activate(&[x, 0.5])[0]
//! };
//!
//! // Uninterrupted reference: four generations.
//! let mut full = Session::builder(config.clone(), 7)?.workload(fitness).build();
//! let full_report = full.run(4);
//!
//! // Same run, interrupted: two generations, checkpoint, restore, resume.
//! let mut first = Session::builder(config, 7)?.workload(fitness).build();
//! first.run(2);
//! let state = first.export_state();
//! drop(first); // "power cycle"
//! let mut resumed = Session::resume(state)?.workload(fitness).build();
//! let tail = resumed.run(2);
//!
//! // Bit-identical continuation.
//! assert_eq!(&full_report.history[2..], &tail.history[..]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::config::NeatConfig;
use crate::error::ConfigError;
use crate::executor::Executor;
use crate::genome::Genome;
use crate::innovation::InnovationTracker;
use crate::island::{ArchipelagoState, EvolutionBackend};
use crate::network::{Network, NetworkPlan};
use crate::species::Species;
use crate::stats::GenerationStats;
use std::fmt;
use std::sync::Arc;

/// Identifies one genome evaluation: the triple every deterministic
/// workload derives its randomness from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalContext {
    /// The session's base seed (fixed for the whole run).
    pub base_seed: u64,
    /// Generation index of the evaluation.
    pub generation: u64,
    /// Index of the genome within its generation.
    pub index: u64,
}

impl EvalContext {
    /// Derives this evaluation's private seed: a SplitMix64-style mix of
    /// `(base_seed, generation, index)`. Pure in its inputs — never a
    /// function of scheduling order — so results are independent of which
    /// worker runs the evaluation. `genesys_gym::episode_seed` is this
    /// exact mix (episode seeds predating the session API stay valid).
    pub fn seed(&self) -> u64 {
        let mut z = self
            .base_seed
            .wrapping_add(self.generation.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(self.index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Result of one genome evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The fitness assigned to the genome.
    pub fitness: f64,
    /// Environment steps consumed (0 for synthetic fitness functions).
    /// Summed order-insensitively into [`GenerationStats::env_steps`].
    pub env_steps: u64,
}

/// A workload: how one genome earns its fitness.
///
/// Implementations must honour the determinism contract (module docs):
/// every random choice derives from the [`EvalContext`], so evaluation is
/// a pure function of `(context, network)`. Plain closures
/// `Fn(EvalContext, &Network) -> f64 + Sync` implement this trait
/// directly (with `env_steps = 0`).
///
/// Backends hand the workload contiguous runs of genomes through
/// [`Evaluator::evaluate_genomes`]. Its provided implementation
/// ([`evaluate_each`]) compiles each genome and calls
/// [`Evaluator::evaluate`] once per genome, so implementing `evaluate`
/// alone is always enough; a workload overrides `evaluate_genomes` only to
/// evaluate several genomes at once (`genesys_gym`'s CartPole lanes).
pub trait Evaluator: Sync {
    /// Evaluates one genome's phenotype.
    fn evaluate(&self, ctx: EvalContext, net: &Network) -> Evaluation;

    /// Evaluates a contiguous run of genomes: `genomes[k]` is the genome
    /// with context `first` at index `first.index + k`, and its result
    /// lands in `out[k]`. `plan` is the caller's per-worker compile
    /// buffer.
    ///
    /// The provided implementation is [`evaluate_each`]. An override must
    /// write, for every genome, exactly the [`Evaluation`] that
    /// [`evaluate_each`] would — bit for bit — so results stay a pure
    /// function of `(context, genome)` whatever the run length, and
    /// sessions stay bit-identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `genomes.len() != out.len()` or a genome's connection
    /// graph is cyclic.
    fn evaluate_genomes(
        &self,
        genomes: &[Genome],
        first: EvalContext,
        plan: &mut NetworkPlan,
        out: &mut [Evaluation],
    ) {
        evaluate_each(self, genomes, first, plan, out);
    }

    /// Serializable workload state, stored in checkpoints (e.g. a task
    /// sequence's generation offset). Defaults to 0 for stateless
    /// workloads.
    fn state(&self) -> u64 {
        0
    }

    /// Restores the value returned by [`Evaluator::state`] when a session
    /// is resumed from a checkpoint.
    fn restore_state(&mut self, _state: u64) {}
}

/// The provided [`Evaluator::evaluate_genomes`]: compiles each genome into
/// `plan` and calls [`Evaluator::evaluate`] with its context. Overrides
/// call it for the runs they do not evaluate themselves.
///
/// # Panics
///
/// Panics if `genomes.len() != out.len()` or a genome's connection graph
/// is cyclic.
pub fn evaluate_each<E: Evaluator + ?Sized>(
    workload: &E,
    genomes: &[Genome],
    first: EvalContext,
    plan: &mut NetworkPlan,
    out: &mut [Evaluation],
) {
    assert_eq!(genomes.len(), out.len(), "one output slot per genome");
    for (k, (genome, slot)) in genomes.iter().zip(out.iter_mut()).enumerate() {
        Network::compile_into(plan, genome).expect("population genomes are valid");
        let ctx = EvalContext {
            index: first.index + k as u64,
            ..first
        };
        *slot = workload.evaluate(ctx, plan.network());
    }
}

impl<F> Evaluator for F
where
    F: Fn(EvalContext, &Network) -> f64 + Sync,
{
    fn evaluate(&self, ctx: EvalContext, net: &Network) -> Evaluation {
        Evaluation {
            fitness: self(ctx, net),
            env_steps: 0,
        }
    }
}

/// The complete, self-contained state of an evolution run at a generation
/// boundary — everything needed to resume **bit-identically**: restoring
/// this state and running N more generations produces exactly the bytes an
/// uninterrupted run would have, at any worker count.
///
/// Carried inside a [`RunState`] — one per population — produced by
/// [`Session::export_state`] / [`Backend::export_state`] and consumed by
/// [`Session::resume`].
/// `genesys_core::snapshot` defines the versioned binary wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionState {
    /// The full hyper-parameter set of the run.
    pub config: NeatConfig,
    /// Genomes of the current generation (fitness included if evaluated).
    pub genomes: Vec<Genome>,
    /// Living species, in creation order (representatives, membership,
    /// stagnation bookkeeping).
    pub species: Vec<Species>,
    /// The species-id counter.
    pub species_next_id: u32,
    /// The innovation tracker's node-id counter. (The per-generation split
    /// memo is always empty at a generation boundary, so the counter is
    /// the tracker's entire persistent state.)
    pub innovation_next_node: u32,
    /// XORWOW state words + Weyl counter of the population RNG.
    pub rng_state: ([u32; 5], u32),
    /// The run's base seed (root of episode and child seeds).
    pub seed: u64,
    /// Generation counter (the next generation to evaluate).
    pub generation: u64,
    /// Next genome key to assign.
    pub next_key: u64,
    /// Best genome observed so far, if any generation was evaluated.
    pub best_ever: Option<Genome>,
    /// Opaque workload state ([`Evaluator::state`]), e.g. a task
    /// sequence's generation offset.
    pub workload_state: u64,
}

impl EvolutionState {
    /// Validates internal consistency (config validity, interface match,
    /// species membership in range, a `next_key` beyond every genome key
    /// and a `species_next_id` beyond every species id, and an innovation
    /// counter beyond every node id in the genomes, the species
    /// representatives and `best_ever`, so no new genome, species or
    /// structural mutation can take an id already in use).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`SessionError`].
    pub fn validate(&self) -> Result<(), SessionError> {
        self.validate_structure()?;
        self.check_innovation_counter(self.innovation_next_node, 1)
    }

    /// [`EvolutionState::validate`] for island `island` of `islands` in an
    /// archipelago. The island hands out ids of one residue class only
    /// ([`crate::InnovationTracker::set_stride`]), so its counter, moved
    /// into that class, needs to exceed only that class's ids: migrants
    /// legitimately carry other islands' larger ids.
    pub(crate) fn validate_island(&self, island: u32, islands: u32) -> Result<(), SessionError> {
        self.validate_structure()?;
        let mut tracker = InnovationTracker::new(self.innovation_next_node);
        tracker.set_stride(self.config.first_hidden_id() + island, islands);
        self.check_innovation_counter(tracker.next_node_id(), islands)
    }

    /// Every invariant but the innovation counter's.
    fn validate_structure(&self) -> Result<(), SessionError> {
        self.config.validate().map_err(SessionError::Config)?;
        check_counter("next_key", self.next_key, u64::MAX)?;
        check_counter(
            "species_next_id",
            self.species_next_id.into(),
            u32::MAX.into(),
        )?;
        check_counter("generation", self.generation, u64::MAX)?;
        if self.genomes.is_empty() {
            return Err(SessionError::EmptyState);
        }
        if self.genomes.len() != self.config.pop_size {
            return Err(SessionError::PopulationSizeMismatch {
                config: self.config.pop_size,
                genomes: self.genomes.len(),
            });
        }
        for g in &self.genomes {
            if g.num_inputs() != self.config.num_inputs
                || g.num_outputs() != self.config.num_outputs
            {
                return Err(SessionError::InterfaceMismatch {
                    key: g.key(),
                    inputs: g.num_inputs(),
                    outputs: g.num_outputs(),
                });
            }
        }
        for s in &self.species {
            for &m in &s.members {
                if m >= self.genomes.len() {
                    return Err(SessionError::MemberOutOfRange {
                        species: s.id.0,
                        member: m,
                        population: self.genomes.len(),
                    });
                }
            }
        }
        check_above("next_key", self.next_key, self.lineage().map(Genome::key))?;
        check_above(
            "species_next_id",
            self.species_next_id.into(),
            self.species.iter().map(|s| s.id.0.into()),
        )
    }

    /// Every genome the state carries: the genomes, the species
    /// representatives and `best_ever`.
    fn lineage(&self) -> impl Iterator<Item = &Genome> {
        self.genomes
            .iter()
            .chain(self.species.iter().map(|s| &s.representative))
            .chain(&self.best_ever)
    }

    /// Fails if a node id of `counter`'s residue class modulo `stride` in
    /// the genomes, the species representatives or `best_ever` is not
    /// below `counter`.
    fn check_innovation_counter(&self, counter: u32, stride: u32) -> Result<(), SessionError> {
        for genome in self.lineage() {
            // Node ids ascend, so a genome whose largest id is below the
            // counter costs one comparison.
            if genome.max_node_id() < counter {
                continue;
            }
            let reused = genome
                .node_genes()
                .iter()
                .rev()
                .map(|n| n.id.0)
                .take_while(|&id| id >= counter)
                .find(|&id| (id - counter).is_multiple_of(stride));
            if let Some(node) = reused {
                return Err(SessionError::InnovationCounterBehind { counter, node });
            }
        }
        Ok(())
    }
}

/// Fails with [`SessionError::CounterAboveCeiling`] if `value`, a run
/// counter whose type holds at most `max`, is above half that range.
pub(crate) fn check_counter(
    counter: &'static str,
    value: u64,
    max: u64,
) -> Result<(), SessionError> {
    let ceiling = max / 2;
    if value > ceiling {
        return Err(SessionError::CounterAboveCeiling {
            counter,
            value,
            ceiling,
        });
    }
    Ok(())
}

/// Fails with [`SessionError::CounterBehind`] unless `value`, the counter
/// that hands out the next id, exceeds every id in `ids`.
fn check_above(
    counter: &'static str,
    value: u64,
    ids: impl Iterator<Item = u64>,
) -> Result<(), SessionError> {
    match ids.max() {
        Some(id) if id >= value => Err(SessionError::CounterBehind { counter, value, id }),
        _ => Ok(()),
    }
}

/// The complete checkpoint of any backend — what [`Session::export_state`]
/// captures and [`Session::resume`] consumes. Monolithic backends (the
/// shared [`Population`](crate::Population), the SoC model) carry one
/// [`EvolutionState`]; the island backend ([`crate::island::Archipelago`])
/// carries one per island plus the global schedule counters.
/// `genesys_core::snapshot` serializes either kind into one versioned
/// binary format (a kind word selects the body).
// Both bodies are boxed: the inline footprints are lopsided (an
// `EvolutionState` embeds the config *and* the best-ever genome inline;
// an `ArchipelagoState` only the config), so either variant left inline
// would re-trip `clippy::large_enum_variant` as the odd one out. A
// `RunState` exists once per export/resume round-trip, so the extra
// allocation is noise while the enum itself shrinks to two words.
#[derive(Debug, Clone, PartialEq)]
pub enum RunState {
    /// A single-population backend's state.
    Monolithic(Box<EvolutionState>),
    /// An island-model backend's state.
    Archipelago(Box<ArchipelagoState>),
}

impl RunState {
    /// Generation counter (the next generation to evaluate).
    pub fn generation(&self) -> u64 {
        match self {
            RunState::Monolithic(s) => s.generation,
            RunState::Archipelago(s) => s.generation,
        }
    }

    /// The run's base seed.
    pub fn seed(&self) -> u64 {
        match self {
            RunState::Monolithic(s) => s.seed,
            RunState::Archipelago(s) => s.seed,
        }
    }

    /// The run's configuration.
    pub fn config(&self) -> &NeatConfig {
        match self {
            RunState::Monolithic(s) => &s.config,
            RunState::Archipelago(s) => &s.config,
        }
    }

    /// Opaque workload state ([`Evaluator::state`]).
    pub fn workload_state(&self) -> u64 {
        match self {
            RunState::Monolithic(s) => s.workload_state,
            RunState::Archipelago(s) => s.workload_state,
        }
    }

    /// Overwrites the workload state (done by [`Session::export_state`]
    /// just before checkpointing).
    pub fn set_workload_state(&mut self, state: u64) {
        match self {
            RunState::Monolithic(s) => s.workload_state = state,
            RunState::Archipelago(s) => s.workload_state = state,
        }
    }

    /// The monolithic state, if this is one.
    pub fn as_monolithic(&self) -> Option<&EvolutionState> {
        match self {
            RunState::Monolithic(s) => Some(s.as_ref()),
            RunState::Archipelago(_) => None,
        }
    }

    /// The archipelago state, if this is one.
    pub fn as_archipelago(&self) -> Option<&ArchipelagoState> {
        match self {
            RunState::Monolithic(_) => None,
            RunState::Archipelago(s) => Some(s.as_ref()),
        }
    }

    /// Validates internal consistency of whichever kind this is.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`SessionError`].
    pub fn validate(&self) -> Result<(), SessionError> {
        match self {
            RunState::Monolithic(s) => s.validate(),
            RunState::Archipelago(s) => s.validate(),
        }
    }
}

impl From<EvolutionState> for RunState {
    fn from(state: EvolutionState) -> Self {
        RunState::Monolithic(Box::new(state))
    }
}

/// Errors raised by session construction and state restore.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The state carries no genomes.
    EmptyState,
    /// `config.pop_size` disagrees with the genome count.
    PopulationSizeMismatch {
        /// Configured population size.
        config: usize,
        /// Genomes actually present.
        genomes: usize,
    },
    /// A genome's input/output interface disagrees with the config.
    InterfaceMismatch {
        /// Key of the offending genome.
        key: u64,
        /// Its input count.
        inputs: usize,
        /// Its output count.
        outputs: usize,
    },
    /// A species references a genome index outside the population.
    MemberOutOfRange {
        /// Species id.
        species: u32,
        /// Offending member index.
        member: usize,
        /// Population size.
        population: usize,
    },
    /// A [`RunState`] kind was restored into a backend that cannot hold
    /// it (an archipelago checkpoint into the SoC model, which has one
    /// shared genome buffer).
    BackendMismatch,
    /// The innovation counter does not exceed a node id the state carries,
    /// so a later structural mutation would hand that id out again.
    InnovationCounterBehind {
        /// The node-id counter (for an island, moved into its residue
        /// class).
        counter: u32,
        /// The node id it fails to exceed.
        node: u32,
    },
    /// An archipelago state's `config.islands` disagrees with the number
    /// of island states it carries.
    IslandCountMismatch {
        /// Configured island count.
        config: usize,
        /// Island states actually present.
        islands: usize,
    },
    /// A run counter is above its ceiling, half of its type's range: a
    /// state whose `next_key`, `species_next_id` or `generation` sits at
    /// the top of the range would overflow it within a step.
    ///
    /// No legitimate run gets near a ceiling. `generation` grows by one
    /// per generation and `next_key` by at most `pop_size`, so a run of
    /// 10⁶ genomes stepping a thousand generations a second would take
    /// about 290 years to pass 2⁶³. `species_next_id` grows by the
    /// species a generation founds, at most `species_representative_cap`
    /// and in practice a few: passing 2³¹ would take twenty million
    /// generations that each found a hundred species.
    CounterAboveCeiling {
        /// The counter's field name.
        counter: &'static str,
        /// Its value.
        value: u64,
        /// The largest value accepted.
        ceiling: u64,
    },
    /// A run counter does not exceed an id the state already uses, so the
    /// next genome or species would take that id again: `next_key` must
    /// exceed every genome key (the genomes, the species representatives
    /// and `best_ever`), and `species_next_id` every species id.
    CounterBehind {
        /// The counter's field name.
        counter: &'static str,
        /// Its value.
        value: u64,
        /// The largest id in use, which it fails to exceed.
        id: u64,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Config(e) => write!(f, "invalid configuration: {e}"),
            SessionError::EmptyState => write!(f, "state contains no genomes"),
            SessionError::PopulationSizeMismatch { config, genomes } => write!(
                f,
                "config.pop_size {config} does not match {genomes} genomes"
            ),
            SessionError::InterfaceMismatch {
                key,
                inputs,
                outputs,
            } => write!(
                f,
                "genome {key} interface {inputs}x{outputs} does not match the config"
            ),
            SessionError::MemberOutOfRange {
                species,
                member,
                population,
            } => write!(
                f,
                "species s{species} references member {member} outside population of {population}"
            ),
            SessionError::BackendMismatch => {
                write!(f, "state kind does not match the backend kind")
            }
            SessionError::InnovationCounterBehind { counter, node } => write!(
                f,
                "innovation counter {counter} does not exceed node id {node}"
            ),
            SessionError::IslandCountMismatch { config, islands } => write!(
                f,
                "config.islands {config} does not match {islands} island states"
            ),
            SessionError::CounterAboveCeiling {
                counter,
                value,
                ceiling,
            } => write!(f, "{counter} {value} is above its ceiling {ceiling}"),
            SessionError::CounterBehind { counter, value, id } => {
                write!(f, "{counter} {value} does not exceed id {id} in use")
            }
        }
    }
}

impl From<ConfigError> for SessionError {
    fn from(e: ConfigError) -> Self {
        SessionError::Config(e)
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Config(e) => Some(e),
            _ => None,
        }
    }
}

/// An evolution backend: something that can advance a population by one
/// generation under a workload. Implemented by the software
/// [`Population`](crate::Population) and
/// [`Archipelago`](crate::Archipelago), and by `genesys_core::GenesysSoc`
/// (the cycle-accurate hardware model), so all are driven by the same
/// [`Session`] loop.
pub trait Backend {
    /// Runs one full generation: evaluates every genome through
    /// `workload` (passing an [`EvalContext`] built from `base_seed`, the
    /// current generation and the genome index) and produces the next
    /// generation. Returns the statistics of the evaluated generation.
    fn step(&mut self, workload: &dyn Evaluator, base_seed: u64) -> GenerationStats;

    /// Current generation index (0 before the first step).
    fn generation(&self) -> usize;

    /// Genomes of the current generation, borrowed in place: for an
    /// archipelago, every island's genomes in ring order.
    fn genomes(&self) -> impl Iterator<Item = &Genome>;

    /// Best genome observed so far.
    fn best_genome(&self) -> Option<&Genome>;

    /// Champion of the most recently evaluated generation, if the
    /// backend tracks one (its fitness equals that generation's
    /// `max_fitness`). Unlike [`Backend::best_genome`] this is not
    /// monotone: on drifting or task-sequence workloads it follows the
    /// population's *current* ability instead of a stale high-water
    /// mark. Default `None` for backends without per-generation
    /// champion tracking.
    fn champion(&self) -> Option<&Genome> {
        None
    }

    /// The NEAT configuration driving evolution.
    fn neat_config(&self) -> &NeatConfig;

    /// Attaches a persistent evaluation pool. Backends without a parallel
    /// path (the serial SoC model) may ignore it.
    fn set_executor(&mut self, _pool: Arc<Executor>) {}

    /// Captures the complete evolution state at the current generation
    /// boundary (see [`RunState`]).
    fn export_state(&self) -> RunState;
}

/// One generation's worth of progress, streamed to observers as it
/// happens — the replacement for hand-rolled per-generation print loops
/// and ad-hoc history vectors.
///
/// # Borrowed vs owned
///
/// This is the **borrowed hot-path view**: it lends the backend's
/// [`GenerationStats`] and best [`Genome`] for the duration of the
/// observer call, so observing a generation allocates nothing and copies
/// nothing. The borrow cannot outlive the call — an observer that wants
/// to keep, queue, or ship the event (a session server pushing it over a
/// socket, a history ring buffer) converts it with
/// [`GenerationEvent::to_owned`], which produces an allocation-bounded
/// [`OwnedGenerationEvent`]: the stats are copied (all scalars) and the
/// best genome is summarized to a fixed-size [`BestSummary`] instead of
/// cloned, so the conversion cost is O(1) regardless of genome size.
/// `genesys_core::snapshot::event_to_bytes` serializes the owned form
/// with the same versioned word codec snapshots use.
#[derive(Debug)]
pub struct GenerationEvent<'a> {
    /// Statistics of the generation that just finished evaluating.
    pub stats: &'a GenerationStats,
    /// Best genome observed so far across the whole session.
    pub best: Option<&'a Genome>,
    /// Champion of the generation that just finished evaluating, if the
    /// backend tracks one (see [`Backend::champion`]). Borrowed-view
    /// only: [`GenerationEvent::to_owned`] does not carry it — owned
    /// events stay O(1) in genome size, and the stats already include
    /// the champion's fitness as `max_fitness`.
    pub champion: Option<&'a Genome>,
}

impl GenerationEvent<'_> {
    /// Converts the borrowed view into an owned, allocation-bounded event
    /// (see the type docs for the compatibility story). O(1) in genome
    /// size: the best genome is summarized, not cloned.
    pub fn to_owned(&self) -> OwnedGenerationEvent {
        OwnedGenerationEvent {
            stats: self.stats.clone(),
            best: self.best.map(BestSummary::of),
        }
    }
}

/// Owned form of a [`GenerationEvent`]: safe to keep past the observer
/// call, send across threads, queue in a ring buffer, or serialize onto a
/// wire (`genesys_core::snapshot::event_to_bytes`). Its size is bounded —
/// [`GenerationStats`] is all scalars and the best genome is carried as a
/// fixed-size [`BestSummary`] — so buffering N of them costs O(N) no
/// matter how large the genomes grow.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedGenerationEvent {
    /// Statistics of the generation that finished evaluating.
    pub stats: GenerationStats,
    /// Summary of the best genome observed so far across the session.
    pub best: Option<BestSummary>,
}

/// Fixed-size summary of a genome — what an [`OwnedGenerationEvent`]
/// carries instead of a full [`Genome`] clone. Callers that need the
/// actual genes checkpoint the session instead (the snapshot includes
/// `best_ever` in full).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestSummary {
    /// The genome's key.
    pub key: u64,
    /// Its fitness, if evaluated.
    pub fitness: Option<f64>,
    /// Node gene count.
    pub nodes: usize,
    /// Connection gene count.
    pub conns: usize,
}

impl BestSummary {
    /// Summarizes a genome.
    pub fn of(genome: &Genome) -> BestSummary {
        BestSummary {
            key: genome.key(),
            fitness: genome.fitness(),
            nodes: genome.num_nodes(),
            conns: genome.num_conns(),
        }
    }
}

/// Observers are `Send` so a whole [`Session`] can live on a worker
/// thread (the `genesys_serve` scheduler owns hundreds of them).
type Observer = Box<dyn FnMut(&GenerationEvent<'_>) + Send>;

/// Placeholder workload of a builder that has not been given one yet.
/// [`SessionBuilder::build`] only exists once a real [`Evaluator`] is set.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoWorkload;

/// Why a [`Session::run`] call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The target fitness was reached at the recorded generation.
    Converged {
        /// Generation index at which the target was first reached.
        generation: usize,
    },
    /// The generation budget was exhausted without convergence.
    GenerationLimit,
}

/// Report of one [`Session::run`] call.
#[derive(Debug)]
pub struct SessionReport {
    /// Per-generation statistics, one entry per evaluated generation.
    pub history: Vec<GenerationStats>,
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Best genome observed so far (across the whole session, not just
    /// this call).
    pub best: Option<Genome>,
}

impl SessionReport {
    /// Convenience: did the run reach the target fitness?
    pub fn converged(&self) -> bool {
        matches!(self.outcome, RunOutcome::Converged { .. })
    }
}

/// The single run surface: one workload, one backend, one driver loop.
/// See the [module docs](self) for the full tour; construct via
/// [`Session::builder`] (software), [`Session::on`] (any backend) or
/// [`Session::resume`] (from a checkpoint).
pub struct Session<W = NoWorkload, B = EvolutionBackend> {
    backend: B,
    workload: W,
    base_seed: u64,
    observers: Vec<Observer>,
}

impl<W: fmt::Debug, B: fmt::Debug> fmt::Debug for Session<W, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Observers are unnameable closures: report them by count only.
        f.debug_struct("Session")
            .field("backend", &self.backend)
            .field("workload", &self.workload)
            .field("base_seed", &self.base_seed)
            .field("observers", &self.observers.len())
            .finish()
    }
}

/// Builder for [`Session`]; see [`Session::builder`].
pub struct SessionBuilder<B = EvolutionBackend, W = NoWorkload> {
    backend: B,
    workload: W,
    base_seed: u64,
    executor: Option<Arc<Executor>>,
    threads: Option<usize>,
    observers: Vec<Observer>,
    restored_workload_state: Option<u64>,
}

impl<B: fmt::Debug, W: fmt::Debug> fmt::Debug for SessionBuilder<B, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("backend", &self.backend)
            .field("workload", &self.workload)
            .field("base_seed", &self.base_seed)
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl Session {
    /// Starts a software session: a fresh [`EvolutionBackend`] built from
    /// `config` (a shared [`Population`](crate::Population), or a
    /// [`crate::island::Archipelago`] when `config.islands > 1`), seeded
    /// with `seed` (which also serves as the base of every evaluation
    /// seed).
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Config`] if `config` fails validation.
    pub fn builder(config: NeatConfig, seed: u64) -> Result<SessionBuilder, SessionError> {
        config.validate().map_err(SessionError::Config)?;
        Ok(SessionBuilder::new(
            EvolutionBackend::new(config, seed),
            seed,
        ))
    }

    /// Resumes a software session from a previously exported state (the
    /// state kind selects the backend kind). Combined with a deterministic
    /// workload, the resumed session is bit-identical to one that never
    /// stopped.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if the state fails validation.
    pub fn resume(state: RunState) -> Result<SessionBuilder, SessionError> {
        let seed = state.seed();
        let workload_state = state.workload_state();
        let backend = EvolutionBackend::from_state(state)?;
        let mut builder = SessionBuilder::new(backend, seed);
        builder.restored_workload_state = Some(workload_state);
        Ok(builder)
    }
}

impl<B: Backend> Session<NoWorkload, B> {
    /// Starts a session on an explicit backend — e.g. the GeneSys SoC
    /// model (`genesys_core::GenesysSoc`), so hardware and software runs
    /// share one driver loop. `seed` is the base of evaluation seeds; for
    /// bit-identical resume it must match the backend's construction seed.
    pub fn on(backend: B, seed: u64) -> SessionBuilder<B> {
        SessionBuilder::new(backend, seed)
    }
}

impl<B: Backend> SessionBuilder<B, NoWorkload> {
    fn new(backend: B, base_seed: u64) -> Self {
        SessionBuilder {
            backend,
            workload: NoWorkload,
            base_seed,
            executor: None,
            threads: None,
            observers: Vec::new(),
            restored_workload_state: None,
        }
    }
}

impl<B: Backend, W> SessionBuilder<B, W> {
    /// Sets the workload. Any [`Evaluator`] works: `genesys_gym`'s
    /// episode evaluators, or a plain `Fn(EvalContext, &Network) -> f64`
    /// closure.
    pub fn workload<W2: Evaluator>(self, workload: W2) -> SessionBuilder<B, W2> {
        SessionBuilder {
            backend: self.backend,
            workload,
            base_seed: self.base_seed,
            executor: self.executor,
            threads: self.threads,
            observers: self.observers,
            restored_workload_state: self.restored_workload_state,
        }
    }

    /// Shares a persistent evaluation pool with the backend (results are
    /// bit-identical at any worker count under the determinism contract).
    pub fn executor(mut self, pool: Arc<Executor>) -> Self {
        self.executor = Some(pool);
        self
    }

    /// Convenience for [`SessionBuilder::executor`]: spawns a dedicated
    /// pool of `threads` workers (≤ 1 keeps evaluation serial).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Registers a per-generation observer, called after every evaluated
    /// generation with a streaming [`GenerationEvent`]. Observers must be
    /// `Send` (sessions are movable across threads — the serving layer
    /// depends on it); keep long-lived copies of an event via
    /// [`GenerationEvent::to_owned`].
    pub fn observe(mut self, observer: impl FnMut(&GenerationEvent<'_>) + Send + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Restores a checkpointed workload phase ([`Evaluator::restore_state`]
    /// runs at build). [`Session::resume`] does this automatically; use
    /// this when resuming onto an explicit backend via [`Session::on`],
    /// passing the checkpoint's `workload_state`.
    pub fn workload_state(mut self, state: u64) -> Self {
        self.restored_workload_state = Some(state);
        self
    }
}

impl<B: Backend, W: Evaluator> SessionBuilder<B, W> {
    /// Finalizes the session.
    pub fn build(self) -> Session<W, B> {
        let mut backend = self.backend;
        if let Some(pool) = self.executor {
            backend.set_executor(pool);
        } else if let Some(threads) = self.threads {
            if threads > 1 {
                backend.set_executor(Arc::new(Executor::new(threads)));
            }
        }
        let mut workload = self.workload;
        if let Some(state) = self.restored_workload_state {
            workload.restore_state(state);
        }
        Session {
            backend,
            workload,
            base_seed: self.base_seed,
            observers: self.observers,
        }
    }
}

impl<W: Evaluator, B: Backend> Session<W, B> {
    /// Runs exactly one generation and returns its statistics. Observers
    /// fire before this returns.
    pub fn step(&mut self) -> GenerationStats {
        let Session {
            backend,
            workload,
            base_seed,
            observers,
        } = self;
        let stats = backend.step(&*workload, *base_seed);
        let event = GenerationEvent {
            stats: &stats,
            best: backend.best_genome(),
            champion: backend.champion(),
        };
        for observer in observers.iter_mut() {
            observer(&event);
        }
        stats
    }

    /// Runs until the config's target fitness is reached or
    /// `max_generations` have been evaluated in this call.
    pub fn run(&mut self, max_generations: usize) -> SessionReport {
        let mut history = Vec::with_capacity(max_generations);
        for _ in 0..max_generations {
            let stats = self.step();
            let hit = self
                .backend
                .neat_config()
                .target_fitness
                .is_some_and(|t| stats.max_fitness >= t);
            let generation = stats.generation;
            history.push(stats);
            if hit {
                return SessionReport {
                    history,
                    outcome: RunOutcome::Converged { generation },
                    best: self.backend.best_genome().cloned(),
                };
            }
        }
        SessionReport {
            history,
            outcome: RunOutcome::GenerationLimit,
            best: self.backend.best_genome().cloned(),
        }
    }

    /// Captures the complete session state — evolution state plus the
    /// workload's phase — for checkpointing. Serialize it with
    /// `genesys_core::snapshot` and rebuild with [`Session::resume`].
    pub fn export_state(&self) -> RunState {
        let mut state = self.backend.export_state();
        state.set_workload_state(self.workload.state());
        state
    }

    /// Current generation index.
    pub fn generation(&self) -> usize {
        self.backend.generation()
    }

    /// Genomes of the current generation, read lazily from the backend:
    /// for an archipelago, the islands' genomes concatenated in ring
    /// order.
    pub fn genomes(&self) -> impl Iterator<Item = &Genome> {
        self.backend.genomes()
    }

    /// Best genome observed so far.
    pub fn best_genome(&self) -> Option<&Genome> {
        self.backend.best_genome()
    }

    /// Champion of the most recently evaluated generation, if the
    /// backend tracks one (see [`Backend::champion`]).
    pub fn champion(&self) -> Option<&Genome> {
        self.backend.champion()
    }

    /// The backend, for backend-specific inspection (e.g.
    /// [`Population::last_trace`](crate::Population::last_trace), the
    /// SoC's generation reports).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The workload.
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// The session's base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proxy(ctx: EvalContext, net: &Network) -> f64 {
        let x = (ctx.seed() % 101) as f64 / 101.0;
        let out = net.activate(&[x, 1.0 - x])[0];
        1.0 - (out - x) * (out - x)
    }

    fn small_config() -> NeatConfig {
        NeatConfig::builder(2, 1).pop_size(24).build().unwrap()
    }

    #[test]
    fn session_drives_generations() {
        let mut s = Session::builder(small_config(), 3)
            .unwrap()
            .workload(proxy)
            .build();
        let report = s.run(4);
        assert_eq!(report.history.len(), 4);
        assert_eq!(s.generation(), 4);
        assert!(report.best.is_some());
    }

    #[test]
    fn invalid_config_is_rejected_at_builder() {
        let bad = NeatConfig {
            pop_size: 0,
            ..small_config()
        };
        assert!(matches!(
            Session::builder(bad, 1),
            Err(SessionError::Config(_))
        ));
    }

    #[test]
    fn observers_stream_every_generation() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut s = Session::builder(small_config(), 5)
            .unwrap()
            .workload(proxy)
            .observe(move |event| sink.lock().unwrap().push(event.stats.generation))
            .build();
        s.run(3);
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn champion_tracks_the_evaluated_generation() {
        // Four islands migrating every 3 generations: 7 steps read the
        // champion after two migration generations as well.
        let islands = NeatConfig::builder(2, 1)
            .pop_size(32)
            .islands(4)
            .migration_interval(3)
            .build()
            .unwrap();
        for (config, steps) in [(small_config(), 4), (islands, 7)] {
            let mut s = Session::builder(config, 7).unwrap().workload(proxy).build();
            assert!(s.champion().is_none(), "no champion before the first step");
            for step in 0..steps {
                let stats = s.step();
                let champion = s.champion().expect("champion after a step");
                // The champion is the evaluated generation's max, exactly.
                assert_eq!(champion.fitness(), Some(stats.max_fitness), "{step}");
            }
            // `best` is monotone; the champion need not be, but it can
            // never exceed the session-wide best.
            let best = s.best_genome().unwrap().fitness().unwrap();
            assert!(s.champion().unwrap().fitness().unwrap() <= best);
        }
    }

    #[test]
    fn export_resume_is_bit_identical_to_uninterrupted() {
        let mut full = Session::builder(small_config(), 11)
            .unwrap()
            .workload(proxy)
            .build();
        let full_report = full.run(6);

        let mut head = Session::builder(small_config(), 11)
            .unwrap()
            .workload(proxy)
            .build();
        let head_report = head.run(3);
        let state = head.export_state();
        drop(head);
        let mut tail = Session::resume(state).unwrap().workload(proxy).build();
        let tail_report = tail.run(3);

        assert_eq!(&full_report.history[..3], &head_report.history[..]);
        assert_eq!(&full_report.history[3..], &tail_report.history[..]);
        // Final genomes byte-for-byte equal (Genome: PartialEq over every
        // gene and attribute).
        assert!(full.genomes().eq(tail.genomes()));
        assert_eq!(
            full.best_genome().unwrap().key(),
            tail.best_genome().unwrap().key()
        );
    }

    #[test]
    fn resume_is_identical_across_worker_counts() {
        let reference = {
            let mut s = Session::builder(small_config(), 21)
                .unwrap()
                .workload(proxy)
                .build();
            s.run(6);
            s.export_state()
        };
        let checkpoint = {
            let mut s = Session::builder(small_config(), 21)
                .unwrap()
                .workload(proxy)
                .build();
            s.run(3);
            s.export_state()
        };
        let reference = reference.as_monolithic().unwrap();
        for workers in [1usize, 4] {
            let mut resumed = Session::resume(checkpoint.clone())
                .unwrap()
                .workload(proxy)
                .threads(workers)
                .build();
            resumed.run(3);
            let state = resumed.export_state();
            let state = state.as_monolithic().unwrap();
            assert_eq!(state.genomes, reference.genomes, "workers={workers}");
            assert_eq!(state.rng_state, reference.rng_state, "workers={workers}");
            assert_eq!(state.next_key, reference.next_key, "workers={workers}");
            for (a, b) in state.species.iter().zip(reference.species.iter()) {
                assert_eq!(a.id, b.id, "workers={workers}");
                assert_eq!(a.members, b.members, "workers={workers}");
                assert_eq!(a.representative, b.representative, "workers={workers}");
            }
        }
    }

    #[test]
    fn state_validation_catches_corruption() {
        let mut s = Session::builder(small_config(), 2)
            .unwrap()
            .workload(proxy)
            .build();
        s.run(2);
        let exported = s.export_state();
        assert!(exported.validate().is_ok());
        let RunState::Monolithic(good) = exported else {
            panic!("monolithic config exports a monolithic state");
        };

        let mut truncated = good.clone();
        truncated.genomes.pop();
        assert!(matches!(
            truncated.validate(),
            Err(SessionError::PopulationSizeMismatch { .. })
        ));

        let mut bad_member = good.clone();
        if let Some(sp) = bad_member.species.first_mut() {
            sp.members.push(10_000);
            assert!(matches!(
                bad_member.validate(),
                Err(SessionError::MemberOutOfRange { .. })
            ));
        }

        let mut empty = good;
        empty.genomes.clear();
        empty.config.pop_size = 0;
        assert!(empty.validate().is_err());
    }

    #[test]
    fn target_fitness_stops_the_run() {
        let config = NeatConfig::builder(2, 1)
            .pop_size(16)
            .target_fitness(Some(0.0))
            .build()
            .unwrap();
        let mut s = Session::builder(config, 1).unwrap().workload(proxy).build();
        let report = s.run(50);
        assert!(report.converged());
        assert_eq!(report.history.len(), 1, "target 0.0 is hit immediately");
    }

    #[test]
    fn eval_context_seed_matches_the_documented_mix() {
        // Locked to the episode_seed formula: changing it would break
        // bit-compatibility of resumed runs with recorded checkpoints.
        let ctx = EvalContext {
            base_seed: 42,
            generation: 3,
            index: 17,
        };
        assert_eq!(ctx.seed(), ctx.seed());
        let other = EvalContext { index: 18, ..ctx };
        assert_ne!(ctx.seed(), other.seed());
    }

    #[test]
    fn owned_events_capture_the_borrowed_view() {
        use std::sync::{Arc, Mutex};
        let collected: Arc<Mutex<Vec<OwnedGenerationEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&collected);
        let mut s = Session::builder(small_config(), 13)
            .unwrap()
            .workload(proxy)
            .observe(move |event| sink.lock().unwrap().push(event.to_owned()))
            .build();
        let report = s.run(3);
        let events = collected.lock().unwrap();
        assert_eq!(events.len(), 3);
        for (owned, stats) in events.iter().zip(&report.history) {
            assert_eq!(&owned.stats, stats);
        }
        let best = s.best_genome().unwrap();
        let summary = events.last().unwrap().best.unwrap();
        assert_eq!(summary, BestSummary::of(best));
        assert_eq!(summary.key, best.key());
        assert_eq!(summary.fitness, best.fitness());
        assert_eq!(summary.nodes, best.num_nodes());
        assert_eq!(summary.conns, best.num_conns());
    }

    #[test]
    fn workload_state_round_trips_through_the_builder() {
        struct Phased {
            phase: u64,
        }
        impl Evaluator for Phased {
            fn evaluate(&self, _ctx: EvalContext, _net: &Network) -> Evaluation {
                Evaluation {
                    fitness: self.phase as f64,
                    env_steps: 1,
                }
            }
            fn state(&self) -> u64 {
                self.phase
            }
            fn restore_state(&mut self, state: u64) {
                self.phase = state;
            }
        }
        let mut s = Session::builder(small_config(), 9)
            .unwrap()
            .workload(Phased { phase: 7 })
            .build();
        s.step();
        let state = s.export_state();
        assert_eq!(state.workload_state(), 7);
        let resumed = Session::resume(state)
            .unwrap()
            .workload(Phased { phase: 0 })
            .build();
        assert_eq!(resumed.workload().phase, 7, "phase restored at build");
    }

    #[test]
    fn env_steps_aggregate_order_insensitively() {
        let stepper = |_ctx: EvalContext, _net: &Network| 1.0;
        struct TwoSteps;
        impl Evaluator for TwoSteps {
            fn evaluate(&self, ctx: EvalContext, _net: &Network) -> Evaluation {
                Evaluation {
                    fitness: ctx.index as f64,
                    env_steps: 2,
                }
            }
        }
        let mut plain = Session::builder(small_config(), 4)
            .unwrap()
            .workload(stepper)
            .build();
        assert_eq!(plain.step().env_steps, 0, "closures report no env steps");
        for workers in [1usize, 4] {
            let mut s = Session::builder(small_config(), 4)
                .unwrap()
                .workload(TwoSteps)
                .threads(workers)
                .build();
            assert_eq!(s.step().env_steps, 48, "24 genomes x 2 steps");
        }
    }
}
