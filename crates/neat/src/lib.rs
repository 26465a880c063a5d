//! # genesys-neat — NEAT neuro-evolution
//!
//! A from-scratch implementation of **NEAT** (Neuro-Evolution of Augmenting
//! Topologies, Stanley & Miikkulainen 2002), structured the way the GeneSys
//! paper (MICRO 2018) instruments it:
//!
//! * [`gene`] — the two gene kinds of Fig 3(c): node genes (neurons) and
//!   connection genes (synapses), addressed by stable keys so that parent
//!   gene streams can be *aligned* (the job of the hardware Gene Split block).
//! * [`genome`] — a collection of genes describing one network, with the
//!   crossover and the three mutation operators of Fig 3(d).
//! * [`arena`] — flat population arenas: every genome's sorted gene
//!   clusters packed contiguously with per-genome offset/length tables,
//!   the layout population-scale sweeps (speciation distance rows, gene
//!   statistics) stream at megapopulation sizes.
//! * [`network`] — the feed-forward phenotype: evaluation of the acyclic
//!   graph in topological wavefronts (the same wavefronts ADAM packs into
//!   matrix–vector products).
//! * [`species`] — speciation and fitness sharing (Section II-D).
//! * [`reproduction`] — the staged plan/execute/assign reproduction
//!   pipeline (serial planning, executor-parallel child construction,
//!   serial innovation assignment) and the **reproduction trace** the
//!   paper uses to drive its hardware evaluation (Section VI-A).
//! * [`population`] — the software backend of the outer evolutionary
//!   loop, with optional population-level parallelism (PLP) over
//!   evaluation, speciation and reproduction.
//! * [`island`] — asynchronous island evolution: the population split
//!   into self-contained islands, each scheduled as one whole-generation
//!   job on the shared executor (no cross-island phase barrier), with
//!   deterministic ring migration on an epoch schedule.
//! * [`executor`] — the persistent worker pool that backs PLP: threads
//!   are spawned once and reused across generations, and index-keyed jobs
//!   (evaluation chunks, speciation scan rows, child builds, whole
//!   islands) are balanced by claiming short runs of indices from one
//!   shared counter instead of static chunks.
//! * [`session`] — **the run surface**: one [`Session`] drives any
//!   workload ([`Evaluator`]) on any backend ([`Backend`]: this crate's
//!   [`Population`] or `genesys_core`'s SoC model), with streaming
//!   observers, stop conditions, and bit-identical checkpoint/resume
//!   through [`EvolutionState`].
//!
//! # Quickstart
//!
//! ```
//! use genesys_neat::{EvalContext, NeatConfig, Network, Session};
//!
//! // XOR as a fitness function: 2 inputs, 1 output.
//! let config = NeatConfig::builder(2, 1).pop_size(64).build()?;
//! let cases = [([0.0, 0.0], 0.0), ([0.0, 1.0], 1.0), ([1.0, 0.0], 1.0), ([1.0, 1.0], 0.0)];
//! let mut session = Session::builder(config, 1234)?
//!     .workload(move |_ctx: EvalContext, net: &Network| {
//!         let mut err = 0.0;
//!         for (input, want) in &cases {
//!             let out = net.activate(input)[0];
//!             err += (out - want) * (out - want);
//!         }
//!         4.0 - err
//!     })
//!     .build();
//! let report = session.run(3);
//! assert_eq!(session.generation(), 3);
//! assert_eq!(report.history.len(), 3);
//! # Ok::<(), genesys_neat::SessionError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod activation;
pub mod aggregation;
pub mod arena;
pub mod config;
pub mod error;
pub mod executor;
pub mod gene;
pub mod genome;
pub mod hyperneat;
pub mod innovation;
pub mod island;
pub mod network;
pub mod population;
pub mod reproduction;
pub mod rng;
pub mod session;
pub mod species;
pub mod stats;
pub mod trace;

pub use activation::Activation;
pub use aggregation::Aggregation;
pub use arena::{GenomeView, PopulationArena, RepColumns, REP_BLOCK};
pub use config::{InitialWeights, NeatConfig, NeatConfigBuilder};
pub use error::{ConfigError, GenomeError};
pub use executor::{Executor, WorkerLocal};
pub use gene::{ConnGene, ConnKey, NodeGene, NodeId, NodeType};
pub use genome::Genome;
pub use hyperneat::{HyperNeat, Substrate};
pub use innovation::{InnovationSource, InnovationTracker, SplitRecorder};
pub use island::{island_seed, Archipelago, ArchipelagoState, EvolutionBackend};
pub use network::{LaneNetworks, Network, NetworkPlan, Scratch, LANES};
pub use population::Population;
pub use reproduction::{ChildKind, ChildPlan, ReproductionReport};
pub use rng::XorWow;
pub use session::{
    evaluate_each, Backend, BestSummary, EvalContext, Evaluation, Evaluator, EvolutionState,
    GenerationEvent, OwnedGenerationEvent, RunOutcome, RunState, Session, SessionBuilder,
    SessionError, SessionReport,
};
pub use species::{SpeciateScanStats, Species, SpeciesId, SpeciesSet};
pub use stats::{GenerationStats, PopulationDiagnostics};
pub use trace::{GenerationTrace, OpKind, ReproductionOp};
