//! Umbrella crate for the GeneSys reproduction.
//!
//! This crate re-exports the workspace members under one roof so that the
//! runnable examples and the integration tests can address the whole system
//! through a single dependency:
//!
//! * [`neat`] — the NEAT neuro-evolution algorithm (genes, genomes,
//!   speciation, reproduction) and the [`Session`] run surface.
//! * [`gym`] — the environment suite from Table I of the paper, plus the
//!   session workloads ([`gym::EpisodeEvaluator`], and
//!   [`gym::TaskSequence`] for drift schedules and task-sequence
//!   curricula).
//! * [`scenario`] — the continual metrics (fitness matrix, forgetting,
//!   recovery) of a [`gym::TaskSequence`] run, computed by a session
//!   observer.
//! * [`soc`] — the GeneSys SoC simulator (EvE, ADAM, SRAM, NoC, energy),
//!   which doubles as a session [`Backend`], and the binary
//!   [`soc::snapshot`] checkpoint format.
//! * [`platforms`] — CPU/GPU/DQN baseline cost models (Tables II and III).
//! * [`serve`] — the multi-tenant session server: many concurrent
//!   evolution sessions over one shared executor, with snapshot-backed
//!   eviction and a length-prefixed binary wire protocol.
//!
//! # Quickstart: one run surface, bit-identical resume
//!
//! A [`Session`] ties a workload to a backend (software population or the
//! SoC model) behind one driver loop, and checkpoints restore
//! **bit-identically** — the paper's continuous-learning claim, as an API:
//!
//! ```
//! use genesys::gym::{EnvKind, EpisodeEvaluator};
//! use genesys::neat::Session;
//! use genesys::soc::{snapshot_from_bytes, snapshot_to_bytes};
//!
//! let mut config = EnvKind::CartPole.neat_config();
//! config.pop_size = 16;
//!
//! // Evolve two generations, checkpoint to bytes ("power off").
//! let mut session = Session::builder(config, 42)?
//!     .workload(EpisodeEvaluator::new(EnvKind::CartPole))
//!     .build();
//! session.run(2);
//! let checkpoint = snapshot_to_bytes(&session.export_state())?;
//!
//! // "Power on": restore and keep learning; the trajectory is the one
//! // the uninterrupted run would have taken, at any worker count.
//! let mut resumed = Session::resume(snapshot_from_bytes(&checkpoint)?)?
//!     .workload(EpisodeEvaluator::new(EnvKind::CartPole))
//!     .build();
//! session.run(2);
//! resumed.run(2);
//! assert!(session.genomes().eq(resumed.genomes()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use genesys_core as soc;
pub use genesys_gym as gym;
pub use genesys_neat as neat;
pub use genesys_platforms as platforms;
pub use genesys_scenario as scenario;
pub use genesys_serve as serve;

pub use genesys_neat::{
    Backend, BestSummary, EvalContext, Evaluation, Evaluator, EvolutionState, GenerationEvent,
    OwnedGenerationEvent, Session, SessionBuilder, SessionError, SessionReport,
};
