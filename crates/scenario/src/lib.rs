//! # genesys-scenario — the continual-learning scenario suite
//!
//! The paper's continuous-learning story (§VII: evolution recovering
//! after the world changes under it) packaged as a library that composes
//! **any** environment family from `genesys_gym` into parameterized
//! continual-learning workloads, plus the metrics that make the
//! resulting runs comparable:
//!
//! * [`DriftSchedule`] — when the world changes: sudden, cyclic, linear,
//!   or compound schedules, each a pure function from generation index
//!   to regime label. [`DriftedEnv`](genesys_gym::DriftedEnv) turns a
//!   regime into a deterministic observation-space (sensor gain/polarity)
//!   transform over any [`Environment`](genesys_gym::Environment).
//! * [`TaskSequence`] — ordered environment-family curricula
//!   (e.g. CartPole → Acrobot → LunarLander) behind one fixed genome
//!   interface, with per-task [`IoAdapter`](genesys_gym::IoAdapter)s
//!   mapping each task's observation/action spaces onto it. A session `Evaluator` whose only
//!   workload state is a single `u64`, so `Session::resume` continues a
//!   curriculum mid-sequence (or mid-drift) **bit-identically**.
//!
//!   Both are the workspace's one drift mechanism. They live in
//!   `genesys_gym` (its `drift` and `sequence` modules), where the session
//!   server reaches them too; import them from there. This crate
//!   re-exports [`DriftSchedule`], [`Task`], [`TaskPlan`] and
//!   [`TaskSequence`] at its root, the names perfbench imports.
//! * [`ContinualMetrics`] — the per-task fitness matrix (fixed-seed
//!   probes of the generation champion at every task boundary), forgetting /
//!   backward / forward transfer with the survey-standard definitions,
//!   and recovery-time-to-threshold after every drift event; accumulated
//!   incrementally by a [`MetricsRecorder`] observer.
//!
//! Every quantity in this crate is a pure function of `(plan, seeds,
//! generation)` — never of worker count, evaluation order, or checkpoint
//! placement — so scenario runs inherit the workspace's bit-identical
//! determinism contract end to end. Population-level observability
//! (genome-buffer compressibility, unique-genome counts, species
//! diversity) lives in `genesys_neat::PopulationDiagnostics` and flows
//! through every `GenerationStats` / serve-layer event; this crate adds
//! the scenario-level view on top. `docs/scenarios.md` pins the exact
//! semantics.
//!
//! # Quickstart
//!
//! ```
//! use genesys_gym::{DriftSchedule, EnvKind, Task, TaskPlan, TaskSequence};
//! use genesys_scenario::{MetricsRecorder, RecoveryThreshold};
//! use genesys_neat::Session;
//!
//! let plan = TaskPlan::new(
//!     7,
//!     vec![
//!         Task::new(EnvKind::CartPole, 2),
//!         Task::new(EnvKind::MountainCar, 2).with_drift(DriftSchedule::Sudden { at: 1 }),
//!     ],
//! );
//! let mut config = plan.neat_config();
//! config.pop_size = 12;
//! let recorder = MetricsRecorder::new(plan.clone(), RecoveryThreshold::WithinFraction(0.9));
//! let mut session = Session::builder(config, 42)?
//!     .workload(TaskSequence::new(plan))
//!     .observe(recorder.observer())
//!     .build();
//! session.run(4);
//! let metrics = recorder.snapshot();
//! assert_eq!(metrics.probes.len(), 3, "baseline + one row per task");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod metrics;

pub use genesys_gym::{DriftSchedule, Task, TaskPlan, TaskSequence};
pub use metrics::{ContinualMetrics, DriftEvent, MetricsRecorder, ProbeRow, RecoveryThreshold};
