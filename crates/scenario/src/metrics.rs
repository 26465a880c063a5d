//! Continual-learning metrics, computed incrementally by a session
//! observer.
//!
//! A [`MetricsRecorder`] watches a session running a [`TaskSequence`]
//! workload and accumulates a [`ContinualMetrics`] value:
//!
//! * the **per-task fitness matrix** — at the end of every task phase
//!   (and once at generation 0 as the baseline row) the generation
//!   champion is probed on *every* task of the plan with fixed probe
//!   seeds ([`TaskPlan::probe_fitness`]), giving the matrix `R[i][j]`
//!   the continual-learning surveys build their metrics from;
//! * **forgetting**, **backward transfer** and **forward transfer**,
//!   derived from the matrix with the survey-standard definitions (see
//!   the methods on [`ContinualMetrics`]);
//! * **recovery time** — every drift event (task switch or within-task
//!   regime change, per [`TaskPlan::is_boundary`]) is timestamped with
//!   the pre-drift population max fitness, and the recorder counts the
//!   generations until the population max climbs back over a
//!   [`RecoveryThreshold`]-derived target.
//!
//! Everything the recorder computes is a pure function of the event
//! stream, and the event stream is bit-identical at any worker count —
//! so the metrics are too. The recorder is shareable (internally an
//! `Arc<Mutex<..>>`): attach one observer to a session, checkpoint the
//! session mid-sequence, attach a second observer from the *same*
//! recorder to the resumed session, and the accumulated metrics equal
//! the uninterrupted run's.
//!
//! [`TaskSequence`]: genesys_gym::TaskSequence
//! [`TaskPlan::probe_fitness`]: genesys_gym::TaskPlan::probe_fitness
//! [`TaskPlan::is_boundary`]: genesys_gym::TaskPlan::is_boundary

use genesys_gym::TaskPlan;
use genesys_neat::{GenerationEvent, Network};
use std::sync::{Arc, Mutex};

/// When a drifted population counts as recovered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryThreshold {
    /// Recovered when the population max fitness is back within
    /// `fraction` of the pre-drift max: the target is
    /// `pre - |pre| * (1 - fraction)`, which works for positive and
    /// negative fitness scales alike (`fraction = 1.0` demands the full
    /// pre-drift level).
    WithinFraction(f64),
    /// Recovered when the population max fitness reaches a fixed value.
    Absolute(f64),
}

impl RecoveryThreshold {
    /// The recovery target for a drift event with pre-drift max `pre`.
    pub fn target(&self, pre: f64) -> f64 {
        match *self {
            RecoveryThreshold::WithinFraction(fraction) => pre - pre.abs() * (1.0 - fraction),
            RecoveryThreshold::Absolute(value) => value,
        }
    }
}

/// One row of the per-task fitness matrix: the generation champion
/// probed on every task of the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRow {
    /// Scenario generation at which the probe ran.
    pub generation: u64,
    /// `Some(i)`: the row taken at the end of task `i`'s phase.
    /// `None`: the baseline row taken at scenario generation 0, before
    /// any task phase has completed.
    pub after_task: Option<usize>,
    /// `fitness[j]`: probe fitness on task `j` (fixed seeds, un-drifted
    /// task — see [`TaskPlan::probe_fitness`]).
    ///
    /// [`TaskPlan::probe_fitness`]: genesys_gym::TaskPlan::probe_fitness
    pub fitness: Vec<f64>,
}

/// One timestamped drift event and its recovery status.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// Scenario generation of the boundary (first generation of the new
    /// world).
    pub generation: u64,
    /// Population max fitness of the last pre-drift generation.
    pub pre_drift_best: f64,
    /// The fitness level that counts as recovered (see
    /// [`RecoveryThreshold::target`]).
    pub target: f64,
    /// Generations from the boundary until the population max reached
    /// the target (`Some(0)`: never dipped below it). `None`: not yet
    /// recovered.
    pub recovery_generations: Option<u64>,
}

/// The accumulated continual-learning record of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinualMetrics {
    /// Number of tasks in the plan (the width of every probe row).
    pub tasks: usize,
    /// Probe rows in chronological order: the per-task fitness matrix.
    pub probes: Vec<ProbeRow>,
    /// `(scenario_generation, population max fitness)` per observed
    /// generation, in event order.
    pub max_fitness: Vec<(u64, f64)>,
    /// Drift events in chronological order.
    pub drift_events: Vec<DriftEvent>,
}

impl ContinualMetrics {
    fn empty(tasks: usize) -> ContinualMetrics {
        ContinualMetrics {
            tasks,
            probes: Vec::new(),
            max_fitness: Vec::new(),
            drift_events: Vec::new(),
        }
    }

    /// The latest probe row taken at the end of task `index`'s phase.
    pub fn task_row(&self, index: usize) -> Option<&ProbeRow> {
        self.probes
            .iter()
            .rev()
            .find(|row| row.after_task == Some(index))
    }

    /// The baseline probe row (scenario generation 0), if recorded.
    pub fn baseline_row(&self) -> Option<&ProbeRow> {
        self.probes.iter().find(|row| row.after_task.is_none())
    }

    /// The most recent probe row.
    pub fn final_row(&self) -> Option<&ProbeRow> {
        self.probes.last()
    }

    /// Forgetting of task `index`: the best probe fitness the population
    /// ever showed on the task (over all rows before the final one)
    /// minus its fitness in the final row. Positive values mean skill
    /// was lost. `None` until at least two probe rows exist.
    pub fn forgetting(&self, index: usize) -> Option<f64> {
        let (earlier, last) = self.probes.split_at(self.probes.len().checked_sub(1)?);
        let last = last.first()?;
        let best_earlier = earlier
            .iter()
            .map(|row| row.fitness[index])
            .fold(f64::NEG_INFINITY, f64::max);
        if best_earlier == f64::NEG_INFINITY {
            return None;
        }
        Some(best_earlier - last.fitness[index])
    }

    /// Mean forgetting over every task except the one the final row was
    /// taken after (the survey convention: the task just trained cannot
    /// have been forgotten yet).
    pub fn mean_forgetting(&self) -> Option<f64> {
        let skip = self.final_row()?.after_task;
        let mut sum = 0.0;
        let mut n = 0usize;
        for index in 0..self.tasks {
            if Some(index) == skip {
                continue;
            }
            if let Some(f) = self.forgetting(index) {
                sum += f;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Backward transfer: mean over previously trained tasks `j` of
    /// `R[final][j] - R[j][j]` — how much later training helped (positive)
    /// or hurt (negative) earlier tasks. `None` until the final row and
    /// at least one earlier task row exist.
    pub fn backward_transfer(&self) -> Option<f64> {
        let last = self.final_row()?;
        let skip = last.after_task;
        let mut sum = 0.0;
        let mut n = 0usize;
        for index in 0..self.tasks {
            if Some(index) == skip {
                continue;
            }
            if let Some(row) = self.task_row(index) {
                if row.generation < last.generation {
                    sum += last.fitness[index] - row.fitness[index];
                    n += 1;
                }
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Forward transfer: mean over tasks `j >= 1` of
    /// `R[j-1][j] - R[baseline][j]` — how much training on earlier tasks
    /// primed a task before it was ever trained on. Requires the
    /// baseline row and at least one applicable task-end row.
    pub fn forward_transfer(&self) -> Option<f64> {
        let baseline = self.baseline_row()?;
        let mut sum = 0.0;
        let mut n = 0usize;
        for index in 1..self.tasks {
            if let Some(row) = self.task_row(index - 1) {
                sum += row.fitness[index] - baseline.fitness[index];
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

struct RecorderState {
    plan: TaskPlan,
    generation_offset: u64,
    probe_episodes: usize,
    probe_seed: u64,
    recovery: RecoveryThreshold,
    last_max: Option<f64>,
    metrics: ContinualMetrics,
}

impl RecorderState {
    fn on_event(&mut self, event: &GenerationEvent<'_>) {
        let g = self.generation_offset + event.stats.generation as u64;
        let max = event.stats.max_fitness;
        // 1. Timestamp a new drift event at this boundary (needs the
        //    pre-drift max, so the very first observed generation can
        //    never open one).
        if self.plan.is_boundary(g) {
            if let Some(pre) = self.last_max {
                let target = self.recovery.target(pre);
                self.metrics.drift_events.push(DriftEvent {
                    generation: g,
                    pre_drift_best: pre,
                    target,
                    recovery_generations: None,
                });
            }
        }
        // 2. Recovery sweep: the current max may close any open event
        //    (including one opened this generation — recovery 0 means
        //    the population never dipped below the target).
        for drift in &mut self.metrics.drift_events {
            if drift.recovery_generations.is_none() && max >= drift.target {
                drift.recovery_generations = Some(g - drift.generation);
            }
        }
        // 3. Probe rows: the baseline at scenario generation 0, and the
        //    end of every task phase.
        let (task, local) = self.plan.task_at(g);
        let baseline = g == 0;
        let task_end = local + 1 == self.plan.tasks()[task].generations;
        if baseline || task_end {
            // Probe the generation champion, not the session-wide best:
            // on a curriculum the fitness scales of different tasks are
            // not comparable, so `best` freezes on whichever task scores
            // highest (CartPole's 200 beats every Acrobot score) and
            // would yield a degenerate matrix. The champion tracks what
            // the population can do *now*.
            if let Some(best) = event.champion.or(event.best) {
                if let Ok(net) = Network::from_genome(best) {
                    let fitness: Vec<f64> = (0..self.plan.tasks().len())
                        .map(|j| {
                            self.plan
                                .probe_fitness(&net, j, self.probe_episodes, self.probe_seed)
                        })
                        .collect();
                    if baseline {
                        self.metrics.probes.push(ProbeRow {
                            generation: g,
                            after_task: None,
                            fitness: fitness.clone(),
                        });
                    }
                    if task_end {
                        self.metrics.probes.push(ProbeRow {
                            generation: g,
                            after_task: Some(task),
                            fitness,
                        });
                    }
                }
            }
        }
        self.metrics.max_fitness.push((g, max));
        self.last_max = Some(max);
    }
}

/// Incremental continual-metrics collector; see the module docs.
///
/// Cloning the recorder (or calling [`MetricsRecorder::observer`] more
/// than once) shares the same accumulator — that is how one metrics
/// record spans a checkpoint/resume pair of sessions.
#[derive(Clone)]
pub struct MetricsRecorder {
    shared: Arc<Mutex<RecorderState>>,
}

impl std::fmt::Debug for MetricsRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.lock().unwrap();
        f.debug_struct("MetricsRecorder")
            .field("tasks", &state.plan.tasks().len())
            .field("probes", &state.metrics.probes.len())
            .field("drift_events", &state.metrics.drift_events.len())
            .finish()
    }
}

impl MetricsRecorder {
    /// Builds a recorder for `plan` with 1 probe episode, probe seed 0,
    /// and the given recovery threshold.
    pub fn new(plan: TaskPlan, recovery: RecoveryThreshold) -> MetricsRecorder {
        let tasks = plan.tasks().len();
        MetricsRecorder {
            shared: Arc::new(Mutex::new(RecorderState {
                plan,
                generation_offset: 0,
                probe_episodes: 1,
                probe_seed: 0,
                recovery,
                last_max: None,
                metrics: ContinualMetrics::empty(tasks),
            })),
        }
    }

    /// Sets the fixed probe-seed/episode-count pair used for every
    /// fitness-matrix probe. Panics if `episodes == 0`.
    pub fn probe(self, episodes: usize, seed: u64) -> MetricsRecorder {
        assert!(episodes > 0, "at least one probe episode required");
        {
            let mut state = self.shared.lock().unwrap();
            state.probe_episodes = episodes;
            state.probe_seed = seed;
        }
        self
    }

    /// Aligns the recorder with a workload running at a nonzero
    /// generation offset (`TaskSequence::with_generation_offset`); both
    /// must agree on the mapping from session to scenario generations.
    pub fn with_generation_offset(self, offset: u64) -> MetricsRecorder {
        self.shared.lock().unwrap().generation_offset = offset;
        self
    }

    /// An observer closure to register with `SessionBuilder::observe`.
    /// Every observer from the same recorder feeds one shared
    /// accumulator.
    pub fn observer(&self) -> impl FnMut(&GenerationEvent<'_>) + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move |event: &GenerationEvent<'_>| {
            shared.lock().unwrap().on_event(event);
        }
    }

    /// A copy of the metrics accumulated so far.
    pub fn snapshot(&self) -> ContinualMetrics {
        self.shared.lock().unwrap().metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_gym::{DriftSchedule, EnvKind, Task, TaskSequence};
    use genesys_neat::{InitialWeights, Session};

    fn metrics_with_rows(rows: Vec<ProbeRow>) -> ContinualMetrics {
        ContinualMetrics {
            tasks: 3,
            probes: rows,
            max_fitness: Vec::new(),
            drift_events: Vec::new(),
        }
    }

    #[test]
    fn matrix_derived_metrics_match_hand_computation() {
        let m = metrics_with_rows(vec![
            ProbeRow {
                generation: 0,
                after_task: None,
                fitness: vec![1.0, 2.0, 3.0],
            },
            ProbeRow {
                generation: 2,
                after_task: Some(0),
                fitness: vec![10.0, 4.0, 3.0],
            },
            ProbeRow {
                generation: 5,
                after_task: Some(1),
                fitness: vec![8.0, 12.0, 5.0],
            },
            ProbeRow {
                generation: 9,
                after_task: Some(2),
                fitness: vec![6.0, 11.0, 20.0],
            },
        ]);
        // Forgetting: best earlier minus final.
        assert_eq!(m.forgetting(0), Some(10.0 - 6.0));
        assert_eq!(m.forgetting(1), Some(12.0 - 11.0));
        // Mean skips the just-trained task 2.
        assert_eq!(m.mean_forgetting(), Some((4.0 + 1.0) / 2.0));
        // Backward transfer: R[final][j] - R[j][j] for j in {0, 1}.
        assert_eq!(
            m.backward_transfer(),
            Some(((6.0 - 10.0) + (11.0 - 12.0)) / 2.0)
        );
        // Forward transfer: R[j-1][j] - baseline[j] for j in {1, 2}.
        assert_eq!(
            m.forward_transfer(),
            Some(((4.0 - 2.0) + (5.0 - 3.0)) / 2.0)
        );
    }

    #[test]
    fn derived_metrics_are_none_without_enough_rows() {
        let empty = metrics_with_rows(vec![]);
        assert_eq!(empty.forgetting(0), None);
        assert_eq!(empty.mean_forgetting(), None);
        assert_eq!(empty.backward_transfer(), None);
        assert_eq!(empty.forward_transfer(), None);
        let one = metrics_with_rows(vec![ProbeRow {
            generation: 0,
            after_task: None,
            fitness: vec![0.0; 3],
        }]);
        assert_eq!(one.forgetting(0), None);
    }

    #[test]
    fn recovery_targets_handle_both_fitness_signs() {
        let within = RecoveryThreshold::WithinFraction(0.9);
        assert!((within.target(100.0) - 90.0).abs() < 1e-12);
        // Negative scales (Acrobot-style): within 10% of |pre| *below*
        // the pre-drift level.
        assert!((within.target(-100.0) - -110.0).abs() < 1e-12);
        assert_eq!(RecoveryThreshold::Absolute(5.0).target(-3.0), 5.0);
    }

    #[test]
    fn recorder_tracks_a_live_session() {
        let plan = TaskPlan::new(
            7,
            vec![
                Task::new(EnvKind::CartPole, 2),
                Task::new(EnvKind::MountainCar, 2).with_drift(DriftSchedule::Sudden { at: 1 }),
            ],
        );
        let mut config = plan.neat_config();
        config.pop_size = 12;
        config = {
            let mut c = config;
            c.initial_weights = InitialWeights::Uniform { lo: -1.0, hi: 1.0 };
            c.target_fitness = None;
            c
        };
        let recorder = MetricsRecorder::new(plan.clone(), RecoveryThreshold::WithinFraction(0.5))
            .probe(2, 1234);
        let mut session = Session::builder(config, 41)
            .unwrap()
            .workload(TaskSequence::new(plan))
            .observe(recorder.observer())
            .build();
        session.run(4);
        let metrics = recorder.snapshot();
        assert_eq!(metrics.max_fitness.len(), 4);
        assert_eq!(metrics.max_fitness[0].0, 0);
        // Rows: baseline at g0, end of task 0 at g1, end of task 1 at g3.
        let kinds: Vec<Option<usize>> = metrics.probes.iter().map(|r| r.after_task).collect();
        assert_eq!(kinds, [None, Some(0), Some(1)]);
        for row in &metrics.probes {
            assert_eq!(row.fitness.len(), 2);
            assert!(row.fitness.iter().all(|f| f.is_finite()));
        }
        // Boundaries at g2 (task switch) and g3 (drift at local 1).
        let at: Vec<u64> = metrics.drift_events.iter().map(|d| d.generation).collect();
        assert_eq!(at, [2, 3]);
        // Deterministic: a second identical run accumulates identical
        // metrics (worker-count invariance is covered by the workspace
        // scenario suite).
        let plan2 = TaskPlan::new(
            7,
            vec![
                Task::new(EnvKind::CartPole, 2),
                Task::new(EnvKind::MountainCar, 2).with_drift(DriftSchedule::Sudden { at: 1 }),
            ],
        );
        let mut config2 = plan2.neat_config();
        config2.pop_size = 12;
        config2.initial_weights = InitialWeights::Uniform { lo: -1.0, hi: 1.0 };
        config2.target_fitness = None;
        let recorder2 = MetricsRecorder::new(plan2.clone(), RecoveryThreshold::WithinFraction(0.5))
            .probe(2, 1234);
        let mut session2 = Session::builder(config2, 41)
            .unwrap()
            .workload(TaskSequence::new(plan2))
            .observe(recorder2.observer())
            .build();
        session2.run(4);
        assert_eq!(metrics, recorder2.snapshot());
    }
}
