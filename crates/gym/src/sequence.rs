//! Task-sequence curricula: ordered environment families behind one fixed
//! genome interface.
//!
//! A [`TaskPlan`] names an ordered list of [`Task`]s (environment family +
//! generation budget + optional [`DriftSchedule`]); [`TaskSequence`] turns
//! the plan into a session [`Evaluator`]. Because the environment families
//! disagree on observation/action widths (CartPole is 4→1, LunarLander
//! 8→1, the walker 24→4), the plan fixes **one** genome interface — the
//! maximum width over its tasks — and each task carries an [`IoAdapter`]
//! that maps the task's interface onto it. The adapter is the degenerate
//! (fixed, non-evolved) form of an io-adapter *gene*: a deterministic
//! prefix mapping, identical for every genome, so evolution adapts the
//! network behind a stable pinout rather than re-negotiating the pinout
//! itself.
//!
//! # Determinism and checkpoints
//!
//! Which task (and which drift regime within it) an evaluation faces is a
//! pure function of the **scenario generation** `generation_offset +
//! ctx.generation`; episode seeds derive from the [`EvalContext`] with the
//! task index mixed in, so crossing a task boundary reshuffles the episode
//! stream deterministically. The only mutable workload state is
//! `generation_offset`, a single `u64` that rides in
//! [`Evaluator::state`] — which is what lets `Session::resume` continue a
//! curriculum mid-sequence (or mid-drift) bit-identically.

use crate::drift::{DriftSchedule, DriftedEnv};
use crate::{EnvKind, Environment};
use genesys_neat::{EvalContext, Evaluation, Evaluator, NeatConfig, Network, Scratch, WorkerLocal};

/// One curriculum entry: an environment family, how many generations the
/// population trains on it, and (optionally) how the world drifts while
/// it does.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// The environment family.
    pub kind: EnvKind,
    /// Generations the sequence dwells on this task (at least 1).
    pub generations: u64,
    /// Optional drift within the task, evaluated at the task-local
    /// generation (the schedule restarts when the task begins).
    pub drift: Option<DriftSchedule>,
}

impl Task {
    /// A drift-free task of `generations` generations.
    ///
    /// # Panics
    ///
    /// Panics if `generations == 0`.
    pub fn new(kind: EnvKind, generations: u64) -> Task {
        assert!(generations > 0, "a task must last at least one generation");
        Task {
            kind,
            generations,
            drift: None,
        }
    }

    /// Attaches a drift schedule (task-local generations).
    pub fn with_drift(mut self, drift: DriftSchedule) -> Task {
        self.drift = Some(drift);
        self
    }
}

/// The io-adapter mapping of one task: how the task's observation/action
/// interface plugs into the plan's fixed genome interface.
///
/// The mapping is the identity prefix: task observation `i` feeds genome
/// input `i`, unused genome inputs are held at `0.0`, and the task reads
/// the first `action_dim` genome outputs (surplus outputs are ignored).
/// [`adapted_episode`] realizes it without a copy: the task environment
/// writes its observation straight into the first `obs_dim` input slots
/// of the network's scratch, and the padding slots behind them are zeroed
/// once per episode (evaluation never writes an input slot).
/// It is deliberately *not* evolved — every genome sees the same pinout,
/// so fitness differences are attributable to the network, and the
/// mapping needs no checkpoint state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoAdapter {
    obs_dim: usize,
    act_dim: usize,
    in_width: usize,
    out_width: usize,
}

impl IoAdapter {
    /// Builds the adapter for a task interface inside a genome interface.
    ///
    /// # Panics
    ///
    /// Panics if the task interface exceeds the genome interface.
    pub fn new(obs_dim: usize, act_dim: usize, in_width: usize, out_width: usize) -> IoAdapter {
        assert!(
            obs_dim <= in_width && act_dim <= out_width,
            "task interface ({obs_dim}/{act_dim}) exceeds the genome interface \
             ({in_width}/{out_width})"
        );
        IoAdapter {
            obs_dim,
            act_dim,
            in_width,
            out_width,
        }
    }

    /// Task observation dimension.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Task action dimension.
    pub fn act_dim(&self) -> usize {
        self.act_dim
    }

    /// Genome input width.
    pub fn in_width(&self) -> usize {
        self.in_width
    }

    /// Genome output width.
    pub fn out_width(&self) -> usize {
        self.out_width
    }

    /// The slice of genome outputs the task consumes as its action.
    ///
    /// # Panics
    ///
    /// Panics if `output.len() != self.out_width()`.
    pub fn gather_actions<'a>(&self, output: &'a [f64]) -> &'a [f64] {
        assert_eq!(output.len(), self.out_width);
        &output[..self.act_dim]
    }
}

/// Reusable buffers for [`adapted_episode`]: the genome output vector and
/// the network [`Scratch`], whose input slots receive the task
/// observation and its zero padding. Same ownership rules as
/// [`RolloutScratch`](crate::RolloutScratch) — reuse one per worker, never share
/// concurrently; contents carry no information between episodes (each
/// episode rewrites every input slot of the plan it runs).
#[derive(Debug, Clone, Default)]
pub struct AdapterScratch {
    action: Vec<f64>,
    net: Scratch,
}

impl AdapterScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> AdapterScratch {
        AdapterScratch::default()
    }
}

/// Runs one episode of `env` under `net` through `adapter`, returning
/// `(cumulative_reward, steps_taken)`.
///
/// This is the sequence counterpart of [`episode_into`](crate::episode_into): the
/// environment writes each observation straight into the network's first
/// `obs_dim` input slots, the padding slots are zeroed once per episode,
/// and after the buffers have grown to the widest interface seen the loop
/// performs zero heap allocations per step. When the task interface
/// equals the genome interface the trajectory is bit-identical to
/// `episode_into` (there is no padding and the gather is the whole
/// output).
///
/// # Panics
///
/// Panics if the network or environment interface disagrees with
/// `adapter`.
pub fn adapted_episode(
    net: &Network,
    env: &mut dyn Environment,
    adapter: &IoAdapter,
    scratch: &mut AdapterScratch,
) -> (f64, u64) {
    assert_eq!(
        net.num_inputs(),
        adapter.in_width(),
        "genome input width must match the adapter"
    );
    assert_eq!(
        net.num_outputs(),
        adapter.out_width(),
        "genome output width must match the adapter"
    );
    assert_eq!(env.observation_dim(), adapter.obs_dim());
    assert_eq!(env.action_dim(), adapter.act_dim());
    let AdapterScratch {
        action,
        net: net_scratch,
    } = scratch;
    action.resize(adapter.out_width(), 0.0);
    let action = &mut action[..adapter.out_width()];
    let obs_dim = adapter.obs_dim();
    let input = net_scratch.input_slots(net);
    input[obs_dim..].fill(0.0);
    env.reset_into(&mut input[..obs_dim]);
    let mut fitness = 0.0;
    let mut steps = 0u64;
    loop {
        net.activate_in_place(net_scratch, action);
        let (reward, done) = env.step_into(
            adapter.gather_actions(action),
            &mut net_scratch.input_slots(net)[..obs_dim],
        );
        fitness += reward;
        steps += 1;
        if done {
            return (fitness, steps);
        }
    }
}

/// An ordered continual-learning curriculum: which tasks, for how long,
/// under which drift, behind which fixed genome interface.
///
/// The plan is plain cloneable data (no buffers, no state), so the same
/// value can drive the [`TaskSequence`] workload *and* the metrics
/// recorder that probes it — both answering "what holds at generation
/// `g`?" from the same pure functions.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPlan {
    tasks: Vec<Task>,
    world_seed: u64,
}

impl TaskPlan {
    /// Builds a plan. `world_seed` keys every drift regime's sensor
    /// transform (see [`crate::drift::regime_gains`]).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn new(world_seed: u64, tasks: Vec<Task>) -> TaskPlan {
        assert!(!tasks.is_empty(), "a plan needs at least one task");
        TaskPlan { tasks, world_seed }
    }

    /// Single-task convenience: `kind` under `drift` for `generations`
    /// generations — the drift-only continual scenario.
    pub fn drifting(
        kind: EnvKind,
        drift: DriftSchedule,
        world_seed: u64,
        generations: u64,
    ) -> TaskPlan {
        TaskPlan::new(
            world_seed,
            vec![Task::new(kind, generations).with_drift(drift)],
        )
    }

    /// The curriculum entries, in order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The drift world seed.
    pub fn world_seed(&self) -> u64 {
        self.world_seed
    }

    /// The fixed genome interface: maximum observation/action widths over
    /// the plan's tasks.
    pub fn interface(&self) -> (usize, usize) {
        let mut inputs = 0;
        let mut outputs = 0;
        for task in &self.tasks {
            let (i, o) = task.kind.interface();
            inputs = inputs.max(i);
            outputs = outputs.max(o);
        }
        (inputs, outputs)
    }

    /// Sum of the per-task generation budgets (saturating).
    pub fn total_generations(&self) -> u64 {
        self.tasks
            .iter()
            .fold(0u64, |acc, t| acc.saturating_add(t.generations))
    }

    /// `(task index, task-local generation)` in force at scenario
    /// generation `g`. Generations past the total budget stay in the last
    /// task (its local counter keeps advancing, so an attached drift
    /// schedule keeps drifting).
    pub fn task_at(&self, g: u64) -> (usize, u64) {
        let mut start = 0u64;
        for (i, task) in self.tasks.iter().enumerate() {
            let end = start.saturating_add(task.generations);
            if g < end || i == self.tasks.len() - 1 {
                return (i, g - start);
            }
            start = end;
        }
        unreachable!("a plan always has at least one task")
    }

    /// The drift regime in force at scenario generation `g` (0 when the
    /// active task has no schedule).
    pub fn regime(&self, g: u64) -> u64 {
        let (idx, local) = self.task_at(g);
        self.tasks[idx]
            .drift
            .as_ref()
            .map_or(0, |s| s.regime(local))
    }

    /// True when generation `g` faces a different world than `g - 1`: a
    /// task switch or a within-task drift-regime change. These are the
    /// drift events the metrics layer timestamps for recovery tracking.
    pub fn is_boundary(&self, g: u64) -> bool {
        if g == 0 {
            return false;
        }
        let (task, local) = self.task_at(g);
        let (prev_task, _) = self.task_at(g - 1);
        if task != prev_task {
            return true;
        }
        self.tasks[task]
            .drift
            .as_ref()
            .is_some_and(|s| local > 0 && s.changes_at(local))
    }

    /// The io-adapter of task `index` inside the plan's genome interface.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn adapter(&self, index: usize) -> IoAdapter {
        let (obs, act) = self.tasks[index].kind.interface();
        let (inputs, outputs) = self.interface();
        IoAdapter::new(obs, act, inputs, outputs)
    }

    /// A default [`NeatConfig`] sized to the plan's genome interface.
    /// Callers typically override population size and initial weights.
    pub fn neat_config(&self) -> NeatConfig {
        let (inputs, outputs) = self.interface();
        NeatConfig::builder(inputs, outputs)
            .build()
            .expect("default scenario config is valid")
    }

    /// Deterministic fixed-seed fitness of `net` on task `index`,
    /// averaged over `episodes` episodes of the **un-drifted** task (the
    /// probe measures task skill, not the drift regime of the moment).
    ///
    /// Probe seeds derive from `(probe_seed, index, episode)` through the
    /// session seed mix — independent of generation, worker count, and
    /// the training episode stream, so a probe is a stable measuring
    /// stick across the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `episodes == 0`, `index` is out of range, or the network
    /// interface disagrees with the plan.
    pub fn probe_fitness(
        &self,
        net: &Network,
        index: usize,
        episodes: usize,
        probe_seed: u64,
    ) -> f64 {
        assert!(episodes > 0, "at least one probe episode required");
        let adapter = self.adapter(index);
        let mut scratch = AdapterScratch::new();
        let mut total = 0.0;
        for episode in 0..episodes {
            let env_seed = EvalContext {
                base_seed: probe_seed,
                generation: index as u64,
                index: episode as u64,
            }
            .seed();
            let mut env = self.tasks[index].kind.make(env_seed);
            total += adapted_episode(net, env.as_mut(), &adapter, &mut scratch).0;
        }
        total / episodes as f64
    }
}

/// The curriculum as a session workload: evaluations at scenario
/// generation `g` face the task and drift regime [`TaskPlan`] assigns to
/// `g` (see the module docs for the determinism story).
#[derive(Debug)]
pub struct TaskSequence {
    plan: TaskPlan,
    generation_offset: u64,
    episodes: usize,
    scratch: WorkerLocal<AdapterScratch>,
}

impl TaskSequence {
    /// Builds the workload at sequence position 0 with 1 episode per
    /// evaluation.
    pub fn new(plan: TaskPlan) -> TaskSequence {
        TaskSequence {
            plan,
            generation_offset: 0,
            episodes: 1,
            scratch: WorkerLocal::new(AdapterScratch::new),
        }
    }

    /// Starts the curriculum at a nonzero position (e.g. to continue a
    /// sequence that already ran outside this session). `Session::resume`
    /// restores the offset from the checkpoint instead.
    pub fn with_generation_offset(mut self, offset: u64) -> TaskSequence {
        self.generation_offset = offset;
        self
    }

    /// Averages fitness over `episodes` episodes per evaluation, each
    /// with its own derived seed (the `(task, episode)` mix
    /// [`TaskPlan::probe_fitness`] uses) — the knob
    /// [`EpisodeEvaluator::episodes`](crate::EpisodeEvaluator::episodes) offers, for curricula.
    /// Multi-episode averaging matters most on drifting tasks, where a
    /// single episode is a noisy read of a regime. Configuration, not
    /// workload state: like the gym evaluator's, it is not serialized —
    /// resume with the same setting. Panics if `episodes == 0`.
    pub fn with_episodes(mut self, episodes: usize) -> TaskSequence {
        assert!(episodes > 0, "at least one episode required");
        self.episodes = episodes;
        self
    }

    /// The plan driving this workload.
    pub fn plan(&self) -> &TaskPlan {
        &self.plan
    }

    /// The serialized sequence position (see [`Evaluator::state`]).
    pub fn generation_offset(&self) -> u64 {
        self.generation_offset
    }

    /// The scenario generation a session generation maps to. It wraps
    /// past `u64::MAX`: the offset comes from a checkpoint, which a
    /// served client supplies, so it may be any value.
    pub fn scenario_generation(&self, session_generation: u64) -> u64 {
        self.generation_offset.wrapping_add(session_generation)
    }
}

impl Evaluator for TaskSequence {
    fn evaluate(&self, ctx: EvalContext, net: &Network) -> Evaluation {
        let g = self.scenario_generation(ctx.generation);
        let (index, local) = self.plan.task_at(g);
        let task = &self.plan.tasks()[index];
        let adapter = self.plan.adapter(index);
        let regime = task.drift.as_ref().map_or(0, |s| s.regime(local));
        let mut total = 0.0;
        let mut env_steps = 0u64;
        for episode in 0..self.episodes {
            // Mix the task index and episode into the seed so a task
            // switch reshuffles the episode stream and every episode of
            // a multi-episode evaluation draws its own initial state
            // (still pure in the context).
            let env_seed = EvalContext {
                base_seed: ctx.seed(),
                generation: index as u64,
                index: episode as u64,
            }
            .seed();
            let env = task.kind.make(env_seed);
            let (fitness, steps) = self.scratch.with(|scratch| {
                if regime != 0 {
                    // Key the drift world by task too, so two tasks
                    // sharing a regime label do not share a sensor-gain
                    // draw.
                    let world =
                        self.plan.world_seed() ^ (index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    let mut drifted = DriftedEnv::new(env, world, regime);
                    adapted_episode(net, &mut drifted, &adapter, scratch)
                } else {
                    let mut env = env;
                    adapted_episode(net, env.as_mut(), &adapter, scratch)
                }
            });
            total += fitness;
            env_steps += steps;
        }
        Evaluation {
            fitness: total / self.episodes as f64,
            env_steps,
        }
    }

    fn state(&self) -> u64 {
        self.generation_offset
    }

    fn restore_state(&mut self, state: u64) {
        self.generation_offset = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_neat::{Genome, XorWow};

    fn plan3() -> TaskPlan {
        TaskPlan::new(
            9,
            vec![
                Task::new(EnvKind::CartPole, 3),
                Task::new(EnvKind::Acrobot, 2).with_drift(DriftSchedule::Sudden { at: 1 }),
                Task::new(EnvKind::LunarLander, 4),
            ],
        )
    }

    #[test]
    fn interface_is_the_maximum_over_tasks() {
        assert_eq!(plan3().interface(), (8, 1));
        let wide = TaskPlan::new(
            0,
            vec![
                Task::new(EnvKind::Bipedal, 1),
                Task::new(EnvKind::MountainCar, 1),
            ],
        );
        assert_eq!(wide.interface(), (24, 4));
    }

    #[test]
    fn task_lookup_walks_budgets_and_clamps_to_last() {
        let p = plan3();
        assert_eq!(p.total_generations(), 9);
        assert_eq!(p.task_at(0), (0, 0));
        assert_eq!(p.task_at(2), (0, 2));
        assert_eq!(p.task_at(3), (1, 0));
        assert_eq!(p.task_at(4), (1, 1));
        assert_eq!(p.task_at(5), (2, 0));
        assert_eq!(p.task_at(8), (2, 3));
        // Past the budget: stays in the last task, local clock running.
        assert_eq!(p.task_at(100), (2, 95));
    }

    #[test]
    fn boundaries_are_task_switches_and_drift_events() {
        let p = plan3();
        let boundaries: Vec<u64> = (0..9).filter(|&g| p.is_boundary(g)).collect();
        // g=3: CartPole→Acrobot; g=4: Acrobot's sudden drift at local 1;
        // g=5: Acrobot→LunarLander.
        assert_eq!(boundaries, [3, 4, 5]);
        assert_eq!(p.regime(3), 0);
        assert_ne!(p.regime(4), 0);
    }

    #[test]
    fn adapter_gathers_the_action_prefix() {
        let a = IoAdapter::new(2, 1, 4, 2);
        let out = [0.7, 0.3];
        assert_eq!(a.gather_actions(&out), &[0.7]);
    }

    #[test]
    #[should_panic(expected = "exceeds the genome interface")]
    fn oversized_task_interface_panics() {
        IoAdapter::new(8, 1, 4, 1);
    }

    #[test]
    fn adapted_episode_with_identity_adapter_matches_episode_into() {
        let kind = EnvKind::CartPole;
        let config = kind.neat_config();
        let genome = Genome::initial(0, &config, &mut XorWow::seed_from_u64_value(3));
        let net = Network::from_genome(&genome).unwrap();
        let adapter = IoAdapter::new(4, 1, 4, 1);
        let (fit, steps) = adapted_episode(
            &net,
            kind.make(21).as_mut(),
            &adapter,
            &mut AdapterScratch::new(),
        );
        let want = crate::episode_into(
            &net,
            kind.make(21).as_mut(),
            &mut crate::RolloutScratch::new(),
        );
        assert_eq!((fit.to_bits(), steps), (want.0.to_bits(), want.1));
    }

    #[test]
    fn evaluation_is_pure_in_the_context() {
        let plan = plan3();
        let config = plan.neat_config();
        let genome = Genome::initial(0, &config, &mut XorWow::seed_from_u64_value(5));
        let net = Network::from_genome(&genome).unwrap();
        let seq = TaskSequence::new(plan);
        for generation in [0u64, 3, 4, 7] {
            let ctx = EvalContext {
                base_seed: 11,
                generation,
                index: 2,
            };
            let a = seq.evaluate(ctx, &net);
            let b = seq.evaluate(ctx, &net);
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
            assert_eq!(a.env_steps, b.env_steps);
        }
    }

    #[test]
    fn multi_episode_evaluation_averages_derived_seeds() {
        let plan = plan3();
        let config = plan.neat_config();
        let genome = Genome::initial(0, &config, &mut XorWow::seed_from_u64_value(5));
        let net = Network::from_genome(&genome).unwrap();
        let ctx = EvalContext {
            base_seed: 11,
            generation: 1,
            index: 4,
        };
        let one = TaskSequence::new(plan.clone()).evaluate(ctx, &net);
        let two = TaskSequence::new(plan.clone())
            .with_episodes(2)
            .evaluate(ctx, &net);
        let two_again = TaskSequence::new(plan).with_episodes(2).evaluate(ctx, &net);
        // Deterministic, and episode 0 of the 2-episode run is the
        // 1-episode run: steps strictly grow, fitness is the mean.
        assert_eq!(two.fitness.to_bits(), two_again.fitness.to_bits());
        assert_eq!(two.env_steps, two_again.env_steps);
        assert!(two.env_steps > one.env_steps);
        assert!(two.fitness.is_finite());
    }

    #[test]
    fn generation_offset_shifts_the_curriculum() {
        let mut shifted = TaskSequence::new(plan3());
        assert_eq!(shifted.state(), 0);
        shifted.restore_state(3);
        assert_eq!(shifted.generation_offset(), 3);
        // Session generation 1 now sits at scenario generation 4: inside
        // the Acrobot task, one generation past its sudden drift.
        assert_eq!(shifted.scenario_generation(1), 4);
        assert_eq!(
            shifted.plan().task_at(shifted.scenario_generation(1)),
            (1, 1)
        );
        assert_eq!(shifted.state(), 3);
    }

    #[test]
    fn probe_fitness_is_deterministic_and_task_keyed() {
        let plan = plan3();
        let config = plan.neat_config();
        let genome = Genome::initial(0, &config, &mut XorWow::seed_from_u64_value(7));
        let net = Network::from_genome(&genome).unwrap();
        let a = plan.probe_fitness(&net, 0, 3, 99);
        let b = plan.probe_fitness(&net, 0, 3, 99);
        assert_eq!(a.to_bits(), b.to_bits());
        let other_task = plan.probe_fitness(&net, 2, 3, 99);
        let other_seed = plan.probe_fitness(&net, 0, 3, 100);
        // CartPole and LunarLander rewards differ wildly; mostly we
        // assert the probes are well-defined and finite.
        assert!(a.is_finite() && other_task.is_finite() && other_seed.is_finite());
    }
}
