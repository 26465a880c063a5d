//! # genesys-gym — the GeneSys workload suite (Table I)
//!
//! Re-implementations of the environments the paper evaluates on:
//!
//! | Environment | Observation | Action (network outputs) |
//! |-------------|-------------|--------------------------|
//! | [`Acrobot`] | 6 floats | 1 float → torque ∈ {-1,0,1} |
//! | [`Bipedal`] | 24 floats | 4 continuous torques |
//! | [`CartPole`] | 4 floats | 1 binary value |
//! | [`MountainCar`] | 2 floats | 1 integer < 3 |
//! | [`LunarLander`] | 8 floats | 1 integer < 4 |
//! | Atari-RAM ([`atari_ram`]) | 128 bytes | 1 integer (button) |
//!
//! Classic-control dynamics are bit-faithful to OpenAI gym; the Box2D and
//! Atari workloads are reduced-order substitutes, each documented in its
//! module ([`bipedal`], [`lunar_lander`], [`atari_ram`]).
//!
//! Every environment implements the buffer-writing primitives
//! [`Environment::reset_into`] / [`Environment::step_into`], and the
//! episode loops ([`rollout_with`], [`episode_rollout_with`], both built
//! on [`episode_into`]) reuse one [`RolloutScratch`] per worker. The
//! environment writes each observation straight into the network's input
//! slots (`Scratch::input_slots`), where `Network::activate_in_place`
//! evaluates it: no observation is copied. After warm-up the steady-state
//! rollout performs **zero heap allocations per step** (proved by the
//! workspace's counting-allocator test), with fitness bit-identical to the
//! allocating wrappers.
//!
//! The suite plugs into `genesys_neat::Session` as two workloads:
//!
//! * [`EpisodeEvaluator`] ([`evaluator`]): seeded episodes of one
//!   environment per genome.
//! * [`TaskSequence`] ([`sequence`]): the continuous-learning workload. A
//!   [`TaskPlan`] orders environment families behind one genome interface
//!   ([`IoAdapter`]), and a [`DriftSchedule`] ([`drift`]) changes the
//!   world at most once per generation, by a [`DriftedEnv`] sensor
//!   transform. Every genome of a generation faces the same world, and
//!   the sequence position rides in the checkpoint.
//!   `TaskPlan::drifting(kind, DriftSchedule::Linear { period }, ..)` is
//!   the one-environment drifting world.
//!
//! # Population lanes
//!
//! A session hands its workload each generation's genomes in contiguous
//! runs (`Evaluator::evaluate_genomes`). For [`EnvKind::CartPole`] (any
//! episode count), [`EpisodeEvaluator`] steps the run's genomes in 16
//! lockstep lanes, each lane a *different* genome with its own episode,
//! refilled from the run as episodes end. A lane that takes a genome
//! loads its compiled program into `genesys_neat::LaneNetworks` once.
//! Every step then writes each lane's state straight into that lane's
//! input slots, activates the lane programs rank by rank, runs every
//! lane's `sin_cos`, then the shared CartPole dynamics on SoA lane
//! state. Every lane's trajectory — initial state, reward sum, step count,
//! per-episode resets — is the scalar [`episode_into`] loop's bit for bit,
//! so fitness, step counts and whole session trajectories equal those of
//! genome-by-genome evaluation at any worker count. Every other workload
//! (the other environments, task sequences and drift, the SoC) evaluates
//! genome by genome.
//!
//! # Quickstart
//!
//! ```
//! use genesys_gym::{CartPole, Environment, rollout};
//! use genesys_neat::{Genome, NeatConfig, Network, XorWow};
//!
//! let config = NeatConfig::for_env("cartpole", 4, 1);
//! let genome = Genome::initial(0, &config, &mut XorWow::seed_from_u64_value(1));
//! let net = Network::from_genome(&genome)?;
//! let mut env = CartPole::new(42);
//! let fitness = rollout(&net, &mut env, 1);
//! assert!(fitness >= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod acrobot;
pub mod atari_ram;
pub mod bipedal;
pub mod cartpole;
pub mod drift;
pub mod env;
pub mod evaluator;
pub mod lunar_lander;
pub mod mountain_car;
pub mod sequence;

pub use acrobot::Acrobot;
pub use atari_ram::{AirRaidRam, AlienRam, AmidarRam, AsterixRam, RamEnv, RamGame, RAM_SIZE};
pub use bipedal::Bipedal;
pub use cartpole::CartPole;
pub use drift::{regime_gains, DriftSchedule, DriftedEnv};
pub use env::{binary_action, quantize_action, ActionKind, Environment, Step};
pub use evaluator::EpisodeEvaluator;
pub use lunar_lander::LunarLander;
pub use mountain_car::MountainCar;
pub use sequence::{adapted_episode, AdapterScratch, IoAdapter, Task, TaskPlan, TaskSequence};

use genesys_neat::{NeatConfig, Network, Scratch};

/// Reusable buffers for the steady-state rollout hot loop: one action
/// slice and one network [`Scratch`], whose input slots receive the
/// observations.
///
/// # Ownership rules
///
/// Like [`Scratch`], a `RolloutScratch` is pure workspace: reuse one
/// instance across steps, episodes, environments and networks of any size
/// (buffers grow to the largest interface seen and are retained), but
/// never share it between concurrent evaluations — give each worker its
/// own, e.g. through `genesys_neat::WorkerLocal`. Contents carry no
/// information between episodes (each episode's reset rewrites every
/// input slot); reuse changes performance only, never results.
#[derive(Debug, Clone, Default)]
pub struct RolloutScratch {
    action: Vec<f64>,
    net: Scratch,
}

impl RolloutScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> RolloutScratch {
        RolloutScratch::default()
    }
}

/// Runs one episode of `env` under the policy `net` using caller-owned
/// buffers, returning `(cumulative_reward, steps_taken)`.
///
/// This is **the** episode loop: [`rollout`], [`rollout_with`],
/// [`episode_rollout`] and [`episode_rollout_with`] (and through them the
/// genome-by-genome path of [`EpisodeEvaluator`]) all funnel through it,
/// so the reward/termination semantics cannot drift between entry points.
/// After the buffers have grown to the environment's interface (first
/// call), the loop performs **zero heap allocations per step**:
/// [`Environment::reset_into`] and [`Environment::step_into`] write each
/// observation straight into the network's input slots
/// ([`Scratch::input_slots`]), and the network evaluates it there through
/// [`Network::activate_in_place`].
///
/// # Panics
///
/// Panics if the environment's observation size differs from the
/// network's input count.
pub fn episode_into(
    net: &Network,
    env: &mut dyn Environment,
    scratch: &mut RolloutScratch,
) -> (f64, u64) {
    assert_eq!(
        env.observation_dim(),
        net.num_inputs(),
        "observation size must match the genome interface"
    );
    scratch.action.resize(net.num_outputs(), 0.0);
    let action = &mut scratch.action[..net.num_outputs()];
    env.reset_into(scratch.net.input_slots(net));
    let mut fitness = 0.0;
    let mut steps = 0u64;
    loop {
        net.activate_in_place(&mut scratch.net, action);
        let (reward, done) = env.step_into(action, scratch.net.input_slots(net));
        fitness += reward;
        steps += 1;
        if done {
            return (fitness, steps);
        }
    }
}

/// Derives the environment seed for one genome's episode: a SplitMix64-style
/// mix of the run's base seed, the generation index, and the genome's index
/// within the generation.
///
/// This is the determinism half of the evaluation-engine contract (see
/// `genesys_neat::executor`): because the seed is a pure function of
/// `(base, generation, index)` — never of a worker id or a shared counter —
/// episode evaluation produces bit-identical fitness whether the population
/// is evaluated serially or spread over any number of pool workers.
pub fn episode_seed(base: u64, generation: u64, index: u64) -> u64 {
    // Delegates to the session API's seed mix: the formulas are one and
    // the same, so episode seeds predating `Session` remain bit-valid.
    genesys_neat::EvalContext {
        base_seed: base,
        generation,
        index,
    }
    .seed()
}

/// Runs one episode of `kind` seeded with `env_seed` under the policy
/// `net`, returning `(cumulative_reward, steps_taken)`. This is the unit of
/// work the persistent evaluation engine schedules: self-contained (builds
/// its own environment), deterministic in `(kind, net, env_seed)`, and
/// step-counted so the harness can aggregate environment traffic without
/// order-sensitive shared state.
pub fn episode_rollout(kind: EnvKind, net: &Network, env_seed: u64) -> (f64, u64) {
    episode_rollout_with(kind, net, env_seed, &mut RolloutScratch::new())
}

/// [`episode_rollout`] with caller-owned buffers: the zero-allocation form
/// the evaluation engine's workers call, reusing one [`RolloutScratch`]
/// per worker across every episode and generation. Heap allocation happens
/// only at episode setup (environment construction) — never per step.
pub fn episode_rollout_with(
    kind: EnvKind,
    net: &Network,
    env_seed: u64,
    scratch: &mut RolloutScratch,
) -> (f64, u64) {
    let mut env = kind.make(env_seed);
    episode_into(net, env.as_mut(), scratch)
}

/// Runs `episodes` episodes of `env` under the policy `net`, returning the
/// mean cumulative reward — the fitness value step 6 of the SoC walkthrough
/// augments to the genome.
///
/// # Panics
///
/// Panics if `episodes == 0`.
pub fn rollout(net: &Network, env: &mut dyn Environment, episodes: usize) -> f64 {
    rollout_with(net, env, episodes, &mut RolloutScratch::new())
}

/// [`rollout`] with caller-owned buffers (see [`RolloutScratch`]); the
/// episode loop is shared with [`episode_rollout_with`] via
/// [`episode_into`].
///
/// # Panics
///
/// Panics if `episodes == 0`.
pub fn rollout_with(
    net: &Network,
    env: &mut dyn Environment,
    episodes: usize,
    scratch: &mut RolloutScratch,
) -> f64 {
    assert!(episodes > 0, "at least one episode required");
    let mut total = 0.0;
    for _ in 0..episodes {
        total += episode_into(net, env, scratch).0;
    }
    total / episodes as f64
}

/// The workload suite, by paper label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvKind {
    /// CartPole-v0.
    CartPole,
    /// MountainCar-v0.
    MountainCar,
    /// Acrobot.
    Acrobot,
    /// LunarLander-v2.
    LunarLander,
    /// Bipedal walker.
    Bipedal,
    /// AirRaid-ram-v0.
    AirRaid,
    /// Alien-ram-v0.
    Alien,
    /// Amidar-ram-v0.
    Amidar,
    /// Asterix-ram-v0.
    Asterix,
}

impl EnvKind {
    /// The six workloads of the paper's Fig 9/10 evaluation.
    pub const FIG9_SUITE: [EnvKind; 6] = [
        EnvKind::CartPole,
        EnvKind::MountainCar,
        EnvKind::LunarLander,
        EnvKind::AirRaid,
        EnvKind::Amidar,
        EnvKind::Alien,
    ];

    /// Every implemented workload.
    pub const ALL: [EnvKind; 9] = [
        EnvKind::CartPole,
        EnvKind::MountainCar,
        EnvKind::Acrobot,
        EnvKind::LunarLander,
        EnvKind::Bipedal,
        EnvKind::AirRaid,
        EnvKind::Alien,
        EnvKind::Amidar,
        EnvKind::Asterix,
    ];

    /// Paper-style display label.
    pub fn label(self) -> &'static str {
        match self {
            EnvKind::CartPole => "CartPole_v0",
            EnvKind::MountainCar => "MountainCar_v0",
            EnvKind::Acrobot => "Acrobot",
            EnvKind::LunarLander => "LunarLander_v2",
            EnvKind::Bipedal => "BipedalWalker",
            EnvKind::AirRaid => "AirRaid-ram-v0",
            EnvKind::Alien => "Alien-ram-v0",
            EnvKind::Amidar => "Amidar-ram-v0",
            EnvKind::Asterix => "Asterix-ram-v0",
        }
    }

    /// `(observation_dim, action_dim)`: the NEAT interface sizes.
    pub fn interface(self) -> (usize, usize) {
        match self {
            EnvKind::CartPole => (4, 1),
            EnvKind::MountainCar => (2, 1),
            EnvKind::Acrobot => (6, 1),
            EnvKind::LunarLander => (8, 1),
            EnvKind::Bipedal => (24, 4),
            EnvKind::AirRaid | EnvKind::Alien | EnvKind::Amidar | EnvKind::Asterix => (128, 1),
        }
    }

    /// True for the 128-byte RAM workloads.
    pub fn is_atari(self) -> bool {
        matches!(
            self,
            EnvKind::AirRaid | EnvKind::Alien | EnvKind::Amidar | EnvKind::Asterix
        )
    }

    /// Instantiates the environment with a seed.
    pub fn make(self, seed: u64) -> Box<dyn Environment> {
        match self {
            EnvKind::CartPole => Box::new(CartPole::new(seed)),
            EnvKind::MountainCar => Box::new(MountainCar::new(seed)),
            EnvKind::Acrobot => Box::new(Acrobot::new(seed)),
            EnvKind::LunarLander => Box::new(LunarLander::new(seed)),
            EnvKind::Bipedal => Box::new(Bipedal::new(seed)),
            EnvKind::AirRaid => Box::new(AirRaidRam::from_seed(seed)),
            EnvKind::Alien => Box::new(AlienRam::from_seed(seed)),
            EnvKind::Amidar => Box::new(AmidarRam::from_seed(seed)),
            EnvKind::Asterix => Box::new(AsterixRam::from_seed(seed)),
        }
    }

    /// A [`NeatConfig`] preset tuned for this workload (paper defaults:
    /// population 150, initial zero-weight full connection).
    pub fn neat_config(self) -> NeatConfig {
        let (inputs, outputs) = self.interface();
        let family = match self {
            EnvKind::CartPole => "cartpole",
            EnvKind::MountainCar => "mountaincar",
            EnvKind::Acrobot => "acrobot",
            EnvKind::LunarLander => "lunarlander",
            EnvKind::Bipedal => "bipedal",
            _ => "atari",
        };
        NeatConfig::for_env(family, inputs, outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_neat::{Genome, XorWow};
    use std::collections::HashSet;

    #[test]
    fn every_env_matches_its_declared_interface() {
        for kind in EnvKind::ALL {
            let mut env = kind.make(5);
            let (obs_dim, act_dim) = kind.interface();
            assert_eq!(env.observation_dim(), obs_dim, "{}", kind.label());
            assert_eq!(env.action_dim(), act_dim, "{}", kind.label());
            let obs = env.reset();
            assert_eq!(obs.len(), obs_dim, "{}", kind.label());
            let step = env.step(&vec![0.5; act_dim]);
            assert_eq!(step.observation.len(), obs_dim, "{}", kind.label());
            assert!(step.reward.is_finite());
        }
    }

    #[test]
    fn rollout_runs_initial_genomes_on_all_envs() {
        for kind in EnvKind::ALL {
            let config = kind.neat_config();
            let genome = Genome::initial(0, &config, &mut XorWow::seed_from_u64_value(3));
            let net = genesys_neat::Network::from_genome(&genome).unwrap();
            let mut env = kind.make(11);
            let fit = rollout(&net, env.as_mut(), 1);
            assert!(fit.is_finite(), "{}: {fit}", kind.label());
        }
    }

    #[test]
    fn episodes_terminate_within_max_steps() {
        for kind in EnvKind::ALL {
            let mut env = kind.make(17);
            let act_dim = env.action_dim();
            env.reset();
            let mut steps = 0usize;
            loop {
                let s = env.step(&vec![0.61; act_dim]);
                steps += 1;
                if s.done {
                    break;
                }
                assert!(
                    steps <= env.max_steps() + 1,
                    "{} exceeded its step limit",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn neat_configs_are_valid_for_all_envs() {
        for kind in EnvKind::ALL {
            assert!(kind.neat_config().validate().is_ok(), "{}", kind.label());
        }
    }

    #[test]
    fn fig9_suite_is_subset_of_all() {
        for kind in EnvKind::FIG9_SUITE {
            assert!(EnvKind::ALL.contains(&kind));
        }
    }

    #[test]
    fn episode_seed_is_deterministic_and_index_sensitive() {
        assert_eq!(episode_seed(7, 3, 11), episode_seed(7, 3, 11));
        let mut seen = HashSet::new();
        for generation in 0..8u64 {
            for index in 0..64u64 {
                seen.insert(episode_seed(42, generation, index));
            }
        }
        assert_eq!(seen.len(), 8 * 64, "seeds must not collide across jobs");
    }

    #[test]
    fn shared_scratch_across_all_envs_matches_fresh_buffers() {
        // One RolloutScratch reused across every env kind (interfaces from
        // 2 to 128 observations) must be bit-identical to fresh buffers.
        let mut scratch = RolloutScratch::new();
        for kind in EnvKind::ALL {
            let config = kind.neat_config();
            let genome = Genome::initial(0, &config, &mut XorWow::seed_from_u64_value(3));
            let net = genesys_neat::Network::from_genome(&genome).unwrap();
            let reused = episode_rollout_with(kind, &net, 21, &mut scratch);
            let fresh = episode_rollout(kind, &net, 21);
            assert_eq!(reused, fresh, "{}", kind.label());
        }
    }

    #[test]
    fn rollout_with_matches_rollout() {
        let kind = EnvKind::MountainCar;
        let config = kind.neat_config();
        let genome = Genome::initial(0, &config, &mut XorWow::seed_from_u64_value(5));
        let net = genesys_neat::Network::from_genome(&genome).unwrap();
        let mut scratch = RolloutScratch::new();
        let a = rollout_with(&net, kind.make(33).as_mut(), 3, &mut scratch);
        let b = rollout(&net, kind.make(33).as_mut(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn step_into_matches_allocating_step() {
        // The provided reset/step wrappers and the buffer-writing
        // primitives must produce bit-identical trajectories.
        for kind in EnvKind::ALL {
            let mut a = kind.make(7);
            let mut b = kind.make(7);
            let act_dim = a.action_dim();
            let action = vec![0.61; act_dim];
            let mut obs = vec![0.0; a.observation_dim()];
            a.reset_into(&mut obs);
            assert_eq!(obs, b.reset(), "{}", kind.label());
            for _ in 0..50 {
                let (reward, done) = a.step_into(&action, &mut obs);
                let step = b.step(&action);
                assert_eq!(obs, step.observation, "{}", kind.label());
                assert_eq!(reward, step.reward, "{}", kind.label());
                assert_eq!(done, step.done, "{}", kind.label());
                if done {
                    break;
                }
            }
        }
    }

    #[test]
    fn episode_rollout_matches_manual_loop() {
        let kind = EnvKind::CartPole;
        let config = kind.neat_config();
        let genome = Genome::initial(0, &config, &mut XorWow::seed_from_u64_value(3));
        let net = genesys_neat::Network::from_genome(&genome).unwrap();
        let (fit, steps) = episode_rollout(kind, &net, 99);
        assert!(steps > 0);
        let mut env = kind.make(99);
        assert_eq!(fit, rollout(&net, env.as_mut(), 1));
        // Same seed, same episode — bit-identical.
        assert_eq!((fit, steps), episode_rollout(kind, &net, 99));
    }
}
