//! Wire-nameable workloads.
//!
//! A wire request cannot carry an arbitrary `Evaluator` — closures do not
//! serialize. [`WorkloadSpec`] is the set of workloads a client can name
//! over the protocol; [`WorkloadSpec::build`] instantiates the matching
//! [`ServeWorkload`], which the server hands to the session. Each spec
//! honours the determinism contract (`genesys_neat::session`): every
//! random choice derives from the [`EvalContext`], so a server-mediated
//! run is bit-identical to a direct [`genesys_neat::Session`] run with
//! the same spec, seed and config — the property `tests/serve_eviction.rs`
//! asserts byte-for-byte.

use crate::error::{FrameError, ServeError};
use crate::protocol::{Reader, Writer};
use genesys_gym::{DriftSchedule, EnvKind, EpisodeEvaluator, TaskPlan, TaskSequence};
use genesys_neat::{
    evaluate_each, EvalContext, Evaluation, Evaluator, Genome, NeatConfig, Network, NetworkPlan,
};

/// A serializable workload description — what the `submit` and `resume`
/// verbs carry instead of an `Evaluator` object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// A synthetic closed-form fitness: cheap, allocation-light, fully
    /// deterministic — the load-test workload (perfbench's serve-zipf
    /// drives a thousand sessions of it).
    Synthetic,
    /// Episode rollouts in one of the Table I environments
    /// (`EpisodeEvaluator`).
    Env {
        /// The environment.
        kind: EnvKind,
        /// Episodes averaged per evaluation (≥ 1).
        episodes: u32,
    },
    /// CartPole whose world drifts: a one-task [`TaskSequence`] under
    /// `DriftSchedule::Linear { period }`. Generation `g` faces regime
    /// `g / period` of the `DriftedEnv` sensor gains keyed by
    /// `world_seed`, the same regime for every genome of the generation.
    /// Its sequence position rides in the session's `workload_state` and
    /// survives eviction.
    Drifting {
        /// Keys every regime's sensor gains.
        world_seed: u64,
        /// Generations per regime (0 counts as 1).
        period: u64,
    },
}

/// The environment of a [`WorkloadSpec::Drifting`] workload.
const DRIFTING_ENV: EnvKind = EnvKind::CartPole;

/// The `Env` spec's last word, reserved: it held the lane count of the
/// retired per-genome episode-batch kernel. The protocol keeps it until
/// the next snapshot format break; it is always written as this value,
/// and any other value is rejected as [`FrameError::BadPayload`]
/// (code 105).
const RESERVED_ENV_WORD: u32 = 1;

/// Stable wire code of an [`EnvKind`] (never renumbered; new kinds take
/// new codes).
fn env_code(kind: EnvKind) -> u16 {
    match kind {
        EnvKind::CartPole => 0,
        EnvKind::MountainCar => 1,
        EnvKind::Acrobot => 2,
        EnvKind::LunarLander => 3,
        EnvKind::Bipedal => 4,
        EnvKind::AirRaid => 5,
        EnvKind::Alien => 6,
        EnvKind::Amidar => 7,
        EnvKind::Asterix => 8,
    }
}

fn env_from_code(code: u16) -> Option<EnvKind> {
    Some(match code {
        0 => EnvKind::CartPole,
        1 => EnvKind::MountainCar,
        2 => EnvKind::Acrobot,
        3 => EnvKind::LunarLander,
        4 => EnvKind::Bipedal,
        5 => EnvKind::AirRaid,
        6 => EnvKind::Alien,
        7 => EnvKind::Amidar,
        8 => EnvKind::Asterix,
        _ => return None,
    })
}

impl WorkloadSpec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        match *self {
            WorkloadSpec::Synthetic => w.put_u16(0),
            WorkloadSpec::Env { kind, episodes } => {
                w.put_u16(1);
                w.put_u16(env_code(kind));
                w.put_u32(episodes);
                w.put_u32(RESERVED_ENV_WORD);
            }
            WorkloadSpec::Drifting { world_seed, period } => {
                w.put_u16(2);
                w.put_u64(world_seed);
                w.put_u64(period);
            }
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<WorkloadSpec, ServeError> {
        Ok(match r.take_u16()? {
            0 => WorkloadSpec::Synthetic,
            1 => {
                let kind = env_from_code(r.take_u16()?)
                    .ok_or(ServeError::Frame(FrameError::BadPayload("env kind code")))?;
                let episodes = r.take_u32()?;
                let reserved = r.take_u32()?;
                // `EpisodeEvaluator` asserts episodes ≥ 1; a malformed
                // frame must be a typed error, never a panic.
                if episodes == 0 {
                    return Err(ServeError::Frame(FrameError::BadPayload("zero episodes")));
                }
                if reserved != RESERVED_ENV_WORD {
                    return Err(ServeError::Frame(FrameError::BadPayload(
                        "reserved env spec word",
                    )));
                }
                WorkloadSpec::Env { kind, episodes }
            }
            2 => WorkloadSpec::Drifting {
                world_seed: r.take_u64()?,
                period: r.take_u64()?,
            },
            _ => {
                return Err(ServeError::Frame(FrameError::BadPayload(
                    "workload spec tag",
                )))
            }
        })
    }

    /// Rejects a `config` whose genome interface is not the one this
    /// workload's environment has, before any session is built: such a
    /// session would panic on its first step. `Synthetic` takes any
    /// interface.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkloadInterface`] (code 203) on a mismatch.
    pub(crate) fn check_interface(&self, config: &NeatConfig) -> Result<(), ServeError> {
        let kind = match *self {
            WorkloadSpec::Synthetic => return Ok(()),
            WorkloadSpec::Env { kind, .. } => kind,
            WorkloadSpec::Drifting { .. } => DRIFTING_ENV,
        };
        let workload = kind.interface();
        let config = (config.num_inputs, config.num_outputs);
        if workload == config {
            Ok(())
        } else {
            Err(ServeError::WorkloadInterface { workload, config })
        }
    }

    /// Instantiates the evaluator this spec names. Each call builds a
    /// fresh evaluator; per-worker scratch pools are rebuilt lazily, so
    /// rehydrating an evicted session costs no more than its first
    /// evaluation did.
    pub fn build(&self) -> ServeWorkload {
        match *self {
            WorkloadSpec::Synthetic => ServeWorkload::Synthetic,
            WorkloadSpec::Env { kind, episodes } => {
                ServeWorkload::Episode(EpisodeEvaluator::new(kind).episodes(episodes as usize))
            }
            WorkloadSpec::Drifting { world_seed, period } => {
                // One task that never ends: past its budget a plan stays in
                // its last task with the drift clock running.
                let plan = TaskPlan::drifting(
                    DRIFTING_ENV,
                    DriftSchedule::Linear { period },
                    world_seed,
                    u64::MAX,
                );
                ServeWorkload::Drifting(TaskSequence::new(plan))
            }
        }
    }
}

/// The evaluator behind a served session: the instantiation of a
/// [`WorkloadSpec`]. Public so direct `Session` runs can use the exact
/// same workload when asserting server-vs-direct bit-identity.
#[derive(Debug)]
pub enum ServeWorkload {
    /// See [`WorkloadSpec::Synthetic`].
    Synthetic,
    /// See [`WorkloadSpec::Env`].
    Episode(EpisodeEvaluator),
    /// See [`WorkloadSpec::Drifting`].
    Drifting(TaskSequence),
}

/// The synthetic fitness: a pure function of `(ctx.seed(), network)`.
/// Exercises real inference (the network is activated on a seed-derived
/// input vector) without environment stepping, so load tests measure the
/// serving layer, not CartPole.
fn synthetic_fitness(ctx: EvalContext, net: &Network) -> f64 {
    let seed = ctx.seed();
    let inputs: Vec<f64> = (0..net.num_inputs())
        .map(|i| {
            // Two rotations of the seed per input keep lanes distinct.
            let s = seed.rotate_left((2 * i % 63) as u32);
            (s % 1009) as f64 / 1009.0
        })
        .collect();
    net.activate(&inputs).iter().map(|o| o.tanh()).sum()
}

impl Evaluator for ServeWorkload {
    fn evaluate(&self, ctx: EvalContext, net: &Network) -> Evaluation {
        match self {
            ServeWorkload::Synthetic => Evaluation {
                fitness: synthetic_fitness(ctx, net),
                env_steps: 0,
            },
            ServeWorkload::Episode(e) => e.evaluate(ctx, net),
            ServeWorkload::Drifting(d) => d.evaluate(ctx, net),
        }
    }

    /// Forwards to the episode workload, so served CartPole tenants take
    /// its lanes; the other kinds evaluate genome by genome.
    fn evaluate_genomes(
        &self,
        genomes: &[Genome],
        first: EvalContext,
        plan: &mut NetworkPlan,
        out: &mut [Evaluation],
    ) {
        match self {
            ServeWorkload::Episode(e) => e.evaluate_genomes(genomes, first, plan, out),
            ServeWorkload::Synthetic | ServeWorkload::Drifting(_) => {
                evaluate_each(self, genomes, first, plan, out)
            }
        }
    }

    fn state(&self) -> u64 {
        match self {
            ServeWorkload::Synthetic | ServeWorkload::Episode(_) => 0,
            ServeWorkload::Drifting(d) => d.state(),
        }
    }

    fn restore_state(&mut self, state: u64) {
        if let ServeWorkload::Drifting(d) = self {
            d.restore_state(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_codes_roundtrip_and_are_stable() {
        for (i, kind) in EnvKind::ALL.into_iter().enumerate() {
            assert_eq!(env_code(kind), i as u16, "codes are positional in ALL");
            assert_eq!(env_from_code(i as u16), Some(kind));
        }
        assert_eq!(env_from_code(EnvKind::ALL.len() as u16), None);
    }

    #[test]
    fn synthetic_fitness_is_a_pure_function_of_context() {
        // Nonzero weights, otherwise the net ignores its inputs and every
        // context scores the same.
        let config = genesys_neat::NeatConfig::builder(3, 2)
            .pop_size(4)
            .initial_weights(genesys_neat::InitialWeights::Uniform { lo: -1.0, hi: 1.0 })
            .build()
            .unwrap();
        let mut rng = genesys_neat::XorWow::seed_from_u64_value(1);
        let genome = genesys_neat::Genome::initial(0, &config, &mut rng);
        let net = Network::from_genome(&genome).unwrap();
        let ctx = EvalContext {
            base_seed: 5,
            generation: 2,
            index: 3,
        };
        let w = WorkloadSpec::Synthetic.build();
        let a = w.evaluate(ctx, &net);
        let b = w.evaluate(ctx, &net);
        assert_eq!(a, b);
        let other = w.evaluate(EvalContext { index: 4, ..ctx }, &net);
        assert_ne!(a.fitness, other.fitness);
    }

    #[test]
    fn only_the_environment_interface_is_accepted() {
        let config = |i, o| NeatConfig::builder(i, o).build().unwrap();
        let cartpole = WorkloadSpec::Env {
            kind: EnvKind::CartPole,
            episodes: 1,
        };
        assert_eq!(cartpole.check_interface(&config(4, 1)), Ok(()));
        assert_eq!(
            cartpole.check_interface(&config(3, 2)),
            Err(ServeError::WorkloadInterface {
                workload: (4, 1),
                config: (3, 2),
            })
        );
        let alien = WorkloadSpec::Env {
            kind: EnvKind::Alien,
            episodes: 1,
        };
        assert_eq!(alien.check_interface(&config(128, 1)), Ok(()));
        assert!(alien.check_interface(&config(4, 1)).is_err());
        let drifting = WorkloadSpec::Drifting {
            world_seed: 1,
            period: 2,
        };
        assert_eq!(drifting.check_interface(&config(4, 1)), Ok(()));
        assert_eq!(
            drifting.check_interface(&config(128, 1)),
            Err(ServeError::WorkloadInterface {
                workload: (4, 1),
                config: (128, 1),
            })
        );
        assert_eq!(
            WorkloadSpec::Synthetic.check_interface(&config(3, 2)),
            Ok(())
        );
    }

    #[test]
    fn drifting_state_rides_through_the_serve_workload() {
        let mut w = WorkloadSpec::Drifting {
            world_seed: 9,
            period: 3,
        }
        .build();
        assert_eq!(w.state(), 0);
        w.restore_state(24);
        assert_eq!(w.state(), 24);
        let mut synthetic = WorkloadSpec::Synthetic.build();
        synthetic.restore_state(7);
        assert_eq!(synthetic.state(), 0, "stateless workloads ignore phase");
    }
}
