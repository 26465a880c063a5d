//! Session workloads for the environment suite.
//!
//! These are the [`Evaluator`] implementations a `genesys_neat::Session`
//! drives: [`EpisodeEvaluator`] rolls one (or more) episodes of a Table I
//! environment per genome, and [`DriftingEvaluator`] runs the paper's
//! continuous-learning scenario on the nonstationary
//! [`DriftingCartPole`]. Both honour the session determinism contract —
//! every episode seed and drift regime is a pure function of the
//! [`EvalContext`] — so fitness is bit-identical at any worker count and
//! across checkpoint/resume.

use crate::cartpole::Lanes;
use crate::nonstationary::DriftingCartPole;
use crate::{episode_into, episode_rollout_with, episode_seed, EnvKind, RolloutScratch};
use genesys_neat::{
    evaluate_each, EvalContext, Evaluation, Evaluator, Genome, Network, NetworkPlan, WorkerLocal,
};

/// Env-rollout workload: each genome earns its fitness from episodes of
/// `kind`, seeded by [`episode_seed`]`(base_seed, generation, index)`.
///
/// Rollout buffers are pooled per worker (one [`RolloutScratch`] per
/// concurrent thread, reused across every episode and generation), so the
/// steady-state evaluation hot loop performs zero heap allocations per
/// environment step — the same property `run_workload` had before the
/// session API.
///
/// # Population lanes
///
/// For [`EnvKind::CartPole`], runs of genomes handed to
/// [`Evaluator::evaluate_genomes`] go through a lane stepper: up to 16
/// genomes step their episodes in lockstep, each lane with its own network
/// program (a lane of `genesys_neat::LaneNetworks`, loaded once per
/// genome) and episode, and a lane refills with the run's next genome
/// when its genome's episodes are done. The contract is bit-identity: every
/// genome gets exactly the [`Evaluation`] that [`Evaluator::evaluate`]
/// gives it (same initial state — the env constructor's reset, then the
/// episode's — same reward sum and step count, same per-episode resets of
/// one env when `episodes > 1`, same `total / episodes`). Lane buffers
/// (compile plans, lane programs, SoA state) are pooled per worker like
/// the rollout scratch.
/// Other kinds evaluate genome by genome.
#[derive(Debug)]
pub struct EpisodeEvaluator {
    kind: EnvKind,
    episodes: usize,
    scratch: WorkerLocal<RolloutScratch>,
    lanes: WorkerLocal<Lanes>,
}

impl EpisodeEvaluator {
    /// One episode of `kind` per genome per generation.
    pub fn new(kind: EnvKind) -> Self {
        EpisodeEvaluator {
            kind,
            episodes: 1,
            scratch: WorkerLocal::new(RolloutScratch::new),
            lanes: WorkerLocal::new(Lanes::new),
        }
    }

    /// Averages fitness over `episodes` episodes per evaluation, run back
    /// to back on one environment seeded by [`episode_seed`] and reset
    /// between episodes. Panics if `episodes == 0`.
    pub fn episodes(mut self, episodes: usize) -> Self {
        assert!(episodes > 0, "at least one episode required");
        self.episodes = episodes;
        self
    }

    /// The workload's environment kind.
    pub fn kind(&self) -> EnvKind {
        self.kind
    }
}

impl Evaluator for EpisodeEvaluator {
    fn evaluate(&self, ctx: EvalContext, net: &Network) -> Evaluation {
        let env_seed = episode_seed(ctx.base_seed, ctx.generation, ctx.index);
        self.scratch.with(|buffers| {
            if self.episodes == 1 {
                let (fitness, env_steps) = episode_rollout_with(self.kind, net, env_seed, buffers);
                Evaluation { fitness, env_steps }
            } else {
                // Multi-episode evaluation: one environment, reset per
                // episode, fitness averaged over the episodes.
                let mut env = self.kind.make(env_seed);
                let mut total = 0.0;
                let mut env_steps = 0;
                for _ in 0..self.episodes {
                    let (fitness, steps) = episode_into(net, env.as_mut(), buffers);
                    total += fitness;
                    env_steps += steps;
                }
                Evaluation {
                    fitness: total / self.episodes as f64,
                    env_steps,
                }
            }
        })
    }

    /// CartPole runs go through the lane stepper (see the type docs);
    /// every other run evaluates genome by genome.
    fn evaluate_genomes(
        &self,
        genomes: &[Genome],
        first: EvalContext,
        plan: &mut NetworkPlan,
        out: &mut [Evaluation],
    ) {
        if self.kind == EnvKind::CartPole {
            self.lanes
                .with(|lanes| lanes.evaluate(genomes, first, self.episodes, out));
        } else {
            evaluate_each(self, genomes, first, plan, out);
        }
    }
}

/// The continuous-learning workload: every genome faces the same drifting
/// cart-pole world, whose physics regime advances with the global episode
/// index.
///
/// # Drift phase and checkpoints
///
/// The episode index of an evaluation is the pure function
/// `episode_offset + generation * episodes_per_generation + index`, so the
/// drift schedule depends only on *where* in the run an evaluation sits —
/// never on evaluation order (this replaces the order-dependent
/// `AtomicU64` episode counter the original continuous-learning example
/// used). The phase is serialized across power cycles: `episode_offset`
/// travels in [`Evaluator::state`] and the generation counter in the
/// session's `EvolutionState`, so a resumed run faces exactly the regimes
/// the uninterrupted run would have.
#[derive(Debug)]
pub struct DriftingEvaluator {
    world_seed: u64,
    period: u64,
    episodes_per_generation: u64,
    episode_offset: u64,
    scratch: WorkerLocal<RolloutScratch>,
}

impl DriftingEvaluator {
    /// Creates the workload: regimes advance every `period` episodes, and
    /// each generation consumes `episodes_per_generation` episodes
    /// (normally the population size — one episode per genome).
    pub fn new(world_seed: u64, period: u64, episodes_per_generation: u64) -> Self {
        DriftingEvaluator {
            world_seed,
            period: period.max(1),
            episodes_per_generation,
            episode_offset: 0,
            scratch: WorkerLocal::new(RolloutScratch::new),
        }
    }

    /// Starts the drift at a nonzero phase (e.g. to continue a world that
    /// already ran outside this session).
    pub fn with_episode_offset(mut self, offset: u64) -> Self {
        self.episode_offset = offset;
        self
    }

    /// The serialized drift phase (see the type docs).
    pub fn episode_offset(&self) -> u64 {
        self.episode_offset
    }

    /// Global episode index of evaluation `(generation, index)`.
    pub fn episode_at(&self, generation: u64, index: u64) -> u64 {
        self.episode_offset + generation * self.episodes_per_generation + index
    }

    /// An environment positioned at the first episode of `generation`,
    /// for probing the regime in force (reporting, not evaluation).
    pub fn probe(&self, generation: u64) -> DriftingCartPole {
        DriftingCartPole::new(self.world_seed, self.period)
            .with_episode(self.episode_at(generation, 0))
    }
}

impl Evaluator for DriftingEvaluator {
    fn evaluate(&self, ctx: EvalContext, net: &Network) -> Evaluation {
        let episode = self.episode_at(ctx.generation, ctx.index);
        let mut env = DriftingCartPole::new(self.world_seed, self.period).with_episode(episode);
        let (fitness, env_steps) = self
            .scratch
            .with(|buffers| episode_into(net, &mut env, buffers));
        Evaluation { fitness, env_steps }
    }

    fn state(&self) -> u64 {
        self.episode_offset
    }

    fn restore_state(&mut self, state: u64) {
        self.episode_offset = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_neat::{NeatConfig, Session};

    #[test]
    fn episode_evaluator_matches_manual_rollout() {
        let config = EnvKind::CartPole.neat_config();
        let genome = genesys_neat::Genome::initial(
            0,
            &config,
            &mut genesys_neat::XorWow::seed_from_u64_value(3),
        );
        let net = Network::from_genome(&genome).unwrap();
        let eval = EpisodeEvaluator::new(EnvKind::CartPole);
        let ctx = EvalContext {
            base_seed: 9,
            generation: 2,
            index: 5,
        };
        let got = eval.evaluate(ctx, &net);
        let seed = episode_seed(9, 2, 5);
        let want = crate::episode_rollout(EnvKind::CartPole, &net, seed);
        assert_eq!((got.fitness, got.env_steps), want);
    }

    #[test]
    fn multi_episode_average_matches_rollout_semantics() {
        let config = EnvKind::MountainCar.neat_config();
        let genome = genesys_neat::Genome::initial(
            0,
            &config,
            &mut genesys_neat::XorWow::seed_from_u64_value(5),
        );
        let net = Network::from_genome(&genome).unwrap();
        let eval = EpisodeEvaluator::new(EnvKind::MountainCar).episodes(3);
        let ctx = EvalContext {
            base_seed: 1,
            generation: 0,
            index: 0,
        };
        let got = eval.evaluate(ctx, &net);
        let mut env = EnvKind::MountainCar.make(episode_seed(1, 0, 0));
        let want = crate::rollout(&net, env.as_mut(), 3);
        assert_eq!(got.fitness, want);
        assert!(got.env_steps > 0);
    }

    /// `count` CartPole genomes of mixed topology and weights, so their
    /// episodes end at different steps and lanes refill out of order.
    fn mixed_cartpole_genomes(count: usize) -> Vec<genesys_neat::Genome> {
        let mut config = EnvKind::CartPole.neat_config();
        config.initial_weights = genesys_neat::InitialWeights::Uniform { lo: -2.0, hi: 2.0 };
        config.node_add_prob = 0.5;
        config.conn_add_prob = 0.5;
        let mut rng = genesys_neat::XorWow::seed_from_u64_value(17);
        let mut innov = genesys_neat::InnovationTracker::new(config.first_hidden_id());
        let mut ops = genesys_neat::trace::OpCounters::new();
        (0..count)
            .map(|k| {
                let mut genome = genesys_neat::Genome::initial(k as u64, &config, &mut rng);
                for _ in 0..k % 6 {
                    genome.mutate(&config, &mut innov, &mut rng, &mut ops);
                }
                genome
            })
            .collect()
    }

    /// The lane path equals per-genome `evaluate` in fitness bits and step
    /// counts, for runs shorter than, equal to and longer than the lane
    /// count, with one episode and with several.
    #[test]
    fn cartpole_lanes_match_per_genome_evaluate() {
        let genomes = mixed_cartpole_genomes(300);
        let first = EvalContext {
            base_seed: 77,
            generation: 3,
            index: 40,
        };
        for episodes in [1, 3] {
            let eval = EpisodeEvaluator::new(EnvKind::CartPole).episodes(episodes);
            for len in [1, 15, 16, 17, 300] {
                let run = &genomes[..len];
                let mut out = vec![
                    Evaluation {
                        fitness: 0.0,
                        env_steps: 0,
                    };
                    len
                ];
                eval.evaluate_genomes(run, first, &mut NetworkPlan::new(), &mut out);
                let mut lengths = std::collections::BTreeSet::new();
                for (k, (genome, got)) in run.iter().zip(&out).enumerate() {
                    let net = Network::from_genome(genome).unwrap();
                    let ctx = EvalContext {
                        index: first.index + k as u64,
                        ..first
                    };
                    let want = eval.evaluate(ctx, &net);
                    assert_eq!(
                        (got.fitness.to_bits(), got.env_steps),
                        (want.fitness.to_bits(), want.env_steps),
                        "episodes {episodes}, run of {len}, genome {k}"
                    );
                    lengths.insert(want.env_steps);
                }
                if len == 300 {
                    assert!(lengths.len() > 10, "episodes of many lengths");
                }
            }
        }
    }

    #[test]
    fn drift_phase_is_pure_in_generation_and_index() {
        let eval = DriftingEvaluator::new(7, 300, 96);
        assert_eq!(eval.episode_at(0, 0), 0);
        assert_eq!(eval.episode_at(3, 10), 3 * 96 + 10);
        let offset = DriftingEvaluator::new(7, 300, 96).with_episode_offset(500);
        assert_eq!(offset.episode_at(3, 10), 500 + 3 * 96 + 10);
        assert_eq!(offset.state(), 500);
    }

    #[test]
    fn drift_phase_survives_checkpoint_resume() {
        let config = NeatConfig::builder(4, 1).pop_size(12).build().unwrap();
        let pop = config.pop_size as u64;
        let make_eval = || DriftingEvaluator::new(4242, 30, pop).with_episode_offset(17);

        let mut full = Session::builder(config.clone(), 8)
            .unwrap()
            .workload(make_eval())
            .build();
        let full_report = full.run(6);

        let mut head = Session::builder(config, 8)
            .unwrap()
            .workload(make_eval())
            .build();
        head.run(3);
        let state = head.export_state();
        assert_eq!(state.workload_state(), 17, "drift phase serialized");
        // Resume with a *default-phase* evaluator: the checkpoint restores
        // the offset.
        let mut resumed = Session::resume(state)
            .unwrap()
            .workload(DriftingEvaluator::new(4242, 30, pop))
            .build();
        assert_eq!(resumed.workload().episode_offset(), 17);
        let tail = resumed.run(3);
        assert_eq!(&full_report.history[3..], &tail.history[..]);
        assert_eq!(full.genomes(), resumed.genomes());
    }

    #[test]
    fn probe_reports_the_regime_evaluations_face() {
        let eval = DriftingEvaluator::new(11, 5, 10);
        // Generation 1 starts at episode 10 -> regime 2 (episode/period).
        assert_eq!(eval.probe(1).regime(), 2);
        assert_eq!(eval.probe(0).regime(), 0);
    }
}
