//! Session workloads for the environment suite.
//!
//! [`EpisodeEvaluator`] is the [`Evaluator`] a `genesys_neat::Session`
//! drives to roll one (or more) episodes of a Table I environment per
//! genome. It honours the session determinism contract — every episode
//! seed is a pure function of the [`EvalContext`] — so fitness is
//! bit-identical at any worker count and across checkpoint/resume. The
//! drifting and curriculum workload is [`crate::TaskSequence`].

use crate::cartpole::Lanes;
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
