//! CartPole-v0: balance an inverted pendulum on a moving cart.
//!
//! Bit-faithful re-implementation of the classic control dynamics used by
//! OpenAI gym (Barto, Sutton & Anderson 1983): Euler integration with
//! `tau = 0.02 s`, force ±10 N, termination at |x| > 2.4 or |θ| > 12°.
//! Observation: four floats. Action: one binary value (Table I).

use crate::env::{binary_action, ActionKind, Environment};
use crate::episode_seed;
use genesys_neat::{
    EvalContext, Evaluation, Genome, LaneNetworks, Network, NetworkPlan, XorWow, LANES,
};

const GRAVITY: f64 = 9.8;
const MASS_CART: f64 = 1.0;
const MASS_POLE: f64 = 0.1;
const TOTAL_MASS: f64 = MASS_CART + MASS_POLE;
const LENGTH: f64 = 0.5; // half pole length
const POLE_MASS_LENGTH: f64 = MASS_POLE * LENGTH;
const FORCE_MAG: f64 = 10.0;
const TAU: f64 = 0.02;
const THETA_LIMIT: f64 = 12.0 * std::f64::consts::PI / 180.0;
const X_LIMIT: f64 = 2.4;

/// The CartPole-v0 environment.
#[derive(Debug, Clone)]
pub struct CartPole {
    rng: XorWow,
    state: [f64; 4], // x, x_dot, theta, theta_dot
    steps: usize,
    done: bool,
}

impl CartPole {
    /// Episode length required for the v0 win criterion.
    pub const MAX_STEPS: usize = 200;

    /// Creates a CartPole whose initial-state randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut env = CartPole {
            rng: XorWow::seed_from_u64_value(seed ^ 0xCA57_0000),
            state: [0.0; 4],
            steps: 0,
            done: false,
        };
        env.reset_into(&mut [0.0; 4]);
        env
    }

    /// Current raw state `[x, x_dot, theta, theta_dot]`.
    pub fn state(&self) -> [f64; 4] {
        self.state
    }
}

/// The CartPole dynamics and termination rule: the one copy, shared by
/// [`CartPole::step_into`] and the lane stepper ([`Lanes`]).
///
/// Advances `state` by one Euler step under the push the raw network
/// output `action` selects. `cos_t` and `sin_t` are the cosine and sine of
/// the current pole angle, computed by the caller so that the lane stepper
/// can run every lane's `sin_cos` back to back.
/// `steps` counts the step being taken. Returns the next state and
/// whether the episode is over (the cart left the track, the pole fell,
/// or the step limit is reached).
#[inline(always)]
fn dynamics(
    state: [f64; 4],
    action: f64,
    cos_t: f64,
    sin_t: f64,
    steps: usize,
) -> ([f64; 4], bool) {
    let force = if binary_action(action) {
        FORCE_MAG
    } else {
        -FORCE_MAG
    };
    let [x, x_dot, theta, theta_dot] = state;
    let temp = (force + POLE_MASS_LENGTH * theta_dot * theta_dot * sin_t) / TOTAL_MASS;
    let theta_acc = (GRAVITY * sin_t - cos_t * temp)
        / (LENGTH * (4.0 / 3.0 - MASS_POLE * cos_t * cos_t / TOTAL_MASS));
    let x_acc = temp - POLE_MASS_LENGTH * theta_acc * cos_t / TOTAL_MASS;
    let next = [
        x + TAU * x_dot,
        x_dot + TAU * x_acc,
        theta + TAU * theta_dot,
        theta_dot + TAU * theta_acc,
    ];
    let fell = next[0].abs() > X_LIMIT || next[2].abs() > THETA_LIMIT;
    (next, fell || steps >= CartPole::MAX_STEPS)
}

impl Environment for CartPole {
    fn name(&self) -> &'static str {
        "CartPole_v0"
    }

    fn observation_dim(&self) -> usize {
        4
    }

    fn action_dim(&self) -> usize {
        1
    }

    fn action_kind(&self) -> ActionKind {
        ActionKind::Discrete(2)
    }

    fn reset_into(&mut self, obs: &mut [f64]) {
        for s in &mut self.state {
            *s = self.rng.uniform(-0.05, 0.05);
        }
        self.steps = 0;
        self.done = false;
        obs.copy_from_slice(&self.state);
    }

    fn step_into(&mut self, action: &[f64], obs: &mut [f64]) -> (f64, bool) {
        assert_eq!(action.len(), 1, "CartPole takes one binary output");
        if self.done {
            obs.copy_from_slice(&self.state);
            return (0.0, true);
        }
        let (sin_t, cos_t) = self.state[2].sin_cos();
        self.steps += 1;
        (self.state, self.done) = dynamics(self.state, action[0], cos_t, sin_t, self.steps);
        obs.copy_from_slice(&self.state);
        (1.0, self.done)
    }

    fn max_steps(&self) -> usize {
        Self::MAX_STEPS
    }
}

/// One lane's genome and its episode tallies (see [`Lanes`]).
#[derive(Debug, Clone)]
struct Lane {
    /// Index of the lane's genome in the run being evaluated.
    genome: usize,
    /// The genome's environment, seeded and reset as
    /// `EpisodeEvaluator::evaluate` does; the lane steps its state in
    /// [`Lanes`]' SoA arrays and uses the env for its resets.
    env: CartPole,
    /// Episodes finished.
    episodes: usize,
    /// Reward summed over the finished episodes.
    total: f64,
    /// Steps summed over the finished episodes.
    env_steps: u64,
}

impl Lane {
    fn new(genome: usize, seed: u64) -> Lane {
        Lane {
            genome,
            env: CartPole::new(seed),
            episodes: 0,
            total: 0.0,
            env_steps: 0,
        }
    }
}

/// The CartPole lane stepper: evaluates a run of genomes with up to
/// [`LANES`] of them stepping their episodes in lockstep, each lane a
/// different genome with its own network program and episode.
///
/// A lane that starts a genome compiles it and loads the compiled
/// program into its [`LaneNetworks`] lane. Every step then runs in three
/// phases over the live lanes: each lane's state written straight into
/// its input slots and the lane programs activated rank by rank
/// ([`LaneNetworks::activate`]), every lane's `sin_cos θ`, then
/// [`dynamics`] on the SoA lane state. Both `sin_cos` halves come from one
/// libm `sincos` call per lane, the call the scalar
/// [`CartPole::step_into`] compiles to as well; separate `cos` and `sin`
/// phases would cost two calls per lane.
///
/// A lane whose episode ends starts its genome's next episode (a reset of
/// the same env) or, once the genome's episodes are done, refills with
/// the run's next genome; lanes left without work are swapped out of the
/// live prefix, network program and state alike. Each lane's trajectory
/// is the scalar loop's (`episode_into` over `CartPole::step_into`) bit
/// for bit, so every genome's [`Evaluation`] equals
/// `EpisodeEvaluator::evaluate`'s.
#[derive(Debug)]
pub(crate) struct Lanes {
    /// One compile buffer per lane position, so that a repeated run
    /// compiles the same genomes into the same plans. Compaction swaps
    /// the lane programs, not these.
    plans: Vec<NetworkPlan>,
    nets: LaneNetworks,
    lanes: Vec<Lane>,
    x: [f64; LANES],
    x_dot: [f64; LANES],
    theta: [f64; LANES],
    theta_dot: [f64; LANES],
    /// Steps taken in the running episode.
    steps: [usize; LANES],
    /// Reward of the running episode.
    reward: [f64; LANES],
    done: [bool; LANES],
    cos: [f64; LANES],
    sin: [f64; LANES],
}

impl Lanes {
    pub(crate) fn new() -> Lanes {
        Lanes {
            plans: (0..LANES).map(|_| NetworkPlan::new()).collect(),
            nets: LaneNetworks::new(),
            lanes: vec![Lane::new(0, 0); LANES],
            x: [0.0; LANES],
            x_dot: [0.0; LANES],
            theta: [0.0; LANES],
            theta_dot: [0.0; LANES],
            steps: [0; LANES],
            reward: [0.0; LANES],
            done: [false; LANES],
            cos: [0.0; LANES],
            sin: [0.0; LANES],
        }
    }

    /// Evaluates `genomes[k]` under `first` with index `first.index + k`,
    /// averaging `episodes` episodes, into `out[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `genomes.len() != out.len()`, a genome is cyclic, or its
    /// interface is not CartPole's 4 inputs and 1 output.
    pub(crate) fn evaluate(
        &mut self,
        genomes: &[Genome],
        first: EvalContext,
        episodes: usize,
        out: &mut [Evaluation],
    ) {
        assert_eq!(genomes.len(), out.len(), "one output slot per genome");
        let mut next = 0;
        let mut live = 0;
        while live < LANES && next < genomes.len() {
            self.start(live, next, &genomes[next], first);
            live += 1;
            next += 1;
        }
        while live > 0 {
            self.step(live);
            let mut l = 0;
            while l < live {
                if !self.done[l] {
                    l += 1;
                    continue;
                }
                let lane = &mut self.lanes[l];
                lane.total += self.reward[l];
                lane.env_steps += self.steps[l] as u64;
                lane.episodes += 1;
                if lane.episodes < episodes {
                    // The next episode resets the same env.
                    self.reset(l);
                    l += 1;
                    continue;
                }
                // `EpisodeEvaluator::evaluate` returns a lone episode's
                // reward as is, and the mean of several.
                let fitness = if episodes == 1 {
                    self.reward[l]
                } else {
                    lane.total / episodes as f64
                };
                out[lane.genome] = Evaluation {
                    fitness,
                    env_steps: lane.env_steps,
                };
                if next < genomes.len() {
                    self.start(l, next, &genomes[next], first);
                    next += 1;
                    l += 1;
                } else {
                    // Swap the last live lane in and look at it next.
                    live -= 1;
                    self.swap(l, live);
                }
            }
        }
    }

    /// Puts genome `k` of the run into lane `l` and starts its first
    /// episode: the env's constructor resets once, then the episode's
    /// reset, as in `episode_rollout_with`.
    fn start(&mut self, l: usize, k: usize, genome: &Genome, first: EvalContext) {
        let plan = &mut self.plans[l];
        Network::compile_into(plan, genome).expect("population genomes are valid");
        let net = plan.network();
        assert!(
            net.num_inputs() == 4 && net.num_outputs() == 1,
            "CartPole lanes take genomes of 4 inputs and 1 output"
        );
        self.nets.load(l, net);
        let index = first.index + k as u64;
        self.lanes[l] = Lane::new(k, episode_seed(first.base_seed, first.generation, index));
        self.reset(l);
    }

    /// Starts a new episode in lane `l` on the lane's env.
    fn reset(&mut self, l: usize) {
        let mut obs = [0.0; 4];
        self.lanes[l].env.reset_into(&mut obs);
        [self.x[l], self.x_dot[l], self.theta[l], self.theta_dot[l]] = obs;
        self.steps[l] = 0;
        self.reward[l] = 0.0;
        self.done[l] = false;
    }

    /// One step of lanes `0..live`, phase by phase across the lanes: the
    /// lane programs, every lane's `sin_cos`, then the dynamics.
    fn step(&mut self, live: usize) {
        // Lets the compiler drop the per-lane bounds checks below.
        assert!(live <= LANES);
        for l in 0..live {
            self.nets.input_slots(l).copy_from_slice(&[
                self.x[l],
                self.x_dot[l],
                self.theta[l],
                self.theta_dot[l],
            ]);
        }
        self.nets.activate(live);
        for l in 0..live {
            (self.sin[l], self.cos[l]) = self.theta[l].sin_cos();
        }
        for l in 0..live {
            self.steps[l] += 1;
            let state = [self.x[l], self.x_dot[l], self.theta[l], self.theta_dot[l]];
            let (next, done) = dynamics(
                state,
                self.nets.output(l, 0),
                self.cos[l],
                self.sin[l],
                self.steps[l],
            );
            [self.x[l], self.x_dot[l], self.theta[l], self.theta_dot[l]] = next;
            self.done[l] = done;
            self.reward[l] += 1.0;
        }
    }

    /// Exchanges lanes `a` and `b`, network programs and state alike.
    fn swap(&mut self, a: usize, b: usize) {
        self.nets.swap(a, b);
        self.lanes.swap(a, b);
        for column in [
            &mut self.x,
            &mut self.x_dot,
            &mut self.theta,
            &mut self.theta_dot,
            &mut self.reward,
        ] {
            column.swap(a, b);
        }
        self.steps.swap(a, b);
        self.done.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_is_small_random_state() {
        let mut env = CartPole::new(1);
        let obs = env.reset();
        assert_eq!(obs.len(), 4);
        assert!(obs.iter().all(|v| v.abs() <= 0.05));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = CartPole::new(9);
        let mut b = CartPole::new(9);
        a.reset();
        b.reset();
        for _ in 0..50 {
            let sa = a.step(&[0.9]);
            let sb = b.step(&[0.9]);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn constant_push_fails_quickly() {
        let mut env = CartPole::new(3);
        env.reset();
        let mut steps = 0;
        loop {
            let s = env.step(&[1.0]); // always push right
            steps += 1;
            if s.done {
                break;
            }
        }
        assert!(steps < 200, "constant force should topple the pole");
    }

    #[test]
    fn alternating_policy_survives_longer_than_constant() {
        let run = |alternate: bool| {
            let mut env = CartPole::new(4);
            env.reset();
            let mut steps = 0usize;
            loop {
                // crude hand policy: push against pole lean
                let action = if alternate {
                    if env.state()[2] > 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    1.0
                };
                let s = env.step(&[action]);
                steps += 1;
                if s.done {
                    break;
                }
            }
            steps
        };
        assert!(run(true) > run(false));
    }

    #[test]
    fn episode_caps_at_200() {
        let mut env = CartPole::new(5);
        env.reset();
        let mut total = 0usize;
        for _ in 0..300 {
            // Near-perfect policy: push against lean.
            let a = if env.state()[2] > 0.0 { 1.0 } else { 0.0 };
            let s = env.step(&[a]);
            total += 1;
            if s.done {
                break;
            }
        }
        assert!(total <= 200);
    }

    #[test]
    fn step_after_done_is_inert() {
        let mut env = CartPole::new(6);
        env.reset();
        while !env.step(&[1.0]).done {}
        let s = env.step(&[1.0]);
        assert!(s.done);
        assert_eq!(s.reward, 0.0);
    }
}
