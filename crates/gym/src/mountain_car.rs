//! MountainCar-v0: drive an underpowered car out of a valley.
//!
//! Standard gym dynamics (Moore 1990): position ∈ [-1.2, 0.6], velocity
//! ∈ [-0.07, 0.07], three discrete actions (push left / coast / push
//! right), goal at position 0.5. Observation: two floats. Action: one
//! integer less than three (Table I).

use crate::env::{quantize_action, ActionKind, Environment};
use genesys_neat::XorWow;

const MIN_POS: f64 = -1.2;
const MAX_POS: f64 = 0.6;
const MAX_SPEED: f64 = 0.07;
const GOAL_POS: f64 = 0.5;
const FORCE: f64 = 0.001;
const GRAVITY: f64 = 0.0025;

/// The MountainCar-v0 environment.
#[derive(Debug, Clone)]
pub struct MountainCar {
    rng: XorWow,
    position: f64,
    velocity: f64,
    steps: usize,
    done: bool,
}

impl MountainCar {
    /// Gym's episode limit for v0.
    pub const MAX_STEPS: usize = 200;

    /// Creates a MountainCar seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        let mut env = MountainCar {
            rng: XorWow::seed_from_u64_value(seed ^ 0x0CA2_0000),
            position: -0.5,
            velocity: 0.0,
            steps: 0,
            done: false,
        };
        env.reset_into(&mut [0.0; 2]);
        env
    }

    /// Current `(position, velocity)`.
    pub fn state(&self) -> (f64, f64) {
        (self.position, self.velocity)
    }

    /// Did the car reach the goal?
    pub fn reached_goal(&self) -> bool {
        self.position >= GOAL_POS
    }
}

impl Environment for MountainCar {
    fn name(&self) -> &'static str {
        "MountainCar_v0"
    }

    fn observation_dim(&self) -> usize {
        2
    }

    fn action_dim(&self) -> usize {
        1
    }

    fn action_kind(&self) -> ActionKind {
        ActionKind::Discrete(3)
    }

    fn reset_into(&mut self, obs: &mut [f64]) {
        self.position = self.rng.uniform(-0.6, -0.4);
        self.velocity = 0.0;
        self.steps = 0;
        self.done = false;
        obs.copy_from_slice(&[self.position, self.velocity]);
    }

    fn step_into(&mut self, action: &[f64], obs: &mut [f64]) -> (f64, bool) {
        assert_eq!(action.len(), 1, "MountainCar takes one output");
        if self.done {
            obs.copy_from_slice(&[self.position, self.velocity]);
            return (0.0, true);
        }
        let a = quantize_action(action[0], 3) as f64 - 1.0; // -1, 0, +1
        self.velocity += a * FORCE + (3.0 * self.position).cos() * (-GRAVITY);
        self.velocity = self.velocity.clamp(-MAX_SPEED, MAX_SPEED);
        self.position += self.velocity;
        self.position = self.position.clamp(MIN_POS, MAX_POS);
        if self.position <= MIN_POS && self.velocity < 0.0 {
            self.velocity = 0.0; // inelastic left wall, as in gym
        }
        self.steps += 1;
        self.done = self.reached_goal() || self.steps >= Self::MAX_STEPS;
        obs.copy_from_slice(&[self.position, self.velocity]);
        (-1.0, self.done)
    }

    fn max_steps(&self) -> usize {
        Self::MAX_STEPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_in_valley() {
        let mut env = MountainCar::new(1);
        let obs = env.reset();
        assert!((-0.6..-0.4).contains(&obs[0]));
        assert_eq!(obs[1], 0.0);
    }

    #[test]
    fn coasting_never_escapes() {
        let mut env = MountainCar::new(2);
        env.reset();
        for _ in 0..200 {
            let s = env.step(&[0.5]); // action 1 = coast
            if s.done {
                break;
            }
        }
        assert!(!env.reached_goal(), "coasting cannot climb the hill");
    }

    #[test]
    fn oscillation_policy_escapes() {
        // Classic solution: push in the direction of motion.
        let mut env = MountainCar::new(3);
        env.reset();
        let mut steps = 0;
        loop {
            let (_, v) = env.state();
            let a = if v >= 0.0 { 0.99 } else { 0.01 };
            let s = env.step(&[a]);
            steps += 1;
            if s.done {
                break;
            }
        }
        assert!(env.reached_goal(), "momentum pumping should reach the flag");
        assert!(steps < 200);
    }

    #[test]
    fn reward_is_minus_one_per_step() {
        let mut env = MountainCar::new(4);
        env.reset();
        let s = env.step(&[0.0]);
        assert_eq!(s.reward, -1.0);
    }

    #[test]
    fn velocity_stays_clamped() {
        let mut env = MountainCar::new(5);
        env.reset();
        for _ in 0..200 {
            let s = env.step(&[0.99]);
            assert!(s.observation[1].abs() <= MAX_SPEED + 1e-12);
            if s.done {
                break;
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = MountainCar::new(6);
        let mut b = MountainCar::new(6);
        a.reset();
        b.reset();
        for _ in 0..100 {
            assert_eq!(a.step(&[0.8]), b.step(&[0.8]));
        }
    }
}
