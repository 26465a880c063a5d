//! LunarLander: soft-land a module on a pad by firing thrusters.
//!
//! Reduced-order substitute for gym's Box2D `LunarLander-v2` (the paper
//! only consumes its observation/action interface and reward shape):
//! a 2-D rigid body with a main engine and two lateral thrusters, gym's
//! 8-component observation `[x, y, vx, vy, θ, θ̇, leg1, leg2]`, four
//! discrete actions (nothing / left / main / right), and gym's
//! potential-based reward shaping with ±100 terminal bonuses and fuel
//! costs. Dynamics constants are chosen to give comparable episode lengths
//! (hundreds of steps) and the same qualitative difficulty.

use crate::env::{quantize_action, ActionKind, Environment};
use genesys_neat::XorWow;

const GRAVITY: f64 = -0.40; // scaled units per step²
const MAIN_POWER: f64 = 0.65;
const SIDE_POWER: f64 = 0.06;
const DT: f64 = 0.12;
const PAD_HALF_WIDTH: f64 = 0.2;
const MAX_LANDING_SPEED: f64 = 0.55;
const MAX_LANDING_TILT: f64 = 0.35;

/// The lunar lander environment.
#[derive(Debug, Clone)]
pub struct LunarLander {
    rng: XorWow,
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    angle: f64,
    vangle: f64,
    left_leg: bool,
    right_leg: bool,
    steps: usize,
    done: bool,
    prev_shaping: Option<f64>,
}

impl LunarLander {
    /// Episode step limit (matches gym's 1000).
    pub const MAX_STEPS: usize = 1000;

    /// Creates a lander seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        let mut env = LunarLander {
            rng: XorWow::seed_from_u64_value(seed ^ 0x11BA_DA00),
            x: 0.0,
            y: 0.0,
            vx: 0.0,
            vy: 0.0,
            angle: 0.0,
            vangle: 0.0,
            left_leg: false,
            right_leg: false,
            steps: 0,
            done: false,
            prev_shaping: None,
        };
        env.reset_into(&mut [0.0; 8]);
        env
    }

    fn write_observation(&self, obs: &mut [f64]) {
        obs.copy_from_slice(&[
            self.x,
            self.y,
            self.vx,
            self.vy,
            self.angle,
            self.vangle,
            if self.left_leg { 1.0 } else { 0.0 },
            if self.right_leg { 1.0 } else { 0.0 },
        ]);
    }

    /// Gym's shaping potential: closer/slower/straighter is better.
    fn shaping(&self) -> f64 {
        -100.0 * (self.x * self.x + self.y * self.y).sqrt()
            - 100.0 * (self.vx * self.vx + self.vy * self.vy).sqrt()
            - 100.0 * self.angle.abs()
            + 10.0 * (self.left_leg as i32 + self.right_leg as i32) as f64
    }

    /// Was the last terminal state a successful landing?
    pub fn landed(&self) -> bool {
        self.done
            && self.y <= 0.0
            && self.x.abs() <= PAD_HALF_WIDTH
            && self.vx.hypot(self.vy) <= MAX_LANDING_SPEED
            && self.angle.abs() <= MAX_LANDING_TILT
    }
}

impl Environment for LunarLander {
    fn name(&self) -> &'static str {
        "LunarLander_v2"
    }

    fn observation_dim(&self) -> usize {
        8
    }

    fn action_dim(&self) -> usize {
        1
    }

    fn action_kind(&self) -> ActionKind {
        ActionKind::Discrete(4)
    }

    fn reset_into(&mut self, obs: &mut [f64]) {
        self.x = self.rng.uniform(-0.3, 0.3);
        self.y = 1.4;
        self.vx = self.rng.uniform(-0.1, 0.1);
        self.vy = self.rng.uniform(-0.1, 0.0);
        self.angle = self.rng.uniform(-0.1, 0.1);
        self.vangle = self.rng.uniform(-0.05, 0.05);
        self.left_leg = false;
        self.right_leg = false;
        self.steps = 0;
        self.done = false;
        self.prev_shaping = None;
        self.write_observation(obs);
    }

    fn step_into(&mut self, action: &[f64], obs: &mut [f64]) -> (f64, bool) {
        assert_eq!(action.len(), 1, "LunarLander takes one output");
        if self.done {
            self.write_observation(obs);
            return (0.0, true);
        }
        let a = quantize_action(action[0], 4); // 0 none, 1 left, 2 main, 3 right
        let mut fuel_cost = 0.0;
        let mut ax = 0.0;
        let mut ay = GRAVITY;
        match a {
            1 => {
                // left thruster: pushes right and spins counter-clockwise
                ax += SIDE_POWER * self.angle.cos();
                self.vangle += SIDE_POWER * 0.8;
                fuel_cost = 0.03;
            }
            2 => {
                // main engine: thrust along the body axis
                ax += -MAIN_POWER * self.angle.sin();
                ay += MAIN_POWER * self.angle.cos();
                fuel_cost = 0.30;
            }
            3 => {
                ax -= SIDE_POWER * self.angle.cos();
                self.vangle -= SIDE_POWER * 0.8;
                fuel_cost = 0.03;
            }
            _ => {}
        }
        self.vx += ax * DT;
        self.vy += ay * DT;
        self.x += self.vx * DT;
        self.y += self.vy * DT;
        self.angle += self.vangle * DT;
        // Weak aerodynamic-like damping keeps tumbling bounded.
        self.vangle *= 0.99;
        self.steps += 1;

        let mut reward = -fuel_cost;
        let shaping = self.shaping();
        if let Some(prev) = self.prev_shaping {
            reward += shaping - prev;
        }
        self.prev_shaping = Some(shaping);

        if self.y <= 0.0 {
            self.y = 0.0;
            self.left_leg = true;
            self.right_leg = true;
            self.done = true;
            let soft =
                self.vx.hypot(self.vy) <= MAX_LANDING_SPEED && self.angle.abs() <= MAX_LANDING_TILT;
            let on_pad = self.x.abs() <= PAD_HALF_WIDTH;
            reward += if soft && on_pad {
                100.0
            } else if soft {
                20.0 // soft landing off-pad: partial credit
            } else {
                -100.0 // crash
            };
        } else if self.x.abs() > 1.5 || self.y > 2.5 {
            self.done = true;
            reward += -100.0; // flew away
        } else if self.steps >= Self::MAX_STEPS {
            self.done = true;
        }

        self.write_observation(obs);
        (reward, self.done)
    }

    fn max_steps(&self) -> usize {
        Self::MAX_STEPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_policy(seed: u64, policy: impl Fn(&[f64]) -> f64) -> (f64, bool) {
        let mut env = LunarLander::new(seed);
        let mut obs = env.reset();
        let mut total = 0.0;
        loop {
            let s = env.step(&[policy(&obs)]);
            total += s.reward;
            obs = s.observation;
            if s.done {
                break;
            }
        }
        (total, env.landed())
    }

    #[test]
    fn observation_is_eight_floats() {
        let mut env = LunarLander::new(1);
        assert_eq!(env.reset().len(), 8);
    }

    #[test]
    fn free_fall_crashes() {
        let (total, landed) = run_policy(2, |_| 0.1); // action 0: do nothing
        assert!(!landed);
        assert!(total < 0.0, "crash must be penalized, got {total}");
    }

    #[test]
    fn braking_policy_beats_free_fall() {
        // Fire main engine when descending fast: crude but better.
        let (fall, _) = run_policy(3, |_| 0.1);
        let (brake, _) = run_policy(3, |obs| if obs[3] < -0.5 { 0.6 } else { 0.1 });
        assert!(brake > fall, "braking {brake} should beat free fall {fall}");
    }

    #[test]
    fn legs_latch_on_touchdown() {
        let mut env = LunarLander::new(4);
        env.reset();
        let mut last;
        loop {
            let s = env.step(&[0.1]);
            last = s.observation.clone();
            if s.done {
                break;
            }
        }
        if last[1] <= 0.0 {
            assert_eq!(last[6], 1.0);
            assert_eq!(last[7], 1.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = LunarLander::new(5);
        let mut b = LunarLander::new(5);
        a.reset();
        b.reset();
        for _ in 0..100 {
            assert_eq!(a.step(&[0.6]), b.step(&[0.6]));
        }
    }

    #[test]
    fn episode_terminates() {
        let mut env = LunarLander::new(6);
        env.reset();
        let mut steps = 0;
        while !env.step(&[0.35]).done {
            steps += 1;
            assert!(steps <= LunarLander::MAX_STEPS + 1);
        }
    }
}
