//! Bipedal walker: evolve locomotion for a two-legged robot.
//!
//! Reduced-order substitute for gym's Box2D `BipedalWalker`: a planar
//! torso with two 2-joint legs on flat terrain. What the GeneSys study
//! needs from this workload is its *interface scale* — a 24-component
//! observation (Table I: "twenty four floating point numbers") driving
//! large genomes — and a shaped locomotion reward (forward progress minus
//! torque cost, fall = -100). The contact/propulsion model is simplified
//! (stance-leg thrust proportional to hip torque while the foot is down)
//! but preserves the control problem's character: the two legs must
//! alternate to make progress.

use crate::env::{ActionKind, Environment};
use genesys_neat::XorWow;

const DT: f64 = 0.05;
const TORQUE_SCALE: f64 = 2.0;
const FALL_ANGLE: f64 = 0.8;
const GOAL_DISTANCE: f64 = 30.0;
const LIDAR_RAYS: usize = 10;

#[derive(Debug, Clone, Copy, Default)]
struct Leg {
    hip: f64,
    hip_vel: f64,
    knee: f64,
    knee_vel: f64,
    contact: bool,
}

/// The bipedal walker environment.
#[derive(Debug, Clone)]
pub struct Bipedal {
    rng: XorWow,
    x: f64,
    vx: f64,
    y: f64,
    vy: f64,
    angle: f64,
    vangle: f64,
    legs: [Leg; 2],
    steps: usize,
    done: bool,
}

impl Bipedal {
    /// Episode step limit (gym uses 1600).
    pub const MAX_STEPS: usize = 1600;

    /// Creates a walker seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        let mut env = Bipedal {
            rng: XorWow::seed_from_u64_value(seed ^ 0xB1BE_DA10),
            x: 0.0,
            vx: 0.0,
            y: 1.0,
            vy: 0.0,
            angle: 0.0,
            vangle: 0.0,
            legs: [Leg::default(); 2],
            steps: 0,
            done: false,
        };
        env.reset_into(&mut [0.0; 24]);
        env
    }

    /// Horizontal distance covered so far.
    pub fn distance(&self) -> f64 {
        self.x
    }

    fn write_observation(&self, obs: &mut [f64]) {
        assert_eq!(obs.len(), 24, "Bipedal emits 24 observation components");
        obs[0] = self.angle;
        obs[1] = self.vangle;
        obs[2] = self.vx;
        obs[3] = self.vy;
        for (i, leg) in self.legs.iter().enumerate() {
            let base = 4 + 5 * i;
            obs[base] = leg.hip;
            obs[base + 1] = leg.hip_vel;
            obs[base + 2] = leg.knee;
            obs[base + 3] = leg.knee_vel;
            obs[base + 4] = if leg.contact { 1.0 } else { 0.0 };
        }
        // Flat terrain: the 10 lidar returns are the constant ground
        // distance under each ray angle.
        for i in 0..LIDAR_RAYS {
            let ray = 0.1 + 0.1 * i as f64;
            obs[14 + i] = (self.y / ray.cos()).min(2.0);
        }
    }
}

impl Environment for Bipedal {
    fn name(&self) -> &'static str {
        "BipedalWalker"
    }

    fn observation_dim(&self) -> usize {
        24
    }

    fn action_dim(&self) -> usize {
        4
    }

    fn action_kind(&self) -> ActionKind {
        ActionKind::Continuous(4)
    }

    fn reset_into(&mut self, obs: &mut [f64]) {
        self.x = 0.0;
        self.vx = 0.0;
        self.y = 1.0;
        self.vy = 0.0;
        self.angle = self.rng.uniform(-0.02, 0.02);
        self.vangle = 0.0;
        for (i, leg) in self.legs.iter_mut().enumerate() {
            leg.hip = self.rng.uniform(-0.05, 0.05);
            leg.hip_vel = 0.0;
            leg.knee = 0.0;
            leg.knee_vel = 0.0;
            leg.contact = i == 0;
        }
        self.steps = 0;
        self.done = false;
        self.write_observation(obs);
    }

    fn step_into(&mut self, action: &[f64], obs: &mut [f64]) -> (f64, bool) {
        assert_eq!(action.len(), 4, "Bipedal takes four torque outputs");
        if self.done {
            self.write_observation(obs);
            return (0.0, true);
        }
        // Map sigmoid-range outputs to torques in [-1, 1].
        let torque: [f64; 4] =
            std::array::from_fn(|j| ((action[j] - 0.5) * 2.0).clamp(-1.0, 1.0) * TORQUE_SCALE);
        let mut torque_cost = 0.0;
        let mut thrust = 0.0;
        for (i, leg) in self.legs.iter_mut().enumerate() {
            let hip_t = torque[2 * i];
            let knee_t = torque[2 * i + 1];
            torque_cost += hip_t.abs() + knee_t.abs();
            leg.hip_vel += hip_t * DT * 4.0;
            leg.knee_vel += knee_t * DT * 4.0;
            // joint damping and limits
            leg.hip_vel *= 0.97;
            leg.knee_vel *= 0.97;
            leg.hip = (leg.hip + leg.hip_vel * DT).clamp(-1.2, 1.2);
            leg.knee = (leg.knee + leg.knee_vel * DT).clamp(-1.4, 0.2);
            // Stance model: a leg is in contact while swung back past the
            // torso and the knee is near extension.
            leg.contact = leg.hip < 0.15 && leg.knee > -0.5;
            if leg.contact {
                // Pushing the hip backwards while planted propels the torso.
                thrust += (-hip_t).max(0.0) * 0.35;
            }
        }
        let any_contact = self.legs.iter().any(|l| l.contact);
        // Torso dynamics.
        self.vx += (thrust - 0.08 * self.vx) * DT * 4.0;
        self.vy += if any_contact {
            -self.vy * 0.5
        } else {
            -9.8 * DT * 0.15
        };
        self.x += self.vx * DT;
        self.y = (self.y + self.vy * DT).clamp(0.4, 1.4);
        // Unbalanced leg phases tip the torso.
        let imbalance = self.legs[0].hip - self.legs[1].hip;
        self.vangle += (0.12 * imbalance - 0.8 * self.angle) * DT;
        self.vangle *= 0.98;
        self.angle += self.vangle * DT;
        self.steps += 1;

        let fell = self.angle.abs() > FALL_ANGLE || self.y <= 0.45;
        let reached = self.x >= GOAL_DISTANCE;
        self.done = fell || reached || self.steps >= Self::MAX_STEPS;

        let mut reward = self.vx * DT * 13.0 - 0.003 * torque_cost;
        if fell {
            reward -= 100.0;
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

    fn run(seed: u64, policy: impl Fn(usize, &[f64]) -> [f64; 4]) -> (f64, f64) {
        let mut env = Bipedal::new(seed);
        let mut obs = env.reset();
        let mut total = 0.0;
        let mut t = 0;
        loop {
            let a = policy(t, &obs);
            let s = env.step(&a);
            total += s.reward;
            obs = s.observation;
            t += 1;
            if s.done {
                break;
            }
        }
        (total, env.distance())
    }

    #[test]
    fn observation_is_24_floats() {
        let mut env = Bipedal::new(1);
        assert_eq!(env.reset().len(), 24);
    }

    #[test]
    fn idle_walker_goes_nowhere() {
        let (_, dist) = run(2, |_, _| [0.5; 4]);
        assert!(
            dist.abs() < 1.0,
            "zero torque should not move far, got {dist}"
        );
    }

    #[test]
    fn alternating_gait_moves_forward() {
        // Push hips in antiphase with a slow square wave.
        let (_, dist) = run(3, |t, _| {
            let phase = (t / 30) % 2 == 0;
            if phase {
                [0.1, 0.5, 0.9, 0.5]
            } else {
                [0.9, 0.5, 0.1, 0.5]
            }
        });
        assert!(
            dist > 1.0,
            "alternating gait should make progress, got {dist}"
        );
    }

    #[test]
    fn gait_beats_idle_in_reward() {
        let (idle, _) = run(4, |_, _| [0.5; 4]);
        let (gait, _) = run(4, |t, _| {
            if (t / 30) % 2 == 0 {
                [0.1, 0.5, 0.9, 0.5]
            } else {
                [0.9, 0.5, 0.1, 0.5]
            }
        });
        assert!(gait > idle, "gait {gait} vs idle {idle}");
    }

    #[test]
    fn episode_always_terminates() {
        let mut env = Bipedal::new(5);
        env.reset();
        let mut steps = 0;
        while !env.step(&[0.6, 0.4, 0.5, 0.5]).done {
            steps += 1;
            assert!(steps <= Bipedal::MAX_STEPS + 1);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Bipedal::new(6);
        let mut b = Bipedal::new(6);
        a.reset();
        b.reset();
        for _ in 0..100 {
            assert_eq!(a.step(&[0.7, 0.3, 0.5, 0.5]), b.step(&[0.7, 0.3, 0.5, 0.5]));
        }
    }
}
