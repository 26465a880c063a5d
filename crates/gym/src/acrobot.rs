//! Acrobot: swing a two-link pendulum above the bar.
//!
//! Standard gym Acrobot-v1 dynamics (Sutton 1996): two rigid links, torque
//! applied at the elbow joint, RK4 integration with dt = 0.2 s.
//! Observation: six floats `[cosθ1, sinθ1, cosθ2, sinθ2, θ̇1, θ̇2]`
//! (Table I's "six floating point numbers"). Action: one float decoded to
//! torque ∈ {-1, 0, +1}.

use crate::env::{quantize_action, ActionKind, Environment};
use genesys_neat::XorWow;

const DT: f64 = 0.2;
const LINK_LENGTH_1: f64 = 1.0;
const LINK_MASS_1: f64 = 1.0;
const LINK_MASS_2: f64 = 1.0;
const LINK_COM_1: f64 = 0.5;
const LINK_COM_2: f64 = 0.5;
const LINK_MOI: f64 = 1.0;
const MAX_VEL_1: f64 = 4.0 * std::f64::consts::PI;
const MAX_VEL_2: f64 = 9.0 * std::f64::consts::PI;
const G: f64 = 9.8;

/// The Acrobot environment.
#[derive(Debug, Clone)]
pub struct Acrobot {
    rng: XorWow,
    state: [f64; 4], // theta1, theta2, dtheta1, dtheta2
    steps: usize,
    done: bool,
}

impl Acrobot {
    /// Gym's episode limit for v1.
    pub const MAX_STEPS: usize = 500;

    /// Creates an Acrobot seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        let mut env = Acrobot {
            rng: XorWow::seed_from_u64_value(seed ^ 0xAC20_B070),
            state: [0.0; 4],
            steps: 0,
            done: false,
        };
        env.reset_into(&mut [0.0; 6]);
        env
    }

    fn write_observation(&self, obs: &mut [f64]) {
        let [t1, t2, d1, d2] = self.state;
        obs.copy_from_slice(&[t1.cos(), t1.sin(), t2.cos(), t2.sin(), d1, d2]);
    }

    /// Height of the tip above the pivot: `-cosθ1 - cos(θ1+θ2)`.
    pub fn tip_height(&self) -> f64 {
        -self.state[0].cos() - (self.state[0] + self.state[1]).cos()
    }

    fn dynamics(state: [f64; 4], torque: f64) -> [f64; 4] {
        let [theta1, theta2, dtheta1, dtheta2] = state;
        let m1 = LINK_MASS_1;
        let m2 = LINK_MASS_2;
        let l1 = LINK_LENGTH_1;
        let lc1 = LINK_COM_1;
        let lc2 = LINK_COM_2;
        let i1 = LINK_MOI;
        let i2 = LINK_MOI;
        let d1 =
            m1 * lc1 * lc1 + m2 * (l1 * l1 + lc2 * lc2 + 2.0 * l1 * lc2 * theta2.cos()) + i1 + i2;
        let d2 = m2 * (lc2 * lc2 + l1 * lc2 * theta2.cos()) + i2;
        let phi2 = m2 * lc2 * G * (theta1 + theta2 - std::f64::consts::FRAC_PI_2).cos();
        let phi1 = -m2 * l1 * lc2 * dtheta2 * dtheta2 * theta2.sin()
            - 2.0 * m2 * l1 * lc2 * dtheta2 * dtheta1 * theta2.sin()
            + (m1 * lc1 + m2 * l1) * G * (theta1 - std::f64::consts::FRAC_PI_2).cos()
            + phi2;
        // "book" variant of the dynamics, as used by gym.
        let ddtheta2 =
            (torque + d2 / d1 * phi1 - m2 * l1 * lc2 * dtheta1 * dtheta1 * theta2.sin() - phi2)
                / (m2 * lc2 * lc2 + i2 - d2 * d2 / d1);
        let ddtheta1 = -(d2 * ddtheta2 + phi1) / d1;
        [dtheta1, dtheta2, ddtheta1, ddtheta2]
    }

    fn rk4(&mut self, torque: f64) {
        let y = self.state;
        let k1 = Self::dynamics(y, torque);
        let add = |y: [f64; 4], k: [f64; 4], h: f64| {
            [
                y[0] + h * k[0],
                y[1] + h * k[1],
                y[2] + h * k[2],
                y[3] + h * k[3],
            ]
        };
        let k2 = Self::dynamics(add(y, k1, DT / 2.0), torque);
        let k3 = Self::dynamics(add(y, k2, DT / 2.0), torque);
        let k4 = Self::dynamics(add(y, k3, DT), torque);
        for i in 0..4 {
            self.state[i] = y[i] + DT / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        self.state[0] = wrap_pi(self.state[0]);
        self.state[1] = wrap_pi(self.state[1]);
        self.state[2] = self.state[2].clamp(-MAX_VEL_1, MAX_VEL_1);
        self.state[3] = self.state[3].clamp(-MAX_VEL_2, MAX_VEL_2);
    }
}

fn wrap_pi(x: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut v = (x + std::f64::consts::PI) % two_pi;
    if v < 0.0 {
        v += two_pi;
    }
    v - std::f64::consts::PI
}

impl Environment for Acrobot {
    fn name(&self) -> &'static str {
        "Acrobot_v1"
    }

    fn observation_dim(&self) -> usize {
        6
    }

    fn action_dim(&self) -> usize {
        1
    }

    fn action_kind(&self) -> ActionKind {
        ActionKind::Discrete(3)
    }

    fn reset_into(&mut self, obs: &mut [f64]) {
        for s in &mut self.state {
            *s = self.rng.uniform(-0.1, 0.1);
        }
        self.steps = 0;
        self.done = false;
        self.write_observation(obs);
    }

    fn step_into(&mut self, action: &[f64], obs: &mut [f64]) -> (f64, bool) {
        assert_eq!(action.len(), 1, "Acrobot takes one output");
        if self.done {
            self.write_observation(obs);
            return (0.0, true);
        }
        let torque = quantize_action(action[0], 3) as f64 - 1.0;
        self.rk4(torque);
        self.steps += 1;
        let solved = self.tip_height() > 1.0;
        self.done = solved || self.steps >= Self::MAX_STEPS;
        self.write_observation(obs);
        (if solved { 0.0 } else { -1.0 }, self.done)
    }

    fn max_steps(&self) -> usize {
        Self::MAX_STEPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_has_six_components() {
        let mut env = Acrobot::new(1);
        assert_eq!(env.reset().len(), 6);
        assert_eq!(env.observation_dim(), 6);
    }

    #[test]
    fn cos_sin_observation_is_consistent() {
        let mut env = Acrobot::new(2);
        let obs = env.reset();
        assert!((obs[0] * obs[0] + obs[1] * obs[1] - 1.0).abs() < 1e-9);
        assert!((obs[2] * obs[2] + obs[3] * obs[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hanging_start_has_negative_tip_height() {
        let env = Acrobot::new(3);
        assert!(env.tip_height() < -1.5, "starts hanging near the bottom");
    }

    #[test]
    fn zero_torque_conserves_low_energy() {
        let mut env = Acrobot::new(4);
        env.reset();
        for _ in 0..100 {
            let s = env.step(&[0.5]); // torque 0
            assert!(!s.done || env.tip_height() <= 1.0);
            if s.done {
                break;
            }
        }
        assert!(
            env.tip_height() < 1.0,
            "no torque cannot swing above the bar"
        );
    }

    #[test]
    fn bang_bang_pumping_gains_energy() {
        let mut env = Acrobot::new(5);
        env.reset();
        let mut peak = env.tip_height();
        for _ in 0..400 {
            // pump with the direction of elbow velocity
            let a = if env.state[2] >= 0.0 { 0.99 } else { 0.01 };
            let s = env.step(&[a]);
            peak = peak.max(env.tip_height());
            if s.done {
                break;
            }
        }
        assert!(
            peak > -0.5,
            "resonant pumping should raise the tip, peak {peak}"
        );
    }

    #[test]
    fn velocities_clamped() {
        let mut env = Acrobot::new(6);
        env.reset();
        for _ in 0..300 {
            let s = env.step(&[0.99]);
            assert!(s.observation[4].abs() <= MAX_VEL_1 + 1e-9);
            assert!(s.observation[5].abs() <= MAX_VEL_2 + 1e-9);
            if s.done {
                break;
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Acrobot::new(7);
        let mut b = Acrobot::new(7);
        a.reset();
        b.reset();
        for _ in 0..50 {
            assert_eq!(a.step(&[0.7]), b.step(&[0.7]));
        }
    }
}
