//! Drift schedules and the observation-space drift operator.
//!
//! A [`DriftSchedule`] maps a generation index to a **regime** label — a
//! pure function with no hidden state, so the regime an evaluation faces
//! depends only on *where* in the run it sits, never on evaluation order,
//! worker count, or checkpoint boundaries. [`DriftedEnv`] then turns a
//! regime label into a concrete nonstationarity that applies uniformly to
//! **any** environment family: a seed-derived per-dimension sensor
//! gain/polarity transform on the observation vector. The underlying
//! dynamics stay bit-faithful; what drifts is what the policy *sees*,
//! which is exactly the kind of distribution shift the continual-learning
//! literature studies and the cheapest one to make deterministic.

use crate::{ActionKind, Environment};
use std::fmt;

/// SplitMix64 finalizer — the same mix the session seed derivation uses,
/// so scenario randomness inherits the executor's determinism contract.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// When and how the world changes: a pure function from generation index
/// to a regime label.
///
/// Regime `0` is the **identity regime**: evaluations under it face the
/// unmodified environment, so fitness is directly comparable with
/// non-scenario runs of the same workload. Every variant returns regime
/// `0` at generation `0`.
///
/// Periods of `0` are treated as `1` (regimes cannot advance faster than
/// once per generation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriftSchedule {
    /// One abrupt change: regime `0` before generation `at`, regime `1`
    /// from `at` on. `at == 0` means the run starts already drifted.
    Sudden {
        /// First generation of the post-drift regime.
        at: u64,
    },
    /// Recurring environments: the regime cycles through
    /// `0, 1, .., regimes-1, 0, ..`, advancing every `period` generations.
    /// `regimes` is clamped to at least 1.
    Cyclic {
        /// Generations per regime dwell.
        period: u64,
        /// Number of distinct regimes in the cycle.
        regimes: u64,
    },
    /// Incremental drift: a fresh regime every `period` generations,
    /// never returning (`generation / period`).
    Linear {
        /// Generations per regime dwell.
        period: u64,
    },
    /// Superposition of schedules: the compound regime changes whenever
    /// any component regime changes. Component labels are folded with an
    /// order-sensitive FNV-style mix; the all-identity case maps back to
    /// regime `0`, so an un-drifted compound is still the identity
    /// regime. An empty compound never drifts.
    Compound(Vec<DriftSchedule>),
}

impl DriftSchedule {
    /// The regime in force at `generation`. Pure: same `(self,
    /// generation)` always yields the same label, which is what makes
    /// drift invariant under worker count and checkpoint/resume.
    pub fn regime(&self, generation: u64) -> u64 {
        match self {
            DriftSchedule::Sudden { at } => u64::from(generation >= *at),
            DriftSchedule::Cyclic { period, regimes } => {
                (generation / (*period).max(1)) % (*regimes).max(1)
            }
            DriftSchedule::Linear { period } => generation / (*period).max(1),
            DriftSchedule::Compound(parts) => {
                let mut acc = 0u64;
                let mut drifted = false;
                for part in parts {
                    let r = part.regime(generation);
                    drifted |= r != 0;
                    acc = (acc ^ r)
                        .wrapping_mul(0x0000_0100_0000_01b3)
                        .rotate_left(13);
                }
                if !drifted {
                    0
                } else {
                    // Guard the vanishingly unlikely fold-to-zero so a
                    // drifted compound can never alias the identity regime.
                    acc.max(1)
                }
            }
        }
    }

    /// True when the regime at `generation` differs from the regime at
    /// `generation - 1` — a **drift event** the metrics layer timestamps.
    /// Generation 0 is never a drift event (there is no predecessor).
    pub fn changes_at(&self, generation: u64) -> bool {
        generation > 0 && self.regime(generation) != self.regime(generation - 1)
    }
}

/// Per-dimension sensor gains for `(world_seed, regime)`: the pure
/// function behind [`DriftedEnv`].
///
/// Regime `0` returns all-ones (the identity transform). Any other
/// regime draws, per observation dimension, a gain in `[0.5, 1.5)` with a
/// 1-in-4 polarity flip, from a SplitMix64 stream keyed by
/// `world_seed ^ regime` — so every `(world_seed, regime)` pair names one
/// fixed world, reproducible at any worker count and across resumes.
pub fn regime_gains(world_seed: u64, regime: u64, dim: usize) -> Vec<f64> {
    let mut gains = vec![1.0; dim];
    if regime == 0 {
        return gains;
    }
    let mut state = world_seed ^ regime.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for gain in &mut gains {
        state = splitmix(state);
        let unit = (state >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut g = 0.5 + unit;
        if state & 3 == 0 {
            g = -g;
        }
        *gain = g;
    }
    gains
}

/// An environment whose observations pass through the regime's sensor
/// transform (see [`regime_gains`]).
///
/// Rewards, termination, dynamics and the action interface are exactly
/// the inner environment's; only the observation the policy receives is
/// scaled/flipped. Regime `0` is bit-identical to the raw environment
/// (multiplication by `1.0` is exact for the finite values environments
/// emit).
pub struct DriftedEnv {
    inner: Box<dyn Environment>,
    gains: Vec<f64>,
}

impl fmt::Debug for DriftedEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DriftedEnv")
            .field("inner", &self.inner.name())
            .field("gains", &self.gains)
            .finish()
    }
}

impl DriftedEnv {
    /// Wraps `inner` in the sensor transform of `(world_seed, regime)`.
    pub fn new(inner: Box<dyn Environment>, world_seed: u64, regime: u64) -> DriftedEnv {
        let gains = regime_gains(world_seed, regime, inner.observation_dim());
        DriftedEnv { inner, gains }
    }

    /// The per-dimension sensor gains in force.
    pub fn gains(&self) -> &[f64] {
        &self.gains
    }

    fn apply(&self, obs: &mut [f64]) {
        for (o, g) in obs.iter_mut().zip(&self.gains) {
            *o *= g;
        }
    }
}

impl Environment for DriftedEnv {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observation_dim(&self) -> usize {
        self.inner.observation_dim()
    }

    fn action_dim(&self) -> usize {
        self.inner.action_dim()
    }

    fn action_kind(&self) -> ActionKind {
        self.inner.action_kind()
    }

    fn reset_into(&mut self, obs: &mut [f64]) {
        self.inner.reset_into(obs);
        self.apply(obs);
    }

    fn step_into(&mut self, action: &[f64], obs: &mut [f64]) -> (f64, bool) {
        let (reward, done) = self.inner.step_into(action, obs);
        self.apply(obs);
        (reward, done)
    }

    fn max_steps(&self) -> usize {
        self.inner.max_steps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnvKind;

    #[test]
    fn sudden_flips_once() {
        let s = DriftSchedule::Sudden { at: 5 };
        assert_eq!(s.regime(0), 0);
        assert_eq!(s.regime(4), 0);
        assert_eq!(s.regime(5), 1);
        assert_eq!(s.regime(1_000_000), 1);
        assert!(s.changes_at(5));
        assert!(!s.changes_at(4));
        assert!(!s.changes_at(6));
        assert!(!s.changes_at(0));
    }

    #[test]
    fn cyclic_wraps_and_linear_never_returns() {
        let c = DriftSchedule::Cyclic {
            period: 3,
            regimes: 4,
        };
        let labels: Vec<u64> = (0..15).map(|g| c.regime(g)).collect();
        assert_eq!(labels, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 0, 0]);
        let l = DriftSchedule::Linear { period: 2 };
        assert_eq!(l.regime(0), 0);
        assert_eq!(l.regime(7), 3);
        assert!(l.changes_at(2) && l.changes_at(4) && !l.changes_at(3));
    }

    #[test]
    fn zero_period_is_clamped() {
        let l = DriftSchedule::Linear { period: 0 };
        assert_eq!(l.regime(9), 9);
        let c = DriftSchedule::Cyclic {
            period: 0,
            regimes: 0,
        };
        assert_eq!(c.regime(9), 0, "zero regimes clamp to one (identity)");
    }

    #[test]
    fn compound_changes_when_any_component_changes() {
        let s = DriftSchedule::Compound(vec![
            DriftSchedule::Sudden { at: 4 },
            DriftSchedule::Cyclic {
                period: 3,
                regimes: 2,
            },
        ]);
        // Identity until the first component change.
        assert_eq!(s.regime(0), 0);
        assert_eq!(s.regime(2), 0);
        // Boundaries of either component are boundaries of the compound.
        assert!(s.changes_at(3), "cyclic component advances");
        assert!(s.changes_at(4), "sudden component fires");
        assert!(s.changes_at(6), "cyclic wraps back");
        assert!(!s.changes_at(5));
        // Drifted compound never aliases the identity regime.
        for g in 3..32 {
            if s.regime(g) == 0 {
                assert_eq!(
                    (DriftSchedule::Sudden { at: 4 }.regime(g), 0),
                    (
                        0,
                        DriftSchedule::Cyclic {
                            period: 3,
                            regimes: 2
                        }
                        .regime(g)
                    ),
                    "regime 0 only when every component is identity"
                );
            }
        }
        assert_eq!(DriftSchedule::Compound(vec![]).regime(77), 0);
    }

    #[test]
    fn regime_gains_are_pure_and_identity_at_zero() {
        assert_eq!(regime_gains(42, 0, 6), vec![1.0; 6]);
        let a = regime_gains(42, 3, 6);
        let b = regime_gains(42, 3, 6);
        assert_eq!(a, b, "same (seed, regime) names the same world");
        assert_ne!(a, regime_gains(42, 4, 6), "regimes differ");
        assert_ne!(a, regime_gains(43, 3, 6), "world seeds differ");
        for g in &a {
            assert!((0.5..1.5).contains(&g.abs()), "gain magnitude in range");
        }
    }

    #[test]
    fn drifted_env_identity_regime_is_bit_identical() {
        let mut raw = EnvKind::CartPole.make(7);
        let mut wrapped = DriftedEnv::new(EnvKind::CartPole.make(7), 99, 0);
        let mut a = vec![0.0; raw.observation_dim()];
        let mut b = vec![0.0; wrapped.observation_dim()];
        raw.reset_into(&mut a);
        wrapped.reset_into(&mut b);
        assert_eq!(a, b);
        for _ in 0..20 {
            let (ra, da) = raw.step_into(&[0.7], &mut a);
            let (rb, db) = wrapped.step_into(&[0.7], &mut b);
            assert_eq!((ra, da), (rb, db));
            assert_eq!(a, b);
            if da {
                break;
            }
        }
    }

    #[test]
    fn drifted_env_scales_observations_only() {
        let mut raw = EnvKind::MountainCar.make(11);
        let mut wrapped = DriftedEnv::new(EnvKind::MountainCar.make(11), 5, 2);
        let gains = wrapped.gains().to_vec();
        assert_ne!(gains, vec![1.0; 2]);
        let mut a = vec![0.0; 2];
        let mut b = vec![0.0; 2];
        raw.reset_into(&mut a);
        wrapped.reset_into(&mut b);
        for (i, g) in gains.iter().enumerate() {
            assert_eq!(b[i].to_bits(), (a[i] * g).to_bits());
        }
        let (ra, _) = raw.step_into(&[0.2], &mut a);
        let (rb, _) = wrapped.step_into(&[0.2], &mut b);
        assert_eq!(ra, rb, "reward stream untouched");
        assert_eq!(wrapped.max_steps(), raw.max_steps());
        assert_eq!(wrapped.action_kind(), raw.action_kind());
        assert_eq!(wrapped.name(), raw.name());
    }
}
