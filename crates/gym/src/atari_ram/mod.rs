//! Synthetic Atari-RAM environments.
//!
//! The paper's largest workloads observe the raw 128-byte RAM of Atari 2600
//! games ("128 bytes indicating the current state of the game RAM",
//! Table I). A licensed Atari emulator is out of scope, so this module
//! provides **RAM machines**: deterministic arcade-style games whose entire
//! state is packed into a 128-byte RAM exposed as the observation. This
//! preserves exactly what the hardware study consumes — 128-input genomes
//! (the ~110–120 k gene regime of Fig 4(b)), score-based fitness, and long
//! episodes — per the substitution table in `DESIGN.md`.
//!
//! Four games mirror the paper's suite: [`AirRaid`], [`Alien`], [`Amidar`]
//! and [`Asterix`].

mod airraid;
mod alien;
mod amidar;
mod asterix;

pub use airraid::AirRaid;
pub use alien::Alien;
pub use amidar::Amidar;
pub use asterix::Asterix;

use crate::env::{quantize_action, ActionKind, Environment};

/// Size of the exposed RAM, matching the Atari 2600's 128 bytes.
pub const RAM_SIZE: usize = 128;

/// The observation of each RAM byte value `b`: `b / 255.0`. A step reads
/// 128 entries of this table instead of dividing 128 times; the values are
/// bit-identical to the division (`b as f64` is exact for a byte).
const BYTE_TO_OBSERVATION: [f64; 256] = {
    let mut table = [0.0; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = b as f64 / 255.0;
        b += 1;
    }
    table
};

/// A game whose full state serializes into a 128-byte RAM.
pub trait RamGame {
    /// Game name, matching the paper's workload labels.
    fn name(&self) -> &'static str;

    /// Number of discrete actions (button combinations).
    fn n_actions(&self) -> usize;

    /// Restarts the game (a fresh episode, re-deriving randomness from the
    /// construction seed stream).
    fn restart(&mut self);

    /// Advances one frame with the given action index; returns the score
    /// delta earned this frame.
    fn tick(&mut self, action: usize) -> f64;

    /// True once the game has ended (out of lives).
    fn game_over(&self) -> bool;

    /// Serializes the complete game state into `ram`. Bytes not used by
    /// the game must still be written deterministically.
    fn write_ram(&self, ram: &mut [u8; RAM_SIZE]);

    /// Current score (sum of all tick rewards).
    fn score(&self) -> f64;
}

/// Adapter exposing any [`RamGame`] through the [`Environment`] trait:
/// observation = the 128 RAM bytes scaled to `[0, 1]`, action = one network
/// output quantized to the game's button count.
#[derive(Debug, Clone)]
pub struct RamEnv<G> {
    game: G,
    ram: [u8; RAM_SIZE],
    steps: usize,
    max_steps: usize,
}

impl<G: RamGame> RamEnv<G> {
    /// Default episode frame limit.
    pub const DEFAULT_MAX_STEPS: usize = 2000;

    /// Wraps a game.
    pub fn new(game: G) -> Self {
        RamEnv {
            game,
            ram: [0; RAM_SIZE],
            steps: 0,
            max_steps: Self::DEFAULT_MAX_STEPS,
        }
    }

    /// Overrides the episode frame limit (useful to bound test runtimes).
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Direct access to the underlying game.
    pub fn game(&self) -> &G {
        &self.game
    }

    /// The raw RAM bytes of the last observation.
    pub fn ram(&self) -> &[u8; RAM_SIZE] {
        &self.ram
    }

    fn write_observation(&self, obs: &mut [f64]) {
        assert_eq!(obs.len(), RAM_SIZE, "RAM observation is 128 components");
        for (out, &b) in obs.iter_mut().zip(self.ram.iter()) {
            *out = BYTE_TO_OBSERVATION[usize::from(b)];
        }
    }
}

impl<G: RamGame> Environment for RamEnv<G> {
    fn name(&self) -> &'static str {
        self.game.name()
    }

    fn observation_dim(&self) -> usize {
        RAM_SIZE
    }

    fn action_dim(&self) -> usize {
        1
    }

    fn action_kind(&self) -> ActionKind {
        ActionKind::Discrete(self.game.n_actions())
    }

    fn reset_into(&mut self, obs: &mut [f64]) {
        self.game.restart();
        self.steps = 0;
        self.game.write_ram(&mut self.ram);
        self.write_observation(obs);
    }

    fn step_into(&mut self, action: &[f64], obs: &mut [f64]) -> (f64, bool) {
        assert_eq!(action.len(), 1, "RAM games take one output (button press)");
        if self.game.game_over() || self.steps >= self.max_steps {
            self.write_observation(obs);
            return (0.0, true);
        }
        let button = quantize_action(action[0], self.game.n_actions());
        let reward = self.game.tick(button);
        self.steps += 1;
        self.game.write_ram(&mut self.ram);
        self.write_observation(obs);
        (
            reward,
            self.game.game_over() || self.steps >= self.max_steps,
        )
    }

    fn max_steps(&self) -> usize {
        self.max_steps
    }
}

/// `AirRaid-ram-v0` analogue.
pub type AirRaidRam = RamEnv<AirRaid>;
/// `Alien-ram-v0` analogue.
pub type AlienRam = RamEnv<Alien>;
/// `Amidar-ram-v0` analogue.
pub type AmidarRam = RamEnv<Amidar>;
/// `Asterix-ram-v0` analogue.
pub type AsterixRam = RamEnv<Asterix>;

impl AirRaidRam {
    /// Creates the AirRaid RAM environment.
    pub fn from_seed(seed: u64) -> Self {
        RamEnv::new(AirRaid::new(seed))
    }
}

impl AlienRam {
    /// Creates the Alien RAM environment.
    pub fn from_seed(seed: u64) -> Self {
        RamEnv::new(Alien::new(seed))
    }
}

impl AmidarRam {
    /// Creates the Amidar RAM environment.
    pub fn from_seed(seed: u64) -> Self {
        RamEnv::new(Amidar::new(seed))
    }
}

impl AsterixRam {
    /// Creates the Asterix RAM environment.
    pub fn from_seed(seed: u64) -> Self {
        RamEnv::new(Asterix::new(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<G: RamGame>(mut env: RamEnv<G>) {
        let obs = env.reset();
        assert_eq!(obs.len(), RAM_SIZE);
        assert!(obs.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let n = match env.action_kind() {
            ActionKind::Discrete(n) => n,
            ActionKind::Continuous(_) => panic!("RAM games are discrete"),
        };
        assert!(n >= 2);
        let mut total = 0.0;
        for t in 0..500 {
            let a = (t % n) as f64 / n as f64 + 0.01;
            let s = env.step(&[a]);
            total += s.reward;
            if s.done {
                break;
            }
        }
        assert!(total.is_finite());
    }

    #[test]
    fn observation_table_is_bit_identical_to_division() {
        for b in 0..=u8::MAX {
            let divided = f64::from(std::hint::black_box(b)) / 255.0;
            assert_eq!(
                BYTE_TO_OBSERVATION[usize::from(b)].to_bits(),
                divided.to_bits(),
                "byte {b}"
            );
        }
    }

    #[test]
    fn all_games_run_and_expose_valid_ram() {
        exercise(AirRaidRam::from_seed(1));
        exercise(AlienRam::from_seed(1));
        exercise(AmidarRam::from_seed(1));
        exercise(AsterixRam::from_seed(1));
    }

    #[test]
    fn ram_env_is_deterministic() {
        let mut a = AlienRam::from_seed(9);
        let mut b = AlienRam::from_seed(9);
        a.reset();
        b.reset();
        for t in 0..300 {
            let act = [(t % 5) as f64 / 5.0 + 0.05];
            assert_eq!(a.step(&act), b.step(&act));
        }
    }

    #[test]
    fn max_steps_bounds_episode() {
        let mut env = AsterixRam::from_seed(3).with_max_steps(50);
        env.reset();
        let mut steps = 0;
        while !env.step(&[0.5]).done {
            steps += 1;
            assert!(steps <= 50);
        }
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(AirRaidRam::from_seed(0).name(), "AirRaid_ram_v0");
        assert_eq!(AlienRam::from_seed(0).name(), "Alien_ram_v0");
        assert_eq!(AmidarRam::from_seed(0).name(), "Amidar_ram_v0");
        assert_eq!(AsterixRam::from_seed(0).name(), "Asterix_ram_v0");
    }
}
