//! Table II: comparing DQN (conventional RL) with the evolutionary
//! approach on an Atari-scale task.
//!
//! The paper's numbers: DQN does ~3 M MAC ops per forward pass plus ~680 K
//! gradient calculations in backprop, and needs ~50 MB of replay memory
//! (100 entries) plus ~4 MB of parameters/activations at mini-batch 32;
//! the EA does ~115 K MACs of inference and ~135 K crossover/mutations per
//! evolution step, fitting a whole generation in <1 MB.

use crate::platform::WorkloadProfile;

/// The DQN of Mnih et al. 2013 ("Playing Atari with deep reinforcement
/// learning"), as characterized in Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DqnSpec {
    /// MAC operations in one forward pass.
    pub forward_macs: u64,
    /// Gradient calculations in one backprop pass.
    pub backprop_gradients: u64,
    /// Replay memory entries kept.
    pub replay_entries: u64,
    /// Bytes per replay entry (four 84×84 frames, pre/post).
    pub replay_entry_bytes: u64,
    /// Parameter + activation bytes at the working mini-batch.
    pub param_activation_bytes: u64,
    /// Mini-batch size.
    pub minibatch: u64,
}

impl DqnSpec {
    /// The Atari DQN configuration used by Table II.
    pub fn atari() -> Self {
        DqnSpec {
            forward_macs: 3_000_000,
            backprop_gradients: 680_000,
            replay_entries: 100,
            replay_entry_bytes: 500_000, // ≈50 MB / 100 entries
            param_activation_bytes: 4_000_000,
            minibatch: 32,
        }
    }

    /// Total replay memory bytes.
    pub fn replay_bytes(&self) -> u64 {
        self.replay_entries * self.replay_entry_bytes
    }

    /// Total memory footprint bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.replay_bytes() + self.param_activation_bytes
    }
}

/// One comparison row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Dimension being compared.
    pub dimension: &'static str,
    /// DQN column.
    pub dqn: String,
    /// EA column.
    pub ea: String,
}

/// Builds Table II from the DQN spec and a *measured* EA workload profile
/// (an Atari run of our NEAT implementation).
pub fn table2(dqn: &DqnSpec, ea: &WorkloadProfile) -> Vec<Table2Row> {
    let ea_inference_macs = if ea.env_steps > 0 {
        ea.inference_macs / ea.env_steps.max(1) * ea.pop_size as u64
    } else {
        0
    };
    vec![
        Table2Row {
            dimension: "Compute",
            dqn: format!(
                "{:.1}M MAC ops in forward pass, {}K gradient calculations in BP",
                dqn.forward_macs as f64 / 1e6,
                dqn.backprop_gradients / 1000
            ),
            ea: format!(
                "{}K MAC ops in inference, {}K crossover + mutations in evolution",
                ea_inference_macs / 1000,
                ea.evolution_ops / 1000
            ),
        },
        Table2Row {
            dimension: "Memory",
            dqn: format!(
                "{} MB for replay memory of {} entries, {} MB for parameters and activations given mini-batch size of {}",
                dqn.replay_bytes() / 1_000_000,
                dqn.replay_entries,
                dqn.param_activation_bytes / 1_000_000,
                dqn.minibatch
            ),
            ea: format!(
                "{:.2} MB to fit entire generation",
                ea.genesys_footprint_bytes() as f64 / 1_000_000.0
            ),
        },
        Table2Row {
            dimension: "Parallelism",
            dqn: "MAC and gradient updates can be parallelized per layer".into(),
            ea: "GLP and PLP (Sections III-C1, III-C2)".into(),
        },
        Table2Row {
            dimension: "Regularity",
            dqn: "Dense CNN with high regularity and opportunity of reuse".into(),
            ea: "Highly sparse and irregular networks".into(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atari_ea() -> WorkloadProfile {
        WorkloadProfile {
            label: "Alien-ram-v0".into(),
            pop_size: 150,
            env_steps: 150_000,
            inference_macs: 115_000_000,
            evolution_ops: 135_000,
            total_genes: 110_000,
            max_nodes: 280,
            mean_nodes: 240.0,
        }
    }

    #[test]
    fn paper_dqn_numbers() {
        let d = DqnSpec::atari();
        assert_eq!(d.forward_macs, 3_000_000);
        assert_eq!(d.backprop_gradients, 680_000);
        assert_eq!(d.replay_bytes(), 50_000_000);
        assert_eq!(d.memory_bytes(), 54_000_000);
    }

    #[test]
    fn ea_memory_under_one_mb() {
        let ea = atari_ea();
        assert!(
            ea.genesys_footprint_bytes() < 1_000_000,
            "paper: <1MB to fit entire generation"
        );
    }

    #[test]
    fn dqn_memory_dwarfs_ea_memory() {
        let d = DqnSpec::atari();
        let ea = atari_ea();
        assert!(d.memory_bytes() > 50 * ea.genesys_footprint_bytes());
    }

    #[test]
    fn table_has_four_dimensions() {
        let rows = table2(&DqnSpec::atari(), &atari_ea());
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].dimension, "Compute");
        assert!(rows[1].ea.contains("MB to fit entire generation"));
    }

    #[test]
    fn ea_compute_is_lower_than_dqn_per_step() {
        // Paper: "EA has both low memory and compute cost when compared
        // to DQN" — inference MACs per population step < DQN forward pass.
        let d = DqnSpec::atari();
        let ea = atari_ea();
        let ea_macs_per_pop_step = ea.inference_macs / ea.env_steps.max(1) * ea.pop_size as u64;
        assert!(ea_macs_per_pop_step < d.forward_macs);
    }
}
