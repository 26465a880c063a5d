//! ADAM: the Accelerator for Dense Addition & Multiplication.
//!
//! ADAM "performs multiple vertex updates concurrently, by posing the
//! individual vector-vector multiplications into a packed matrix-vector
//! multiplication problem" on a systolic array of MAC units (32×32 in the
//! paper's design point). The CPU-side **vectorize** routine packs
//! topologically-ready node values into dense input vectors; this module
//! consumes the network's **compiled plan** directly — the wavefront
//! ranges of [`Network::layer_eval_ranges`] and the CSR edge lists of
//! [`Network::incoming_edges`] — for that packing, instead of re-deriving
//! layer membership by scanning the genome's connection genes. The
//! numerics are delegated to [`Network::activate_in_place`], through the
//! SoC's episode loop (bit-identical: a MAC array computing a weighted sum
//! is exactly the `Sum` aggregation path).

use genesys_neat::gene::NodeType;
use genesys_neat::{Genome, Network};
use std::collections::HashSet;

/// ADAM geometry and vectorize-cost parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdamConfig {
    /// Systolic array rows (paper: 32).
    pub rows: usize,
    /// Systolic array columns (paper: 32).
    pub cols: usize,
    /// CPU cycles (at SoC clock) the vectorize routine spends per packed
    /// vertex — "picking the ready node values to create input vectors …
    /// is a task with heavy serialization".
    pub vectorize_cycles_per_node: u64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            rows: 32,
            cols: 32,
            vectorize_cycles_per_node: 2,
        }
    }
}

impl AdamConfig {
    /// Total MAC units.
    pub fn num_macs(&self) -> usize {
        self.rows * self.cols
    }
}

/// Timing report for inference work on ADAM.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdamReport {
    /// Systolic array cycles.
    pub array_cycles: u64,
    /// CPU vectorize cycles (overlappable with the array in steady state;
    /// reported separately).
    pub vectorize_cycles: u64,
    /// Multiply-accumulate operations actually performed.
    pub macs: u64,
    /// MAC-slot utilization: `macs / (rows*cols*array_cycles)`.
    pub utilization: f64,
}

impl AdamReport {
    /// Accumulates another report.
    pub fn merge(&mut self, other: &AdamReport) {
        let total_slots = |r: &AdamReport, cfg_macs: f64| r.array_cycles as f64 * cfg_macs;
        // utilization recomputed by the caller when merging across configs;
        // here both reports come from the same array.
        let slots = total_slots(self, 1.0) + total_slots(other, 1.0);
        self.array_cycles += other.array_cycles;
        self.vectorize_cycles += other.vectorize_cycles;
        self.macs += other.macs;
        self.utilization = if slots > 0.0 {
            // recovered below by cycles(); utilization updated lazily
            self.utilization
        } else {
            0.0
        };
    }

    /// Combined cycle count assuming vectorize overlaps the array except
    /// for the first wavefront (a serial prologue).
    pub fn total_cycles(&self) -> u64 {
        self.array_cycles + self.vectorize_cycles / 4
    }
}

/// Computes the systolic timing for **one forward pass** of a network.
///
/// Each wavefront (layer) `l ≥ 1` with `m` vertices fed by `k` distinct
/// predecessor values is a packed `m × k` matrix–vector product, tiled
/// over the `rows × cols` array; weights stay resident ("the weight
/// matrices do not change within a given generation"), so a tile costs
/// `k_tile + rows` cycles (stream + drain). Layer membership and fan-in
/// come straight from the compiled plan.
pub fn inference_timing(net: &Network, config: &AdamConfig) -> AdamReport {
    let mut array_cycles = 0u64;
    let mut vectorize_cycles = 0u64;
    let mut macs = 0u64;

    // Predecessor sets per layer: distinct source slots feeding the layer.
    for &(start, end) in net.layer_eval_ranges().iter().skip(1) {
        let m = end - start;
        if m == 0 {
            continue;
        }
        let mut sources: HashSet<usize> = HashSet::new();
        let mut layer_macs = 0u64;
        for eval in start..end {
            for &(src_slot, _) in net.incoming_edges(eval) {
                sources.insert(src_slot);
                layer_macs += 1;
            }
        }
        let k = sources.len().max(1);
        let tiles_m = m.div_ceil(config.cols);
        let tiles_k = k.div_ceil(config.rows);
        for tm in 0..tiles_m {
            let m_tile = (m - tm * config.cols).min(config.cols);
            for tk in 0..tiles_k {
                let k_tile = (k - tk * config.rows).min(config.rows);
                // stream k_tile input values, drain m_tile partial sums
                array_cycles += (k_tile + m_tile) as u64;
            }
        }
        vectorize_cycles += m as u64 * config.vectorize_cycles_per_node;
        macs += layer_macs;
    }

    let slots = array_cycles as f64 * config.num_macs() as f64;
    AdamReport {
        array_cycles,
        vectorize_cycles,
        macs,
        utilization: if slots > 0.0 {
            macs as f64 / slots
        } else {
            0.0
        },
    }
}

/// Ablation counterpart of [`inference_timing`]: evaluates one vertex at a
/// time on the array ("a sequence of multiple vertex updates" with no
/// packing). Each vertex update is a `1 × k` product occupying one column:
/// `k + 1` cycles with at most `k` useful MACs among `rows × cols` slots.
/// The gap to the packed schedule is the win of the vectorize routine.
pub fn naive_inference_timing(net: &Network, config: &AdamConfig) -> AdamReport {
    let mut array_cycles = 0u64;
    let mut vectorize_cycles = 0u64;
    let mut macs = 0u64;
    for &(start, end) in net.layer_eval_ranges().iter().skip(1) {
        for eval in start..end {
            let k = net.incoming_edges(eval).len();
            array_cycles += (k + 1) as u64;
            vectorize_cycles += config.vectorize_cycles_per_node;
            macs += k as u64;
        }
    }
    let slots = array_cycles as f64 * config.num_macs() as f64;
    AdamReport {
        array_cycles,
        vectorize_cycles,
        macs,
        utilization: if slots > 0.0 {
            macs as f64 / slots
        } else {
            0.0
        },
    }
}

/// Convenience: fraction of a genome's genes that are connection genes.
/// "The more the number of connection genes means denser weight matrices
/// during inference hence higher utilization in ADAM" (Fig 11(a)).
pub fn connection_density(genome: &Genome) -> f64 {
    if genome.num_genes() == 0 {
        return 0.0;
    }
    genome.num_conns() as f64 / genome.num_genes() as f64
}

/// Counts hidden nodes (used in utilization analyses).
pub fn hidden_nodes(genome: &Genome) -> usize {
    genome
        .nodes()
        .filter(|n| n.node_type == NodeType::Hidden)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_neat::trace::OpCounters;
    use genesys_neat::{InnovationTracker, NeatConfig, XorWow};

    fn genome_with_structure(extra_nodes: usize) -> (Genome, NeatConfig) {
        let c = NeatConfig::builder(8, 2).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(31);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(0, &c, &mut rng);
        let mut ops = OpCounters::new();
        for _ in 0..extra_nodes {
            g.mutate_add_node(&mut innov, &mut rng, &mut ops);
        }
        (g, c)
    }

    #[test]
    fn initial_genome_is_one_wavefront_of_macs() {
        let (g, _) = genome_with_structure(0);
        let net = Network::from_genome(&g).unwrap();
        let report = inference_timing(&net, &AdamConfig::default());
        assert_eq!(report.macs, 16, "8 inputs × 2 outputs");
        // one layer: k=8 sources, m=2 vertices, single tile: 8+2 cycles
        assert_eq!(report.array_cycles, 10);
        assert!(report.utilization > 0.0);
    }

    #[test]
    fn macs_match_enabled_connections() {
        let (g, _) = genome_with_structure(6);
        let net = Network::from_genome(&g).unwrap();
        let report = inference_timing(&net, &AdamConfig::default());
        assert_eq!(report.macs, net.num_macs());
    }

    #[test]
    fn deeper_networks_cost_more_cycles() {
        let (shallow, _) = genome_with_structure(0);
        let (deep, _) = genome_with_structure(8);
        let net_s = Network::from_genome(&shallow).unwrap();
        let net_d = Network::from_genome(&deep).unwrap();
        let cfg = AdamConfig::default();
        let rs = inference_timing(&net_s, &cfg);
        let rd = inference_timing(&net_d, &cfg);
        assert!(rd.array_cycles > rs.array_cycles);
        assert!(rd.vectorize_cycles > rs.vectorize_cycles);
    }

    #[test]
    fn tiling_kicks_in_beyond_array_size() {
        // 128-input Atari-style interface exceeds a 32-row array: 4 k-tiles.
        let c = NeatConfig::builder(128, 1).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(32);
        let g = Genome::initial(0, &c, &mut rng);
        let net = Network::from_genome(&g).unwrap();
        let small = inference_timing(
            &net,
            &AdamConfig {
                rows: 32,
                cols: 32,
                vectorize_cycles_per_node: 2,
            },
        );
        let big = inference_timing(
            &net,
            &AdamConfig {
                rows: 128,
                cols: 32,
                vectorize_cycles_per_node: 2,
            },
        );
        assert!(small.array_cycles > big.array_cycles);
        assert_eq!(small.macs, big.macs);
    }

    #[test]
    fn utilization_bounded_by_one() {
        for extra in [0, 3, 9] {
            let (g, _) = genome_with_structure(extra);
            let net = Network::from_genome(&g).unwrap();
            let r = inference_timing(&net, &AdamConfig::default());
            assert!(r.utilization <= 1.0);
            assert!(r.utilization >= 0.0);
        }
    }

    #[test]
    fn connection_density_in_unit_range() {
        let (g, _) = genome_with_structure(4);
        let d = connection_density(&g);
        assert!((0.0..=1.0).contains(&d));
        assert_eq!(hidden_nodes(&g), 4);
    }

    #[test]
    fn packed_schedule_beats_naive_per_vertex() {
        // The "ADAM packing" ablation: packing wavefronts into
        // matrix-vector products must not be slower, and wins utilization.
        for extra in [0usize, 4, 10] {
            let (g, _) = genome_with_structure(extra);
            let net = Network::from_genome(&g).unwrap();
            let cfg = AdamConfig::default();
            let packed = inference_timing(&net, &cfg);
            let naive = naive_inference_timing(&net, &cfg);
            assert_eq!(packed.macs, naive.macs, "same useful work");
            assert!(
                packed.array_cycles <= naive.array_cycles,
                "packing must not lose: {} vs {}",
                packed.array_cycles,
                naive.array_cycles
            );
            assert!(packed.utilization >= naive.utilization);
        }
    }

    #[test]
    fn packing_win_grows_with_width() {
        // A wide single wavefront (many outputs) is where packing shines.
        let c = NeatConfig::builder(16, 16).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(44);
        let g = Genome::initial(0, &c, &mut rng);
        let net = Network::from_genome(&g).unwrap();
        let cfg = AdamConfig::default();
        let packed = inference_timing(&net, &cfg);
        let naive = naive_inference_timing(&net, &cfg);
        assert!(
            naive.array_cycles as f64 / packed.array_cycles as f64 > 4.0,
            "16 packed vertices should be >4x faster: {} vs {}",
            naive.array_cycles,
            packed.array_cycles
        );
    }

    #[test]
    fn report_merge_accumulates() {
        let (g, _) = genome_with_structure(2);
        let net = Network::from_genome(&g).unwrap();
        let r = inference_timing(&net, &AdamConfig::default());
        let mut sum = r;
        sum.merge(&r);
        assert_eq!(sum.macs, 2 * r.macs);
        assert_eq!(sum.array_cycles, 2 * r.array_cycles);
    }
}
