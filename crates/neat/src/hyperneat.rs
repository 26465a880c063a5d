//! HyperNEAT-style indirect encoding (an extension the paper points to).
//!
//! Section III-D1 notes that "there have been other NE algorithms such as
//! HyperNEAT which provide a mechanism to encode the genomes more
//! efficiently, which can be leveraged if need be". This module implements
//! that mechanism: a small **CPPN** (itself an ordinary NEAT [`Genome`]
//! with four spatial inputs) is queried over a geometric **substrate** to
//! paint the weights of a large phenotype network. The population then
//! evolves the compact CPPNs while ADAM runs the expressed substrate
//! networks — shrinking genome-buffer traffic for large interfaces (the
//! Atari class).

use crate::config::NeatConfig;
use crate::error::GenomeError;
use crate::gene::{ConnGene, NodeGene, NodeId};
use crate::genome::Genome;
use crate::network::Network;

/// A geometric substrate: nodes with 2-D coordinates arranged in layers
/// (layer 0 = inputs, last = outputs).
#[derive(Debug, Clone, PartialEq)]
pub struct Substrate {
    layers: Vec<Vec<(f64, f64)>>,
}

impl Substrate {
    /// Builds a layered grid substrate: `inputs` nodes on the y = -1 line,
    /// each hidden layer evenly spaced between, `outputs` on y = +1. Node
    /// x-coordinates are spread over `[-1, 1]`.
    pub fn grid(inputs: usize, hidden: &[usize], outputs: usize) -> Substrate {
        assert!(
            inputs > 0 && outputs > 0,
            "substrate needs a real interface"
        );
        let depth = hidden.len() + 1;
        let mut layers = Vec::with_capacity(hidden.len() + 2);
        let spread = |n: usize| -> Vec<f64> {
            if n == 1 {
                vec![0.0]
            } else {
                (0..n)
                    .map(|i| -1.0 + 2.0 * i as f64 / (n - 1) as f64)
                    .collect()
            }
        };
        let push_layer = |n: usize, y: f64, layers: &mut Vec<Vec<(f64, f64)>>| {
            layers.push(spread(n).into_iter().map(|x| (x, y)).collect());
        };
        push_layer(inputs, -1.0, &mut layers);
        for (i, &n) in hidden.iter().enumerate() {
            let y = -1.0 + 2.0 * (i + 1) as f64 / depth as f64;
            push_layer(n, y, &mut layers);
        }
        push_layer(outputs, 1.0, &mut layers);
        Substrate { layers }
    }

    /// Layers of node coordinates.
    pub fn layers(&self) -> &[Vec<(f64, f64)>] {
        &self.layers
    }

    /// Total substrate nodes.
    pub fn num_nodes(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Number of candidate connections (adjacent-layer all-to-all).
    pub fn num_candidate_conns(&self) -> usize {
        self.layers
            .windows(2)
            .map(|w| w[0].len() * w[1].len())
            .sum()
    }
}

/// The HyperNEAT expressor: evolves CPPNs, expresses substrate genomes.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperNeat {
    substrate: Substrate,
    /// |CPPN output| below this expresses no connection (sparsity control).
    pub weight_threshold: f64,
    /// Expressed weight = `scale * (|out| - threshold) * sign(out)`.
    pub weight_scale: f64,
}

impl HyperNeat {
    /// CPPN input count: `(x1, y1, x2, y2)`.
    pub const CPPN_INPUTS: usize = 4;
    /// CPPN output count: the connection weight.
    pub const CPPN_OUTPUTS: usize = 1;

    /// Creates an expressor over `substrate` with HyperNEAT's customary
    /// threshold (0.2) and scale (3.0).
    pub fn new(substrate: Substrate) -> Self {
        HyperNeat {
            substrate,
            weight_threshold: 0.2,
            weight_scale: 3.0,
        }
    }

    /// The substrate in use.
    pub fn substrate(&self) -> &Substrate {
        &self.substrate
    }

    /// A NEAT configuration suitable for evolving the CPPNs: 4 inputs, 1
    /// output, the full activation zoo (CPPNs thrive on diverse basis
    /// functions), random initial weights.
    pub fn cppn_config(&self) -> NeatConfig {
        NeatConfig::builder(Self::CPPN_INPUTS, Self::CPPN_OUTPUTS)
            .initial_weights(crate::config::InitialWeights::Uniform { lo: -1.0, hi: 1.0 })
            .activation_options(vec![
                crate::Activation::Sigmoid,
                crate::Activation::Tanh,
                crate::Activation::Sin,
                crate::Activation::Gauss,
                crate::Activation::Abs,
            ])
            .activation_mutate_rate(0.2)
            .build()
            .expect("hyperneat defaults are valid")
    }

    /// Expresses a CPPN genome into a substrate phenotype genome: every
    /// adjacent-layer node pair is queried as `(x1, y1, x2, y2)`; outputs
    /// beyond the threshold become connections.
    ///
    /// # Errors
    ///
    /// Returns a [`GenomeError`] if the CPPN genome itself is malformed.
    pub fn express(&self, cppn: &Genome, key: u64) -> Result<Genome, GenomeError> {
        let cppn_net = Network::from_genome(cppn)?;
        let inputs = self.substrate.layers.first().expect("non-empty").len();
        let outputs = self.substrate.layers.last().expect("non-empty").len();

        // Assign substrate node ids: inputs, then outputs, then hidden —
        // the id layout `Genome` expects.
        let mut nodes: Vec<NodeGene> = Vec::with_capacity(self.substrate.num_nodes());
        let mut ids: Vec<Vec<NodeId>> = Vec::with_capacity(self.substrate.layers.len());
        let mut next_hidden = (inputs + outputs) as u32;
        for (l, layer) in self.substrate.layers.iter().enumerate() {
            let mut layer_ids = Vec::with_capacity(layer.len());
            for k in 0..layer.len() {
                let id = if l == 0 {
                    let id = NodeId(k as u32);
                    nodes.push(NodeGene::input(id));
                    id
                } else if l == self.substrate.layers.len() - 1 {
                    let id = NodeId((inputs + k) as u32);
                    nodes.push(NodeGene::output(id));
                    id
                } else {
                    let id = NodeId(next_hidden);
                    next_hidden += 1;
                    let mut n = NodeGene::hidden(id);
                    n.activation = crate::Activation::Tanh;
                    nodes.push(n);
                    id
                };
                layer_ids.push(id);
            }
            ids.push(layer_ids);
        }

        let mut conns = Vec::new();
        for l in 0..self.substrate.layers.len() - 1 {
            for (i, &(x1, y1)) in self.substrate.layers[l].iter().enumerate() {
                for (j, &(x2, y2)) in self.substrate.layers[l + 1].iter().enumerate() {
                    let out = cppn_net.activate(&[x1, y1, x2, y2])[0];
                    // Centre the sigmoid-range CPPN output on zero.
                    let signal = 2.0 * out - 1.0;
                    if signal.abs() > self.weight_threshold {
                        let weight = self.weight_scale
                            * (signal.abs() - self.weight_threshold)
                            * signal.signum();
                        conns.push(ConnGene::new(ids[l][i], ids[l + 1][j], weight));
                    }
                }
            }
        }
        Genome::from_parts(key, inputs, outputs, nodes, conns)
    }

    /// Compression ratio: candidate phenotype genes per CPPN gene — the
    /// "more efficient encoding" the paper refers to.
    pub fn compression(&self, cppn: &Genome) -> f64 {
        (self.substrate.num_nodes() + self.substrate.num_candidate_conns()) as f64
            / cppn.num_genes().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;
    use crate::rng::XorWow;
    use crate::session::{EvalContext, Session};

    fn expressor() -> HyperNeat {
        HyperNeat::new(Substrate::grid(4, &[6], 2))
    }

    #[test]
    fn grid_substrate_shape() {
        let s = Substrate::grid(4, &[6, 3], 2);
        assert_eq!(s.layers().len(), 4);
        assert_eq!(s.num_nodes(), 15);
        assert_eq!(s.num_candidate_conns(), 4 * 6 + 6 * 3 + 3 * 2);
        // Inputs on y=-1, outputs on y=+1.
        assert!(s.layers()[0].iter().all(|&(_, y)| y == -1.0));
        assert!(s.layers()[3].iter().all(|&(_, y)| y == 1.0));
    }

    #[test]
    fn single_node_layer_centres() {
        let s = Substrate::grid(1, &[], 1);
        assert_eq!(s.layers()[0][0], (0.0, -1.0));
        assert_eq!(s.layers()[1][0], (0.0, 1.0));
    }

    #[test]
    fn expression_produces_valid_genome() {
        let h = expressor();
        let config = h.cppn_config();
        let mut rng = XorWow::seed_from_u64_value(3);
        let cppn = Genome::initial(0, &config, &mut rng);
        let phenotype = h.express(&cppn, 100).unwrap();
        assert!(phenotype.validate().is_ok());
        assert_eq!(phenotype.num_inputs(), 4);
        assert_eq!(phenotype.num_outputs(), 2);
        // And it must run.
        let net = Network::from_genome(&phenotype).unwrap();
        let out = net.activate(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn expression_is_deterministic() {
        let h = expressor();
        let config = h.cppn_config();
        let mut rng = XorWow::seed_from_u64_value(5);
        let cppn = Genome::initial(0, &config, &mut rng);
        let a = h.express(&cppn, 1).unwrap();
        let b = h.express(&cppn, 1).unwrap();
        assert_eq!(a.num_conns(), b.num_conns());
        for (ca, cb) in a.conns().zip(b.conns()) {
            assert_eq!(ca.weight, cb.weight);
        }
    }

    #[test]
    fn threshold_controls_sparsity() {
        let mut h = expressor();
        let config = h.cppn_config();
        let mut rng = XorWow::seed_from_u64_value(7);
        let cppn = Genome::initial(0, &config, &mut rng);
        h.weight_threshold = 0.0;
        let dense = h.express(&cppn, 1).unwrap().num_conns();
        h.weight_threshold = 0.9;
        let sparse = h.express(&cppn, 1).unwrap().num_conns();
        assert!(sparse <= dense);
    }

    #[test]
    fn compression_exceeds_one_for_large_substrates() {
        let h = HyperNeat::new(Substrate::grid(128, &[32], 18));
        let config = h.cppn_config();
        let mut rng = XorWow::seed_from_u64_value(9);
        let cppn = Genome::initial(0, &config, &mut rng);
        assert!(
            h.compression(&cppn) > 50.0,
            "a 128-input substrate should compress well, got {}",
            h.compression(&cppn)
        );
    }

    #[test]
    fn cppn_population_evolves_expressible_genomes() {
        let h = expressor();
        // Favour CPPNs whose output varies across space (non-trivial
        // weight patterns).
        let spatial_variation = |_ctx: EvalContext, cppn_net: &Network| {
            let a = cppn_net.activate(&[-1.0, -1.0, 1.0, 1.0])[0];
            let b = cppn_net.activate(&[1.0, -1.0, -1.0, 1.0])[0];
            (a - b).abs()
        };
        let mut session = Session::on(Population::new(h.cppn_config(), 42), 42)
            .workload(spatial_variation)
            .build();
        session.run(3);
        // Every genome in the final population must express cleanly.
        for (i, cppn) in session.genomes().iter().enumerate() {
            let phenotype = h.express(cppn, i as u64).unwrap();
            assert!(phenotype.validate().is_ok());
        }
    }
}
