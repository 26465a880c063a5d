//! Population-lane evaluation is a pure speed-up: the lockstep network
//! kernel matches `Network::activate_into` bit for bit on every lane, and
//! a CartPole session whose workload takes the lanes produces exactly the
//! history and checkpoint bytes of the same session evaluated genome by
//! genome.

use genesys::gym::{EnvKind, EpisodeEvaluator};
use genesys::neat::trace::OpCounters;
use genesys::neat::{
    Activation, Aggregation, ConnGene, EvalContext, Evaluation, Evaluator, Genome, InitialWeights,
    InnovationTracker, LaneScratch, NeatConfig, Network, NodeGene, NodeId, Scratch, Session,
    XorWow, LANES,
};
use genesys::soc::snapshot_to_bytes;
use proptest::prelude::*;

/// Runs `nets` through the lane kernel on `inputs` (lane after lane) and
/// asserts every lane's outputs equal a scalar `activate_into`, bit for bit.
fn assert_lanes_match_scalar(nets: &[&Network], inputs: &[f64]) {
    let (num_inputs, num_outputs) = (nets[0].num_inputs(), nets[0].num_outputs());
    let mut outputs = vec![0.0; num_outputs * nets.len()];
    Network::activate_lanes_into(nets, &mut LaneScratch::new(), inputs, &mut outputs);
    let mut scratch = Scratch::new();
    let mut want = vec![0.0; num_outputs];
    for (l, net) in nets.iter().enumerate() {
        net.activate_into(
            &mut scratch,
            &inputs[l * num_inputs..(l + 1) * num_inputs],
            &mut want,
        );
        for (o, w) in want.iter().enumerate() {
            assert_eq!(
                outputs[l * num_outputs + o].to_bits(),
                w.to_bits(),
                "lane {l} of {}, output {o}",
                nets.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomly evolved genomes drawing on every activation and
    /// aggregation, each lane mutated a different number of times (so the
    /// lanes differ in topology and wavefront count), 1–16 lanes.
    #[test]
    fn every_lane_is_bit_identical_to_activate_into(
        seed in any::<u64>(),
        lanes in 1usize..17,
        num_inputs in 1usize..6,
        num_outputs in 1usize..3,
    ) {
        let config = NeatConfig::builder(num_inputs, num_outputs)
            .initial_weights(InitialWeights::Uniform { lo: -2.0, hi: 2.0 })
            .node_add_prob(0.6)
            .conn_add_prob(0.6)
            .activation_options(Activation::ALL.to_vec())
            .aggregation_options(Aggregation::ALL.to_vec())
            .activation_mutate_rate(0.5)
            .aggregation_mutate_rate(0.5)
            .build()
            .expect("valid config");
        let mut rng = XorWow::seed_from_u64_value(seed);
        let mut innov = InnovationTracker::new(config.first_hidden_id());
        let mut ops = OpCounters::new();
        let nets: Vec<Network> = (0..lanes)
            .map(|l| {
                let mut genome = Genome::initial(l as u64, &config, &mut rng);
                for _ in 0..(l * 3 + (seed % 5) as usize) {
                    genome.mutate(&config, &mut innov, &mut rng, &mut ops);
                }
                Network::from_genome(&genome).expect("evolved genomes stay acyclic")
            })
            .collect();
        let refs: Vec<&Network> = nets.iter().collect();
        let inputs: Vec<f64> = (0..num_inputs * lanes)
            .map(|_| rng.uniform(-3.0, 3.0))
            .collect();
        assert_lanes_match_scalar(&refs, &inputs);
    }
}

/// Sixteen hand-built lanes that together cover all 16 activations, all
/// 7 aggregations (Median at even and odd fan-in included) and chains of
/// 1–4 hidden wavefronts, so lanes run out of wavefronts at different
/// depths within one call.
#[test]
fn hand_built_lanes_cover_every_kind_and_depth() {
    const INPUTS: usize = 3;
    let nets: Vec<Network> = (0..LANES)
        .map(|l| {
            let hidden = l % 4;
            let mut nodes: Vec<NodeGene> = (0..INPUTS)
                .map(|i| NodeGene::input(NodeId(i as u32)))
                .collect();
            let output = NodeId(INPUTS as u32);
            nodes.push(NodeGene::output(output));
            let mut conns = Vec::new();
            let mut prev: Vec<NodeId> = (0..INPUTS).map(|i| NodeId(i as u32)).collect();
            for h in 0..hidden {
                let id = NodeId((INPUTS + 1 + h) as u32);
                let mut node = NodeGene::hidden(id);
                node.activation = Activation::ALL[(l + h + 5) % Activation::ALL.len()];
                node.aggregation = Aggregation::ALL[(l + h) % Aggregation::ALL.len()];
                node.bias = 0.1 * h as f64 - 0.2;
                nodes.push(node);
                for (k, &src) in prev.iter().enumerate() {
                    let w = 0.7 - 0.45 * k as f64 + 0.1 * l as f64;
                    conns.push(ConnGene::new(src, id, w));
                }
                prev = vec![id, NodeId((h % INPUTS) as u32)];
            }
            for (k, &src) in prev.iter().enumerate() {
                conns.push(ConnGene::new(src, output, 1.1 - 0.6 * k as f64));
            }
            let out = nodes.iter_mut().find(|n| n.id == output).unwrap();
            out.activation = Activation::ALL[l];
            out.aggregation = Aggregation::ALL[l % Aggregation::ALL.len()];
            out.response = 0.9;
            let genome =
                Genome::from_parts(l as u64, INPUTS, 1, nodes, conns).expect("valid genome");
            Network::from_genome(&genome).expect("acyclic")
        })
        .collect();
    let depths: std::collections::BTreeSet<usize> =
        nets.iter().map(|n| n.layer_eval_ranges().len()).collect();
    assert_eq!(depths.len(), 4, "lanes of 4 different wavefront counts");
    let inputs: Vec<f64> = (0..INPUTS * LANES)
        .map(|k| ((k * 37 + 11) % 23) as f64 / 7.0 - 1.5)
        .collect();
    for lanes in 1..=LANES {
        let refs: Vec<&Network> = nets[..lanes].iter().collect();
        assert_lanes_match_scalar(&refs, &inputs[..INPUTS * lanes]);
    }
}

/// Every aggregation at fan-in 24, past the median sort's small cases,
/// with repeated, negative and signed-zero weights: one network per
/// aggregation, cycled over all 16 lanes so each sees several different
/// observations in one call.
#[test]
fn every_aggregation_matches_scalar_at_high_fan_in() {
    const FAN_IN: usize = 24;
    let nets: Vec<Network> = Aggregation::ALL
        .iter()
        .map(|&agg| {
            let mut nodes: Vec<NodeGene> = (0..FAN_IN)
                .map(|i| NodeGene::input(NodeId(i as u32)))
                .collect();
            let mut out = NodeGene::output(NodeId(FAN_IN as u32));
            out.activation = Activation::Identity;
            out.aggregation = agg;
            nodes.push(out);
            let conns: Vec<ConnGene> = (0..FAN_IN)
                .map(|i| {
                    let w = [0.0, -0.0, 1.25, -2.5, 1.25][i % 5];
                    ConnGene::new(NodeId(i as u32), NodeId(FAN_IN as u32), w)
                })
                .collect();
            let genome = Genome::from_parts(0, FAN_IN, 1, nodes, conns).expect("valid genome");
            Network::from_genome(&genome).expect("acyclic")
        })
        .collect();
    let refs: Vec<&Network> = (0..LANES).map(|l| &nets[l % nets.len()]).collect();
    let inputs: Vec<f64> = (0..FAN_IN * LANES)
        .map(|k| ((k * 31 + 7) % 17) as f64 - 8.0)
        .collect();
    assert_lanes_match_scalar(&refs, &inputs);
}

/// perfbench's `Timed` shape: a wrapper that implements only `evaluate`,
/// so sessions driving it evaluate genome by genome.
struct OnlyEvaluate(EpisodeEvaluator);

impl Evaluator for OnlyEvaluate {
    fn evaluate(&self, ctx: EvalContext, net: &Network) -> Evaluation {
        self.0.evaluate(ctx, net)
    }
}

fn cartpole_session<W: Evaluator>(workload: W, threads: usize) -> Session<W> {
    let mut config = EnvKind::CartPole.neat_config();
    config.pop_size = 512;
    config.target_fitness = None;
    Session::builder(config, 21)
        .expect("valid config")
        .workload(workload)
        .threads(threads)
        .build()
}

#[test]
fn cartpole_session_through_lanes_matches_per_genome_evaluation() {
    for episodes in [1, 2] {
        let make = || EpisodeEvaluator::new(EnvKind::CartPole).episodes(episodes);
        let mut scalar = cartpole_session(OnlyEvaluate(make()), 1);
        let scalar_history = scalar.run(5).history;
        let scalar_image = snapshot_to_bytes(&scalar.export_state()).expect("encodes");
        assert!(scalar_history.iter().all(|s| s.env_steps > 0));
        for threads in [1, 4] {
            let mut lanes = cartpole_session(make(), threads);
            let history = lanes.run(5).history;
            assert_eq!(
                history, scalar_history,
                "episodes {episodes}, {threads} workers"
            );
            let image = snapshot_to_bytes(&lanes.export_state()).expect("encodes");
            assert!(
                image == scalar_image,
                "checkpoint bytes differ: episodes {episodes}, {threads} workers"
            );
        }
    }
}
