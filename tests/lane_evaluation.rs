//! Population-lane evaluation is a pure speed-up: every lane of
//! `LaneNetworks` matches `Network::activate_into` bit for bit — across
//! reloads of a lane with narrower and wider networks, swaps of lanes
//! between steps, and Median lanes beside Sum lanes sharing one sort
//! buffer — and a CartPole session whose workload takes the lanes
//! produces exactly the history and checkpoint bytes of the same session
//! evaluated genome by genome.

use genesys::gym::{EnvKind, EpisodeEvaluator};
use genesys::neat::trace::OpCounters;
use genesys::neat::{
    Activation, Aggregation, ConnGene, EvalContext, Evaluation, Evaluator, Genome, InitialWeights,
    InnovationTracker, LaneNetworks, NeatConfig, Network, NodeGene, NodeId, Scratch, Session,
    XorWow, LANES,
};
use genesys::soc::snapshot_to_bytes;
use proptest::prelude::*;

/// Writes `observations[l]` into lane `l`'s input slots, activates lanes
/// `0..nets.len()` and asserts every lane's outputs equal a scalar
/// `activate_into` of `nets[l]` on the same observation, bit for bit.
/// Lane `l` must hold `nets[l]`.
fn assert_loaded_lanes_match_scalar(
    lanes: &mut LaneNetworks,
    nets: &[&Network],
    observations: &[&[f64]],
) {
    for (l, obs) in observations.iter().enumerate() {
        lanes.input_slots(l).copy_from_slice(obs);
    }
    lanes.activate(nets.len());
    let mut scratch = Scratch::new();
    for (l, (net, obs)) in nets.iter().zip(observations).enumerate() {
        let mut want = vec![0.0; net.num_outputs()];
        net.activate_into(&mut scratch, obs, &mut want);
        for (o, w) in want.iter().enumerate() {
            assert_eq!(
                lanes.output(l, o).to_bits(),
                w.to_bits(),
                "lane {l} of {}, output {o}",
                nets.len()
            );
        }
    }
}

/// Loads `nets[l]` into lane `l` of new lanes and checks them on
/// `inputs`, one observation per lane, lane after lane.
fn assert_lanes_match_scalar(nets: &[&Network], inputs: &[f64]) {
    let mut lanes = LaneNetworks::new();
    for (l, net) in nets.iter().enumerate() {
        lanes.load(l, net);
    }
    let observations: Vec<&[f64]> = inputs.chunks_exact(nets[0].num_inputs()).collect();
    assert_loaded_lanes_match_scalar(&mut lanes, nets, &observations);
}

/// A config whose mutations grow structure fast and draw on every
/// activation and aggregation.
fn evolving_config(num_inputs: usize, num_outputs: usize) -> NeatConfig {
    NeatConfig::builder(num_inputs, num_outputs)
        .initial_weights(InitialWeights::Uniform { lo: -2.0, hi: 2.0 })
        .node_add_prob(0.6)
        .conn_add_prob(0.6)
        .activation_options(Activation::ALL.to_vec())
        .aggregation_options(Aggregation::ALL.to_vec())
        .activation_mutate_rate(0.5)
        .aggregation_mutate_rate(0.5)
        .build()
        .expect("valid config")
}

/// A genome of `num_inputs` × `num_outputs` under [`evolving_config`],
/// mutated `mutations` times.
fn evolved_net(num_inputs: usize, num_outputs: usize, mutations: usize, seed: u64) -> Network {
    let config = evolving_config(num_inputs, num_outputs);
    let mut rng = XorWow::seed_from_u64_value(seed);
    let mut innov = InnovationTracker::new(config.first_hidden_id());
    let mut ops = OpCounters::new();
    let mut genome = Genome::initial(seed, &config, &mut rng);
    for _ in 0..mutations {
        genome.mutate(&config, &mut innov, &mut rng, &mut ops);
    }
    Network::from_genome(&genome).expect("evolved genomes stay acyclic")
}

/// `fan_in` inputs feeding one identity output node of aggregation `agg`,
/// with repeated, negative and signed-zero weights.
fn fan_in_net(fan_in: usize, agg: Aggregation) -> Network {
    let mut nodes: Vec<NodeGene> = (0..fan_in)
        .map(|i| NodeGene::input(NodeId(i as u32)))
        .collect();
    let mut out = NodeGene::output(NodeId(fan_in as u32));
    out.activation = Activation::Identity;
    out.aggregation = agg;
    nodes.push(out);
    let conns: Vec<ConnGene> = (0..fan_in)
        .map(|i| {
            let w = [0.0, -0.0, 1.25, -2.5, 1.25][i % 5];
            ConnGene::new(NodeId(i as u32), NodeId(fan_in as u32), w)
        })
        .collect();
    let genome = Genome::from_parts(0, fan_in, 1, nodes, conns).expect("valid genome");
    Network::from_genome(&genome).expect("acyclic")
}

/// `n` observation values, a pure function of `salt`.
fn observation(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|k| ((k * 31 + salt * 7 + 3) % 17) as f64 / 4.0 - 2.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomly evolved genomes drawing on every activation and
    /// aggregation, each lane mutated a different number of times (so the
    /// lanes differ in topology and node count), 1–16 lanes.
    #[test]
    fn every_lane_is_bit_identical_to_activate_into(
        seed in any::<u64>(),
        lanes in 1usize..17,
        num_inputs in 1usize..6,
        num_outputs in 1usize..3,
    ) {
        let config = evolving_config(num_inputs, num_outputs);
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
/// 0–3 hidden nodes, so lanes run out of nodes at different ranks within
/// one activation.
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
    let ranks: std::collections::BTreeSet<usize> =
        nets.iter().map(Network::num_eval_nodes).collect();
    assert_eq!(ranks.len(), 4, "lanes of 4 different node counts");
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
/// observations in one activation.
#[test]
fn every_aggregation_matches_scalar_at_high_fan_in() {
    const FAN_IN: usize = 24;
    let nets: Vec<Network> = Aggregation::ALL
        .iter()
        .map(|&agg| fan_in_net(FAN_IN, agg))
        .collect();
    let refs: Vec<&Network> = (0..LANES).map(|l| &nets[l % nets.len()]).collect();
    let inputs: Vec<f64> = (0..FAN_IN * LANES)
        .map(|k| ((k * 31 + 7) % 17) as f64 - 8.0)
        .collect();
    assert_lanes_match_scalar(&refs, &inputs);
}

/// One lane reloaded wide → narrow → wide, between activations of
/// fifteen neighbours that keep their networks: the narrow program reads
/// none of the wide one's stale slots, and the wide one, reloaded, none
/// of the narrow one's. The lanes differ in interface as well as shape.
#[test]
fn a_lane_reloaded_wide_narrow_wide_matches_scalar() {
    const LANE: usize = 5;
    let wide = evolved_net(24, 2, 40, 3);
    let narrow = evolved_net(2, 1, 6, 4);
    assert!(wide.num_nodes() > narrow.num_nodes() + 20);
    let neighbours: Vec<Network> = (0..LANES)
        .map(|l| evolved_net(1 + l % 5, 1 + l % 2, l * 2, 10 + l as u64))
        .collect();
    let mut lanes = LaneNetworks::new();
    for (l, net) in neighbours.iter().enumerate() {
        lanes.load(l, net);
    }
    for (round, net) in [&wide, &narrow, &wide, &narrow].into_iter().enumerate() {
        lanes.load(LANE, net);
        let mut nets: Vec<&Network> = neighbours.iter().collect();
        nets[LANE] = net;
        let observations: Vec<Vec<f64>> = nets
            .iter()
            .enumerate()
            .map(|(l, n)| observation(n.num_inputs(), round * LANES + l))
            .collect();
        let observations: Vec<&[f64]> = observations.iter().map(Vec::as_slice).collect();
        assert_loaded_lanes_match_scalar(&mut lanes, &nets, &observations);
    }
}

/// Lanes swapped between steps of an episode, as a lane stepper compacts
/// its live lanes: a swapped lane carries its program and its value
/// slots, so activating again without writing new observations repeats
/// every lane's outputs, and the steps after the swap, over a shrinking
/// live prefix, match the scalar networks in their new lanes.
#[test]
fn lanes_swapped_mid_episode_match_scalar() {
    let nets: Vec<Network> = (0..LANES)
        .map(|l| evolved_net(4, 1, l % 7 + 1, 40 + l as u64))
        .collect();
    let mut lanes = LaneNetworks::new();
    for (l, net) in nets.iter().enumerate() {
        lanes.load(l, net);
    }
    let mut order: Vec<usize> = (0..LANES).collect();
    let mut written: Vec<Vec<f64>> = vec![Vec::new(); LANES];
    for step in 0..8 {
        let live = LANES - step;
        let refs: Vec<&Network> = order[..live].iter().map(|&k| &nets[k]).collect();
        let observations: Vec<Vec<f64>> = order[..live]
            .iter()
            .map(|&k| observation(4, step * LANES + k))
            .collect();
        let slices: Vec<&[f64]> = observations.iter().map(Vec::as_slice).collect();
        assert_loaded_lanes_match_scalar(&mut lanes, &refs, &slices);
        for (&k, obs) in order.iter().zip(observations) {
            written[k] = obs;
        }

        // Swap some pairs, then retire the last live lane: the moved
        // lanes keep their observations.
        for (a, b) in [(0, live - 1), (step % live, (step * 5 + 3) % live)] {
            lanes.swap(a, b);
            order.swap(a, b);
        }
        lanes.activate(live);
        let mut scratch = Scratch::new();
        let mut want = [0.0];
        for (l, &k) in order[..live].iter().enumerate() {
            nets[k].activate_into(&mut scratch, &written[k], &mut want);
            assert_eq!(
                lanes.output(l, 0).to_bits(),
                want[0].to_bits(),
                "step {step}, lane {l} after the swap"
            );
        }
    }
}

/// Median lanes beside Sum lanes in one activation, over several
/// observations: the lanes share one sort buffer, and a Median node
/// between Sum nodes of the same rank must neither read another lane's
/// sorted values nor disturb them. Fan-ins 24 and 23 (even and odd).
#[test]
fn a_median_lane_beside_sum_lanes_matches_scalar() {
    let median_even = fan_in_net(24, Aggregation::Median);
    let median_odd = fan_in_net(23, Aggregation::Median);
    let sum = fan_in_net(24, Aggregation::Sum);
    let nets: Vec<&Network> = (0..LANES)
        .map(|l| match l {
            7 => &median_even,
            12 => &median_odd,
            _ => &sum,
        })
        .collect();
    let mut lanes = LaneNetworks::new();
    for (l, net) in nets.iter().enumerate() {
        lanes.load(l, net);
    }
    for round in 0..4 {
        let observations: Vec<Vec<f64>> = nets
            .iter()
            .enumerate()
            .map(|(l, n)| observation(n.num_inputs(), round * LANES + l))
            .collect();
        let observations: Vec<&[f64]> = observations.iter().map(Vec::as_slice).collect();
        assert_loaded_lanes_match_scalar(&mut lanes, &nets, &observations);
    }
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
