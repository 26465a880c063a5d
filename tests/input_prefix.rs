//! The constant input prefix, checked against the full walks it replaced.
//!
//! Every genome's node cluster opens with its input genes, the same
//! default constants in every genome (`Genome::validate` enforces it). So
//! the compatibility distance counts them as matched without reading them,
//! the network compiler maps an input id straight to its slot, and the
//! cycle check answers an input source at once. The oracles here are the
//! implementations those replaced: a merge-join over every gene, and a
//! reachability walk over a `HashMap` adjacency. Every result must match
//! them bit for bit, on evolved 3-input and 128-input populations that
//! carry NaN and ±∞ connection weights and hidden biases.

use genesys::neat::network::reference;
use genesys::neat::trace::OpCounters;
use genesys::neat::{
    Genome, GenomeView, InitialWeights, InnovationTracker, NeatConfig, Network, NetworkPlan,
    NodeId, NodeType, PopulationArena, RepColumns, Scratch, XorWow, REP_BLOCK,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The compatibility distance as it was before it skipped the input
/// prefix: one merge-join over every node and connection gene, `b`'s key
/// order driving the accumulation.
fn full_walk_distance(a: &Genome, b: &Genome, config: &NeatConfig) -> f64 {
    let cd = config.compatibility_disjoint_coefficient;
    let cw = config.compatibility_weight_coefficient;
    let (nodes_a, nodes_b) = (a.node_genes(), b.node_genes());
    let (conns_a, conns_b) = (a.conn_genes(), b.conn_genes());

    let mut node_dist = 0.0;
    let mut disjoint_nodes = 0usize;
    let mut matched = 0usize;
    let mut i = 0usize;
    for n2 in nodes_b {
        while i < nodes_a.len() && nodes_a[i].id < n2.id {
            i += 1;
        }
        if i < nodes_a.len() && nodes_a[i].id == n2.id {
            node_dist += nodes_a[i].attribute_distance(n2) * cw;
            matched += 1;
        } else {
            disjoint_nodes += 1;
        }
    }
    disjoint_nodes += nodes_a.len() - matched;
    let max_nodes = nodes_a.len().max(nodes_b.len()).max(1);
    node_dist = (node_dist + cd * disjoint_nodes as f64) / max_nodes as f64;

    let mut conn_dist = 0.0;
    let mut disjoint_conns = 0usize;
    let mut matched = 0usize;
    let mut i = 0usize;
    for c2 in conns_b {
        while i < conns_a.len() && conns_a[i].key < c2.key {
            i += 1;
        }
        if i < conns_a.len() && conns_a[i].key == c2.key {
            conn_dist += conns_a[i].attribute_distance(c2) * cw;
            matched += 1;
        } else {
            disjoint_conns += 1;
        }
    }
    disjoint_conns += conns_a.len() - matched;
    let max_conns = conns_a.len().max(conns_b.len()).max(1);
    conn_dist = (conn_dist + cd * disjoint_conns as f64) / max_conns as f64;

    node_dist + conn_dist
}

/// Source → targets adjacency of every connection, enabled or not.
fn adjacency(genome: &Genome) -> HashMap<NodeId, Vec<NodeId>> {
    let mut adjacency: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for conn in genome.conns() {
        adjacency
            .entry(conn.key.src)
            .or_default()
            .push(conn.key.dst);
    }
    adjacency
}

/// The cycle check as it was before the cluster walk: is `src` reachable
/// from `dst` over the map adjacency, with a `HashSet` of visited ids?
fn map_cycle_oracle(adjacency: &HashMap<NodeId, Vec<NodeId>>, src: NodeId, dst: NodeId) -> bool {
    if src == dst {
        return true;
    }
    let mut stack = vec![dst];
    let mut seen = HashSet::new();
    while let Some(n) = stack.pop() {
        if n == src {
            return true;
        }
        if seen.insert(n) {
            if let Some(next) = adjacency.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
    }
    false
}

fn config(inputs: usize) -> NeatConfig {
    NeatConfig::builder(inputs, 2)
        .node_add_prob(0.5)
        .conn_add_prob(0.5)
        .initial_weights(InitialWeights::Uniform { lo: -1.0, hi: 1.0 })
        .build()
        .expect("valid config")
}

/// `n` genomes evolved by `k % rounds` mutation passes each. Every
/// `period`-th genome is rebuilt with non-finite genes: a NaN weight, a
/// +∞ or −∞ weight and a NaN or ±∞ bias on its last non-input node (a
/// hidden node once one exists).
fn population(config: &NeatConfig, n: usize, seed: u64, rounds: usize, period: u64) -> Vec<Genome> {
    let mut rng = XorWow::seed_from_u64_value(seed);
    let mut innov = InnovationTracker::new(config.first_hidden_id());
    let mut ops = OpCounters::new();
    (0..n as u64)
        .map(|k| {
            let mut g = Genome::initial(k, config, &mut rng);
            for _ in 0..k as usize % rounds.max(1) {
                innov.begin_generation();
                g.mutate(config, &mut innov, &mut rng, &mut ops);
            }
            if !k.is_multiple_of(period) {
                return g;
            }
            let mut nodes = g.node_genes().to_vec();
            let mut conns = g.conn_genes().to_vec();
            if let Some(last) = conns.len().checked_sub(1) {
                conns[(k as usize) % last.max(1)].weight = f64::NAN;
                conns[last].weight = if k % 2 == 0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                };
            }
            let node = nodes.last_mut().expect("non-input nodes exist");
            assert_ne!(node.node_type, NodeType::Input);
            node.bias = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k as usize % 3];
            Genome::from_parts(k, g.num_inputs(), g.num_outputs(), nodes, conns)
                .expect("poisoning attributes keeps the structure valid")
        })
        .collect()
}

/// Every distance path against the full walk: `Genome::distance`,
/// `GenomeView::distance` over arena and genome views, and every lane of
/// `RepColumns` blocks of several widths, built from the first genomes.
fn assert_distances_match_the_full_walk(genomes: &[Genome], config: &NeatConfig) {
    let mut arena = PopulationArena::new();
    arena.pack(genomes);
    for (i, a) in genomes.iter().enumerate() {
        for (j, b) in genomes.iter().enumerate() {
            let want = full_walk_distance(a, b, config).to_bits();
            assert_eq!(a.distance(b, config).to_bits(), want, "{i} vs {j}");
            let view = arena.view(i).distance(arena.view(j), config);
            assert_eq!(view.to_bits(), want, "{i} vs {j} (arena views)");
            let mixed = GenomeView::of(a).distance(arena.view(j), config);
            assert_eq!(mixed.to_bits(), want, "{i} vs {j} (mixed views)");
        }
    }
    let mut cols = RepColumns::new();
    for lanes in [1, 3, REP_BLOCK.min(genomes.len())] {
        // Reuse one block across widths: a rebuild must not leak state.
        cols.build((0..lanes).map(|l| arena.view(l)));
        for (i, g) in genomes.iter().enumerate() {
            let mut out = [0.0f64; REP_BLOCK];
            cols.scan(GenomeView::of(g), config, &mut out);
            for (lane, rep) in genomes.iter().take(lanes).enumerate() {
                let want = full_walk_distance(g, rep, config);
                assert_eq!(
                    out[lane].to_bits(),
                    want.to_bits(),
                    "genome {i} lane {lane}"
                );
            }
        }
    }
}

/// `would_create_cycle` against the map oracle for every `(src, dst)`
/// pair of node ids, inputs included on both sides.
fn assert_cycle_checks_match_the_map_walk(genomes: &[Genome]) {
    for g in genomes {
        let adjacency = adjacency(g);
        for src in g.nodes().map(|n| n.id) {
            for dst in g.nodes().map(|n| n.id) {
                assert_eq!(
                    g.would_create_cycle(src, dst),
                    map_cycle_oracle(&adjacency, src, dst),
                    "genome {} {src}->{dst}",
                    g.key()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn three_input_distances_match_the_full_walk(
        seed in any::<u64>(),
        rounds in 1usize..12,
        period in 2u64..6,
    ) {
        let config = config(3);
        let genomes = population(&config, 24, seed, rounds, period);
        assert_distances_match_the_full_walk(&genomes, &config);
        assert_cycle_checks_match_the_map_walk(&genomes);
    }

    #[test]
    fn ram_input_distances_match_the_full_walk(
        seed in any::<u64>(),
        rounds in 1usize..12,
        period in 2u64..6,
    ) {
        let config = config(128);
        let genomes = population(&config, 20, seed, rounds, period);
        assert_distances_match_the_full_walk(&genomes, &config);
    }
}

/// The cycle check over every node pair of evolved 128-input genomes,
/// where an input source answers at once without a walk.
#[test]
fn ram_input_cycle_checks_match_the_map_walk() {
    let config = config(128);
    let genomes = population(&config, 12, 77, 12, 5);
    assert!(genomes.iter().any(|g| g.hidden_node_ids().len() > 1));
    assert_cycle_checks_match_the_map_walk(&genomes);
}

/// Genomes of different input counts in one comparison: the prefix
/// skipped is the one both sides share, and a block of representatives
/// wider or narrower than the probe still scores every lane exactly.
#[test]
fn mixed_input_counts_match_the_full_walk() {
    let mut genomes = Vec::new();
    for (inputs, seed) in [(3, 1), (5, 2), (4, 3), (6, 4)] {
        let config = config(inputs);
        genomes.extend(population(&config, 6, seed, 8, 4));
    }
    // Interleave so every block holds several input counts.
    let n = genomes.len();
    let interleaved: Vec<Genome> = (0..n).map(|i| genomes[(i * 7) % n].clone()).collect();
    assert_distances_match_the_full_walk(&interleaved, &config(3));
    // Blocks whose lanes all have more inputs than the probe.
    let wide: Vec<Genome> = genomes
        .iter()
        .filter(|g| g.num_inputs() >= 5)
        .cloned()
        .collect();
    let mut arena = PopulationArena::new();
    arena.pack(&wide);
    let mut cols = RepColumns::new();
    cols.build((0..REP_BLOCK.min(wide.len())).map(|l| arena.view(l)));
    let config = config(3);
    for g in genomes.iter().filter(|g| g.num_inputs() < 5) {
        let mut out = [0.0f64; REP_BLOCK];
        cols.scan(GenomeView::of(g), &config, &mut out);
        for (lane, rep) in wide.iter().take(cols.lanes()).enumerate() {
            let want = full_walk_distance(g, rep, &config);
            assert_eq!(out[lane].to_bits(), want.to_bits(), "lane {lane}");
        }
    }
}

/// `compile_into` through one reused plan builds exactly the network
/// `from_genome` does, and both evaluate to the reference interpreter's
/// bits, on evolved 128-input genomes (non-finite ones included).
#[test]
fn ram_input_compile_matches_from_genome_and_the_reference() {
    let config = config(128);
    let genomes = population(&config, 16, 91, 12, 4);
    let mut plan = NetworkPlan::new();
    let mut scratch = Scratch::new();
    let mut out = [0.0f64; 2];
    let inputs: Vec<f64> = (0..128).map(|i| (i % 11) as f64 / 5.0 - 1.0).collect();
    for g in &genomes {
        Network::compile_into(&mut plan, g).expect("valid genome compiles");
        let fresh = Network::from_genome(g).expect("valid genome compiles");
        // `Debug` prints every f64 exactly and every NaN alike, where
        // `PartialEq` would fail on the NaN genes.
        assert_eq!(
            format!("{:?}", plan.network()),
            format!("{fresh:?}"),
            "genome {}",
            g.key()
        );
        let want: Vec<u64> = reference::activate(g, &inputs)
            .expect("acyclic")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for net in [plan.network(), &fresh] {
            net.activate_into(&mut scratch, &inputs, &mut out);
            let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "genome {}", g.key());
        }
    }
}
