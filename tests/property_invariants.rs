//! Property-based tests (proptest) on the core data structures and the
//! invariants the hardware depends on.

use genesys::neat::trace::OpCounters;
use genesys::neat::{
    Activation, Aggregation, Genome, InnovationTracker, NeatConfig, Network, XorWow,
};
use genesys::soc::{align_parents, codec, merge_child, EvePe, PeConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = NeatConfig> {
    (1usize..6, 1usize..4, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(
        |(inputs, outputs, add_n, add_c, del)| {
            NeatConfig::builder(inputs, outputs)
                .pop_size(8)
                .node_add_prob(add_n)
                .conn_add_prob(add_c)
                .node_delete_prob(del)
                .conn_delete_prob(del)
                .build()
                .expect("valid probabilities by construction")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of mutations leaves the genome structurally valid
    /// (no dangling connections, acyclic, interface intact).
    #[test]
    fn mutation_preserves_genome_invariants(
        config in arb_config(),
        seed in any::<u64>(),
        steps in 1usize..40,
    ) {
        let mut rng = XorWow::seed_from_u64_value(seed);
        let mut innov = InnovationTracker::new(config.first_hidden_id());
        let mut genome = Genome::initial(0, &config, &mut rng);
        let mut ops = OpCounters::new();
        for _ in 0..steps {
            genome.mutate(&config, &mut innov, &mut rng, &mut ops);
            prop_assert!(genome.validate().is_ok());
        }
        // And the phenotype always compiles and evaluates finitely.
        let net = Network::from_genome(&genome).expect("valid genome compiles");
        let out = net.activate(&vec![0.25; config.num_inputs]);
        prop_assert_eq!(out.len(), config.num_outputs);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    /// The compiled SoA plan is **bit-identical** to the retained
    /// reference interpreter on arbitrarily evolved genomes drawing from
    /// every activation and aggregation kind, and a reused scratch gives
    /// the same bits as fresh buffers.
    #[test]
    fn compiled_plan_bit_identical_to_reference_interpreter(
        config in arb_config(),
        seed in any::<u64>(),
        steps in 0usize..40,
        x in -2.0f64..2.0,
    ) {
        let mut config = config;
        config.initial_weights = genesys::neat::InitialWeights::Uniform { lo: -2.0, hi: 2.0 };
        config.activation_options = Activation::ALL.to_vec();
        config.aggregation_options = Aggregation::ALL.to_vec();
        config.activation_mutate_rate = 0.5;
        config.aggregation_mutate_rate = 0.5;
        let mut rng = XorWow::seed_from_u64_value(seed);
        let mut innov = InnovationTracker::new(config.first_hidden_id());
        let mut genome = Genome::initial(0, &config, &mut rng);
        let mut ops = OpCounters::new();
        let mut scratch = genesys::neat::Scratch::new();
        let mut reused = vec![0.0f64; config.num_outputs];
        let inputs: Vec<f64> = (0..config.num_inputs)
            .map(|i| x + 0.37 * i as f64)
            .collect();
        for _ in 0..steps {
            genome.mutate(&config, &mut innov, &mut rng, &mut ops);
        }
        let net = Network::from_genome(&genome).expect("valid genome compiles");
        let compiled = net.activate(&inputs);
        let interpreted = genesys::neat::network::reference::activate(&genome, &inputs)
            .expect("acyclic genome interprets");
        net.activate_into(&mut scratch, &inputs, &mut reused);
        prop_assert_eq!(compiled.len(), interpreted.len());
        for ((a, b), c) in compiled.iter().zip(interpreted.iter()).zip(reused.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "compiled vs reference");
            prop_assert_eq!(a.to_bits(), c.to_bits(), "fresh vs reused scratch");
        }
    }

    /// The 64-bit codec round-trips every gene: discrete fields exactly,
    /// continuous fields within half a quantization step.
    #[test]
    fn codec_roundtrip_bounds(
        id in 0u32..16384,
        bias in -31.0f64..31.0,
        response in -31.0f64..31.0,
        weight in -60.0f64..60.0,
        act in 0u8..16,
        agg in 0u8..7,
        enabled in any::<bool>(),
    ) {
        let node = genesys::neat::NodeGene {
            id: genesys::neat::NodeId(id),
            node_type: genesys::neat::NodeType::Hidden,
            bias,
            response,
            activation: Activation::from_code(act),
            aggregation: Aggregation::from_code(agg),
        };
        match codec::decode(codec::encode_node(&node)).unwrap() {
            codec::Gene::Node(d) => {
                prop_assert_eq!(d.id, node.id);
                prop_assert_eq!(d.activation, node.activation);
                prop_assert_eq!(d.aggregation, node.aggregation);
                prop_assert!((d.bias - bias.clamp(-32.0, 32.0)).abs() <= 0.5 / 64.0 + 1e-12);
            }
            codec::Gene::Conn(_) => prop_assert!(false, "kind flipped"),
        }
        let mut conn = genesys::neat::ConnGene::new(
            genesys::neat::NodeId(id),
            genesys::neat::NodeId(id / 2 + 1),
            weight,
        );
        conn.enabled = enabled;
        match codec::decode(codec::encode_conn(&conn)).unwrap() {
            codec::Gene::Conn(d) => {
                prop_assert_eq!(d.key, conn.key);
                prop_assert_eq!(d.enabled, enabled);
                prop_assert!((d.weight - weight.clamp(-64.0, 64.0)).abs() <= 0.5 / 512.0 + 1e-12);
            }
            codec::Gene::Node(_) => prop_assert!(false, "kind flipped"),
        }
    }

    /// Gene Split alignment is complete and ordered: every key of both
    /// parents appears exactly once, in genome-buffer order.
    #[test]
    fn alignment_is_complete_and_sorted(
        seed in any::<u64>(),
        steps_a in 0usize..15,
        steps_b in 0usize..15,
    ) {
        let config = NeatConfig::builder(3, 2).pop_size(4).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(seed);
        let mut innov = InnovationTracker::new(config.first_hidden_id());
        let mut a = Genome::initial(0, &config, &mut rng);
        let mut b = Genome::initial(1, &config, &mut rng);
        let mut ops = OpCounters::new();
        for _ in 0..steps_a { a.mutate(&config, &mut innov, &mut rng, &mut ops); }
        for _ in 0..steps_b { b.mutate(&config, &mut innov, &mut rng, &mut ops); }
        let pairs = align_parents(&a, &b);
        let total_keys: usize = pairs.len();
        let matching = pairs.iter().filter(|p| p.is_matching()).count();
        // |union| = |A| + |B| - |A ∩ B|
        prop_assert_eq!(total_keys, a.num_genes() + b.num_genes() - matching);
        let keys: Vec<_> = pairs.iter()
            .map(|p| p.fit.or(p.other).unwrap().sort_key())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        prop_assert_eq!(keys, sorted);
    }

    /// Streaming any two valid parents through a PE and merging always
    /// yields a valid child genome, whatever the mutation probabilities.
    #[test]
    fn pe_plus_merge_always_yields_valid_children(
        seed in any::<u64>(),
        perturb in 0.0f64..1.0,
        add in 0.0f64..0.5,
        del in 0.0f64..0.5,
        grow in 0usize..10,
    ) {
        let config = NeatConfig::builder(3, 1).pop_size(4).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(seed);
        let mut innov = InnovationTracker::new(config.first_hidden_id());
        let mut fit = Genome::initial(0, &config, &mut rng);
        let mut other = Genome::initial(1, &config, &mut rng);
        let mut ops = OpCounters::new();
        for _ in 0..grow {
            fit.mutate(&config, &mut innov, &mut rng, &mut ops);
            other.mutate(&config, &mut innov, &mut rng, &mut ops);
        }
        let pe_config = PeConfig {
            crossover_bias: 0.5,
            perturb_prob: perturb,
            weight_power: 0.5,
            attr_power: 0.5,
            weight_limit: 30.0,
            attr_limit: 30.0,
            enable_flip_prob: 0.05,
            activation_mutate_prob: 0.0,
            activation_options: vec![Activation::Sigmoid],
            aggregation_mutate_prob: 0.0,
            aggregation_options: vec![Aggregation::Sum],
            node_delete_prob: del,
            conn_delete_prob: del,
            node_delete_limit: 4,
            node_add_prob: add,
            conn_add_prob: add,
        };
        let mut pe = EvePe::new(pe_config, seed ^ 0xABCD);
        let stream = align_parents(&fit, &other);
        let out = pe.produce_child(&stream);
        let report = merge_child(99, 3, 1, out.genes).expect("merge repairs");
        prop_assert!(report.genome.validate().is_ok());
        // The child network must still compile and run.
        let net = Network::from_genome(&report.genome).expect("acyclic child");
        prop_assert!(net.activate(&[0.1, 0.2, 0.3])[0].is_finite());
    }

    /// Crossover never invents structure: the child's gene keys are a
    /// subset of the fitter parent's.
    #[test]
    fn crossover_child_keys_subset_of_fitter_parent(
        seed in any::<u64>(),
        grow in 0usize..10,
    ) {
        let config = NeatConfig::builder(2, 2).pop_size(4).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(seed);
        let mut innov = InnovationTracker::new(config.first_hidden_id());
        let mut p1 = Genome::initial(0, &config, &mut rng);
        let mut p2 = Genome::initial(1, &config, &mut rng);
        let mut ops = OpCounters::new();
        for _ in 0..grow {
            p1.mutate(&config, &mut innov, &mut rng, &mut ops);
            p2.mutate(&config, &mut innov, &mut rng, &mut ops);
        }
        let child = Genome::crossover(2, &p1, &p2, 0.5, &mut rng, &mut ops);
        for node in child.nodes() {
            prop_assert!(p1.node(node.id).is_some());
        }
        for conn in child.conns() {
            prop_assert!(p1.conn(conn.key).is_some());
        }
    }

    /// XOR-WOW uniformity sanity: chance(p) hits within generous bounds.
    #[test]
    fn xorwow_chance_statistics(seed in any::<u64>(), p in 0.05f64..0.95) {
        let mut rng = XorWow::seed_from_u64_value(seed);
        let n = 4000;
        let hits = (0..n).filter(|_| rng.chance(p)).count() as f64 / n as f64;
        prop_assert!((hits - p).abs() < 0.06, "p={p}, hits={hits}");
    }
}
