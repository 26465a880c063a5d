//! Property tests on the snapshot wire format: encode/decode is a fixed
//! point on real evolved states, and corrupt input of every shape —
//! truncation, bit flips, garbage — returns a typed error and never
//! panics.

use genesys::gym::{DriftSchedule, EnvKind, EpisodeEvaluator, TaskPlan, TaskSequence};
use genesys::neat::{
    EvalContext, Genome, NeatConfig, Network, NodeGene, NodeId, RunState, Session,
};
use genesys::soc::{
    decode_snapshot, encode_snapshot, snapshot_from_bytes, snapshot_to_bytes, SnapshotError,
    SNAPSHOT_MAX_NODE_ID, SNAPSHOT_VERSION,
};
use proptest::prelude::*;

/// FNV-1a over little-endian word bytes — the snapshot checksum, restated
/// here so corruption tests can re-seal a deliberately altered header.
fn fnv1a(words: &[u64]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Builds a genuinely evolved state (species, innovations, RNG mid-stream,
/// best-ever genome) from a handful of generator-chosen knobs. Three
/// workload shapes keep it fast while exercising drift phase serialization
/// and env-step accounting.
fn evolved_state(seed: u64, generations: usize, pop: usize, workload: u8) -> RunState {
    let config = NeatConfig::builder(3, 1)
        .pop_size(pop)
        .node_add_prob(0.5)
        .conn_add_prob(0.5)
        .build()
        .unwrap();
    match workload % 3 {
        0 => {
            let fitness = |ctx: EvalContext, net: &Network| {
                let x = (ctx.seed() % 17) as f64 / 17.0;
                net.activate(&[x, 0.5, 1.0 - x])[0]
            };
            let mut s = Session::builder(config, seed)
                .unwrap()
                .workload(fitness)
                .build();
            s.run(generations);
            s.export_state()
        }
        1 => {
            let mut config = EnvKind::MountainCar.neat_config();
            config.pop_size = pop;
            let mut s = Session::builder(config, seed)
                .unwrap()
                .workload(EpisodeEvaluator::new(EnvKind::MountainCar))
                .build();
            s.run(generations.min(2));
            s.export_state()
        }
        _ => {
            let config = NeatConfig::builder(4, 1).pop_size(pop).build().unwrap();
            let drift = DriftSchedule::Linear { period: 10 };
            let plan = TaskPlan::drifting(EnvKind::CartPole, drift, seed, u64::MAX);
            let mut s = Session::builder(config, seed)
                .unwrap()
                .workload(TaskSequence::new(plan).with_generation_offset(seed % 977))
                .build();
            s.run(generations.min(3));
            s.export_state()
        }
    }
}

/// An evolved archipelago checkpoint: `islands` islands with ring
/// migration mid-schedule, so v3 images carry real per-island state.
fn evolved_archipelago(seed: u64, generations: usize, pop: usize, islands: usize) -> RunState {
    let config = NeatConfig::builder(3, 1)
        .pop_size(pop)
        .islands(islands)
        .migration_interval(2)
        .migration_k(1)
        .node_add_prob(0.5)
        .conn_add_prob(0.5)
        .build()
        .unwrap();
    let fitness = |ctx: EvalContext, net: &Network| {
        let x = (ctx.seed() % 17) as f64 / 17.0;
        net.activate(&[x, 0.5, 1.0 - x])[0]
    };
    let mut s = Session::builder(config, seed)
        .unwrap()
        .workload(fitness)
        .build();
    s.run(generations);
    s.export_state()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// snapshot -> words -> snapshot -> words is a fixed point, and the
    /// byte form round-trips to the identical state.
    #[test]
    fn encode_decode_is_a_fixed_point(
        seed in any::<u64>(),
        generations in 1usize..5,
        pop in 6usize..20,
        workload in any::<u8>(),
    ) {
        let state = evolved_state(seed, generations, pop, workload);
        let words = encode_snapshot(&state).expect("evolved states encode");
        let decoded = decode_snapshot(&words).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &state);
        prop_assert_eq!(encode_snapshot(&decoded).unwrap(), words.clone());

        let bytes = snapshot_to_bytes(&state).unwrap();
        prop_assert_eq!(snapshot_from_bytes(&bytes).unwrap(), state);
    }

    /// Every truncation of a valid snapshot returns a typed error.
    #[test]
    fn truncation_always_errors(
        seed in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let state = evolved_state(seed, 2, 10, seed as u8);
        let words = encode_snapshot(&state).unwrap();
        let len = (cut as usize) % words.len();
        prop_assert!(decode_snapshot(&words[..len]).is_err());
        // Byte-level cuts too, including non-word-aligned ones.
        let bytes = snapshot_to_bytes(&state).unwrap();
        let blen = (cut as usize) % bytes.len();
        prop_assert!(snapshot_from_bytes(&bytes[..blen]).is_err());
    }

    /// Any single bit flip anywhere in the image is detected.
    #[test]
    fn bit_flips_always_error(
        seed in any::<u64>(),
        word in any::<u64>(),
        bit in 0u32..64,
    ) {
        let state = evolved_state(seed, 2, 10, seed as u8);
        let mut words = encode_snapshot(&state).unwrap();
        let i = (word as usize) % words.len();
        words[i] ^= 1u64 << bit;
        prop_assert!(decode_snapshot(&words).is_err(), "flip bit {} of word {}", bit, i);
    }

    /// The v2 words carry 31-bit node ids: any id past the hardware
    /// codec's 14-bit limit (which v1 could not represent) round-trips
    /// exactly, and ids past the snapshot limit are a typed error.
    #[test]
    fn wide_node_ids_roundtrip_and_overflow_is_typed(
        seed in any::<u64>(),
        id in (1u32 << 14)..SNAPSHOT_MAX_NODE_ID,
    ) {
        let state = evolved_state(seed, 1, 8, 0);
        let mut state = state.as_monolithic().expect("monolithic workload").clone();
        let forged = Genome::from_parts(
            state.next_key,
            state.config.num_inputs,
            state.config.num_outputs,
            state.genomes[0]
                .nodes()
                .copied()
                .chain(std::iter::once(NodeGene::hidden(NodeId(id)))),
            state.genomes[0].conns().copied(),
        )
        .unwrap();
        state.best_ever = Some(forged.clone());
        // A consistent state's counters exceed every id they hand out.
        state.innovation_next_node = id + 1;
        state.next_key += 1;
        let wrapped = RunState::Monolithic(Box::new(state.clone()));
        let words = encode_snapshot(&wrapped).expect("31-bit ids encode");
        prop_assert_eq!(decode_snapshot(&words).unwrap(), wrapped);

        let overflowed = Genome::from_parts(
            forged.key(),
            state.config.num_inputs,
            state.config.num_outputs,
            forged
                .nodes()
                .copied()
                .map(|mut n| { if n.id.0 == id { n.id = NodeId(SNAPSHOT_MAX_NODE_ID + 1); } n }),
            forged.conns().copied(),
        )
        .unwrap();
        state.best_ever = Some(overflowed);
        prop_assert!(matches!(
            encode_snapshot(&RunState::Monolithic(Box::new(state))),
            Err(SnapshotError::NodeIdOverflow { .. })
        ));
    }

    /// Any version word other than the current one is rejected with the
    /// typed error — even when the rest of the image (checksum included)
    /// is coherent. v1 images land here rather than being mis-decoded.
    #[test]
    fn foreign_versions_never_decode(
        seed in any::<u64>(),
        version in any::<u64>(),
    ) {
        let version = if version == SNAPSHOT_VERSION { version ^ 1 } else { version };
        let state = evolved_state(seed, 1, 8, seed as u8);
        let mut words = encode_snapshot(&state).unwrap();
        words[1] = version;
        let n = words.len();
        words[n - 1] = fnv1a(&words[..n - 1]);
        prop_assert_eq!(
            decode_snapshot(&words).unwrap_err(),
            SnapshotError::UnsupportedVersion(version)
        );
    }

    /// Archipelago (v4, kind 1) images are a fixed point too: per-island
    /// state, migration bookkeeping and workload state all ride along.
    #[test]
    fn archipelago_encode_decode_is_a_fixed_point(
        seed in any::<u64>(),
        generations in 1usize..5,
        pop in 8usize..24,
        islands in 2usize..5,
    ) {
        let state = evolved_archipelago(seed, generations, pop, islands);
        prop_assert!(state.as_archipelago().is_some());
        let words = encode_snapshot(&state).expect("archipelago states encode");
        let decoded = decode_snapshot(&words).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &state);
        prop_assert_eq!(encode_snapshot(&decoded).unwrap(), words.clone());
        let bytes = snapshot_to_bytes(&state).unwrap();
        prop_assert_eq!(snapshot_from_bytes(&bytes).unwrap(), state);
    }

    /// Corrupt archipelago images — truncation or bit flips anywhere —
    /// return a typed error and never panic.
    #[test]
    fn archipelago_corruption_always_errors(
        seed in any::<u64>(),
        cut in any::<u64>(),
        bit in 0u32..64,
    ) {
        let state = evolved_archipelago(seed, 2, 12, 3);
        let words = encode_snapshot(&state).unwrap();
        let len = (cut as usize) % words.len();
        prop_assert!(decode_snapshot(&words[..len]).is_err());
        let mut flipped = words.clone();
        let i = (cut as usize) % words.len();
        flipped[i] ^= 1u64 << bit;
        prop_assert!(decode_snapshot(&flipped).is_err(), "flip bit {} of word {}", bit, i);
    }

    /// Random garbage never decodes and never panics.
    #[test]
    fn garbage_never_decodes(
        seed in any::<u64>(),
        len in 0usize..256,
    ) {
        let mut rng = genesys::neat::XorWow::seed_from_u64_value(seed);
        let words: Vec<u64> = (0..len)
            .map(|_| (u64::from(rng.next_u32_value()) << 32) | u64::from(rng.next_u32_value()))
            .collect();
        prop_assert!(decode_snapshot(&words).is_err());
    }
}

#[test]
fn prior_versions_are_rejected_for_both_state_kinds() {
    // v1 predates the snapshot gene words, v2 predates the state kind
    // word and the island knobs, v3 predates the speciate_exact knob:
    // all are rejected outright, for monolithic (kind 0) and
    // archipelago (kind 1) images alike.
    for state in [evolved_state(3, 2, 10, 0), evolved_archipelago(3, 2, 12, 3)] {
        for version in [1u64, 2, 3] {
            let mut words = encode_snapshot(&state).unwrap();
            words[1] = version;
            let n = words.len();
            words[n - 1] = fnv1a(&words[..n - 1]);
            assert_eq!(
                decode_snapshot(&words).unwrap_err(),
                SnapshotError::UnsupportedVersion(version)
            );
        }
    }
}

#[test]
fn error_variants_are_typed_and_displayed() {
    assert!(matches!(
        decode_snapshot(&[]),
        Err(SnapshotError::Truncated { .. })
    ));
    let err = decode_snapshot(&[0, 0, 0, 0]).unwrap_err();
    assert_eq!(err, SnapshotError::BadMagic);
    assert!(!err.to_string().is_empty());
}
