//! Bit-identical checkpoint/resume — the continuous-learning guarantee.
//!
//! Checkpoint at generation G (through the full binary snapshot wire
//! format), restore into a fresh process-equivalent `Session`, run N more
//! generations: the fitness history, species assignments and genome bytes
//! must be identical to an uninterrupted G+N run — at 1 and 4 workers, on
//! CartPole and on drifting CartPole (a one-task `TaskSequence`), and across
//! *different* worker counts before and after the power cycle. A
//! checkpoint whose innovation counter was rewound below an id it carries
//! is rejected at decode, validation and resume, served or not, and an
//! archipelago checkpoint missing an island state is rejected as an
//! island-count mismatch. So is a checkpoint whose genome-key,
//! species-id or generation counter was forged to the top of its range,
//! or whose genome-key or species-id counter was rewound below an id in
//! use.

use genesys::gym::{DriftSchedule, EnvKind, EpisodeEvaluator, TaskPlan, TaskSequence};
use genesys::neat::{
    EvalContext, Evaluator, EvolutionState, NeatConfig, Network, RunState, Session, SessionError,
};
use genesys::serve::{Reply, Request, Server, ServerConfig, WorkloadSpec};
use genesys::soc::snapshot::SnapshotError;
use genesys::soc::{encode_population, snapshot_from_bytes, snapshot_to_bytes};

const G: usize = 3;
const N: usize = 3;
const POP: usize = 24;

fn cartpole_config() -> NeatConfig {
    let mut config = EnvKind::CartPole.neat_config();
    config.pop_size = POP;
    config.target_fitness = None; // fixed-length runs for exact comparison
    config
}

fn drift_config() -> NeatConfig {
    NeatConfig::builder(4, 1).pop_size(POP).build().unwrap()
}

/// CartPole whose sensor regime changes every 2 generations: the resumed
/// half starts mid-regime and crosses a change.
fn drifting(world_seed: u64) -> TaskSequence {
    let drift = DriftSchedule::Linear { period: 2 };
    TaskSequence::new(TaskPlan::drifting(
        EnvKind::CartPole,
        drift,
        world_seed,
        u64::MAX,
    ))
}

/// Runs the uninterrupted G+N reference and the checkpointed G → bytes →
/// restore → N variant, asserting every acceptance axis.
fn assert_resume_bit_identical<W: Evaluator>(
    config: NeatConfig,
    seed: u64,
    make_workload: impl Fn() -> W,
    head_workers: usize,
    tail_workers: usize,
    label: &str,
) {
    // Uninterrupted reference (serial: the determinism contract makes
    // worker counts irrelevant, which the assertions below re-prove).
    let mut full = Session::builder(config.clone(), seed)
        .unwrap()
        .workload(make_workload())
        .build();
    let full_report = full.run(G + N);
    let full_state = full
        .export_state()
        .as_monolithic()
        .cloned()
        .expect("monolithic run");

    // Checkpointed run: G generations, snapshot to *bytes*, drop, restore.
    let mut head = Session::builder(config, seed)
        .unwrap()
        .workload(make_workload())
        .threads(head_workers)
        .build();
    let head_report = head.run(G);
    let bytes = snapshot_to_bytes(&head.export_state()).expect("encodable");
    drop(head);

    let restored: RunState = snapshot_from_bytes(&bytes).expect("decodable");
    let mut tail = Session::resume(restored)
        .unwrap()
        .workload(make_workload())
        .threads(tail_workers)
        .build();
    let tail_report = tail.run(N);
    let tail_state = tail
        .export_state()
        .as_monolithic()
        .cloned()
        .expect("monolithic run");

    // Fitness history: head + tail == uninterrupted, element-exact.
    assert_eq!(
        &full_report.history[..G],
        &head_report.history[..],
        "{label}: pre-checkpoint history diverged"
    );
    assert_eq!(
        &full_report.history[G..],
        &tail_report.history[..],
        "{label}: post-resume history diverged"
    );

    // Species assignments: ids, membership and representatives.
    assert_eq!(
        full_state.species.len(),
        tail_state.species.len(),
        "{label}: species count diverged"
    );
    for (a, b) in full_state.species.iter().zip(tail_state.species.iter()) {
        assert_eq!(a.id, b.id, "{label}: species id diverged");
        assert_eq!(a.members, b.members, "{label}: species members diverged");
        assert_eq!(
            a.representative, b.representative,
            "{label}: representative diverged"
        );
        assert_eq!(
            a.last_improved, b.last_improved,
            "{label}: stagnation bookkeeping diverged"
        );
    }

    // Genome bytes: the hardware genome-buffer images are word-identical.
    assert_eq!(
        encode_population(full.genomes()),
        encode_population(tail.genomes()),
        "{label}: genome-buffer bytes diverged"
    );

    // And the complete states (RNG stream, counters, best-ever) agree.
    assert_eq!(full_state, tail_state, "{label}: evolution state diverged");
}

#[test]
fn cartpole_resume_is_bit_identical_at_1_worker() {
    assert_resume_bit_identical(
        cartpole_config(),
        7,
        || EpisodeEvaluator::new(EnvKind::CartPole),
        1,
        1,
        "cartpole w1",
    );
}

#[test]
fn cartpole_resume_is_bit_identical_at_4_workers() {
    assert_resume_bit_identical(
        cartpole_config(),
        7,
        || EpisodeEvaluator::new(EnvKind::CartPole),
        4,
        4,
        "cartpole w4",
    );
}

#[test]
fn drifting_resume_is_bit_identical_at_1_worker() {
    assert_resume_bit_identical(drift_config(), 4242, || drifting(4242), 1, 1, "drift w1");
}

#[test]
fn drifting_resume_is_bit_identical_at_4_workers() {
    assert_resume_bit_identical(drift_config(), 4242, || drifting(4242), 4, 4, "drift w4");
}

#[test]
fn worker_count_may_change_across_the_power_cycle() {
    // Checkpoint under 1 worker, resume under 4 (and vice versa): the
    // trajectory must still match the uninterrupted serial run.
    assert_resume_bit_identical(
        cartpole_config(),
        19,
        || EpisodeEvaluator::new(EnvKind::CartPole),
        1,
        4,
        "cartpole w1->w4",
    );
    assert_resume_bit_identical(drift_config(), 99, || drifting(99), 4, 1, "drift w4->w1");
}

#[test]
fn drift_phase_offset_survives_the_snapshot() {
    // A run whose drift started mid-world (nonzero generation offset)
    // must resume in the same regime schedule.
    let config = drift_config();
    let make = || drifting(5).with_generation_offset(123);

    let mut full = Session::builder(config.clone(), 5)
        .unwrap()
        .workload(make())
        .build();
    let full_report = full.run(4);

    let mut head = Session::builder(config, 5)
        .unwrap()
        .workload(make())
        .build();
    head.run(2);
    let bytes = snapshot_to_bytes(&head.export_state()).unwrap();
    let state = snapshot_from_bytes(&bytes).unwrap();
    assert_eq!(state.workload_state(), 123, "offset rides in the snapshot");
    // Resume with a *fresh* workload (offset 0): the snapshot restores it.
    let mut tail = Session::resume(state)
        .unwrap()
        .workload(drifting(5))
        .build();
    assert_eq!(tail.workload().generation_offset(), 123);
    let tail_report = tail.run(2);
    assert_eq!(&full_report.history[2..], &tail_report.history[..]);
}

#[test]
fn megapopulation_resume_is_bit_identical_through_population_lanes() {
    // The megapopulation regime in one resume test: a population well past
    // the speciation representative cap's founding budget, multi-episode
    // CartPole evaluation through the population lanes, and a worker-count
    // change across the power cycle. The snapshot must carry all of it
    // bit-exactly.
    let mut config = EnvKind::CartPole.neat_config();
    config.pop_size = 512;
    config.species_representative_cap = 4;
    config.compatibility_threshold = 0.6; // force the cap to actually bind
    config.target_fitness = None;
    assert_resume_bit_identical(
        config,
        31,
        || EpisodeEvaluator::new(EnvKind::CartPole).episodes(3),
        1,
        4,
        "megapop w1->w4",
    );
}

fn xor(_: EvalContext, net: &Network) -> f64 {
    let cases = [
        ([0.0, 0.0], 0.0),
        ([0.0, 1.0], 1.0),
        ([1.0, 0.0], 1.0),
        ([1.0, 1.0], 0.0),
    ];
    4.0 - cases
        .iter()
        .map(|(x, y)| (net.activate(x)[0] - y).powi(2))
        .sum::<f64>()
}

/// Five generations of XOR with a node added to most children, so the
/// genomes carry hidden node ids far past the first one.
fn xor_state(islands: usize) -> RunState {
    let config = NeatConfig::builder(2, 1)
        .pop_size(64)
        .node_add_prob(0.9)
        .islands(islands)
        .migration_interval(2)
        .build()
        .unwrap();
    let mut session = Session::builder(config, 7).unwrap().workload(xor).build();
    for _ in 0..5 {
        session.step();
    }
    session.export_state()
}

/// [`xor_state`] with its innovation counter rewound to the first hidden
/// id. Resumed, the first node addition would hand out an id already in
/// use and build a cyclic genome, panicking the evaluation of the next
/// step.
fn rewound_xor_state() -> RunState {
    let mut state = xor_state(1);
    let RunState::Monolithic(s) = &mut state else {
        unreachable!("one island is the monolithic backend")
    };
    let first_hidden = s.config.first_hidden_id();
    assert!(
        s.genomes.iter().any(|g| g.max_node_id() >= first_hidden),
        "the run added hidden nodes"
    );
    s.innovation_next_node = first_hidden;
    state
}

/// Asserts that `state` fails validation with `counter`, and that
/// `Session::resume` and the snapshot decoder reject it too.
fn assert_rejected_at_every_entry_point(state: RunState, counter: u32) {
    let error = state.validate().expect_err("a rewound counter is invalid");
    assert!(
        matches!(error, SessionError::InnovationCounterBehind { counter: c, node } if c == counter && node >= c),
        "{error:?}"
    );
    assert_eq!(Session::resume(state.clone()).err(), Some(error));
    let image = snapshot_to_bytes(&state).expect("the encoder does not validate");
    assert!(matches!(
        snapshot_from_bytes(&image),
        Err(SnapshotError::InvalidState(_))
    ));
}

#[test]
fn a_rewound_innovation_counter_is_rejected_at_every_entry_point() {
    assert_rejected_at_every_entry_point(rewound_xor_state(), 3);
}

#[test]
fn an_island_counter_is_checked_in_its_own_residue_class_only() {
    let mut state = xor_state(2);
    state.validate().expect("an evolved archipelago is valid");
    let RunState::Archipelago(a) = &mut state else {
        unreachable!("two islands")
    };
    // Hand island 0's newest genome to island 1, as a migration may: its
    // ids outrun island 1's counter but lie in island 0's residue class.
    let migrant = a.islands[0]
        .genomes
        .iter()
        .max_by_key(|g| g.max_node_id())
        .unwrap()
        .clone();
    assert!(migrant.max_node_id() >= a.islands[1].innovation_next_node);
    a.islands[1].genomes[0] = migrant;
    assert!(
        a.islands[1].validate().is_err(),
        "the monolithic rule rejects the island"
    );
    state
        .validate()
        .expect("the island rule accepts the migrant");

    // Island 1 of 2 hands out 4, 6, 8, …: rewound to 3, its counter moves
    // into class as `set_stride` would, to 4, an id it has handed out.
    let RunState::Archipelago(a) = &mut state else {
        unreachable!("two islands")
    };
    a.islands[1].innovation_next_node = 3;
    assert_rejected_at_every_entry_point(state, 4);
}

#[test]
fn an_archipelago_missing_an_island_is_an_island_count_mismatch() {
    let mut state = xor_state(4);
    let RunState::Archipelago(a) = &mut state else {
        unreachable!("four islands")
    };
    a.islands.pop();
    assert_eq!(
        state.validate(),
        Err(SessionError::IslandCountMismatch {
            config: 4,
            islands: 3
        })
    );
    let image = snapshot_to_bytes(&state).expect("the encoder does not validate");
    match snapshot_from_bytes(&image) {
        Err(SnapshotError::InvalidState(message)) => assert!(
            message.contains("config.islands 4 does not match 3 island states"),
            "{message}"
        ),
        other => panic!("expected InvalidState, got {other:?}"),
    }
}

/// Asserts that `state` fails validation because `counter` is above its
/// ceiling or does not exceed an id in use, and that `Session::resume`
/// and the snapshot decoder reject it too.
fn assert_counter_rejected(state: &RunState, counter: &str) {
    let error = state.validate().expect_err("a forged counter is invalid");
    assert!(
        matches!(
            error,
            SessionError::CounterAboveCeiling { counter: c, .. }
                | SessionError::CounterBehind { counter: c, .. } if c == counter
        ),
        "{counter}: {error:?}"
    );
    assert_eq!(Session::resume(state.clone()).err(), Some(error));
    let image = snapshot_to_bytes(state).expect("the encoder does not validate");
    assert!(
        matches!(
            snapshot_from_bytes(&image),
            Err(SnapshotError::InvalidState(_))
        ),
        "{counter}: the decoder validates"
    );
}

#[test]
fn counters_forged_to_the_top_of_their_range_are_rejected() {
    // Each forgery decoded, validated and resumed before, then overflowed
    // its counter in the first debug-build step.
    let mut config = cartpole_config();
    config.pop_size = 64;
    let mut session = Session::builder(config, 7)
        .unwrap()
        .workload(EpisodeEvaluator::new(EnvKind::CartPole))
        .build();
    session.run(3);
    let evolved = session.export_state();
    evolved.validate().expect("an evolved state is valid");
    type Forgery = fn(&mut EvolutionState);
    let forgeries: [(&str, Forgery); 3] = [
        ("next_key", |s| s.next_key = u64::MAX),
        ("species_next_id", |s| s.species_next_id = u32::MAX),
        ("generation", |s| s.generation = u64::MAX),
    ];
    for (counter, forge) in forgeries {
        let mut state = evolved.clone();
        let RunState::Monolithic(s) = &mut state else {
            unreachable!("one island is the monolithic backend")
        };
        forge(s);
        assert_counter_rejected(&state, counter);
        // Half the range is the ceiling, and the ceiling itself is valid.
        let RunState::Monolithic(s) = &mut state else {
            unreachable!()
        };
        s.next_key = s.next_key.min(u64::MAX / 2);
        s.species_next_id = s.species_next_id.min(u32::MAX / 2);
        s.generation = s.generation.min(u64::MAX / 2);
        state.validate().expect("a counter at its ceiling is valid");
    }

    let mut islands = xor_state(4);
    let RunState::Archipelago(a) = &mut islands else {
        unreachable!("four islands")
    };
    a.generation = u64::MAX;
    assert_counter_rejected(&islands, "generation");
}

#[test]
fn counters_rewound_below_an_id_in_use_are_rejected() {
    // Each forgery used to decode, validate, resume and run, handing the
    // next species or genome an id already in use.
    type Forgery = fn(&mut EvolutionState);
    let forgeries: [(&str, Forgery); 2] = [
        ("species_next_id", |s| s.species_next_id = 0),
        ("next_key", |s| s.next_key = 0),
    ];
    for islands in [1, 4] {
        let mut config = cartpole_config();
        config.pop_size = 64;
        config.islands = islands;
        let mut session = Session::builder(config, 7)
            .unwrap()
            .workload(EpisodeEvaluator::new(EnvKind::CartPole))
            .build();
        session.run(3);
        let evolved = session.export_state();
        evolved.validate().expect("an evolved state is valid");
        for (counter, forge) in forgeries {
            let mut state = evolved.clone();
            match &mut state {
                RunState::Monolithic(s) => forge(s),
                RunState::Archipelago(a) => forge(&mut a.islands[2]),
            }
            assert_counter_rejected(&state, counter);
        }
    }
}

#[test]
fn a_served_resume_of_a_rewound_image_fails_and_other_tenants_keep_stepping() {
    let dir = std::env::temp_dir().join(format!("genesys-rewound-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let client = server.client();
    let Reply::Submitted { session, .. } = client
        .call(Request::Submit {
            seed: 11,
            workload: WorkloadSpec::Synthetic,
            config: Box::new(NeatConfig::builder(3, 2).pop_size(10).build().unwrap()),
        })
        .unwrap()
    else {
        panic!("expected Submitted")
    };
    let rejected = client
        .call(Request::Resume {
            workload: WorkloadSpec::Synthetic,
            snapshot: snapshot_to_bytes(&rewound_xor_state()).unwrap(),
        })
        .expect_err("the image fails snapshot validation");
    assert_eq!(rejected.code(), 308, "{rejected}");
    let stepped = client.call(Request::Step {
        session,
        generations: 2,
    });
    assert!(matches!(stepped, Ok(Reply::Stepped { .. })), "{stepped:?}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
