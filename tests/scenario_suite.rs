//! Continual-learning scenario suite: the workspace-level acceptance
//! tests for `genesys::scenario`.
//!
//! Three axes, mirroring `session_resume.rs`:
//!
//! 1. **Worker invariance** — the full observable record of a scenario
//!    run (generation events with population diagnostics, continual
//!    metrics, final genome bytes) is bit-identical at 1, 4 and 8
//!    workers, on the monolithic and the archipelago backend.
//! 2. **Checkpoint/resume** — snapshotting mid-sequence (and mid-drift)
//!    through the binary wire format and resuming reproduces the
//!    uninterrupted run, including a metrics recorder that spans the
//!    power cycle.
//! 3. **Observability plumbing** — scenario events carry the population
//!    diagnostics and survive the event codec round trip.

use genesys::gym::{DriftSchedule, EnvKind, Task, TaskPlan, TaskSequence};
use genesys::neat::{InitialWeights, NeatConfig, OwnedGenerationEvent, RunState, Session};
use genesys::scenario::{ContinualMetrics, MetricsRecorder, RecoveryThreshold};
use genesys::soc::snapshot::{event_from_bytes, event_to_bytes};
use genesys::soc::{encode_population, snapshot_from_bytes, snapshot_to_bytes};
use std::sync::{Arc, Mutex};

const POP: usize = 24;
const SEED: u64 = 21;

/// Three environment families, the middle one drifting mid-task.
fn plan() -> TaskPlan {
    TaskPlan::new(
        77,
        vec![
            Task::new(EnvKind::CartPole, 2),
            Task::new(EnvKind::Acrobot, 2).with_drift(DriftSchedule::Sudden { at: 1 }),
            Task::new(EnvKind::LunarLander, 2),
        ],
    )
}

fn config(islands: usize) -> NeatConfig {
    let mut config = plan().neat_config();
    config.pop_size = POP;
    config.initial_weights = InitialWeights::Uniform { lo: -1.0, hi: 1.0 };
    config.target_fitness = None; // fixed-length runs for exact comparison
    config.islands = islands;
    config.migration_interval = 2;
    config
}

fn recorder() -> MetricsRecorder {
    MetricsRecorder::new(plan(), RecoveryThreshold::WithinFraction(0.5)).probe(2, 9)
}

/// One complete observable record of a scenario run.
struct Record {
    events: Vec<OwnedGenerationEvent>,
    metrics: ContinualMetrics,
    genome_bytes: Vec<u64>,
}

fn run_scenario(islands: usize, threads: usize, generations: usize) -> Record {
    let rec = recorder();
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let mut session = Session::builder(config(islands), SEED)
        .unwrap()
        .workload(TaskSequence::new(plan()))
        .threads(threads)
        .observe(move |event| sink.lock().unwrap().push(event.to_owned()))
        .observe(rec.observer())
        .build();
    session.run(generations);
    let genome_bytes = encode_population(session.genomes());
    drop(session);
    Record {
        events: Arc::try_unwrap(events).unwrap().into_inner().unwrap(),
        metrics: rec.snapshot(),
        genome_bytes,
    }
}

fn assert_worker_invariant(islands: usize, label: &str) {
    let reference = run_scenario(islands, 1, 6);
    assert_eq!(reference.events.len(), 6, "{label}: event per generation");
    for workers in [4usize, 8] {
        let got = run_scenario(islands, workers, 6);
        assert_eq!(
            reference.events, got.events,
            "{label}: events diverged at {workers} workers"
        );
        assert_eq!(
            reference.metrics, got.metrics,
            "{label}: metrics diverged at {workers} workers"
        );
        assert_eq!(
            reference.genome_bytes, got.genome_bytes,
            "{label}: genome bytes diverged at {workers} workers"
        );
    }
}

#[test]
fn scenario_record_is_worker_invariant_monolithic() {
    assert_worker_invariant(1, "monolithic");
}

#[test]
fn scenario_record_is_worker_invariant_archipelago() {
    assert_worker_invariant(3, "archipelago");
}

/// Checkpoint at generation `g_checkpoint` through the binary snapshot
/// wire, resume with a fresh workload *and* the same metrics recorder,
/// and compare every observable against the uninterrupted run.
fn assert_scenario_resume(islands: usize, g_checkpoint: usize, total: usize, label: &str) {
    // Uninterrupted reference.
    let full = run_scenario(islands, 1, total);

    // Head: run to the checkpoint, snapshot to bytes, drop.
    let rec = recorder();
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let mut head = Session::builder(config(islands), SEED)
        .unwrap()
        .workload(TaskSequence::new(plan()))
        .threads(4)
        .observe(move |event| sink.lock().unwrap().push(event.to_owned()))
        .observe(rec.observer())
        .build();
    head.run(g_checkpoint);
    let bytes = snapshot_to_bytes(&head.export_state()).expect("encodable");
    drop(head);

    // Tail: restore from bytes; the sequence position rides in the
    // workload state, and the *same* recorder keeps accumulating.
    let restored: RunState = snapshot_from_bytes(&bytes).expect("decodable");
    let sink = Arc::clone(&events);
    let mut tail = Session::resume(restored)
        .unwrap()
        .workload(TaskSequence::new(plan()))
        .threads(1)
        .observe(move |event| sink.lock().unwrap().push(event.to_owned()))
        .observe(rec.observer())
        .build();
    tail.run(total - g_checkpoint);
    let tail_genomes = encode_population(tail.genomes());
    drop(tail);

    let events = Arc::try_unwrap(events).unwrap().into_inner().unwrap();
    assert_eq!(full.events, events, "{label}: event stream diverged");
    assert_eq!(
        full.metrics,
        rec.snapshot(),
        "{label}: continual metrics diverged across the power cycle"
    );
    assert_eq!(
        full.genome_bytes, tail_genomes,
        "{label}: genome bytes diverged"
    );
}

#[test]
fn mid_sequence_resume_reproduces_the_uninterrupted_run() {
    // Checkpoint at scenario generation 3: inside the Acrobot task,
    // exactly at its sudden-drift boundary (mid-drift AND mid-sequence).
    assert_scenario_resume(1, 3, 6, "monolithic g3");
}

#[test]
fn mid_task_resume_reproduces_the_uninterrupted_run() {
    // Checkpoint one generation into the run (mid-first-task).
    assert_scenario_resume(1, 1, 6, "monolithic g1");
}

#[test]
fn archipelago_mid_sequence_resume_reproduces_the_uninterrupted_run() {
    assert_scenario_resume(3, 3, 6, "archipelago g3");
}

#[test]
fn single_task_mid_drift_resume_is_bit_identical() {
    // The drift-only scenario: one cyclic-drifting task, checkpoint in
    // the middle of a non-identity regime.
    let plan = TaskPlan::drifting(
        EnvKind::CartPole,
        DriftSchedule::Cyclic {
            period: 2,
            regimes: 3,
        },
        5,
        8,
    );
    let mut config = EnvKind::CartPole.neat_config();
    config.pop_size = POP;
    config.target_fitness = None;

    let mut full = Session::builder(config.clone(), 13)
        .unwrap()
        .workload(TaskSequence::new(plan.clone()))
        .build();
    let full_report = full.run(6);

    let mut head = Session::builder(config, 13)
        .unwrap()
        .workload(TaskSequence::new(plan.clone()))
        .build();
    head.run(3); // scenario generation 3: regime 1 of the cycle
    assert_ne!(plan.regime(3), 0, "checkpoint lands mid-drift");
    let bytes = snapshot_to_bytes(&head.export_state()).unwrap();
    drop(head);
    let mut tail = Session::resume(snapshot_from_bytes(&bytes).unwrap())
        .unwrap()
        .workload(TaskSequence::new(plan))
        .build();
    let tail_report = tail.run(3);
    assert_eq!(&full_report.history[3..], &tail_report.history[..]);
    assert_eq!(
        encode_population(full.genomes()),
        encode_population(tail.genomes())
    );
}

#[test]
fn sequence_offset_rides_in_the_snapshot() {
    // A workload started mid-curriculum serializes its position; a
    // resume with a fresh (offset-0) workload restores it.
    let mut config = plan().neat_config();
    config.pop_size = 12;
    config.target_fitness = None;
    let mut head = Session::builder(config, 3)
        .unwrap()
        .workload(TaskSequence::new(plan()).with_generation_offset(4))
        .build();
    head.run(1);
    let bytes = snapshot_to_bytes(&head.export_state()).unwrap();
    let state = snapshot_from_bytes(&bytes).unwrap();
    assert_eq!(state.workload_state(), 4, "offset rides in the snapshot");
    let tail = Session::resume(state)
        .unwrap()
        .workload(TaskSequence::new(plan()))
        .build();
    assert_eq!(tail.workload().generation_offset(), 4);
}

#[test]
fn scenario_events_stream_population_diagnostics() {
    let record = run_scenario(1, 4, 6);
    for event in &record.events {
        let d = &event.stats.diagnostics;
        assert!(d.unique_genomes > 0, "unique-genome count populated");
        assert!(
            d.high_order_entropy > 0.0 && d.high_order_entropy <= 9.0 / 8.0,
            "entropy ratio in range, got {}",
            d.high_order_entropy
        );
        assert!(d.largest_species > 0, "species sizes populated");
        assert!(d.species_entropy >= 0.0);
        // The serve layer's observe verb ships exactly these words: the
        // event codec round trip must be lossless.
        let bytes = event_to_bytes(event);
        assert_eq!(&event_from_bytes(&bytes).unwrap(), event);
    }
    // The metrics side of the observability story: a full fitness
    // matrix (baseline + one row per task), every drift event
    // timestamped.
    let m = &record.metrics;
    let rows: Vec<Option<usize>> = m.probes.iter().map(|r| r.after_task).collect();
    assert_eq!(rows, [None, Some(0), Some(1), Some(2)]);
    for row in &m.probes {
        assert_eq!(row.fitness.len(), 3);
        assert!(row.fitness.iter().all(|f| f.is_finite()));
    }
    let boundaries: Vec<u64> = m.drift_events.iter().map(|d| d.generation).collect();
    assert_eq!(
        boundaries,
        [2, 3, 4],
        "task switch, sudden drift, task switch"
    );
    assert!(m.forgetting(0).is_some());
    assert!(m.mean_forgetting().is_some());
    assert!(m.backward_transfer().is_some());
    assert!(m.forward_transfer().is_some());
}
