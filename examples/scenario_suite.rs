//! Continual-learning scenario walkthrough: a three-environment
//! curriculum with mid-task drift, population observability, and a power
//! cycle in the middle.
//!
//! One population evolves through CartPole → Acrobot (drifting) →
//! LunarLander behind a single fixed genome interface (io-adapters map
//! each task's observation/action spaces onto it). A metrics recorder
//! probes the generation champion on *every* task at every task boundary —
//! building the per-task fitness matrix continual-learning surveys
//! derive forgetting/transfer from — and timestamps each drift event
//! with its recovery time. Mid-sequence, the run is checkpointed to a
//! binary snapshot, torn down, restored and resumed; the resumed half
//! (events, metrics, genomes) is verified bit-identical against a run
//! that never stopped.
//!
//! The per-generation table also shows the population diagnostics that
//! now ride on every `GenerationStats` (and through the serve layer's
//! observe verb): genome-buffer compressibility, unique-genome count,
//! and species entropy.
//!
//! Run with: `cargo run --release --example scenario_suite`
//! (flags: `--pop N --generations N --threads N --seed N`)

use genesys::gym::{DriftSchedule, EnvKind, Task, TaskPlan, TaskSequence};
use genesys::neat::{GenerationStats, InitialWeights, Session};
use genesys::scenario::{MetricsRecorder, RecoveryThreshold};
use genesys::soc::{snapshot_from_bytes, snapshot_to_bytes};
use genesys_bench::ExperimentArgs;

fn main() {
    let args = ExperimentArgs::parse();
    let pop = args.pop_or(48);
    let generations = args.generations_or(9).max(3);
    let threads = args.threads_or(4);
    let seed = args.base_seed(21);
    let checkpoint_at = generations / 2;

    // Three environment families; budgets split the run in thirds, the
    // middle task drifts suddenly halfway through its phase.
    let phase = (generations as u64 / 3).max(1);
    let plan = TaskPlan::new(
        77,
        vec![
            Task::new(EnvKind::CartPole, phase),
            Task::new(EnvKind::Acrobot, phase).with_drift(DriftSchedule::Sudden { at: phase / 2 }),
            Task::new(EnvKind::LunarLander, phase),
        ],
    );
    let (inputs, outputs) = plan.interface();
    println!(
        "curriculum: CartPole({phase}) -> Acrobot({phase}, sudden drift) -> \
         LunarLander({phase}); genome interface {inputs} in / {outputs} out"
    );

    let mut config = plan.neat_config();
    config.pop_size = pop;
    config.initial_weights = InitialWeights::Uniform { lo: -1.0, hi: 1.0 };
    config.target_fitness = None;

    let recorder =
        MetricsRecorder::new(plan.clone(), RecoveryThreshold::WithinFraction(0.5)).probe(2, 9);
    let plan_for_print = plan.clone();
    let print_generation = move |stats: &GenerationStats| {
        let g = stats.generation as u64;
        let (task, local) = plan_for_print.task_at(g);
        let d = &stats.diagnostics;
        println!(
            "{:>3} | {:<14} | {:>6} | {:>8.1} | {:>7.3} | {:>6} | {:>7.3}",
            g,
            plan_for_print.tasks()[task].kind.label(),
            plan_for_print.regime(g),
            stats.max_fitness,
            d.high_order_entropy,
            d.unique_genomes,
            d.species_entropy,
        );
        let _ = local;
    };

    println!("gen | task           | regime | best fit | entropy | unique | species");

    // ---- Phase 1: evolve to the checkpoint -----------------------------
    let mut session = Session::builder(config.clone(), seed)
        .expect("valid config")
        .workload(TaskSequence::new(plan.clone()))
        .threads(threads)
        .observe(recorder.observer())
        .build();
    let mut history = Vec::new();
    for _ in 0..checkpoint_at {
        let stats = session.step();
        print_generation(&stats);
        history.push(stats);
    }

    // ---- Power cycle: snapshot to bytes, drop, restore -----------------
    let bytes = snapshot_to_bytes(&session.export_state()).expect("encodable state");
    println!(
        "--- power cycle: {} B checkpoint (mid-sequence) ---",
        bytes.len()
    );
    drop(session);
    let restored = snapshot_from_bytes(&bytes).expect("valid checkpoint");
    let mut resumed = Session::resume(restored)
        .expect("restorable state")
        .workload(TaskSequence::new(plan.clone()))
        .threads(threads)
        .observe(recorder.observer()) // the SAME recorder keeps accumulating
        .build();
    for _ in checkpoint_at..generations {
        let stats = resumed.step();
        print_generation(&stats);
        history.push(stats);
    }

    // ---- Proof: bit-identical to the run that never stopped ------------
    let reference_recorder =
        MetricsRecorder::new(plan.clone(), RecoveryThreshold::WithinFraction(0.5)).probe(2, 9);
    let mut uninterrupted = Session::builder(config, seed)
        .expect("valid config")
        .workload(TaskSequence::new(plan.clone()))
        .observe(reference_recorder.observer())
        .build(); // serial on purpose: worker count cannot matter either
    let reference = uninterrupted.run(generations);
    assert_eq!(
        &reference.history[..],
        &history[..],
        "checkpointed trajectory must be bit-identical to the uninterrupted run"
    );
    assert!(
        uninterrupted.genomes().eq(resumed.genomes()),
        "final genomes must be byte-identical"
    );
    let metrics = recorder.snapshot();
    assert_eq!(
        metrics,
        reference_recorder.snapshot(),
        "continual metrics must survive the power cycle bit-identically"
    );

    // ---- The continual-learning record ---------------------------------
    println!("\nper-task fitness matrix (rows: probe points; cols: tasks):");
    println!(
        "{:<18} | {:>9} | {:>9} | {:>9}",
        "probe", "CartPole", "Acrobot", "Lunar"
    );
    for row in &metrics.probes {
        let label = match row.after_task {
            None => "baseline (g0)".to_string(),
            Some(i) => format!("after task {i} (g{})", row.generation),
        };
        println!(
            "{:<18} | {:>9.2} | {:>9.2} | {:>9.2}",
            label, row.fitness[0], row.fitness[1], row.fitness[2]
        );
    }
    for drift in &metrics.drift_events {
        match drift.recovery_generations {
            Some(r) => println!(
                "drift @ g{}: pre-drift best {:.1}, recovered to {:.1} in {} generation(s)",
                drift.generation, drift.pre_drift_best, drift.target, r
            ),
            None => println!(
                "drift @ g{}: pre-drift best {:.1}, not yet back to {:.1}",
                drift.generation, drift.pre_drift_best, drift.target
            ),
        }
    }
    if let Some(f) = metrics.mean_forgetting() {
        println!("mean forgetting: {f:.2}");
    }
    if let Some(b) = metrics.backward_transfer() {
        println!("backward transfer: {b:.2}");
    }
    if let Some(f) = metrics.forward_transfer() {
        println!("forward transfer: {f:.2}");
    }

    println!("\nverified: a three-family curriculum with mid-task drift survives a");
    println!("mid-sequence power cycle bit-identically — events, continual metrics");
    println!("and genome bytes — at any worker count. The fitness matrix, forgetting");
    println!("and recovery numbers above are pure functions of (plan, seeds).");
}
