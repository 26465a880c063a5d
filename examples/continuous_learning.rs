//! Continuous learning — the paper's title scenario, with a power cycle
//! in the middle.
//!
//! The world drifts: every few generations what the cart-pole's sensors
//! report changes (a fresh per-dimension gain and polarity), and every
//! genome of a generation faces the same world. The evolving population
//! keeps adapting, because evolution *is* its steady state. This demo goes one
//! step further than watching fitness recover: **mid-drift, the run is
//! checkpointed to a binary snapshot, torn down, restored from bytes and
//! resumed** — and the resumed half is verified bit-identical to a run
//! that never stopped. That is the full continuous-learning loop GeneSys
//! argues for: learning that survives the power switch.
//!
//! Determinism note: the regime a generation faces and every episode seed
//! derive purely from `(seed, generation, genome index)`, and the
//! workload's one piece of state, its position in the drift schedule,
//! rides in the checkpoint.
//!
//! Run with: `cargo run --release --example continuous_learning`
//! (flags: `--pop N --generations N --threads N --seed N`)

use genesys::gym::{DriftSchedule, EnvKind, TaskPlan, TaskSequence};
use genesys::neat::{GenerationStats, NeatConfig, Session};
use genesys::soc::{snapshot_from_bytes, snapshot_to_bytes};
use genesys_bench::ExperimentArgs;

fn main() {
    let args = ExperimentArgs::parse();
    let pop = args.pop_or(96);
    let generations = args.generations_or(24);
    let checkpoint_at = generations / 2;
    let world_seed = args.base_seed(4242);
    let threads = args.threads_or(4);

    let config = NeatConfig::builder(4, 1)
        .pop_size(pop)
        .build()
        .expect("valid");
    // One shared drifting world that never ends: a new sensor regime every
    // 3 generations, the same regime for every genome of a generation.
    let plan = TaskPlan::drifting(
        EnvKind::CartPole,
        DriftSchedule::Linear { period: 3 },
        world_seed,
        u64::MAX,
    );
    let workload = || TaskSequence::new(plan.clone());
    let print_generation = |stats: &GenerationStats| {
        let g = stats.generation as u64;
        let marker = if plan.is_boundary(g) {
            "  <-- regime shift"
        } else {
            ""
        };
        println!(
            "{:>3} | {:>6} | {:>8.1} | {:>8.1}{}",
            stats.generation,
            plan.regime(g),
            stats.max_fitness,
            stats.mean_fitness,
            marker
        );
    };

    println!("gen | regime | best fit | mean fit");

    // ---- Phase 1: evolve up to the checkpoint --------------------------
    let mut session = Session::builder(config.clone(), world_seed)
        .expect("valid config")
        .workload(workload())
        .threads(threads)
        .build();
    for _ in 0..checkpoint_at {
        let stats = session.step();
        print_generation(&stats);
    }

    // ---- Checkpoint: serialize the full evolution state to bytes -------
    let bytes = snapshot_to_bytes(&session.export_state()).expect("encodable state");
    let path = std::env::temp_dir().join("genesys_continuous_learning.snapshot");
    std::fs::write(&path, &bytes).expect("write checkpoint");
    println!(
        "--- power cycle: {} B checkpoint written to {} ---",
        bytes.len(),
        path.display()
    );
    drop(session); // the "device" loses power

    // ---- Phase 2: restore from disk and keep adapting ------------------
    let restored = snapshot_from_bytes(&std::fs::read(&path).expect("read checkpoint"))
        .expect("valid checkpoint");
    let mut resumed = Session::resume(restored)
        .expect("restorable state")
        .workload(workload())
        .threads(threads)
        .build();
    let mut resumed_history = Vec::new();
    for _ in checkpoint_at..generations {
        let stats = resumed.step();
        print_generation(&stats);
        resumed_history.push(stats);
    }

    // ---- Proof: the resumed run is the uninterrupted run ---------------
    let mut uninterrupted = Session::builder(config, world_seed)
        .expect("valid config")
        .workload(workload())
        .build(); // serial on purpose: worker count cannot matter either
    let reference = uninterrupted.run(generations);
    assert_eq!(
        &reference.history[checkpoint_at..],
        &resumed_history[..],
        "resumed trajectory must be bit-identical to the uninterrupted run"
    );
    assert!(
        uninterrupted.genomes().eq(resumed.genomes()),
        "final genomes must be byte-identical"
    );

    println!("\nverified: checkpoint at generation {checkpoint_at} + restore + resume is");
    println!("bit-identical to a run that never stopped (genomes, fitness, species),");
    println!("even across different worker counts. The population re-adapts after");
    println!("every sensor shift with no reset or retraining — and now it survives");
    println!("power cycles, too: the continuous-learning loop GeneSys is designed");
    println!("to keep running at the edge.");
}
