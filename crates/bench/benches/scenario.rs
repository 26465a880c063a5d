//! Continual-learning scenario costs at megapopulation scale: the
//! population diagnostics now computed inside *every*
//! `GenerationStats::collect` (genome-buffer LZ entropy + unique-genome
//! hashing at pop 10⁴), one whole task-sequence generation at the same
//! population (the denominator the <5 % diagnostics-overhead budget in
//! `docs/scenarios.md` is measured against — `tests/diagnostics_budget.rs`
//! asserts the ratio), the drifted-environment wrapper against the raw
//! episode, and one fitness-matrix probe row. The bench-regression gate
//! pins all four so diagnostics or drift overhead cannot quietly grow
//! into the evolution loop.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use genesys_gym::{
    adapted_episode, episode_into, AdapterScratch, DriftSchedule, DriftedEnv, EnvKind,
    RolloutScratch, Task, TaskPlan, TaskSequence,
};
use genesys_neat::trace::OpCounters;
use genesys_neat::{
    Genome, InnovationTracker, NeatConfig, Network, PopulationDiagnostics, Session, XorWow,
};

const POP: usize = 10_000;

/// A structurally diverged pop-10⁴ genome buffer — the input
/// `PopulationDiagnostics::collect` sees every generation.
fn megapopulation(pop: usize) -> Vec<Genome> {
    let c = NeatConfig::builder(8, 1).pop_size(pop).build().unwrap();
    let mut rng = XorWow::seed_from_u64_value(42);
    let mut innov = InnovationTracker::new(c.first_hidden_id());
    let mut ops = OpCounters::new();
    let mut genomes: Vec<Genome> = (0..pop as u64)
        .map(|k| Genome::initial(k, &c, &mut rng))
        .collect();
    for (i, g) in genomes.iter_mut().enumerate() {
        if i % 5 == 0 {
            for _ in 0..3 {
                g.mutate_add_node(&mut innov, &mut rng, &mut ops);
                g.mutate_attributes(&c, &mut rng, &mut ops);
            }
        }
    }
    genomes
}

/// A long single-task plan: `Session::step` iterations stay inside one
/// task so every bench sample prices the same work.
fn cartpole_plan() -> TaskPlan {
    TaskPlan::new(77, vec![Task::new(EnvKind::CartPole, 1_000_000)])
}

fn bench_scenario(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario");

    // The observability tax: entropy + unique-genome hashing over a
    // pop-10⁴ genome buffer. Runs inside every generation since the
    // diagnostics landed on `GenerationStats`.
    let genomes = megapopulation(POP);
    group.bench_with_input(
        BenchmarkId::new("diagnostics_collect", POP),
        &POP,
        |b, _| {
            b.iter(|| PopulationDiagnostics::collect(black_box(&genomes)));
        },
    );

    // The denominator: one whole evolved generation (episodes through
    // the io-adapter path + speciation + reproduction + diagnostics) at
    // the same population.
    let mut config = cartpole_plan().neat_config();
    config.pop_size = POP;
    let mut session = Session::builder(config, 7)
        .expect("valid scenario config")
        .workload(TaskSequence::new(cartpole_plan()))
        .build();
    group.bench_with_input(BenchmarkId::new("generation_step", POP), &POP, |b, _| {
        b.iter(|| session.step());
    });

    // Sensor-gain drift wrapper vs the raw environment: the per-episode
    // price of nonstationarity (one multiply per observation dimension
    // per step).
    let net = {
        let c = EnvKind::CartPole.neat_config();
        let mut rng = XorWow::seed_from_u64_value(3);
        Network::from_genome(&Genome::initial(0, &c, &mut rng)).unwrap()
    };
    let mut rollout = RolloutScratch::new();
    group.bench_with_input(BenchmarkId::new("episode_raw", "cartpole"), &(), |b, _| {
        b.iter(|| {
            let mut env = EnvKind::CartPole.make(9);
            episode_into(&net, env.as_mut(), &mut rollout)
        });
    });
    let adapter = cartpole_plan().adapter(0);
    let mut scratch = AdapterScratch::new();
    group.bench_with_input(
        BenchmarkId::new("episode_drifted", "cartpole"),
        &(),
        |b, _| {
            b.iter(|| {
                let mut env = DriftedEnv::new(EnvKind::CartPole.make(9), 77, 1);
                adapted_episode(&net, &mut env, &adapter, &mut scratch)
            });
        },
    );

    // One fitness-matrix probe row: the champion evaluated on every task
    // of a three-family curriculum (what a `MetricsRecorder` pays at
    // each task boundary).
    let curriculum = TaskPlan::new(
        77,
        vec![
            Task::new(EnvKind::CartPole, 4),
            Task::new(EnvKind::Acrobot, 4).with_drift(DriftSchedule::Sudden { at: 2 }),
            Task::new(EnvKind::LunarLander, 4),
        ],
    );
    let probe_net = {
        let c = curriculum.neat_config();
        let mut rng = XorWow::seed_from_u64_value(5);
        Network::from_genome(&Genome::initial(0, &c, &mut rng)).unwrap()
    };
    group.bench_with_input(BenchmarkId::new("probe_row", "3_tasks"), &(), |b, _| {
        b.iter(|| {
            (0..curriculum.tasks().len())
                .map(|j| curriculum.probe_fitness(&probe_net, j, 2, 9))
                .sum::<f64>()
        });
    });

    group.finish();
}

criterion_group!(benches, bench_scenario);
criterion_main!(benches);
