//! Snapshot codec: encode and decode of the two images the serve and
//! session paths move. A serve tenant's image is spilled and rehydrated
//! on every eviction cycle (pop 32, the serve-zipf tenant shape); a
//! CartPole population's image is what a pop-10⁴ session checkpoints and
//! resumes. Decode builds every genome through `Genome::from_parts`, so
//! the gate pins the bulk gene path as well as the word codec.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use genesys_core::snapshot::{snapshot_from_bytes, snapshot_to_bytes};
use genesys_gym::{EnvKind, EpisodeEvaluator};
use genesys_neat::{NeatConfig, RunState, Session};
use genesys_serve::WorkloadSpec;

/// A pop-32 serve tenant after a few generations of its workload.
fn serve_tenant() -> RunState {
    let config = NeatConfig::builder(3, 2).pop_size(32).build().unwrap();
    let mut session = Session::builder(config, 7)
        .unwrap()
        .workload(WorkloadSpec::Synthetic.build())
        .build();
    session.run(20);
    session.export_state()
}

/// A pop-10⁴ CartPole population after its first generations.
fn cartpole_population() -> RunState {
    let mut config = EnvKind::CartPole.neat_config();
    config.pop_size = 10_000;
    let mut session = Session::builder(config, 1)
        .unwrap()
        .workload(EpisodeEvaluator::new(EnvKind::CartPole))
        .build();
    session.run(3);
    session.export_state()
}

fn bench_snapshot_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_codec");
    for (name, state) in [
        ("serve_tenant", serve_tenant()),
        ("cartpole_10k", cartpole_population()),
    ] {
        let image = snapshot_to_bytes(&state).unwrap();
        group.bench_function(format!("encode/{name}"), |b| {
            b.iter(|| snapshot_to_bytes(black_box(&state)).unwrap())
        });
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| snapshot_from_bytes(black_box(&image)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_snapshot_codec);
criterion_main!(benches);
