//! Smoke test for the workspace surface: the umbrella re-exports
//! (`genesys::neat`, `genesys::gym`, `genesys::soc`, `genesys::platforms`)
//! must stay addressable under their documented paths, and the `src/lib.rs`
//! quickstart must keep working when written against them.

use genesys::gym::{CartPole, EnvKind, Environment, EpisodeEvaluator};
use genesys::neat::{NeatConfig, Session};
use genesys::platforms::{CpuModel, WorkloadProfile};
use genesys::soc::{snapshot_from_bytes, snapshot_to_bytes, SocConfig};

/// Every umbrella module resolves and its headline types are constructible.
#[test]
fn umbrella_reexports_are_addressable() {
    let config: genesys::neat::NeatConfig = NeatConfig::for_env("cartpole", 4, 1);
    assert!(config.validate().is_ok());

    let mut env: CartPole = genesys::gym::CartPole::new(3);
    assert_eq!(env.reset().len(), 4);

    let soc: genesys::soc::SocConfig = SocConfig::default();
    assert!(soc.num_eve_pes > 0);

    let cpu: genesys::platforms::CpuModel = CpuModel::i7();
    let profile = WorkloadProfile {
        label: "smoke".into(),
        pop_size: 8,
        env_steps: 100,
        inference_macs: 1_000,
        evolution_ops: 100,
        total_genes: 64,
        max_nodes: 6,
        mean_nodes: 5.0,
    };
    assert!(cpu.inference_time_s(&profile, false) > 0.0);
}

/// The umbrella crate aliases point at the same crates the workspace
/// members export (spot-checked via type identity).
#[test]
fn umbrella_aliases_match_member_crates() {
    fn takes_member(c: genesys_bench::GenesysCost) -> genesys_bench::GenesysCost {
        c
    }
    // genesys_bench consumes genesys_core (= genesys::soc) types directly;
    // feeding it a config built through the umbrella path proves the alias
    // resolves to the same crate rather than a copy.
    let run = genesys_bench::run_workload(genesys::gym::EnvKind::CartPole, 1, 5, Some(8));
    let cost = takes_member(genesys_bench::genesys_cost(&run, &SocConfig::default()));
    assert!(cost.evolution_s > 0.0);
}

/// The `src/lib.rs` quickstart, as an integration test through the
/// umbrella paths only: evolve, checkpoint to bytes, resume, and land on
/// the genomes of the run that never stopped.
#[test]
fn quickstart_flow_runs() {
    let mut config = EnvKind::CartPole.neat_config();
    config.pop_size = 16;

    let mut session = Session::builder(config, 42)
        .unwrap()
        .workload(EpisodeEvaluator::new(EnvKind::CartPole))
        .build();
    session.run(2);
    let checkpoint = snapshot_to_bytes(&session.export_state()).unwrap();

    let state = snapshot_from_bytes(&checkpoint).unwrap();
    let mut resumed = Session::resume(state)
        .unwrap()
        .workload(EpisodeEvaluator::new(EnvKind::CartPole))
        .build();
    assert_eq!(resumed.generation(), 2);
    session.run(2);
    resumed.run(2);
    assert!(session.genomes().eq(resumed.genomes()));
}
