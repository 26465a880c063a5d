//! Cross-crate integration tests: the full GeneSys stack, software NEAT
//! vs the hardware loop, trace replay, and the experiment harness.

use genesys::gym::{rollout, EnvKind, EpisodeEvaluator, MountainCar};
use genesys::neat::{EvalContext, Genome, NeatConfig, Network, Population, RunOutcome, Session};
use genesys::platforms::{CpuModel, GpuModel, WorkloadProfile};
use genesys::soc::{
    decode_genome, encode_genome, replay_trace, GenesysSoc, GenomeBuffer, NocKind, SocConfig,
    SramConfig,
};

/// One CartPole episode per genome, seeded from its evaluation context.
fn cartpole() -> EpisodeEvaluator {
    EpisodeEvaluator::new(EnvKind::CartPole)
}

#[test]
fn software_neat_learns_cartpole() {
    let config = NeatConfig::builder(4, 1)
        .pop_size(96)
        .target_fitness(Some(150.0))
        .build()
        .unwrap();
    let mut session = Session::on(Population::new(config, 5), 5)
        .workload(cartpole())
        .threads(4)
        .build();
    let result = session.run(40);
    let best_seen = result
        .history
        .iter()
        .map(|s| s.max_fitness)
        .fold(f64::NEG_INFINITY, f64::max);
    // Either converged or made very substantial progress from the ~9-step
    // baseline of a zero-weight population.
    match result.outcome {
        RunOutcome::Converged { .. } => {}
        RunOutcome::GenerationLimit => {
            assert!(best_seen > 60.0, "no meaningful learning: best {best_seen}")
        }
    }
}

#[test]
fn hardware_loop_matches_software_interface_and_learns() {
    let neat = NeatConfig::builder(4, 1)
        .pop_size(64)
        .target_fitness(Some(150.0))
        .build()
        .unwrap();
    let soc = GenesysSoc::new(SocConfig::default().with_num_eve_pes(32), neat, 17);
    let mut session = Session::on(soc, 17).workload(cartpole()).build();
    let mut reports = Vec::new();
    for _ in 0..25 {
        let converged = session.run(1).converged();
        reports.push(session.backend().last_report().unwrap().clone());
        if converged {
            break;
        }
    }
    let first = reports.first().unwrap().max_fitness;
    let best = reports
        .iter()
        .map(|r| r.max_fitness)
        .fold(f64::MIN, f64::max);
    assert!(
        best > first,
        "hardware evolution should improve fitness: first {first}, best {best}"
    );
    // Every generation must account energy and cycles.
    for r in &reports {
        assert!(r.energy.total() > 0.0);
        assert!(r.inference.cycles > 0);
        assert!(r.evolution.cycles > 0);
        assert!(r.memory_bytes < 1_500_000, "fits the 1.5 MB genome buffer");
    }
}

#[test]
fn evolved_population_round_trips_the_genome_buffer_encoding() {
    let config = NeatConfig::builder(2, 1).pop_size(32).build().unwrap();
    let mountain_car = |_: EvalContext, net: &Network| rollout(net, &mut MountainCar::new(1), 1);
    let mut session = Session::on(Population::new(config, 3), 3)
        .workload(mountain_car)
        .build();
    session.run(5);
    for genome in session.genomes() {
        let words = encode_genome(genome);
        let back = decode_genome(genome.key(), 2, 1, &words).expect("valid image");
        assert_eq!(back.num_nodes(), genome.num_nodes());
        assert_eq!(back.num_conns(), genome.num_conns());
        // Discrete structure is bit-exact; continuous attributes land on
        // the fixed-point grid within codec tolerance.
        for (a, b) in genome.conns().zip(back.conns()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.enabled, b.enabled);
            assert!((a.weight - b.weight).abs() <= 0.5 / 512.0 + 1e-12);
        }
    }
}

#[test]
fn trace_replay_is_consistent_with_the_trace() {
    let config = NeatConfig::builder(6, 2).pop_size(50).build().unwrap();
    let mut session = Session::on(Population::new(config, 9), 9)
        .workload(|_: EvalContext, net: &Network| net.activate(&[0.5; 6]).iter().sum())
        .build();
    let parent_sizes: Vec<usize> = session.genomes().map(Genome::num_genes).collect();
    session.step();
    let trace = session.backend().last_trace().unwrap().clone();
    let child_sizes: Vec<usize> = session.genomes().map(Genome::num_genes).collect();

    let mut buffer = GenomeBuffer::new(SramConfig::default());
    let report = replay_trace(
        &trace,
        &parent_sizes,
        &child_sizes,
        16,
        NocKind::MulticastTree,
        &mut buffer,
    );
    let non_elite = trace.children.iter().filter(|c| !c.is_elite).count();
    assert_eq!(report.rounds, non_elite.div_ceil(16));
    // Every child gene is written exactly once (elites too).
    let expected_writes: u64 = trace
        .children
        .iter()
        .map(|c| {
            if c.is_elite {
                parent_sizes[c.parent1] as u64
            } else {
                child_sizes[c.child_index] as u64
            }
        })
        .sum();
    assert_eq!(buffer.stats().writes, expected_writes);
}

#[test]
fn platform_models_preserve_the_papers_ordering() {
    // On any real profile: GeneSys < GPU < CPU in inference runtime, and
    // embedded < desktop in power.
    let w = WorkloadProfile {
        label: "LunarLander_v2".into(),
        pop_size: 150,
        env_steps: 40_000,
        inference_macs: 2_000_000,
        evolution_ops: 20_000,
        total_genes: 5_000,
        max_nodes: 16,
        mean_nodes: 11.0,
    };
    let i7 = CpuModel::i7();
    let gtx = GpuModel::gtx_1080();
    let cpu_t = i7.inference_time_s(&w, false);
    let gpu_t = gtx.inference_gpu_b(&w).total_s();
    assert!(gpu_t < cpu_t, "GPU_b should beat serial CPU");
    assert!(gtx.inference_gpu_a(&w).memcpy_fraction() > gtx.inference_gpu_b(&w).memcpy_fraction());
}

#[test]
fn every_suite_env_supports_one_soc_generation() {
    for kind in [EnvKind::CartPole, EnvKind::LunarLander, EnvKind::Asterix] {
        let (inputs, outputs) = kind.interface();
        let neat = NeatConfig::builder(inputs, outputs)
            .pop_size(6)
            .build()
            .unwrap();
        let soc = GenesysSoc::new(SocConfig::default().with_num_eve_pes(4), neat, 2);
        let mut session = Session::on(soc, 2)
            .workload(EpisodeEvaluator::new(kind))
            .build();
        session.step();
        let report = session.backend().last_report().unwrap();
        assert!(report.inference.env_steps > 0, "{}", kind.label());
        assert!(report.evolution.cycles > 0, "{}", kind.label());
    }
}

#[test]
fn checkpoint_restore_resumes_evolution() {
    use genesys::soc::{decode_population, encode_population};
    let config = NeatConfig::builder(4, 1).pop_size(24).build().unwrap();
    let mut session = Session::on(Population::new(config.clone(), 13), 13)
        .workload(cartpole())
        .build();
    session.run(5);
    // Checkpoint through the genome-buffer image format.
    let image = encode_population(session.genomes());
    let restored = decode_population(4, 1, &image).unwrap();
    assert_eq!(restored.len(), 24);
    let mut resumed = Session::on(Population::from_genomes(config, restored, 14), 14)
        .workload(cartpole())
        .build();
    let stats = resumed.step();
    assert_eq!(stats.generation, 0);
    assert_eq!(resumed.genomes().count(), 24);
    // Structural knowledge survived the checkpoint: resumed genomes keep
    // whatever hidden structure evolution had built.
    let genes_before: usize = session.genomes().map(Genome::num_genes).sum();
    assert!(genes_before > 0);
    for g in resumed.genomes() {
        assert!(g.validate().is_ok());
    }
}

#[test]
fn quantized_and_float_evolution_both_learn() {
    // Ablation: the SoC's fixed-point gene encoding does not break
    // learnability on CartPole (the quantization ablation, which the
    // `ablation_quantization` bin runs at full scale).
    let config = NeatConfig::builder(4, 1).pop_size(48).build().unwrap();

    let mut float_pop = Session::on(Population::new(config.clone(), 77), 77)
        .workload(cartpole())
        .build();
    let mut best_float = f64::MIN;
    for _ in 0..10 {
        best_float = best_float.max(float_pop.step().max_fitness);
    }

    let soc = GenesysSoc::new(SocConfig::default().with_num_eve_pes(32), config, 77);
    let mut soc = Session::on(soc, 77).workload(cartpole()).build();
    let mut best_quant = f64::MIN;
    for _ in 0..10 {
        soc.step();
        best_quant = best_quant.max(soc.backend().last_report().unwrap().max_fitness);
    }
    assert!(
        best_float > 20.0,
        "float baseline learned nothing: {best_float}"
    );
    assert!(
        best_quant > 20.0,
        "quantized loop learned nothing: {best_quant}"
    );
}
