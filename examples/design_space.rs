//! Design-space exploration: how many EvE PEs does a workload need, and
//! what does the interconnect buy? (The Fig 8/11 questions, as a library
//! user would ask them.)
//!
//! The profiling run goes through the session API with a synthetic
//! closure workload (no environment: fitness is a pure function of the
//! network), then the recorded reproduction trace drives the EvE replay
//! model across PE counts and NoC topologies.
//!
//! Run with: `cargo run --release --example design_space`

use genesys::neat::{EvalContext, Genome, NeatConfig, Network, Session, SpeciesSet, XorWow};
use genesys::soc::{
    allocate_pes, replay_trace, replay_trace_with_policy, select_parents, AllocPolicy,
    GenomeBuffer, NocKind, SocConfig, TechModel,
};

fn main() {
    // Profile one reproduction step of a LunarLander-sized population.
    let config = NeatConfig::builder(8, 1)
        .pop_size(150)
        .build()
        .expect("valid");
    let mut session = Session::builder(config.clone(), 11)
        .expect("valid config")
        .workload(|_ctx: EvalContext, net: &Network| net.activate(&[0.1; 8])[0])
        .build();
    let parent_sizes: Vec<usize> = session.genomes().map(Genome::num_genes).collect();
    session.step();
    let trace = session.backend().last_trace().expect("reproduced").clone();
    let child_sizes: Vec<usize> = session.genomes().map(Genome::num_genes).collect();

    let tech = TechModel::default();
    println!("EvE PEs | NoC        | cycles | evo time | SRAM reads | power mW | area mm2");
    println!("--------+------------+--------+----------+------------+----------+---------");
    for &pes in &[2usize, 8, 32, 128, 256] {
        for noc in [NocKind::PointToPoint, NocKind::MulticastTree] {
            let soc = SocConfig::default().with_num_eve_pes(pes).with_noc(noc);
            let mut buffer = GenomeBuffer::new(soc.sram);
            buffer.set_resident(parent_sizes.iter().sum::<usize>() * 2);
            let report = replay_trace(&trace, &parent_sizes, &child_sizes, pes, noc, &mut buffer);
            println!(
                "{:>7} | {:<10} | {:>6} | {:>6.2}us | {:>10} | {:>8.1} | {:>7.2}",
                pes,
                noc.to_string(),
                report.cycles,
                report.cycles as f64 * tech.cycle_time_s() * 1e6,
                report.noc.sram_reads,
                soc.roofline_power_mw(),
                soc.area_mm2(),
            );
        }
    }

    // And the allocation-policy ablation: does GLR-aware scheduling matter?
    // (Narrow rounds make the grouping effect visible: with 8-child rounds
    // a greedy schedule touches fewer distinct parents per round.)
    println!("\nPE allocation policy (8 PEs, multicast tree):");
    let mut genomes: Vec<Genome> = session.genomes().cloned().collect();
    for (i, g) in genomes.iter_mut().enumerate() {
        g.set_fitness((i % 13) as f64);
    }
    let mut species = SpeciesSet::new();
    let mut rng = XorWow::seed_from_u64_value(3);
    let plans = select_parents(&genomes, &mut species, &config, 0, &mut rng);
    for policy in [AllocPolicy::Greedy, AllocPolicy::RoundRobin] {
        let schedule = allocate_pes(&plans, 8, policy);
        let sizes: Vec<usize> = genomes.iter().map(Genome::num_genes).collect();
        // Re-express the plans as a trace for the replay model.
        let trace = genesys::neat::GenerationTrace {
            generation: 0,
            children: plans
                .iter()
                .map(|p| genesys::neat::trace::ChildTrace {
                    child_index: p.child_index,
                    parent1: p.fit_parent,
                    parent2: p.other_parent,
                    genes_streamed: sizes[p.fit_parent] as u64,
                    ops: Default::default(),
                    is_elite: p.is_elite,
                })
                .collect(),
        };
        let mut buffer = GenomeBuffer::new(SocConfig::default().sram);
        let report = replay_trace_with_policy(
            &trace,
            &sizes,
            &sizes,
            8,
            NocKind::MulticastTree,
            policy,
            &mut buffer,
        );
        println!(
            "  {:?}: {} rounds, {} SRAM reads",
            policy,
            schedule.rounds.len(),
            report.noc.sram_reads
        );
    }
}
