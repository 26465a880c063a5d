//! The Evolution Engine (EvE): the PE array plus its gene-movement fabric.
//!
//! EvE "is responsible for carrying out the selection and reproduction part
//! of the NEAT algorithm across all genomes of the population. It consists
//! of a collection of processing elements (PEs) … a gene split unit …
//! an on-chip interconnect … and a gene merge unit." This module drives
//! those pieces round by round (one PE per child, per Section IV-C5) and
//! produces both the **functional result** (the child genomes, quantized
//! through the hardware gene encoding) and the **microarchitectural
//! accounting** (cycles, SRAM reads under the chosen NoC, op counts).

use crate::noc::{Noc, NocKind, NocStats};
use crate::pe::{EvePe, PeConfig};
use crate::selector::{MatingPlan, PeSchedule};
use crate::sram::GenomeBuffer;
use crate::stream::{align_parents, merge_child};
use genesys_neat::trace::{GenerationTrace, OpCounters};
use genesys_neat::Genome;

/// Genes dropped by the Gene Merge validity repairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeDrops {
    /// Dangling or into-input connections.
    pub dangling: usize,
    /// Cycle-closing connections.
    pub cyclic: usize,
    /// Duplicate keys.
    pub duplicates: usize,
}

/// Result of one full reproduction pass through EvE.
#[derive(Debug)]
pub struct EveReport {
    /// The next generation, in child-index order.
    pub children: Vec<Genome>,
    /// Total EvE cycles (sum over rounds of the slowest PE).
    pub cycles: u64,
    /// Interconnect counters.
    pub noc: NocStats,
    /// Operation tallies across all PEs.
    pub ops: OpCounters,
    /// Gene Merge repair counts.
    pub drops: MergeDrops,
    /// Number of PE rounds executed.
    pub rounds: usize,
}

/// The EvE engine.
#[derive(Debug)]
pub struct EveEngine {
    num_pes: usize,
    pe_config: PeConfig,
    noc_kind: NocKind,
    prng_seed: u64,
}

impl EveEngine {
    /// Creates an engine with `num_pes` PEs fed by a NoC of `noc_kind`.
    pub fn new(num_pes: usize, pe_config: PeConfig, noc_kind: NocKind, prng_seed: u64) -> Self {
        assert!(num_pes > 0, "at least one PE required");
        EveEngine {
            num_pes,
            pe_config,
            noc_kind,
            prng_seed,
        }
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Executes one reproduction pass: every scheduled child is produced
    /// functionally by a PE; elites in `plans` are copied verbatim.
    ///
    /// `genomes` is the evaluated current generation; `next_key` supplies
    /// fresh genome keys. SRAM reads are charged through `buffer` according
    /// to the NoC's dedup behaviour; child genes are charged as writes.
    pub fn reproduce(
        &mut self,
        genomes: &[Genome],
        plans: &[MatingPlan],
        schedule: &PeSchedule,
        buffer: &mut GenomeBuffer,
        next_key: &mut u64,
    ) -> EveReport {
        let num_inputs = genomes.first().map_or(0, Genome::num_inputs);
        let num_outputs = genomes.first().map_or(0, Genome::num_outputs);
        let mut children: Vec<Option<Genome>> = vec![None; plans.len()];
        let mut ops = OpCounters::new();
        let mut drops = MergeDrops::default();
        let mut noc = Noc::new(self.noc_kind);
        let mut cycles = 0u64;

        // Elites bypass the PE array: one buffered read+write per gene.
        for plan in plans.iter().filter(|p| p.is_elite) {
            let mut elite = genomes[plan.fit_parent].clone();
            elite.set_key(*next_key);
            *next_key += 1;
            let genes = elite.num_genes() as u64;
            buffer.read_genes(genes);
            buffer.write_genes(genes);
            children[plan.child_index] = Some(elite);
        }

        // PE rounds.
        let mut pes: Vec<EvePe> = (0..self.num_pes)
            .map(|i| EvePe::new(self.pe_config.clone(), self.prng_seed ^ (i as u64) << 17))
            .collect();
        for round in &schedule.rounds {
            // Build each PE's aligned stream.
            let streams: Vec<_> = round
                .iter()
                .map(|p| align_parents(&genomes[p.fit_parent], &genomes[p.other_parent]))
                .collect();
            let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
            // Cycle-accurate NoC accounting: each active PE requests one
            // gene from each parent stream per cycle.
            let mut requests: Vec<(u64, u32)> = Vec::with_capacity(2 * round.len());
            for t in 0..longest {
                requests.clear();
                for (plan, stream) in round.iter().zip(&streams) {
                    if t < stream.len() {
                        requests.push((genomes[plan.fit_parent].key(), t as u32));
                        if plan.other_parent != plan.fit_parent {
                            requests.push((genomes[plan.other_parent].key(), t as u32));
                        }
                    }
                }
                let reads = noc.distribute_cycle(&requests);
                buffer.read_genes(reads);
            }
            // Functional PE work + per-round timing (slowest PE).
            let mut round_cycles = 0u64;
            for ((plan, stream), pe) in round.iter().zip(&streams).zip(pes.iter_mut()) {
                let out = pe.produce_child(stream);
                round_cycles = round_cycles.max(out.cycles.total());
                ops.merge(&out.ops);
                noc.collect(out.genes.len() as u64);
                buffer.write_genes(out.genes.len() as u64);
                let report = merge_child(*next_key, num_inputs, num_outputs, out.genes)
                    .expect("gene merge repairs keep children valid");
                *next_key += 1;
                drops.dangling += report.dropped_dangling;
                drops.cyclic += report.dropped_cyclic;
                drops.duplicates += report.dropped_duplicates;
                children[plan.child_index] = Some(report.genome);
            }
            cycles += round_cycles;
        }

        EveReport {
            children: children
                .into_iter()
                .map(|c| c.expect("every child index planned"))
                .collect(),
            cycles,
            noc: *noc.stats(),
            ops,
            drops,
            rounds: schedule.rounds.len(),
        }
    }
}

/// Timing-only replay of a software reproduction trace — the paper's own
/// methodology ("these traces serve as proxy for our workloads when we
/// evaluate EVE and ADAM implementations", Section VI-A). Returns cycles
/// and NoC/SRAM counters without re-running the functional pipeline, so it
/// scales to the Atari-sized workloads of Figs 9/11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayReport {
    /// Total EvE cycles.
    pub cycles: u64,
    /// Interconnect counters.
    pub noc: NocStats,
    /// SRAM reads (== `noc.sram_reads`) and child-gene writes.
    pub sram_writes: u64,
    /// Rounds executed.
    pub rounds: usize,
}

/// Replays `trace` (produced by [`genesys_neat::Population`]) against an
/// EvE with `num_pes` PEs and the given NoC, using `parent_sizes[i]` as the
/// gene count of parent genome `i` and `child_sizes[i]` for child `i`.
/// Uses the paper's GLR-aware greedy PE allocation; see
/// [`replay_trace_with_policy`] for the ablation knob.
pub fn replay_trace(
    trace: &GenerationTrace,
    parent_sizes: &[usize],
    child_sizes: &[usize],
    num_pes: usize,
    noc_kind: NocKind,
    buffer: &mut GenomeBuffer,
) -> ReplayReport {
    replay_trace_with_policy(
        trace,
        parent_sizes,
        child_sizes,
        num_pes,
        noc_kind,
        crate::selector::AllocPolicy::Greedy,
        buffer,
    )
}

/// [`replay_trace`] with an explicit PE allocation policy (the greedy vs
/// round-robin ablation that `genesys_bench`'s `ablations` bench runs).
#[allow(clippy::too_many_arguments)]
pub fn replay_trace_with_policy(
    trace: &GenerationTrace,
    parent_sizes: &[usize],
    child_sizes: &[usize],
    num_pes: usize,
    noc_kind: NocKind,
    policy: crate::selector::AllocPolicy,
    buffer: &mut GenomeBuffer,
) -> ReplayReport {
    use crate::selector::allocate_pes;
    let plans: Vec<MatingPlan> = trace
        .children
        .iter()
        .map(|c| MatingPlan {
            child_index: c.child_index,
            fit_parent: c.parent1,
            other_parent: c.parent2,
            is_elite: c.is_elite,
        })
        .collect();
    let schedule = allocate_pes(&plans, num_pes, policy);
    let mut noc = Noc::new(noc_kind);
    let mut cycles = 0u64;

    for plan in plans.iter().filter(|p| p.is_elite) {
        let genes = parent_sizes[plan.fit_parent] as u64;
        buffer.read_genes(genes);
        buffer.write_genes(genes);
    }
    let mut requests: Vec<(u64, u32)> = Vec::with_capacity(2 * num_pes);
    for round in &schedule.rounds {
        let stream_len =
            |p: &MatingPlan| parent_sizes[p.fit_parent].max(parent_sizes[p.other_parent]) as u64;
        let longest = round.iter().map(stream_len).max().unwrap_or(0);
        for t in 0..longest {
            requests.clear();
            for plan in round {
                if t < stream_len(plan) {
                    requests.push((plan.fit_parent as u64, t as u32));
                    if plan.other_parent != plan.fit_parent {
                        requests.push((plan.other_parent as u64, t as u32));
                    }
                }
            }
            let reads = noc.distribute_cycle(&requests);
            buffer.read_genes(reads);
        }
        // Slowest PE: setup 2 + stream + drain 4 (add-extra folded into the
        // recorded per-child op counts is negligible at this granularity).
        cycles += 2 + longest + 4;
        for plan in round {
            let child_genes = child_sizes.get(plan.child_index).copied().unwrap_or(0) as u64;
            noc.collect(child_genes);
            buffer.write_genes(child_genes);
        }
    }
    ReplayReport {
        cycles,
        noc: *noc.stats(),
        sram_writes: buffer.stats().writes,
        rounds: schedule.rounds.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{allocate_pes, select_parents, AllocPolicy};
    use crate::sram::SramConfig;
    use genesys_neat::{
        EvalContext, Evaluator, NeatConfig, Network, Population, Session, SpeciesSet, XorWow,
    };

    /// A session after one generation of a fresh 2-input population of
    /// `n` (seed `seed`); its backend holds the reproduction trace.
    fn one_generation(n: usize, seed: u64) -> Session<impl Evaluator, Population> {
        let c = NeatConfig::builder(2, 1).pop_size(n).build().unwrap();
        let mut session = Session::on(Population::new(c, seed), seed)
            .workload(|_: EvalContext, net: &Network| net.activate(&[0.4, 0.6])[0])
            .build();
        session.step();
        session
    }

    fn evaluated_population(n: usize) -> (Vec<Genome>, NeatConfig) {
        let c = NeatConfig::builder(3, 1).pop_size(n).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(21);
        let mut genomes: Vec<Genome> = (0..n as u64)
            .map(|k| Genome::initial(k, &c, &mut rng))
            .collect();
        for (i, g) in genomes.iter_mut().enumerate() {
            g.set_fitness((i % 7) as f64);
        }
        (genomes, c)
    }

    fn run_reproduction(num_pes: usize) -> (EveReport, Vec<Genome>, NeatConfig) {
        let (genomes, c) = evaluated_population(24);
        let mut species = SpeciesSet::new();
        let mut rng = XorWow::seed_from_u64_value(5);
        let plans = select_parents(&genomes, &mut species, &c, 0, &mut rng);
        let schedule = allocate_pes(&plans, num_pes, AllocPolicy::Greedy);
        let pe_config = PeConfig::from_neat(&c, 5);
        let mut engine = EveEngine::new(num_pes, pe_config, NocKind::MulticastTree, 99);
        let mut buffer = GenomeBuffer::new(SramConfig::default());
        let mut key = 1000;
        let report = engine.reproduce(&genomes, &plans, &schedule, &mut buffer, &mut key);
        (report, genomes, c)
    }

    #[test]
    fn reproduce_emits_full_generation_of_valid_children() {
        let (report, genomes, _) = run_reproduction(8);
        assert_eq!(report.children.len(), genomes.len());
        for child in &report.children {
            assert!(child.validate().is_ok());
            assert_eq!(child.num_inputs(), 3);
            assert_eq!(child.num_outputs(), 1);
        }
    }

    #[test]
    fn more_pes_means_fewer_rounds_and_fewer_cycles() {
        let (few, _, _) = run_reproduction(2);
        let (many, _, _) = run_reproduction(16);
        assert!(many.rounds < few.rounds);
        assert!(
            many.cycles < few.cycles,
            "{} !< {}",
            many.cycles,
            few.cycles
        );
    }

    #[test]
    fn multicast_reads_fewer_genes_than_p2p() {
        let (genomes, c) = evaluated_population(24);
        let mut species = SpeciesSet::new();
        let mut rng = XorWow::seed_from_u64_value(5);
        let plans = select_parents(&genomes, &mut species, &c, 0, &mut rng);
        let schedule = allocate_pes(&plans, 16, AllocPolicy::Greedy);
        let pe_config = PeConfig::from_neat(&c, 5);
        let mut key = 0;
        let mut buf1 = GenomeBuffer::new(SramConfig::default());
        let mut e1 = EveEngine::new(16, pe_config.clone(), NocKind::PointToPoint, 7);
        let p2p = e1.reproduce(&genomes, &plans, &schedule, &mut buf1, &mut key);
        let mut buf2 = GenomeBuffer::new(SramConfig::default());
        let mut e2 = EveEngine::new(16, pe_config, NocKind::MulticastTree, 7);
        let mc = e2.reproduce(&genomes, &plans, &schedule, &mut buf2, &mut key);
        assert!(
            mc.noc.sram_reads < p2p.noc.sram_reads,
            "multicast {} !< p2p {}",
            mc.noc.sram_reads,
            p2p.noc.sram_reads
        );
        assert_eq!(mc.noc.flits_delivered, p2p.noc.flits_delivered);
    }

    #[test]
    fn ops_are_recorded() {
        let (report, _, _) = run_reproduction(8);
        assert!(report.ops.crossover > 0);
    }

    #[test]
    fn replay_matches_functional_round_count() {
        let pop = one_generation(20, 3);
        let trace = pop.backend().last_trace().unwrap();
        let parent_sizes = vec![5usize; 20];
        let child_sizes: Vec<usize> = pop.genomes().iter().map(Genome::num_genes).collect();
        let mut buffer = GenomeBuffer::new(SramConfig::default());
        let report = replay_trace(
            trace,
            &parent_sizes,
            &child_sizes,
            4,
            NocKind::MulticastTree,
            &mut buffer,
        );
        let non_elite = trace.children.iter().filter(|t| !t.is_elite).count();
        assert_eq!(report.rounds, non_elite.div_ceil(4));
        assert!(report.cycles > 0);
        assert!(report.noc.sram_reads > 0);
    }

    #[test]
    fn replay_multicast_beats_p2p_on_shared_parents() {
        let pop = one_generation(40, 4);
        let trace = pop.backend().last_trace().unwrap();
        let parent_sizes = vec![5usize; 40];
        let child_sizes = vec![5usize; 40];
        let mut b1 = GenomeBuffer::new(SramConfig::default());
        let p2p = replay_trace(
            trace,
            &parent_sizes,
            &child_sizes,
            16,
            NocKind::PointToPoint,
            &mut b1,
        );
        let mut b2 = GenomeBuffer::new(SramConfig::default());
        let mc = replay_trace(
            trace,
            &parent_sizes,
            &child_sizes,
            16,
            NocKind::MulticastTree,
            &mut b2,
        );
        assert!(mc.noc.sram_reads < p2p.noc.sram_reads);
    }
}
