//! # genesys-bench — the experiment harness
//!
//! Shared machinery for the binaries that regenerate every table and
//! figure of the GeneSys evaluation: one bin per table or figure in
//! `src/bin/`, named after it (`table1_envs`, `fig04_evolution` …
//! `fig11_design_space`), plus the `ablation_quantization` and
//! `ext_power_gating` studies.
//!
//! The central artifact is a [`WorkloadRun`]: an actual multi-generation
//! run of `genesys-neat` on one Table I environment, with the measured op
//! counts, genome statistics and reproduction traces that drive (a) the
//! GeneSys SoC timing/energy models and (b) the CPU/GPU baseline models —
//! exactly the paper's trace-driven methodology (Section VI-A).

use genesys_core::{
    inference_timing, replay_trace, AdamConfig, GenomeBuffer, ReplayReport, SocConfig, TechModel,
};
use genesys_gym::{EnvKind, EpisodeEvaluator};
use genesys_neat::trace::GenerationTrace;
use genesys_neat::{Executor, GenerationStats, Genome, Network, Session};
use genesys_platforms::WorkloadProfile;
use std::sync::Arc;

/// One profiled evolution run on a workload.
#[derive(Debug)]
pub struct WorkloadRun {
    /// The workload.
    pub kind: EnvKind,
    /// Per-generation statistics (fitness, genes, ops, reuse).
    pub history: Vec<GenerationStats>,
    /// Trace of the final generation's reproduction.
    pub final_trace: GenerationTrace,
    /// Gene counts of the final parent generation (trace parent indices).
    pub parent_sizes: Vec<usize>,
    /// Gene counts of the children the trace produced.
    pub child_sizes: Vec<usize>,
    /// The final parent generation's genomes (for ADAM timing).
    pub parents: Vec<Genome>,
    /// Mean environment steps per generation (totalled over population).
    pub env_steps_per_gen: f64,
    /// Mean inference MACs per generation.
    pub macs_per_gen: f64,
}

impl WorkloadRun {
    /// Builds the [`WorkloadProfile`] consumed by the platform models,
    /// averaged over the profiled generations.
    pub fn profile(&self) -> WorkloadProfile {
        let gens = self.history.len().max(1) as f64;
        let evolution_ops: u64 =
            (self.history.iter().map(|s| s.ops.total()).sum::<u64>() as f64 / gens) as u64;
        let total_genes: u64 =
            (self.history.iter().map(|s| s.total_genes).sum::<usize>() as f64 / gens) as u64;
        let max_nodes = self
            .parents
            .iter()
            .map(Genome::num_nodes)
            .max()
            .unwrap_or(1);
        let mean_nodes = self
            .parents
            .iter()
            .map(|g| g.num_nodes() as f64)
            .sum::<f64>()
            / self.parents.len().max(1) as f64;
        WorkloadProfile {
            label: self.kind.label().to_string(),
            pop_size: self.parents.len(),
            env_steps: self.env_steps_per_gen as u64,
            inference_macs: self.macs_per_gen as u64,
            evolution_ops,
            total_genes,
            max_nodes,
            mean_nodes,
        }
    }
}

/// Runs `generations` generations of NEAT on `kind`, recording statistics.
/// `pop_size` overrides the paper's 150 (useful for fast smoke runs).
/// Evaluation is serial; use [`run_workload_on`] to fan episodes out over a
/// persistent evaluation pool.
pub fn run_workload(
    kind: EnvKind,
    generations: usize,
    seed: u64,
    pop_size: Option<usize>,
) -> WorkloadRun {
    run_workload_on(kind, generations, seed, pop_size, None)
}

/// [`run_workload`] with an optional shared evaluation pool. Fitness is
/// **bit-identical** across pool sizes (including `None`): every genome's
/// episode seed derives from `(seed, generation, genome index)` via
/// [`genesys_gym::episode_seed`], never from evaluation order, so thread
/// scheduling cannot leak into the results (the executor's determinism
/// contract).
///
/// Since the session refactor this is a thin profiling loop over a
/// `genesys_neat::Session` driving an [`EpisodeEvaluator`]; seeds, the
/// evolution path and the per-worker rollout buffers are exactly the ones
/// the pre-session harness used, so recorded figures are unchanged.
pub fn run_workload_on(
    kind: EnvKind,
    generations: usize,
    seed: u64,
    pop_size: Option<usize>,
    pool: Option<&Arc<Executor>>,
) -> WorkloadRun {
    run_workload_islands(kind, generations, seed, pop_size, pool, 1, 0)
}

/// [`run_workload_on`] on the archipelago backend: `islands` islands with
/// ring migration every `migration_interval` generations (0 keeps the
/// config's default interval). `islands = 1` is exactly the monolithic
/// backend — same seeds, same results — so figure bins expose
/// `--islands`/`--migration-interval` without forking their run loops.
pub fn run_workload_islands(
    kind: EnvKind,
    generations: usize,
    seed: u64,
    pop_size: Option<usize>,
    pool: Option<&Arc<Executor>>,
    islands: usize,
    migration_interval: usize,
) -> WorkloadRun {
    let mut config = kind.neat_config();
    if let Some(p) = pop_size {
        config.pop_size = p;
    }
    config.islands = islands;
    if migration_interval > 0 {
        config.migration_interval = migration_interval;
    }
    let builder = Session::builder(config, seed).expect("workload presets are valid");
    let builder = match pool {
        Some(pool) => builder.executor(Arc::clone(pool)),
        None => builder,
    };
    let mut session = builder.workload(EpisodeEvaluator::new(kind)).build();

    let mut history = Vec::with_capacity(generations);
    let mut total_steps = 0u64;
    let mut total_macs = 0u64;
    let mut parents: Vec<Genome> = Vec::new();
    let mut parent_sizes: Vec<usize> = Vec::new();
    for _ in 0..generations {
        parents = session.genomes().to_vec();
        parent_sizes = parents.iter().map(Genome::num_genes).collect();
        let stats = session.step();
        total_steps += stats.env_steps;
        total_macs += stats.inference_macs * stats.env_steps / parents.len().max(1) as u64;
        history.push(stats);
    }
    let child_sizes: Vec<usize> = session.genomes().iter().map(Genome::num_genes).collect();
    let gens = generations.max(1) as f64;
    WorkloadRun {
        kind,
        final_trace: session.backend().last_trace().cloned().unwrap_or_default(),
        parent_sizes,
        child_sizes,
        parents,
        env_steps_per_gen: total_steps as f64 / gens,
        macs_per_gen: total_macs as f64 / gens,
        history,
    }
}

/// GeneSys per-generation runtime/energy derived from a workload run —
/// the SoC columns of Figs 9 and 10.
#[derive(Debug, Clone, Copy)]
pub struct GenesysCost {
    /// Inference runtime per generation, seconds.
    pub inference_s: f64,
    /// Evolution runtime per generation, seconds.
    pub evolution_s: f64,
    /// Inference energy per generation, joules.
    pub inference_j: f64,
    /// Evolution energy per generation, joules.
    pub evolution_j: f64,
    /// Genome-buffer traffic time (the SoC's "memcpy" analogue), seconds.
    pub buffer_transfer_s: f64,
    /// ADAM MAC utilization.
    pub adam_utilization: f64,
    /// EvE replay details.
    pub replay: ReplayReport,
}

/// Computes GeneSys costs for a profiled run under a SoC configuration.
pub fn genesys_cost(run: &WorkloadRun, soc: &SocConfig) -> GenesysCost {
    let tech: &TechModel = &soc.tech;
    let adam: &AdamConfig = &soc.adam;
    // ---- Inference ---------------------------------------------------------
    // GeneSys inference exploits PLP (Table III): the vectorize routine
    // packs ready vertices from *multiple genomes* into each matrix–vector
    // pass, so ADAM's 1024 MACs amortize across the population. We model a
    // 50 % packing efficiency plus one staging cycle per environment step.
    let pop = run.parents.len().max(1);
    let mean_steps = run.env_steps_per_gen / pop as f64;
    let mut macs = 0.0;
    let mut util_acc = 0.0;
    for genome in &run.parents {
        let net = Network::from_genome(genome).expect("profiled genomes are valid");
        let t = inference_timing(&net, adam);
        macs += mean_steps * t.macs as f64;
        util_acc += t.utilization;
    }
    const PACKING_EFFICIENCY: f64 = 0.5;
    let packed_cycles = macs / (adam.num_macs() as f64 * PACKING_EFFICIENCY);
    let staging_cycles = run.env_steps_per_gen;
    let inf_cycles = packed_cycles + staging_cycles;
    let inference_s = inf_cycles * tech.cycle_time_s();

    // ---- Evolution: trace replay on the EvE model -----------------------
    let mut buffer = GenomeBuffer::new(soc.sram);
    let resident: usize = run.parent_sizes.iter().sum::<usize>() * 2;
    buffer.set_resident(resident);
    let replay = replay_trace(
        &run.final_trace,
        &run.parent_sizes,
        &run.child_sizes,
        soc.num_eve_pes,
        soc.noc_kind,
        &mut buffer,
    );
    let evolution_s = replay.cycles as f64 * tech.cycle_time_s();

    // ---- Energy ----------------------------------------------------------
    let genes_streamed: u64 = run
        .final_trace
        .children
        .iter()
        .map(|c| c.genes_streamed)
        .sum();
    // Per-op dynamic energy plus the roofline SoC power over the phase's
    // runtime (the paper's pessimistic "always computing" assumption).
    let roofline_w = tech.roofline_power_mw(soc.num_eve_pes).total() / 1e3;
    let evolution_j = (genes_streamed as f64 * tech.e_pe_gene_pj
        + replay.noc.sram_reads as f64 * soc.sram.read_energy_pj
        + (replay.noc.flits_delivered + replay.noc.flits_collected) as f64 * tech.e_noc_flit_pj)
        / 1e12
        + roofline_w * evolution_s;
    // Inference reads: genomes mapped once + per-step vector staging.
    let inf_reads: f64 = run.parent_sizes.iter().sum::<usize>() as f64
        + run.env_steps_per_gen * (run.profile().mean_nodes);
    let inference_j = (macs * tech.e_mac_pj + inf_reads * soc.sram.read_energy_pj) / 1e12
        + roofline_w * inference_s;
    // Buffer transfer time: the *visible* (non-overlapped) traffic — genome
    // mapping at generation start, fitness/children writebacks, and the
    // evolution-phase NoC reads — served one word per bank-cycle across the
    // 48 banks. Per-step vector staging overlaps ADAM compute and is
    // excluded (that overlap is why the banked organization exists).
    let mapping_words = run.parent_sizes.iter().sum::<usize>() as f64;
    let writeback_words = run.child_sizes.iter().sum::<usize>() as f64 + pop as f64;
    let buffer_words = mapping_words + writeback_words + replay.noc.sram_reads as f64;
    let buffer_transfer_s = buffer_words / soc.sram.banks as f64 * tech.cycle_time_s();

    GenesysCost {
        inference_s,
        evolution_s,
        inference_j,
        evolution_j,
        buffer_transfer_s,
        adam_utilization: util_acc / pop as f64,
        replay,
    }
}

/// Formats a float in the paper's log-scale-friendly scientific notation.
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v:9.2e}")
    }
}

/// Prints a header + aligned rows (simple fixed-width table).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The flags every experiment binary accepts, each taking one value.
const SHARED_FLAGS: [&str; 7] = [
    "--pop",
    "--generations",
    "--runs",
    "--threads",
    "--seed",
    "--islands",
    "--migration-interval",
];

/// Parses the value given for `flag` in `values`, if any.
fn flag_value<T: std::str::FromStr>(
    values: &[(&str, Option<&str>)],
    flag: &str,
) -> Result<Option<T>, String> {
    let (_, value) = values
        .iter()
        .find(|(f, _)| *f == flag)
        .expect("an accepted flag");
    value
        .map(|v| {
            v.parse()
                .map_err(|_| format!("`{flag}` takes a non-negative integer, not `{v}`"))
        })
        .transpose()
}

/// The one CLI surface shared by every experiment binary:
/// `--pop N --generations N --runs N --threads N --seed N --islands N
/// --migration-interval N`.
///
/// Every flag is optional; each binary supplies its own defaults through
/// the `*_or` accessors (full paper scale is reachable everywhere with
/// `--pop 150 --generations 100 --runs 100`). `--seed` shifts the base of
/// every workload seed, so any figure can be regenerated under a fresh
/// random universe without editing code. Parsing is strict: any other
/// argument, a flag without a value, a repeated flag or a value that does
/// not parse is an error naming the flag, so a stale or misspelt flag
/// cannot silently run a binary on its defaults.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// `--pop`: population size.
    pub pop: Option<usize>,
    /// `--generations`: generations per run.
    pub generations: Option<usize>,
    /// `--runs`: independent runs per configuration.
    pub runs: Option<usize>,
    /// `--threads`: evaluation pool width (1 = serial).
    pub threads: Option<usize>,
    /// `--seed`: base seed override.
    pub seed: Option<u64>,
    /// `--islands`: island count for the archipelago backend.
    pub islands: Option<usize>,
    /// `--migration-interval`: generations between ring migrations.
    pub migration_interval: Option<usize>,
}

impl ExperimentArgs {
    /// Parses the process arguments. Exits with status 2 and a message
    /// naming the flag on a bad argument (see
    /// [`ExperimentArgs::from_args`]).
    pub fn parse() -> Self {
        ExperimentArgs::from_args(std::env::args().collect()).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument vector. `raw[0]` is the program name,
    /// as in [`std::env::args`]; the rest are `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument, for an argument that is
    /// not an accepted flag, a flag given twice, a flag without a value, or
    /// a value that does not parse as a non-negative integer.
    pub fn from_args(raw: Vec<String>) -> Result<Self, String> {
        let mut values: Vec<(&str, Option<&str>)> =
            SHARED_FLAGS.iter().map(|&flag| (flag, None)).collect();
        let mut args = raw.iter().skip(1);
        while let Some(arg) = args.next() {
            let Some((flag, value)) = values.iter_mut().find(|(flag, _)| flag == arg) else {
                return Err(format!(
                    "unknown argument `{arg}` (accepted: {})",
                    SHARED_FLAGS.join(" ")
                ));
            };
            if value.is_some() {
                return Err(format!("`{flag}` given twice"));
            }
            let given = args.next().filter(|v| !v.starts_with("--"));
            *value = Some(given.ok_or_else(|| format!("`{flag}` needs a value"))?);
        }
        Ok(ExperimentArgs {
            pop: flag_value(&values, "--pop")?,
            generations: flag_value(&values, "--generations")?,
            runs: flag_value(&values, "--runs")?,
            threads: flag_value(&values, "--threads")?,
            seed: flag_value(&values, "--seed")?,
            islands: flag_value(&values, "--islands")?,
            migration_interval: flag_value(&values, "--migration-interval")?,
        })
    }

    /// Population size, with the binary's default.
    pub fn pop_or(&self, default: usize) -> usize {
        self.pop.unwrap_or(default)
    }

    /// Generation budget, with the binary's default.
    pub fn generations_or(&self, default: usize) -> usize {
        self.generations.unwrap_or(default)
    }

    /// Run count, with the binary's default.
    pub fn runs_or(&self, default: usize) -> usize {
        self.runs.unwrap_or(default)
    }

    /// Base seed: `--seed` when given, otherwise the binary's historical
    /// default (so default outputs stay reproducible across releases).
    pub fn base_seed(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Worker count, with the binary's default. An explicit `--threads 1`
    /// really means serial — it is never overridden by the default.
    pub fn threads_or(&self, default: usize) -> usize {
        self.threads.unwrap_or(default)
    }

    /// Builds the shared evaluation pool requested by `--threads N`.
    /// `None` (N ≤ 1, the default) means serial evaluation; the pool is
    /// created once per binary and shared across every workload run, and
    /// results are identical either way by the determinism contract.
    pub fn pool(&self) -> Option<Arc<Executor>> {
        let threads = self.threads_or(1);
        if threads > 1 {
            eprintln!("evaluating on a persistent {threads}-worker pool");
            Some(Arc::new(Executor::new(threads)))
        } else {
            None
        }
    }

    /// Island count for the archipelago backend (`--islands`, default 1 =
    /// monolithic), shared by every figure bin so any experiment can be
    /// regenerated under barrier-free island scheduling.
    pub fn islands_or(&self, default: usize) -> usize {
        self.islands.unwrap_or(default)
    }

    /// Generations between ring migrations (`--migration-interval`); only
    /// meaningful with `--islands` > 1.
    pub fn migration_interval_or(&self, default: usize) -> usize {
        self.migration_interval.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_workload_collects_history_and_trace() {
        let run = run_workload(EnvKind::CartPole, 3, 7, Some(16));
        assert_eq!(run.history.len(), 3);
        assert_eq!(run.parents.len(), 16);
        assert_eq!(run.parent_sizes.len(), 16);
        assert_eq!(run.child_sizes.len(), 16);
        assert!(!run.final_trace.children.is_empty());
        assert!(run.env_steps_per_gen > 0.0);
    }

    #[test]
    fn profile_reflects_measured_counts() {
        let run = run_workload(EnvKind::CartPole, 3, 7, Some(16));
        let p = run.profile();
        assert_eq!(p.pop_size, 16);
        assert!(p.env_steps > 0);
        assert!(p.evolution_ops > 0);
        assert!(p.total_genes > 0);
        assert!(p.mean_nodes >= 5.0);
    }

    #[test]
    fn genesys_cost_is_positive_and_fast() {
        let run = run_workload(EnvKind::CartPole, 2, 9, Some(16));
        let cost = genesys_cost(&run, &SocConfig::default());
        assert!(cost.inference_s > 0.0);
        assert!(cost.evolution_s > 0.0);
        assert!(cost.inference_j > 0.0);
        assert!(cost.evolution_j > 0.0);
        // Sub-millisecond evolution at 200 MHz for a small workload.
        assert!(cost.evolution_s < 1e-2, "{}", cost.evolution_s);
    }

    #[test]
    fn workload_fitness_identical_serial_vs_pool() {
        let serial = run_workload(EnvKind::CartPole, 3, 7, Some(16));
        for workers in [2usize, 4] {
            let pool = Arc::new(Executor::new(workers));
            let parallel = run_workload_on(EnvKind::CartPole, 3, 7, Some(16), Some(&pool));
            for (gen, (a, b)) in serial
                .history
                .iter()
                .zip(parallel.history.iter())
                .enumerate()
            {
                assert_eq!(
                    a.max_fitness, b.max_fitness,
                    "gen {gen} diverged at {workers} workers"
                );
                assert_eq!(a.total_genes, b.total_genes);
                assert_eq!(a.ops, b.ops);
            }
            assert_eq!(serial.env_steps_per_gen, parallel.env_steps_per_gen);
        }
    }

    fn to_args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    fn parsed(s: &[&str]) -> ExperimentArgs {
        ExperimentArgs::from_args(to_args(s)).expect("valid arguments")
    }

    #[test]
    fn pool_respects_threads_flag() {
        assert!(parsed(&["bin", "--threads", "1"]).pool().is_none());
        assert!(parsed(&["bin"]).pool().is_none());
        let pool = parsed(&["bin", "--threads", "3"])
            .pool()
            .expect("pool requested");
        assert_eq!(pool.workers(), 3);
    }

    #[test]
    fn experiment_args_parse_all_flags() {
        let args = parsed(&[
            "bin",
            "--pop",
            "32",
            "--generations",
            "5",
            "--runs",
            "2",
            "--threads",
            "4",
            "--seed",
            "1234",
            "--islands",
            "3",
            "--migration-interval",
            "6",
        ]);
        assert_eq!(args.pop_or(64), 32);
        assert_eq!(args.generations_or(8), 5);
        assert_eq!(args.runs_or(3), 2);
        assert_eq!(args.threads_or(1), 4);
        assert_eq!(args.base_seed(0), 1234);
        assert_eq!(args.islands_or(1), 3);
        assert_eq!(args.migration_interval_or(0), 6);

        let empty = parsed(&["bin"]);
        assert_eq!(empty.pop_or(64), 64);
        assert_eq!(empty.base_seed(100), 100, "defaults keep historic seeds");
        assert!(empty.pool().is_none());
        assert_eq!(empty.threads_or(4), 4, "absent flag takes the default");
        let serial = parsed(&["bin", "--threads", "1"]);
        assert_eq!(serial.threads_or(4), 1, "explicit --threads 1 wins");
    }

    #[test]
    fn experiment_args_reject_what_no_binary_reads() {
        let error = |s: &[&str]| ExperimentArgs::from_args(to_args(s)).expect_err("rejected");
        // A removed flag, a misspelt one and a flag no binary reads any
        // more.
        let stale = error(&["bin", "--pop", "64", "--batch", "2"]);
        assert!(stale.contains("`--batch`"), "{stale}");
        let typo = error(&["bin", "--episdoes", "3"]);
        assert!(typo.contains("`--episdoes`"), "{typo}");
        assert!(
            typo.contains("--migration-interval"),
            "the message lists what is accepted"
        );
        assert!(error(&["bin", "--episodes", "3"]).contains("`--episodes`"));
        // Unparsable, missing and repeated values name the flag.
        let bad = error(&["bin", "--pop", "x"]);
        assert!(bad.contains("`--pop`") && bad.contains("`x`"), "{bad}");
        assert!(error(&["bin", "--seed", "-1"]).contains("`--seed`"));
        assert!(error(&["bin", "--threads"]).contains("`--threads` needs a value"));
        assert!(error(&["bin", "--pop", "--runs", "2"]).contains("`--pop` needs a value"));
        assert!(error(&["bin", "--runs", "1", "--runs", "2"]).contains("`--runs` given twice"));
        assert!(error(&["bin", "7"]).contains("`7`"), "a stray value");
    }
}
