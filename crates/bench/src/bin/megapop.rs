//! Megapopulation smoke/scale run: CartPole evolution at `--pop`
//! thousands-to-tens-of-thousands, exercising every megapopulation hot
//! path end to end — geometric-skip mutation, capped speciation through
//! the blocked columnar scan, and the CartPole population lanes (with
//! `--episodes N`, multi-episode lanes) — and **asserting the determinism
//! contract**: the parallel run's history and final genomes must be
//! bit-identical to the serial one, and a rerun on the scalar speciation
//! scan (`speciate_exact`) must be bit-identical to the blocked one.
//!
//! ```text
//! megapop [--pop N] [--generations N] [--threads N] [--seed N]
//!         [--episodes N]
//! ```
//!
//! Defaults: `--pop 4096 --generations 2 --threads 4 --episodes 1`.
//! `--threads 1` skips the parallel leg. CI runs this as the megapop smoke
//! job.

use genesys_bench::ExperimentArgs;
use genesys_gym::{EnvKind, EpisodeEvaluator};
use genesys_neat::{Executor, GenerationStats, Genome, Session};
use std::sync::Arc;
use std::time::Instant;

fn run(
    pop: usize,
    generations: usize,
    seed: u64,
    episodes: usize,
    exact: bool,
    pool: Option<Arc<Executor>>,
) -> (Vec<GenerationStats>, Vec<Genome>, f64) {
    let kind = EnvKind::CartPole;
    let mut config = kind.neat_config();
    config.pop_size = pop;
    config.speciate_exact = exact;
    let builder = Session::builder(config, seed).expect("cartpole preset is valid");
    let builder = match pool {
        Some(pool) => builder.executor(pool),
        None => builder,
    };
    let mut session = builder
        .workload(EpisodeEvaluator::new(kind).episodes(episodes))
        .build();
    let t0 = Instant::now();
    let report = session.run(generations);
    let elapsed = t0.elapsed().as_secs_f64();
    (report.history, session.genomes().to_vec(), elapsed)
}

fn main() {
    let args = ExperimentArgs::parse_with(&["--episodes"]);
    let pop = args.pop_or(4096);
    let generations = args.generations_or(2);
    let threads = args.threads_or(4);
    let seed = args.base_seed(42);
    let episodes = args.get_usize("--episodes", 1);

    println!(
        "megapop: CartPole, pop {pop}, {generations} generations, seed {seed}, \
         {episodes} episode(s)/eval"
    );

    let (serial_hist, serial_genomes, serial_s) =
        run(pop, generations, seed, episodes, false, None);
    let best = serial_hist
        .iter()
        .map(|s| s.max_fitness)
        .fold(f64::NEG_INFINITY, f64::max);
    let genes: usize = serial_genomes.iter().map(Genome::num_genes).sum();
    println!(
        "serial: {serial_s:.2}s total, {:.1}ms/generation, best fitness {best}, {genes} genes in the final population",
        serial_s * 1e3 / generations.max(1) as f64
    );

    if threads > 1 {
        let pool = Arc::new(Executor::new(threads));
        let (par_hist, par_genomes, par_s) =
            run(pop, generations, seed, episodes, false, Some(pool));
        println!(
            "threads {threads}: {par_s:.2}s total, {:.1}ms/generation ({:.2}x vs serial)",
            par_s * 1e3 / generations.max(1) as f64,
            serial_s / par_s.max(1e-9)
        );
        // The determinism contract: worker count must not leak into the
        // trajectory. Bit-exact across every generation and genome.
        for (gen, (a, b)) in serial_hist.iter().zip(par_hist.iter()).enumerate() {
            assert_eq!(
                a, b,
                "generation {gen} diverged between serial and {threads}-worker runs"
            );
        }
        assert_eq!(
            serial_genomes, par_genomes,
            "final populations diverged between serial and {threads}-worker runs"
        );
        println!("determinism: serial and {threads}-worker runs are bit-identical");
    }

    // Exact-speciation A/B: rerun with the scalar scan forced
    // (`speciate_exact`, one merge-join per candidate). The blocked
    // `RepColumns` scan is a pure acceleration, so the trajectory must be
    // bit-identical — any divergence means a blocked lane's distance
    // differed from the scalar kernel's.
    let (exact_hist, exact_genomes, exact_s) = run(pop, generations, seed, episodes, true, None);
    for (gen, (a, b)) in serial_hist.iter().zip(exact_hist.iter()).enumerate() {
        assert_eq!(
            a, b,
            "generation {gen} diverged between blocked and exact speciation"
        );
    }
    assert_eq!(
        serial_genomes, exact_genomes,
        "final populations diverged between blocked and exact speciation"
    );
    println!(
        "exact A/B: blocked and exact speciation runs are bit-identical ({exact_s:.2}s exact)"
    );
}
