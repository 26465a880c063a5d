//! Integration tests for the persistent evaluation engine:
//! parallel-vs-serial fitness agreement, panic propagation, and pool reuse
//! across generations (the "no per-generation thread spawn" guarantee).
//! Pools reach a population only through `SessionBuilder::{executor,
//! threads}`.

use genesys::neat::{
    EvalContext, Executor, NeatConfig, Network, Population, Session, SessionBuilder,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn fitness(_ctx: EvalContext, net: &Network) -> f64 {
    let cases = [[0.0, 0.0], [0.25, 1.0], [0.5, 0.5], [1.0, 0.0]];
    let mut fit = 4.0;
    for c in &cases {
        let out = net.activate(c)[0];
        fit -= (out - c[0]) * (out - c[0]);
    }
    fit
}

/// A session builder on a fresh 2-input population of `pop` seeded `seed`.
fn on(pop: usize, seed: u64) -> SessionBuilder<Population> {
    let config = NeatConfig::builder(2, 1).pop_size(pop).build().unwrap();
    Session::on(Population::new(config, seed), seed)
}

#[test]
fn parallel_and_serial_evaluation_agree() {
    // The acceptance-criterion test: pooled evaluation at 1, 4 and 8
    // workers is bit-identical to serial across whole generations.
    let mut serial = on(53, 17).workload(fitness).build();
    let serial_stats = serial.run(4).history;
    for workers in [1usize, 4, 8] {
        let mut par = on(53, 17)
            .workload(fitness)
            .executor(Arc::new(Executor::new(workers)))
            .build();
        for (generation, expect) in serial_stats.iter().enumerate() {
            let got = par.step();
            assert_eq!(
                expect.max_fitness, got.max_fitness,
                "gen {generation}, workers {workers}"
            );
            assert_eq!(expect.mean_fitness, got.mean_fitness);
            assert_eq!(expect.total_genes, got.total_genes);
            assert_eq!(expect.ops, got.ops);
        }
    }
}

#[test]
fn pool_is_reused_across_generations() {
    // Per-instance spawn counter + Arc identity: the pool the session
    // spawns for `threads(4)` is never replaced and never grows, no matter
    // how many generations run. (Per-instance, so concurrent sibling tests
    // spawning their own pools cannot perturb the assertion.)
    let mut session = on(40, 9).workload(fitness).threads(4).build();
    let pool = Arc::clone(session.backend().executor().expect("parallelism enabled"));
    assert_eq!(pool.threads_spawned(), 4);
    session.run(5);
    assert!(
        Arc::ptr_eq(&pool, session.backend().executor().unwrap()),
        "a step must not swap the pool"
    );
    assert_eq!(
        pool.threads_spawned(),
        4,
        "a step must never spawn threads: the pool is persistent"
    );
    // An odd population size (not divisible by the worker count) must
    // still evaluate every genome — the old div_ceil chunking left
    // workers idle here; the deque cannot.
    let mut odd = on(9, 3).workload(fitness).threads(8).build();
    let odd_pool = Arc::clone(odd.backend().executor().unwrap());
    for _ in 0..3 {
        let stats = odd.step();
        assert!(stats.max_fitness.is_finite());
        assert_eq!(odd.genomes().count(), 9);
    }
    assert_eq!(odd_pool.threads_spawned(), 8);
    let serial = on(9, 3).workload(fitness).threads(1).build();
    assert!(
        serial.backend().executor().is_none(),
        "threads(1) keeps evaluation serial"
    );
}

#[test]
fn one_pool_shared_by_several_populations() {
    let pool = Arc::new(Executor::new(4));
    let mut results = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut session = on(24, seed)
            .workload(fitness)
            .executor(Arc::clone(&pool))
            .build();
        results.push(session.step().max_fitness);
    }
    assert_eq!(results.len(), 3);
    assert_eq!(
        pool.threads_spawned(),
        4,
        "sharing one pool across populations spawns nothing new"
    );
}

#[test]
fn worker_panic_propagates_to_caller_and_pool_survives() {
    let crash = AtomicBool::new(true);
    let workload = |ctx: EvalContext, net: &Network| {
        if crash.load(Ordering::Relaxed) && net.num_macs() > 0 {
            panic!("episode crashed");
        }
        fitness(ctx, net)
    };
    let mut session = on(32, 5).workload(workload).threads(4).build();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.step()));
    assert!(result.is_err(), "a worker panic must reach the caller");
    assert_eq!(session.generation(), 0, "the crashed generation never ran");
    // The pool survives the panic: the same population evaluates cleanly.
    crash.store(false, Ordering::Relaxed);
    let stats = session.step();
    assert!(stats.inference_macs > 0);
    assert!(stats.max_fitness.is_finite());
    assert_eq!(session.backend().executor().unwrap().threads_spawned(), 4);
}

#[test]
fn executor_map_preserves_index_order() {
    let pool = Executor::new(8);
    for round in 0..3 {
        let out = pool.map(101, |i| (i as u64) * 3 + round);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 3 + round);
        }
    }
}
