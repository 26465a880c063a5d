//! Proof of the zero-allocation steady state: once the rollout buffers
//! have grown (episode/plan setup), the inference hot loop — network
//! activation through the compiled SoA plan plus environment stepping via
//! `step_into` — performs **no heap allocation per step**, for every
//! environment kind in the suite, through the copying and the in-place
//! entry points, and whole warmed episodes of both episode loops
//! (`episode_into`, and the curriculum's `adapted_episode` under drift and
//! padding) allocate nothing, nor does a warmed CartPole evaluation
//! through the population lanes (`LaneNetworks`). This is the software
//! mirror of the paper's premise that EvE/ADAM execute gene-level
//! operations out of fixed buffers with no dynamic memory.

use genesys::gym::{
    adapted_episode, episode_into, AdapterScratch, DriftedEnv, EnvKind, Environment,
    EpisodeEvaluator, IoAdapter, RolloutScratch,
};
use genesys::neat::trace::OpCounters;
use genesys::neat::{
    Activation, Aggregation, ConnGene, EvalContext, Evaluation, Evaluator, Genome, InitialWeights,
    InnovationTracker, Network, NetworkPlan, NodeGene, NodeId, Scratch, SpeciesSet, XorWow,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts every allocation and reallocation
/// (frees are not counted: the contract is "no new heap traffic", and a
/// free implies a preceding allocation anyway).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Builds a policy with hidden structure so the measured loop walks a
/// multi-wavefront plan, not just the initial input→output matrix.
fn evolved_net(kind: EnvKind) -> Network {
    let config = kind.neat_config();
    let mut rng = XorWow::seed_from_u64_value(11);
    let mut innov = InnovationTracker::new(config.first_hidden_id());
    let mut genome = Genome::initial(0, &config, &mut rng);
    let mut ops = OpCounters::new();
    for _ in 0..4 {
        genome.mutate_add_node(&mut innov, &mut rng, &mut ops);
        genome.mutate_add_conn(&mut rng, &mut ops);
        genome.mutate_attributes(&config, &mut rng, &mut ops);
    }
    Network::from_genome(&genome).expect("mutated genome stays acyclic")
}

/// One policy step through either entry point: `activate_into` reads the
/// env's own observation buffer `obs`, while the in-place form reads the
/// input slots the env last wrote and has it write the next observation
/// there.
fn policy_step(
    net: &Network,
    env: &mut dyn Environment,
    scratch: &mut Scratch,
    obs: &mut [f64],
    action: &mut [f64],
    in_place: bool,
) -> (f64, bool) {
    if in_place {
        net.activate_in_place(scratch, action);
        env.step_into(action, scratch.input_slots(net))
    } else {
        net.activate_into(scratch, obs, action);
        env.step_into(action, obs)
    }
}

// NOTE: the allocation counter is process-global, so everything that
// measures it lives in ONE #[test] — libtest runs separate tests on
// parallel threads, and a sibling test's setup allocations landing inside
// a measurement window would make the gate flaky.

/// Runs a measurement window up to three times and returns the last
/// attempt's allocation delta. Even with one test, the libtest harness
/// keeps bookkeeping threads in this process whose rare allocations can
/// land inside a window; such a blip does not repeat across attempts,
/// while a genuine hot-loop allocation is deterministic (every measured
/// trajectory is a pure function of its seed) and fails all three.
fn measured_delta(mut measure: impl FnMut() -> u64) -> u64 {
    let mut delta = 0;
    for _ in 0..3 {
        delta = measure();
        if delta == 0 {
            break;
        }
    }
    delta
}

#[test]
fn steady_state_rollout_does_not_allocate() {
    // ---- per-step granularity, every env kind, both entry points -------
    for kind in EnvKind::ALL {
        for in_place in [false, true] {
            // Episode/plan setup: allocation is allowed here.
            let net = evolved_net(kind);
            let mut obs = vec![0.0f64; kind.make(42).observation_dim()];
            let mut action = vec![0.0f64; net.num_outputs()];
            let mut scratch = Scratch::new();
            let mut steps = 0u64;
            let leaked = measured_delta(|| {
                let mut env = kind.make(42);
                if in_place {
                    env.reset_into(scratch.input_slots(&net));
                } else {
                    env.reset_into(&mut obs);
                }
                // Warm the scratch buffers (they grow on first use); the
                // episode must survive warmup or the measured loop would
                // only cover the inert done-state early return.
                let mut warm_done = false;
                for _ in 0..3 {
                    warm_done = policy_step(
                        &net,
                        env.as_mut(),
                        &mut scratch,
                        &mut obs,
                        &mut action,
                        in_place,
                    )
                    .1;
                }
                assert!(!warm_done, "{}: episode ended during warmup", kind.label());

                // Steady state: zero heap allocations per step.
                let before = allocations();
                steps = 0;
                loop {
                    let (reward, done) = policy_step(
                        &net,
                        env.as_mut(),
                        &mut scratch,
                        &mut obs,
                        &mut action,
                        in_place,
                    );
                    assert!(reward.is_finite());
                    steps += 1;
                    if done || steps >= 500 {
                        break;
                    }
                }
                let after = allocations();
                assert!(steps > 1, "{}: no live steps were measured", kind.label());
                after - before
            });
            assert_eq!(
                leaked,
                0,
                "{} (in place: {in_place}): {leaked} heap allocations leaked into {steps} steady-state steps",
                kind.label(),
            );
        }
    }

    // ---- full-episode granularity through the public entry point -------
    // With a warmed RolloutScratch, repeated episodes on a live env
    // allocate only for episode setup, independent of episode length.
    let kind = EnvKind::CartPole;
    let net = evolved_net(kind);
    let mut scratch = RolloutScratch::new();
    let mut env = kind.make(7);
    let (_, warm_steps) = episode_into(&net, env.as_mut(), &mut scratch);
    assert!(warm_steps > 0);

    let mut steps = 0u64;
    let leaked = measured_delta(|| {
        let before = allocations();
        let (_, episode_steps) = episode_into(&net, env.as_mut(), &mut scratch);
        let after = allocations();
        steps = episode_steps;
        assert!(steps > 1);
        after - before
    });
    assert_eq!(
        leaked, 0,
        "whole warmed episode ({steps} steps) must not allocate"
    );

    // ---- whole curriculum episodes through `adapted_episode` -------------
    // A 128-input RAM game under a sensor-flipping drift regime, and a
    // 6-input task padded into a 128-input plan: with a warmed
    // AdapterScratch and the env built outside the window, a whole
    // episode allocates nothing.
    let wide = evolved_net(EnvKind::Alien);
    assert_eq!(wide.num_inputs(), 128);
    let drifted: Box<dyn Environment> =
        Box::new(DriftedEnv::new(EnvKind::Alien.make(7), 0x5EED, 3));
    let padded = EnvKind::Acrobot.make(7);
    for (label, mut env, obs_dim) in [
        ("drifted Alien", drifted, 128),
        ("padded Acrobot", padded, 6),
    ] {
        let adapter = IoAdapter::new(obs_dim, 1, 128, 1);
        let mut scratch = AdapterScratch::new();
        let (_, warm_steps) = adapted_episode(&wide, env.as_mut(), &adapter, &mut scratch);
        assert!(warm_steps > 0);
        let mut steps = 0u64;
        let leaked = measured_delta(|| {
            let before = allocations();
            let (_, episode_steps) = adapted_episode(&wide, env.as_mut(), &adapter, &mut scratch);
            let after = allocations();
            steps = episode_steps;
            assert!(steps > 1, "{label}: the episode runs");
            after - before
        });
        assert_eq!(
            leaked, 0,
            "{label}: whole warmed adapted episode ({steps} steps) must not allocate"
        );
    }

    // ---- population lanes -------------------------------------------------
    // A warmed CartPole lane evaluation (16 lanes, each a different
    // genome, refilled from the run as episodes end) allocates nothing:
    // the compile plans, the lane programs (every record reserved to the
    // largest network any lane has held, so a genome landing in another
    // lane's record after compaction swaps still fits) and the SoA lane
    // state live in the evaluator's per-worker slot and are reused across
    // calls, and the envs of refilled lanes are built on the stack.
    let config = EnvKind::CartPole.neat_config();
    let mut rng = XorWow::seed_from_u64_value(29);
    let mut innov = InnovationTracker::new(config.first_hidden_id());
    let mut ops = OpCounters::new();
    let genomes: Vec<Genome> = (0..64u64)
        .map(|k| {
            let mut genome = Genome::initial(k, &config, &mut rng);
            for _ in 0..k % 4 {
                genome.mutate_add_node(&mut innov, &mut rng, &mut ops);
                genome.mutate_add_conn(&mut rng, &mut ops);
            }
            genome.mutate_attributes(&config, &mut rng, &mut ops);
            genome
        })
        .collect();
    let shapes: std::collections::BTreeSet<usize> = genomes.iter().map(Genome::num_genes).collect();
    assert!(shapes.len() > 3, "genomes of mixed topology");
    let lanes = EpisodeEvaluator::new(EnvKind::CartPole);
    let first = EvalContext {
        base_seed: 5,
        generation: 2,
        index: 0,
    };
    let mut plan = NetworkPlan::new();
    let mut out = vec![
        Evaluation {
            fitness: 0.0,
            env_steps: 0,
        };
        genomes.len()
    ];
    lanes.evaluate_genomes(&genomes, first, &mut plan, &mut out); // warm
    let leaked = measured_delta(|| {
        let before = allocations();
        lanes.evaluate_genomes(&genomes, first, &mut plan, &mut out);
        let after = allocations();
        after - before
    });
    let steps: u64 = out.iter().map(|e| e.env_steps).sum();
    assert!(steps > genomes.len() as u64);
    assert_eq!(
        leaked,
        0,
        "warmed lane evaluation of {} genomes ({steps} steps) must not allocate",
        genomes.len()
    );

    // ---- median-heavy plan at high fan-in -------------------------------
    // A Median node with more incoming edges than the stdlib sort's
    // on-stack threshold used to allocate inside `sort_by` every step; the
    // in-place Scratch-backed sort must not. 48-wide fan-in is well past
    // the threshold (~20).
    const FAN_IN: usize = 48;
    let mut nodes: Vec<NodeGene> = (0..FAN_IN)
        .map(|i| NodeGene::input(NodeId(i as u32)))
        .collect();
    let mut out_node = NodeGene::output(NodeId(FAN_IN as u32));
    out_node.activation = Activation::Identity;
    out_node.aggregation = Aggregation::Median;
    nodes.push(out_node);
    let conns: Vec<ConnGene> = (0..FAN_IN)
        .map(|i| {
            ConnGene::new(
                NodeId(i as u32),
                NodeId(FAN_IN as u32),
                if i % 2 == 0 { 1.0 } else { -1.5 },
            )
        })
        .collect();
    let median_genome =
        Genome::from_parts(0, FAN_IN, 1, nodes, conns).expect("median genome is valid");
    let median_net = Network::from_genome(&median_genome).expect("compiles");
    let mut scratch = Scratch::new();
    let mut action = [0.0f64];
    let mut obs = vec![0.0f64; FAN_IN];
    // Warm the value/sort buffers, then demand zero steady-state traffic.
    median_net.activate_into(&mut scratch, &obs, &mut action);
    let leaked = measured_delta(|| {
        let before = allocations();
        for step in 0..200 {
            for (i, o) in obs.iter_mut().enumerate() {
                *o = ((step * 31 + i * 7) % 17) as f64 - 8.0;
            }
            median_net.activate_into(&mut scratch, &obs, &mut action);
            assert!(action[0].is_finite());
        }
        let after = allocations();
        after - before
    });
    assert_eq!(
        leaked, 0,
        "median fold at fan-in {FAN_IN} must not allocate in steady state"
    );

    // ---- elite recompilation through a warmed NetworkPlan ---------------
    // The evaluation fan-out recompiles every genome every generation.
    // Before plan reuse, each recompile was a fresh `Network::from_genome`
    // (HashMaps + a dozen Vecs per genome — including for unchanged
    // elites). Through a warm per-worker plan, recompiling the same
    // genome performs ZERO heap allocations, and the compiled plan is
    // bit-identical to the one-shot compiler's.
    let config = EnvKind::CartPole.neat_config();
    let mut rng = XorWow::seed_from_u64_value(23);
    let mut innov = InnovationTracker::new(config.first_hidden_id());
    let mut elite = Genome::initial(0, &config, &mut rng);
    let mut ops = OpCounters::new();
    for _ in 0..4 {
        elite.mutate_add_node(&mut innov, &mut rng, &mut ops);
        elite.mutate_add_conn(&mut rng, &mut ops);
        elite.mutate_attributes(&config, &mut rng, &mut ops);
    }
    let mut plan = NetworkPlan::new();
    Network::compile_into(&mut plan, &elite).expect("elite compiles"); // warm
    let reference = plan.network().clone();
    let leaked = measured_delta(|| {
        let before = allocations();
        for _ in 0..100 {
            Network::compile_into(&mut plan, &elite).expect("elite compiles");
        }
        let after = allocations();
        after - before
    });
    assert_eq!(
        leaked, 0,
        "recompiling an unchanged elite through a warm plan must not allocate"
    );
    assert_eq!(
        plan.network(),
        &reference,
        "plan reuse never changes the compiled network"
    );
    assert_eq!(
        plan.network(),
        &Network::from_genome(&elite).expect("compiles")
    );

    // ---- warmed speciation scan -------------------------------------------
    // A 256-genome population takes the blocked scan (its cutoff is 128
    // genomes). Once two calls have grown the representative arena, the
    // `RepColumns` blocks and their sort buffers, the scan rows and the
    // member lists, a third call over the same 128-input population
    // founds no species and allocates nothing.
    let mut config = EnvKind::Alien.neat_config();
    config.pop_size = 256;
    config.initial_weights = InitialWeights::Uniform { lo: -1.0, hi: 1.0 };
    // Tight enough that the fresh population splits into a few dozen
    // species, below the representative cap.
    config.compatibility_threshold = 2.5;
    assert_eq!(config.num_inputs, 128);
    assert!(!config.speciate_exact);
    let mut rng = XorWow::seed_from_u64_value(31);
    let mut innov = InnovationTracker::new(config.first_hidden_id());
    let mut ops = OpCounters::new();
    let population: Vec<Genome> = (0..256u64)
        .map(|k| {
            let mut genome = Genome::initial(k, &config, &mut rng);
            for _ in 0..k % 5 {
                innov.begin_generation();
                genome.mutate(&config, &mut innov, &mut rng, &mut ops);
            }
            genome
        })
        .collect();
    let mut species = SpeciesSet::new();
    species.speciate(&population, &config, 0);
    species.speciate(&population, &config, 1);
    let founded = species.len();
    assert!(
        (17..config.species_representative_cap).contains(&founded),
        "{founded} species: the scan needs several blocks, under the cap"
    );
    let leaked = measured_delta(|| {
        let before = allocations();
        species.speciate(&population, &config, 2);
        let after = allocations();
        after - before
    });
    assert_eq!(species.len(), founded, "a warmed call founds no species");
    assert_eq!(
        leaked, 0,
        "a warmed blocked speciation scan over {founded} species must not allocate"
    );
}
