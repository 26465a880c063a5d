//! The session workloads, driven through `Session::step` a fixed number
//! of times (CartPole's preset `target_fitness` would end `Session::run`
//! early):
//!
//! * `cartpole-10k`: CartPole, pop 10 000, monolithic, one episode per
//!   evaluation. Evaluation does most of the work.
//! * `atari-curriculum`: Alien → Amidar (sudden drift mid-task) →
//!   Asterix in three equal phases over the timed window; pop 1 000 on 4
//!   islands migrating every 4 generations, with `MetricsRecorder`
//!   probes attached. 128-input genomes make speciation heavy.
//!
//! Both run serial: with n executor workers plus the calling thread, a
//! two-vCPU host is oversubscribed and run-queue wait swamps the signal.

use crate::alloc;
use crate::measure::{median, percentile, process_cpu_ns, Digest};
use crate::trace::Tracer;
use crate::Outcome;
use genesys_core::{snapshot_from_bytes, snapshot_to_bytes};
use genesys_gym::{EnvKind, EpisodeEvaluator};
use genesys_neat::{
    EvalContext, Evaluation, Evaluator, EvolutionBackend, GenerationEvent, GenerationStats,
    InitialWeights, NeatConfig, Network, PopulationDiagnostics, Session,
};
use genesys_scenario::{
    DriftSchedule, MetricsRecorder, RecoveryThreshold, Task, TaskPlan, TaskSequence,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Snapshot round trips in a traced run; each timing is a median.
const ROUND_TRIPS: usize = 5;
/// Timed generations at least: ten must lie beyond the p90.
const MIN_TIMED: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CartPole,
    Atari,
}

/// What one run of a session workload does.
struct Shape {
    name: &'static str,
    config: NeatConfig,
    plan: Option<TaskPlan>,
    /// Generations stepped during set-up, so lazy buffers exist and the
    /// population is past its first, atypically cheap generations before
    /// timing begins.
    warmup: usize,
    timed: usize,
}

impl Shape {
    /// Sizes the timed window so that its two passes take about `seconds`
    /// on a 2-vCPU Xeon host (both workloads run near 7 generations a
    /// second there). The count is a pure function of the arguments, so
    /// every run of a seed does the same work.
    fn new(kind: Kind, seconds: u64) -> Shape {
        let nominal = (seconds as usize * 7 / 2).max(MIN_TIMED);
        match kind {
            Kind::CartPole => {
                let mut config = EnvKind::CartPole.neat_config();
                config.pop_size = 10_000;
                Shape {
                    name: "cartpole-10k",
                    config,
                    plan: None,
                    warmup: 3,
                    timed: nominal,
                }
            }
            Kind::Atari => {
                let warmup = 4;
                let phase = nominal.div_ceil(3) as u64;
                let plan = TaskPlan::new(
                    0x5eed,
                    vec![
                        Task::new(EnvKind::Alien, warmup as u64 + phase),
                        Task::new(EnvKind::Amidar, phase)
                            .with_drift(DriftSchedule::Sudden { at: phase / 2 }),
                        Task::new(EnvKind::Asterix, phase),
                    ],
                );
                let mut config = plan.neat_config();
                config.pop_size = 1_000;
                config.islands = 4;
                config.migration_interval = 4;
                config.initial_weights = InitialWeights::Uniform { lo: -1.0, hi: 1.0 };
                config.target_fitness = None;
                Shape {
                    name: "atari-curriculum",
                    config,
                    plan: Some(plan),
                    warmup,
                    timed: 3 * phase as usize,
                }
            }
        }
    }

    fn recorder(&self, seed: u64) -> Option<MetricsRecorder> {
        self.plan.as_ref().map(|plan| {
            MetricsRecorder::new(plan.clone(), RecoveryThreshold::WithinFraction(0.5))
                .probe(2, seed)
        })
    }
}

/// Traced runs wrap the evaluator: every `Evaluator::evaluate` call is
/// timed and counted, and folded into one span per generation.
#[derive(Debug)]
struct Timed<E> {
    inner: E,
    ns: AtomicU64,
    calls: AtomicU64,
}

impl<E: Evaluator> Evaluator for Timed<E> {
    fn evaluate(&self, ctx: EvalContext, net: &Network) -> Evaluation {
        let t = Instant::now();
        let evaluation = self.inner.evaluate(ctx, net);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        evaluation
    }

    fn state(&self) -> u64 {
        self.inner.state()
    }

    fn restore_state(&mut self, state: u64) {
        self.inner.restore_state(state);
    }
}

type Observer = Box<dyn FnMut(&GenerationEvent<'_>) + Send>;

fn build<E: Evaluator>(
    shape: &Shape,
    seed: u64,
    eval: E,
    observer: Option<Observer>,
) -> Session<E> {
    let builder = Session::builder(shape.config.clone(), seed)
        .expect("workload config is valid")
        .workload(eval);
    match observer {
        Some(observer) => builder.observe(observer).build(),
        None => builder.build(),
    }
}

/// Folds the equality fields of one generation's stats into `d`: the
/// fields two bit-identical runs share, wall clocks excluded.
fn digest_stats(d: &mut Digest, s: &GenerationStats) {
    for word in [
        s.generation as u64,
        s.max_fitness.to_bits(),
        s.mean_fitness.to_bits(),
        s.min_fitness.to_bits(),
        s.num_species as u64,
        s.total_nodes as u64,
        s.total_conns as u64,
        s.total_genes as u64,
        s.max_genome_genes as u64,
        s.memory_bytes as u64,
        s.ops.crossover,
        s.ops.perturb,
        s.ops.add_node,
        s.ops.add_conn,
        s.ops.delete_node,
        s.ops.delete_conn,
        s.fittest_parent_reuse as u64,
        s.inference_macs,
        s.env_steps,
        s.diagnostics.high_order_entropy.to_bits(),
        s.diagnostics.unique_genomes as u64,
        s.diagnostics.species_entropy.to_bits(),
        s.diagnostics.largest_species as u64,
    ] {
        d.word(word);
    }
}

/// Speciation scan counters of the last generation, summed over islands.
fn scan_counts<E: Evaluator>(session: &Session<E>) -> [u64; 3] {
    let islands = match session.backend() {
        EvolutionBackend::Monolithic(p) => std::slice::from_ref(p),
        EvolutionBackend::Archipelago(a) => a.islands(),
    };
    islands.iter().fold([0; 3], |acc, p| {
        let s = p.species().scan_stats();
        [acc[0] + s.exact, acc[1] + s.pruned, acc[2] + s.hint_hits]
    })
}

/// One timed window: each step's CPU time, wall time and stats.
struct Window {
    step_ns: Vec<u64>,
    wall_ns: Vec<u64>,
    stats: Vec<GenerationStats>,
}

impl Window {
    fn with_capacity(n: usize) -> Window {
        Window {
            step_ns: Vec::with_capacity(n),
            wall_ns: Vec::with_capacity(n),
            stats: Vec::with_capacity(n),
        }
    }

    /// Runs one timed step.
    fn step<E: Evaluator>(&mut self, session: &mut Session<E>) -> &GenerationStats {
        let wall = Instant::now();
        let cpu = process_cpu_ns();
        let stats = session.step();
        self.step_ns.push(process_cpu_ns() - cpu);
        self.wall_ns.push(wall.elapsed().as_nanos() as u64);
        self.stats.push(stats);
        self.stats.last().expect("just pushed")
    }

    fn total_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }
}

/// Set-up: from config to a built session that has stepped its warm-up
/// generations. Returns the session, its recorder and the warm-up stats.
fn set_up<E: Evaluator>(
    shape: &Shape,
    seed: u64,
    eval: E,
    wrap: impl FnOnce(Observer) -> Observer,
) -> (Session<E>, Option<MetricsRecorder>, Vec<GenerationStats>) {
    let recorder = shape.recorder(seed);
    let observer = recorder
        .as_ref()
        .map(|r| wrap(Box::new(r.observer()) as Observer));
    let mut session = build(shape, seed, eval, observer);
    let warm = (0..shape.warmup).map(|_| session.step()).collect();
    (session, recorder, warm)
}

/// Checks every timed step advanced the generation counter by one and
/// reported a finite fitness. Returns the number of failed checks.
fn check_steps(shape: &Shape, window: &Window) -> u64 {
    window
        .stats
        .iter()
        .enumerate()
        .filter(|(i, s)| s.generation != shape.warmup + i || !s.max_fitness.is_finite())
        .count() as u64
}

/// Resume parity: the session's state goes through `export_state`, the
/// snapshot codec and `Session::resume`; one more step of the resumed
/// session must equal the uninterrupted session's next step, stats and
/// state image alike. Returns the digest of the trajectory so far (with
/// the exported image) and whether the check passed.
fn check_resume<W: Evaluator, E: Evaluator>(
    session: &mut Session<W>,
    workload: impl Fn() -> E,
    mut digest: Digest,
) -> (u64, bool) {
    let image = snapshot_to_bytes(&session.export_state()).expect("state encodes");
    digest.bytes(&image);
    let Ok(state) = snapshot_from_bytes(&image) else {
        return (digest.finish(), false);
    };
    let Ok(builder) = Session::resume(state) else {
        return (digest.finish(), false);
    };
    let mut resumed = builder.workload(workload()).build();
    let expected = session.step();
    let got = resumed.step();
    let a = snapshot_to_bytes(&session.export_state()).ok();
    let b = snapshot_to_bytes(&resumed.export_state()).ok();
    (digest.finish(), expected == got && a.is_some() && a == b)
}

/// Export, encode, decode and resume of `session`'s state, a few times
/// over; returns the median of each step and the image size.
pub fn round_trips<W: Evaluator, E: Evaluator>(
    session: &Session<W>,
    workload: impl Fn() -> E,
    tracer: &mut Tracer,
) -> [(&'static str, f64); 5] {
    let origin = Instant::now();
    let at = || origin.elapsed().as_nanos() as u64;
    let mut image_bytes = 0;
    for rep in 0..ROUND_TRIPS as u64 {
        let t0 = at();
        let state = session.export_state();
        let t1 = at();
        let image = snapshot_to_bytes(&state).expect("state encodes");
        let t2 = at();
        let decoded = snapshot_from_bytes(&image).expect("image decodes");
        let t3 = at();
        let resumed = Session::resume(decoded)
            .expect("state resumes")
            .workload(workload())
            .build();
        let t4 = at();
        std::hint::black_box(&resumed);
        image_bytes = image.len();
        tracer.record("snapshot.export", rep, None, t0, t1 - t0, 1);
        tracer.record("snapshot.encode", rep, None, t1, t2 - t1, 1);
        tracer.record("snapshot.decode", rep, None, t2, t3 - t2, 1);
        tracer.record("session.resume", rep, None, t3, t4 - t3, 1);
    }
    let med = |name| median(&tracer.durations_ms(name));
    [
        ("snapshot.export_ms", med("snapshot.export")),
        ("snapshot.encode_ms", med("snapshot.encode")),
        ("snapshot.decode_ms", med("snapshot.decode")),
        ("session.resume_ms", med("session.resume")),
        ("snapshot.mb", image_bytes as f64 / 1e6),
    ]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let shape = Shape::new(kind, seconds);
    match shape.plan.clone() {
        Some(plan) => run_with(&shape, seed, trace, || TaskSequence::new(plan.clone())),
        None => run_with(&shape, seed, trace, || {
            EpisodeEvaluator::new(EnvKind::CartPole)
        }),
    }
}

/// Runs `shape` with evaluators made by `workload`.
fn run_with<E: Evaluator>(
    shape: &Shape,
    seed: u64,
    trace: bool,
    workload: impl Fn() -> E,
) -> Outcome {
    if trace {
        run_traced(shape, seed, workload)
    } else {
        run_untraced(shape, seed, workload)
    }
}

fn run_untraced<E: Evaluator>(shape: &Shape, seed: u64, workload: impl Fn() -> E) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut current = None;
    for _ in 0..SETUP_REPS {
        drop(current.take());
        let t0 = process_cpu_ns();
        let built = set_up(shape, seed, workload(), |o| o);
        setups.push((process_cpu_ns() - t0) as f64 / 1e9);
        current = Some(built);
    }
    let (mut session, recorder, warm) = current.expect("at least one set-up");

    let mut first = Window::with_capacity(shape.timed);
    alloc::reset_peak();
    for _ in 0..shape.timed {
        first.step(&mut session);
    }
    let peak = alloc::peak_bytes();
    let mut digest = Digest::new();
    warm.iter()
        .chain(&first.stats)
        .for_each(|s| digest_stats(&mut digest, s));
    let failed_steps = check_steps(shape, &first);
    let (digest, resumed) = check_resume(&mut session, &workload, digest);
    drop(session);

    // A second pass over the same trajectory, one window later. The host
    // slows in spells of seconds (memory contention from other tenants);
    // taking each generation's faster pass keeps a spell that hits one
    // pass out of the figures.
    let (mut again, _, _) = set_up(shape, seed, workload(), |o| o);
    let mut second = Window::with_capacity(shape.timed);
    for _ in 0..shape.timed {
        second.step(&mut again);
    }
    let repeated = second.stats == first.stats;
    let attempted = shape.timed as u64 + 2;
    let failed = failed_steps + u64::from(!resumed) + u64::from(!repeated);

    let step_ms: Vec<f64> = first
        .step_ns
        .iter()
        .zip(&second.step_ns)
        .map(|(&a, &b)| ms(a.min(b)))
        .collect();
    let rate = |ns: u64| shape.timed as f64 / (ns as f64 / 1e9);
    let gen_per_s = shape.timed as f64 / (step_ms.iter().sum::<f64>() / 1e3);
    let p50 = percentile(&step_ms, 500).expect("enough timed generations");
    let p90 = percentile(&step_ms, 900).expect("enough timed generations");
    let setup_s = median(&setups);
    let heap_mb = peak as f64 / 1e6;
    let wall_ns: u64 = first.wall_ns.iter().sum();
    println!(
        "gen_per_s={gen_per_s:.4} 1/s  gen_p50_ms={p50:.3} ms  gen_p90_ms={p90:.3} ms  \
         (process CPU clock, faster of two passes per generation; n={} generations after {} \
         warm-up)",
        shape.timed, shape.warmup
    );
    println!(
        "passes: {:.4} and {:.4} generations per CPU second; first pass {:.4} per wall \
         second, {:.1} % of its wall time stolen or waiting",
        rate(first.total_ns()),
        rate(second.total_ns()),
        rate(wall_ns),
        100.0 * (1.0 - first.total_ns() as f64 / wall_ns as f64)
    );
    println!(
        "setup_s={setup_s:.4} s (median of {SETUP_REPS})  peak_heap_mb={heap_mb:.3} MB  \
         failed_frac={}",
        failed as f64 / attempted as f64
    );
    if let (Some(r), Some(plan)) = (recorder, &shape.plan) {
        let mut per_task = vec![(0.0, 0usize); plan.tasks().len()];
        for (s, &ms) in first.stats.iter().zip(&step_ms) {
            let (task, _) = plan.task_at(s.generation as u64);
            per_task[task].0 += ms;
            per_task[task].1 += 1;
        }
        let phases: Vec<String> = plan
            .tasks()
            .iter()
            .zip(&per_task)
            .map(|(t, (sum, n))| format!("{} {:.1} ms", t.kind.label(), sum / *n as f64))
            .collect();
        println!(
            "scenario: mean step per task {}; {} drift events",
            phases.join(", "),
            r.snapshot().drift_events.len()
        );
    }
    println!("digest={digest:016x}");
    Outcome {
        attempted,
        failed,
        metrics: BTreeMap::from([
            ("ops_per_s", gen_per_s),
            ("op_p50_ms", p50),
            ("op_p90_ms", p90),
            ("setup_s", setup_s),
            ("peak_heap_mb", heap_mb),
        ]),
    }
}

fn run_traced<E: Evaluator>(shape: &Shape, seed: u64, workload: impl Fn() -> E) -> Outcome {
    // An untraced session of the same seed steps in alternation with the
    // traced one, so both meet the same host conditions: the ratio of
    // their CPU times is `trace.overhead`, and their trajectories must
    // match (tracing is transparent).
    let (mut plain, _, warm) = set_up(shape, seed, workload(), |o| o);
    let mut reference = Digest::new();
    warm.iter().for_each(|s| digest_stats(&mut reference, s));
    let mut plain_ns = 0u64;

    let observer_ns = Arc::new(AtomicU64::new(0));
    let timed_eval = Timed {
        inner: workload(),
        ns: AtomicU64::new(0),
        calls: AtomicU64::new(0),
    };
    let obs_clock = Arc::clone(&observer_ns);
    let (mut session, recorder, warm) = set_up(shape, seed, timed_eval, move |mut inner| {
        Box::new(move |event: &GenerationEvent<'_>| {
            let t = Instant::now();
            inner(event);
            obs_clock.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        })
    });
    let mut digest = Digest::new();
    warm.iter().for_each(|s| digest_stats(&mut digest, s));

    let mut tracer = Tracer::default();
    let mut window = Window::with_capacity(shape.timed);
    let mut scans = [0u64; 3];
    let origin = Instant::now();
    for i in 0..shape.timed {
        let cpu = process_cpu_ns();
        let stats = plain.step();
        plain_ns += process_cpu_ns() - cpu;
        digest_stats(&mut reference, &stats);

        let g = (shape.warmup + i) as u64;
        let eval_before = (
            session.workload().ns.load(Ordering::Relaxed),
            session.workload().calls.load(Ordering::Relaxed),
        );
        let obs_before = observer_ns.load(Ordering::Relaxed);
        let start = origin.elapsed().as_nanos() as u64;
        let stats = window.step(&mut session).clone();
        let wall = *window.wall_ns.last().expect("just stepped");
        let gym_ns = session.workload().ns.load(Ordering::Relaxed) - eval_before.0;
        let gym_calls = session.workload().calls.load(Ordering::Relaxed) - eval_before.1;
        let obs_ns = observer_ns.load(Ordering::Relaxed) - obs_before;
        let counts = scan_counts(&session);
        for (total, c) in scans.iter_mut().zip(counts) {
            *total += c;
        }

        // The phase clocks are wall clocks, so the step span is too.
        let step = tracer.record("step", g, None, start, wall, 1);
        let eval = tracer.record("eval", g, Some(step), start, stats.eval_ns, 1);
        tracer.record("gym.evaluate", g, Some(eval), start, gym_ns, gym_calls);
        let mut at = start + stats.eval_ns;
        tracer.record("speciate", g, Some(step), at, stats.speciate_ns, 1);
        at += stats.speciate_ns;
        tracer.record("reproduce", g, Some(step), at, stats.reproduce_ns, 1);
        at += stats.reproduce_ns;
        let phases = stats.eval_ns + stats.speciate_ns + stats.reproduce_ns;
        let rest = tracer.record("rest", g, Some(step), at, wall.saturating_sub(phases), 1);
        if recorder.is_some() {
            tracer.record("scenario.observer", g, Some(rest), at, obs_ns, 1);
        }
        // A separate probe of the diagnostics pass every step already
        // makes inside its stats; kept out of the step span.
        let d0 = origin.elapsed().as_nanos() as u64;
        std::hint::black_box(PopulationDiagnostics::collect(session.genomes()));
        let d1 = origin.elapsed().as_nanos() as u64;
        tracer.record("diagnostics.collect", g, None, d0, d1 - d0, 1);
        digest_stats(&mut digest, &stats);
    }
    drop(plain);

    let snapshot = round_trips(&session, &workload, &mut tracer);

    // Tracing must be transparent: the traced trajectory equals the
    // untraced one.
    let transparent = digest.finish() == reference.finish();
    let failed_steps = check_steps(shape, &window);
    let (digest, resumed) = check_resume(&mut session, &workload, digest);
    let attempted = shape.timed as u64 + 2;
    let failed = failed_steps + u64::from(!resumed) + u64::from(!transparent);

    let n = shape.timed as f64;
    let (step_ns, _) = tracer.total("step");
    let (eval_ns, _) = tracer.total("eval");
    let (gym_ns, gym_calls) = tracer.total("gym.evaluate");
    let (spec_ns, _) = tracer.total("speciate");
    let (rep_ns, _) = tracer.total("reproduce");
    let env_steps: u64 = window.stats.iter().map(|s| s.env_steps).sum();
    let macs: u64 = window.stats.iter().map(|s| s.inference_macs).sum();
    let share = |ns: u64| ns as f64 / step_ns as f64;
    let per_gen = |ns: u64| ms(ns) / n;
    let mean = |f: fn(&GenerationStats) -> f64| window.stats.iter().map(f).sum::<f64>() / n;
    let [exact, pruned, hint_hits] = scans;
    let drift_events = recorder.map_or(0, |r| r.snapshot().drift_events.len());

    let coverage = share(eval_ns + spec_ns + rep_ns);
    println!(
        "phase clocks cover {:.1} % of step wall time (eval {:.1} %, speciate {:.1} %, \
         reproduce {:.1} %)",
        coverage * 100.0,
        share(eval_ns) * 100.0,
        share(spec_ns) * 100.0,
        share(rep_ns) * 100.0
    );
    println!("digest={digest:016x}");
    let mut m = BTreeMap::from([
        ("window.samples", n),
        ("eval.ms_per_gen", per_gen(eval_ns)),
        ("eval.share", share(eval_ns)),
        ("eval.calls", gym_calls as f64),
        ("gym.episode_ms_per_gen", per_gen(gym_ns)),
        ("gym.env_steps", env_steps as f64),
        (
            "network.macs_per_step",
            macs as f64 / (n * shape.config.pop_size as f64),
        ),
        (
            "network.compile_ms_per_gen",
            per_gen(tracer.self_ns("eval")),
        ),
        ("speciate.ms_per_gen", per_gen(spec_ns)),
        ("speciate.share", share(spec_ns)),
        ("speciate.exact", exact as f64),
        ("speciate.pruned", pruned as f64),
        ("speciate.hint_hits", hint_hits as f64),
        ("speciate.species", mean(|s| s.num_species as f64)),
        ("reproduce.ms_per_gen", per_gen(rep_ns)),
        ("reproduce.share", share(rep_ns)),
        (
            "reproduce.ops",
            window.stats.iter().map(|s| s.ops.total()).sum::<u64>() as f64,
        ),
        ("reproduce.genes", mean(|s| s.total_genes as f64)),
        ("rest.ms_per_gen", per_gen(tracer.total("rest").0)),
        (
            "diagnostics.ms_per_gen",
            per_gen(tracer.total("diagnostics.collect").0),
        ),
        (
            "scenario.observer_ms_per_gen",
            per_gen(tracer.total("scenario.observer").0),
        ),
        ("scenario.drift_events", drift_events as f64),
        (
            "trace.overhead",
            window.total_ns() as f64 / plain_ns as f64 - 1.0,
        ),
    ]);
    m.extend(snapshot);
    if env_steps > 0 {
        m.insert("gym.ns_per_env_step", gym_ns as f64 / env_steps as f64);
    }
    if exact + pruned > 0 {
        m.insert(
            "speciate.prune_ratio",
            pruned as f64 / (pruned + exact) as f64,
        );
    }
    crate::write_trace(&tracer, shape.name, seed);
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
