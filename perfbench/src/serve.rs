//! `serve-zipf`: `genesys_serve` behind `net::serve` on loopback TCP,
//! 1 024 synthetic tenants (pop 32) under a 128-session resident cap.
//!
//! Each request picks a tenant by Zipf(s = 1) over submission order; the
//! verb mix is 90 % `step(1)`, 5 % `observe`, 4 % `checkpoint` and 1 %
//! `resume` of a checkpoint image. The loop is closed: each of two
//! connections has a client thread of its own that thinks, sends one
//! request, waits for its reply and settles it before the next, so each
//! connection has one request in flight and a round trip holds nothing of
//! the client's. The serving layers do the work here (poll loop,
//! scheduler, LRU spill and snapshot codec); evaluation is one synthetic
//! activation per genome and speciation stays on the scalar path below
//! 128 genomes.

use crate::alloc;
use crate::measure::{median, percentile, Digest, SplitMix64, Zipf};
use crate::trace::Tracer;
use crate::Outcome;
use genesys_core::snapshot_to_bytes;
use genesys_neat::{GenerationStats, NeatConfig, Session};
use genesys_serve::{
    Client, Reply, Request, ServeError, Server, ServerConfig, ServerStats, WireClient, WorkloadSpec,
};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TENANTS: usize = 1024;
const RESIDENT: usize = 128;
/// Client connections; request `i` goes out on connection `i % LANES`.
const LANES: usize = 2;
const TENANT_POP: usize = 32;
const OBSERVE_MAX: u32 = 32;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Tenants whose checkpoints are compared with direct `Session` runs.
const PARITY_SAMPLE: usize = 8;
/// The timed window runs as this many consecutive chunks; each
/// end-to-end figure is the median of the chunks' figures, so a stall
/// that hits one chunk does not move it.
const CHUNKS: usize = 5;
/// Requests at least, so that every chunk holds the 1 000 step round
/// trips a p99 needs.
const MIN_REQUESTS: usize = 6_000;
/// Upper end of the client's seeded think time before each send. The
/// poll loop sleeps 500 µs whenever a pass finds no work; a client that
/// sends the instant a reply lands phase-locks with that sleep, and each
/// run settles into one of two latency modes about 0.5 ms apart. A think
/// time drawn uniformly from 0–500 µs spreads arrivals over the sleep.
/// It comes before the request is written, outside the round trip.
const THINK_MAX_US: u64 = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Submit(usize),
    Step(usize),
    Observe(usize),
    Checkpoint(usize),
    Resume,
}

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::Submit(_) => "serve.submit",
            Op::Step(_) => "serve.step",
            Op::Observe(_) => "serve.observe",
            Op::Checkpoint(_) => "serve.checkpoint",
            Op::Resume => "serve.resume",
        }
    }
}

fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    SplitMix64::new(seed ^ (tenant as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

fn tenant_config() -> NeatConfig {
    NeatConfig::builder(3, 2)
        .pop_size(TENANT_POP)
        .build()
        .expect("tenant config is valid")
}

/// Set-up traffic: submit every tenant, then step each once.
fn setup_ops() -> Vec<Op> {
    (0..TENANTS)
        .map(Op::Submit)
        .chain((0..TENANTS).map(Op::Step))
        .collect()
}

/// The timed request sequence, a pure function of `seed`. A `resume`
/// replays the image of the last checkpoint sent on its own connection,
/// which has come back by then; until that connection has sent one, the
/// draw becomes a checkpoint.
pub fn request_sequence(seed: u64, n: usize) -> Vec<Op> {
    let zipf = Zipf::new(TENANTS, 1.0);
    let mut rng = SplitMix64::new(seed ^ 0x5E9F_0A11_C0DE_D00D);
    let mut checkpointed = [false; LANES];
    (0..n)
        .map(|i| {
            let tenant = zipf.sample(&mut rng);
            let u = rng.next_f64();
            if u < 0.90 {
                Op::Step(tenant)
            } else if u < 0.95 {
                Op::Observe(tenant)
            } else if u < 0.99 || !checkpointed[i % LANES] {
                checkpointed[i % LANES] = true;
                Op::Checkpoint(tenant)
            } else {
                Op::Resume
            }
        })
        .collect()
}

/// Client-side view of the tenants, shared by the connections.
struct Fleet {
    seed: u64,
    /// Session id of each tenant, by submission order.
    ids: Vec<u64>,
    /// Generations each tenant has completed.
    steps: Vec<u64>,
}

impl Fleet {
    fn new(seed: u64) -> Fleet {
        Fleet {
            seed,
            ids: vec![0; TENANTS],
            steps: vec![0; TENANTS],
        }
    }

    /// The request for `op`; a `resume` replays `image`.
    fn request(&self, op: Op, image: Option<&Vec<u8>>) -> Request {
        match op {
            Op::Submit(t) => Request::Submit {
                seed: tenant_seed(self.seed, t),
                workload: WorkloadSpec::Synthetic,
                config: Box::new(tenant_config()),
            },
            Op::Step(t) => Request::Step {
                session: self.ids[t],
                generations: 1,
            },
            Op::Observe(t) => Request::Observe {
                session: self.ids[t],
                max: OBSERVE_MAX,
            },
            Op::Checkpoint(t) => Request::Checkpoint {
                session: self.ids[t],
            },
            Op::Resume => Request::Resume {
                workload: WorkloadSpec::Synthetic,
                snapshot: image
                    .expect("the sequence checkpoints before it resumes")
                    .clone(),
            },
        }
    }

    /// Applies one reply; a checkpoint's image goes to `image`. Returns
    /// whether the reply was the kind `op` expects.
    fn settle(
        &mut self,
        op: Op,
        reply: &Result<Reply, ServeError>,
        image: &mut Option<Vec<u8>>,
    ) -> bool {
        match (op, reply) {
            (
                Op::Submit(t),
                Ok(Reply::Submitted {
                    session,
                    generation: 0,
                }),
            ) => {
                self.ids[t] = *session;
                true
            }
            (Op::Step(t), Ok(Reply::Stepped { session, .. })) if *session == self.ids[t] => {
                self.steps[t] += 1;
                true
            }
            (Op::Observe(t), Ok(Reply::Events { session, .. })) => *session == self.ids[t],
            (
                Op::Checkpoint(t),
                Ok(Reply::Snapshot {
                    session,
                    image: got,
                }),
            ) if *session == self.ids[t] => {
                *image = Some(got.clone());
                true
            }
            (Op::Resume, Ok(Reply::Submitted { .. })) => true,
            _ => false,
        }
    }
}

/// What the traced run keeps of one reply.
struct Detail {
    /// Place of the request in its sequence.
    index: usize,
    op: Op,
    start_ns: u64,
    rtt_ns: u64,
    stats: Option<GenerationStats>,
    image_bytes: usize,
}

/// Tally of a stretch of traffic.
#[derive(Default)]
struct Tally {
    attempted: u64,
    unexpected: u64,
    /// Error replies by code.
    errors: BTreeMap<u32, u64>,
    step_rtt_ms: Vec<f64>,
    details: Vec<Detail>,
}

impl Tally {
    /// Counts one reply; `settled` says whether it was the reply its
    /// request expects. `start_ns` (traced windows only) keeps its detail.
    fn add(
        &mut self,
        index: usize,
        op: Op,
        reply: &Result<Reply, ServeError>,
        settled: bool,
        rtt_ns: u64,
        start_ns: Option<u64>,
    ) {
        self.attempted += 1;
        self.unexpected += u64::from(!settled);
        if let Err(e) = reply {
            *self.errors.entry(e.code()).or_default() += 1;
        }
        if matches!(op, Op::Step(_)) {
            self.step_rtt_ms.push(rtt_ns as f64 / 1e6);
        }
        if let Some(start_ns) = start_ns {
            self.details.push(Detail {
                index,
                op,
                start_ns,
                rtt_ns,
                stats: match reply {
                    Ok(Reply::Stepped { event, .. }) => Some(event.stats.clone()),
                    _ => None,
                },
                image_bytes: match reply {
                    Ok(Reply::Snapshot { image, .. }) => image.len(),
                    _ => 0,
                },
            });
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.unexpected += other.unexpected;
        for (code, count) in other.errors {
            *self.errors.entry(code).or_default() += count;
        }
        self.step_rtt_ms.extend(other.step_rtt_ms);
        self.details.extend(other.details);
    }
}

/// One client connection and the client state that belongs to it.
struct Lane {
    conn: WireClient,
    /// Source of the think times.
    think: SplitMix64,
    /// Image of this connection's last checkpoint, which its resumes
    /// replay.
    image: Option<Vec<u8>>,
}

impl Lane {
    /// Sends `ops` one at a time: think, write the request, wait for the
    /// reply, take the time and settle it. Returns the tally of the
    /// replies.
    fn drive<'a>(
        &mut self,
        ops: impl Iterator<Item = (usize, &'a Op)>,
        fleet: &Mutex<&mut Fleet>,
        origin: Instant,
        detail: bool,
    ) -> Tally {
        let mut tally = Tally::default();
        for (index, &op) in ops {
            let request = fleet
                .lock()
                .expect("fleet lock")
                .request(op, self.image.as_ref());
            let think = self.think.next_u64() % THINK_MAX_US;
            std::thread::sleep(Duration::from_micros(think));
            let sent_at = Instant::now();
            let id = self.conn.send(&request).expect("send");
            let (got, reply) = self.conn.recv().expect("reply frame");
            let rtt_ns = sent_at.elapsed().as_nanos() as u64;
            let start_ns = detail.then(|| sent_at.duration_since(origin).as_nanos() as u64);
            let settled = got == id
                && fleet
                    .lock()
                    .expect("fleet lock")
                    .settle(op, &reply, &mut self.image);
            tally.add(index, op, &reply, settled, rtt_ns, start_ns);
        }
        tally
    }
}

/// One server on loopback: the scheduler, the poll loop thread and the
/// client connections.
struct Rig {
    server: Option<Server>,
    shutdown: Arc<AtomicBool>,
    poll: Option<JoinHandle<std::io::Result<()>>>,
    lanes: Vec<Lane>,
    spill: PathBuf,
}

impl Rig {
    fn start(spill: PathBuf, seed: u64) -> Rig {
        let _ = std::fs::remove_dir_all(&spill);
        let server =
            Server::start(ServerConfig::new(&spill).max_resident(RESIDENT)).expect("server starts");
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
        let addr = listener.local_addr().expect("listener address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let client = server.client();
        let stop = Arc::clone(&shutdown);
        let poll = std::thread::spawn(move || genesys_serve::serve(&client, listener, &stop));
        let lanes = (0..LANES as u64)
            .map(|k| Lane {
                conn: WireClient::connect(addr).expect("loopback connect"),
                think: SplitMix64::new((seed ^ 0x7417_7417_7417_7417).wrapping_add(k << 32)),
                image: None,
            })
            .collect();
        Rig {
            server: Some(server),
            shutdown,
            poll: Some(poll),
            lanes,
            spill,
        }
    }

    fn stats(&mut self) -> ServerStats {
        match self.lanes[0].conn.call(&Request::Stats) {
            Ok(Reply::Stats(stats)) => stats,
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    /// Sends `ops` over the connections, each driven by a thread of its
    /// own: request `i` goes out on connection `i % LANES` once request
    /// `i - LANES` has been answered and settled. A round trip runs from
    /// the request written to its reply decoded; the think time before
    /// the write is not part of it.
    fn drive(&mut self, ops: &[Op], fleet: &mut Fleet, tally: &mut Tally, detail: bool) {
        let origin = Instant::now();
        let fleet = Mutex::new(fleet);
        let lanes: Vec<Tally> = std::thread::scope(|scope| {
            let running: Vec<_> = self
                .lanes
                .iter_mut()
                .enumerate()
                .map(|(k, lane)| {
                    let fleet = &fleet;
                    let mine = ops.iter().enumerate().skip(k).step_by(LANES);
                    scope.spawn(move || lane.drive(mine, fleet, origin, detail))
                })
                .collect();
            running
                .into_iter()
                .map(|t| t.join().expect("client thread"))
                .collect()
        });
        for lane in lanes {
            tally.merge(lane);
        }
    }
}

impl Drop for Rig {
    /// Closes the connections, stops the poll loop and the scheduler
    /// (joining both threads) and removes the spill directory.
    fn drop(&mut self) {
        self.lanes.clear();
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(poll) = self.poll.take() {
            let _ = poll.join();
        }
        drop(self.server.take());
        let _ = std::fs::remove_dir_all(&self.spill);
    }
}

fn spill_dir(tag: &str) -> PathBuf {
    crate::run_dir().join(format!("spill-{}-{tag}", std::process::id()))
}

/// Starts a server and brings every tenant to generation 1. Returns the
/// rig, the fleet and the set-up time in seconds.
fn set_up(seed: u64, tag: &str, tally: &mut Tally) -> (Rig, Fleet, f64) {
    let t0 = Instant::now();
    let mut rig = Rig::start(spill_dir(tag), seed);
    let mut fleet = Fleet::new(seed);
    // Every submit settles before the first step needs its session id.
    let ops = setup_ops();
    let (submits, steps) = ops.split_at(TENANTS);
    rig.drive(submits, &mut fleet, tally, false);
    rig.drive(steps, &mut fleet, tally, false);
    (rig, fleet, t0.elapsed().as_secs_f64())
}

fn direct_session(fleet: &Fleet, tenant: usize) -> Session<genesys_serve::ServeWorkload> {
    let mut session = Session::builder(tenant_config(), tenant_seed(fleet.seed, tenant))
        .expect("tenant config is valid")
        .workload(WorkloadSpec::Synthetic.build())
        .build();
    for _ in 0..fleet.steps[tenant] {
        session.step();
    }
    session
}

/// Checkpoints a seeded sample of tenants over the wire and compares each
/// image byte for byte with a direct `Session` run of the same seed and
/// step count. Returns (checks, mismatches, digest of the sample).
fn check_parity(rig: &mut Rig, fleet: &Fleet) -> (u64, u64, u64) {
    let zipf = Zipf::new(TENANTS, 1.0);
    let mut rng = SplitMix64::new(fleet.seed ^ 0xC0FF_EE00_BAD5_EED5);
    let mut sample = Vec::with_capacity(PARITY_SAMPLE);
    while sample.len() < PARITY_SAMPLE {
        let t = zipf.sample(&mut rng);
        if !sample.contains(&t) {
            sample.push(t);
        }
    }
    let mut digest = Digest::new();
    let mut mismatches = 0;
    for &t in &sample {
        let image = match rig.lanes[0].conn.call(&Request::Checkpoint {
            session: fleet.ids[t],
        }) {
            Ok(Reply::Snapshot { image, .. }) => image,
            _ => Vec::new(),
        };
        let direct =
            snapshot_to_bytes(&direct_session(fleet, t).export_state()).expect("state encodes");
        digest.word(t as u64);
        digest.word(fleet.steps[t]);
        digest.bytes(&direct);
        if image != direct {
            eprintln!("tenant {t} diverged from its direct run");
            mismatches += 1;
        }
    }
    (PARITY_SAMPLE as u64, mismatches, digest.finish())
}

fn window_len(seconds: u64) -> usize {
    // About 1 200 requests a second on a 2-vCPU Xeon host.
    (seconds as usize * 1_200).max(MIN_REQUESTS)
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    if trace {
        return run_traced(seed, seconds);
    }
    let ops = request_sequence(seed, window_len(seconds));
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut current = None;
    for rep in 0..SETUP_REPS {
        drop(current.take());
        let (rig, fleet, setup_s) = set_up(seed, &rep.to_string(), &mut tally);
        setups.push(setup_s);
        current = Some((rig, fleet));
    }
    let (mut rig, mut fleet) = current.expect("at least one set-up");
    let before = rig.stats();

    let mut window = Tally::default();
    let mut chunks = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    alloc::reset_peak();
    for part in ops.chunks(ops.len().div_ceil(CHUNKS)) {
        let from = window.step_rtt_ms.len();
        let t0 = Instant::now();
        rig.drive(part, &mut fleet, &mut window, false);
        let rate = part.len() as f64 / t0.elapsed().as_secs_f64();
        let rtts = &window.step_rtt_ms[from..];
        chunks[0].push(rate);
        chunks[1].push(percentile(rtts, 500).expect("enough step requests in a chunk"));
        chunks[2].push(percentile(rtts, 900).expect("enough step requests in a chunk"));
        chunks[3].push(percentile(rtts, 990).expect("enough step requests in a chunk"));
    }
    let peak = alloc::peak_bytes();

    let after = rig.stats();
    let (checks, mismatches, digest) = check_parity(&mut rig, &fleet);
    drop(rig);

    let attempted = tally.attempted + window.attempted + checks;
    let failed = tally.unexpected + window.unexpected + mismatches;
    let [req_per_s, p50, p90, p99] = chunks.map(|c| median(&c));
    let setup_s = median(&setups);
    let heap_mb = peak as f64 / 1e6;
    println!(
        "req_per_s={req_per_s:.2} 1/s  req_p50_ms={p50:.4} ms  req_p90_ms={p90:.4} ms  \
         req_p99_ms={p99:.4} ms  (medians of {CHUNKS} chunks; n={} requests, {} steps)",
        ops.len(),
        window.step_rtt_ms.len()
    );
    println!(
        "setup_s={setup_s:.4} s (median of {SETUP_REPS})  peak_heap_mb={heap_mb:.3} MB  \
         failed_frac={}",
        failed as f64 / attempted as f64
    );
    println!(
        "server: {} evictions, {} rehydrations over the window",
        after.evictions - before.evictions,
        after.rehydrations - before.rehydrations
    );
    print_errors(&window.errors);
    println!("digest={digest:016x}");
    Outcome {
        attempted,
        failed,
        metrics: BTreeMap::from([
            ("ops_per_s", req_per_s),
            ("op_p50_ms", p50),
            ("op_p90_ms", p90),
            ("setup_s", setup_s),
            ("peak_heap_mb", heap_mb),
        ]),
    }
}

fn print_errors(errors: &BTreeMap<u32, u64>) {
    for (code, count) in errors {
        println!("error code {code}: {count} replies");
    }
}

fn run_traced(seed: u64, seconds: u64) -> Outcome {
    let ops = request_sequence(seed, window_len(seconds));
    let mut tally = Tally::default();

    // Untraced reference window, for `trace.overhead`.
    let (mut rig, mut fleet, _) = set_up(seed, "ref", &mut tally);
    let mut reference = Tally::default();
    let t0 = Instant::now();
    rig.drive(&ops, &mut fleet, &mut reference, false);
    let reference_s = t0.elapsed().as_secs_f64();
    drop(rig);

    // Traced window.
    let (mut rig, mut fleet, _) = set_up(seed, "traced", &mut tally);
    let before = rig.stats();
    let mut window = Tally::default();
    let t0 = Instant::now();
    rig.drive(&ops, &mut fleet, &mut window, true);
    let traced_s = t0.elapsed().as_secs_f64();
    let after = rig.stats();
    let (checks, mismatches, digest) = check_parity(&mut rig, &fleet);
    drop(rig);

    // The same sequence through the in-process `Client::call`.
    let inproc_step_ms = replay_in_process(seed, &ops, &mut tally);

    let mut tracer = Tracer::default();
    window.details.sort_by_key(|d| d.index);
    for d in &window.details {
        let i = d.index;
        let span = tracer.record(d.op.span_name(), i as u64, None, d.start_ns, d.rtt_ns, 1);
        if let Some(s) = &d.stats {
            let compute = s.eval_ns + s.speciate_ns + s.reproduce_ns;
            tracer.record(
                "serve.compute",
                i as u64,
                Some(span),
                d.start_ns,
                compute,
                1,
            );
        }
    }
    // Snapshot round trips of the most-stepped tenant, rebuilt directly.
    let hottest = (0..TENANTS)
        .max_by_key(|&t| (fleet.steps[t], std::cmp::Reverse(t)))
        .expect("tenants exist");
    let snapshot = crate::sessions::round_trips(
        &direct_session(&fleet, hottest),
        || WorkloadSpec::Synthetic.build(),
        &mut tracer,
    );

    let steps: Vec<&GenerationStats> = window
        .details
        .iter()
        .filter_map(|d| d.stats.as_ref())
        .collect();
    let n = steps.len() as f64;
    let sum = |f: fn(&GenerationStats) -> u64| steps.iter().map(|s| f(s)).sum::<u64>();
    let (rtt_ns, _) = tracer.total("serve.step");
    let (compute_ns, _) = tracer.total("serve.compute");
    let (eval_ns, spec_ns, rep_ns) = (
        sum(|s| s.eval_ns),
        sum(|s| s.speciate_ns),
        sum(|s| s.reproduce_ns),
    );
    let verb_p50 = |name| percentile(&tracer.durations_ms(name), 500).unwrap_or(0.0);
    let evictions = after.evictions - before.evictions;
    let rehydrations = after.rehydrations - before.rehydrations;
    let images: Vec<f64> = window
        .details
        .iter()
        .filter(|d| d.image_bytes > 0)
        .map(|d| d.image_bytes as f64)
        .collect();
    let image_mb = if images.is_empty() {
        0.0
    } else {
        median(&images) / 1e6
    };

    let attempted = tally.attempted + reference.attempted + window.attempted + checks;
    let failed = tally.unexpected + reference.unexpected + window.unexpected + mismatches;
    println!(
        "serve: {} steps, {evictions} evictions, {rehydrations} rehydrations; \
         inproc replay of {} requests",
        steps.len(),
        ops.len()
    );
    print_errors(&window.errors);
    println!("digest={digest:016x}");
    let mut m = BTreeMap::from([
        ("window.samples", ops.len() as f64),
        ("eval.ms_per_gen", eval_ns as f64 / 1e6 / n),
        ("eval.share", eval_ns as f64 / rtt_ns as f64),
        ("gym.env_steps", sum(|s| s.env_steps) as f64),
        (
            "network.macs_per_step",
            sum(|s| s.inference_macs) as f64 / (n * TENANT_POP as f64),
        ),
        ("speciate.ms_per_gen", spec_ns as f64 / 1e6 / n),
        ("speciate.share", spec_ns as f64 / rtt_ns as f64),
        ("speciate.species", sum(|s| s.num_species as u64) as f64 / n),
        ("reproduce.ms_per_gen", rep_ns as f64 / 1e6 / n),
        ("reproduce.share", rep_ns as f64 / rtt_ns as f64),
        ("reproduce.ops", sum(|s| s.ops.total()) as f64),
        ("reproduce.genes", sum(|s| s.total_genes as u64) as f64 / n),
        ("serve.steps", n),
        ("serve.evictions", evictions as f64),
        ("serve.rehydrations", rehydrations as f64),
        ("serve.hit_ratio", 1.0 - rehydrations as f64 / n),
        ("serve.spill_mb", evictions as f64 * image_mb),
        ("serve.compute_ms_per_req", compute_ns as f64 / 1e6 / n),
        (
            "serve.overhead_ms_per_req",
            tracer.self_ns("serve.step") as f64 / 1e6 / n,
        ),
        (
            "serve.inproc_p50_ms",
            percentile(&inproc_step_ms, 500).expect("enough step requests"),
        ),
        ("serve.checkpoint_p50_ms", verb_p50("serve.checkpoint")),
        ("serve.resume_p50_ms", verb_p50("serve.resume")),
        ("serve.observe_p50_ms", verb_p50("serve.observe")),
        ("trace.overhead", traced_s / reference_s - 1.0),
    ]);
    for (code, count) in &window.errors {
        let class = match code / 100 {
            1 => "serve.failed_by_code.1xx",
            2 => "serve.failed_by_code.2xx",
            3 => "serve.failed_by_code.3xx",
            4 => "serve.failed_by_code.4xx",
            _ => "serve.failed_by_code.5xx",
        };
        *m.entry(class).or_default() += *count as f64;
    }
    m.extend(snapshot);
    crate::write_trace(&tracer, "serve-zipf", seed);
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}

/// Replays set-up and `ops` serially through `Client::call`; returns the
/// window's step latencies in milliseconds.
fn replay_in_process(seed: u64, ops: &[Op], tally: &mut Tally) -> Vec<f64> {
    let spill = spill_dir("inproc");
    let _ = std::fs::remove_dir_all(&spill);
    let server =
        Server::start(ServerConfig::new(&spill).max_resident(RESIDENT)).expect("server starts");
    let client: Client = server.client();
    let mut fleet = Fleet::new(seed);
    // A resume replays the last checkpoint of its own connection, as on
    // the wire.
    let mut images: [Option<Vec<u8>>; LANES] = Default::default();
    let mut call = |index: usize, op: Op, tally: &mut Tally| {
        let image = &mut images[index % LANES];
        let request = fleet.request(op, image.as_ref());
        let t = Instant::now();
        let reply = client.call(request);
        let rtt_ns = t.elapsed().as_nanos() as u64;
        let settled = fleet.settle(op, &reply, image);
        tally.add(index, op, &reply, settled, rtt_ns, None);
    };
    for (index, &op) in setup_ops().iter().enumerate() {
        call(index, op, tally);
    }
    let window_from = tally.step_rtt_ms.len();
    for (index, &op) in ops.iter().enumerate() {
        call(index, op, tally);
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&spill);
    tally.step_rtt_ms.split_off(window_from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sequence_is_seeded_and_resumes_after_a_checkpoint_on_its_connection() {
        let a = request_sequence(3, 5_000);
        assert_eq!(a, request_sequence(3, 5_000));
        assert_ne!(a, request_sequence(4, 5_000));
        let mut resumes = 0;
        for (i, _) in a.iter().enumerate().filter(|(_, &op)| op == Op::Resume) {
            resumes += 1;
            assert!(a[..i]
                .iter()
                .enumerate()
                .any(|(j, op)| j % LANES == i % LANES && matches!(op, Op::Checkpoint(_))));
        }
        assert!(resumes > 0, "1 % resumes");
        let steps = a.iter().filter(|op| matches!(op, Op::Step(_))).count();
        assert!((4_300..4_700).contains(&steps), "{steps} steps");
    }
}
