//! Session-server load test: `--clients` driver threads sustain
//! `--sessions` concurrent evolution sessions over one server whose
//! resident cap (`--resident`) sits **below** the session count, so the
//! run only completes by continuously evicting and rehydrating tenants.
//!
//! The bin is both a throughput probe and a correctness gate:
//!
//! * every server-mediated session's final checkpoint is compared
//!   **byte-for-byte** against a direct `Session` run of the same seed
//!   (a `step()` loop — the server's Step verb runs exactly n
//!   generations, with no target-fitness early exit), and any mismatch
//!   exits nonzero;
//! * the final `Stats` reply must report evictions (resident cap held)
//!   and exactly `sessions × generations` generations served;
//! * with `GENESYS_BENCH_JSON` set, one JSON line compatible with the
//!   criterion shim's format is appended so `bench_compare` tracks
//!   scheduler throughput. The id carries the `_threads/` parallel
//!   marker: wall-clock scales with core count, which the single-thread
//!   calibration probe cannot normalize.
//!
//! ```text
//! serve_loadtest [--sessions N] [--resident N] [--clients N]
//!                [--generations N] [--pop N] [--threads N] [--seed N]
//! ```
//!
//! Defaults: `--sessions 256 --resident 64 --clients 8 --generations 3
//! --pop 16 --threads 1`. CI runs the defaults as the serve smoke job.

use genesys_bench::ExperimentArgs;
use genesys_core::snapshot_to_bytes;
use genesys_neat::{NeatConfig, Session};
use genesys_serve::{Reply, Request, Server, ServerConfig, WorkloadSpec};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn temp_dir() -> PathBuf {
    std::env::temp_dir().join(format!("genesys-serve-loadtest-{}", std::process::id()))
}

/// Per-tenant seed: distinct streams so byte-parity failures cannot hide
/// behind identical trajectories.
fn tenant_seed(base: u64, index: usize) -> u64 {
    base.wrapping_add(1 + index as u64)
}

fn tenant_config(pop: usize) -> NeatConfig {
    NeatConfig::builder(3, 2)
        .pop_size(pop)
        .build()
        .expect("loadtest config is valid")
}

/// The uninterrupted single-session trajectory the server must reproduce.
fn direct_image(seed: u64, pop: usize, generations: u32) -> Vec<u8> {
    let mut session = Session::builder(tenant_config(pop), seed)
        .expect("loadtest config is valid")
        .workload(WorkloadSpec::Synthetic.build())
        .build();
    for _ in 0..generations {
        session.step();
    }
    snapshot_to_bytes(&session.export_state()).expect("snapshot encodes")
}

fn main() -> ExitCode {
    let args = ExperimentArgs::parse_with(&["--sessions", "--resident", "--clients"]);
    let sessions = args.get_usize("--sessions", 256);
    let resident = args.get_usize("--resident", 64);
    let clients = args.get_usize("--clients", 8);
    let generations = args.generations_or(3) as u32;
    let pop = args.pop_or(16);
    let threads = args.threads_or(1);
    let seed = args.base_seed(42);

    assert!(
        resident < sessions,
        "the load test must oversubscribe the resident cap ({resident} >= {sessions})"
    );

    println!(
        "serve_loadtest: {sessions} sessions (resident cap {resident}) x {generations} \
         generations, pop {pop}, {clients} clients, {threads} worker thread(s), seed {seed}"
    );

    let spill = temp_dir();
    let _ = std::fs::remove_dir_all(&spill);
    let server = Server::start(
        ServerConfig::new(&spill)
            .max_sessions(sessions)
            .max_resident(resident)
            .threads(threads),
    )
    .expect("server starts");
    let client = server.client();

    let mut ids = Vec::with_capacity(sessions);
    for i in 0..sessions {
        match client
            .call(Request::Submit {
                seed: tenant_seed(seed, i),
                workload: WorkloadSpec::Synthetic,
                config: Box::new(tenant_config(pop)),
            })
            .expect("submit succeeds")
        {
            Reply::Submitted { session, .. } => ids.push(session),
            other => panic!("expected Submitted, got {other:?}"),
        }
    }

    // The sustained phase: each client thread owns a slice of the tenant
    // list and steps every tenant one generation per sweep, so all
    // sessions stay live simultaneously and the resident cap churns the
    // whole run — the scheduler never gets a quiescent subset to pin.
    let chunk = sessions.div_ceil(clients);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for slice in ids.chunks(chunk) {
            let client = client.clone();
            scope.spawn(move || {
                for _ in 0..generations {
                    for &session in slice {
                        match client
                            .call(Request::Step {
                                session,
                                generations: 1,
                            })
                            .expect("step succeeds")
                        {
                            Reply::Stepped { .. } => {}
                            other => panic!("expected Stepped, got {other:?}"),
                        }
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed();

    let stats = match client.call(Request::Stats).expect("stats succeeds") {
        Reply::Stats(stats) => stats,
        other => panic!("expected Stats, got {other:?}"),
    };
    let total_generations = sessions as u64 * u64::from(generations);
    assert_eq!(stats.sessions, sessions as u64);
    assert_eq!(stats.generations, total_generations);
    assert!(
        stats.evictions > 0,
        "resident cap {resident} under {sessions} sessions must evict"
    );
    let per_generation_ns = elapsed.as_nanos() as u64 / total_generations.max(1);
    println!(
        "sustained: {total_generations} generations in {:.2}s ({:.0} gen/s, {} ns/gen), \
         {} evictions, {} rehydrations",
        elapsed.as_secs_f64(),
        total_generations as f64 / elapsed.as_secs_f64(),
        per_generation_ns,
        stats.evictions,
        stats.rehydrations
    );

    // Byte-parity gate: every tenant, not a sample — the whole point of
    // the server is that multiplexing is invisible to the trajectory.
    let mut mismatches = 0usize;
    for (i, &session) in ids.iter().enumerate() {
        let image = match client
            .call(Request::Checkpoint { session })
            .expect("checkpoint succeeds")
        {
            Reply::Snapshot { image, .. } => image,
            other => panic!("expected Snapshot, got {other:?}"),
        };
        if image != direct_image(tenant_seed(seed, i), pop, generations) {
            eprintln!("tenant {i} (session {session}) diverged from its direct run");
            mismatches += 1;
        }
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&spill);
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches}/{sessions} sessions diverged");
        return ExitCode::FAILURE;
    }
    println!("parity: all {sessions} server-mediated sessions match their direct runs");

    // One criterion-shim-compatible JSON line for the bench gate. The
    // `_threads/` marker exempts the entry when baseline and results
    // report different core counts (see bench_compare's PARALLEL_MARKERS).
    if let Ok(path) = std::env::var("GENESYS_BENCH_JSON") {
        if !path.is_empty() {
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            let line = format!(
                "{{\"id\":\"serve_loadtest/sustained_threads/{clients}x{sessions}\",\
                 \"min_ns\":{per_generation_ns},\"mean_ns\":{per_generation_ns},\
                 \"p95_ns\":{per_generation_ns},\"iters\":{total_generations},\
                 \"cores\":{cores}}}\n"
            );
            let written = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut file| file.write_all(line.as_bytes()));
            if let Err(err) = written {
                eprintln!("warning: could not append bench result to {path}: {err}");
            }
        }
    }
    ExitCode::SUCCESS
}
