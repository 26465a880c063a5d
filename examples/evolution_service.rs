//! Evolution as a service: the full wire-protocol lifecycle against a
//! live session server — **submit → step → observe → checkpoint → evict
//! → resume** — over a real TCP socket, ending with the server's
//! trademark guarantee: the multiplexed, evicted, resumed trajectory is
//! **byte-identical** to one uninterrupted direct `Session` run.
//!
//! The server side is three lines: start a [`Server`] (scheduler thread +
//! shared executor), bind a listener, and hand both to
//! [`genesys::serve::net::serve`] on a thread. Everything after that goes
//! through [`WireClient`] — the same length-prefixed frames any non-Rust
//! client would speak.
//!
//! Run with: `cargo run --release --example evolution_service`

use genesys::neat::{NeatConfig, Session};
use genesys::serve::net::serve;
use genesys::serve::{Reply, Request, Server, ServerConfig, WireClient, WorkloadSpec};
use genesys::soc::snapshot_to_bytes;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SEED: u64 = 7;
const GENERATIONS: u32 = 6;

fn config() -> NeatConfig {
    NeatConfig::builder(4, 1)
        .pop_size(24)
        .build()
        .expect("valid config")
}

/// The drifting workload: CartPole whose sensors change every `period`
/// generations, so a checkpoint must capture mid-drift state exactly.
fn workload() -> WorkloadSpec {
    WorkloadSpec::Drifting {
        world_seed: SEED,
        period: 2,
    }
}

fn main() {
    // -- Server side: scheduler + executor + TCP front end. ------------
    let spill = std::env::temp_dir().join(format!("genesys-evo-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    let server = Server::start(ServerConfig::new(&spill).max_resident(8)).expect("server starts");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let net_thread = {
        let client = server.client();
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || serve(&client, listener, &shutdown))
    };
    println!("session server listening on {addr}\n");

    // -- Client side: nothing below here touches server internals. -----
    let mut wire = WireClient::connect(addr).expect("connect");

    // submit: a seed, a workload tag, and a config image go over the
    // wire; a session id comes back.
    let Reply::Submitted { session, .. } = wire
        .call(&Request::Submit {
            seed: SEED,
            workload: workload(),
            config: Box::new(config()),
        })
        .expect("submit")
    else {
        panic!("expected Submitted");
    };
    println!("submitted session {session} (drifting workload, pop 24)");

    // step: exactly N generations — no target-fitness early exit; when
    // to stop is the client's decision, made from the observed stream.
    wire.call(&Request::Step {
        session,
        generations: GENERATIONS / 2,
    })
    .expect("step");

    // observe: drain the buffered per-generation events.
    let Reply::Events { events, .. } = wire
        .call(&Request::Observe { session, max: 32 })
        .expect("observe")
    else {
        panic!("expected Events");
    };
    println!("gen | best fitness | mean fitness | species");
    for event in &events {
        let s = &event.stats;
        println!(
            "{:>3} | {:>12.3} | {:>12.3} | {:>7}",
            s.generation, s.max_fitness, s.mean_fitness, s.num_species
        );
    }

    // checkpoint: the session's full state as portable snapshot bytes.
    let Reply::Snapshot { image, .. } = wire.call(&Request::Checkpoint { session }).expect("ckpt")
    else {
        panic!("expected Snapshot");
    };
    println!(
        "\ncheckpoint: {} bytes at generation {}",
        image.len(),
        GENERATIONS / 2
    );

    // evict: spill to disk, freeing the resident slot. The session stays
    // addressable — stepping it later would rehydrate transparently; here
    // we go further and pretend the server died entirely.
    wire.call(&Request::Evict { session }).expect("evict");
    println!("evicted session {session} (state now lives on disk, zero RAM)");

    // resume: hand the checkpoint to a *fresh* session id, as a migrated
    // client or a second server would.
    let Reply::Submitted {
        session: resumed, ..
    } = wire
        .call(&Request::Resume {
            workload: workload(),
            snapshot: image,
        })
        .expect("resume")
    else {
        panic!("expected Submitted");
    };
    wire.call(&Request::Step {
        session: resumed,
        generations: GENERATIONS - GENERATIONS / 2,
    })
    .expect("step resumed");
    let Reply::Snapshot { image: served, .. } = wire
        .call(&Request::Checkpoint { session: resumed })
        .expect("final ckpt")
    else {
        panic!("expected Snapshot");
    };
    println!("resumed as session {resumed}, stepped to generation {GENERATIONS}");

    // The guarantee: server-mediated checkpoint/evict/resume is invisible
    // to the trajectory. One uninterrupted direct run, same seed, same
    // step() loop — byte-for-byte the same state.
    let mut direct = Session::builder(config(), SEED)
        .expect("valid config")
        .workload(workload().build())
        .build();
    for _ in 0..GENERATIONS {
        direct.step();
    }
    let direct_image = snapshot_to_bytes(&direct.export_state()).expect("snapshot");
    assert_eq!(
        served, direct_image,
        "served trajectory must be bit-identical to the direct run"
    );
    println!(
        "\nbit-identity: served checkpoint == direct run ({} bytes) ✓",
        served.len()
    );

    shutdown.store(true, Ordering::Relaxed);
    net_thread.join().expect("join").expect("serve loop");
    drop(server);
    let _ = std::fs::remove_dir_all(&spill);
}
