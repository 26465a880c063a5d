//! End-to-end guarantees of the session server: interleaved multi-tenant
//! stepping with checkpoint/evict/resume is **bit-identical** to direct
//! `Session` runs at any worker count, a workload whose environment does
//! not fit the config is refused before it can reach the scheduler, and
//! the TCP layer answers corrupt frames with typed errors without dying,
//! pipelines replies in completion order, isolates a client that stops
//! reading, caps its connections and shuts down without waiting for
//! queued work.

use genesys::gym::EnvKind;
use genesys::neat::{Evaluator, NeatConfig, Session};
use genesys::serve::net::serve;
use genesys::serve::protocol::{decode_reply, encode_request, take_frame};
use genesys::serve::{
    Reply, Request, ServeError, Server, ServerConfig, WireClient, WorkloadSpec, MAX_CONNECTIONS,
};
use genesys::soc::snapshot_to_bytes;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const GENERATIONS: u32 = 6;

/// How long a wire test waits for something that should take
/// milliseconds, so a deadlock fails the test instead of hanging it.
const DEADLINE: Duration = Duration::from_secs(10);

/// A fresh spill directory under the system temp dir, removed on drop.
/// Declared before the `Server` that spills into it, so it outlives the
/// server.
struct TempDir(PathBuf);

impl TempDir {
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir =
        std::env::temp_dir().join(format!("genesys-serve-itest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    TempDir(dir)
}

/// The tenant mix: different workload shapes and seeds, so eviction and
/// rehydration must round-trip heterogeneous state (including the
/// drifting workload's position in its schedule).
fn tenants() -> Vec<(u64, WorkloadSpec, NeatConfig)> {
    let mut cartpole = EnvKind::CartPole.neat_config();
    cartpole.pop_size = 8;
    let synth = NeatConfig::builder(3, 2).pop_size(10).build().unwrap();
    let drift_cfg = NeatConfig::builder(4, 1).pop_size(8).build().unwrap();
    let mut out = Vec::new();
    for (i, seed) in [11u64, 23, 37, 41, 53, 67].iter().enumerate() {
        let (workload, config) = match i % 3 {
            0 => (WorkloadSpec::Synthetic, synth.clone()),
            1 => (
                WorkloadSpec::Env {
                    kind: EnvKind::CartPole,
                    episodes: 1,
                },
                cartpole.clone(),
            ),
            _ => (
                WorkloadSpec::Drifting {
                    world_seed: *seed,
                    period: 2,
                },
                drift_cfg.clone(),
            ),
        };
        out.push((*seed, workload, config));
    }
    out
}

fn direct_image(seed: u64, workload: &WorkloadSpec, config: &NeatConfig) -> Vec<u8> {
    let mut s = Session::builder(config.clone(), seed)
        .unwrap()
        .workload(workload.build())
        .build();
    // step() rather than run(): the server's Step verb runs exactly n
    // generations (no target-fitness early exit — convergence gating is
    // the client's call), so the direct baseline must do the same.
    for _ in 0..GENERATIONS {
        s.step();
    }
    snapshot_to_bytes(&s.export_state()).unwrap()
}

/// Runs the full tenant mix through a server whose resident cap (2) is
/// far below the session count (6), driving sessions from three OS
/// threads with interleaved step batches plus explicit mid-run evictions.
/// Returns the final checkpoint image of every session.
fn server_images(threads: usize) -> Vec<Vec<u8>> {
    let dir = temp_dir(&format!("mix-{threads}"));
    let server = Server::start(
        ServerConfig::new(dir.path())
            .max_resident(2)
            .threads(threads),
    )
    .unwrap();
    let client = server.client();

    let mut ids = Vec::new();
    for (seed, workload, config) in tenants() {
        match client
            .call(Request::Submit {
                seed,
                workload,
                config: Box::new(config),
            })
            .unwrap()
        {
            Reply::Submitted { session, .. } => ids.push(session),
            other => panic!("expected Submitted, got {other:?}"),
        }
    }

    // Three drivers, two sessions each, stepping in small interleaved
    // batches (2+1+3 = GENERATIONS) with an explicit eviction between
    // batches — per-session totals are fixed, so the cross-tenant
    // schedule is free to vary without affecting any trajectory.
    std::thread::scope(|scope| {
        for pair in ids.chunks(2) {
            let client = client.clone();
            scope.spawn(move || {
                for batch in [2u32, 1, 3] {
                    for &session in pair {
                        match client
                            .call(Request::Step {
                                session,
                                generations: batch,
                            })
                            .unwrap()
                        {
                            Reply::Stepped { .. } => {}
                            other => panic!("expected Stepped, got {other:?}"),
                        }
                    }
                    // Evicting one of the pair mid-run forces an extra
                    // spill/rehydrate cycle beyond cap pressure.
                    match client.call(Request::Evict { session: pair[0] }).unwrap() {
                        Reply::Evicted { .. } => {}
                        other => panic!("expected Evicted, got {other:?}"),
                    }
                }
            });
        }
    });

    let stats = match client.call(Request::Stats).unwrap() {
        Reply::Stats(stats) => stats,
        other => panic!("expected Stats, got {other:?}"),
    };
    assert_eq!(stats.sessions, ids.len() as u64);
    assert!(
        stats.evictions > 0,
        "resident cap 2 under 6 sessions must evict"
    );
    assert!(
        stats.rehydrations > 0,
        "stepping an evicted session must rehydrate"
    );
    assert_eq!(stats.generations, ids.len() as u64 * u64::from(GENERATIONS));

    ids.iter()
        .map(
            |&session| match client.call(Request::Checkpoint { session }).unwrap() {
                Reply::Snapshot { image, .. } => image,
                other => panic!("expected Snapshot, got {other:?}"),
            },
        )
        .collect()
}

#[test]
fn interleaved_multi_tenant_stepping_is_bit_identical_to_direct_runs() {
    let expected: Vec<Vec<u8>> = tenants()
        .iter()
        .map(|(seed, workload, config)| direct_image(*seed, workload, config))
        .collect();
    for threads in [1usize, 4] {
        let images = server_images(threads);
        assert_eq!(images.len(), expected.len());
        for (i, (got, want)) in images.iter().zip(&expected).enumerate() {
            assert_eq!(
                got, want,
                "tenant {i} diverged from its direct run at {threads} workers"
            );
        }
    }
}

#[test]
fn resumed_checkpoints_continue_bit_identically_across_servers() {
    // Checkpoint a drifting session on one server, resume it on another
    // (cross-process migration in miniature), and compare the combined
    // trajectory with one uninterrupted direct run.
    let (seed, workload, config) = tenants().remove(5);
    let first_dir = temp_dir("migrate-a");
    let first = Server::start(ServerConfig::new(first_dir.path())).unwrap();
    let client = first.client();
    let Reply::Submitted { session, .. } = client
        .call(Request::Submit {
            seed,
            workload,
            config: Box::new(config.clone()),
        })
        .unwrap()
    else {
        panic!("expected Submitted")
    };
    client
        .call(Request::Step {
            session,
            generations: 2,
        })
        .unwrap();
    let Reply::Snapshot { image, .. } = client.call(Request::Checkpoint { session }).unwrap()
    else {
        panic!("expected Snapshot")
    };
    drop(first);

    let second_dir = temp_dir("migrate-b");
    let second = Server::start(ServerConfig::new(second_dir.path())).unwrap();
    let client = second.client();
    let Reply::Submitted { session, .. } = client
        .call(Request::Resume {
            workload,
            snapshot: image,
        })
        .unwrap()
    else {
        panic!("expected Submitted")
    };
    client
        .call(Request::Step {
            session,
            generations: 4,
        })
        .unwrap();
    let Reply::Snapshot { image, .. } = client.call(Request::Checkpoint { session }).unwrap()
    else {
        panic!("expected Snapshot")
    };

    assert_eq!(image, direct_image(seed, &workload, &config));
}

/// A config whose interface is not its environment's would panic the
/// scheduler on its first step and disconnect every tenant. `submit` and
/// `resume` refuse it with a typed error before building a session or
/// evicting anyone, and the server keeps serving.
#[test]
fn a_workload_that_does_not_fit_the_config_is_refused() {
    let dir = temp_dir("interface");
    let server = Server::start(ServerConfig::new(dir.path()).max_resident(1)).unwrap();
    let client = server.client();
    let (seed, workload, config) = tenants().remove(0);
    let Reply::Submitted { session, .. } = client
        .call(Request::Submit {
            seed,
            workload,
            config: Box::new(config.clone()),
        })
        .unwrap()
    else {
        panic!("expected Submitted")
    };

    let cartpole = WorkloadSpec::Env {
        kind: EnvKind::CartPole,
        episodes: 1,
    };
    let submitted = client.call(Request::Submit {
        seed: 3,
        workload: cartpole,
        config: Box::new(NeatConfig::builder(3, 2).pop_size(8).build().unwrap()),
    });
    let want = ServeError::WorkloadInterface {
        workload: (4, 1),
        config: (3, 2),
    };
    assert_eq!(submitted, Err(want));

    let narrow = NeatConfig::builder(2, 1).pop_size(8).build().unwrap();
    let image = direct_image(5, &WorkloadSpec::Synthetic, &narrow);
    let resumed = client.call(Request::Resume {
        workload: cartpole,
        snapshot: image,
    });
    let want = ServeError::WorkloadInterface {
        workload: (4, 1),
        config: (2, 1),
    };
    assert_eq!(resumed.as_ref().map_err(ServeError::code), Err(203));
    assert_eq!(resumed, Err(want));

    // The resident tenant was not evicted to make room for either, still
    // steps, and matches its direct run.
    let Reply::Stats(stats) = client.call(Request::Stats).unwrap() else {
        panic!("expected Stats")
    };
    assert_eq!((stats.sessions, stats.evictions), (1, 0));
    client
        .call(Request::Step {
            session,
            generations: GENERATIONS,
        })
        .unwrap();
    let Reply::Snapshot { image, .. } = client.call(Request::Checkpoint { session }).unwrap()
    else {
        panic!("expected Snapshot")
    };
    assert_eq!(image, direct_image(seed, &workload, &config));
    assert!(matches!(client.call(Request::Stats), Ok(Reply::Stats(_))));
}

/// A resume image carries the drifting workload's sequence position,
/// and a client may send any value there. A `Drifting` tenant resumed at
/// position `u64::MAX` steps past it (the scenario generation wraps) to
/// its direct-run bytes instead of panicking the scheduler.
#[test]
fn a_drifting_tenant_resumed_at_the_last_position_steps() {
    let (seed, workload, config) = tenants().remove(2);
    assert!(matches!(workload, WorkloadSpec::Drifting { .. }));
    let session_at = |position: u64| {
        let mut w = workload.build();
        w.restore_state(position);
        Session::builder(config.clone(), seed)
            .unwrap()
            .workload(w)
            .build()
    };
    let mut direct = session_at(u64::MAX);
    for _ in 0..GENERATIONS {
        direct.step();
    }
    let want = snapshot_to_bytes(&direct.export_state()).unwrap();

    let dir = temp_dir("last-position");
    let server = Server::start(ServerConfig::new(dir.path())).unwrap();
    let client = server.client();
    let image = snapshot_to_bytes(&session_at(u64::MAX).export_state()).unwrap();
    let Reply::Submitted { session, .. } = client
        .call(Request::Resume {
            workload,
            snapshot: image,
        })
        .unwrap()
    else {
        panic!("expected Submitted")
    };
    client
        .call(Request::Step {
            session,
            generations: GENERATIONS,
        })
        .unwrap();
    let Reply::Snapshot { image, .. } = client.call(Request::Checkpoint { session }).unwrap()
    else {
        panic!("expected Snapshot")
    };
    assert_eq!(image, want);
    assert!(matches!(client.call(Request::Stats), Ok(Reply::Stats(_))));
}

/// A server behind [`serve`] on a loopback port.
struct Wire {
    server: Server,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    net: JoinHandle<std::io::Result<()>>,
}

impl Wire {
    fn start(dir: &TempDir) -> Wire {
        let server = Server::start(ServerConfig::new(dir.path())).unwrap();
        let client = server.client();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let net = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || serve(&client, listener, &shutdown))
        };
        Wire {
            server,
            addr,
            shutdown,
            net,
        }
    }

    /// Sets the shutdown flag and waits, within [`DEADLINE`], for
    /// [`serve`] to return. The server itself stays up.
    fn stop(self) -> Server {
        self.shutdown.store(true, Ordering::Relaxed);
        let net = self.net;
        within("serve after shutdown", move || net.join())
            .expect("net thread")
            .expect("serve ends cleanly");
        self.server
    }
}

/// Runs `f` on a helper thread and returns its result, failing if that
/// takes longer than [`DEADLINE`]; a panic in `f` propagates.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not return within {DEADLINE:?}"),
        out => {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
            out.expect("the helper sent its result")
        }
    }
}

fn submit_over(
    conn: &mut WireClient,
    seed: u64,
    workload: WorkloadSpec,
    config: NeatConfig,
) -> u64 {
    match conn
        .call(&Request::Submit {
            seed,
            workload,
            config: Box::new(config),
        })
        .unwrap()
    {
        Reply::Submitted { session, .. } => session,
        other => panic!("expected Submitted, got {other:?}"),
    }
}

#[test]
fn corrupt_wire_frames_get_typed_replies_and_the_server_survives() {
    let dir = temp_dir("wire");
    let wire = Wire::start(&dir);
    let addr = wire.addr;

    // A well-framed body with a bad protocol version: typed error reply,
    // connection stays usable.
    let mut raw = TcpStream::connect(addr).unwrap();
    let garbage_body = [0xFFu8; 9];
    raw.write_all(&(garbage_body.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&garbage_body).unwrap();
    raw.flush().unwrap();
    let (_, result) = read_one_reply(&mut raw);
    match result {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, 102, "BadVersion"),
        other => panic!("expected Remote BadVersion, got {other:?}"),
    }
    // Same connection, now a valid request: the server answered garbage
    // without dropping the framing-intact connection.
    raw.write_all(&encode_request(9, &Request::Stats)).unwrap();
    let (id, result) = read_one_reply(&mut raw);
    assert_eq!(id, 9);
    assert!(matches!(result, Ok(Reply::Stats(_))));

    // An oversize length prefix loses framing: error reply, then close.
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
    bad.flush().unwrap();
    let (_, result) = read_one_reply(&mut bad);
    match result {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, 101, "Oversize"),
        other => panic!("expected Remote Oversize, got {other:?}"),
    }
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection closes after framing loss");

    // Meanwhile real work over the wire still matches a direct run.
    let mut conn = WireClient::connect(addr).unwrap();
    assert_direct_round_trip(&mut conn);

    wire.stop();
}

/// The `Env` spec's last word is reserved (it held the lane count of the
/// retired episode-batch kernel) and must be 1: a `submit` frame carrying
/// 2 gets a typed `BadPayload` reply, and no session is created.
#[test]
fn submit_with_a_reserved_env_word_other_than_one_is_rejected() {
    let dir = temp_dir("reserved-word");
    let wire = Wire::start(&dir);
    let mut frame = encode_request(
        4,
        &Request::Submit {
            seed: 11,
            workload: WorkloadSpec::Env {
                kind: EnvKind::CartPole,
                episodes: 1,
            },
            config: Box::new(EnvKind::CartPole.neat_config()),
        },
    );
    // Length prefix, header, seed, spec tag, env code and episodes come
    // before the reserved word.
    let at = 4 + 8 + 8 + 2 + 2 + 4;
    assert_eq!(frame[at..at + 4], 1u32.to_le_bytes());
    frame[at..at + 4].copy_from_slice(&2u32.to_le_bytes());
    let mut raw = TcpStream::connect(wire.addr).unwrap();
    raw.write_all(&frame).unwrap();
    let (id, result) = read_one_reply(&mut raw);
    assert_eq!(id, 4);
    match result {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, 105, "BadPayload"),
        other => panic!("expected Remote BadPayload, got {other:?}"),
    }
    raw.write_all(&encode_request(5, &Request::Stats)).unwrap();
    match read_one_reply(&mut raw) {
        (5, Ok(Reply::Stats(stats))) => assert_eq!(stats.sessions, 0, "no session created"),
        other => panic!("expected Stats, got {other:?}"),
    }
    wire.stop();
}

/// Submits the first tenant over `conn`, steps it [`GENERATIONS`] and
/// checks its checkpoint against the direct run.
fn assert_direct_round_trip(conn: &mut WireClient) {
    let (seed, workload, config) = tenants().remove(0);
    let session = submit_over(conn, seed, workload, config.clone());
    conn.call(&Request::Step {
        session,
        generations: GENERATIONS,
    })
    .unwrap();
    let Reply::Snapshot { image, .. } = conn.call(&Request::Checkpoint { session }).unwrap() else {
        panic!("expected Snapshot")
    };
    assert_eq!(image, direct_image(seed, &workload, &config));
}

#[test]
fn pipelined_requests_are_answered_once_each_in_completion_order() {
    let dir = temp_dir("pipeline");
    let wire = Wire::start(&dir);
    let mut conn = WireClient::connect(wire.addr).unwrap();
    // A's generations are slow enough that the reader dispatches the
    // three requests behind its step long before the eighth quantum, and
    // the scheduler drains commands between quanta.
    let heavy = NeatConfig::builder(3, 2).pop_size(600).build().unwrap();
    let a = submit_over(&mut conn, 1, WorkloadSpec::Synthetic, heavy);
    let (seed, workload, config) = tenants().remove(0);
    let b = submit_over(&mut conn, seed, workload, config);

    let step = conn
        .send(&Request::Step {
            session: a,
            generations: 8,
        })
        .unwrap();
    let stats = conn.send(&Request::Stats).unwrap();
    let observe = conn.send(&Request::Observe { session: b, max: 8 }).unwrap();
    let checkpoint = conn.send(&Request::Checkpoint { session: b }).unwrap();

    let order = within("the pipelined replies", move || {
        let mut order = Vec::new();
        for _ in 0..4 {
            let (id, reply) = conn.recv().unwrap();
            let ok = match reply.unwrap() {
                Reply::Stepped {
                    session,
                    generation,
                    ..
                } => id == step && session == a && generation == 8,
                Reply::Stats(_) => id == stats,
                Reply::Events { session, .. } => id == observe && session == b,
                Reply::Snapshot { session, .. } => id == checkpoint && session == b,
                other => panic!("unexpected reply {other:?}"),
            };
            assert!(ok, "reply to request {id} does not match the request");
            order.push(id);
        }
        order
    });
    let mut answered = order.clone();
    answered.sort_unstable();
    assert_eq!(
        answered,
        [step, stats, observe, checkpoint],
        "every id exactly once"
    );
    assert_eq!(
        order.last(),
        Some(&step),
        "the immediate verbs overtake the queued step: {order:?}"
    );
    wire.stop();
}

/// Reply bytes the stalled connection has queued: more than the loopback
/// socket buffers hold while the peer does not read.
const STALLED_BYTES: usize = 8 << 20;

#[test]
fn a_client_that_never_reads_stalls_only_its_own_connection() {
    let dir = temp_dir("slow-reader");
    let wire = Wire::start(&dir);
    let local = wire.server.client();
    let config = NeatConfig::builder(3, 2).pop_size(1000).build().unwrap();
    let Reply::Submitted { session: big, .. } = local
        .call(Request::Submit {
            seed: 5,
            workload: WorkloadSpec::Synthetic,
            config: Box::new(config),
        })
        .unwrap()
    else {
        panic!("expected Submitted")
    };
    let Reply::Snapshot { image, .. } = local.call(Request::Checkpoint { session: big }).unwrap()
    else {
        panic!("expected Snapshot")
    };
    let count = STALLED_BYTES / image.len() + 1;

    // X pipelines checkpoints of the big session and does not read, so
    // its writer blocks once the socket buffers are full.
    let mut x = WireClient::connect(wire.addr).unwrap();
    let ids: Vec<u32> = (0..count)
        .map(|_| x.send(&Request::Checkpoint { session: big }).unwrap())
        .collect();

    // Y's requests queue behind X's at the scheduler, so its round trip
    // completes only after every X reply has been produced.
    let addr = wire.addr;
    let y = within("the other connection's round trip", move || {
        let mut y = WireClient::connect(addr).unwrap();
        assert_direct_round_trip(&mut y);
        y
    });

    // X's stalled replies are intact once it reads.
    within("the stalled replies", move || {
        for want in ids {
            let (id, reply) = x.recv().unwrap();
            assert_eq!(id, want, "one connection's replies keep completion order");
            match reply.unwrap() {
                Reply::Snapshot { image: got, .. } => {
                    assert!(got == image, "stalled image changed")
                }
                other => panic!("expected Snapshot, got {other:?}"),
            }
        }
    });
    drop(y);
    wire.stop();
}

#[test]
fn connections_past_the_cap_get_a_typed_error_then_eof() {
    let dir = temp_dir("cap");
    let wire = Wire::start(&dir);
    let mut held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(wire.addr).unwrap())
        .collect();

    // Accepts are FIFO, so this one arrives with the cap already full.
    let mut extra = TcpStream::connect(wire.addr).unwrap();
    extra.set_read_timeout(Some(DEADLINE)).unwrap();
    let (id, result) = read_one_reply(&mut extra);
    assert_eq!(id, 0);
    match result {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, 502, "TooManyConnections"),
        other => panic!("expected Remote TooManyConnections, got {other:?}"),
    }
    let mut rest = Vec::new();
    extra.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "a refused connection is closed");

    // A slot frees once both threads of a closed connection have exited.
    drop(held.pop());
    let addr = wire.addr;
    within("a freed slot", move || loop {
        let mut conn = WireClient::connect(addr).unwrap();
        let sent = conn.send(&Request::Stats).unwrap();
        match conn.recv().unwrap() {
            (id, Ok(Reply::Stats(_))) if id == sent => break,
            (0, Err(ServeError::Remote { code: 502, .. })) => {
                std::thread::sleep(Duration::from_millis(5))
            }
            other => panic!("expected Stats or a refusal, got {other:?}"),
        }
    });

    drop(held);
    wire.stop();
}

#[test]
fn shutdown_returns_without_waiting_for_queued_steps() {
    let dir = temp_dir("shutdown");
    let wire = Wire::start(&dir);
    let mut idle = TcpStream::connect(wire.addr).unwrap();
    let addr = wire.addr;
    let busy = within("queueing a long step", move || {
        let mut busy = WireClient::connect(addr).unwrap();
        let (seed, workload, config) = tenants().remove(0);
        let session = submit_over(&mut busy, seed, workload, config);
        busy.send(&Request::Step {
            session,
            generations: 1_000_000,
        })
        .unwrap();
        // The scheduler handles commands in order, so the stats reply
        // proves the step is queued. Accepts are FIFO, so `idle` is
        // being served too.
        let stats = busy.send(&Request::Stats).unwrap();
        let (id, reply) = busy.recv().unwrap();
        assert_eq!(id, stats);
        assert!(matches!(reply, Ok(Reply::Stats(_))));
        busy
    });

    // `serve` joins the readers but not the writers: the busy
    // connection's writer waits on the step until the server drops.
    let server = wire.stop();
    idle.set_read_timeout(Some(DEADLINE)).unwrap();
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "shutdown closes idle connections");
    within("dropping the server", move || drop(server));
    drop(busy);
}

/// Blocking read of exactly one reply frame from a raw socket.
fn read_one_reply(stream: &mut TcpStream) -> (u32, Result<Reply, ServeError>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(body) = take_frame(&mut buf).unwrap() {
            return decode_reply(&body).unwrap();
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "peer closed before a full reply arrived");
        buf.extend_from_slice(&chunk[..n]);
    }
}
