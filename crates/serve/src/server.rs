//! The session server: one scheduler thread multiplexing many evolution
//! sessions over one shared [`Executor`].
//!
//! # Architecture
//!
//! All session state lives on a single scheduler thread; clients talk to
//! it through [`Client`] (an in-process handle; `crate::net` bridges TCP
//! onto the same channel). Parallelism is *inside* a generation, not
//! across sessions: the scheduler runs one generation at a time and the
//! shared [`Executor`] fans its evaluations/reproduction out across
//! workers. That shape keeps the determinism contract trivially intact —
//! each session's trajectory depends only on its own state and the
//! index-keyed seeds, never on how sessions interleave.
//!
//! # Scheduling
//!
//! Fairness is **generation-granular round-robin**: a `step(n)` request
//! queues `n` generation tickets; the scheduler cycles through sessions
//! with queued work, running exactly one generation per turn. A tenant
//! asking for 1000 generations cannot starve one asking for 1 — the
//! short request completes within one cycle of the ready queue.
//! Commands are drained between quanta, so submits/observes/checkpoints
//! stay responsive while long step queues run.
//!
//! # Admission and eviction
//!
//! Two caps bound memory: `max_sessions` (admission: further submits are
//! rejected with [`ServeError::ServerFull`]) and `max_resident` (RAM: at
//! most this many sessions keep live arenas). When a session beyond the
//! resident cap is needed, the least-recently-touched resident session —
//! idle ones first — is spilled to disk as a `genesys_core::snapshot`
//! image and dropped from RAM. Rehydration rebuilds the session from the
//! image via `Session::resume`; because snapshots capture the complete
//! evolution state, an evict/rehydrate cycle is **bit-identical** to
//! never having evicted (asserted by `tests/serve_eviction.rs`).
//! Checkpoint requests against evicted sessions are
//! served straight from the spill file without rehydrating.

use crate::error::ServeError;
use crate::protocol::{Reply, Request, ServerStats};
use crate::workload::{ServeWorkload, WorkloadSpec};
use genesys_core::snapshot::{snapshot_from_bytes, snapshot_to_bytes};
use genesys_neat::{EvolutionBackend, Executor, OwnedGenerationEvent, Session};
use std::collections::{BTreeMap, VecDeque};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server sizing and placement knobs; start with
/// [`ServerConfig::new`] and override with the builder methods.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission cap: live sessions (resident + evicted). Default 4096.
    pub max_sessions: usize,
    /// RAM cap: sessions with live arenas. Default 256 (clamped ≥ 1).
    pub max_resident: usize,
    /// Worker threads of the shared executor (≤ 1 keeps evaluation
    /// serial). Default 1.
    pub threads: usize,
    /// Per-session ring buffer of generation events for the `observe`
    /// verb; older events are dropped. Default 32.
    pub event_buffer: usize,
    /// Directory evicted sessions spill their snapshot images into.
    pub spill_dir: PathBuf,
}

impl ServerConfig {
    /// Defaults with the given spill directory (created on start).
    pub fn new(spill_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            max_sessions: 4096,
            max_resident: 256,
            threads: 1,
            event_buffer: 32,
            spill_dir: spill_dir.into(),
        }
    }

    /// Sets the admission cap.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = n;
        self
    }

    /// Sets the resident-arena cap.
    pub fn max_resident(mut self, n: usize) -> Self {
        self.max_resident = n;
        self
    }

    /// Sets the shared executor's worker count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets the per-session event ring size.
    pub fn event_buffer(mut self, n: usize) -> Self {
        self.event_buffer = n;
        self
    }
}

/// Completion callback of one request; invoked exactly once on the
/// scheduler thread.
pub(crate) type ReplyFn = Box<dyn FnOnce(Result<Reply, ServeError>) + Send>;

enum Command {
    Request(Request, ReplyFn),
    /// Sent by [`Server::drop`]; outlives lingering [`Client`] clones,
    /// whose senders would otherwise keep the scheduler's `recv` alive.
    Shutdown,
}

/// An in-process client handle: sends [`Request`]s to the scheduler and
/// receives [`Reply`]s. Cheap to clone; clones share the server. The
/// blocking [`Client::call`] is the whole API — the TCP layer
/// (`crate::net`) multiplexes many wire connections onto handles like
/// this one.
#[derive(Clone)]
pub struct Client {
    tx: Sender<Command>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Sends one request and blocks until its reply.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] if the server has shut down;
    /// otherwise whatever the verb returns.
    pub fn call(&self, request: Request) -> Result<Reply, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.dispatch(
            request,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        )?;
        rx.recv().map_err(|_| ServeError::Disconnected)?
    }

    /// Sends one request with an explicit completion callback (the
    /// non-blocking form a connection's reader thread uses to pipeline).
    pub(crate) fn dispatch(&self, request: Request, reply: ReplyFn) -> Result<(), ServeError> {
        self.tx
            .send(Command::Request(request, reply))
            .map_err(|_| ServeError::Disconnected)
    }
}

/// The server: owns the scheduler thread. Dropping it shuts the
/// scheduler down (pending requests get no reply; clients see
/// [`ServeError::Disconnected`]). Spill files are left on disk — they
/// are valid snapshot images and double as a crash-recovery surface.
#[derive(Debug)]
pub struct Server {
    tx: Option<Sender<Command>>,
    handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the scheduler thread (and the shared executor if
    /// `config.threads > 1`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the spill directory cannot be created.
    pub fn start(config: ServerConfig) -> Result<Server, ServeError> {
        std::fs::create_dir_all(&config.spill_dir)?;
        let pool = (config.threads > 1).then(|| Arc::new(Executor::new(config.threads)));
        let (tx, rx) = mpsc::channel();
        let scheduler = Scheduler {
            config,
            pool,
            rx,
            sessions: BTreeMap::new(),
            ready: VecDeque::new(),
            resident: 0,
            next_id: 1,
            clock: 0,
            generations: 0,
            dropped_events: 0,
            evictions: 0,
            rehydrations: 0,
        };
        let handle = std::thread::Builder::new()
            .name("genesys-serve".into())
            .spawn(move || scheduler.run())
            .map_err(ServeError::from)?;
        Ok(Server {
            tx: Some(tx),
            handle: Some(handle),
        })
    }

    /// A new in-process client handle.
    pub fn client(&self) -> Client {
        Client {
            tx: self.tx.clone().expect("sender lives until drop"),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Command::Shutdown);
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

struct Ticket {
    remaining: u32,
    reply: ReplyFn,
}

type ServeSession = Session<ServeWorkload, EvolutionBackend>;

struct Entry {
    spec: WorkloadSpec,
    resident: Option<Box<ServeSession>>,
    /// The spill file holds the state at `generation` (valid while the
    /// session has not stepped since the last spill).
    spilled: bool,
    generation: u64,
    events: VecDeque<OwnedGenerationEvent>,
    tickets: VecDeque<Ticket>,
    queued: bool,
    touch: u64,
}

struct Scheduler {
    config: ServerConfig,
    pool: Option<Arc<Executor>>,
    rx: Receiver<Command>,
    sessions: BTreeMap<u64, Entry>,
    /// Round-robin queue of session ids with queued generation tickets.
    ready: VecDeque<u64>,
    /// Sessions whose `Entry::resident` holds live arenas.
    resident: usize,
    next_id: u64,
    /// Logical LRU clock (bumped on every touch).
    clock: u64,
    generations: u64,
    evictions: u64,
    rehydrations: u64,
    /// Observe-ring overflow drops, summed across sessions (surfaced in
    /// [`ServerStats::dropped_events`]).
    dropped_events: u64,
}

impl Scheduler {
    fn run(mut self) {
        loop {
            // Block only when no generation work is queued.
            if self.ready.is_empty() {
                match self.rx.recv() {
                    Ok(Command::Shutdown) | Err(_) => return,
                    Ok(cmd) => self.handle(cmd),
                }
            }
            // Drain commands without blocking, so submits/observes stay
            // responsive while long step queues run.
            loop {
                match self.rx.try_recv() {
                    Ok(Command::Shutdown) | Err(TryRecvError::Disconnected) => return,
                    Ok(cmd) => self.handle(cmd),
                    Err(TryRecvError::Empty) => break,
                }
            }
            // One generation quantum for the session at the head of the
            // round-robin.
            if let Some(sid) = self.ready.pop_front() {
                self.quantum(sid);
            }
        }
    }

    fn handle(&mut self, cmd: Command) {
        let Command::Request(request, reply) = cmd else {
            return; // Shutdown is intercepted by the run loop.
        };
        match request {
            Request::Step {
                session,
                generations,
            } => self.enqueue_step(session, generations, reply),
            other => {
                let result = self.immediate(other);
                reply(result);
            }
        }
    }

    /// Verbs answered without running generations.
    fn immediate(&mut self, request: Request) -> Result<Reply, ServeError> {
        match request {
            Request::Submit {
                seed,
                workload,
                config,
            } => {
                workload.check_interface(&config)?;
                self.admit()?;
                let session = Session::builder(*config, seed)?;
                let session = self.finish_build(session.workload(workload.build()));
                self.make_room(None)?;
                let id = self.alloc_id();
                self.insert(id, workload, session, 0);
                Ok(Reply::Submitted {
                    session: id,
                    generation: 0,
                })
            }
            Request::Resume { workload, snapshot } => {
                self.admit()?;
                let state = snapshot_from_bytes(&snapshot)?;
                workload.check_interface(state.config())?;
                let generation = state.generation();
                let session = Session::resume(state)?;
                let session = self.finish_build(session.workload(workload.build()));
                self.make_room(None)?;
                let id = self.alloc_id();
                self.insert(id, workload, session, generation);
                Ok(Reply::Submitted {
                    session: id,
                    generation,
                })
            }
            Request::Observe { session, max } => {
                let entry = self
                    .sessions
                    .get_mut(&session)
                    .ok_or(ServeError::UnknownSession(session))?;
                let n = entry.events.len().min(max as usize);
                let events = entry.events.drain(..n).collect();
                Ok(Reply::Events { session, events })
            }
            Request::Checkpoint { session } => {
                let image = self.checkpoint(session)?;
                Ok(Reply::Snapshot { session, image })
            }
            Request::Evict { session } => {
                if !self.sessions.contains_key(&session) {
                    return Err(ServeError::UnknownSession(session));
                }
                if !self.sessions[&session].tickets.is_empty() {
                    return Err(ServeError::SessionBusy(session));
                }
                self.evict(session)?;
                Ok(Reply::Evicted { session })
            }
            Request::Stats => Ok(Reply::Stats(self.stats())),
            Request::Step { .. } => unreachable!("step is queued, not immediate"),
        }
    }

    fn enqueue_step(&mut self, sid: u64, generations: u32, reply: ReplyFn) {
        let Some(entry) = self.sessions.get_mut(&sid) else {
            reply(Err(ServeError::UnknownSession(sid)));
            return;
        };
        entry.tickets.push_back(Ticket {
            remaining: generations,
            reply,
        });
        if !entry.queued {
            entry.queued = true;
            self.ready.push_back(sid);
        }
    }

    /// Runs one generation for `sid` and settles any ticket it completes.
    fn quantum(&mut self, sid: u64) {
        if let Err(e) = self.ensure_resident(sid) {
            // The session cannot run (spill unreadable, state invalid):
            // fail every queued ticket with the typed error.
            if let Some(entry) = self.sessions.get_mut(&sid) {
                entry.queued = false;
                for ticket in entry.tickets.drain(..) {
                    (ticket.reply)(Err(e.clone()));
                }
            }
            return;
        }
        let touch = self.tick();
        let event_buffer = self.config.event_buffer;
        let entry = self.sessions.get_mut(&sid).expect("session exists");
        let session = entry.resident.as_mut().expect("residency ensured");
        let stats = session.step();
        let event = OwnedGenerationEvent {
            stats,
            best: session.best_genome().map(genesys_neat::BestSummary::of),
        };
        entry.generation = session.generation() as u64;
        entry.spilled = false; // disk image (if any) is now stale
        entry.touch = touch;
        entry.events.push_back(event.clone());
        let mut dropped = 0u64;
        while entry.events.len() > event_buffer {
            entry.events.pop_front();
            dropped += 1;
        }
        let generation = entry.generation;
        if let Some(ticket) = entry.tickets.front_mut() {
            ticket.remaining -= 1;
            if ticket.remaining == 0 {
                let ticket = entry.tickets.pop_front().expect("front exists");
                (ticket.reply)(Ok(Reply::Stepped {
                    session: sid,
                    generation,
                    event: Box::new(event),
                }));
            }
        }
        if entry.tickets.is_empty() {
            entry.queued = false;
        } else {
            self.ready.push_back(sid);
        }
        self.generations += 1;
        self.dropped_events += dropped;
    }

    fn admit(&self) -> Result<(), ServeError> {
        if self.sessions.len() >= self.config.max_sessions {
            return Err(ServeError::ServerFull {
                live: self.sessions.len(),
                cap: self.config.max_sessions,
            });
        }
        Ok(())
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn finish_build(
        &self,
        builder: genesys_neat::SessionBuilder<EvolutionBackend, ServeWorkload>,
    ) -> Box<ServeSession> {
        let builder = match &self.pool {
            Some(pool) => builder.executor(Arc::clone(pool)),
            None => builder,
        };
        Box::new(builder.build())
    }

    fn insert(&mut self, id: u64, spec: WorkloadSpec, session: Box<ServeSession>, generation: u64) {
        let touch = self.tick();
        self.resident += 1;
        self.sessions.insert(
            id,
            Entry {
                spec,
                resident: Some(session),
                spilled: false,
                generation,
                events: VecDeque::new(),
                tickets: VecDeque::new(),
                queued: false,
                touch,
            },
        );
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn spill_path(&self, sid: u64) -> PathBuf {
        self.config.spill_dir.join(format!("sess-{sid}.gsnap"))
    }

    /// Evicts least-recently-touched residents (idle ones first) until
    /// one more session fits under the resident cap. `incoming` is the
    /// session about to become resident (never chosen as a victim).
    fn make_room(&mut self, incoming: Option<u64>) -> Result<(), ServeError> {
        let cap = self.config.max_resident.max(1);
        while self.resident >= cap {
            let victim = self
                .sessions
                .iter()
                .filter(|(id, e)| e.resident.is_some() && Some(**id) != incoming)
                // Idle sessions (no queued work) evict before busy ones;
                // among peers, least recently touched goes first.
                .min_by_key(|(_, e)| (!e.tickets.is_empty(), e.touch))
                .map(|(id, _)| *id);
            match victim {
                Some(id) => self.evict(id)?,
                None => break, // only the incoming session is resident
            }
        }
        Ok(())
    }

    /// Spills a session's state to disk and drops its arenas. Idempotent:
    /// a session whose disk image is current is simply dropped (or left
    /// as-is if already non-resident).
    fn evict(&mut self, sid: u64) -> Result<(), ServeError> {
        let path = self.spill_path(sid);
        let entry = self.sessions.get_mut(&sid).expect("session exists");
        let Some(session) = entry.resident.take() else {
            return Ok(()); // already on disk
        };
        if !entry.spilled {
            let bytes = snapshot_to_bytes(&session.export_state())?;
            if let Err(e) = write_spill(&path, &bytes) {
                // Keep the session resident rather than lose its state.
                entry.resident = Some(session);
                return Err(ServeError::Io(e.to_string()));
            }
            entry.spilled = true;
        }
        self.resident -= 1;
        self.evictions += 1;
        Ok(())
    }

    /// Rebuilds an evicted session from its spill file, then makes room
    /// for it under the resident cap (an unreadable or invalid image
    /// evicts no one).
    fn ensure_resident(&mut self, sid: u64) -> Result<(), ServeError> {
        if !self.sessions.contains_key(&sid) {
            return Err(ServeError::UnknownSession(sid));
        }
        if self.sessions[&sid].resident.is_some() {
            return Ok(());
        }
        let bytes = std::fs::read(self.spill_path(sid))?;
        let state = snapshot_from_bytes(&bytes)?;
        let spec = self.sessions[&sid].spec;
        let builder = Session::resume(state)?.workload(spec.build());
        let session = self.finish_build(builder);
        self.make_room(Some(sid))?;
        let touch = self.tick();
        let entry = self.sessions.get_mut(&sid).expect("session exists");
        entry.resident = Some(session);
        entry.touch = touch;
        self.resident += 1;
        self.rehydrations += 1;
        Ok(())
    }

    /// A checkpoint image at the current generation boundary. Evicted
    /// sessions are served from their spill file — a checkpoint does not
    /// force rehydration. The file is decoded and validated first, so a
    /// torn or corrupted spill fails with its typed 3xx error instead of
    /// reaching the client; a good file is returned byte for byte.
    fn checkpoint(&mut self, sid: u64) -> Result<Vec<u8>, ServeError> {
        let entry = self
            .sessions
            .get(&sid)
            .ok_or(ServeError::UnknownSession(sid))?;
        match &entry.resident {
            Some(session) => Ok(snapshot_to_bytes(&session.export_state())?),
            None => {
                let image = std::fs::read(self.spill_path(sid))?;
                snapshot_from_bytes(&image)?;
                Ok(image)
            }
        }
    }

    fn stats(&self) -> ServerStats {
        let resident = self.resident as u64;
        let sessions = self.sessions.len() as u64;
        ServerStats {
            sessions,
            resident,
            evicted: sessions - resident,
            generations: self.generations,
            evictions: self.evictions,
            rehydrations: self.rehydrations,
            max_sessions: self.config.max_sessions as u64,
            max_resident: self.config.max_resident as u64,
            dropped_events: self.dropped_events,
        }
    }
}

/// Writes a spill image over the file at `path` in place and trims the
/// file to the image's length, so a shorter image leaves no stale tail.
/// Unlike `fs::write`, which truncates to zero first, this keeps the
/// file's blocks allocated across evictions.
fn write_spill(path: &Path, image: &[u8]) -> std::io::Result<()> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.write_all(image)?;
    file.set_len(image.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_core::snapshot::SnapshotError;
    use genesys_neat::NeatConfig;

    fn config() -> NeatConfig {
        NeatConfig::builder(2, 1).pop_size(12).build().unwrap()
    }

    fn submit(client: &Client, seed: u64) -> u64 {
        match client
            .call(Request::Submit {
                seed,
                workload: WorkloadSpec::Synthetic,
                config: Box::new(config()),
            })
            .unwrap()
        {
            Reply::Submitted { session, .. } => session,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    fn step(client: &Client, session: u64, generations: u32) -> u64 {
        match client
            .call(Request::Step {
                session,
                generations,
            })
            .unwrap()
        {
            Reply::Stepped { generation, .. } => generation,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("genesys-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn submit_step_checkpoint_matches_direct_session() {
        let server = Server::start(ServerConfig::new(temp_dir("direct"))).unwrap();
        let client = server.client();
        let sid = submit(&client, 42);
        assert_eq!(step(&client, sid, 3), 3);

        let Reply::Snapshot { image, .. } =
            client.call(Request::Checkpoint { session: sid }).unwrap()
        else {
            panic!("expected snapshot");
        };
        let mut direct = Session::builder(config(), 42)
            .unwrap()
            .workload(WorkloadSpec::Synthetic.build())
            .build();
        direct.run(3);
        let direct_image = snapshot_to_bytes(&direct.export_state()).unwrap();
        assert_eq!(image, direct_image, "server-mediated run is byte-identical");
    }

    #[test]
    fn eviction_under_resident_cap_is_bit_identical() {
        let dir = temp_dir("evict");
        let server = Server::start(ServerConfig::new(dir).max_resident(1)).unwrap();
        let client = server.client();
        let a = submit(&client, 7);
        let b = submit(&client, 8);
        // Interleave: every switch forces an eviction under cap 1.
        for _ in 0..3 {
            step(&client, a, 1);
            step(&client, b, 1);
        }
        let Reply::Stats(stats) = client.call(Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        assert!(stats.evictions >= 2, "cap 1 with 2 sessions must evict");
        assert!(stats.rehydrations >= 2);
        assert_eq!(stats.resident, 1);

        for (sid, seed) in [(a, 7), (b, 8)] {
            let Reply::Snapshot { image, .. } =
                client.call(Request::Checkpoint { session: sid }).unwrap()
            else {
                panic!("expected snapshot");
            };
            let mut direct = Session::builder(config(), seed)
                .unwrap()
                .workload(WorkloadSpec::Synthetic.build())
                .build();
            direct.run(3);
            assert_eq!(
                image,
                snapshot_to_bytes(&direct.export_state()).unwrap(),
                "session {sid} diverged across eviction"
            );
        }
    }

    fn checkpoint(client: &Client, session: u64) -> Vec<u8> {
        match client.call(Request::Checkpoint { session }).unwrap() {
            Reply::Snapshot { image, .. } => image,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    fn stats(client: &Client) -> ServerStats {
        match client.call(Request::Stats).unwrap() {
            Reply::Stats(stats) => stats,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn spill_write_leaves_exactly_the_last_image() {
        let dir = temp_dir("write-spill");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sess-1.gsnap");
        for (len, byte) in [(4096, 0xA5u8), (100, 0x3C), (5000, 0x0F)] {
            let image = vec![byte; len];
            write_spill(&path, &image).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), image, "{len}-byte image");
        }
    }

    #[test]
    fn repeated_spills_overwrite_bit_identically() {
        let server =
            Server::start(ServerConfig::new(temp_dir("overwrite")).max_resident(1)).unwrap();
        let client = server.client();
        let a = submit(&client, 23);
        let b = submit(&client, 24);
        let mut direct = Session::builder(config(), 23)
            .unwrap()
            .workload(WorkloadSpec::Synthetic.build())
            .build();
        for round in 1..=5 {
            step(&client, a, round);
            direct.run(round as usize);
            // Stepping `b` under cap 1 spills `a` over its previous image.
            step(&client, b, 1);
            assert_eq!(
                checkpoint(&client, a),
                snapshot_to_bytes(&direct.export_state()).unwrap(),
                "spill file after eviction {round}"
            );
        }
        let stats = stats(&client);
        assert_eq!(stats.resident, 1);
        assert!(stats.evictions >= 10);
    }

    #[test]
    fn invalid_requests_evict_no_one() {
        let server = Server::start(ServerConfig::new(temp_dir("invalid")).max_resident(1)).unwrap();
        let client = server.client();
        let sid = submit(&client, 31);
        step(&client, sid, 1);
        let before = stats(&client);
        assert_eq!(before.resident, 1);
        let err = client
            .call(Request::Resume {
                workload: WorkloadSpec::Synthetic,
                snapshot: vec![0x5A; 64],
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Snapshot(_)), "{err:?}");
        let mut empty = config();
        empty.pop_size = 0;
        let err = client
            .call(Request::Submit {
                seed: 32,
                workload: WorkloadSpec::Synthetic,
                config: Box::new(empty),
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Session(_)), "{err:?}");
        assert_eq!(err.code(), 400);
        let after = stats(&client);
        assert_eq!(
            (after.evictions, after.rehydrations, after.resident),
            (before.evictions, before.rehydrations, before.resident)
        );
    }

    #[test]
    fn torn_spill_file_fails_typed_and_evicts_no_one() {
        let dir = temp_dir("torn");
        let server = Server::start(ServerConfig::new(&dir).max_resident(1)).unwrap();
        let client = server.client();
        let a = submit(&client, 41);
        let b = submit(&client, 42); // spills `a` under cap 1
        let path = dir.join(format!("sess-{a}.gsnap"));
        let image = std::fs::read(&path).unwrap();
        std::fs::write(&path, &image[..image.len() / 2]).unwrap();
        let before = stats(&client);
        let err = client
            .call(Request::Step {
                session: a,
                generations: 1,
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Snapshot(_)), "{err:?}");
        let after = stats(&client);
        assert_eq!(
            (after.evictions, after.rehydrations, after.resident),
            (before.evictions, before.rehydrations, before.resident)
        );
        assert_eq!(step(&client, b, 1), 1, "the resident tenant still runs");
    }

    #[test]
    fn checkpoint_of_a_torn_spill_file_fails_typed() {
        let dir = temp_dir("torn-checkpoint");
        let server = Server::start(ServerConfig::new(&dir).max_resident(1)).unwrap();
        let client = server.client();
        let a = submit(&client, 43);
        step(&client, a, 2);
        let b = submit(&client, 44); // spills `a` under cap 1
        let path = dir.join(format!("sess-{a}.gsnap"));
        let image = std::fs::read(&path).unwrap();
        assert_eq!(
            checkpoint(&client, a),
            image,
            "a good spill is served as is"
        );
        std::fs::write(&path, &image[..image.len() / 2]).unwrap();
        let err = client.call(Request::Checkpoint { session: a }).unwrap_err();
        assert!(
            matches!(err, ServeError::Snapshot(SnapshotError::Truncated { .. })),
            "{err:?}"
        );
        assert_eq!(err.code(), 302);
        assert_eq!(step(&client, b, 1), 1, "the resident tenant still runs");
    }

    #[test]
    fn submit_with_a_nonfinite_compatibility_coefficient_is_rejected() {
        let server = Server::start(ServerConfig::new(temp_dir("coefficient"))).unwrap();
        let client = server.client();
        let mut infinite = config();
        infinite.compatibility_weight_coefficient = f64::INFINITY;
        let err = client
            .call(Request::Submit {
                seed: 45,
                workload: WorkloadSpec::Synthetic,
                config: Box::new(infinite),
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Session(_)), "{err:?}");
        assert_eq!(err.code(), 400);
        assert_eq!(stats(&client).sessions, 0);
    }

    #[test]
    fn admission_cap_rejects_with_typed_error() {
        let server = Server::start(ServerConfig::new(temp_dir("admit")).max_sessions(2)).unwrap();
        let client = server.client();
        submit(&client, 1);
        submit(&client, 2);
        let err = client
            .call(Request::Submit {
                seed: 3,
                workload: WorkloadSpec::Synthetic,
                config: Box::new(config()),
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::ServerFull { live: 2, cap: 2 }));
        assert_eq!(err.code(), 201);
    }

    #[test]
    fn unknown_sessions_and_shutdown_are_typed() {
        let server = Server::start(ServerConfig::new(temp_dir("unknown"))).unwrap();
        let client = server.client();
        assert!(matches!(
            client.call(Request::Checkpoint { session: 99 }),
            Err(ServeError::UnknownSession(99))
        ));
        assert!(matches!(
            client.call(Request::Step {
                session: 99,
                generations: 1
            }),
            Err(ServeError::UnknownSession(99))
        ));
        drop(server);
        assert!(matches!(
            client.call(Request::Stats),
            Err(ServeError::Disconnected)
        ));
    }

    #[test]
    fn observe_drains_the_event_ring() {
        let server = Server::start(ServerConfig::new(temp_dir("observe")).event_buffer(2)).unwrap();
        let client = server.client();
        let sid = submit(&client, 5);
        step(&client, sid, 4);
        let Reply::Events { events, .. } = client
            .call(Request::Observe {
                session: sid,
                max: 10,
            })
            .unwrap()
        else {
            panic!("expected events");
        };
        // Ring of 2: only the last two generations survive.
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stats.generation, 2);
        assert_eq!(events[1].stats.generation, 3);
        let Reply::Events { events, .. } = client
            .call(Request::Observe {
                session: sid,
                max: 10,
            })
            .unwrap()
        else {
            panic!("expected events");
        };
        assert!(events.is_empty(), "observe drains");
    }

    #[test]
    fn overflow_drops_are_counted_in_stats() {
        let server = Server::start(ServerConfig::new(temp_dir("dropped")).event_buffer(2)).unwrap();
        let client = server.client();
        let sid = submit(&client, 5);
        // 5 generations into a 2-slot ring with no observer: 3 events
        // silently fall off the front — the stats counter must say so.
        step(&client, sid, 5);
        let Reply::Stats(stats) = client.call(Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(stats.dropped_events, 3);
        // Draining resets nothing: the counter is cumulative.
        let _ = client.call(Request::Observe {
            session: sid,
            max: 10,
        });
        step(&client, sid, 1);
        let Reply::Stats(stats) = client.call(Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(stats.dropped_events, 3, "drained ring does not drop");
    }

    #[test]
    fn explicit_evict_is_idempotent_and_busy_guarded() {
        let server = Server::start(ServerConfig::new(temp_dir("explicit"))).unwrap();
        let client = server.client();
        let sid = submit(&client, 11);
        step(&client, sid, 2);
        for _ in 0..2 {
            let Reply::Evicted { session } = client.call(Request::Evict { session: sid }).unwrap()
            else {
                panic!("expected evicted");
            };
            assert_eq!(session, sid);
        }
        // Checkpoint of an evicted session reads the spill file.
        let Reply::Snapshot { image, .. } =
            client.call(Request::Checkpoint { session: sid }).unwrap()
        else {
            panic!("expected snapshot");
        };
        assert!(snapshot_from_bytes(&image).is_ok());
        // Stepping rehydrates transparently and continues bit-identically.
        step(&client, sid, 1);
        let Reply::Stats(stats) = client.call(Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.rehydrations, 1);
    }

    #[test]
    fn resume_verb_continues_a_checkpoint_bit_identically() {
        let server = Server::start(ServerConfig::new(temp_dir("resume"))).unwrap();
        let client = server.client();
        let sid = submit(&client, 17);
        step(&client, sid, 2);
        let Reply::Snapshot { image, .. } =
            client.call(Request::Checkpoint { session: sid }).unwrap()
        else {
            panic!("expected snapshot");
        };
        let Reply::Submitted {
            session: resumed,
            generation,
        } = client
            .call(Request::Resume {
                workload: WorkloadSpec::Synthetic,
                snapshot: image,
            })
            .unwrap()
        else {
            panic!("expected submitted");
        };
        assert_ne!(resumed, sid);
        assert_eq!(generation, 2);
        step(&client, sid, 2);
        step(&client, resumed, 2);
        let a = client.call(Request::Checkpoint { session: sid }).unwrap();
        let b = client
            .call(Request::Checkpoint { session: resumed })
            .unwrap();
        let (Reply::Snapshot { image: ia, .. }, Reply::Snapshot { image: ib, .. }) = (a, b) else {
            panic!("expected snapshots");
        };
        assert_eq!(ia, ib, "migrated session tracks the original");
        // Corrupt snapshots are typed errors.
        assert!(matches!(
            client.call(Request::Resume {
                workload: WorkloadSpec::Synthetic,
                snapshot: vec![0xAB; 31],
            }),
            Err(ServeError::Snapshot(_))
        ));
    }
}
