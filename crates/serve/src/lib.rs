//! # genesys-serve — evolution as a service
//!
//! The serving layer the ROADMAP's north star asks for: a long-running
//! server that multiplexes **many concurrent evolution sessions** over
//! one shared `Executor`, so the deterministic, checkpointable runs
//! `genesys_neat::Session` made into values (PR 5) can be driven by
//! hundreds of tenants at once.
//!
//! * [`server`] — the session table and scheduler: generation-granular
//!   round-robin fairness, admission control (`max_sessions`),
//!   snapshot-backed eviction under a resident-arena cap
//!   (`max_resident`): idle sessions persist to disk as
//!   `genesys_core::snapshot` images, cost zero RAM, and rehydrate
//!   **bit-identically** on their next request.
//! * [`protocol`] — the length-prefixed binary wire format: verbs
//!   `submit / step(n) / observe / checkpoint / evict / resume / stats`,
//!   with snapshot images as the payload format for state-bearing verbs
//!   and `OwnedGenerationEvent` images as the observer push channel.
//! * [`error`] — the unified [`ServeError`] hierarchy folding
//!   `SessionError`, `SnapshotError` and the protocol errors into one
//!   typed surface with stable numeric wire codes.
//! * [`workload`] — the wire-nameable workloads ([`WorkloadSpec`]):
//!   gym episode rollouts, one environment drifting by generation (a
//!   one-task `genesys_gym::TaskSequence`), and a synthetic load-test
//!   fitness. `submit` and `resume` refuse a workload whose environment
//!   does not fit the config's genome interface.
//! * [`net`] — a blocking TCP front end on the standard library alone
//!   (offline constraint: no I/O registry deps): an accept loop, a reader
//!   and a writer thread per connection, at most [`MAX_CONNECTIONS`]
//!   connections; plus the blocking [`WireClient`].
//!
//! # Determinism
//!
//! The server adds **no new seed-derivation trades**: sessions share the
//! executor but never an RNG stream — each session's randomness is keyed
//! by its own `(seed, generation, index)` triples, so scheduling
//! interleave, eviction, rehydration and worker count all leave a
//! session's trajectory bit-identical to a direct
//! [`Session`](genesys_neat::Session) run. `tests/serve_eviction.rs`
//! asserts exactly that, byte-for-byte over checkpoint images.
//!
//! # In-process quickstart
//!
//! ```
//! use genesys_serve::{Reply, Request, Server, ServerConfig, WorkloadSpec};
//!
//! let dir = std::env::temp_dir().join("genesys-serve-doc");
//! let server = Server::start(ServerConfig::new(dir))?;
//! let client = server.client();
//!
//! let config = genesys_neat::NeatConfig::builder(2, 1).pop_size(8).build().unwrap();
//! let Reply::Submitted { session, .. } = client.call(Request::Submit {
//!     seed: 7,
//!     workload: WorkloadSpec::Synthetic,
//!     config: Box::new(config.clone()),
//! })? else { unreachable!() };
//!
//! let Reply::Stepped { generation, .. } =
//!     client.call(Request::Step { session, generations: 2 })? else { unreachable!() };
//! assert_eq!(generation, 2);
//!
//! // The server-mediated state is byte-identical to a direct run.
//! let Reply::Snapshot { image, .. } =
//!     client.call(Request::Checkpoint { session })? else { unreachable!() };
//! let mut direct = genesys_neat::Session::builder(config, 7)
//!     .unwrap()
//!     .workload(WorkloadSpec::Synthetic.build())
//!     .build();
//! direct.run(2);
//! assert_eq!(image, genesys_core::snapshot::snapshot_to_bytes(&direct.export_state())?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! For the wire form, bind a `TcpListener`, run [`net::serve`] on a
//! thread, and drive it with [`WireClient`] — `examples/evolution_service.rs`
//! walks through the full submit/step/observe/evict/resume lifecycle, and
//! `docs/serve_protocol.md` pins the byte-level frame layout, the
//! scheduling/eviction policy, and the stable error-code table.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod error;
pub mod net;
pub mod protocol;
pub mod server;
pub mod workload;

pub use error::{FrameError, ServeError};
pub use net::{serve, WireClient, MAX_CONNECTIONS};
pub use protocol::{Reply, Request, ServerStats, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use server::{Client, Server, ServerConfig};
pub use workload::{ServeWorkload, WorkloadSpec};
