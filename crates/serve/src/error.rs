//! The unified error surface: one typed hierarchy covering frame parsing,
//! session construction, snapshot decoding, admission control and I/O,
//! with **stable numeric codes** on the wire.
//!
//! Before this crate, a caller juggling a server had three unrelated error
//! types: `genesys_neat::SessionError` (state validation),
//! `genesys_core::snapshot::SnapshotError` (image decoding) and whatever
//! ad-hoc I/O errors leaked through. [`ServeError`] unifies them — the
//! originals are embedded, not re-stated, so nothing is lost — and adds
//! the protocol-level failures a wire surface needs ([`FrameError`]).
//!
//! # Wire codes
//!
//! Every error maps to a stable `u32` via [`ServeError::code`]; the codes
//! are part of the wire format and never renumbered (new errors take new
//! codes). Ranges:
//!
//! | range | class                                         |
//! |-------|-----------------------------------------------|
//! | 1xx   | frame/protocol ([`FrameError`])               |
//! | 2xx   | admission & session-table                     |
//! | 3xx   | snapshot payloads (`SnapshotError`)           |
//! | 4xx   | evolution-state validation (`SessionError`)   |
//! | 5xx   | transport/server                              |
//!
//! An error that crosses the wire arrives on the client as
//! [`ServeError::Remote`], preserving the numeric code and rendered
//! message (the structured fields stay server-side; the code is the
//! machine-readable part of the contract, locked by
//! `tests/serve_protocol.rs`).

use genesys_core::snapshot::SnapshotError;
use genesys_neat::SessionError;
use std::error::Error;
use std::fmt;

/// A malformed or unparseable protocol frame. Adversarial bytes always
/// land here — never in a panic (proptested in `tests/serve_protocol.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame body ended before the structure it declares.
    Truncated {
        /// Byte offset at which more data was expected.
        offset: usize,
    },
    /// A frame declared a length beyond [`crate::protocol::MAX_FRAME_BYTES`].
    Oversize {
        /// The declared length.
        len: usize,
    },
    /// The frame's protocol-version byte is not
    /// [`crate::protocol::PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The request verb code is not one this server knows.
    UnknownVerb(u16),
    /// The reply tag code is not one this client knows.
    UnknownTag(u16),
    /// A structurally well-formed frame carried an invalid value.
    BadPayload(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { offset } => write!(f, "frame truncated at byte {offset}"),
            FrameError::Oversize { len } => write!(f, "frame of {len} bytes exceeds the limit"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownVerb(v) => write!(f, "unknown request verb {v}"),
            FrameError::UnknownTag(t) => write!(f, "unknown reply tag {t}"),
            FrameError::BadPayload(what) => write!(f, "bad frame payload: {what}"),
        }
    }
}

/// The one error type of the serving layer; see the [module docs](self)
/// for the hierarchy and code ranges.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A protocol frame failed to parse.
    Frame(FrameError),
    /// The referenced session id is not in the session table.
    UnknownSession(u64),
    /// Admission control rejected a new session: the table is at
    /// `max_sessions`.
    ServerFull {
        /// Live sessions at rejection time.
        live: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The session has queued generations and cannot be evicted until
    /// they drain.
    SessionBusy(u64),
    /// A `submit` config, or the config of a `resume` image, has a genome
    /// interface other than the one its `Env` or `Drifting` workload's
    /// environment has (`EnvKind::interface`). Rejected before any session
    /// is built or any tenant is evicted.
    WorkloadInterface {
        /// `(inputs, outputs)` the workload's environment has.
        workload: (usize, usize),
        /// `(num_inputs, num_outputs)` of the config.
        config: (usize, usize),
    },
    /// A snapshot-image payload (submit config, resume/checkpoint state,
    /// observe event) failed to decode.
    Snapshot(SnapshotError),
    /// A decoded evolution state or configuration failed validation.
    Session(SessionError),
    /// Disk or socket I/O failed (spill write, rehydration read,
    /// transport). Carries the rendered `std::io::Error`.
    Io(String),
    /// The server/scheduler thread is gone (shut down or panicked).
    Disconnected,
    /// The TCP front end already serves its cap of connections; the new
    /// one gets this reply (request id 0) and is closed.
    TooManyConnections {
        /// The cap ([`crate::net::MAX_CONNECTIONS`]).
        cap: usize,
    },
    /// An error reported by the remote peer, preserving its wire code.
    Remote {
        /// The stable numeric code ([`ServeError::code`] of the original).
        code: u32,
        /// The rendered message.
        message: String,
    },
}

impl ServeError {
    /// The stable numeric wire code; see the [module docs](self) for the
    /// ranges. Locked by `tests/serve_protocol.rs` — codes are never
    /// renumbered.
    pub fn code(&self) -> u32 {
        match self {
            ServeError::Frame(FrameError::Truncated { .. }) => 100,
            ServeError::Frame(FrameError::Oversize { .. }) => 101,
            ServeError::Frame(FrameError::BadVersion(_)) => 102,
            ServeError::Frame(FrameError::UnknownVerb(_)) => 103,
            ServeError::Frame(FrameError::UnknownTag(_)) => 104,
            ServeError::Frame(FrameError::BadPayload(_)) => 105,
            ServeError::UnknownSession(_) => 200,
            ServeError::ServerFull { .. } => 201,
            ServeError::SessionBusy(_) => 202,
            ServeError::WorkloadInterface { .. } => 203,
            ServeError::Snapshot(e) => match e {
                SnapshotError::BadMagic => 300,
                SnapshotError::UnsupportedVersion(_) => 301,
                SnapshotError::Truncated { .. } => 302,
                SnapshotError::ChecksumMismatch => 303,
                SnapshotError::LengthMismatch => 304,
                SnapshotError::Gene(_) => 305,
                SnapshotError::Malformed(_) => 306,
                SnapshotError::InvalidGenome(_) => 307,
                SnapshotError::InvalidState(_) => 308,
                SnapshotError::NodeIdOverflow { .. } => 309,
            },
            ServeError::Session(e) => match e {
                SessionError::Config(_) => 400,
                SessionError::EmptyState => 401,
                SessionError::PopulationSizeMismatch { .. } => 402,
                SessionError::InterfaceMismatch { .. } => 403,
                SessionError::MemberOutOfRange { .. } => 404,
                SessionError::BackendMismatch => 405,
                SessionError::InnovationCounterBehind { .. } => 406,
                SessionError::IslandCountMismatch { .. } => 407,
                SessionError::CounterAboveCeiling { .. } => 408,
            },
            ServeError::Io(_) => 500,
            ServeError::Disconnected => 501,
            ServeError::TooManyConnections { .. } => 502,
            ServeError::Remote { code, .. } => *code,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Frame(e) => write!(f, "protocol: {e}"),
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::ServerFull { live, cap } => {
                write!(f, "server full: {live} live sessions at cap {cap}")
            }
            ServeError::SessionBusy(id) => {
                write!(f, "session {id} has queued generations")
            }
            ServeError::WorkloadInterface { workload, config } => write!(
                f,
                "the workload's environment has a {}x{} interface, the config {}x{}",
                workload.0, workload.1, config.0, config.1
            ),
            ServeError::Snapshot(e) => write!(f, "snapshot payload: {e}"),
            ServeError::Session(e) => write!(f, "session state: {e}"),
            ServeError::Io(e) => write!(f, "i/o: {e}"),
            ServeError::Disconnected => write!(f, "server disconnected"),
            ServeError::TooManyConnections { cap } => {
                write!(f, "too many connections: the server is at its cap of {cap}")
            }
            ServeError::Remote { code, message } => {
                write!(f, "remote error {code}: {message}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Snapshot(e) => Some(e),
            ServeError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl From<SessionError> for ServeError {
    fn from(e: SessionError) -> Self {
        ServeError::Session(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_fall_in_their_documented_ranges() {
        assert_eq!(
            ServeError::Frame(FrameError::Truncated { offset: 0 }).code(),
            100
        );
        assert_eq!(ServeError::UnknownSession(1).code(), 200);
        let interface = ServeError::WorkloadInterface {
            workload: (4, 1),
            config: (3, 2),
        };
        assert_eq!(interface.code(), 203);
        assert_eq!(ServeError::Snapshot(SnapshotError::BadMagic).code(), 300);
        assert_eq!(ServeError::Session(SessionError::EmptyState).code(), 401);
        let behind = SessionError::InnovationCounterBehind {
            counter: 3,
            node: 55,
        };
        assert_eq!(ServeError::Session(behind).code(), 406);
        let islands = SessionError::IslandCountMismatch {
            config: 4,
            islands: 3,
        };
        assert_eq!(ServeError::Session(islands).code(), 407);
        let counter = SessionError::CounterAboveCeiling {
            counter: "generation",
            value: u64::MAX,
            ceiling: u64::MAX / 2,
        };
        assert_eq!(ServeError::Session(counter).code(), 408);
        assert_eq!(ServeError::Io(String::new()).code(), 500);
        assert_eq!(ServeError::TooManyConnections { cap: 256 }.code(), 502);
        let remote = ServeError::Remote {
            code: 303,
            message: "x".into(),
        };
        assert_eq!(remote.code(), 303, "remote errors preserve the code");
    }

    #[test]
    fn display_and_source_are_wired() {
        let e = ServeError::Snapshot(SnapshotError::ChecksumMismatch);
        assert!(e.to_string().contains("checksum"));
        assert!(e.source().is_some());
        assert!(ServeError::Disconnected.source().is_none());
    }
}
