//! The length-prefixed binary wire protocol.
//!
//! # Frame layout
//!
//! Every message is one frame: a little-endian `u32` length followed by
//! that many body bytes. Bodies share an 8-byte header:
//!
//! ```text
//! [0]    protocol version  (PROTOCOL_VERSION)
//! [1]    kind              (0 = request, 1 = reply)
//! [2..4] verb / tag        (u16 LE; Verb for requests, reply tag)
//! [4..8] request id        (u32 LE; echoed verbatim in the reply)
//! [8..]  verb-specific payload
//! ```
//!
//! The request id is caller-chosen correlation state: clients may
//! pipeline many requests on one connection and match replies by id
//! (replies can arrive out of request order — sessions finish at
//! different times). Integers are little-endian; variable-length fields
//! (snapshot images, config images, error messages) are `u32` length +
//! bytes. State-bearing payloads **are** `genesys_core::snapshot` images:
//! `submit` carries a config image, `resume`/`checkpoint` carry full
//! snapshot images, `observe` carries event images — the same versioned,
//! checksummed format checkpoint files use, so wire corruption is caught
//! by the same typed decoding.
//!
//! # Robustness
//!
//! Decoding never panics: adversarial bytes produce a typed
//! [`ServeError`] (proptested in `tests/serve_protocol.rs`). A frame
//! declaring more than [`MAX_FRAME_BYTES`] is rejected before buffering
//! ([`FrameError::Oversize`]), so a hostile length prefix cannot balloon
//! memory. Version negotiation is the snapshot policy: a body whose
//! version byte is not [`PROTOCOL_VERSION`] is rejected
//! ([`FrameError::BadVersion`]), never guessed at.

use crate::error::{FrameError, ServeError};
use crate::workload::WorkloadSpec;
use genesys_core::snapshot::{
    config_from_bytes, config_to_bytes, event_from_bytes, event_to_bytes,
};
use genesys_neat::{NeatConfig, OwnedGenerationEvent};

/// Protocol version byte; bumped on any wire layout change, other
/// versions rejected (the snapshot version policy). v2 added the
/// `dropped_events` counter to the `stats` reply; v3 dropped the
/// drifting workload spec's episode count.
pub const PROTOCOL_VERSION: u8 = 3;
/// Hard cap on one frame's body. Large enough for megapopulation
/// snapshot images, small enough that a hostile length prefix cannot
/// balloon memory.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

const KIND_REQUEST: u8 = 0;
const KIND_REPLY: u8 = 1;
const HEADER_BYTES: usize = 8;

/// A client request. See each variant for the verb's contract; every
/// verb is answered by exactly one [`Reply`] (or a wire error carrying a
/// [`ServeError::code`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a new session evolving `config` under `workload`, seeded
    /// with `seed`. Answered by [`Reply::Submitted`].
    Submit {
        /// Base seed of the run (the determinism-contract root).
        seed: u64,
        /// The workload to evaluate genomes under.
        workload: WorkloadSpec,
        /// The full hyper-parameter set.
        config: Box<NeatConfig>,
    },
    /// Queue `generations` more generations for the session; the reply
    /// arrives once they have all run. Answered by [`Reply::Stepped`].
    Step {
        /// Target session.
        session: u64,
        /// Generations to run (≥ 1).
        generations: u32,
    },
    /// Drain up to `max` buffered generation events (oldest first).
    /// Answered by [`Reply::Events`].
    Observe {
        /// Target session.
        session: u64,
        /// Maximum events to return.
        max: u32,
    },
    /// Capture the session's state as a snapshot image at the current
    /// generation boundary. Works on evicted sessions without
    /// rehydrating them. Answered by [`Reply::Snapshot`].
    Checkpoint {
        /// Target session.
        session: u64,
    },
    /// Spill the session to disk now (explicit eviction; idempotent).
    /// Fails with [`ServeError::SessionBusy`] if generations are queued.
    /// Answered by [`Reply::Evicted`].
    Evict {
        /// Target session.
        session: u64,
    },
    /// Admit a session continuing from a snapshot image (cross-process
    /// migration; the bit-identical twin of `Session::resume`). Answered
    /// by [`Reply::Submitted`].
    Resume {
        /// The workload to continue under.
        workload: WorkloadSpec,
        /// A `genesys_core::snapshot` image.
        snapshot: Vec<u8>,
    },
    /// Server-wide counters. Answered by [`Reply::Stats`].
    Stats,
}

/// A successful server reply; errors travel as a distinct wire tag
/// carrying [`ServeError::code`] plus the rendered message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The session was admitted.
    Submitted {
        /// The assigned session id.
        session: u64,
        /// Its current generation (0 for fresh submits).
        generation: u64,
    },
    /// The queued generations all ran.
    Stepped {
        /// The session.
        session: u64,
        /// Generation counter after the run.
        generation: u64,
        /// Event of the last generation that ran.
        event: Box<OwnedGenerationEvent>,
    },
    /// Buffered generation events, oldest first.
    Events {
        /// The session.
        session: u64,
        /// The drained events.
        events: Vec<OwnedGenerationEvent>,
    },
    /// A checkpoint image.
    Snapshot {
        /// The session.
        session: u64,
        /// The `genesys_core::snapshot` image bytes.
        image: Vec<u8>,
    },
    /// The session is spilled to disk.
    Evicted {
        /// The session.
        session: u64,
    },
    /// Server-wide counters.
    Stats(ServerStats),
}

/// Server-wide counters reported by the `stats` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Live sessions (resident + evicted).
    pub sessions: u64,
    /// Sessions currently resident in RAM.
    pub resident: u64,
    /// Sessions currently spilled to disk.
    pub evicted: u64,
    /// Generations run since the server started.
    pub generations: u64,
    /// Evictions performed since start.
    pub evictions: u64,
    /// Rehydrations performed since start.
    pub rehydrations: u64,
    /// The admission cap on live sessions.
    pub max_sessions: u64,
    /// The cap on resident sessions.
    pub max_resident: u64,
    /// Generation events silently dropped from per-session observe rings
    /// because no `observe` call drained them before the ring wrapped.
    /// A nonzero, growing value means observers are polling too slowly
    /// (or the `event_buffer` is too small) and the event stream they see
    /// has holes.
    pub dropped_events: u64,
}

// ---------------------------------------------------------------------------
// Byte-level reader/writer.

/// Append-only body builder.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_blob(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Seals the body into a full frame: `u32` length prefix + body.
    fn frame(self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(4 + self.buf.len());
        frame.extend_from_slice(&(self.buf.len() as u32).to_le_bytes());
        frame.extend_from_slice(&self.buf);
        frame
    }
}

/// Bounds-checked body reader; running past the end is a typed
/// [`FrameError::Truncated`], never a panic.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(body: &'a [u8]) -> Self {
        Reader { body, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.body.len())
            .ok_or(ServeError::Frame(FrameError::Truncated {
                offset: self.pos,
            }))?;
        let slice = &self.body[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_u16(&mut self) -> Result<u16, ServeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn take_blob(&mut self) -> Result<&'a [u8], ServeError> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }

    /// Rejects bodies with bytes past the declared structure: trailing
    /// garbage means a framing bug or tampering.
    fn finish(&self) -> Result<(), ServeError> {
        if self.pos != self.body.len() {
            return Err(ServeError::Frame(FrameError::BadPayload("trailing bytes")));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame extraction.

/// Extracts the next complete frame's body from a connection read buffer,
/// draining the consumed bytes. `Ok(None)` means more bytes are needed.
///
/// # Errors
///
/// [`FrameError::Oversize`] if the length prefix exceeds
/// [`MAX_FRAME_BYTES`] — the stream is unrecoverable at that point (the
/// peer and server disagree on framing) and the connection should close.
pub fn take_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, ServeError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("len 4")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ServeError::Frame(FrameError::Oversize { len }));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let body = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some(body))
}

/// Best-effort request-id peek from a body whose payload may be
/// malformed, so error replies can still correlate. `None` if even the
/// header is truncated.
pub fn request_id_of(body: &[u8]) -> Option<u32> {
    body.get(4..HEADER_BYTES)
        .map(|b| u32::from_le_bytes(b.try_into().expect("len 4")))
}

fn header(kind: u8, code: u16, request_id: u32) -> Writer {
    let mut w = Writer::default();
    w.put_u8(PROTOCOL_VERSION);
    w.put_u8(kind);
    w.put_u16(code);
    w.put_u32(request_id);
    w
}

/// Decodes a body's shared header, returning `(kind, code, request_id)`.
fn decode_header(r: &mut Reader<'_>) -> Result<(u8, u16, u32), ServeError> {
    let version = r.take_u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ServeError::Frame(FrameError::BadVersion(version)));
    }
    let kind = r.take_u8()?;
    let code = r.take_u16()?;
    let id = r.take_u32()?;
    Ok((kind, code, id))
}

// Verb codes (stable; never renumbered).
const VERB_SUBMIT: u16 = 1;
const VERB_STEP: u16 = 2;
const VERB_OBSERVE: u16 = 3;
const VERB_CHECKPOINT: u16 = 4;
const VERB_EVICT: u16 = 5;
const VERB_RESUME: u16 = 6;
const VERB_STATS: u16 = 7;

// Reply tags (stable; tag 0 is the error reply).
const TAG_ERROR: u16 = 0;
const TAG_SUBMITTED: u16 = 1;
const TAG_STEPPED: u16 = 2;
const TAG_EVENTS: u16 = 3;
const TAG_SNAPSHOT: u16 = 4;
const TAG_EVICTED: u16 = 5;
const TAG_STATS: u16 = 6;

/// Encodes a request into a complete frame (length prefix included).
pub fn encode_request(request_id: u32, request: &Request) -> Vec<u8> {
    let mut w = match request {
        Request::Submit {
            seed,
            workload,
            config,
        } => {
            let mut w = header(KIND_REQUEST, VERB_SUBMIT, request_id);
            w.put_u64(*seed);
            workload.encode(&mut w);
            w.put_blob(&config_to_bytes(config));
            w
        }
        Request::Step {
            session,
            generations,
        } => {
            let mut w = header(KIND_REQUEST, VERB_STEP, request_id);
            w.put_u64(*session);
            w.put_u32(*generations);
            w
        }
        Request::Observe { session, max } => {
            let mut w = header(KIND_REQUEST, VERB_OBSERVE, request_id);
            w.put_u64(*session);
            w.put_u32(*max);
            w
        }
        Request::Checkpoint { session } => {
            let mut w = header(KIND_REQUEST, VERB_CHECKPOINT, request_id);
            w.put_u64(*session);
            w
        }
        Request::Evict { session } => {
            let mut w = header(KIND_REQUEST, VERB_EVICT, request_id);
            w.put_u64(*session);
            w
        }
        Request::Resume { workload, snapshot } => {
            let mut w = header(KIND_REQUEST, VERB_RESUME, request_id);
            workload.encode(&mut w);
            w.put_blob(snapshot);
            w
        }
        Request::Stats => header(KIND_REQUEST, VERB_STATS, request_id),
    };
    // Requests with no payload still flow through the same sealing path.
    w.put_u8(0);
    w.frame()
}

/// Decodes a request body (a frame with the length prefix already
/// stripped by [`take_frame`]).
///
/// # Errors
///
/// Malformed input of any shape is a typed [`ServeError`]; never panics.
pub fn decode_request(body: &[u8]) -> Result<(u32, Request), ServeError> {
    let mut r = Reader::new(body);
    let (kind, verb, id) = decode_header(&mut r)?;
    if kind != KIND_REQUEST {
        return Err(ServeError::Frame(FrameError::BadPayload(
            "reply frame where a request was expected",
        )));
    }
    let request = match verb {
        VERB_SUBMIT => {
            let seed = r.take_u64()?;
            let workload = WorkloadSpec::decode(&mut r)?;
            let config = config_from_bytes(r.take_blob()?)?;
            Request::Submit {
                seed,
                workload,
                config: Box::new(config),
            }
        }
        VERB_STEP => {
            let session = r.take_u64()?;
            let generations = r.take_u32()?;
            if generations == 0 {
                return Err(ServeError::Frame(FrameError::BadPayload(
                    "step of zero generations",
                )));
            }
            Request::Step {
                session,
                generations,
            }
        }
        VERB_OBSERVE => Request::Observe {
            session: r.take_u64()?,
            max: r.take_u32()?,
        },
        VERB_CHECKPOINT => Request::Checkpoint {
            session: r.take_u64()?,
        },
        VERB_EVICT => Request::Evict {
            session: r.take_u64()?,
        },
        VERB_RESUME => {
            let workload = WorkloadSpec::decode(&mut r)?;
            let snapshot = r.take_blob()?.to_vec();
            Request::Resume { workload, snapshot }
        }
        VERB_STATS => Request::Stats,
        other => return Err(ServeError::Frame(FrameError::UnknownVerb(other))),
    };
    if r.take_u8()? != 0 {
        return Err(ServeError::Frame(FrameError::BadPayload("seal byte")));
    }
    r.finish()?;
    Ok((id, request))
}

/// Encodes a reply — or a wire error — into a complete frame.
pub fn encode_reply(request_id: u32, result: &Result<Reply, ServeError>) -> Vec<u8> {
    let w = match result {
        Err(e) => {
            let mut w = header(KIND_REPLY, TAG_ERROR, request_id);
            w.put_u32(e.code());
            w.put_blob(e.to_string().as_bytes());
            w
        }
        Ok(Reply::Submitted {
            session,
            generation,
        }) => {
            let mut w = header(KIND_REPLY, TAG_SUBMITTED, request_id);
            w.put_u64(*session);
            w.put_u64(*generation);
            w
        }
        Ok(Reply::Stepped {
            session,
            generation,
            event,
        }) => {
            let mut w = header(KIND_REPLY, TAG_STEPPED, request_id);
            w.put_u64(*session);
            w.put_u64(*generation);
            w.put_blob(&event_to_bytes(event));
            w
        }
        Ok(Reply::Events { session, events }) => {
            let mut w = header(KIND_REPLY, TAG_EVENTS, request_id);
            w.put_u64(*session);
            w.put_u32(events.len() as u32);
            for event in events {
                w.put_blob(&event_to_bytes(event));
            }
            w
        }
        Ok(Reply::Snapshot { session, image }) => {
            let mut w = header(KIND_REPLY, TAG_SNAPSHOT, request_id);
            w.put_u64(*session);
            w.put_blob(image);
            w
        }
        Ok(Reply::Evicted { session }) => {
            let mut w = header(KIND_REPLY, TAG_EVICTED, request_id);
            w.put_u64(*session);
            w
        }
        Ok(Reply::Stats(s)) => {
            let mut w = header(KIND_REPLY, TAG_STATS, request_id);
            for v in [
                s.sessions,
                s.resident,
                s.evicted,
                s.generations,
                s.evictions,
                s.rehydrations,
                s.max_sessions,
                s.max_resident,
                s.dropped_events,
            ] {
                w.put_u64(v);
            }
            w
        }
    };
    let mut w = w;
    w.put_u8(0);
    w.frame()
}

/// Decodes a reply body. Wire errors surface as `Ok((id,
/// Err(ServeError::Remote { .. })))` — the outer `Err` is reserved for
/// bodies this client cannot parse at all.
///
/// # Errors
///
/// Malformed input of any shape is a typed [`ServeError`]; never panics.
#[allow(clippy::type_complexity)]
pub fn decode_reply(body: &[u8]) -> Result<(u32, Result<Reply, ServeError>), ServeError> {
    let mut r = Reader::new(body);
    let (kind, tag, id) = decode_header(&mut r)?;
    if kind != KIND_REPLY {
        return Err(ServeError::Frame(FrameError::BadPayload(
            "request frame where a reply was expected",
        )));
    }
    let result = match tag {
        TAG_ERROR => {
            let code = r.take_u32()?;
            let message = String::from_utf8_lossy(r.take_blob()?).into_owned();
            Err(ServeError::Remote { code, message })
        }
        TAG_SUBMITTED => Ok(Reply::Submitted {
            session: r.take_u64()?,
            generation: r.take_u64()?,
        }),
        TAG_STEPPED => {
            let session = r.take_u64()?;
            let generation = r.take_u64()?;
            let event = event_from_bytes(r.take_blob()?)?;
            Ok(Reply::Stepped {
                session,
                generation,
                event: Box::new(event),
            })
        }
        TAG_EVENTS => {
            let session = r.take_u64()?;
            let count = r.take_u32()? as usize;
            // Each event blob is ≥ 4 bytes of length prefix; reject
            // counts the body cannot possibly hold before allocating.
            if count > body.len() / 4 {
                return Err(ServeError::Frame(FrameError::Truncated {
                    offset: body.len(),
                }));
            }
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                events.push(event_from_bytes(r.take_blob()?)?);
            }
            Ok(Reply::Events { session, events })
        }
        TAG_SNAPSHOT => {
            let session = r.take_u64()?;
            let image = r.take_blob()?.to_vec();
            Ok(Reply::Snapshot { session, image })
        }
        TAG_EVICTED => Ok(Reply::Evicted {
            session: r.take_u64()?,
        }),
        TAG_STATS => {
            let mut vals = [0u64; 9];
            for v in &mut vals {
                *v = r.take_u64()?;
            }
            Ok(Reply::Stats(ServerStats {
                sessions: vals[0],
                resident: vals[1],
                evicted: vals[2],
                generations: vals[3],
                evictions: vals[4],
                rehydrations: vals[5],
                max_sessions: vals[6],
                max_resident: vals[7],
                dropped_events: vals[8],
            }))
        }
        other => return Err(ServeError::Frame(FrameError::UnknownTag(other))),
    };
    if r.take_u8()? != 0 {
        return Err(ServeError::Frame(FrameError::BadPayload("seal byte")));
    }
    r.finish()?;
    Ok((id, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_gym::EnvKind;

    fn specs() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Synthetic,
            WorkloadSpec::Env {
                kind: EnvKind::CartPole,
                episodes: 2,
            },
            WorkloadSpec::Drifting {
                world_seed: 7,
                period: 40,
            },
        ]
    }

    #[test]
    fn requests_roundtrip_through_frames() {
        let config = genesys_neat::NeatConfig::builder(4, 2)
            .pop_size(10)
            .build()
            .unwrap();
        let mut requests = vec![
            Request::Step {
                session: 3,
                generations: 5,
            },
            Request::Observe { session: 3, max: 8 },
            Request::Checkpoint { session: 9 },
            Request::Evict { session: 9 },
            Request::Resume {
                workload: WorkloadSpec::Synthetic,
                snapshot: vec![1, 2, 3],
            },
            Request::Stats,
        ];
        for workload in specs() {
            requests.push(Request::Submit {
                seed: 42,
                workload,
                config: Box::new(config.clone()),
            });
        }
        for (i, request) in requests.into_iter().enumerate() {
            let id = i as u32 + 10;
            let frame = encode_request(id, &request);
            let mut buf = frame.clone();
            let body = take_complete_frame(&mut buf);
            assert!(buf.is_empty());
            assert_eq!(request_id_of(&body), Some(id));
            let (got_id, got) = decode_request(&body).unwrap();
            assert_eq!(got_id, id);
            assert_eq!(got, request);
        }
    }

    /// Takes exactly one complete frame off `buf`, failing the test on
    /// a wire error or an incomplete buffer alike.
    fn take_complete_frame(buf: &mut Vec<u8>) -> Vec<u8> {
        match take_frame(buf) {
            Ok(Some(body)) => body,
            other => panic!("expected one complete frame, got {other:?}"),
        }
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let frame = encode_request(1, &Request::Stats);
        for len in 0..frame.len() {
            let mut buf = frame[..len].to_vec();
            assert_eq!(take_frame(&mut buf).unwrap(), None, "prefix {len}");
            assert_eq!(buf.len(), len, "partial frames are not consumed");
        }
    }

    #[test]
    fn oversize_frames_are_rejected_before_buffering() {
        let mut buf = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        assert!(matches!(
            take_frame(&mut buf),
            Err(ServeError::Frame(FrameError::Oversize { .. }))
        ));
    }

    /// Tag 2 is `[world_seed: u64] [period: u64]`: a drifting workload
    /// is always CartPole, so the spec carries no env code.
    #[test]
    fn drifting_spec_layout_is_pinned() {
        let request = Request::Resume {
            workload: WorkloadSpec::Drifting {
                world_seed: 5,
                period: 9,
            },
            snapshot: Vec::new(),
        };
        let mut frame = encode_request(1, &request);
        let spec = 4 + HEADER_BYTES;
        let mut want = vec![2, 0];
        want.extend_from_slice(&5u64.to_le_bytes());
        want.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(frame[spec..spec + want.len()], want[..]);
        let body = take_complete_frame(&mut frame);
        assert_eq!(decode_request(&body).unwrap(), (1, request));
    }

    #[test]
    fn step_zero_is_a_typed_error() {
        let mut frame = encode_request(
            1,
            &Request::Step {
                session: 0,
                generations: 1,
            },
        );
        // Zero out the generations field (last 5 bytes are u32 + seal).
        let n = frame.len();
        frame[n - 5..n - 1].fill(0);
        let body = take_frame(&mut frame.clone().to_vec()).unwrap().unwrap();
        assert!(matches!(
            decode_request(&body),
            Err(ServeError::Frame(FrameError::BadPayload(_)))
        ));
    }

    #[test]
    fn replies_roundtrip_through_frames() {
        let event = OwnedGenerationEvent {
            stats: genesys_neat::GenerationStats::collect(1, &[], 0, None, 9),
            best: None,
        };
        let replies: Vec<Result<Reply, ServeError>> = vec![
            Ok(Reply::Submitted {
                session: 4,
                generation: 0,
            }),
            Ok(Reply::Stepped {
                session: 4,
                generation: 6,
                event: Box::new(event.clone()),
            }),
            Ok(Reply::Events {
                session: 4,
                events: vec![event.clone(), event],
            }),
            Ok(Reply::Snapshot {
                session: 4,
                image: vec![9, 8, 7],
            }),
            Ok(Reply::Evicted { session: 4 }),
            Ok(Reply::Stats(ServerStats {
                sessions: 1,
                resident: 1,
                evicted: 0,
                generations: 12,
                evictions: 3,
                rehydrations: 2,
                max_sessions: 64,
                max_resident: 8,
                dropped_events: 5,
            })),
            Err(ServeError::UnknownSession(77)),
        ];
        for (i, reply) in replies.into_iter().enumerate() {
            let id = i as u32;
            let frame = encode_reply(id, &reply);
            let mut buf = frame;
            let body = take_frame(&mut buf).unwrap().unwrap();
            let (got_id, got) = decode_reply(&body).unwrap();
            assert_eq!(got_id, id);
            match (&reply, &got) {
                (Err(e), Err(ServeError::Remote { code, message })) => {
                    assert_eq!(*code, e.code(), "wire code preserved");
                    assert_eq!(message, &e.to_string());
                }
                _ => assert_eq!(got, reply),
            }
        }
    }

    #[test]
    fn pipelined_frames_drain_in_order() {
        let mut buf = Vec::new();
        for id in 0..4u32 {
            buf.extend_from_slice(&encode_request(id, &Request::Stats));
        }
        for id in 0..4u32 {
            let body = take_complete_frame(&mut buf);
            assert_eq!(decode_request(&body).unwrap().0, id);
        }
        assert_eq!(take_frame(&mut buf).unwrap(), None);
    }
}
