//! Property tests on the serve wire protocol: request/reply codecs are a
//! fixed point on well-formed messages, and corrupt input of every shape
//! — truncation, bit flips, byte soup — returns a typed [`ServeError`]
//! with a stable numeric code and never panics.

use genesys::gym::EnvKind;
use genesys::neat::{
    trace::OpCounters, GenerationStats, NeatConfig, PopulationDiagnostics, SessionError,
};
use genesys::serve::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, request_id_of, take_frame,
};
use genesys::serve::{
    FrameError, Reply, Request, ServeError, ServerStats, WorkloadSpec, PROTOCOL_VERSION,
};
use genesys::{BestSummary, OwnedGenerationEvent};
use proptest::prelude::*;

// The vendored proptest shim has ranges/tuples/`prop_map` but no
// `prop_oneof!`/collections, so the protocol generators are hand-rolled
// `Strategy` impls drawing from the case RNG directly.

struct ArbWorkload;

impl Strategy for ArbWorkload {
    type Value = WorkloadSpec;

    fn sample(&self, rng: &mut TestRng) -> WorkloadSpec {
        match rng.next_u64() % 3 {
            0 => WorkloadSpec::Synthetic,
            1 => WorkloadSpec::Env {
                kind: EnvKind::ALL[(rng.next_u64() % EnvKind::ALL.len() as u64) as usize],
                episodes: 1 + (rng.next_u64() % 3) as u32,
            },
            _ => WorkloadSpec::Drifting {
                world_seed: rng.next_u64(),
                period: 1 + rng.next_u64() % 100,
            },
        }
    }
}

struct ArbRequest;

impl Strategy for ArbRequest {
    type Value = Request;

    fn sample(&self, rng: &mut TestRng) -> Request {
        match rng.next_u64() % 7 {
            0 => Request::Submit {
                seed: rng.next_u64(),
                workload: ArbWorkload.sample(rng),
                config: Box::new(
                    NeatConfig::builder(
                        1 + (rng.next_u64() % 5) as usize,
                        1 + (rng.next_u64() % 3) as usize,
                    )
                    .pop_size(2 + (rng.next_u64() % 38) as usize)
                    .build()
                    .expect("valid config"),
                ),
            },
            1 => Request::Step {
                session: rng.next_u64(),
                generations: 1 + (rng.next_u64() % 999) as u32,
            },
            2 => Request::Observe {
                session: rng.next_u64(),
                max: rng.next_u64() as u32,
            },
            3 => Request::Checkpoint {
                session: rng.next_u64(),
            },
            4 => Request::Evict {
                session: rng.next_u64(),
            },
            5 => Request::Resume {
                workload: ArbWorkload.sample(rng),
                snapshot: arb_bytes(rng, 256),
            },
            _ => Request::Stats,
        }
    }
}

struct ArbReply;

impl Strategy for ArbReply {
    type Value = Reply;

    fn sample(&self, rng: &mut TestRng) -> Reply {
        match rng.next_u64() % 6 {
            0 => Reply::Submitted {
                session: rng.next_u64(),
                generation: rng.next_u64(),
            },
            1 => Reply::Stepped {
                session: rng.next_u64(),
                generation: rng.next_u64(),
                event: Box::new(arb_event(rng)),
            },
            2 => Reply::Events {
                session: rng.next_u64(),
                events: (0..rng.next_u64() % 5).map(|_| arb_event(rng)).collect(),
            },
            3 => Reply::Snapshot {
                session: rng.next_u64(),
                image: arb_bytes(rng, 512),
            },
            4 => Reply::Evicted {
                session: rng.next_u64(),
            },
            _ => Reply::Stats(ServerStats {
                sessions: rng.next_u64(),
                resident: rng.next_u64(),
                evicted: rng.next_u64(),
                generations: rng.next_u64(),
                evictions: rng.next_u64(),
                rehydrations: rng.next_u64(),
                max_sessions: 4096,
                max_resident: 256,
                dropped_events: rng.next_u64(),
            }),
        }
    }
}

fn arb_bytes(rng: &mut TestRng, max: usize) -> Vec<u8> {
    let n = (rng.next_u64() as usize) % max;
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn arb_event(rng: &mut TestRng) -> OwnedGenerationEvent {
    let stats = GenerationStats {
        generation: (rng.next_u64() % 10_000) as usize,
        max_fitness: rng.unit_f64() * 100.0,
        mean_fitness: rng.unit_f64() * 50.0,
        min_fitness: -rng.unit_f64(),
        num_species: (rng.next_u64() % 64) as usize,
        total_nodes: (rng.next_u64() % 4096) as usize,
        total_conns: (rng.next_u64() % 8192) as usize,
        total_genes: (rng.next_u64() % 12_000) as usize,
        max_genome_genes: (rng.next_u64() % 512) as usize,
        memory_bytes: (rng.next_u64() % (1 << 20)) as usize,
        ops: OpCounters {
            crossover: rng.next_u64() % 1000,
            perturb: rng.next_u64() % 1000,
            add_node: rng.next_u64() % 100,
            add_conn: rng.next_u64() % 100,
            delete_node: rng.next_u64() % 100,
            delete_conn: rng.next_u64() % 100,
        },
        fittest_parent_reuse: (rng.next_u64() % 32) as usize,
        inference_macs: rng.next_u64() % (1 << 40),
        env_steps: rng.next_u64() % (1 << 30),
        diagnostics: PopulationDiagnostics {
            high_order_entropy: rng.unit_f64() * 9.0 / 8.0,
            unique_genomes: (rng.next_u64() % 4096) as usize,
            species_entropy: rng.unit_f64() * 4.0,
            largest_species: (rng.next_u64() % 4096) as usize,
        },
        speciate_ns: rng.next_u64() % (1 << 34),
        reproduce_ns: rng.next_u64() % (1 << 34),
        eval_ns: rng.next_u64() % (1 << 34),
    };
    let best = (rng.next_u64().is_multiple_of(2)).then(|| BestSummary {
        key: rng.next_u64(),
        fitness: (rng.next_u64().is_multiple_of(2)).then(|| rng.unit_f64() * 10.0),
        nodes: (rng.next_u64() % 128) as usize,
        conns: (rng.next_u64() % 256) as usize,
    });
    OwnedGenerationEvent { stats, best }
}

/// Every error the server can put on the wire, with its pinned code.
/// Renumbering any of these is a protocol break — this list is the
/// compatibility contract, so extend it but never edit existing rows.
fn pinned_errors() -> Vec<(ServeError, u32)> {
    vec![
        (ServeError::Frame(FrameError::Truncated { offset: 3 }), 100),
        (
            ServeError::Frame(FrameError::Oversize { len: 1 << 40 }),
            101,
        ),
        (ServeError::Frame(FrameError::BadVersion(9)), 102),
        (ServeError::Frame(FrameError::UnknownVerb(77)), 103),
        (ServeError::Frame(FrameError::UnknownTag(88)), 104),
        (ServeError::Frame(FrameError::BadPayload("x")), 105),
        (ServeError::UnknownSession(5), 200),
        (ServeError::ServerFull { live: 2, cap: 2 }, 201),
        (ServeError::SessionBusy(5), 202),
        (
            ServeError::WorkloadInterface {
                workload: (4, 1),
                config: (3, 2),
            },
            203,
        ),
        (
            ServeError::Session(SessionError::CounterBehind {
                counter: "next_key",
                value: 0,
                id: 63,
            }),
            409,
        ),
        (ServeError::Io("gone".into()), 500),
        (ServeError::Disconnected, 501),
        (ServeError::TooManyConnections { cap: 256 }, 502),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode → frame-extract → decode is the identity on requests, and
    /// the best-effort id peek agrees with the full decode.
    #[test]
    fn requests_roundtrip(id in any::<u32>(), request in ArbRequest) {
        let frame = encode_request(id, &request);
        let mut buf = frame.clone();
        let body = take_frame(&mut buf).unwrap().expect("whole frame present");
        prop_assert!(buf.is_empty());
        prop_assert_eq!(request_id_of(&body), Some(id));
        let (got_id, got) = decode_request(&body).expect("well-formed request");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, request);
    }

    /// Same fixed point for replies.
    #[test]
    fn replies_roundtrip(id in any::<u32>(), reply in ArbReply) {
        let mut buf = encode_reply(id, &Ok(reply.clone()));
        let body = take_frame(&mut buf).unwrap().expect("whole frame present");
        let (got_id, got) = decode_reply(&body).expect("well-formed reply");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got.expect("ok reply"), reply);
    }

    /// Any strict prefix of a request body decodes to a typed error in
    /// the frame range — never a panic, never a bogus success.
    #[test]
    fn truncated_bodies_are_typed_errors(request in ArbRequest, cut in 0.0f64..1.0) {
        let frame = encode_request(7, &request);
        let body = &frame[4..];
        let cut = ((body.len() as f64) * cut) as usize;
        if cut < body.len() {
            match decode_request(&body[..cut]) {
                Ok(_) => prop_assert!(false, "truncated body decoded successfully"),
                Err(e) => {
                    let code = e.code();
                    prop_assert!((100..=105).contains(&code), "unexpected code {code}");
                }
            }
        }
    }

    /// A single flipped bit anywhere in the body never panics the
    /// decoder; failures carry codes from the frame or snapshot ranges
    /// (a Submit body embeds a config image, so checksum errors are
    /// legitimate outcomes).
    #[test]
    fn bit_flips_never_panic(request in ArbRequest, at in 0.0f64..1.0, bit in 0u8..8) {
        let frame = encode_request(3, &request);
        let mut body = frame[4..].to_vec();
        let at = (((body.len() - 1) as f64) * at) as usize;
        body[at] ^= 1 << bit;
        if let Err(e) = decode_request(&body) {
            let code = e.code();
            prop_assert!(
                (100..=105).contains(&code)
                    || (300..=399).contains(&code)
                    || (400..=499).contains(&code),
                "unexpected code {code}"
            );
        }
        // A flip in a don't-care position may still decode; the property
        // is the absence of panics and of untyped errors.
    }

    /// Arbitrary byte soup through the frame extractor: complete frames
    /// come out, incomplete ones wait, oversize prefixes are rejected —
    /// and nothing panics downstream in either decoder.
    #[test]
    fn byte_soup_never_panics(seed in any::<u64>(), len in 0usize..64) {
        let mut rng = TestRng::deterministic(seed);
        let mut buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        match take_frame(&mut buf) {
            Ok(Some(body)) => {
                let _ = decode_request(&body);
                let _ = decode_reply(&body);
            }
            Ok(None) => {}
            Err(e) => prop_assert_eq!(e.code(), 101, "only oversize kills framing"),
        }
    }
}

#[test]
fn error_codes_are_pinned_across_the_wire() {
    for (error, code) in pinned_errors() {
        assert_eq!(error.code(), code, "code changed for {error:?}");
        let mut buf = encode_reply(11, &Err(error));
        let body = take_frame(&mut buf).unwrap().expect("whole frame");
        let (id, result) = decode_reply(&body).expect("error replies are well-formed");
        assert_eq!(id, 11);
        match result {
            Err(ServeError::Remote {
                code: remote_code, ..
            }) => assert_eq!(remote_code, code),
            other => panic!("expected Remote error, got {other:?}"),
        }
    }
}

/// Protocol v3: every body opens with version byte 3, and a v2 body is
/// rejected as `BadVersion` (102), never guessed at.
#[test]
fn protocol_version_is_pinned_at_3() {
    assert_eq!(PROTOCOL_VERSION, 3);
    let mut buf = encode_request(1, &Request::Stats);
    let mut body = take_frame(&mut buf).unwrap().expect("whole frame present");
    assert_eq!(body[0], 3);
    body[0] = 2;
    let err = decode_request(&body).unwrap_err();
    assert_eq!(err, ServeError::Frame(FrameError::BadVersion(2)));
    assert_eq!(err.code(), 102);
}

#[test]
fn remote_errors_preserve_the_rendered_message() {
    let err = ServeError::UnknownSession(42);
    let rendered = err.to_string();
    let mut buf = encode_reply(1, &Err(err));
    let body = take_frame(&mut buf).unwrap().unwrap();
    let (_, result) = decode_reply(&body).unwrap();
    match result {
        Err(ServeError::Remote { message, .. }) => assert_eq!(message, rendered),
        other => panic!("expected Remote error, got {other:?}"),
    }
}
