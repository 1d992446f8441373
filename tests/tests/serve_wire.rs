//! End-to-end test of the binary wire protocol and the non-blocking
//! socket front end: a real TCP client streams radar frames to a
//! [`ServeServer`] wrapping a two-shard engine, all on one thread (the
//! client socket is non-blocking and the server is driven by
//! `poll_once`), and the skeletons read back off the wire are bitwise
//! identical to the sequential pipeline's.

use mmhand_core::{tiny, MmHandPipeline};
use mmhand_radar::RawFrame;
use mmhand_serve::wire::{encode, Decoder, WireMsg, WIRE_VERSION};
use mmhand_serve::{
    InferenceProfile, MeshPolicy, Precision, RejectCode, ServeConfig, ServeServer, ShardedServe,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

fn tiny_pipeline() -> MmHandPipeline {
    tiny::pipeline(29, &stream(97, 12), None).expect("tiny pipeline assembles")
}

fn stream(seed: u64, frames: usize) -> Vec<RawFrame> {
    tiny::stream(seed as usize + 1, seed, frames)
}

/// A single-threaded non-blocking wire client.
struct Client {
    stream: TcpStream,
    decoder: Decoder,
    inbox: Vec<WireMsg>,
}

impl Client {
    fn connect(server: &ServeServer) -> Client {
        let addr = server.local_addr().expect("server addr");
        let stream = TcpStream::connect(addr).expect("client connects");
        stream.set_nonblocking(true).expect("nonblocking client");
        // Without nodelay, Nagle holds every second small control message
        // in the send buffer until the previous packet is ACKed — which a
        // single-threaded poll loop may never see in time.
        stream.set_nodelay(true).expect("client nodelay");
        Client { stream, decoder: Decoder::new(), inbox: Vec::new() }
    }

    fn send(&mut self, msg: &WireMsg) {
        let mut bytes = Vec::new();
        encode(msg, &mut bytes);
        // The test payloads are far below the socket buffer size, so a
        // blocking-free write_all is safe here.
        self.stream.write_all(&bytes).expect("client write");
    }

    /// Reads whatever arrived and decodes complete messages.
    fn pump(&mut self) {
        let mut scratch = [0u8; 8192];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => self.decoder.push_bytes(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("client read: {e}"),
            }
        }
        while let Some(msg) = self.decoder.next_msg().expect("valid server stream") {
            self.inbox.push(msg);
        }
    }
}

/// Two sessions stream interleaved over one TCP connection to a two-shard
/// server; every skeleton read off the wire matches the sequential
/// pipeline bitwise.
#[test]
fn wire_results_match_sequential_pipeline_bitwise() {
    let n_sessions = 2;
    let frames_per_session = 26;
    let pipeline = tiny_pipeline();
    let st = pipeline.builder().config().frames_per_segment;
    let segments = frames_per_session / st;
    let streams: Vec<Vec<RawFrame>> =
        (0..n_sessions).map(|k| stream(50 + k as u64, frames_per_session)).collect();

    let reference: Vec<Vec<Vec<f32>>> = streams
        .iter()
        .map(|s| {
            let mut p = pipeline.clone();
            p.try_estimate(s).expect("reference estimate").skeletons
        })
        .collect();

    let serve = ShardedServe::new(
        pipeline,
        2,
        ServeConfig::new()
            .max_batch(n_sessions)
            .queue_capacity(frames_per_session)
            .profile(InferenceProfile::from_env().mesh_policy(MeshPolicy::Never)),
    )
    .expect("sharded serve builds");
    let mut server = ServeServer::bind("127.0.0.1:0", serve).expect("ephemeral bind");
    let mut client = Client::connect(&server);

    client.send(&WireMsg::Hello {
        version: WIRE_VERSION,
        precision: server.serve().precision(),
    });
    for _ in 0..n_sessions {
        client.send(&WireMsg::Open);
    }
    server.poll_once().expect("poll handles opens");
    client.pump();
    let ids: Vec<u64> = client
        .inbox
        .drain(..)
        .map(|m| match m {
            WireMsg::Opened { session } => session,
            other => panic!("expected Opened, got {other:?}"),
        })
        .collect();
    assert_eq!(ids.len(), n_sessions, "both sessions opened over the wire");

    // Stream all frames, interleaved across sessions, then poll the server
    // until every segment's result came back.
    for (k, &sid) in ids.iter().enumerate() {
        for f in &streams[k] {
            client.send(&WireMsg::Push { session: sid, frame: f.clone() });
        }
    }
    let mut collected: BTreeMap<u64, Vec<(u64, Vec<f32>)>> = BTreeMap::new();
    for _ in 0..(segments * 8) {
        server.poll_once().expect("poll streams");
        client.pump();
        for msg in client.inbox.drain(..) {
            match msg {
                WireMsg::Result { session, segment_index, skeleton, mesh_skipped } => {
                    assert!(mesh_skipped, "MeshPolicy::Never skips every mesh");
                    collected.entry(session).or_default().push((segment_index, skeleton));
                }
                other => panic!("unexpected server message: {other:?}"),
            }
        }
        if collected.values().map(|v| v.len()).sum::<usize>() == n_sessions * segments {
            break;
        }
    }

    for (k, &sid) in ids.iter().enumerate() {
        let got = collected.get(&sid).expect("session produced results");
        assert_eq!(got.len(), segments, "session {k} segment count over the wire");
        for (i, (segment_index, skeleton)) in got.iter().enumerate() {
            assert_eq!(*segment_index as usize, i, "segments arrive in order");
            assert_eq!(
                skeleton, &reference[k][i],
                "session {k} segment {i}: wire skeleton diverged from the sequential pipeline"
            );
        }
    }

    // Close both sessions; stats travel back over the wire.
    for &sid in &ids {
        client.send(&WireMsg::Close { session: sid });
    }
    for _ in 0..4 {
        server.poll_once().expect("poll handles closes");
        client.pump();
        if client.inbox.len() >= n_sessions {
            break;
        }
    }
    let mut closed = 0;
    for msg in client.inbox.drain(..) {
        match msg {
            WireMsg::Closed { stats, .. } => {
                assert_eq!(stats.frames_in, frames_per_session as u64);
                assert_eq!(stats.segments_out, segments as u64);
                closed += 1;
            }
            other => panic!("unexpected server message at close: {other:?}"),
        }
    }
    assert_eq!(closed, n_sessions);
    assert_eq!(server.serve().active_sessions(), 0);
}

/// Requests against a session id the connection does not own are answered
/// with a typed reject, not silence and not a disconnect.
#[test]
fn foreign_session_ids_get_typed_rejects() {
    let serve = ShardedServe::new(
        tiny_pipeline(),
        1,
        ServeConfig::new().profile(InferenceProfile::from_env().mesh_policy(MeshPolicy::Never)),
    )
    .expect("sharded serve builds");
    let mut server = ServeServer::bind("127.0.0.1:0", serve).expect("ephemeral bind");
    let mut client = Client::connect(&server);

    client.send(&WireMsg::Hello {
        version: WIRE_VERSION,
        precision: server.serve().precision(),
    });
    client.send(&WireMsg::Poll { session: 0xDEAD });
    client.send(&WireMsg::Close { session: 0xBEEF });
    for _ in 0..3 {
        server.poll_once().expect("poll handles rejects");
        client.pump();
        if client.inbox.len() >= 2 {
            break;
        }
    }
    assert_eq!(client.inbox.len(), 2);
    for msg in client.inbox.drain(..) {
        match msg {
            WireMsg::Reject { code, .. } => assert_eq!(code, RejectCode::UnknownSession),
            other => panic!("expected rejects, got {other:?}"),
        }
    }
    // The connection survives rejects — a new Open still works.
    client.send(&WireMsg::Open);
    for _ in 0..3 {
        server.poll_once().expect("poll handles open");
        client.pump();
        if !client.inbox.is_empty() {
            break;
        }
    }
    assert!(
        matches!(client.inbox.first(), Some(WireMsg::Opened { .. })),
        "connection stays usable after rejects"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every supported (version, precision) Hello survives an
    /// encode/decode round trip; the one version is [`WIRE_VERSION`].
    #[test]
    fn hello_round_trips_across_supported_versions(int8 in 0u8..2) {
        let precision = if int8 == 1 { Precision::Int8 } else { Precision::F32 };
        let msg = WireMsg::Hello { version: WIRE_VERSION, precision };
        let mut bytes = Vec::new();
        encode(&msg, &mut bytes);
        let mut dec = Decoder::new();
        dec.push_bytes(&bytes);
        let got = dec.next_msg().expect("well-formed Hello decodes").expect("complete");
        match got {
            WireMsg::Hello { version: v, precision: p } => {
                prop_assert_eq!(v, WIRE_VERSION);
                prop_assert_eq!(p, precision);
            }
            other => {
                prop_assert!(false, "expected Hello, decoded {other:?}");
            }
        }
        prop_assert!(dec.next_msg().expect("no trailing error").is_none());
    }

    /// Feeding any strict prefix of an encoded Hello never panics and
    /// never yields a message: the decoder just reports "incomplete".
    #[test]
    fn truncated_hellos_stay_incomplete_without_panicking(
        int8 in 0u8..2,
        cut_fraction in 0.0f64..1.0,
    ) {
        let precision = if int8 == 1 { Precision::Int8 } else { Precision::F32 };
        let mut bytes = Vec::new();
        encode(&WireMsg::Hello { version: WIRE_VERSION, precision }, &mut bytes);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < bytes.len());
        let mut dec = Decoder::new();
        dec.push_bytes(&bytes[..cut]);
        prop_assert!(dec.next_msg().expect("prefix is never an error").is_none());
        // Delivering the remainder completes the message.
        dec.push_bytes(&bytes[cut..]);
        prop_assert!(dec.next_msg().expect("completed Hello decodes").is_some());
    }
}
