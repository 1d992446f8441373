//! Non-blocking TCP front end over [`ShardedServe`].
//!
//! The server keeps the workspace's synchronous, caller-owned execution
//! model: there is no background thread and no async runtime. The embedder
//! (the `mmhand-serve` binary, the load generator, a test) calls
//! [`ServeServer::poll_once`] in its loop; each call
//!
//! 1. accepts any pending connections (non-blocking),
//! 2. reads whatever bytes each socket has, feeding the per-connection
//!    incremental [`Decoder`] and dispatching every
//!    complete [`WireMsg`] into the sharded engine,
//! 3. advances the engine one [`step`](ShardedServe::step) (shards run in
//!    parallel over the `mmhand-parallel` pool),
//! 4. serialises every fresh result back onto its owner connection, and
//! 5. flushes write buffers as far as the sockets allow.
//!
//! Because the step in (3) is the same deterministic micro-batch step the
//! in-process API uses, skeletons delivered over the wire are bitwise
//! identical to in-process results — the transport adds framing, never
//! arithmetic.
//!
//! ## Connection and session hygiene
//!
//! Sessions are owned by the connection that opened them. A connection
//! that disconnects (EOF, I/O error, protocol violation) has all its
//! sessions closed, so abandoned clients cannot pin engine memory; the
//! bounded tombstone ring in each shard covers the eviction side. Protocol
//! violations are answered with a [`RejectCode::Protocol`] reject where
//! the socket still accepts writes, then the connection is dropped — the
//! decoder never attempts to resynchronise a corrupt stream.
//!
//! The wire protocol serialises skeletons only; mesh vertices stay
//! in-process (run the socket front end with
//! [`MeshPolicy::Never`](crate::MeshPolicy) or a backlog-skipping policy
//! unless an embedder also consumes meshes locally).

use crate::error::ServeError;
use crate::shard::{ShardStepReport, ShardedServe};
use crate::wire::{encode, Decoder, RejectCode, WireMsg};
use mmhand_telemetry as telemetry;
use std::collections::BTreeSet;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Per-connection read budget per poll, in bytes. Bounds how much one
/// chatty client can buffer server-side between engine steps.
const READ_BUDGET: usize = 256 * 1024;

/// What one [`ServeServer::poll_once`] call did.
#[derive(Debug, Default)]
pub struct NetReport {
    /// Connections accepted this poll.
    pub accepted: usize,
    /// Connections dropped this poll (EOF, error, protocol violation).
    pub dropped: usize,
    /// Complete client messages dispatched.
    pub messages: usize,
    /// Result messages serialised onto connections.
    pub results_sent: usize,
    /// The engine step report (`None` if the engine had no open sessions
    /// and no connection activity, in which case the step was skipped).
    pub step: Option<ShardStepReport>,
}

struct Conn {
    stream: TcpStream,
    decoder: Decoder,
    /// Pending outbound bytes (`outpos..` is unsent).
    outbuf: Vec<u8>,
    outpos: usize,
    /// Whether the protocol preamble arrived.
    hello_seen: bool,
    /// Sessions opened by this connection.
    sessions: BTreeSet<u64>,
    /// Set when the connection must be dropped after the current flush.
    dead: bool,
}

impl Conn {
    fn send(&mut self, msg: &WireMsg) {
        encode(msg, &mut self.outbuf);
    }
}

fn reject_code(err: &ServeError) -> RejectCode {
    match err {
        ServeError::QueueFull { .. } => RejectCode::QueueFull,
        ServeError::SessionLimit { .. } => RejectCode::SessionLimit,
        ServeError::UnknownSession { .. } => RejectCode::UnknownSession,
        ServeError::SessionEvicted { .. } => RejectCode::SessionEvicted,
        ServeError::Pipeline(_) => RejectCode::BadFrame,
        ServeError::Wire(_) => RejectCode::Protocol,
        ServeError::InvalidConfig { .. } | ServeError::Io(_) => RejectCode::Internal,
    }
}

/// The non-blocking socket front end. See the module docs for the
/// execution model.
pub struct ServeServer {
    listener: TcpListener,
    serve: ShardedServe,
    conns: Vec<Conn>,
}

impl ServeServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and wraps `serve`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the bind fails.
    pub fn bind(addr: &str, serve: ShardedServe) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(ServeServer { listener, serve, conns: Vec::new() })
    }

    /// The bound address (resolves ephemeral ports for clients).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// Open connections right now.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// The wrapped sharded engine (telemetry, config, direct inspection).
    pub fn serve(&self) -> &ShardedServe {
        &self.serve
    }

    /// Runs one accept → read/dispatch → step → write cycle.
    ///
    /// Never blocks: sockets are non-blocking and `WouldBlock` is treated
    /// as "done for this poll". Per-client failures (disconnects, protocol
    /// violations, rejected requests) are handled inline and reported via
    /// [`NetReport`]; only engine-level failures escape as errors.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for listener-level failures and
    /// propagates pipeline errors from the engine step.
    pub fn poll_once(&mut self) -> Result<NetReport, ServeError> {
        let mut report = NetReport::default();
        self.accept_pending(&mut report)?;
        self.read_and_dispatch(&mut report);

        // Step the engine only when it can do something: skipping the
        // step on a fully idle server keeps a spinning embedder loop from
        // burning pool wakeups.
        if self.serve.active_sessions() > 0 {
            let step = self.serve.step()?;
            // Evicted sessions vanish server-side; disown them so a later
            // Close from the client gets the engine's typed answer
            // (SessionEvicted) rather than a connection-level unknown.
            if !step.evicted.is_empty() {
                for conn in &mut self.conns {
                    for id in &step.evicted {
                        conn.sessions.remove(id);
                    }
                }
            }
            report.step = Some(step);
            self.deliver_results(&mut report);
        }

        self.flush_writes();
        self.reap_dead(&mut report);
        telemetry::gauge("serve.net.connections").set(self.conns.len() as f64);
        Ok(report)
    }

    fn accept_pending(&mut self, report: &mut NetReport) -> Result<(), ServeError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(true)?;
                    // Frames are latency-sensitive and already batched at
                    // the protocol layer; don't let Nagle re-batch them.
                    stream.set_nodelay(true)?;
                    self.conns.push(Conn {
                        stream,
                        decoder: Decoder::new(),
                        outbuf: Vec::new(),
                        outpos: 0,
                        hello_seen: false,
                        sessions: BTreeSet::new(),
                        dead: false,
                    });
                    report.accepted += 1;
                    telemetry::counter("serve.net.accepted").inc();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(ServeError::Io(e)),
            }
        }
    }

    fn read_and_dispatch(&mut self, report: &mut NetReport) {
        let mut scratch = [0u8; 8192];
        for i in 0..self.conns.len() {
            let mut budget = READ_BUDGET;
            loop {
                if self.conns[i].dead || budget == 0 {
                    break;
                }
                match self.conns[i].stream.read(&mut scratch) {
                    Ok(0) => {
                        self.conns[i].dead = true;
                    }
                    Ok(n) => {
                        budget = budget.saturating_sub(n);
                        telemetry::counter("serve.net.bytes_in").add(n as u64);
                        self.conns[i].decoder.push_bytes(&scratch[..n]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.conns[i].dead = true;
                    }
                }
            }
            loop {
                if self.conns[i].dead {
                    break;
                }
                match self.conns[i].decoder.next_msg() {
                    Ok(Some(msg)) => {
                        report.messages += 1;
                        self.dispatch(i, msg, report);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        telemetry::counter("serve.net.protocol_errors").inc();
                        self.conns[i].send(&WireMsg::Reject {
                            session: 0,
                            code: RejectCode::Protocol,
                        });
                        self.conns[i].dead = true;
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, i: usize, msg: WireMsg, report: &mut NetReport) {
        let protocol_violation = |conn: &mut Conn| {
            telemetry::counter("serve.net.protocol_errors").inc();
            conn.send(&WireMsg::Reject { session: 0, code: RejectCode::Protocol });
            conn.dead = true;
        };
        if !self.conns[i].hello_seen {
            match msg {
                WireMsg::Hello { precision, .. } => {
                    // The Hello's precision must match the engine's
                    // InferenceProfile: a server runs exactly
                    // one numeric path, so an unservable request gets a
                    // typed reject up front instead of silently different
                    // arithmetic.
                    if precision == self.serve.precision() {
                        self.conns[i].hello_seen = true;
                    } else {
                        telemetry::counter("serve.net.precision_rejected").inc();
                        self.conns[i].send(&WireMsg::Reject {
                            session: 0,
                            code: RejectCode::UnsupportedPrecision,
                        });
                        self.conns[i].dead = true;
                    }
                }
                _ => protocol_violation(&mut self.conns[i]),
            }
            return;
        }
        match msg {
            // A second Hello, or any server→client message from a client,
            // is a protocol violation.
            WireMsg::Hello { .. }
            | WireMsg::Opened { .. }
            | WireMsg::Result { .. }
            | WireMsg::Reject { .. }
            | WireMsg::Closed { .. } => protocol_violation(&mut self.conns[i]),
            WireMsg::Open => match self.serve.open_session() {
                Ok(id) => {
                    self.conns[i].sessions.insert(id);
                    self.conns[i].send(&WireMsg::Opened { session: id });
                }
                Err(e) => {
                    self.conns[i].send(&WireMsg::Reject { session: 0, code: reject_code(&e) });
                }
            },
            WireMsg::Push { session, frame } => {
                if !self.conns[i].sessions.contains(&session) {
                    self.conns[i]
                        .send(&WireMsg::Reject { session, code: RejectCode::UnknownSession });
                    return;
                }
                if let Err(e) = self.serve.push_frame(session, frame) {
                    self.conns[i].send(&WireMsg::Reject { session, code: reject_code(&e) });
                }
            }
            WireMsg::Poll { session } => {
                if !self.conns[i].sessions.contains(&session) {
                    self.conns[i]
                        .send(&WireMsg::Reject { session, code: RejectCode::UnknownSession });
                    return;
                }
                self.drain_session(i, session, report);
            }
            WireMsg::Close { session } => {
                if !self.conns[i].sessions.remove(&session) {
                    self.conns[i]
                        .send(&WireMsg::Reject { session, code: RejectCode::UnknownSession });
                    return;
                }
                // Flush anything still buffered before the session state
                // is torn down — results must not be lost to a races-free
                // close.
                self.drain_session(i, session, report);
                match self.serve.close_session(session) {
                    Ok(stats) => self.conns[i].send(&WireMsg::Closed { session, stats }),
                    Err(e) => {
                        self.conns[i].send(&WireMsg::Reject { session, code: reject_code(&e) })
                    }
                }
            }
        }
    }

    fn drain_session(&mut self, i: usize, session: u64, report: &mut NetReport) {
        let results = match self.serve.take_results(session) {
            Ok(r) => r,
            // The session can have been evicted between dispatch and
            // drain; tell the client rather than silently dropping it.
            Err(e) => {
                self.conns[i].send(&WireMsg::Reject { session, code: reject_code(&e) });
                self.conns[i].sessions.remove(&session);
                return;
            }
        };
        for r in results {
            report.results_sent += 1;
            telemetry::counter("serve.net.results_sent").inc();
            self.conns[i].send(&WireMsg::Result {
                session,
                segment_index: r.segment_index,
                mesh_skipped: r.hand.is_none(),
                skeleton: r.skeleton,
            });
        }
    }

    fn deliver_results(&mut self, report: &mut NetReport) {
        for i in 0..self.conns.len() {
            if self.conns[i].dead {
                continue;
            }
            let owned: Vec<u64> = self.conns[i].sessions.iter().copied().collect();
            for session in owned {
                self.drain_session(i, session, report);
            }
        }
    }

    fn flush_writes(&mut self) {
        for conn in &mut self.conns {
            while conn.outpos < conn.outbuf.len() {
                match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.outpos += n;
                        telemetry::counter("serve.net.bytes_out").add(n as u64);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.outpos > 0 && conn.outpos == conn.outbuf.len() {
                conn.outbuf.clear();
                conn.outpos = 0;
            }
        }
    }

    fn reap_dead(&mut self, report: &mut NetReport) {
        let mut i = 0;
        while i < self.conns.len() {
            let drop_now = self.conns[i].dead
                && (self.conns[i].outpos >= self.conns[i].outbuf.len()
                    || self.conns[i].stream.peer_addr().is_err());
            if drop_now {
                let conn = self.conns.remove(i);
                telemetry::counter("serve.net.disconnects").inc();
                for session in conn.sessions {
                    // Best effort: the session may already be evicted.
                    let _ = self.serve.close_session(session);
                }
                report.dropped += 1;
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InferenceProfile, MeshPolicy, ServeConfig};
    use mmhand_core::tiny;

    fn tiny_server(shards: usize) -> (ServeServer, Vec<mmhand_radar::RawFrame>) {
        let frames = tiny::stream(1, 21, 12);
        let pipeline = tiny::pipeline(11, &frames, None).expect("tiny fixture builds");
        let serve = ShardedServe::new(
            pipeline,
            shards,
            ServeConfig::new()
                .profile(InferenceProfile::from_env().mesh_policy(MeshPolicy::Never))
                .max_batch(2),
        )
        .expect("tiny sharded serve");
        let server = ServeServer::bind("127.0.0.1:0", serve).expect("ephemeral bind");
        (server, frames)
    }

    /// Drives `server.poll_once` and a blocking-free client together on
    /// one thread: writes `out` to the client socket, polls, reads
    /// whatever the server answered, repeats until quiescent.
    fn pump(
        server: &mut ServeServer,
        client: &mut TcpStream,
        out: &[u8],
        rounds: usize,
    ) -> Vec<u8> {
        use std::io::{Read, Write};
        if !out.is_empty() {
            client.write_all(out).expect("client write");
        }
        let mut answer = Vec::new();
        let mut scratch = [0u8; 8192];
        for _ in 0..rounds {
            server.poll_once().expect("poll");
            loop {
                match client.read(&mut scratch) {
                    Ok(0) => break,
                    Ok(n) => answer.extend_from_slice(&scratch[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => panic!("client read: {e}"),
                }
            }
        }
        answer
    }

    fn connect(server: &ServeServer) -> TcpStream {
        let addr = server.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        client.set_nonblocking(true).expect("nonblocking client");
        client
    }

    fn hello_bytes(server: &ServeServer) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode(
            &WireMsg::Hello {
                version: crate::wire::WIRE_VERSION,
                precision: server.serve().precision(),
            },
            &mut bytes,
        );
        bytes
    }

    #[test]
    fn open_before_hello_is_a_protocol_violation() {
        let (mut server, _frames) = tiny_server(1);
        let mut client = connect(&server);
        let mut bytes = Vec::new();
        encode(&WireMsg::Open, &mut bytes);
        let answer = pump(&mut server, &mut client, &bytes, 3);
        let mut d = Decoder::new();
        d.push_bytes(&answer);
        match d.next_msg() {
            Ok(Some(WireMsg::Reject { code: RejectCode::Protocol, .. })) => {}
            other => panic!("expected protocol reject, got {other:?}"),
        }
        assert_eq!(server.connections(), 0, "violating connection is dropped");
    }

    #[test]
    fn disconnect_closes_owned_sessions() {
        let (mut server, _frames) = tiny_server(2);
        let mut client = connect(&server);
        let mut bytes = hello_bytes(&server);
        encode(&WireMsg::Open, &mut bytes);
        let answer = pump(&mut server, &mut client, &bytes, 3);
        let mut d = Decoder::new();
        d.push_bytes(&answer);
        assert!(matches!(d.next_msg(), Ok(Some(WireMsg::Opened { .. }))));
        assert_eq!(server.serve().active_sessions(), 1);
        drop(client);
        for _ in 0..3 {
            server.poll_once().expect("poll");
        }
        assert_eq!(server.serve().active_sessions(), 0, "sessions die with their connection");
        assert_eq!(server.connections(), 0);
    }

    #[test]
    fn unservable_hello_precision_gets_a_typed_reject() {
        let (mut server, _frames) = tiny_server(1);
        let mut client = connect(&server);
        // Request the precision the server is NOT running.
        let other = match server.serve().precision() {
            mmhand_core::Precision::F32 => mmhand_core::Precision::Int8,
            mmhand_core::Precision::Int8 => mmhand_core::Precision::F32,
        };
        let mut bytes = Vec::new();
        encode(&WireMsg::Hello { version: crate::wire::WIRE_VERSION, precision: other }, &mut bytes);
        let answer = pump(&mut server, &mut client, &bytes, 3);
        let mut d = Decoder::new();
        d.push_bytes(&answer);
        match d.next_msg() {
            Ok(Some(WireMsg::Reject { code: RejectCode::UnsupportedPrecision, .. })) => {}
            other => panic!("expected UnsupportedPrecision reject, got {other:?}"),
        }
        assert_eq!(server.connections(), 0, "mismatched connection is dropped");
    }

    #[test]
    fn garbage_bytes_get_a_typed_reject_then_drop() {
        let (mut server, _frames) = tiny_server(1);
        let mut client = connect(&server);
        let mut bytes = hello_bytes(&server);
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x99]);
        let answer = pump(&mut server, &mut client, &bytes, 3);
        let mut d = Decoder::new();
        d.push_bytes(&answer);
        match d.next_msg() {
            Ok(Some(WireMsg::Reject { code: RejectCode::Protocol, .. })) => {}
            other => panic!("expected protocol reject, got {other:?}"),
        }
        assert_eq!(server.connections(), 0);
    }
}
