//! `serve`: `ServeServer` over loopback TCP — int8, `MeshPolicy::Never`,
//! two shards. Many sessions share two client connections; every session
//! pushes raw frames open-loop at the radar's frame rate from its own
//! phase, so the server sees admission, queueing, micro-batches of
//! the segments that arrive while it is busy, the int8 GEMM and wire
//! framing.
//!
//! Latency runs from the moment a segment's last frame was *due* to the
//! moment its skeleton is decoded by the client, so a stalled generator or
//! server shows up in the figures instead of shifting the clock.

use crate::fixtures::{self, ms_since, now_ms, Acc, DspReplay};
use crate::report::{hash_f32s, Report, FNV_BASIS};
use crate::stats::{self, Outcome, SegmentAccount, Summary};
use crate::{parallel_metrics, span_total_ms, RunConfig};
use mmhand_core::{MmHandPipeline, Precision};
use mmhand_nn::{Tape, Tensor};
use mmhand_radar::RawFrame;
use mmhand_serve::wire::{encode, Decoder, RejectCode, WireMsg, WIRE_VERSION};
use mmhand_serve::{InferenceProfile, MeshPolicy, ServeConfig, ServeServer, ShardedServe};
use mmhand_telemetry as telemetry;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Frames per segment in the full-scale cube geometry.
pub const FRAMES_PER_SEGMENT: usize = 4;
const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
/// Concurrent sessions: 100 segments a second, which keep the server busy
/// about 35–45% of the time on a 2-core machine. Each segment mostly
/// arrives alone, so batches hold about one segment and the server's cost
/// per segment is that of batch 1; loads that keep it busier let host
/// stalls on a shared machine build backlogs that swing the tail.
const SESSIONS: usize = 20;
const STREAMS: usize = 8;
const FRAMES_PER_STREAM: usize = 48;
const CALIBRATION_FRAMES: usize = 16;
const MAX_BATCH: usize = 8;
const QUEUE_FRAMES: usize = 64;
/// Segments due in the first second of a load phase are served but not
/// counted.
const WARMUP_S: f64 = 1.0;
/// How long after the last due time undelivered segments may still arrive
/// before they count as lost.
const DRAIN_S: f64 = 2.0;
/// Sessions whose every skeleton is checked against a sequential replay.
const CHECKED_SESSIONS: usize = 3;
/// Frames replayed through the cube layer, and model steps replayed, in
/// the traced phase.
const CUBE_REPLAY_FRAMES: usize = 24;
const MODEL_REPLAY_STEPS: usize = 8;
/// Seconds per block of the latency summary: 50 segments, so the tail per
/// block is a p75, as in the chunks of `live` and `train`.
const BLOCK_S: f64 = 0.5;

/// One session's seeded stream: which capture it replays, from where, and
/// its phase within the segment period.
struct SessionPlan {
    stream: usize,
    offset: usize,
    phase_ms: f64,
}

pub struct Inputs {
    streams: Vec<Vec<RawFrame>>,
    calibration: Vec<RawFrame>,
    plans: Vec<SessionPlan>,
    frame_period_ms: f64,
}

/// SplitMix64 step, for the seeded session plans.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeded inputs: capture streams, a disjoint calibration capture and
/// each session's plan.
pub fn inputs(seed: u64) -> Inputs {
    let streams: Vec<Vec<RawFrame>> =
        fixtures::captures(seed, STREAMS, FRAMES_PER_STREAM).into_iter().map(|s| s.frames).collect();
    let calibration = fixtures::captures(seed ^ 0x5EED_CA11, 1, CALIBRATION_FRAMES)
        .pop()
        .map(|s| s.frames)
        .unwrap_or_default();
    let frame_period_ms = 1e3 / fixtures::cube_config().chirp.frame_rate_hz;
    Inputs { streams, calibration, plans: plans(seed, frame_period_ms), frame_period_ms }
}

/// Each session's seeded plan.
fn plans(seed: u64, frame_period_ms: f64) -> Vec<SessionPlan> {
    let mut state = seed;
    // Every radar runs its own frame clock, on a phase of its own. The
    // phases sit on a fixed grid and the seed deals the grid's slots out to
    // the sessions: slot j puts a session's frames at offset
    // j·period/SESSIONS within each frame period, and shifts its segment
    // boundary by (j mod FRAMES_PER_SEGMENT) frames. Frames then arrive one
    // at a time, evenly spaced, and segments end spread over the segment
    // period. Random phases would make how often frames collide, and so
    // the queueing, a property of the seed: over five seeds that moved the
    // median latency by 7%.
    let mut slots: Vec<usize> = (0..SESSIONS).collect();
    for i in (1..SESSIONS).rev() {
        slots.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    slots
        .iter()
        .map(|&slot| SessionPlan {
            stream: (splitmix(&mut state) % STREAMS as u64) as usize,
            offset: (splitmix(&mut state) % FRAMES_PER_STREAM as u64) as usize,
            phase_ms: slot as f64 * frame_period_ms / SESSIONS as f64
                + (slot % FRAMES_PER_SEGMENT) as f64 * frame_period_ms,
        })
        .collect()
}

impl Inputs {
    /// The `k`-th frame session `i` pushes.
    fn frame(&self, i: usize, k: usize) -> &RawFrame {
        let p = &self.plans[i];
        let s = &self.streams[p.stream];
        &s[(p.offset + k) % s.len()]
    }
}

/// A client connection: non-blocking socket, pending output, decoder.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    outpos: usize,
    decoder: Decoder,
}

impl Conn {
    fn flush(&mut self) -> Result<(), String> {
        while self.outpos < self.out.len() {
            match self.stream.write(&self.out[self.outpos..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("client write: {e}")),
            }
        }
        if self.outpos == self.out.len() {
            self.out.clear();
            self.outpos = 0;
        }
        Ok(())
    }

    fn pending(&self) -> bool {
        self.outpos < self.out.len()
    }

    /// Moves every readable byte into the decoder; true if any arrived.
    fn fill(&mut self) -> Result<bool, String> {
        let mut buf = [0u8; 16 * 1024];
        let mut any = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.decoder.push_bytes(&buf[..n]);
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("client read: {e}")),
            }
        }
    }
}

/// Client-side state of one session, persistent across load phases.
struct Session {
    id: u64,
    conn: usize,
    /// Frames pushed so far.
    sent: usize,
    /// Skeletons received, by segment index.
    results: Vec<Option<Vec<f32>>>,
    rejected_frames: usize,
    gone: bool,
}

pub struct Serve {
    server: ServeServer,
    /// The served pipeline (int8), for the sequential replay check.
    pipeline: MmHandPipeline,
    conns: Vec<Conn>,
    sessions: Vec<Session>,
    by_id: BTreeMap<u64, usize>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Program set-up: seeded model, int8 calibration, two shards, the TCP
/// server, two client connections and every session opened.
pub fn setup(seed: u64, inputs: &Inputs) -> Result<Serve, String> {
    let model = fixtures::seeded_model(seed);
    let mut probe = MmHandPipeline::builder_for(model.clone())
        .cube_config(fixtures::cube_config())
        .precision(Precision::F32)
        .build()
        .map_err(err)?;
    let calibration = probe.try_frames_to_segments(&inputs.calibration).map_err(err)?;
    let pipeline = MmHandPipeline::builder_for(model)
        .cube_config(fixtures::cube_config())
        .precision(Precision::Int8)
        .calibration_segments(calibration)
        .build()
        .map_err(err)?;
    let config = ServeConfig::new()
        .max_sessions(SESSIONS)
        .queue_capacity(QUEUE_FRAMES)
        .max_batch(MAX_BATCH)
        .result_capacity(QUEUE_FRAMES)
        .evict_after_idle_steps(0)
        .profile(InferenceProfile::default().precision(Precision::Int8).mesh_policy(MeshPolicy::Never));
    let sharded = ShardedServe::new(pipeline.clone(), SHARDS, config).map_err(err)?;
    let mut server = ServeServer::bind("127.0.0.1:0", sharded).map_err(err)?;
    let addr = server.local_addr().map_err(err)?;

    let mut conns = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        stream.set_nonblocking(true).map_err(err)?;
        let mut out = Vec::new();
        encode(&WireMsg::Hello { version: WIRE_VERSION, precision: Precision::Int8 }, &mut out);
        for _ in (c..SESSIONS).step_by(CONNECTIONS) {
            encode(&WireMsg::Open, &mut out);
        }
        conns.push(Conn { stream, out, outpos: 0, decoder: Decoder::new() });
    }
    // Opened replies arrive in request order on each connection.
    let mut opened: Vec<Vec<u64>> = vec![Vec::new(); CONNECTIONS];
    let deadline = now_ms() + 10_000.0;
    while opened.iter().map(Vec::len).sum::<usize>() < SESSIONS {
        if now_ms() > deadline {
            return Err("sessions did not open within 10 s".into());
        }
        for c in &mut conns {
            c.flush()?;
        }
        server.poll_once().map_err(err)?;
        for (c, conn) in conns.iter_mut().enumerate() {
            conn.fill()?;
            while let Some(msg) = conn.decoder.next_msg().map_err(err)? {
                match msg {
                    WireMsg::Opened { session } => opened[c].push(session),
                    other => return Err(format!("unexpected reply while opening: {other:?}")),
                }
            }
        }
    }
    let mut sessions = Vec::with_capacity(SESSIONS);
    let mut by_id = BTreeMap::new();
    for i in 0..SESSIONS {
        let (conn, k) = (i % CONNECTIONS, i / CONNECTIONS);
        let id = opened[conn][k];
        by_id.insert(id, i);
        sessions.push(Session { id, conn, sent: 0, results: Vec::new(), rejected_frames: 0, gone: false });
    }
    Ok(Serve { server, pipeline, conns, sessions, by_id })
}

/// What one load phase measured.
#[derive(Default)]
struct Phase {
    window_s: f64,
    /// Per segment due in the window: (due time from the window start, ms;
    /// outcome).
    outcomes: Vec<(f64, Outcome)>,
    /// When the last window segment was delivered, ms from the window start.
    last_delivery_ms: f64,
    /// Per segment due in the window: due → start of the poll that
    /// produced its result.
    queue_wait_ms: Vec<f64>,
    /// Per frame: how late the generator pushed it.
    lag_ms: Vec<f64>,
    frames_pushed: usize,
    frames_rejected: usize,
    polls: usize,
    idle_polls: usize,
    poll_busy_ms: f64,
    /// Polls that stepped at least one session, summed `batched`, and the
    /// shard steps with work.
    busy_polls: usize,
    batched: usize,
    shard_steps: usize,
    segments_served: usize,
    encode: Acc,
    decode: Acc,
    bytes_per_frame: f64,
}

impl Phase {
    fn segment_outcomes(&self) -> Vec<Outcome> {
        self.outcomes.iter().map(|o| o.1).collect()
    }
}

impl Serve {
    /// Runs one open-loop phase: a warm-up second, then `window_s` of
    /// segments that count, then a drain.
    fn load(&mut self, inputs: &Inputs, window_s: f64, traced: bool) -> Result<Phase, String> {
        let period = inputs.frame_period_ms;
        let fps = FRAMES_PER_SEGMENT;
        let (window_start_ms, window_end_ms) = (WARMUP_S * 1e3, (WARMUP_S + window_s) * 1e3);
        // Phase-local schedule: frame k of session i is due at
        // phase_i + k·period; only whole segments due before the end.
        let base: Vec<usize> = self.sessions.iter().map(|s| s.sent).collect();
        let segs: Vec<usize> = inputs
            .plans
            .iter()
            .map(|p| {
                let last = (window_end_ms - p.phase_ms) / period;
                if last < (fps - 1) as f64 {
                    0
                } else {
                    ((last - (fps - 1) as f64) / fps as f64).floor() as usize + 1
                }
            })
            .collect();
        let seg_due = |i: usize, j: usize| inputs.plans[i].phase_ms + ((j * fps + fps - 1) as f64) * period;
        let mut delivered: Vec<Vec<Option<f64>>> = segs.iter().map(|&n| vec![None; n]).collect();
        let mut ph = Phase { window_s, ..Phase::default() };
        let t0 = now_ms() + 20.0;
        let now_ms = || ms_since(t0);
        let deadline_ms = window_end_ms + DRAIN_S * 1e3;
        let mut last_poll_start_ms;
        loop {
            // 1. Push every frame that is due.
            let now = now_ms();
            let mut pushed_any = false;
            let mut next_due = f64::INFINITY;
            for i in 0..self.sessions.len() {
                let s = &mut self.sessions[i];
                let plan = &inputs.plans[i];
                let limit = base[i] + segs[i] * fps;
                while !s.gone && s.sent < limit {
                    let due = plan.phase_ms + (s.sent - base[i]) as f64 * period;
                    if due > now {
                        next_due = next_due.min(due);
                        break;
                    }
                    let frame = inputs.frame(i, s.sent).clone();
                    let msg = WireMsg::Push { session: s.id, frame };
                    let out = &mut self.conns[s.conn].out;
                    let before = out.len();
                    if traced {
                        ph.encode.time(|| encode(&msg, out));
                    } else {
                        encode(&msg, out);
                    }
                    ph.bytes_per_frame = (out.len() - before) as f64;
                    ph.lag_ms.push(now_ms() - due);
                    s.sent += 1;
                    ph.frames_pushed += 1;
                    pushed_any = true;
                }
            }
            for c in &mut self.conns {
                c.flush()?;
            }

            // 2. One server poll.
            last_poll_start_ms = now_ms();
            let t = fixtures::now_ms();
            let report = self.server.poll_once().map_err(err)?;
            ph.poll_busy_ms += ms_since(t);
            ph.polls += 1;
            let batched = report.step.as_ref().map_or(0, |s| s.batched);
            if batched == 0 {
                ph.idle_polls += 1;
            } else {
                ph.busy_polls += 1;
                ph.batched += batched;
                let steps = report.step.as_ref().map_or(0, |s| s.per_shard.iter().filter(|p| p.batched > 0).count());
                ph.shard_steps += steps;
                ph.segments_served += batched;
            }

            // 3. Decode whatever came back.
            let mut received = false;
            for c in 0..self.conns.len() {
                received |= self.conns[c].fill()?;
                loop {
                    let conn = &mut self.conns[c];
                    let msg = if traced {
                        ph.decode.time(|| conn.decoder.next_msg())
                    } else {
                        conn.decoder.next_msg()
                    };
                    let Some(msg) = msg.map_err(err)? else { break };
                    let at = now_ms();
                    match msg {
                        WireMsg::Result { session, segment_index, skeleton, .. } => {
                            let i = *self.by_id.get(&session).ok_or("result for an unknown session")?;
                            let s = &mut self.sessions[i];
                            let g = segment_index as usize;
                            if s.results.len() <= g {
                                s.results.resize(g + 1, None);
                            }
                            s.results[g] = Some(skeleton);
                            if let Some(j) = g.checked_sub(base[i] / fps).filter(|&j| j < segs[i]) {
                                let due = seg_due(i, j);
                                delivered[i][j] = Some(at - due);
                                if due >= window_start_ms {
                                    ph.queue_wait_ms.push(last_poll_start_ms - due);
                                    ph.last_delivery_ms = ph.last_delivery_ms.max(at - window_start_ms);
                                }
                            }
                        }
                        WireMsg::Reject { session, code } => {
                            let i = *self.by_id.get(&session).ok_or("reject for an unknown session")?;
                            match code {
                                RejectCode::QueueFull | RejectCode::SessionLimit => {
                                    self.sessions[i].rejected_frames += 1;
                                    ph.frames_rejected += 1;
                                }
                                RejectCode::SessionEvicted | RejectCode::UnknownSession => {
                                    self.sessions[i].gone = true;
                                }
                                other => return Err(format!("server rejected a push: {other:?}")),
                            }
                        }
                        other => return Err(format!("unexpected server message {other:?}")),
                    }
                }
            }

            // 4. Done when everything was pushed and answered, or at the
            //    drain deadline.
            let all_sent = (0..self.sessions.len())
                .all(|i| self.sessions[i].gone || self.sessions[i].sent == base[i] + segs[i] * fps);
            let all_back = delivered
                .iter()
                .zip(&self.sessions)
                .all(|(d, s)| s.gone || d.iter().all(Option::is_some));
            if (all_sent && all_back) || now_ms() > deadline_ms {
                break;
            }
            // 5. Wait for the next due frame when nothing is moving, for at
            //    most 2 ms. The generator spins rather than sleeps: a
            //    sleeping thread's wake-up (timer slack, and on a virtual
            //    machine the reschedule of an idle vCPU) would be added to
            //    every segment's latency.
            let idle = !pushed_any
                && !received
                && report.messages == 0
                && batched == 0
                && !self.conns.iter().any(Conn::pending);
            if idle {
                let until = next_due.min(now_ms() + 2.0);
                while now_ms() < until {
                    std::thread::yield_now();
                }
            }
        }

        for (i, d) in delivered.iter().enumerate() {
            let s = &self.sessions[i];
            for (j, latency) in d.iter().enumerate() {
                if seg_due(i, j) < window_start_ms {
                    continue;
                }
                let outcome = match latency {
                    Some(ms) => Outcome::Delivered { latency_ms: *ms },
                    None if s.gone => Outcome::Evicted,
                    None if s.rejected_frames > 0 => Outcome::Rejected,
                    None => Outcome::Lost,
                };
                ph.outcomes.push((seg_due(i, j) - window_start_ms, outcome));
            }
        }
        Ok(ph)
    }

    /// Every skeleton of the first sessions against a sequential
    /// `predict_step` over the same stream, bit for bit.
    fn check(&mut self, inputs: &Inputs, r: &mut Report) -> Result<(), String> {
        let hidden = self.pipeline.model().lstm_hidden();
        let mut h_all = FNV_BASIS;
        for i in 0..CHECKED_SESSIONS.min(self.sessions.len()) {
            let (mut h, mut c) = (Tensor::zeros(&[1, hidden]), Tensor::zeros(&[1, hidden]));
            let received = self.sessions[i].results.clone();
            r.check(!received.is_empty(), format!("serve session {i}: no results"));
            for (g, got) in received.iter().enumerate() {
                let frames: Vec<RawFrame> =
                    (0..FRAMES_PER_SEGMENT).map(|k| inputs.frame(i, g * FRAMES_PER_SEGMENT + k).clone()).collect();
                let seg = self.pipeline.try_frames_to_segments(&frames).map_err(err)?.remove(0);
                let mut shape = vec![1];
                shape.extend_from_slice(seg.shape());
                let (want, h2, c2) = self.pipeline.predict_step(&seg.reshaped(&shape), &h, &c);
                (h, c) = (h2, c2);
                let Some(got) = got else {
                    r.check(false, format!("serve session {i}: segment {g} missing"));
                    break;
                };
                let same = got.len() == want[0].len()
                    && got.iter().zip(&want[0]).all(|(a, b)| a.to_bits() == b.to_bits());
                r.check(same, format!("serve session {i} segment {g}: skeleton differs from sequential replay"));
                hash_f32s(&mut h_all, got);
            }
        }
        r.output_hashes.push(("serve.checked_skeletons", h_all));
        Ok(())
    }
}

/// p99 when the sample has ten points beyond it, else the rule's tail.
fn p99(sample: &[f64]) -> f64 {
    let s = stats::sorted(sample);
    let p = if s.len() >= 1000 { 99.0 } else { stats::tail_percentile(s.len()) };
    stats::percentile(&s, p)
}

pub fn run(cfg: &RunConfig, sv: &mut Serve, inputs: &Inputs, r: &mut Report) -> Result<(), String> {
    telemetry::set_enabled(false);
    let untraced_for = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let ph = sv.load(inputs, untraced_for, false)?;
    let acc = SegmentAccount::of(&ph.segment_outcomes(), inputs.frame_period_ms);
    r.attempted = acc.due as u64;
    r.failed = acc.failed as u64;
    // A failed segment is infinitely late; it is reported at the drain
    // deadline, later than any delivered segment can be.
    let censor = |v: f64| if v.is_finite() { v } else { (ph.window_s + DRAIN_S) * 1e3 };
    // On-time segments per second, from the first due time to the last
    // delivery: the offered rate while every segment makes its deadline,
    // less as segments miss.
    let first_due_ms = ph.outcomes.iter().map(|o| o.0).fold(f64::INFINITY, f64::min);
    let span_s = (ph.last_delivery_ms - first_due_ms) / 1e3;
    let throughput = (acc.due - acc.missed) as f64 / if span_s > 0.0 { span_s } else { ph.window_s };
    let latencies: Vec<f64> = ph
        .outcomes
        .iter()
        .map(|(_, o)| match o {
            Outcome::Delivered { latency_ms } => *latency_ms,
            _ => f64::INFINITY,
        })
        .collect();
    // The gated p50 and tail are medians over half-second blocks of each
    // block's p50 and tail (50 segments, so its p75). On a shared machine
    // the whole-sample p99 (printed below) is set by the longest host stall
    // of a run, and on a noisy host the median of per-second p90s spread
    // 0.32 of its median over ten runs. A failure confined to fewer than
    // half the blocks does not move them; `on_time_ratio` counts every one.
    let by_due: Vec<(f64, f64)> = ph.outcomes.iter().map(|o| o.0).zip(latencies.iter().copied()).collect();
    let blocks = ((ph.window_s / BLOCK_S).round() as usize).max(1);
    let blocked = Summary::blocked(&by_due, ph.window_s * 1e3, blocks);
    r.e2e("latency_ms_p50", censor(blocked.p50), "ms");
    r.e2e("latency_ms_tail", censor(blocked.tail), "ms");
    r.e2e("throughput_per_s", throughput, "1/s");
    r.e2e("on_time_ratio", acc.on_time_ratio(), "ratio");
    let busy_per_segment = ph.poll_busy_ms / ph.segments_served.max(1) as f64;
    r.note(stats::ladder("serve.segment_latency_ms", &latencies));
    for p in [50.0, blocked.tail_pct] {
        r.note(stats::block_line("serve.segment_latency_ms", &by_due, ph.window_s * 1e3, blocks, p));
    }
    r.note(stats::ladder("serve.generator_lag_ms", &ph.lag_ms));
    r.note(format!(
        "serve.latency_ms_p50 {:.4} ms, serve.latency_ms_p{} {:.4} ms over {} segments due \
         (median of {blocks} blocks: p50 {:.4} ms, p{} {:.4} ms) \
         ({SESSIONS} sessions at {:.0} Hz, {FRAMES_PER_SEGMENT} frames per segment); serve.miss_ratio {:.6} \
         ({} missed, {} failed); {:.2} on-time segments/s; server busy {:.1}% of the window; \
         {:.3} segments per busy poll",
        acc.latency.p50,
        acc.latency.tail_pct,
        acc.latency.tail,
        acc.due,
        blocked.p50,
        blocked.tail_pct,
        blocked.tail,
        1e3 / inputs.frame_period_ms,
        acc.miss_ratio(),
        acc.missed,
        acc.failed,
        throughput,
        100.0 * ph.poll_busy_ms / ((ph.window_s + WARMUP_S) * 1e3),
        ph.batched as f64 / ph.busy_polls.max(1) as f64,
    ));

    let traced = if cfg.trace {
        telemetry::reset();
        telemetry::set_enabled(true);
        let t = sv.load(inputs, cfg.seconds / 2.0, true)?;
        Some((t, telemetry::snapshot()))
    } else {
        None
    };
    telemetry::set_enabled(false);
    sv.check(inputs, r)?;
    let Some((t, snap)) = traced else { return Ok(()) };

    // Layer replays on this workload's frames and batch width, untraced like
    // the busy time they are compared with.
    let builder = sv.pipeline.builder().clone();
    let (mut frame, mut segment) = (Acc::default(), Acc::default());
    let mut dsp = DspReplay::new(&fixtures::cube_config())?;
    let mut segments = Vec::new();
    for k in 0..CUBE_REPLAY_FRAMES / FRAMES_PER_SEGMENT {
        let frames: Vec<&RawFrame> = (0..FRAMES_PER_SEGMENT).map(|f| inputs.frame(k, f)).collect();
        let cubes = frames
            .iter()
            .map(|f| frame.time(|| builder.try_process_frame(f)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        segments.push(segment.time(|| builder.try_segment_tensor(&cubes)).map_err(err)?);
        dsp.frame(frames[0]);
    }
    let width = (t.batched as f64 / t.shard_steps.max(1) as f64).round().max(1.0) as usize;
    let batch = stack(&segments, width);
    let hidden = sv.pipeline.model().lstm_hidden();
    let (h0, c0) = (Tensor::zeros(&[width, hidden]), Tensor::zeros(&[width, hidden]));
    let q = sv.pipeline.quantized().ok_or("serve pipeline is not int8")?.clone();
    let trained = sv.pipeline.model();
    let (mut predict, mut spacenet, mut temporal) = (Acc::default(), Acc::default(), Acc::default());
    for _ in 0..MODEL_REPLAY_STEPS {
        std::hint::black_box(predict.time(|| sv.pipeline.predict_step(&batch, &h0, &c0)));
        let mut tape = Tape::with_quantized(q.clone());
        let (x, hv, cv) = (tape.leaf(batch.clone()), tape.leaf(h0.clone()), tape.leaf(c0.clone()));
        let feat = spacenet.time(|| trained.model.spacenet.forward(&mut tape, &trained.store, x));
        let out = temporal.time(|| trained.model.temporal.forward_step(&mut tape, &trained.store, feat, hv, cv));
        std::hint::black_box(out);
    }

    r.layer("cube.frame_ms", frame.mean(), "ms");
    r.layer("cube.segment_ms", segment.mean(), "ms");
    crate::dsp_layers(r, &dsp);
    r.layer("model.spacenet_ms", spacenet.mean(), "ms");
    r.layer("model.temporal_ms", temporal.mean(), "ms");
    r.layer("model.predict_ms", predict.mean(), "ms");
    r.layer("model.tape_overhead_ms", predict.mean() - spacenet.mean() - temporal.mean(), "ms");
    r.layer("model.param_bytes", q.quantized_bytes() as f64, "bytes");
    crate::absent_mesh_layers(r);
    let tacc = SegmentAccount::of(&t.segment_outcomes(), inputs.frame_period_ms);
    r.layer("serve.queue_wait_ms_p50", stats::median(&t.queue_wait_ms), "ms");
    r.layer("serve.queue_wait_ms_p99", p99(&t.queue_wait_ms), "ms");
    r.layer("serve.poll_ms", t.poll_busy_ms / t.polls.max(1) as f64, "ms");
    r.layer("serve.batch_occupancy", t.batched as f64 / t.busy_polls.max(1) as f64, "count");
    r.layer("serve.frames_rejected_ratio", t.frames_rejected as f64 / t.frames_pushed.max(1) as f64, "ratio");
    r.layer("serve.idle_poll_ratio", t.idle_polls as f64 / t.polls.max(1) as f64, "ratio");
    r.layer("serve.generator_lag_ms_p99", p99(&t.lag_ms), "ms");
    r.layer("serve.miss_ratio", tacc.miss_ratio(), "ratio");
    r.layer("wire.bytes_per_frame", t.bytes_per_frame, "bytes");
    r.layer("wire.client_encode_ms", t.encode.mean(), "ms");
    r.layer("wire.client_decode_ms", t.decode.mean(), "ms");
    let step_ms = span_total_ms(&snap, "serve.shard.step");
    let net_overhead = (t.poll_busy_ms - step_ms) / t.polls.max(1) as f64;
    r.layer("net.poll_overhead_ms", net_overhead, "ms");
    crate::absent_train_layers(r);
    parallel_metrics(r, &snap);
    // Layer time per served segment over the untraced server busy time per
    // segment; shards step concurrently, so this can exceed 1.
    let served = t.segments_served.max(1) as f64;
    let layers_per_segment = FRAMES_PER_SEGMENT as f64 * frame.mean()
        + segment.mean()
        + t.shard_steps as f64 * predict.mean() / served
        + (t.poll_busy_ms - step_ms) / served;
    r.layer("layer_coverage", layers_per_segment / busy_per_segment, "ratio");
    let traced_busy = t.poll_busy_ms / served;
    r.layer("tracing_overhead_pct", (traced_busy / busy_per_segment - 1.0) * 100.0, "%");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Phases of the grid, ascending, in frame periods.
    fn phases(seed: u64) -> Vec<f64> {
        let mut p: Vec<f64> = plans(seed, 50.0).iter().map(|p| p.phase_ms / 50.0).collect();
        p.sort_by(f64::total_cmp);
        p
    }

    #[test]
    fn frames_arrive_evenly_spaced_and_every_seed_offers_the_same_load() {
        let p = phases(1);
        let mut offsets: Vec<f64> = p.iter().map(|x| x.fract()).collect();
        offsets.sort_by(f64::total_cmp);
        for (k, o) in offsets.iter().enumerate() {
            assert!((o - k as f64 / SESSIONS as f64).abs() < 1e-9, "frame offsets {offsets:?}");
        }
        assert!(p.iter().all(|&x| x < FRAMES_PER_SEGMENT as f64), "phases within one segment period");
        assert_eq!(p, phases(2), "the seed deals the slots, not the grid");
        let first = |seed| plans(seed, 50.0).iter().map(|p| p.phase_ms).collect::<Vec<_>>();
        assert_ne!(first(1), first(2), "which session gets which slot follows the seed");
    }
}

/// `width` segments (cycling through `segments`) stacked on the batch axis.
fn stack(segments: &[Tensor], width: usize) -> Tensor {
    let shape = segments[0].shape();
    let mut data = Vec::with_capacity(width * segments[0].len());
    for k in 0..width {
        data.extend_from_slice(segments[k % segments.len()].data());
    }
    Tensor::from_vec(&[width, shape[0], shape[1], shape[2]], data)
}
