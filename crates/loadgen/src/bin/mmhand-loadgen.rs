//! `mmhand-loadgen` — load generator for the sharded serving engine.
//!
//! Simulates a fleet of concurrent streaming sessions against
//! [`ShardedServe`], with configurable arrival, churn, and burst patterns,
//! and reports segment latency quantiles (p50/p90/p99/p999), aggregate
//! throughput, and reject rates. Exit code doubles as an SLO gate.
//!
//! ```text
//! mmhand-loadgen [--sessions N] [--segments N] [--shards N] [--batch N]
//!                [--queue N] [--arrival steady|ramp|burst:K] [--churn PCT]
//!                [--precision f32|int8] [--seed N] [--rounds N] [--json PATH]
//!                [--slo-p99-ms F] [--compare-shards A,B --min-ratio F] [--quick]
//! ```
//!
//! `--precision int8` drives the load against the calibrated int8
//! inference path (the engine profile and the pipeline are both built for
//! it); the default follows the documented `MMHAND_PRECISION` fallback.
//!
//! Two modes:
//!
//! - **Single run** (default): drives `--sessions` sessions, each streaming
//!   `--segments` segments of synthetic radar frames, through one sharded
//!   engine. `--churn` closes a finished session and admits a fresh one
//!   with the given per-round probability, so long runs exercise the
//!   tombstone ring and admission control rather than a static population.
//! - **Compare** (`--compare-shards A,B`): runs the identical workload at
//!   two shard widths and reports the aggregate-throughput ratio B/A. With
//!   `--min-ratio R` the run fails when the ratio falls short — but only
//!   when the `mmhand-parallel` pool actually has ≥ 2 threads; on a
//!   single-core host shard parallelism cannot buy wall-clock time and the
//!   gate reports itself skipped instead of producing a vacuous failure.
//!
//! Latency is measured per segment: the clock starts when the frame
//! completing a segment is accepted and stops when that segment's result
//! is taken. The quantile table and the full run configuration land in a
//! JSON artifact (`--json`), which CI archives next to the benchmark
//! timings.

use mmhand_core::{tiny, MmHandPipeline, PipelineError, Precision};
use mmhand_radar::RawFrame;
use mmhand_serve::{InferenceProfile, MeshPolicy, ServeConfig, ServeError, ShardedServe};
use mmhand_telemetry as telemetry;
use std::collections::VecDeque;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

/// Deterministic workload randomness (SplitMix64), independent of the
/// engine's own seeding so reruns replay the same arrivals and churn.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arrival {
    /// Every live session offers a frame each round.
    Steady,
    /// Sessions come online staggered across the first half of the run.
    Ramp,
    /// Cohorts alternate `k` rounds pushing, `k` rounds silent.
    Burst(usize),
}

#[derive(Clone, Debug)]
struct Args {
    sessions: usize,
    segments: usize,
    shards: usize,
    batch: usize,
    queue: usize,
    arrival: Arrival,
    /// Per-round probability (percent) that a finished session is replaced.
    churn_pct: f64,
    /// Inference precision for both the pipeline and the engine profile.
    precision: Precision,
    seed: u64,
    /// Hard cap on scheduling rounds (safety against livelock).
    rounds: usize,
    json: Option<String>,
    slo_p99_ms: Option<f64>,
    compare_shards: Option<(usize, usize)>,
    min_ratio: Option<f64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sessions: 64,
            segments: 4,
            shards: 4,
            batch: 2,
            queue: 8,
            arrival: Arrival::Steady,
            churn_pct: 0.0,
            precision: Precision::env_fallback(),
            seed: 7,
            rounds: 100_000,
            json: None,
            slo_p99_ms: None,
            compare_shards: None,
            min_ratio: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--sessions" => args.sessions = num(&val("--sessions")?, "--sessions")?,
            "--segments" => args.segments = num(&val("--segments")?, "--segments")?,
            "--shards" => args.shards = num(&val("--shards")?, "--shards")?,
            "--batch" => args.batch = num(&val("--batch")?, "--batch")?,
            "--queue" => args.queue = num(&val("--queue")?, "--queue")?,
            "--rounds" => args.rounds = num(&val("--rounds")?, "--rounds")?,
            "--seed" => args.seed = num(&val("--seed")?, "--seed")? as u64,
            "--churn" => {
                args.churn_pct =
                    val("--churn")?.parse::<f64>().map_err(|e| format!("--churn: {e}"))?
            }
            "--precision" => {
                args.precision =
                    val("--precision")?.parse().map_err(|e| format!("--precision: {e}"))?
            }
            "--arrival" => {
                let v = val("--arrival")?;
                args.arrival = match v.as_str() {
                    "steady" => Arrival::Steady,
                    "ramp" => Arrival::Ramp,
                    other => match other.strip_prefix("burst:") {
                        Some(k) => Arrival::Burst(num(k, "--arrival burst:K")?.max(1)),
                        None => return Err(format!("--arrival: unknown pattern {other}")),
                    },
                };
            }
            "--json" => args.json = Some(val("--json")?),
            "--slo-p99-ms" => {
                args.slo_p99_ms =
                    Some(val("--slo-p99-ms")?.parse().map_err(|e| format!("--slo-p99-ms: {e}"))?)
            }
            "--compare-shards" => {
                let v = val("--compare-shards")?;
                let (a, b) = v
                    .split_once(',')
                    .ok_or_else(|| "--compare-shards wants A,B".to_string())?;
                args.compare_shards = Some((num(a, "--compare-shards")?, num(b, "--compare-shards")?));
            }
            "--min-ratio" => {
                args.min_ratio =
                    Some(val("--min-ratio")?.parse().map_err(|e| format!("--min-ratio: {e}"))?)
            }
            "--quick" => {
                args.sessions = 24;
                args.segments = 3;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.sessions == 0 || args.segments == 0 {
        return Err("--sessions and --segments must be positive".into());
    }
    Ok(args)
}

fn num(s: &str, name: &str) -> Result<usize, String> {
    s.parse::<usize>().map_err(|e| format!("{name}: {e}"))
}

/// Trains the tiny reference model once; compare mode clones it per
/// width. The calibration capture, used at [`Precision::Int8`], is one no
/// client replays: the pooled client streams use seeds 2000..2008, this
/// one sits well apart.
fn build_pipeline(precision: Precision) -> Result<MmHandPipeline, PipelineError> {
    tiny::pipeline(11, &tiny::stream(99, 4242, 16), Some(precision))
}

/// A small pool of distinct synthetic captures; sessions draw a stream by
/// index so thousands of sessions cost eight simulations, not thousands.
fn frame_pool(n_frames: usize) -> Vec<Vec<RawFrame>> {
    (0..8).map(|k| tiny::stream(k + 1, 2000 + k as u64, n_frames)).collect()
}

/// One simulated client.
struct Client {
    session: u64,
    /// Which pooled capture it replays.
    stream: usize,
    /// Next frame offset within the stream.
    cursor: usize,
    /// Frames still to push (segments budget × frames per segment).
    remaining: usize,
    /// Segment-completion timestamps not yet matched to a result.
    inflight: VecDeque<Instant>,
    /// Which burst cohort the client belongs to.
    cohort: usize,
    /// Round at which the client starts pushing (ramp arrivals).
    starts_at: usize,
    results: usize,
}

#[derive(Debug, Default, Clone)]
struct RunStats {
    latencies_ms: Vec<f64>,
    frames_pushed: u64,
    frames_rejected: u64,
    sessions_opened: u64,
    sessions_rejected: u64,
    sessions_churned: u64,
    results: u64,
    rounds: usize,
    elapsed_s: f64,
    tombstones: usize,
}

impl RunStats {
    fn quantile(&self, q: f64) -> f64 {
        percentile(&self.latencies_ms, q)
    }

    fn throughput(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.results as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    fn frame_reject_rate(&self) -> f64 {
        let attempts = self.frames_pushed + self.frames_rejected;
        if attempts > 0 {
            self.frames_rejected as f64 / attempts as f64
        } else {
            0.0
        }
    }
}

/// Nearest-rank percentile over an unsorted sample (sorted internally).
fn percentile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn run_workload(pipeline: MmHandPipeline, args: &Args) -> Result<RunStats, Box<dyn std::error::Error>> {
    let seg_frames = pipeline.builder().config().frames_per_segment;
    // 2x headroom over the even split absorbs affinity-hash imbalance;
    // the global admission limit still scales with the population.
    let per_shard_sessions = (args.sessions.div_ceil(args.shards) * 2).max(2);
    let mut serve = ShardedServe::new(
        pipeline,
        args.shards,
        ServeConfig::new()
            .max_sessions(per_shard_sessions)
            .queue_capacity(args.queue.max(seg_frames))
            .max_batch(args.batch)
            .result_capacity(args.segments.max(4))
            .evict_after_idle_steps(64)
            .tombstone_capacity(256)
            .profile(
                InferenceProfile::default()
                    .precision(args.precision)
                    .mesh_policy(MeshPolicy::Never),
            ),
    )?;

    let pool = frame_pool(args.segments * seg_frames);
    let mut mix = Mix(args.seed);
    let mut stats = RunStats::default();
    let mut clients: Vec<Client> = Vec::with_capacity(args.sessions);
    let ramp_span = args.sessions.max(1);

    let admit = |serve: &mut ShardedServe,
                     stats: &mut RunStats,
                     mix: &mut Mix,
                     idx: usize,
                     starts_at: usize|
     -> Option<Client> {
        match serve.open_session() {
            Ok(session) => {
                stats.sessions_opened += 1;
                telemetry::counter("loadgen.sessions_opened").inc();
                Some(Client {
                    session,
                    stream: (mix.next() as usize) % 8,
                    cursor: 0,
                    remaining: args.segments * seg_frames,
                    inflight: VecDeque::new(),
                    cohort: idx % 4,
                    starts_at,
                    results: 0,
                })
            }
            Err(ServeError::SessionLimit { .. }) => {
                stats.sessions_rejected += 1;
                telemetry::counter("loadgen.sessions_rejected").inc();
                None
            }
            Err(e) => {
                eprintln!("loadgen: open_session: {e}");
                None
            }
        }
    };

    for idx in 0..args.sessions {
        let starts_at = match args.arrival {
            Arrival::Ramp => idx * ramp_span / (2 * args.sessions.max(1)),
            _ => 0,
        };
        if let Some(c) = admit(&mut serve, &mut stats, &mut mix, idx, starts_at) {
            clients.push(c);
        }
    }

    // The target counts only sessions that actually got admitted, so an
    // over-subscribed run (admission rejections are part of the workload)
    // still terminates.
    let target_results = (clients.len() * args.segments) as u64;

    #[expect(clippy::disallowed_methods, reason = "a load generator times its run")]
    let t0 = Instant::now();
    let mut round = 0usize;
    while stats.results < target_results && round < args.rounds {
        // 1. Arrivals: each eligible client offers one frame.
        for c in clients.iter_mut() {
            if c.remaining == 0 || round < c.starts_at {
                continue;
            }
            if let Arrival::Burst(k) = args.arrival {
                // Cohorts alternate k rounds on, k off, phase-shifted.
                if (round / k + c.cohort) % 2 == 1 {
                    continue;
                }
            }
            let frame = pool[c.stream][c.cursor % pool[c.stream].len()].clone();
            match serve.push_frame(c.session, frame) {
                Ok(()) => {
                    stats.frames_pushed += 1;
                    telemetry::counter("loadgen.frames_pushed").inc();
                    c.cursor += 1;
                    c.remaining -= 1;
                    // This frame completed a segment: start its latency clock.
                    if c.cursor % seg_frames == 0 {
                        #[expect(clippy::disallowed_methods, reason = "times segment latency")]
                        c.inflight.push_back(Instant::now());
                    }
                }
                Err(ServeError::QueueFull { .. }) => {
                    stats.frames_rejected += 1;
                    telemetry::counter("loadgen.frames_rejected").inc();
                }
                Err(e) => return Err(Box::new(e)),
            }
        }

        // 2. One scheduling step across all shards.
        serve.step()?;

        // 3. Collect results and match latency clocks.
        for c in clients.iter_mut() {
            match serve.take_results(c.session) {
                Ok(results) => {
                    for _r in &results {
                        if let Some(t) = c.inflight.pop_front() {
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            stats.latencies_ms.push(ms);
                            telemetry::histogram_with(
                                "loadgen.segment_latency_ms",
                                telemetry::DURATION_MS_BUCKETS,
                            )
                            .observe(ms);
                        }
                        c.results += 1;
                        stats.results += 1;
                    }
                }
                Err(ServeError::SessionEvicted { .. } | ServeError::UnknownSession { .. }) => {
                    // Burst silence can outlast the eviction budget; the
                    // session's unfinished work is abandoned by design.
                    stats.results += (c.remaining / seg_frames + c.inflight.len()) as u64;
                    c.remaining = 0;
                    c.inflight.clear();
                }
                Err(e) => return Err(Box::new(e)),
            }
        }

        // 4. Churn: finished sessions close; with probability churn% a
        //    replacement arrives mid-run keeping the population hot.
        for (i, client) in clients.iter_mut().enumerate() {
            let done = client.remaining == 0 && client.inflight.is_empty();
            if !done {
                continue;
            }
            let _ = serve.close_session(client.session);
            if mix.unit() * 100.0 < args.churn_pct {
                stats.sessions_churned += 1;
                telemetry::counter("loadgen.sessions_churned").inc();
                if let Some(mut c) = admit(&mut serve, &mut stats, &mut mix, i, 0) {
                    // The replacement inherits the result target of nobody:
                    // its work adds on top, so cap it to stay terminating.
                    c.remaining = seg_frames;
                    *client = c;
                    continue;
                }
            }
            // Mark as drained so the loop skips it from now on.
            client.remaining = 0;
            client.inflight.clear();
            client.session = u64::MAX; // no longer routable
        }
        clients.retain(|c| c.session != u64::MAX || c.remaining > 0);

        round += 1;
    }

    stats.rounds = round;
    stats.elapsed_s = t0.elapsed().as_secs_f64();
    stats.tombstones = serve.evicted_tombstones();
    for c in &clients {
        if c.session != u64::MAX {
            let _ = serve.close_session(c.session);
        }
    }
    Ok(stats)
}

fn render_json(args: &Args, stats: &RunStats, compare: Option<&(RunStats, RunStats, f64)>) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"config\": {{\"sessions\": {}, \"segments\": {}, \"shards\": {}, \"batch\": {}, \"queue\": {}, \"arrival\": \"{:?}\", \"churn_pct\": {}, \"precision\": \"{}\", \"seed\": {}}},\n",
        args.sessions, args.segments, args.shards, args.batch, args.queue, args.arrival, args.churn_pct, args.precision.name(), args.seed
    ));
    s.push_str(&format!(
        "  \"latency_ms\": {{\"p50\": {:.4}, \"p90\": {:.4}, \"p99\": {:.4}, \"p999\": {:.4}, \"count\": {}}},\n",
        stats.quantile(0.50),
        stats.quantile(0.90),
        stats.quantile(0.99),
        stats.quantile(0.999),
        stats.latencies_ms.len()
    ));
    s.push_str(&format!(
        "  \"throughput_results_per_s\": {:.2},\n  \"frame_reject_rate\": {:.6},\n  \"sessions\": {{\"opened\": {}, \"rejected\": {}, \"churned\": {}}},\n  \"rounds\": {},\n  \"tombstones\": {},\n",
        stats.throughput(),
        stats.frame_reject_rate(),
        stats.sessions_opened,
        stats.sessions_rejected,
        stats.sessions_churned,
        stats.rounds,
        stats.tombstones
    ));
    match compare {
        Some((a, b, ratio)) => s.push_str(&format!(
            "  \"compare\": {{\"throughput_a\": {:.2}, \"throughput_b\": {:.2}, \"ratio\": {:.3}, \"pool_threads\": {}}}\n",
            a.throughput(),
            b.throughput(),
            ratio,
            mmhand_parallel::num_threads()
        )),
        None => s.push_str("  \"compare\": null\n"),
    }
    s.push('}');
    s
}

fn print_stats(label: &str, stats: &RunStats) {
    println!("[{label}] results: {} over {} rounds in {:.2}s ({:.1} results/s)",
        stats.results, stats.rounds, stats.elapsed_s, stats.throughput());
    println!(
        "[{label}] latency ms: p50 {:.3}  p90 {:.3}  p99 {:.3}  p999 {:.3}  (n={})",
        stats.quantile(0.50),
        stats.quantile(0.90),
        stats.quantile(0.99),
        stats.quantile(0.999),
        stats.latencies_ms.len()
    );
    println!(
        "[{label}] rejects: frames {:.4}% ({}), sessions {}; churned {}; tombstones {}",
        stats.frame_reject_rate() * 100.0,
        stats.frames_rejected,
        stats.sessions_rejected,
        stats.sessions_churned,
        stats.tombstones
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmhand-loadgen: {e}");
            return ExitCode::from(2);
        }
    };

    let pipeline = match build_pipeline(args.precision) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mmhand-loadgen: pipeline: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failures: Vec<String> = Vec::new();
    let (stats, compare) = if let Some((a, b)) = args.compare_shards {
        let run_at = |shards: usize| {
            let mut cfg = args.clone();
            cfg.shards = shards;
            run_workload(pipeline.clone(), &cfg)
        };
        let sa = match run_at(a) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mmhand-loadgen: run at {a} shards: {e}");
                return ExitCode::from(2);
            }
        };
        let sb = match run_at(b) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mmhand-loadgen: run at {b} shards: {e}");
                return ExitCode::from(2);
            }
        };
        print_stats(&format!("{a} shard(s)"), &sa);
        print_stats(&format!("{b} shard(s)"), &sb);
        let ratio = if sa.throughput() > 0.0 { sb.throughput() / sa.throughput() } else { 0.0 };
        println!("throughput ratio {b}/{a} shards: {ratio:.3}x (pool threads: {})",
            mmhand_parallel::num_threads());
        if let Some(min) = args.min_ratio {
            if mmhand_parallel::num_threads() >= 2 {
                if ratio < min {
                    failures.push(format!(
                        "throughput ratio {ratio:.3} below required {min:.3} at {} pool threads",
                        mmhand_parallel::num_threads()
                    ));
                }
            } else {
                println!(
                    "ratio gate skipped: pool has 1 thread, shard parallelism cannot \
                     buy wall-clock throughput here"
                );
            }
        }
        (sb.clone(), Some((sa, sb, ratio)))
    } else {
        match run_workload(pipeline, &args) {
            Ok(s) => {
                print_stats("run", &s);
                (s, None)
            }
            Err(e) => {
                eprintln!("mmhand-loadgen: {e}");
                return ExitCode::from(2);
            }
        }
    };

    if let Some(slo) = args.slo_p99_ms {
        let p99 = stats.quantile(0.99);
        if p99 > slo {
            failures.push(format!("p99 latency {p99:.3}ms exceeds SLO {slo:.3}ms"));
        } else {
            println!("SLO: p99 {p99:.3}ms within {slo:.3}ms");
        }
    }
    if stats.results == 0 {
        failures.push("no results produced".into());
    }

    if let Some(path) = &args.json {
        let body = render_json(&args, &stats, compare.as_ref());
        match std::fs::File::create(path).and_then(|mut f| f.write_all(body.as_bytes())) {
            Ok(()) => println!("artifact: {path}"),
            Err(e) => {
                eprintln!("mmhand-loadgen: artifact {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if failures.is_empty() {
        println!("OK");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::from(1)
    }
}
