//! `mmhand-serve` — drives N synthetic concurrent streaming sessions
//! through the [`ServeEngine`] and reports throughput, latency quantiles,
//! and backpressure behaviour.
//!
//! Usage (all flags optional):
//!
//! ```text
//! mmhand-serve [--sessions N] [--frames N] [--queue N] [--batch N]
//!              [--overload F] [--expect-rejects] [--mesh always|never|adaptive]
//!              [--precision f32|int8] [--listen ADDR] [--shards N] [--polls N]
//! ```
//!
//! `--precision int8` serves the post-training quantized inference path:
//! the reference model is calibrated on a held-out synthetic stream at
//! startup and every forward pass runs int8 (wire clients must announce
//! the matching precision in their `Hello`). The default follows the
//! documented `MMHAND_PRECISION` env fallback.
//!
//! With `--listen ADDR` the binary instead binds the non-blocking socket
//! front end over a sharded engine (`--shards`, default 4) and serves the
//! binary wire protocol: clients speak `Hello`/`Open`/`Push`/`Close`
//! frames (see `mmhand_serve::wire`). `--polls N` bounds the poll loop
//! (0, the default, runs until killed), which gives CI a way to
//! smoke-test the listener without a background process.
//!
//! Each session streams an independent synthetic capture (its own user,
//! gestures, and noise seed) from the radar simulator. `--overload F`
//! pushes `F` segments' worth of frames per scheduling round instead of
//! one, deliberately exceeding the bounded ingress queues:
//! `--expect-rejects` then asserts the overload surfaced as typed
//! `QueueFull` rejections (the CI smoke test runs both modes). Exit code
//! is non-zero when the run violates its expectation, so the binary
//! doubles as a self-checking smoke test.
//!
//! Metrics land in `target/mmhand-metrics/BENCH_serve_metrics.{json,prom}`
//! following the bench harness convention.

use mmhand_core::cube::CubeConfig;
use mmhand_core::eval::{try_build_cohort, DataConfig};
use mmhand_core::model::ModelConfig;
use mmhand_core::train::{TrainConfig, Trainer};
use mmhand_core::MmHandPipeline;
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::GestureTrack;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};
use mmhand_radar::{ChirpConfig, Environment, RawFrame};
use mmhand_core::Precision;
use mmhand_serve::{
    InferenceProfile, MeshPolicy, ServeConfig, ServeEngine, ServeError, ServeServer, ShardedServe,
};
use mmhand_telemetry as telemetry;
use std::io::Write;
use std::process::ExitCode;

struct Args {
    sessions: usize,
    frames: usize,
    queue: usize,
    batch: usize,
    overload: usize,
    expect_rejects: bool,
    mesh: MeshPolicy,
    precision: Precision,
    listen: Option<String>,
    shards: usize,
    polls: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sessions: 8,
            frames: 24,
            queue: 8,
            batch: 8,
            overload: 1,
            expect_rejects: false,
            mesh: MeshPolicy::SkipWhenBacklogged { segments: 2 },
            precision: Precision::env_fallback(),
            listen: None,
            shards: 4,
            polls: 0,
        }
    }
}

impl Args {
    fn profile(&self) -> InferenceProfile {
        InferenceProfile::default().precision(self.precision).mesh_policy(self.mesh)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut num = |name: &str| -> Result<usize, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<usize>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--sessions" => args.sessions = num("--sessions")?,
            "--frames" => args.frames = num("--frames")?,
            "--queue" => args.queue = num("--queue")?,
            "--batch" => args.batch = num("--batch")?,
            "--overload" => args.overload = num("--overload")?.max(1),
            "--expect-rejects" => args.expect_rejects = true,
            "--listen" => {
                args.listen = Some(it.next().ok_or("--listen needs an address".to_string())?)
            }
            "--shards" => args.shards = num("--shards")?.max(1),
            "--polls" => args.polls = num("--polls")?,
            "--mesh" => {
                args.mesh = match it.next().as_deref() {
                    Some("always") => MeshPolicy::Always,
                    Some("never") => MeshPolicy::Never,
                    Some("adaptive") => MeshPolicy::SkipWhenBacklogged { segments: 2 },
                    other => return Err(format!("--mesh: unknown policy {other:?}")),
                };
            }
            "--precision" => {
                args.precision = it
                    .next()
                    .ok_or("--precision needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("--precision: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn tiny_chirp() -> ChirpConfig {
    ChirpConfig { chirps_per_tx: 8, samples_per_chirp: 32, ..Default::default() }
}

fn tiny_cube() -> CubeConfig {
    CubeConfig {
        chirp: tiny_chirp(),
        range_bins: 8,
        doppler_bins: 4,
        azimuth_bins: 4,
        elevation_bins: 4,
        frames_per_segment: 2,
        range_max_m: 0.55,
        ..Default::default()
    }
}

/// Trains the small reference model the service runs behind; at
/// [`Precision::Int8`] it is additionally calibrated on a held-out
/// synthetic stream.
fn build_pipeline(precision: Precision) -> Result<MmHandPipeline, Box<dyn std::error::Error>> {
    let cube = tiny_cube();
    let data = DataConfig {
        users: 2,
        frames_per_user: 16,
        gestures_per_track: 2,
        seq_len: 2,
        capture: CaptureConfig {
            chirp: cube.chirp,
            environment: Environment::Playground,
            noise_sigma: 0.005,
            ..Default::default()
        },
        cube: cube.clone(),
        seed: 11,
        ..Default::default()
    };
    let model_cfg = ModelConfig {
        channels: 6,
        blocks: 1,
        feature_dim: 24,
        lstm_hidden: 24,
        ..data.model_config()
    };
    let seqs = try_build_cohort(&data)?;
    let train_cfg = TrainConfig { epochs: 2, batch_size: 4, ..Default::default() };
    let model = Trainer::new(model_cfg, train_cfg).try_train(&seqs)?;
    let mut builder = MmHandPipeline::builder_for(model.clone())
        .cube_config(cube.clone())
        .precision(precision);
    if precision == Precision::Int8 {
        // Calibrate on a stream no client replays (the client seeds start
        // at 1000), so activation ranges are post-training statistics, not
        // a fit to the serving traffic itself.
        let mut probe = MmHandPipeline::builder_for(model).cube_config(cube).build()?;
        let calibration = probe.try_frames_to_segments(&client_stream(9999, 16))?;
        builder = builder.calibration_segments(calibration);
    }
    Ok(builder.build()?)
}

/// One synthetic client's frame stream.
fn client_stream(client: usize, n_frames: usize) -> Vec<RawFrame> {
    let seed = 1000 + client as u64;
    let user = UserProfile::generate(client + 1, seed);
    let track = GestureTrack::from_gestures(
        &[Gesture::OpenPalm, Gesture::Victory, Gesture::Fist],
        Vec3::new(0.0, 0.3, 0.0),
        0.3,
        0.3,
    );
    record_session(
        &user,
        &track,
        n_frames,
        &CaptureConfig { chirp: tiny_chirp(), noise_sigma: 0.005, seed, ..Default::default() },
    )
    .frames
}

fn export_metrics() {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = std::path::PathBuf::from(base).join("mmhand-metrics");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("metrics dir: {e}");
        return;
    }
    let snap = telemetry::snapshot();
    for (name, body) in [
        ("BENCH_serve_metrics.json", snap.to_json()),
        ("BENCH_serve_metrics.prom", snap.to_prometheus()),
    ] {
        let path = dir.join(name);
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                if let Err(e) = f.write_all(body.as_bytes()) {
                    eprintln!("metrics write {}: {e}", path.display());
                } else {
                    println!("metrics: {}", path.display());
                }
            }
            Err(e) => eprintln!("metrics create {}: {e}", path.display()),
        }
    }
}

/// Serves the binary wire protocol on a real socket until `polls` polls
/// have run (0 = until killed).
fn run_listener(args: &Args, addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let pipeline = build_pipeline(args.precision)?;
    let serve = ShardedServe::new(
        pipeline,
        args.shards,
        ServeConfig::new()
            .max_sessions(args.sessions)
            .queue_capacity(args.queue)
            .max_batch(args.batch)
            .evict_after_idle_steps(10_000)
            .profile(args.profile()),
    )?;
    let mut server = ServeServer::bind(addr, serve)?;
    println!(
        "listening on {} ({} shards, {} precision)",
        server.local_addr()?,
        args.shards,
        server.serve().precision().name()
    );
    let mut polls = 0usize;
    loop {
        let report = server.poll_once()?;
        polls += 1;
        if args.polls > 0 && polls >= args.polls {
            println!("poll budget exhausted after {polls} polls");
            break;
        }
        // An idle poll (no connections, no messages) yields the CPU so an
        // unbounded listener loop doesn't spin hot.
        if report.messages == 0 && server.connections() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    export_metrics();
    Ok(())
}

fn run(args: &Args) -> Result<(u64, u64), Box<dyn std::error::Error>> {
    let pipeline = build_pipeline(args.precision)?;
    let st = pipeline.builder().config().frames_per_segment;
    let mut engine = ServeEngine::new(
        pipeline,
        ServeConfig::new()
            .max_sessions(args.sessions)
            .queue_capacity(args.queue)
            .max_batch(args.batch)
            .profile(args.profile()),
    )?;
    println!(
        "serving {} precision on the {} backend",
        engine.precision().name(),
        engine.kernel_backend()
    );

    let streams: Vec<Vec<RawFrame>> =
        (0..args.sessions).map(|k| client_stream(k, args.frames)).collect();
    let mut ids = Vec::with_capacity(args.sessions);
    for _ in 0..args.sessions {
        ids.push(engine.open_session()?);
    }

    let mut cursors = vec![0usize; args.sessions];
    let mut rejects = 0u64;
    let mut results = 0u64;
    let push_per_round = st * args.overload;

    // Interleaved rounds: each client pushes `overload` segments' worth of
    // frames, then one scheduling step runs.
    loop {
        let mut pushed_any = false;
        for (k, &sid) in ids.iter().enumerate() {
            for _ in 0..push_per_round {
                let Some(frame) = streams[k].get(cursors[k]) else { break };
                match engine.push_frame(sid, frame.clone()) {
                    Ok(()) => {
                        cursors[k] += 1;
                        pushed_any = true;
                    }
                    Err(ServeError::QueueFull { .. }) => {
                        // Backpressure: drop this client's round, frame is
                        // re-offered next round.
                        rejects += 1;
                        if args.overload > 1 {
                            // Overload mode models a client that cannot
                            // retry: the frame is lost.
                            cursors[k] += 1;
                            pushed_any = true;
                        }
                        break;
                    }
                    Err(e) => return Err(Box::new(e)),
                }
            }
        }
        let report = engine.step()?;
        for &sid in &ids {
            results += engine.take_results(sid)?.len() as u64;
        }
        if !pushed_any && report.batched == 0 {
            break;
        }
    }

    let snap = telemetry::snapshot();
    let step_hist = snap.histograms.iter().find(|(n, _)| n == "serve.step").map(|(_, h)| h);
    println!("sessions:        {}", args.sessions);
    println!("frames/session:  {}", args.frames);
    println!("overload factor: {}x", args.overload);
    println!("results:         {results}");
    println!("rejected frames: {rejects}");
    if let Some(h) = step_hist {
        println!(
            "step latency ms: p50 <= {:.2}, p99 <= {:.2} over {} steps",
            h.quantile(0.5),
            h.quantile(0.99),
            h.count
        );
    }
    for (name, v) in &snap.counters {
        if name.starts_with("serve.") {
            println!("  {name} = {v}");
        }
    }
    for &sid in &ids {
        engine.close_session(sid)?;
    }
    export_metrics();
    Ok((results, rejects))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmhand-serve: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(addr) = args.listen.clone() {
        return match run_listener(&args, &addr) {
            Ok(()) => {
                println!("OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mmhand-serve: {e}");
                ExitCode::from(2)
            }
        };
    }
    match run(&args) {
        Ok((results, rejects)) => {
            if args.expect_rejects && rejects == 0 {
                eprintln!("FAIL: overload run produced no rejections");
                ExitCode::from(1)
            } else if !args.expect_rejects && rejects > 0 {
                eprintln!("FAIL: nominal run rejected {rejects} frames");
                ExitCode::from(1)
            } else if results == 0 {
                eprintln!("FAIL: no results produced");
                ExitCode::from(1)
            } else {
                println!("OK");
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("mmhand-serve: {e}");
            ExitCode::from(2)
        }
    }
}
