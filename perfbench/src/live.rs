//! `live`: closed-loop `MmHandPipeline::try_estimate` over consecutive
//! 12-frame windows of replayed synthetic captures — one session, f32,
//! batch 1, fitted mesh (the paper's Fig. 26 path).

use crate::fixtures::{self, ms_since, now_ms, Acc, DspReplay, FRAMES_PER_WINDOW};
use crate::report::{hash_f32s, Report, FNV_BASIS};
use crate::stats::{self, Summary};
use crate::{parallel_metrics, RunConfig};
use mmhand_core::mesh::MeshFitConfig;
use mmhand_core::{MeshReconstructor, MmHandPipeline, Precision};
use mmhand_nn::Tape;
use mmhand_radar::RawFrame;
use mmhand_telemetry as telemetry;

/// Capture sessions replayed, and frames in each.
const STREAMS: usize = 4;
const FRAMES_PER_STREAM: usize = 48;
/// Mesh-fit steps in setup: enough to take the fitted (network) mesh path,
/// whose per-call cost does not depend on fit quality.
const MESH_FIT_STEPS: usize = 40;
/// Consecutive windows per chunk of the summary: enough for a p75 with ten
/// windows beyond it.
const WINDOWS_PER_CHUNK: usize = 40;
/// Windows checked bit for bit after the measured window.
const CHECKED_WINDOWS: usize = 4;

pub struct Live {
    pipeline: MmHandPipeline,
}

/// The seeded inputs: consecutive 12-frame windows of every capture.
pub fn inputs(seed: u64) -> Vec<Vec<RawFrame>> {
    fixtures::captures(seed, STREAMS, FRAMES_PER_STREAM)
        .into_iter()
        .flat_map(|s| {
            s.frames.chunks_exact(FRAMES_PER_WINDOW).map(<[RawFrame]>::to_vec).collect::<Vec<_>>()
        })
        .collect()
}

/// Program set-up: seeded model, fitted mesh networks, validated pipeline.
pub fn setup(seed: u64) -> Result<Live, String> {
    let mut mesh = MeshReconstructor::new(seed);
    mesh.fit(&MeshFitConfig { steps: MESH_FIT_STEPS, seed, ..MeshFitConfig::default() });
    let pipeline = MmHandPipeline::builder_for(fixtures::seeded_model(seed))
        .cube_config(fixtures::cube_config())
        .mesh(mesh)
        .precision(Precision::F32)
        .build()
        .map_err(|e| e.to_string())?;
    Ok(Live { pipeline })
}

/// One window's outputs, kept for the bitwise comparison.
#[derive(PartialEq)]
struct WindowOut {
    skeletons: Vec<Vec<f32>>,
    mesh_hash: u64,
}

fn mesh_hash(hands: &[mmhand_core::ReconstructedHand]) -> u64 {
    let mut h = FNV_BASIS;
    for hand in hands {
        let coords: Vec<f32> = hand.mesh.vertices.iter().flat_map(|v| [v.x, v.y, v.z]).collect();
        hash_f32s(&mut h, &coords);
    }
    h
}

/// Busy time per layer over the traced phase, plus replays of the model's
/// two halves, the LBS step and one frame's DSP stages.
struct Layers {
    frame: Acc,
    segment: Acc,
    predict: Acc,
    reconstruct: Acc,
    window: Acc,
    spacenet: Acc,
    temporal: Acc,
    lbs: Acc,
    dsp: DspReplay,
}

impl Layers {
    fn new() -> Result<Self, String> {
        Ok(Layers {
            frame: Acc::default(),
            segment: Acc::default(),
            predict: Acc::default(),
            reconstruct: Acc::default(),
            window: Acc::default(),
            spacenet: Acc::default(),
            temporal: Acc::default(),
            lbs: Acc::default(),
            dsp: DspReplay::new(&fixtures::cube_config())?,
        })
    }
}

impl Live {
    /// The untraced pipeline call on one window.
    fn estimate(&mut self, window: &[RawFrame]) -> Result<WindowOut, String> {
        let out = self.pipeline.try_estimate(window).map_err(|e| e.to_string())?;
        Ok(WindowOut { mesh_hash: mesh_hash(&out.hands), skeletons: out.skeletons })
    }

    /// The same window through each layer's public functions, timed.
    fn traced(&self, window: &[RawFrame], l: &mut Layers) -> Result<WindowOut, String> {
        let t = now_ms();
        let builder = self.pipeline.builder();
        let st = builder.config().frames_per_segment;
        let mut segments = Vec::with_capacity(window.len() / st);
        for seg in window.chunks_exact(st) {
            let cubes = seg
                .iter()
                .map(|f| l.frame.time(|| builder.try_process_frame(f)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let segment = l.segment.time(|| builder.try_segment_tensor(&cubes));
            segments.push(segment.map_err(|e| e.to_string())?);
        }
        let skeletons = l.predict.time(|| self.pipeline.predict_sequence(&segments));
        let mesh = self.pipeline.mesh_reconstructor();
        let hands = skeletons
            .iter()
            .map(|s| l.reconstruct.time(|| mesh.try_reconstruct(s)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        l.window.add(ms_since(t));

        // Replays outside the window time: the model's two halves on one
        // tape, LBS for each hand, one frame's DSP stages.
        let trained = self.pipeline.model();
        let mut tape = Tape::new();
        let feats: Vec<_> = segments
            .iter()
            .map(|s| {
                let mut shape = vec![1];
                shape.extend_from_slice(s.shape());
                let x = tape.leaf(s.reshaped(&shape));
                l.spacenet.time(|| trained.model.spacenet.forward(&mut tape, &trained.store, x))
            })
            .collect();
        let outs = l.temporal.time(|| trained.model.temporal.forward(&mut tape, &trained.store, &feats));
        std::hint::black_box(outs);
        for h in &hands {
            std::hint::black_box(l.lbs.time(|| mesh.mano().mesh(&h.beta, &h.theta)));
        }
        l.dsp.frame(&window[0]);
        Ok(WindowOut { mesh_hash: mesh_hash(&hands), skeletons })
    }
}

pub fn run(cfg: &RunConfig, live: &mut Live, windows: &[Vec<RawFrame>], r: &mut Report) -> Result<(), String> {
    let n = windows.len();
    let mut first: Vec<Option<WindowOut>> = (0..n).map(|_| None).collect();

    // Untraced, closed loop, after one unmeasured pass over every window.
    telemetry::set_enabled(false);
    for w in windows {
        live.estimate(w)?;
    }
    let untraced_for = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    // (completion time in s, window latency in ms)
    let mut timed: Vec<(f64, f64)> = Vec::new();
    let start = now_ms();
    while ms_since(start) < untraced_for * 1e3 {
        let w = timed.len() % n;
        let t = now_ms();
        let out = live.estimate(&windows[w])?;
        timed.push((ms_since(start) / 1e3, ms_since(t)));
        if first[w].is_none() {
            first[w] = Some(out);
        }
    }
    let elapsed_s = ms_since(start) / 1e3;
    r.attempted = timed.len() as u64;
    // Medians over chunks of consecutive windows: a closed loop has no
    // failures to hide, and a noisy stretch of a shared machine moves a
    // few chunks, not the result. Chunks of a fixed count keep the tail
    // at one percentile however fast the host runs; with one-second
    // blocks it switched between p90 and p95 with the window time.
    let lat: Vec<f64> = timed.iter().map(|p| p.1).collect();
    let s = Summary::chunked(&lat, WINDOWS_PER_CHUNK);
    // Frames per second at the median window time, as `train` rates its
    // jobs: a rate counted per block follows the mean window time, which
    // the host's stalls move more than the median (quartile spread over
    // ten runs 0.33 against 0.21 on a noisy host).
    let frames_per_s = FRAMES_PER_WINDOW as f64 / (s.p50 / 1e3);
    let counted_per_s = timed.len() as f64 * FRAMES_PER_WINDOW as f64 / elapsed_s;
    // A window is on time when it is done within the frames it covers, so
    // the pipeline keeps up with the radar.
    let deadline_ms = FRAMES_PER_WINDOW as f64 * 1e3 / fixtures::cube_config().chirp.frame_rate_hz;
    let on_time = lat.iter().filter(|&&ms| ms <= deadline_ms).count() as f64 / lat.len() as f64;
    r.e2e("latency_ms_p50", s.p50, "ms");
    r.e2e("latency_ms_tail", s.tail, "ms");
    r.e2e("throughput_per_s", frames_per_s, "1/s");
    r.e2e("on_time_ratio", on_time, "ratio");
    r.note(format!(
        "live.window_ms_p50 {:.4} ms, live.window_ms_p{} {:.4} ms (median of chunks of {WINDOWS_PER_CHUNK}) over {} \
         windows of {FRAMES_PER_WINDOW} frames; live.frames_per_s {frames_per_s:.2} 1/s ({counted_per_s:.2} \
         counted over the window); live.on_time_ratio {on_time} (deadline {deadline_ms} ms)",
        s.p50,
        s.tail_pct,
        s.tail,
        s.n
    ));
    r.note(stats::ladder("live.window_ms", &lat));
    let seconds = (elapsed_s.round() as usize).max(1);
    for p in [50.0, s.tail_pct] {
        r.note(stats::block_line("live.window_ms", &timed, elapsed_s, seconds, p));
    }

    // Rounds of three passes over one window side by side, so a noisy
    // stretch of a shared machine hits all three alike: `try_estimate`
    // untraced, layer by layer with every call timed by the benchmark and
    // telemetry off, and layer by layer with telemetry on (pool counters,
    // tracing overhead). An untraced run still replays a few windows for
    // the check.
    let traced_for = if cfg.trace { cfg.seconds / 2.0 } else { 0.0 };
    let (mut paired, mut layered, mut traced) = (Acc::default(), Layers::new()?, Layers::new()?);
    telemetry::reset();
    let start = now_ms();
    let mut w = 0;
    while w < CHECKED_WINDOWS.min(n) || ms_since(start) < traced_for * 1e3 {
        let window = &windows[w % n];
        paired.time(|| live.estimate(window))?;
        let mut outs = vec![live.traced(window, &mut layered)?];
        if cfg.trace {
            telemetry::set_enabled(true);
            outs.push(live.traced(window, &mut traced)?);
            telemetry::set_enabled(false);
        }
        if let Some(untraced) = &first[w % n] {
            for out in &outs {
                r.check(out == untraced, format!("live window {}: layer-by-layer output differs from untraced", w % n));
            }
        }
        w += 1;
    }
    let snap = telemetry::snapshot();

    // Shapes and values of every window seen untraced.
    let mut h = FNV_BASIS;
    for (i, out) in first.iter().enumerate() {
        let Some(out) = out else { continue };
        r.check(out.skeletons.len() == FRAMES_PER_WINDOW / 4, format!("live window {i}: segment count"));
        r.check(
            out.skeletons.iter().all(|s| s.len() == 63 && s.iter().all(|v| v.is_finite())),
            format!("live window {i}: skeleton shape or non-finite value"),
        );
        hash_f32s(&mut h, out.skeletons.iter().flatten());
        h ^= out.mesh_hash;
    }
    r.output_hashes.push(("live.outputs", h));

    let l = &layered;
    let per_window = |a: &Acc| a.total_ms / l.window.calls.max(1) as f64;
    r.layer("cube.frame_ms", l.frame.mean(), "ms");
    r.layer("cube.segment_ms", l.segment.mean(), "ms");
    crate::dsp_layers(r, &l.dsp);
    let (spacenet, temporal, predict) = (per_window(&l.spacenet), per_window(&l.temporal), l.predict.mean());
    r.layer("model.spacenet_ms", spacenet, "ms");
    r.layer("model.temporal_ms", temporal, "ms");
    r.layer("model.predict_ms", predict, "ms");
    r.layer("model.tape_overhead_ms", predict - spacenet - temporal, "ms");
    r.layer("model.param_bytes", (live.pipeline.model().store.scalar_count() * 4) as f64, "bytes");
    r.layer("mesh.reconstruct_ms", l.reconstruct.mean(), "ms");
    r.layer("mesh.lbs_ms", l.lbs.mean(), "ms");
    crate::absent_serve_layers(r);
    crate::absent_train_layers(r);
    parallel_metrics(r, &snap);
    // Both sides untraced and side by side: a layer left out of the sum, or
    // work that `try_estimate` does outside these four calls, lowers the
    // coverage.
    let layer_sum = per_window(&l.frame) + per_window(&l.segment) + predict + per_window(&l.reconstruct);
    r.layer("layer_coverage", layer_sum / paired.mean(), "ratio");
    r.layer("tracing_overhead_pct", (traced.window.mean() / paired.mean() - 1.0) * 100.0, "%");
    Ok(())
}
