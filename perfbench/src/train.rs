//! `train`: `Trainer::try_train` for a fixed number of epochs on a cohort
//! whose cube build happens in set-up — full-scale model, batch 8,
//! `seq_len` 3. Backward and the optimizer do almost all the work here.

use crate::fixtures::{self, ms_since, now_ms, Acc, DspReplay};
use crate::report::{hash_f32s, Report, FNV_BASIS};
use crate::stats::{self, Summary};
use crate::{parallel_metrics, span_mean_ms, RunConfig};
use mmhand_core::dataset::{make_batches, try_session_to_sequences, Batch, SegmentSequence};
use mmhand_core::loss::combined_loss;
use mmhand_core::train::{mean_pose_baseline, to_relative, TrainConfig};
use mmhand_core::{CubeBuilder, MmHandModel, Trainer};
use mmhand_math::rng::stream_rng;
use mmhand_nn::{Adam, CosineSchedule, ParamStore, Tape, Tensor, Var};
use mmhand_radar::CaptureSession;
use mmhand_telemetry as telemetry;

/// Segments per training sequence.
const SEQ_LEN: usize = 3;
/// Radar frames behind one training sequence (the work unit of `train`).
pub const FRAMES_PER_SEQUENCE: usize = SEQ_LEN * 4;
const BATCH: usize = 8;
/// Epochs per `try_train` call.
const EPOCHS: usize = 2;
/// Cohort: users × frames each → 16 sequences, two batches per epoch.
const USERS: usize = 4;
const FRAMES_PER_USER: usize = 48;
/// Samples per data-parallel shard inside one training step (the trainer's
/// fixed micro-shard size).
const SHARD: usize = 2;
/// Consecutive jobs per chunk of the summary: enough for a p75 with ten
/// jobs beyond it.
const JOBS_PER_CHUNK: usize = 40;
/// Rounds of untraced, replayed and traced jobs in the traced phase, at
/// least.
const REPLAY_JOBS: usize = 3;
/// Cohort frames replayed through the cube layer in the traced phase.
const CUBE_REPLAY_FRAMES: usize = 24;

pub struct Train {
    trainer: Trainer,
    cohort: Vec<SegmentSequence>,
}

/// The seeded inputs: one capture session per cohort user.
pub fn inputs(seed: u64) -> Vec<CaptureSession> {
    fixtures::captures(seed, USERS, FRAMES_PER_USER)
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig { epochs: EPOCHS, batch_size: BATCH, seed, ..TrainConfig::default() }
}

/// Program set-up: the cohort's cube build and the trainer.
pub fn setup(seed: u64, sessions: &[CaptureSession]) -> Result<Train, String> {
    let builder = CubeBuilder::try_new(fixtures::cube_config()).map_err(|e| e.to_string())?;
    let mut cohort = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        cohort.extend(try_session_to_sequences(&builder, s, SEQ_LEN, i + 1).map_err(|e| e.to_string())?);
    }
    Ok(Train { trainer: Trainer::new(fixtures::model_config(), train_config(seed)), cohort })
}

impl Train {
    fn steps_per_call(&self) -> usize {
        EPOCHS * self.cohort.len().div_ceil(BATCH)
    }

    fn sequences_per_call(&self) -> usize {
        EPOCHS * self.cohort.len()
    }
}

/// Rows `lo..hi` along the leading axis.
fn rows(t: &Tensor, lo: usize, hi: usize) -> Tensor {
    let mut shape = t.shape().to_vec();
    let row: usize = shape[1..].iter().product();
    shape[0] = hi - lo;
    Tensor::from_vec(&shape, t.data()[lo * row..hi * row].to_vec())
}

/// Per-layer times of the replayed training steps.
#[derive(Default)]
struct StepLayers {
    /// Per job: the wrist-relative label copy and the model's
    /// initialisation.
    job_setup: Acc,
    /// Per epoch: shuffling the cohort into batches.
    batching: Acc,
    forward: Acc,
    backward: Acc,
    optimizer: Acc,
    /// `MmHandModel::forward` per shard, and its two halves on a second tape.
    model_forward: Acc,
    spacenet: Acc,
    temporal: Acc,
}

/// Replays one training job through the public layer functions, with the
/// trainer's seeds, sharding and learning-rate schedule: label copy, model
/// initialisation at the mean pose, then every epoch's batching and every
/// step (forward + loss per shard, backward per shard, in-order gradient
/// reduction, clipping and Adam). Returns the summed layer time of the job
/// and the trained parameters.
fn replay_job(t: &Train, l: &mut StepLayers) -> (f64, ParamStore) {
    let before = l.job_setup.total_ms + l.batching.total_ms + l.forward.total_ms + l.backward.total_ms
        + l.optimizer.total_ms;
    let tc = &t.trainer.train_config;
    let (cohort, mut store, model) = l.job_setup.time(|| {
        let cohort: Vec<SegmentSequence> = t
            .cohort
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.labels.iter_mut().for_each(|l| to_relative(l));
                s
            })
            .collect();
        let mut store = ParamStore::new();
        let mut init = stream_rng(tc.seed, "model-init");
        let model = MmHandModel::new(&mut store, t.trainer.model_config.clone(), &mut init);
        let mean_pose = mean_pose_baseline(&cohort);
        for id in model.temporal.head_bias_ids() {
            store.value_mut(id).data_mut().copy_from_slice(&mean_pose);
        }
        (cohort, store, model)
    });
    let schedule = CosineSchedule::new(tc.base_lr, t.steps_per_call() as u64);
    let mut shuffle = stream_rng(tc.seed, "shuffle");
    let mut adam = Adam::new(tc.base_lr);
    let mut step = 0;
    for _ in 0..EPOCHS {
        let batches = l.batching.time(|| make_batches(&cohort, BATCH, &mut shuffle));
        for batch in &batches {
            replay_step(batch, tc, schedule.lr_at(step), &model, &mut store, &mut adam, l);
            step += 1;
        }
    }
    let ms = l.job_setup.total_ms + l.batching.total_ms + l.forward.total_ms + l.backward.total_ms
        + l.optimizer.total_ms
        - before;
    (ms, store)
}

/// One replayed training step.
fn replay_step(
    batch: &Batch,
    tc: &TrainConfig,
    lr: f32,
    model: &MmHandModel,
    store: &mut ParamStore,
    adam: &mut Adam,
    l: &mut StepLayers,
) {
    store.zero_grad();
    let n = batch.batch_size();
    let bounds: Vec<(usize, usize)> = (0..n).step_by(SHARD).map(|lo| (lo, (lo + SHARD).min(n))).collect();

    let t0 = now_ms();
    let mut shards: Vec<(Tape, Var, f64)> = mmhand_parallel::par_map(&bounds, |&(lo, hi)| {
        let segments: Vec<Tensor> = batch.segments.iter().map(|s| rows(s, lo, hi)).collect();
        let mut tape = Tape::new();
        let f0 = now_ms();
        let outs = model.forward(&mut tape, store, &segments);
        let forward_ms = ms_since(f0);
        let mut total: Option<Var> = None;
        for (out, label) in outs.iter().zip(&batch.labels) {
            let (loss, _, _) = combined_loss(&mut tape, *out, &rows(label, lo, hi), tc.weights);
            total = Some(match total {
                None => loss,
                Some(acc) => tape.add(acc, loss),
            });
        }
        let loss = tape.scale(total.expect("non-empty sequence"), 1.0 / outs.len() as f32);
        let root = if hi - lo == n { loss } else { tape.scale(loss, (hi - lo) as f32 / n as f32) };
        (tape, root, forward_ms)
    });
    l.forward.add(ms_since(t0));
    for (_, _, ms) in &shards {
        l.model_forward.add(*ms);
    }

    let t0 = now_ms();
    let mut grads: Vec<Vec<(mmhand_nn::ParamId, Tensor)>> = vec![Vec::new(); shards.len()];
    let mut work: Vec<_> = shards.iter_mut().zip(grads.iter_mut()).collect();
    mmhand_parallel::par_chunks_mut(&mut work, 1, |_, chunk| {
        for ((tape, root, _), out) in chunk.iter_mut() {
            tape.backward_with(*root, |id, g| out.push((id, g.clone())));
        }
    });
    for shard in &grads {
        for (id, g) in shard {
            store.accumulate_grad(*id, g);
        }
    }
    l.backward.add(ms_since(t0));

    let t0 = now_ms();
    if tc.clip_norm > 0.0 {
        store.clip_grad_norm(tc.clip_norm);
    }
    adam.step_with_lr(store, lr);
    l.optimizer.add(ms_since(t0));

    // The model's two halves for the first shard, on a tape of its own.
    let (lo, hi) = bounds[0];
    let mut tape = Tape::new();
    let feats: Vec<Var> = batch
        .segments
        .iter()
        .map(|s| {
            let x = tape.leaf(rows(s, lo, hi));
            l.spacenet.time(|| model.spacenet.forward(&mut tape, store, x))
        })
        .collect();
    std::hint::black_box(l.temporal.time(|| model.temporal.forward(&mut tape, store, &feats)));
}

pub fn run(cfg: &RunConfig, t: &mut Train, sessions: &[CaptureSession], r: &mut Report) -> Result<(), String> {
    // Untraced: repeated fixed-epoch training jobs, after one unmeasured.
    telemetry::set_enabled(false);
    t.trainer.try_train(&t.cohort).map_err(|e| e.to_string())?;
    let untraced_for = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let mut lat = Vec::new();
    let mut last = None;
    let start = now_ms();
    while lat.is_empty() || ms_since(start) < untraced_for * 1e3 {
        let t0 = now_ms();
        let trained = t.trainer.try_train(&t.cohort).map_err(|e| e.to_string())?;
        lat.push(ms_since(t0));
        last = Some(trained);
    }
    r.attempted = lat.len() as u64;
    // Medians over chunks of consecutive jobs, as over the blocks of
    // `live`; sequences per second at that job time, so a noisy stretch of
    // a shared machine moves a few chunks, not the rate.
    let s = Summary::chunked(&lat, JOBS_PER_CHUNK);
    let seq_per_s = t.sequences_per_call() as f64 / (s.p50 / 1e3);
    r.e2e("latency_ms_p50", s.p50, "ms");
    r.e2e("latency_ms_tail", s.tail, "ms");
    r.e2e("throughput_per_s", seq_per_s, "1/s");
    // Training jobs have no deadline: every job that returns is on time,
    // and one that fails ends the run.
    r.e2e("on_time_ratio", 1.0, "ratio");
    r.note(format!(
        "train.job_ms_p50 {:.3} ms, train.job_ms_p{} {:.3} ms (median of chunks of {JOBS_PER_CHUNK}) \
         over {} jobs of {EPOCHS} epochs x {} sequences ({} steps, {FRAMES_PER_SEQUENCE} frames per sequence); \
         train.seq_per_s {seq_per_s:.3} 1/s",
        s.p50,
        s.tail_pct,
        s.tail,
        s.n,
        t.cohort.len(),
        t.steps_per_call()
    ));

    // Correctness: finite, decreasing loss; the parameters are hashed.
    let trained = last.ok_or("no training job ran")?;
    let (first_loss, last_loss) = match (trained.history.first(), trained.history.last()) {
        (Some(a), Some(b)) => (a.loss, b.loss),
        _ => return Err("training produced no epochs".into()),
    };
    r.check(
        trained.history.iter().all(|e| e.loss.is_finite()),
        "train: non-finite epoch loss",
    );
    r.check(last_loss < first_loss, format!("train: last epoch loss {last_loss} not below first {first_loss}"));
    let mut h = FNV_BASIS;
    hash_f32s(&mut h, &trained.store.snapshot());
    r.output_hashes.push(("train.params", h));
    r.note(format!("train.loss first {first_loss:.6} last {last_loss:.6}"));

    if !cfg.trace {
        return Ok(());
    }
    // Rounds of three jobs side by side, so a noisy stretch of a shared
    // machine hits all three alike: untraced, replayed layer by layer
    // (untraced too), and traced (spans, grad norm). The cohort's cube
    // build is replayed traced at the end.
    let mut l = StepLayers::default();
    let (mut untraced, mut replayed, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    telemetry::reset();
    let start = now_ms();
    while replayed.len() < REPLAY_JOBS || ms_since(start) < cfg.seconds / 2.0 * 1e3 {
        let t0 = now_ms();
        std::hint::black_box(t.trainer.try_train(&t.cohort).map_err(|e| e.to_string())?);
        untraced.push(ms_since(t0));
        let (ms, store) = replay_job(t, &mut l);
        replayed.push(ms);
        if replayed.len() == 1 {
            let mut hr = FNV_BASIS;
            hash_f32s(&mut hr, &store.snapshot());
            r.check(hr == h, "train: the layer-by-layer replay's parameters differ from try_train's");
        }
        telemetry::set_enabled(true);
        let t0 = now_ms();
        std::hint::black_box(t.trainer.try_train(&t.cohort).map_err(|e| e.to_string())?);
        traced.push(ms_since(t0));
        telemetry::set_enabled(false);
    }
    telemetry::set_enabled(true);
    let mut dsp = DspReplay::new(&fixtures::cube_config())?;
    let (mut frame, mut segment) = (Acc::default(), Acc::default());
    replay_cube(&mut dsp, &mut frame, &mut segment, sessions)?;
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);

    r.layer("cube.frame_ms", frame.mean(), "ms");
    r.layer("cube.segment_ms", segment.mean(), "ms");
    crate::dsp_layers(r, &dsp);
    let shard_steps = l.model_forward.calls.max(1) as f64;
    let steps = l.optimizer.calls.max(1) as f64;
    let spacenet = l.spacenet.total_ms / steps;
    let temporal = l.temporal.total_ms / steps;
    let predict = l.model_forward.total_ms / shard_steps;
    r.layer("model.spacenet_ms", spacenet, "ms");
    r.layer("model.temporal_ms", temporal, "ms");
    r.layer("model.predict_ms", predict, "ms");
    r.layer("model.tape_overhead_ms", predict - spacenet - temporal, "ms");
    r.layer("model.param_bytes", (trained.store.scalar_count() * 4) as f64, "bytes");
    crate::absent_mesh_layers(r);
    crate::absent_serve_layers(r);
    r.layer("train.forward_ms", l.forward.mean(), "ms");
    r.layer("train.backward_ms", l.backward.mean(), "ms");
    r.layer("train.optimizer_ms", l.optimizer.mean(), "ms");
    r.layer("train.fwd_bwd_span_ms", span_mean_ms(&snap, "train.backward"), "ms");
    r.layer("train.optimizer_span_ms", span_mean_ms(&snap, "train.optimizer"), "ms");
    parallel_metrics(r, &snap);
    let untraced_job_ms = stats::median(&untraced);
    r.layer("layer_coverage", stats::median(&replayed) / untraced_job_ms, "ratio");
    r.layer("tracing_overhead_pct", (stats::median(&traced) / untraced_job_ms - 1.0) * 100.0, "%");
    Ok(())
}

/// The cohort's cube build, layer by layer: the frames behind the first
/// few segments of every session, timed per call.
fn replay_cube(dsp: &mut DspReplay, frame: &mut Acc, segment: &mut Acc, sessions: &[CaptureSession]) -> Result<(), String> {
    let builder = CubeBuilder::try_new(fixtures::cube_config()).map_err(|e| e.to_string())?;
    let st = builder.config().frames_per_segment;
    let per_session = CUBE_REPLAY_FRAMES / sessions.len().max(1) / st * st;
    for s in sessions {
        for seg in s.frames[..per_session.min(s.frames.len())].chunks_exact(st) {
            let cubes = seg
                .iter()
                .map(|f| frame.time(|| builder.try_process_frame(f)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            std::hint::black_box(segment.time(|| builder.try_segment_tensor(&cubes)).map_err(|e| e.to_string())?);
            dsp.frame(&seg[0]);
        }
    }
    Ok(())
}
