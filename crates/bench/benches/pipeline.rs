//! Criterion benchmarks of the pipeline stages (supporting Fig. 26 and the
//! per-stage cost breakdown): signal synthesis, cube construction, network
//! inference, kinematic loss, and mesh reconstruction — plus kernel-level
//! benches of the hot compute primitives (GEMM at the convolution's actual
//! shapes, conv2d forward, batched range-FFT). The `*_naive` rows run the
//! pre-optimisation reference kernels so a single run shows before/after.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mmhand_core::cube::{CubeBuilder, CubeConfig};
use mmhand_core::loss::kinematic_loss;
use mmhand_core::mesh::MeshReconstructor;
use mmhand_core::model::{MmHandModel, ModelConfig};
use mmhand_hand::gesture::Gesture;
use mmhand_hand::shape::HandShape;
use mmhand_hand::trajectory::GestureTrack;
use mmhand_hand::user::UserProfile;
use mmhand_math::rng::stream_rng;
use mmhand_math::Vec3;
use mmhand_nn::{ParamStore, Tape, Tensor};
use mmhand_radar::capture::{record_session, CaptureConfig};

fn bench_radar_synthesis(c: &mut Criterion) {
    let user = UserProfile::generate(1, 42);
    let track = GestureTrack::from_gestures(
        &[Gesture::OpenPalm, Gesture::Fist],
        Vec3::new(0.0, 0.3, 0.0),
        0.4,
        0.4,
    );
    let cfg = CaptureConfig::default();
    c.bench_function("radar_synthesize_frame", |b| {
        b.iter(|| record_session(&user, &track, 1, &cfg))
    });
}

fn bench_cube_builder(c: &mut Criterion) {
    let user = UserProfile::generate(1, 42);
    let track = GestureTrack::from_gestures(&[Gesture::OpenPalm], Vec3::new(0.0, 0.3, 0.0), 1.0, 0.1);
    let session = record_session(&user, &track, 1, &CaptureConfig::default());
    let builder = CubeBuilder::try_new(CubeConfig::default()).expect("default cube is valid");
    c.bench_function("cube_process_frame", |b| {
        b.iter(|| builder.try_process_frame(&session.frames[0]))
    });
}

fn bench_network_forward(c: &mut Criterion) {
    let cfg = ModelConfig::default();
    let mut store = ParamStore::new();
    let mut rng = stream_rng(1, "bench");
    let model = MmHandModel::new(&mut store, cfg.clone(), &mut rng);
    let segs: Vec<Tensor> = (0..3)
        .map(|_| {
            Tensor::randn(
                &[1, cfg.input_channels(), cfg.range_bins, cfg.angle_bins],
                1.0,
                &mut rng,
            )
        })
        .collect();
    c.bench_function("mmspacenet_lstm_forward", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            model.forward(&mut tape, &store, &segs)
        })
    });
}

fn bench_kinematic_loss(c: &mut Criterion) {
    let shape = HandShape::default();
    let truth_j = Gesture::OpenPalm.pose().joints(&shape);
    let pred_j = Gesture::Fist.pose().joints(&shape);
    let flat = |j: &[Vec3; 21]| -> Vec<f32> { j.iter().flat_map(|v| v.to_array()).collect() };
    let truth = Tensor::from_vec(&[1, 63], flat(&truth_j));
    let pred = Tensor::from_vec(&[1, 63], flat(&pred_j));
    c.bench_function("kinematic_loss_with_gradient", |b| {
        b.iter(|| kinematic_loss(&pred, &truth))
    });
}

fn bench_mesh_reconstruction(c: &mut Criterion) {
    let reconstructor = MeshReconstructor::new(1);
    let shape = HandShape::default();
    let mut pose = Gesture::Point.pose();
    pose.position = Vec3::new(0.0, 0.3, 0.0);
    let skel: Vec<f32> = pose.joints(&shape).iter().flat_map(|v| v.to_array()).collect();
    c.bench_function("mesh_reconstruct_analytic", |b| {
        b.iter(|| reconstructor.try_reconstruct_analytic(&skel))
    });
}

fn bench_gemm_kernels(c: &mut Criterion) {
    use mmhand_nn::tensor::{gemm, gemm_naive};
    let mut rng = stream_rng(7, "gemm-bench");
    // The default model's two convolution GEMM shapes (per sample):
    // stem  — m = channels (12), k = in_channels·3·3 (288), n = 16·16 (256)
    // block — m = 12, k = 12·3·3 (108), n = 256.
    for (label, m, k, n) in [
        ("gemm_conv_stem_12x288x256", 12usize, 288usize, 256usize),
        ("gemm_conv_block_12x108x256", 12, 108, 256),
    ] {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b_t = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut out = vec![0.0_f32; m * n];
        c.bench_function(label, |bch| {
            bch.iter(|| {
                out.fill(0.0);
                gemm(a.data(), b_t.data(), &mut out, m, k, n);
                black_box(out[0])
            })
        });
        c.bench_function(&format!("{label}_naive"), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                gemm_naive(a.data(), b_t.data(), &mut out, m, k, n);
                black_box(out[0])
            })
        });
    }
}

fn bench_conv2d_forward(c: &mut Criterion) {
    use mmhand_nn::conv::conv2d_forward;
    use mmhand_nn::ConvSpec;
    let cfg = ModelConfig::default();
    let mut rng = stream_rng(8, "conv-bench");
    // The stem convolution on a batch of 8 segments, as seen in training.
    let spec = ConvSpec {
        in_channels: cfg.input_channels(),
        out_channels: cfg.channels,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let x = Tensor::randn(&[8, spec.in_channels, cfg.range_bins, cfg.angle_bins], 1.0, &mut rng);
    let w = Tensor::randn(
        &[spec.out_channels, spec.in_channels, spec.kernel, spec.kernel],
        0.1,
        &mut rng,
    );
    let bias = vec![0.0_f32; spec.out_channels];
    c.bench_function("conv2d_forward_batch8_stem", |b| {
        b.iter(|| conv2d_forward(&x, &w, &bias, &spec))
    });
}

fn bench_range_fft_batch(c: &mut Criterion) {
    use mmhand_dsp::spectrum::range_fft_batch;
    use mmhand_dsp::Window;
    use mmhand_math::Complex;
    use rand::Rng;
    let mut rng = stream_rng(9, "fft-bench");
    // One frame's worth of chirps at the default geometry: 12 virtual
    // antennas × 16 chirps, 64 samples each.
    let batch: Vec<Vec<Complex>> = (0..12 * 16)
        .map(|_| {
            (0..64)
                .map(|_| Complex::new(rng.gen_range(-1.0_f32..1.0), rng.gen_range(-1.0_f32..1.0)))
                .collect()
        })
        .collect();
    c.bench_function("range_fft_batch_192x64", |b| {
        b.iter(|| range_fft_batch(&batch, Window::Hann))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_radar_synthesis,
              bench_cube_builder,
              bench_network_forward,
              bench_kinematic_loss,
              bench_mesh_reconstruction,
              bench_gemm_kernels,
              bench_conv2d_forward,
              bench_range_fft_batch
}
criterion_main!(benches);
