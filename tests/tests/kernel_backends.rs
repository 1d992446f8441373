//! Golden bitwise regression for the kernel dispatch layer.
//!
//! The hashes below were captured from the pre-dispatch (scalar-only)
//! implementations on fixed seeds. The dispatch refactor's contract is that
//! *every* backend — scalar and SIMD — reproduces those outputs bit for bit,
//! so each test asserts the same hash for every backend available on the
//! host. The whole-pipeline checks at the bottom run on the process-selected
//! backend; CI re-runs the suite under `MMHAND_KERNEL_BACKEND=scalar` and
//! `=simd`, so both selections are held to the pre-refactor bits.

use mmhand_core::cube::{CubeBuilder, CubeConfig};
use mmhand_dsp::fft;
use mmhand_dsp::filter::ButterworthDesign;
use mmhand_hand::mano::ManoModel;
use mmhand_kernels::Kernels;
use mmhand_math::rng::{standard_normal, stream_rng};
use mmhand_math::{Complex, Vec3};
use mmhand_nn::Tensor;

/// Order-sensitive FNV-1a over `f32` bit patterns: any single-ULP change in
/// any element changes the hash.
fn bits(xs: &[f32]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(16777619);
        }
    }
    h
}

fn flat(xs: &[Complex]) -> Vec<f32> {
    xs.iter().flat_map(|c| [c.re, c.im]).collect()
}

/// Every backend available on this host, always including scalar.
fn backends() -> Vec<&'static dyn Kernels> {
    let mut all = vec![mmhand_kernels::scalar_kernels()];
    if let Some(simd) = mmhand_kernels::simd_kernels() {
        all.push(simd);
    }
    all
}

#[test]
fn gemm_reproduces_pre_dispatch_bits_on_every_backend() {
    let (m, k, n) = (9usize, 300usize, 33usize);
    let mut rng = stream_rng(11, "golden-gemm");
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
    for kern in backends() {
        let name = kern.name();
        let mut c = vec![0.0f32; m * n];
        mmhand_nn::tensor::gemm_with(kern, a.data(), b.data(), &mut c, m, k, n);
        assert_eq!(bits(&c), 0x0e2c808f, "gemm hash ({name})");
        assert_eq!(c[0].to_bits(), 0x414c8afb, "gemm c[0] ({name})");
        assert_eq!(c[m * n - 1].to_bits(), 0x4201e09e, "gemm c[last] ({name})");

        let mut c2 = vec![0.0f32; m * n];
        mmhand_nn::tensor::gemm_at_b_with(kern, a.transposed().data(), b.data(), &mut c2, m, k, n);
        assert_eq!(bits(&c2), 0x0e2c808f, "gemm_at_b hash ({name})");

        let mut c3 = vec![0.0f32; m * n];
        mmhand_nn::tensor::gemm_a_bt_with(kern, a.data(), b.transposed().data(), &mut c3, m, k, n);
        assert_eq!(bits(&c3), 0x0e2c808f, "gemm_a_bt hash ({name})");
    }
}

#[test]
fn fft_reproduces_pre_dispatch_bits_on_every_backend() {
    let golden = [(64usize, 0xf0a85670u32, 0xbc062f06u32), (256, 0x110d0c80, 0x6f2cae3c)];
    for kern in backends() {
        let name = kern.name();
        for (n, fwd_hash, inv_hash) in golden {
            let mut rng = stream_rng(7, "golden-fft");
            let mut sig: Vec<Complex> = (0..n)
                .map(|_| Complex::new(standard_normal(&mut rng), standard_normal(&mut rng)))
                .collect();
            let plan = fft::plan(n);
            plan.forward_with(kern, &mut sig);
            assert_eq!(bits(&flat(&sig)), fwd_hash, "fft{n} hash ({name})");
            plan.inverse_with(kern, &mut sig);
            assert_eq!(bits(&flat(&sig)), inv_hash, "ifft{n} hash ({name})");
        }
    }
}

#[test]
fn filter_reproduces_pre_dispatch_bits_on_every_backend() {
    let mut filt = ButterworthDesign {
        order: 8,
        low_hz: 1_000.0,
        high_hz: 4_000.0,
        sample_rate_hz: 20_000.0,
    }
    .design()
    .expect("valid design");
    let mut rng = stream_rng(3, "golden-filter");
    let xs: Vec<Complex> = (0..512)
        .map(|_| Complex::new(standard_normal(&mut rng), standard_normal(&mut rng)))
        .collect();
    for kern in backends() {
        let mut scratch = Vec::new();
        let mut ys = Vec::new();
        filt.filter_complex_into_with(kern, &xs, &mut scratch, &mut ys);
        assert_eq!(bits(&flat(&ys)), 0x5648adc5, "filter hash ({})", kern.name());
    }
}

/// Whole-pipeline stages on the *process-selected* backend: a radar cube
/// built through the dispatched FFT/filter inner loops, and a posed MANO
/// mesh through the dispatched skinning kernel. Run under
/// `MMHAND_KERNEL_BACKEND=scalar` this is exactly the pre-refactor
/// regression; under `=simd` it proves the SIMD path leaves the pipeline
/// bit-identical.
#[test]
fn cube_and_mesh_reproduce_pre_dispatch_bits_on_selected_backend() {
    let builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
    let cfg = mmhand_radar::ChirpConfig::default();
    let array = mmhand_radar::VirtualArray::new(&cfg);
    let mut scene = mmhand_radar::Scene::new(0.02);
    scene.add_targets(vec![mmhand_radar::scene::PointTarget::fixed(
        Vec3::new(0.05, 0.3, 0.0),
        1.0,
    )]);
    let mut rng = stream_rng(5, "golden-cube");
    let frame = mmhand_radar::synth::synthesize_frame(&cfg, &array, &scene, &mut rng);
    let cube = builder.try_process_frame(&frame).unwrap();
    let backend = builder.kernel_backend();
    assert_eq!(bits(&cube.data), 0xb5a8c95c, "cube hash ({backend})");

    let model = ManoModel::new();
    let mut theta = [Vec3::ZERO; 21];
    theta[5] = Vec3::new(0.9, 0.1, -0.2);
    theta[6] = Vec3::new(0.7, 0.0, 0.0);
    theta[9] = Vec3::new(0.5, -0.1, 0.0);
    let mesh = model.mesh(&[0.3, -0.2, 0.1, 0.0, 0.0, 0.4, 0.0, 0.0, -0.3, 0.0], &theta);
    let verts: Vec<f32> = mesh.vertices.iter().flat_map(|v| [v.x, v.y, v.z]).collect();
    assert_eq!(verts[0].to_bits(), 0x3d116c9a, "lbs v[0].x ({backend})");
    assert_eq!(bits(&verts), 0xc55587a6, "lbs hash ({backend})");
}
