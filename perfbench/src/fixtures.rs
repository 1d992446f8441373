//! Seeded inputs and models shared by the workloads, plus the small timing
//! helpers the traced runs use around calls into each layer.

use mmhand_core::eval::{record_user_session, DataConfig};
use mmhand_core::{CubeConfig, MmHandModel, ModelConfig, TrainedModel};
use mmhand_dsp::fft::{fft_shift_inplace, plan, FftPlan};
use mmhand_dsp::filter::BandpassFilter;
use mmhand_dsp::window::Window;
use mmhand_dsp::zoom::{zoom_plan, ZoomPlan};
use mmhand_hand::user::UserProfile;
use mmhand_math::rng::stream_rng;
use mmhand_math::Complex;
use mmhand_nn::ParamStore;
use mmhand_radar::{CaptureSession, RawFrame, VirtualArray};
use std::sync::Arc;

/// Radar frames per `live` window: three segments of four frames.
pub const FRAMES_PER_WINDOW: usize = 12;

/// Full-scale data geometry (the cube and model of the paper reproduction).
pub fn data_config(seed: u64, frames_per_user: usize) -> DataConfig {
    DataConfig { frames_per_user, seed, ..DataConfig::default() }
}

/// Full-scale cube geometry.
pub fn cube_config() -> CubeConfig {
    DataConfig::default().cube
}

/// Full-scale model architecture.
pub fn model_config() -> ModelConfig {
    DataConfig::default().model_config()
}

/// A full-scale model with seeded initial weights. Operation cost does not
/// depend on weight values, so the benchmark skips training it.
pub fn seeded_model(seed: u64) -> TrainedModel {
    let mut store = ParamStore::new();
    let mut rng = stream_rng(seed, "perfbench.model");
    let model = MmHandModel::new(&mut store, model_config(), &mut rng);
    TrainedModel { model, store, history: Vec::new() }
}

/// `users` synthetic capture sessions of `frames` frames each, one user
/// per session, all drawn from `seed`.
pub fn captures(seed: u64, users: usize, frames: usize) -> Vec<CaptureSession> {
    let data = data_config(seed, frames);
    let cohort = UserProfile::cohort(users, seed);
    mmhand_parallel::par_map(&cohort, |u| record_user_session(&data, u, 0))
}

/// Milliseconds on the telemetry clock, the workspace's one sanctioned
/// wall-clock source.
pub fn now_ms() -> f64 {
    mmhand_telemetry::now_ns() as f64 / 1e6
}

/// Milliseconds since `t0`, a [`now_ms`] reading.
pub fn ms_since(t0: f64) -> f64 {
    now_ms() - t0
}

/// Accumulated busy time of one layer over a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub total_ms: f64,
    pub calls: u64,
}

impl Acc {
    pub fn add(&mut self, ms: f64) {
        self.total_ms += ms;
        self.calls += 1;
    }

    /// Times `f` into this accumulator.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = now_ms();
        let r = f();
        self.add(ms_since(t));
        r
    }

    /// Mean milliseconds per call (0 when never called).
    pub fn mean(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ms / self.calls as f64
        }
    }
}

/// Replays one frame's cube call pattern stage by stage on the calling
/// thread: the band-pass filter, the windowed range FFT, the windowed and
/// shifted Doppler FFT, and the azimuth/elevation zoom DFTs.
pub struct DspReplay {
    cfg: CubeConfig,
    array: VirtualArray,
    bandpass: BandpassFilter,
    range_plan: Arc<FftPlan>,
    doppler_plan: Arc<FftPlan>,
    az_plan: Arc<ZoomPlan>,
    el_plan: Arc<ZoomPlan>,
    pub filter: Acc,
    pub range_fft: Acc,
    pub doppler_fft: Acc,
    pub zoom_dft: Acc,
}

impl DspReplay {
    pub fn new(cfg: &CubeConfig) -> Result<Self, String> {
        let array = VirtualArray::new(&cfg.chirp);
        let bandpass = cfg.try_design_bandpass().map_err(|e| e.to_string())?;
        let f_max = cfg.max_angle_rad.sin() * 0.5;
        Ok(DspReplay {
            range_plan: plan(cfg.chirp.samples_per_chirp),
            doppler_plan: plan(cfg.chirp.chirps_per_tx),
            az_plan: zoom_plan(array.azimuth_row().len(), -f_max, f_max, cfg.azimuth_bins),
            el_plan: zoom_plan(2, -f_max, f_max, cfg.elevation_bins),
            cfg: cfg.clone(),
            array,
            bandpass,
            filter: Acc::default(),
            range_fft: Acc::default(),
            doppler_fft: Acc::default(),
            zoom_dft: Acc::default(),
        })
    }

    /// Replays `frame`, adding one call's worth of time to each stage.
    pub fn frame(&mut self, frame: &RawFrame) {
        let c = &self.cfg.chirp;
        let (n_va, chirps, samples) = (c.virtual_antenna_count(), c.chirps_per_tx, c.samples_per_chirp);
        let (d_bins, v_bins) = (self.cfg.range_bins, self.cfg.doppler_bins);
        let d_off = (self.cfg.range_min_m / c.range_resolution_m()).floor() as usize;
        let mut chirp_bufs = vec![Vec::with_capacity(samples); n_va * chirps];
        let mut scratch = Vec::with_capacity(2 * samples);

        let t = now_ms();
        for tx in 0..c.tx_count {
            for rx in 0..c.rx_count {
                let va = self.array.element_index(tx, rx);
                for chirp in 0..chirps {
                    let out = &mut chirp_bufs[va * chirps + chirp];
                    self.bandpass.filter_complex_into(frame.chirp_samples(tx, rx, chirp), &mut scratch, out);
                }
            }
        }
        self.filter.add(ms_since(t));

        let t = now_ms();
        let mut rd = vec![Complex::ZERO; n_va * chirps * d_bins];
        for (k, buf) in chirp_bufs.iter_mut().enumerate() {
            Window::Hann.apply_inplace(buf);
            self.range_plan.forward(buf);
            rd[k * d_bins..(k + 1) * d_bins].copy_from_slice(&buf[d_off..d_off + d_bins]);
        }
        self.range_fft.add(ms_since(t));

        let t = now_ms();
        let v_off = (chirps - v_bins) / 2;
        let mut vd = vec![Complex::ZERO; n_va * v_bins * d_bins];
        let mut buf = vec![Complex::ZERO; chirps];
        for va in 0..n_va {
            for d in 0..d_bins {
                for (chirp, b) in buf.iter_mut().enumerate() {
                    *b = rd[(va * chirps + chirp) * d_bins + d];
                }
                Window::Hann.apply_inplace(&mut buf);
                self.doppler_plan.forward(&mut buf);
                fft_shift_inplace(&mut buf);
                for v in 0..v_bins {
                    vd[(va * v_bins + v) * d_bins + d] = buf[v_off + v];
                }
            }
        }
        self.doppler_fft.add(ms_since(t));

        let t = now_ms();
        let az_row = self.array.azimuth_row();
        let (el_row, overlap) = (self.array.elevated_row(), self.array.azimuth_overlap());
        let mut elements = vec![Complex::ZERO; az_row.len()];
        let mut spec = Vec::with_capacity(self.cfg.azimuth_bins.max(self.cfg.elevation_bins));
        let mut energy = 0.0f32;
        for v in 0..v_bins {
            for d in 0..d_bins {
                for (k, &e) in az_row.iter().enumerate() {
                    elements[k] = vd[(e * v_bins + v) * d_bins + d];
                }
                self.az_plan.evaluate_into(&elements, &mut spec);
                energy += spec.iter().map(|s| s.abs()).sum::<f32>();
                let (mut bottom, mut top) = (Complex::ZERO, Complex::ZERO);
                for (&et, &eb) in el_row.iter().zip(overlap) {
                    top += vd[(et * v_bins + v) * d_bins + d];
                    bottom += vd[(eb * v_bins + v) * d_bins + d];
                }
                self.el_plan.evaluate_into(&[bottom, top], &mut spec);
                energy += spec.iter().map(|s| s.abs()).sum::<f32>();
            }
        }
        std::hint::black_box(energy);
        self.zoom_dft.add(ms_since(t));
    }
}
