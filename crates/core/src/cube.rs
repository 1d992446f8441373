//! Radar-cube construction: the paper's signal pre-processing (§III).
//!
//! One [`RawFrame`] of IF samples becomes one slice of the *Radar Cube*
//! `RC ∈ R^{F×V×D×A}` through:
//!
//! 1. an 8th-order Butterworth band-pass that keeps only beat frequencies
//!    of the hand's range band (removing body/furniture clutter),
//! 2. a windowed **range-FFT** per chirp, cropped to `D` bins covering the
//!    hand band,
//! 3. a windowed **Doppler-FFT** across each TX's chirps, cropped to the
//!    central `V` velocity bins (hand motion is slow),
//! 4. a **zoom-FFT angle transform** (±30°, refinement factor 2) over the
//!    virtual array: 8 azimuth bins from the 8-element ULA and 8 elevation
//!    bins from the elevated row, concatenated into `A = 16` angle bins.
//!
//! The elevation spectrum uses the IWR1443's single elevated TX row, so its
//! angular resolution is inherently coarse — true of the physical device as
//! well.

// Serving runs through this module: errors are typed, never panics (see
// `mmhand-serve`'s crate root).
#![deny(clippy::expect_used, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::error::PipelineError;
use mmhand_dsp::error::DspError;
use mmhand_dsp::fft::{fft_shift_inplace, plan, FftPlan};
use mmhand_dsp::filter::{BandpassFilter, ButterworthDesign};
use mmhand_dsp::window::Window;
use mmhand_dsp::zoom::{zoom_plan, ZoomPlan};
use mmhand_math::Complex;
use mmhand_nn::Tensor;
use mmhand_radar::{ChirpConfig, RawFrame, VirtualArray};
use std::sync::{Arc, OnceLock};

thread_local! {
    /// Per-worker complex working buffers for cube assembly: the
    /// range/Doppler FFT buffers, the intermediate `rd`/`vd` planes and the
    /// angle spectra all check out of this pool, so steady-state frame
    /// processing allocates nothing.
    static CUBE_POOL: mmhand_parallel::ScratchPool<Complex> =
        const { mmhand_parallel::ScratchPool::new("core.cube") };
    /// Real-valued scratch: one virtual antenna's chirps as filter lanes.
    static CUBE_F32_POOL: mmhand_parallel::ScratchPool<f32> =
        const { mmhand_parallel::ScratchPool::new("core.cube.f32") };
}

/// Frames fully processed into cube slices, across all builders — the
/// denominator for the bench harness's per-frame allocation budget.
fn frames_processed() -> &'static mmhand_telemetry::Counter {
    static COUNTER: OnceLock<mmhand_telemetry::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| mmhand_telemetry::counter("core.frames_processed"))
}

/// Cube geometry and band parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct CubeConfig {
    /// Radar parameters the frames were captured with.
    pub chirp: ChirpConfig,
    /// Number of range bins `D` kept (covering the hand band).
    pub range_bins: usize,
    /// Number of Doppler bins `V` kept (central bins).
    pub doppler_bins: usize,
    /// Azimuth bins (half of `A`).
    pub azimuth_bins: usize,
    /// Elevation bins (other half of `A`).
    pub elevation_bins: usize,
    /// Near edge of the hand band in metres.
    pub range_min_m: f64,
    /// Far edge of the hand band in metres.
    pub range_max_m: f64,
    /// Angular field of view (± this angle), radians.
    pub max_angle_rad: f32,
    /// Frames per segment `st`.
    pub frames_per_segment: usize,
}

impl Default for CubeConfig {
    fn default() -> Self {
        CubeConfig {
            chirp: ChirpConfig::default(),
            range_bins: 16,
            doppler_bins: 8,
            azimuth_bins: 8,
            elevation_bins: 8,
            range_min_m: 0.12,
            range_max_m: 0.85,
            max_angle_rad: mmhand_math::deg_to_rad(30.0),
            frames_per_segment: 4,
        }
    }
}

impl CubeConfig {
    /// Total angle bins `A` (azimuth ⊕ elevation).
    pub fn angle_bins(&self) -> usize {
        self.azimuth_bins + self.elevation_bins
    }

    /// Channels of one segment tensor: `st · V`.
    pub fn segment_channels(&self) -> usize {
        self.frames_per_segment * self.doppler_bins
    }

    /// Shape of one frame's cube slice `(V, D, A)`.
    pub fn frame_shape(&self) -> [usize; 3] {
        [self.doppler_bins, self.range_bins, self.angle_bins()]
    }

    /// First kept range-FFT bin.
    fn range_bin_offset(&self) -> usize {
        let res = self.chirp.range_resolution_m();
        (self.range_min_m / res).floor() as usize
    }

    /// Centre range (metres) of kept range bin `d`.
    pub fn range_of_bin(&self, d: usize) -> f64 {
        (self.range_bin_offset() + d) as f64 * self.chirp.range_resolution_m()
    }

    /// Designs the hand-isolation band-pass filter for this band.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Dsp`] when the configured band cannot
    /// produce a stable 8th-order design (validated configurations never
    /// fail).
    pub fn try_design_bandpass(&self) -> Result<BandpassFilter, PipelineError> {
        let filter = ButterworthDesign {
            order: 8,
            low_hz: self.chirp.beat_frequency_hz(self.range_min_m),
            high_hz: self.chirp.beat_frequency_hz(self.range_max_m),
            sample_rate_hz: self.chirp.sample_rate_hz(),
        }
        .design()
        .map_err(DspError::from)?;
        Ok(filter)
    }

    /// Validates geometry against the chirp configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed error for the first violated constraint: a wrapped
    /// [`mmhand_radar::RadarError`] for chirp-level problems, or a
    /// [`PipelineError::InvalidConfig`] naming the cube field otherwise.
    pub fn validate(&self) -> Result<(), PipelineError> {
        self.chirp.validate()?;
        let invalid = |field: &'static str, reason: &str| {
            Err(PipelineError::InvalidConfig { field, reason: reason.to_string() })
        };
        if self.doppler_bins > self.chirp.chirps_per_tx {
            return invalid("doppler_bins", "exceeds chirps per TX");
        }
        let max_bin = self.range_bin_offset() + self.range_bins;
        if max_bin > self.chirp.samples_per_chirp / 2 {
            return invalid("range_bins", "range band exceeds unambiguous range");
        }
        if self.range_min_m >= self.range_max_m {
            return invalid("range_min_m", "range_min must be below range_max");
        }
        if self.azimuth_bins == 0 {
            return invalid("azimuth_bins", "angle transforms need at least one bin");
        }
        if self.elevation_bins == 0 {
            return invalid("elevation_bins", "angle transforms need at least one bin");
        }
        let nyquist = self.chirp.sample_rate_hz() / 2.0;
        if self.chirp.beat_frequency_hz(self.range_max_m) >= nyquist {
            return invalid("range_max_m", "range_max beat frequency exceeds Nyquist");
        }
        Ok(())
    }
}

/// One frame's slice of the radar cube: magnitudes `(V, D, A)`.
#[derive(Clone, Debug)]
pub struct CubeFrame {
    /// Magnitude data, row-major `(V, D, A)`.
    pub data: Vec<f32>,
    /// Shape `(V, D, A)`.
    pub shape: [usize; 3],
}

impl CubeFrame {
    /// Value at `(v, d, a)`.
    pub fn at(&self, v: usize, d: usize, a: usize) -> f32 {
        let [_, dd, aa] = self.shape;
        self.data[(v * dd + d) * aa + a]
    }

    /// The range profile summed over velocity and angle (for diagnostics).
    pub fn range_profile(&self) -> Vec<f32> {
        let [vv, dd, aa] = self.shape;
        let mut out = vec![0.0; dd];
        for v in 0..vv {
            for (d, slot) in out.iter_mut().enumerate() {
                for a in 0..aa {
                    *slot += self.at(v, d, a);
                }
            }
        }
        out
    }
}

/// Builds radar cubes from raw frames.
#[derive(Clone, Debug)]
pub struct CubeBuilder {
    config: CubeConfig,
    array: VirtualArray,
    bandpass: BandpassFilter,
    /// Range-FFT plan (`samples_per_chirp` points), held so the per-frame
    /// path never touches the global plan-cache lock.
    range_plan: Arc<FftPlan>,
    /// Doppler-FFT plan (`chirps_per_tx` points).
    doppler_plan: Arc<FftPlan>,
    /// Hann window over one chirp (`samples_per_chirp` coefficients), so
    /// the per-frame path scales by table instead of calling `cos`.
    range_window: Vec<f32>,
    /// Hann window over one TX's chirps (`chirps_per_tx` coefficients).
    doppler_window: Vec<f32>,
    /// Azimuth zoom-DFT steering table over the ULA row.
    az_plan: Arc<ZoomPlan>,
    /// Elevation zoom-DFT steering table over the 2-element interferometer.
    el_plan: Arc<ZoomPlan>,
    /// Virtual-antenna index → `(tx, rx)` pair, so stage 1 can partition
    /// its output by antenna chunk without rebuilding the map per frame.
    pairs: Vec<(usize, usize)>,
    /// Name of the kernel backend selected at construction (`"scalar"` /
    /// `"simd"`): forcing selection here keeps the backend log line and
    /// gauge out of the per-frame path.
    kernel_backend: &'static str,
}

impl CubeBuilder {
    /// Creates a builder (designs the band-pass filter, FFT plans, window
    /// tables and zoom-DFT steering tables once).
    ///
    /// # Errors
    ///
    /// Returns the first configuration or filter-design violation.
    pub fn try_new(config: CubeConfig) -> Result<Self, PipelineError> {
        config.validate()?;
        let array = VirtualArray::new(&config.chirp);
        let bandpass = config.try_design_bandpass()?;
        // validate() has checked samples/chirps are powers of two and both
        // bin counts are positive, so plan construction cannot panic here.
        let range_plan = plan(config.chirp.samples_per_chirp);
        let doppler_plan = plan(config.chirp.chirps_per_tx);
        let range_window = Window::Hann.coefficients(config.chirp.samples_per_chirp);
        let doppler_window = Window::Hann.coefficients(config.chirp.chirps_per_tx);
        let f_max = config.max_angle_rad.sin() * 0.5;
        let az_plan = zoom_plan(array.azimuth_row().len(), -f_max, f_max, config.azimuth_bins);
        let el_plan = zoom_plan(2, -f_max, f_max, config.elevation_bins);
        let mut pairs = vec![(0usize, 0usize); config.chirp.virtual_antenna_count()];
        for tx in 0..config.chirp.tx_count {
            for rx in 0..config.chirp.rx_count {
                pairs[array.element_index(tx, rx)] = (tx, rx);
            }
        }
        let kernel_backend = mmhand_kernels::backend_name();
        Ok(CubeBuilder {
            config,
            array,
            bandpass,
            range_plan,
            doppler_plan,
            range_window,
            doppler_window,
            az_plan,
            el_plan,
            pairs,
            kernel_backend,
        })
    }

    /// The configuration this builder was created with.
    pub fn config(&self) -> &CubeConfig {
        &self.config
    }

    /// Name of the process-wide kernel backend (`"scalar"` / `"simd"`)
    /// driving this builder's FFT and filter inner loops.
    pub fn kernel_backend(&self) -> &'static str {
        self.kernel_backend
    }

    /// Processes one raw frame into a cube slice, rejecting frames whose
    /// geometry does not match the builder's configuration.
    ///
    /// The three stages run inline on the calling thread: stage 1 per
    /// virtual antenna (one band-pass call filters all of its chirps; the
    /// shared filter keeps no state between calls), stage 2 per virtual
    /// antenna, stage 3 per velocity bin. A frame is too small a unit to
    /// split across the `mmhand-parallel` pool; callers fan out over frames
    /// and segments instead ([`MmHandPipeline`](crate::MmHandPipeline)
    /// over a window's frames, dataset set-up over a session's segments,
    /// `mmhand-serve` over the frames pushed since its last step). The
    /// builder keeps no state between calls, so one shared `&CubeBuilder`
    /// serves every worker and the cube is identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Radar`] when the frame's antenna counts,
    /// chirp count, or samples per chirp disagree with the configuration.
    pub fn try_process_frame(&self, frame: &RawFrame) -> Result<CubeFrame, PipelineError> {
        self.config.chirp.validate_frame(frame)?;
        Ok(self.process_frame_validated(frame))
    }

    /// The processing body; callers have already validated frame geometry.
    ///
    /// Every intermediate buffer — the `rd`/`vd` planes, the per-chirp FFT
    /// buffer, the filter lanes and the angle spectra — checks out of the
    /// per-thread scratch pools once per frame, so a steady-state frame
    /// allocates only its own output. Each stage overwrites every cell of
    /// its working buffers before reading them, and the filter lanes,
    /// window tables, FFT plans and steering tables replay the reference
    /// arithmetic exactly, so the cube is bitwise identical to the
    /// allocating ancestor of this code on any thread.
    fn process_frame_validated(&self, frame: &RawFrame) -> CubeFrame {
        let cfg = &self.config;
        let n_va = cfg.chirp.virtual_antenna_count();
        let chirps = cfg.chirp.chirps_per_tx;
        let d_bins = cfg.range_bins;
        let mut out = vec![0.0_f32; cfg.frame_shape().iter().product()];

        CUBE_POOL.with(|pool| {
            pool.with(n_va * chirps * d_bins, |rd| {
                CUBE_F32_POOL.with(|fp| {
                    fp.with(2 * chirps * cfg.chirp.samples_per_chirp, |lanes| {
                        pool.with(cfg.chirp.samples_per_chirp, |buf| {
                            self.range_stage(frame, rd, lanes, buf);
                        })
                    })
                });
                pool.with(n_va * cfg.doppler_bins * d_bins, |vd| {
                    pool.with(chirps, |buf| self.doppler_stage(rd, vd, buf));
                    pool.with(self.array.azimuth_row().len(), |az_elements| {
                        pool.with(cfg.azimuth_bins.max(cfg.elevation_bins), |spec| {
                            self.angle_stage(vd, &mut out, az_elements, spec);
                        })
                    });
                });
            });
        });

        frames_processed().inc();
        CubeFrame { data: out, shape: cfg.frame_shape() }
    }

    /// Stage 1: band-pass filter and range-FFT per (virtual antenna,
    /// chirp), keeping the hand band's `D` bins. Writes `rd[va][chirp][d]`.
    fn range_stage(
        &self,
        frame: &RawFrame,
        rd: &mut [Complex],
        lanes: &mut [f32],
        buf: &mut [Complex],
    ) {
        let chirps = self.config.chirp.chirps_per_tx;
        let d_bins = self.config.range_bins;
        let d_off = self.config.range_bin_offset();
        // Lanes 2c and 2c + 1 hold the real and imaginary parts of chirp c:
        // lanes[t·2C + 2c] is the real part of its sample t.
        let n_lanes = 2 * chirps;
        for (va, rd_va) in rd.chunks_exact_mut(chirps * d_bins).enumerate() {
            let (tx, rx) = self.pairs[va];
            for chirp in 0..chirps {
                let iq = frame.chirp_samples(tx, rx, chirp);
                for (row, s) in lanes.chunks_exact_mut(n_lanes).zip(iq) {
                    row[2 * chirp] = s.re;
                    row[2 * chirp + 1] = s.im;
                }
            }
            self.bandpass.filter_lanes(lanes, n_lanes);
            for chirp in 0..chirps {
                let rows = lanes.chunks_exact(n_lanes);
                for ((b, row), &w) in buf.iter_mut().zip(rows).zip(&self.range_window) {
                    *b = Complex::new(row[2 * chirp], row[2 * chirp + 1]).scale(w);
                }
                self.range_plan.forward(buf);
                rd_va[chirp * d_bins..(chirp + 1) * d_bins]
                    .copy_from_slice(&buf[d_off..d_off + d_bins]);
            }
        }
    }

    /// Stage 2: Doppler-FFT per (virtual antenna, range bin), keeping the
    /// central `V` bins. Writes `vd[va][v][d]`.
    fn doppler_stage(&self, rd: &[Complex], vd: &mut [Complex], buf: &mut [Complex]) {
        let chirps = self.config.chirp.chirps_per_tx;
        let d_bins = self.config.range_bins;
        let v_bins = self.config.doppler_bins;
        let v_off = (chirps - v_bins) / 2;
        for (va, vd_va) in vd.chunks_exact_mut(v_bins * d_bins).enumerate() {
            for d in 0..d_bins {
                for (chirp, (b, &w)) in buf.iter_mut().zip(&self.doppler_window).enumerate() {
                    *b = rd[(va * chirps + chirp) * d_bins + d].scale(w);
                }
                self.doppler_plan.forward(buf);
                fft_shift_inplace(buf);
                for v in 0..v_bins {
                    vd_va[v * d_bins + d] = buf[v_off + v];
                }
            }
        }
    }

    /// Stage 3: azimuth and elevation spectra per (v, d) cell. Writes the
    /// cube's magnitudes `out[v][d][a]`.
    fn angle_stage(
        &self,
        vd: &[Complex],
        out: &mut [f32],
        az_elements: &mut [Complex],
        spec: &mut Vec<Complex>,
    ) {
        let cfg = &self.config;
        let (d_bins, v_bins) = (cfg.range_bins, cfg.doppler_bins);
        let aa = cfg.angle_bins();
        let az_row = self.array.azimuth_row();
        let el_row = self.array.elevated_row();
        let az_overlap = self.array.azimuth_overlap();
        for (v, out_v) in out.chunks_exact_mut(d_bins * aa).enumerate() {
            for d in 0..d_bins {
                // Azimuth: zoom-DFT over the 8-element ULA.
                for (k, &e) in az_row.iter().enumerate() {
                    az_elements[k] = vd[(e * v_bins + v) * d_bins + d];
                }
                self.az_plan.evaluate_into(az_elements, spec);
                let base = d * aa;
                for (a, s) in spec.iter().enumerate() {
                    out_v[base + a] = s.abs();
                }
                // Elevation: 2-element vertical interferometer formed by
                // the summed overlapping columns of the z = 0 and z = λ/2
                // rows.
                let mut bottom = Complex::ZERO;
                let mut top = Complex::ZERO;
                for (&et, &eb) in el_row.iter().zip(az_overlap) {
                    top += vd[(et * v_bins + v) * d_bins + d];
                    bottom += vd[(eb * v_bins + v) * d_bins + d];
                }
                self.el_plan.evaluate_into(&[bottom, top], spec);
                for (a, s) in spec.iter().enumerate() {
                    out_v[base + cfg.azimuth_bins + a] = s.abs() / el_row.len() as f32;
                }
            }
        }
    }

    /// Stacks `st` consecutive cube frames into one segment tensor of shape
    /// `(st·V, D, A)`, normalised to zero mean / unit variance (plus an
    /// epsilon so an all-zero segment stays zero).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::SegmentSize`] when `frames.len() != st`
    /// (including the empty-window case) and [`PipelineError::CubeShape`]
    /// when any frame's shape disagrees with the configured geometry.
    pub fn try_segment_tensor(&self, frames: &[CubeFrame]) -> Result<Tensor, PipelineError> {
        let cfg = &self.config;
        if frames.len() != cfg.frames_per_segment {
            return Err(PipelineError::SegmentSize {
                expected: cfg.frames_per_segment,
                got: frames.len(),
            });
        }
        let [v, d, a] = cfg.frame_shape();
        let mut data = Vec::with_capacity(frames.len() * v * d * a);
        for f in frames {
            if f.shape != cfg.frame_shape() {
                return Err(PipelineError::CubeShape {
                    expected: cfg.frame_shape(),
                    got: f.shape,
                });
            }
            data.extend_from_slice(&f.data);
        }
        Ok(self.standardise_segment(data))
    }

    fn standardise_segment(&self, mut data: Vec<f32>) -> Tensor {
        let cfg = &self.config;
        let [_, d, a] = cfg.frame_shape();
        // Standardise: radar magnitudes vary by orders of magnitude with
        // range; the network wants a stable input scale.
        let n = data.len() as f32;
        let mean = data.iter().sum::<f32>() / n;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
        let rstd = 1.0 / (var + 1e-12).sqrt();
        for x in &mut data {
            *x = (*x - mean) * rstd;
        }
        Tensor::from_vec(&[cfg.segment_channels(), d, a], data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhand_math::rng::stream_rng;
    use mmhand_math::Vec3;
    use mmhand_radar::scene::PointTarget;
    use mmhand_radar::synth::synthesize_frame;
    use mmhand_radar::Scene;

    fn builder() -> CubeBuilder {
        CubeBuilder::try_new(CubeConfig::default()).unwrap()
    }

    fn frame_for_targets(targets: Vec<PointTarget>, noise: f32, seed: u64) -> RawFrame {
        let cfg = ChirpConfig::default();
        let array = VirtualArray::new(&cfg);
        let mut scene = Scene::new(noise);
        scene.add_targets(targets);
        let mut rng = stream_rng(seed, "cube-test");
        synthesize_frame(&cfg, &array, &scene, &mut rng)
    }

    fn argmax3(c: &CubeFrame) -> (usize, usize, usize) {
        let [v, d, a] = c.shape;
        let mut best = (0, 0, 0);
        let mut val = f32::NEG_INFINITY;
        for iv in 0..v {
            for id in 0..d {
                for ia in 0..a {
                    if c.at(iv, id, ia) > val {
                        val = c.at(iv, id, ia);
                        best = (iv, id, ia);
                    }
                }
            }
        }
        best
    }

    #[test]
    fn default_config_is_valid() {
        CubeConfig::default().validate().unwrap();
        assert_eq!(CubeConfig::default().angle_bins(), 16);
        assert_eq!(CubeConfig::default().segment_channels(), 32);
    }

    #[test]
    fn invalid_configs_rejected() {
        let base = CubeConfig::default();
        assert!(CubeConfig { doppler_bins: 64, ..base.clone() }.validate().is_err());
        assert!(CubeConfig { range_bins: 64, ..base.clone() }.validate().is_err());
        assert!(
            CubeConfig { range_min_m: 0.9, ..base.clone() }.validate().is_err()
        );
    }

    #[test]
    fn hand_range_target_peaks_at_expected_range_bin() {
        let b = builder();
        let range = 0.35_f32;
        let frame = frame_for_targets(
            vec![PointTarget::fixed(Vec3::new(0.0, range, 0.0), 1.0)],
            0.0,
            1,
        );
        let cube = b.try_process_frame(&frame).unwrap();
        let (_, d, _) = argmax3(&cube);
        let expected = ((range as f64 - b.config().range_min_m)
            / b.config().chirp.range_resolution_m())
        .round() as usize;
        assert!(
            d.abs_diff(expected) <= 1,
            "peak at range bin {d}, expected ≈{expected}"
        );
    }

    #[test]
    fn static_target_sits_in_central_doppler_bin() {
        let b = builder();
        let frame = frame_for_targets(
            vec![PointTarget::fixed(Vec3::new(0.0, 0.3, 0.0), 1.0)],
            0.0,
            2,
        );
        let cube = b.try_process_frame(&frame).unwrap();
        let (v, _, _) = argmax3(&cube);
        assert_eq!(v, b.config().doppler_bins / 2);
    }

    #[test]
    fn angled_target_moves_azimuth_peak() {
        let b = builder();
        let theta = mmhand_math::deg_to_rad(20.0);
        let frame = frame_for_targets(
            vec![PointTarget::fixed(
                Vec3::new(0.35 * theta.sin(), 0.35 * theta.cos(), 0.0),
                1.0,
            )],
            0.0,
            3,
        );
        let cube = b.try_process_frame(&frame).unwrap();
        let (_, _, a) = argmax3(&cube);
        // +20° of a ±30° span over 8 bins → bin ≈ 6–7.
        assert!(a < b.config().azimuth_bins, "peak in azimuth half");
        assert!(a >= 5, "azimuth bin {a} for +20° target");
    }

    #[test]
    fn distant_clutter_is_suppressed_by_bandpass() {
        let b = builder();
        // Strong target far outside the hand band (2 m).
        let frame = frame_for_targets(
            vec![
                PointTarget::fixed(Vec3::new(0.0, 0.3, 0.0), 1.0),
                PointTarget::fixed(Vec3::new(0.0, 2.0, 0.0), 50.0),
            ],
            0.0,
            4,
        );
        let cube = b.try_process_frame(&frame).unwrap();
        let profile = cube.range_profile();
        // The hand bin must dominate the kept band despite far clutter being
        // 50× stronger in RCS.
        let hand_bin = ((0.3 - b.config().range_min_m)
            / b.config().chirp.range_resolution_m())
        .round() as usize;
        let max_bin = (0..profile.len())
            .max_by(|&x, &y| profile[x].total_cmp(&profile[y]))
            .unwrap();
        assert!(
            max_bin.abs_diff(hand_bin) <= 1,
            "profile peak {max_bin} expected {hand_bin}: {profile:?}"
        );
    }

    #[test]
    fn segment_tensor_is_standardised() {
        let b = builder();
        let frames: Vec<CubeFrame> = (0..4)
            .map(|i| {
                let f = frame_for_targets(
                    vec![PointTarget::fixed(Vec3::new(0.0, 0.3, 0.0), 1.0)],
                    0.01,
                    10 + i,
                );
                b.try_process_frame(&f).unwrap()
            })
            .collect();
        let t = b.try_segment_tensor(&frames).unwrap();
        assert_eq!(t.shape(), &[32, 16, 16]);
        assert!(t.mean().abs() < 1e-4);
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn try_segment_tensor_rejects_empty_window_with_typed_error() {
        let b = builder();
        match b.try_segment_tensor(&[]) {
            Err(PipelineError::SegmentSize { expected, got }) => {
                assert_eq!(expected, 4);
                assert_eq!(got, 0);
            }
            other => panic!("expected SegmentSize, got {other:?}"),
        }
    }

    #[test]
    fn try_segment_tensor_rejects_wrong_cube_shape() {
        let b = builder();
        let bad = CubeFrame { data: vec![0.0; 8], shape: [2, 2, 2] };
        let frames = vec![bad.clone(), bad.clone(), bad.clone(), bad];
        assert!(matches!(
            b.try_segment_tensor(&frames),
            Err(PipelineError::CubeShape { .. })
        ));
    }

    #[test]
    fn try_new_rejects_invalid_config_with_typed_error() {
        let bad =
            CubeConfig { range_min_m: 0.3, range_max_m: 0.3, ..CubeConfig::default() };
        assert!(matches!(
            CubeBuilder::try_new(bad),
            Err(PipelineError::InvalidConfig { field: "range_min_m", .. })
        ));
        let bad_chirp = CubeConfig {
            chirp: mmhand_radar::ChirpConfig { tx_count: 0, ..Default::default() },
            ..CubeConfig::default()
        };
        assert!(matches!(
            CubeBuilder::try_new(bad_chirp),
            Err(PipelineError::Radar(_))
        ));
    }

    #[test]
    fn try_process_frame_rejects_mismatched_geometry() {
        let b = builder();
        let small = ChirpConfig { samples_per_chirp: 32, ..ChirpConfig::default() };
        let frame = RawFrame::zeroed(&small);
        match b.try_process_frame(&frame) {
            Err(PipelineError::Radar(mmhand_radar::RadarError::FrameGeometry {
                axis,
                expected,
                got,
            })) => {
                assert_eq!(axis, "samples_per_chirp");
                assert_eq!((expected, got), (64, 32));
            }
            other => panic!("expected FrameGeometry, got {other:?}"),
        }
    }

    #[test]
    fn all_zero_frame_yields_finite_zero_cube() {
        // Failure injection: a dead front end (all-zero ADC) must not
        // produce NaNs anywhere downstream.
        let b = builder();
        let frame = RawFrame::zeroed(&b.config().chirp.clone());
        let cube = b.try_process_frame(&frame).unwrap();
        assert!(cube.data.iter().all(|v| v.is_finite()));
        assert!(cube.data.iter().all(|&v| v.abs() < 1e-6));
        // Standardisation of an all-zero segment stays zero (epsilon guard).
        let frames = vec![cube.clone(), cube.clone(), cube.clone(), cube];
        let t = b.try_segment_tensor(&frames).unwrap();
        assert!(!t.has_non_finite());
        assert!(t.data().iter().all(|&v| v.abs() < 1e-3));
    }

    #[test]
    fn saturated_adc_stays_finite() {
        // Clipped/saturated input (every sample at a large constant) is
        // pathological but must stay numerically safe.
        let b = builder();
        let cfg = b.config().chirp;
        let mut frame = RawFrame::zeroed(&cfg);
        for tx in 0..cfg.tx_count {
            for rx in 0..cfg.rx_count {
                for chirp in 0..cfg.chirps_per_tx {
                    for s in frame.chirp_samples_mut(tx, rx, chirp) {
                        *s = mmhand_math::Complex::new(1e4, -1e4);
                    }
                }
            }
        }
        let cube = b.try_process_frame(&frame).unwrap();
        assert!(cube.data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn range_of_bin_round_trips() {
        let cfg = CubeConfig::default();
        let r = cfg.range_of_bin(4);
        assert!(r > cfg.range_min_m - cfg.chirp.range_resolution_m());
        assert!(r < cfg.range_max_m);
    }
}
