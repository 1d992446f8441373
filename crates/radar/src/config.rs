//! FMCW chirp and frame configuration.
//!
//! Defaults mirror the paper's TI IWR1443 setup (§VI-A): 77–81 GHz sweep,
//! 80 µs chirps, 64 ADC samples per chirp, 3 TX × 4 RX TDM-MIMO. One knob
//! differs deliberately: `chirps_per_tx` defaults to 16 (the paper cycles
//! 64) to keep CPU-scale simulation and training tractable; the Doppler
//! axis keeps the same structure with coarser resolution. All quantities
//! are configurable.

/// Radar chirp/frame parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChirpConfig {
    /// Chirp start frequency `f0` in Hz (77 GHz).
    pub start_freq_hz: f64,
    /// Sweep bandwidth `B` in Hz (4 GHz for 77–81 GHz).
    pub bandwidth_hz: f64,
    /// Chirp duration `T_c` in seconds (80 µs).
    pub chirp_duration_s: f64,
    /// ADC samples per chirp (64).
    pub samples_per_chirp: usize,
    /// Chirps transmitted per TX antenna per frame (Doppler bins).
    pub chirps_per_tx: usize,
    /// Number of transmit antennas (TDM-MIMO).
    pub tx_count: usize,
    /// Number of receive antennas.
    pub rx_count: usize,
    /// Frame rate in Hz (how often a radar cube is produced).
    pub frame_rate_hz: f64,
}

impl Default for ChirpConfig {
    fn default() -> Self {
        ChirpConfig {
            start_freq_hz: 77.0e9,
            bandwidth_hz: 4.0e9,
            chirp_duration_s: 80e-6,
            samples_per_chirp: 64,
            chirps_per_tx: 16,
            tx_count: 3,
            rx_count: 4,
            frame_rate_hz: 20.0,
        }
    }
}

impl ChirpConfig {
    /// Carrier wavelength λ at the sweep centre, metres.
    pub fn wavelength_m(&self) -> f64 {
        mmhand_math::SPEED_OF_LIGHT / (self.start_freq_hz + self.bandwidth_hz / 2.0)
    }

    /// ADC sampling rate in Hz (samples spread across the chirp).
    pub fn sample_rate_hz(&self) -> f64 {
        self.samples_per_chirp as f64 / self.chirp_duration_s
    }

    /// Range resolution `c / (2B)` in metres.
    pub fn range_resolution_m(&self) -> f64 {
        mmhand_math::SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)
    }

    /// Maximum unambiguous range in metres.
    pub fn max_range_m(&self) -> f64 {
        self.range_resolution_m() * self.samples_per_chirp as f64
    }

    /// Beat (IF) frequency in Hz for a target at `range_m`.
    pub fn beat_frequency_hz(&self, range_m: f64) -> f64 {
        2.0 * self.bandwidth_hz * range_m
            / (mmhand_math::SPEED_OF_LIGHT * self.chirp_duration_s)
    }

    /// Inverse of [`ChirpConfig::beat_frequency_hz`].
    pub fn range_for_beat_hz(&self, beat_hz: f64) -> f64 {
        beat_hz * mmhand_math::SPEED_OF_LIGHT * self.chirp_duration_s
            / (2.0 * self.bandwidth_hz)
    }

    /// Chirp-to-chirp period per TX in TDM-MIMO (`tx_count · T_c`), seconds.
    pub fn tdm_chirp_period_s(&self) -> f64 {
        self.tx_count as f64 * self.chirp_duration_s
    }

    /// Maximum unambiguous radial velocity `λ / (4 · T_tdm)`, m/s.
    pub fn max_velocity_mps(&self) -> f64 {
        self.wavelength_m() / (4.0 * self.tdm_chirp_period_s())
    }

    /// Total chirps per frame across all TX antennas.
    pub fn chirps_per_frame(&self) -> usize {
        self.chirps_per_tx * self.tx_count
    }

    /// Number of virtual antennas (`tx · rx`).
    pub fn virtual_antenna_count(&self) -> usize {
        self.tx_count * self.rx_count
    }

    /// Active-burst duration of one frame (chirping time), seconds.
    pub fn burst_duration_s(&self) -> f64 {
        self.chirps_per_frame() as f64 * self.chirp_duration_s
    }

    /// Validates physical consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`RadarError::InvalidConfig`](crate::RadarError::InvalidConfig)
    /// naming the first violated constraint.
    pub fn validate(&self) -> Result<(), crate::error::RadarError> {
        use crate::error::RadarError;
        let invalid = |field: &'static str, reason: &str| {
            Err(RadarError::InvalidConfig { field, reason: reason.to_string() })
        };
        if self.start_freq_hz <= 0.0 || self.bandwidth_hz <= 0.0 {
            return invalid("start_freq_hz/bandwidth_hz", "frequencies must be positive");
        }
        if self.samples_per_chirp == 0 || !self.samples_per_chirp.is_power_of_two() {
            return invalid("samples_per_chirp", "must be a power of two");
        }
        if self.chirps_per_tx == 0 || !self.chirps_per_tx.is_power_of_two() {
            return invalid("chirps_per_tx", "must be a power of two");
        }
        if self.tx_count == 0 || self.rx_count == 0 {
            return invalid("tx_count/rx_count", "antenna counts must be positive");
        }
        if self.burst_duration_s() > 1.0 / self.frame_rate_hz {
            return invalid("frame_rate_hz", "chirp burst does not fit in the frame period");
        }
        Ok(())
    }

    /// Checks that a [`crate::RawFrame`]'s geometry matches this
    /// configuration on every axis.
    ///
    /// # Errors
    ///
    /// Returns a [`RadarError::FrameGeometry`](crate::RadarError::FrameGeometry)
    /// for the first mismatched axis.
    pub fn validate_frame(
        &self,
        frame: &crate::RawFrame,
    ) -> Result<(), crate::error::RadarError> {
        use crate::error::RadarError;
        let checks = [
            ("samples_per_chirp", self.samples_per_chirp, frame.samples_per_chirp()),
            ("chirps_per_tx", self.chirps_per_tx, frame.chirps_per_tx()),
            ("tx_count", self.tx_count, frame.tx_count()),
            ("rx_count", self.rx_count, frame.rx_count()),
        ];
        for (axis, expected, got) in checks {
            if expected != got {
                return Err(RadarError::FrameGeometry { axis, expected, got });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_iwr1443_like() {
        let c = ChirpConfig::default();
        c.validate().unwrap();
        // λ ≈ 3.8 mm at 79 GHz.
        assert!((c.wavelength_m() - 0.0038).abs() < 2e-4);
        // Range resolution ≈ 3.75 cm for 4 GHz.
        assert!((c.range_resolution_m() - 0.0375).abs() < 1e-3);
        // Max range 2.4 m covers the 0.2–0.8 m experiments.
        assert!(c.max_range_m() > 1.0);
        assert_eq!(c.virtual_antenna_count(), 12);
    }

    #[test]
    fn beat_frequency_round_trip() {
        let c = ChirpConfig::default();
        for r in [0.2, 0.4, 0.8] {
            let f = c.beat_frequency_hz(r);
            assert!((c.range_for_beat_hz(f) - r).abs() < 1e-9);
        }
    }

    #[test]
    fn hand_band_fits_sampling() {
        // The hand band (0.2–0.8 m) must map to beat frequencies below
        // Nyquist so the Butterworth band-pass can isolate it.
        let c = ChirpConfig::default();
        let f_hi = c.beat_frequency_hz(0.8);
        assert!(f_hi < c.sample_rate_hz() / 2.0, "{} vs {}", f_hi, c.sample_rate_hz());
    }

    #[test]
    fn max_velocity_covers_hand_motion() {
        // Hands move at up to ~2 m/s during gestures.
        let c = ChirpConfig::default();
        assert!(c.max_velocity_mps() > 2.0, "v_max {}", c.max_velocity_mps());
    }

    #[test]
    fn invalid_configs_rejected() {
        let ok = ChirpConfig::default();
        assert!(ChirpConfig { samples_per_chirp: 60, ..ok }.validate().is_err());
        assert!(ChirpConfig { chirps_per_tx: 0, ..ok }.validate().is_err());
        assert!(ChirpConfig { tx_count: 0, ..ok }.validate().is_err());
        assert!(ChirpConfig { frame_rate_hz: 1e6, ..ok }.validate().is_err());
        assert!(ChirpConfig { bandwidth_hz: -1.0, ..ok }.validate().is_err());
    }

    #[test]
    fn frame_geometry_mismatches_are_typed() {
        use crate::error::RadarError;
        let cfg = ChirpConfig::default();
        let frame = crate::RawFrame::zeroed(&cfg);
        assert!(cfg.validate_frame(&frame).is_ok());
        let wrong = ChirpConfig { rx_count: 2, ..cfg };
        let frame = crate::RawFrame::zeroed(&wrong);
        match cfg.validate_frame(&frame) {
            Err(RadarError::FrameGeometry { axis, expected, got }) => {
                assert_eq!(axis, "rx_count");
                assert_eq!((expected, got), (4, 2));
            }
            other => panic!("expected FrameGeometry error, got {other:?}"),
        }
    }

    #[test]
    fn burst_fits_frame() {
        let c = ChirpConfig::default();
        assert!(c.burst_duration_s() < 1.0 / c.frame_rate_hz);
    }
}
