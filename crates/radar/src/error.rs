//! Typed errors for radar configuration and frame geometry.
//!
//! Converts into `mmhand-core`'s `PipelineError`: downstream crates
//! (`mmhand-core`, `mmhand-serve`) wrap [`RadarError`] via `From`
//! conversions so malformed configurations and frames surface as `Err`
//! values instead of panics on the serving path.

use std::fmt;

/// An invalid radar configuration or a frame whose geometry does not match
/// the configuration it is being processed under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RadarError {
    /// A [`crate::ChirpConfig`] field violates a physical constraint.
    InvalidConfig {
        /// The offending field (or field group).
        field: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A [`crate::RawFrame`] axis disagrees with the expected geometry.
    FrameGeometry {
        /// The mismatched axis (`"samples_per_chirp"`, `"tx_count"`, …).
        axis: &'static str,
        /// Expected extent from the configuration.
        expected: usize,
        /// Extent found on the frame.
        got: usize,
    },
}

impl fmt::Display for RadarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadarError::InvalidConfig { field, reason } => {
                write!(f, "invalid radar configuration ({field}): {reason}")
            }
            RadarError::FrameGeometry { axis, expected, got } => {
                write!(f, "frame geometry mismatch on {axis}: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for RadarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field_and_axis() {
        let e = RadarError::InvalidConfig { field: "tx_count", reason: "must be positive".into() };
        assert!(e.to_string().contains("tx_count"));
        let e = RadarError::FrameGeometry { axis: "rx_count", expected: 4, got: 3 };
        let s = e.to_string();
        assert!(s.contains("rx_count") && s.contains('4') && s.contains('3'));
    }
}
