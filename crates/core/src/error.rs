//! The one error type of the frame → cube → model → mesh path:
//! [`PipelineError`].
//!
//! # Conventions
//!
//! * One public form per entry point. Entry points that take frames,
//!   configurations, sessions or datasets from outside the program are
//!   named `try_*` and return `Result<_, PipelineError>`; there is no
//!   panicking twin. Callers that control their own inputs (examples,
//!   tests, experiment binaries) use `?` or `.expect(..)` at the call site.
//! * Lower-level errors ([`RadarError`], [`DspError`]) convert into
//!   [`PipelineError`] via `From`, so `?` composes across crate
//!   boundaries. Graph shapes are fixed by the model configuration and
//!   checked against the cube once, in
//!   [`PipelineBuilder::build`](crate::PipelineBuilder::build), so no tape
//!   shape error reaches this type.
//! * Serving code must never unwrap on this path: malformed client input
//!   has to surface as an `Err` (enforced by clippy's `expect_used` and
//!   `unreachable` lints, denied in `cube.rs`, `pipeline.rs` and
//!   `mmhand-serve`, by the assertion ban in `tests/src/rules.rs`, and
//!   by the serve property tests).

use mmhand_dsp::DspError;
use mmhand_radar::RadarError;
use std::fmt;

/// An error anywhere on the frame → cube → model → mesh pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// Invalid radar configuration or frame geometry.
    Radar(RadarError),
    /// DSP failure (filter design, degenerate signal).
    Dsp(DspError),
    /// A pipeline-level configuration field is inconsistent.
    InvalidConfig {
        /// The offending field (or field group).
        field: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// An operation that needs data received none.
    EmptyInput {
        /// What was empty (`"frames"`, `"sequences"`, …).
        what: &'static str,
    },
    /// A segment held the wrong number of cube frames.
    SegmentSize {
        /// Frames per segment demanded by the configuration.
        expected: usize,
        /// Frames provided.
        got: usize,
    },
    /// A cube frame's shape disagrees with the configured geometry.
    CubeShape {
        /// Shape `(V, D, A)` demanded by the configuration.
        expected: [usize; 3],
        /// Shape found on the frame.
        got: [usize; 3],
    },
    /// A skeleton had the wrong number of scalars (21 joints × 3 = 63).
    SkeletonLength {
        /// Expected scalar count.
        expected: usize,
        /// Scalar count provided.
        got: usize,
    },
    /// A component that requires fitting was used before `fit()`.
    NotFitted {
        /// The unfitted component.
        what: &'static str,
    },
    /// Sequences in one dataset had differing lengths.
    MismatchedSequenceLength {
        /// Length of the first sequence.
        expected: usize,
        /// Length of the offending sequence.
        got: usize,
    },
    /// Cross-validation asked for more folds than there are users.
    TooFewUsers {
        /// Folds requested.
        folds: usize,
        /// Distinct users available.
        users: usize,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Radar(e) => write!(f, "{e}"),
            PipelineError::Dsp(e) => write!(f, "{e}"),
            PipelineError::InvalidConfig { field, reason } => {
                write!(f, "invalid pipeline configuration ({field}): {reason}")
            }
            PipelineError::EmptyInput { what } => write!(f, "empty input: no {what} provided"),
            PipelineError::SegmentSize { expected, got } => {
                write!(f, "segment needs {expected} cube frames, got {got}")
            }
            PipelineError::CubeShape { expected, got } => {
                write!(f, "cube frame shape {got:?} does not match configured {expected:?}")
            }
            PipelineError::SkeletonLength { expected, got } => {
                write!(f, "skeleton needs {expected} scalars, got {got}")
            }
            PipelineError::NotFitted { what } => {
                write!(f, "{what} used before fit()")
            }
            PipelineError::MismatchedSequenceLength { expected, got } => {
                write!(f, "sequence length {got} differs from the dataset's {expected}")
            }
            PipelineError::TooFewUsers { folds, users } => {
                write!(f, "cross-validation needs at least {folds} users, got {users}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Radar(e) => Some(e),
            PipelineError::Dsp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RadarError> for PipelineError {
    fn from(e: RadarError) -> Self {
        PipelineError::Radar(e)
    }
}

impl From<DspError> for PipelineError {
    fn from(e: DspError) -> Self {
        PipelineError::Dsp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_level_errors_convert_upward() {
        let radar = RadarError::FrameGeometry { axis: "tx_count", expected: 3, got: 2 };
        let p: PipelineError = radar.into();
        assert!(matches!(p, PipelineError::Radar(_)));
        let d: PipelineError = DspError::EmptySignal { op: "fft" }.into();
        assert!(matches!(d, PipelineError::Dsp(_)));
    }

    #[test]
    fn display_is_descriptive() {
        let e = PipelineError::SegmentSize { expected: 4, got: 2 };
        assert!(e.to_string().contains('4') && e.to_string().contains('2'));
        let e = PipelineError::EmptyInput { what: "frames" };
        assert!(e.to_string().contains("frames"));
        let e = PipelineError::NotFitted { what: "MeshReconstructor" };
        assert!(e.to_string().contains("fit()"));
    }

    #[test]
    fn source_chains_to_the_underlying_error() {
        use std::error::Error;
        let p = PipelineError::Radar(RadarError::InvalidConfig {
            field: "tx_count",
            reason: "must be positive".into(),
        });
        assert!(p.source().is_some());
        assert!(PipelineError::EmptyInput { what: "frames" }.source().is_none());
    }
}
