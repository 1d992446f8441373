//! Typed errors for DSP operations.
//!
//! [`DspError`] is the crate-level error that converts into `mmhand-core`'s
//! `PipelineError`; it currently wraps the filter-design error and covers
//! degenerate (empty) signal inputs for the fallible entry points.

use crate::filter::DesignFilterError;
use std::fmt;

/// An error from a DSP entry point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DspError {
    /// Filter design failed (invalid order, band edges, or an unstable
    /// result).
    Design(DesignFilterError),
    /// An operation received an empty signal.
    EmptySignal {
        /// The operation that rejected the input.
        op: &'static str,
    },
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::Design(e) => write!(f, "{e}"),
            DspError::EmptySignal { op } => write!(f, "{op}: empty input signal"),
        }
    }
}

impl std::error::Error for DspError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DspError::Design(e) => Some(e),
            DspError::EmptySignal { .. } => None,
        }
    }
}

impl From<DesignFilterError> for DspError {
    fn from(e: DesignFilterError) -> Self {
        DspError::Design(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::ButterworthDesign;

    #[test]
    fn design_errors_convert_and_display() {
        let bad = ButterworthDesign {
            order: 7,
            low_hz: 1000.0,
            high_hz: 4000.0,
            sample_rate_hz: 20_000.0,
        };
        let e: DspError = bad.design().unwrap_err().into();
        assert!(matches!(e, DspError::Design(_)));
        assert!(e.to_string().contains("invalid filter design"));
    }

    #[test]
    fn empty_signal_names_the_op() {
        let e = DspError::EmptySignal { op: "fft" };
        assert!(e.to_string().contains("fft"));
    }
}
