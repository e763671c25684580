//! Error type for the sampling substrate.

use std::fmt;

use fedaqp_dp::DpError;

/// Errors raised by sampling and estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplingError {
    /// The population to sample from was empty.
    EmptyPopulation,
    /// A PPS weight was negative or non-finite.
    InvalidWeight {
        /// Index of the offending weight.
        index: usize,
        /// The offending weight.
        weight: f64,
    },
    /// A sample of size zero was requested.
    ZeroSampleSize,
    /// A sample carried no per-draw probabilities: the estimator cannot
    /// calibrate (or floor) its divisor against an empty distribution.
    EmptyDrawProbabilities,
    /// The estimator met a zero or non-finite inclusion probability.
    InvalidProbability {
        /// Index of the offending probability.
        index: usize,
        /// The offending probability.
        probability: f64,
    },
    /// Propagated DP-mechanism error.
    Dp(DpError),
}

impl fmt::Display for SamplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingError::EmptyPopulation => write!(f, "cannot sample from an empty population"),
            SamplingError::InvalidWeight { index, weight } => {
                write!(f, "weight {weight} at index {index} is invalid")
            }
            SamplingError::ZeroSampleSize => write!(f, "sample size must be positive"),
            SamplingError::EmptyDrawProbabilities => {
                write!(f, "sample carries no per-draw probabilities")
            }
            SamplingError::InvalidProbability { index, probability } => {
                write!(
                    f,
                    "inclusion probability {probability} at index {index} is invalid"
                )
            }
            SamplingError::Dp(e) => write!(f, "dp error: {e}"),
        }
    }
}

impl std::error::Error for SamplingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SamplingError::Dp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DpError> for SamplingError {
    fn from(e: DpError) -> Self {
        SamplingError::Dp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(SamplingError::EmptyPopulation.to_string().contains("empty"));
        assert!(SamplingError::InvalidWeight {
            index: 3,
            weight: -1.0
        }
        .to_string()
        .contains("-1"));
        let e: SamplingError = DpError::EmptyCandidates.into();
        assert!(e.to_string().contains("dp error"));
    }
}
