//! Sampling substrate for `fedaqp`.
//!
//! Implements the statistical machinery of §5.2–§5.3:
//!
//! * [`pps`] — probability-proportional-to-size weights: `p_j = R_j / Σ R_i`
//!   (Eq. 1), the unequal-probability design driving cluster selection.
//! * [`em`] — `EM_sampling` (Algorithm 2): differentially private cluster
//!   selection through the Exponential mechanism with per-selection budget
//!   `ε_s = ε_S / s` and score sensitivity `Δp` (Thm. 5.2).
//! * [`hansen_hurwitz`] — the Hansen–Hurwitz estimator (Eq. 3)
//!   `E(Q, C_S^Q) = (1/N_S) Σ Q(C_i)/p_i` with its classical variance
//!   estimator for confidence reporting.

pub mod em;
pub mod error;
pub mod hansen_hurwitz;
pub mod pps;

pub use em::{em_sample, EmSample};
pub use error::SamplingError;
pub use hansen_hurwitz::{hh_confidence_halfwidth, hh_estimate, hh_variance, HansenHurwitz};
pub use pps::pps_probabilities;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SamplingError>;
