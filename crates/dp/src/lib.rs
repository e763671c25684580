//! Differential-privacy substrate for `fedaqp`.
//!
//! Implements every DP building block the paper relies on (§3
//! "Preliminaries", §5.3, §5.4):
//!
//! * [`laplace`] — the Laplace mechanism (Def. 3.4) used for the allocation
//!   summaries (Eq. 5) and the final estimate release (Alg. 3).
//! * [`exponential`] — the Exponential mechanism (Def. 3.5) used by the
//!   private cluster sampling (Alg. 2), implemented with the Gumbel-max
//!   trick for numerical stability.
//! * [`smooth`] — the smooth-sensitivity framework of Nissim, Raskhodnikova
//!   and Smith (Defs. 3.6–3.8) with the iteration bound of Appendix B.3.
//! * [`composition`] — sequential, parallel, and advanced composition
//!   (Thms. 3.1, 3.2 and the §6.6 advanced-composition budget split).
//! * [`accountant`] — the interactive total-budget accountant `(ξ, ψ)` that
//!   rejects queries once the analyst's budget is consumed (§5.4).
//! * [`budget`] — the per-query budget split `ε_O/ε_S/ε_E` driven by the
//!   hyper-parameters `hp1 + hp2 + hp3 = 1` (§5.4, §6.1).
//!
//! All mechanisms take an explicit `&mut impl Rng` so experiments are
//! reproducible from a seed, and every privacy parameter is validated at
//! construction time instead of deep inside a sampling loop.

pub mod accountant;
pub mod budget;
pub mod composition;
pub mod error;
pub mod exponential;
pub mod gaussian;
pub mod laplace;
pub mod smooth;

pub use accountant::{BudgetAccountant, BudgetDirectory, SharedAccountant};
pub use budget::{HyperParams, QueryBudget};
pub use composition::{
    advanced_per_query, parallel, sequential, sequential_per_query, PrivacyCost,
};
pub use error::DpError;
pub use exponential::ExponentialMechanism;
pub use gaussian::GaussianMechanism;
pub use laplace::{laplace_noise, LaplaceMechanism};
pub use smooth::SmoothSensitivity;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DpError>;

/// Validates that `eps` is a usable privacy parameter (finite, `> 0`).
pub(crate) fn check_epsilon(eps: f64) -> Result<()> {
    if !(eps.is_finite() && eps > 0.0) {
        return Err(DpError::InvalidEpsilon(eps));
    }
    Ok(())
}

/// Validates that `delta` is a usable failure probability (`0 ≤ δ < 1`).
pub(crate) fn check_delta(delta: f64) -> Result<()> {
    if !(delta.is_finite() && (0.0..1.0).contains(&delta)) {
        return Err(DpError::InvalidDelta(delta));
    }
    Ok(())
}

/// Validates that a sensitivity is finite and non-negative.
pub(crate) fn check_sensitivity(s: f64) -> Result<()> {
    if !(s.is_finite() && s >= 0.0) {
        return Err(DpError::InvalidSensitivity(s));
    }
    Ok(())
}
