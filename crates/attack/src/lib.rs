//! Learning-based attack harness (§6.6 of the paper).
//!
//! Cormode's observation [13 in the paper]: a Naive Bayes classifier
//! trained on the answers of `COUNT`/`SUM` queries against a noisy
//! database can predict an individual's sensitive attribute `SA` from
//! quasi-identifiers `QI`. The paper's Table 1 shows that against the
//! *interactive* fedaqp system — where the attacker holds a finite budget
//! `(ξ, ψ)` split across the `nQueries` training queries — the classifier
//! degrades to random guessing (`< 1%` accuracy with `‖d_SA‖ = 100`
//! classes) under sequential composition, advanced composition, and even a
//! coalition of single-query attackers.
//!
//! * [`nbc`] — the discrete Naive Bayes classifier with log-space scoring.
//! * [`plan`] — the attack's query plan:
//!   `nQueries = 1 + ‖d_SA‖ + ‖d_SA‖·Σ‖d_QI‖`.
//! * [`attack`] — end-to-end orchestration against a [`fedaqp_core`]
//!   federation under a budget regime, plus the oracle-based variant used
//!   to validate the classifier itself.
//! * [`remote`] — the same adversary as a remote analyst (or a coalition
//!   of them) issuing `Plan` frames against a live
//!   [`fedaqp_net::FederationServer`].

pub mod attack;
pub mod error;
pub mod nbc;
pub mod plan;
pub mod remote;

pub use attack::{run_attack, AttackConfig, AttackOutcome, CompositionRegime};
pub use error::AttackError;
pub use nbc::NbcModel;
pub use plan::{build_plan, AttackPlan};
pub use remote::{run_coalition_attack, run_remote_attack, RemoteAttackOutcome};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AttackError>;
