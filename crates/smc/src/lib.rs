//! Simulated secure multiparty computation for `fedaqp`.
//!
//! The paper uses SMC in two places: the Fig. 1 motivation experiment
//! (sharing rows vs sharing results) and the optional release mode where
//! providers secret-share their local estimates and sensitivities so the
//! aggregator can add a *single* Laplace noise to the oblivious sum
//! (protocol step 7, §6.5 / Fig. 8). Its proof-of-concept used MPyC; we
//! rebuild the needed functionality natively:
//!
//! * [`field`] — arithmetic in `GF(p)` with the Mersenne prime
//!   `p = 2^61 − 1` (fast reduction, constant-size shares).
//! * [`fixed`] — fixed-point encoding of reals into field elements so
//!   estimates and sensitivities (both reals) can be shared.
//! * [`share`] — `n`-party additive secret sharing with share arithmetic:
//!   the sharing scheme under which a sum of values is the sum of shares.
//! * [`network`] — a latency/bandwidth/gate cost model; all reported SMC
//!   "runtimes" are *simulated durations* from this model plus the real
//!   share arithmetic, mirroring how the paper's Fig. 1 measures transfer
//!   cost.
//! * [`protocol`] — the two aggregate functionalities the protocol needs
//!   (secure sum, secure max) and the row-sharing/result-sharing cost
//!   simulations behind Fig. 1.
//!
//! **Security model.** Honest-but-curious parties, as in the paper. The
//! comparison sub-protocol inside `secure_max` is simulated at the ideal-
//! functionality level (the comparison result is computed on reconstructed
//! differences inside the simulation boundary) while its *cost* is charged
//! according to a bit-decomposition comparison circuit — the standard
//! systems-paper device for costing MPC without reimplementing a full
//! garbling stack. DESIGN.md documents this substitution.

pub mod error;
pub mod field;
pub mod fixed;
pub mod network;
pub mod protocol;
pub mod share;

pub use error::SmcError;
pub use field::Fp;
pub use fixed::{decode_fixed, encode_fixed, FRAC_BITS};
pub use network::{CostModel, SimClock};
pub use protocol::{SmcRuntime, TrafficStats};
pub use share::{reconstruct, share_value, SharedValue};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SmcError>;
