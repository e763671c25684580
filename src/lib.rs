//! `fedaqp` — private approximate query processing over horizontal data
//! federations.
//!
//! Rust reproduction of *"Private Approximate Query over Horizontal Data
//! Federation"* (Laouir & Imine, EDBT 2025): multiple data providers answer
//! `COUNT`/`SUM` range queries over their union without revealing their
//! rows, combining distribution-aware cluster sampling (AQP) with
//! end-to-end differential privacy.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`model`] — dimensions, domains, count tensors, range queries.
//! * [`storage`] — cluster stores and the Algorithm 1 metadata.
//! * [`dp`] — Laplace/Exponential mechanisms, smooth sensitivity,
//!   composition, budget accounting.
//! * [`sampling`] — PPS weights, EM sampling, Hansen–Hurwitz estimation.
//! * [`smc`] — additive secret sharing with a network cost model.
//! * [`core`] — the federated protocol (providers, aggregator, allocation).
//! * [`net`] — the wire protocol, TCP federation server, and remote client.
//! * [`data`] — synthetic Adult/Amazon generators and workloads.
//! * [`attack`] — the §6.6 Naive-Bayes learning attack harness.
//!
//! # Quickstart
//!
//! ```
//! use fedaqp::core::{Federation, FederationConfig};
//! use fedaqp::model::{Aggregate, QueryBuilder};
//! use fedaqp::data::{partition_rows, AdultConfig, AdultSynth, PartitionMode};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Generate a small Adult-like count tensor and split it over 4 providers.
//! let dataset = AdultSynth::generate(AdultConfig { n_rows: 20_000, seed: 1 }).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//! let parts = partition_rows(&mut rng, dataset.cells, 4, &PartitionMode::Equal).unwrap();
//!
//! // Build the federation with the paper's §6.1 defaults (ε = 1, δ = 1e-3).
//! let config = FederationConfig::paper_default(64);
//! let federation = Federation::build(config, dataset.schema.clone(), parts).unwrap();
//!
//! // Ask: how many working-age adults? (COUNT over an age range.)
//! let query = QueryBuilder::new(federation.schema(), Aggregate::Count)
//!     .range("age", 25, 60).unwrap()
//!     .build().unwrap();
//! // One query on a fresh engine scope; `answer` is what an analyst is
//! // released, beside the in-process oracle's diagnostics.
//! let oracle = federation.run(&query, 0.2).unwrap();
//! assert!(oracle.answer.value.is_finite());
//! // The exact answer is the experiment oracle, asked for explicitly.
//! let error = fedaqp::core::relative_error(federation.exact(&query), oracle.answer.value);
//! assert!(error >= 0.0);
//! ```

pub use fedaqp_attack as attack;
pub use fedaqp_core as core;
pub use fedaqp_data as data;
pub use fedaqp_dp as dp;
pub use fedaqp_model as model;
pub use fedaqp_net as net;
pub use fedaqp_sampling as sampling;
pub use fedaqp_smc as smc;
pub use fedaqp_storage as storage;
