//! Synthetic datasets, partitioning, and query workloads for `fedaqp`.
//!
//! The paper evaluates on two datasets (§6.1):
//!
//! * **Adult** — UCI census data (48k rows, 15 dimensions) synthetically
//!   scaled to 4×10⁶ rows; a count tensor is created by aggregating six
//!   dimensions away, leaving nine range-queryable dimensions (Fig. 4 runs
//!   queries with up to 7 dimensions).
//! * **Amazon Review** — 231×10⁶ reviews with three range-queryable
//!   dimensions, extended with three randomly populated dimensions and 4×
//!   the rows; the count tensor aggregates one dimension away, leaving five
//!   (Fig. 4 runs up to 5-dimensional queries).
//!
//! Neither raw dataset ships with this repository, so [`adult`] and
//! [`amazon`] generate schema-faithful synthetic equivalents: the same
//! dimension count, domain sizes, and skew shape (peaked/multinomial
//! marginals for Adult, J-shaped ratings and Zipf-ish engagement for
//! Amazon), at a configurable scale. DESIGN.md records the substitution
//! rationale. [`partitioner`] splits a tensor horizontally across providers
//! (the paper partitions *equally*), and [`workload`] draws the random
//! `(m, n)` range-query workloads of §6.1.

pub mod adult;
pub mod adult_csv;
pub mod amazon;
pub mod error;
pub mod partitioner;
pub mod workload;
pub mod zipf;

pub use adult::{AdultConfig, AdultSynth};
pub use adult_csv::{load_adult_file, LoadStats};
pub use amazon::{AmazonConfig, AmazonSynth};
pub use error::DataError;
pub use partitioner::{partition_rows, PartitionMode};
pub use workload::{WorkloadConfig, WorkloadGenerator};
pub use zipf::{WeightedDiscrete, Zipf};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;

/// A generated dataset: its public schema plus the tensor cells.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Public schema of the count tensor.
    pub schema: fedaqp_model::Schema,
    /// Tensor cells (value vector + measure each).
    pub cells: Vec<fedaqp_model::Row>,
    /// Total raw rows aggregated into the cells.
    pub raw_rows: u64,
}
