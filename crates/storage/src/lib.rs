//! Cluster storage engine and metadata for `fedaqp`.
//!
//! Modern systems "split/store a big table T into a set of smaller,
//! manageable entities" (§3) — PostgreSQL pages, HDFS blocks, … The paper
//! calls these *clusters* and assumes every provider stores its partition as
//! clusters of an agreed maximum size `S`. This crate provides:
//!
//! * [`cluster::Cluster`] — a bounded, column-oriented storage entity with a
//!   per-cluster scan (the unit of both sampling and cost).
//! * [`store::ClusterStore`] — a provider's local table as a cluster set,
//!   with partitioning strategies controlling the row→cluster layout.
//! * [`meta`] — the offline metadata of Algorithm 1: for every cluster and
//!   dimension the tail proportions `R_{d≥}(v)` at every distinct value, and
//!   globally the per-dimension `[v_min, v_max]` used to identify the
//!   covering set `C^Q` (Eq. 2) without touching data.
//! * [`codec`] — a compact binary on-disk format for the metadata, used to
//!   report the "metadata space allocation" numbers of §6.1.

pub mod cluster;
pub mod codec;
pub mod error;
pub mod meta;
pub mod store;
pub mod store_codec;

pub use cluster::{Cluster, ClusterId};
pub use codec::{declared_len_fits, decode_provider_meta, encode_provider_meta, MetaSpaceReport};
pub use error::StorageError;
pub use meta::{ClusterMeta, DimMeta, ProviderMeta};
pub use store::{AppendOutcome, ClusterStore, PartitionStrategy, FAN_OUT_CELLS};
pub use store_codec::{decode_store, encode_store};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
