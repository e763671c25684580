//! Data model and query model for `fedaqp`.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace, mirroring Section 3 ("Preliminaries") of *Private Approximate
//! Query over Horizontal Data Federation* (EDBT 2025):
//!
//! * [`Domain`] — a discrete, totally ordered attribute domain.
//! * [`Dimension`] / [`Schema`] — named dimensions `D = {d_1, …, d_n}`; the
//!   schema is the only piece of information that is public in the
//!   federation.
//! * [`Row`] — one cell of a *count tensor*: a value per dimension plus a
//!   `Measure` attribute storing the number of aggregated raw rows (Fig. 2
//!   of the paper). A raw tabular row is simply a cell with `measure == 1`.
//! * [`CountTensor`] — aggregation of a raw table into a count tensor over a
//!   subset of dimensions.
//! * [`RangeQuery`] — `SELECT COUNT(*) | SUM(Measure) FROM T WHERE range…`,
//!   a set of closed intervals over a subset of dimensions.
//! * [`executor`] — exact, plain-text evaluation used both as the
//!   correctness oracle in tests and as the non-private baseline that the
//!   paper's speed-up numbers are measured against.
//!
//! Everything downstream (cluster storage, metadata, sampling, the federated
//! protocol) manipulates these types.

pub mod dimension;
pub mod domain;
pub mod error;
pub mod executor;
pub mod plan;
pub mod query;
pub mod row;
pub mod schema;
pub mod sql;
pub mod tensor;
pub mod value;

pub use dimension::Dimension;
pub use domain::Domain;
pub use error::ModelError;
pub use executor::PlainExecutor;
pub use plan::{DerivedStatistic, Extreme, QueryPlan};
pub use query::{Aggregate, QueryBuilder, Range, RangeQuery};
pub use row::Row;
pub use schema::Schema;
pub use sql::{parse_sql, parse_sql_plan, parse_sql_statement, PlanParams, SqlError};
pub use tensor::CountTensor;
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;
