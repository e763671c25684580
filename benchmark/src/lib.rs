//! The repository's benchmark: four seeded, compute-bound workloads, the
//! end-to-end metrics a user of the federation would see, and per-layer
//! metrics timed from outside through the crates' public functions.
//!
//! `BENCHMARK.json` at the repository root is the contract; [`catalog`]
//! is its in-code twin (drift-tested by `tests/smoke.rs`). Every
//! `fedaqp_*` import lives in [`surface`], so an API break in the program
//! under test is a one-file diagnosis.

pub mod catalog;
pub mod drive;
pub mod inputs;
pub mod json;
pub mod probes;
pub mod report;
pub mod run;
pub mod stats;
pub mod surface;
pub mod trace;
pub mod verify;
pub mod world;
