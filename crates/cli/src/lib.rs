//! Library half of the `fedaqp` CLI: manifest handling, dataset
//! generation, store I/O, and federation reconstruction. The binary in
//! `main.rs` is a thin dispatcher over these functions so everything is
//! unit-testable.

pub mod manifest;
pub mod ops;

pub use manifest::Manifest;
pub use ops::{
    batch, coordinate, generate, ingest, inspect, parse_calibration, parse_extreme,
    parse_shard_slice, parse_stat, query, render_answer, serve, shutdown_summary, stats,
    write_data_dir, BatchArgs, CoordinateArgs, GenerateArgs, IngestArgs, QueryArgs,
    RunningCoordinator, RunningServer, ServeArgs, StatsArgs,
};
