//! Experiment harness for `fedaqp`.
//!
//! One module per artifact of the paper's evaluation (§6): every figure and
//! table has a reproduction target that prints the same rows/series the
//! paper reports and writes a CSV next to it. The `repro` binary
//! (`cargo run -p fedaqp-bench --release --bin repro -- <experiment>`)
//! dispatches into [`experiments`].
//!
//! | target        | paper artifact                                   |
//! |---------------|--------------------------------------------------|
//! | `fig1`        | Fig. 1 — SMC row-sharing vs result-sharing       |
//! | `fig4`        | Fig. 4 — relative error vs #dimensions           |
//! | `fig5`        | Fig. 5 — error & speed-up vs sampling rate       |
//! | `fig6`        | Fig. 6 — relative error vs ε                     |
//! | `fig7`        | Fig. 7 — speed-up vs #dimensions and vs ε        |
//! | `fig8`        | Fig. 8 — SMC vs local-DP noise range & speed-up  |
//! | `table1`      | Table 1 — NBC attack accuracy vs ξ               |
//! | `table1-dims` | §6.6 — attack accuracy vs |QI|                   |
//! | `metadata`    | §6.1 — metadata space allocation                 |
//! | `ablation`    | §4/§7 design-choice ablations                    |
//! | `throughput`  | engine qps/latency vs analysts × providers (CI)  |
//!
//! The CI-gated experiments (`throughput`, `accuracy`, `net`, `shard`,
//! `stream`, `attack`) additionally emit a `BENCH_*.json` summary; the
//! `bench_gate` binary checks it against the committed baseline through
//! the one table in [`gate`].

pub mod experiments;
pub mod gate;
pub mod report;
pub mod setup;

pub use report::Table;
pub use setup::{build_testbed, DatasetKind, ExperimentContext, Testbed};
