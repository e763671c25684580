//! One module per reproduced figure/table.

pub mod ablation;
pub mod accuracy;
pub mod attack;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod metadata;
pub mod net;
pub mod shard;
pub mod stream;
pub mod table1;
pub mod throughput;

use crate::report::Table;
use crate::setup::ExperimentContext;

/// Common signature: run an experiment, emit result tables.
pub type ExperimentFn = fn(&ExperimentContext) -> Vec<Table>;

/// Registry mapping CLI names to experiments (the `repro` binary and the
/// `all` target iterate this).
pub fn registry() -> Vec<(&'static str, &'static str, ExperimentFn)> {
    vec![
        (
            "fig1",
            "Fig. 1 — SMC row-sharing vs result-sharing runtime",
            fig1::run as ExperimentFn,
        ),
        (
            "fig4",
            "Fig. 4 — relative error vs number of query dimensions",
            fig4::run as ExperimentFn,
        ),
        (
            "fig5",
            "Fig. 5 — relative error and speed-up vs sampling rate",
            fig5::run as ExperimentFn,
        ),
        (
            "fig6",
            "Fig. 6 — relative error vs privacy budget epsilon",
            fig6::run as ExperimentFn,
        ),
        (
            "fig7",
            "Fig. 7 — speed-up vs dimensions and epsilon (Amazon)",
            fig7::run as ExperimentFn,
        ),
        (
            "fig8",
            "Fig. 8 — SMC vs local-DP: noise range and speed-up",
            fig8::run as ExperimentFn,
        ),
        (
            "table1",
            "Table 1 — NBC attack accuracy vs total budget xi",
            table1::run as ExperimentFn,
        ),
        (
            "table1-dims",
            "§6.6 — NBC attack accuracy vs |QI| at xi = 100",
            table1::run_dims as ExperimentFn,
        ),
        (
            "metadata",
            "§6.1 — metadata space allocation",
            metadata::run as ExperimentFn,
        ),
        (
            "ablation",
            "§4/§7 — design-choice ablations",
            ablation::run as ExperimentFn,
        ),
        (
            "throughput",
            "engine throughput — qps/latency vs #analysts x #providers (CI gate)",
            throughput::run as ExperimentFn,
        ),
        (
            "accuracy",
            "estimator accuracy — RMS error vs sampling rate x epsilon, both calibrations (CI gate)",
            accuracy::run as ExperimentFn,
        ),
        (
            "net",
            "remote federation — qps/latency vs #remote analysts over loopback TCP (CI gate)",
            net::run as ExperimentFn,
        ),
        (
            "shard",
            "sharded coordinator — 2-shard vs 1-shard grid throughput at equal providers (CI gate)",
            shard::run as ExperimentFn,
        ),
        (
            "stream",
            "live federation — streaming ingest + server-push online answers over loopback TCP (CI gate)",
            stream::run as ExperimentFn,
        ),
        (
            "attack",
            "NBC attack over live TCP — accuracy/AUC vs xi, single analyst + coalition (CI gate)",
            attack::run as ExperimentFn,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let reg = registry();
        let mut names: Vec<&str> = reg.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
        assert!(len >= 10);
    }
}
