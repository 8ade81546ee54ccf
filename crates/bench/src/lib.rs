//! # nadmm-bench
//!
//! Benchmark harness of the reproduction:
//!
//! * one example per paper table/figure (`table1`, `fig1` … `fig5`), each
//!   running its solvers through the experiment layer and printing the same
//!   rows/series the paper reports,
//! * criterion micro-benches for the kernels the solvers are built from
//!   (GEMM, Hessian-vector products, CG, collectives, epoch time, penalty
//!   rules). They record their numbers in `BENCH_kernels.json` (see
//!   [`report`]), and the `parallel`, `serve`, `collectives`, `precision`
//!   and `tracing` benches then gate them, exiting non-zero when a bound
//!   fails.
//!
//! Every figure example accepts a `NADMM_SCALE` environment variable
//! (default `1.0`): sample counts are multiplied by it, so
//! `NADMM_SCALE=4 cargo run --release -p nadmm-bench --example fig2` runs a
//! 4× larger experiment.

use nadmm_cluster::{Cluster, NetworkModel};
use nadmm_data::{partition_strong, partition_weak, Dataset, DatasetKind, SyntheticConfig};

/// Environment variable scaling experiment sizes (see [`scale_factor`]).
pub const SCALE_ENV: &str = "NADMM_SCALE";

/// The values [`SCALE_ENV`] accepts, for error messages.
const SCALE_ACCEPTED: &str = "accepted values: a positive finite number, e.g. NADMM_SCALE=4 or NADMM_SCALE=0.5";

/// Scale factor for experiment sizes, read from [`SCALE_ENV`] (default 1.0).
///
/// # Panics
/// Panics when the variable is set but does not parse as a positive finite
/// number, naming the variable, the bad value, and the accepted values. The
/// old parse silently fell back to 1.0 on a typo, which quietly shrank a
/// scaled run back to the default — the same trap the `NADMM_BENCH_SMOKE`
/// parser below closes.
pub fn scale_factor() -> f64 {
    match std::env::var(SCALE_ENV) {
        Ok(raw) => parse_scale_value(&raw),
        Err(std::env::VarError::NotPresent) => 1.0,
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("{SCALE_ENV} is set to a non-UTF-8 value ({raw:?}); {SCALE_ACCEPTED}")
        }
    }
}

/// Parses a [`SCALE_ENV`] value (see [`scale_factor`] for the contract).
pub fn parse_scale_value(raw: &str) -> f64 {
    match raw.trim().parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => v,
        _ => panic!("{SCALE_ENV}='{raw}' is not a valid scale factor; {SCALE_ACCEPTED}"),
    }
}

/// Environment variable switching the criterion benches into the fast CI
/// smoke mode (fewer sizes and samples).
pub const BENCH_SMOKE_ENV: &str = "NADMM_BENCH_SMOKE";

/// The values [`BENCH_SMOKE_ENV`] accepts, for error messages.
const BENCH_SMOKE_ACCEPTED: &str = "accepted values: 1/true/yes/on (smoke mode) or 0/false/no/off (full mode)";

/// Whether the benches should run in CI smoke mode, from [`BENCH_SMOKE_ENV`].
///
/// # Panics
/// Panics when the variable is set to a value that is neither a truthy nor a
/// falsy spelling, naming the variable, the bad value, and the accepted
/// values. The old parse (`v != "0"`) silently treated any typo as smoke
/// mode, which quietly shrank a full bench run into a meaningless one —
/// failing loudly is the only safe behaviour (the `NADMM_COLLECTIVE_ALGO`
/// and `NADMM_PAR_THRESHOLD` parsers apply the same rule).
pub fn smoke_mode() -> bool {
    match std::env::var(BENCH_SMOKE_ENV) {
        Ok(raw) => parse_smoke_value(&raw),
        Err(std::env::VarError::NotPresent) => false,
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("{BENCH_SMOKE_ENV} is set to a non-UTF-8 value ({raw:?}); {BENCH_SMOKE_ACCEPTED}")
        }
    }
}

/// Parses a [`BENCH_SMOKE_ENV`] value (see [`smoke_mode`] for the contract).
pub fn parse_smoke_value(raw: &str) -> bool {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => true,
        "0" | "false" | "no" | "off" | "" => false,
        _ => panic!("{BENCH_SMOKE_ENV}='{raw}' is not a valid smoke-mode switch; {BENCH_SMOKE_ACCEPTED}"),
    }
}

/// Applies the global scale factor to a sample count (minimum 64).
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale_factor()) as usize).max(64)
}

/// The dataset configurations used by the figure examples: scaled-down
/// versions of the paper's four datasets that run on one machine. The
/// `table1` example prints their scale relative to the paper's Table 1.
pub fn bench_config(kind: DatasetKind) -> SyntheticConfig {
    match kind {
        DatasetKind::Higgs => SyntheticConfig::higgs_like()
            .with_train_size(scaled(4_096))
            .with_test_size(scaled(512))
            .with_num_features(28),
        DatasetKind::Mnist => SyntheticConfig::mnist_like()
            .with_train_size(scaled(2_048))
            .with_test_size(scaled(512))
            .with_num_features(96),
        DatasetKind::Cifar10 => SyntheticConfig::cifar10_like()
            .with_train_size(scaled(1_536))
            .with_test_size(scaled(384))
            .with_num_features(128),
        DatasetKind::E18 => SyntheticConfig::e18_like()
            .with_train_size(scaled(2_048))
            .with_test_size(scaled(256))
            .with_num_features(512),
    }
}

/// Generates `(train, test)` for a dataset kind at bench scale.
pub fn bench_dataset(kind: DatasetKind, seed: u64) -> (Dataset, Dataset) {
    bench_config(kind).generate(seed)
}

/// Builds a simulated cluster with the paper's interconnect (100 Gbps
/// Infiniband).
pub fn paper_cluster(workers: usize) -> Cluster {
    Cluster::new(workers, NetworkModel::infiniband_100g())
}

/// Strong-scaling shards for `workers` ranks.
pub fn strong_shards(train: &Dataset, workers: usize) -> Vec<Dataset> {
    partition_strong(train, workers).0
}

/// Weak-scaling shards: `per_worker` samples on each of `workers` ranks. The
/// dataset must be large enough; the caller controls that via
/// [`bench_config`].
pub fn weak_shards(train: &Dataset, workers: usize, per_worker: usize) -> Vec<Dataset> {
    partition_weak(train, workers, per_worker).0
}

/// The worker counts the paper sweeps in Figures 2 and 3.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_minimum() {
        assert!(scaled(1) >= 64);
        assert!(scaled(10_000) >= 64);
    }

    #[test]
    fn bench_configs_cover_all_kinds() {
        for kind in [DatasetKind::Higgs, DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::E18] {
            let cfg = bench_config(kind);
            assert_eq!(cfg.kind, kind);
            assert!(cfg.train_size >= 64);
        }
    }

    #[test]
    fn smoke_values_parse_or_panic_loudly() {
        for truthy in ["1", "true", "YES", " on "] {
            assert!(parse_smoke_value(truthy), "{truthy:?} must enable smoke mode");
        }
        for falsy in ["0", "false", "No", "off", ""] {
            assert!(!parse_smoke_value(falsy), "{falsy:?} must disable smoke mode");
        }
        for bad in ["2", "smoke", "-1", "tru"] {
            let err = std::panic::catch_unwind(|| parse_smoke_value(bad)).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("NADMM_BENCH_SMOKE") && msg.contains("accepted values"),
                "panic for {bad:?} must name the variable and the accepted values: {msg}"
            );
        }
    }

    #[test]
    fn scale_values_parse_or_panic_loudly() {
        assert_eq!(parse_scale_value("4"), 4.0);
        assert_eq!(parse_scale_value(" 0.5 "), 0.5);
        for bad in ["", "big", "0", "-2", "inf", "NaN"] {
            let err = std::panic::catch_unwind(|| parse_scale_value(bad)).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("NADMM_SCALE") && msg.contains("accepted values"),
                "panic for {bad:?} must name the variable and the accepted values: {msg}"
            );
        }
    }

    #[test]
    fn shard_helpers_produce_expected_counts() {
        let (train, _) = SyntheticConfig::higgs_like()
            .with_train_size(256)
            .with_test_size(32)
            .with_num_features(8)
            .generate(1);
        assert_eq!(strong_shards(&train, 4).len(), 4);
        assert_eq!(weak_shards(&train, 4, 64).len(), 4);
        assert_eq!(paper_cluster(4).size(), 4);
    }
}

pub mod alloc_counter;
pub mod report;
