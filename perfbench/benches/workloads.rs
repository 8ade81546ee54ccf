//! The four workloads: their data, cluster shape, solver settings and the
//! objective target each training run must reach.

use nadmm_baselines::SyncSgdConfig;
use nadmm_cluster::NetworkModel;
use nadmm_data::SyntheticConfig;
use nadmm_experiment::{ClusterSpec, SolverSpec};
use newton_admm::NewtonAdmmConfig;
use std::fmt;

/// Which solver a workload trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trainer {
    NewtonAdmm,
    SyncSgd,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub data: SyntheticConfig,
    pub ranks: usize,
    /// Work-sharing pool width each rank's kernels may use.
    pub pool_width: usize,
    pub trainer: Trainer,
    pub admm: NewtonAdmmConfig,
    pub sgd: SyncSgdConfig,
    /// Objective value a training run must reach within its budget.
    pub target: f64,
    /// Whether the timed loop serves requests (the model is trained in
    /// set-up) instead of training.
    pub serve: bool,
}

/// Refusals raised before any work starts.
#[derive(Debug)]
pub enum BenchError {
    UnknownWorkload(String),
    Usage(String),
    /// The workload's ranks × pool width exceeds the cores available.
    Oversubscribed {
        workload: &'static str,
        ranks: usize,
        pool_width: usize,
        nproc: usize,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::UnknownWorkload(w) => {
                write!(
                    f,
                    "unknown workload '{w}' (expected admm_dense, admm_sparse, sgd_dense or serve)"
                )
            }
            BenchError::Usage(msg) => write!(f, "{msg}"),
            BenchError::Oversubscribed {
                workload,
                ranks,
                pool_width,
                nproc,
            } => write!(
                f,
                "workload {workload} needs {ranks} ranks × pool width {pool_width} = {} threads, \
                 but only {nproc} cores are available; refusing to oversubscribe",
                ranks * pool_width
            ),
        }
    }
}

impl std::error::Error for BenchError {}

/// The paper's defaults: λ = 1e-5, 10 CG iterations, spectral penalty.
fn admm(max_iters: usize) -> NewtonAdmmConfig {
    NewtonAdmmConfig::default().with_max_iters(max_iters)
}

fn sgd(epochs: usize, seed: u64) -> SyncSgdConfig {
    SyncSgdConfig {
        epochs,
        batch_size: 128,
        step_size: 0.1,
        seed,
        ..SyncSgdConfig::default()
    }
}

impl Workload {
    pub fn by_name(name: &str, seed: u64) -> Result<Self, BenchError> {
        // 15,000 rows on 2 ranks is 7,500 rows per rank: the paper's MNIST
        // shard on 8 GPUs.
        let mnist = SyntheticConfig::mnist_like().with_train_size(15_000).with_test_size(2_000);
        let w = match name {
            "admm_dense" => Workload {
                name: "admm_dense",
                data: mnist,
                ranks: 2,
                pool_width: 1,
                trainer: Trainer::NewtonAdmm,
                admm: admm(4),
                sgd: sgd(1, seed),
                // Reached at iteration 3 (records read ~6.5, 2.4, 0.9).
                target: 1.5,
                serve: false,
            },
            "admm_sparse" => Workload {
                name: "admm_sparse",
                data: SyntheticConfig::e18_like().with_train_size(8_000).with_test_size(2_000),
                ranks: 2,
                pool_width: 1,
                trainer: Trainer::NewtonAdmm,
                admm: admm(8),
                sgd: sgd(1, seed),
                // The objective is non-monotone from iteration 2 (~60, then
                // up to ~130 and back down); 45 is first reached at
                // iteration 7, after the rebound.
                target: 45.0,
                serve: false,
            },
            "sgd_dense" => Workload {
                name: "sgd_dense",
                data: mnist,
                ranks: 2,
                pool_width: 1,
                trainer: Trainer::SyncSgd,
                admm: admm(2),
                sgd: sgd(8, seed),
                // Epoch objectives read ~105, 52, 35, 26, 21, 17.
                target: 23.0,
                serve: false,
            },
            "serve" => Workload {
                name: "serve",
                data: SyntheticConfig::mnist_like().with_train_size(6_000).with_test_size(2_000),
                ranks: 2,
                pool_width: 1,
                trainer: Trainer::NewtonAdmm,
                admm: admm(3),
                sgd: sgd(1, seed),
                target: 1.5,
                serve: true,
            },
            other => return Err(BenchError::UnknownWorkload(other.to_string())),
        };
        Ok(w)
    }

    /// Refuses a workload that would need more threads than cores.
    pub fn check_fits(&self, nproc: usize) -> Result<(), BenchError> {
        if self.ranks * self.pool_width > nproc {
            return Err(BenchError::Oversubscribed {
                workload: self.name,
                ranks: self.ranks,
                pool_width: self.pool_width,
                nproc,
            });
        }
        Ok(())
    }

    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::new(self.ranks, NetworkModel::infiniband_100g())
    }

    pub fn solver_spec(&self) -> SolverSpec {
        match self.trainer {
            Trainer::NewtonAdmm => SolverSpec::NewtonAdmm(self.admm),
            Trainer::SyncSgd => SolverSpec::SyncSgd(self.sgd),
        }
    }

    /// Outer iterations (ADMM iterations or SGD epochs) a training run
    /// performs.
    pub fn outer_iterations(&self) -> usize {
        match self.trainer {
            Trainer::NewtonAdmm => self.admm.max_iters,
            Trainer::SyncSgd => self.sgd.epochs,
        }
    }
}
