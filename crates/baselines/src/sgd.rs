//! Distributed synchronous minibatch SGD (the paper's Figure 4 comparator).
//!
//! Every worker repeatedly samples a minibatch from its shard, computes the
//! minibatch gradient, and a *synchronous allreduce per minibatch* averages
//! the gradients before the shared iterate is updated. One epoch is one pass
//! over the local shard (`⌈n_local / batch⌉` minibatches), so the number of
//! communication rounds per epoch is large — exactly the overhead the paper
//! contrasts with Newton-ADMM's single round.

use crate::common::{local_objective_on, record_iteration, DistributedRun, EngineSync};
use nadmm_cluster::Communicator;
use nadmm_data::Dataset;
use nadmm_device::{Device, DeviceSpec};
use nadmm_linalg::{gen, vector};
use nadmm_metrics::RunHistory;
use nadmm_objective::{Objective, SoftmaxCrossEntropy};
use nadmm_solver::validate::{require_non_negative, require_nonzero, require_positive, require_unit_coefficient, ConfigError};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Synchronous SGD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncSgdConfig {
    /// Number of epochs (full passes over each local shard).
    pub epochs: usize,
    /// Global L2 regularization weight λ.
    pub lambda: f64,
    /// Minibatch size per worker (the paper uses 128).
    pub batch_size: usize,
    /// Step size η (the paper grid-searches 1e-8…1e8 and reports the best).
    pub step_size: f64,
    /// Momentum coefficient (0 disables momentum, as in plain synchronous
    /// SGD).
    pub momentum: f64,
    /// RNG seed for minibatch sampling.
    pub seed: u64,
    /// Hardware model for local compute time.
    pub device: DeviceSpec,
}

impl Default for SyncSgdConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            lambda: 1e-5,
            batch_size: 128,
            step_size: 1e-2,
            momentum: 0.0,
            seed: 0,
            device: DeviceSpec::tesla_p100(),
        }
    }
}

impl SyncSgdConfig {
    /// Rejects zero budgets and out-of-range step/momentum values.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero("SyncSgdConfig", "epochs", self.epochs)?;
        require_non_negative("SyncSgdConfig", "lambda", self.lambda)?;
        require_nonzero("SyncSgdConfig", "batch_size", self.batch_size)?;
        require_positive("SyncSgdConfig", "step_size", self.step_size)?;
        require_unit_coefficient("SyncSgdConfig", "momentum", self.momentum)
    }
}

/// The distributed synchronous SGD solver.
#[derive(Debug, Clone, Default)]
pub struct SyncSgd {
    config: SyncSgdConfig,
}

impl SyncSgd {
    /// Creates a solver with the given configuration.
    pub fn new(config: SyncSgdConfig) -> Self {
        Self { config }
    }

    /// The solver configuration.
    pub fn config(&self) -> &SyncSgdConfig {
        &self.config
    }

    /// Runs synchronous SGD inside one rank of a communicator.
    pub fn run_distributed(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> DistributedRun {
        let cfg = &self.config;
        let n_workers = comm.size();
        let device = Device::new(cfg.device);
        let local = local_objective_on(shard, cfg.lambda, n_workers, &device);
        let mut engine = EngineSync::new(&device);
        let dim = local.dim();
        let n_local = shard.num_samples();
        let batch = cfg.batch_size.min(n_local.max(1));
        let batches_per_epoch = n_local.div_ceil(batch).max(1);
        let mut rng = gen::seeded_rng(cfg.seed.wrapping_add(comm.rank() as u64 * 7919));

        let mut w = vec![0.0; dim];
        let mut velocity = vec![0.0; dim];
        let mut g = vec![0.0; dim];
        let mut ws = nadmm_device::Workspace::new();
        let wall_start = Instant::now();
        let mut history = RunHistory::new("sync-sgd", shard.name(), n_workers);
        record_iteration(comm, &local, &mut engine, test, &w, 0, wall_start, &mut history);

        for epoch in 1..=cfg.epochs {
            for _ in 0..batches_per_epoch {
                let idx = gen::sample_without_replacement(n_local, batch, &mut rng);
                let mini = shard.select(&idx);
                // Minibatch objective scaled so that it estimates the *local*
                // sum objective (loss scaled up by n_local/batch, plus this
                // worker's regulariser share). The minibatch kernels launch
                // on the rank's shared device engine.
                let mini_obj = SoftmaxCrossEntropy::new(&mini, 0.0).with_device(device.clone());
                mini_obj.gradient_into(&w, &mut g, &mut ws);
                vector::scale(n_local as f64 / batch as f64, &mut g);
                vector::axpy(cfg.lambda / n_workers as f64, &w, &mut g);
                engine.sync(comm, &device);
                // Synchronous in-place allreduce per minibatch (this is the
                // expensive part the paper points at).
                comm.allreduce_sum_into(&mut g);
                // Normalise by the total sample count so the step size has a
                // per-sample scale (standard minibatch SGD convention).
                let total_samples = comm.allreduce_scalar_sum(n_local as f64).max(1.0);
                if cfg.momentum > 0.0 {
                    for i in 0..dim {
                        velocity[i] = cfg.momentum * velocity[i] - cfg.step_size * g[i] / total_samples;
                        w[i] += velocity[i];
                    }
                } else {
                    vector::axpy(-cfg.step_size / total_samples, &g, &mut w);
                }
            }
            record_iteration(comm, &local, &mut engine, test, &w, epoch, wall_start, &mut history);
        }

        DistributedRun {
            w,
            history,
            comm_stats: comm.stats(),
            workspace: ws.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank0;
    use nadmm_cluster::{Cluster, NetworkModel};
    use nadmm_data::{partition_weak, SyntheticConfig};

    fn dataset(n: usize, seed: u64) -> (Dataset, Dataset) {
        SyntheticConfig::mnist_like()
            .with_train_size(n)
            .with_test_size(n / 4)
            .with_num_features(6)
            .with_num_classes(3)
            .generate(seed)
    }

    #[test]
    fn sgd_reduces_the_objective_and_improves_accuracy() {
        let (train, test) = dataset(120, 1);
        let (shards, _) = partition_weak(&train, 2, 60);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let cfg = SyncSgdConfig {
            epochs: 10,
            lambda: 1e-3,
            batch_size: 16,
            step_size: 0.5,
            ..Default::default()
        };
        let run = rank0(&cluster, &shards, |comm, shard| {
            SyncSgd::new(cfg).run_distributed(comm, shard, Some(&test))
        });
        let first = run.history.records[0].objective;
        let last = run.history.final_objective().unwrap();
        assert!(last < first, "SGD should reduce the objective: {first} -> {last}");
        assert!(run.history.final_accuracy().unwrap() >= run.history.records[0].test_accuracy.unwrap());
    }

    #[test]
    fn sgd_communicates_once_per_minibatch() {
        let (train, _) = dataset(64, 2);
        let (shards, _) = partition_weak(&train, 2, 32);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let cfg = SyncSgdConfig {
            epochs: 2,
            batch_size: 8,
            lambda: 1e-3,
            step_size: 0.1,
            ..Default::default()
        };
        let run = rank0(&cluster, &shards, |comm, shard| {
            SyncSgd::new(cfg).run_distributed(comm, shard, None)
        });
        // 32/8 = 4 minibatches per epoch, each with 2 collectives (gradient +
        // sample count), plus 1 instrumentation allreduce per epoch and one
        // for epoch 0.
        let expected = 2 * (4 * 2 + 1) + 1;
        assert_eq!(run.comm_stats.collectives, expected as u64);
    }
}
