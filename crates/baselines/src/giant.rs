//! GIANT: Globally Improved Approximate Newton (Wang et al. 2017).
//!
//! Per outer iteration GIANT needs **three** communication rounds, which is
//! the key structural difference from Newton-ADMM's single round:
//!
//! 1. allreduce of the local gradients to form the global gradient `g`;
//! 2. every worker solves its local Hessian system `(N·H_i) p_i = g` with CG
//!    and the local Newton directions are averaged by a second allreduce;
//! 3. a *distributed* line search: every worker evaluates its local objective
//!    at the fixed step-size set `S = {2⁰, 2⁻¹, …, 2⁻ᵏ}` and a third
//!    allreduce combines them so the master can pick the best global step
//!    (each worker must evaluate the whole set — the redundant work the paper
//!    contrasts with Newton-ADMM's locally-terminated backtracking).

use crate::common::{global_gradient_into, local_objective_on, record_iteration, DistributedRun, EngineSync};
use nadmm_cluster::Communicator;
use nadmm_data::Dataset;
use nadmm_device::{Device, DeviceSpec, Workspace};
use nadmm_linalg::vector;
use nadmm_metrics::RunHistory;
use nadmm_objective::Objective;
use nadmm_solver::validate::{require_non_negative, require_nonzero, require_open_unit, ConfigError};
use nadmm_solver::{conjugate_gradient_into, CgConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// GIANT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GiantConfig {
    /// Number of outer iterations (epochs).
    pub max_iters: usize,
    /// Global L2 regularization weight λ.
    pub lambda: f64,
    /// CG budget/tolerance for the local Hessian solves (the paper uses the
    /// same settings as Newton-ADMM for a fair comparison: 10 iterations,
    /// tolerance 1e-4).
    pub cg: CgConfig,
    /// Number of candidate step sizes in the fixed set `{2⁰ … 2^{-(k-1)}}`
    /// (the paper uses 10, matching Newton-ADMM's max line-search iterations).
    pub line_search_steps: usize,
    /// Armijo sufficient-decrease constant used to pick among the candidates.
    pub armijo_beta: f64,
    /// Hardware model for local compute time.
    pub device: DeviceSpec,
    /// Stop when the global gradient norm drops below this (0 disables).
    pub grad_tol: f64,
}

impl Default for GiantConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            lambda: 1e-5,
            cg: CgConfig {
                max_iters: 10,
                tolerance: 1e-4,
            },
            line_search_steps: 10,
            armijo_beta: 1e-4,
            device: DeviceSpec::tesla_p100(),
            grad_tol: 0.0,
        }
    }
}

impl GiantConfig {
    /// Rejects zero iteration budgets and out-of-range constants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero("GiantConfig", "max_iters", self.max_iters)?;
        require_non_negative("GiantConfig", "lambda", self.lambda)?;
        require_nonzero("GiantConfig", "line_search_steps", self.line_search_steps)?;
        require_open_unit("GiantConfig", "armijo_beta", self.armijo_beta)?;
        require_non_negative("GiantConfig", "grad_tol", self.grad_tol)?;
        self.cg.validate()
    }
}

/// The GIANT solver.
#[derive(Debug, Clone, Default)]
pub struct Giant {
    config: GiantConfig,
}

impl Giant {
    /// Creates a solver with the given configuration.
    pub fn new(config: GiantConfig) -> Self {
        Self { config }
    }

    /// The solver configuration.
    pub fn config(&self) -> &GiantConfig {
        &self.config
    }

    /// Runs GIANT inside one rank of a communicator; every rank must call
    /// this with its shard.
    pub fn run_distributed(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> DistributedRun {
        let cfg = &self.config;
        let n_workers = comm.size();
        let device = Device::new(cfg.device);
        let local = local_objective_on(shard, cfg.lambda, n_workers, &device);
        let mut engine = EngineSync::new(&device);
        let mut ws = Workspace::new();
        let dim = local.dim();
        let mut w = vec![0.0; dim];
        let mut p_local = vec![0.0; dim];
        let mut g = vec![0.0; dim];
        let steps: Vec<f64> = (0..cfg.line_search_steps).map(|i| 0.5_f64.powi(i as i32)).collect();
        let mut step_values = vec![0.0; steps.len()];
        let wall_start = Instant::now();
        let mut history = RunHistory::new("giant", shard.name(), n_workers);
        record_iteration(comm, &local, &mut engine, test, &w, 0, wall_start, &mut history);

        for k in 1..=cfg.max_iters {
            // Round 1: global gradient (in-place allreduce).
            global_gradient_into(comm, &local, &mut engine, &mut ws, &w, &mut g);
            if cfg.grad_tol > 0.0 && vector::norm2(&g) < cfg.grad_tol {
                break;
            }

            // Local Hessian solve: (N·H_i) p_i = g  (H_i is the local shard
            // Hessian; N·H_i approximates the global Hessian under an i.i.d.
            // partition). Every HVP launches through the device engine with
            // pooled scratch, so the CG loop is allocation-free once warm.
            let hvp_state = local.prepare_hvp(&w, &mut ws);
            let scale = n_workers as f64;
            conjugate_gradient_into(
                |v, out, ws| {
                    local.hvp_prepared_into(&hvp_state, v, out, ws);
                    vector::scale(scale, out);
                },
                &g,
                &mut p_local,
                &cfg.cg,
                &mut ws,
            );
            local.release_hvp(hvp_state, &mut ws);
            engine.sync(comm, &device);

            // Round 2: average the local Newton directions, in place (CG
            // rewrites `p_local` from scratch next iteration, so the sum can
            // land where the local direction was).
            comm.allreduce_sum_into(&mut p_local);
            for v in p_local.iter_mut() {
                *v /= n_workers as f64;
            }
            let p = &p_local;

            // Round 3: distributed line search over the fixed step-size set.
            // Every worker evaluates *all* candidate steps (paper §3).
            let mut trial = ws.acquire(dim);
            for (slot, &alpha) in step_values.iter_mut().zip(&steps) {
                trial.copy_from_slice(&w);
                vector::axpy(-alpha, p, &mut trial);
                *slot = local.value_ws(&trial, &mut ws);
            }
            ws.release(trial);
            engine.sync(comm, &device);
            comm.allreduce_sum_into(&mut step_values);

            // Pick the largest step satisfying Armijo on the global
            // objective; fall back to the best value if none does.
            let f0 = history.records.last().map(|r| r.objective).unwrap_or_else(|| step_values[0]);
            let slope = -vector::dot(p, &g); // direction is −p
            let mut chosen = None;
            for (i, &alpha) in steps.iter().enumerate() {
                if step_values[i] <= f0 + cfg.armijo_beta * alpha * slope {
                    chosen = Some(i);
                    break;
                }
            }
            let best = chosen.unwrap_or_else(|| {
                step_values
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("line-search step objective is NaN"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            });
            vector::axpy(-steps[best], p, &mut w);

            record_iteration(comm, &local, &mut engine, test, &w, k, wall_start, &mut history);
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
    use nadmm_data::{partition_strong, SyntheticConfig};
    use nadmm_objective::SoftmaxCrossEntropy;
    use nadmm_solver::{NewtonCg, NewtonConfig};

    fn dataset(seed: u64) -> (Dataset, Dataset) {
        SyntheticConfig::mnist_like()
            .with_train_size(120)
            .with_test_size(30)
            .with_num_features(8)
            .with_num_classes(4)
            .generate(seed)
    }

    #[test]
    fn giant_converges_towards_the_newton_optimum() {
        let (train, _) = dataset(1);
        let lambda = 1e-2;
        let global = SoftmaxCrossEntropy::new(&train, lambda);
        let newton = NewtonCg::new(NewtonConfig {
            max_iters: 50,
            cg: CgConfig {
                max_iters: 60,
                tolerance: 1e-10,
            },
            ..Default::default()
        })
        .minimize(&global, &vec![0.0; global.dim()]);
        let (shards, _) = partition_strong(&train, 4);
        let cluster = Cluster::new(4, NetworkModel::infiniband_100g());
        let cfg = GiantConfig {
            max_iters: 30,
            lambda,
            ..Default::default()
        };
        let run = rank0(&cluster, &shards, |comm, shard| {
            Giant::new(cfg).run_distributed(comm, shard, None)
        });
        let final_value = run.history.final_objective().unwrap();
        assert!(
            (final_value - newton.value) / newton.value.abs() < 0.05,
            "GIANT final value {final_value} too far from Newton optimum {}",
            newton.value
        );
    }

    #[test]
    fn giant_uses_three_rounds_per_iteration_plus_instrumentation() {
        let (train, _) = dataset(2);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let iters = 4;
        let cfg = GiantConfig {
            max_iters: iters,
            lambda: 1e-3,
            ..Default::default()
        };
        let run = rank0(&cluster, &shards, |comm, shard| {
            Giant::new(cfg).run_distributed(comm, shard, None)
        });
        // Per iteration: 3 algorithmic collectives + 1 instrumentation
        // allreduce; plus 1 instrumentation collective for iteration 0.
        let expected = 4 * iters as u64 + 1;
        assert_eq!(run.comm_stats.collectives, expected);
    }

    #[test]
    fn giant_improves_test_accuracy() {
        let (train, test) = dataset(3);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(2, NetworkModel::infiniband_100g());
        let cfg = GiantConfig {
            max_iters: 15,
            lambda: 1e-3,
            ..Default::default()
        };
        let run = rank0(&cluster, &shards, |comm, shard| {
            Giant::new(cfg).run_distributed(comm, shard, Some(&test))
        });
        let first_acc = run.history.records[0].test_accuracy.unwrap();
        let last_acc = run.history.final_accuracy().unwrap();
        assert!(last_acc > first_acc, "accuracy should improve: {first_acc} -> {last_acc}");
    }

    #[test]
    fn gradient_tolerance_stops_early() {
        let (train, _) = dataset(4);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let cfg = GiantConfig {
            max_iters: 100,
            lambda: 1e-2,
            grad_tol: 1e3,
            ..Default::default()
        };
        let run = rank0(&cluster, &shards, |comm, shard| {
            Giant::new(cfg).run_distributed(comm, shard, None)
        });
        assert!(run.history.len() <= 2, "a huge grad_tol must stop the run immediately");
    }
}
