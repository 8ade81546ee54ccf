//! InexactDANE and AIDE (Reddi et al. 2016).
//!
//! DANE solves, at every worker and every outer iteration, the *mirror*
//! subproblem
//!
//! ```text
//! w_i⁺ = argmin_w  φ_i(w) − (∇φ_i(w_t) − η ∇F(w_t))ᵀ w + μ/2 ‖w − w_t‖²
//! ```
//!
//! and averages the solutions. InexactDANE solves the subproblem only
//! approximately with SVRG, which is exactly why its epoch time is orders of
//! magnitude larger than Newton-ADMM's in the paper's Figure 1 — the SVRG
//! inner loop performs very many minibatch gradient evaluations per epoch.
//! AIDE wraps InexactDANE in catalyst-style acceleration: it repeatedly
//! solves a `τ`-regularised problem centred at an extrapolated point.

use crate::common::{global_gradient, local_objective_on, record_iteration, DistributedRun, EngineSync};
use nadmm_cluster::Communicator;
use nadmm_data::Dataset;
use nadmm_device::{Device, DeviceSpec};
use nadmm_linalg::{gen, vector};
use nadmm_metrics::RunHistory;
use nadmm_objective::{Objective, SoftmaxCrossEntropy};
use nadmm_solver::validate::{require_non_negative, require_nonzero, require_positive, require_unit_coefficient, ConfigError};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// InexactDANE configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DaneConfig {
    /// Number of outer iterations.
    pub max_iters: usize,
    /// Global L2 regularization weight λ.
    pub lambda: f64,
    /// DANE's gradient-mixing parameter η (the paper follows DANE's
    /// suggestion of 1.0).
    pub eta: f64,
    /// DANE's proximal weight μ (the paper uses 0.0).
    pub mu: f64,
    /// Number of SVRG inner iterations per subproblem (the paper uses 100).
    pub svrg_iters: usize,
    /// SVRG minibatch size.
    pub svrg_batch: usize,
    /// SVRG step size (the paper grid-searches 1e-4…1e4; this is the value
    /// used for the run).
    pub svrg_step: f64,
    /// RNG seed for the SVRG minibatch sampling.
    pub seed: u64,
    /// Hardware model for local compute time.
    pub device: DeviceSpec,
}

impl Default for DaneConfig {
    fn default() -> Self {
        Self {
            max_iters: 10,
            lambda: 1e-5,
            eta: 1.0,
            mu: 0.0,
            svrg_iters: 100,
            svrg_batch: 16,
            svrg_step: 1e-3,
            seed: 0,
            device: DeviceSpec::tesla_p100(),
        }
    }
}

impl DaneConfig {
    /// Rejects zero iteration budgets and invalid SVRG parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero("DaneConfig", "max_iters", self.max_iters)?;
        require_non_negative("DaneConfig", "lambda", self.lambda)?;
        require_positive("DaneConfig", "eta", self.eta)?;
        require_non_negative("DaneConfig", "mu", self.mu)?;
        require_nonzero("DaneConfig", "svrg_iters", self.svrg_iters)?;
        require_nonzero("DaneConfig", "svrg_batch", self.svrg_batch)?;
        require_positive("DaneConfig", "svrg_step", self.svrg_step)
    }
}

/// AIDE configuration: InexactDANE plus the catalyst parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AideConfig {
    /// The inner InexactDANE configuration.
    pub dane: DaneConfig,
    /// Catalyst regularisation weight τ (the paper grid-searches 1e-4…1e4).
    pub tau: f64,
    /// Extrapolation (momentum) coefficient ζ ∈ [0, 1).
    pub zeta: f64,
}

impl Default for AideConfig {
    fn default() -> Self {
        Self {
            dane: DaneConfig::default(),
            tau: 1.0,
            zeta: 0.5,
        }
    }
}

impl AideConfig {
    /// Rejects an invalid inner DANE config or catalyst constants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.dane.validate()?;
        require_non_negative("AideConfig", "tau", self.tau)?;
        require_unit_coefficient("AideConfig", "zeta", self.zeta)
    }
}

/// The InexactDANE / AIDE solver.
#[derive(Debug, Clone, Default)]
pub struct InexactDane {
    config: DaneConfig,
}

/// The DANE subproblem gradient at `w`:
/// `∇φ_i(w) − (∇φ_i(w_t) − η ∇F(w_t)) + μ(w − w_t) [+ τ(w − y)]`.
struct SubproblemGrad<'a> {
    local: &'a SoftmaxCrossEntropy,
    correction: Vec<f64>,
    anchor: Vec<f64>,
    mu: f64,
    tau: f64,
    catalyst_center: Option<Vec<f64>>,
}

impl SubproblemGrad<'_> {
    fn eval_with(&self, base_grad: &[f64], w: &[f64]) -> Vec<f64> {
        let mut g = base_grad.to_vec();
        vector::sub_assign(&mut g, &self.correction);
        if self.mu > 0.0 {
            for i in 0..g.len() {
                g[i] += self.mu * (w[i] - self.anchor[i]);
            }
        }
        if let Some(center) = &self.catalyst_center {
            for i in 0..g.len() {
                g[i] += self.tau * (w[i] - center[i]);
            }
        }
        g
    }

    fn eval(&self, w: &[f64]) -> Vec<f64> {
        self.eval_with(&self.local.gradient(w), w)
    }
}

impl InexactDane {
    /// Creates a solver with the given configuration.
    pub fn new(config: DaneConfig) -> Self {
        Self { config }
    }

    /// The solver configuration.
    pub fn config(&self) -> &DaneConfig {
        &self.config
    }

    /// Solves the DANE subproblem approximately with SVRG and returns the new
    /// local iterate. `catalyst_center` adds AIDE's `τ/2‖w − y‖²` term.
    #[allow(clippy::too_many_arguments)]
    fn solve_subproblem(
        &self,
        comm: &mut dyn Communicator,
        shard: &Dataset,
        local: &SoftmaxCrossEntropy,
        device: &Device,
        engine: &mut EngineSync,
        w_t: &[f64],
        global_grad: &[f64],
        catalyst_center: Option<&[f64]>,
        tau: f64,
        rng: &mut impl rand::Rng,
    ) -> Vec<f64> {
        let cfg = &self.config;
        let dim = local.dim();
        let n_local = shard.num_samples();
        // Fixed DANE correction vector: ∇φ_i(w_t) − η ∇F(w_t).
        let local_grad_at_anchor = local.gradient(w_t);
        engine.sync(comm, device);
        let mut correction = local_grad_at_anchor;
        vector::axpy(-cfg.eta, global_grad, &mut correction);

        let sub = SubproblemGrad {
            local,
            correction,
            anchor: w_t.to_vec(),
            mu: cfg.mu,
            tau,
            catalyst_center: catalyst_center.map(|c| c.to_vec()),
        };

        // SVRG: full subproblem gradient at the anchor, then minibatch
        // corrections. The anchor is refreshed once halfway through.
        let mut w = w_t.to_vec();
        let mut snapshot = w.clone();
        let mut full_grad_snapshot = sub.eval(&snapshot);
        engine.sync(comm, device);
        let batch = cfg.svrg_batch.min(n_local.max(1));
        let scale = n_local as f64 / batch as f64;
        for it in 0..cfg.svrg_iters {
            if it == cfg.svrg_iters / 2 {
                snapshot = w.clone();
                full_grad_snapshot = sub.eval(&snapshot);
                engine.sync(comm, device);
            }
            let idx = gen::sample_without_replacement(n_local, batch, rng);
            let mini = shard.select(&idx);
            let mini_obj = SoftmaxCrossEntropy::new(
                &mini,
                cfg.lambda * batch as f64 / (n_local.max(1) as f64 * comm.size() as f64),
            )
            .with_device(device.clone());
            // Stochastic estimate of ∇φ_i: scaled minibatch gradient.
            let gw = vector::scaled(scale, &mini_obj.gradient(&w));
            let gs = vector::scaled(scale, &mini_obj.gradient(&snapshot));
            engine.sync(comm, device);
            // SVRG direction on the subproblem: replace the φ_i part of the
            // gradient with its variance-reduced estimate.
            let gw_sub = sub.eval_with(&gw, &w);
            let gs_sub = sub.eval_with(&gs, &snapshot);
            let mut direction = gw_sub;
            vector::sub_assign(&mut direction, &gs_sub);
            vector::add_assign(&mut direction, &full_grad_snapshot);
            vector::axpy(-cfg.svrg_step, &direction, &mut w);
            if !vector::all_finite(&w) {
                // Diverged (step too large for this problem) — fall back to
                // the anchor so the outer loop stays well-defined.
                w = w_t.to_vec();
                break;
            }
        }
        debug_assert_eq!(w.len(), dim);
        w
    }

    /// Runs InexactDANE inside one rank of a communicator.
    pub fn run_distributed(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> DistributedRun {
        self.run_with_catalyst(comm, shard, test, None)
    }

    /// Runs AIDE (catalyst-accelerated InexactDANE) inside one rank of a
    /// communicator. The inner DANE configuration is `self.config()`; `aide`
    /// supplies the catalyst parameters.
    pub fn run_distributed_aide(
        &self,
        comm: &mut dyn Communicator,
        shard: &Dataset,
        test: Option<&Dataset>,
        aide: &AideConfig,
    ) -> DistributedRun {
        self.run_with_catalyst(comm, shard, test, Some(aide))
    }

    fn run_with_catalyst(
        &self,
        comm: &mut dyn Communicator,
        shard: &Dataset,
        test: Option<&Dataset>,
        aide: Option<&AideConfig>,
    ) -> DistributedRun {
        let cfg = &self.config;
        let n_workers = comm.size();
        let device = Device::new(cfg.device);
        let local = local_objective_on(shard, cfg.lambda, n_workers, &device);
        let mut engine = EngineSync::new(&device);
        let mut ws = nadmm_device::Workspace::new();
        let dim = local.dim();
        let mut rng = gen::seeded_rng(cfg.seed.wrapping_add(comm.rank() as u64 * 7919));
        let mut w = vec![0.0; dim];
        let mut w_prev = w.clone();
        let mut catalyst_y = w.clone();
        let solver_name = if aide.is_some() { "aide" } else { "inexact-dane" };
        let wall_start = Instant::now();
        let mut history = RunHistory::new(solver_name, shard.name(), n_workers);
        record_iteration(comm, &local, &mut engine, test, &w, 0, wall_start, &mut history);

        for k in 1..=cfg.max_iters {
            // Round 1: global gradient at the current iterate (or the
            // extrapolated point for AIDE).
            let anchor = if aide.is_some() { catalyst_y.clone() } else { w.clone() };
            let g = global_gradient(comm, &local, &mut engine, &mut ws, &anchor);

            // Local subproblem via SVRG.
            let (center, tau) = match aide {
                Some(a) => (Some(anchor.as_slice()), a.tau),
                None => (None, 0.0),
            };
            let mut w_local =
                self.solve_subproblem(comm, shard, &local, &device, &mut engine, &anchor, &g, center, tau, &mut rng);

            // Round 2: average the local solutions with an in-place
            // allreduce (the local solution buffer becomes the new iterate).
            comm.allreduce_sum_into(&mut w_local);
            for v in w_local.iter_mut() {
                *v /= n_workers as f64;
            }
            let w_new = w_local;

            if let Some(a) = aide {
                // Catalyst extrapolation.
                catalyst_y.copy_from_slice(&w_new);
                for i in 0..dim {
                    catalyst_y[i] += a.zeta * (w_new[i] - w_prev[i]);
                }
            }
            w_prev = std::mem::replace(&mut w, w_new);

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
    use crate::common::local_objective;
    use crate::rank0;
    use nadmm_cluster::{Cluster, NetworkModel};
    use nadmm_data::{partition_strong, SyntheticConfig};

    fn dataset(seed: u64) -> Dataset {
        SyntheticConfig::mnist_like()
            .with_train_size(80)
            .with_test_size(20)
            .with_num_features(6)
            .with_num_classes(3)
            .generate(seed)
            .0
    }

    fn quick_config() -> DaneConfig {
        DaneConfig {
            max_iters: 5,
            lambda: 1e-3,
            svrg_iters: 40,
            svrg_batch: 8,
            svrg_step: 5e-3,
            ..Default::default()
        }
    }

    #[test]
    fn inexact_dane_reduces_the_objective() {
        let train = dataset(1);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let run = rank0(&cluster, &shards, |comm, shard| {
            InexactDane::new(quick_config()).run_distributed(comm, shard, None)
        });
        let first = run.history.records[0].objective;
        let last = run.history.final_objective().unwrap();
        assert!(last < first, "DANE should reduce the objective: {first} -> {last}");
    }

    #[test]
    fn aide_also_reduces_the_objective() {
        let train = dataset(2);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let aide = AideConfig {
            dane: quick_config(),
            tau: 0.5,
            zeta: 0.5,
        };
        let run = rank0(&cluster, &shards, |comm, shard| {
            InexactDane::new(quick_config()).run_distributed_aide(comm, shard, None, &aide)
        });
        assert_eq!(run.history.solver, "aide");
        let first = run.history.records[0].objective;
        assert!(run.history.final_objective().unwrap() < first);
    }

    #[test]
    fn dane_is_much_slower_per_epoch_than_a_single_newton_like_pass() {
        // The paper's Figure 1 point: DANE's SVRG subproblems make its epoch
        // time far larger. We check the simulated per-epoch compute time is
        // at least an order of magnitude above a single gradient evaluation.
        let train = dataset(3);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let run = rank0(&cluster, &shards, |comm, shard| {
            InexactDane::new(quick_config()).run_distributed(comm, shard, None)
        });
        let per_epoch = run.history.avg_epoch_time();
        // One plain gradient evaluation on the shard:
        let single_grad_time = {
            let local = local_objective(&shards[0], 1e-3, 2);
            DeviceSpec::tesla_p100().kernel_time(local.cost_value_grad().flops, local.cost_value_grad().bytes)
        };
        assert!(
            per_epoch > 10.0 * single_grad_time,
            "DANE epoch time {per_epoch} should dwarf a single gradient evaluation {single_grad_time}"
        );
    }

    #[test]
    fn diverging_svrg_steps_fall_back_gracefully() {
        let train = dataset(4);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let cfg = DaneConfig {
            svrg_step: 1e6,
            max_iters: 2,
            svrg_iters: 20,
            ..quick_config()
        };
        let run = rank0(&cluster, &shards, |comm, shard| {
            InexactDane::new(cfg).run_distributed(comm, shard, None)
        });
        assert!(run.history.final_objective().unwrap().is_finite());
        assert!(run.w.iter().all(|v| v.is_finite()));
    }
}
