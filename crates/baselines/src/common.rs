//! Helpers shared by every distributed baseline.

use nadmm_cluster::{CommStats, Communicator};
use nadmm_data::Dataset;
use nadmm_device::{Device, Workspace, WorkspaceStats};
use nadmm_linalg::vector;
use nadmm_metrics::{IterationRecord, RunHistory};
use nadmm_objective::{Objective, SoftmaxCrossEntropy};
use std::time::Instant;

/// Output common to every distributed baseline run.
#[derive(Debug, Clone)]
pub struct DistributedRun {
    /// Final global iterate.
    pub w: Vec<f64>,
    /// Per-iteration history.
    pub history: RunHistory,
    /// Communication counters of the rank that produced this output.
    pub comm_stats: CommStats,
    /// Device-workspace pool counters of the rank that produced this output.
    pub workspace: WorkspaceStats,
}

/// Builds the local objective for a shard in the *sum* formulation: the shard
/// loss plus `λ/N` of the regulariser, so that values and gradients summed
/// over workers equal the global `F(w) = Σ loss_i + λ‖w‖²/2`.
pub fn local_objective(shard: &Dataset, lambda: f64, num_workers: usize) -> SoftmaxCrossEntropy {
    SoftmaxCrossEntropy::new(shard, lambda / num_workers.max(1) as f64)
}

/// [`local_objective`] bound to an execution engine, so every kernel the
/// objective launches charges that device's simulated clock.
pub fn local_objective_on(shard: &Dataset, lambda: f64, num_workers: usize, device: &Device) -> SoftmaxCrossEntropy {
    local_objective(shard, lambda, num_workers).with_device(device.clone())
}

/// Bridges a rank's [`Device`] clock into its communicator clock.
///
/// The device accumulates simulated seconds as the objectives launch kernels;
/// [`EngineSync::sync`] advances the communicator by the time accrued since
/// the previous sync (so compute is charged from *actual* kernel launches,
/// not hand-written estimates), while [`EngineSync::skip`] discards accrued
/// time — used after instrumentation-only evaluations, which the experiment
/// protocol does not bill.
#[derive(Debug, Default)]
pub struct EngineSync {
    last: f64,
}

impl EngineSync {
    /// Starts tracking from the device's current clock.
    pub fn new(device: &Device) -> Self {
        Self { last: device.elapsed() }
    }

    /// Advances `comm`'s simulated clock by the device time accrued since the
    /// last sync/skip.
    pub fn sync(&mut self, comm: &mut dyn Communicator, device: &Device) {
        let now = device.elapsed();
        if now > self.last {
            comm.advance_compute(now - self.last);
        }
        self.last = now;
    }

    /// Discards device time accrued since the last sync/skip (instrumentation
    /// is not billed as solver compute).
    pub fn skip(&mut self, device: &Device) {
        self.last = device.elapsed();
    }
}

/// Records one iteration of a distributed run: global objective (scalar
/// allreduce of the local values), optional test accuracy evaluated at the
/// root, simulated time and communication volume. The evaluation is
/// instrumentation: device time it accrues is discarded via `engine`.
#[allow(clippy::too_many_arguments)]
pub fn record_iteration(
    comm: &mut dyn Communicator,
    local: &SoftmaxCrossEntropy,
    engine: &mut EngineSync,
    test: Option<&Dataset>,
    w: &[f64],
    iteration: usize,
    wall_start: Instant,
    history: &mut RunHistory,
) {
    let local_value = local.value(w);
    if let Some(device) = local.device() {
        engine.skip(device);
    }
    let objective = comm.allreduce_scalar_sum(local_value);
    let mut record = IterationRecord::new(iteration, comm.elapsed(), wall_start.elapsed().as_secs_f64(), objective)
        .with_comm_bytes(comm.stats().bytes_sent);
    if let Some(test_set) = test {
        let acc = if comm.is_root() { local.accuracy(test_set, w) } else { 0.0 };
        record = record.with_accuracy(comm.allreduce_scalar_max(acc));
    }
    history.push(record);
}

/// Global gradient via an *in-place* allreduce of local gradients: the local
/// gradient is evaluated into `out` and summed across ranks in place — no
/// heap allocation once the caller's buffers are warm. The local evaluation
/// launches through the objective's device; `engine` bills the accrued
/// simulated time to this rank.
pub fn global_gradient_into(
    comm: &mut dyn Communicator,
    local: &SoftmaxCrossEntropy,
    engine: &mut EngineSync,
    ws: &mut Workspace,
    w: &[f64],
    out: &mut [f64],
) {
    local.gradient_into(w, out, ws);
    if let Some(device) = local.device() {
        engine.sync(comm, device);
    }
    comm.allreduce_sum_into(out);
}

/// Allocating convenience wrapper around [`global_gradient_into`].
pub fn global_gradient(
    comm: &mut dyn Communicator,
    local: &SoftmaxCrossEntropy,
    engine: &mut EngineSync,
    ws: &mut Workspace,
    w: &[f64],
) -> Vec<f64> {
    let mut g = vec![0.0; local.dim()];
    global_gradient_into(comm, local, engine, ws, w, &mut g);
    g
}

/// Global objective value via a scalar allreduce (used inside distributed
/// line searches), billing the local evaluation through `engine`.
pub fn global_value(
    comm: &mut dyn Communicator,
    local: &SoftmaxCrossEntropy,
    engine: &mut EngineSync,
    ws: &mut Workspace,
    w: &[f64],
) -> f64 {
    let v = local.value_ws(w, ws);
    if let Some(device) = local.device() {
        engine.sync(comm, device);
    }
    comm.allreduce_scalar_sum(v)
}

/// `‖a − b‖₂ / max(‖b‖₂, 1)` — relative distance used by the agreement tests.
pub fn relative_distance(a: &[f64], b: &[f64]) -> f64 {
    vector::distance(a, b) / vector::norm2(b).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_cluster::{Cluster, NetworkModel};
    use nadmm_data::{partition_strong, SyntheticConfig};
    use nadmm_device::DeviceSpec;

    fn dataset() -> Dataset {
        SyntheticConfig::mnist_like()
            .with_train_size(60)
            .with_test_size(10)
            .with_num_features(5)
            .with_num_classes(3)
            .generate(3)
            .0
    }

    #[test]
    fn local_objectives_sum_to_the_global_objective() {
        let data = dataset();
        let lambda = 0.1;
        let global = SoftmaxCrossEntropy::new(&data, lambda);
        let (shards, _) = partition_strong(&data, 3);
        let locals: Vec<_> = shards.iter().map(|s| local_objective(s, lambda, 3)).collect();
        let mut rng = nadmm_linalg::gen::seeded_rng(1);
        let w = nadmm_linalg::gen::gaussian_vector_with(global.dim(), 0.0, 0.2, &mut rng);
        let sum_vals: f64 = locals.iter().map(|l| l.value(&w)).sum();
        assert!((sum_vals - global.value(&w)).abs() < 1e-8 * (1.0 + global.value(&w).abs()));
        let mut sum_grad = vec![0.0; global.dim()];
        for l in &locals {
            vector::add_assign(&mut sum_grad, &l.gradient(&w));
        }
        let g = global.gradient(&w);
        for (a, b) in sum_grad.iter().zip(&g) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn global_gradient_and_value_match_direct_computation() {
        let data = dataset();
        let lambda = 0.01;
        let global = SoftmaxCrossEntropy::new(&data, lambda);
        let (shards, _) = partition_strong(&data, 2);
        let w = vec![0.05; global.dim()];
        let expected_val = global.value(&w);
        let expected_grad = global.gradient(&w);
        let results = Cluster::new(2, NetworkModel::ideal()).run(|comm| {
            let device = Device::new(DeviceSpec::tesla_p100());
            let local = local_objective_on(&shards[comm.rank()], lambda, 2, &device);
            let mut engine = EngineSync::new(&device);
            let mut ws = Workspace::new();
            let g = global_gradient(comm, &local, &mut engine, &mut ws, &w);
            let v = global_value(comm, &local, &mut engine, &mut ws, &w);
            (g, v, comm.elapsed())
        });
        for (g, v, elapsed) in results {
            assert!((v - expected_val).abs() < 1e-8 * (1.0 + expected_val.abs()));
            for (a, b) in g.iter().zip(&expected_grad) {
                assert!((a - b).abs() < 1e-8);
            }
            assert!(elapsed > 0.0, "compute time must be charged");
        }
    }

    #[test]
    fn record_iteration_captures_objective_and_accuracy() {
        let data = dataset();
        let (test, _) = SyntheticConfig::mnist_like()
            .with_train_size(20)
            .with_test_size(5)
            .with_num_features(5)
            .with_num_classes(3)
            .generate(4);
        let (shards, _) = partition_strong(&data, 2);
        let w = vec![0.0; 2 * 5];
        let histories = Cluster::new(2, NetworkModel::ideal()).run(|comm| {
            let device = Device::default();
            let local = local_objective_on(&shards[comm.rank()], 0.1, 2, &device);
            let mut engine = EngineSync::new(&device);
            let mut h = RunHistory::new("test", "d", 2);
            record_iteration(comm, &local, &mut engine, Some(&test), &w, 0, Instant::now(), &mut h);
            h
        });
        for h in histories {
            assert_eq!(h.len(), 1);
            assert!(h.records[0].objective > 0.0);
            assert!(h.records[0].test_accuracy.is_some());
        }
    }

    #[test]
    fn relative_distance_basics() {
        assert_eq!(relative_distance(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!(relative_distance(&[1.0, 0.0], &[0.0, 0.0]) > 0.0);
    }
}
