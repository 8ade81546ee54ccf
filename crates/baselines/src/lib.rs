//! # nadmm-baselines
//!
//! The distributed solvers the paper compares Newton-ADMM against, all built
//! on the same substrates (`nadmm-cluster` for communication and timing,
//! `nadmm-objective` for the softmax loss):
//!
//! * [`giant`] — GIANT (Wang et al.): globally improved approximate Newton;
//!   three communication rounds per iteration (gradient allreduce, direction
//!   allreduce, distributed line search over a fixed step-size set).
//! * [`dane`] — InexactDANE (Reddi et al.) with an SVRG subproblem solver,
//!   and AIDE, its catalyst-accelerated variant.
//! * [`disco`] — DiSCO (Zhang & Lin): distributed inexact damped Newton whose
//!   every CG iteration is a communication round.
//! * [`sgd`] — distributed synchronous minibatch SGD (the paper's Figure 4
//!   first-order comparator), one allreduce per minibatch.
//! * [`newton_exact`] — single-node Newton-CG run to high precision; used to
//!   obtain the reference optimum `x*` for the relative-objective metric θ
//!   (paper Figure 3).
//!
//! All solvers use the *sum* form of the objective
//! `F(w) = Σ_i loss_i(w) + λ‖w‖²/2`, sharding the regulariser as `λ/N` per
//! worker so that local values/gradients sum exactly to the global ones.

pub mod common;
pub mod dane;
pub mod disco;
pub mod giant;
pub mod newton_exact;
pub mod sgd;

pub use common::DistributedRun;
pub use dane::{AideConfig, DaneConfig, InexactDane};
pub use disco::{Disco, DiscoConfig};
pub use giant::{Giant, GiantConfig};
pub use newton_exact::{reference_optimum, ReferenceOptimum};
pub use sgd::{SyncSgd, SyncSgdConfig};

/// Runs `solve` on every rank of `cluster`, one shard per rank, and returns
/// rank 0's output.
#[cfg(test)]
fn rank0<T: Send>(
    cluster: &nadmm_cluster::Cluster,
    shards: &[nadmm_data::Dataset],
    solve: impl Fn(&mut dyn nadmm_cluster::Communicator, &nadmm_data::Dataset) -> T + Sync,
) -> T {
    cluster.run_sharded(shards, |comm, shard| solve(comm, shard)).swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_cluster::{Cluster, NetworkModel};
    use nadmm_data::{partition_strong, SyntheticConfig};

    #[test]
    fn giant_smoke_test() {
        let (train, _) = SyntheticConfig::mnist_like()
            .with_train_size(60)
            .with_test_size(10)
            .with_num_features(6)
            .with_num_classes(3)
            .generate(1);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let cfg = GiantConfig {
            max_iters: 3,
            lambda: 1e-3,
            ..Default::default()
        };
        let run = rank0(&cluster, &shards, |comm, shard| {
            Giant::new(cfg).run_distributed(comm, shard, None)
        });
        assert!(run.history.final_objective().unwrap() < run.history.records[0].objective);
    }
}
