//! # newton-admm
//!
//! The paper's primary contribution: a distributed second-order solver for
//! convex finite-sum multiclass classification problems built from three
//! pieces:
//!
//! 1. **Consensus ADMM** (paper Eq. 5–7): the dataset is sharded across `N`
//!    workers, each holding a local iterate `x_i` and scaled dual `y_i`;
//!    a single gather + scatter per outer iteration maintains the global
//!    consensus variable `z`.
//! 2. **Inexact Newton-CG subproblem solves** (paper Algorithm 1): each
//!    worker minimises its ADMM-augmented local objective
//!    `f_i(x) + ρ_i/2‖z − x + y_i/ρ_i‖²` with a few Newton steps whose
//!    directions come from early-stopped CG and whose step sizes come from a
//!    local Armijo backtracking line search.
//! 3. **Spectral penalty selection** (paper §2.2, following Xu et al.'s
//!    adaptive consensus ADMM): each worker adapts its own ρ_i from
//!    Barzilai–Borwein curvature estimates of the local subproblem, with the
//!    safeguarded correlation tests of the ACADMM paper. Residual balancing
//!    and a fixed penalty are provided for ablations.
//!
//! The solver runs in two modes:
//! * [`NewtonAdmm::run_distributed`] — inside a rank of a simulated cluster
//!   (`nadmm-cluster`), which is how every figure of the paper is reproduced;
//!   the experiment layer (`nadmm-experiment`) spawns the ranks;
//! * [`NewtonAdmm::run_reference`] — a sequential single-process reference
//!   implementation used by the tests to validate the distributed execution.

pub mod config;
pub mod driver;
pub mod penalty;

pub use config::{DropoutSpec, NewtonAdmmConfig};
pub use driver::{AdmmWorker, InstrumentationHandles, NewtonAdmm, NewtonAdmmOutput};
pub use penalty::{PenaltyRule, SpectralConfig, SpectralState};

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_data::{partition_strong, SyntheticConfig};

    #[test]
    fn end_to_end_smoke_test() {
        let (train, _) = SyntheticConfig::mnist_like()
            .with_train_size(80)
            .with_test_size(20)
            .with_num_features(8)
            .with_num_classes(4)
            .generate(1);
        let (shards, _) = partition_strong(&train, 2);
        let cfg = NewtonAdmmConfig {
            max_iters: 5,
            lambda: 1e-3,
            ..Default::default()
        };
        let out = NewtonAdmm::new(cfg).run_reference(&shards, None);
        assert!(out.history.final_objective().unwrap() < out.history.records[0].objective);
    }
}
