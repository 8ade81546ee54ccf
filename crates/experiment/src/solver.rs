//! The object-safe [`Solver`] trait unifying Newton-ADMM and the baselines.
//!
//! Every distributed solver of the workspace runs behind this one interface:
//! `run` executes the solver inside one rank of a communicator (every rank
//! calls it with its own shard, exactly like the underlying
//! `run_distributed` methods) and returns a structured [`RunReport`]. The
//! experiment layer owns the rank spawning ([`crate::run_solver_on`]).

use crate::report::{RankSkew, RunReport};
use nadmm_baselines::{AideConfig, Disco, Giant, InexactDane, SyncSgd};
use nadmm_cluster::{Cluster, CommStats, Communicator};
use nadmm_data::Dataset;
use nadmm_solver::ConfigError;
use newton_admm::NewtonAdmm;

/// A distributed solver that can run inside one rank of a communicator.
///
/// The trait is object-safe and `Send + Sync`, so `Box<dyn Solver>` values
/// can be handed to every rank thread of a simulated cluster.
pub trait Solver: Send + Sync {
    /// Stable solver name, matching the `solver` field of its run histories
    /// (e.g. `"newton-admm"`, `"giant"`).
    fn name(&self) -> &str;

    /// Validates the solver's configuration without running anything.
    fn validate(&self) -> Result<(), ConfigError>;

    /// Runs the solver inside one rank. Every rank of the communicator must
    /// call this with its own `shard`; `test` is optional instrumentation
    /// (per-iteration test accuracy, evaluated at the root).
    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport;
}

/// Runs a solver on every rank of a cluster (one shard per rank) and returns
/// the master rank's report, annotated with the fleet's per-rank skew
/// summary.
///
/// # Panics
/// Panics if the shard count does not match the cluster size.
pub fn run_solver_on(cluster: &Cluster, solver: &dyn Solver, shards: &[Dataset], test: Option<&Dataset>) -> RunReport {
    run_ranks(cluster, shards, test, |_| solver)
}

/// Runs one solver *instance per rank* — a heterogeneous fleet where each
/// rank's solver carries its own `DeviceSpec` — and returns the master's
/// skew-annotated report. All instances must implement the same algorithm;
/// only hardware models may differ.
///
/// # Panics
/// Panics if the solver or shard counts do not match the cluster size.
pub fn run_rank_solvers_on(
    cluster: &Cluster,
    solvers: &[Box<dyn Solver>],
    shards: &[Dataset],
    test: Option<&Dataset>,
) -> RunReport {
    assert_eq!(solvers.len(), cluster.size(), "need exactly one solver instance per rank");
    run_ranks(cluster, shards, test, |rank| solvers[rank].as_ref())
}

/// The one copy of the spawn/hand-off/collect scaffolding: runs
/// `solver_for(rank)` on every rank with its shard, keeps the master rank's
/// report, and folds every rank's communication counters into its
/// [`RankSkew`] summary.
fn run_ranks<'a>(
    cluster: &Cluster,
    shards: &[Dataset],
    test: Option<&Dataset>,
    solver_for: impl (Fn(usize) -> &'a dyn Solver) + Sync,
) -> RunReport {
    let outputs = cluster.run_sharded(shards, |comm, shard| {
        nadmm_trace::install(comm.rank());
        let report = solver_for(comm.rank()).run(comm, shard, test);
        (report, nadmm_trace::uninstall())
    });
    let (mut reports, traces): (Vec<_>, Vec<_>) = outputs.into_iter().unzip();
    let stats: Vec<CommStats> = reports.iter().map(|r| r.comm_stats).collect();
    let mut master = reports.swap_remove(0);
    master.rank_skew = Some(RankSkew::from_rank_stats(&stats));
    attach_trace(&mut master, solver_for(0).name(), traces);
    master
}

/// When tracing is enabled, folds the per-rank recorder outputs into the
/// master report's flat profile and deposits the raw spans in the process
/// sink (one lane per solver run) for the Chrome export. A no-op — and the
/// report stays byte-identical — when tracing is off: `traces` is then all
/// `None` because `nadmm_trace::install` never armed a recorder.
fn attach_trace(master: &mut RunReport, label: &str, traces: Vec<Option<nadmm_trace::RankTrace>>) {
    let ranks: Vec<nadmm_trace::RankTrace> = traces.into_iter().flatten().collect();
    if ranks.is_empty() {
        return;
    }
    master.trace_profile = Some(nadmm_trace::profile_from_ranks(&ranks));
    nadmm_trace::sink_deposit(label, ranks);
}

impl Solver for NewtonAdmm {
    fn name(&self) -> &str {
        "newton-admm"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config().validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = self.run_distributed(comm, shard, test);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.z, Some(out.final_rho))
    }
}

impl Solver for Giant {
    fn name(&self) -> &str {
        "giant"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config().validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = self.run_distributed(comm, shard, test);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.w, None)
    }
}

impl Solver for InexactDane {
    fn name(&self) -> &str {
        "inexact-dane"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config().validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = self.run_distributed(comm, shard, test);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.w, None)
    }
}

impl Solver for Disco {
    fn name(&self) -> &str {
        "disco"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config().validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = self.run_distributed(comm, shard, test);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.w, None)
    }
}

impl Solver for SyncSgd {
    fn name(&self) -> &str {
        "sync-sgd"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config().validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = self.run_distributed(comm, shard, test);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.w, None)
    }
}

/// AIDE as a standalone solver: InexactDANE (the inner configuration lives
/// in [`AideConfig::dane`]) wrapped in catalyst acceleration.
#[derive(Debug, Clone, Default)]
pub struct Aide {
    config: AideConfig,
}

impl Aide {
    /// Creates the solver from the full AIDE configuration.
    pub fn new(config: AideConfig) -> Self {
        Self { config }
    }

    /// The solver configuration.
    pub fn config(&self) -> &AideConfig {
        &self.config
    }
}

impl Solver for Aide {
    fn name(&self) -> &str {
        "aide"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config.validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = InexactDane::new(self.config.dane).run_distributed_aide(comm, shard, test, &self.config);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.w, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_cluster::NetworkModel;
    use nadmm_data::{partition_strong, SyntheticConfig};
    use newton_admm::NewtonAdmmConfig;

    #[test]
    fn a_boxed_solver_runs_through_the_shared_scaffolding() {
        let (train, test) = SyntheticConfig::mnist_like()
            .with_train_size(60)
            .with_test_size(20)
            .with_num_features(6)
            .with_num_classes(3)
            .generate(5);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let solver: Box<dyn Solver> = Box::new(NewtonAdmm::new(
            NewtonAdmmConfig::default().with_max_iters(3).with_lambda(1e-3),
        ));
        assert_eq!(solver.name(), "newton-admm");
        solver.validate().unwrap();
        let report = run_solver_on(&cluster, solver.as_ref(), &shards, Some(&test));
        assert_eq!(report.solver, "newton-admm");
        assert_eq!(report.num_workers, 2);
        assert_eq!(report.history.len(), 4);
        assert!(report.final_objective.unwrap().is_finite());
        assert!(report.final_accuracy.is_some());
        assert!(report.final_rho.is_some());
        assert!(report.comm_stats.collectives > 0);
        report.validate_schema().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected_before_running() {
        let bad = NewtonAdmm::new(NewtonAdmmConfig {
            rho0: -1.0,
            ..Default::default()
        });
        let err = Solver::validate(&bad).unwrap_err();
        assert_eq!(err.field, "rho0");
    }
}
