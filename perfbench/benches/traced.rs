//! Traced runs: the same solver programs as an untraced `Experiment::run`,
//! driven from outside so every layer boundary shows up as a span.
//!
//! * [`TracedAdmm`] calls the public [`AdmmWorker`] steps in exactly the
//!   order `NewtonAdmm::run_distributed` does, wrapping each in a `core.*`
//!   span and the communicator in a [`TimedComm`].
//! * [`TracedSgd`] runs `SyncSgd::run_distributed` over a [`TimedComm`].
//!
//! Both plug into the experiment layer's `run_solver_on` as ordinary
//! [`Solver`]s, so rank spawning and report assembly are the program's own.

use crate::spans;
use crate::timed_comm::TimedComm;
use nadmm_baselines::{SyncSgd, SyncSgdConfig};
use nadmm_cluster::Communicator;
use nadmm_data::Dataset;
use nadmm_experiment::{run_solver_on, ClusterSpec, PartitionSpec, RunReport, Solver};
use nadmm_metrics::RunHistory;
use nadmm_solver::ConfigError;
use newton_admm::{AdmmWorker, InstrumentationHandles, NewtonAdmmConfig};
use std::sync::Mutex;
use std::time::Instant;

/// Lane of the spans recorded on the benchmark's own thread (ranks use
/// `0..ranks`).
pub const HOST_LANE: usize = 1000;

/// Warm-iteration allocation counts of one rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankAllocs {
    pub allocations: u64,
    pub iterations: u64,
}

/// Newton-ADMM driven step by step from outside.
pub struct TracedAdmm {
    pub config: NewtonAdmmConfig,
    /// Per-rank allocation counts over the warm iterations (2 and later).
    pub allocs: Mutex<Vec<RankAllocs>>,
    /// Rank 0's local iterate right after iteration 1's local solve.
    pub first_local_x: Mutex<Vec<f64>>,
}

impl TracedAdmm {
    pub fn new(config: NewtonAdmmConfig) -> Self {
        Self {
            config,
            allocs: Mutex::new(Vec::new()),
            first_local_x: Mutex::new(Vec::new()),
        }
    }

    fn local_solve(worker: &mut AdmmWorker, comm: &mut dyn Communicator) {
        let sim0 = comm.elapsed();
        let open = spans::begin("core.local_solve");
        worker.local_solve(comm);
        spans::end(open, comm.elapsed() - sim0, 0);
    }

    fn consensus_update(worker: &mut AdmmWorker, comm: &mut dyn Communicator, k: usize) {
        let sim0 = comm.elapsed();
        let open = spans::begin("core.consensus_update");
        worker.consensus_update(comm, k);
        spans::end(open, comm.elapsed() - sim0, 0);
    }

    fn start_instrumentation(
        worker: &mut AdmmWorker,
        comm: &mut dyn Communicator,
        test: Option<&Dataset>,
    ) -> InstrumentationHandles {
        let sim0 = comm.elapsed();
        let open = spans::begin("core.start_instrumentation");
        let handles = worker.start_instrumentation(comm, test);
        spans::end(open, comm.elapsed() - sim0, 0);
        handles
    }

    fn finish_instrumentation(
        worker: &mut AdmmWorker,
        comm: &mut dyn Communicator,
        handles: InstrumentationHandles,
        iteration: usize,
        wall_start: Instant,
        history: &mut RunHistory,
    ) {
        let sim0 = comm.elapsed();
        let open = spans::begin("core.finish_instrumentation");
        let record = worker.finish_instrumentation(comm, handles, iteration, wall_start);
        spans::end(open, comm.elapsed() - sim0, 0);
        history.push(record);
    }

    /// `NewtonAdmm::run_distributed`, step for step.
    fn run_rank(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let cfg = &self.config;
        assert!(
            cfg.dropout.is_none() && cfg.staleness_deadline_sec.is_none(),
            "the traced driver covers the synchronous, fault-free path only"
        );
        let mut worker = spans::span("core.worker_new", || AdmmWorker::new(cfg, shard));
        let wall_start = Instant::now();
        let mut history = RunHistory::new("newton-admm", shard.name(), comm.size());
        history.records.reserve(cfg.max_iters + 1);

        let h0 = Self::start_instrumentation(&mut worker, comm, test);
        Self::finish_instrumentation(&mut worker, comm, h0, 0, wall_start, &mut history);

        let mut warm = RankAllocs::default();
        let mut pending: Option<(usize, InstrumentationHandles)> = None;
        for k in 1..=cfg.max_iters {
            let allocs_before = nadmm_bench::alloc_counter::thread_allocations();
            let iteration = spans::begin("core.iteration");
            Self::local_solve(&mut worker, comm);
            if k == 1 && comm.rank() == 0 {
                *self.first_local_x.lock().expect("first_local_x poisoned") = worker.x().to_vec();
            }
            if let Some((kp, h)) = pending.take() {
                Self::finish_instrumentation(&mut worker, comm, h, kp, wall_start, &mut history);
            }
            Self::consensus_update(&mut worker, comm, k);
            let handles = Self::start_instrumentation(&mut worker, comm, test);
            let mut stop = false;
            if cfg.consensus_tol > 0.0 {
                Self::finish_instrumentation(&mut worker, comm, handles, k, wall_start, &mut history);
                let residual = history
                    .records
                    .last()
                    .and_then(|r| r.consensus_residual)
                    .unwrap_or(f64::INFINITY);
                stop = residual < cfg.consensus_tol;
            } else {
                pending = Some((k, handles));
            }
            spans::end(iteration, 0.0, 0);
            if k >= 2 {
                warm.allocations += nadmm_bench::alloc_counter::thread_allocations() - allocs_before;
                warm.iterations += 1;
            }
            if stop {
                break;
            }
        }
        if let Some((kp, h)) = pending.take() {
            Self::finish_instrumentation(&mut worker, comm, h, kp, wall_start, &mut history);
        }
        self.allocs.lock().expect("allocs poisoned").push(warm);
        let stats = comm.stats();
        RunReport::from_parts(
            history,
            stats,
            worker.workspace_stats(),
            worker.z().to_vec(),
            Some(worker.rho()),
        )
    }
}

impl Solver for TracedAdmm {
    fn name(&self) -> &str {
        "newton-admm"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config.validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        spans::install(comm.rank());
        let open = spans::begin("experiment.rank_solve");
        let report = self.run_rank(&mut TimedComm::new(comm), shard, test);
        spans::end(open, 0.0, 0);
        spans::flush();
        report
    }
}

/// Synchronous SGD over a timed communicator.
pub struct TracedSgd {
    pub config: SyncSgdConfig,
}

impl Solver for TracedSgd {
    fn name(&self) -> &str {
        "sync-sgd"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config.validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        spans::install(comm.rank());
        let open = spans::begin("experiment.rank_solve");
        let out = spans::span("baselines.sgd_solve", || {
            SyncSgd::new(self.config).run_distributed(&mut TimedComm::new(comm), shard, test)
        });
        spans::end(open, 0.0, 0);
        spans::flush();
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.w, None)
    }
}

/// What `Experiment::run` does with in-memory data — partition, build the
/// cluster, run the solver on every rank — with the whole run and the
/// partition as spans on the host lane. Returns the master report and every
/// span recorded.
pub fn run_traced(solver: &dyn Solver, cluster: &ClusterSpec, train: &Dataset, test: &Dataset) -> (RunReport, Vec<spans::Span>) {
    spans::take_all();
    spans::install(HOST_LANE);
    let open = spans::begin("experiment.run");
    let (shards, _) = spans::span("data.partition", || {
        PartitionSpec::Strong
            .apply(train, cluster.ranks)
            .expect("strong partition of the training set")
    });
    let report = run_solver_on(&cluster.build(), solver, &shards, Some(test));
    spans::end(open, 0.0, 0);
    spans::flush();
    (report, spans::take_all())
}
