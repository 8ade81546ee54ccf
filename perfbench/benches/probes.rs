//! Layer probes: single layers timed in isolation on the workload's own
//! shapes, each through the layer's public functions.

use crate::report::median;
use crate::spans::{self, Spans};
use crate::timed_objective::TimedObjective;
use nadmm_cluster::{Communicator, NetworkModel};
use nadmm_data::Dataset;
use nadmm_device::{Device, DeviceSpec, Workspace};
use nadmm_linalg::{gen, CsrMatrix, DenseMatrix, Matrix};
use nadmm_objective::{Objective, ProximalAugmented, SoftmaxCrossEntropy};
use nadmm_serve::{ArtifactError, InferenceSession, ModelArtifact, Provenance};
use nadmm_solver::NewtonCg;
use newton_admm::NewtonAdmmConfig;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median wall seconds of `reps` calls of `f` after one untimed warm-up call.
fn time_median(reps: usize, mut f: impl FnMut()) -> (f64, usize) {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    (median(&samples), samples.len())
}

/// Dense GEMM timings at one shape.
pub struct GemmTimes {
    pub nt_s: f64,
    pub tn_s: f64,
    pub gflop_s: f64,
    pub samples: usize,
}

/// `X·Wᵀ` (margins) and `Mᵀ·X` (gradient accumulation) on `x`, the two
/// kernels every objective evaluation runs, with `k` = classes − 1.
fn gemm_pair(x: &Matrix, k: usize, reps: usize, seed: u64) -> GemmTimes {
    let mut rng = gen::seeded_rng(seed);
    let w = DenseMatrix::from_vec(k, x.cols(), gen::gaussian_vector(k * x.cols(), &mut rng));
    let m = DenseMatrix::from_vec(x.rows(), k, gen::gaussian_vector(x.rows() * k, &mut rng));
    let mut margins = DenseMatrix::zeros(x.rows(), k);
    let mut grad = DenseMatrix::zeros(k, x.cols());
    let (nt_s, samples) = time_median(reps, || {
        x.gemm_nt_into(black_box(&w), &mut margins).expect("gemm_nt shapes");
        black_box(&margins);
    });
    let (tn_s, _) = time_median(reps, || {
        grad.as_mut_slice().fill(0.0);
        x.gemm_tn_from_dense_into(black_box(&m), &mut grad).expect("gemm_tn shapes");
        black_box(&grad);
    });
    let flops = 2.0 * 2.0 * x.stored_entries() as f64 * k as f64;
    GemmTimes {
        nt_s,
        tn_s,
        gflop_s: flops / (nt_s + tn_s) / 1e9,
        samples,
    }
}

pub struct LinalgProbe {
    pub dense: GemmTimes,
    pub dense_pool2: GemmTimes,
    pub csr: GemmTimes,
    pub b32_nt_s: f64,
    pub b32_samples: usize,
}

/// Times the linalg kernels at the shard's shape: dense (the shard densified
/// when it is stored sparse) at pool width 1 and 2, CSR (the shard
/// converted when it is stored dense), and a 32-row batch.
pub fn linalg(shard: &Dataset, pool_width: usize, seed: u64) -> LinalgProbe {
    let k = shard.num_classes() - 1;
    let (dense_x, csr_x) = match shard.features() {
        Matrix::Dense(d) => (d.clone(), CsrMatrix::from_dense(d)),
        Matrix::Sparse(s) => (s.to_dense(), s.clone()),
    };
    let dense_x = Matrix::Dense(dense_x);
    let dense = gemm_pair(&dense_x, k, 7, seed);
    rayon::set_num_threads(2);
    let dense_pool2 = gemm_pair(&dense_x, k, 7, seed);
    rayon::set_num_threads(pool_width);
    let csr = gemm_pair(&Matrix::Sparse(csr_x), k, 7, seed);
    let b32 = match &dense_x {
        Matrix::Dense(d) => Matrix::Dense(d.slice_rows(0, 32)),
        Matrix::Sparse(_) => unreachable!("densified above"),
    };
    let mut rng = gen::seeded_rng(seed);
    let w = DenseMatrix::from_vec(k, b32.cols(), gen::gaussian_vector(k * b32.cols(), &mut rng));
    let mut out = DenseMatrix::zeros(32, k);
    let (b32_nt_s, b32_samples) = time_median(2000, || {
        b32.gemm_nt_into(black_box(&w), &mut out).expect("gemm_nt shapes");
        black_box(&out);
    });
    LinalgProbe {
        dense,
        dense_pool2,
        csr,
        b32_nt_s,
        b32_samples,
    }
}

pub struct NewtonProbe {
    pub step_s: Vec<f64>,
    pub solver_self_s: Vec<f64>,
    pub value_grad_s: Vec<f64>,
    pub hvp_s: Vec<f64>,
    pub value_s: Vec<f64>,
    pub hvp_calls_per_step: f64,
    pub value_calls_per_step: f64,
    pub cg_iters_per_step: f64,
    /// The iterate after the first repetition's steps.
    pub first_x: Vec<f64>,
}

/// Iteration 1's local solve on `shard` (x = z = y = 0, ρ = ρ₀), repeated:
/// `NewtonCg::step_ws` on the ADMM-augmented objective, wrapped in a
/// [`TimedObjective`]. The first repetition fills the workspace pool and is
/// left out of the timings.
pub fn newton(shard: &Dataset, cfg: &NewtonAdmmConfig, reps: usize) -> NewtonProbe {
    let local = SoftmaxCrossEntropy::new(shard, 0.0).with_device(Device::new(cfg.device));
    let dim = local.dim();
    let aug = ProximalAugmented::new(local, vec![0.0; dim], vec![0.0; dim], cfg.rho0);
    let timed = TimedObjective::new(&aug);
    let newton = NewtonCg::new(cfg.newton_config());
    let mut ws = Workspace::new();
    let mut first_x = Vec::new();
    let mut cg_iters = 0usize;
    let mut steps = 0usize;
    spans::take_all();
    spans::install(crate::traced::HOST_LANE);
    for rep in 0..=reps {
        let mut x = vec![0.0; dim];
        for _ in 0..cfg.newton_steps_per_iter {
            if rep == 0 {
                newton.step_ws(&aug, &mut x, &mut ws);
            } else {
                let stats = spans::span("solver.newton_step", || newton.step_ws(&timed, &mut x, &mut ws));
                cg_iters += stats.cg_iterations;
                steps += 1;
            }
        }
        if rep == 0 {
            first_x = x;
        }
    }
    spans::flush();
    let all = spans::take_all();
    let s = Spans(&all);
    let walls = |name: &str| -> Vec<f64> { s.named(name).map(spans::Span::wall_s).collect() };
    let step_s = walls("solver.newton_step");
    let solver_self_s = s.self_walls("solver.newton_step");
    let value_s = walls("objective.value_ws");
    let hvp_s = walls("objective.hvp_prepared_into");
    NewtonProbe {
        step_s,
        solver_self_s,
        value_grad_s: walls("objective.value_and_gradient_into"),
        hvp_calls_per_step: hvp_s.len() as f64 / steps as f64,
        value_calls_per_step: value_s.len() as f64 / steps as f64,
        hvp_s,
        value_s,
        cg_iters_per_step: cg_iters as f64 / steps as f64,
        first_x,
    }
}

/// One SGD minibatch gradient (128 rows of the shard), as
/// `SyncSgd::run_distributed` computes it, through a [`TimedObjective`].
pub fn minibatch_grad(shard: &Dataset, batch: usize, reps: usize, seed: u64) -> (f64, usize) {
    let mut rng = gen::seeded_rng(seed);
    let idx = gen::sample_without_replacement(shard.num_samples(), batch, &mut rng);
    let mini = shard.select(&idx);
    let obj = SoftmaxCrossEntropy::new(&mini, 0.0).with_device(Device::new(DeviceSpec::tesla_p100()));
    let timed = TimedObjective::new(&obj);
    let w = vec![0.01; obj.dim()];
    let mut g = vec![0.0; obj.dim()];
    let mut ws = Workspace::new();
    time_median(reps, || timed.gradient_into(&w, &mut g, &mut ws))
}

/// A bare in-place allreduce of `len` values on a `ranks`-rank cluster, no
/// compute between calls: median wall seconds per call on rank 0.
pub fn bare_allreduce(ranks: usize, len: usize, reps: usize) -> (f64, usize) {
    let cluster = nadmm_experiment::ClusterSpec::new(ranks, NetworkModel::infiniband_100g()).build();
    let per_rank = cluster.run(|comm| {
        let mut buf = vec![1.0; len];
        comm.allreduce_sum_into(&mut buf);
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                comm.allreduce_sum_into(&mut buf);
                t.elapsed().as_secs_f64()
            })
            .collect::<Vec<f64>>()
    });
    (median(&per_rank[0]), reps)
}

/// The artifact a trained consensus iterate ships as.
pub fn artifact(train: &Dataset, w: &[f64], solver: &str) -> ModelArtifact {
    ModelArtifact::new(
        train.num_features(),
        train.num_classes(),
        (0..train.num_classes()).map(|c| format!("class-{c}")).collect(),
        w.to_vec(),
        Provenance {
            solver: solver.to_string(),
            dataset: train.name().to_string(),
            ..Provenance::default()
        },
    )
    .expect("a trained iterate has the artifact's dimensions")
}

/// Saves `artifact` under `dir` and loads it back, returning the loaded
/// copy and the two wall times.
pub fn save_load(artifact: &ModelArtifact, dir: &Path) -> Result<(ModelArtifact, f64, f64), ArtifactError> {
    let path = dir.join("model.nadmm");
    let t = Instant::now();
    artifact.save(&path)?;
    let save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded = ModelArtifact::load(&path)?;
    let load_s = t.elapsed().as_secs_f64();
    Ok((loaded, save_s, load_s))
}

/// Request rows generated ahead of time, with the training-time predictions
/// every response must match.
pub struct Requests {
    /// Row-major dense rows, a whole number of batches.
    pub rows: Vec<f64>,
    pub expected: Vec<usize>,
    pub features: usize,
}

impl Requests {
    pub fn new(test: &Dataset, w: &[f64], batch: usize) -> Self {
        let dense = match test.features() {
            Matrix::Dense(d) => d.clone(),
            Matrix::Sparse(s) => s.to_dense(),
        };
        let n = dense.rows() / batch * batch;
        let dense = dense.slice_rows(0, n);
        let reference = SoftmaxCrossEntropy::new(test, 0.0);
        let expected = reference.predict(&Matrix::Dense(dense.clone()), w);
        Self {
            features: dense.cols(),
            rows: dense.into_vec(),
            expected,
        }
    }
}

/// One closed-loop serving round on a fresh session.
#[derive(Default)]
pub struct ServeRound {
    pub latencies_s: Vec<f64>,
    pub sim_s: Vec<f64>,
    pub rows: usize,
    /// Calls whose predictions differed from the training-time ones.
    pub mismatched_calls: u64,
    pub allocations: u64,
}

/// Serves `calls` batches of `batch` request rows, back to back from one
/// client, on a session built fresh for this round. A fresh session matters: a session's
/// simulated clock never resets, and the modeled latency of a call is a
/// difference of two readings of it, so a reused session's modeled
/// latencies drift in their last bits.
pub fn serve_round(artifact: &ModelArtifact, requests: &Requests, batch: usize, calls: usize) -> ServeRound {
    let mut session = InferenceSession::new(artifact, DeviceSpec::tesla_p100()).expect("artifact matches its weights");
    session.warm(batch);
    let batches = requests.expected.len() / batch;
    let mut out = vec![0usize; batch];
    let mut round = ServeRound {
        latencies_s: Vec::with_capacity(calls),
        sim_s: Vec::with_capacity(calls),
        ..ServeRound::default()
    };
    let row_len = batch * requests.features;
    for call in 0..calls {
        let b = call % batches;
        let rows = &requests.rows[b * row_len..(b + 1) * row_len];
        let allocs = nadmm_bench::alloc_counter::thread_allocations();
        let t = Instant::now();
        let timing = session.predict_batch_into(rows, &mut out);
        let dt = t.elapsed().as_secs_f64();
        round.allocations += nadmm_bench::alloc_counter::thread_allocations() - allocs;
        round.latencies_s.push(dt);
        round.sim_s.push(timing.sim_seconds);
        round.rows += batch;
        if out[..] != requests.expected[b * batch..(b + 1) * batch] {
            round.mismatched_calls += 1;
        }
    }
    round
}
