//! Proof that the execution-engine hot paths are allocation-free once warm.
//!
//! Uses the counting global allocator to assert that, after warm-up
//! populates the workspace pools, (a) a full CG solve (including every
//! Hessian-vector product through the softmax objective and the Device
//! kernels), (b) a **full distributed ADMM outer iteration** — local
//! Newton solve, in-place reduce/broadcast consensus round, penalty
//! adaptation, and the split-phase instrumentation allreduce — and (c) a
//! **batched inference call** (`InferenceSession::predict_batch_into` and
//! its top-k variant, the serving engine's hot path) perform **zero** heap
//! allocations, and that the device and communication pools report zero
//! misses.

use nadmm_bench::alloc_counter::{count_allocations, CountingAllocator};
use nadmm_cluster::{Cluster, Communicator, NetworkModel};
use nadmm_data::{partition_strong, SyntheticConfig};
use nadmm_device::DeviceSpec;
use nadmm_device::Workspace;
use nadmm_linalg::gen;
use nadmm_objective::{Objective, ProximalAugmented, SoftmaxCrossEntropy};
use nadmm_serve::{InferenceSession, ModelArtifact, Provenance};
use nadmm_solver::{conjugate_gradient_into, CgConfig, NewtonCg, NewtonConfig};
use newton_admm::{AdmmWorker, NewtonAdmmConfig};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs the tests of this binary one at a time. A test that changes the
/// process-wide pool width or parallel threshold must not do so while a
/// sibling test is counting allocations.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; its failure is already reported.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn problem() -> (SoftmaxCrossEntropy, Vec<f64>) {
    let (train, _) = SyntheticConfig::mnist_like()
        .with_train_size(96)
        .with_test_size(16)
        .with_num_features(24)
        .with_num_classes(4)
        .generate(7);
    let obj = SoftmaxCrossEntropy::new(&train, 1e-4);
    let mut rng = gen::seeded_rng(11);
    let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.1, &mut rng);
    (obj, x)
}

#[test]
fn warm_cg_solve_performs_zero_heap_allocations() {
    let _serial = serial();
    let (obj, x) = problem();
    let mut ws = Workspace::new();
    let mut grad = vec![0.0; obj.dim()];
    obj.gradient_into(&x, &mut grad, &mut ws);
    let neg_g: Vec<f64> = grad.iter().map(|v| -v).collect();
    let cfg = CgConfig {
        max_iters: 10,
        tolerance: 1e-12,
    };
    let mut solution = vec![0.0; obj.dim()];

    // Warm-up solve populates the pool (this one may allocate).
    let state = obj.prepare_hvp(&x, &mut ws);
    conjugate_gradient_into(
        |v, out, ws| obj.hvp_prepared_into(&state, v, out, ws),
        &neg_g,
        &mut solution,
        &cfg,
        &mut ws,
    );
    obj.release_hvp(state, &mut ws);

    // Steady state: prepare + full CG solve + release, zero allocations.
    ws.reset_stats();
    let (allocs, stats) = count_allocations(|| {
        let state = obj.prepare_hvp(&x, &mut ws);
        let stats = conjugate_gradient_into(
            |v, out, ws| obj.hvp_prepared_into(&state, v, out, ws),
            &neg_g,
            &mut solution,
            &cfg,
            &mut ws,
        );
        obj.release_hvp(state, &mut ws);
        stats
    });
    assert!(stats.iterations > 1, "CG must actually iterate (ran {})", stats.iterations);
    assert_eq!(allocs, 0, "warm CG solve made {allocs} heap allocations (expected zero)");
    let pool = ws.stats();
    assert_eq!(pool.pool_misses, 0, "warm CG solve missed the pool: {pool:?}");
    assert!(pool.pool_hits > 0, "the solve must actually draw from the pool");
}

#[test]
fn warm_newton_step_performs_zero_heap_allocations() {
    let _serial = serial();
    let (obj, x) = problem();
    let aug = ProximalAugmented::new(obj.clone(), x.clone(), vec![0.0; x.len()], 1.5);
    let solver = NewtonCg::new(NewtonConfig::default());
    let mut ws = Workspace::new();
    let mut iterate = x.clone();
    solver.step_ws(&aug, &mut iterate, &mut ws); // warm-up

    iterate.copy_from_slice(&x);
    ws.reset_stats();
    let (allocs, _) = count_allocations(|| solver.step_ws(&aug, &mut iterate, &mut ws));
    // One full Newton step = value+gradient, prepare_hvp (inline HvpState,
    // pooled buffers), 10 CG iterations (each an HVP through the Device
    // engine), and an Armijo line search — none of it may allocate.
    assert_eq!(allocs, 0, "warm Newton step made {allocs} heap allocations");
    assert_eq!(
        ws.stats().pool_misses,
        0,
        "warm Newton step missed the pool: {:?}",
        ws.stats()
    );
}

#[test]
fn warm_distributed_admm_outer_iteration_is_allocation_free() {
    let _serial = serial();
    // The ISSUE-2 acceptance criterion: a warm distributed Newton-ADMM outer
    // iteration — compute *and* collectives, instrumentation included —
    // allocates nothing on any rank. The allocation counters are per-thread,
    // so each rank proves its own hot path independently (including
    // whichever rank happens to finalize the rendezvous reductions).
    let workers = 4;
    let (train, _) = SyntheticConfig::mnist_like()
        .with_train_size(128)
        .with_test_size(16)
        .with_num_features(20)
        .with_num_classes(4)
        .generate(13);
    let (shards, _) = partition_strong(&train, workers);
    // Default config ⇒ spectral penalty: the measured iteration (k = 4,
    // update_every = 2) exercises the BB penalty estimator too.
    let cfg = NewtonAdmmConfig {
        lambda: 1e-3,
        ..Default::default()
    };
    let wall_start = Instant::now();
    let results = Cluster::new(workers, NetworkModel::infiniband_100g()).run(|comm| {
        let shard = &shards[comm.rank()];
        let mut worker = AdmmWorker::new(&cfg, shard);
        // Warm-up: three full iterations populate the device workspace, the
        // rendezvous staging buffers and the comm pool (k = 2 also fires the
        // spectral update so its path is warm).
        for k in 1..=3 {
            worker.outer_iteration(comm, k);
            let h = worker.start_instrumentation(comm, None);
            let _ = worker.finish_instrumentation(comm, h, k, wall_start);
        }
        worker.reset_workspace_stats();
        comm.reset_comm_pool_stats();
        let (allocs, record) = count_allocations(|| {
            worker.outer_iteration(comm, 4);
            let h = worker.start_instrumentation(comm, None);
            worker.finish_instrumentation(comm, h, 4, wall_start)
        });
        assert!(record.objective.is_finite());
        (comm.rank(), allocs, worker.workspace_stats(), comm.comm_pool_stats())
    });
    for (rank, allocs, device_pool, comm_pool) in results {
        assert_eq!(
            allocs, 0,
            "rank {rank}: warm distributed outer iteration made {allocs} heap allocations"
        );
        assert_eq!(
            device_pool.pool_misses, 0,
            "rank {rank}: device workspace missed the pool: {device_pool:?}"
        );
        assert!(device_pool.pool_hits > 0, "rank {rank}: the solve must draw from the pool");
        assert_eq!(
            comm_pool.pool_misses, 0,
            "rank {rank}: comm workspace missed the pool: {comm_pool:?}"
        );
        assert_eq!(comm_pool.outstanding, 0, "rank {rank}: leaked collective handles");
    }
}

#[test]
fn traced_warm_admm_outer_iteration_is_allocation_free() {
    let _serial = serial();
    // The ISSUE-10 acceptance criterion: arming the span tracer must not
    // break the zero-alloc contract. Same warm distributed outer iteration
    // as above, but with a per-rank recorder installed. The ring capacity is
    // deliberately tiny so warm-up wraps it and the measured iteration runs
    // entirely on the drop-oldest path — the steady state of a long run.
    //
    // `set_enabled` is process-global, but span calls on threads without a
    // recorder are no-ops, so concurrently running tests stay unaffected.
    let workers = 2;
    let (train, _) = SyntheticConfig::mnist_like()
        .with_train_size(96)
        .with_test_size(16)
        .with_num_features(16)
        .with_num_classes(4)
        .generate(17);
    let (shards, _) = partition_strong(&train, workers);
    let cfg = NewtonAdmmConfig {
        lambda: 1e-3,
        ..Default::default()
    };
    nadmm_trace::set_enabled(true);
    let results = Cluster::new(workers, NetworkModel::infiniband_100g()).run(|comm| {
        nadmm_trace::install_with_capacity(comm.rank(), 256);
        let shard = &shards[comm.rank()];
        let mut worker = AdmmWorker::new(&cfg, shard);
        for k in 1..=3 {
            worker.outer_iteration(comm, k);
        }
        let (allocs, _) = count_allocations(|| {
            worker.outer_iteration(comm, 4);
            worker.rho()
        });
        let trace = nadmm_trace::uninstall().expect("each rank installed a recorder");
        (comm.rank(), allocs, trace)
    });
    nadmm_trace::set_enabled(false);
    for (rank, allocs, trace) in results {
        assert_eq!(
            allocs, 0,
            "rank {rank}: traced warm outer iteration made {allocs} heap allocations"
        );
        assert!(
            trace.dropped > 0,
            "rank {rank}: the tiny ring must wrap during warm-up (got {} events, 0 dropped)",
            trace.events.len()
        );
        assert!(!trace.events.is_empty(), "rank {rank}: the ring kept no events");
    }
}

#[test]
fn warm_batched_predict_performs_zero_heap_allocations() {
    let _serial = serial();
    // The ISSUE-5 acceptance criterion: the serving engine's hot path — a
    // warm `predict_batch_into` call (batched GEMM margins + argmax decode)
    // and the top-k/softmax variant — makes zero heap allocations once the
    // session's pool has seen the batch size.
    let (features, classes, batch) = (24usize, 10usize, 32usize);
    let artifact = ModelArtifact::new(
        features,
        classes,
        (0..classes).map(|c| format!("class-{c}")).collect(),
        (0..(classes - 1) * features).map(|i| ((i as f64) * 0.37).sin()).collect(),
        Provenance::default(),
    )
    .unwrap();
    let mut session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
    let rows: Vec<f64> = (0..batch * features).map(|i| ((i as f64) * 0.13).cos()).collect();
    let mut preds = vec![0usize; batch];
    let k = 3usize;
    let mut topk_classes = vec![0usize; batch * k];
    let mut topk_probs = vec![0.0f64; batch * k];

    // Warm-up: one call of each shape populates the pool.
    session.predict_batch_into(&rows, &mut preds);
    session.predict_topk_into(&rows, k, &mut topk_classes, &mut topk_probs);
    session.reset_workspace_stats();

    let (argmax_allocs, timing) = count_allocations(|| session.predict_batch_into(&rows, &mut preds));
    assert_eq!(timing.batch, batch);
    assert!(timing.sim_seconds > 0.0, "the device model must bill the batch");
    assert_eq!(
        argmax_allocs, 0,
        "warm predict_batch_into made {argmax_allocs} heap allocations (expected zero)"
    );

    let (topk_allocs, _) = count_allocations(|| session.predict_topk_into(&rows, k, &mut topk_classes, &mut topk_probs));
    assert_eq!(
        topk_allocs, 0,
        "warm predict_topk_into made {topk_allocs} heap allocations (expected zero)"
    );

    let pool = session.workspace_stats();
    assert_eq!(pool.pool_misses, 0, "warm predict missed the pool: {pool:?}");
    assert!(pool.pool_hits > 0, "predict must actually draw from the pool");
    assert_eq!(pool.outstanding, 0, "every pooled buffer must be returned");
}

#[test]
fn workspace_pool_hits_after_warmup_in_minimize() {
    let _serial = serial();
    let (obj, x0) = problem();
    let solver = NewtonCg::new(NewtonConfig {
        max_iters: 3,
        ..Default::default()
    });
    let mut ws = Workspace::new();
    let first = solver.minimize_ws(&obj, &x0, &mut ws);
    ws.reset_stats();
    let second = solver.minimize_ws(&obj, &x0, &mut ws);
    assert_eq!(first.value, second.value, "repeated runs must be deterministic");
    assert_eq!(
        ws.stats().pool_misses,
        0,
        "second minimize run must be served entirely from the pool"
    );
}

#[test]
fn forced_thread_pool_dispatch_performs_zero_heap_allocations() {
    let _serial = serial();
    // The work-sharing pool's dispatch path must be allocation-free: the job
    // is published as a raw fat pointer in a pre-existing slot (no boxing),
    // chunk indices come from an atomic counter, and `det::fold` keeps its
    // partials in a stack-allocated slot array. Force every kernel through
    // the pool (`par_threshold = 0`) at an oversubscribed width and assert
    // the dispatcher thread allocates nothing. The allocation counter is
    // per-thread, but the dispatcher *participates* in chunk execution, so
    // this also proves the (shared) chunk closures of the BLAS-1/2/3 warm
    // paths allocate nothing.
    let mut rng = gen::seeded_rng(3);
    let a = nadmm_linalg::gen::gaussian_matrix(64, 48, &mut rng);
    let b = nadmm_linalg::gen::gaussian_matrix(32, 48, &mut rng);
    let x = gen::gaussian_vector(48, &mut rng);
    let mut y = vec![0.0; 64];
    let mut out = nadmm_linalg::DenseMatrix::zeros(64, 32);
    let mut z = gen::gaussian_vector(48, &mut rng);

    rayon::set_num_threads(4);
    nadmm_linalg::set_par_threshold(0);
    // Warm-up dispatch spawns the (lazily created) worker threads.
    let warm = nadmm_linalg::vector::dot(&x, &z);
    a.matvec_into(&x, &mut y).unwrap();
    a.gemm_nt_into(&b, &mut out).unwrap();

    let (allocs, checksum) = count_allocations(|| {
        let mut acc = 0.0;
        for _ in 0..8 {
            acc += nadmm_linalg::vector::dot(&x, &z);
            acc += nadmm_linalg::vector::norm_inf(&z);
            nadmm_linalg::vector::axpy(0.5, &x, &mut z);
            acc += nadmm_linalg::vector::axpy_dot(-0.25, &x, &mut z);
            a.matvec_into(&x, &mut y).unwrap();
            a.gemm_nt_into(&b, &mut out).unwrap();
            acc += y[0] + out.get(0, 0);
        }
        acc
    });
    nadmm_linalg::reset_par_threshold();
    rayon::reset_num_threads();
    assert!(checksum.is_finite() && warm.is_finite());
    assert_eq!(
        allocs, 0,
        "forced-pool warm kernels made {allocs} heap allocations on the dispatcher (expected zero)"
    );
}
