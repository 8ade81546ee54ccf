//! Host benchmark of the Newton-ADMM workspace.
//!
//! ```text
//! nadmm-perfbench --workload <admm_dense|admm_sparse|sgd_dense|serve>
//!                 --seed <n> --seconds <s> --trace <0|1>
//!                 [--scratch <dir>] [--rev <source revision>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with no tracing; with
//! `--trace 1` it runs the traced drivers and layer probes and prints the
//! per-layer metrics. Either way it checks the program's outputs and prints,
//! last, one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/NOTES.md` for what each metric means.

#[global_allocator]
static ALLOC: nadmm_bench::alloc_counter::CountingAllocator = nadmm_bench::alloc_counter::CountingAllocator;

mod probes;
mod report;
mod spans;
mod timed_comm;
mod timed_objective;
mod traced;
mod workloads;

use nadmm_data::{partition_strong, Dataset};
use nadmm_experiment::{Experiment, RunReport, Solver};
use probes::{Requests, ServeRound};
use report::{median, percentile, Report};
use spans::{Span, Spans};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traced::{TracedAdmm, TracedSgd};
use workloads::{BenchError, Trainer, Workload};

/// Rows per serving call.
const SERVE_BATCH: usize = 32;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, BenchError> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = PathBuf::from("perfbench-scratch");
    let mut rev = String::from("unknown");
    let usage = |msg: String| BenchError::Usage(msg);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| usage(format!("--seed '{value}' is not a whole number")))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| usage(format!("--seconds '{value}' is not a number")))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(usage(format!("--seconds must be positive, got {value}")));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage(format!("--trace must be 0 or 1, got '{value}'"))),
                })
            }
            "--scratch" => scratch = PathBuf::from(value),
            "--rev" => rev = value,
            other => return Err(usage(format!("unknown flag {other}"))),
        }
    }
    let missing = |name: &str| usage(format!("missing {name}"));
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scratch,
        rev,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), BenchError> {
    let args = parse_args()?;
    let w = Workload::by_name(&args.workload, args.seed)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    w.check_fits(nproc)?;
    rayon::set_num_threads(w.pool_width);
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| BenchError::Usage(format!("cannot create scratch directory {}: {e}", args.scratch.display())))?;
    println!(
        "provenance: {{\"rev\": \"{}\", \"nproc\": {nproc}, \"pool_width\": {}, \"ranks\": {}, \"seed\": {}, \
         \"profile\": \"{}\", \"workload\": \"{}\", \"trace\": {}, \"seconds\": {}}}",
        args.rev,
        w.pool_width,
        w.ranks,
        args.seed,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        w.name,
        args.trace as u8,
        args.seconds
    );
    let mut report = Report::default();
    if args.trace {
        per_layer(&w, &args, &mut report);
    } else {
        end_to_end(&w, &args, &mut report);
    }
    let _ = std::fs::remove_dir_all(&args.scratch);
    report.print();
    Ok(())
}

/// The data a workload trains on, generated and partitioned `times` times.
struct Setup {
    train: Dataset,
    test: Dataset,
    shards: Vec<Dataset>,
    generate_s: Vec<f64>,
    partition_s: Vec<f64>,
}

fn generate(w: &Workload, seed: u64, times: usize) -> Setup {
    let mut generate_s = Vec::new();
    let mut partition_s = Vec::new();
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        let (train, test) = w.data.generate(seed);
        generate_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (shards, _) = partition_strong(&train, w.ranks);
        partition_s.push(t.elapsed().as_secs_f64());
        last = Some((train, test, shards));
    }
    let (train, test, shards) = last.expect("at least one set-up");
    Setup {
        train,
        test,
        shards,
        generate_s,
        partition_s,
    }
}

fn experiment(w: &Workload, train: &Dataset, test: &Dataset) -> Experiment {
    Experiment::new()
        .with_data(train.clone(), Some(test.clone()))
        .with_cluster(w.cluster())
        .with_solver(w.solver_spec())
}

/// One `Experiment::run`: the master report and the run's wall seconds.
fn train(exp: &Experiment) -> (RunReport, f64) {
    let t = Instant::now();
    let mut reports = exp.run().expect("the workload's experiment is valid");
    let wall = t.elapsed().as_secs_f64();
    (reports.remove(0), wall)
}

/// Checks a training run ended finite and reached the target; returns the
/// first record index at or below the target.
fn check_training(report: &mut Report, w: &Workload, r: &RunReport) -> Option<usize> {
    let finite = r.history.records.iter().all(|rec| rec.objective.is_finite()) && r.final_w.iter().all(|v| v.is_finite());
    let reached = r.history.records.iter().position(|rec| rec.objective <= w.target);
    report.check(finite && reached.is_some(), || {
        let objectives: Vec<String> = r.history.records.iter().map(|rec| format!("{:.4}", rec.objective)).collect();
        format!(
            "{} training run: finite={finite}, target {} reached={:?}, objectives [{}]",
            w.name,
            w.target,
            reached,
            objectives.join(", ")
        )
    });
    reached
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Calls per serving round: enough for a p99 with ten calls beyond it.
const ROUND_CALLS: usize = 1000;

/// Share of a training workload's timed window spent serving the model it
/// trains: enough rounds for a steady median p99 even where a call takes a
/// millisecond.
const SERVE_SHARE: f64 = 0.4;

/// Per-round serving figures; the reported metrics are their medians, so
/// one round disturbed by the machine moves none of them.
#[derive(Default)]
struct Served {
    rows_per_s: Vec<f64>,
    p50_s: Vec<f64>,
    p99_s: Vec<f64>,
    calls: usize,
}

/// Counts every call of a serving round as one checked operation: its
/// predictions must equal the training-time ones.
fn check_round(report: &mut Report, round: &ServeRound) {
    report.tally(round.latencies_s.len() as u64, round.mismatched_calls, || {
        "served predictions differ from SoftmaxCrossEntropy::predict on the same rows".into()
    });
}

/// Serves `requests` in closed-loop rounds of [`ROUND_CALLS`] calls, a fresh
/// session each, until at least one round is done and `deadline` has
/// passed.
fn serve_rounds(
    report: &mut Report,
    served: &mut Served,
    artifact: &nadmm_serve::ModelArtifact,
    requests: &Requests,
    deadline: Instant,
) {
    let first_round = served.p50_s.len();
    while served.p50_s.len() == first_round || Instant::now() < deadline {
        let round = probes::serve_round(artifact, requests, SERVE_BATCH, ROUND_CALLS);
        check_round(report, &round);
        let busy: f64 = round.latencies_s.iter().sum();
        served.rows_per_s.push(round.rows as f64 / busy);
        served.p50_s.push(percentile(&round.latencies_s, 50.0));
        served.p99_s.push(percentile(&round.latencies_s, 99.0));
        served.calls += round.latencies_s.len();
    }
}

fn serve_metrics(report: &mut Report, served: &Served) {
    let n = served.calls;
    report.metric("serve_rows_per_s", median(&served.rows_per_s), "rows/s", n);
    report.metric("serve_p50_us", median(&served.p50_s) * 1e6, "us", n);
    report.metric("serve_p99_us", median(&served.p99_s) * 1e6, "us", n);
}

/// The training runs of one benchmark run: per-run epoch times and the
/// first run, which every later run must reproduce bit for bit.
#[derive(Default)]
struct Runs {
    epoch_s: Vec<f64>,
    first: Option<(RunReport, Option<usize>)>,
}

impl Runs {
    fn note(&mut self, report: &mut Report, w: &Workload, r: RunReport, wall: f64) {
        let reached = check_training(report, w, &r);
        self.epoch_s.push(wall / w.outer_iterations() as f64);
        match &self.first {
            None => self.first = Some((r, reached)),
            Some((f, f_reached)) => {
                let same = same_bits(&f.final_w, &r.final_w) && *f_reached == reached && f.final_accuracy == r.final_accuracy;
                report.check(same, || {
                    format!("{}: repeated training runs differ in their final iterate", w.name)
                });
            }
        }
    }

    fn first_report(&self) -> &RunReport {
        &self.first.as_ref().expect("at least one training run").0
    }
}

fn end_to_end(w: &Workload, args: &Args, report: &mut Report) {
    let mut setup_s = Vec::new();
    let mut runs = Runs::default();
    let mut served = Served::default();
    if w.serve {
        // Set-up trains the served model and ships it through an artifact;
        // the timed window serves it.
        let mut artifact = None;
        let mut last = None;
        for _ in 0..5 {
            drop(last.take());
            let t = Instant::now();
            let s = generate(w, args.seed, 1);
            let exp = experiment(w, &s.train, &s.test);
            let (r, wall) = train(&exp);
            let shipped = probes::artifact(&s.train, &r.final_w, &r.solver);
            let (loaded, _, _) = probes::save_load(&shipped, &args.scratch).expect("artifact save/load in the scratch directory");
            setup_s.push(t.elapsed().as_secs_f64());
            report.check(same_bits(&loaded.weights, &r.final_w), || {
                "the reloaded artifact's weights differ from final_w".into()
            });
            runs.note(report, w, r, wall);
            artifact = Some(loaded);
            last = Some(s);
        }
        let data = last.expect("five set-ups");
        let artifact = artifact.expect("five set-ups");
        let requests = Requests::new(&data.test, &runs.first_report().final_w, SERVE_BATCH);
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        serve_rounds(report, &mut served, &artifact, &requests, deadline);
    } else {
        // The timed window alternates training runs with serving phases of
        // the model they train ([`SERVE_SHARE`] of the window), so both kinds
        // of figure sample the whole window.
        let s = generate(w, args.seed, 3);
        setup_s = s.generate_s.iter().zip(&s.partition_s).map(|(g, p)| g + p).collect();
        let exp = experiment(w, &s.train, &s.test);
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let mut shipped = None;
        while runs.epoch_s.len() < 2 || Instant::now() < deadline {
            let (r, wall) = train(&exp);
            runs.note(report, w, r, wall);
            let f = runs.first_report();
            let (artifact, requests) = shipped.get_or_insert_with(|| {
                (
                    probes::artifact(&s.train, &f.final_w, &f.solver),
                    Requests::new(&s.test, &f.final_w, SERVE_BATCH),
                )
            });
            let serve_until = Instant::now() + Duration::from_secs_f64(wall * SERVE_SHARE / (1.0 - SERVE_SHARE));
            serve_rounds(report, &mut served, artifact, requests, serve_until);
        }
    }
    let epoch_s = runs.epoch_s;
    let (f, reached) = runs.first.expect("at least one training run");
    let epoch = median(&epoch_s);
    report.metric("setup_s", median(&setup_s), "s", setup_s.len());
    report.metric("epoch_s", epoch, "s", epoch_s.len());
    let iters_to_target = reached.map_or(f64::NAN, |k| k as f64);
    report.metric("iters_to_target", iters_to_target, "count", epoch_s.len());
    report.metric_noted(
        "time_to_target_s",
        iters_to_target * epoch,
        "s",
        epoch_s.len(),
        "derived: iters_to_target x epoch_s",
    );
    report.metric("test_accuracy", f.final_accuracy.unwrap_or(f64::NAN), "fraction", 1);
    serve_metrics(report, &served);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

/// Sum of the wall seconds of `spans`.
fn wall_sum<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans.map(Span::wall_s).sum()
}

fn is_instrumentation(s: &Span) -> bool {
    s.name == "core.start_instrumentation" || s.name == "core.finish_instrumentation"
}

/// Simulated ÷ wall seconds over a set of spans.
fn model_vs_wall<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    let (sim, wall) = spans.fold((0.0, 0.0), |(s, w), sp| (s + sp.sim_s, w + sp.wall_s()));
    sim / wall
}

fn per_layer(w: &Workload, args: &Args, report: &mut Report) {
    let s = generate(w, args.seed, 2);
    report.metric("data.generate_s", median(&s.generate_s), "s", s.generate_s.len());
    report.metric("data.partition_s", median(&s.partition_s), "s", s.partition_s.len());

    // The untraced run the traced one must reproduce.
    let exp = experiment(w, &s.train, &s.test);
    let (plain, plain_wall) = train(&exp);
    let reached = check_training(report, w, &plain);
    let iters = w.outer_iterations() as f64;
    // Shown, not used: record k is stamped only after iteration k+1's local
    // solve, so these stamps run one solve late (see NOTES.md).
    let stamps: Vec<String> = plain
        .history
        .records
        .iter()
        .map(|r| format!("{:.3}", r.wall_time_sec))
        .collect();
    println!("record wall stamps (s): [{}]", stamps.join(", "));

    // The traced runs: the workload's own trainer for the full budget, the
    // other one briefly, so every layer is measured on every workload.
    let admm = TracedAdmm::new(w.admm);
    let sgd = TracedSgd { config: w.sgd };
    let cluster = w.cluster();
    let (main_solver, side_solver): (&dyn Solver, &dyn Solver) = match w.trainer {
        Trainer::NewtonAdmm => (&admm, &sgd),
        Trainer::SyncSgd => (&sgd, &admm),
    };
    let (traced, main_spans) = traced::run_traced(main_solver, &cluster, &s.train, &s.test);
    let same = same_bits(&traced.final_w, &plain.final_w)
        && traced.history.records.len() == plain.history.records.len()
        && traced
            .history
            .records
            .iter()
            .zip(&plain.history.records)
            .all(|(a, b)| a.objective.to_bits() == b.objective.to_bits());
    report.check(same, || {
        format!("{}: the traced run's final iterate differs from the untraced one", w.name)
    });
    // A second untraced run after the traced one, so the overhead compares
    // the traced run with untraced runs on either side of it (the first run
    // of a process is the slowest).
    let (again, again_wall) = train(&exp);
    report.check(same_bits(&again.final_w, &plain.final_w), || {
        format!("{}: repeated training runs differ in their final iterate", w.name)
    });
    let (_, side_spans) = traced::run_traced(side_solver, &cluster, &s.train, &s.test);
    let (admm_spans, sgd_spans) = match w.trainer {
        Trainer::NewtonAdmm => (&main_spans, &side_spans),
        Trainer::SyncSgd => (&side_spans, &main_spans),
    };
    let m = Spans(&main_spans);
    let a = Spans(admm_spans);
    let ranks = w.ranks as f64;

    // core
    let local: Vec<f64> = a.named("core.local_solve").map(Span::wall_s).collect();
    report.metric("core.local_solve_ms", median(&local) * 1e3, "ms", local.len());
    let consensus: Vec<f64> = a.named("core.consensus_update").map(Span::wall_s).collect();
    report.metric("core.consensus_ms", median(&consensus) * 1e3, "ms", consensus.len());
    let consensus_self = a.self_walls("core.consensus_update");
    report.metric(
        "core.consensus_self_ms",
        median(&consensus_self) * 1e3,
        "ms",
        consensus_self.len(),
    );
    let instrumentation: Vec<&Span> = a.0.iter().filter(|s| is_instrumentation(s)).collect();
    let records = (w.admm.max_iters + 1) as f64;
    report.metric(
        "core.instrumentation_ms",
        wall_sum(instrumentation.iter().copied()) / (ranks * records) * 1e3,
        "ms",
        instrumentation.len(),
    );
    let per_rank_local: Vec<f64> = (0..w.ranks as u32).map(|r| a.wall_on("core.local_solve", r)).collect();
    let imbalance =
        per_rank_local.iter().copied().fold(f64::MIN, f64::max) / per_rank_local.iter().copied().fold(f64::MAX, f64::min);
    report.metric("core.rank_imbalance", imbalance, "ratio", w.ranks);
    let allocs = admm.allocs.lock().expect("allocs poisoned").clone();
    let (n_allocs, n_iters) = allocs.iter().fold((0, 0), |(a, i), r| (a + r.allocations, i + r.iterations));
    report.metric(
        "core.allocs_per_iter",
        n_allocs as f64 / n_iters as f64,
        "count",
        n_iters as usize,
    );
    let admm_run = wall_sum(a.named("experiment.run"));
    let core_rank0 =
        wall_sum(a.0.iter().filter(|s| {
            s.rank == 0 && (s.name == "core.local_solve" || s.name == "core.consensus_update" || is_instrumentation(s))
        }));
    let coverage = core_rank0 / admm_run;
    report.metric("trace.core_coverage", coverage, "fraction", 1);
    if w.trainer == Trainer::NewtonAdmm && !w.serve {
        report.check(coverage >= 0.9, || {
            format!("{}: core spans cover only {coverage:.3} of the traced run", w.name)
        });
    }

    // device: the cost model next to the machine.
    report.metric("device.sim_epoch_s", plain.total_sim_time_sec / iters, "s", 1);
    let sim_to_target = reached.map_or(f64::NAN, |k| plain.history.records[k].sim_time_sec);
    report.metric("device.sim_time_to_target_s", sim_to_target, "s", 1);
    report.metric(
        "device.model_vs_wall.local_solve",
        model_vs_wall(a.named("core.local_solve")),
        "ratio",
        local.len(),
    );
    report.metric(
        "device.model_vs_wall.consensus",
        model_vs_wall(a.named("core.consensus_update")),
        "ratio",
        consensus.len(),
    );
    report.metric(
        "device.model_vs_wall.instrumentation",
        model_vs_wall(instrumentation.iter().copied()),
        "ratio",
        instrumentation.len(),
    );

    // cluster, from the workload's own trainer.
    let collectives: Vec<&Span> = m.named_prefix("cluster.").collect();
    let rank0_calls = collectives.iter().filter(|s| s.rank == 0).count();
    report.metric("cluster.calls_per_epoch", rank0_calls as f64 / iters, "count", rank0_calls);
    let bytes: u64 = collectives.iter().map(|s| s.bytes).sum();
    report.metric("cluster.bytes_per_epoch", bytes as f64 / iters, "bytes", collectives.len());
    let collective_wall = wall_sum(collectives.iter().copied());
    report.metric(
        "cluster.wall_ms_per_epoch",
        collective_wall / ranks / iters * 1e3,
        "ms",
        collectives.len(),
    );
    let rank_solve = wall_sum(m.named("experiment.rank_solve"));
    report.metric("cluster.wait_share", collective_wall / rank_solve, "fraction", w.ranks);
    let dim = s.train.weight_dim();
    let payload = match w.trainer {
        Trainer::NewtonAdmm => dim + 1,
        Trainer::SyncSgd => dim,
    };
    let (bare, bare_n) = probes::bare_allreduce(w.ranks, payload, 300);
    report.metric("cluster.bare_allreduce_us", bare * 1e6, "us", bare_n);

    // baselines
    let sgd_self = Spans(sgd_spans).self_walls("baselines.sgd_solve");
    report.metric(
        "baselines.sgd_self_ms_per_epoch",
        sgd_self.iter().sum::<f64>() / sgd_self.len() as f64 / sgd.config.epochs as f64 * 1e3,
        "ms",
        sgd_self.len(),
    );

    // experiment and trace overhead
    let run_wall = wall_sum(m.named("experiment.run"));
    let slowest = (0..w.ranks as u32)
        .map(|r| m.wall_on("experiment.rank_solve", r))
        .fold(0.0, f64::max);
    report.metric("experiment.overhead_ms", (run_wall - slowest) * 1e3, "ms", 1);
    report.metric(
        "trace.overhead",
        run_wall / (0.5 * (plain_wall + again_wall)) - 1.0,
        "ratio",
        3,
    );

    // objective and solver: iteration 1's local solve on shard 0, which must
    // land on the traced driver's iterate bit for bit.
    let newton = probes::newton(&s.shards[0], &w.admm, 3);
    let driver_x = admm.first_local_x.lock().expect("first_local_x poisoned").clone();
    report.check(same_bits(&newton.first_x, &driver_x), || {
        format!("{}: the Newton-step probe's iterate differs from the driver's", w.name)
    });
    report.metric(
        "objective.value_grad_ms",
        median(&newton.value_grad_s) * 1e3,
        "ms",
        newton.value_grad_s.len(),
    );
    report.metric("objective.hvp_ms", median(&newton.hvp_s) * 1e3, "ms", newton.hvp_s.len());
    report.metric(
        "objective.value_ms",
        median(&newton.value_s) * 1e3,
        "ms",
        newton.value_s.len(),
    );
    report.metric(
        "objective.hvp_calls_per_step",
        newton.hvp_calls_per_step,
        "count",
        newton.step_s.len(),
    );
    report.metric(
        "objective.value_calls_per_step",
        newton.value_calls_per_step,
        "count",
        newton.step_s.len(),
    );
    let (mini, mini_n) = probes::minibatch_grad(&s.shards[0], w.sgd.batch_size, 300, args.seed);
    report.metric("objective.minibatch_grad_us", mini * 1e6, "us", mini_n);
    report.metric(
        "solver.newton_step_ms",
        median(&newton.step_s) * 1e3,
        "ms",
        newton.step_s.len(),
    );
    report.metric(
        "solver.self_ms",
        median(&newton.solver_self_s) * 1e3,
        "ms",
        newton.solver_self_s.len(),
    );
    report.metric(
        "solver.cg_iters_per_step",
        newton.cg_iters_per_step,
        "count",
        newton.step_s.len(),
    );

    // linalg at the shard's shape
    let l = probes::linalg(&s.shards[0], w.pool_width, args.seed);
    report.metric("linalg.gemm_nt_us", l.dense.nt_s * 1e6, "us", l.dense.samples);
    report.metric("linalg.gemm_tn_us", l.dense.tn_s * 1e6, "us", l.dense.samples);
    report.metric("linalg.gflop_s", l.dense.gflop_s, "GFLOP/s", l.dense.samples);
    report.metric(
        "linalg.gemm_nt_us_pool2",
        l.dense_pool2.nt_s * 1e6,
        "us",
        l.dense_pool2.samples,
    );
    report.metric(
        "linalg.gemm_tn_us_pool2",
        l.dense_pool2.tn_s * 1e6,
        "us",
        l.dense_pool2.samples,
    );
    report.metric(
        "linalg.gflop_s_pool2",
        l.dense_pool2.gflop_s,
        "GFLOP/s",
        l.dense_pool2.samples,
    );
    report.metric("linalg.csr_gemm_nt_us", l.csr.nt_s * 1e6, "us", l.csr.samples);
    report.metric("linalg.csr_gemm_tn_us", l.csr.tn_s * 1e6, "us", l.csr.samples);
    report.metric("linalg.gemm_nt_b32_us", l.b32_nt_s * 1e6, "us", l.b32_samples);

    // serve: the model this run trained.
    serve_layer(w, args, report, &s, &plain);
}

fn serve_layer(w: &Workload, args: &Args, report: &mut Report, s: &Setup, trained: &RunReport) {
    let artifact = probes::artifact(&s.train, &trained.final_w, &trained.solver);
    let (mut save_s, mut load_s) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (loaded, save, load) =
            probes::save_load(&artifact, &args.scratch).expect("artifact save/load in the scratch directory");
        report.check(loaded.weights == artifact.weights, || {
            format!("{}: artifact round trip changed the weights", w.name)
        });
        save_s.push(save);
        load_s.push(load);
    }
    report.metric("serve.artifact_save_ms", median(&save_s) * 1e3, "ms", save_s.len());
    report.metric("serve.artifact_load_ms", median(&load_s) * 1e3, "ms", load_s.len());

    let b1 = Requests::new(&s.test, &trained.final_w, 1);
    let b32 = Requests::new(&s.test, &trained.final_w, SERVE_BATCH);
    let one = probes::serve_round(&artifact, &b1, 1, 2000);
    let batched = probes::serve_round(&artifact, &b32, SERVE_BATCH, ROUND_CALLS);
    let again = probes::serve_round(&artifact, &b32, SERVE_BATCH, ROUND_CALLS);
    for round in [&one, &batched, &again] {
        check_round(report, round);
    }
    let b1_us = median(&one.latencies_s) * 1e6;
    let b32_us = median(&batched.latencies_s) * 1e6;
    report.metric("serve.predict_b1_us", b1_us, "us", one.latencies_s.len());
    report.metric("serve.predict_b32_us", b32_us, "us", batched.latencies_s.len());
    report.metric("serve.batch_gain", b1_us / (b32_us / SERVE_BATCH as f64), "ratio", 2);
    report.metric(
        "serve.warm_allocs",
        (one.allocations + batched.allocations) as f64,
        "count",
        one.latencies_s.len() + batched.latencies_s.len(),
    );
    let p99 = percentile(&batched.sim_s, 99.0);
    let p99_again = percentile(&again.sim_s, 99.0);
    report.check(p99.to_bits() == p99_again.to_bits(), || {
        format!(
            "{}: modeled p99 differs between two fresh sessions ({p99:e} vs {p99_again:e})",
            w.name
        )
    });
    report.metric("serve.sim_p99_us", p99 * 1e6, "us", batched.sim_s.len());
}
