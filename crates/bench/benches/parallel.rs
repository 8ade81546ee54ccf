//! Execution-engine bench: pooled vs forced-sequential kernel throughput.
//!
//! Measures `gemm_nt` and `dot` with the work-sharing pool engaged
//! (`NADMM_PAR_THRESHOLD = 0`) and disabled (`= usize::MAX`), plus the raw
//! dispatch overhead of one pooled region and the measured
//! sequential→pooled crossover size for `dot`. Everything is merged into
//! the `parallel` section of `BENCH_kernels.json`, then gated: the dispatch
//! overhead must be a sane measurement, and on a run with ≥4 worker threads
//! the pooled kernels must clear 2× the forced-sequential throughput. Below
//! 4 threads the speedup gate is skipped with a printed reason (a small
//! runner cannot speed anything up, and faking the number would poison the
//! recorded trajectory).
//!
//! `NADMM_BENCH_SMOKE=1` shrinks the shapes for the CI smoke run.

use criterion::{criterion_group, criterion_main, Criterion};
use nadmm_bench::report::{criterion_entries, find_entry, merge_bench_json, report_path, BenchEntry};
use nadmm_linalg::{gen, DenseMatrix};
use std::hint::black_box;
use std::time::Instant;

fn smoke() -> bool {
    nadmm_bench::smoke_mode()
}

fn bench_parallel_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");

    let n = if smoke() { 1 << 17 } else { 1 << 20 };
    let mut rng = gen::seeded_rng(5);
    let x = gen::gaussian_vector(n, &mut rng);
    let y = gen::gaussian_vector(n, &mut rng);
    nadmm_linalg::set_par_threshold(0);
    black_box(nadmm_linalg::vector::dot(&x, &y)); // spawn the workers
    group.bench_function(format!("dot/pooled/{n}"), |b| {
        nadmm_linalg::set_par_threshold(0);
        b.iter(|| black_box(nadmm_linalg::vector::dot(&x, &y)));
    });
    group.bench_function(format!("dot/seq/{n}"), |b| {
        nadmm_linalg::set_par_threshold(usize::MAX);
        b.iter(|| black_box(nadmm_linalg::vector::dot(&x, &y)));
    });

    let (rows, cols, classes) = if smoke() { (256, 64, 10) } else { (1024, 128, 10) };
    let a = gen::gaussian_matrix(rows, cols, &mut rng);
    let w = gen::gaussian_matrix(classes - 1, cols, &mut rng);
    let mut out = DenseMatrix::zeros(rows, classes - 1);
    group.bench_function(format!("gemm_nt/pooled/{rows}"), |b| {
        nadmm_linalg::set_par_threshold(0);
        b.iter(|| {
            a.gemm_nt_into(&w, &mut out).unwrap();
            black_box(out.as_slice()[0])
        });
    });
    group.bench_function(format!("gemm_nt/seq/{rows}"), |b| {
        nadmm_linalg::set_par_threshold(usize::MAX);
        b.iter(|| {
            a.gemm_nt_into(&w, &mut out).unwrap();
            black_box(out.as_slice()[0])
        });
    });
    nadmm_linalg::reset_par_threshold();
    group.finish();
}

/// Median wall time per call of `f`, in nanoseconds.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Measures dispatch overhead and the dot crossover, merges every row into
/// the report, then gates the numbers. Runs last.
fn emit_report(_c: &mut Criterion) {
    let threads = rayon::current_num_threads();

    // Dispatch overhead: a pooled no-op region over the maximum chunk count
    // vs the same fold run inline. The difference is what one parallel
    // launch costs before any useful work happens — the quantity the
    // `NADMM_PAR_THRESHOLD` default has to amortise. Measured at a forced
    // width of 4 so the workers are genuinely engaged even on a small
    // runner (at width 1 the pool runs inline and the overhead is ~0 by
    // construction, which would under-tune the threshold).
    let reps = if smoke() { 200 } else { 2_000 };
    rayon::set_num_threads(4);
    nadmm_linalg::set_par_threshold(0);
    black_box(rayon::det::fold(64, 1, true, |s, _| s as f64, |a, b| a + b)); // spawn workers
    let pooled_ns = time_ns(reps, || {
        black_box(rayon::det::fold(64, 1, true, |s, _| s as f64, |a, b| a + b));
    });
    let inline_ns = time_ns(reps, || {
        black_box(rayon::det::fold(64, 1, false, |s, _| s as f64, |a, b| a + b));
    });
    let dispatch_ns = (pooled_ns - inline_ns).max(0.0);
    rayon::reset_num_threads();

    // Crossover: smallest dot length where the pooled path at least matches
    // the sequential one. Recorded as -1 when not reached at this width
    // (expected on a 1-core runner, where dispatch can never pay off).
    let mut rng = gen::seeded_rng(6);
    let max_n: usize = if smoke() { 1 << 17 } else { 1 << 20 };
    let x = gen::gaussian_vector(max_n, &mut rng);
    let y = gen::gaussian_vector(max_n, &mut rng);
    let mut crossover = -1.0;
    let mut n = 4_096usize;
    while n <= max_n {
        let reps = (max_n / n).clamp(8, 512);
        nadmm_linalg::set_par_threshold(0);
        let pooled = time_ns(reps, || {
            black_box(nadmm_linalg::vector::dot(&x[..n], &y[..n]));
        });
        nadmm_linalg::set_par_threshold(usize::MAX);
        let seq = time_ns(reps, || {
            black_box(nadmm_linalg::vector::dot(&x[..n], &y[..n]));
        });
        if pooled <= seq {
            crossover = n as f64;
            break;
        }
        n *= 2;
    }
    nadmm_linalg::reset_par_threshold();

    let mut entries = criterion_entries();
    for (id, value) in [
        ("meta/threads", threads as f64),
        ("meta/default_par_threshold", nadmm_linalg::DEFAULT_PAR_THRESHOLD as f64),
        ("dispatch_overhead/ns", dispatch_ns),
        ("crossover/dot_elems", crossover),
    ] {
        entries.push(BenchEntry {
            group: "parallel".into(),
            id: id.into(),
            ns_per_iter: value,
            ops_per_sec: 0.0,
            allocs_per_iter: None,
        });
    }
    let path = report_path();
    merge_bench_json(&path, &entries).expect("write BENCH_kernels.json");
    println!("parallel engine: threads={threads} dispatch_overhead={dispatch_ns:.0}ns dot_crossover={crossover} elems");
    println!("merged report into {path}");

    assert!(
        dispatch_ns.is_finite() && dispatch_ns >= 0.0,
        "dispatch overhead {dispatch_ns}ns is not a sane measurement"
    );
    for kernel in ["dot", "gemm_nt"] {
        let pooled = find_entry(&entries, &format!("{kernel}/pooled/")).ops_per_sec;
        let seq = find_entry(&entries, &format!("{kernel}/seq/")).ops_per_sec;
        assert!(
            pooled.is_finite() && seq.is_finite() && pooled > 0.0 && seq > 0.0,
            "{kernel}: non-finite or zero throughput (pooled={pooled}, seq={seq})"
        );
        println!("{kernel}: {:.2}× pooled-vs-seq at {threads} threads", pooled / seq);
        if threads >= 4 {
            assert!(
                pooled >= 2.0 * seq,
                "{kernel}: pooled {pooled:.0} ops/s is under 2× sequential's {seq:.0} ops/s at {threads} threads"
            );
        }
    }
    if threads < 4 {
        println!(
            "SKIP speedup gate: the run recorded {threads} threads (< 4), and a small runner cannot \
             demonstrate parallel speedup; only the measurements' sanity was checked"
        );
    }
}

criterion_group!(benches, bench_parallel_kernels, emit_report);
criterion_main!(benches);
