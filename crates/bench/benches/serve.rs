//! Criterion benches for the serving engine: wall-clock and device-modeled
//! throughput of `InferenceSession::predict_batch_into` across batch sizes,
//! plus the warm-path allocation counts of the argmax and top-k decoders.
//!
//! The final "bench" merges everything into `BENCH_kernels.json` under the
//! `serve` group, so the recorded perf trajectory shows large batches
//! amortizing the device's launch/transfer latency, then gates the numbers:
//! every batch size has a positive modeled throughput, batch 32 serves at
//! least `BATCH_SPEEDUP_GATE`× the rows per second of batch 1 (the property
//! the batching scheduler and serve_bench's self-gate rely on), and both
//! decoders allocate nothing once warm.
//!
//! Set `NADMM_BENCH_SMOKE=1` for the CI smoke mode (fewer samples).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nadmm_bench::alloc_counter::{count_allocations, CountingAllocator};
use nadmm_bench::report::{criterion_entries, merge_bench_json, report_path, BenchEntry};
use nadmm_device::DeviceSpec;
use nadmm_serve::{InferenceSession, ModelArtifact, Provenance};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The batch sizes the report records (the serving scheduler's sweet spot
/// sweep: single-request latency floor up to a saturated 128-wide batch).
const BATCH_SIZES: [usize; 4] = [1, 8, 32, 128];

/// MNIST-at-paper-scale model shape: 784 features × 10 classes.
fn session() -> InferenceSession {
    let (features, classes) = (784usize, 10usize);
    let artifact = ModelArtifact::new(
        features,
        classes,
        (0..classes).map(|c| format!("class-{c}")).collect(),
        (0..(classes - 1) * features).map(|i| ((i as f64) * 0.37).sin() * 0.5).collect(),
        Provenance::default(),
    )
    .unwrap();
    InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap()
}

fn request_rows(batch: usize, features: usize) -> Vec<f64> {
    (0..batch * features).map(|i| ((i as f64) * 0.013).sin()).collect()
}

fn bench_predict_wallclock(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(if nadmm_bench::smoke_mode() { 10 } else { 20 });
    let mut session = session();
    let p = session.num_features();
    for &batch in &BATCH_SIZES {
        let rows = request_rows(batch, p);
        let mut preds = vec![0usize; batch];
        session.warm(batch);
        group.bench_with_input(BenchmarkId::new("predict_batch", batch), &batch, |b, _| {
            b.iter(|| black_box(session.predict_batch_into(black_box(&rows), &mut preds)));
        });
    }
    group.finish();
}

/// Records the device-modeled per-row throughput per batch size, the modeled
/// batch-32-vs-1 speedup, and the warm-path allocation counts, merges every
/// measurement into the machine-readable report, then gates the numbers.
/// Runs last.
fn emit_report(_c: &mut Criterion) {
    let mut entries = criterion_entries();
    let mut session = session();
    let p = session.num_features();

    // Modeled throughput: rows per simulated second on the P100 roofline
    // (ns_per_iter is the modeled per-batch time in ns). This is the number
    // the batching scheduler's self-gate compares across batch sizes.
    let mut per_row_ns = Vec::new();
    for &batch in &BATCH_SIZES {
        let rows = request_rows(batch, p);
        let mut preds = vec![0usize; batch];
        session.warm(batch);
        let timing = session.predict_batch_into(&rows, &mut preds);
        let batch_ns = timing.sim_seconds * 1e9;
        per_row_ns.push((batch, batch_ns / batch as f64));
        entries.push(BenchEntry {
            group: "serve".into(),
            id: format!("predict_modeled/batch{batch}"),
            ns_per_iter: batch_ns,
            ops_per_sec: batch as f64 / timing.sim_seconds,
            allocs_per_iter: None,
        });
    }
    let small = per_row_ns.iter().find(|(b, _)| *b == 1).expect("batch 1 measured").1;
    let large = per_row_ns.iter().find(|(b, _)| *b == 32).expect("batch 32 measured").1;
    entries.push(BenchEntry {
        group: "serve".into(),
        id: "predict_modeled_speedup/batch32_vs_1".into(),
        ns_per_iter: small / large, // the speedup ratio — see the id
        ops_per_sec: 0.0,
        allocs_per_iter: None,
    });

    // Warm-path allocation proof at the bench level: after warm-up, the
    // argmax and top-k decoders allocate nothing.
    let batch = 32usize;
    let rows = request_rows(batch, p);
    let mut preds = vec![0usize; batch];
    let k = 3usize;
    let mut topk_classes = vec![0usize; batch * k];
    let mut topk_probs = vec![0.0f64; batch * k];
    session.predict_batch_into(&rows, &mut preds);
    session.predict_topk_into(&rows, k, &mut topk_classes, &mut topk_probs);
    let (argmax_allocs, _) = count_allocations(|| session.predict_batch_into(&rows, &mut preds));
    let (topk_allocs, _) = count_allocations(|| session.predict_topk_into(&rows, k, &mut topk_classes, &mut topk_probs));
    for (id, count) in [
        ("predict_batch_warm_allocs", argmax_allocs),
        ("predict_topk_warm_allocs", topk_allocs),
    ] {
        entries.push(BenchEntry {
            group: "serve".into(),
            id: id.into(),
            ns_per_iter: 0.0,
            ops_per_sec: 0.0,
            allocs_per_iter: Some(count as f64),
        });
    }

    let path = report_path();
    merge_bench_json(&path, &entries).expect("write BENCH_kernels.json");
    let speedup = small / large;
    println!("serve: modeled batch-32 speedup {speedup:.1}×, warm allocs argmax={argmax_allocs} topk={topk_allocs}");
    println!("merged report into {path}");

    for &(batch, ns) in &per_row_ns {
        assert!(
            ns.is_finite() && ns > 0.0,
            "batch {batch} records a non-positive modeled time per row ({ns} ns), so no finite throughput"
        );
    }
    let gate = nadmm_serve::BATCH_SPEEDUP_GATE;
    assert!(
        speedup >= gate,
        "batch-32 modeled throughput is only {speedup:.2}× batch-1 ({large:.1} vs {small:.1} ns/row; gate: ≥ {gate}×)"
    );
    assert!(
        argmax_allocs == 0 && topk_allocs == 0,
        "warm decoders allocated (argmax={argmax_allocs}, topk={topk_allocs}; expected 0 each)"
    );
}

criterion_group!(benches, bench_predict_wallclock, emit_report);
criterion_main!(benches);
