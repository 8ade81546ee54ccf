//! Criterion benches for the reduced-precision path, end to end: per-
//! precision roofline kernel costs, f16/bf16 pack–unpack wall clock,
//! compressed-collective cost modeling (including the logical-byte
//! crossover shift), artifact sizes per encoding, and the f16 artifact's
//! prediction agreement with full precision.
//!
//! Everything merges into `BENCH_kernels.json` under the `precision` group,
//! then the run gates its numbers: f16/bf16 kernels are modeled faster than
//! f32, f16-on-the-wire allreduce beats full width at every payload and
//! shifts the tree→ring crossover ~4× later in logical bytes, the f16
//! artifact is under half the f64 file, its predictions agree with full
//! precision on ≥99% of rows, and the compressed warm path allocates
//! nothing. Set `NADMM_BENCH_SMOKE=1` for the CI smoke mode.

use criterion::{criterion_group, criterion_main, Criterion};
use nadmm_bench::alloc_counter::{count_allocations, CountingAllocator};
use nadmm_bench::report::{criterion_entries, merge_bench_json, report_path, BenchEntry};
use nadmm_cluster::{Cluster, CollectiveAlgorithm, CollectiveKind, Communicator, Compression, NetworkModel};
use nadmm_device::{DeviceSpec, Precision};
use nadmm_linalg::half::{round_bf16, round_f16};
use nadmm_serve::{InferenceSession, ModelArtifact, Provenance, TensorEncoding};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn smoke() -> bool {
    nadmm_bench::smoke_mode()
}

/// A deterministic MNIST-shaped artifact (64 features × 10 classes) whose
/// weights exercise a wide dynamic range.
fn reference_artifact() -> ModelArtifact {
    let (features, classes) = (64usize, 10usize);
    let weights: Vec<f64> = (0..(classes - 1) * features)
        .map(|i| ((i as f64) * 0.37).sin() * 10f64.powi((i % 5) as i32 - 2))
        .collect();
    let labels = (0..classes).map(|c| format!("digit-{c}")).collect();
    ModelArtifact::new(features, classes, labels, weights, Provenance::default()).unwrap()
}

fn bench_pack_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("half_pack");
    let len = if smoke() { 4_096 } else { 65_536 };
    let values: Vec<f64> = (0..len).map(|i| ((i as f64) * 0.11).sin() * 3.0).collect();
    group.bench_function("round_f16_sweep", |b| {
        b.iter(|| values.iter().map(|&v| round_f16(v)).sum::<f64>())
    });
    group.bench_function("round_bf16_sweep", |b| {
        b.iter(|| values.iter().map(|&v| round_bf16(v)).sum::<f64>())
    });
    group.finish();
}

fn bench_compressed_allreduce_wallclock(c: &mut Criterion) {
    let mut group = c.benchmark_group("compressed_allreduce_wallclock");
    group.sample_size(10);
    let payload = vec![1.0f64; 8192];
    for compression in [Compression::None, Compression::F16] {
        group.bench_function(compression.name(), |b| {
            b.iter(|| {
                let cluster = Cluster::new(4, NetworkModel::ethernet_10g()).with_compression(compression);
                black_box(cluster.run(|comm| {
                    let mut buf = payload.clone();
                    for _ in 0..8 {
                        comm.allreduce_sum_into(&mut buf);
                    }
                    buf[0]
                }))
            });
        });
    }
    group.finish();
}

/// Records the modeled per-precision kernel costs, the compressed-collective
/// cost model (and its logical-byte crossover shift), artifact sizes per
/// encoding, the f16 artifact's prediction agreement, and the compressed
/// warm-path allocation count, merges them into the report, then gates the
/// numbers. Runs last.
fn emit_report(_c: &mut Criterion) {
    let mut entries = criterion_entries();

    // Per-precision roofline: one P100 GEMM shape, modeled ns at each
    // compute precision (reduced precision doubles flops and halves bytes).
    let spec = DeviceSpec::tesla_p100();
    let m = 512.0f64;
    let flops = 2.0 * m * m * m;
    let kernel_ns = |precision: Precision| {
        let bytes = 3.0 * m * m * precision.bytes_per_element();
        spec.kernel_time_at(precision, flops, bytes) * 1e9
    };
    for precision in Precision::ALL {
        let ns = kernel_ns(precision);
        entries.push(BenchEntry {
            group: "precision".into(),
            id: format!("kernel_model/{}/gemm512", precision.name()),
            ns_per_iter: ns,
            ops_per_sec: if ns > 0.0 { 1e9 / ns } else { f64::INFINITY },
            allocs_per_iter: None,
        });
    }

    // Compressed allreduce cost model: the same logical payload billed at
    // full width vs f16 on the wire (ethernet, ring regime).
    let net = NetworkModel::ethernet_10g();
    let n = 8usize;
    let logical_lens: &[usize] = if smoke() { &[65_536] } else { &[4_096, 65_536, 524_288] };
    let allreduce_ns = |compression: Compression, len: usize| {
        let wire_bytes = len as f64 * compression.wire_bytes_per_element();
        net.collective_cost(CollectiveKind::Allreduce, CollectiveAlgorithm::Ring, n, wire_bytes) * 1e9
    };
    // The tree→ring crossover expressed in *logical* bytes: compression
    // quarters the wire payload, so the switch point moves 4× later in
    // logical terms.
    let crossover_wire = net.crossover_bytes(
        CollectiveKind::Allreduce,
        CollectiveAlgorithm::BinomialTree,
        CollectiveAlgorithm::Ring,
        n,
    );
    let logical_crossover =
        |compression: Compression| crossover_wire.map(|wire| wire * 8.0 / compression.wire_bytes_per_element());
    for compression in [Compression::None, Compression::F16, Compression::Bf16] {
        for &len in logical_lens {
            let logical_bytes = len as f64 * 8.0;
            entries.push(BenchEntry {
                group: "precision".into(),
                id: format!("allreduce_model/{}/n{}/{}B", compression.name(), n, logical_bytes as u64),
                ns_per_iter: allreduce_ns(compression, len),
                ops_per_sec: 0.0,
                allocs_per_iter: None,
            });
        }
        if let Some(logical) = logical_crossover(compression) {
            entries.push(BenchEntry {
                group: "precision".into(),
                id: format!("allreduce_crossover_logical_bytes/{}/n{n}", compression.name()),
                ns_per_iter: logical, // bytes, not ns — see the id
                ops_per_sec: 0.0,
                allocs_per_iter: None,
            });
        }
    }

    // Artifact bytes per weight encoding, same model.
    let artifact = reference_artifact();
    let artifact_bytes = |encoding: TensorEncoding| {
        let encoded = artifact
            .clone()
            .with_weight_encoding(encoding)
            .expect("the reference weights are finite");
        encoded.to_bytes().len() as f64
    };
    for encoding in TensorEncoding::ALL {
        entries.push(BenchEntry {
            group: "precision".into(),
            id: format!("artifact_bytes/{}", encoding.name()),
            ns_per_iter: artifact_bytes(encoding), // bytes, not ns — see the id
            ops_per_sec: 0.0,
            allocs_per_iter: None,
        });
    }

    // Prediction agreement: fraction of deterministic synthetic rows on
    // which the f16-encoded model predicts the same class as full f64.
    let rows = if smoke() { 64 } else { 512 };
    let p = artifact.num_features;
    let f16 = artifact
        .clone()
        .with_weight_encoding(TensorEncoding::F16)
        .expect("the reference weights are finite");
    let mut full_session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
    let mut half_session = InferenceSession::new(&f16, DeviceSpec::tesla_p100()).unwrap();
    let features: Vec<f64> = (0..rows * p).map(|i| ((i as f64) * 0.23).sin()).collect();
    let mut full_preds = vec![0usize; rows];
    let mut half_preds = vec![0usize; rows];
    full_session.predict_batch_into(&features, &mut full_preds);
    half_session.predict_batch_into(&features, &mut half_preds);
    let agree = full_preds.iter().zip(&half_preds).filter(|(a, b)| a == b).count();
    let agreement = agree as f64 / rows as f64;
    entries.push(BenchEntry {
        group: "precision".into(),
        id: format!("f16_prediction_agreement/rows{rows}"),
        ns_per_iter: agreement, // fraction, not ns — see the id
        ops_per_sec: 0.0,
        allocs_per_iter: None,
    });

    // The compressed warm path must stay allocation-free, exactly like the
    // full-width one.
    let allocs = Cluster::new(4, NetworkModel::ethernet_10g())
        .with_compression(Compression::F16)
        .run(|comm| {
            let mut buf = vec![0.5f64; 8192];
            comm.allreduce_sum_into(&mut buf); // warm-up
            let (warm_allocs, _) = count_allocations(|| comm.allreduce_sum_into(&mut buf));
            warm_allocs
        })
        .into_iter()
        .max()
        .unwrap_or(0);
    entries.push(BenchEntry {
        group: "precision".into(),
        id: "compressed_allreduce_warm_allocs".into(),
        ns_per_iter: 0.0,
        ops_per_sec: 0.0,
        allocs_per_iter: Some(allocs as f64),
    });

    let path = report_path();
    merge_bench_json(&path, &entries).expect("write BENCH_kernels.json");
    println!("precision: f16 prediction agreement {agree}/{rows}, compressed warm allocs={allocs}");
    println!("merged report into {path}");

    let f32_ns = kernel_ns(Precision::F32);
    for half in [Precision::F16, Precision::Bf16] {
        let ns = kernel_ns(half);
        assert!(
            ns < f32_ns,
            "{} kernel modeled at {ns:.1}ns, not faster than f32's {f32_ns:.1}ns",
            half.name()
        );
    }
    for &len in logical_lens {
        let (f16_ns, none_ns) = (allreduce_ns(Compression::F16, len), allreduce_ns(Compression::None, len));
        assert!(
            f16_ns < none_ns,
            "compressed allreduce of {len} elements modeled {f16_ns:.1}ns, not below full width's {none_ns:.1}ns"
        );
    }
    let none_cross = logical_crossover(Compression::None).expect("the model has a tree→ring crossover");
    let f16_cross = logical_crossover(Compression::F16).expect("the model has a tree→ring crossover");
    let shift = f16_cross / none_cross;
    assert!(
        (3.5..=4.5).contains(&shift),
        "f16 shifts the logical crossover {shift:.2}× ({none_cross:.0}B → {f16_cross:.0}B), expected ~4×"
    );
    let (f64_bytes, f16_bytes) = (artifact_bytes(TensorEncoding::F64), artifact_bytes(TensorEncoding::F16));
    assert!(
        f16_bytes < 0.5 * f64_bytes,
        "f16 artifact is {f16_bytes:.0}B vs {f64_bytes:.0}B for f64 (expected strictly under half)"
    );
    assert!(
        agreement >= 0.99,
        "f16 prediction agreement is {agreement:.4} ({agree}/{rows}), below the 0.99 gate"
    );
    assert!(
        allocs == 0,
        "compressed warm allreduce made {allocs} allocations (expected 0)"
    );
}

criterion_group!(benches, bench_pack_kernels, bench_compressed_allreduce_wallclock, emit_report);
criterion_main!(benches);
