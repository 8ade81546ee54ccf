//! # nadmm-serve
//!
//! The downstream half of the paper's pipeline: once Newton-ADMM has
//! trained a multiclass model, this crate persists it, reloads it, and
//! serves classification traffic against it — all on the same simulated
//! device/cost-model engine the trainer runs on.
//!
//! Three layers:
//!
//! * **Artifacts** ([`ModelArtifact`]) — the versioned, checksummed
//!   `.nadmm` binary format plus a JSON provenance sidecar; every
//!   corruption mode (truncation, bit flips, future versions, dimension
//!   lies, unknown tensor encodings, mismatched binary/sidecar pairs) is a
//!   distinct typed [`ArtifactError`]. Format v2 stores a table of named
//!   tensors with per-tensor [`TensorEncoding`]s (f64/f32/f16/bf16 or
//!   scaled i8), mirrors the binary checksum into the sidecar, and still
//!   loads v1 files bit-for-bit.
//! * **Inference** ([`InferenceSession`], [`ModelRegistry`]) — batched
//!   softmax forward passes through the zero-allocation `Workspace` engine,
//!   with argmax/top-k decoding that reproduces training-time predictions
//!   bit-for-bit and per-batch latency billed by the `DeviceSpec` roofline.
//! * **Serving simulation** ([`run_serve`]) — seeded open-loop Poisson or
//!   closed-loop arrivals driving a max-batch/max-delay batching scheduler
//!   over a (possibly multi-model) registry, reported as a structured
//!   [`ServeReport`] (throughput, p50/p95/p99 latency, batch-occupancy
//!   histogram, queue depths).
//!
//! `examples/serve_bench.rs` runs the committed `scenarios/serving.json`
//! end-to-end: train → save → load → serve, self-gating that batch-32
//! throughput beats batch-1 by ≥4× on the paper's P100 device model.

pub mod artifact;
pub mod registry;
pub mod report;
pub mod scenario;
pub mod session;
pub mod sim;

/// The batching claim the pipeline self-gates on: batch-32 predict
/// throughput (rows per simulated second) must exceed batch-1 by at least
/// this factor on the paper's P100 device model. One source of truth for
/// `examples/serve_bench.rs` and the `serve` bench's gate.
pub const BATCH_SPEEDUP_GATE: f64 = 4.0;

pub use artifact::{
    fnv1a64, ArtifactError, ModelArtifact, NamedTensor, Provenance, TensorEncoding, ARTIFACT_MAGIC, ARTIFACT_VERSION,
    WEIGHTS_TENSOR,
};
pub use registry::ModelRegistry;
pub use report::{LatencySummary, ModelServeStats, OccupancyBucket, ServeReport};
pub use scenario::{artifact_for_scenario, scenario_fingerprint, ArrivalSpec, BatchingSpec, ServeSpec, ServingScenario};
pub use session::{BatchTiming, InferenceSession};
pub use sim::{run_serve, ServeError};
