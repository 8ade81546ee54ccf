//! Table 1: description of the datasets.
//!
//! Prints the paper's Table 1 side by side with the synthetic analogues used
//! by this reproduction (scaled sizes, storage format, achieved sparsity).
//!
//! ```text
//! cargo run --release -p nadmm-bench --example table1
//! ```

use nadmm_bench::bench_config;
use nadmm_data::DatasetKind;
use nadmm_metrics::TextTable;

fn main() {
    let kinds = [DatasetKind::Higgs, DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::E18];

    let mut paper = TextTable::new(
        "Table 1 (paper): description of the datasets",
        &["classes", "dataset", "samples", "test size", "features"],
    );
    for kind in kinds {
        let (c, n, t, p) = kind.paper_table1();
        paper.add_row(&[
            c.to_string(),
            kind.paper_name().to_string(),
            n.to_string(),
            t.to_string(),
            p.to_string(),
        ]);
    }
    println!("{}", paper.to_text());

    let mut ours = TextTable::new(
        "Table 1 (reproduction): synthetic analogues at bench scale",
        &[
            "classes",
            "dataset",
            "samples",
            "test size",
            "features",
            "storage",
            "density",
            "scale vs paper",
        ],
    );
    for kind in kinds {
        let cfg = bench_config(kind);
        let (train, test) = cfg.generate(1);
        let density = train.features().stored_entries() as f64 / (train.num_samples() * train.num_features()) as f64;
        ours.add_row(&[
            train.num_classes().to_string(),
            format!("{}-like", kind.paper_name().to_lowercase()),
            train.num_samples().to_string(),
            test.num_samples().to_string(),
            train.num_features().to_string(),
            if train.is_sparse() {
                "CSR".to_string()
            } else {
                "dense".to_string()
            },
            format!("{:.2}", density),
            format!("{:.5}", cfg.scale_factor()),
        ]);
    }
    println!("{}", ours.to_text());
}
