//! Criterion bench for the ADMM penalty-rule ablation:
//! wall-clock cost and convergence of fixed ρ vs residual balancing vs the
//! paper's spectral rule over a fixed iteration budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nadmm_data::{partition_strong, SyntheticConfig};
use newton_admm::{NewtonAdmm, NewtonAdmmConfig, PenaltyRule, SpectralConfig};
use std::hint::black_box;

fn bench_penalty_rules(c: &mut Criterion) {
    let (train, _) = SyntheticConfig::cifar10_like()
        .with_train_size(384)
        .with_test_size(64)
        .with_num_features(48)
        .generate(1);
    let (shards, _) = partition_strong(&train, 4);
    let rules: [(&str, PenaltyRule); 3] = [
        ("fixed", PenaltyRule::Fixed),
        ("residual_balancing", PenaltyRule::ResidualBalancing { mu: 10.0, tau: 2.0 }),
        ("spectral", PenaltyRule::Spectral(SpectralConfig::default())),
    ];
    let mut group = c.benchmark_group("penalty_rule_10_iters");
    group.sample_size(10);
    for (name, rule) in rules {
        group.bench_with_input(BenchmarkId::from_parameter(name), &rule, |b, rule| {
            b.iter(|| {
                let cfg = NewtonAdmmConfig::default()
                    .with_lambda(1e-5)
                    .with_max_iters(10)
                    .with_penalty(*rule);
                black_box(NewtonAdmm::new(cfg).run_reference(&shards, None))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_penalty_rules);
criterion_main!(benches);
