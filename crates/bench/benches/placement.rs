//! Criterion microbenchmarks: placement algorithm throughput on growing
//! CFGs (`diamond_chain(k)` has 3k + 1 blocks, so k = 1024 is 3073).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ct_cfg::builder::diamond_chain;
use ct_cfg::layout::PenaltyModel;
use ct_placement::{greedy_traces, pettis_hansen, place_procedure, Strategy};
use std::hint::black_box;

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement");
    for k in [4usize, 16, 64, 256, 1024] {
        let cfg = diamond_chain(k);
        let weights: Vec<f64> = (0..cfg.edges().len())
            .map(|i| ((i * 37) % 100) as f64)
            .collect();
        group.bench_with_input(BenchmarkId::new("pettis_hansen", k), &k, |b, _| {
            b.iter(|| black_box(pettis_hansen(&cfg, &weights)));
        });
        group.bench_with_input(BenchmarkId::new("greedy_traces", k), &k, |b, _| {
            b.iter(|| black_box(greedy_traces(&cfg, &weights, 0.5)));
        });
        group.bench_with_input(BenchmarkId::new("best", k), &k, |b, _| {
            let pen = PenaltyModel::avr();
            b.iter(|| black_box(place_procedure(&cfg, &weights, &pen, Strategy::Best)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_placement);
criterion_main!(benches);
