//! Criterion microbenchmarks: absorbing-chain analysis, expected edge
//! traversals (the placement input) and time-expanded table construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ct_apps::synthetic::diamond_chain_problem;
use ct_core::fb::{compute_tables, FbParams};
use ct_markov::visits::expected_edge_traversals;
use ct_markov::{chain_from_cfg, AbsorbingAnalysis};
use std::hint::black_box;

fn bench_markov(c: &mut Criterion) {
    let mut group = c.benchmark_group("markov");
    for k in [2usize, 4, 8] {
        let (cfg, bc, ec, truth) = diamond_chain_problem(k, 21);
        group.bench_with_input(BenchmarkId::new("absorbing", k), &k, |b, _| {
            let chain = chain_from_cfg(&cfg, &truth).unwrap();
            b.iter(|| black_box(AbsorbingAnalysis::new(&chain).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("fb_tables", k), &k, |b, _| {
            b.iter(|| {
                black_box(compute_tables(&cfg, &bc, &ec, &truth, FbParams::default()).unwrap())
            });
        });
    }
    group.finish();

    // The placement bench's sizes: `diamond_chain(k)` has 3k + 1 blocks.
    let mut group = c.benchmark_group("expected_edge_traversals");
    for k in [4usize, 16, 64, 256, 1024] {
        let (cfg, _, _, truth) = diamond_chain_problem(k, 21);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(expected_edge_traversals(&cfg, &truth).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_markov);
criterion_main!(benches);
