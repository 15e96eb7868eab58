//! Reproduces the cell the benchmark leaves out: `estimate_robust` on the
//! bundled `sort` app, next to the naive estimator on the same samples.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml --bin sort_ladder -- [samples] [seed]
//! ```
//!
//! Each ladder call takes most of a minute, too slow for a workload that
//! runs many times per check; see NOTES.md.

use ct_core::estimate_robust;
use ct_core::estimator::RobustOptions;
use ct_pipeline::{RunConfig, Session};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let samples: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(100);
    let seed: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(1);
    let session = Session::new(RunConfig::new("sort").invocations(samples).seeded(seed));
    let run = session.collect()?;
    let score = |probs| {
        ct_core::compare(
            run.cfg(),
            probs,
            &run.truth,
            &run.truth_profile,
            run.invocations,
        )
        .weighted_mae
    };

    let started = Instant::now();
    let naive = session.estimate(&run)?;
    println!(
        "naive {}: wmae {:.4} in {:.3} s",
        naive.estimate.method,
        naive.accuracy.weighted_mae,
        started.elapsed().as_secs_f64()
    );

    let started = Instant::now();
    let robust = estimate_robust(
        run.cfg(),
        &run.block_costs,
        &run.edge_costs,
        &run.samples,
        RobustOptions::default(),
    );
    println!(
        "estimate_robust: rung {}, wmae {:.4} in {:.3} s",
        robust.rung,
        score(&robust.estimate.probs),
        started.elapsed().as_secs_f64()
    );
    for a in &robust.attempts {
        println!("  {} accepted={} {}", a.rung, a.accepted, a.detail);
    }
    Ok(())
}
