//! E14 — Streaming re-estimation at batch granularity (Table, extension).
//!
//! Claim evaluated: warm-started incremental EM re-estimates after **every**
//! arriving batch at an amortized handful of sweeps — affordable at fleet
//! cadence — while landing on the same optimum as a cold restart.
//!
//! Part 1 runs the fleet-service path ([`ct_pipeline::Fleet::estimate_streaming`]):
//! per-mote `SuffStats` batches, one re-estimation each. Part 2 is the
//! warm-start ablation: each app's stream is replayed in radio-sized batches
//! through [`ct_core::IncrementalEm`] (warm start from the previous optimum)
//! and through cold EM from ½ on the same cumulative statistics, reporting
//! µs/batch (median over repeated replays), EM iterations per batch and mae
//! for both.

use ct_bench::{f2, f4, write_manifest_env, write_result, Table};
use ct_core::em::{estimate_em, EmOptions, EmResult};
use ct_core::stream::SuffStats;
use ct_core::IncrementalEm;
use ct_pipeline::{EnvConfig, Fleet, RunConfig, Session};
use std::time::Instant;

const APPS: [&str; 3] = ["sense", "event_detect", "oscilloscope"];

/// Runs `f` `reps` times; returns its last output and the median wall time
/// in seconds.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        out = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    // At least one repetition ran.
    (out.expect("one repetition"), times[times.len() / 2])
}

fn main() {
    let env = EnvConfig::load();
    eprintln!("e14: {}", env.banner());
    let n = env.pick(600, 120);
    let motes = env.pick(8, 3);
    let batches = env.pick(12, 4);
    let reps = env.pick(21, 3);
    let seed = env.seed_or(33);

    let mut table = Table::new(vec![
        "app",
        "path",
        "batches",
        "samples",
        "us/batch",
        "iters/batch",
        "mae",
    ]);

    // Part 1: the fleet-service path — one SuffStats batch per mote,
    // re-estimated as each arrives.
    let fleet = Fleet::new(RunConfig::new("sense").invocations(n).seeded(seed), motes);
    let fleet_run = fleet.run().expect("fleet runs clean");
    let (report, secs) = timed(reps, || {
        fleet
            .estimate_streaming(&fleet_run)
            .expect("streaming estimation succeeds")
    });
    let total_iters: usize = report.batch_iterations.iter().sum();
    table.row(vec![
        "sense".to_string(),
        "fleet streaming".to_string(),
        report.batches.to_string(),
        ct_core::samples::DurationSamples::len(&fleet_run.stats).to_string(),
        f2(secs * 1e6 / report.batches as f64),
        f2(total_iters as f64 / report.batches as f64),
        f4(report.estimated.accuracy.mae),
    ]);

    // Part 2: warm-start ablation — each app's stream replayed in
    // radio-sized batches, warm (incremental) vs cold re-estimation.
    let opts = EmOptions::default();
    let mut speedups = Vec::new();
    for app in APPS {
        let session = Session::new(RunConfig::new(app).invocations(n).seeded(seed));
        let run = session.collect().expect("runs clean");
        let cfg = run.cfg().clone();
        let ticks = run.samples.ticks();
        let cpt = run.samples.cycles_per_tick();
        let chunk = ticks.len().div_ceil(batches);
        let deltas: Vec<SuffStats> = ticks
            .chunks(chunk.max(1))
            .map(|c| {
                let mut s = SuffStats::new(cpt);
                for &t in c {
                    s.push(t);
                }
                s
            })
            .collect();

        let ((warm_result, warm_iters), warm_secs) = timed(reps, || {
            let mut inc = IncrementalEm::new(cpt, opts);
            let mut iters = 0usize;
            for d in &deltas {
                inc.ingest(d).expect("same resolution");
                iters += inc
                    .reestimate(&cfg, &run.block_costs, &run.edge_costs)
                    .expect("incremental EM succeeds")
                    .iterations;
            }
            (inc.last().expect("estimated").clone(), iters)
        });
        let ((cold_result, cold_iters), cold_secs) = timed(reps, || {
            let mut acc = SuffStats::new(cpt);
            let mut iters = 0usize;
            let mut last: Option<EmResult> = None;
            for d in &deltas {
                acc.merge(d).expect("same resolution");
                let r = estimate_em(&cfg, &run.block_costs, &run.edge_costs, &acc, opts)
                    .expect("cold EM succeeds");
                iters += r.iterations;
                last = Some(r);
            }
            (last.expect("at least one batch"), iters)
        });

        // Warm starts move the optimization path, not the optimum: both
        // batch replays must land on (numerically) the same parameters.
        for (a, b) in warm_result
            .probs
            .as_slice()
            .iter()
            .zip(cold_result.probs.as_slice())
        {
            assert!(
                (a - b).abs() < 5e-3,
                "{app}: warm {a} diverged from cold {b}"
            );
        }

        for (path, result, iters, secs) in [
            ("warm (incremental)", &warm_result, warm_iters, warm_secs),
            ("cold per batch", &cold_result, cold_iters, cold_secs),
        ] {
            let acc = ct_core::accuracy::compare(
                &cfg,
                &result.probs,
                &run.truth,
                &run.truth_profile,
                run.invocations,
            );
            table.row(vec![
                app.to_string(),
                path.to_string(),
                deltas.len().to_string(),
                ticks.len().to_string(),
                f2(secs * 1e6 / deltas.len() as f64),
                f2(iters as f64 / deltas.len() as f64),
                f4(acc.mae),
            ]);
        }
        speedups.push(format!("{app} {:.1}x", cold_secs / warm_secs.max(1e-9)));
    }

    let out = format!(
        "# E14 — Streaming re-estimation at batch granularity\n\n\
         {motes} motes / {batches} replay batches, seed {seed}, µs/batch the median of\n\
         {reps} replays. Warm (incremental) EM starts each re-estimation from the\n\
         previous optimum; cold EM restarts from ½ on the same cumulative samples.\n\
         Warm speedup over cold: {}.\n\
         {}\n\n{}",
        speedups.join(", "),
        env.banner(),
        table.to_markdown()
    );
    println!("{out}");
    write_manifest_env("e14_incremental");
    if !env.smoke {
        write_result("e14_incremental.md", &out);
    }
}
