//! The Code Tomography benchmark: one command, four workloads.
//!
//! ```text
//! ct-benchmark --workload <apps_pipeline|ladder_faults|fleet_ingest|wide_cfg>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from the seed alone. A run sets its inputs up several times
//! (the median is `setup_s`), measures for the given seconds, checks every
//! output against an independent reference and prints per-program rows,
//! then the result line: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a traced run. See NOTES.md for what
//! each metric means and which end-to-end metric it should move.

mod apps;
mod common;
mod fleet;
mod ladder;
mod wide;

use common::{peak_rss_mb, result_line, Outcome, SetupClock};

/// Set-ups timed back to back before a run; more follow between passes,
/// and `setup_s` is the median of them all.
const SETUP_REPS: usize = 5;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 70] = [
    ("pipeline.compile_ms", "ms"),
    ("pipeline.deploy_ms", "ms"),
    ("pipeline.run_ms", "ms"),
    ("pipeline.collect_ms", "ms"),
    ("pipeline.corrupt_ms", "ms"),
    ("pipeline.estimate_ms", "ms"),
    ("pipeline.place_ms", "ms"),
    ("pipeline.evaluate_ms", "ms"),
    ("pipeline.unattributed_ms", "ms"),
    ("mote.sim_cycles", "count"),
    ("mote.ns_per_cycle", "ns"),
    ("mote.replay_ms", "ms"),
    ("core.estimate_ms", "ms"),
    ("core.em_iterations", "count"),
    ("core.method.em", "count"),
    ("core.method.em_unroll", "count"),
    ("core.method.moments", "count"),
    ("core.ladder_ms", "ms"),
    ("core.rungs_attempted", "count"),
    ("core.rung_accepted.full_em", "count"),
    ("core.rung_accepted.trimmed_em", "count"),
    ("core.rung_accepted.gnt", "count"),
    ("core.rung_accepted.moments", "count"),
    ("core.rung_accepted.prior", "count"),
    ("core.first_rung_ratio", "ratio"),
    ("core.rung_em_ms", "ms"),
    ("core.rung_trimmed_em_ms", "ms"),
    ("core.rung_gnt_ms", "ms"),
    ("core.rung_moments_ms", "ms"),
    ("place.ms.d16", "ms"),
    ("place.ms.d64", "ms"),
    ("place.ms.d128", "ms"),
    ("place.installed_ratio", "ratio"),
    ("cfg.edge_freq_ms", "ms"),
    ("ir.compile_ms", "ms"),
    ("ir.bytes_per_ms", "B/ms"),
    ("svc.ingest_us", "us"),
    ("svc.queue_full", "count"),
    ("svc.reduce_ms", "ms"),
    ("svc.batches_per_reduce", "count"),
    ("svc.dedup_ratio", "ratio"),
    ("svc.staleness_max", "count"),
    ("svc.serve_em_ms", "ms"),
    ("svc.serve_replay_ratio", "ratio"),
    ("svc.drain_ms", "ms"),
    ("gen.lag_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    // Workload-specific figures of the whole system: each applies to only
    // some workloads, so none can be an end-to-end metric every workload
    // reports.
    ("job_samples", "count"),
    ("est_wmae", "mae"),
    ("cycles_saved_pct", "%"),
    ("mispred_saved_pct", "%"),
    ("failed_ratio", "ratio"),
    ("ingest_max_rate", "1/s"),
    ("ingest_p50_us", "us"),
    ("ingest_p99_us", "us"),
    ("serve_p50_ms", "ms"),
    ("serve_p90_ms", "ms"),
    // One row per program and size, plus their geometric means.
    ("apps.blink.job_ms", "ms"),
    ("apps.sense.job_ms", "ms"),
    ("apps.oscilloscope.job_ms", "ms"),
    ("apps.surge.job_ms", "ms"),
    ("apps.event_detect.job_ms", "ms"),
    ("apps.crc.job_ms", "ms"),
    ("apps.fir.job_ms", "ms"),
    ("apps.sort.job_ms", "ms"),
    ("apps.geomean_job_ms", "ms"),
    ("wide.d16.job_ms", "ms"),
    ("wide.d64.job_ms", "ms"),
    ("wide.d128.job_ms", "ms"),
    ("wide.geomean_job_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let setup_s = match args.workload.as_str() {
        "apps_pipeline" => {
            let mut clock = SetupClock::new(|| apps::setup(seed));
            let inputs = clock.initial(SETUP_REPS)?;
            apps::run(&inputs, secs, trace, &mut || clock.resample(), &mut out);
            clock.median_s()
        }
        "ladder_faults" => {
            let mut clock = SetupClock::new(|| ladder::setup(seed));
            let inputs = clock.initial(SETUP_REPS)?;
            ladder::run(&inputs, secs, trace, &mut || clock.resample(), &mut out);
            clock.median_s()
        }
        "fleet_ingest" => {
            let mut clock = SetupClock::new(|| fleet::setup(seed));
            let inputs = clock.initial(SETUP_REPS);
            fleet::run(&inputs, secs, trace, &mut || clock.resample(), &mut out);
            clock.median_s()
        }
        "wide_cfg" => {
            let mut clock = SetupClock::new(|| wide::setup(seed));
            let inputs = clock.initial(SETUP_REPS)?;
            wide::run(&inputs, secs, trace, &mut || clock.resample(), &mut out);
            clock.median_s()
        }
        other => return Err(format!("unknown workload {other}")),
    };
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak_rss_mb());
    let t = &out.tally;
    out.set("failed_ratio", t.failed as f64 / t.attempted.max(1) as f64);
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ct-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ct-benchmark: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for row in &out.rows {
        println!("{row}");
    }
    for problem in &out.tally.problems {
        println!("FAILED: {problem}");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(&str, f64, &str)> = wanted
        .iter()
        .map(|(name, unit)| (*name, out.metrics.get(name).copied().unwrap_or(0.0), *unit))
        .collect();
    println!("{}", result_line(&out.tally, &metrics));
}
