//! `apps_pipeline`: the paper's own flow, closed loop with one caller.
//!
//! Each job runs one bundled app through compile → deploy → run → collect
//! → corrupt → estimate → place (`Strategy::Best`) → evaluate under the
//! default `RunConfig` at 20,000 invocations. Mote simulation (the run and
//! the two evaluate replays) does most of the work, so an interpreter gain
//! shows here and a placement gain does not.

use crate::common::{closed_loop, job_figures, mix, ms, percentile, shuffled, Outcome, Spans};
use ct_cfg::layout::{BranchPredictor, Layout};
use ct_core::estimator::Method;
use ct_ir::instr::ProcId;
use ct_pipeline::stage::{
    Collect, Compile, Corrupt, Deploy, EstimateStage, Evaluate, Place, Run, Stage,
};
use ct_pipeline::{Evaluated, PipelineError, PipelineReport, RunConfig, Session};
use ct_placement::Strategy;
use std::time::{Duration, Instant};

pub const APPS: [&str; 8] = [
    "blink",
    "sense",
    "oscilloscope",
    "surge",
    "event_detect",
    "crc",
    "fir",
    "sort",
];

/// Per-app median job time in the traced run, one per-layer metric each.
const APP_JOB_MS: [&str; 8] = [
    "apps.blink.job_ms",
    "apps.sense.job_ms",
    "apps.oscilloscope.job_ms",
    "apps.surge.job_ms",
    "apps.event_detect.job_ms",
    "apps.crc.job_ms",
    "apps.fir.job_ms",
    "apps.sort.job_ms",
];

const INVOCATIONS: usize = 20_000;

/// The stage spans of the traced chain, in chain order.
const STAGES: [(&str, &str); 8] = [
    ("compile", "pipeline.compile_ms"),
    ("deploy", "pipeline.deploy_ms"),
    ("run", "pipeline.run_ms"),
    ("collect", "pipeline.collect_ms"),
    ("corrupt", "pipeline.corrupt_ms"),
    ("estimate", "pipeline.estimate_ms"),
    ("place", "pipeline.place_ms"),
    ("evaluate", "pipeline.evaluate_ms"),
];

/// The inputs: the 8 registry apps, resolved once.
pub struct Inputs {
    configs: Vec<RunConfig>,
    seed: u64,
}

pub fn setup(seed: u64) -> Result<Inputs, String> {
    let mut configs = Vec::new();
    for name in APPS {
        let app = ct_apps::app_by_name(name).ok_or(format!("no bundled app {name}"))?;
        let config = RunConfig::for_app(app).invocations(INVOCATIONS);
        // A short run proves the app compiles and runs before any job is
        // timed.
        Session::new(config.clone().invocations(200).seeded(seed))
            .collect()
            .map_err(|e| format!("{name}: {e}"))?;
        configs.push(config);
    }
    Ok(Inputs { configs, seed })
}

impl Inputs {
    /// Job `k`: which app, under which workload seed. Every pass of 8 jobs
    /// runs each app once, in a seeded order of its own.
    fn job(&self, k: usize) -> (usize, RunConfig) {
        let pass = (k / APPS.len()) as u64;
        let app = shuffled(APPS.len(), mix(self.seed, 1_000 + pass))[k % APPS.len()];
        (
            app,
            self.configs[app]
                .clone()
                .seeded(mix(self.seed, 100 + k as u64)),
        )
    }
}

/// The stage-by-stage chain, each `Stage::run` inside its own span.
fn chain(config: &RunConfig, spans: &mut Spans) -> Result<PipelineReport, PipelineError> {
    let compiled = spans.time("compile", || Compile.run(config, ()))?;
    let deployed = spans.time("deploy", || Deploy::default().run(config, compiled))?;
    let executed = spans.time("run", || Run.run(config, deployed))?;
    let collected = spans.time("collect", || Collect.run(config, executed))?;
    let collected = spans.time("corrupt", || Corrupt.run(config, collected))?;
    let estimated = spans.time("estimate", || EstimateStage.run(config, collected))?;
    let placed = spans.time("place", || {
        Place {
            strategy: Strategy::Best,
        }
        .run(config, estimated)
    })?;
    spans.time("evaluate", || Evaluate.run(config, placed))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whether two reports agree bit for bit on everything the flow produced.
fn same_report(a: &PipelineReport, b: &PipelineReport) -> bool {
    let (ea, eb) = (&a.estimated.estimate, &b.estimated.estimate);
    a.run.samples == b.run.samples
        && a.run.pmu == b.run.pmu
        && a.run.cycles_used == b.run.cycles_used
        && bits(ea.probs.as_slice()) == bits(eb.probs.as_slice())
        && ea.method == eb.method
        && ea.iterations == eb.iterations
        && ea.loglik.map(f64::to_bits) == eb.loglik.map(f64::to_bits)
        && a.estimated.accuracy.weighted_mae.to_bits()
            == b.estimated.accuracy.weighted_mae.to_bits()
        && a.layout == b.layout
        && a.before.cost == b.before.cost
        && a.after.cost == b.after.cost
        && a.before.cycles == b.before.cycles
        && a.after.cycles == b.after.cycles
        && a.before.pmu == b.before.pmu
        && a.after.pmu == b.after.pmu
}

/// The virtual PMU counts exactly what the analytic layout cost charges.
pub fn pmu_matches_cost(e: &Evaluated, pid: ProcId) -> bool {
    let c = e.pmu.proc(pid);
    c.cond_taken == e.cost.branches_taken
        && c.cond_not_taken == e.cost.branches_not_taken
        && c.mispredictions(BranchPredictor::AlwaysNotTaken) == e.cost.mispredicted
}

/// What one finished job contributes to the figures.
struct Job {
    app: usize,
    wall_ms: f64,
    wmae: f64,
    cycles: (u64, u64),
    mispred: (u64, u64),
    sim_cycles: u64,
    method: Method,
    iterations: usize,
    installed: bool,
}

fn record(out: &mut Outcome, app: usize, wall: Duration, r: &PipelineReport) -> Job {
    let pid = r.run.pid;
    out.tally.check(pmu_matches_cost(&r.before, pid), || {
        format!(
            "{}: natural-layout PMU disagrees with LayoutCost",
            APPS[app]
        )
    });
    out.tally.check(pmu_matches_cost(&r.after, pid), || {
        format!("{}: placed-layout PMU disagrees with LayoutCost", APPS[app])
    });
    let e = &r.estimated.estimate;
    Job {
        app,
        wall_ms: ms(wall),
        wmae: r.estimated.accuracy.weighted_mae,
        cycles: (r.before.cycles, r.after.cycles),
        mispred: (r.before.cost.mispredicted, r.after.cost.mispredicted),
        sim_cycles: r.run.cycles_used + r.before.cycles + r.after.cycles,
        method: e.method,
        iterations: e.iterations,
        installed: r.layout != Layout::natural(r.run.cfg()),
    }
}

/// One job: `Session::run`, or the stage chain when tracing.
fn job(inputs: &Inputs, k: usize, spans: &mut Spans, out: &mut Outcome) -> Option<Job> {
    let (app, config) = inputs.job(k);
    let t0 = Instant::now();
    let result = if spans.on() {
        chain(&config, spans)
    } else {
        Session::new(config).run(Strategy::Best)
    };
    let wall = t0.elapsed();
    match result {
        Ok(r) => {
            out.tally.ok();
            Some(record(out, app, wall, &r))
        }
        Err(e) => {
            out.tally.fail(format!("{}: {e}", APPS[app]));
            None
        }
    }
}

pub fn run(
    inputs: &Inputs,
    seconds: f64,
    trace: bool,
    resetup: &mut dyn FnMut(),
    out: &mut Outcome,
) {
    // Warm-up and reference check: one job per app through both front
    // doors — `Session::run` and the stage-by-stage chain — which must
    // agree bit for bit.
    for k in 0..APPS.len() {
        let (app, config) = inputs.job(k);
        let whole = Session::new(config.clone()).run(Strategy::Best);
        let staged = chain(&config, &mut Spans::new(false));
        match (whole, staged) {
            (Ok(a), Ok(b)) => out.tally.check(same_report(&a, &b), || {
                format!("{}: Session::run differs from the stage chain", APPS[app])
            }),
            (Err(e), _) | (_, Err(e)) => out.tally.fail(format!("{}: {e}", APPS[app])),
        }
    }

    let (done, spans) = closed_loop(seconds, trace, APPS.len(), out, resetup, |k, spans, out| {
        job(inputs, k, spans, out)
    });
    summarize(&done, &spans, out);
}

fn summarize(done: &[Job], spans: &Spans, out: &mut Outcome) {
    let n = done.len().max(1) as f64;
    let walls: Vec<f64> = done.iter().map(|j| j.wall_ms).collect();
    let per_app: Vec<Vec<f64>> = (0..APPS.len())
        .map(|a| {
            done.iter()
                .filter(|j| j.app == a)
                .map(|j| j.wall_ms)
                .collect()
        })
        .collect();
    job_figures(out, &per_app);

    let sum = |f: &dyn Fn(&Job) -> u64| done.iter().map(f).sum::<u64>() as f64;
    let saved_pct = |before: f64, after: f64| {
        if before > 0.0 {
            (before - after) / before * 100.0
        } else {
            0.0
        }
    };
    out.set("est_wmae", done.iter().map(|j| j.wmae).sum::<f64>() / n);
    out.set(
        "cycles_saved_pct",
        saved_pct(sum(&|j| j.cycles.0), sum(&|j| j.cycles.1)),
    );
    out.set(
        "mispred_saved_pct",
        saved_pct(sum(&|j| j.mispred.0), sum(&|j| j.mispred.1)),
    );
    out.set(
        "place.installed_ratio",
        done.iter().filter(|j| j.installed).count() as f64 / n,
    );

    // One row per app, then the geometric mean of the per-app medians.
    out.row(format!(
        "{:<14} {:>5} {:>10} {:>10} {:>9} {:>10} {:>11}  method",
        "app", "jobs", "p50_ms", "p90_ms", "wmae", "cycles_%", "mispred_%"
    ));
    for (a, name) in APPS.iter().enumerate() {
        let mine: Vec<&Job> = done.iter().filter(|j| j.app == a).collect();
        if mine.is_empty() {
            continue;
        }
        let w = &per_app[a];
        let p50 = percentile(w, 0.5);
        out.set(APP_JOB_MS[a], p50);
        let s = |f: &dyn Fn(&&Job) -> u64| mine.iter().map(f).sum::<u64>() as f64;
        out.row(format!(
            "{:<14} {:>5} {:>10.3} {:>10.3} {:>9.5} {:>10.3} {:>11.3}  {}",
            name,
            mine.len(),
            p50,
            percentile(w, 0.9),
            mine.iter().map(|j| j.wmae).sum::<f64>() / mine.len() as f64,
            saved_pct(s(&|j| j.cycles.0), s(&|j| j.cycles.1)),
            saved_pct(s(&|j| j.mispred.0), s(&|j| j.mispred.1)),
            mine[0].method,
        ));
    }
    let geo = out.metrics["job_p50_ms"];
    out.set("apps.geomean_job_ms", geo);
    out.row(format!("{:<14} {:>5} {:>10.3}", "geomean", done.len(), geo));

    if !spans.on() {
        return;
    }
    for (span, metric) in STAGES {
        out.set(metric, ms(spans.total(span)) / n);
    }
    let job_wall: f64 = walls.iter().sum();
    out.set(
        "pipeline.unattributed_ms",
        (job_wall - ms(spans.attributed())) / n,
    );
    let sim = sum(&|j| j.sim_cycles);
    out.set("mote.sim_cycles", sim / n);
    out.set(
        "mote.ns_per_cycle",
        (spans.total("run") + spans.total("evaluate")).as_nanos() as f64 / sim.max(1.0),
    );
    out.set("mote.replay_ms", ms(spans.total("evaluate")) / n);
    out.set("core.estimate_ms", ms(spans.total("estimate")) / n);
    out.set(
        "core.em_iterations",
        done.iter().map(|j| j.iterations as f64).sum::<f64>() / n,
    );
    let count = |m: Method| done.iter().filter(|j| j.method == m).count() as f64;
    out.set("core.method.em", count(Method::Em));
    out.set("core.method.em_unroll", count(Method::EmUnrolled));
    out.set("core.method.moments", count(Method::Moments));
}
