//! `ladder_faults`: the robust estimator ladder, closed loop with one
//! caller.
//!
//! Each job is one `estimate_robust` call on a sample set collected during
//! set-up. The grid is sense/event_detect/oscilloscope with `.no_unroll()`
//! and the 1 MHz-at-8 MHz timer, times the 7 fault kinds, times the rates
//! {0, 0.3, 1.0}. ct-core does almost all the work and the mote none.
//! Every rung runs somewhere in the grid; GNT answers none of its cells.

use crate::common::{closed_loop, job_figures, mix, ms, percentile, shuffled, Outcome, Spans};
use ct_cfg::profile::BranchProbs;
use ct_core::estimator::{EstimateOptions, Method, RobustEstimate, RobustOptions, Rung};
use ct_core::{estimate, estimate_robust, TimingSamples, TrimPolicy};
use ct_faults::{FaultKind, FaultPlan};
use ct_mote::timer::VirtualTimer;
use ct_pipeline::{AppRun, RunConfig, Session};
use std::time::Instant;

const APPS: [&str; 3] = ["sense", "event_detect", "oscilloscope"];
const RATES: [f64; 3] = [0.0, 0.3, 1.0];
/// Samples per collected run, as in the e17 grid.
const SAMPLES: usize = 3_000;
/// The grid is fixed, as in e17, so runs with different seeds estimate the
/// same sample sets: which rung answers a cell, and so its cost (0.3 ms to
/// 20 ms), depends on the fault realization. The run seed orders the jobs.
const GRID_SEED: u64 = 17_000;

const RUNGS: [(Rung, &str); 5] = [
    (Rung::FullEm, "core.rung_accepted.full_em"),
    (Rung::TrimmedEm, "core.rung_accepted.trimmed_em"),
    (Rung::Gnt, "core.rung_accepted.gnt"),
    (Rung::Moments, "core.rung_accepted.moments"),
    (Rung::Prior, "core.rung_accepted.prior"),
];

struct Cell {
    app: usize,
    kind: FaultKind,
    rate: f64,
    samples: TimingSamples,
}

pub struct Inputs {
    runs: Vec<AppRun>,
    cells: Vec<Cell>,
    seed: u64,
}

pub fn setup(seed: u64) -> Result<Inputs, String> {
    let mut runs = Vec::new();
    let mut cells = Vec::new();
    for (a, name) in APPS.iter().enumerate() {
        let session = Session::new(
            RunConfig::new(name)
                .invocations(SAMPLES)
                .resolution(VirtualTimer::mhz1_at_8mhz().cycles_per_tick())
                .seeded(GRID_SEED + a as u64)
                .no_unroll(),
        );
        let run = session.collect().map_err(|e| format!("{name}: {e}"))?;
        for (k, kind) in FaultKind::ALL.into_iter().enumerate() {
            for (r, &rate) in RATES.iter().enumerate() {
                let plan_seed = GRID_SEED + (1_000 + a * 100 + k * 10 + r) as u64;
                let samples = FaultPlan::single(kind, rate, plan_seed)
                    .build()
                    .apply(&run.samples);
                cells.push(Cell {
                    app: a,
                    kind,
                    rate,
                    samples,
                });
            }
        }
        runs.push(run);
    }
    Ok(Inputs { runs, cells, seed })
}

impl Inputs {
    fn ladder(&self, c: usize) -> RobustEstimate {
        let cell = &self.cells[c];
        let run = &self.runs[cell.app];
        estimate_robust(
            run.cfg(),
            &run.block_costs,
            &run.edge_costs,
            &cell.samples,
            RobustOptions::default(),
        )
    }

    fn wmae(&self, c: usize, probs: &BranchProbs) -> f64 {
        let run = &self.runs[self.cells[c].app];
        ct_core::compare(
            run.cfg(),
            probs,
            &run.truth,
            &run.truth_profile,
            run.invocations,
        )
        .weighted_mae
    }

    fn label(&self, c: usize) -> String {
        let cell = &self.cells[c];
        format!("{} {} rate={}", APPS[cell.app], cell.kind, cell.rate)
    }
}

fn same(a: &RobustEstimate, b: &RobustEstimate) -> bool {
    let bits = |r: &RobustEstimate| -> Vec<u64> {
        r.estimate
            .probs
            .as_slice()
            .iter()
            .map(|p| p.to_bits())
            .collect()
    };
    a.rung == b.rung
        && a.confidence.to_bits() == b.confidence.to_bits()
        && a.trimmed == b.trimmed
        && a.attempts == b.attempts
        && bits(a) == bits(b)
}

/// Attempts come top-down and exactly the answering rung is accepted.
fn descends(r: &RobustEstimate) -> bool {
    r.attempts.windows(2).all(|w| w[0].rung < w[1].rung)
        && r.attempts.iter().filter(|a| a.accepted).count() == 1
        && r.attempts.iter().any(|a| a.accepted && a.rung == r.rung)
}

pub fn run(
    inputs: &Inputs,
    seconds: f64,
    trace: bool,
    resetup: &mut dyn FnMut(),
    out: &mut Outcome,
) {
    // Reference pass (also the warm-up): every cell once, in grid order.
    let reference: Vec<RobustEstimate> = (0..inputs.cells.len())
        .map(|c| {
            let r = inputs.ladder(c);
            out.tally.check(descends(&r), || {
                format!("{}: rung attempts out of descent order", inputs.label(c))
            });
            r
        })
        .collect();
    let wmae: Vec<f64> = reference
        .iter()
        .enumerate()
        .map(|(c, r)| inputs.wmae(c, &r.estimate.probs))
        .collect();

    // Whole passes over the grid, each in a seeded order of its own; every
    // result must equal the reference pass bit for bit.
    let cells = inputs.cells.len();
    let (done, spans) = closed_loop(seconds, trace, cells, out, resetup, |k, spans, out| {
        let pass = (k / cells) as u64;
        let c = shuffled(cells, mix(inputs.seed, 2_000 + pass))[k % cells];
        let t0 = Instant::now();
        let r = spans.time("ladder", || inputs.ladder(c));
        let wall = ms(t0.elapsed());
        out.tally.check(same(&r, &reference[c]), || {
            format!("{}: ladder result differs between passes", inputs.label(c))
        });
        Some((c, wall))
    });

    let n = done.len().max(1) as f64;
    let walls: Vec<f64> = done.iter().map(|j| j.1).collect();
    let per_cell: Vec<Vec<f64>> = (0..inputs.cells.len())
        .map(|c| done.iter().filter(|j| j.0 == c).map(|j| j.1).collect())
        .collect();
    job_figures(out, &per_cell);
    out.set("est_wmae", done.iter().map(|j| wmae[j.0]).sum::<f64>() / n);

    // One row per app: its cells' answering rungs and accuracy.
    out.row(format!(
        "{:<14} {:>5} {:>10} {:>9}  rungs (full/trim/gnt/mom/prior)",
        "app", "jobs", "p50_ms", "wmae"
    ));
    for (a, name) in APPS.iter().enumerate() {
        let mine: Vec<&(usize, f64)> = done.iter().filter(|j| inputs.cells[j.0].app == a).collect();
        let w: Vec<f64> = mine.iter().map(|j| j.1).collect();
        let rungs: Vec<String> = RUNGS
            .iter()
            .map(|(rung, _)| {
                (0..inputs.cells.len())
                    .filter(|&c| inputs.cells[c].app == a && reference[c].rung == *rung)
                    .count()
                    .to_string()
            })
            .collect();
        out.row(format!(
            "{:<14} {:>5} {:>10.3} {:>9.5}  {}",
            name,
            mine.len(),
            percentile(&w, 0.5),
            mine.iter().map(|j| wmae[j.0]).sum::<f64>() / mine.len().max(1) as f64,
            rungs.join("/"),
        ));
    }

    if !spans.on() {
        return;
    }
    let calls = reference.len() as f64;
    out.set("core.ladder_ms", spans.mean_ms("ladder"));
    out.set(
        "pipeline.unattributed_ms",
        (walls.iter().sum::<f64>() - ms(spans.attributed())) / n,
    );
    out.set(
        "core.rungs_attempted",
        reference
            .iter()
            .map(|r| r.attempts.len() as f64)
            .sum::<f64>()
            / calls,
    );
    for (rung, metric) in RUNGS {
        out.set(
            metric,
            reference.iter().filter(|r| r.rung == rung).count() as f64,
        );
    }
    out.set(
        "core.first_rung_ratio",
        reference.iter().filter(|r| r.rung == Rung::FullEm).count() as f64 / calls,
    );
    out.set(
        "core.em_iterations",
        reference
            .iter()
            .map(|r| r.estimate.iterations as f64)
            .sum::<f64>()
            / calls,
    );
    standalone_rungs(inputs, out);
}

/// Every rung on its own over the whole grid, timed as e17 does: full EM on
/// the raw stream; trimmed EM, GNT and moments on the trimmed stream. A
/// refusal is an answer here (the ladder would descend), not a failure.
fn standalone_rungs(inputs: &Inputs, out: &mut Outcome) {
    let mut spans = Spans::new(true);
    for cell in &inputs.cells {
        let run = &inputs.runs[cell.app];
        let (trimmed, _) = cell.samples.trimmed(TrimPolicy::default());
        let arm = |method: Method, samples: &TimingSamples| {
            let opts = EstimateOptions {
                method: Some(method),
                ..EstimateOptions::default()
            };
            let _ = std::hint::black_box(estimate(
                run.cfg(),
                &run.block_costs,
                &run.edge_costs,
                samples,
                opts,
            ));
        };
        spans.time("em", || arm(Method::Em, &cell.samples));
        spans.time("trimmed_em", || arm(Method::Em, &trimmed));
        spans.time("gnt", || arm(Method::Gnt, &trimmed));
        spans.time("moments", || arm(Method::Moments, &trimmed));
    }
    out.set("core.rung_em_ms", spans.mean_ms("em"));
    out.set("core.rung_trimmed_em_ms", spans.mean_ms("trimmed_em"));
    out.set("core.rung_gnt_ms", spans.mean_ms("gnt"));
    out.set("core.rung_moments_ms", spans.mean_ms("moments"));
}
