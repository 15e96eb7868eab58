//! `wide_cfg`: placement on wide generated procedures, closed loop with one
//! caller.
//!
//! Each job compiles a `random_source` program (16, 64 or 128 decisions:
//! about 49, 193 and 385 blocks), collects 200 invocations, places with the
//! ground-truth probabilities (`Strategy::Best`) and replays both layouts.
//! It is the only workload where placement dominates, so a placement gain
//! shows here and nowhere else.

use crate::apps::pmu_matches_cost;
use crate::common::{
    closed_loop, geomean, job_figures, median, mix, ms, percentile, Outcome, Spans,
};
use ct_apps::synthetic::{random_source, GenConfig};
use ct_cfg::graph::Cfg;
use ct_cfg::layout::Layout;
use ct_mote::interp::Mote;
use ct_pipeline::{edge_frequencies, PipelineError, RunConfig, Session};
use ct_placement::{place_with_confidence, Strategy, MIN_PLACEMENT_CONFIDENCE};
use std::time::{Duration, Instant};

const DECISIONS: [usize; 3] = [16, 64, 128];
const PLACE_MS: [&str; 3] = ["place.ms.d16", "place.ms.d64", "place.ms.d128"];
const JOB_MS: [&str; 3] = ["wide.d16.job_ms", "wide.d64.job_ms", "wide.d128.job_ms"];
/// Distinct generated programs per size.
const VARIANTS: usize = 8;
/// The programs are a fixed corpus, so runs with different seeds place the
/// same procedures: placement time varies several-fold between random
/// programs of one size, which would otherwise swamp every comparison. The
/// run seed drives the mote's inputs.
const CORPUS_SEED: u64 = 8_000;
const INVOCATIONS: usize = 200;

fn uniform_adc(mote: &mut Mote) {
    mote.devices.adc = Box::new(ct_mote::devices::UniformAdc { lo: 0, hi: 1023 });
}

pub struct Inputs {
    /// `sources[size][variant]`.
    sources: Vec<Vec<String>>,
    seed: u64,
}

pub fn setup(seed: u64) -> Result<Inputs, String> {
    let mut sources = Vec::new();
    for (s, &decisions) in DECISIONS.iter().enumerate() {
        let mut per_size = Vec::new();
        for v in 0..VARIANTS {
            let src = random_source(
                CORPUS_SEED + (s * VARIANTS + v) as u64,
                GenConfig {
                    decisions,
                    max_depth: 3,
                    loop_share: 0.25,
                },
            );
            // Every input must compile; the job compiles it again.
            ct_ir::compile_source(&src).map_err(|e| format!("d{decisions}: {e}"))?;
            per_size.push(src);
        }
        sources.push(per_size);
    }
    Ok(Inputs { sources, seed })
}

/// The layout is a permutation of the procedure's blocks, entry first.
fn is_block_permutation(cfg: &Cfg, layout: &Layout) -> bool {
    let order = layout.order();
    let mut seen = vec![false; cfg.len()];
    order.len() == cfg.len()
        && order.first() == Some(&cfg.entry())
        && order
            .iter()
            .all(|b| b.index() < cfg.len() && !std::mem::replace(&mut seen[b.index()], true))
}

struct Job {
    size: usize,
    variant: usize,
    src_bytes: usize,
    wall_ms: f64,
    blocks: usize,
    cycles: (u64, u64),
    mispred: (u64, u64),
    sim_cycles: u64,
    installed: bool,
}

/// One job. Traced, placement is split into its two calls — edge
/// frequencies, then `place_with_confidence` — which together are exactly
/// `Session::place`; the warm-up pass checks they agree.
fn job(
    inputs: &Inputs,
    k: usize,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<Job, PipelineError> {
    let size = k % DECISIONS.len();
    let variant = (k / DECISIONS.len()) % VARIANTS;
    let src = &inputs.sources[size][variant];
    let t0 = Instant::now();
    let program = spans
        .time("compile", || ct_ir::compile_source(src))
        .map_err(|e| PipelineError::Frequency(e.to_string()))?;
    let session = Session::new(
        RunConfig::for_program(program, 0, uniform_adc)
            .invocations(INVOCATIONS)
            .seeded(mix(inputs.seed, 200 + k as u64)),
    );
    let run = spans.time("collect", || session.collect())?;
    let cfg = run.cfg();
    let layout = if spans.on() {
        let freq = spans
            .time("edge_freq", || edge_frequencies(cfg, &run.truth))
            .map_err(PipelineError::Frequency)?;
        let penalties = session.config().penalties();
        spans.time(PLACE_MS[size], || {
            place_with_confidence(
                cfg,
                &freq,
                1.0,
                MIN_PLACEMENT_CONFIDENCE,
                &penalties,
                Strategy::Best,
            )
        })
    } else {
        session.place(&run, &run.truth, Strategy::Best)?
    };
    let before = spans.time("evaluate", || session.evaluate(&Layout::natural(cfg)))?;
    let after = spans.time("evaluate", || session.evaluate(&layout))?;
    let wall_ms = ms(t0.elapsed());

    let d = DECISIONS[size];
    out.tally.check(is_block_permutation(cfg, &layout), || {
        format!("d{d}: layout is not a block permutation with the entry first")
    });
    out.tally.check(
        pmu_matches_cost(&before, run.pid) && pmu_matches_cost(&after, run.pid),
        || format!("d{d}: PMU disagrees with LayoutCost"),
    );
    Ok(Job {
        size,
        variant,
        src_bytes: src.len(),
        wall_ms,
        blocks: cfg.len(),
        cycles: (before.cycles, after.cycles),
        mispred: (before.cost.mispredicted, after.cost.mispredicted),
        sim_cycles: run.cycles_used + before.cycles + after.cycles,
        installed: layout != Layout::natural(cfg),
    })
}

/// Warm-up and reference check: for one program per size, the split
/// placement equals `Session::place`.
fn check_split_placement(inputs: &Inputs, out: &mut Outcome) {
    for (size, d) in DECISIONS.iter().enumerate() {
        let program = match ct_ir::compile_source(&inputs.sources[size][0]) {
            Ok(p) => p,
            Err(e) => return out.tally.fail(format!("d{d}: {e}")),
        };
        let session = Session::new(
            RunConfig::for_program(program, 0, uniform_adc)
                .invocations(INVOCATIONS)
                .seeded(mix(inputs.seed, 200 + size as u64)),
        );
        let placed = session.collect().and_then(|run| {
            let whole = session.place(&run, &run.truth, Strategy::Best)?;
            let freq = edge_frequencies(run.cfg(), &run.truth).map_err(PipelineError::Frequency)?;
            let split = place_with_confidence(
                run.cfg(),
                &freq,
                1.0,
                MIN_PLACEMENT_CONFIDENCE,
                &session.config().penalties(),
                Strategy::Best,
            );
            Ok(whole == split)
        });
        match placed {
            Ok(same) => out.tally.check(same, || {
                format!("d{d}: split placement differs from Session::place")
            }),
            Err(e) => out.tally.fail(format!("d{d}: {e}")),
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
    check_split_placement(inputs, out);
    // A pass places every program of the corpus once.
    let (done, spans) = closed_loop(
        seconds,
        trace,
        DECISIONS.len() * VARIANTS,
        out,
        resetup,
        |k, spans, out| match job(inputs, k, spans, out) {
            Ok(j) => {
                out.tally.ok();
                Some(j)
            }
            Err(e) => {
                out.tally.fail(format!("wide job {k}: {e}"));
                None
            }
        },
    );

    let n = done.len().max(1) as f64;
    let walls: Vec<f64> = done.iter().map(|j| j.wall_ms).collect();
    // Per program, `size * VARIANTS + variant`: programs of one size differ
    // several-fold in cost, so a size's pooled median would jump between
    // two of them.
    let per_program: Vec<Vec<f64>> = (0..DECISIONS.len() * VARIANTS)
        .map(|p| {
            done.iter()
                .filter(|j| j.size * VARIANTS + j.variant == p)
                .map(|j| j.wall_ms)
                .collect()
        })
        .collect();
    job_figures(out, &per_program);
    let saved_pct = |jobs: &[&Job], f: &dyn Fn(&Job) -> (u64, u64)| {
        let (b, a) = jobs.iter().fold((0u64, 0u64), |acc, j| {
            let (b, a) = f(j);
            (acc.0 + b, acc.1 + a)
        });
        if b > 0 {
            (b as f64 - a as f64) / b as f64 * 100.0
        } else {
            0.0
        }
    };
    let all: Vec<&Job> = done.iter().collect();
    out.set("cycles_saved_pct", saved_pct(&all, &|j| j.cycles));
    out.set("mispred_saved_pct", saved_pct(&all, &|j| j.mispred));
    out.set(
        "place.installed_ratio",
        done.iter().filter(|j| j.installed).count() as f64 / n,
    );

    out.row(format!(
        "{:<10} {:>7} {:>5} {:>10} {:>10} {:>10} {:>11} {:>10}",
        "size", "blocks", "jobs", "p50_ms", "p90_ms", "cycles_%", "mispred_%", "installed"
    ));
    for (s, d) in DECISIONS.iter().enumerate() {
        let mine: Vec<&Job> = done.iter().filter(|j| j.size == s).collect();
        if mine.is_empty() {
            continue;
        }
        // The geometric mean of the size's per-program medians.
        let p50 = geomean(
            &per_program[s * VARIANTS..(s + 1) * VARIANTS]
                .iter()
                .filter(|w| !w.is_empty())
                .map(|w| median(w))
                .collect::<Vec<f64>>(),
        );
        let pooled: Vec<f64> = mine.iter().map(|j| j.wall_ms).collect();
        out.set(JOB_MS[s], p50);
        out.row(format!(
            "{:<10} {:>7.1} {:>5} {:>10.3} {:>10.3} {:>10.3} {:>11.3} {:>10.2}",
            format!("d{d}"),
            mine.iter().map(|j| j.blocks as f64).sum::<f64>() / mine.len() as f64,
            mine.len(),
            p50,
            percentile(&pooled, 0.9),
            saved_pct(&mine, &|j| j.cycles),
            saved_pct(&mine, &|j| j.mispred),
            mine.iter().filter(|j| j.installed).count() as f64 / mine.len() as f64,
        ));
    }
    let geo = out.metrics["job_p50_ms"];
    out.set("wide.geomean_job_ms", geo);
    out.row(format!(
        "{:<10} {:>7} {:>5} {:>10.3}",
        "geomean",
        "",
        done.len(),
        geo
    ));

    if !spans.on() {
        return;
    }
    for (s, metric) in PLACE_MS.iter().enumerate() {
        let calls = done.iter().filter(|j| j.size == s).count().max(1) as f64;
        out.set(metric, ms(spans.total(metric)) / calls);
    }
    let place_total: Duration = PLACE_MS.iter().map(|m| spans.total(m)).sum();
    out.set("cfg.edge_freq_ms", spans.mean_ms("edge_freq"));
    out.set("ir.compile_ms", spans.mean_ms("compile"));
    let bytes: usize = done.iter().map(|j| j.src_bytes).sum();
    out.set(
        "ir.bytes_per_ms",
        bytes as f64 / ms(spans.total("compile")).max(1e-9),
    );
    out.set("pipeline.compile_ms", ms(spans.total("compile")) / n);
    out.set("pipeline.collect_ms", ms(spans.total("collect")) / n);
    out.set(
        "pipeline.place_ms",
        ms(spans.total("edge_freq") + place_total) / n,
    );
    out.set("pipeline.evaluate_ms", ms(spans.total("evaluate")) / n);
    out.set(
        "pipeline.unattributed_ms",
        (walls.iter().sum::<f64>() - ms(spans.attributed())) / n,
    );
    let sim = done.iter().map(|j| j.sim_cycles).sum::<u64>() as f64;
    out.set("mote.sim_cycles", sim / n);
    out.set(
        "mote.ns_per_cycle",
        (spans.total("collect") + spans.total("evaluate")).as_nanos() as f64 / sim.max(1.0),
    );
    out.set("mote.replay_ms", ms(spans.total("evaluate")) / n);
}
