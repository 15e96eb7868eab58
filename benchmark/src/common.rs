//! Shared pieces of every workload: seeds, span accounting, percentiles,
//! the metric ledger and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: derives independent sub-seeds from the run seed, so the same
/// `--seed` always builds the same inputs.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`mix`]).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of an unsorted sample (`q` in 0..=1); 0 for an
/// empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

/// [`percentile`] of an already sorted sample, without copying it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        mean(&logs).exp()
    }
}

/// Runs a closed loop of jobs `0..` in whole passes of `pass` jobs for
/// `seconds`, and returns the finished jobs and the spans recorded. `job`
/// returns `None` for a job that failed. `resetup` runs between passes; its
/// time counts neither toward the wall time nor toward `seconds`.
///
/// Traced, the loop runs half the time untraced, then exactly as many jobs
/// again with spans on; the wall-time ratio minus 1 is
/// `trace.overhead_pct`, and the traced jobs are returned.
pub fn closed_loop<J>(
    seconds: f64,
    trace: bool,
    pass: usize,
    out: &mut Outcome,
    resetup: &mut dyn FnMut(),
    mut job: impl FnMut(usize, &mut Spans, &mut Outcome) -> Option<J>,
) -> (Vec<J>, Spans) {
    let mut run = |spans: &mut Spans, out: &mut Outcome, deadline: Instant, limit: usize| {
        let mut done = Vec::new();
        let started = Instant::now();
        let mut aside = Duration::ZERO;
        let mut k = 0;
        while k < limit && (k % pass != 0 || Instant::now() < deadline + aside) {
            if k > 0 && k % pass == 0 {
                let t = Instant::now();
                resetup();
                aside += t.elapsed();
            }
            done.extend(job(k, spans, out));
            k += 1;
        }
        (done, k, started.elapsed() - aside)
    };
    let budget = Duration::from_secs_f64(seconds);
    if !trace {
        let mut spans = Spans::new(false);
        let (done, _, _) = run(&mut spans, out, Instant::now() + budget, usize::MAX);
        return (done, spans);
    }
    let (_, jobs, plain_wall) = run(
        &mut Spans::new(false),
        out,
        Instant::now() + budget / 2,
        usize::MAX,
    );
    let mut spans = Spans::new(true);
    let (done, _, wall) = run(&mut spans, out, Instant::now() + budget, jobs);
    out.set(
        "trace.overhead_pct",
        (wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0) * 100.0,
    );
    (done, spans)
}

/// Sets the job throughput and latency figures of a closed-loop run made
/// of whole passes over the workload's programs, each from the programs'
/// median job times. On a shared host, CPU speed moves with the neighbours'
/// load, and a mean over the run moves with the share of slow phases the
/// run happened to get; a median holds while that share stays under half.
///
/// `jobs_per_s` is the rate of a pass in which every job takes its
/// program's median time. `job_p50_ms` is the geometric mean of the
/// medians: programs differ in cost by up to 60x, so the pooled median
/// would sit on the boundary between two of them and jump with a single
/// job. `job_p90_ms` is the 90th percentile of the medians, each program
/// weighing the same as it does in a pass.
pub fn job_figures(out: &mut Outcome, per_program: &[Vec<f64>]) {
    let medians: Vec<f64> = per_program
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(w))
        .collect();
    out.set(
        "jobs_per_s",
        medians.len() as f64 * 1e3 / medians.iter().sum::<f64>(),
    );
    out.set("job_p50_ms", geomean(&medians));
    out.set("job_p90_ms", percentile(&medians, 0.9));
    out.set(
        "job_samples",
        per_program.iter().map(Vec::len).sum::<usize>() as f64,
    );
}

/// Span accounting for the traced run. Spans are recorded only from the
/// benchmark's own code, around its calls into a layer's public functions;
/// with tracing off, [`Spans::time`] is a plain call.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    total: BTreeMap<&'static str, (u64, Duration)>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            total: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside the span `name` when tracing is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed());
        out
    }

    fn add(&mut self, name: &'static str, d: Duration) {
        let e = self.total.entry(name).or_default();
        e.0 += 1;
        e.1 += d;
    }

    /// Total time inside `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.total.get(name).map_or(Duration::ZERO, |e| e.1)
    }

    /// Calls recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.total.get(name).map_or(0, |e| e.0)
    }

    /// Mean milliseconds per call of `name` (0 when never called).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => ms(self.total(name)) / n as f64,
        }
    }

    /// Time inside every span: the attributed part of the traced wall time.
    pub fn attributed(&self) -> Duration {
        self.total.values().map(|e| e.1).sum()
    }
}

/// Operations attempted and failed, and whether every output check held.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that failed, keeping the first reasons.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why.into());
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if holds {
            self.ok();
        } else {
            self.fail(what());
        }
    }
}

/// One workload run's results: the timed figures, per-program rows for the
/// human-readable table, and the tally.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Table rows printed before the result line.
    pub rows: Vec<String>,
    pub tally: Tally,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn row(&mut self, line: String) {
        self.rows.push(line);
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up timings spread through a run. CPU speed on a shared host moves
/// between phases that last a fraction of a second to a few seconds, so
/// set-ups timed back to back all land in one phase; `setup_s` is instead
/// the median of a few set-ups at the start and one more between passes,
/// at most once every [`SetupClock::EVERY`], for the whole run.
pub struct SetupClock<F> {
    build: F,
    secs: Vec<f64>,
    last: Instant,
}

impl<T, F: FnMut() -> T> SetupClock<F> {
    /// Least time between two set-ups timed during the run.
    pub const EVERY: Duration = Duration::from_millis(500);

    pub fn new(build: F) -> Self {
        SetupClock {
            build,
            secs: Vec::new(),
            last: Instant::now(),
        }
    }

    fn timed(&mut self) -> T {
        let started = Instant::now();
        let inputs = (self.build)();
        self.last = Instant::now();
        self.secs.push((self.last - started).as_secs_f64());
        inputs
    }

    /// Times `reps` set-ups back to back and returns the last one's inputs.
    pub fn initial(&mut self, reps: usize) -> T {
        for _ in 1..reps {
            // Dropped at once, so peak memory holds one copy.
            drop(self.timed());
        }
        self.timed()
    }

    /// Times one more set-up, whose inputs are dropped, if `EVERY` has
    /// passed since the last one.
    pub fn resample(&mut self) {
        if self.last.elapsed() >= Self::EVERY {
            drop(self.timed());
        }
    }

    /// Median set-up time in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.secs)
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its unit.
pub fn result_line(tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
