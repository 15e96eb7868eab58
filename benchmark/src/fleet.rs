//! `fleet_ingest`: the sharded estimation service under an open-loop
//! generator.
//!
//! One generator thread offers pre-built 4-tick `SuffStats` deltas of
//! `diamond_chain_problem(2)` (about 25% delivered twice, as in e16) to an
//! `EstimationService` with the default `ServiceConfig::new()`. One
//! coordinator thread reduces and serves `EstimateRequest::latest` at a
//! fixed cadence. ct-service and warm-started EM do the work; the mote and
//! placement layers are bypassed.
//!
//! A run alternates two kinds of session, each a fresh service. Closed-loop
//! capacity sub-runs ingest as fast as blocking backpressure lets them,
//! which gives the highest rate the service sustains without a growing
//! backlog (`jobs_per_s` here). Open-loop sessions offer batches at a fixed
//! rate, each timed from its due time; the reference rate gives the job
//! latency percentiles.

use crate::common::{median, mix, ms, percentile, percentile_sorted, Outcome};
use ct_apps::synthetic::diamond_chain_problem;
use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;
use ct_core::em::{EmOptions, EmResult};
use ct_core::stream::{BatchTag, SuffStats};
use ct_core::IncrementalEm;
use ct_faults::{MoteFaultKind, MoteFaultPlan};
use ct_pipeline::synth::synth_samples;
use ct_service::{
    EstimateRequest, EstimateResponse, EstimationService, IngestError, IngestHandle, ServiceConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Ticks per delivered batch, as in e16.
const BATCH_LEN: usize = 4;
/// Distinct pre-built payloads; batch `i` carries payload `i % POOL`.
const POOL: usize = 8_192;
/// Fixed offered rates of the open-loop part, batches per second.
const RATES: [f64; 3] = [20_000.0, 50_000.0, 100_000.0];
/// The rate whose latencies are the workload's job latencies.
const REF_RATE: usize = 0;
/// Latency limit on the 99th percentile of ingest latency from due time.
const P99_LIMIT_US: f64 = 2_000.0;
/// Deliveries per capacity sub-run (fewer if its time share runs out).
const CAPACITY_DELIVERIES: u64 = 150_000;
/// Rounds of one capacity sub-run and one reference-rate session each,
/// spread through the run so both sample many CPU-speed phases.
const ROUNDS: usize = 32;
/// Each open-loop session's share of the run time.
const RATE_SHARE: f64 = 0.012;
/// The coordinator serves `EstimateRequest::latest` this often.
const SERVE_EVERY: Duration = Duration::from_millis(20);
/// The coordinator reduces at least this often, and sooner once
/// `reduce_every` batches are queued.
const REDUCE_WAIT: Duration = Duration::from_millis(5);
/// The coordinator's polling interval.
const POLL: Duration = Duration::from_millis(1);

pub struct Inputs {
    cfg: Cfg,
    bc: Vec<u64>,
    ec: Vec<u64>,
    truth: BranchProbs,
    payloads: Vec<SuffStats>,
    cpt: u64,
    dups: MoteFaultPlan,
}

pub fn setup(seed: u64) -> Inputs {
    let (cfg, bc, ec, truth) = diamond_chain_problem(2, mix(seed, 30));
    let samples = synth_samples(&cfg, &bc, &ec, &truth, POOL * BATCH_LEN, mix(seed, 31));
    let cpt = samples.cycles_per_tick();
    let payloads = samples
        .ticks()
        .chunks(BATCH_LEN)
        .map(|chunk| {
            let mut s = SuffStats::new(cpt);
            chunk.iter().for_each(|&t| s.push(t));
            s
        })
        .collect();
    Inputs {
        cfg,
        bc,
        ec,
        truth,
        payloads,
        cpt,
        dups: MoteFaultPlan::single(MoteFaultKind::DuplicateDelivery, 0.25, mix(seed, 32)),
    }
}

impl Inputs {
    /// Distinct batch `i`: its tag, payload, and whether it is delivered
    /// twice (at-least-once transport).
    fn batch(&self, i: u64) -> (BatchTag, &SuffStats, bool) {
        let tag = BatchTag { mote: i, seq: 0 };
        let dup = self.dups.outcome(i, 0).duplicate_delivery;
        (tag, &self.payloads[i as usize % POOL], dup)
    }

    /// The monolithic fold of the first `n` distinct batches.
    fn folded(&self, n: u64) -> SuffStats {
        let mut s = SuffStats::new(self.cpt);
        for i in 0..n {
            s.merge(&self.payloads[i as usize % POOL])
                .expect("one resolution throughout");
        }
        s
    }
}

#[derive(Clone, Copy)]
enum Offer {
    /// Blocking ingest as fast as backpressure allows.
    Closed { deliveries: u64, within: Duration },
    /// Non-blocking ingest on a fixed schedule.
    Open { rate: f64, within: Duration },
}

/// What the generator saw.
#[derive(Default)]
struct Generated {
    distinct: u64,
    deliveries: u64,
    /// Ingest latency from due time, microseconds (open loop only).
    latency_us: Vec<f64>,
    /// How late the generator sent, microseconds (open loop only).
    lag_us: Vec<f64>,
    /// Time inside ingest calls (timed when traced or open loop).
    busy: Duration,
    queue_full: u64,
    closed: u64,
    wall: Duration,
}

/// What the coordinator saw.
#[derive(Default)]
struct Coordinated {
    reduces: u64,
    nonempty_reduces: u64,
    reduced_batches: u64,
    reduce_time: Duration,
    serves: Vec<(EstimateResponse, Duration)>,
    drain: Duration,
    final_serve: Duration,
    errors: Vec<String>,
}

fn generate(inputs: &Inputs, handle: &IngestHandle, offer: Offer, timed: bool) -> Generated {
    let mut g = Generated::default();
    if let Offer::Open { rate, within } = offer {
        // Sized up front: growing by doubling would make peak memory
        // depend on allocator timing.
        let n = (rate * within.as_secs_f64()).ceil() as usize + 2;
        g.latency_us.reserve_exact(n);
        g.lag_us.reserve_exact(n);
    }
    let started = Instant::now();
    loop {
        // Stop only between distinct batches, so a duplicate pair is never
        // split across the end of the offer.
        let stop = match offer {
            Offer::Closed { deliveries, within } => {
                g.deliveries >= deliveries || started.elapsed() >= within
            }
            Offer::Open { rate, within } => g.deliveries as f64 / rate >= within.as_secs_f64(),
        };
        if stop {
            break;
        }
        let (tag, payload, dup) = inputs.batch(g.distinct);
        for _ in 0..1 + usize::from(dup) {
            match offer {
                Offer::Closed { .. } => {
                    let t0 = timed.then(Instant::now);
                    if handle.ingest(tag, payload.clone()).is_err() {
                        g.closed += 1;
                    }
                    if let Some(t0) = t0 {
                        g.busy += t0.elapsed();
                    }
                }
                Offer::Open { rate, .. } => {
                    let due = started + Duration::from_secs_f64(g.deliveries as f64 / rate);
                    let mut now = Instant::now();
                    // Spin rather than yield: a yield hands the core to a
                    // shard worker right at the due time, and the latency
                    // would then measure the scheduler.
                    while now < due {
                        std::hint::spin_loop();
                        now = Instant::now();
                    }
                    let sent = now;
                    loop {
                        match handle.try_ingest(tag, payload.clone()) {
                            Ok(()) => break,
                            // Nothing is dropped: the batch is offered again.
                            Err(IngestError::QueueFull { .. }) => {
                                g.queue_full += 1;
                                std::thread::yield_now();
                            }
                            Err(IngestError::Closed { .. }) => {
                                g.closed += 1;
                                break;
                            }
                        }
                    }
                    let done = Instant::now();
                    g.busy += done - sent;
                    g.latency_us.push((done - due).as_secs_f64() * 1e6);
                    g.lag_us.push((sent - due).as_secs_f64() * 1e6);
                }
            }
            g.deliveries += 1;
        }
        g.distinct += 1;
    }
    g.wall = started.elapsed();
    g
}

fn coordinate(inputs: &Inputs, svc: &mut EstimationService, done: &AtomicBool) -> Coordinated {
    let mut c = Coordinated::default();
    let handle = svc.handle();
    let reduce_every = ServiceConfig::new().reduce_every;
    let req = EstimateRequest::latest("diamond_chain");
    let mut last_reduce = Instant::now();
    let mut next_serve = Instant::now() + SERVE_EVERY;
    while !done.load(Ordering::Acquire) {
        let now = Instant::now();
        if handle.queued() >= reduce_every || now - last_reduce >= REDUCE_WAIT {
            match svc.reduce() {
                Ok(fresh) => {
                    c.reduces += 1;
                    if fresh > 0 {
                        c.nonempty_reduces += 1;
                        c.reduced_batches += fresh;
                    }
                }
                Err(e) => c.errors.push(format!("reduce: {e}")),
            }
            last_reduce = Instant::now();
            c.reduce_time += last_reduce - now;
        }
        if now >= next_serve {
            next_serve += SERVE_EVERY;
            serve(inputs, svc, &req, &mut c);
        }
        std::thread::sleep(POLL);
    }
    let t0 = Instant::now();
    match svc.drain() {
        Ok(fresh) => {
            if fresh > 0 {
                c.nonempty_reduces += 1;
                c.reduced_batches += fresh;
            }
        }
        Err(e) => c.errors.push(format!("drain: {e}")),
    }
    c.drain = t0.elapsed();
    let t0 = Instant::now();
    serve(inputs, svc, &req, &mut c);
    c.final_serve = t0.elapsed();
    c
}

fn serve(inputs: &Inputs, svc: &mut EstimationService, req: &EstimateRequest, c: &mut Coordinated) {
    let t0 = Instant::now();
    match svc.serve(req, &inputs.cfg, &inputs.bc, &inputs.ec) {
        Ok(r) => c.serves.push((r, t0.elapsed())),
        // Before the first reduce there is nothing to serve yet.
        Err(ct_service::ServiceError::NoBatches) => {}
        Err(e) => c.errors.push(format!("serve: {e}")),
    }
}

/// One service lifetime: start, offer and coordinate concurrently, drain,
/// serve, check, shut down.
struct Session {
    g: Generated,
    c: Coordinated,
    /// First offer to the end of the drain.
    wall: Duration,
}

fn session(inputs: &Inputs, offer: Offer, timed: bool, out: &mut Outcome) -> Session {
    let mut svc = EstimationService::start(&ServiceConfig::new(), inputs.cpt, EmOptions::default());
    let handle = svc.handle();
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (g, c) = std::thread::scope(|s| {
        let done = &done;
        let generator = s.spawn(move || {
            let g = generate(inputs, &handle, offer, timed);
            done.store(true, Ordering::Release);
            g
        });
        let c = coordinate(inputs, &mut svc, done);
        (generator.join().expect("generator thread panicked"), c)
    });
    let wall = started.elapsed().saturating_sub(c.final_serve);
    check(inputs, &svc, &g, &c, out);
    if let Err(e) = svc.shutdown() {
        out.tally.fail(format!("shutdown: {e}"));
    }
    Session { g, c, wall }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every distinct batch is absorbed exactly once, and the final served
/// estimate is bit for bit the monolithic `IncrementalEm` fold of the same
/// batches, warm-started where the service's last estimate started.
fn check(
    inputs: &Inputs,
    svc: &EstimationService,
    g: &Generated,
    c: &Coordinated,
    out: &mut Outcome,
) {
    let t = &mut out.tally;
    t.attempted += g.deliveries + c.serves.len() as u64;
    t.failed += g.closed;
    if g.closed > 0 {
        t.problems
            .push(format!("{} ingests found the service closed", g.closed));
    }
    for e in &c.errors {
        t.fail(e.clone());
    }
    t.check(svc.batches() == g.distinct, || {
        format!(
            "absorbed {} batches, offered {} distinct",
            svc.batches(),
            g.distinct
        )
    });
    let folded = inputs.folded(g.distinct);
    t.check(svc.stats() == &folded, || {
        "service statistics differ from the monolithic fold".into()
    });
    let Some((last, _)) = c.serves.last() else {
        return t.fail("no estimate was served after the drain");
    };
    t.check(last.batches == g.distinct && last.staleness == 0, || {
        format!(
            "final serve: {} batches, staleness {}",
            last.batches, last.staleness
        )
    });
    // The estimate of the final generation warm-started from the estimate
    // of the latest earlier generation that was served, if any.
    let warm = c
        .serves
        .iter()
        .rev()
        .find(|(r, _)| r.generation < last.generation)
        .map(|(r, _)| EmResult {
            probs: BranchProbs::from_vec(&inputs.cfg, r.probs.clone()),
            iterations: r.iterations,
            loglik: r.loglik,
            converged: r.converged,
            final_delta: 0.0,
            unexplained: 0,
            edge_counts: Vec::new(),
            rewound: false,
        });
    let mut inc = IncrementalEm::restore(folded, warm, g.distinct, EmOptions::default());
    match inc.reestimate(&inputs.cfg, &inputs.bc, &inputs.ec) {
        Ok(r) => t.check(
            bits(&last.probs) == bits(r.probs.as_slice())
                && last.loglik.to_bits() == r.loglik.to_bits()
                && last.iterations == r.iterations
                && last.converged == r.converged,
            || "served estimate differs from the monolithic IncrementalEm fold".into(),
        ),
        Err(e) => t.fail(format!("reference estimate: {e}")),
    }
}

/// One open-loop rate, pooled over its sessions; the samples are sorted in
/// place once every session has run.
#[derive(Default)]
struct RateAcc {
    latency_us: Vec<f64>,
    /// Each session's median latency, microseconds.
    session_p50_us: Vec<f64>,
    lag_us: Vec<f64>,
    deliveries: u64,
    busy: Duration,
    queue_full: u64,
    staleness_max: u64,
}

impl RateAcc {
    /// Meets the latency limit with a bounded backlog and nothing refused.
    fn ok(&self) -> bool {
        let cfg = ServiceConfig::new();
        let backlog_bound = (cfg.shards * cfg.queue_depth) as u64 + cfg.reduce_every;
        percentile_sorted(&self.latency_us, 0.99) <= P99_LIMIT_US
            && self.queue_full == 0
            && self.staleness_max <= backlog_bound
    }
}

/// Serve figures pooled over the open-loop sessions.
#[derive(Default)]
struct Serves {
    ms: Vec<f64>,
    em_ms: Vec<f64>,
    replays: usize,
}

impl Serves {
    /// Periodic serves (the post-drain serve excluded); a serve of the same
    /// generation as the previous one replays the cached estimate.
    fn add(&mut self, c: &Coordinated) -> u64 {
        let periodic = &c.serves[..c.serves.len().saturating_sub(1)];
        let mut prev = None;
        for (r, d) in periodic {
            self.ms.push(ms(*d));
            if prev == Some(r.generation) {
                self.replays += 1;
            } else {
                self.em_ms.push(ms(*d));
            }
            prev = Some(r.generation);
        }
        periodic.iter().map(|(r, _)| r.staleness).max().unwrap_or(0)
    }
}

pub fn run(
    inputs: &Inputs,
    seconds: f64,
    trace: bool,
    resetup: &mut dyn FnMut(),
    out: &mut Outcome,
) {
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    let cap_offer = Offer::Closed {
        deliveries: CAPACITY_DELIVERIES,
        within: share(0.02),
    };
    // Capacity sub-runs and reference-rate sessions alternate through the
    // run, then the other rates run once each. Traced, odd capacity
    // sub-runs are timed and the capacity ratio is the tracing overhead.
    let mut steps: Vec<(Option<usize>, bool)> = Vec::new();
    for r in 0..ROUNDS {
        steps.push((None, trace && r % 2 == 1));
        steps.push((Some(REF_RATE), trace));
    }
    steps.extend(
        (0..RATES.len())
            .filter(|&k| k != REF_RATE)
            .map(|k| (Some(k), trace)),
    );

    // Capacity is the median sub-run's rate, deliveries over time. One
    // sub-run's rate swings by a third with where the scheduler places six
    // threads on two cores and with the CPU-speed phase of a shared host;
    // the sub-runs are spread through the run, and the median holds while
    // fewer than half of them are hit.
    let (mut plain, mut traced): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut cap_deliveries = 0;
    let mut rates: Vec<RateAcc> = RATES.iter().map(|_| RateAcc::default()).collect();
    let ref_n = (RATES[REF_RATE] * seconds * RATE_SHARE).ceil() as usize + 2;
    rates[REF_RATE].latency_us.reserve_exact(ROUNDS * ref_n);
    rates[REF_RATE].lag_us.reserve_exact(ROUNDS * ref_n);
    let mut serves = Serves::default();
    let mut wmae = Vec::new();
    let mut timed_sessions = Vec::new();
    let mut cap_outside = (0u64, Duration::ZERO);
    for (rate, timed) in steps {
        // Between sessions, outside every timed span.
        resetup();
        match rate {
            None => {
                let s = session(inputs, cap_offer, timed, out);
                let sub_runs = if timed { &mut traced } else { &mut plain };
                sub_runs.push(s.g.deliveries as f64 / s.wall.as_secs_f64());
                cap_deliveries += s.g.deliveries;
                if timed {
                    cap_outside.0 += s.g.deliveries;
                    cap_outside.1 += s.g.wall.saturating_sub(s.g.busy);
                    timed_sessions.push(s);
                }
            }
            Some(k) => {
                let offer = Offer::Open {
                    rate: RATES[k],
                    within: share(RATE_SHARE),
                };
                let s = session(inputs, offer, timed, out);
                let acc = &mut rates[k];
                acc.session_p50_us.push(percentile(&s.g.latency_us, 0.5));
                acc.latency_us.extend_from_slice(&s.g.latency_us);
                acc.lag_us.extend_from_slice(&s.g.lag_us);
                acc.deliveries += s.g.deliveries;
                acc.busy += s.g.busy;
                acc.queue_full += s.g.queue_full;
                acc.staleness_max = acc.staleness_max.max(serves.add(&s.c));
                if let (true, Some((last, _))) = (k == REF_RATE, s.c.serves.last()) {
                    let est = BranchProbs::from_vec(&inputs.cfg, last.probs.clone());
                    wmae.push(ct_core::compare_unweighted(&est, &inputs.truth).weighted_mae);
                }
                if timed {
                    timed_sessions.push(s);
                }
            }
        }
    }
    let capacity = median(&plain);
    // Sorted in place: a sorted copy of half a million samples per
    // percentile would make peak memory depend on the allocator's history.
    for acc in &mut rates {
        acc.latency_us.sort_unstable_by(f64::total_cmp);
        acc.lag_us.sort_unstable_by(f64::total_cmp);
    }
    let reference = &rates[REF_RATE];
    let lat = &reference.latency_us;
    out.set("jobs_per_s", capacity);
    // Percentiles over sessions of each session's median: on a shared host
    // the generator or a shard worker is now and then stalled long enough
    // to lift a tenth of a session's latencies 3 to 200 times, in more
    // than half of a run's sessions at times, so a 90th percentile of
    // single latencies measures the host. A session's median holds.
    let session_p50 = &reference.session_p50_us;
    out.set("job_p50_ms", percentile(session_p50, 0.5) / 1e3);
    out.set("job_p90_ms", percentile(session_p50, 0.9) / 1e3);
    out.set("job_samples", lat.len() as f64);
    out.set("ingest_p50_us", percentile_sorted(lat, 0.5));
    out.set("ingest_p99_us", percentile_sorted(lat, 0.99));
    out.set(
        "ingest_max_rate",
        RATES
            .iter()
            .zip(&rates)
            .filter(|(_, acc)| acc.ok())
            .map(|(r, _)| *r)
            .fold(0.0, f64::max),
    );
    out.set("serve_p50_ms", percentile(&serves.ms, 0.5));
    out.set("serve_p90_ms", percentile(&serves.ms, 0.9));
    out.set("est_wmae", crate::common::mean(&wmae));

    out.row(format!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>11} {:>10} {:>10}  ok",
        "offered/s",
        "batches",
        "p50_us",
        "p90_us",
        "p99_us",
        "lag_p99_us",
        "staleness",
        "queue_full"
    ));
    out.row(format!(
        "{:<12} {:>9}  capacity, median of {} closed-loop sub-runs: {:.0} batches/s",
        "max",
        cap_deliveries,
        plain.len(),
        capacity
    ));
    for (rate, acc) in RATES.iter().zip(&rates) {
        out.row(format!(
            "{:<12} {:>9} {:>9.2} {:>9.2} {:>9.2} {:>11.2} {:>10} {:>10}  {}",
            rate,
            acc.deliveries,
            percentile_sorted(&acc.latency_us, 0.5),
            percentile_sorted(&acc.latency_us, 0.9),
            percentile_sorted(&acc.latency_us, 0.99),
            percentile_sorted(&acc.lag_us, 0.99),
            acc.staleness_max,
            acc.queue_full,
            acc.ok()
        ));
    }

    if !trace {
        return;
    }
    out.set(
        "trace.overhead_pct",
        (capacity / median(&traced) - 1.0) * 100.0,
    );
    let sum = |f: &dyn Fn(&Session) -> f64| timed_sessions.iter().map(f).sum::<f64>();
    let deliveries = sum(&|s| s.g.deliveries as f64);
    out.set(
        "svc.ingest_us",
        reference.busy.as_secs_f64() * 1e6 / reference.deliveries.max(1) as f64,
    );
    out.set("gen.lag_p99_us", percentile_sorted(&reference.lag_us, 0.99));
    out.set(
        "svc.queue_full",
        rates.iter().map(|r| r.queue_full as f64).sum(),
    );
    out.set(
        "svc.reduce_ms",
        sum(&|s| ms(s.c.reduce_time)) / sum(&|s| s.c.reduces as f64).max(1.0),
    );
    out.set(
        "svc.batches_per_reduce",
        sum(&|s| s.c.reduced_batches as f64) / sum(&|s| s.c.nonempty_reduces as f64).max(1.0),
    );
    out.set(
        "svc.dedup_ratio",
        (deliveries - sum(&|s| s.g.distinct as f64)) / deliveries.max(1.0),
    );
    out.set(
        "svc.staleness_max",
        rates
            .iter()
            .map(|r| r.staleness_max as f64)
            .fold(0.0, f64::max),
    );
    out.set("svc.serve_em_ms", crate::common::mean(&serves.em_ms));
    out.set(
        "svc.serve_replay_ratio",
        serves.replays as f64 / serves.ms.len().max(1) as f64,
    );
    out.set(
        "svc.drain_ms",
        sum(&|s| ms(s.c.drain)) / timed_sessions.len().max(1) as f64,
    );
    // Generator time outside ingest calls, per delivery, in the traced
    // capacity sub-runs: taking the next batch and cloning its payload.
    out.set(
        "pipeline.unattributed_ms",
        ms(cap_outside.1) / cap_outside.0.max(1) as f64,
    );
}
