//! Oracle tests: the absorbing-chain queries against the fundamental matrix
//! they no longer form.
//!
//! `AbsorbingAnalysis` keeps the LU factors of `I − Q` and solves for one
//! row of `N = (I − Q)⁻¹` per query. The reference here forms `N` with
//! `Lu::inverse` and `N · R` with `Matrix` multiplication, as the analysis
//! once did, and every answer must match it bit for bit — on the bundled
//! apps (as compiled and with counted loops unrolled), on generated
//! procedures, and on probabilities that include 0, ½ and 1. Where the exit
//! is unreachable, the error must be the same variant with the same witness.

use ct_apps::registry::all_apps;
use ct_apps::synthetic::{random_program, GenConfig};
use ct_cfg::graph::Cfg;
use ct_cfg::profile::BranchProbs;
use ct_cfg::unroll::unroll;
use ct_markov::chain::{ChainError, Dtmc};
use ct_markov::visits::{expected_edge_traversals, expected_visits};
use ct_markov::{chain_from_cfg, AbsorbingAnalysis};
use ct_stats::matrix::Matrix;
use ct_stats::solve::Lu;
use proptest::prelude::*;

/// The fundamental matrix and the absorption matrix, formed in full.
struct Reference {
    transient: Vec<usize>,
    absorbing: Vec<usize>,
    /// `(N, N · R)`; `None` when every state absorbs.
    matrices: Option<(Matrix, Matrix)>,
}

fn reaches_absorption(chain: &Dtmc, from: usize) -> bool {
    let mut seen = vec![false; chain.len()];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(s) = stack.pop() {
        if chain.is_absorbing_state(s) {
            return true;
        }
        for (j, seen_j) in seen.iter_mut().enumerate() {
            if chain.prob(s, j) > 0.0 && !*seen_j {
                *seen_j = true;
                stack.push(j);
            }
        }
    }
    false
}

fn reference(chain: &Dtmc) -> Result<Reference, ChainError> {
    let absorbing = chain.absorbing_states();
    if absorbing.is_empty() {
        return Err(ChainError::NoAbsorbingStates);
    }
    let transient = chain.transient_states();
    if transient.is_empty() {
        return Ok(Reference {
            transient,
            absorbing,
            matrices: None,
        });
    }
    let (t, a) = (transient.len(), absorbing.len());
    let mut i_minus_q = Matrix::identity(t);
    let mut r = Matrix::zeros(t, a);
    for (ti, &si) in transient.iter().enumerate() {
        for (tj, &sj) in transient.iter().enumerate() {
            i_minus_q[(ti, tj)] -= chain.prob(si, sj);
        }
        for (aj, &sj) in absorbing.iter().enumerate() {
            r[(ti, aj)] = chain.prob(si, sj);
        }
    }
    let lu = Lu::factor(&i_minus_q).map_err(|_| {
        let witness = transient
            .iter()
            .copied()
            .find(|&s| !reaches_absorption(chain, s))
            .unwrap_or(transient[0]);
        ChainError::AbsorptionUnreachable { state: witness }
    })?;
    let n = lu
        .inverse()
        .map_err(|e| ChainError::Numeric(e.to_string()))?;
    let nr = &n * &r;
    Ok(Reference {
        transient,
        absorbing,
        matrices: Some((n, nr)),
    })
}

impl Reference {
    fn visits(&self, start: usize, n_states: usize) -> Vec<f64> {
        let mut out = vec![0.0; n_states];
        if let (Some(si), Some((n, _))) = (self.slot(start), &self.matrices) {
            for (tj, &sj) in self.transient.iter().enumerate() {
                out[sj] = n[(si, tj)];
            }
        }
        out
    }

    fn absorption(&self, start: usize) -> Vec<f64> {
        match (self.slot(start), &self.matrices) {
            (Some(si), Some((_, nr))) => nr.row(si).to_vec(),
            _ => self
                .absorbing
                .iter()
                .map(|&s| if s == start { 1.0 } else { 0.0 })
                .collect(),
        }
    }

    fn slot(&self, start: usize) -> Option<usize> {
        self.transient.iter().position(|&s| s == start)
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every `AbsorbingAnalysis` query on `chain` equals the reference bit for
/// bit, or `new` fails with the reference's error. Returns the reference.
fn assert_chain_matches(chain: &Dtmc) -> Result<Result<Reference, ChainError>, TestCaseError> {
    let n = chain.len();
    let (analysis, want) = match (AbsorbingAnalysis::new(chain), reference(chain)) {
        (Ok(analysis), Ok(want)) => (analysis, want),
        (got, want) => {
            let want = want.err();
            prop_assert_eq!(got.err(), want.clone());
            return Ok(Err(want.expect("one side failed")));
        }
    };
    prop_assert_eq!(analysis.transient(), &want.transient[..]);
    prop_assert_eq!(analysis.absorbing(), &want.absorbing[..]);
    // Every start on small chains, a stride through the states on large
    // ones: the reference inverts once, but every query solves again.
    let stride = n.div_ceil(24);
    for start in (0..n).step_by(stride) {
        let visits = want.visits(start, n);
        let absorbed = want.absorption(start);
        prop_assert_eq!(bits(&analysis.expected_visits(start, n)), bits(&visits));
        prop_assert_eq!(bits(&analysis.absorption_probs(start)), bits(&absorbed));
        let (v, a) = analysis.visits_and_absorption(start, n);
        prop_assert_eq!(bits(&v), bits(&visits));
        prop_assert_eq!(bits(&a), bits(&absorbed));
    }
    Ok(Ok(want))
}

/// Every query on `cfg` under `probs` equals the reference bit for bit, or
/// fails with the reference's error.
fn assert_matches_reference(cfg: &Cfg, probs: &BranchProbs) -> Result<(), TestCaseError> {
    let chain = chain_from_cfg(cfg, probs).expect("valid branch probabilities");
    let n = cfg.len();
    let want = match assert_chain_matches(&chain)? {
        Ok(want) => want,
        Err(error) => {
            prop_assert_eq!(expected_visits(cfg, probs).err(), Some(error.clone()));
            prop_assert_eq!(expected_edge_traversals(cfg, probs).err(), Some(error));
            return Ok(());
        }
    };

    // The CFG-level figures, as `visits` once computed them from `N` and
    // `N · R`.
    let entry = cfg.entry().index();
    let mut visits = want.visits(entry, n);
    let absorbed = want.absorption(entry);
    for exit in cfg.exit_blocks() {
        let share = want
            .absorbing
            .iter()
            .position(|&s| s == exit.index())
            .map(|i| absorbed[i])
            .unwrap_or(0.0);
        visits[exit.index()] = 1.0 * share;
    }
    let edge_probs = probs.edge_probs(cfg);
    let traversals: Vec<f64> = cfg
        .edges()
        .iter()
        .map(|e| visits[e.from.index()] * edge_probs[e.index])
        .collect();
    prop_assert_eq!(
        bits(&expected_visits(cfg, probs).expect("reference solved")),
        bits(&visits)
    );
    prop_assert_eq!(
        bits(&expected_edge_traversals(cfg, probs).expect("reference solved")),
        bits(&traversals)
    );
    Ok(())
}

/// Maps a code to a branch probability: 0, ½ and 1 come up often, the rest
/// spread over (0, 1).
fn prob(code: u32) -> f64 {
    match code % 8 {
        0 => 0.0,
        1 => 0.5,
        2 => 1.0,
        _ => f64::from(code % 997 + 1) / 999.0,
    }
}

fn probs_from_codes(cfg: &Cfg, codes: &[u32]) -> BranchProbs {
    let branches = cfg.branch_blocks().len();
    let p = (0..branches)
        .map(|i| prob(codes[i % codes.len()].wrapping_add((i / codes.len()) as u32)))
        .collect();
    BranchProbs::from_vec(cfg, p)
}

/// The bundled apps' target procedures, as compiled and with their counted
/// loops unrolled.
fn app_cfgs() -> Vec<Cfg> {
    let mut cfgs = Vec::new();
    for app in all_apps() {
        let program = app.compile();
        let proc = program.proc(app.target_id(&program));
        if !proc.counted_loops.is_empty() {
            cfgs.push(
                unroll(&proc.cfg, &proc.counted_loops)
                    .expect("counted loops unroll")
                    .cfg,
            );
        }
        cfgs.push(proc.cfg.clone());
    }
    cfgs
}

#[test]
fn bundled_apps_match_the_reference() {
    let cfgs = app_cfgs();
    assert!(cfgs.len() > all_apps().len(), "some app has counted loops");
    for cfg in &cfgs {
        for probs in [
            BranchProbs::uniform(cfg, 0.5),
            probs_from_codes(cfg, &[3, 4, 5, 6, 7]),
            probs_from_codes(cfg, &[0, 1, 2, 3]),
            probs_from_codes(cfg, &[2, 10, 2, 11]),
        ] {
            assert_matches_reference(cfg, &probs).expect("matches the reference");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The apps' graphs of up to 100 blocks; the one larger unrolled graph
    /// runs in `bundled_apps_match_the_reference`.
    #[test]
    fn bundled_apps_match_the_reference_on_random_probabilities(
        codes in proptest::collection::vec(0u32..4_000, 1..16),
    ) {
        for cfg in app_cfgs().iter().filter(|c| c.len() <= 100) {
            assert_matches_reference(cfg, &probs_from_codes(cfg, &codes))?;
        }
    }

    #[test]
    fn generated_procedures_match_the_reference(
        seed in 0u64..1_000,
        decisions in 1usize..=48,
        codes in proptest::collection::vec(0u32..4_000, 1..32),
    ) {
        let program = random_program(
            seed,
            GenConfig {
                decisions,
                max_depth: 3,
                loop_share: 0.25,
            },
        );
        let pid = program.proc_id("target").expect("generated module has target()");
        let cfg = &program.proc(pid).cfg;
        assert_matches_reference(cfg, &probs_from_codes(cfg, &codes))?;
    }
}

/// A random chain of `n` states whose last `absorbing` states absorb; each
/// transient row spreads its mass over a few targets, with 0, ½ and 1 among
/// the probabilities. Absorption rows then sum over many transient states,
/// which CFGs (one or two predecessors per exit) rarely exercise.
fn random_chain(n: usize, absorbing: usize, codes: &[u32]) -> Dtmc {
    let mut p = Matrix::zeros(n, n);
    let transient = n - absorbing;
    for i in 0..n {
        if i >= transient {
            p[(i, i)] = 1.0;
            continue;
        }
        let code = |k: usize| codes[(i * 3 + k) % codes.len()].wrapping_add(k as u32);
        match code(0) % 4 {
            0 => p[(i, code(1) as usize % n)] = 1.0,
            1 => {
                p[(i, code(1) as usize % n)] += 0.5;
                p[(i, code(2) as usize % n)] += 0.5;
            }
            _ => {
                let w: Vec<f64> = (1..=3).map(|k| f64::from(code(k) % 97 + 1)).collect();
                let total: f64 = w.iter().sum();
                for (k, wk) in w.iter().enumerate() {
                    p[(i, code(k + 4) as usize % n)] += wk / total;
                }
            }
        }
    }
    Dtmc::new(p).expect("rows are stochastic")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_chains_match_the_reference(
        n in 2usize..40,
        absorbing in 1usize..4,
        codes in proptest::collection::vec(0u32..10_000, 1..64),
    ) {
        // Solved or failed, the outcome was checked against the reference.
        let _ = assert_chain_matches(&random_chain(n, absorbing.min(n - 1), &codes))?;
    }
}

/// An unreachable exit reports the same witness state as the reference.
#[test]
fn unreachable_exit_reports_the_reference_witness() {
    let mut seen_error = false;
    for cfg in app_cfgs() {
        let probs = probs_from_codes(&cfg, &[2]);
        let chain = chain_from_cfg(&cfg, &probs).expect("valid branch probabilities");
        let want = reference(&chain).err();
        seen_error |= matches!(want, Some(ChainError::AbsorptionUnreachable { .. }));
        assert_eq!(AbsorbingAnalysis::new(&chain).err(), want);
        assert_eq!(expected_visits(&cfg, &probs).err(), want);
    }
    assert!(
        seen_error,
        "some app loops forever when every branch is taken"
    );
}
