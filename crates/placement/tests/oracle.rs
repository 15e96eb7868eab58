//! Oracle tests: the placement passes against the quadratic-and-worse
//! implementations they replaced, kept here verbatim as references.
//!
//! Pettis–Hansen's chain concatenation used to rescan every edge for every
//! candidate chain in every round, and trace growing used to filter every
//! edge for every placed block. The library does both incrementally; these
//! tests pin that the layouts are identical, including the tie-breaks and
//! the handling of zero, −0.0 and NaN weights.

use ct_apps::synthetic::{random_source, GenConfig};
use ct_cfg::builder::{diamond, diamond_chain, irreducible, linear, nested_loops, while_loop};
use ct_cfg::dominators::Dominators;
use ct_cfg::graph::{BlockId, Cfg, Terminator};
use ct_cfg::layout::Layout;
use ct_placement::chains::ChainSet;
use ct_placement::{greedy_traces, pettis_hansen, pettis_hansen_raw};
use proptest::prelude::*;

fn oracle_pettis_hansen(cfg: &Cfg, edge_weights: &[f64]) -> Layout {
    let dom = Dominators::compute(cfg);
    let back_edge: Vec<bool> = cfg
        .edges()
        .iter()
        .map(|e| dom.dominates(e.to, e.from))
        .collect();
    oracle_ph_with_filter(cfg, edge_weights, &back_edge)
}

fn oracle_pettis_hansen_raw(cfg: &Cfg, edge_weights: &[f64]) -> Layout {
    let no_filter = vec![false; cfg.edges().len()];
    oracle_ph_with_filter(cfg, edge_weights, &no_filter)
}

fn oracle_ph_with_filter(cfg: &Cfg, edge_weights: &[f64], skip_edge: &[bool]) -> Layout {
    let edges = cfg.edges();
    assert_eq!(
        edge_weights.len(),
        edges.len(),
        "one weight per edge required"
    );
    assert!(!cfg.is_empty(), "empty CFG");

    // Hottest-first, deterministic tie-break on edge index.
    let mut order: Vec<usize> = (0..edges.len()).collect();
    // `total_cmp`: a NaN weight (upstream numeric mishap) must not panic a
    // placement pass — it just sorts deterministically.
    order.sort_by(|&a, &b| edge_weights[b].total_cmp(&edge_weights[a]).then(a.cmp(&b)));

    let mut chains = ChainSet::singletons(cfg.len());
    for ei in order {
        if edge_weights[ei] <= 0.0 {
            break; // cold edges cannot justify a merge
        }
        let e = edges[ei];
        if e.from == e.to || skip_edge[ei] {
            continue; // self loops / filtered back edges can never help
        }
        chains.merge(e.from, e.to);
    }

    // Concatenate chains: entry chain first, then repeatedly the chain most
    // strongly connected to what is already placed.
    let entry_chain = chains.chain_id(cfg.entry());
    let mut placed: Vec<usize> = vec![entry_chain];
    let mut remaining: Vec<usize> = (0..cfg.len())
        .map(|i| chains.chain_id(BlockId(i as u32)))
        .filter(|&c| c != entry_chain)
        .collect();
    remaining.sort_unstable();
    remaining.dedup();

    while !remaining.is_empty() {
        // Connection strength of candidate chain c: total weight of edges
        // between placed blocks and c's blocks (either direction).
        let strength = |c: usize| -> f64 {
            edges
                .iter()
                .map(|e| {
                    let cf = chains.chain_id(e.from);
                    let ct = chains.chain_id(e.to);
                    let touches =
                        (placed.contains(&cf) && ct == c) || (placed.contains(&ct) && cf == c);
                    if touches {
                        edge_weights[e.index]
                    } else {
                        0.0
                    }
                })
                .sum()
        };
        let Some((pos, &best)) = remaining
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| strength(a).total_cmp(&strength(b)).then(b.cmp(&a)))
        else {
            break; // unreachable: the loop guard keeps `remaining` nonempty
        };
        placed.push(best);
        remaining.remove(pos);
    }

    let order: Vec<_> = placed
        .into_iter()
        .flat_map(|c| chains.chain(c).iter().copied())
        .collect();
    // Chain concatenation covers every block exactly once; degrade to the
    // natural layout rather than panic if that invariant is ever broken.
    Layout::from_order(cfg, order).unwrap_or_else(|| Layout::natural(cfg))
}

fn oracle_greedy_traces(cfg: &Cfg, edge_weights: &[f64], threshold: f64) -> Layout {
    let edges = cfg.edges();
    assert_eq!(
        edge_weights.len(),
        edges.len(),
        "one weight per edge required"
    );
    assert!(!cfg.is_empty(), "empty CFG");
    assert!(
        (0.0..=1.0).contains(&threshold),
        "threshold must be a fraction"
    );

    let n = cfg.len();
    // Block heat: total incoming + outgoing weight.
    let mut heat = vec![0.0; n];
    for e in &edges {
        heat[e.from.index()] += edge_weights[e.index];
        heat[e.to.index()] += edge_weights[e.index];
    }

    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);

    // Seed order: the entry first, then blocks hottest-first (stable by id).
    let mut seeds: Vec<usize> = (0..n).collect();
    // `total_cmp`: a NaN weight (upstream numeric mishap) must not panic a
    // placement pass — it just sorts deterministically last.
    seeds.sort_by(|&a, &b| heat[b].total_cmp(&heat[a]).then(a.cmp(&b)));
    seeds.retain(|&b| b != cfg.entry().index());
    seeds.insert(0, cfg.entry().index());

    for seed in seeds {
        if placed[seed] {
            continue;
        }
        // Grow a trace forward from the seed.
        let mut cur = seed;
        loop {
            placed[cur] = true;
            order.push(BlockId(cur as u32));
            // Choose the heaviest outgoing edge meeting the threshold whose
            // target is unplaced.
            let out: Vec<_> = edges.iter().filter(|e| e.from.index() == cur).collect();
            let total: f64 = out.iter().map(|e| edge_weights[e.index]).sum();
            let next = out
                .iter()
                .filter(|e| !placed[e.to.index()])
                .max_by(|a, b| {
                    edge_weights[a.index]
                        .total_cmp(&edge_weights[b.index])
                        .then(b.index.cmp(&a.index))
                })
                .filter(|e| total <= 0.0 || edge_weights[e.index] / total >= threshold);
            match next {
                Some(e) => cur = e.to.index(),
                None => break,
            }
        }
    }

    // The growth loop visits every block exactly once, so the order is a
    // permutation; degrade to the natural layout rather than panic if that
    // invariant is ever broken.
    Layout::from_order(cfg, order).unwrap_or_else(|| Layout::natural(cfg))
}

/// Maps a code to a weight: ties (small integers), zeros of both signs,
/// NaNs of both signs, and distinct fractional values.
fn weight(code: u32) -> f64 {
    match code % 16 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => -f64::NAN,
        4..=9 => f64::from(code % 4),
        _ => f64::from(code) / 7.0,
    }
}

fn weights(cfg: &Cfg, codes: &[u32]) -> Vec<f64> {
    (0..cfg.edges().len())
        .map(|i| weight(codes[i % codes.len()].wrapping_add(i as u32 / codes.len() as u32)))
        .collect()
}

fn assert_same_layouts(cfg: &Cfg, w: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(pettis_hansen(cfg, w), oracle_pettis_hansen(cfg, w));
    prop_assert_eq!(pettis_hansen_raw(cfg, w), oracle_pettis_hansen_raw(cfg, w));
    for threshold in [0.0, 0.5, 1.0] {
        prop_assert_eq!(
            greedy_traces(cfg, w, threshold),
            oracle_greedy_traces(cfg, w, threshold)
        );
    }
    Ok(())
}

fn builder_shape(shape: usize, size: usize) -> Cfg {
    match shape {
        0 => linear(size + 1),
        1 => diamond(),
        2 => while_loop(),
        3 => nested_loops(),
        4 => irreducible(),
        _ => diamond_chain(size),
    }
}

fn generated(seed: u64, decisions: usize) -> Cfg {
    let src = random_source(
        seed,
        GenConfig {
            decisions,
            max_depth: 3,
            loop_share: 0.25,
        },
    );
    let program = ct_ir::compile_source(&src).expect("generated source compiles");
    let pid = program
        .proc_id("target")
        .expect("generated module has target()");
    program.proc(pid).cfg.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The builder shapes, with weights drawn from ties, zeros, −0.0, NaN
    /// and distinct values.
    #[test]
    fn builder_shapes_match_the_oracle(
        shape in 0usize..6,
        size in 1usize..12,
        codes in proptest::collection::vec(0u32..64, 1..24),
    ) {
        let cfg = builder_shape(shape, size);
        assert_same_layouts(&cfg, &weights(&cfg, &codes))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compiled `random_source` procedures of up to 193 blocks.
    #[test]
    fn generated_procedures_match_the_oracle(
        seed in 0u64..1_000,
        decisions in 1usize..=64,
        codes in proptest::collection::vec(0u32..64, 1..48),
    ) {
        let cfg = generated(seed, decisions);
        assert_same_layouts(&cfg, &weights(&cfg, &codes))?;
    }
}

/// The largest size the benchmark places: 128 decisions, 385 blocks. Few
/// cases, because the oracle's concatenation is about O(n⁴).
#[test]
fn wide_procedures_match_the_oracle() {
    for (seed, codes) in [
        (8_016u64, vec![5u32, 11, 3]),
        (8_017, vec![0, 1, 2, 3, 40, 9, 17]),
    ] {
        let cfg = generated(seed, 128);
        assert!(cfg.len() >= 300, "{} blocks", cfg.len());
        assert_same_layouts(&cfg, &weights(&cfg, &codes)).expect("same layouts");
    }
}

/// A chain's strength is the full-scan sum, −0.0 and all, so the sign of a
/// zero strength decides ties exactly as the full scan did.
#[test]
fn negative_zero_strengths_order_as_the_full_sum_does() {
    // Chain 1's only touching edge is the last edge, weighted −0.0: it ties
    // chain 2 at +0.0 only because the non-touching edge before it adds
    // +0.0 first, and the tie goes to the lower id.
    let mut fork = Cfg::new("fork");
    fork.add_block(
        "entry",
        Terminator::Branch {
            on_true: BlockId(2),
            on_false: BlockId(1),
        },
    );
    fork.add_block("a", Terminator::Return);
    fork.add_block("b", Terminator::Return);
    // Chain 1 touches every edge, all −0.0, so its sum keeps the fold's
    // −0.0 start and loses to unconnected chain 2 at +0.0.
    let mut stray = Cfg::new("stray");
    stray.add_block("entry", Terminator::Jump(BlockId(1)));
    stray.add_block("exit", Terminator::Return);
    stray.add_block("unreachable", Terminator::Return);
    for (cfg, w, order) in [
        (&fork, vec![0.0, -0.0], [0, 1, 2]),
        (&stray, vec![-0.0], [0, 2, 1]),
    ] {
        let order: Vec<BlockId> = order.into_iter().map(BlockId).collect();
        assert_eq!(oracle_pettis_hansen(cfg, &w).order(), &order[..]);
        assert_eq!(pettis_hansen(cfg, &w).order(), &order[..]);
        assert_eq!(pettis_hansen_raw(cfg, &w).order(), &order[..]);
    }
}
