//! Pettis–Hansen bottom-up basic-block positioning (PLDI 1990).
//!
//! Edges are processed hottest-first; each edge merges the chain ending at
//! its source with the chain starting at its destination, making the edge a
//! fall-through. Remaining chains are then concatenated: the entry's chain
//! first, followed by the others ordered by their strongest connection to
//! already-placed code (falling back to weight). The result turns the hot
//! edge out of every branch into straight-line fetch — on a static
//! predict-not-taken mote pipeline, this is precisely what cuts the
//! misprediction rate.

use crate::chains::ChainSet;
use ct_cfg::dominators::Dominators;
use ct_cfg::graph::{BlockId, Cfg, Edge};
use ct_cfg::layout::Layout;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes a Pettis–Hansen layout from per-edge weights (expected or
/// measured traversal counts, indexed by [`Cfg::edges`] order).
///
/// Loop **back edges are excluded from chain merging**: merging `latch →
/// header` places the latch *before* the header, which rotates the loop and
/// turns the hot in-loop continuation into a taken branch on every
/// iteration. Excluding back edges keeps loop bodies forward-ordered, which
/// is what minimizes the *misprediction rate* — the paper's objective. (It
/// can cost extra unconditional-jump cycles on MCUs where a jump is pricier
/// than a taken branch; [`pettis_hansen_raw`] keeps the unrestricted merge
/// for cycle-oriented comparisons, and `Strategy::Best` scores both.)
///
/// # Panics
///
/// Panics if `edge_weights.len()` differs from the edge count or the CFG is
/// empty.
pub fn pettis_hansen(cfg: &Cfg, edge_weights: &[f64]) -> Layout {
    let dom = Dominators::compute(cfg);
    let back_edge: Vec<bool> = cfg
        .edges()
        .iter()
        .map(|e| dom.dominates(e.to, e.from))
        .collect();
    ph_with_filter(cfg, edge_weights, &back_edge)
}

/// Pettis–Hansen with unrestricted merging (back edges included). See
/// [`pettis_hansen`] for why the default excludes them.
///
/// # Panics
///
/// Panics if `edge_weights.len()` differs from the edge count or the CFG is
/// empty.
pub fn pettis_hansen_raw(cfg: &Cfg, edge_weights: &[f64]) -> Layout {
    let no_filter = vec![false; cfg.edges().len()];
    ph_with_filter(cfg, edge_weights, &no_filter)
}

fn ph_with_filter(cfg: &Cfg, edge_weights: &[f64], skip_edge: &[bool]) -> Layout {
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

    let order: Vec<_> = concatenation_order(cfg, &chains, &edges, edge_weights)
        .into_iter()
        .flat_map(|c| chains.chain(c).iter().copied())
        .collect();
    // Chain concatenation covers every block exactly once; degrade to the
    // natural layout rather than panic if that invariant is ever broken.
    Layout::from_order(cfg, order).unwrap_or_else(|| Layout::natural(cfg))
}

/// Orders the chains for concatenation: the entry's chain first, then
/// repeatedly the unplaced chain most strongly connected to placed code —
/// the total weight of the edges between it and placed chains, in either
/// direction — with ties going to the lowest chain id.
///
/// Strengths are kept incrementally: placing a chain changes only the
/// strengths of the chains it shares an edge with, so only those are
/// re-summed, and a max-heap with lazy invalidation yields the next chain.
/// That is O(E log C) plus the re-sums, where rescanning every edge for
/// every candidate in every round, with a linear lookup of the placed set,
/// cost O(C³ · E).
fn concatenation_order(
    cfg: &Cfg,
    chains: &ChainSet,
    edges: &[Edge],
    edge_weights: &[f64],
) -> Vec<usize> {
    let n = cfg.len();
    let chain_of = |b: BlockId| chains.chain_id(b);
    // Edges between distinct chains as (edge index, chain at the other
    // end), listed under both ends in edge-index order; an edge inside one
    // chain never connects it to anything.
    let mut cross: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for e in edges {
        let (cf, ct) = (chain_of(e.from), chain_of(e.to));
        if cf != ct {
            cross[cf].push((e.index, ct));
            cross[ct].push((e.index, cf));
        }
    }
    // The connection strength of unplaced chain `c`, bit for bit the sum
    // `Σ_e (touches(e) ? w_e : 0.0)` over every edge in index order: the fold
    // starts at `Sum`'s neutral element, and a run of edges that do not touch
    // adds +0.0 once (adding +0.0 again never changes the result).
    let strength = |c: usize, placed: &[bool]| -> f64 {
        let mut acc: f64 = std::iter::empty::<f64>().sum();
        let mut next = 0;
        for &(ei, other) in &cross[c] {
            if placed[other] {
                if ei > next {
                    acc += 0.0;
                }
                acc += edge_weights[ei];
                next = ei + 1;
            }
        }
        if next < edges.len() {
            acc += 0.0;
        }
        acc
    };

    let entry_chain = chain_of(cfg.entry());
    let mut placed = vec![false; n];
    placed[entry_chain] = true;
    let mut order = vec![entry_chain];
    // `key[c]` is the current strength of unplaced chain `c` as a
    // `total_cmp`-ordered integer; heap entries whose key differs are stale.
    let mut key = vec![0i64; n];
    let mut heap = BinaryHeap::new();
    for (c, k) in key.iter_mut().enumerate() {
        if c != entry_chain && !chains.chain(c).is_empty() {
            *k = total_order_key(strength(c, &placed));
            heap.push((*k, Reverse(c)));
        }
    }
    // `touched[o] == c`: `o` was already re-summed after placing `c`.
    let mut touched = vec![usize::MAX; n];
    while let Some((k, Reverse(c))) = heap.pop() {
        if placed[c] || k != key[c] {
            continue;
        }
        placed[c] = true;
        order.push(c);
        for &(_, o) in &cross[c] {
            if !placed[o] && std::mem::replace(&mut touched[o], c) != c {
                key[o] = total_order_key(strength(o, &placed));
                heap.push((key[o], Reverse(o)));
            }
        }
    }
    order
}

/// Maps `x` to an integer whose order is `f64::total_cmp`'s.
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_cfg::builder::{diamond, linear, while_loop};
    use ct_cfg::graph::BlockId;
    use ct_cfg::layout::PenaltyModel;
    use ct_cfg::profile::EdgeProfile;

    #[test]
    fn linear_cfg_stays_linear() {
        let cfg = linear(4);
        let l = pettis_hansen(&cfg, &[5.0, 5.0, 5.0]);
        assert_eq!(l.order(), &[BlockId(0), BlockId(1), BlockId(2), BlockId(3)]);
    }

    #[test]
    fn hot_arm_becomes_fallthrough() {
        let cfg = diamond();
        // Edge order: cond→then (T), cond→else (F), then→join, else→join.
        // Make the *else* arm hot.
        let weights = [10.0, 90.0, 10.0, 90.0];
        let l = pettis_hansen(&cfg, &weights);
        // else (b2) must directly follow cond (b0).
        assert_eq!(l.next_in_layout(BlockId(0)), Some(BlockId(2)));
        // And the hot path continues into join.
        assert_eq!(l.next_in_layout(BlockId(2)), Some(BlockId(3)));
    }

    #[test]
    fn ph_beats_natural_layout_on_skewed_profile() {
        let cfg = diamond();
        let profile = EdgeProfile::from_counts(&cfg, vec![5, 95, 5, 95]);
        let weights: Vec<f64> = profile.counts().iter().map(|&c| c as f64).collect();
        let ph = pettis_hansen(&cfg, &weights);
        let pen = PenaltyModel::avr();
        let natural_cost = Layout::natural(&cfg).evaluate(&cfg, &profile, &pen);
        let ph_cost = ph.evaluate(&cfg, &profile, &pen);
        assert!(
            ph_cost.extra_cycles < natural_cost.extra_cycles,
            "{ph_cost:?} vs {natural_cost:?}"
        );
        assert!(ph_cost.misprediction_rate() < natural_cost.misprediction_rate());
    }

    #[test]
    fn loop_body_placed_adjacent_to_header() {
        let cfg = while_loop();
        // Hot loop: header→body and body→header dominate.
        // Edge order: header→body (T), header→exit (F), entry→header? No:
        // edges are enumerated per block: entry(Jump header), header(T body,
        // F exit), body(Jump header).
        let edges = cfg.edges();
        let mut w = vec![0.0; edges.len()];
        for e in &edges {
            w[e.index] = match (e.from, e.to) {
                (BlockId(1), BlockId(2)) => 100.0,
                (BlockId(2), BlockId(1)) => 100.0,
                (BlockId(0), BlockId(1)) => 1.0,
                _ => 1.0,
            };
        }
        let l = pettis_hansen(&cfg, &w);
        // body follows header.
        assert_eq!(l.next_in_layout(BlockId(1)), Some(BlockId(2)));
        // entry is first.
        assert_eq!(l.order()[0], BlockId(0));
    }

    #[test]
    fn zero_weights_give_valid_layout() {
        let cfg = diamond();
        let l = pettis_hansen(&cfg, &[0.0; 4]);
        assert_eq!(l.order().len(), cfg.len());
        assert_eq!(l.order()[0], cfg.entry());
    }

    #[test]
    fn layout_is_deterministic() {
        let cfg = diamond();
        let w = [50.0, 50.0, 50.0, 50.0];
        assert_eq!(pettis_hansen(&cfg, &w), pettis_hansen(&cfg, &w));
    }

    #[test]
    #[should_panic(expected = "one weight per edge")]
    fn weight_length_checked() {
        pettis_hansen(&diamond(), &[1.0]);
    }
}
