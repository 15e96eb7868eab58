//! Greedy trace growing (Fisher's trace scheduling selection, adapted to
//! block placement) — the alternative placement heuristic for the ablation
//! study.
//!
//! Starting from the hottest unplaced block, a trace extends forward along
//! the likeliest successor edge while that edge is hot enough and its target
//! unplaced. Traces are emitted entry-first, then hottest-first.

use ct_cfg::graph::Cfg;
use ct_cfg::layout::Layout;

/// Grows traces from per-edge weights. `threshold` is the minimum fraction
/// of a block's outgoing weight an edge needs to extend the trace (0.5 keeps
/// only majority successors; 0.0 always extends).
///
/// # Panics
///
/// Panics if `edge_weights.len()` differs from the edge count, the CFG is
/// empty, or `threshold` is not in `[0, 1]`.
pub fn greedy_traces(cfg: &Cfg, edge_weights: &[f64], threshold: f64) -> Layout {
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
    // Outgoing edges of each block, in edge-index order.
    let mut succ = vec![Vec::new(); n];
    for e in &edges {
        heat[e.from.index()] += edge_weights[e.index];
        heat[e.to.index()] += edge_weights[e.index];
        succ[e.from.index()].push(e);
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
            order.push(ct_cfg::graph::BlockId(cur as u32));
            // Choose the heaviest outgoing edge meeting the threshold whose
            // target is unplaced.
            let out = &succ[cur];
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

#[cfg(test)]
mod tests {
    use super::*;
    use ct_cfg::builder::{diamond, linear};
    use ct_cfg::graph::BlockId;
    use ct_cfg::layout::PenaltyModel;
    use ct_cfg::profile::EdgeProfile;

    #[test]
    fn linear_stays_in_order() {
        let cfg = linear(4);
        let l = greedy_traces(&cfg, &[1.0, 1.0, 1.0], 0.0);
        assert_eq!(l.order(), &[BlockId(0), BlockId(1), BlockId(2), BlockId(3)]);
    }

    #[test]
    fn hot_path_forms_one_trace() {
        let cfg = diamond();
        let weights = [90.0, 10.0, 90.0, 10.0]; // then-arm hot
        let l = greedy_traces(&cfg, &weights, 0.5);
        assert_eq!(l.next_in_layout(BlockId(0)), Some(BlockId(1)));
        assert_eq!(l.next_in_layout(BlockId(1)), Some(BlockId(3)));
    }

    #[test]
    fn threshold_stops_lukewarm_extension() {
        let cfg = diamond();
        let weights = [51.0, 49.0, 51.0, 49.0];
        // With a 0.9 threshold, the 51% edge is not hot enough; the trace
        // ends at the condition block.
        let l = greedy_traces(&cfg, &weights, 0.9);
        assert_eq!(l.order()[0], BlockId(0));
        // All blocks still placed exactly once.
        assert_eq!(l.order().len(), 4);
    }

    #[test]
    fn improves_on_natural_for_skewed_profiles() {
        let cfg = diamond();
        let profile = EdgeProfile::from_counts(&cfg, vec![2, 98, 2, 98]);
        let weights: Vec<f64> = profile.counts().iter().map(|&c| c as f64).collect();
        let traced = greedy_traces(&cfg, &weights, 0.5);
        let pen = PenaltyModel::avr();
        let c_nat = Layout::natural(&cfg).evaluate(&cfg, &profile, &pen);
        let c_trace = traced.evaluate(&cfg, &profile, &pen);
        assert!(c_trace.extra_cycles < c_nat.extra_cycles);
    }

    #[test]
    fn entry_always_first() {
        let cfg = diamond();
        // Make a non-entry block the hottest.
        let weights = [0.0, 0.0, 500.0, 500.0];
        let l = greedy_traces(&cfg, &weights, 0.0);
        assert_eq!(l.order()[0], cfg.entry());
    }

    #[test]
    #[should_panic(expected = "threshold must be a fraction")]
    fn bad_threshold_rejected() {
        greedy_traces(&diamond(), &[0.0; 4], 1.5);
    }
}
