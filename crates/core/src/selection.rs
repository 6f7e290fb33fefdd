//! View selection: the 0-1 knapsack formulation of §V-B.
//!
//! Items are candidate views; an item's *weight* is the view's
//! estimated size (edges), its *value* the total performance
//! improvement it brings to the workload divided by its creation cost
//! (penalizing expensive-to-build views). The knapsack capacity is the
//! space budget Kaskade allocates for materialized views. The paper
//! solves this with OR-tools' branch-and-bound solver; we implement
//! branch-and-bound with a fractional upper bound directly.

use kaskade_graph::{Graph, GraphStats, Schema};
use kaskade_query::Query;

use crate::cost::{creation_cost, estimate_view_size, traversal_cost};
use crate::enumerate::Candidate;
use crate::memo::EnumerationMemo;
use crate::rewrite::rewrite_over_connector;
use crate::views::ViewDef;

/// One knapsack item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnapsackItem {
    /// Size in budget units.
    pub weight: u64,
    /// Benefit (any non-negative scale).
    pub value: f64,
}

/// Exact 0-1 knapsack via depth-first branch-and-bound with the
/// classic fractional (Dantzig) upper bound. Returns the indices of the
/// chosen items. Exponential worst case, but candidate sets here are
/// small (tens of views).
pub fn knapsack(items: &[KnapsackItem], capacity: u64) -> Vec<usize> {
    // order by value density, tie-breaking on weight for determinism
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        let da = items[a].value / items[a].weight.max(1) as f64;
        let db = items[b].value / items[b].weight.max(1) as f64;
        db.partial_cmp(&da)
            .unwrap()
            .then(items[a].weight.cmp(&items[b].weight))
    });

    struct Search<'a> {
        items: &'a [KnapsackItem],
        order: &'a [usize],
        best_value: f64,
        best_set: Vec<usize>,
        current: Vec<usize>,
    }

    impl Search<'_> {
        fn bound(&self, mut idx: usize, mut cap: u64, mut value: f64) -> f64 {
            while idx < self.order.len() {
                let it = &self.items[self.order[idx]];
                if it.weight <= cap {
                    cap -= it.weight;
                    value += it.value;
                } else {
                    // fractional fill
                    value += it.value * cap as f64 / it.weight.max(1) as f64;
                    break;
                }
                idx += 1;
            }
            value
        }

        fn dfs(&mut self, idx: usize, cap: u64, value: f64) {
            if value > self.best_value {
                self.best_value = value;
                self.best_set = self.current.clone();
            }
            if idx >= self.order.len() {
                return;
            }
            if self.bound(idx, cap, value) <= self.best_value {
                return; // prune
            }
            let item_idx = self.order[idx];
            let it = &self.items[item_idx];
            // branch: take
            if it.weight <= cap && it.value > 0.0 {
                self.current.push(item_idx);
                self.dfs(idx + 1, cap - it.weight, value + it.value);
                self.current.pop();
            }
            // branch: skip
            self.dfs(idx + 1, cap, value);
        }
    }

    let mut s = Search {
        items,
        order: &order,
        best_value: 0.0,
        best_set: Vec::new(),
        current: Vec::new(),
    };
    s.dfs(0, capacity, 0.0);
    s.best_set.sort_unstable();
    s.best_set
}

/// Configuration for view selection.
#[derive(Debug, Clone, Copy)]
pub struct SelectionConfig {
    /// Space budget in edges (the paper uses a fraction of memory; edges
    /// dominate the footprint).
    pub budget_edges: u64,
    /// Degree percentile for size estimation (paper default 95).
    pub alpha: u8,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            budget_edges: 1_000_000,
            alpha: 95,
        }
    }
}

/// One scored candidate view.
#[derive(Debug, Clone)]
pub struct ScoredView {
    /// The view definition.
    pub def: ViewDef,
    /// Estimated size in edges.
    pub estimated_edges: f64,
    /// Summed improvement over the workload (cost ratios).
    pub improvement: f64,
    /// improvement / creation cost — the knapsack value.
    pub value: f64,
    /// Whether the knapsack selected it.
    pub selected: bool,
}

/// Result of running view selection over a workload.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Every candidate considered, with scores (selected ones flagged).
    pub scored: Vec<ScoredView>,
}

impl SelectionResult {
    /// The selected view definitions.
    pub fn chosen(&self) -> Vec<&ViewDef> {
        self.scored
            .iter()
            .filter(|s| s.selected)
            .map(|s| &s.def)
            .collect()
    }
}

/// Runs §V-B view selection: enumerate candidates for each workload
/// query, score them (improvement per creation cost), and solve the
/// knapsack under `cfg.budget_edges`. Queries sharing a pattern (a
/// workload that repeats a shape, or varies only its aliases and outer
/// levels) are enumerated once; [`crate::Snapshot::select_views`] also
/// reuses the snapshot lineage's memo across calls.
pub fn select_views(
    g: &Graph,
    stats: &GraphStats,
    schema: &Schema,
    workload: &[Query],
    cfg: &SelectionConfig,
) -> SelectionResult {
    select_views_with(g, stats, schema, workload, cfg, &EnumerationMemo::new())
}

/// [`select_views`] enumerating through `memo`, which must only ever
/// have seen `schema`.
pub(crate) fn select_views_with(
    g: &Graph,
    stats: &GraphStats,
    schema: &Schema,
    workload: &[Query],
    cfg: &SelectionConfig,
    memo: &EnumerationMemo,
) -> SelectionResult {
    // gather candidates per query, keyed by lowered view def
    let mut defs: Vec<ViewDef> = Vec::new();
    let mut per_def_improvement: Vec<f64> = Vec::new();
    for q in workload {
        let Ok((enumeration, _)) = memo.get_or_enumerate(q, schema) else {
            continue;
        };
        let base_cost = traversal_cost(g.edge_count() as f64, q);
        for cand in &enumeration.candidates {
            let Some(def) = cand.to_view_def() else {
                continue;
            };
            // improvement of this view for this query: cost ratio of the
            // raw plan over the rewritten plan (0 when not applicable)
            let improvement = match (cand, &def) {
                (
                    Candidate::KHopConnector { x, y, .. }
                    | Candidate::SameEdgeTypeConnector { x, y, .. },
                    ViewDef::Connector(c),
                ) => {
                    match rewrite_over_connector(q, x, y, c, schema) {
                        Some(rw) => {
                            // benefit uses the *realistic* size estimate
                            // (α=50, §V-A: "50 ≤ α ≤ 95 gives a much more
                            // accurate estimate"); the knapsack weight
                            // below uses the conservative cfg.alpha upper
                            // bound so oversized views can't blow the
                            // budget.
                            let est = estimate_view_size(g, stats, &def, 50);
                            let new_cost = traversal_cost(est, &rw);
                            (base_cost / new_cost).max(0.0)
                        }
                        None => 0.0,
                    }
                }
                (_, ViewDef::Summarizer(_)) => {
                    // a summarizer shrinks the graph the query scans; its
                    // improvement is the size ratio of raw to summarized
                    let kept = estimate_view_size(g, stats, &def, cfg.alpha).max(1.0);
                    (g.edge_count() as f64 / kept).max(0.0)
                }
                _ => 0.0,
            };
            if improvement <= 1.0 {
                continue; // no gain for this query
            }
            match defs.iter().position(|d| *d == def) {
                Some(i) => per_def_improvement[i] += improvement,
                None => {
                    defs.push(def);
                    per_def_improvement.push(improvement);
                }
            }
        }
    }

    // score and build knapsack items
    let mut scored: Vec<ScoredView> = defs
        .into_iter()
        .zip(per_def_improvement)
        .map(|(def, improvement)| {
            let est = estimate_view_size(g, stats, &def, cfg.alpha);
            let value = improvement / creation_cost(est);
            ScoredView {
                def,
                estimated_edges: est,
                improvement,
                value,
                selected: false,
            }
        })
        .collect();
    let items: Vec<KnapsackItem> = scored
        .iter()
        .map(|s| KnapsackItem {
            weight: s.estimated_edges.max(0.0).round() as u64,
            value: s.value,
        })
        .collect();
    for idx in knapsack(&items, cfg.budget_edges) {
        scored[idx].selected = true;
    }
    SelectionResult { scored }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_datasets::{generate_provenance, ProvenanceConfig};
    use kaskade_query::{listings::LISTING_1, parse};

    fn item(weight: u64, value: f64) -> KnapsackItem {
        KnapsackItem { weight, value }
    }

    #[test]
    fn knapsack_picks_optimal_small() {
        // classic: capacity 10; (w,v): (5,10) (4,40) (6,30) (3,50)
        let items = vec![item(5, 10.0), item(4, 40.0), item(6, 30.0), item(3, 50.0)];
        let chosen = knapsack(&items, 10);
        assert_eq!(chosen, vec![1, 3]); // value 90
    }

    #[test]
    fn knapsack_empty_and_zero_capacity() {
        assert!(knapsack(&[], 10).is_empty());
        assert!(knapsack(&[item(1, 5.0)], 0).is_empty());
    }

    #[test]
    fn knapsack_all_fit() {
        let items = vec![item(1, 1.0), item(2, 2.0), item(3, 3.0)];
        assert_eq!(knapsack(&items, 100), vec![0, 1, 2]);
    }

    #[test]
    fn knapsack_skips_zero_value() {
        let items = vec![item(1, 0.0), item(2, 5.0)];
        assert_eq!(knapsack(&items, 10), vec![1]);
    }

    #[test]
    fn knapsack_exact_vs_greedy_counterexample() {
        // greedy by density would take (6,60) first (density 10) then
        // nothing else fits; optimal is (5,50)+(5,50)=100
        let items = vec![item(6, 60.0), item(5, 50.0), item(5, 50.0)];
        let chosen = knapsack(&items, 10);
        assert_eq!(chosen, vec![1, 2]);
    }

    #[test]
    fn selection_on_provenance_workload_prefers_2_hop_connector() {
        let g = generate_provenance(&ProvenanceConfig::tiny(1).core_only());
        let stats = GraphStats::compute(&g);
        let schema = Schema::provenance();
        let q = parse(LISTING_1).unwrap();
        let res = select_views(
            &g,
            &stats,
            &schema,
            &[q],
            &SelectionConfig {
                budget_edges: 100_000,
                alpha: 95,
            },
        );
        assert!(!res.scored.is_empty());
        let chosen = res.chosen();
        assert!(
            chosen
                .iter()
                .any(|d| d.id() == "connector:JOB_TO_JOB_2_HOP"),
            "chosen: {:?}",
            chosen.iter().map(|d| d.id()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tight_budget_limits_selection() {
        let g = generate_provenance(&ProvenanceConfig::tiny(2).core_only());
        let stats = GraphStats::compute(&g);
        let schema = Schema::provenance();
        let q = parse(LISTING_1).unwrap();
        let res = select_views(
            &g,
            &stats,
            &schema,
            &[q],
            &SelectionConfig {
                budget_edges: 0,
                alpha: 95,
            },
        );
        assert!(res.chosen().is_empty());
    }

    #[test]
    fn improvements_accumulate_over_workload() {
        let g = generate_provenance(&ProvenanceConfig::tiny(3).core_only());
        let stats = GraphStats::compute(&g);
        let schema = Schema::provenance();
        let q = parse(LISTING_1).unwrap();
        let one = select_views(
            &g,
            &stats,
            &schema,
            std::slice::from_ref(&q),
            &Default::default(),
        );
        let two = select_views(&g, &stats, &schema, &[q.clone(), q], &Default::default());
        let find = |r: &SelectionResult| {
            r.scored
                .iter()
                .find(|s| s.def.id() == "connector:JOB_TO_JOB_2_HOP")
                .map(|s| s.improvement)
                .unwrap_or(0.0)
        };
        assert!(find(&two) > find(&one));
    }
}
