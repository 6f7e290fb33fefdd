//! The per-epoch plan cache.
//!
//! A serving workload repeats a small set of query shapes at high
//! rates, so the engine memoizes [`plan`] results keyed by
//! `(epoch, normalized query)`. A miss is already cheap: the Prolog
//! view enumeration (§IV) behind it is memoized per query pattern for
//! the whole snapshot lineage ([`kaskade_core::EnumerationMemo`]), so
//! a miss on a known pattern only filters the candidates against the
//! epoch's catalog, rewrites and costs.
//!
//! Keys are **alpha-normalized**: pattern variables are renamed to
//! `$0, $1, ...` in first-occurrence order, so queries that differ only
//! in variable spelling (`MATCH (a:Job)...` vs `MATCH (x:Job)...` with
//! the same `AS` output aliases) share one cache entry. Output aliases,
//! labels, predicates, and literals stay verbatim — they change the
//! result, so they must key separately.
//!
//! Epochs key the cache because a publish can change the optimal plan
//! (a view was refreshed or its cost moved); entries from superseded
//! epochs are pruned after each publish, with a one-epoch grace window
//! for readers still draining an old snapshot.
//!
//! [`plan`]: kaskade_core::Snapshot::plan

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use kaskade_core::PlannedQuery;
use kaskade_query::{GraphPattern, Query};

/// Renames `name` through the first-occurrence map, allocating the next
/// canonical `$i` on first sight.
fn canon(name: &mut String, map: &mut HashMap<String, String>, next: &mut usize) {
    let canonical = map.entry(std::mem::take(name)).or_insert_with(|| {
        let c = format!("${next}");
        *next += 1;
        c
    });
    *name = canonical.clone();
}

fn normalize_pattern(p: &mut GraphPattern) {
    let mut map = HashMap::new();
    let mut next = 0usize;
    for n in &mut p.nodes {
        canon(&mut n.var, &mut map, &mut next);
    }
    for e in &mut p.edges {
        canon(&mut e.src, &mut map, &mut next);
        canon(&mut e.dst, &mut map, &mut next);
    }
    for (var, _alias) in &mut p.returns {
        canon(var, &mut map, &mut next);
    }
}

/// The cache key of a query: its AST with pattern variables renamed to
/// `$0, $1, ...` in first-occurrence order, rendered canonically.
/// Alpha-equivalent queries (same structure, same output aliases,
/// different pattern-variable spellings) produce identical keys.
pub fn plan_key(query: &Query) -> String {
    let mut q = query.clone();
    if let Some(p) = q.pattern_mut() {
        normalize_pattern(p);
    }
    format!("{q:?}")
}

/// A concurrent memo of `plan()` results keyed by epoch and
/// [`plan_key`], with hit/miss counters. See the [module docs](self).
///
/// Internally a map of per-epoch maps, so probes borrow the caller's
/// key (no allocation) and publish-time maintenance moves whole epoch
/// maps instead of rebuilding tuples. Probes take a short mutex; the
/// critical section is one hash lookup plus an `Arc` clone. Lock
/// poisoning is recovered from, not propagated: every critical section
/// leaves the map structurally valid, so a reader thread that panics
/// mid-probe must not wedge every other reader and the writer with it.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<u64, HashMap<String, Arc<PlannedQuery>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the plan for `key` at `epoch`, counting a hit or miss.
    pub fn get(&self, epoch: u64, key: &str) -> Option<Arc<PlannedQuery>> {
        let found = self
            .plans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&epoch)
            .and_then(|by_key| by_key.get(key))
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores the plan for `key` at `epoch` (last writer wins; racing
    /// planners compute identical plans, so overwrites are benign).
    pub fn insert(&self, epoch: u64, key: String, plan: Arc<PlannedQuery>) {
        self.plans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(epoch)
            .or_default()
            .insert(key, plan);
    }

    /// Drops entries more than one epoch older than `current`: readers
    /// may still be draining epoch `current - 1`, anything older is
    /// unreachable (the cell only hands out the latest snapshot).
    pub fn prune_below(&self, current: u64) {
        self.plans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|e, _| e + 1 >= current);
    }

    /// Carries every older epoch's plans forward to epoch `to`, then
    /// prunes superseded entries. The write path refreshes view
    /// *contents* but never changes the set of materialized views, so a
    /// cached rewrite remains valid across publishes — only its cost
    /// estimate goes stale, and serving a slightly stale plan beats
    /// re-running Prolog enumeration after every write batch. Without
    /// this, an active writer would invalidate the entire cache on
    /// every publish and the hit rate would pin at zero. (Carrying from
    /// *every* older epoch, not just `to - 1`, matters: a slow planner
    /// can insert at an epoch superseded while it planned.)
    pub fn promote(&self, to: u64) {
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        let mut target = plans.remove(&to).unwrap_or_default();
        let mut older: Vec<u64> = plans.keys().filter(|&&e| e < to).copied().collect();
        older.sort_unstable_by(|a, b| b.cmp(a)); // newest wins collisions
        for epoch in older {
            // keep `to - 1` intact as a grace window for readers still
            // draining the previous snapshot; drop everything older
            let map = if epoch + 1 >= to {
                plans.get(&epoch).cloned().unwrap_or_default()
            } else {
                plans.remove(&epoch).unwrap_or_default()
            };
            for (key, plan) in map {
                target.entry(key).or_insert(plan);
            }
        }
        plans.insert(to, target);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Number of cached plans (all epochs).
    pub fn len(&self) -> usize {
        self.plans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(HashMap::len)
            .sum()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_query::parse;

    #[test]
    fn alpha_equivalent_queries_share_a_key() {
        let a = parse("SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a AS J)")
            .unwrap();
        let b = parse("SELECT COUNT(*) FROM (MATCH (x:Job)-[:WRITES_TO]->(y:File) RETURN x AS J)")
            .unwrap();
        assert_eq!(plan_key(&a), plan_key(&b));
    }

    #[test]
    fn alias_and_label_changes_key_separately() {
        let a = parse("SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a AS J)")
            .unwrap();
        let alias =
            parse("SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a AS K)")
                .unwrap();
        let label =
            parse("SELECT COUNT(*) FROM (MATCH (a:File)-[:WRITES_TO]->(f:File) RETURN a AS J)")
                .unwrap();
        assert_ne!(plan_key(&a), plan_key(&alias));
        assert_ne!(plan_key(&a), plan_key(&label));
    }

    #[test]
    fn counters_and_pruning() {
        let cache = PlanCache::new();
        let q = parse("MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a AS J").unwrap();
        let key = plan_key(&q);
        assert!(cache.get(3, &key).is_none());
        cache.insert(
            3,
            key.clone(),
            Arc::new(PlannedQuery {
                query: q,
                view_id: None,
                estimated_cost: 1.0,
            }),
        );
        assert!(cache.get(3, &key).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
        // epoch 3 survives a publish to 4 (grace window), dies at 5
        cache.prune_below(4);
        assert_eq!(cache.len(), 1);
        cache.prune_below(5);
        assert!(cache.is_empty());
    }

    #[test]
    fn poisoned_cache_lock_recovers() {
        // a reader that panics while holding the cache mutex poisons
        // it; every subsequent probe must recover instead of wedging
        // the whole engine behind `PoisonError` panics
        let cache = PlanCache::new();
        let q = parse("MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a AS J").unwrap();
        let key = plan_key(&q);
        cache.insert(
            0,
            key.clone(),
            Arc::new(PlannedQuery {
                query: q,
                view_id: None,
                estimated_cost: 1.0,
            }),
        );
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.plans.lock().unwrap();
                panic!("poison the plan cache");
            })
            .join()
        });
        assert!(poisoner.is_err(), "the poisoning thread panicked");
        // the cache still serves probes, inserts, and maintenance
        assert!(cache.get(0, &key).is_some());
        cache.promote(1);
        assert!(cache.get(1, &key).is_some());
        cache.prune_below(5);
        assert!(cache.is_empty());
    }

    #[test]
    fn promote_carries_plans_across_epochs() {
        let cache = PlanCache::new();
        let q = parse("MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a AS J").unwrap();
        let key = plan_key(&q);
        cache.insert(
            0,
            key.clone(),
            Arc::new(PlannedQuery {
                query: q,
                view_id: None,
                estimated_cost: 1.0,
            }),
        );
        cache.promote(1);
        assert!(cache.get(1, &key).is_some(), "plan carried to epoch 1");
        cache.promote(2);
        cache.promote(3);
        assert!(cache.get(3, &key).is_some(), "plans survive every publish");
        // the stale original epochs are pruned (grace window of one)
        assert_eq!(cache.len(), 2);
    }
}
