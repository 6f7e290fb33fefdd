//! The enumeration memo: §IV view enumeration cached per query pattern.
//!
//! [`enumerate_views`] is a pure function of the facts
//! [`crate::assert_pattern_facts`] mines from a query — the innermost
//! pattern's nodes (variable, label) and edges (endpoints, edge type,
//! hop window) — and of the schema. A snapshot lineage never changes its
//! schema, so one [`EnumerationMemo`], shared by every snapshot derived
//! from the same root, answers each pattern's enumeration once. A plan
//! miss then only re-filters the memoized candidates against the live
//! catalog and re-costs (see [`crate::Snapshot::plan_with`]).
//!
//! `RETURN` aliases and the outer `SELECT` levels are not part of the
//! [`PatternKey`]: queries that differ only there share one entry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use kaskade_graph::Schema;
use kaskade_prolog::PrologError;
use kaskade_query::{EdgePattern, NodePattern, Query};

use crate::enumerate::{enumerate_views, Enumeration};

/// Entries the memo holds before it starts over. A serving workload
/// repeats a small set of shapes; the bound only keeps an unbounded
/// stream of distinct ad-hoc patterns from growing the map forever.
const CAPACITY: usize = 1024;

/// The enumeration inputs of a query: its innermost pattern's nodes and
/// edges, exactly what [`crate::assert_pattern_facts`] reads. A query
/// without a pattern keys as the empty pattern (it asserts no facts).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PatternKey {
    nodes: Vec<NodePattern>,
    edges: Vec<EdgePattern>,
}

impl PatternKey {
    /// The key of `query`.
    fn of(query: &Query) -> PatternKey {
        match query.pattern() {
            Some(p) => PatternKey {
                nodes: p.nodes.clone(),
                edges: p.edges.clone(),
            },
            None => PatternKey {
                nodes: Vec::new(),
                edges: Vec::new(),
            },
        }
    }
}

/// A concurrent memo of [`enumerate_views`] results keyed by the
/// query's pattern (its nodes and edges), with hit/miss counters. Every
/// snapshot of one lineage shares one
/// ([`crate::Snapshot::enumeration_memo`]), which is sound because
/// enumeration reads only the pattern and the schema.
///
/// Enumeration runs outside the lock, so a slow Prolog solve never
/// blocks other lookups; two threads missing on the same key both
/// solve and the later insert wins (the results are identical).
/// Errors are returned, never memoized. Lock poisoning is recovered
/// from: every critical section leaves the map valid.
#[derive(Debug, Default)]
pub struct EnumerationMemo {
    entries: Mutex<HashMap<PatternKey, Arc<Enumeration>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EnumerationMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The enumeration of `query` over `schema`, from the memo when
    /// present (`true`) or freshly solved and stored (`false`). The
    /// caller guarantees `schema` is the one every earlier lookup used.
    pub fn get_or_enumerate(
        &self,
        query: &Query,
        schema: &Schema,
    ) -> Result<(Arc<Enumeration>, bool), PrologError> {
        let key = PatternKey::of(query);
        let found = self.lock().get(&key).cloned();
        if let Some(e) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((e, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let e = Arc::new(enumerate_views(query, schema)?);
        let mut entries = self.lock();
        if entries.len() >= CAPACITY {
            entries.clear();
        }
        entries.insert(key, Arc::clone(&e));
        Ok((e, false))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<PatternKey, Arc<Enumeration>>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the enumerator (including failed ones).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_query::parse;

    fn key(src: &str) -> PatternKey {
        PatternKey::of(&parse(src).unwrap())
    }

    const BLAST: &str = "SELECT A.name, COUNT(*) FROM (
        MATCH (j1:Job)-[:WRITES_TO]->(f1:File) (f1:File)-[r*0..4]->(f2:File)
              (f2:File)-[:IS_READ_BY]->(j2:Job)
        RETURN j1 AS A, j2 AS B) GROUP BY A.name";

    #[test]
    fn alias_and_outer_select_variants_share_a_key() {
        let k = key(BLAST);
        // another output alias
        assert_eq!(
            k,
            key(&BLAST.replace("AS A", "AS A7").replace("A.name", "A7.name"))
        );
        // another outer level over the same pattern
        assert_eq!(
            k,
            key("SELECT COUNT(*) FROM (
                MATCH (j1:Job)-[:WRITES_TO]->(f1:File) (f1:File)-[r*0..4]->(f2:File)
                      (f2:File)-[:IS_READ_BY]->(j2:Job)
                RETURN j1 AS X, j2 AS Y) WHERE X.CPU > 1")
        );
    }

    #[test]
    fn windows_labels_and_spellings_key_apart() {
        let k = key(BLAST);
        assert_ne!(k, key(&BLAST.replace("*0..4", "*0..6")), "hop window");
        assert_ne!(k, key(&BLAST.replace("(j2:Job)", "(j2:File)")), "label");
        assert_ne!(k, key(&BLAST.replace("j1", "x1")), "variable spelling");
    }

    #[test]
    fn memo_counts_and_shares_entries() {
        let memo = EnumerationMemo::new();
        let schema = Schema::provenance();
        let (a, hit) = memo
            .get_or_enumerate(&parse(BLAST).unwrap(), &schema)
            .unwrap();
        assert!(!hit);
        let variant = BLAST.replace("AS A", "AS A3").replace("A.name", "A3.name");
        let (b, hit) = memo
            .get_or_enumerate(&parse(&variant).unwrap(), &schema)
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((memo.hits(), memo.misses(), memo.lock().len()), (1, 1, 1));
        // the memoized result is the enumerator's
        let fresh = enumerate_views(&parse(BLAST).unwrap(), &schema).unwrap();
        assert_eq!(a.candidates, fresh.candidates);
    }
}
