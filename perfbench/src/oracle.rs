//! The correctness oracle: every operation and every structural check
//! passes through it, and any failure makes the run incorrect.

use kaskade_graph::Value;
use kaskade_query::{Datum, Table};

/// Counts attempted and failed operations and keeps the first few
/// failure messages.
#[derive(Debug, Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Oracle {
    /// Records one operation or check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn datum_key(d: &Datum) -> String {
    match d {
        // view-served and raw plans may sum in a different order
        Datum::Val(Value::Float(f)) => format!("F{f:.9e}"),
        other => format!("{other:?}"),
    }
}

/// The rows of `t` as sorted canonical strings.
pub fn canonical_rows(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = t
        .rows
        .iter()
        .map(|r| r.iter().map(datum_key).collect::<Vec<_>>().join("|"))
        .collect();
    rows.sort();
    rows
}

/// Whether two tables hold the same rows (as a multiset) under the
/// same number of columns. Column names are compared by the caller
/// where they are predictable.
pub fn same_rows(a: &Table, b: &Table) -> bool {
    a.columns.len() == b.columns.len() && canonical_rows(a) == canonical_rows(b)
}

/// Damages a table so that the oracle must reject it (used by the
/// benchmark's self-test).
pub fn corrupt(t: &mut Table) {
    match t.rows.first_mut() {
        Some(row) => row.push(Datum::Null),
        None => t.rows.push(vec![Datum::Null; t.columns.len()]),
    }
}
