//! Relational execution over pattern-match results: projection,
//! filtering, grouping and aggregation (the SQL fragment of §III-B).
//!
//! ## The compiled stage
//!
//! Each `SELECT` level is compiled once per execution, against its
//! input's column names and the graph it runs on. Column references
//! become slot indices and property keys become interned [`Symbol`]s,
//! so an expression costs an index (plus, for `var.key`, one property
//! lookup) per row — no name search and no key hashing. Values flow
//! through the stage as borrowed references into the input rows, the
//! graph's properties and the query's literals; they are cloned into
//! [`Datum`]s only when an output row is written. The innermost level
//! reads the pattern's vertex rows directly; outer levels read the
//! inner level's [`Table`].
//!
//! **Deferred errors.** A name that does not resolve (or an aggregate
//! where a scalar is required, or an `id()` the serving layer did not
//! resolve) compiles to a node that fails when it is evaluated. So an
//! error surfaces only when a row reaches it — never on empty input —
//! and the same error wins as in a row-at-a-time evaluation that
//! filters every row, then groups them, then aggregates group by group:
//! a grouping error wins over an aggregate error, and among aggregate
//! errors the first group (in first-occurrence order) and, within it,
//! the first item that failed on any of its rows wins. Accumulators
//! hold their error until the group is finished to keep that order.
//! Streaming rows through WHERE one at a time keeps it too: a row that
//! passes WHERE evaluated every conjunct without error, and a column
//! holds vertices on every row or on none, so no later row can fail
//! WHERE.
//!
//! **Streaming group-by.** Aggregates fold into per-group accumulators
//! in one pass over the input. Group keys borrow from the input rows
//! and the graph, are built in one reused buffer, and are copied only
//! when a new group starts. An integral float that fits `i64` keys as
//! that integer, so `GROUP BY` puts `1` and `1.0` in one group, as
//! `WHERE ... = ...` treats them as equal.
//!
//! **Run grouping.** Pattern rows arrive sorted and deduplicated in
//! RETURN order ([`PatternRows`]). When a level reads a `MATCH`
//! directly and its `GROUP BY` columns are a prefix of the returned
//! columns (as a set), each group is one contiguous run of rows and is
//! folded without a hash table. Output groups appear in
//! first-occurrence order either way.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use kaskade_graph::{Graph, Symbol, Value, VertexId};

use crate::ast::{AggFunc, CmpOp, Expr, GraphPattern, Query, SelectStmt, Source};
use crate::plan::{ExecError, PatternPlan};

/// The result of executing one `MATCH` pattern: RETURN aliases plus
/// rows of vertex bindings, sorted and deduplicated (see
/// [`PatternPlan::execute`]). Providers passed to
/// [`execute_with_pattern`] must keep that order.
pub type PatternRows = (Vec<String>, Vec<Vec<VertexId>>);

/// A value flowing through the relational operators: either a graph
/// vertex (from a pattern binding) or a scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// A vertex binding.
    Vertex(VertexId),
    /// A scalar value.
    Val(Value),
    /// SQL-style null (e.g. AVG of an empty group).
    Null,
}

impl Datum {
    /// Numeric view (vertices have none).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Datum::Val(v) => v.as_f64(),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Val(v) => v.as_int(),
            _ => None,
        }
    }

    /// The vertex id, if this datum is a vertex.
    pub fn as_vertex(&self) -> Option<VertexId> {
        match self {
            Datum::Vertex(v) => Some(*v),
            _ => None,
        }
    }
}

impl std::fmt::Display for Datum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Datum::Vertex(v) => write!(f, "{v}"),
            Datum::Val(v) => write!(f, "{v}"),
            Datum::Null => write!(f, "NULL"),
        }
    }
}

/// A result table: named columns and rows of data.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Column names.
    pub columns: Vec<String>,
    /// Row-major data.
    pub rows: Vec<Vec<Datum>>,
}

impl Table {
    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single scalar of a 1×1 table (convenience for COUNT queries).
    pub fn scalar(&self) -> Option<&Datum> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }
}

/// Executes a full query against a graph.
pub fn execute(g: &Graph, q: &Query) -> Result<Table, ExecError> {
    execute_with_pattern(g, q, &|p| {
        let plan = PatternPlan::new(g, p)?;
        Ok(plan.execute(g))
    })
}

/// Executes a full query, sourcing every `MATCH` pattern's rows from
/// `pattern_exec` instead of the built-in matcher. The relational
/// pipeline (WHERE / GROUP BY / aggregates / ORDER BY / LIMIT) runs
/// unchanged over the supplied rows.
///
/// This is the gather half of sharded execution: the provider fans the
/// pattern out with [`PatternPlan::execute_anchored`] (one disjoint
/// anchor range per shard), merges the sorted row sets, and the
/// relational stage then sees exactly the row set an unsharded
/// [`execute`] would have produced — making the final table
/// byte-identical, ordering included.
pub fn execute_with_pattern(
    g: &Graph,
    q: &Query,
    pattern_exec: &dyn Fn(&GraphPattern) -> Result<PatternRows, ExecError>,
) -> Result<Table, ExecError> {
    match q {
        Query::Match(p) => {
            let (columns, rows) = pattern_exec(p)?;
            let rows = rows
                .into_iter()
                .map(|r| r.into_iter().map(Datum::Vertex).collect())
                .collect();
            Ok(Table { columns, rows })
        }
        Query::Select(s) => execute_select(g, s, pattern_exec).map(Level::into_table),
    }
}

fn execute_select(
    g: &Graph,
    s: &SelectStmt,
    pattern_exec: &dyn Fn(&GraphPattern) -> Result<PatternRows, ExecError>,
) -> Result<Level, ExecError> {
    match &s.from {
        Source::Match(p) => {
            let (columns, rows) = pattern_exec(p)?;
            select(g, s, &columns, &rows)
        }
        Source::Subquery(inner) => {
            let input = execute_select(g, inner, pattern_exec)?;
            let rows: Vec<&[Datum]> = (0..input.len).map(|i| input.row(i)).collect();
            select(g, s, &input.columns, &rows)
        }
    }
}

/// One level's output: `len` rows of `columns.len()` cells, row-major
/// in one buffer. Levels feed each other in this form; only the
/// outermost becomes a [`Table`].
struct Level {
    columns: Vec<String>,
    cells: Vec<Datum>,
    len: usize,
}

impl Level {
    fn row(&self, i: usize) -> &[Datum] {
        let width = self.columns.len();
        &self.cells[i * width..(i + 1) * width]
    }

    fn into_table(self) -> Table {
        let width = self.columns.len();
        let mut cells = self.cells.into_iter();
        let rows = (0..self.len)
            .map(|_| cells.by_ref().take(width).collect())
            .collect();
        Table {
            columns: self.columns,
            rows,
        }
    }
}

/// Compiles one `SELECT` level against its input and runs it.
fn select<R: Row>(
    g: &Graph,
    s: &SelectStmt,
    columns: &[String],
    rows: &[R],
) -> Result<Level, ExecError> {
    let compile = |e| Scalar::compile(g, columns, e);
    let filter: Vec<Comparison<'_>> = s
        .where_clause
        .iter()
        .flat_map(|p| &p.conjuncts)
        .map(|(l, op, r)| (compile(l), *op, compile(r)))
        .collect();
    let input = Input {
        g,
        filter: &filter,
        rows,
    };
    let mut out = Level {
        columns: s.items.iter().map(|(_, a)| a.clone()).collect(),
        cells: Vec::new(),
        len: 0,
    };
    if s.group_by.is_empty() && !s.items.iter().any(|(e, _)| e.has_agg()) {
        let items: Vec<Scalar<'_>> = s.items.iter().map(|(e, _)| compile(e)).collect();
        input.project(&items, &mut out)?;
    } else {
        let items: Vec<Agg<'_>> = s
            .items
            .iter()
            .map(|(e, _)| Agg::compile(g, columns, e))
            .collect();
        match run_prefix(&s.group_by, columns) {
            Some(k) if R::sorted_on_prefix(rows, k) => input.group_runs(k, &items, &mut out)?,
            _ => {
                let keys: Vec<Scalar<'_>> = s.group_by.iter().map(compile).collect();
                input.group_hashed(&keys, &items, &mut out)?;
            }
        }
    }
    order_and_limit(g, s, &mut out)?;
    Ok(out)
}

/// `Some(k)` when the GROUP BY expressions are exactly the first `k`
/// input columns, compared as a set (`k = 0` for the implicit group of
/// an aggregate without GROUP BY).
fn run_prefix(group_by: &[Expr], columns: &[String]) -> Option<usize> {
    let mut grouped = vec![false; columns.len()];
    for e in group_by {
        let Expr::Column(name) = e else { return None };
        grouped[columns.iter().position(|c| c == name)?] = true;
    }
    let k = grouped.iter().take_while(|&&b| b).count();
    grouped[k..].iter().all(|&b| !b).then_some(k)
}

/// A borrowed value: a vertex, or a reference into an input row, a
/// property map or the query's literals.
#[derive(Clone, Copy)]
enum Ref<'a> {
    Vertex(VertexId),
    Val(&'a Value),
    Null,
}

impl<'a> Ref<'a> {
    fn to_datum(self) -> Datum {
        match self {
            Ref::Vertex(v) => Datum::Vertex(v),
            Ref::Val(v) => Datum::Val(v.clone()),
            Ref::Null => Datum::Null,
        }
    }

    /// The grouping key. An integral float that fits `i64` keys as that
    /// integer (except `-0.0`, which [`Value::total_cmp`] orders below
    /// `0`); other floats key by bit pattern.
    fn key(self) -> Key<'a> {
        const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
        match self {
            Ref::Vertex(v) => Key::Vertex(v),
            Ref::Null => Key::Null,
            Ref::Val(Value::Int(i)) => Key::Int(*i),
            Ref::Val(Value::Float(f))
                if f.fract() == 0.0
                    && (-TWO_POW_63..TWO_POW_63).contains(f)
                    && !(*f == 0.0 && f.is_sign_negative()) =>
            {
                Key::Int(*f as i64)
            }
            Ref::Val(Value::Float(f)) => Key::Float(f.to_bits()),
            Ref::Val(Value::Str(s)) => Key::Str(s),
            Ref::Val(Value::Bool(b)) => Key::Bool(*b),
        }
    }
}

/// Total order for ORDER BY: values by [`Value::total_cmp`], then
/// vertices by id, then NULL last; across kinds: values < vertices <
/// null.
fn ref_cmp(a: Ref<'_>, b: Ref<'_>) -> Ordering {
    use Ordering::*;
    match (a, b) {
        (Ref::Val(x), Ref::Val(y)) => x.total_cmp(y),
        (Ref::Vertex(x), Ref::Vertex(y)) => x.cmp(&y),
        (Ref::Null, Ref::Null) => Equal,
        (Ref::Val(_), _) => Less,
        (_, Ref::Val(_)) => Greater,
        (Ref::Vertex(_), _) => Less,
        (_, Ref::Vertex(_)) => Greater,
    }
}

/// A grouping key component, borrowing strings from the input.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key<'a> {
    Vertex(VertexId),
    Int(i64),
    Float(u64),
    Str(&'a str),
    Bool(bool),
    Null,
}

/// FxHash (the rustc hasher): one rotate-xor-multiply per word. Group
/// keys are a few words hashed once per row, where SipHash's per-hash
/// setup would dominate. The price is SipHash's protection against
/// keys crafted to collide, which slow a GROUP BY but cannot change its
/// result.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A cell of an input row: a pattern binding or an inner level's datum.
trait Cell: PartialEq {
    fn get(&self) -> Ref<'_>;
}

impl Cell for VertexId {
    #[inline]
    fn get(&self) -> Ref<'_> {
        Ref::Vertex(*self)
    }
}

impl Cell for Datum {
    #[inline]
    fn get(&self) -> Ref<'_> {
        match self {
            Datum::Vertex(v) => Ref::Vertex(*v),
            Datum::Val(v) => Ref::Val(v),
            Datum::Null => Ref::Null,
        }
    }
}

/// An input row: a pattern row, or a row of an inner level's output.
trait Row: Sized {
    type Cell: Cell;

    fn cells(&self) -> &[Self::Cell];

    /// Whether `rows` are ordered on their first `k` columns, so that
    /// rows agreeing on them are contiguous.
    fn sorted_on_prefix(rows: &[Self], k: usize) -> bool;
}

impl Row for Vec<VertexId> {
    type Cell = VertexId;

    #[inline]
    fn cells(&self) -> &[VertexId] {
        self
    }

    fn sorted_on_prefix(rows: &[Self], k: usize) -> bool {
        // the pattern-row contract; checked because providers are
        // caller-supplied, and cheap next to the fold itself
        rows.windows(2).all(|w| w[0][..k] <= w[1][..k])
    }
}

impl Row for &[Datum] {
    type Cell = Datum;

    #[inline]
    fn cells(&self) -> &[Datum] {
        self
    }

    fn sorted_on_prefix(_: &[Self], k: usize) -> bool {
        k == 0
    }
}

/// A compiled scalar expression.
enum Scalar<'q> {
    Lit(&'q Value),
    Col(usize),
    /// `var.key` over the column at `col`; `key` is `None` when no
    /// property of the graph has that name (the value is then NULL).
    Prop {
        col: usize,
        key: Option<Symbol>,
        var: &'q str,
    },
    /// A deferred error: fails whenever it is evaluated.
    Fail(ExecError),
}

impl<'q> Scalar<'q> {
    fn compile(g: &Graph, columns: &[String], e: &'q Expr) -> Self {
        let slot = |name: &str| columns.iter().position(|c| c == name);
        match e {
            Expr::Literal(v) => Scalar::Lit(v),
            Expr::Column(name) => match slot(name) {
                Some(col) => Scalar::Col(col),
                None => Scalar::Fail(ExecError::UnknownColumn(name.clone())),
            },
            Expr::Prop(var, key) => match slot(var) {
                Some(col) => Scalar::Prop {
                    col,
                    key: g.symbol(key),
                    var,
                },
                None => Scalar::Fail(ExecError::UnknownColumn(var.clone())),
            },
            Expr::Agg(_, _) => Scalar::Fail(ExecError::MisplacedAggregate),
            // graphs store slot ids, not external ids; an `id()` that was
            // not resolved into a pinned anchor by the serving layer (see
            // `Query::split_extid_anchors`) cannot be answered here
            Expr::VertexIdOf(_) => Scalar::Fail(ExecError::Unsupported(
                "id() requires external-id resolution by the serving engine".into(),
            )),
        }
    }

    #[inline]
    fn eval<'a, T: Cell>(&'a self, g: &'a Graph, row: &'a [T]) -> Result<Ref<'a>, ExecError> {
        match self {
            Scalar::Lit(v) => Ok(Ref::Val(v)),
            Scalar::Col(i) => Ok(row[*i].get()),
            Scalar::Prop { col, key, var } => match row[*col].get() {
                Ref::Vertex(v) => Ok(key
                    .and_then(|k| g.vertex_prop_sym(v, k))
                    .map_or(Ref::Null, Ref::Val)),
                _ => Err(ExecError::NotAVertex(var.to_string())),
            },
            Scalar::Fail(e) => Err(e.clone()),
        }
    }
}

/// One compiled `WHERE` conjunct.
type Comparison<'q> = (Scalar<'q>, CmpOp, Scalar<'q>);

/// A compiled item of a grouped level.
enum Agg<'q> {
    /// `COUNT(*)`.
    Rows,
    /// `COUNT(e)`: rows where `e` is not NULL.
    Count(Scalar<'q>),
    Sum(Scalar<'q>),
    Avg(Scalar<'q>),
    Min(Scalar<'q>),
    Max(Scalar<'q>),
    /// A non-aggregate item: its value on the group's first row (NULL
    /// for the empty implicit group).
    First(Scalar<'q>),
    /// `SUM`/`AVG`/`MIN`/`MAX` without an argument: fails per group.
    Misplaced,
}

/// The running state of one [`Agg`] over one group.
enum Acc<'a> {
    Count(i64),
    Sum {
        int: i64,
        float: f64,
        all_int: bool,
        n: usize,
    },
    Best(Option<&'a Value>),
    First(Option<Ref<'a>>),
    /// The first error the item raised on the group's rows.
    Failed(ExecError),
}

impl<'q> Agg<'q> {
    fn compile(g: &Graph, columns: &[String], e: &'q Expr) -> Self {
        match e {
            Expr::Agg(AggFunc::Count, None) => Agg::Rows,
            Expr::Agg(_, None) => Agg::Misplaced,
            Expr::Agg(func, Some(inner)) => {
                let inner = Scalar::compile(g, columns, inner);
                match func {
                    AggFunc::Count => Agg::Count(inner),
                    AggFunc::Sum => Agg::Sum(inner),
                    AggFunc::Avg => Agg::Avg(inner),
                    AggFunc::Min => Agg::Min(inner),
                    AggFunc::Max => Agg::Max(inner),
                }
            }
            other => Agg::First(Scalar::compile(g, columns, other)),
        }
    }

    fn start<'a>(&self) -> Acc<'a> {
        match self {
            Agg::Rows | Agg::Count(_) => Acc::Count(0),
            Agg::Sum(_) | Agg::Avg(_) => Acc::Sum {
                int: 0,
                float: 0.0,
                all_int: true,
                n: 0,
            },
            Agg::Min(_) | Agg::Max(_) => Acc::Best(None),
            Agg::First(_) => Acc::First(None),
            Agg::Misplaced => Acc::Failed(ExecError::MisplacedAggregate),
        }
    }

    /// Folds one row into `acc`; an error parks the accumulator.
    #[inline]
    fn add<'a, T: Cell>(&'a self, acc: &mut Acc<'a>, g: &'a Graph, row: &'a [T]) {
        if let Err(e) = self.fold(acc, g, row) {
            *acc = Acc::Failed(e);
        }
    }

    fn fold<'a, T: Cell>(
        &'a self,
        acc: &mut Acc<'a>,
        g: &'a Graph,
        row: &'a [T],
    ) -> Result<(), ExecError> {
        match (self, acc) {
            (_, Acc::Failed(_)) => {}
            (Agg::Rows, Acc::Count(n)) => *n += 1,
            (Agg::Count(e), Acc::Count(n)) => {
                if !matches!(e.eval(g, row)?, Ref::Null) {
                    *n += 1;
                }
            }
            (
                Agg::Sum(e) | Agg::Avg(e),
                Acc::Sum {
                    int,
                    float,
                    all_int,
                    n,
                },
            ) => match e.eval(g, row)? {
                Ref::Val(Value::Int(v)) => {
                    *int = int.wrapping_add(*v);
                    *float += *v as f64;
                    *n += 1;
                }
                Ref::Val(Value::Float(v)) => {
                    *all_int = false;
                    *float += v;
                    *n += 1;
                }
                Ref::Null => {}
                _ => return Err(ExecError::NotAVertex("aggregate input".into())),
            },
            (Agg::Min(e) | Agg::Max(e), Acc::Best(best)) => {
                if let Ref::Val(v) = e.eval(g, row)? {
                    let wanted = if matches!(self, Agg::Min(_)) {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    };
                    if best.is_none_or(|b| v.total_cmp(b) == wanted) {
                        *best = Some(v);
                    }
                }
            }
            (Agg::First(e), Acc::First(first)) => {
                if first.is_none() {
                    *first = Some(e.eval(g, row)?);
                }
            }
            _ => unreachable!("accumulator started by its own aggregate"),
        }
        Ok(())
    }

    fn finish(&self, acc: Acc<'_>) -> Result<Datum, ExecError> {
        Ok(match acc {
            Acc::Failed(e) => return Err(e),
            Acc::Count(n) => Datum::Val(Value::Int(n)),
            Acc::Sum { n: 0, .. } if matches!(self, Agg::Sum(_)) => Datum::Val(Value::Int(0)),
            Acc::Sum { n: 0, .. } => Datum::Null,
            Acc::Sum { float, n, .. } if matches!(self, Agg::Avg(_)) => {
                Datum::Val(Value::Float(float / n as f64))
            }
            Acc::Sum {
                int, all_int: true, ..
            } => Datum::Val(Value::Int(int)),
            Acc::Sum { float, .. } => Datum::Val(Value::Float(float)),
            Acc::Best(best) => best.map_or(Datum::Null, |v| Datum::Val(v.clone())),
            Acc::First(first) => first.map_or(Datum::Null, Ref::to_datum),
        })
    }
}

/// Folds `row` into one group's accumulators.
#[inline]
fn fold_row<'a, T: Cell>(items: &'a [Agg<'_>], accs: &mut [Acc<'a>], g: &'a Graph, row: &'a [T]) {
    for (item, acc) in items.iter().zip(accs) {
        item.add(acc, g, row);
    }
}

/// Emits one group's output row and restarts its accumulators. The
/// first failed item, in item order, is the group's error.
fn finish_group(items: &[Agg<'_>], accs: &mut [Acc<'_>], out: &mut Level) -> Result<(), ExecError> {
    for (item, acc) in items.iter().zip(accs) {
        out.cells
            .push(item.finish(std::mem::replace(acc, item.start()))?);
    }
    out.len += 1;
    Ok(())
}

/// The input of one compiled level: its rows and its `WHERE` filter.
struct Input<'a, 'q, R> {
    g: &'a Graph,
    filter: &'a [Comparison<'q>],
    rows: &'a [R],
}

impl<'a, R: Row> Input<'a, '_, R> {
    fn passes(&self, row: &'a [R::Cell]) -> Result<bool, ExecError> {
        for (l, op, r) in self.filter {
            let (Ref::Val(lv), Ref::Val(rv)) = (l.eval(self.g, row)?, r.eval(self.g, row)?) else {
                // null or vertex comparisons are false (SQL-ish semantics)
                return Ok(false);
            };
            let ord = lv.total_cmp(rv);
            let pass = match op {
                CmpOp::Eq => ord == Ordering::Equal,
                CmpOp::Ne => ord != Ordering::Equal,
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
            };
            if !pass {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Runs `body` on each row that passes `WHERE`, in input order.
    fn for_each_kept(
        &self,
        mut body: impl FnMut(&'a [R::Cell]) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        for row in self.rows {
            let row = row.cells();
            if self.passes(row)? {
                body(row)?;
            }
        }
        Ok(())
    }

    /// Plain projection: one output row per kept row.
    fn project(&self, items: &'a [Scalar<'_>], out: &mut Level) -> Result<(), ExecError> {
        self.for_each_kept(|row| {
            for e in items {
                out.cells.push(e.eval(self.g, row)?.to_datum());
            }
            out.len += 1;
            Ok(())
        })
    }

    /// Grouping on the first `prefix` columns of rows sorted on them:
    /// each group is a run, finished when the next one starts.
    fn group_runs(
        &self,
        prefix: usize,
        items: &'a [Agg<'_>],
        out: &mut Level,
    ) -> Result<(), ExecError> {
        let mut accs: Vec<Acc<'a>> = items.iter().map(Agg::start).collect();
        let mut run: Option<&[R::Cell]> = None;
        self.for_each_kept(|row| {
            let key = &row[..prefix];
            if run.is_some_and(|r| r != key) {
                finish_group(items, &mut accs, out)?;
            }
            run = Some(key);
            fold_row(items, &mut accs, self.g, row);
            Ok(())
        })?;
        // with no GROUP BY, aggregates have one implicit group, even
        // over empty input
        if run.is_some() || prefix == 0 {
            finish_group(items, &mut accs, out)?;
        }
        Ok(())
    }

    /// Grouping through a hash table over the evaluated `keys`.
    fn group_hashed(
        &self,
        keys: &'a [Scalar<'_>],
        items: &'a [Agg<'_>],
        out: &mut Level,
    ) -> Result<(), ExecError> {
        let n = items.len();
        let mut groups: HashMap<Vec<Key<'a>>, usize, BuildHasherDefault<FxHasher>> =
            HashMap::default();
        let mut accs: Vec<Acc<'a>> = Vec::new();
        let mut key: Vec<Key<'a>> = Vec::with_capacity(keys.len());
        self.for_each_kept(|row| {
            key.clear();
            for e in keys {
                key.push(e.eval(self.g, row)?.key());
            }
            let group = match groups.get(key.as_slice()) {
                Some(&i) => i,
                None => {
                    let i = groups.len();
                    groups.insert(key.clone(), i);
                    accs.extend(items.iter().map(Agg::start));
                    i
                }
            };
            fold_row(items, &mut accs[group * n..(group + 1) * n], self.g, row);
            Ok(())
        })?;
        for i in 0..groups.len() {
            finish_group(items, &mut accs[i * n..(i + 1) * n], out)?;
        }
        Ok(())
    }
}

/// Applies ORDER BY (over the *output* columns: by alias, by a repeated
/// projected expression, or by an expression evaluated on the output
/// row) and LIMIT to a finished level. Rows move; none is cloned.
fn order_and_limit(g: &Graph, s: &SelectStmt, level: &mut Level) -> Result<(), ExecError> {
    let width = level.columns.len();
    if !s.order_by.is_empty() {
        let keys: Vec<Scalar<'_>> = s
            .order_by
            .iter()
            .map(|(e, _)| {
                let alias = match e {
                    Expr::Column(name) => level.columns.iter().position(|c| c == name),
                    _ => None,
                };
                match alias.or_else(|| s.items.iter().position(|(pe, _)| pe == e)) {
                    Some(i) => Scalar::Col(i),
                    None => Scalar::compile(g, &level.columns, e),
                }
            })
            .collect();
        let n = keys.len();
        let mut sort_keys: Vec<Ref<'_>> = Vec::with_capacity(level.len * n);
        for i in 0..level.len {
            for k in &keys {
                sort_keys.push(k.eval(g, level.row(i))?);
            }
        }
        let mut order: Vec<usize> = (0..level.len).collect();
        order.sort_by(|&a, &b| {
            for (i, (_, desc)) in s.order_by.iter().enumerate() {
                let o = ref_cmp(sort_keys[a * n + i], sort_keys[b * n + i]);
                let o = if *desc { o.reverse() } else { o };
                if o != Ordering::Equal {
                    return o;
                }
            }
            a.cmp(&b) // stable tie-break
        });
        drop(sort_keys);
        let mut cells = Vec::with_capacity(level.cells.len());
        for i in order {
            let row = &mut level.cells[i * width..(i + 1) * width];
            cells.extend(row.iter_mut().map(|d| std::mem::replace(d, Datum::Null)));
        }
        level.cells = cells;
    }
    if let Some(n) = s.limit {
        level.len = level.len.min(n);
        level.cells.truncate(level.len * width);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use kaskade_graph::GraphBuilder;

    /// j0 -w-> f0 -r-> j1 -w-> f1 -r-> j2 ; j0 -w-> f2 -r-> j3
    /// CPU: j0=1, j1=10, j2=100, j3=1000; pipelines p0/p1 alternating.
    fn lineage() -> Graph {
        let mut b = GraphBuilder::new();
        let j0 = b.add_vertex("Job");
        let f0 = b.add_vertex("File");
        let j1 = b.add_vertex("Job");
        let f1 = b.add_vertex("File");
        let j2 = b.add_vertex("Job");
        let f2 = b.add_vertex("File");
        let j3 = b.add_vertex("Job");
        for (v, cpu, p) in [
            (j0, 1, "p0"),
            (j1, 10, "p1"),
            (j2, 100, "p0"),
            (j3, 1000, "p1"),
        ] {
            b.set_vertex_prop(v, "CPU", Value::Int(cpu));
            b.set_vertex_prop(v, "pipelineName", Value::Str(p.into()));
        }
        b.add_edge(j0, f0, "WRITES_TO");
        b.add_edge(f0, j1, "IS_READ_BY");
        b.add_edge(j1, f1, "WRITES_TO");
        b.add_edge(f1, j2, "IS_READ_BY");
        b.add_edge(j0, f2, "WRITES_TO");
        b.add_edge(f2, j3, "IS_READ_BY");
        b.finish()
    }

    fn exec(g: &Graph, src: &str) -> Table {
        execute(g, &parse(src).unwrap()).unwrap()
    }

    #[test]
    fn bare_match_returns_vertices() {
        let g = lineage();
        let t = exec(&g, "MATCH (j:Job) RETURN j");
        assert_eq!(t.columns, vec!["j"]);
        assert_eq!(t.len(), 4);
        assert!(matches!(t.rows[0][0], Datum::Vertex(_)));
    }

    #[test]
    fn count_star_vertex_count() {
        let g = lineage();
        let t = exec(&g, "SELECT COUNT(*) FROM (MATCH (v) RETURN v)");
        assert_eq!(t.scalar().unwrap().as_int(), Some(7));
    }

    #[test]
    fn projection_of_props() {
        let g = lineage();
        let t = exec(&g, "SELECT J.CPU FROM (MATCH (j:Job) RETURN j AS J)");
        let mut cpus: Vec<i64> = t.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        cpus.sort_unstable();
        assert_eq!(cpus, vec![1, 10, 100, 1000]);
    }

    #[test]
    fn where_filters() {
        let g = lineage();
        let t = exec(
            &g,
            "SELECT J FROM (MATCH (j:Job) RETURN j AS J) WHERE J.CPU > 50",
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn where_on_string() {
        let g = lineage();
        let t = exec(
            &g,
            "SELECT J FROM (MATCH (j:Job) RETURN j AS J) WHERE J.pipelineName = 'p0'",
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn group_by_with_sum() {
        let g = lineage();
        let t = exec(
            &g,
            "SELECT J.pipelineName, SUM(J.CPU) FROM (MATCH (j:Job) RETURN j AS J)
             GROUP BY J.pipelineName",
        );
        assert_eq!(t.len(), 2);
        let mut rows: Vec<(String, i64)> = t
            .rows
            .iter()
            .map(|r| {
                let Datum::Val(Value::Str(s)) = &r[0] else {
                    panic!()
                };
                (s.clone(), r[1].as_int().unwrap())
            })
            .collect();
        rows.sort();
        assert_eq!(rows, vec![("p0".into(), 101), ("p1".into(), 1010)]);
    }

    #[test]
    fn avg_returns_float() {
        let g = lineage();
        let t = exec(&g, "SELECT AVG(J.CPU) FROM (MATCH (j:Job) RETURN j AS J)");
        let Datum::Val(Value::Float(avg)) = t.rows[0][0] else {
            panic!()
        };
        assert!((avg - 277.75).abs() < 1e-9);
    }

    #[test]
    fn min_max() {
        let g = lineage();
        let t = exec(
            &g,
            "SELECT MIN(J.CPU), MAX(J.CPU) FROM (MATCH (j:Job) RETURN j AS J)",
        );
        assert_eq!(t.rows[0][0].as_int(), Some(1));
        assert_eq!(t.rows[0][1].as_int(), Some(1000));
    }

    #[test]
    fn aggregates_on_empty_input() {
        let g = lineage();
        let t = exec(
            &g,
            "SELECT COUNT(*), SUM(J.CPU), AVG(J.CPU) FROM
             (SELECT J FROM (MATCH (j:Job) RETURN j AS J) WHERE J.CPU > 99999)",
        );
        assert_eq!(t.rows[0][0].as_int(), Some(0));
        assert_eq!(t.rows[0][1].as_int(), Some(0));
        assert_eq!(t.rows[0][2], Datum::Null);
    }

    #[test]
    fn listing_1_blast_radius_end_to_end() {
        let g = lineage();
        let t = exec(&g, crate::listings::LISTING_1);
        // inner query: one row per (A,B) downstream pair with
        // T_CPU = SUM over that pair's rows = B.CPU (pairs are deduped).
        // outer: AVG(T_CPU) per pipeline of A.
        // p0: A=j0 with pairs (j0,j1),(j0,j2),(j0,j3) -> (10+100+1000)/3
        // p1: A=j1 with pair (j1,j2) -> 100
        assert_eq!(t.len(), 2);
        let mut rows: Vec<(String, f64)> = t
            .rows
            .iter()
            .map(|r| {
                let Datum::Val(Value::Str(s)) = &r[0] else {
                    panic!()
                };
                (s.clone(), r[1].as_f64().unwrap())
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        assert!((rows[0].1 - 370.0).abs() < 1e-9, "p0 avg: {:?}", rows[0]);
        assert_eq!(rows[0].0, "p0");
        assert_eq!(rows[1], ("p1".to_string(), 100.0));
    }

    #[test]
    fn nested_group_by_column_passthrough() {
        let g = lineage();
        // inner groups by vertex pairs, outer consumes alias column
        let t = exec(
            &g,
            "SELECT A, SUM(B.CPU) AS T FROM (
               MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job)
               RETURN a AS A, b AS B
             ) GROUP BY A, B",
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.columns, vec!["A", "T"]);
    }

    #[test]
    fn unknown_column_errors() {
        let g = lineage();
        let q = parse("SELECT Z FROM (MATCH (j:Job) RETURN j AS J)").unwrap();
        assert!(matches!(execute(&g, &q), Err(ExecError::UnknownColumn(_))));
    }

    #[test]
    fn prop_on_scalar_column_errors() {
        let g = lineage();
        let q = parse("SELECT T.CPU FROM (SELECT COUNT(*) AS T FROM (MATCH (j:Job) RETURN j))")
            .unwrap();
        assert!(matches!(execute(&g, &q), Err(ExecError::NotAVertex(_))));
    }

    #[test]
    fn missing_property_is_null_and_skipped_by_aggs() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("Job");
        b.set_vertex_prop(a, "CPU", Value::Int(5));
        b.add_vertex("Job"); // no CPU
        let g = b.finish();
        let t = exec(
            &g,
            "SELECT COUNT(J.CPU), SUM(J.CPU) FROM (MATCH (j:Job) RETURN j AS J)",
        );
        assert_eq!(t.rows[0][0].as_int(), Some(1));
        assert_eq!(t.rows[0][1].as_int(), Some(5));
    }

    #[test]
    fn order_by_desc_with_limit() {
        let g = lineage();
        let t = exec(
            &g,
            "SELECT J.CPU FROM (MATCH (j:Job) RETURN j AS J) ORDER BY J.CPU DESC LIMIT 2",
        );
        let cpus: Vec<i64> = t.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(cpus, vec![1000, 100]);
    }

    #[test]
    fn order_by_alias_column() {
        let g = lineage();
        let t = exec(
            &g,
            "SELECT J.pipelineName AS P, SUM(J.CPU) AS S FROM (MATCH (j:Job) RETURN j AS J)
             GROUP BY J.pipelineName ORDER BY S DESC",
        );
        let sums: Vec<i64> = t.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(sums, vec![1010, 101]);
    }

    #[test]
    fn limit_zero_and_overlong() {
        let g = lineage();
        let t = exec(&g, "SELECT J FROM (MATCH (j:Job) RETURN j AS J) LIMIT 0");
        assert!(t.is_empty());
        let t = exec(&g, "SELECT J FROM (MATCH (j:Job) RETURN j AS J) LIMIT 99");
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn where_comparing_two_props() {
        let g = lineage();
        // jobs whose CPU exceeds 50 AND pipeline p0 — cross-conjunct
        let t = exec(
            &g,
            "SELECT J FROM (MATCH (j:Job) RETURN j AS J)
             WHERE J.CPU > 50 AND J.pipelineName = 'p0'",
        );
        assert_eq!(t.len(), 1); // j2 (CPU=100, p0)
    }

    #[test]
    fn where_on_missing_property_is_false() {
        let g = lineage();
        let t = exec(
            &g,
            "SELECT F FROM (MATCH (f:File) RETURN f AS F) WHERE F.CPU > 0",
        );
        assert!(t.is_empty());
    }

    #[test]
    fn count_on_vertex_column_counts_non_null() {
        let g = lineage();
        let t = exec(&g, "SELECT COUNT(J) FROM (MATCH (j:Job) RETURN j AS J)");
        assert_eq!(t.scalar().unwrap().as_int(), Some(4));
    }

    #[test]
    fn literal_projection() {
        let g = lineage();
        let t = exec(
            &g,
            "SELECT 42, J FROM (MATCH (j:Job) RETURN j AS J) LIMIT 1",
        );
        assert_eq!(t.rows[0][0].as_int(), Some(42));
    }

    #[test]
    fn datum_display() {
        assert_eq!(Datum::Val(Value::Int(3)).to_string(), "3");
        assert_eq!(Datum::Null.to_string(), "NULL");
        assert_eq!(Datum::Vertex(VertexId(7)).to_string(), "v7");
    }

    #[test]
    fn group_by_merges_integral_float_with_int() {
        let mut b = GraphBuilder::new();
        for w in [
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(1.5),
            Value::Float(-0.0),
            Value::Int(0),
        ] {
            let j = b.add_vertex("Job");
            b.set_vertex_prop(j, "w", w);
        }
        let g = b.finish();
        // WHERE `=` (Value::total_cmp) holds 1 = 1.0 and -0.0 <> 0 ...
        let eq = exec(
            &g,
            "SELECT COUNT(*) FROM (MATCH (j:Job) RETURN j AS J) WHERE J.w = 1",
        );
        assert_eq!(eq.scalar().unwrap().as_int(), Some(2));
        // ... and GROUP BY agrees, on the hash path and on the run path
        let t = exec(
            &g,
            "SELECT J.w, COUNT(*) FROM (MATCH (j:Job) RETURN j AS J) GROUP BY J.w",
        );
        let counts: Vec<i64> = t.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(counts, vec![2, 1, 1, 1]);
        // a group shows its first row's value
        assert_eq!(t.rows[0][0], Datum::Val(Value::Int(1)));
        let t = exec(
            &g,
            "SELECT W, COUNT(*) FROM (SELECT J.w AS W FROM (MATCH (j:Job) RETURN j AS J))
             GROUP BY W",
        );
        let counts: Vec<i64> = t.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(counts, vec![2, 1, 1, 1]);
    }

    #[test]
    fn run_grouping_matches_hash_grouping() {
        let g = lineage();
        // GROUP BY A is a prefix of RETURN (A, B): folded as runs; GROUP
        // BY B is not: hashed. Both keep first-occurrence group order.
        let runs = exec(
            &g,
            "SELECT A, COUNT(*) AS N FROM (
               MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job)
               RETURN a AS A, b AS B
             ) GROUP BY A",
        );
        let hashed = exec(
            &g,
            "SELECT B, COUNT(*) AS N FROM (
               MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job)
               RETURN b AS B, a AS A
             ) GROUP BY A, A",
        );
        let counts = |t: &Table| {
            t.rows
                .iter()
                .map(|r| r[1].as_int().unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&runs), vec![2, 1]);
        assert_eq!(counts(&hashed), vec![2, 1]);
    }

    #[test]
    fn errors_are_deferred_until_a_row_reaches_them() {
        let g = lineage();
        let run = |src: &str| execute(&g, &parse(src).unwrap());
        // no row reaches the unknown column: no error
        let t = run("SELECT Z FROM (MATCH (j:Job) RETURN j AS J) WHERE J.CPU > 99999").unwrap();
        assert!(t.is_empty());
        // a WHERE error wins over a projection error
        assert_eq!(
            run("SELECT Z FROM (MATCH (j:Job) RETURN j AS J) WHERE Y = 1"),
            Err(ExecError::UnknownColumn("Y".into()))
        );
        // a grouping error wins over an aggregate error
        assert_eq!(
            run("SELECT SUM(J) FROM (MATCH (j:Job) RETURN j AS J) GROUP BY Y"),
            Err(ExecError::UnknownColumn("Y".into()))
        );
        // aggregate errors come in item order within the first group
        assert_eq!(
            run("SELECT MIN(Z), SUM(J) FROM (MATCH (j:Job) RETURN j AS J) GROUP BY J"),
            Err(ExecError::UnknownColumn("Z".into()))
        );
    }

    #[test]
    fn group_order_is_deterministic() {
        let g = lineage();
        let a = exec(
            &g,
            "SELECT J.pipelineName, COUNT(*) FROM (MATCH (j:Job) RETURN j AS J) GROUP BY J.pipelineName",
        );
        let b2 = exec(
            &g,
            "SELECT J.pipelineName, COUNT(*) FROM (MATCH (j:Job) RETURN j AS J) GROUP BY J.pipelineName",
        );
        assert_eq!(a, b2);
    }
}
