//! The row-at-a-time relational interpreter the compiled stage in
//! `exec.rs` replaced, kept verbatim as a test oracle, and a property
//! test that compares the two on random graphs and random `SELECT`
//! shapes: results and errors must be identical.
//!
//! The one deliberate difference from the original interpreter is in
//! [`datum_key`]: an integral float that fits `i64` groups with the
//! equal integer, as the compiled stage does (the original keyed floats
//! by bit pattern, so `GROUP BY` split `1` from `1.0` although `WHERE
//! =` held them equal).

use std::collections::HashMap;

use kaskade_graph::{Graph, GraphBuilder, Value, VertexId};
use kaskade_query::{
    execute, AggFunc, CmpOp, Datum, EdgePattern, ExecError, Expr, GraphPattern, NodePattern,
    PatternPlan, PatternRows, Predicate, Query, SelectStmt, Source, Table,
};
use proptest::prelude::*;

/// Hashable normalization used as a grouping key (floats by bit
/// pattern, integral floats as integers).
fn datum_key(d: &Datum) -> DatumKey {
    match d {
        Datum::Vertex(v) => DatumKey::Vertex(v.0),
        Datum::Val(Value::Int(i)) => DatumKey::Int(*i),
        Datum::Val(Value::Float(f))
            if f.fract() == 0.0
                && (-9.223_372_036_854_776e18..9.223_372_036_854_776e18).contains(f)
                && !(*f == 0.0 && f.is_sign_negative()) =>
        {
            DatumKey::Int(*f as i64)
        }
        Datum::Val(Value::Float(f)) => DatumKey::Float(f.to_bits()),
        Datum::Val(Value::Str(s)) => DatumKey::Str(s.clone()),
        Datum::Val(Value::Bool(b)) => DatumKey::Bool(*b),
        Datum::Null => DatumKey::Null,
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum DatumKey {
    Vertex(u32),
    Int(i64),
    Float(u64),
    Str(String),
    Bool(bool),
    Null,
}

/// Total order on datums for ORDER BY: values by [`Value::total_cmp`],
/// then vertices by id, then NULL last; across kinds: values < vertices
/// < null.
fn datum_cmp(a: &Datum, b: &Datum) -> std::cmp::Ordering {
    use std::cmp::Ordering::*;
    match (a, b) {
        (Datum::Val(x), Datum::Val(y)) => x.total_cmp(y),
        (Datum::Vertex(x), Datum::Vertex(y)) => x.cmp(y),
        (Datum::Null, Datum::Null) => Equal,
        (Datum::Val(_), _) => Less,
        (_, Datum::Val(_)) => Greater,
        (Datum::Vertex(_), _) => Less,
        (_, Datum::Vertex(_)) => Greater,
    }
}

/// Executes a full query against a graph.
pub fn oracle_execute(g: &Graph, q: &Query) -> Result<Table, ExecError> {
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
fn execute_with_pattern(
    g: &Graph,
    q: &Query,
    pattern_exec: &dyn Fn(&GraphPattern) -> Result<PatternRows, ExecError>,
) -> Result<Table, ExecError> {
    match q {
        Query::Match(p) => Ok(match_table(pattern_exec(p)?)),
        Query::Select(s) => execute_select(g, s, pattern_exec),
    }
}

/// Lifts pattern rows into a relational [`Table`] of vertex datums.
fn match_table((columns, vrows): PatternRows) -> Table {
    Table {
        columns,
        rows: vrows
            .into_iter()
            .map(|r| r.into_iter().map(Datum::Vertex).collect())
            .collect(),
    }
}

fn execute_select(
    g: &Graph,
    s: &SelectStmt,
    pattern_exec: &dyn Fn(&GraphPattern) -> Result<PatternRows, ExecError>,
) -> Result<Table, ExecError> {
    let input = match &s.from {
        Source::Match(p) => match_table(pattern_exec(p)?),
        Source::Subquery(inner) => execute_select(g, inner, pattern_exec)?,
    };

    // WHERE
    let rows: Vec<&Vec<Datum>> = match &s.where_clause {
        None => input.rows.iter().collect(),
        Some(pred) => {
            let mut kept = Vec::new();
            for row in &input.rows {
                if eval_predicate(g, &input.columns, row, pred)? {
                    kept.push(row);
                }
            }
            kept
        }
    };

    let has_agg = s.items.iter().any(|(e, _)| e.has_agg());
    let columns: Vec<String> = s.items.iter().map(|(_, a)| a.clone()).collect();

    if !has_agg && s.group_by.is_empty() {
        // plain projection
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let mut r = Vec::with_capacity(s.items.len());
            for (e, _) in &s.items {
                r.push(eval_scalar(g, &input.columns, row, e)?);
            }
            out.push(r);
        }
        let mut table = Table { columns, rows: out };
        apply_order_and_limit(g, s, &mut table)?;
        return Ok(table);
    }

    // group rows
    let mut groups: HashMap<Vec<DatumKey>, Vec<&Vec<Datum>>> = HashMap::new();
    let mut group_order: Vec<Vec<DatumKey>> = Vec::new();
    for row in rows {
        let mut key = Vec::with_capacity(s.group_by.len());
        for e in &s.group_by {
            key.push(datum_key(&eval_scalar(g, &input.columns, row, e)?));
        }
        groups
            .entry(key.clone())
            .or_insert_with(|| {
                group_order.push(key);
                Vec::new()
            })
            .push(row);
    }
    // with no GROUP BY but aggregates: one implicit group (even if empty)
    if s.group_by.is_empty() && groups.is_empty() {
        groups.insert(vec![], vec![]);
        group_order.push(vec![]);
    }

    let mut out = Vec::with_capacity(groups.len());
    for key in &group_order {
        let members = &groups[key];
        let mut r = Vec::with_capacity(s.items.len());
        for (e, _) in &s.items {
            r.push(eval_with_agg(g, &input.columns, members, e)?);
        }
        out.push(r);
    }
    let mut table = Table { columns, rows: out };
    apply_order_and_limit(g, s, &mut table)?;
    Ok(table)
}

/// Applies ORDER BY (over the *output* columns, by alias or positional
/// re-evaluation) and LIMIT to a finished table.
fn apply_order_and_limit(g: &Graph, s: &SelectStmt, table: &mut Table) -> Result<(), ExecError> {
    if !s.order_by.is_empty() {
        // resolve each key: if the expression matches an output alias or
        // a projected expression, sort on that column; otherwise it must
        // be evaluable against the output row (e.g. Prop on a projected
        // vertex column)
        let mut keys: Vec<Vec<Datum>> = Vec::with_capacity(table.rows.len());
        for row in &table.rows {
            let mut k = Vec::with_capacity(s.order_by.len());
            for (e, _) in &s.order_by {
                // alias match first
                let d = match e {
                    Expr::Column(name) if table.column_index(name).is_some() => {
                        row[table.column_index(name).unwrap()].clone()
                    }
                    _ => {
                        // positional: identical projected expression
                        match s.items.iter().position(|(pe, _)| pe == e) {
                            Some(i) => row[i].clone(),
                            None => eval_scalar(g, &table.columns, row, e)?,
                        }
                    }
                };
                k.push(d);
            }
            keys.push(k);
        }
        let mut idx: Vec<usize> = (0..table.rows.len()).collect();
        idx.sort_by(|&a, &b| {
            for (i, (_, desc)) in s.order_by.iter().enumerate() {
                let o = datum_cmp(&keys[a][i], &keys[b][i]);
                let o = if *desc { o.reverse() } else { o };
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            a.cmp(&b) // stable tie-break
        });
        let mut reordered = Vec::with_capacity(table.rows.len());
        for i in idx {
            reordered.push(table.rows[i].clone());
        }
        table.rows = reordered;
    }
    if let Some(n) = s.limit {
        table.rows.truncate(n);
    }
    Ok(())
}

/// Evaluates a scalar (non-aggregate) expression over one row.
fn eval_scalar(g: &Graph, columns: &[String], row: &[Datum], e: &Expr) -> Result<Datum, ExecError> {
    match e {
        Expr::Literal(v) => Ok(Datum::Val(v.clone())),
        Expr::Column(name) => {
            let i = columns
                .iter()
                .position(|c| c == name)
                .ok_or_else(|| ExecError::UnknownColumn(name.clone()))?;
            Ok(row[i].clone())
        }
        Expr::Prop(var, key) => {
            let i = columns
                .iter()
                .position(|c| c == var)
                .ok_or_else(|| ExecError::UnknownColumn(var.clone()))?;
            match &row[i] {
                Datum::Vertex(v) => Ok(g
                    .vertex_prop(*v, key)
                    .map(|p| Datum::Val(p.clone()))
                    .unwrap_or(Datum::Null)),
                _ => Err(ExecError::NotAVertex(var.clone())),
            }
        }
        Expr::Agg(_, _) => Err(ExecError::MisplacedAggregate),
        // graphs store slot ids, not external ids; an `id()` that was
        // not resolved into a pinned anchor by the serving layer (see
        // `Query::split_extid_anchors`) cannot be answered here
        Expr::VertexIdOf(_) => Err(ExecError::Unsupported(
            "id() requires external-id resolution by the serving engine".into(),
        )),
    }
}

/// Evaluates an expression that may be an aggregate, over a group.
fn eval_with_agg(
    g: &Graph,
    columns: &[String],
    group: &[&Vec<Datum>],
    e: &Expr,
) -> Result<Datum, ExecError> {
    match e {
        Expr::Agg(func, inner) => match func {
            AggFunc::Count => match inner {
                None => Ok(Datum::Val(Value::Int(group.len() as i64))),
                Some(inner) => {
                    let mut n = 0i64;
                    for row in group {
                        if !matches!(eval_scalar(g, columns, row, inner)?, Datum::Null) {
                            n += 1;
                        }
                    }
                    Ok(Datum::Val(Value::Int(n)))
                }
            },
            AggFunc::Sum | AggFunc::Avg => {
                let inner = inner.as_ref().ok_or(ExecError::MisplacedAggregate)?;
                let mut sum_i: i64 = 0;
                let mut sum_f: f64 = 0.0;
                let mut all_int = true;
                let mut n = 0usize;
                for row in group {
                    match eval_scalar(g, columns, row, inner)? {
                        Datum::Val(Value::Int(v)) => {
                            sum_i = sum_i.wrapping_add(v);
                            sum_f += v as f64;
                            n += 1;
                        }
                        Datum::Val(Value::Float(v)) => {
                            all_int = false;
                            sum_f += v;
                            n += 1;
                        }
                        Datum::Null => {}
                        _ => return Err(ExecError::NotAVertex("aggregate input".into())),
                    }
                }
                if n == 0 {
                    return Ok(if *func == AggFunc::Sum {
                        Datum::Val(Value::Int(0))
                    } else {
                        Datum::Null
                    });
                }
                Ok(match func {
                    AggFunc::Sum if all_int => Datum::Val(Value::Int(sum_i)),
                    AggFunc::Sum => Datum::Val(Value::Float(sum_f)),
                    _ => Datum::Val(Value::Float(sum_f / n as f64)),
                })
            }
            AggFunc::Min | AggFunc::Max => {
                let inner = inner.as_ref().ok_or(ExecError::MisplacedAggregate)?;
                let mut best: Option<Value> = None;
                for row in group {
                    if let Datum::Val(v) = eval_scalar(g, columns, row, inner)? {
                        best = Some(match best {
                            None => v,
                            Some(b) => {
                                let keep_new = match func {
                                    AggFunc::Min => v.total_cmp(&b) == std::cmp::Ordering::Less,
                                    _ => v.total_cmp(&b) == std::cmp::Ordering::Greater,
                                };
                                if keep_new {
                                    v
                                } else {
                                    b
                                }
                            }
                        });
                    }
                }
                Ok(best.map(Datum::Val).unwrap_or(Datum::Null))
            }
        },
        // non-aggregate in a grouped query: take it from the first row
        // (callers group by these expressions, so it is constant within
        // the group; empty implicit groups yield Null)
        other => match group.first() {
            Some(row) => eval_scalar(g, columns, row, other),
            None => Ok(Datum::Null),
        },
    }
}

fn eval_predicate(
    g: &Graph,
    columns: &[String],
    row: &[Datum],
    pred: &Predicate,
) -> Result<bool, ExecError> {
    for (l, op, r) in &pred.conjuncts {
        let lv = eval_scalar(g, columns, row, l)?;
        let rv = eval_scalar(g, columns, row, r)?;
        let (Datum::Val(lv), Datum::Val(rv)) = (&lv, &rv) else {
            // null or vertex comparisons are false (SQL-ish semantics)
            return Ok(false);
        };
        let ord = lv.total_cmp(rv);
        let pass = match op {
            CmpOp::Eq => ord == std::cmp::Ordering::Equal,
            CmpOp::Ne => ord != std::cmp::Ordering::Equal,
            CmpOp::Lt => ord == std::cmp::Ordering::Less,
            CmpOp::Le => ord != std::cmp::Ordering::Greater,
            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
            CmpOp::Ge => ord != std::cmp::Ordering::Less,
        };
        if !pass {
            return Ok(false);
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------
// Random graphs and random SELECT shapes
// ---------------------------------------------------------------------

fn pick<T: Clone>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize].clone()
}

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    rng.below(100) < percent
}

/// Jobs write files, files are read by jobs. Property values mix Int
/// and Float (integral and not), with occasional strings and gaps, so
/// that sums, comparisons and grouping meet every kind.
fn random_graph(rng: &mut TestRng) -> Graph {
    let mut b = GraphBuilder::new();
    // now and then an empty or single-vertex graph
    let n_jobs = if chance(rng, 10) {
        rng.below(2)
    } else {
        2 + rng.below(8)
    };
    let jobs: Vec<VertexId> = (0..n_jobs).map(|_| b.add_vertex("Job")).collect();
    let files: Vec<VertexId> = (0..1 + rng.below(5))
        .map(|_| b.add_vertex("File"))
        .collect();
    let numbers = [
        Value::Int(0),
        Value::Int(1),
        Value::Int(2),
        Value::Int(-3),
        Value::Float(1.0),
        Value::Float(2.0),
        Value::Float(0.5),
        Value::Float(-0.0),
        Value::Float(2.5),
    ];
    for &j in &jobs {
        if !chance(rng, 15) {
            let cpu = if chance(rng, 5) {
                Value::Str("busy".into())
            } else {
                pick(rng, &numbers)
            };
            b.set_vertex_prop(j, "CPU", cpu);
        }
        if !chance(rng, 15) {
            let name = if chance(rng, 10) {
                pick(rng, &numbers)
            } else {
                Value::Str(pick(rng, &["p0", "p1", "p2"]).into())
            };
            b.set_vertex_prop(j, "pipelineName", name);
        }
        if chance(rng, 50) {
            b.set_vertex_prop(j, "w", pick(rng, &numbers));
        }
    }
    for &f in &files {
        if chance(rng, 50) {
            b.set_vertex_prop(f, "w", pick(rng, &numbers));
        }
    }
    for &j in &jobs {
        for _ in 0..rng.below(4) {
            b.add_edge(j, pick(rng, &files), "WRITES_TO");
        }
    }
    if !jobs.is_empty() {
        for &f in &files {
            for _ in 0..rng.below(4) {
                b.add_edge(f, pick(rng, &jobs), "IS_READ_BY");
            }
        }
    }
    b.finish()
}

fn node(var: &str, label: &str) -> NodePattern {
    NodePattern {
        var: var.into(),
        label: Some(label.into()),
    }
}

/// One of a few patterns; the RETURN order varies, so a GROUP BY on the
/// same columns is sometimes a prefix of the rows (run grouping) and
/// sometimes not (hash grouping).
fn random_pattern(rng: &mut TestRng) -> GraphPattern {
    let ret = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(v, a)| (v.to_string(), a.to_string()))
            .collect()
    };
    let two_hop = |returns| GraphPattern {
        nodes: vec![node("a", "Job"), node("f", "File"), node("b", "Job")],
        edges: vec![
            EdgePattern::hop("a", "WRITES_TO", "f"),
            EdgePattern::hop("f", "IS_READ_BY", "b"),
        ],
        returns,
    };
    match rng.below(5) {
        0 => GraphPattern {
            nodes: vec![node("a", "Job")],
            edges: vec![],
            returns: ret(&[("a", "A")]),
        },
        1 => two_hop(ret(&[("a", "A"), ("b", "B")])),
        2 => two_hop(ret(&[("b", "B"), ("a", "A")])),
        3 => two_hop(ret(&[("a", "A"), ("f", "F"), ("b", "B")])),
        _ => GraphPattern {
            nodes: vec![node("a", "Job"), node("f", "File")],
            edges: vec![EdgePattern::hop("a", "WRITES_TO", "f")],
            returns: ret(&[("a", "A"), ("f", "F")]),
        },
    }
}

fn random_literal(rng: &mut TestRng) -> Value {
    match rng.below(4) {
        0 => Value::Int(rng.below(4) as i64 - 1),
        1 => Value::Float(pick(rng, &[0.5, 1.0, 2.0, -0.0])),
        2 => Value::Str(pick(rng, &["p0", "p1"]).into()),
        _ => Value::Bool(chance(rng, 50)),
    }
}

/// The columns of a level's input, and which of them hold vertices.
struct Cols {
    all: Vec<String>,
    vertices: Vec<String>,
}

impl Cols {
    /// The columns a level outputs: its aliases, where a projected
    /// vertex column stays a vertex column.
    fn output(&self, items: &[(Expr, String)]) -> Cols {
        let vertices = items
            .iter()
            .filter(|(e, _)| matches!(e, Expr::Column(c) if self.vertices.contains(c)))
            .map(|(_, a)| a.clone())
            .collect();
        Cols {
            all: items.iter().map(|(_, a)| a.clone()).collect(),
            vertices,
        }
    }
}

fn random_prop(rng: &mut TestRng, cols: &Cols) -> Expr {
    let var = if !cols.vertices.is_empty() && chance(rng, 85) {
        pick(rng, &cols.vertices)
    } else {
        pick(rng, &cols.all)
    };
    let key = pick(rng, &["CPU", "pipelineName", "w", "missing"]);
    Expr::Prop(var, key.into())
}

/// A scalar over `cols`; rarely one that cannot evaluate.
fn random_scalar(rng: &mut TestRng, cols: &Cols) -> Expr {
    if cols.all.is_empty() {
        return Expr::Literal(random_literal(rng));
    }
    match rng.below(100) {
        0..=34 => Expr::Column(pick(rng, &cols.all)),
        35..=79 => random_prop(rng, cols),
        80..=89 => Expr::Literal(random_literal(rng)),
        90..=93 => Expr::Column("Z".into()),
        94..=95 => Expr::Prop("Z".into(), "CPU".into()),
        96..=97 => Expr::Agg(AggFunc::Count, None),
        _ => Expr::VertexIdOf(pick(rng, &cols.all)),
    }
}

fn random_agg(rng: &mut TestRng, cols: &Cols) -> Expr {
    let func = pick(
        rng,
        &[
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ],
    );
    let arg = if chance(rng, if func == AggFunc::Count { 40 } else { 3 }) {
        None
    } else {
        Some(Box::new(random_scalar(rng, cols)))
    };
    Expr::Agg(func, arg)
}

fn random_predicate(rng: &mut TestRng, cols: &Cols) -> Predicate {
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let conjuncts = (0..1 + rng.below(2))
        .map(|_| {
            let l = random_scalar(rng, cols);
            let r = if chance(rng, 70) {
                Expr::Literal(random_literal(rng))
            } else {
                random_scalar(rng, cols)
            };
            (l, pick(rng, &ops), r)
        })
        .collect();
    Predicate { conjuncts }
}

/// A `SELECT` over an input with `cols`: plain projection, an implicit
/// group, or GROUP BY over columns and properties, with an optional
/// WHERE, ORDER BY and LIMIT.
fn random_select(rng: &mut TestRng, from: Source, cols: &Cols) -> SelectStmt {
    let where_clause = chance(rng, 40).then(|| random_predicate(rng, cols));
    let mut group_by = Vec::new();
    let mut items: Vec<Expr> = Vec::new();
    match rng.below(10) {
        // plain projection
        0..=2 => items.extend((0..1 + rng.below(3)).map(|_| random_scalar(rng, cols))),
        // one implicit group
        3..=4 => items.extend((0..1 + rng.below(3)).map(|_| random_agg(rng, cols))),
        // GROUP BY: the keys are projected, plus aggregates and, rarely,
        // a non-key item (its value on each group's first row)
        _ => {
            for _ in 0..1 + rng.below(2) {
                let key = match rng.below(100) {
                    _ if cols.all.is_empty() => random_scalar(rng, cols),
                    0..=49 => Expr::Column(pick(rng, &cols.all)),
                    50..=84 => random_prop(rng, cols),
                    _ => random_scalar(rng, cols),
                };
                group_by.push(key.clone());
                if chance(rng, 85) {
                    items.push(key);
                }
            }
            items.extend((0..rng.below(3)).map(|_| random_agg(rng, cols)));
            if chance(rng, 10) {
                items.push(random_scalar(rng, cols));
            }
        }
    }
    // a projected column keeps its name, so an outer level can reach
    // the vertex through it (`A.pipelineName`)
    let mut aliases: Vec<String> = Vec::new();
    let items: Vec<(Expr, String)> = items
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let alias = match &e {
                Expr::Column(c) if !aliases.contains(c) => c.clone(),
                _ => format!("X{i}"),
            };
            aliases.push(alias.clone());
            (e, alias)
        })
        .collect();
    let out = cols.output(&items);
    let order_by = (0..rng.below(3))
        .map(|_| {
            let key = match rng.below(3) {
                0 if !aliases.is_empty() => Expr::Column(pick(rng, &aliases)),
                1 if !items.is_empty() => pick(rng, &items).0,
                _ => random_scalar(rng, &out),
            };
            (key, chance(rng, 50))
        })
        .collect();
    let limit = chance(rng, 25).then(|| rng.below(4) as usize);
    SelectStmt {
        items,
        from,
        where_clause,
        group_by,
        order_by,
        limit,
    }
}

/// A random graph and a one- or two-level query over a random pattern.
struct RandomCase;

impl Strategy for RandomCase {
    type Value = (Graph, Query);

    fn generate(&self, rng: &mut TestRng) -> (Graph, Query) {
        let g = random_graph(rng);
        let pattern = random_pattern(rng);
        if chance(rng, 10) {
            return (g, Query::Match(pattern));
        }
        let aliases: Vec<String> = pattern.returns.iter().map(|(_, a)| a.clone()).collect();
        let cols = Cols {
            all: aliases.clone(),
            vertices: aliases,
        };
        let inner = random_select(rng, Source::Match(pattern), &cols);
        if chance(rng, 50) {
            return (g, Query::Select(inner));
        }
        let cols = cols.output(&inner.items);
        let outer = random_select(rng, Source::Subquery(Box::new(inner)), &cols);
        (g, Query::Select(outer))
    }
}

/// Results compared through `Debug`, which spells floats exactly, so
/// `-0.0` and `0.0` (and `1` and `1.0`) stay distinct.
fn render(r: &Result<Table, ExecError>) -> String {
    format!("{r:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The compiled relational stage returns exactly what the
    /// interpreter returned — the same rows in the same order, or the
    /// same error.
    #[test]
    fn compiled_stage_matches_interpreter(case in RandomCase) {
        let (g, q) = case;
        prop_assert_eq!(
            render(&execute(&g, &q)),
            render(&oracle_execute(&g, &q)),
            "query: {:?}",
            q
        );
    }
}

/// The listings over a fixed lineage graph, and the error variants on
/// empty and non-empty input.
#[test]
fn fixed_queries_match_interpreter() {
    let mut b = GraphBuilder::new();
    let j: Vec<VertexId> = (0..4).map(|_| b.add_vertex("Job")).collect();
    let f: Vec<VertexId> = (0..3).map(|_| b.add_vertex("File")).collect();
    for (i, &v) in j.iter().enumerate() {
        b.set_vertex_prop(v, "CPU", Value::Int(10_i64.pow(i as u32)));
        b.set_vertex_prop(v, "pipelineName", Value::Str(format!("p{}", i % 2)));
    }
    for (src, file, dst) in [(0, 0, 1), (1, 1, 2), (0, 2, 3)] {
        b.add_edge(j[src], f[file], "WRITES_TO");
        b.add_edge(f[file], j[dst], "IS_READ_BY");
    }
    let g = b.finish();
    let queries = [
        kaskade_query::listings::LISTING_1,
        "SELECT Z FROM (MATCH (j:Job) RETURN j AS J)",
        "SELECT Z FROM (MATCH (j:Job) RETURN j AS J) WHERE J.CPU > 99999",
        "SELECT COUNT(*), SUM(J.CPU), AVG(J.CPU), MIN(J.CPU), J FROM
           (SELECT J FROM (MATCH (j:Job) RETURN j AS J) WHERE J.CPU > 99999)",
        "SELECT T.CPU FROM (SELECT COUNT(*) AS T FROM (MATCH (j:Job) RETURN j))",
        "SELECT SUM(J) FROM (MATCH (j:Job) RETURN j AS J)",
        "SELECT SUM(J.pipelineName) FROM (MATCH (j:Job) RETURN j AS J) GROUP BY J",
        "SELECT J FROM (MATCH (j:Job) RETURN j AS J) WHERE Y = 1",
        "SELECT J FROM (MATCH (j:Job) RETURN j AS J) ORDER BY Q",
        "SELECT J FROM (MATCH (j:Nope) RETURN j AS J) ORDER BY Q",
        "SELECT B, COUNT(*) FROM (
           MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job)
           RETURN a AS A, b AS B) GROUP BY B ORDER BY B DESC LIMIT 2",
        // the inner ORDER BY interleaves A: an inner level's output is
        // not sorted, so grouping on its first column must hash
        "SELECT A, COUNT(*) FROM (
           SELECT A, B FROM (
             MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job)
             RETURN a AS A, b AS B) ORDER BY B
         ) GROUP BY A",
    ];
    for src in queries {
        let q = kaskade_query::parse(src).unwrap();
        assert_eq!(
            render(&execute(&g, &q)),
            render(&oracle_execute(&g, &q)),
            "{src}"
        );
    }
    // SUM / MIN without an argument fails even on an empty group
    for func in [AggFunc::Sum, AggFunc::Min] {
        let q = Query::Select(SelectStmt {
            items: vec![(Expr::Agg(func, None), "S".into())],
            from: Source::Match(GraphPattern {
                nodes: vec![node("j", "Nope")],
                edges: vec![],
                returns: vec![("j".into(), "J".into())],
            }),
            where_clause: None,
            group_by: vec![],
            order_by: vec![],
            limit: None,
        });
        assert_eq!(execute(&g, &q), Err(ExecError::MisplacedAggregate));
        assert_eq!(render(&execute(&g, &q)), render(&oracle_execute(&g, &q)));
    }
}
