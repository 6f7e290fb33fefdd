//! Abstract syntax for Kaskade's hybrid query language (§III-B).
//!
//! Queries combine Cypher-style graph pattern matching (`MATCH` with
//! variable-length paths, as in Listing 1 of the paper) with SQL-style
//! relational constructs (`SELECT` / `WHERE` / `GROUP BY` / aggregates).
//! The AST is fully public: the view-based query rewriter in
//! `kaskade-core` edits patterns programmatically (replacing a path
//! segment with a connector-edge hop, §V-C).

use kaskade_graph::Value;

/// A node pattern `(var:Label)` — label optional.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodePattern {
    /// Binding variable name.
    pub var: String,
    /// Required vertex type, if any.
    pub label: Option<String>,
}

/// An edge pattern between two node variables.
///
/// `-[:ETYPE]->` is a single hop of a given type; `-[r*L..U]->` is a
/// variable-length path of `L..=U` hops (any or given edge type).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EdgePattern {
    /// Source node variable.
    pub src: String,
    /// Destination node variable.
    pub dst: String,
    /// Required edge type, if any (applies to every hop).
    pub etype: Option<String>,
    /// `Some((lo, hi))` for a variable-length path of `lo..=hi` hops;
    /// `None` for a single mandatory hop.
    pub hops: Option<(usize, usize)>,
}

impl EdgePattern {
    /// A single-hop edge of the given type.
    pub fn hop(src: &str, etype: &str, dst: &str) -> Self {
        EdgePattern {
            src: src.to_string(),
            dst: dst.to_string(),
            etype: Some(etype.to_string()),
            hops: None,
        }
    }

    /// A variable-length path (`lo..=hi` hops) of optional edge type.
    pub fn var_length(src: &str, dst: &str, etype: Option<&str>, lo: usize, hi: usize) -> Self {
        EdgePattern {
            src: src.to_string(),
            dst: dst.to_string(),
            etype: etype.map(str::to_string),
            hops: Some((lo, hi)),
        }
    }
}

/// A `MATCH ... RETURN ...` graph pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphPattern {
    /// Node patterns, in order of first appearance. Variables repeat
    /// across path elements to express joins.
    pub nodes: Vec<NodePattern>,
    /// Edge patterns connecting node variables.
    pub edges: Vec<EdgePattern>,
    /// `RETURN var AS alias` projections.
    pub returns: Vec<(String, String)>,
}

impl GraphPattern {
    /// Looks up a node pattern by variable name.
    pub fn node(&self, var: &str) -> Option<&NodePattern> {
        self.nodes.iter().find(|n| n.var == var)
    }

    /// Adds a node pattern if the variable is not yet present; if it is,
    /// fills in a missing label.
    pub fn add_node(&mut self, var: &str, label: Option<&str>) {
        match self.nodes.iter_mut().find(|n| n.var == var) {
            Some(n) => {
                if n.label.is_none() {
                    n.label = label.map(str::to_string);
                }
            }
            None => self.nodes.push(NodePattern {
                var: var.to_string(),
                label: label.map(str::to_string),
            }),
        }
    }
}

/// Aggregate functions of the relational fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (`COUNT(*)` or `COUNT(expr)`).
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric average.
    Avg,
    /// Minimum by the total value order.
    Min,
    /// Maximum by the total value order.
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column of the input relation (a pattern variable or an alias
    /// from an inner query).
    Column(String),
    /// A property access `var.key` where `var` is bound to a vertex.
    Prop(String, String),
    /// A literal value.
    Literal(Value),
    /// An aggregate over an expression; `None` is `COUNT(*)`.
    Agg(AggFunc, Option<Box<Expr>>),
    /// `id(var)` — the **stable external id** of the vertex bound to a
    /// pattern variable (or inner-query alias). External ids are minted
    /// by clients and survive slot compaction, so `id(v) = <ext>` names
    /// one vertex forever. The expression is not evaluable by the plain
    /// executor: the serving layer resolves it through its external-id
    /// table and turns the equality into a pinned single-slot anchor
    /// scan (see [`Query::split_extid_anchors`]).
    VertexIdOf(String),
}

impl Expr {
    /// Whether the expression contains an aggregate.
    pub fn has_agg(&self) -> bool {
        matches!(self, Expr::Agg(_, _))
    }
}

/// Comparison operators of the `WHERE` fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A conjunctive predicate: `lhs op rhs [AND ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// AND-combined comparisons.
    pub conjuncts: Vec<(Expr, CmpOp, Expr)>,
}

/// The source of a `SELECT`: either a graph pattern or a nested select.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// `FROM ( MATCH ... RETURN ... )`
    Match(GraphPattern),
    /// `FROM ( SELECT ... )`
    Subquery(Box<SelectStmt>),
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projections: `(expr, output name)`.
    pub items: Vec<(Expr, String)>,
    /// Input relation.
    pub from: Source,
    /// Optional conjunctive filter.
    pub where_clause: Option<Predicate>,
    /// Grouping expressions (empty = one implicit group if aggregates
    /// are present, otherwise row-per-row).
    pub group_by: Vec<Expr>,
    /// `ORDER BY` keys: `(expr, descending)`.
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT n` row cap.
    pub limit: Option<usize>,
}

/// A full query: either a bare pattern or a select over one.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Bare `MATCH ... RETURN ...`.
    Match(GraphPattern),
    /// `SELECT ...` (possibly nested).
    Select(SelectStmt),
}

impl Query {
    /// The innermost graph pattern, if the query bottoms out in one.
    pub fn pattern(&self) -> Option<&GraphPattern> {
        match self {
            Query::Match(p) => Some(p),
            Query::Select(s) => {
                let mut src = &s.from;
                loop {
                    match src {
                        Source::Match(p) => return Some(p),
                        Source::Subquery(inner) => src = &inner.from,
                    }
                }
            }
        }
    }

    /// Splits `id(v) = <ext>` equality conjuncts out of the query.
    ///
    /// Scans the `WHERE` clause of the `SELECT` that sits **directly on
    /// the `MATCH` source** (the only level whose columns are pattern
    /// bindings) for conjuncts of the form `id(name) = <int literal>`
    /// (either operand order), where `name` is a `RETURN` alias or a
    /// pattern variable. Each such conjunct names exactly one vertex by
    /// its stable external id, so an engine with an external-id table
    /// can replace the post-hoc filter with a pinned single-slot anchor
    /// scan ([`crate::PatternPlan::new_pinned`]).
    ///
    /// Returns `None` when the query has no such conjunct; otherwise
    /// returns the query with those conjuncts removed plus the
    /// `(pattern variable, external id)` pairs. Conjuncts using `id()`
    /// with any other shape (non-equality, unknown variable, non-integer
    /// operand) are left in place and will fail at evaluation time.
    pub fn split_extid_anchors(&self) -> Option<(Query, Vec<(String, u64)>)> {
        let Query::Select(_) = self else { return None };
        let mut out = self.clone();
        // walk to the select directly over the MATCH source
        let Query::Select(s) = &mut out else {
            unreachable!()
        };
        let mut sel: &mut SelectStmt = s;
        let pattern = loop {
            match &mut sel.from {
                Source::Match(p) => break p.clone(),
                Source::Subquery(inner) => sel = inner,
            }
        };
        let var_of = |name: &str| -> Option<String> {
            pattern
                .returns
                .iter()
                .find(|(_, alias)| alias == name)
                .map(|(var, _)| var.clone())
                .or_else(|| pattern.node(name).map(|n| n.var.clone()))
        };
        let mut anchors = Vec::new();
        if let Some(pred) = &mut sel.where_clause {
            pred.conjuncts.retain(|(l, op, r)| {
                if *op != CmpOp::Eq {
                    return true;
                }
                let (name, ext) = match (l, r) {
                    (Expr::VertexIdOf(v), Expr::Literal(Value::Int(e)))
                    | (Expr::Literal(Value::Int(e)), Expr::VertexIdOf(v))
                        if *e >= 0 =>
                    {
                        (v, *e as u64)
                    }
                    _ => return true,
                };
                match var_of(name) {
                    Some(var) => {
                        anchors.push((var, ext));
                        false
                    }
                    None => true,
                }
            });
            if pred.conjuncts.is_empty() {
                sel.where_clause = None;
            }
        }
        if anchors.is_empty() {
            None
        } else {
            Some((out, anchors))
        }
    }

    /// Mutable access to the innermost graph pattern.
    pub fn pattern_mut(&mut self) -> Option<&mut GraphPattern> {
        match self {
            Query::Match(p) => Some(p),
            Query::Select(s) => {
                let mut src = &mut s.from;
                loop {
                    match src {
                        Source::Match(p) => return Some(p),
                        Source::Subquery(inner) => src = &mut inner.from,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_node_merges_labels() {
        let mut p = GraphPattern {
            nodes: vec![],
            edges: vec![],
            returns: vec![],
        };
        p.add_node("a", None);
        p.add_node("a", Some("Job"));
        assert_eq!(p.nodes.len(), 1);
        assert_eq!(p.node("a").unwrap().label.as_deref(), Some("Job"));
        // existing label is not overwritten
        p.add_node("a", Some("File"));
        assert_eq!(p.node("a").unwrap().label.as_deref(), Some("Job"));
    }

    #[test]
    fn edge_constructors() {
        let e = EdgePattern::hop("a", "E", "b");
        assert_eq!(e.hops, None);
        let v = EdgePattern::var_length("a", "b", None, 0, 8);
        assert_eq!(v.hops, Some((0, 8)));
        assert_eq!(v.etype, None);
    }

    #[test]
    fn query_pattern_reaches_through_nesting() {
        let p = GraphPattern {
            nodes: vec![NodePattern {
                var: "a".into(),
                label: None,
            }],
            edges: vec![],
            returns: vec![("a".into(), "A".into())],
        };
        let inner = SelectStmt {
            items: vec![(Expr::Column("A".into()), "A".into())],
            from: Source::Match(p.clone()),
            where_clause: None,
            group_by: vec![],
            order_by: vec![],
            limit: None,
        };
        let outer = Query::Select(SelectStmt {
            items: vec![(Expr::Column("A".into()), "A".into())],
            from: Source::Subquery(Box::new(inner)),
            where_clause: None,
            group_by: vec![],
            order_by: vec![],
            limit: None,
        });
        assert_eq!(outer.pattern(), Some(&p));
    }

    #[test]
    fn split_extid_anchors_strips_resolvable_conjuncts() {
        let q = crate::parse(
            "SELECT A FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a AS A, f AS F) \
             WHERE id(A) = 42 AND 7 = id(f) AND A.CPU > 3",
        )
        .unwrap();
        let (stripped, anchors) = q.split_extid_anchors().unwrap();
        // alias `A` maps to pattern var `a`; `f` is a direct var name
        assert_eq!(
            anchors,
            vec![("a".to_string(), 42u64), ("f".to_string(), 7u64)]
        );
        let Query::Select(s) = &stripped else {
            panic!()
        };
        let pred = s.where_clause.as_ref().unwrap();
        assert_eq!(pred.conjuncts.len(), 1, "only the CPU filter remains");
        // stripping the only conjunct clears the WHERE clause entirely
        let q =
            crate::parse("SELECT A FROM (MATCH (a:Job) RETURN a AS A) WHERE id(A) = 1").unwrap();
        let (stripped, _) = q.split_extid_anchors().unwrap();
        let Query::Select(s) = &stripped else {
            panic!()
        };
        assert!(s.where_clause.is_none());
        // non-equality, unknown names, and anchor-free queries pass through
        assert!(
            crate::parse("SELECT A FROM (MATCH (a:Job) RETURN a AS A) WHERE id(A) > 1")
                .unwrap()
                .split_extid_anchors()
                .is_none()
        );
        assert!(
            crate::parse("SELECT A FROM (MATCH (a:Job) RETURN a AS A) WHERE id(zz) = 1")
                .unwrap()
                .split_extid_anchors()
                .is_none()
        );
        assert!(crate::parse("SELECT A FROM (MATCH (a:Job) RETURN a AS A)")
            .unwrap()
            .split_extid_anchors()
            .is_none());
        assert!(crate::parse("MATCH (a:Job) RETURN a")
            .unwrap()
            .split_extid_anchors()
            .is_none());
    }

    #[test]
    fn expr_agg_detection() {
        assert!(Expr::Agg(AggFunc::Sum, Some(Box::new(Expr::Column("x".into())))).has_agg());
        assert!(!Expr::Column("x".into()).has_agg());
    }
}
