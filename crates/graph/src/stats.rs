//! Graph data properties maintained for the cost model (§V.A).
//!
//! During loading Kaskade maintains (i) vertex cardinality per vertex type
//! and (ii) coarse-grained out-degree distribution summary statistics —
//! the 50th, 90th and 95th percentile out-degree per vertex type. The
//! view-size estimators in `kaskade-core` consume exactly these numbers.

use std::collections::BTreeMap;

use crate::graph::Graph;

/// Summary of the out-degree distribution of one vertex type.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeSummary {
    /// Number of vertices of this type.
    pub cardinality: usize,
    /// 50th percentile (median) out-degree.
    pub p50: usize,
    /// 90th percentile out-degree.
    pub p90: usize,
    /// 95th percentile out-degree.
    pub p95: usize,
    /// Maximum out-degree (the α=100 case).
    pub max: usize,
    /// Mean out-degree.
    pub mean: f64,
}

impl DegreeSummary {
    /// Percentile lookup for the α values the estimator supports. α must
    /// be in (0, 100]; intermediate values snap to the nearest maintained
    /// percentile (50, 90, 95, 100), matching the coarse-grained summary
    /// statistics the paper keeps.
    pub fn degree_at(&self, alpha: u8) -> usize {
        assert!(alpha > 0 && alpha <= 100, "alpha must be in (0,100]");
        match alpha {
            0..=69 => self.p50,
            70..=92 => self.p90,
            93..=99 => self.p95,
            100 => self.max,
            _ => unreachable!(),
        }
    }
}

/// Per-type degree statistics plus whole-graph totals.
///
/// Stats built by [`GraphStats::compute`] additionally retain compact
/// per-type degree **histograms** (distinct degree → count), which is
/// what makes [`GraphStats::with_changes`] possible: a write batch that
/// touches `t` vertices updates the stats in O(t · log) instead of a
/// full O(V) rescan per publish. Synthetic stats from
/// [`GraphStats::from_parts`] carry no histograms and cannot be updated
/// incrementally.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    per_type: BTreeMap<String, DegreeSummary>,
    /// Total vertex count.
    pub vertex_count: usize,
    /// Total edge count.
    pub edge_count: usize,
    /// Whole-graph degree summary (all vertices pooled).
    pub overall: DegreeSummary,
    hist: Option<StatsHist>,
}

/// A multiset of out-degrees as `degree → count`, plus running totals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct DegreeHist {
    counts: BTreeMap<usize, usize>,
    n: usize,
    degree_sum: usize,
}

impl DegreeHist {
    fn add(&mut self, d: usize) {
        *self.counts.entry(d).or_insert(0) += 1;
        self.n += 1;
        self.degree_sum += d;
    }

    /// Removes one occurrence of `d`. Panics if absent — that means the
    /// caller's degree bookkeeping diverged from the graph.
    fn remove(&mut self, d: usize) {
        let c = self
            .counts
            .get_mut(&d)
            .unwrap_or_else(|| panic!("degree {d} not present in histogram"));
        *c -= 1;
        if *c == 0 {
            self.counts.remove(&d);
        }
        self.n -= 1;
        self.degree_sum -= d;
    }

    /// Nearest-rank percentile over the multiset (0 when empty).
    fn percentile(&self, p: f64) -> usize {
        if self.n == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * self.n as f64).ceil() as usize).clamp(1, self.n);
        let mut seen = 0usize;
        for (&d, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return d;
            }
        }
        *self.counts.keys().next_back().unwrap_or(&0)
    }

    fn summarize(&self) -> DegreeSummary {
        DegreeSummary {
            cardinality: self.n,
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p95: self.percentile(95.0),
            max: self.counts.keys().next_back().copied().unwrap_or(0),
            mean: if self.n == 0 {
                0.0
            } else {
                self.degree_sum as f64 / self.n as f64
            },
        }
    }
}

/// The retained histograms behind incrementally maintainable stats.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct StatsHist {
    per_type: BTreeMap<String, DegreeHist>,
    overall: DegreeHist,
}

/// One vertex's contribution to a stats update: its type, its
/// out-degree before the change (`None` = the vertex did not exist),
/// and after (`None` = the vertex was deleted). See
/// [`GraphStats::with_changes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeChange {
    /// The vertex's type name.
    pub vtype: String,
    /// Out-degree before the delta (`None` for an inserted vertex).
    pub before: Option<usize>,
    /// Out-degree after the delta (`None` for a deleted vertex).
    pub after: Option<usize>,
}

impl GraphStats {
    /// Computes statistics for `g` in a single pass over the vertices.
    /// The result retains degree histograms, so it can be maintained
    /// incrementally with [`GraphStats::with_changes`].
    pub fn compute(g: &Graph) -> Self {
        let mut hist = StatsHist::default();
        for v in g.vertices() {
            let d = g.out_degree(v);
            hist.overall.add(d);
            hist.per_type
                .entry(g.vertex_type(v).to_string())
                .or_default()
                .add(d);
        }
        let per_type = hist
            .per_type
            .iter()
            .map(|(t, h)| (t.clone(), h.summarize()))
            .collect();
        GraphStats {
            per_type,
            vertex_count: g.vertex_count(),
            edge_count: g.edge_count(),
            overall: hist.overall.summarize(),
            hist: Some(hist),
        }
    }

    /// Applies a batch of per-vertex degree changes, returning the
    /// successor stats without rescanning the graph. Only the touched
    /// types (and the overall summary) are re-summarized; the result is
    /// **exactly** what [`GraphStats::compute`] on the mutated graph
    /// would produce (asserted by tests).
    ///
    /// Returns `None` when these stats carry no histograms (they came
    /// from [`GraphStats::from_parts`]) — fall back to a full compute.
    pub fn with_changes(
        &self,
        changes: &[DegreeChange],
        vertex_count: usize,
        edge_count: usize,
    ) -> Option<GraphStats> {
        let mut hist = self.hist.clone()?;
        let mut touched: Vec<&str> = Vec::new();
        for ch in changes {
            if ch.before == ch.after {
                continue;
            }
            let h = hist.per_type.entry(ch.vtype.clone()).or_default();
            if let Some(d) = ch.before {
                h.remove(d);
                hist.overall.remove(d);
            }
            if let Some(d) = ch.after {
                h.add(d);
                hist.overall.add(d);
            }
            touched.push(&ch.vtype);
        }
        let mut per_type = self.per_type.clone();
        for t in touched {
            match hist.per_type.get(t) {
                Some(h) if h.n > 0 => {
                    per_type.insert(t.to_string(), h.summarize());
                }
                _ => {
                    // last vertex of the type is gone: compute() on the
                    // mutated graph would not list the type at all
                    per_type.remove(t);
                }
            }
        }
        hist.per_type.retain(|_, h| h.n > 0);
        Some(GraphStats {
            per_type,
            vertex_count,
            edge_count,
            overall: hist.overall.summarize(),
            hist: Some(hist),
        })
    }

    /// Whether these stats can be maintained incrementally (they retain
    /// degree histograms).
    pub fn supports_incremental(&self) -> bool {
        self.hist.is_some()
    }

    /// Builds synthetic statistics from explicit parts — used by the
    /// view selector to cost a query against a view that has not been
    /// materialized yet (its size is only *estimated*). Synthetic stats
    /// carry no histograms (see [`GraphStats::with_changes`]).
    pub fn from_parts(
        per_type: Vec<(String, DegreeSummary)>,
        vertex_count: usize,
        edge_count: usize,
        overall: DegreeSummary,
    ) -> Self {
        GraphStats {
            per_type: per_type.into_iter().collect(),
            vertex_count,
            edge_count,
            overall,
            hist: None,
        }
    }

    /// Degree summary for a vertex type, if present.
    pub fn for_type(&self, vtype: &str) -> Option<&DegreeSummary> {
        self.per_type.get(vtype)
    }

    /// Iterates `(type name, summary)` in type-name order.
    pub fn types(&self) -> impl Iterator<Item = (&str, &DegreeSummary)> {
        self.per_type.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct vertex types observed.
    pub fn type_count(&self) -> usize {
        self.per_type.len()
    }

    /// Appends these statistics to `out` with full fidelity — the
    /// retained histograms included, so decoded stats support
    /// [`GraphStats::with_changes`] exactly like the originals and a
    /// recovered engine keeps maintaining stats incrementally.
    pub fn encode(&self, out: &mut crate::codec::Enc) {
        fn summary(s: &DegreeSummary, out: &mut crate::codec::Enc) {
            out.usize(s.cardinality);
            out.usize(s.p50);
            out.usize(s.p90);
            out.usize(s.p95);
            out.usize(s.max);
            out.f64(s.mean);
        }
        fn hist(h: &DegreeHist, out: &mut crate::codec::Enc) {
            out.usize(h.counts.len());
            for (&d, &c) in &h.counts {
                out.usize(d);
                out.usize(c);
            }
            out.usize(h.n);
            out.usize(h.degree_sum);
        }
        out.usize(self.per_type.len());
        for (t, s) in &self.per_type {
            out.str(t);
            summary(s, out);
        }
        out.usize(self.vertex_count);
        out.usize(self.edge_count);
        summary(&self.overall, out);
        match &self.hist {
            None => out.bool(false),
            Some(sh) => {
                out.bool(true);
                out.usize(sh.per_type.len());
                for (t, h) in &sh.per_type {
                    out.str(t);
                    hist(h, out);
                }
                hist(&sh.overall, out);
            }
        }
    }

    /// Decodes statistics written by [`GraphStats::encode`]. The result
    /// is exactly equal (`==`) to the encoded value.
    pub fn decode(d: &mut crate::codec::Dec<'_>) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::{CodecError, Dec};
        fn summary(d: &mut Dec<'_>) -> Result<DegreeSummary, CodecError> {
            Ok(DegreeSummary {
                cardinality: d.usize()?,
                p50: d.usize()?,
                p90: d.usize()?,
                p95: d.usize()?,
                max: d.usize()?,
                mean: d.f64()?,
            })
        }
        fn hist(d: &mut Dec<'_>) -> Result<DegreeHist, CodecError> {
            let n = d.count()?;
            let mut counts = BTreeMap::new();
            for _ in 0..n {
                let deg = d.usize()?;
                let c = d.usize()?;
                counts.insert(deg, c);
            }
            Ok(DegreeHist {
                counts,
                n: d.usize()?,
                degree_sum: d.usize()?,
            })
        }
        let nt = d.count()?;
        let mut per_type = BTreeMap::new();
        for _ in 0..nt {
            let t = d.str()?;
            per_type.insert(t, summary(d)?);
        }
        let vertex_count = d.usize()?;
        let edge_count = d.usize()?;
        let overall = summary(d)?;
        let hists = if d.bool()? {
            let nh = d.count()?;
            let mut ht = BTreeMap::new();
            for _ in 0..nh {
                let t = d.str()?;
                ht.insert(t, hist(d)?);
            }
            Some(StatsHist {
                per_type: ht,
                overall: hist(d)?,
            })
        } else {
            None
        };
        Ok(GraphStats {
            per_type,
            vertex_count,
            edge_count,
            overall,
            hist: hists,
        })
    }
}

/// One point of a complementary cumulative degree distribution:
/// `count` vertices have degree strictly greater than `degree`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcdfPoint {
    /// Degree threshold.
    pub degree: usize,
    /// Number of vertices with degree > `degree`.
    pub count: usize,
}

/// Complementary cumulative distribution function of out-degrees
/// (the Fig. 8 plots). Returns points for every distinct degree value.
pub fn degree_ccdf(g: &Graph) -> Vec<CcdfPoint> {
    let mut degrees: Vec<usize> = g.vertices().map(|v| g.out_degree(v)).collect();
    degrees.sort_unstable();
    let n = degrees.len();
    let mut points = Vec::new();
    let mut i = 0;
    while i < n {
        let d = degrees[i];
        // advance past all vertices with this degree
        let mut j = i;
        while j < n && degrees[j] == d {
            j += 1;
        }
        points.push(CcdfPoint {
            degree: d,
            count: n - j,
        });
        i = j;
    }
    points
}

/// Least-squares slope of `log10(count)` against `log10(degree)` over the
/// CCDF points with positive degree and count — the best-fit power-law
/// exponent reported in Fig. 8. Returns `None` with fewer than two usable
/// points.
pub fn power_law_exponent(ccdf: &[CcdfPoint]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = ccdf
        .iter()
        .filter(|p| p.degree > 0 && p.count > 0)
        .map(|p| ((p.degree as f64).log10(), (p.count as f64).log10()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn star(center_out: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let c = b.add_vertex("V");
        for _ in 0..center_out {
            let leaf = b.add_vertex("V");
            b.add_edge(c, leaf, "E");
        }
        b.finish()
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut h = DegreeHist::default();
        for d in 1..=10 {
            h.add(d);
        }
        assert_eq!(h.percentile(50.0), 5);
        assert_eq!(h.percentile(90.0), 9);
        assert_eq!(h.percentile(95.0), 10);
        assert_eq!(h.percentile(100.0), 10);
        assert_eq!(DegreeHist::default().percentile(50.0), 0);
        let mut one = DegreeHist::default();
        one.add(7);
        assert_eq!(one.percentile(50.0), 7);
    }

    #[test]
    fn with_changes_matches_compute_after_growth() {
        let g = star(4);
        let stats = GraphStats::compute(&g);
        // append one leaf and one edge from the center: center degree
        // 4 → 5, new leaf appears with degree 0
        let mut ed = g.edit();
        let leaf = ed.add_vertex("V");
        ed.add_edge(crate::VertexId(0), leaf, "E");
        let g2 = ed.finish();
        let changes = [
            DegreeChange {
                vtype: "V".into(),
                before: Some(4),
                after: Some(5),
            },
            DegreeChange {
                vtype: "V".into(),
                before: None,
                after: Some(0),
            },
        ];
        let inc = stats
            .with_changes(&changes, g2.vertex_count(), g2.edge_count())
            .unwrap();
        assert_eq!(inc, GraphStats::compute(&g2));
    }

    #[test]
    fn with_changes_matches_compute_after_retraction() {
        let g = star(3);
        let stats = GraphStats::compute(&g);
        // delete one leaf: the cascade kills one center edge too
        let g2 = g.remove_vertices([crate::VertexId(1)]);
        let changes = [
            DegreeChange {
                vtype: "V".into(),
                before: Some(0),
                after: None,
            },
            DegreeChange {
                vtype: "V".into(),
                before: Some(3),
                after: Some(2),
            },
        ];
        let inc = stats
            .with_changes(&changes, g2.vertex_count(), g2.edge_count())
            .unwrap();
        assert_eq!(inc, GraphStats::compute(&g2));
    }

    #[test]
    fn with_changes_removes_emptied_types() {
        let mut b = GraphBuilder::new();
        b.add_vertex("Job");
        b.add_vertex("File");
        let g = b.finish();
        let stats = GraphStats::compute(&g);
        let g2 = g.remove_vertices([crate::VertexId(1)]);
        let inc = stats
            .with_changes(
                &[DegreeChange {
                    vtype: "File".into(),
                    before: Some(0),
                    after: None,
                }],
                g2.vertex_count(),
                g2.edge_count(),
            )
            .unwrap();
        assert!(inc.for_type("File").is_none());
        assert_eq!(inc, GraphStats::compute(&g2));
    }

    #[test]
    fn from_parts_cannot_update_incrementally() {
        let s = GraphStats::from_parts(
            vec![],
            0,
            0,
            DegreeSummary {
                cardinality: 0,
                p50: 0,
                p90: 0,
                p95: 0,
                max: 0,
                mean: 0.0,
            },
        );
        assert!(!s.supports_incremental());
        assert!(s.with_changes(&[], 0, 0).is_none());
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let g = star(9);
        let s = GraphStats::compute(&g);
        let mut e = crate::codec::Enc::new();
        s.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = crate::codec::Dec::new(&bytes);
        let back = GraphStats::decode(&mut d).unwrap();
        assert!(d.is_done());
        assert_eq!(back, s);
        assert!(back.supports_incremental());
        // synthetic stats (no histograms) round-trip too
        let synth = GraphStats::from_parts(
            vec![(
                "V".into(),
                DegreeSummary {
                    cardinality: 3,
                    p50: 1,
                    p90: 2,
                    p95: 2,
                    max: 4,
                    mean: 1.25,
                },
            )],
            3,
            4,
            DegreeSummary {
                cardinality: 3,
                p50: 1,
                p90: 2,
                p95: 2,
                max: 4,
                mean: 1.25,
            },
        );
        let mut e = crate::codec::Enc::new();
        synth.encode(&mut e);
        let bytes = e.into_bytes();
        let back = GraphStats::decode(&mut crate::codec::Dec::new(&bytes)).unwrap();
        assert_eq!(back, synth);
        assert!(!back.supports_incremental());
    }

    #[test]
    fn stats_of_star() {
        let g = star(9);
        let s = GraphStats::compute(&g);
        assert_eq!(s.vertex_count, 10);
        assert_eq!(s.edge_count, 9);
        let v = s.for_type("V").unwrap();
        assert_eq!(v.cardinality, 10);
        assert_eq!(v.max, 9);
        assert_eq!(v.p50, 0); // 9 of 10 vertices have degree 0
        assert!((v.mean - 0.9).abs() < 1e-9);
    }

    #[test]
    fn stats_per_type_separated() {
        let mut b = GraphBuilder::new();
        let j = b.add_vertex("Job");
        for _ in 0..3 {
            let f = b.add_vertex("File");
            b.add_edge(j, f, "WRITES_TO");
        }
        let g = b.finish();
        let s = GraphStats::compute(&g);
        assert_eq!(s.for_type("Job").unwrap().max, 3);
        assert_eq!(s.for_type("File").unwrap().max, 0);
        assert_eq!(s.type_count(), 2);
        assert!(s.for_type("Task").is_none());
    }

    #[test]
    fn degree_at_snaps_to_percentiles() {
        let d = DegreeSummary {
            cardinality: 10,
            p50: 1,
            p90: 5,
            p95: 7,
            max: 20,
            mean: 2.0,
        };
        assert_eq!(d.degree_at(50), 1);
        assert_eq!(d.degree_at(60), 1);
        assert_eq!(d.degree_at(90), 5);
        assert_eq!(d.degree_at(95), 7);
        assert_eq!(d.degree_at(100), 20);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn degree_at_rejects_zero() {
        let d = DegreeSummary {
            cardinality: 1,
            p50: 0,
            p90: 0,
            p95: 0,
            max: 0,
            mean: 0.0,
        };
        d.degree_at(0);
    }

    #[test]
    fn ccdf_monotone_and_complete() {
        let g = star(5);
        let pts = degree_ccdf(&g);
        // degrees present: 0 (5 leaves) and 5 (1 center)
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].degree, 0);
        assert_eq!(pts[0].count, 1); // one vertex with degree > 0
        assert_eq!(pts[1].degree, 5);
        assert_eq!(pts[1].count, 0);
        // counts are non-increasing
        for w in pts.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
    }

    #[test]
    fn power_law_fit_on_synthetic_power_law() {
        // CCDF points lying exactly on count = 1e6 * degree^-2
        let pts: Vec<CcdfPoint> = (1..=100)
            .map(|d| CcdfPoint {
                degree: d,
                count: (1_000_000.0 / (d as f64 * d as f64)) as usize,
            })
            .collect();
        let slope = power_law_exponent(&pts).unwrap();
        assert!((slope + 2.0).abs() < 0.05, "slope={slope}");
    }

    #[test]
    fn power_law_fit_degenerate() {
        assert!(power_law_exponent(&[]).is_none());
        assert!(power_law_exponent(&[CcdfPoint {
            degree: 1,
            count: 5
        }])
        .is_none());
    }
}
