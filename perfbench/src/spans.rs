//! The benchmark's own in-memory spans for the traced run: name,
//! start, end, parent and request id, kept in memory and written out
//! when the run ends. A layer's self time is its span's duration minus
//! the time its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::report::{num, string};

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

/// A span recorder. Interior mutability lets spans open inside the
/// `Fn` closures the query layer calls back into.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    recs: RefCell<Vec<Rec>>,
}

/// An open span; closes when dropped.
pub struct Open<'a> {
    spans: &'a Spans,
    id: usize,
}

impl Open<'_> {
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end = self.spans.origin.elapsed();
        self.spans.recs.borrow_mut()[self.id].end = end;
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            recs: RefCell::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Opens span `name` under `parent` for request `request`.
    pub fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> Open<'_> {
        let now = self.origin.elapsed();
        let mut recs = self.recs.borrow_mut();
        recs.push(Rec {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        Open {
            spans: self,
            id: recs.len() - 1,
        }
    }

    /// Times `f` as span `name`.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let _span = self.open(name, parent, request);
        f()
    }

    /// Self time (seconds) of each span, by span index.
    fn own_times(recs: &[Rec]) -> Vec<f64> {
        let mut child_time = vec![Duration::ZERO; recs.len()];
        for r in recs {
            if let Some(p) = r.parent {
                child_time[p] += r.end.saturating_sub(r.start);
            }
        }
        recs.iter()
            .zip(child_time)
            .map(|(r, c)| {
                r.end
                    .saturating_sub(r.start)
                    .saturating_sub(c)
                    .as_secs_f64()
            })
            .collect()
    }

    /// Self time (seconds) of every span, grouped by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let recs = self.recs.borrow();
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (r, own) in recs.iter().zip(Self::own_times(&recs)) {
            out.entry(r.name).or_default().push(own);
        }
        out
    }

    /// Per request id, the summed self time (seconds) of the spans
    /// named in `layers`.
    pub fn per_request(&self, layers: &[&str]) -> BTreeMap<u64, f64> {
        let recs = self.recs.borrow();
        let mut out = BTreeMap::new();
        for (r, own) in recs.iter().zip(Self::own_times(&recs)) {
            if layers.contains(&r.name) {
                *out.entry(r.request).or_insert(0.0) += own;
            }
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, r) in self.recs.borrow().iter().enumerate() {
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": {}, \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"request\": {}}}",
                string(r.name),
                num(r.start.as_secs_f64()),
                num(r.end.as_secs_f64()),
                r.parent.map_or("null".into(), |p| p.to_string()),
                r.request
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::default();
        {
            let root = spans.open("root", None, 1);
            std::thread::sleep(Duration::from_millis(10));
            spans.time("child", Some(root.id()), 1, || {
                std::thread::sleep(Duration::from_millis(50))
            });
        }
        let own = spans.self_times();
        let (root, child) = (own["root"][0], own["child"][0]);
        assert!(child >= 0.050, "{child}");
        // the root's own 10 ms, not the 60 ms it spans
        assert!((0.010..0.050).contains(&root), "{root}");
        let per = spans.per_request(&["root", "child"]);
        assert!((per[&1] - (root + child)).abs() < 1e-9);
    }
}
