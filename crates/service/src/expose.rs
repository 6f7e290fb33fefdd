//! Metrics exposition: a Prometheus-style text endpoint served over a
//! stdlib [`TcpListener`] — no HTTP framework, no metrics crate, fully
//! offline, matching the hand-rolled spirit of [`crate::metrics`].
//!
//! [`render_prometheus`] turns an [`Engine`] into the text exposition
//! format (version 0.0.4): counters and gauges from the stitched
//! [`MetricsReport`](crate::MetricsReport), per-view series labeled
//! `{view="..."}`, and full cumulative `_bucket`/`_sum`/`_count`
//! histograms translated from the log-bucket [`LatencyHistogram`]s. [`MetricsServer`] binds a
//! listener and serves it from one background thread:
//!
//! - `GET /metrics` — the exposition text
//! - `GET /healthz` — `ok` (liveness)
//! - `GET /trace`   — the flight-recorder dump ([`crate::Tracer::render_dump`])
//!
//! The accept loop is nonblocking with a short sleep, so dropping the
//! server stops it promptly without a connection-based wakeup hack.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::Engine;
use crate::metrics::LatencyHistogram;

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn push_counter(out: &mut String, name: &str, help: &str, value: u64) {
    push_series(
        out,
        name,
        help,
        "counter",
        &[(name.to_string(), value as f64)],
    );
}

fn push_gauge(out: &mut String, name: &str, help: &str, value: f64) {
    push_series(out, name, help, "gauge", &[(name.to_string(), value)]);
}

/// One `# HELP`/`# TYPE` header plus the given `(series, value)` rows
/// (each series is the metric name with any label set already baked
/// in). Values render in the shortest float form Prometheus accepts.
fn push_series(out: &mut String, name: &str, help: &str, kind: &str, rows: &[(String, f64)]) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (series, value) in rows {
        if value.fract() == 0.0 && value.abs() < 9.0e15 {
            let _ = writeln!(out, "{series} {}", *value as i64);
        } else {
            let _ = writeln!(out, "{series} {value}");
        }
    }
}

/// Renders one log-bucket histogram as cumulative Prometheus buckets
/// in seconds: one `le` row per non-empty power-of-two bucket (upper
/// bound `2^(i+1)` ns) plus the mandatory `+Inf`, then `_sum` and
/// `_count`. Skipping empty buckets keeps the text compact and is
/// legal — cumulative counts are correct at every emitted bound.
fn push_histogram(out: &mut String, name: &str, help: &str, h: &LatencyHistogram) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, &n) in h.bucket_counts().iter().enumerate() {
        if n == 0 {
            continue;
        }
        cumulative += n;
        let upper = (1u128 << (i + 1)) as f64 / 1.0e9;
        let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(out, "{name}_sum {}", h.sum().as_secs_f64());
    let _ = writeln!(out, "{name}_count {cumulative}");
}

/// Renders the engine's full state in the Prometheus text exposition
/// format (version 0.0.4). Pure function of the engine — the
/// `/metrics` endpoint shares it with the tests.
pub fn render_prometheus(engine: &Engine) -> String {
    use std::fmt::Write as _;
    let r = engine.metrics();
    let mut out = String::with_capacity(4096);

    push_counter(
        &mut out,
        "kaskade_queries_total",
        "Queries served successfully.",
        r.queries,
    );
    push_counter(
        &mut out,
        "kaskade_query_errors_total",
        "Queries that returned an error.",
        r.query_errors,
    );
    push_counter(
        &mut out,
        "kaskade_deltas_applied_total",
        "Individual deltas applied by the write path.",
        r.deltas_applied,
    );
    push_counter(
        &mut out,
        "kaskade_deltas_rejected_total",
        "Deltas dropped as invalid.",
        r.deltas_rejected,
    );
    push_counter(
        &mut out,
        "kaskade_deltas_backpressured_total",
        "Submissions refused on a full queue.",
        r.deltas_backpressured,
    );
    push_counter(
        &mut out,
        "kaskade_deltas_stale_rejected_total",
        "Slot-addressed deltas refused because their epoch predates the remap history.",
        r.deltas_stale_rejected,
    );
    push_counter(
        &mut out,
        "kaskade_retractions_applied_total",
        "Retraction operations in applied batches.",
        r.retractions_applied,
    );
    push_counter(
        &mut out,
        "kaskade_views_refreshed_total",
        "Views refreshed by the per-publish refresh DAG.",
        r.views_refreshed,
    );
    push_counter(
        &mut out,
        "kaskade_views_rematerialized_total",
        "Refreshes that fell back to full re-materialization.",
        r.views_rematerialized,
    );
    push_counter(
        &mut out,
        "kaskade_views_created_total",
        "Views created by live DDL (manual or advisor).",
        r.views_created,
    );
    push_counter(
        &mut out,
        "kaskade_views_dropped_total",
        "Views dropped by live DDL (manual or advisor).",
        r.views_dropped,
    );
    push_counter(
        &mut out,
        "kaskade_advisor_migrations_total",
        "Catalog migrations issued by the view-admission advisor.",
        r.advisor_migrations,
    );
    push_counter(
        &mut out,
        "kaskade_compactions_total",
        "Slot compactions run.",
        r.compactions_run,
    );
    push_counter(
        &mut out,
        "kaskade_slots_reclaimed_total",
        "Id slots reclaimed by compactions.",
        r.slots_reclaimed,
    );
    push_counter(
        &mut out,
        "kaskade_batches_published_total",
        "Write batches published (epochs minted).",
        r.batches_published,
    );
    push_counter(
        &mut out,
        "kaskade_plan_cache_hits_total",
        "Plan-cache hits.",
        r.plan_cache_hits,
    );
    push_counter(
        &mut out,
        "kaskade_plan_cache_misses_total",
        "Plan-cache misses.",
        r.plan_cache_misses,
    );
    push_counter(
        &mut out,
        "kaskade_enumeration_memo_hits_total",
        "View enumerations answered from the per-pattern memo.",
        r.enumeration_memo_hits,
    );
    push_counter(
        &mut out,
        "kaskade_enumeration_memo_misses_total",
        "View enumerations that ran the Prolog solver.",
        r.enumeration_memo_misses,
    );
    push_gauge(
        &mut out,
        "kaskade_epoch",
        "Epoch of the currently published snapshot.",
        r.epoch as f64,
    );
    push_gauge(
        &mut out,
        "kaskade_queue_depth",
        "Deltas waiting in the bounded queue.",
        r.queue_depth as f64,
    );
    push_gauge(
        &mut out,
        "kaskade_refresh_lag_seconds",
        "Enqueue-to-visibility lag of the most recent batch.",
        r.last_refresh_lag.as_secs_f64(),
    );
    push_gauge(
        &mut out,
        "kaskade_refresh_lag_max_seconds",
        "Worst enqueue-to-visibility lag observed.",
        r.max_refresh_lag.as_secs_f64(),
    );

    let tracer = engine.tracer();
    push_gauge(
        &mut out,
        "kaskade_trace_enabled",
        "Whether span tracing is on (1) or off (0).",
        tracer.is_enabled() as u64 as f64,
    );
    push_counter(
        &mut out,
        "kaskade_trace_dropped_events_total",
        "Trace events dropped on flight-recorder slot contention.",
        tracer.dropped_events(),
    );
    push_counter(
        &mut out,
        "kaskade_slow_queries_total",
        "Queries that crossed the slow-query threshold.",
        tracer.slow_queries(),
    );

    // per-view dimensional series
    if !r.per_view.is_empty() {
        let rows = |f: &dyn Fn(&crate::metrics::ViewMetrics) -> f64| {
            r.per_view
                .iter()
                .map(|v| (format!("{{view=\"{}\"}}", escape_label(&v.name)), f(v)))
                .collect::<Vec<_>>()
        };
        let named = |name: &str, rows: Vec<(String, f64)>| {
            rows.into_iter()
                .map(|(l, v)| (format!("{name}{l}"), v))
                .collect::<Vec<_>>()
        };
        push_series(
            &mut out,
            "kaskade_view_refreshes_total",
            "Publishes that refreshed this view.",
            "counter",
            &named(
                "kaskade_view_refreshes_total",
                rows(&|v| v.refreshes as f64),
            ),
        );
        push_series(
            &mut out,
            "kaskade_view_rematerializations_total",
            "Full scratch re-materializations of this view.",
            "counter",
            &named(
                "kaskade_view_rematerializations_total",
                rows(&|v| v.rematerialized as f64),
            ),
        );
        push_series(
            &mut out,
            "kaskade_view_recomputed_total",
            "Units of incremental work (delta size) across refreshes.",
            "counter",
            &named(
                "kaskade_view_recomputed_total",
                rows(&|v| v.recomputed as f64),
            ),
        );
        push_series(
            &mut out,
            "kaskade_view_refresh_seconds_total",
            "Total wall-clock spent refreshing this view.",
            "counter",
            &named(
                "kaskade_view_refresh_seconds_total",
                rows(&|v| v.refresh_total.as_secs_f64()),
            ),
        );
        push_series(
            &mut out,
            "kaskade_view_last_refresh_seconds",
            "Duration of the view's most recent refresh.",
            "gauge",
            &named(
                "kaskade_view_last_refresh_seconds",
                rows(&|v| v.last_refresh.as_secs_f64()),
            ),
        );
        push_series(
            &mut out,
            "kaskade_view_dag_level",
            "Refresh-DAG level the view last ran in.",
            "gauge",
            &named("kaskade_view_dag_level", rows(&|v| v.level as f64)),
        );
        let mut q_rows = Vec::new();
        for v in &r.per_view {
            let view = escape_label(&v.name);
            q_rows.push((
                format!(
                    "kaskade_view_refresh_quantile_seconds{{view=\"{view}\",quantile=\"0.5\"}}"
                ),
                v.refresh_p50.as_secs_f64(),
            ));
            q_rows.push((
                format!(
                    "kaskade_view_refresh_quantile_seconds{{view=\"{view}\",quantile=\"0.99\"}}"
                ),
                v.refresh_p99.as_secs_f64(),
            ));
        }
        push_series(
            &mut out,
            "kaskade_view_refresh_quantile_seconds",
            "Per-view refresh-time quantiles (log-bucket upper bounds).",
            "gauge",
            &q_rows,
        );
    }

    // per-view benefit sensors (the advisor's keep-alive evidence)
    if !r.view_benefits.is_empty() {
        let rows: Vec<(String, f64)> = r
            .view_benefits
            .iter()
            .map(|b| {
                (
                    format!(
                        "kaskade_view_queries_answered_total{{view=\"{}\"}}",
                        escape_label(&b.name)
                    ),
                    b.answered as f64,
                )
            })
            .collect();
        push_series(
            &mut out,
            "kaskade_view_queries_answered_total",
            "Queries answered by this materialized view.",
            "counter",
            &rows,
        );
    }

    // full latency distributions, straight from the live histograms
    let metrics = engine.metrics_handle();
    push_histogram(
        &mut out,
        "kaskade_query_latency_seconds",
        "Query latency distribution.",
        metrics.query_latency(),
    );
    push_histogram(
        &mut out,
        "kaskade_apply_latency_seconds",
        "Per-batch apply+publish latency distribution.",
        metrics.apply_latency(),
    );

    let _ = writeln!(out, "# EOF");
    out
}

/// A minimal HTTP/1.0-ish exposition server on a background thread.
/// Binding `127.0.0.1:0` picks a free port ([`MetricsServer::addr`]
/// reports it). Dropping the server stops and joins the thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9100`) and starts serving
    /// `engine` — `/metrics`, `/healthz`, and `/trace`.
    pub fn bind(addr: &str, engine: Arc<Engine>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("kaskade-metrics".into())
            .spawn(move || accept_loop(listener, engine, thread_stop))?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, engine: Arc<Engine>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle_connection(stream, &engine);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
    }
}

/// Answers one request: reads until the header terminator, routes on
/// the path, writes a Connection: close response. Deliberately
/// tolerant — a scraper only needs the verb-less essentials.
fn handle_connection(mut stream: TcpStream, engine: &Engine) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // a single read() may return an arbitrary prefix of the request
    // (TCP has no message boundaries), so accumulate until the blank
    // line that ends the headers — or EOF, the read deadline, or a
    // bounded maximum for clients that never send one
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(e) => return Err(e),
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, body) = match path {
        "/healthz" => ("200 OK", "ok\n".to_string()),
        "/metrics" | "/" => ("200 OK", render_prometheus(engine)),
        "/trace" => ("200 OK", engine.tracer().render_dump()),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaskade_core::Kaskade;
    use kaskade_datasets::{generate_provenance, ProvenanceConfig};
    use kaskade_graph::Schema;

    fn engine() -> Engine {
        let g = generate_provenance(&ProvenanceConfig::tiny(3).core_only());
        Engine::from_kaskade(&Kaskade::new(g, Schema::provenance()))
    }

    #[test]
    fn exposition_has_key_series_and_valid_histograms() {
        let e = engine();
        let q = kaskade_query::parse(kaskade_query::listings::LISTING_1).unwrap();
        e.execute(&q).unwrap();
        e.execute(&q).unwrap();
        let text = render_prometheus(&e);
        for needle in [
            "# TYPE kaskade_queries_total counter",
            "kaskade_queries_total 2",
            "kaskade_plan_cache_hits_total 1",
            "kaskade_enumeration_memo_misses_total 1",
            "kaskade_enumeration_memo_hits_total 0",
            "kaskade_epoch 0",
            "# TYPE kaskade_query_latency_seconds histogram",
            "kaskade_query_latency_seconds_bucket{le=\"+Inf\"} 2",
            "kaskade_query_latency_seconds_count 2",
            "kaskade_trace_enabled 0",
            "# EOF",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // cumulative buckets never decrease
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("kaskade_query_latency_seconds_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotonic bucket in {line}");
            last = v;
        }
    }

    #[test]
    fn server_answers_metrics_healthz_and_trace() {
        let e = Arc::new(engine());
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&e)).expect("bind");
        let get = |path: &str| {
            let mut s = TcpStream::connect(server.addr()).expect("connect");
            s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        assert!(get("/healthz").contains("ok"));
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK"), "{metrics}");
        assert!(metrics.contains("kaskade_queries_total"), "{metrics}");
        assert!(get("/trace").contains("flight recorder"));
        assert!(get("/nope").starts_with("HTTP/1.0 404"));
        drop(server); // joins the accept thread
    }

    /// Regression: the server used to parse whatever a single
    /// `read()` returned. A client that trickles the request in
    /// byte-sized writes would race that read, and a short first read
    /// (e.g. just `"G"`) misrouted every request to 404. The server
    /// must accumulate until the `\r\n\r\n` header terminator.
    #[test]
    fn server_survives_byte_by_byte_client() {
        let e = Arc::new(engine());
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&e)).expect("bind");
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        s.set_nodelay(true).unwrap();
        for b in b"GET /healthz HTTP/1.0\r\n\r\n" {
            s.write_all(std::slice::from_ref(b)).unwrap();
            s.flush().unwrap();
            // give the server's read() a chance to observe a partial
            // request between bytes
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 200 OK"), "{out}");
        assert!(out.contains("ok"), "{out}");
        drop(server);
    }
}
