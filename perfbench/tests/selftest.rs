//! Self-test of the benchmark at tiny scale: every workload emits every
//! metric `BENCHMARK.json` names, with its unit, and the oracle rejects
//! a deliberately corrupted answer.

use std::path::PathBuf;

use kaskade_perfbench::{run, Config, Outcome, Workload};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn tiny(workload: Workload, trace: bool, corrupt: bool) -> Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{}-{trace}-{corrupt}", workload.name()));
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let cfg = Config {
        jobs: 60,
        setups: 2,
        out_dir,
        corrupt,
        ..Config::new(workload, 7, 0.2, trace)
    };
    run(&cfg)
}

fn emitted(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for w in Workload::ALL {
        let plain = tiny(w, false, false);
        assert!(plain.correct, "{}: {}", w.name(), plain.detail);
        assert_eq!(emitted(&plain), end_to_end, "{}", w.name());
        for m in &plain.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
        let last = plain.result_line();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );

        let traced = tiny(w, true, false);
        assert!(traced.correct, "{}: {}", w.name(), traced.detail);
        assert_eq!(emitted(&traced), per_layer, "{}", w.name());
        assert!(traced.detail.contains("\"bench.remainder.read_ms\""));
        assert!(traced.spans_jsonl.as_deref().is_some_and(|s| !s.is_empty()));
    }
}

#[test]
fn oracle_rejects_a_corrupted_answer() {
    for w in Workload::ALL {
        let o = tiny(w, false, true);
        assert!(!o.correct, "{}: corrupted answer accepted", w.name());
        assert!(o.failed >= 1, "{}", w.name());
    }
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("hit"), None);
}
