//! `kaskade-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's detail record, then as the last line the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits non-zero when any answer or check is wrong.

use std::process::ExitCode;

use kaskade_perfbench::{run, Config, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: kaskade-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };
    let cfg = Config::new(workload, seed, seconds, trace);
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("error: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&cfg);
    let stem = format!(
        "{}-{seed}{}",
        workload.name(),
        if trace { "-trace" } else { "" }
    );
    let mut files = vec![(format!("{stem}.json"), outcome.detail.clone())];
    if let Some(spans) = &outcome.spans_jsonl {
        files.push((format!("{stem}-spans.jsonl"), spans.clone()));
    }
    for (name, body) in files {
        if let Err(e) = std::fs::write(cfg.out_dir.join(&name), body) {
            eprintln!("warning: cannot write {name}: {e}");
        }
    }
    println!("{}", outcome.detail);
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
