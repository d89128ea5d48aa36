//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <tpch|graph|kvserve> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-benchmark-json
//! ```
//!
//! Prints a table of every metric on standard error and, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and the metrics. With `--trace 1` it also writes the traced
//! repetition's spans to `out/spans-<workload>-<seed>.jsonl` in the
//! benchmark's directory.

use std::process::ExitCode;

use perfbench::workloads::Size;
use perfbench::{catalogue, measure, spans, Config};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: catalogue::RUN_SECONDS as f64,
        trace: false,
        size: Size::Full,
        inject_mismatch: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn run(args: &[String]) -> Result<String, String> {
    if args == ["--print-benchmark-json"] {
        return Ok(catalogue::benchmark_json().trim_end().to_string());
    }
    let cfg = parse(args)?;
    let out = measure(&cfg)?;
    if let Some((name, v, _)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number: {v}"));
    }
    eprintln!(
        "{} seed {}: {} repetitions, {} of {} checks failed",
        cfg.workload, cfg.seed, out.reps, out.failed, out.attempted
    );
    eprint!("{}", out.table());
    if cfg.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-{}.jsonl", cfg.workload, cfg.seed);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        std::fs::write(&path, spans::to_jsonl(&out.spans))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("{} spans written to {path}", out.spans.len());
    }
    Ok(out.json())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
