//! The benchmark's own checks, at a small size and on a held-out seed (one
//! the steadiness runs in `NOTES.md` never used).

use perfbench::catalogue::{self, WORKLOADS};
use perfbench::workloads::Size;
use perfbench::{measure, Config, Outcome};

const HELD_OUT_SEED: u64 = 90_210;

fn run(workload: &str, trace: bool, inject_mismatch: bool) -> Outcome {
    let cfg = Config {
        workload: workload.to_string(),
        seed: HELD_OUT_SEED,
        seconds: 0.0,
        trace,
        size: Size::Small,
        inject_mismatch,
    };
    measure(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .1
}

#[test]
fn benchmark_json_is_generated_from_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        catalogue::benchmark_json(),
        "regenerate with `perfbench --print-benchmark-json > BENCHMARK.json`"
    );
}

/// Every workload matches its oracles on the held-out seed, and every
/// repetition (three untraced, one traced) reproduces the first exactly:
/// `measure` fails otherwise.
#[test]
fn held_out_seed_matches_oracles_and_repeats_exactly() {
    for (w, _) in WORKLOADS {
        let out = run(w, true, false);
        assert!(
            out.correct,
            "{w}: {} of {} checks failed",
            out.failed, out.attempted
        );
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        assert_eq!(metric(&out, "failed_ratio"), 0.0);
        assert!(
            !out.spans.is_empty(),
            "{w}: the traced repetition records spans"
        );
    }
}

/// Every catalogue name is printed, with its unit, in the result line of
/// both kinds of run.
#[test]
fn result_line_prints_every_metric_with_its_unit() {
    for (trace, metrics) in [
        (false, catalogue::end_to_end()),
        (true, catalogue::per_layer()),
    ] {
        let out = run("kvserve", trace, false);
        let line = out.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert_eq!(out.metrics.len(), metrics.len());
        for m in &metrics {
            let value = metric(&out, &m.name);
            assert!(value.is_finite());
            let printed = format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
            assert!(line.contains(&printed), "missing {printed}");
        }
    }
}

/// End-to-end metrics are never 0, on any workload.
#[test]
fn end_to_end_metrics_are_positive() {
    for (w, _) in WORKLOADS {
        let out = run(w, false, false);
        for (name, v, _) in &out.metrics {
            assert!(*v > 0.0, "{w}: {name} = {v}");
        }
    }
}

/// A result corrupted in benchmark code before its oracle check counts as
/// failed.
#[test]
fn injected_oracle_mismatch_raises_failed_ratio() {
    for (w, _) in WORKLOADS {
        let out = run(w, true, true);
        assert!(!out.correct, "{w}");
        assert!(out.failed >= 1, "{w}");
        assert!(metric(&out, "failed_ratio") > 0.0, "{w}");
    }
}
