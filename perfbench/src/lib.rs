//! # perfbench — the repository benchmark
//!
//! Runs one workload of the TELEPORT reproduction in this process and
//! reports it on both of the system's clocks:
//!
//! - the *virtual* clock of the modelled rack (exact: the same seed gives
//!   the same value on any machine);
//! - the *host* clock, i.e. how fast the simulator itself runs.
//!
//! Host times are the fastest of several in-process repetitions, each of
//! which rebuilds every runtime from the same seed and so does identical
//! work. Every repetition must reproduce every exact metric bit for bit;
//! any difference is a simulator bug and fails the run. A final traced
//! repetition records host-time spans around the public calls into each
//! layer and gives the per-layer metrics.
//!
//! See `NOTES.md` for the workloads, the metrics and their spreads.

pub mod catalogue;
pub mod spans;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use catalogue::{Metric, ALGOS, PLATFORMS, QUERIES};
use spans::{self_ns, Span, Spans};
use workloads::{Rep, Size};

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Host seconds the untraced repetitions may take (at least
    /// `MIN_REPS` run regardless).
    pub seconds: f64,
    /// Report per-layer metrics from an extra traced repetition instead of
    /// the end-to-end ones.
    pub trace: bool,
    pub size: Size,
    /// Corrupt one result before it is checked (tests of the checker).
    pub inject_mismatch: bool,
}

/// Untraced repetitions always run at least this many times.
pub const MIN_REPS: usize = 3;
/// ... and at most this many.
pub const MAX_REPS: usize = 400;

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    /// Metric name, value and unit, in catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The traced repetition's spans (empty without `trace`).
    pub spans: Vec<Span>,
}

/// Run the configured workload. Fails on an unknown workload and when a
/// repetition's exact metrics differ from the first repetition's.
pub fn measure(cfg: &Config) -> Result<Outcome, String> {
    let mut w = workloads::build(&cfg.workload, cfg.seed, cfg.size, cfg.inject_mismatch)
        .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))?;
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS
        || (reps.len() < MAX_REPS && start.elapsed().as_secs_f64() < cfg.seconds)
    {
        reps.push(w.rep(&Spans::off()));
    }
    let traced = cfg.trace.then(|| {
        let spans = Spans::recording();
        let rep = w.rep(&spans);
        (rep, spans.finished())
    });
    for (i, r) in reps.iter().chain(traced.as_ref().map(|t| &t.0)).enumerate() {
        guard(&reps[0], r, i)?;
    }

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum::<u64>()
        + traced.as_ref().map_or(0, |t| t.0.attempted);
    let failed: u64 =
        reps.iter().map(|r| r.failed).sum::<u64>() + traced.as_ref().map_or(0, |t| t.0.failed);
    let wall_s = fastest(&reps, |r| &r.timed);
    let setup_s = fastest(&reps, |r| &r.setup);

    let mut values: BTreeMap<String, f64> = reps[0]
        .exact
        .iter()
        .filter(|(k, _)| !k.starts_with('#'))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    let known: Vec<String> = catalogue::end_to_end()
        .into_iter()
        .chain(catalogue::per_layer())
        .map(|m| m.name)
        .collect();
    if let Some(k) = values.keys().find(|k| !known.contains(k)) {
        return Err(format!(
            "workload reports {k}, which is not in the catalogue"
        ));
    }
    values.insert(
        "failed_ratio".into(),
        failed as f64 / attempted.max(1) as f64,
    );
    values.insert("wall_s".into(), wall_s);
    values.insert("setup_s".into(), setup_s);
    values.insert("peak_rss_mb".into(), peak_rss_mb()?);

    let (catalogue, spans) = match traced {
        None => (catalogue::end_to_end(), Vec::new()),
        Some((rep, spans)) => {
            layer_host_metrics(&mut values, &rep, &spans, wall_s);
            (catalogue::per_layer(), spans)
        }
    };
    let metrics = catalogue
        .into_iter()
        .map(|Metric { name, unit, .. }| {
            // A layer the workload does not use reads 0.
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        reps: reps.len(),
        metrics,
        spans,
    })
}

/// The sum over segments of each segment's fastest repetition, in
/// seconds. Every repetition runs the same segments in the same order.
fn fastest(reps: &[Rep], segments: impl Fn(&Rep) -> &Vec<Duration>) -> f64 {
    let n = segments(&reps[0]).len();
    (0..n)
        .map(|i| {
            reps.iter()
                .map(|r| segments(r)[i])
                .min()
                .expect("at least one repetition")
        })
        .sum::<Duration>()
        .as_secs_f64()
}

/// Fail if repetition `i` did not reproduce the first repetition exactly.
fn guard(first: &Rep, rep: &Rep, i: usize) -> Result<(), String> {
    let same = first.exact.len() == rep.exact.len()
        && first
            .exact
            .iter()
            .zip(&rep.exact)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
        && (first.attempted, first.failed) == (rep.attempted, rep.failed);
    if same {
        return Ok(());
    }
    let diffs: Vec<String> = first
        .exact
        .iter()
        .filter(|(k, v)| rep.exact.get(*k).map(|x| x.to_bits()) != Some(v.to_bits()))
        .map(|(k, v)| format!("{k}: {v} then {:?}", rep.exact.get(k)))
        .collect();
    Err(format!(
        "nondeterminism: repetition {i} differs from repetition 0: {}",
        diffs.join("; ")
    ))
}

/// Per-layer host-time metrics of the traced repetition.
fn layer_host_metrics(values: &mut BTreeMap<String, f64>, rep: &Rep, spans: &[Span], wall_s: f64) {
    let ms = |ns: u64| ns as f64 / 1e6;
    for q in QUERIES {
        for p in PLATFORMS {
            let path = format!("tpch/{p}/{q}");
            let v = ms(self_ns(spans, |s| s.path == path));
            values.insert(format!("memdb.{q}.{p}.host_ms"), v);
        }
    }
    for a in ALGOS {
        for p in PLATFORMS {
            let path = format!("graph/{p}/{a}");
            let v = ms(self_ns(spans, |s| s.path == path));
            values.insert(format!("gas.{a}.{p}.host_ms"), v);
        }
    }
    let serve = self_ns(spans, |s| s.call == "ServePlane::run");
    values.insert("serve.self_ms".into(), ms(serve));
    let calls: Vec<&Span> = spans
        .iter()
        .filter(|s| matches!(s.call, "kvapp::get" | "Runtime::pushdown"))
        .collect();
    if !calls.is_empty() {
        let total: u64 = calls.iter().map(|s| s.duration_ns()).sum();
        values.insert(
            "pushdown.host_us_per_call".into(),
            total as f64 / 1e3 / calls.len() as f64,
        );
    }
    let timed = rep.timed_total().as_secs_f64();
    let accesses = ["paging.hits", "paging.misses", "paging.mem_side_accesses"]
        .iter()
        .map(|k| values.get(*k).copied().unwrap_or(0.0))
        .sum::<f64>();
    if accesses > 0.0 {
        values.insert("paging.host_ns_per_access".into(), timed * 1e9 / accesses);
    }
    values.insert("trace.events".into(), rep.trace_events as f64);
    values.insert("trace.overhead".into(), timed / wall_s);
    values.insert("setup.generate_s".into(), rep.generate.as_secs_f64());
    values.insert(
        "setup.load_s".into(),
        (rep.setup_total() - rep.generate).as_secs_f64(),
    );
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its value and unit.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table of every metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, v, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<32} {v:>18.6} {unit}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(virtual_ms: f64) -> Rep {
        let mut r = Rep::default();
        r.exact.insert("virtual_ms".into(), virtual_ms);
        r.timed = vec![Duration::from_millis(5), Duration::from_millis(7)];
        r
    }

    #[test]
    fn guard_rejects_any_exact_difference() {
        assert!(guard(&rep(1.0), &rep(1.0), 1).is_ok());
        let err = guard(&rep(1.0), &rep(1.0 + f64::EPSILON), 2).unwrap_err();
        assert!(
            err.contains("repetition 2") && err.contains("virtual_ms"),
            "{err}"
        );
        let mut failed = rep(1.0);
        failed.failed = 1;
        assert!(guard(&rep(1.0), &failed, 1).is_err());
    }

    #[test]
    fn fastest_takes_each_segments_minimum() {
        let a = rep(1.0);
        let mut b = rep(1.0);
        b.timed = vec![Duration::from_millis(6), Duration::from_millis(2)];
        let s = fastest(&[a, b], |r| &r.timed);
        assert!((s - 0.007).abs() < 1e-12, "{s}");
    }
}
