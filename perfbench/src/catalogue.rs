//! Every workload and metric the benchmark reports, in one table.
//!
//! `BENCHMARK.json` at the repository root is generated from this table
//! (`perfbench --print-benchmark-json`), and a test keeps the two equal.

use std::fmt::Write as _;

/// Seconds one run measures for when the caller gives no `--seconds`.
pub const RUN_SECONDS: u64 = 30;

/// The workloads, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "tpch",
        "TPC-H Q9/Q3/Q6 column scans at a 2% cache: paging dominated by cache hits and operator compute, few pushdowns",
    ),
    (
        "graph",
        "SSSP and CC on three 10k-vertex social graphs at a 2% cache: paging dominated by misses, memory-side accesses on TELEPORT",
    ),
    (
        "kvserve",
        "open-loop KV gets and puts over a warm compute cache: per-pushdown coherence sessions dominate, paging nearly idle",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

fn layer(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: reported with tracing off, on every workload.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        e2e("wall_s", "s", 0.25),
        e2e("setup_s", "s", 0.25),
        e2e("peak_rss_mb", "MB", 0.2),
        e2e("virtual_ms", "ms", 0.2),
    ]
}

/// Platform labels used in per-platform metric names.
pub const PLATFORMS: [&str; 2] = ["base", "tele"];
/// The TPC-H queries, in the paper's order.
pub const QUERIES: [&str; 3] = ["q9", "q3", "q6"];
/// The graph algorithms.
pub const ALGOS: [&str; 2] = ["sssp", "cc"];
/// GAS phases, as named in per-phase metrics.
pub const PHASES: [&str; 4] = ["finalize", "gather", "apply", "scatter"];
/// `Breakdown` components, as named in `breakdown.*` metrics.
pub const BREAKDOWN: [&str; 7] = [
    "pre_sync",
    "request",
    "ctx_setup",
    "exec",
    "online_sync",
    "response",
    "post_sync",
];
/// `NetLedger` traffic classes, as named in `net.*` metrics.
pub const NET_CLASSES: [&str; 7] = [
    "page_in",
    "page_out",
    "coherence",
    "rpc_request",
    "rpc_response",
    "control",
    "replication",
];
/// QoS classes, as named in `serve.shed.*` metrics.
pub const QOS: [&str; 3] = ["guaranteed", "burstable", "best_effort"];

/// Per-layer metrics: reported from the traced run, on every workload. A
/// metric of a layer the workload does not use reads 0.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut m = vec![
        layer("failed_ratio", "ratio", Lower),
        layer("speedup_err", "ln", Lower),
        layer("p50_us", "us", Lower),
        layer("p99_us", "us", Lower),
        layer("latency.samples", "count", Higher),
        layer("max_rate_kops", "kops", Higher),
        layer("paging.hits", "count", Higher),
        layer("paging.misses", "count", Lower),
        layer("paging.evictions", "count", Lower),
        layer("paging.page_outs", "count", Lower),
        layer("paging.mem_side_accesses", "count", Lower),
        layer("paging.host_ns_per_access", "ns", Lower),
        layer("pushdown.calls", "count", Lower),
        layer("pushdown.host_us_per_call", "us", Lower),
        layer("pushdown.resident_pages", "count", Lower),
    ];
    for part in BREAKDOWN {
        m.push(layer(format!("breakdown.{part}_ms"), "ms", Lower));
    }
    for q in QUERIES {
        for p in PLATFORMS {
            m.push(layer(format!("memdb.{q}.{p}.host_ms"), "ms", Lower));
            m.push(layer(format!("memdb.{q}.{p}.virtual_ms"), "ms", Lower));
        }
    }
    for a in ALGOS {
        for p in PLATFORMS {
            m.push(layer(format!("gas.{a}.{p}.host_ms"), "ms", Lower));
        }
    }
    for ph in PHASES {
        m.push(layer(format!("gas.{ph}.virtual_ms"), "ms", Lower));
        m.push(layer(format!("gas.{ph}.remote_accesses"), "count", Lower));
    }
    m.extend([
        layer("serve.self_ms", "ms", Lower),
        layer("serve.queue_peak", "count", Lower),
        layer("serve.utilization_ppm", "ppm", Higher),
        layer("serve.samples", "count", Higher),
    ]);
    for c in QOS {
        m.push(layer(format!("serve.shed.{c}"), "count", Lower));
    }
    for c in NET_CLASSES {
        m.push(layer(format!("net.{c}.msgs"), "count", Lower));
        m.push(layer(format!("net.{c}.bytes"), "bytes", Lower));
    }
    m.extend([
        layer("trace.events", "count", Lower),
        layer("trace.overhead", "ratio", Lower),
        layer("setup.generate_s", "s", Lower),
        layer("setup.load_s", "s", Lower),
    ]);
    m
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(name),
            json_str(why)
        );
    }
    out.push_str("  ],\n");
    for (key, metrics, last) in [
        ("end_to_end", end_to_end(), false),
        ("per_layer", per_layer(), true),
    ] {
        let _ = writeln!(out, "  \"{key}\": [");
        for (i, m) in metrics.iter().enumerate() {
            let comma = if i + 1 < metrics.len() { "," } else { "" };
            let bound = m
                .bound
                .map(|b| format!(", \"bound\": {b}"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}{comma}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.label())
            );
        }
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_are_well_formed() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = BTreeSet::new();
        for m in &all {
            assert!(valid_name(&m.name), "bad name {}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
        }
        for (w, why) in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w.to_string()));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(all.len() <= 16 + 128);
        let setup = end_to_end().into_iter().find(|m| m.name == "setup_s");
        let setup = setup.expect("setup_s is an end-to-end metric");
        for m in end_to_end() {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
            assert!(
                b <= setup.bound.expect("bound"),
                "setup_s has the largest bound"
            );
        }
    }
}
