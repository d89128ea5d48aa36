//! The three workloads. Each repetition rebuilds every runtime from the
//! same seed, so every repetition does identical work and must reproduce
//! identical exact metrics.

pub mod graph;
pub mod kvserve;
pub mod tpch;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ddc_sim::{NetLedger, SimDuration};
use teleport::{Breakdown, Runtime};

use crate::catalogue::{BREAKDOWN, NET_CLASSES};
use crate::spans::Spans;

/// Input sizes. `Full` is what the benchmark measures; `Small` keeps the
/// same shape at a size the benchmark's own tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// One workload, ready to run repetitions.
pub trait Workload {
    /// Run one repetition. Spans are recorded only when `spans` records.
    fn rep(&mut self, spans: &Spans) -> Rep;
}

/// Build the named workload, or `None` for an unknown name.
pub fn build(
    name: &str,
    seed: u64,
    size: Size,
    inject_mismatch: bool,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "tpch" => Box::new(tpch::Tpch::new(seed, size, inject_mismatch)),
        "graph" => Box::new(graph::Graph::new(seed, size, inject_mismatch)),
        "kvserve" => Box::new(kvserve::KvServe::new(seed, size, inject_mismatch)),
        _ => return None,
    })
}

/// What one repetition measured.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// Host time of each set-up segment (input generation, then each
    /// platform's runtime build, load and warm-up), in order.
    pub setup: Vec<Duration>,
    /// Host time generating inputs (part of `setup`).
    pub generate: Duration,
    /// Host time of each timed segment (everything after `begin_timing`
    /// on one platform run), in order.
    pub timed: Vec<Duration>,
    /// Deterministic results: virtual times, counters, `Breakdown`, serve
    /// outcomes. Keyed by metric name; guard-only keys start with `#`.
    pub exact: BTreeMap<String, f64>,
    /// Operations checked against an oracle, and how many failed, were
    /// shed, or mismatched.
    pub attempted: u64,
    pub failed: u64,
    /// Events the runtimes' tracers recorded in the timed phases (0 with
    /// tracing off).
    pub trace_events: u64,
}

impl Rep {
    pub fn setup_total(&self) -> Duration {
        self.setup.iter().sum()
    }

    pub fn timed_total(&self) -> Duration {
        self.timed.iter().sum()
    }

    fn set(&mut self, name: impl Into<String>, v: f64) {
        self.exact.insert(name.into(), v);
    }

    fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.exact.entry(name.into()).or_insert(0.0) += v;
    }

    /// Count one oracle comparison.
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Time a set-up segment.
    fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.setup.push(t.elapsed());
        out
    }

    /// Time an input-generation segment (part of set-up).
    fn generate<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let out = self.setup(f);
        self.generate += *self.setup.last().expect("segment just timed");
        out
    }

    /// Time a timed segment.
    fn timed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.timed.push(t.elapsed());
        out
    }

    /// Add a runtime's timed-phase paging, fabric and pushdown counters.
    fn add_runtime(&mut self, rt: &Runtime) {
        let p = rt.paging_stats();
        self.add("paging.hits", p.cache_hits as f64);
        self.add("paging.misses", p.cache_misses as f64);
        self.add("paging.evictions", p.evictions as f64);
        self.add("paging.page_outs", p.remote_page_out as f64);
        self.add("paging.mem_side_accesses", p.mem_side_accesses as f64);
        self.add_net(&rt.net_ledger());
        self.add_breakdown(&rt.total_breakdown());
        self.add("pushdown.calls", rt.pushdown_calls() as f64);
        self.trace_events += rt.trace().len();
    }

    fn add_net(&mut self, l: &NetLedger) {
        let classes = [
            l.page_in,
            l.page_out,
            l.coherence,
            l.rpc_request,
            l.rpc_response,
            l.control,
            l.replication,
        ];
        for (name, c) in NET_CLASSES.iter().zip(classes) {
            self.add(format!("net.{name}.msgs"), c.messages as f64);
            self.add(format!("net.{name}.bytes"), c.bytes as f64);
        }
    }

    fn add_breakdown(&mut self, b: &Breakdown) {
        let parts = [
            b.pre_sync,
            b.request,
            b.ctx_setup,
            b.exec,
            b.online_sync,
            b.response,
            b.post_sync,
        ];
        for (name, d) in BREAKDOWN.iter().zip(parts) {
            self.add(format!("breakdown.{name}_ms"), ms(d));
        }
    }
}

/// Virtual milliseconds.
fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Mean over items of |ln(simulated speedup ÷ paper speedup)|.
fn speedup_err(items: &[(f64, f64)]) -> f64 {
    items
        .iter()
        .map(|&(sim, paper)| (sim / paper).ln().abs())
        .sum::<f64>()
        / items.len() as f64
}

/// Float results agree with their oracle up to summation order.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}
