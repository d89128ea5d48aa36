//! `graph`: SSSP and CC on seeded social graphs, each on the base DDC with
//! no phase pushed, then on TELEPORT with the paper's plan (finalize,
//! gather and scatter pushed, §5.2).

use ddc_sim::{fnv_fold, DdcConfig, FNV_OFFSET};
use graphproc::algos::{cc, sssp};
use graphproc::{
    social_graph, ConnectedComponents, GasEngine, GasPlan, GasReport, HostGraph, Phase, Sssp,
};
use teleport::{PlatformKind, Runtime};

use super::{ms, speedup_err, Rep, Size, Workload};
use crate::catalogue::PHASES;
use crate::spans::Spans;

const CACHE_RATIO: f64 = 0.02;
/// Paper Fig 13 TELEPORT speedups over the base DDC: SSSP, then CC.
const PAPER_SPEEDUP: [f64; 2] = [3.0, 2.0];
const GAS_PHASES: [Phase; 4] = [Phase::Finalize, Phase::Gather, Phase::Apply, Phase::Scatter];

pub struct Graph {
    seed: u64,
    /// Graphs per repetition. Their iteration counts, and with them the
    /// simulated time, depend on each graph's shape; summing over several
    /// smaller graphs keeps one seed's shape from dominating at the same
    /// total size.
    graphs: u64,
    n: usize,
    degree: usize,
    inject_mismatch: bool,
    /// Per graph: oracle SSSP distances from vertex 0 and CC labels.
    expected: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Graph {
    pub fn new(seed: u64, size: Size, inject_mismatch: bool) -> Graph {
        let (graphs, n, degree) = match size {
            Size::Full => (3, 10_000, 10),
            Size::Small => (2, 2_000, 4),
        };
        Graph {
            seed,
            graphs,
            n,
            degree,
            inject_mismatch,
            expected: Vec::new(),
        }
    }
}

/// Load the graph on a fresh runtime and run SSSP then CC under `plan`.
fn run_platform(
    rep: &mut Rep,
    spans: &Spans,
    kind: PlatformKind,
    g: &HostGraph,
    plan: &GasPlan,
) -> (Runtime, [(Vec<f64>, GasReport); 2], usize) {
    let label = if kind == PlatformKind::Teleport {
        "tele"
    } else {
        "base"
    };
    spans.scope("platform", label, || {
        let (mut rt, eng) = rep.setup(|| {
            let ws = g.bytes() + g.n() * 16;
            let mut rt = match kind {
                PlatformKind::Teleport => {
                    Runtime::teleport(DdcConfig::with_cache_ratio(ws, CACHE_RATIO))
                }
                _ => Runtime::base_ddc(DdcConfig::with_cache_ratio(ws, CACHE_RATIO)),
            };
            if spans.is_recording() {
                rt.enable_tracing();
            }
            let eng = spans.scope("GasEngine::load", "load", || GasEngine::load(&mut rt, g));
            rt.drop_cache();
            rt.begin_timing();
            (rt, eng)
        });
        // Each algorithm is its own timed segment.
        let mut resident = rt.dos().cache_len();
        let s = rep.timed(|| {
            spans.scope("GasEngine::run", "sssp", || {
                eng.run(&mut rt, &Sssp { source: 0 }, plan)
            })
        });
        resident += rt.dos().cache_len();
        let c = rep.timed(|| {
            spans.scope("GasEngine::run", "cc", || {
                eng.run(&mut rt, &ConnectedComponents, plan)
            })
        });
        (rt, [s, c], resident)
    })
}

impl Workload for Graph {
    fn rep(&mut self, spans: &Spans) -> Rep {
        let mut rep = Rep::default();
        let mut items = Vec::new();
        let mut resident = 0;
        spans.scope("workload", "graph", || {
            for i in 0..self.graphs {
                let seed = fnv_fold(fnv_fold(FNV_OFFSET, self.seed), i);
                let g = rep.generate(|| {
                    spans.scope("social_graph", "generate", || {
                        social_graph(self.n, self.degree, seed)
                    })
                });
                if self.expected.len() == i as usize {
                    self.expected.push((sssp::oracle(&g, 0), cc::oracle(&g)));
                }
                let expected = &self.expected[i as usize];

                let (base_rt, base, _) =
                    run_platform(&mut rep, spans, PlatformKind::BaseDdc, &g, &GasPlan::none());
                let (tele_rt, mut tele, res) = run_platform(
                    &mut rep,
                    spans,
                    PlatformKind::Teleport,
                    &g,
                    &GasPlan::paper(),
                );
                resident += res;

                if self.inject_mismatch && i == 0 {
                    tele[0].0[0] += 1.0;
                }
                for runs in [&base, &tele] {
                    rep.check(runs[0].0 == expected.0);
                    rep.check(runs[1].0 == expected.1);
                }

                rep.add_runtime(&base_rt);
                rep.add_runtime(&tele_rt);
                rep.add("virtual_ms", ms(tele_rt.elapsed()));
                for (a, paper) in PAPER_SPEEDUP.iter().enumerate() {
                    items.push((base[a].1.total().ratio(tele[a].1.total()), *paper));
                }
                for (name, phase) in PHASES.iter().zip(GAS_PHASES) {
                    for (_, r) in &tele {
                        let s = r.stat(phase);
                        rep.add(format!("gas.{name}.virtual_ms"), ms(s.time));
                        rep.add(
                            format!("gas.{name}.remote_accesses"),
                            s.remote_accesses as f64,
                        );
                    }
                }
            }
        });
        rep.set("speedup_err", speedup_err(&items));
        rep.set(
            "pushdown.resident_pages",
            resident as f64 / items.len() as f64,
        );
        rep
    }
}
