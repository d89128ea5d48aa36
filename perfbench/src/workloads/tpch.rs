//! `tpch`: Q9, Q3 and Q6 on the base DDC, then on TELEPORT with each
//! query's top-4 operators by memory intensity pushed, as profiled on the
//! base-DDC run (§7.4).

use ddc_sim::DdcConfig;
use memdb::{
    oracle, q3, q6, q9, Database, PushdownPlan, Q3Row, Q9Row, QueryParams, QueryReport, TpchData,
};
use teleport::{PlatformKind, Runtime};

use super::{close, ms, speedup_err, Rep, Size, Workload};
use crate::catalogue::QUERIES;
use crate::spans::Spans;

/// Compute-cache share of the working set (the paper's 1 GB of ~50 GB).
const CACHE_RATIO: f64 = 0.02;
/// Operators pushed per query on TELEPORT.
const K_PUSH: usize = 4;
/// Paper Fig 13 TELEPORT speedups over the base DDC, in `QUERIES` order.
const PAPER_SPEEDUP: [f64; 3] = [29.1, 3.2, 3.8];

struct Expected {
    q9: Vec<Q9Row>,
    q3: Vec<Q3Row>,
    q6: f64,
}

struct Results {
    q9: Vec<Q9Row>,
    q3: Vec<Q3Row>,
    q6: f64,
}

pub struct Tpch {
    seed: u64,
    sf: f64,
    inject_mismatch: bool,
    expected: Option<Expected>,
}

impl Tpch {
    pub fn new(seed: u64, size: Size, inject_mismatch: bool) -> Tpch {
        Tpch {
            seed,
            sf: match size {
                Size::Full => 0.1,
                Size::Small => 0.005,
            },
            inject_mismatch,
            expected: None,
        }
    }
}

/// Load the database on a fresh runtime and run the three queries under
/// `plans`. Returns the runtime (for its counters), the per-query reports
/// and results, and the compute-cache residency at each query's entry.
fn run_platform(
    rep: &mut Rep,
    spans: &Spans,
    kind: PlatformKind,
    data: &TpchData,
    plans: &[PushdownPlan; 3],
) -> (Runtime, [QueryReport; 3], Results, usize) {
    let label = if kind == PlatformKind::Teleport {
        "tele"
    } else {
        "base"
    };
    spans.scope("platform", label, || {
        let (mut rt, db) = rep.setup(|| {
            let ws = data.working_set_bytes();
            let mut rt = match kind {
                PlatformKind::Teleport => {
                    Runtime::teleport(DdcConfig::with_cache_ratio(ws, CACHE_RATIO))
                }
                _ => Runtime::base_ddc(DdcConfig::with_cache_ratio(ws, CACHE_RATIO)),
            };
            if spans.is_recording() {
                rt.enable_tracing();
            }
            let db = spans.scope("Database::load", "load", || Database::load(&mut rt, data));
            rt.drop_cache();
            rt.begin_timing();
            (rt, db)
        });
        let params = QueryParams::default();
        // Each query is its own timed segment.
        let mut resident = rt.dos().cache_len();
        let r9 =
            rep.timed(|| spans.scope("memdb::q9", "q9", || q9(&mut rt, &db, &plans[0], &params)));
        resident += rt.dos().cache_len();
        let r3 =
            rep.timed(|| spans.scope("memdb::q3", "q3", || q3(&mut rt, &db, &plans[1], &params)));
        resident += rt.dos().cache_len();
        let r6 =
            rep.timed(|| spans.scope("memdb::q6", "q6", || q6(&mut rt, &db, &plans[2], &params)));
        let results = Results {
            q9: r9.0,
            q3: r3.0,
            q6: r6.0,
        };
        (rt, [r9.1, r3.1, r6.1], results, resident)
    })
}

fn q9_ok(got: &[Q9Row], want: &[Q9Row]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.nation == w.nation && g.year == w.year && close(g.profit, w.profit))
}

fn q3_ok(got: &[Q3Row], want: &[Q3Row]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.orderkey == w.orderkey
                && g.orderdate == w.orderdate
                && g.shippriority == w.shippriority
                && close(g.revenue, w.revenue)
        })
}

impl Workload for Tpch {
    fn rep(&mut self, spans: &Spans) -> Rep {
        let mut rep = Rep::default();
        spans.scope("workload", "tpch", || {
            let data = rep.generate(|| {
                spans.scope("TpchData::generate", "generate", || {
                    TpchData::generate(self.sf, self.seed)
                })
            });
            let params = QueryParams::default();
            let expected = self.expected.get_or_insert_with(|| Expected {
                q9: oracle::q9(&data, &params),
                q3: oracle::q3(&data, &params),
                q6: oracle::q6(&data, &params),
            });

            let none = [
                PushdownPlan::none(),
                PushdownPlan::none(),
                PushdownPlan::none(),
            ];
            let (base_rt, base, base_res, _) =
                run_platform(&mut rep, spans, PlatformKind::BaseDdc, &data, &none);
            let plans =
                [0, 1, 2].map(|i| PushdownPlan::top_k(&base[i].rank_by_intensity(), K_PUSH));
            let (tele_rt, tele, mut tele_res, resident) =
                run_platform(&mut rep, spans, PlatformKind::Teleport, &data, &plans);

            if self.inject_mismatch {
                tele_res.q6 += 1.0;
            }
            for res in [&base_res, &tele_res] {
                rep.check(q9_ok(&res.q9, &expected.q9));
                rep.check(q3_ok(&res.q3, &expected.q3));
                rep.check(close(res.q6, expected.q6));
            }

            rep.add_runtime(&base_rt);
            rep.add_runtime(&tele_rt);
            rep.set("virtual_ms", ms(tele_rt.elapsed()));
            let mut items = Vec::new();
            for (i, q) in QUERIES.iter().enumerate() {
                rep.set(format!("memdb.{q}.base.virtual_ms"), ms(base[i].total()));
                rep.set(format!("memdb.{q}.tele.virtual_ms"), ms(tele[i].total()));
                items.push((base[i].total().ratio(tele[i].total()), PAPER_SPEEDUP[i]));
            }
            rep.set("speedup_err", speedup_err(&items));
            rep.set(
                "pushdown.resident_pages",
                resident as f64 / QUERIES.len() as f64,
            );
        });
        rep
    }
}
