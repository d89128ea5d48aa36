//! `kvserve`: an open-loop serving run over a KV store whose compute cache
//! was warmed before timing. Arrivals follow seeded Poisson schedules in
//! virtual time, so the generator is never late. Three tenants share the
//! rack:
//!
//! - `get.compute`: compute-side `Runtime::get` (guaranteed class);
//! - `get.pushed`: pushed `kvapp::get` (guaranteed class);
//! - `put.pushed`: pushed puts through `Runtime::pushdown` (burstable),
//!   mirrored into a host-side copy of the store that every get is checked
//!   against.
//!
//! One run at the nominal rate gives the latency metrics; a fixed ladder
//! of offered rates, each on a fresh runtime, gives the highest rate whose
//! guaranteed p99 stays under a fixed limit with no guaranteed session
//! shed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ddc_os::Pattern;
use ddc_sim::{fnv_fold, ArrivalProcess, DdcConfig, QosClass, SimDuration, FNV_OFFSET, PAGE_SIZE};
use kvapp::{KvData, KvStore};
use teleport::{Mem, PushdownOpts, Runtime, ServeConfig, ServePlane, ServeReport, SessionOutcome};

use super::{ms, Rep, Size, Workload};
use crate::catalogue::QOS;
use crate::spans::Spans;

/// Compute-cache share of the store; the warm-up fills the whole cache.
const CACHE_RATIO: f64 = 0.25;
/// Cycles a pushed put charges (the same hash walk a get pays).
const PUT_CYCLES: u64 = 64;
/// Offered rate of the nominal run, thousands of sessions per virtual
/// second over all tenants.
const NOMINAL_KOPS: f64 = 10.0;
/// The rate ladder, ascending, walked until the first rung that misses.
const LADDER_KOPS: [f64; 9] = [8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0];
/// Guaranteed-class p99 limit for a rung to count as met.
const P99_LIMIT: SimDuration = SimDuration::from_micros(500);

/// Tenants: label, class, share of the offered rate, sessions relative to
/// a guaranteed tenant's count (in halves).
const TENANTS: [(&str, QosClass, f64, usize); 3] = [
    ("get.compute", QosClass::Guaranteed, 0.4, 2),
    ("get.pushed", QosClass::Guaranteed, 0.4, 2),
    ("put.pushed", QosClass::Burstable, 0.2, 1),
];

pub struct KvServe {
    seed: u64,
    keys: usize,
    /// Sessions of one guaranteed tenant in the nominal run and on each
    /// ladder rung.
    sessions: usize,
    ladder_sessions: usize,
    inject_mismatch: bool,
}

impl KvServe {
    pub fn new(seed: u64, size: Size, inject_mismatch: bool) -> KvServe {
        let (keys, sessions, ladder_sessions) = match size {
            Size::Full => (1 << 20, 2_000, 500),
            Size::Small => (1 << 14, 200, 100),
        };
        KvServe {
            seed,
            keys,
            sessions,
            ladder_sessions,
            inject_mismatch,
        }
    }
}

/// What one serving run left behind.
struct Run {
    rt: Runtime,
    report: ServeReport,
    mismatches: u64,
    /// Sum of compute-cache residency at each pushed call's entry.
    resident: u64,
    pushed_calls: u64,
}

impl Run {
    /// Guaranteed-class latencies, sorted.
    fn guaranteed_latencies(&self) -> Vec<SimDuration> {
        let mut v: Vec<SimDuration> = self
            .report
            .tenants
            .iter()
            .filter(|t| t.class == QosClass::Guaranteed)
            .flat_map(|t| &t.outcomes)
            .filter_map(|o| match o {
                SessionOutcome::Completed { latency, .. } => Some(*latency),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// Order-sensitive digest of every session outcome.
    fn digest(&self) -> f64 {
        let mut h = FNV_OFFSET;
        for t in &self.report.tenants {
            for o in &t.outcomes {
                h = match o {
                    SessionOutcome::Completed { value, latency } => {
                        fnv_fold(fnv_fold(fnv_fold(h, 1), *value), latency.as_nanos())
                    }
                    SessionOutcome::Shed => fnv_fold(h, 2),
                    SessionOutcome::Failed(_) => fnv_fold(h, 3),
                };
            }
        }
        // Exact in an f64: the guard compares bit patterns.
        f64::from_bits(h & 0x000F_FFFF_FFFF_FFFF)
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[SimDuration], q: f64) -> Option<SimDuration> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Value the `s`-th put writes.
fn put_value(seed: u64, s: u64) -> u64 {
    fnv_fold(fnv_fold(FNV_OFFSET, seed), s)
}

impl KvServe {
    fn run(
        &self,
        rep: &mut Rep,
        spans: &Spans,
        data: &KvData,
        kops: f64,
        per_tenant: usize,
        label: &str,
    ) -> Run {
        spans.scope("platform", label, || {
            let (mut rt, store, host) = rep.setup(|| {
                let mut rt = Runtime::teleport(DdcConfig::with_cache_ratio(
                    data.working_set_bytes(),
                    CACHE_RATIO,
                ));
                if spans.is_recording() {
                    rt.enable_tracing();
                }
                let store = spans.scope("KvStore::load", "load", || KvStore::load(&mut rt, data));
                rt.drop_cache();
                // Warm the compute cache with the store's first pages, so
                // every pushdown's coherence session covers a full
                // resident set.
                let warm = (rt.dos().ddc_config().cache_pages() * PAGE_SIZE / 8).min(data.len());
                let mut buf = Vec::with_capacity(warm);
                spans.scope("Runtime::read_range", "warm", || {
                    rt.read_range(&store.vals, 0, warm, &mut buf)
                });
                rt.begin_timing();
                (rt, store, Rc::new(RefCell::new(data.clone())))
            });

            let mismatches = Rc::new(Cell::new(0u64));
            let resident = Rc::new(Cell::new(0u64));
            let pushed = Rc::new(Cell::new(0u64));
            let mut plane = ServePlane::new(ServeConfig::with_seed(self.seed));
            for (t, &(name, class, share, halves)) in TENANTS.iter().enumerate() {
                let sessions = per_tenant * halves / 2;
                let gap = SimDuration::from_nanos((1e6 / (kops * share)).round() as u64);
                let keys = kvapp::keys(self.seed ^ ((t as u64 + 1) << 32), sessions, data.len());
                let (spans, host, bad, resident, pushed) = (
                    spans.clone(),
                    host.clone(),
                    mismatches.clone(),
                    resident.clone(),
                    pushed.clone(),
                );
                let (seed, vals) = (self.seed, store.vals);
                let corrupt = self.inject_mismatch && t == 1;
                plane.tenant(
                    name,
                    class,
                    ArrivalProcess::poisson(gap),
                    sessions,
                    move |rt, s| {
                        let key = keys[s as usize];
                        spans.scope("session", name, || {
                            if t > 0 {
                                resident.set(resident.get() + rt.dos().cache_len() as u64);
                                pushed.set(pushed.get() + 1);
                            }
                            let (got, want) = match t {
                                0 => {
                                    let v = spans.scope("Runtime::get", "get", || {
                                        rt.get(&vals, key as usize, Pattern::Rand)
                                    });
                                    (Ok(v), kvapp::oracle::get(&host.borrow(), key))
                                }
                                1 => {
                                    let v = spans
                                        .scope("kvapp::get", "get", || kvapp::get(rt, &store, key));
                                    let want = kvapp::oracle::get(&host.borrow(), key);
                                    (v, if corrupt && s == 0 { !want } else { want })
                                }
                                _ => {
                                    let val = put_value(seed, s);
                                    let v = spans.scope("Runtime::pushdown", "put", || {
                                        rt.pushdown(PushdownOpts::new(), move |m| {
                                            m.charge_cycles(PUT_CYCLES);
                                            m.set(&vals, key as usize, val, Pattern::Rand);
                                            val
                                        })
                                    });
                                    if v.is_ok() {
                                        host.borrow_mut().vals[key as usize] = val;
                                    }
                                    (v, val)
                                }
                            };
                            if matches!(got, Ok(v) if v != want) {
                                bad.set(bad.get() + 1);
                            }
                            got
                        })
                    },
                );
            }
            let report =
                rep.timed(|| spans.scope("ServePlane::run", "serve", || plane.run(&mut rt)));
            Run {
                rt,
                report,
                mismatches: mismatches.get(),
                resident: resident.get(),
                pushed_calls: pushed.get(),
            }
        })
    }
}

impl Workload for KvServe {
    fn rep(&mut self, spans: &Spans) -> Rep {
        let mut rep = Rep::default();
        spans.scope("workload", "kvserve", || {
            let data = rep.generate(|| {
                spans.scope("KvData::generate", "generate", || {
                    KvData::generate(self.keys, self.seed)
                })
            });

            let nominal = self.run(
                &mut rep,
                spans,
                &data,
                NOMINAL_KOPS,
                self.sessions,
                "nominal",
            );
            let r = &nominal.report;
            rep.attempted += r.arrived();
            rep.failed += r.failed() + r.shed() + nominal.mismatches;
            let lat = nominal.guaranteed_latencies();
            let us = |d: Option<SimDuration>| d.map_or(0.0, |d| d.as_nanos() as f64 / 1e3);
            rep.set("virtual_ms", ms(nominal.rt.elapsed()));
            rep.set("p50_us", us(percentile(&lat, 50.0)));
            rep.set("p99_us", us(percentile(&lat, 99.0)));
            rep.set("latency.samples", lat.len() as f64);
            rep.set("serve.samples", r.completed() as f64);
            rep.set("serve.queue_peak", r.queue_peak as f64);
            rep.set("serve.utilization_ppm", r.utilization_ppm() as f64);
            for (name, class) in QOS.iter().zip(ddc_sim::QOS_CLASSES) {
                rep.set(format!("serve.shed.{name}"), r.class_shed(class) as f64);
            }
            rep.set("#outcomes.nominal", nominal.digest());
            let (mut resident, mut pushed) = (0, 0);
            let mut absorb = |rep: &mut Rep, run: Run| {
                rep.add_runtime(&run.rt);
                resident += run.resident;
                pushed += run.pushed_calls;
            };
            absorb(&mut rep, nominal);

            let mut max_rate = 0.0;
            for (i, kops) in LADDER_KOPS.into_iter().enumerate() {
                let run = self.run(&mut rep, spans, &data, kops, self.ladder_sessions, "ladder");
                let r = &run.report;
                rep.attempted += r.completed();
                rep.failed += r.failed() + run.mismatches;
                rep.set(format!("#outcomes.ladder{i}"), run.digest());
                let met = r.class_shed(QosClass::Guaranteed) == 0
                    && r.failed() == 0
                    && percentile(&run.guaranteed_latencies(), 99.0)
                        .is_some_and(|p| p <= P99_LIMIT);
                absorb(&mut rep, run);
                if !met {
                    break;
                }
                max_rate = kops;
            }
            rep.set("max_rate_kops", max_rate);
            rep.set(
                "pushdown.resident_pages",
                resident as f64 / pushed.max(1) as f64,
            );
        });
        rep
    }
}
