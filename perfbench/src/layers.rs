//! Per-layer metrics of a traced run. Every number comes from the ledger of
//! benchmark-side sink events, the public report of each fit, or timings
//! the benchmark takes around its own calls.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use plos::linalg::{ExactVecSum, Vector};
use plos::net::codec::{get_vector, put_vector};
use plos::net::DeviceProfile;
use plos::obs::Event;

use plos::core::DistributedReport;

use crate::ledger::{charge, median, percentile, round_durations, FitTrace};
use crate::workloads::{Report, Workload};

/// Every per-layer metric with its unit, in report order. Counts are per
/// fit; timings pool every round of every traced fit.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("sensing.generate_ms", "ms"),
    ("exec.pool_threads", "count"),
    ("exec.threads_seen", "count"),
    ("linalg.dot_ns", "ns"),
    ("linalg.exact_add_us", "us"),
    ("core.centralized.cccp_rounds", "count"),
    ("core.centralized.cutting_rounds", "count"),
    ("core.centralized.refine_rounds", "count"),
    ("core.centralized.working_set_final", "count"),
    ("core.centralized.cutting_round_ms_p50", "ms"),
    ("core.centralized.cutting_round_ms_p90", "ms"),
    ("opt.qp.solves", "count"),
    ("opt.qp.sweeps", "count"),
    ("opt.qp.large_solves", "count"),
    ("opt.qp.unconverged", "count"),
    ("opt.qp.shrink_reactivations", "count"),
    ("opt.qp.busy_s", "s"),
    ("core.local.device_busy_sum_s", "s"),
    ("core.local.device_busy_max_s", "s"),
    ("core.local.nexus5_model_s", "s"),
    ("core.distributed.rounds", "count"),
    ("core.distributed.round_ms_p50", "ms"),
    ("core.distributed.round_ms_p90", "ms"),
    ("core.distributed.server_busy_s", "s"),
    ("core.distributed.server_idle_share", "fraction"),
    ("core.distributed.retries", "count"),
    ("core.distributed.reply_yield", "fraction"),
    ("core.distributed.late_discards", "count"),
    ("core.distributed.protocol_errors", "count"),
    ("core.sharded.shard_rounds", "count"),
    ("core.sharded.round_ms_p50", "ms"),
    ("core.sharded.anti_entropy_syncs", "count"),
    ("core.sharded.failovers", "count"),
    ("core.sharded.failover_round_ms", "ms"),
    ("core.asynchronous.epochs", "count"),
    ("core.asynchronous.epoch_ms_p50", "ms"),
    ("core.asynchronous.fold_yield", "fraction"),
    ("core.asynchronous.stale_discards", "count"),
    ("core.asynchronous.late_discards", "count"),
    ("core.asynchronous.reassignments", "count"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("net.bytes_per_round", "bytes"),
    ("net.decode_failures", "count"),
    ("net.bytes_discarded", "bytes"),
    ("net.codec_vector_roundtrip_us", "us"),
    ("ckpt.writes", "count"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.interval_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
];

/// A dual QP above this many variables counts as large (the size above
/// which the solver arms its stagnation cutoff).
const LARGE_QP: u64 = 64;

/// One cohort fitted twice, untraced and then traced.
#[derive(Debug, Clone)]
pub struct TracedFit {
    /// Seconds spent generating and masking the cohort.
    pub generate_s: f64,
    /// Wall clock of the untraced fit.
    pub untraced_s: f64,
    /// The traced fit's ledger.
    pub trace: FitTrace,
    /// The traced fit's public report.
    pub report: Report,
}

/// Kernel and codec calls timed at the workload's model dimension.
#[derive(Debug, Clone, Copy)]
pub struct Micro {
    /// `linalg::kernels::dot`, nanoseconds per call.
    pub dot_ns: f64,
    /// `ExactVecSum::add`, microseconds per call.
    pub exact_add_us: f64,
    /// `codec::put_vector` then `get_vector`, microseconds per pair.
    pub codec_roundtrip_us: f64,
}

impl Micro {
    /// Times each call in batches and keeps the median batch.
    pub fn measure(dim: usize) -> Micro {
        let v: Vector = (0..dim).map(|i| (i as f64 + 0.5).sin()).collect();
        let dot_ns =
            per_call(20_000, || black_box(plos::linalg::kernels::dot(v.as_slice(), v.as_slice())))
                * 1e9;
        let mut sum = ExactVecSum::zeros(dim);
        let exact_add_us = per_call(200, || sum.add(black_box(&v))) * 1e6;
        black_box(&sum);
        let codec_roundtrip_us = per_call(200, || {
            let mut buf = BytesMut::new();
            put_vector(&mut buf, black_box(&v));
            black_box(get_vector(&mut buf.freeze()).map(|w| w.len()).unwrap_or(0))
        }) * 1e6;
        Micro { dot_ns, exact_add_us, codec_roundtrip_us }
    }
}

/// Median over 15 batches of `calls` calls, in seconds per call.
fn per_call<R>(calls: u32, mut f: impl FnMut() -> R) -> f64 {
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            start.elapsed().as_secs_f64() / f64::from(calls)
        })
        .collect();
    median(&batches)
}

/// The layer an event key's closing interval is charged to.
pub fn layer_of(workload: Workload, key: &str) -> &'static str {
    match key {
        "qp_solve" => "opt.qp",
        "cutting_round" => "core.centralized",
        "shard_round" | "anti_entropy" | "failover" | "span:sharded_fit" => "core.sharded",
        "async_round" | "stale_discard" | "async_summary" | "span:async_fit" => "core.asynchronous",
        "checkpoint" | "checkpoint_resume" => "ckpt",
        "span:centralized_fit" => "core.centralized",
        "span:distributed_fit" => "core.distributed",
        // The round loops and fit-level summaries belong to the server
        // that drives this workload.
        "cccp_round" | "refine_round" | "admm_round" | "eviction" | "traffic_summary" => {
            workload.server_layer()
        }
        _ => "other",
    }
}

/// Seconds per fit charged to each layer, and the share of all charged
/// thread time each holds.
pub fn ledger_table(workload: Workload, fits: &[TracedFit]) -> Vec<(&'static str, f64, f64)> {
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for fit in fits {
        for (key, seconds) in charge(&fit.trace).by_key {
            *by_layer.entry(layer_of(workload, &key)).or_insert(0.0) += seconds;
        }
    }
    let total: f64 = by_layer.values().sum();
    let n = fits.len().max(1) as f64;
    by_layer
        .into_iter()
        .map(|(layer, s)| (layer, s / n, if total > 0.0 { s / total } else { 0.0 }))
        .collect()
}

fn named<'a>(trace: &'a FitTrace, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
    trace.events.iter().filter(move |e| e.event.name == name).map(|e| &e.event)
}

fn count(trace: &FitTrace, name: &str) -> f64 {
    named(trace, name).count() as f64
}

fn field_sum(trace: &FitTrace, name: &str, field: &str) -> f64 {
    named(trace, name).filter_map(|e| e.field_f64(field)).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reduces a traced run to every metric of [`PER_LAYER`]. A metric of a
/// layer the workload does not run reads 0.
pub fn per_layer(
    workload: Workload,
    fits: &[TracedFit],
    micro: Micro,
    pool: usize,
) -> BTreeMap<&'static str, f64> {
    let n = fits.len().max(1) as f64;
    let mean = |f: &dyn Fn(&TracedFit) -> f64| fits.iter().map(f).fold(0.0, |a, b| a + b) / n;
    let pooled_ms = |name: &str| -> Vec<f64> {
        fits.iter().flat_map(|f| round_durations(&f.trace, name)).map(|(_, d)| d * 1e3).collect()
    };
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(k, _)| (*k, 0.0)).collect();

    m.insert(
        "sensing.generate_ms",
        median(&fits.iter().map(|f| f.generate_s).collect::<Vec<_>>()) * 1e3,
    );
    m.insert("exec.pool_threads", pool as f64);
    m.insert(
        "exec.threads_seen",
        mean(&|f| {
            let mut threads: Vec<u64> = f.trace.events.iter().map(|e| e.thread).collect();
            threads.sort_unstable();
            threads.dedup();
            threads.len() as f64
        }),
    );
    m.insert("linalg.dot_ns", micro.dot_ns);
    m.insert("linalg.exact_add_us", micro.exact_add_us);
    m.insert("net.codec_vector_roundtrip_us", micro.codec_roundtrip_us);

    if workload == Workload::CentralSynth {
        m.insert("core.centralized.cccp_rounds", mean(&|f| count(&f.trace, "cccp_round")));
        m.insert("core.centralized.cutting_rounds", mean(&|f| count(&f.trace, "cutting_round")));
        m.insert("core.centralized.refine_rounds", mean(&|f| count(&f.trace, "refine_round")));
        m.insert(
            "core.centralized.working_set_final",
            mean(&|f| {
                named(&f.trace, "cutting_round")
                    .last()
                    .and_then(|e| e.field_f64("working_set"))
                    .unwrap_or(0.0)
            }),
        );
        let rounds = pooled_ms("cutting_round");
        m.insert("core.centralized.cutting_round_ms_p50", median(&rounds));
        m.insert("core.centralized.cutting_round_ms_p90", percentile(&rounds, 900));
    }

    m.insert("opt.qp.solves", mean(&|f| count(&f.trace, "qp_solve")));
    m.insert("opt.qp.sweeps", mean(&|f| field_sum(&f.trace, "qp_solve", "sweeps")));
    m.insert(
        "opt.qp.large_solves",
        mean(&|f| {
            named(&f.trace, "qp_solve")
                .filter(|e| e.field_u64("dim").is_some_and(|d| d > LARGE_QP))
                .count() as f64
        }),
    );
    m.insert(
        "opt.qp.unconverged",
        mean(&|f| {
            named(&f.trace, "qp_solve")
                .filter(|e| e.field("converged") == Some(&plos::obs::Value::Bool(false)))
                .count() as f64
        }),
    );
    m.insert(
        "opt.qp.shrink_reactivations",
        mean(&|f| field_sum(&f.trace, "qp_solve", "shrink_reactivations")),
    );
    m.insert(
        "opt.qp.busy_s",
        mean(&|f| charge(&f.trace).by_key.get("qp_solve").copied().unwrap_or(0.0)),
    );

    // Device compute comes only with the synchronous report.
    let (phone, reference) = (DeviceProfile::nexus5(), DeviceProfile::reference());
    m.insert(
        "core.local.device_busy_sum_s",
        mean(&|f| {
            dist(f).map_or(0.0, |r| r.per_user_compute.iter().map(|d| d.as_secs_f64()).sum())
        }),
    );
    m.insert(
        "core.local.device_busy_max_s",
        mean(&|f| dist(f).map_or(0.0, |r| r.max_client_compute().as_secs_f64())),
    );
    m.insert(
        "core.local.nexus5_model_s",
        mean(&|f| {
            dist(f).map_or(0.0, |r| {
                phone.rescale_from(r.max_client_compute(), &reference).as_secs_f64()
            })
        }),
    );

    match workload {
        Workload::CentralSynth => {}
        Workload::FleetSync => {
            m.insert("core.distributed.rounds", mean(&|f| f.report.rounds() as f64));
            let rounds = pooled_ms("admm_round");
            m.insert("core.distributed.round_ms_p50", median(&rounds));
            m.insert("core.distributed.round_ms_p90", percentile(&rounds, 900));
            m.insert(
                "core.distributed.server_busy_s",
                mean(&|f| dist(f).map_or(0.0, |r| r.server_compute.as_secs_f64())),
            );
            m.insert(
                "core.distributed.server_idle_share",
                mean(&|f| {
                    dist(f).map_or(0.0, |r| {
                        1.0 - ratio(r.server_compute.as_secs_f64(), r.wall_clock.as_secs_f64())
                    })
                }),
            );
            m.insert(
                "core.distributed.retries",
                mean(&|f| {
                    dist(f)
                        .map_or(0.0, |r| r.participation.iter().map(|p| f64::from(p.retries)).sum())
                }),
            );
            let (replied, alive) = fits.iter().filter_map(dist).fold((0.0, 0.0), |(a, b), r| {
                r.participation
                    .iter()
                    .fold((a, b), |(a, b), p| (a + p.replied as f64, b + p.alive as f64))
            });
            m.insert("core.distributed.reply_yield", ratio(replied, alive));
            m.insert(
                "core.distributed.late_discards",
                mean(&|f| dist(f).map_or(0.0, |r| r.late_discards as f64)),
            );
            m.insert(
                "core.distributed.protocol_errors",
                mean(&|f| dist(f).map_or(0.0, |r| r.protocol_errors as f64)),
            );
        }
        Workload::FleetTree => {
            m.insert("core.sharded.shard_rounds", mean(&|f| count(&f.trace, "shard_round")));
            m.insert("core.sharded.round_ms_p50", median(&pooled_ms("admm_round")));
            m.insert("core.sharded.anti_entropy_syncs", mean(&|f| count(&f.trace, "anti_entropy")));
            m.insert("core.sharded.failovers", mean(&|f| count(&f.trace, "failover")));
            // The round a failover lands in closes at the first root round
            // event after it.
            let failover_rounds: Vec<f64> = fits
                .iter()
                .flat_map(|f| {
                    let rounds = round_durations(&f.trace, "admm_round");
                    named_times(&f.trace, "failover")
                        .filter_map(|t| {
                            rounds.iter().find(|(end, _)| *end >= t).map(|(_, d)| d * 1e3)
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            m.insert("core.sharded.failover_round_ms", median(&failover_rounds));
        }
        Workload::FleetAsync => {
            m.insert("core.asynchronous.epochs", mean(&|f| count(&f.trace, "async_round")));
            m.insert("core.asynchronous.epoch_ms_p50", median(&pooled_ms("async_round")));
            let folded: f64 =
                fits.iter().map(|f| field_sum(&f.trace, "async_round", "folded")).sum();
            let alive: f64 = fits.iter().map(|f| field_sum(&f.trace, "async_round", "alive")).sum();
            m.insert("core.asynchronous.fold_yield", ratio(folded, alive));
            let asy = |f: &TracedFit, pick: fn(&plos::core::AsyncReport) -> u64| match &f.report {
                Report::Async(r) => pick(r) as f64,
                _ => 0.0,
            };
            m.insert("core.asynchronous.stale_discards", mean(&|f| asy(f, |r| r.stale_discards)));
            m.insert("core.asynchronous.late_discards", mean(&|f| asy(f, |r| r.late_discards)));
            m.insert("core.asynchronous.reassignments", mean(&|f| asy(f, |r| r.reassignments)));
        }
    }

    let traffic = |f: &TracedFit, pick: fn(&plos::net::TrafficStats) -> u64| {
        f.report.traffic().iter().fold(0.0, |a, s| a + pick(s) as f64)
    };
    m.insert("net.messages", mean(&|f| traffic(f, |s| s.total_messages())));
    m.insert("net.bytes", mean(&|f| traffic(f, |s| s.total_bytes())));
    m.insert(
        "net.bytes_per_round",
        mean(&|f| ratio(traffic(f, |s| s.total_bytes()), f.report.rounds() as f64)),
    );
    m.insert("net.decode_failures", mean(&|f| traffic(f, |s| s.decode_failures)));
    m.insert("net.bytes_discarded", mean(&|f| traffic(f, |s| s.bytes_discarded)));

    m.insert("ckpt.writes", mean(&|f| count(&f.trace, "checkpoint")));
    m.insert("ckpt.bytes", mean(&|f| field_sum(&f.trace, "checkpoint", "bytes")));
    let intervals: Vec<f64> = fits
        .iter()
        .flat_map(|f| {
            let t: Vec<f64> = named_times(&f.trace, "checkpoint").collect();
            t.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>()
        })
        .collect();
    m.insert("ckpt.interval_s", median(&intervals));

    m.insert("trace.coverage", mean(&|f| charge(&f.trace).coverage));
    let traced: f64 = fits.iter().map(|f| f.trace.duration).sum();
    let untraced: f64 = fits.iter().map(|f| f.untraced_s).sum();
    m.insert("trace.overhead", ratio(traced, untraced) - 1.0);
    m
}

/// The synchronous server's report, for the fits that have one.
fn dist(fit: &TracedFit) -> Option<&DistributedReport> {
    match &fit.report {
        Report::Dist(r) => Some(r),
        _ => None,
    }
}

fn named_times<'a>(trace: &'a FitTrace, name: &'a str) -> impl Iterator<Item = f64> + 'a {
    trace.events.iter().filter(move |e| e.event.name == name).map(|e| e.t)
}
