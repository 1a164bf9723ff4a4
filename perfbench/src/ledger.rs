//! The per-layer ledger of a traced fit.
//!
//! [`LedgerSink`] is installed with `plos_obs::set_sink` around one fit. It
//! stamps every event with the time and the emitting thread; `Sink::record`
//! runs on the thread that emitted the event. [`charge`] then walks each
//! thread's events in time order and charges the time between two
//! consecutive events on one thread to the event that closes the interval.
//! The thread that called `fit` opens its timeline at the fit start and
//! closes it at the fit end; its last interval closes at no library event
//! and is the unattributed share of the fit.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use plos::obs::{Event, Sink};

/// One event as the ledger sees it.
#[derive(Debug, Clone)]
pub struct Stamped {
    /// Seconds since the fit started.
    pub t: f64,
    /// Index of the emitting thread (see [`thread_index`]).
    pub thread: u64,
    /// The event as emitted.
    pub event: Event,
}

/// One traced fit: its events in time order, the thread that called `fit`
/// and the fit's wall clock in seconds.
#[derive(Debug, Clone)]
pub struct FitTrace {
    /// Events sorted by time.
    pub events: Vec<Stamped>,
    /// The thread that called `fit`.
    pub main: u64,
    /// Seconds from the fit start to the fit end.
    pub duration: f64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_INDEX: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A small index, unique per thread for the life of the process.
pub fn thread_index() -> u64 {
    THREAD_INDEX.with(|t| *t)
}

/// In-memory sink that keeps each event with its time and thread.
#[derive(Debug, Default)]
pub struct LedgerSink {
    records: Mutex<Vec<(Instant, u64, Event)>>,
}

impl LedgerSink {
    /// Drains everything recorded so far into a trace of the fit that ran
    /// from `start` to `end` on thread `main`.
    pub fn take(&self, start: Instant, end: Instant, main: u64) -> FitTrace {
        let records =
            std::mem::take(&mut *self.records.lock().unwrap_or_else(PoisonError::into_inner));
        let mut events: Vec<Stamped> = records
            .into_iter()
            .map(|(at, thread, event)| Stamped {
                t: at.saturating_duration_since(start).as_secs_f64(),
                thread,
                event,
            })
            .collect();
        events.sort_by(|a, b| a.t.total_cmp(&b.t));
        FitTrace { events, main, duration: end.saturating_duration_since(start).as_secs_f64() }
    }
}

impl Sink for LedgerSink {
    fn record(&self, event: &Event) {
        let at = Instant::now();
        let thread = thread_index();
        // A push leaves the vector valid at every step, so a poisoned lock
        // still guards good data.
        self.records.lock().unwrap_or_else(PoisonError::into_inner).push((
            at,
            thread,
            event.clone(),
        ));
    }
}

/// The ledger key of an event: its name, or `span:<name>` for a span.
fn key(event: &Event) -> String {
    match event.field("name") {
        Some(plos::obs::Value::Str(name)) if event.name == "span" => format!("span:{name}"),
        _ => event.name.to_string(),
    }
}

/// Interval attribution of one traced fit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Charges {
    /// Seconds charged to each event key, summed over threads.
    pub by_key: BTreeMap<String, f64>,
    /// Seconds of the calling thread's timeline charged to a library event.
    pub main_named: f64,
    /// Share of the fit span charged to a named event.
    pub coverage: f64,
}

/// Charges the time between consecutive events on one thread to the event
/// that closes the interval. A thread other than the caller opens its
/// timeline at its first event, which is charged nothing.
pub fn charge(trace: &FitTrace) -> Charges {
    let mut last: BTreeMap<u64, f64> = BTreeMap::new();
    last.insert(trace.main, 0.0);
    let mut charges = Charges::default();
    for e in &trace.events {
        if let Some(prev) = last.insert(e.thread, e.t) {
            let dt = (e.t - prev).max(0.0);
            *charges.by_key.entry(key(&e.event)).or_insert(0.0) += dt;
            if e.thread == trace.main {
                charges.main_named += dt;
            }
        }
    }
    charges.coverage =
        if trace.duration > 0.0 { (charges.main_named / trace.duration).min(1.0) } else { 0.0 };
    charges
}

/// The events that open or close a round of some loop.
const BOUNDARIES: [&str; 5] =
    ["cccp_round", "cutting_round", "refine_round", "admm_round", "async_round"];

/// `(end, duration)` of every `name` event's round, in seconds. A round
/// runs from the previous round boundary (or the fit start) to its event,
/// counting only the threads that emit `name`, so that boundaries other
/// threads emit do not split its rounds.
pub fn round_durations(trace: &FitTrace, name: &str) -> Vec<(f64, f64)> {
    let emitters: BTreeSet<u64> =
        trace.events.iter().filter(|e| e.event.name == name).map(|e| e.thread).collect();
    let mut prev = 0.0;
    let mut out = Vec::new();
    for e in trace.events.iter().filter(|e| emitters.contains(&e.thread)) {
        if !BOUNDARIES.contains(&e.event.name) {
            continue;
        }
        if e.event.name == name {
            out.push((e.t, e.t - prev));
        }
        prev = e.t;
    }
    out
}

/// The median of `values` (mean of the two middle values for an even
/// count), or 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `values` at `permille` thousandths, or 0 for
/// none. Integer ranks keep, say, p90 of 100 samples at exactly the 90th.
pub fn percentile(values: &[f64], permille: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (permille * v.len()).div_ceil(1000).clamp(1, v.len());
    v[rank - 1]
}

/// The percentiles a tail may be reported at, in thousandths, highest
/// first.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported percentile.
const TAIL_SAMPLES: usize = 10;

/// The highest percentile of the ladder, in thousandths, with at least ten
/// of `n` samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<usize> {
    TAIL_LADDER.into_iter().find(|pm| n - (pm * n).div_ceil(1000) >= TAIL_SAMPLES)
}

/// A timing summary: the median, the highest well-supported percentile and
/// the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// `(percentile in thousandths, value)`, when at least ten samples lie
    /// beyond it.
    pub tail: Option<(usize, f64)>,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Summary {
        let tail = tail_percentile(values.len()).map(|p| (p, percentile(values, p)));
        Summary { n: values.len(), median: median(values), tail }
    }

    /// `median <unit> | p<q> <value> <unit> | n=<n>`, with `p-` when no
    /// percentile has ten samples beyond it.
    pub fn render(&self, unit: &str, scale: f64) -> String {
        let tail = match self.tail {
            Some((pm, v)) => format!("p{} {:.4} {unit}", pm as f64 / 10.0, v * scale),
            None => "p- (fewer than 20 samples)".to_string(),
        };
        format!("median {:.4} {unit} | {tail} | n={}", self.median * scale, self.n)
    }
}
