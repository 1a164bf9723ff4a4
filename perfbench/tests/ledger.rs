//! The ledger reducer on canned multi-thread event streams.

use perfbench::layers::{per_layer, Micro, TracedFit};
use perfbench::ledger::{charge, round_durations, tail_percentile, FitTrace, Stamped, Summary};
use perfbench::workloads::{Report, Workload};
use plos::obs::{Event, Value};

fn at(t: f64, thread: u64, name: &'static str) -> Stamped {
    Stamped { t, thread, event: Event { name, fields: Vec::new() } }
}

/// Thread 0 calls `fit` and runs the cutting plane; thread 1 is a worker
/// whose first event only opens its timeline.
fn canned() -> FitTrace {
    FitTrace {
        events: vec![
            at(0.05, 1, "qp_solve"),
            at(0.1, 0, "qp_solve"),
            at(0.25, 1, "qp_solve"),
            at(0.3, 0, "cutting_round"),
            at(0.35, 1, "qp_solve"),
            at(0.6, 0, "cutting_round"),
        ],
        main: 0,
        duration: 0.8,
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn intervals_are_charged_per_thread_to_the_closing_event() {
    let charges = charge(&canned());
    // Thread 0: 0 -> 0.1 (qp), 0.1 -> 0.3 and 0.3 -> 0.6 (cutting rounds).
    // Thread 1: its first event opens the timeline; 0.05 -> 0.25 and
    // 0.25 -> 0.35 go to qp_solve. No interval crosses threads.
    assert!(close(charges.by_key["qp_solve"], 0.1 + 0.2 + 0.1), "{charges:?}");
    assert!(close(charges.by_key["cutting_round"], 0.2 + 0.3), "{charges:?}");
    assert!(close(charges.main_named, 0.6), "{charges:?}");
}

#[test]
fn spans_are_keyed_by_their_name() {
    let span = Event { name: "span", fields: vec![("name", Value::from("centralized_fit"))] };
    let trace = FitTrace {
        events: vec![Stamped { t: 0.5, thread: 0, event: span }],
        main: 0,
        duration: 0.5,
    };
    assert!(close(charge(&trace).by_key["span:centralized_fit"], 0.5));
}

#[test]
fn coverage_is_the_share_of_the_fit_span_charged_on_the_calling_thread() {
    // The calling thread's last event is at 0.6 of a 0.8 s fit; the tail
    // closes at no library event. Worker time does not count.
    assert!(close(charge(&canned()).coverage, 0.75));

    let fit =
        TracedFit { generate_s: 0.01, untraced_s: 0.5, trace: canned(), report: Report::Central };
    let micro = Micro { dot_ns: 1.0, exact_add_us: 1.0, codec_roundtrip_us: 1.0 };
    let metrics = per_layer(Workload::CentralSynth, &[fit.clone(), fit], micro, 2);
    assert!(close(metrics["trace.coverage"], 0.75));
    assert!(close(metrics["trace.overhead"], 0.8 / 0.5 - 1.0));
    assert!(close(metrics["opt.qp.solves"], 4.0));
    assert!(close(metrics["core.centralized.cutting_rounds"], 2.0));
    assert!(close(metrics["exec.threads_seen"], 2.0));
}

#[test]
fn rounds_run_from_the_previous_boundary_on_the_emitting_threads() {
    let rounds: Vec<f64> =
        round_durations(&canned(), "cutting_round").into_iter().map(|(_, d)| d).collect();
    // The fit start opens the first round; worker events are not
    // boundaries of the calling thread's rounds.
    assert_eq!(rounds.len(), 2);
    assert!(close(rounds[0], 0.3) && close(rounds[1], 0.3), "{rounds:?}");
}

#[test]
fn the_tail_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(500));
    assert_eq!(tail_percentile(39), Some(500));
    assert_eq!(tail_percentile(40), Some(750));
    assert_eq!(tail_percentile(100), Some(900));
    assert_eq!(tail_percentile(1000), Some(990));
    assert_eq!(tail_percentile(10_000), Some(999));
}

#[test]
fn summaries_print_the_percentile_they_chose_and_the_sample_count() {
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    let summary = Summary::of(&values);
    assert_eq!(summary.tail, Some((900, 90.0)));
    assert!(close(summary.median, 50.5));
    assert_eq!(summary.render("s", 1.0), "median 50.5000 s | p90 90.0000 s | n=100");

    let few = Summary::of(&[3.0, 1.0, 2.0]);
    assert_eq!(few.tail, None);
    assert_eq!(few.render("ms", 1e3), "median 2000.0000 ms | p- (fewer than 20 samples) | n=3");
}
