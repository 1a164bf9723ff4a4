//! D2 audit gate: wall-clock readings in `crates/core/src/distributed.rs`
//! must never reach model state or round-count decisions.
//!
//! The distributed trainer reads `Instant::now()` for exactly two purposes:
//! retry/deadline plumbing (when to re-broadcast, when to give up on a
//! round) and compute-time metering (report fields). Both are allowed under
//! rule D2 *only because* they cannot influence the numeric trajectory.
//! These tests turn that claim into an executable assertion:
//!
//! 1. Two identical fits on one host produce bit-identical models and
//!    identical round/iteration counts, even though every `Instant::now()`
//!    reading differs between the runs.
//! 2. A fault plan that delays frames — shifting every clock comparison in
//!    the gather loop — while staying below the retry window produces a
//!    run bit-identical to the zero-fault run: perturbed clocks, untouched
//!    trajectory.
//!
//! If a future change routes a clock value into the model state, a round
//! counter, or an aggregation decision, the perturbed run diverges and
//! these gates fail before the golden digests do.

// Tests assert by panicking; the panic-free gate applies to library code
// only (see [workspace.lints] in the root Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
use plos::prelude::*;
use std::time::Duration;

fn cohort(users: usize, seed: u64) -> MultiUserDataset {
    let spec = SyntheticSpec {
        num_users: users,
        points_per_class: 30,
        max_rotation: 0.25,
        flip_prob: 0.02,
    };
    generate_synthetic(&spec, seed).mask_labels(&LabelMask::providers(users / 2, 0.2), 3)
}

/// Trainer with an explicit, known retry policy so the delay budget below
/// is meaningful: `FaultTolerance::fast()` gives a 60 ms receive window.
fn trainer() -> DistributedPlos {
    DistributedPlos::try_new(PlosConfig::fast())
        .unwrap()
        .try_with_fault_tolerance(FaultTolerance::fast())
        .unwrap()
}

/// Asserts that everything model-affecting in two reports matches exactly.
/// Wall-clock metering fields (`wall_clock`, `*_compute`) are deliberately
/// NOT compared — they are the only report fields a clock may feed.
fn assert_trajectory_identical(a: &DistributedReport, b: &DistributedReport) {
    assert_eq!(a.cccp_rounds, b.cccp_rounds, "CCCP round counts must be clock-independent");
    assert_eq!(a.admm_iterations, b.admm_iterations, "ADMM iteration counts must match");
    assert_eq!(a.converged, b.converged);
    assert_eq!(
        a.history.values(),
        b.history.values(),
        "objective trajectories must match bit for bit"
    );
    assert_eq!(a.participation, b.participation, "attendance logs must match round for round");
    assert_eq!(a.evicted, b.evicted);
    assert_eq!(a.degraded, b.degraded);
    assert_eq!(a.protocol_errors, b.protocol_errors);
    assert_eq!(a.late_discards, b.late_discards);
    assert_eq!(a.residuals.len(), b.residuals.len());
    for (ra, rb) in a.residuals.iter().zip(&b.residuals) {
        assert_eq!(ra.round, rb.round);
        assert_eq!(ra.primal.to_bits(), rb.primal.to_bits(), "round {} primal", ra.round);
        assert_eq!(ra.dual.to_bits(), rb.dual.to_bits(), "round {} dual", ra.round);
    }
}

#[test]
fn repeated_fits_are_bit_identical() {
    let data = cohort(4, 31);
    let (model_a, report_a) = trainer().fit(&data).unwrap();
    let (model_b, report_b) = trainer().fit(&data).unwrap();
    assert_eq!(model_a, model_b, "two fits on one dataset must be bit-identical");
    assert_trajectory_identical(&report_a, &report_b);
}

#[test]
fn sub_timeout_delays_leave_the_trajectory_untouched() {
    let data = cohort(5, 31);
    let (clean_model, clean_report) = trainer().fit(&data).unwrap();

    // Delay every frame by 5 ms — far below the 60 ms receive window, so
    // every reply still lands inside the first gather window. The delays
    // shift every `Instant::now()` comparison in the gather loop; if any
    // of those readings leaked into model state, this run would diverge.
    let plan = FaultPlan::seeded(404).with_delay(1.0, Duration::from_millis(5));
    let (delayed_model, delayed_report) = trainer().fit_with_faults(&data, &plan).unwrap();

    assert_eq!(clean_model, delayed_model, "sub-timeout delays must not perturb the learned model");
    assert_trajectory_identical(&clean_report, &delayed_report);
    // The delays must not have tripped the fault machinery at all: no
    // retries, no evictions, full attendance.
    assert!(!delayed_report.degraded);
    assert!(delayed_report.evicted.is_empty());
    assert!(delayed_report.participation.iter().all(|p| p.retries == 0));
}

#[test]
fn async_server_clocks_never_reach_the_trajectory() {
    // The asynchronous server reads clocks for pass windows, quiescence
    // deadlines and re-send cadences. Whether a reply *folds* is decided
    // purely by its epoch/basis tags — so at full availability, where the
    // straggler hash never fires, a clean S > 0 run and one under
    // sub-poll-window delays must be bit-identical: the delays shuffle
    // every clock comparison in the collection loop but no fold set.
    let data = cohort(5, 31);
    // A pass closes as soon as the whole live roster is accounted for, so
    // at full availability the generous quiescence window below is never
    // actually waited out — it only guards against scheduler hiccups
    // closing a pass early and making this test timing-sensitive.
    let trainer = AsyncDistributedPlos::try_new(
        PlosConfig::fast(),
        AsyncSpec {
            availability: 1.0,
            staleness_bound: 3,
            poll_window: Duration::from_millis(200),
            ..AsyncSpec::default()
        },
    )
    .unwrap();
    let (clean_model, clean_report) = trainer.fit(&data).unwrap();

    // 4 ms delays against the 200 ms quiescence window: every reply still
    // arrives before the pass closes, so every pass folds the full fleet.
    let plan = FaultPlan::seeded(404).with_delay(1.0, Duration::from_millis(4));
    let (delayed_model, delayed_report) = trainer.fit_with_faults(&data, &plan).unwrap();

    assert_eq!(clean_model, delayed_model, "sub-window delays must not perturb the async model");
    assert_eq!(clean_report.history.values(), delayed_report.history.values());
    assert_eq!(clean_report.admm_iterations, delayed_report.admm_iterations);
    assert_eq!(clean_report.cccp_rounds, delayed_report.cccp_rounds);
    assert_eq!(clean_report.converged, delayed_report.converged);
    assert_eq!(delayed_report.stale_discards, 0);
    assert_eq!(delayed_report.reassignments, 0);
    assert!(delayed_report.evicted.is_empty());
}
