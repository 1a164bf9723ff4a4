//! Async-parity gate: `S = 0` must degenerate to the synchronous path
//! bit-for-bit.
//!
//! Trains one seeded cohort three ways and compares bit-exact model
//! digests (FNV-1a over every coefficient's IEEE-754 bit pattern):
//!
//! 1. the synchronous `DistributedPlos`, fault-free;
//! 2. the asynchronous server under staleness bound `S = 0`, fault-free —
//!    every round is then a flat-star round with never-busy devices, so
//!    the trajectory must be the synchronous one exactly;
//! 3. the asynchronous `S = 0` server again, under a seeded sub-window
//!    delay plan — delays inside the barrier's polling window reorder
//!    arrivals but not the fold (index order), so the digest must still
//!    not move.
//!
//! The fault seed comes from `PLOS_FAULT_SEED` (default 2024), matching
//! the fault-tolerance integration tests. Any mismatch exits non-zero and
//! fails `ci.sh`.

use std::time::Duration;

use plos_ckpt::model_digest;
use plos_core::{AsyncDistributedPlos, AsyncSpec, DistributedPlos, PersonalizedModel, PlosConfig};
use plos_net::FaultPlan;
use plos_sensing::dataset::LabelMask;
use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

fn digest(model: &PersonalizedModel) -> u64 {
    model_digest(model.global_hyperplane(), model.personal_biases())
}

fn fault_seed() -> u64 {
    std::env::var("PLOS_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(2024)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = SyntheticSpec {
        num_users: 6,
        points_per_class: 30,
        max_rotation: std::f64::consts::FRAC_PI_3,
        flip_prob: 0.05,
    };
    let data = generate_synthetic(&spec, 77).mask_labels(&LabelMask::providers(3, 0.2), 5);
    let config = PlosConfig::fast();

    let (sync_model, sync_report) = DistributedPlos::try_new(config.clone())?.fit(&data)?;
    let sync_digest = digest(&sync_model);
    println!("sync        {sync_digest:016x}");

    let async_trainer = AsyncDistributedPlos::try_new(
        config,
        AsyncSpec { staleness_bound: 0, ..AsyncSpec::default() },
    )?;

    let (clean_model, clean_report) = async_trainer.fit(&data)?;
    let clean_digest = digest(&clean_model);
    println!("async-s0    {clean_digest:016x}");

    // Sub-window delays: well inside the barrier's 2 ms poll slices summed
    // over a pass, far below the 250 ms re-send cadence — arrival order
    // may shuffle, the fold may not.
    let plan = FaultPlan::seeded(fault_seed()).with_delay(0.5, Duration::from_millis(4));
    let (delayed_model, _) = async_trainer.fit_with_faults(&data, &plan)?;
    let delayed_digest = digest(&delayed_model);
    println!("async-s0-dl {delayed_digest:016x}");
    println!(
        "admm_rounds sync={} async={}",
        sync_report.admm_iterations, clean_report.admm_iterations
    );

    let mut failed = false;
    if clean_digest != sync_digest {
        eprintln!("FAIL: async S=0 diverged from the synchronous trajectory");
        failed = true;
    }
    if delayed_digest != sync_digest {
        eprintln!("FAIL: sub-window delays perturbed the async S=0 trajectory");
        failed = true;
    }
    if clean_report.admm_iterations != sync_report.admm_iterations {
        eprintln!(
            "FAIL: applied ADMM iteration counts diverged (sync {}, async {})",
            sync_report.admm_iterations, clean_report.admm_iterations
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("async S=0 parity: OK");
    Ok(())
}
