//! The PLOS benchmark: four training workloads run closed-loop, one fit at
//! a time, with end-to-end metrics from untraced fits and a per-layer
//! ledger from traced ones. See `README.md` for the workloads and metrics.

pub mod layers;
pub mod ledger;
pub mod workloads;
