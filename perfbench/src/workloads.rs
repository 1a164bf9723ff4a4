//! The four training workloads: how each builds its cohort and trainer from
//! the seed, runs one fit, and checks the trained model.
//!
//! Every fit gets a fresh cohort generated from the workload seed and the
//! fit's index. The trainers see only the generated cohorts.

use std::path::{Path, PathBuf};
use std::time::Duration;

use plos::ckpt::model_digest;
use plos::core::eval::{plos_predictions, score_predictions};
use plos::core::{AsyncDistributedPlos, AsyncReport, AsyncSpec, CoreError, DistributedReport};
use plos::net::codec::vector_wire_len;
use plos::net::TrafficStats;
use plos::prelude::*;
use plos::sensing::har::{generate_har, HarSpec};

/// Below this overall accuracy a trained model counts as a failed fit: both
/// cohort generators are separable well above chance (0.5).
const ACCURACY_FLOOR: f64 = 0.6;

/// The asynchronous fit must land within this many accuracy points of the
/// synchronous barrier fit on the same cohort and fault plan.
const ASYNC_ACCURACY_BAND: f64 = 0.02;

/// Centralized cohort.
const CENTRAL_USERS: usize = 30;
const CENTRAL_POINTS_PER_CLASS: usize = 30;
const CENTRAL_LABEL_RATE: f64 = 0.05;

/// Fleet cohort shared by `fleet_sync` and `fleet_tree`.
const FLEET_USERS: usize = 60;
const FLEET_POINTS_PER_CLASS: usize = 10;
const FLEET_LABEL_RATE: f64 = 0.2;

/// The paper's HAR shape: 30 users, 561 features, 20 label providers.
const HAR_USERS: usize = 30;
const HAR_PROVIDERS: usize = 20;
const HAR_SAMPLES_PER_CLASS: usize = 50;
const HAR_LABEL_RATE: f64 = 0.06;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `CentralizedPlos::fit` on the synthetic 2-D cohort.
    CentralSynth,
    /// `DistributedPlos`, flat star, no faults.
    FleetSync,
    /// The `fleet_sync` cohort through a replicated-root sharded tree under
    /// seeded delays and one root kill.
    FleetTree,
    /// `AsyncDistributedPlos` at S = 4 on the HAR shape, with delays, one
    /// straggler and disk checkpoints.
    FleetAsync,
}

/// Every workload, in the order `--workload all` runs them.
pub const ALL: [Workload; 4] =
    [Workload::CentralSynth, Workload::FleetSync, Workload::FleetTree, Workload::FleetAsync];

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CentralSynth => "central_synth",
            Workload::FleetSync => "fleet_sync",
            Workload::FleetTree => "fleet_tree",
            Workload::FleetAsync => "fleet_async",
        }
    }

    /// The layer whose loop drives the fit.
    pub fn server_layer(self) -> &'static str {
        match self {
            Workload::CentralSynth => "core.centralized",
            Workload::FleetSync => "core.distributed",
            Workload::FleetTree => "core.sharded",
            Workload::FleetAsync => "core.asynchronous",
        }
    }

    /// Whether two fits of one cohort must give bit-identical models.
    pub fn deterministic(self) -> bool {
        self != Workload::FleetAsync
    }

    /// Generates and masks a cohort from its seed.
    pub fn cohort(self, seed: u64) -> MultiUserDataset {
        match self {
            Workload::CentralSynth => {
                synthetic(CENTRAL_USERS, CENTRAL_POINTS_PER_CLASS, CENTRAL_LABEL_RATE, seed)
            }
            Workload::FleetSync | Workload::FleetTree => {
                synthetic(FLEET_USERS, FLEET_POINTS_PER_CLASS, FLEET_LABEL_RATE, seed)
            }
            Workload::FleetAsync => {
                let spec = HarSpec {
                    num_users: HAR_USERS,
                    samples_per_class: HAR_SAMPLES_PER_CLASS,
                    ..HarSpec::default()
                };
                generate_har(&spec, seed).mask_labels(
                    &LabelMask::providers(HAR_PROVIDERS, HAR_LABEL_RATE),
                    seed.wrapping_add(7),
                )
            }
        }
    }

    /// Builds the trainer and fault plan for a cohort generated from
    /// `seed`. Disk checkpoints, where the workload takes them, go to
    /// `ckpt_dir`.
    pub fn trainer(self, users: usize, seed: u64, ckpt_dir: &Path) -> Result<Trainer, CoreError> {
        Ok(match self {
            Workload::CentralSynth => Trainer::Central(CentralizedPlos::try_new(config(self))?),
            Workload::FleetSync => {
                Trainer::Dist { trainer: flat(self, users)?, plan: FaultPlan::none() }
            }
            Workload::FleetTree => Trainer::Dist {
                trainer: flat(self, users)?
                    .with_topology(Topology::Sharded(ShardSpec::new(4).with_replicas(3))),
                plan: tree_delays(seed).with_root_kill(2),
            },
            Workload::FleetAsync => {
                let spec = AsyncSpec {
                    availability: 1.0,
                    staleness_bound: 4,
                    poll_window: Duration::from_millis(25),
                    seed,
                };
                Trainer::Async {
                    trainer: AsyncDistributedPlos::try_new(config(self), spec)?
                        .with_runtime(mux(users))
                        .with_checkpointing(CheckpointPolicy::new(ckpt_dir)),
                    plan: async_faults(seed, users),
                    ckpt_dir: ckpt_dir.to_path_buf(),
                }
            }
        })
    }
}

/// The synthetic 2-D cohort as Sec. VI-E sets it up: each user generates
/// its own sample from the Sec. VI-D distribution, and user `t` rotates it
/// by `(π/2)·t/(T−1)` as `generate_synthetic` rotates its shared sample.
/// Half the users provide labels. Independent samples keep one unlucky
/// draw from setting the difficulty, and so the fit time, of a whole
/// cohort.
fn synthetic(users: usize, points_per_class: usize, rate: f64, seed: u64) -> MultiUserDataset {
    let spec = SyntheticSpec { num_users: 1, points_per_class, max_rotation: 0.0, flip_prob: 0.1 };
    let cohort = (0..users)
        .map(|t| {
            let own =
                generate_synthetic(&spec, seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let angle = std::f64::consts::FRAC_PI_2 * t as f64 / (users - 1).max(1) as f64;
            let rotation = Matrix::rotation2d(angle);
            let user = &own.users()[0];
            UserData::new(
                user.features.iter().map(|x| rotation.matvec(x)).collect(),
                user.truth.clone(),
            )
        })
        .collect();
    MultiUserDataset::new(cohort)
        .mask_labels(&LabelMask::providers(users / 2, rate), seed.wrapping_add(7))
}

/// The training configuration: `PlosConfig::fast()` with λ = 40. The
/// synchronous fleets run a fixed consensus budget instead of stopping on
/// the residual tests: two CCCP rounds of eight ADMM iterations. Left to
/// converge, a fleet cohort needs anywhere from about 12 to 60 rounds, and
/// per-fit traffic follows, so one run's few tree fits cannot pin it down.
fn config(workload: Workload) -> PlosConfig {
    let quick = PlosConfig { lambda: 40.0, ..PlosConfig::fast() };
    match workload {
        Workload::FleetSync | Workload::FleetTree => PlosConfig {
            cccp_tol: 0.0,
            max_cccp_rounds: 2,
            eps_abs: f64::MIN_POSITIVE,
            max_admm_iters: 8,
            ..quick
        },
        Workload::CentralSynth | Workload::FleetAsync => quick,
    }
}

/// Device workers never outnumber the pool.
fn mux(users: usize) -> DeviceRuntime {
    let pool = plos::exec::Pool::current().threads();
    DeviceRuntime::Multiplexed { devices_per_worker: users.div_ceil(pool) }
}

/// The synchronous flat-star trainer with `workload`'s configuration.
fn flat(workload: Workload, users: usize) -> Result<DistributedPlos, CoreError> {
    Ok(DistributedPlos::try_new(config(workload))?.with_runtime(mux(users)))
}

/// Fault plans are seeded from the cohort seed.
fn tree_delays(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed.wrapping_add(2024)).with_delay(0.2, Duration::from_millis(4))
}

fn async_faults(seed: u64, users: usize) -> FaultPlan {
    FaultPlan::seeded(seed.wrapping_add(2024))
        .with_delay(0.2, Duration::from_millis(8))
        .with_straggler(users - 1, Duration::from_millis(250))
}

/// A constructed trainer with everything one fit call needs.
#[derive(Debug)]
pub enum Trainer {
    /// Centralized solver.
    Central(CentralizedPlos),
    /// Synchronous server, flat or sharded.
    Dist {
        /// The trainer.
        trainer: DistributedPlos,
        /// Faults injected into the fit.
        plan: FaultPlan,
    },
    /// Bounded-staleness server.
    Async {
        /// The trainer.
        trainer: AsyncDistributedPlos,
        /// Faults injected into the fit.
        plan: FaultPlan,
        /// Where its checkpoints go; removed when the trainer is dropped,
        /// so the next fit cannot resume from them.
        ckpt_dir: PathBuf,
    },
}

impl Drop for Trainer {
    fn drop(&mut self) {
        if let Trainer::Async { ckpt_dir, .. } = self {
            let _ = std::fs::remove_dir_all(ckpt_dir);
        }
    }
}

/// The public report of one fit.
#[derive(Debug, Clone)]
pub enum Report {
    /// The centralized solver returns no report.
    Central,
    /// Synchronous server report.
    Dist(DistributedReport),
    /// Bounded-staleness server report.
    Async(AsyncReport),
}

impl Report {
    /// Consensus rounds (ADMM iterations or asynchronous epochs).
    pub fn rounds(&self) -> usize {
        match self {
            Report::Central => 0,
            Report::Dist(r) => r.admm_iterations,
            Report::Async(r) => r.admm_iterations,
        }
    }

    /// Per-device traffic counters.
    pub fn traffic(&self) -> &[TrafficStats] {
        match self {
            Report::Central => &[],
            Report::Dist(r) => &r.per_user_traffic,
            Report::Async(r) => &r.per_user_traffic,
        }
    }
}

impl Trainer {
    /// The call the benchmark times.
    pub fn fit(&self, data: &MultiUserDataset) -> Result<(PersonalizedModel, Report), CoreError> {
        match self {
            Trainer::Central(t) => Ok((t.fit(data)?, Report::Central)),
            Trainer::Dist { trainer, plan } => {
                trainer.fit_with_faults(data, plan).map(|(m, r)| (m, Report::Dist(r)))
            }
            Trainer::Async { trainer, plan, .. } => {
                trainer.fit_with_faults(data, plan).map(|(m, r)| (m, Report::Async(r)))
            }
        }
    }
}

/// What the benchmark keeps of one fit.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Overall accuracy over labelled and unlabelled users (Fig. 11).
    pub accuracy: f64,
    /// Mean per-user traffic in KB (Fig. 13). For the centralized workload,
    /// the raw-data upload a centralized deployment needs instead.
    pub kb_per_user: f64,
    /// FNV-1a digest of the model.
    pub digest: u64,
    /// Dimension of the model's hyperplane.
    pub dim: usize,
    /// The public report.
    pub report: Report,
}

/// Overall accuracy of `model` on `data`.
fn accuracy(model: &PersonalizedModel, data: &MultiUserDataset) -> f64 {
    let providers = data.providers().len();
    score_predictions(data, &plos_predictions(model, data))
        .overall(providers, data.num_users() - providers)
}

/// Scores a fit and checks its output. The error names the failed check.
pub fn outcome(
    data: &MultiUserDataset,
    model: &PersonalizedModel,
    report: Report,
) -> Result<Outcome, String> {
    let accuracy = accuracy(model, data);
    let users = data.num_users().max(1) as f64;
    let kb_per_user = match &report {
        // Each user ships every sample and its label once.
        Report::Central => {
            let bytes: usize = data
                .users()
                .iter()
                .flat_map(|u| u.features.iter())
                .map(|x| vector_wire_len(x) + 1)
                .sum();
            bytes as f64 / 1024.0 / users
        }
        Report::Dist(r) => r.mean_user_kb(),
        Report::Async(r) => {
            r.per_user_traffic.iter().map(TrafficStats::total_kb).sum::<f64>() / users
        }
    };
    let digest = model_digest(model.global_hyperplane(), model.personal_biases());
    let finite = model.global_hyperplane().iter().all(|x| x.is_finite())
        && model.personal_biases().iter().all(|b| b.iter().all(|x| x.is_finite()));
    if !finite {
        return Err("model holds a non-finite weight".into());
    }
    if accuracy.is_nan() || accuracy < ACCURACY_FLOOR {
        return Err(format!("accuracy {accuracy:.4} below the floor {ACCURACY_FLOOR}"));
    }
    let (evicted, panicked, protocol_errors) = match &report {
        Report::Central => (0, 0, 0),
        Report::Dist(r) => (r.evicted.len(), r.panicked.len(), r.protocol_errors),
        Report::Async(r) => (r.evicted.len(), r.panicked.len(), r.protocol_errors),
    };
    if evicted + panicked > 0 || protocol_errors > 0 {
        return Err(format!(
            "{evicted} evicted, {panicked} panicked, {protocol_errors} protocol errors"
        ));
    }
    let dim = model.global_hyperplane().len();
    Ok(Outcome { accuracy, kb_per_user, digest, dim, report })
}

/// The check that needs a second fit of the first cohort, run outside the
/// timed window. Returns a one-line description of what was compared.
pub fn reference_check(
    workload: Workload,
    seed: u64,
    data: &MultiUserDataset,
    first: &Outcome,
    ckpt_dir: &Path,
) -> Result<String, String> {
    let users = data.num_users();
    let fail = |e: CoreError| format!("reference fit failed: {e}");
    match workload {
        Workload::CentralSynth | Workload::FleetSync => {
            let (model, _) =
                workload.trainer(users, seed, ckpt_dir).map_err(fail)?.fit(data).map_err(fail)?;
            let digest = model_digest(model.global_hyperplane(), model.personal_biases());
            same_digest("refit of the first cohort", digest, first.digest)
        }
        Workload::FleetTree => {
            // The flat star under the same seeded delays. Delays can change
            // the trained bits in both topologies alike, so the fault-free
            // fleet_sync model is not the reference here.
            let (model, _) = flat(workload, users)
                .map_err(fail)?
                .fit_with_faults(data, &tree_delays(seed))
                .map_err(fail)?;
            let digest = model_digest(model.global_hyperplane(), model.personal_biases());
            same_digest("flat star under the same delays", digest, first.digest)
        }
        Workload::FleetAsync => {
            let (model, _) = flat(workload, users)
                .map_err(fail)?
                .fit_with_faults(data, &async_faults(seed, users))
                .map_err(fail)?;
            let reference = accuracy(&model, data);
            let gap = (reference - first.accuracy).abs();
            let line = format!(
                "async accuracy {:.4} vs synchronous barrier {reference:.4}: gap {gap:.4} (band {ASYNC_ACCURACY_BAND})",
                first.accuracy
            );
            if gap <= ASYNC_ACCURACY_BAND {
                Ok(line)
            } else {
                Err(line)
            }
        }
    }
}

fn same_digest(what: &str, got: u64, want: u64) -> Result<String, String> {
    let line = format!("{what}: digest {got:016x} vs {want:016x}");
    if got == want {
        Ok(line)
    } else {
        Err(line)
    }
}
