//! The consensus core shared by the three ADMM servers (DESIGN.md §13, §15).
//!
//! Algorithm 2 is one consensus-ADMM iteration: scatter `(w0, u_t)`, local
//! Eq. (22) solves, the closed-form Eq. (23) fold and the Eq. (24)
//! stopping rule. The flat star, the sharded tree and the bounded-staleness
//! async server all run that iteration through this module:
//!
//! * [`Slots`] — the per-device `(w_t, v_t, ξ_t, u_t)` store and its exact
//!   superaccumulator reductions. The flat star and the async server hold
//!   one over the whole fleet, each regional aggregator one over its shard.
//!   `ExactVecSum`/`ExactSum` merges are associative, so a flat fit is one
//!   partition merged at the root and keeps the tree's bits;
//! * the root-side closed forms — init `w0`, Eq. (23) `w0⁺`, Eq. (24)
//!   residuals and stopping test, the CCCP and refinement objectives;
//! * [`run_schedule`] — init → CCCP × ADMM → refinement for both sync
//!   topologies, over the [`Aggregator`] interface;
//! * [`Cohort`] — the fit scaffold: plan validation, data preparation, the
//!   seed-salted per-device solvers and the device run.

use crate::checkpoint::{CheckpointPolicy, CkptSession};
use crate::config::PlosConfig;
use crate::distributed::{AdmmResiduals, RoundParticipation};
use crate::error::CoreError;
use crate::local::LocalSolver;
use crate::model::PersonalizedModel;
use crate::problem::{self, PreparedUser};
use crate::wire_u32;
use parking_lot::Mutex;
use plos_ckpt::{CheckpointFile, CkptError, DistributedPhase};
use plos_linalg::{ExactSum, ExactVecSum, Vector};
use plos_net::shard::{PHASE_ADMM, PHASE_INIT, PHASE_REFINE};
use plos_net::{try_star, ClientExit, DeviceMachine, DeviceRuntime, Endpoint, FaultPlan};
use plos_opt::History;
use plos_sensing::dataset::MultiUserDataset;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// splitmix64 — the seeded hash behind the async straggler process and the
/// tree's leader election.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether `mask` selects device `t`.
fn on(mask: &[bool], t: usize) -> bool {
    mask.get(t).copied().unwrap_or(false)
}

/// Per-device consensus slots: each device's last accepted
/// `(w_t, v_t, ξ_t)` and its scaled dual `u_t`. A straggler's slot keeps
/// its previous values — the carry-forward state.
pub(crate) struct Slots {
    pub(crate) dim: usize,
    pub(crate) w: Vec<Vector>,
    pub(crate) v: Vec<Vector>,
    pub(crate) xi: Vec<f64>,
    pub(crate) u: Vec<Vector>,
}

impl Slots {
    pub(crate) fn new(n: usize, dim: usize) -> Self {
        Slots {
            dim,
            w: vec![Vector::zeros(dim); n],
            v: vec![Vector::zeros(dim); n],
            xi: vec![0.0; n],
            u: vec![Vector::zeros(dim); n],
        }
    }

    /// Stores device `t`'s accepted reply.
    pub(crate) fn store(&mut self, t: usize, w_t: Vector, v_t: Vector, xi_t: f64) {
        if let (Some(w), Some(v), Some(xi)) =
            (self.w.get_mut(t), self.v.get_mut(t), self.xi.get_mut(t))
        {
            *w = w_t;
            *v = v_t;
            *xi = xi_t;
        }
    }

    /// Eq. (23) numerator `Σ (w_t − v_t + u_t)` over the `live` devices.
    pub(crate) fn admm_sum(&self, live: &[bool]) -> ExactVecSum {
        let mut acc = ExactVecSum::zeros(self.dim);
        for (t, ((w, v), u)) in self.w.iter().zip(&self.v).zip(&self.u).enumerate() {
            if on(live, t) {
                acc.add(w);
                acc.sub(v);
                acc.add(u);
            }
        }
        acc
    }

    /// Eq. (23) dual step `u_t += w_t − w0⁺ − v_t` over the `refresh`
    /// mask, returning the Eq. (24) primal partial `Σ‖w_t − w0⁺ − v_t‖²`.
    pub(crate) fn u_update(&mut self, w0: &Vector, refresh: &[bool]) -> ExactSum {
        let mut primal = ExactSum::new();
        for (t, ((w, v), u)) in self.w.iter().zip(&self.v).zip(self.u.iter_mut()).enumerate() {
            if on(refresh, t) {
                let mut delta = w.clone();
                delta -= w0;
                delta -= v;
                primal.add(delta.norm_squared());
                *u += &delta;
            }
        }
        primal
    }

    /// CCCP objective partials `(Σ‖v_t‖², Σ ξ_t)` over the `live` devices.
    pub(crate) fn objective_sums(&self, live: &[bool]) -> (ExactSum, ExactSum) {
        let mut v_sq = ExactSum::new();
        let mut xi = ExactSum::new();
        for (t, (v, x)) in self.v.iter().zip(&self.xi).enumerate() {
            if on(live, t) {
                v_sq.add(v.norm_squared());
                xi.add(*x);
            }
        }
        (v_sq, xi)
    }

    /// Refinement numerator `Σ w_t` over the `live` devices.
    pub(crate) fn refine_sum(&self, live: &[bool]) -> ExactVecSum {
        let mut acc = ExactVecSum::zeros(self.dim);
        for (t, w) in self.w.iter().enumerate() {
            if on(live, t) {
                acc.add(w);
            }
        }
        acc
    }

    /// Refinement objective partials `(Σ‖w_t − w0‖², Σ ξ_t)` over the
    /// `live` devices.
    pub(crate) fn refine_sums(&self, w0: &Vector, live: &[bool]) -> (ExactSum, ExactSum) {
        let mut dist = ExactSum::new();
        let mut xi = ExactSum::new();
        for (t, (w, x)) in self.w.iter().zip(&self.xi).enumerate() {
            if on(live, t) {
                dist.add(w.distance_squared(w0));
                xi.add(*x);
            }
        }
        (dist, xi)
    }
}

/// Init-round numerator: the sum of the non-zero provider hyperplanes and
/// how many there were.
pub(crate) fn init_sum<'v>(
    w_inits: impl Iterator<Item = &'v Vector>,
    dim: usize,
) -> (ExactVecSum, usize) {
    let mut acc = ExactVecSum::zeros(dim);
    let mut contributors = 0;
    for w in w_inits.filter(|w| w.norm() > 0.0) {
        acc.add(w);
        contributors += 1;
    }
    (acc, contributors)
}

/// Init `w0`: the mean provider hyperplane or — with no provider anywhere
/// — a seeded random unit vector, mirroring the centralized fallback.
pub(crate) fn init_w0(sum: &ExactVecSum, contributors: usize, seed: u64) -> Vector {
    if contributors > 0 {
        let mut w0 = sum.value();
        w0.scale_mut(1.0 / contributors as f64);
        return w0;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut w0: Vector = (0..sum.dim()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let n = w0.norm();
    if n > 0.0 {
        w0.scale_mut(1.0 / n);
    }
    w0
}

/// Eq. (23) `w0⁺ = ρ/(2 + Tρ) · Σ(w_t − v_t + u_t)` over a live cohort of
/// `T` devices.
pub(crate) fn admm_w0(sum: &ExactVecSum, cohort: usize, rho: f64) -> Vector {
    let mut w0 = sum.value();
    w0.scale_mut(rho / (2.0 + cohort as f64 * rho));
    w0
}

/// Eq. (24) dual residual `ρ·√(2T)·‖w0⁺ − w0‖`.
pub(crate) fn dual_residual(w0_new: &Vector, w0: &Vector, cohort: usize, rho: f64) -> f64 {
    rho * (2.0 * cohort as f64).sqrt() * w0_new.distance(w0)
}

/// Eq. (24) stopping test: both residuals under their `ε_abs` thresholds.
pub(crate) fn residuals_met(primal: f64, dual: f64, cohort: usize, eps_abs: f64) -> bool {
    let cohort = cohort as f64;
    dual <= (2.0 * cohort).sqrt() * eps_abs && primal <= cohort.sqrt() * eps_abs
}

/// Objective `‖w0‖² + κ·a + b` with `κ = λ/T`: the CCCP objective
/// (Eq. 23, third line: `a = Σ‖v_t‖²`) and, after refinement, the true
/// problem-(3) objective (`a = Σ‖w_t − w0‖²`); `b = Σ ξ_t` in both.
pub(crate) fn objective(
    w0: &Vector,
    cohort: usize,
    lambda: f64,
    a: &ExactSum,
    b: &ExactSum,
) -> f64 {
    w0.norm_squared() + lambda / cohort as f64 * a.value() + b.value()
}

/// Refinement `w0 = λ/(1 + λ) · mean(w_t)` over a live cohort of `T`.
pub(crate) fn refine_w0(sum: &ExactVecSum, cohort: usize, lambda: f64) -> Vector {
    let mut mean = sum.value();
    mean.scale_mut(1.0 / cohort as f64);
    mean.scaled(lambda / (1.0 + lambda))
}

/// Root-side state of a sync consensus run. Its coordinates (`round`,
/// `cccp_round`, `iters_done`, `inner_done`, `phase`) are what the star's
/// checkpoints and the tree's anti-entropy snapshots record.
pub(crate) struct Consensus {
    pub(crate) w0: Vector,
    pub(crate) history: History,
    pub(crate) residuals: Vec<AdmmResiduals>,
    pub(crate) admm_iterations: usize,
    pub(crate) cccp_rounds: usize,
    pub(crate) converged: bool,
    /// Protocol round counter (0 is the init round).
    pub(crate) round: u32,
    /// Zero-based index of the current CCCP round.
    pub(crate) cccp_round: u32,
    /// ADMM iterations completed inside the current CCCP round.
    pub(crate) iters_done: u32,
    /// The current CCCP round's ADMM loop finished; only the objective
    /// push remains.
    pub(crate) inner_done: bool,
    pub(crate) phase: DistributedPhase,
    /// Root-side fold time.
    pub(crate) server_compute: Duration,
}

impl Consensus {
    pub(crate) fn new(dim: usize) -> Self {
        Consensus {
            w0: Vector::zeros(dim),
            history: History::new(),
            residuals: Vec::new(),
            admm_iterations: 0,
            cccp_rounds: 0,
            converged: false,
            round: 0,
            cccp_round: 0,
            iters_done: 0,
            inner_done: false,
            phase: DistributedPhase::Admm,
            server_compute: Duration::ZERO,
        }
    }

    /// The residual log in checkpoint form.
    pub(crate) fn residual_records(&self) -> Vec<(u32, f64, f64)> {
        self.residuals.iter().map(|r| (r.round, r.primal, r.dual)).collect()
    }

    /// The residual log from its checkpoint form.
    pub(crate) fn residuals_from(records: &[(u32, f64, f64)]) -> Vec<AdmmResiduals> {
        records.iter().map(|&(round, primal, dual)| AdmmResiduals { round, primal, dual }).collect()
    }
}

/// One gathered round, as the schedule folds it.
pub(crate) struct Gathered {
    /// The phase's numerator: init `Σ w_init`, ADMM `Σ(w_t − v_t + u_t)`,
    /// refinement `Σ w_t`.
    pub(crate) sum: ExactVecSum,
    /// Init only: devices whose hyperplane entered `sum`.
    pub(crate) contributors: usize,
    /// Live cohort `T` the round's `T`-dependent scalars use.
    pub(crate) cohort: usize,
}

/// How a sync topology moves one consensus round between the root and the
/// devices. The flat star gathers its fleet directly; the sharded tree
/// relays through regional aggregators. `run_schedule` owns the
/// arithmetic and the round order; an aggregator owns only transport,
/// roster and per-device slots.
pub(crate) trait Aggregator {
    /// The checkpointed state to resume from, with the devices already
    /// repositioned — or `None` for a fresh run.
    fn resume(&mut self) -> Result<Option<Consensus>, CoreError>;
    /// Scatters round `st.round` of `phase` against `st.w0` and gathers it
    /// (`PHASE_INIT`, `PHASE_ADMM` or `PHASE_REFINE`).
    fn gather(&mut self, st: &mut Consensus, phase: u8) -> Result<Gathered, CoreError>;
    /// Commits `w0` for the round just gathered and returns its residual
    /// partials: `[Σ‖w_t − w0⁺ − v_t‖², 0]` after the ADMM u-update,
    /// `[Σ‖w_t − w0‖², Σ ξ_t]` after refinement.
    fn commit(&mut self, round: u32, phase: u8, w0: &Vector) -> Result<[ExactSum; 2], CoreError>;
    /// CCCP objective partials `(Σ‖v_t‖², Σ ξ_t)` and the live cohort.
    fn objective(&mut self) -> (ExactSum, ExactSum, usize);
    /// Tells the devices to re-linearize for CCCP round `cccp_round`.
    fn advance_cccp(&mut self, cccp_round: usize) -> Result<(), CoreError>;
    /// Attendance of the last gathered round.
    fn participation(&self) -> Option<RoundParticipation>;
    /// Snapshot seam after every ADMM iteration and refinement round.
    fn checkpoint(&mut self, st: &Consensus) -> Result<(), CoreError>;
}

/// The sync consensus schedule of Algorithm 2, for both topologies:
/// initialization (or checkpoint resume), CCCP × ADMM with the Eq. (23)
/// fold and Eq. (24) stopping rule, then multi-start refinement. Every
/// `T`-dependent scalar uses the live cohort the aggregator reports.
pub(crate) fn run_schedule(
    config: &PlosConfig,
    agg: &mut dyn Aggregator,
    dim: usize,
) -> Result<Consensus, CoreError> {
    let resumed = agg.resume()?;
    // A mid-CCCP snapshot re-enters its round without re-counting it.
    let mid_cccp = matches!(&resumed, Some(st) if st.phase == DistributedPhase::Admm);
    let mut st = match resumed {
        Some(st) => st,
        None => {
            let mut st = Consensus::new(dim);
            let g = agg.gather(&mut st, PHASE_INIT)?;
            // plos-lint: allow(D2): server compute-time metering only
            let t0 = Instant::now();
            st.w0 = init_w0(&g.sum, g.contributors, config.seed);
            st.server_compute += t0.elapsed();
            st
        }
    };
    let (start_cccp, refine_start) = match st.phase {
        DistributedPhase::Admm => (st.cccp_round as usize, 0),
        DistributedPhase::Refine { rounds_done } => (config.max_cccp_rounds, rounds_done as usize),
    };

    // ---- CCCP × ADMM ----
    for cccp_round in start_cccp..config.max_cccp_rounds {
        let resumed_round = mid_cccp && cccp_round == start_cccp;
        let iter_start = if resumed_round { st.iters_done as usize } else { 0 };
        let inner_done = resumed_round && st.inner_done;
        if !resumed_round {
            st.cccp_rounds += 1;
            if cccp_round > 0 {
                agg.advance_cccp(cccp_round)?;
            }
        }
        st.cccp_round = wire_u32(cccp_round);
        // A snapshot taken after the inner loop finished leaves only the
        // objective push below.
        for iter in (iter_start..config.max_admm_iters).take_while(|_| !inner_done) {
            st.round += 1;
            st.admm_iterations += 1;
            st.iters_done = wire_u32(iter);
            st.inner_done = false;
            st.phase = DistributedPhase::Admm;
            let g = agg.gather(&mut st, PHASE_ADMM)?;
            // plos-lint: allow(D2): server compute-time metering only
            let t0 = Instant::now();
            let w0_new = admm_w0(&g.sum, g.cohort, config.rho);
            let dual = dual_residual(&w0_new, &st.w0, g.cohort, config.rho);
            st.server_compute += t0.elapsed();
            let [primal_sq, _] = agg.commit(st.round, PHASE_ADMM, &w0_new)?;
            st.w0 = w0_new;
            let primal = primal_sq.value().sqrt();
            st.residuals.push(AdmmResiduals { round: st.round, primal, dual });
            if plos_obs::enabled() {
                let part = agg.participation();
                plos_obs::emit(
                    "admm_round",
                    &[
                        ("round", st.round.into()),
                        ("primal_residual", primal.into()),
                        ("dual_residual", dual.into()),
                        ("replied", part.map_or(0, |p| p.replied).into()),
                        ("alive", part.map_or(0, |p| p.alive).into()),
                        ("retries", part.map_or(0, |p| p.retries).into()),
                    ],
                );
                plos_obs::counter_add("distributed.admm_rounds", 1);
            }
            let met = residuals_met(primal, dual, g.cohort, config.eps_abs);
            st.iters_done = wire_u32(iter + 1);
            st.inner_done = met || iter + 1 == config.max_admm_iters;
            agg.checkpoint(&st)?;
            if met {
                break;
            }
        }

        let (v_sq, xi, cohort) = agg.objective();
        let value = objective(&st.w0, cohort, config.lambda, &v_sq, &xi);
        st.history.push(value);
        plos_obs::emit(
            "cccp_round",
            &[("round", st.cccp_rounds.into()), ("objective", value.into())],
        );
        if st.history.converged(config.cccp_tol) {
            st.converged = true;
            break;
        }
    }

    // ---- Refinement: multi-start per-device re-solve + closed-form w0
    // block updates (same messages, still only model parameters). ----
    for refine_round in refine_start..config.refine_rounds {
        st.round += 1;
        st.phase = DistributedPhase::Refine { rounds_done: wire_u32(refine_round) };
        st.inner_done = true;
        let g = agg.gather(&mut st, PHASE_REFINE)?;
        // plos-lint: allow(D2): server compute-time metering only
        let t0 = Instant::now();
        st.w0 = refine_w0(&g.sum, g.cohort, config.lambda);
        st.server_compute += t0.elapsed();
        // ξ_t now carry true local losses, so this is the true objective
        // in the problem-(3) scale.
        let [dist, xi] = agg.commit(st.round, PHASE_REFINE, &st.w0)?;
        let value = objective(&st.w0, g.cohort, config.lambda, &dist, &xi);
        st.history.push(value);
        plos_obs::emit(
            "refine_round",
            &[("round", (refine_round + 1).into()), ("objective", value.into())],
        );
        st.phase = DistributedPhase::Refine { rounds_done: wire_u32(refine_round + 1) };
        agg.checkpoint(&st)?;
    }
    Ok(st)
}

/// Assembles the personalized model: each device's bias is its final
/// `w_t − w0`. A device evicted before it ever reported a `w_t` falls back
/// to the global model (zero bias).
pub(crate) fn assemble_model(
    w0: Vector,
    w_ts: &[Vector],
    alive: &[bool],
    bias: Option<f64>,
) -> PersonalizedModel {
    let biases = w_ts
        .iter()
        .enumerate()
        .map(
            |(t, w_t)| {
                if on(alive, t) || w_t.norm() > 0.0 {
                    w_t - &w0
                } else {
                    Vector::zeros(w0.len())
                }
            },
        )
        .collect();
    PersonalizedModel::new(w0, biases, bias)
}

/// Opens the run's checkpoint session — explicit policy first, the
/// `PLOS_CKPT_DIR` fallback second — and decodes the snapshot to resume
/// from, if one exists.
pub(crate) fn open_checkpoint<S>(
    policy: Option<&CheckpointPolicy>,
    name: &str,
    decode: impl FnOnce(&CheckpointFile) -> Result<S, CoreError>,
) -> Result<(Option<CkptSession>, Option<S>), CoreError> {
    let Some(policy) = policy.cloned().or_else(CheckpointPolicy::from_env) else {
        return Ok((None, None));
    };
    let session = policy.session(name);
    let resume = match session.load()? {
        Some(file) => Some(decode(&file)?),
        None => None,
    };
    Ok((Some(session), resume))
}

/// Refuses a decoded snapshot whose shape does not match this run: the
/// section digests already guarantee byte integrity and the fingerprint
/// ties a snapshot to the cohort and config, so this guards the residual
/// structural degrees of freedom — per-device counts (`counts_ok`) and
/// vector lengths — before any arithmetic touches them.
pub(crate) fn check_shape<'v>(
    counts_ok: bool,
    mut vectors: impl Iterator<Item = &'v Vector>,
    t_count: usize,
    dim: usize,
) -> Result<(), CoreError> {
    if counts_ok && vectors.all(|v| v.len() == dim) {
        return Ok(());
    }
    Err(CoreError::Ckpt(CkptError::Malformed {
        detail: format!("checkpoint shape does not match this run (cohort {t_count}, dim {dim})"),
    }))
}

/// What the devices handed back when the run shut down.
pub(crate) struct Exits<O> {
    /// Each device's outcome; `None` where its handler panicked.
    pub(crate) outputs: Vec<Option<O>>,
    /// Devices whose handler panicked, in index order. The runtime
    /// contained each crash; the server saw a dead link.
    pub(crate) panicked: Vec<usize>,
}

/// A validated, prepared cohort: the shared first half of every
/// distributed fit.
pub(crate) struct Cohort {
    pub(crate) t_count: usize,
    pub(crate) dim: usize,
    users: Vec<PreparedUser>,
}

impl Cohort {
    /// Validates `plan` and prepares `dataset`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Protocol`] for an invalid fault plan and
    /// [`CoreError::EmptyDataset`] when the dataset has no users.
    pub(crate) fn prepare(
        dataset: &MultiUserDataset,
        plan: &FaultPlan,
        config: &PlosConfig,
    ) -> Result<Self, CoreError> {
        plan.validate().map_err(|detail| CoreError::Protocol {
            detail: format!("invalid fault plan: {detail}"),
        })?;
        let prepared = problem::prepare(dataset, config.bias);
        if prepared.users.is_empty() {
            return Err(CoreError::EmptyDataset);
        }
        Ok(Cohort { t_count: prepared.users.len(), dim: prepared.dim, users: prepared.users })
    }

    /// Runs `server` against one device per user under `runtime`. Each
    /// device gets its own [`LocalSolver`] with a per-device salted seed,
    /// so refinement restarts differ across users and no device can tell
    /// which server drives it.
    // Allowed: the slot map is created with one entry per device index and
    // the network runs each device closure exactly once per index, so the
    // take-once expect cannot fail.
    #[allow(clippy::expect_used)]
    pub(crate) fn run<M, R>(
        self,
        config: &PlosConfig,
        runtime: DeviceRuntime,
        server: impl FnOnce(&mut Vec<Endpoint>) -> R,
        machine: impl Fn(usize, LocalSolver) -> M + Sync,
    ) -> Result<(R, Exits<M::Output>), CoreError>
    where
        M: DeviceMachine,
        M::Output: Send,
    {
        let t_count = self.t_count;
        // Hand each device its own data through a take-once slot map (the
        // machine factory is shared across threads).
        let slots: Mutex<Vec<Option<LocalSolver>>> = Mutex::new(
            self.users
                .into_iter()
                .enumerate()
                .map(|(t, user)| {
                    let mut cfg = config.clone();
                    cfg.seed = cfg.seed.wrapping_add(t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    Some(LocalSolver::new(user, cfg, t_count))
                })
                .collect(),
        );
        let network =
            try_star(t_count).map_err(|e| CoreError::Protocol { detail: e.to_string() })?;
        let (out, exits) = network.run_devices(runtime, server, |t| {
            let solver = slots.lock().get_mut(t).and_then(Option::take);
            machine(t, solver.expect("each device slot is taken exactly once"))
        });
        let mut outputs = Vec::with_capacity(exits.len());
        let mut panicked = Vec::new();
        for (t, exit) in exits.into_iter().enumerate() {
            match exit {
                ClientExit::Finished(out) => outputs.push(Some(out)),
                ClientExit::Panicked(_) => {
                    outputs.push(None);
                    panicked.push(t);
                }
            }
        }
        Ok((out, Exits { outputs, panicked }))
    }
}
