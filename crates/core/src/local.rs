//! The on-device subproblem of distributed PLOS (Eq. 22).
//!
//! During ADMM, user `t` repeatedly solves
//!
//! ```text
//! min_{w_t, v_t, ξ_t ≥ 0}  ξ_t + (λ/T)‖v_t‖² + (ρ/2)‖w_t − w0 − v_t + u_t‖²
//! s.t. cutting-plane constraints  s_k · w_t ≥ c_k − ξ_t,  k ∈ Ω_t
//! ```
//!
//! over only its own raw data. With `κ = λ/T` and `a = w0 − u_t`, the inner
//! minimization over `v_t` is closed-form, `v_t* = ρ/(2κ+ρ)·(w_t − a)`,
//! leaving an SVM-like problem in `w_t` alone with effective curvature
//! `μ = 2κρ/(2κ+ρ)`:
//!
//! ```text
//! min_w  (μ/2)‖w − a‖² + ξ(w),    ξ(w) = max(0, max_k (c_k − s_k·w))
//! ```
//!
//! whose working-set dual is a tiny capped-simplex QP — the same
//! [`GroupedQp`] machinery as the centralized dual, with
//! `w = a + (1/μ)·Σ α_k s_k`. The working set persists across ADMM
//! iterations within a CCCP round (old constraints remain valid constraints
//! of the same convexified problem) and is cleared when the server advances
//! CCCP, because the sign pattern changes.
//!
//! [`Device`] is the protocol state machine around the solver: the one
//! device side of the flat star, the sharded tree and the async server.

use crate::asynchronous::AsyncSpec;
use crate::config::PlosConfig;
use crate::consensus::splitmix64;
use crate::error::CoreError;
use crate::problem::{self, Constraint, PreparedUser};
use crate::prox;
use crate::wire_u32;
use plos_linalg::Vector;
use plos_net::shard::{PHASE_INIT, PHASE_REFINE};
use plos_net::{DeviceMachine, DeviceStep, FaultPlan, Message, TrafficStats};
use std::time::{Duration, Instant};

/// Device-resident solver state for one user.
#[derive(Debug, Clone)]
pub struct LocalSolver {
    user: PreparedUser,
    config: PlosConfig,
    t_count: usize,
    signs: Option<Vec<f64>>,
    working_set: Vec<Constraint>,
    /// Hard class-balance constraints (empty when disabled or fully
    /// labeled).
    balance: Vec<Constraint>,
    /// Last personalized hyperplane; the linearization point for the next
    /// CCCP round.
    w_t: Vector,
}

/// Output of one local solve.
#[derive(Debug, Clone)]
pub struct LocalUpdate {
    /// Personalized hyperplane `w_t`.
    pub w_t: Vector,
    /// Personal bias `v_t`.
    pub v_t: Vector,
    /// Slack `ξ_t`.
    pub xi_t: f64,
}

impl LocalUpdate {
    /// The consensus update `(w0, 0, 0)`. A device whose local solve failed
    /// sends it instead of poisoning the protocol: the server keeps driving
    /// the other devices and this one rejoins next round.
    fn consensus(w0: &Vector) -> Self {
        LocalUpdate { w_t: w0.clone(), v_t: Vector::zeros(w0.len()), xi_t: 0.0 }
    }
}

impl LocalSolver {
    /// [`LocalSolver::solve`], degrading a failed solve to the consensus
    /// update.
    pub(crate) fn solve_or_consensus(&mut self, w0: &Vector, u_t: &Vector) -> LocalUpdate {
        self.solve(w0, u_t).unwrap_or_else(|_| LocalUpdate::consensus(w0))
    }

    /// Refinement round `round` ([`LocalSolver::refine`] under the round's
    /// seed), degrading a failed solve to the consensus update.
    pub(crate) fn refine_or_consensus(&mut self, w0: &Vector, round: u32) -> LocalUpdate {
        let seed = self.seed_for_round(round);
        self.refine(w0, seed).unwrap_or_else(|_| LocalUpdate::consensus(w0))
    }

    /// Creates the device solver. The config is pre-validated by the trainer
    /// that owns this solver (`try_new` on the trainer rejects bad configs),
    /// so construction itself only checks the cohort size.
    ///
    /// # Panics
    ///
    /// Panics if `t_count == 0`.
    pub fn new(user: PreparedUser, config: PlosConfig, t_count: usize) -> Self {
        assert!(t_count > 0, "t_count must be positive");
        let dim = user.features.first().map_or(0, Vector::len);
        let balance = problem::balance_constraints(&user, config.balance);
        LocalSolver {
            user,
            config,
            t_count,
            signs: None,
            working_set: Vec::new(),
            balance,
            w_t: Vector::zeros(dim),
        }
    }

    /// Clears the CCCP linearization so the next solve re-derives the sign
    /// pattern from the current `w_t` (Algorithm 2, step 7 → step 3).
    pub fn advance_cccp(&mut self) {
        self.signs = None;
        self.working_set.clear();
    }

    /// Re-seeds the solver from a server checkpoint (`Message::Restore`):
    /// adopts the checkpointed CCCP anchor `w_t` and cohort size, and clears
    /// the working set and sign pattern so the next solve re-derives them
    /// from the anchor — exactly the state a device is in right after
    /// [`LocalSolver::advance_cccp`]. Replaying the interrupted CCCP round's
    /// assignments then reproduces the pre-kill state bit for bit.
    pub fn restore(&mut self, w_t: Vector, t_count: usize) {
        if w_t.len() == self.dim() {
            self.w_t = w_t;
        }
        self.signs = None;
        self.working_set.clear();
        self.set_cohort_size(t_count);
    }

    /// Rescales the cohort size `T` to the one an assignment announces
    /// (smaller once the server evicted dead devices), so `κ = λ/T` — and
    /// with it the `Σ_k γ_kt ≤ T/2λ` dual cap — matches the devices
    /// actually left in the consensus.
    /// Ignores zero (a roster can never be empty while this device is in it).
    pub fn set_cohort_size(&mut self, t_count: usize) {
        if t_count > 0 {
            self.t_count = t_count;
        }
    }

    /// Current cohort size `T` used in `κ = λ/T`.
    pub fn cohort_size(&self) -> usize {
        self.t_count
    }

    /// Model dimension `d` (bias-augmented) of this user's data.
    pub fn dim(&self) -> usize {
        self.user.features.first().map_or(0, Vector::len)
    }

    /// Number of constraints currently in the device working set.
    pub fn working_set_len(&self) -> usize {
        self.working_set.len()
    }

    /// This user's contribution to the server objective (Eq. 23):
    /// the true local loss at the current `w_t`.
    pub fn local_loss(&self) -> f64 {
        problem::true_user_loss(&self.user, &self.w_t, &self.config)
    }

    /// Trains a purely local SVM on this device's observed labels, used as
    /// the distributed initialization of `w'⁽⁰⁾`: providers ship their local
    /// hyperplane to the server, which averages them into `w0⁽⁰⁾` — only
    /// model parameters travel, never data.
    ///
    /// Returns `None` when the user lacks labels of both classes or the
    /// local SVM fails to train.
    pub fn initial_hyperplane(&self) -> Option<Vector> {
        let has_pos = self.user.labeled.iter().any(|&(_, y)| y > 0.0);
        let has_neg = self.user.labeled.iter().any(|&(_, y)| y < 0.0);
        if !has_pos || !has_neg {
            return None;
        }
        let (xs, ys): (Vec<Vector>, Vec<i8>) = self
            .user
            .labeled
            .iter()
            .filter_map(|&(i, y)| {
                self.user.features.get(i).map(|x| (x.clone(), if y > 0.0 { 1 } else { -1 }))
            })
            .unzip();
        // Features were bias-augmented during prepare(); keep the SVM raw.
        let params =
            plos_ml::svm::SvmParams { c: 1.0, bias: None, ..plos_ml::svm::SvmParams::default() };
        let model = plos_ml::svm::LinearSvm::new(params).fit(&xs, &ys).ok()?;
        Some(model.weights().clone())
    }

    /// Solves Eq. (22) given the server's current `w0` and scaled dual
    /// `u_t`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Protocol`] when `w0`/`u_t` do not have the data's
    /// dimension, and QP failures from the cutting-plane solves.
    pub fn solve(&mut self, w0: &Vector, u_t: &Vector) -> Result<LocalUpdate, CoreError> {
        let dim = self.dim();
        if w0.len() != dim || u_t.len() != dim {
            return Err(CoreError::Protocol {
                detail: format!(
                    "w0/u_t dimensions {}/{} do not match the data's {dim}",
                    w0.len(),
                    u_t.len()
                ),
            });
        }

        // Lazily (re-)derive the sign pattern: on the very first solve the
        // linearization point is the incoming global hyperplane, afterwards
        // the device's own last w_t.
        let signs = match self.signs.take() {
            Some(signs) => signs,
            None => {
                let anchor = if self.w_t.norm() == 0.0 { w0 } else { &self.w_t };
                problem::compute_signs(&self.user, anchor)
            }
        };

        let kappa = self.config.lambda / self.t_count as f64;
        let rho = self.config.rho;
        let mu = 2.0 * kappa * rho / (2.0 * kappa + rho);
        let a = w0 - u_t;

        let w = prox::cutting_plane(
            &self.user,
            &signs,
            &a,
            mu,
            &mut self.working_set,
            &self.balance,
            &self.config,
        )?;
        self.signs = Some(signs);

        let xi_t = problem::slack_for(&self.working_set, &w);
        let v_t = (&w - &a).scaled(rho / (2.0 * kappa + rho));
        self.w_t = w.clone();
        // Crate-boundary contract with the opt layer: the update the device
        // ships to the server must keep the problem dimension and stay
        // finite, or the ADMM aggregate silently corrupts every peer.
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            w.len() == dim
                && v_t.len() == dim
                && xi_t.is_finite()
                && w.iter().all(|c| c.is_finite()),
            "local update violates the dimension/finiteness contract"
        );
        Ok(LocalUpdate { w_t: w, v_t, xi_t })
    }

    /// Deterministic per-device seed for refinement round `round` (the
    /// config seed is salted per user by the trainer).
    pub fn seed_for_round(&self, round: u32) -> u64 {
        self.config.seed ^ (u64::from(round) << 32)
    }

    /// Refinement step (post-ADMM): re-solves this user's exact subproblem
    /// `(λ/T)‖w − w0‖² + loss(w)` with multi-start CCCP and adopts the best
    /// local optimum. Returns the refined update; `xi_t` carries the true
    /// local loss so the server can track the objective.
    ///
    /// # Errors
    ///
    /// Propagates QP failures from the multi-start CCCP runs.
    pub fn refine(&mut self, w0: &Vector, seed: u64) -> Result<LocalUpdate, CoreError> {
        let mu = 2.0 * self.config.lambda / self.t_count as f64;
        let anchor_for_signs = if self.w_t.norm() == 0.0 { w0 } else { &self.w_t };
        let base_signs = problem::compute_signs(&self.user, anchor_for_signs);
        let sol = prox::prox_cccp_multistart(&self.user, w0, mu, base_signs, seed, &self.config)?;
        let incumbent = prox::prox_objective(&self.user, w0, mu, &self.w_t, &self.config);
        let sol = if sol.objective < incumbent && self.w_t.norm() > 0.0 {
            sol
        } else if self.w_t.norm() > 0.0 {
            prox::ProxSolution { w: self.w_t.clone(), objective: incumbent }
        } else {
            sol
        };
        self.w_t = sol.w.clone();
        self.signs = Some(problem::compute_signs(&self.user, &sol.w));
        self.working_set.clear();
        let v_t = &sol.w - w0;
        let xi_t = problem::true_user_loss(&self.user, &sol.w, &self.config);
        Ok(LocalUpdate { w_t: sol.w, v_t, xi_t })
    }
}

/// What a device hands back when it shuts down (all zero for a device whose
/// handler panicked).
#[derive(Default)]
pub(crate) struct DeviceOutcome {
    pub(crate) stats: TrafficStats,
    /// Time spent computing replies.
    pub(crate) compute: Duration,
    /// Assignments a busy device answered with its cached solution.
    pub(crate) stale: usize,
    /// Fresh local solves (ADMM and refinement).
    pub(crate) fresh: usize,
}

/// The device side of every consensus protocol — the flat star, the
/// tree's shards and the bounded-staleness async server — as one resumable
/// state machine. Both runners drive it ([`plos_net::drive_blocking`] on a
/// dedicated thread, or the [`plos_net::MuxNetwork`] sweep with K siblings
/// per worker), so the protocol logic cannot drift between servers or
/// runtimes.
///
/// Each `Assign` carries all the control state a round needs: the device
/// re-linearizes when the assignment's CCCP round is past the one it last
/// solved in, and takes the cohort size `T` from it. A lost frame is
/// therefore recovered by the server's ordinary round re-send. A repeat of
/// the latest round is answered from a one-entry reply cache, and an older
/// round is ignored, so re-sends and duplicates never solve twice.
/// Timeouts and corrupted frames never reach the machine.
pub(crate) struct Device {
    user: u32,
    t: usize,
    solver: LocalSolver,
    /// The straggler process that decides busy or fresh (the synchronous
    /// protocol's is [`AsyncSpec::SYNCHRONOUS`]: never busy).
    spec: AsyncSpec,
    /// CCCP round the solver is linearized for; `None` before the first
    /// assignment and after a `Restore`, when the next one is adopted as is.
    cccp_round: Option<u32>,
    /// Latest fresh solution, tagged with the round it was computed against.
    last: Option<(u32, LocalUpdate)>,
    /// The reply to the latest round answered.
    sent: Option<(u32, Message)>,
    compute: Duration,
    stale: usize,
    fresh: usize,
    /// Chaos injection: panic on the first assignment at or after this
    /// round ([`FaultPlan::panic_round`]), modelling an app crash mid-ADMM.
    panic_at: Option<u32>,
}

impl Device {
    /// The machine for device `t` under straggler process `spec` and `plan`.
    pub(crate) fn new(t: usize, solver: LocalSolver, spec: AsyncSpec, plan: &FaultPlan) -> Self {
        Device {
            user: wire_u32(t),
            t,
            solver,
            spec,
            cccp_round: None,
            last: None,
            sent: None,
            compute: Duration::ZERO,
            stale: 0,
            fresh: 0,
            panic_at: plan.panic_round(t),
        }
    }

    /// Whether the device is busy when round `round`'s ADMM assignment
    /// arrives: a stateless splitmix64 hash of `(seed, t, round)` mapped to
    /// `[0, 1)`, so the straggler process is independent of message timing
    /// and arrival order. Never under `S = 0`, which is what makes the bound
    /// degenerate to the synchronous protocol.
    fn busy(&self, round: u32) -> bool {
        if self.spec.staleness_bound == 0 || self.spec.availability >= 1.0 {
            return false;
        }
        let z = splitmix64(
            self.spec.seed
                ^ (self.t as u64).wrapping_mul(0xd129_0d3a_37cf_1e2b)
                ^ u64::from(round).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        unit >= self.spec.availability
    }

    /// Answers the assignment of `round`.
    // The planned chaos crash must be a genuine panic: the whole point of
    // the regression is that the runtime contains it per-device.
    #[allow(clippy::panic)]
    fn assign(
        &mut self,
        round: u32,
        phase: u8,
        cccp_round: u32,
        t_count: u32,
        w0: &Vector,
        u_t: &Vector,
    ) -> DeviceStep {
        match &self.sent {
            Some((r, reply)) if *r == round => return DeviceStep::Send(reply.clone()),
            Some((r, _)) if *r > round => return DeviceStep::NeedRecv,
            _ => {}
        }
        // A malformed assignment is dropped; the round's re-send (or its
        // deadline) recovers it.
        let dim = self.solver.dim();
        let dual = if phase == PHASE_REFINE { 0 } else { dim };
        if phase > PHASE_REFINE || w0.len() != dim || u_t.len() != dual {
            return DeviceStep::NeedRecv;
        }
        if self.panic_at.is_some_and(|at| round >= at) {
            panic!("planned chaos: device {} crashed at round {round}", self.user);
        }
        if self.cccp_round.is_some_and(|c| cccp_round > c) {
            // New linearization: cached solutions are void.
            self.solver.advance_cccp();
            self.last = None;
        }
        self.cccp_round = Some(cccp_round);
        self.solver.set_cohort_size(t_count as usize);
        // plos-lint: allow(D2): per-device compute-time metering only
        let start = Instant::now();
        let (basis, update) = match (phase, &self.last) {
            // Init round: contribute a local hyperplane if this device has
            // labels of both classes.
            (PHASE_INIT, _) => {
                let w_t = self.solver.initial_hyperplane().unwrap_or_else(|| Vector::zeros(dim));
                (round, LocalUpdate { w_t, v_t: Vector::zeros(dim), xi_t: 0.0 })
            }
            // Refinement is always fresh — it anchors the final model.
            (PHASE_REFINE, _) => {
                self.fresh += 1;
                (round, self.solver.refine_or_consensus(w0, round))
            }
            (_, Some((basis, update))) if self.busy(round) => {
                self.stale += 1;
                (*basis, update.clone())
            }
            _ => {
                self.fresh += 1;
                let update = self.solver.solve_or_consensus(w0, u_t);
                self.last = Some((round, update.clone()));
                (round, update)
            }
        };
        self.compute += start.elapsed();
        let LocalUpdate { w_t, v_t, xi_t } = update;
        let reply = Message::Update { round, basis, user: self.user, w_t, v_t, xi_t };
        self.sent = Some((round, reply.clone()));
        DeviceStep::Send(reply)
    }
}

impl DeviceMachine for Device {
    type Output = DeviceOutcome;

    fn on_message(&mut self, message: Message) -> DeviceStep {
        match message {
            Message::Assign { round, phase, cccp_round, t_count, w0, u_t } => {
                self.assign(round, phase, cccp_round, t_count, &w0, &u_t)
            }
            // Checkpoint resume: adopt the recorded CCCP anchor and cohort
            // size, then ack. The ack carries empty vectors — it is a
            // liveness signal, not an update — and is never cached: the
            // star replays logged rounds up to the restore round next.
            Message::Restore { round, t_count, w_t } => {
                self.solver.restore(w_t, t_count as usize);
                (self.cccp_round, self.last, self.sent) = (None, None, None);
                let empty = Vector::zeros(0);
                DeviceStep::Send(Message::Update {
                    round,
                    basis: round,
                    user: self.user,
                    w_t: empty.clone(),
                    v_t: empty,
                    xi_t: 0.0,
                })
            }
            Message::Shutdown => DeviceStep::Done,
            // Tree frames never reach a device; drop a stray one.
            _ => DeviceStep::NeedRecv,
        }
    }

    fn finish(self, stats: TrafficStats) -> DeviceOutcome {
        DeviceOutcome { stats, compute: self.compute, stale: self.stale, fresh: self.fresh }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_sensing::dataset::{MultiUserDataset, UserData};

    fn labeled_user() -> PreparedUser {
        let mut u = UserData::new(
            vec![
                Vector::from(vec![1.0, 0.2]),
                Vector::from(vec![1.5, -0.1]),
                Vector::from(vec![-1.0, 0.1]),
                Vector::from(vec![-1.2, -0.3]),
            ],
            vec![1, 1, -1, -1],
        );
        u.observed = vec![Some(1), Some(1), Some(-1), Some(-1)];
        let dataset = MultiUserDataset::new(vec![u]);
        problem::prepare(&dataset, None).users.remove(0)
    }

    fn config() -> PlosConfig {
        PlosConfig { bias: None, ..PlosConfig::fast() }
    }

    #[test]
    fn solve_fits_local_labels() {
        let mut solver = LocalSolver::new(labeled_user(), config(), 4);
        // Neutral server state: w0 = u = 0.
        let update = solver.solve(&Vector::zeros(2), &Vector::zeros(2)).unwrap();
        assert!(update.w_t[0] > 0.0, "separator should point at the positive class");
        assert!(solver.working_set_len() > 0);
        // Consensus decomposition w_t = (w0 + u adjustments) + v_t holds by
        // construction: with w0 = u = 0, w_t ∝ v_t.
        let ratio = update.v_t[0] / update.w_t[0];
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio {ratio}");
    }

    #[test]
    fn strong_prox_pull_keeps_w_near_anchor() {
        // Huge rho forces w_t ≈ w0 − u_t.
        let cfg = PlosConfig { rho: 1e6, lambda: 1e6, ..config() };
        let mut solver = LocalSolver::new(labeled_user(), cfg, 1);
        let w0 = Vector::from(vec![3.0, -1.0]);
        let update = solver.solve(&w0, &Vector::zeros(2)).unwrap();
        assert!(update.w_t.distance(&w0) < 0.1, "w_t strayed: {:?}", update.w_t);
    }

    #[test]
    fn xi_is_zero_when_anchor_already_satisfies_margins() {
        // Anchor far in the separating direction: all margins > 1 already.
        let mut solver = LocalSolver::new(labeled_user(), config(), 2);
        let w0 = Vector::from(vec![50.0, 0.0]);
        let update = solver.solve(&w0, &Vector::zeros(2)).unwrap();
        assert!(update.xi_t < 1e-6, "xi = {}", update.xi_t);
    }

    #[test]
    fn cohort_rescale_updates_t_and_ignores_zero() {
        let mut solver = LocalSolver::new(labeled_user(), config(), 4);
        assert_eq!(solver.cohort_size(), 4);
        solver.set_cohort_size(3);
        assert_eq!(solver.cohort_size(), 3);
        solver.set_cohort_size(0);
        assert_eq!(solver.cohort_size(), 3, "zero roster must be ignored");
    }

    #[test]
    fn advance_cccp_clears_state() {
        let mut solver = LocalSolver::new(labeled_user(), config(), 2);
        let _ = solver.solve(&Vector::zeros(2), &Vector::zeros(2)).unwrap();
        assert!(solver.working_set_len() > 0);
        solver.advance_cccp();
        assert_eq!(solver.working_set_len(), 0);
    }

    #[test]
    fn repeated_solves_converge_to_stable_w() {
        let mut solver = LocalSolver::new(labeled_user(), config(), 2);
        let w0 = Vector::from(vec![0.5, 0.0]);
        let u = Vector::zeros(2);
        let first = solver.solve(&w0, &u).unwrap();
        let second = solver.solve(&w0, &u).unwrap();
        assert!(
            first.w_t.distance(&second.w_t) < 1e-4,
            "repeat solve moved: {} ",
            first.w_t.distance(&second.w_t)
        );
    }

    #[test]
    fn local_loss_reflects_fit_quality() {
        let mut solver = LocalSolver::new(labeled_user(), config(), 2);
        let before = solver.local_loss(); // w_t = 0 → full hinge loss
        let _ = solver.solve(&Vector::zeros(2), &Vector::zeros(2)).unwrap();
        let after = solver.local_loss();
        assert!(after < before, "loss did not improve: {before} -> {after}");
    }

    #[test]
    fn restore_and_replay_matches_uninterrupted_device() {
        // Continuous device: CCCP round 1, advance, then two solves of
        // round 2.
        let w0_1 = Vector::from(vec![0.4, 0.1]);
        let w0_2 = Vector::from(vec![0.6, -0.1]);
        let w0_3 = Vector::from(vec![0.55, 0.0]);
        let u = Vector::zeros(2);
        let mut continuous = LocalSolver::new(labeled_user(), config(), 3);
        let _ = continuous.solve(&w0_1, &u).unwrap();
        let anchor = continuous.w_t.clone();
        continuous.advance_cccp();
        let _ = continuous.solve(&w0_2, &u).unwrap();
        let expected = continuous.solve(&w0_3, &u).unwrap();

        // Killed device: a fresh process restored from the round-2 anchor
        // replays round 2's broadcasts.
        let mut resumed = LocalSolver::new(labeled_user(), config(), 3);
        resumed.restore(anchor, 3);
        let _ = resumed.solve(&w0_2, &u).unwrap();
        let replayed = resumed.solve(&w0_3, &u).unwrap();

        let bits = |v: &Vector| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&replayed.w_t), bits(&expected.w_t));
        assert_eq!(bits(&replayed.v_t), bits(&expected.v_t));
        assert_eq!(replayed.xi_t.to_bits(), expected.xi_t.to_bits());
    }

    #[test]
    fn restore_ignores_mismatched_dimension_and_zero_cohort() {
        let mut solver = LocalSolver::new(labeled_user(), config(), 4);
        let _ = solver.solve(&Vector::zeros(2), &Vector::zeros(2)).unwrap();
        let kept = solver.w_t.clone();
        solver.restore(Vector::zeros(5), 0);
        assert_eq!(solver.w_t, kept, "mismatched anchor must be ignored");
        assert_eq!(solver.cohort_size(), 4, "zero roster must be ignored");
        assert_eq!(solver.working_set_len(), 0, "working set is always cleared");
    }

    #[test]
    fn dimension_mismatch_is_a_protocol_error() {
        let mut solver = LocalSolver::new(labeled_user(), config(), 2);
        let err = solver.solve(&Vector::zeros(3), &Vector::zeros(3)).unwrap_err();
        assert!(matches!(err, CoreError::Protocol { .. }), "got {err:?}");
        let err = solver.solve(&Vector::zeros(2), &Vector::zeros(1)).unwrap_err();
        assert!(matches!(err, CoreError::Protocol { .. }), "got {err:?}");
    }

    fn device(solver: LocalSolver) -> Device {
        Device::new(0, solver, AsyncSpec::SYNCHRONOUS, &FaultPlan::none())
    }

    fn assign(round: u32, cccp_round: u32, w0: &Vector) -> Message {
        Message::Assign {
            round,
            phase: plos_net::shard::PHASE_ADMM,
            cccp_round,
            t_count: 3,
            w0: w0.clone(),
            u_t: Vector::zeros(w0.len()),
        }
    }

    /// The `(w_t, v_t, ξ_t)` bits of a device's reply.
    fn reply_bits(step: DeviceStep) -> Vec<u64> {
        let DeviceStep::Send(Message::Update { w_t, v_t, xi_t, .. }) = step else {
            panic!("expected an update, got {step:?}");
        };
        w_t.iter().chain(v_t.iter()).chain([&xi_t]).map(|c| c.to_bits()).collect()
    }

    fn update_bits(update: &LocalUpdate) -> Vec<u64> {
        let LocalUpdate { w_t, v_t, xi_t } = update;
        w_t.iter().chain(v_t.iter()).chain([xi_t]).map(|c| c.to_bits()).collect()
    }

    #[test]
    fn repeated_round_is_answered_from_the_cache() {
        let mut dev = device(LocalSolver::new(labeled_user(), config(), 3));
        let w0 = Vector::from(vec![0.4, 0.1]);
        let first = dev.on_message(assign(1, 0, &w0));
        let again = dev.on_message(assign(1, 0, &w0));
        assert_eq!(first, again, "a re-sent round must get the identical reply");
        assert_eq!(dev.fresh, 1, "a repeat must not solve again");
        // A round older than the latest answered is superseded: ignored.
        let _ = dev.on_message(assign(2, 0, &w0));
        assert_eq!(dev.on_message(assign(1, 0, &w0)), DeviceStep::NeedRecv);
        assert_eq!(dev.fresh, 2);
    }

    #[test]
    fn cccp_step_relinearizes_like_advance_cccp() {
        let (w0_1, w0_2) = (Vector::from(vec![0.4, 0.1]), Vector::from(vec![0.6, -0.1]));
        let u = Vector::zeros(2);
        let mut bare = LocalSolver::new(labeled_user(), config(), 3);
        let _ = bare.solve(&w0_1, &u).unwrap();
        bare.advance_cccp();
        let expected = bare.solve(&w0_2, &u).unwrap();

        let mut dev = device(LocalSolver::new(labeled_user(), config(), 3));
        let _ = dev.on_message(assign(1, 0, &w0_1));
        let got = dev.on_message(assign(2, 1, &w0_2));
        assert_eq!(reply_bits(got), update_bits(&expected));
    }

    #[test]
    fn restore_then_assign_matches_restore_then_solve() {
        let w0 = Vector::from(vec![0.6, -0.1]);
        let anchor = Vector::from(vec![0.5, 0.2]);
        let u = Vector::zeros(2);
        let mut bare = LocalSolver::new(labeled_user(), config(), 3);
        let _ = bare.solve(&Vector::from(vec![0.4, 0.1]), &u).unwrap();
        bare.restore(anchor.clone(), 3);
        let expected = bare.solve(&w0, &u).unwrap();

        // The device solved in CCCP round 0, is restored into round 2 and
        // replays round 5: it adopts round 2 without advancing again.
        let mut dev = device(LocalSolver::new(labeled_user(), config(), 3));
        let _ = dev.on_message(assign(1, 0, &Vector::from(vec![0.4, 0.1])));
        let ack = dev.on_message(Message::Restore { round: 6, t_count: 3, w_t: anchor });
        assert!(matches!(ack, DeviceStep::Send(Message::Update { round: 6, .. })));
        let got = dev.on_message(assign(5, 2, &w0));
        assert_eq!(reply_bits(got), update_bits(&expected));
    }

    #[test]
    fn malformed_assignment_is_dropped_not_solved() {
        let mut dev = device(LocalSolver::new(labeled_user(), config(), 3));
        let short = Message::Assign {
            round: 1,
            phase: plos_net::shard::PHASE_ADMM,
            cccp_round: 0,
            t_count: 3,
            w0: Vector::zeros(3),
            u_t: Vector::zeros(3),
        };
        assert_eq!(dev.on_message(short), DeviceStep::NeedRecv);
        assert_eq!(dev.fresh, 0);
        // The well-formed re-send of the same round is then answered.
        assert!(matches!(dev.on_message(assign(1, 0, &Vector::zeros(2))), DeviceStep::Send(_)));
    }
}
