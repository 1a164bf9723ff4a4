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

use crate::config::PlosConfig;
use crate::error::CoreError;
use crate::problem::{self, Constraint, PreparedUser};
use crate::prox;
use plos_linalg::Vector;

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
    /// broadcasts then reproduces the pre-kill state bit for bit.
    pub fn restore(&mut self, w_t: Vector, t_count: usize) {
        let dim = self.user.features.first().map_or(0, Vector::len);
        if w_t.len() == dim {
            self.w_t = w_t;
        }
        self.signs = None;
        self.working_set.clear();
        self.set_cohort_size(t_count);
    }

    /// Rescales the cohort size `T` after the server evicted dead devices
    /// (`RosterUpdate`), so `κ = λ/T` — and with it the `Σ_k γ_kt ≤ T/2λ`
    /// dual cap — matches the devices actually left in the consensus.
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
    /// Propagates QP failures from the cutting-plane solves.
    ///
    /// # Panics
    ///
    /// Panics if `w0`/`u_t` dimensions don't match the data.
    pub fn solve(&mut self, w0: &Vector, u_t: &Vector) -> Result<LocalUpdate, CoreError> {
        let dim = self.user.features.first().map_or(0, Vector::len);
        assert_eq!(w0.len(), dim, "w0 dimension mismatch");
        assert_eq!(u_t.len(), dim, "u_t dimension mismatch");

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
    #[should_panic(expected = "w0 dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut solver = LocalSolver::new(labeled_user(), config(), 2);
        let _ = solver.solve(&Vector::zeros(3), &Vector::zeros(3)).unwrap();
    }
}
