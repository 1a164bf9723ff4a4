//! PLOS hyperparameters and the fault-tolerance policy of the distributed
//! server.

use crate::error::CoreError;
use plos_opt::QpSolverOptions;
use std::time::Duration;

/// Shorthand for the `InvalidConfig` rejections the `try_validate`
/// methods below hand back.
fn invalid(detail: String) -> CoreError {
    CoreError::InvalidConfig { detail }
}

/// Range check used by every `try_validate` clause: `ok` or a typed
/// rejection carrying `detail`.
fn require(ok: bool, detail: &str) -> Result<(), CoreError> {
    if ok {
        Ok(())
    } else {
        Err(invalid(detail.to_string()))
    }
}

/// Longest wait a validated duration may ask for: far beyond any useful
/// round, and far inside what a deadline `Instant` can hold.
pub(crate) const MAX_WAIT: Duration = Duration::from_secs(24 * 60 * 60);

/// Server-side retry schedule for one gather round of distributed PLOS.
///
/// A round's time budget unfolds as: wait `recv_timeout` for the first
/// gather window, then up to `max_retries` re-broadcasts to the devices
/// that have not answered, each followed by an exponentially growing wait
/// (`backoff_base`, `backoff_factor`), all capped by `round_deadline`.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Initial per-round gather window before the first retry fires.
    pub recv_timeout: Duration,
    /// Bounded number of re-broadcasts to unresponsive devices per round.
    pub max_retries: u32,
    /// Wait after the first re-broadcast (at most `round_deadline`).
    pub backoff_base: Duration,
    /// Multiplier applied to the wait after every further re-broadcast.
    pub backoff_factor: f64,
    /// Hard wall-clock cap on one gather round (at most one day); when it
    /// expires the round closes with whatever replies arrived.
    pub round_deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            recv_timeout: Duration::from_secs(2),
            max_retries: 2,
            backoff_base: Duration::from_millis(500),
            backoff_factor: 2.0,
            round_deadline: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// A tight schedule for tests and simulations: short windows so rounds
    /// stalled by dead devices close in tens of milliseconds.
    pub fn fast() -> Self {
        RetryPolicy {
            recv_timeout: Duration::from_millis(60),
            max_retries: 1,
            backoff_base: Duration::from_millis(30),
            backoff_factor: 2.0,
            round_deadline: Duration::from_millis(400),
        }
    }

    /// Validates parameter ranges, returning `CoreError::InvalidConfig`
    /// on the first out-of-range field. The fallible trainer entry points
    /// (`try_new`, `try_with_fault_tolerance`) route through this.
    pub fn try_validate(&self) -> Result<(), CoreError> {
        require(self.recv_timeout > Duration::ZERO, "recv_timeout must be positive")?;
        require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")?;
        require(
            self.round_deadline >= self.recv_timeout,
            "round_deadline must cover at least one gather window",
        )?;
        require(self.round_deadline <= MAX_WAIT, "round_deadline must be at most one day")?;
        require(self.backoff_base <= self.round_deadline, "backoff_base must fit in round_deadline")
    }
}

/// Quorum and eviction policy for fault-tolerant distributed training.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTolerance {
    /// Fraction of live devices whose replies let a gather round close
    /// early, in `(0, 1]`. `1.0` waits for the whole roster (up to the
    /// retry budget), reproducing the synchronous Algorithm 2.
    pub quorum_fraction: f64,
    /// Per-round retry/timeout/backoff schedule.
    pub retry: RetryPolicy,
    /// Consecutive missed rounds after which a device is evicted from the
    /// roster (its link is treated as permanently dead and `T` is rescaled).
    pub evict_after: u32,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        FaultTolerance { quorum_fraction: 1.0, retry: RetryPolicy::default(), evict_after: 2 }
    }
}

impl FaultTolerance {
    /// Tight windows for tests and simulations.
    pub fn fast() -> Self {
        FaultTolerance { retry: RetryPolicy::fast(), ..FaultTolerance::default() }
    }

    /// Returns a copy with a different quorum fraction.
    #[must_use]
    pub fn with_quorum(mut self, quorum_fraction: f64) -> Self {
        self.quorum_fraction = quorum_fraction;
        self
    }

    /// Replies required from `alive` live devices before a round may close
    /// early (always at least one).
    pub fn required_replies(&self, alive: usize) -> usize {
        let required = (self.quorum_fraction * alive as f64).ceil();
        let required = if required.is_finite() && required >= 1.0 {
            // Explicit rounding above makes the cast exact for any roster
            // size a simulation can hold.
            required as usize
        } else {
            1
        };
        required.clamp(1, alive.max(1))
    }

    /// Validates parameter ranges, returning `CoreError::InvalidConfig`
    /// on the first out-of-range field.
    pub fn try_validate(&self) -> Result<(), CoreError> {
        if !(self.quorum_fraction > 0.0 && self.quorum_fraction <= 1.0) {
            return Err(invalid(format!(
                "quorum_fraction must be in (0,1], got {}",
                self.quorum_fraction
            )));
        }
        require(self.evict_after > 0, "evict_after must be positive")?;
        self.retry.try_validate()
    }
}

/// Hyperparameters shared by the centralized and distributed trainers.
///
/// The paper's objective (Eq. 2) has three predefined parameters: `λ`
/// controls how far personal hyperplanes may deviate from the global one
/// (large λ → everyone shares one hyperplane, i.e. the *All* baseline;
/// small λ → independent per-user models, i.e. the *Single* baseline);
/// `C_l` and `C_u` weight the losses of labeled and unlabeled samples.
#[derive(Debug, Clone)]
pub struct PlosConfig {
    /// Coupling strength `λ > 0` between personal and global hyperplanes.
    pub lambda: f64,
    /// Weight `C_l` of labeled-sample hinge losses.
    pub c_labeled: f64,
    /// Weight `C_u` of unlabeled-sample margin losses.
    pub c_unlabeled: f64,
    /// Cutting-plane violation tolerance `ε` (Algorithm 1, step 6).
    pub eps: f64,
    /// Maximum cutting-plane rounds per convex subproblem.
    pub max_cutting_rounds: usize,
    /// Convergence tolerance on the CCCP objective `L` (Algorithm 1, step 7).
    pub cccp_tol: f64,
    /// Maximum CCCP rounds.
    pub max_cccp_rounds: usize,
    /// Bias augmentation: if `Some(b)` every feature vector is extended with
    /// the constant `b` so hyperplanes need not pass through the origin
    /// (footnote 1 of the paper).
    pub bias: Option<f64>,
    /// Inner QP solver tuning.
    pub qp: QpSolverOptions,
    /// ADMM penalty `ρ` (distributed only; paper: 1.0).
    pub rho: f64,
    /// ADMM absolute residual tolerance `ε_abs` (distributed only; paper:
    /// 1e-3).
    pub eps_abs: f64,
    /// Maximum ADMM iterations per CCCP round (distributed only).
    pub max_admm_iters: usize,
    /// Class-balance bound `ℓ` from maximum-margin clustering (Xu et al.
    /// 2005, the formulation PLOS builds on): each user's hyperplane must
    /// satisfy `|w_t · x̄_t| ≤ ℓ`, where `x̄_t` is the mean of the user's
    /// *unlabeled* samples. Without it the margin term `|w·x|` admits the
    /// degenerate solution that puts every sample on one side — easy to hit
    /// in high-dimensional, uncentered feature spaces. `f64::INFINITY`
    /// disables the constraint.
    pub balance: f64,
    /// Random sign-pattern restarts per user in the refinement stage. The
    /// maximum-margin-clustering term is non-convex and CCCP is sensitive to
    /// its initialization (Xu et al. 2005); multi-start per-user refinement
    /// escapes the poor local optima a purely global initialization can pin
    /// unlabeled users to. `0` disables restarts (paper-vanilla CCCP).
    pub restarts: usize,
    /// Rounds of block-coordinate refinement after the joint solve: each
    /// round re-solves every user's subproblem (with restarts) against the
    /// current `w0`, then updates `w0` in closed form. `0` disables
    /// refinement.
    pub refine_rounds: usize,
    /// Seed for the (rare) random choices, e.g. the zero-label
    /// initialization and the refinement restarts.
    pub seed: u64,
}

impl Default for PlosConfig {
    fn default() -> Self {
        PlosConfig {
            lambda: 100.0,
            c_labeled: 100.0,
            c_unlabeled: 1.0,
            eps: 1e-3,
            max_cutting_rounds: 60,
            cccp_tol: 1e-3,
            max_cccp_rounds: 12,
            bias: Some(1.0),
            qp: QpSolverOptions::default(),
            rho: 1.0,
            eps_abs: 1e-3,
            max_admm_iters: 60,
            balance: 0.5,
            restarts: 3,
            refine_rounds: 2,
            seed: 0,
        }
    }
}

impl PlosConfig {
    /// A cheaper configuration for tests and doc examples: looser tolerances
    /// and tighter iteration caps, same algorithm.
    pub fn fast() -> Self {
        PlosConfig {
            eps: 1e-2,
            max_cutting_rounds: 25,
            cccp_tol: 1e-2,
            max_cccp_rounds: 5,
            max_admm_iters: 25,
            eps_abs: 1e-2,
            qp: QpSolverOptions { tol: 1e-8, max_sweeps: 2000, ..QpSolverOptions::default() },
            restarts: 2,
            refine_rounds: 1,
            ..PlosConfig::default()
        }
    }

    /// Returns a copy with a different `λ` (used by the λ-sweep experiment,
    /// Fig. 7).
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Validates parameter ranges, returning `CoreError::InvalidConfig`
    /// on the first out-of-range field. The fallible trainer entry points
    /// (`CentralizedPlos::try_new`, `DistributedPlos::try_new`,
    /// `AsyncDistributedPlos::try_new`) route through this.
    pub fn try_validate(&self) -> Result<(), CoreError> {
        require(self.lambda > 0.0 && self.lambda.is_finite(), "lambda must be positive")?;
        require(self.c_labeled >= 0.0, "c_labeled must be non-negative")?;
        require(self.c_unlabeled >= 0.0, "c_unlabeled must be non-negative")?;
        require(self.eps >= 0.0, "eps must be non-negative")?;
        require(self.max_cutting_rounds > 0, "max_cutting_rounds must be positive")?;
        require(self.max_cccp_rounds > 0, "max_cccp_rounds must be positive")?;
        require(self.rho > 0.0, "rho must be positive")?;
        require(self.eps_abs > 0.0, "eps_abs must be positive")?;
        require(self.balance >= 0.0, "balance bound must be non-negative")?;
        if let Some(b) = self.bias {
            require(b.is_finite(), "bias constant must be finite")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        PlosConfig::default().try_validate().unwrap();
        PlosConfig::fast().try_validate().unwrap();
        FaultTolerance::default().try_validate().unwrap();
        FaultTolerance::fast().try_validate().unwrap();
    }

    #[test]
    fn required_replies_rounds_up_and_stays_positive() {
        let ft = FaultTolerance::default().with_quorum(0.75);
        assert_eq!(ft.required_replies(4), 3);
        assert_eq!(ft.required_replies(8), 6);
        assert_eq!(ft.required_replies(1), 1);
        assert_eq!(ft.required_replies(0), 1, "a zero roster still demands one reply");
        let all = FaultTolerance::default();
        assert_eq!(all.required_replies(5), 5, "quorum 1.0 waits for everyone");
        let tiny = FaultTolerance::default().with_quorum(0.01);
        assert_eq!(tiny.required_replies(3), 1, "quorum never drops below one reply");
    }

    #[test]
    fn zero_quorum_rejected() {
        let err = FaultTolerance::default().with_quorum(0.0).try_validate().unwrap_err();
        assert!(format!("{err}").contains("quorum_fraction must be in"), "{err}");
    }

    #[test]
    fn short_round_deadline_rejected() {
        let err = RetryPolicy {
            recv_timeout: Duration::from_secs(1),
            round_deadline: Duration::from_millis(10),
            ..RetryPolicy::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(format!("{err}").contains("round_deadline must cover"), "{err}");
    }

    #[test]
    fn try_validate_returns_typed_rejections() {
        assert!(PlosConfig::default().try_validate().is_ok());
        assert!(FaultTolerance::fast().try_validate().is_ok());
        let bad = PlosConfig { lambda: f64::NAN, ..Default::default() }.try_validate();
        match bad {
            Err(CoreError::InvalidConfig { detail }) => {
                assert!(detail.contains("lambda must be positive"), "got {detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let bad = FaultTolerance::default().with_quorum(1.5).try_validate();
        match bad {
            Err(CoreError::InvalidConfig { detail }) => {
                assert!(detail.contains("quorum_fraction must be in"), "got {detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let bad = RetryPolicy { backoff_factor: 0.5, ..RetryPolicy::default() }.try_validate();
        assert!(matches!(bad, Err(CoreError::InvalidConfig { .. })));
    }

    #[test]
    fn with_lambda_overrides() {
        let c = PlosConfig::default().with_lambda(7.5);
        assert_eq!(c.lambda, 7.5);
    }

    #[test]
    fn zero_lambda_rejected() {
        let err = PlosConfig { lambda: 0.0, ..Default::default() }.try_validate().unwrap_err();
        assert!(format!("{err}").contains("lambda must be positive"), "{err}");
    }

    #[test]
    fn zero_rho_rejected() {
        let err = PlosConfig { rho: 0.0, ..Default::default() }.try_validate().unwrap_err();
        assert!(format!("{err}").contains("rho must be positive"), "{err}");
    }

    #[test]
    fn nan_bias_rejected() {
        let err =
            PlosConfig { bias: Some(f64::NAN), ..Default::default() }.try_validate().unwrap_err();
        assert!(format!("{err}").contains("bias constant must be finite"), "{err}");
    }
}
