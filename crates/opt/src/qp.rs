//! Coordinate-ascent solver for the PLOS dual quadratic programs.
//!
//! Both duals in the paper share one shape. Eq. (16):
//!
//! ```text
//! max_{γ ≥ 0}  −½‖Σ γ_kt z_kt‖² + Σ γ_kt c_kt
//! s.t.          Σ_k γ_kt ≤ T/2λ           (one cap per user t)
//! ```
//!
//! In minimization form this is `min ½ γᵀQγ − bᵀγ` with `Q_ij = ⟨z_i, z_j⟩`
//! PSD, subject to `γ ≥ 0` and a *capped-sum* constraint per disjoint group
//! of variables. The local device dual of Eq. (22) is the same problem with a
//! single group. Because the constraints are separable per coordinate given
//! the rest of its group, cyclic coordinate descent with per-coordinate
//! clipping is exact and converges monotonically for PSD `Q` — the same
//! family of solvers used by liblinear for SVM duals.

use crate::error::OptError;
use plos_linalg::{LinalgError, Matrix, Vector};

/// A PSD quadratic program `min ½ γᵀQγ − bᵀγ` over `γ ≥ 0` with disjoint
/// capped-sum groups `Σ_{i ∈ g} γ_i ≤ cap_g`.
///
/// Variables not covered by any group are only constrained to `γ_i ≥ 0`.
///
/// ```
/// use plos_linalg::{Matrix, Vector};
/// use plos_opt::{GroupedQp, OptError, QpSolverOptions};
/// # fn main() -> Result<(), OptError> {
/// // min ½(γ₀² + γ₁²) − γ₀ − 2γ₁  s.t. γ ≥ 0, γ₀ + γ₁ ≤ 1
/// let q = Matrix::identity(2);
/// let b = Vector::from(vec![1.0, 2.0]);
/// let qp = GroupedQp::new(q, b, vec![(vec![0, 1], 1.0)])?;
/// let sol = qp.solve(&QpSolverOptions::default())?;
/// assert!(sol.gamma[1] > sol.gamma[0]); // the larger linear gain wins the cap
/// assert!(sol.gamma[0] + sol.gamma[1] <= 1.0 + 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GroupedQp {
    q: Matrix,
    b: Vector,
    /// `(member indices, cap)` per group; groups are disjoint.
    groups: Vec<(Vec<usize>, f64)>,
    /// group id per variable (usize::MAX = ungrouped)
    group_of: Vec<usize>,
}

/// Tuning knobs for [`GroupedQp::solve`].
#[derive(Debug, Clone)]
pub struct QpSolverOptions {
    /// Stop when the largest coordinate update in a sweep falls below this.
    pub tol: f64,
    /// Maximum number of full sweeps.
    pub max_sweeps: usize,
    /// Dimension above which the objective-stagnation cutoff arms. Systems
    /// this small keep the legacy sweep schedule bit-for-bit (the pinned
    /// golden fixtures top out at 62 variables); larger duals may stop early
    /// with `converged = false` once a check window makes no measurable
    /// objective progress.
    pub stall_dim: usize,
    /// Sweeps between objective evaluations once the cutoff is armed.
    pub stall_every: usize,
    /// Relative progress threshold per check window: a window that improves
    /// the objective by less than `stall_rel_tol · max(|obj|, 1)` stops the
    /// solve as stalled.
    pub stall_rel_tol: f64,
}

impl Default for QpSolverOptions {
    fn default() -> Self {
        QpSolverOptions {
            tol: 1e-10,
            max_sweeps: 10_000,
            stall_dim: 64,
            stall_every: 64,
            stall_rel_tol: 1e-5,
        }
    }
}

/// Solution of a [`GroupedQp`].
#[derive(Debug, Clone)]
pub struct QpSolution {
    /// Optimal variables.
    pub gamma: Vector,
    /// Objective value `½ γᵀQγ − bᵀγ` at `gamma`.
    pub objective: f64,
    /// Sweeps actually performed.
    pub sweeps: usize,
    /// Whether the tolerance was reached within the sweep budget.
    pub converged: bool,
    /// Whether the large-system stagnation cutoff stopped the solve early
    /// (see [`QpSolverOptions::stall_dim`]); always `false` when
    /// `converged` is `true`.
    pub stalled: bool,
    /// Coordinates a pairwise (SMO) move lifted back off the shrunk set —
    /// how often the liblinear-style shrinking heuristic guessed wrong.
    pub shrink_reactivations: u64,
}

impl GroupedQp {
    /// Creates a grouped QP.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `q` is not square.
    /// * [`LinalgError::DimensionMismatch`] if `b.len() != q.nrows()`, if a
    ///   group references an out-of-range variable, or if groups overlap.
    /// * [`LinalgError::OutOfRange`] if a group cap is negative or not finite.
    pub fn new(q: Matrix, b: Vector, groups: Vec<(Vec<usize>, f64)>) -> Result<Self, LinalgError> {
        if !q.is_square() {
            return Err(LinalgError::NotSquare { rows: q.nrows(), cols: q.ncols() });
        }
        let n = q.nrows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "GroupedQp::new (b)",
                expected: n,
                actual: b.len(),
            });
        }
        let mut group_of = vec![usize::MAX; n];
        for (gi, (members, cap)) in groups.iter().enumerate() {
            if !(cap.is_finite() && *cap >= 0.0) {
                return Err(LinalgError::OutOfRange {
                    op: "GroupedQp::new (group cap)",
                    value: *cap,
                });
            }
            for &m in members {
                let Some(slot) = group_of.get_mut(m) else {
                    return Err(LinalgError::DimensionMismatch {
                        op: "GroupedQp::new (group member)",
                        expected: n,
                        actual: m,
                    });
                };
                if *slot != usize::MAX {
                    return Err(LinalgError::DimensionMismatch {
                        op: "GroupedQp::new (overlapping groups)",
                        expected: usize::MAX,
                        actual: m,
                    });
                }
                *slot = gi;
            }
        }
        Ok(GroupedQp { q, b, groups, group_of })
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.b.len()
    }

    /// Objective `½ γᵀQγ − bᵀγ`.
    pub fn objective(&self, gamma: &Vector) -> f64 {
        0.5 * self.q.quadratic_form(gamma) - self.b.dot(gamma)
    }

    /// Returns `true` if `gamma` satisfies all constraints within `tol`.
    pub fn is_feasible(&self, gamma: &Vector, tol: f64) -> bool {
        if gamma.len() != self.dim() {
            return false;
        }
        if gamma.iter().any(|&g| g < -tol) {
            return false;
        }
        self.groups
            .iter()
            .all(|(members, cap)| members.iter().map(|&i| gamma[i]).sum::<f64>() <= cap + tol)
    }

    /// Solves the QP by cyclic coordinate descent with exact per-coordinate
    /// clipping, starting from `γ = 0` (always feasible).
    ///
    /// # Errors
    ///
    /// Returns [`OptError::NonFinite`] if `Q` or `b` contains NaN or
    /// infinite entries.
    pub fn solve(&self, opts: &QpSolverOptions) -> Result<QpSolution, OptError> {
        self.solve_warm(Vector::zeros(self.dim()), opts)
    }

    /// Solves starting from a warm-start point.
    ///
    /// The warm start is first projected to feasibility (coordinates clamped
    /// to `≥ 0`, then groups rescaled onto their caps if violated).
    ///
    /// # Errors
    ///
    /// * [`OptError::Linalg`] ([`LinalgError::DimensionMismatch`]) if
    ///   `warm.len() != dim()`.
    /// * [`OptError::NonFinite`] if `Q`, `b`, or the warm start contains NaN
    ///   or infinite entries.
    // Allowed: the diagonal gather below indexes `q[(i, i)]` for `i < n` on a
    // matrix `new` validated to be n×n.
    #[allow(clippy::indexing_slicing)]
    pub fn solve_warm(&self, warm: Vector, opts: &QpSolverOptions) -> Result<QpSolution, OptError> {
        let n = self.dim();
        if warm.len() != n {
            return Err(OptError::Linalg(LinalgError::DimensionMismatch {
                op: "GroupedQp::solve_warm (warm start)",
                expected: n,
                actual: warm.len(),
            }));
        }
        if !warm.iter().all(|g| g.is_finite()) {
            return Err(OptError::NonFinite { what: "warm start" });
        }
        if !self.q.as_slice().iter().all(|v| v.is_finite()) {
            return Err(OptError::NonFinite { what: "Q matrix" });
        }
        if !self.b.iter().all(|v| v.is_finite()) {
            return Err(OptError::NonFinite { what: "b vector" });
        }
        // Cached diagonal for the core's hot loops; same bits as Q[(i,i)].
        let diag: Vec<f64> = (0..n).map(|i| self.q[(i, i)]).collect();
        let mut gamma = warm;
        let out = crate::cd::solve_cd(
            &crate::cd::CdProblem {
                data: self.q.as_slice(),
                stride: n,
                n,
                diag: &diag,
                b: self.b.as_slice(),
                groups: &self.groups,
                group_of: &self.group_of,
            },
            gamma.as_mut_slice(),
            opts,
        );
        // Eq. (18) dual feasibility: γ ≥ 0 with every capped-sum group on or
        // under its cap. Coordinate descent maintains feasibility at every
        // step, so a violation here is a solver bug, not bad input.
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            self.is_feasible(&gamma, 1e-8),
            "QP solution violates Eq. (18) dual feasibility"
        );
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            out.objective.is_finite(),
            "QP objective is not finite at the returned point"
        );
        plos_obs::emit(
            "qp_solve",
            &[
                ("dim", n.into()),
                ("sweeps", out.sweeps.into()),
                ("converged", out.converged.into()),
                ("shrink_reactivations", out.shrink_reactivations.into()),
                ("objective", out.objective.into()),
            ],
        );
        Ok(QpSolution {
            gamma,
            objective: out.objective,
            sweeps: out.sweeps,
            converged: out.converged,
            stalled: out.stalled,
            shrink_reactivations: out.shrink_reactivations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> QpSolverOptions {
        QpSolverOptions::default()
    }

    #[test]
    fn unconstrained_interior_optimum() {
        // min ½γᵀIγ − bᵀγ with b ≥ 0 and loose cap: optimum γ = b.
        let qp = GroupedQp::new(
            Matrix::identity(3),
            Vector::from(vec![0.5, 1.0, 0.25]),
            vec![(vec![0, 1, 2], 100.0)],
        )
        .unwrap();
        let sol = qp.solve(&opts()).unwrap();
        assert!(sol.converged);
        for (g, b) in sol.gamma.iter().zip([0.5, 1.0, 0.25]) {
            assert!((g - b).abs() < 1e-8);
        }
    }

    #[test]
    fn nonneg_constraint_binds() {
        // Negative linear gain => γ stays 0.
        let qp =
            GroupedQp::new(Matrix::identity(2), Vector::from(vec![-1.0, -2.0]), vec![]).unwrap();
        let sol = qp.solve(&opts()).unwrap();
        assert_eq!(sol.gamma.as_slice(), &[0.0, 0.0]);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn cap_binds_and_allocates_to_best_coordinate() {
        // Equal curvature, one coordinate with larger gain, tight cap.
        let qp = GroupedQp::new(
            Matrix::identity(2),
            Vector::from(vec![1.0, 2.0]),
            vec![(vec![0, 1], 1.0)],
        )
        .unwrap();
        let sol = qp.solve(&opts()).unwrap();
        assert!(qp.is_feasible(&sol.gamma, 1e-9));
        let total: f64 = sol.gamma.iter().sum();
        assert!((total - 1.0).abs() < 1e-8, "cap should be active, total={total}");
        // KKT: cap multiplier μ = 1 gives γ = (1−μ, 2−μ)₊ = (0, 1).
        assert!(sol.gamma[0].abs() < 1e-6);
        assert!((sol.gamma[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn multiple_independent_groups() {
        let qp = GroupedQp::new(
            Matrix::identity(4),
            Vector::from(vec![5.0, 5.0, 0.1, 0.1]),
            vec![(vec![0, 1], 1.0), (vec![2, 3], 10.0)],
        )
        .unwrap();
        let sol = qp.solve(&opts()).unwrap();
        assert!((sol.gamma[0] + sol.gamma[1] - 1.0).abs() < 1e-8, "group 0 cap active");
        // Group 1 cap slack: interior optimum = b.
        assert!((sol.gamma[2] - 0.1).abs() < 1e-8);
        assert!((sol.gamma[3] - 0.1).abs() < 1e-8);
    }

    #[test]
    fn zero_cap_pins_group_to_zero() {
        let qp = GroupedQp::new(
            Matrix::identity(2),
            Vector::from(vec![3.0, 3.0]),
            vec![(vec![0, 1], 0.0)],
        )
        .unwrap();
        let sol = qp.solve(&opts()).unwrap();
        assert_eq!(sol.gamma.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn correlated_q_matches_kkt() {
        // Q = [[2,1],[1,2]], b = (1,1): unconstrained optimum Qγ = b => γ = (1/3,1/3).
        let q = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let qp = GroupedQp::new(q, Vector::from(vec![1.0, 1.0]), vec![]).unwrap();
        let sol = qp.solve(&opts()).unwrap();
        assert!((sol.gamma[0] - 1.0 / 3.0).abs() < 1e-8);
        assert!((sol.gamma[1] - 1.0 / 3.0).abs() < 1e-8);
    }

    #[test]
    fn zero_curvature_linear_coordinate() {
        // Q has a zero row/col: variable 1 is linear with positive gain and a cap.
        let q = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 0.0]]).unwrap();
        let qp = GroupedQp::new(q, Vector::from(vec![1.0, 1.0]), vec![(vec![1], 2.0)]).unwrap();
        let sol = qp.solve(&opts()).unwrap();
        assert!((sol.gamma[0] - 1.0).abs() < 1e-8);
        assert!((sol.gamma[1] - 2.0).abs() < 1e-8, "linear coordinate rides to its cap");
    }

    #[test]
    fn warm_start_infeasible_is_projected() {
        let qp = GroupedQp::new(
            Matrix::identity(2),
            Vector::from(vec![1.0, 1.0]),
            vec![(vec![0, 1], 1.0)],
        )
        .unwrap();
        let sol = qp.solve_warm(Vector::from(vec![-5.0, 10.0]), &opts()).unwrap();
        assert!(qp.is_feasible(&sol.gamma, 1e-9));
        // Optimum splits the cap evenly by symmetry.
        assert!((sol.gamma[0] - 0.5).abs() < 1e-6);
        assert!((sol.gamma[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn warm_start_matches_cold_start() {
        let q = Matrix::from_rows(&[vec![3.0, 0.5], vec![0.5, 2.0]]).unwrap();
        let qp = GroupedQp::new(q, Vector::from(vec![1.0, 4.0]), vec![(vec![0, 1], 1.5)]).unwrap();
        let cold = qp.solve(&opts()).unwrap();
        let warm = qp.solve_warm(Vector::from(vec![0.7, 0.7]), &opts()).unwrap();
        assert!((cold.objective - warm.objective).abs() < 1e-8);
    }

    #[test]
    fn constructor_validations() {
        assert!(GroupedQp::new(Matrix::zeros(2, 3), Vector::zeros(2), vec![]).is_err());
        assert!(GroupedQp::new(Matrix::identity(2), Vector::zeros(3), vec![]).is_err());
        assert!(
            GroupedQp::new(Matrix::identity(2), Vector::zeros(2), vec![(vec![5], 1.0)]).is_err()
        );
        assert!(GroupedQp::new(
            Matrix::identity(2),
            Vector::zeros(2),
            vec![(vec![0], 1.0), (vec![0], 1.0)]
        )
        .is_err());
    }

    #[test]
    fn objective_decreases_from_feasible_start() {
        let q = Matrix::from_rows(&[vec![2.0, 0.3], vec![0.3, 1.0]]).unwrap();
        let qp = GroupedQp::new(q, Vector::from(vec![1.0, -0.2]), vec![(vec![0, 1], 0.8)]).unwrap();
        let start = Vector::from(vec![0.4, 0.4]);
        let before = qp.objective(&start);
        let sol = qp.solve_warm(start, &opts()).unwrap();
        assert!(sol.objective <= before + 1e-12);
    }

    #[test]
    fn is_feasible_rejects_bad_points() {
        let qp =
            GroupedQp::new(Matrix::identity(2), Vector::zeros(2), vec![(vec![0, 1], 1.0)]).unwrap();
        assert!(qp.is_feasible(&Vector::from(vec![0.5, 0.5]), 1e-9));
        assert!(!qp.is_feasible(&Vector::from(vec![-0.1, 0.5]), 1e-9));
        assert!(!qp.is_feasible(&Vector::from(vec![0.8, 0.8]), 1e-9));
        assert!(!qp.is_feasible(&Vector::zeros(3), 1e-9));
    }

    #[test]
    fn solve_rejects_bad_inputs_with_err() {
        let nan_b =
            GroupedQp::new(Matrix::identity(2), Vector::from(vec![1.0, f64::NAN]), vec![]).unwrap();
        assert!(matches!(nan_b.solve(&opts()), Err(OptError::NonFinite { what: "b vector" })));

        let nan_q =
            GroupedQp::new(Matrix::from_diagonal(&[f64::NAN, 1.0]), Vector::zeros(2), vec![])
                .unwrap();
        assert!(matches!(nan_q.solve(&opts()), Err(OptError::NonFinite { what: "Q matrix" })));

        let qp = GroupedQp::new(Matrix::identity(2), Vector::zeros(2), vec![]).unwrap();
        assert!(matches!(
            qp.solve_warm(Vector::zeros(3), &opts()),
            Err(OptError::Linalg(LinalgError::DimensionMismatch { .. }))
        ));
        assert!(matches!(
            qp.solve_warm(Vector::from(vec![0.0, f64::INFINITY]), &opts()),
            Err(OptError::NonFinite { what: "warm start" })
        ));
    }

    #[test]
    fn shrinking_reaches_unique_optimum_from_any_start() {
        // Strictly convex random QP: the optimum is unique, so the shrunk
        // working-set path and every warm start must land on the same point.
        let n = 12;
        let mut state = 0x9e3779b97f4a7c15_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
        };
        let a = Matrix::from_row_major(n, n, (0..n * n).map(|_| next()).collect()).unwrap();
        let mut q = a.transpose().matmul(&a).unwrap();
        q.add_diagonal(0.5);
        // Mostly-negative gains pin most coordinates at 0 and exercise the
        // shrink/verify cycle.
        let b: Vector =
            (0..n).map(|i| if i % 4 == 0 { 1.0 } else { -1.0 + 0.1 * next() }).collect();
        let qp = GroupedQp::new(q, b, vec![(vec![0, 4, 8], 0.7)]).unwrap();
        let cold = qp.solve(&opts()).unwrap();
        assert!(cold.converged);
        assert!(qp.is_feasible(&cold.gamma, 1e-9));
        for trial in 0..4 {
            let warm: Vector = (0..n).map(|_| next().abs() * (trial as f64)).collect();
            let sol = qp.solve_warm(warm, &opts()).unwrap();
            assert!(sol.converged, "trial {trial}");
            assert!((sol.objective - cold.objective).abs() < 1e-7, "trial {trial}");
            for (g, c) in sol.gamma.iter().zip(cold.gamma.iter()) {
                assert!((g - c).abs() < 1e-5, "trial {trial}: {g} vs {c}");
            }
        }
    }

    #[test]
    fn shrinking_satisfies_kkt_at_pinned_coordinates() {
        // All-negative gains: every coordinate pins at 0 (grad = −b > 0),
        // the whole set shrinks, and the verification pass must still sign
        // off with converged = true in a handful of sweeps.
        let qp = GroupedQp::new(
            Matrix::identity(6),
            Vector::from(vec![-1.0, -2.0, -0.5, -3.0, -1.5, -0.1]),
            vec![(vec![0, 1, 2], 1.0)],
        )
        .unwrap();
        let sol = qp.solve(&opts()).unwrap();
        assert!(sol.converged);
        assert!(sol.sweeps <= 5, "shrunk problem should converge fast, took {}", sol.sweeps);
        assert_eq!(sol.gamma.as_slice(), &[0.0; 6]);
    }

    #[test]
    fn constructor_rejects_bad_caps() {
        for cap in [f64::NAN, f64::INFINITY, -1.0] {
            let err = GroupedQp::new(Matrix::identity(1), Vector::zeros(1), vec![(vec![0], cap)])
                .unwrap_err();
            assert!(matches!(err, LinalgError::OutOfRange { .. }), "cap {cap}: {err:?}");
        }
    }
}
