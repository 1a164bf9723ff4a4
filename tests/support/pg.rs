//! Projected-gradient reference solver for grouped QPs: the test oracle the
//! coordinate-descent solver ([`GroupedQp::solve`]) is checked against.
//! Slower but conceptually independent of coordinate descent.

use plos::linalg::{Matrix, Vector};
use plos::opt::{GroupedQp, QpSolverOptions};
use rand::{Rng, SeedableRng};

/// Projects `x` (in place) onto `{x ≥ 0, Σ x_i ≤ cap}`.
///
/// If clamping at zero already satisfies the cap the clamp is the projection;
/// otherwise the point is projected onto the simplex `{x ≥ 0, Σ x = cap}`
/// with the classic sort-and-threshold algorithm.
///
/// # Panics
///
/// Panics if `cap` is negative or not finite.
pub fn project_capped_simplex(x: &mut [f64], cap: f64) {
    assert!(cap.is_finite() && cap >= 0.0, "cap must be finite and >= 0");
    for v in x.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    let sum: f64 = x.iter().sum();
    if sum <= cap {
        return;
    }
    // Project onto {x >= 0, sum == cap}: find threshold tau with
    // sum(max(x_i - tau, 0)) == cap.
    let mut sorted = x.to_vec();
    sorted.sort_by(|a, b| f64::total_cmp(b, a));
    let mut cumulative = 0.0;
    let mut tau = 0.0;
    for (k, &v) in sorted.iter().enumerate() {
        cumulative += v;
        let candidate = (cumulative - cap) / (k as f64 + 1.0);
        if sorted.get(k + 1).is_none_or(|&next| next <= candidate) {
            tau = candidate;
            break;
        }
    }
    for v in x.iter_mut() {
        *v = (*v - tau).max(0.0);
    }
}

/// A grouped QP `min ½ γᵀQγ − bᵀγ` over `γ ≥ 0` with capped-sum groups, in
/// the raw form the oracle works on.
pub struct RawQp {
    pub q: Matrix,
    pub b: Vector,
    pub groups: Vec<(Vec<usize>, f64)>,
}

impl RawQp {
    /// The same problem as the solver under test sees it.
    pub fn grouped(&self) -> GroupedQp {
        GroupedQp::new(self.q.clone(), self.b.clone(), self.groups.clone()).unwrap()
    }

    /// Gradient `Q·γ − b` of the objective.
    pub fn gradient(&self, gamma: &Vector) -> Vector {
        let mut g = self.q.matvec(gamma);
        g -= &self.b;
        g
    }

    /// Projects `gamma` (in place) onto the feasible set: coordinates
    /// clamped to `≥ 0` and each group projected onto its capped simplex.
    pub fn project(&self, gamma: &mut Vector) {
        for v in gamma.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        for (members, cap) in &self.groups {
            let mut vals: Vec<f64> = members.iter().map(|&i| gamma[i]).collect();
            project_capped_simplex(&mut vals, *cap);
            for (&i, v) in members.iter().zip(vals) {
                gamma[i] = v;
            }
        }
    }

    /// Projected gradient descent with a fixed step from a Lipschitz upper
    /// bound (`trace(Q)` majorizes the top eigenvalue). Returns the final
    /// iterate.
    pub fn solve_projected_gradient(&self, max_iters: usize, tol: f64) -> Vector {
        let n = self.b.len();
        let mut gamma = Vector::zeros(n);
        // Lipschitz constant of the gradient: λ_max(Q) <= trace(Q) for PSD Q.
        let lipschitz: f64 = (0..n).map(|i| self.q[(i, i)]).sum::<f64>().max(1e-12);
        let step = 1.0 / lipschitz;
        for _ in 0..max_iters {
            let grad = self.gradient(&gamma);
            let mut next = gamma.clone();
            next.axpy(-step, &grad);
            self.project(&mut next);
            let delta = next.distance(&gamma);
            gamma = next;
            if delta < tol {
                break;
            }
        }
        gamma
    }
}

#[test]
fn projection_clamps_when_cap_slack() {
    let mut x = vec![-1.0, 0.5, 0.2];
    project_capped_simplex(&mut x, 10.0);
    assert_eq!(x, vec![0.0, 0.5, 0.2]);
}

#[test]
fn projection_onto_tight_simplex() {
    let mut x = vec![2.0, 2.0];
    project_capped_simplex(&mut x, 1.0);
    assert!((x[0] - 0.5).abs() < 1e-12);
    assert!((x[1] - 0.5).abs() < 1e-12);
}

#[test]
fn projection_zeroes_small_coordinates() {
    let mut x = vec![3.0, 0.1];
    project_capped_simplex(&mut x, 1.0);
    assert!((x[0] - 1.0).abs() < 1e-12);
    assert_eq!(x[1], 0.0);
}

#[test]
fn projection_zero_cap() {
    let mut x = vec![1.0, 2.0];
    project_capped_simplex(&mut x, 0.0);
    assert_eq!(x, vec![0.0, 0.0]);
}

#[test]
fn projection_is_idempotent() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for _ in 0..50 {
        let n = rng.gen_range(1..8);
        let cap = rng.gen_range(0.0..3.0);
        let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        project_capped_simplex(&mut x, cap);
        let once = x.clone();
        project_capped_simplex(&mut x, cap);
        for (a, b) in once.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(x.iter().sum::<f64>() <= cap + 1e-9);
        assert!(x.iter().all(|&v| v >= 0.0));
    }
}

#[test]
fn pg_agrees_with_coordinate_descent_on_random_qps() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    for trial in 0..20 {
        let n = rng.gen_range(2..7);
        // Random PSD Q = AᵀA + small ridge.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = rng.gen_range(-1.0..1.0);
            }
        }
        let mut q = a.transpose().matmul(&a).unwrap();
        q.add_diagonal(0.1);
        let b: Vector = (0..n).map(|_| rng.gen_range(-1.0..2.0)).collect();
        // One group over all variables with a random cap.
        let cap = rng.gen_range(0.1..2.0);
        let raw = RawQp { q, b, groups: vec![((0..n).collect(), cap)] };
        let qp = raw.grouped();

        let cd = qp.solve(&QpSolverOptions::default()).unwrap();
        let pg = raw.solve_projected_gradient(200_000, 1e-12);
        let pg_objective = qp.objective(&pg);
        assert!(
            (cd.objective - pg_objective).abs() < 1e-5,
            "trial {trial}: cd={} pg={pg_objective}",
            cd.objective
        );
        assert!(qp.is_feasible(&cd.gamma, 1e-8));
        assert!(qp.is_feasible(&pg, 1e-8));
    }
}

#[test]
fn gradient_matches_finite_differences() {
    let q = Matrix::from_rows(&[vec![2.0, 0.5], vec![0.5, 1.0]]).unwrap();
    let raw = RawQp { q, b: Vector::from(vec![1.0, -0.5]), groups: Vec::new() };
    let qp = raw.grouped();
    let x = Vector::from(vec![0.3, 0.7]);
    let g = raw.gradient(&x);
    let h = 1e-6;
    for i in 0..2 {
        let mut xp = x.clone();
        xp[i] += h;
        let mut xm = x.clone();
        xm[i] -= h;
        let fd = (qp.objective(&xp) - qp.objective(&xm)) / (2.0 * h);
        assert!((fd - g[i]).abs() < 1e-5, "coordinate {i}");
    }
}
