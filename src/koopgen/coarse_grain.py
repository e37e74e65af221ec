"""Coarse-grained generator estimation on a reduced coordinate.

A map z = xi(x) turns full-state samples into reduced samples via the chain
rule (:func:`reduced_sample`); the standard estimators then apply unchanged
on the reduced space, e.g. ``gedmd_reversible(basis, reduced_sample(map,
sample))``.  Effective potentials come from force matching against the local
mean force, effective diffusions from fitting the reduced stiffness matrix,
and :meth:`ReducedModel.on_grid` rebuilds the reversible drift from the
fitted potential and diffusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dictionaries import Dictionary
from .errors import InputError, NumericalError, warn
from .generator import GeneratorEstimate, _fit, _lstsq, _residual, _walk, gedmd_reversible
from .models import SampleSet, SdeModel

JACOBIAN_RANK_TOL = 1e-12  # relative eigenvalue of J^T J below which a point is excluded
NNLS_STEPS = 3  # inner active-set steps per column before the diffusion NNLS gives up

__all__ = [
    "CoarseGrainMap",
    "linear_map",
    "polar_angle_map",
    "reduced_sample",
    "ForceMatchResult",
    "force_matching",
    "fit_diffusion",
    "ReducedModel",
    "build_reduced_model",
]


@dataclass(frozen=True)
class CoarseGrainMap:
    """Reduction map xi: R^d -> R^p with its first two derivative fields.

    Attributes
    ----------
    map : callable (m, d) -> (m, p)
    jacobian : callable (m, d) -> (m, d, p)
        Entry [l, i, q] is the derivative of xi_q by x_i at point l.
    hessians : callable (m, d) -> (m, d, d, p), or None when identically zero
    full_dim, reduced_dim : int
    """

    map: callable = field(repr=False)
    jacobian: callable = field(repr=False)
    hessians: callable | None = field(repr=False)
    full_dim: int
    reduced_dim: int

    def __call__(self, points) -> np.ndarray:
        return self.map(np.asarray(points, dtype=float))


def linear_map(matrix) -> CoarseGrainMap:
    """xi(x) = P x for a (p, d) matrix P; the Hessian term vanishes."""
    P = np.asarray(matrix, dtype=float)
    if P.ndim != 2:
        raise InputError("linear map needs a (p, d) matrix")
    p, d = P.shape

    return CoarseGrainMap(
        map=lambda x: x @ P.T,
        jacobian=lambda x: np.broadcast_to(P.T, (x.shape[0], d, p)).copy(),
        hessians=None,
        full_dim=d,
        reduced_dim=p,
    )


def polar_angle_map() -> CoarseGrainMap:
    """xi(x1, x2) = atan2(x2, x1), the angle in the plane."""

    def _map(x):
        return np.arctan2(x[:, 1], x[:, 0])[:, np.newaxis]

    def _jacobian(x):
        r2 = x[:, 0] ** 2 + x[:, 1] ** 2
        J = np.empty((x.shape[0], 2, 1))
        J[:, 0, 0] = -x[:, 1] / r2
        J[:, 1, 0] = x[:, 0] / r2
        return J

    def _hessians(x):
        r4 = (x[:, 0] ** 2 + x[:, 1] ** 2) ** 2
        H = np.empty((x.shape[0], 2, 2, 1))
        H[:, 0, 0, 0] = 2.0 * x[:, 0] * x[:, 1] / r4
        H[:, 0, 1, 0] = (x[:, 1] ** 2 - x[:, 0] ** 2) / r4
        H[:, 1, 0, 0] = H[:, 0, 1, 0]
        H[:, 1, 1, 0] = -2.0 * x[:, 0] * x[:, 1] / r4
        return H

    return CoarseGrainMap(
        map=_map, jacobian=_jacobian, hessians=_hessians, full_dim=2, reduced_dim=1
    )


def reduced_sample(cg_map: CoarseGrainMap, sample: SampleSet) -> SampleSet:
    """Push a full-state sample set through the reduction map.

    The chain rule turns the full drift/diffusion data into effective
    reduced data at z = xi(x):

    - drift:      b^T (grad xi)  +  1/2 a : (hess xi)
    - diffusion:  (grad xi)^T a (grad xi)
    """
    x = sample.points
    if x.shape[1] != cg_map.full_dim:
        raise InputError(
            f"map expects dimension {cg_map.full_dim}, sample has {x.shape[1]}"
        )
    J = cg_map.jacobian(x)  # (m, d, p)
    drift = np.einsum("li,lip->lp", sample.drift_samples, J)
    if sample.diffusion_samples is not None and cg_map.hessians is not None:
        H = cg_map.hessians(x)
        drift = drift + 0.5 * np.einsum("lij,lijp->lp", sample.diffusion_samples, H)
    diffusion = None
    if sample.diffusion_samples is not None:
        diffusion = np.einsum("lip,lij,ljq->lpq", J, sample.diffusion_samples, J)
    return SampleSet(points=cg_map(x), drift_samples=drift, diffusion_samples=diffusion)


# ---------------------------------------------------------------------------
# force matching


@dataclass(frozen=True)
class ForceMatchResult:
    """Fitted mean-force field g(z) with g = -dF/dz along the reduced coordinate.

    ``gradient_coeffs`` expands g in ``basis``; the potential follows by
    cumulative quadrature, anchored to zero at the left edge of the grid.
    """

    gradient_coeffs: np.ndarray
    basis: Dictionary = field(repr=False)
    excluded: int
    residual_rms: float

    def force_on(self, grid) -> np.ndarray:
        """Mean force g at 1D grid points (shape (m,))."""
        grid = np.asarray(grid, dtype=float)
        values = self.basis.values(grid[:, np.newaxis])
        return values.T @ self.gradient_coeffs

    def potential_on(self, grid) -> np.ndarray:
        """F(z) = -integral of g from the left grid edge (trapezoid rule)."""
        grid = np.asarray(grid, dtype=float)
        return _potential(grid, self.force_on(grid))


def _potential(grid, g) -> np.ndarray:
    """F = -integral of the force values g from grid[0] by the trapezoid rule."""
    out = np.zeros_like(g)
    np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(grid), out=out[1:])
    return -out


def local_mean_force(cg_map: CoarseGrainMap, potential_gradient, points):
    """Pointwise local mean force f(x) = -grad F . G + div G.

    G(x) = grad xi (grad xi^T grad xi)^{-1} is the pseudoinverse field of the
    map's Jacobian.  Points where the Jacobian loses column rank (smallest
    eigenvalue of J^T J at most JACOBIAN_RANK_TOL of the largest) are excluded.

    Returns
    -------
    values : (m_kept, p) ndarray
    kept : (m_kept,) int ndarray
        Indices of the points that entered the fit.
    """
    x = np.asarray(points, dtype=float)
    J = cg_map.jacobian(x)  # (m, d, p)
    gram = np.einsum("lip,liq->lpq", J, J)
    w = np.linalg.eigvalsh(gram)
    kept = np.nonzero(w[:, 0] > JACOBIAN_RANK_TOL * np.maximum(w[:, -1], 1.0))[0]
    if kept.size < x.shape[0]:
        warn(
            f"excluded {x.shape[0] - kept.size} samples with rank-deficient "
            "map Jacobian",
        )
    x = x[kept]
    J = J[kept]
    K = np.linalg.inv(gram[kept])  # (m, p, p)
    G = np.einsum("lip,lpq->liq", J, K)
    grad_f = np.asarray(potential_gradient(x), dtype=float)
    values = -np.einsum("li,liq->lq", grad_f, G)
    if cg_map.hessians is not None:
        H = cg_map.hessians(x)  # (m, d, d, p)
        trace_h = np.einsum("liip->lp", H)
        div = np.einsum("lp,lpq->lq", trace_h, K)
        # d/dx_i of (J^T J) contracted against J K . K
        S = np.einsum("lija,ljb->liab", H, J)
        S = S + S.transpose(0, 1, 3, 2)
        div = div - np.einsum("lip,lpa,liab,lbq->lq", J, K, S, K)
        values = values + div
    return values, kept


def force_matching(
    sample: SampleSet,
    potential_gradient,
    cg_map: CoarseGrainMap,
    reduced_basis: Dictionary,
) -> ForceMatchResult:
    """Fit the mean-force field on the reduced coordinate by least squares.

    The fit is the streamed least-squares fit with the local mean force as
    its one target, under the cutoff, rank rule and rank-deficiency warning
    of every regression; the residual is exact from its R factor.

    Parameters
    ----------
    sample : SampleSet
        Points drawn from the full-state distribution the average is over.
    potential_gradient : callable or SdeModel
        grad F of the full potential, (m, d) -> (m, d).
    cg_map : CoarseGrainMap
    reduced_basis : Dictionary
        Basis for the fitted field g(z); 1D reduction only.

    Returns
    -------
    ForceMatchResult
        With F(z) = -integral g; see :meth:`ForceMatchResult.potential_on`.

    Raises
    ------
    InputError
        If the map Jacobian is rank deficient at every sample point.
    """
    if cg_map.reduced_dim != 1:
        raise InputError("force matching is implemented for 1D reductions")
    if isinstance(potential_gradient, SdeModel):
        if potential_gradient.potential_gradient is None:
            raise InputError("model has no potential gradient")
        potential_gradient = potential_gradient.potential_gradient
    targets, kept = local_mean_force(cg_map, potential_gradient, sample.points)
    m, n = kept.size, reduced_basis.size
    if m == 0:
        raise InputError("every sample was excluded; force matching has no data")
    z = cg_map(sample.points[kept])
    values = reduced_basis._chunk_evaluate()
    est = _fit(
        lambda sl: (values(z[sl]), targets[sl].T), m, n, 1, reduced_basis, "force-matching"
    )
    return ForceMatchResult(
        gradient_coeffs=est.M[0],
        basis=reduced_basis,
        excluded=int(sample.count - m),
        residual_rms=_residual(est.R, n, est.L) / np.sqrt(m),
    )


# ---------------------------------------------------------------------------
# diffusion fitting


def _stiffness_designs(
    reduced_dict: Dictionary, diffusion_basis: Dictionary, points
) -> np.ndarray:
    """Per-parameter matrices A_t with A(theta) = sum_t theta_t A_t.

    A_t[i, j] = -1/2 mean_l chi_t(z_l) grad psi_i(z_l) . grad psi_j(z_l),
    summed over the estimators' point chunks.
    """
    z = np.asarray(points, dtype=float)
    m = z.shape[0]
    evaluate = reduced_dict._chunk_evaluate(gradients=True)
    values = diffusion_basis._chunk_evaluate()

    def chunk_sums(sl):
        grads = evaluate(z[sl])[1]  # (n, chunk, p)
        g = grads.reshape(grads.shape[0], -1)
        chi = values(z[sl])  # (n_t, chunk)
        return np.stack([(g * np.repeat(c, grads.shape[2])) @ g.T for c in chi])

    return -0.5 / m * sum(_walk(m, reduced_dict.size, chunk_sums))


def _nnls(D, target):
    """argmin ||D x - target|| over x >= 0 by Lawson & Hanson's active-set method.

    Lawson & Hanson, Solving Least Squares Problems (1974), ch. 23. The column
    with the largest dual w = D^T (target - D x) enters the passive set P (it
    is rejected if its own entry of the solution on P is not positive); while
    the solution s on P has a nonpositive entry, x steps towards s up to the
    boundary and the columns reaching zero leave P. Duals up to 10 eps
    ||D||_1 max(rows, cols) count as zero. More than NNLS_STEPS * cols such
    steps raise NumericalError; their code and scipy's count the same steps.
    Every passive-set solve is generator._lstsq, under SVD_CUTOFF and warning
    when the passive columns are rank deficient.
    """
    rows, cols = D.shape
    tol = 10 * np.finfo(float).eps * np.abs(D).sum(axis=0).max(initial=0.0) * max(rows, cols)
    x, passive, steps = np.zeros(cols), np.zeros(cols, dtype=bool), 0

    def solve():
        s = np.zeros(cols)
        s[passive] = _lstsq(D[:, passive], target)[0]
        return s

    w = D.T @ target
    while not passive.all() and w[~passive].max() > tol:
        j = np.argmax(np.where(passive, -np.inf, w))
        passive[j] = True
        s = solve()
        if s[j] <= 0:  # w[j] > tol only by rounding
            passive[j], w[j] = False, 0.0
            continue
        while (s[passive] <= 0).any():
            steps += 1
            if steps > NNLS_STEPS * cols:
                raise NumericalError(f"NNLS took more than {NNLS_STEPS * cols} inner steps")
            blocking = passive & (s <= 0)
            ratios = x[blocking] / (x[blocking] - s[blocking])
            x = x + ratios.min() * (s - x)
            x[np.flatnonzero(blocking)[np.argmin(ratios)]] = 0.0
            passive &= x > 0
            s = solve()
        x = s
        w = D.T @ (target - D @ x)
    return x


def fit_diffusion(
    galerkin_A_hat: np.ndarray,
    reduced_dict: Dictionary,
    sample: SampleSet,
    diffusion_basis: Dictionary,
) -> np.ndarray:
    """Fit a scalar diffusion field a(z) = sum_t theta_t chi_t(z).

    Minimizes the Frobenius error between the sampled stiffness matrix
    ``galerkin_A_hat`` (the reversible estimator's A) and its model
    A(theta)_ij = -1/2 E[ chi(z) grad psi_i . grad psi_j ].  The coefficients
    are constrained nonnegative (Lawson and Hanson's active-set method), which
    keeps a(z) >= 0 pointwise when every chi_t is nonnegative.

    Returns
    -------
    theta : (n_t,) ndarray
    """
    designs = _stiffness_designs(reduced_dict, diffusion_basis, sample.points)
    D = designs.reshape(designs.shape[0], -1).T  # (n^2, n_t)
    return _nnls(D, np.asarray(galerkin_A_hat, dtype=float).ravel())


@dataclass(frozen=True)
class ReducedModel:
    """Reversible reduced model assembled from one sample set.

    Holds the fitted mean force (potential via integration), the diffusion
    parameters, and the reduced estimate the fit was made against, whose
    A_hat and G_hat are the reduced Galerkin matrices.  The drift is
    derived from (F, a), so the reversible drift-potential relation holds
    by construction.
    """

    force: ForceMatchResult
    theta: np.ndarray
    diffusion_basis: Dictionary = field(repr=False)
    reduced_basis: Dictionary = field(repr=False)
    estimate: GeneratorEstimate = field(repr=False)

    def on_grid(self, grid):
        """(potential F, drift b, diffusion a) on a 1D grid, each basis evaluated once.

        F = -integral of the mean force g, a = theta . chi, and the reversible
        drift is b = -1/2 a dF/dz + 1/2 da/dz = a g / 2 + a' / 2.
        """
        grid = np.asarray(grid, dtype=float)
        g = self.force.force_on(grid)
        block = self.diffusion_basis.evaluate(grid[:, np.newaxis])
        a = block.values.T @ self.theta
        da = block.gradients[:, :, 0].T @ self.theta
        return _potential(grid, g), 0.5 * a * g + 0.5 * da, a

    def to_dict(self) -> dict:
        return {
            "reduced_basis": self.reduced_basis.spec(),
            "diffusion_basis": self.diffusion_basis.spec(),
            "gradient_coeffs": [float(c) for c in self.force.gradient_coeffs],
            "theta": [float(t) for t in self.theta],
            "force_residual_rms": float(self.force.residual_rms),
            "excluded_samples": int(self.force.excluded),
        }


def build_reduced_model(
    cg_map: CoarseGrainMap,
    reduced_basis: Dictionary,
    sample: SampleSet,
    potential_gradient,
    diffusion_basis: Dictionary,
) -> ReducedModel:
    """Full reversible coarse-graining pipeline on one sample set.

    Runs the reversible reduced estimator, force matching, and the diffusion
    fit, and packages the results.
    """
    rsample = reduced_sample(cg_map, sample)
    est = gedmd_reversible(reduced_basis, rsample)
    force = force_matching(sample, potential_gradient, cg_map, reduced_basis)
    theta = fit_diffusion(est.A_hat, reduced_basis, rsample, diffusion_basis)
    return ReducedModel(
        force=force,
        theta=theta,
        diffusion_basis=diffusion_basis,
        reduced_basis=reduced_basis,
        estimate=est,
    )
