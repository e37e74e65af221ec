"""Coarse-grained generator estimation on a reduced coordinate.

A map z = xi(x) turns full-state samples into reduced samples via the chain
rule; the standard estimators then apply unchanged on the reduced space.
Effective potentials come from force matching against the local mean force,
effective diffusions from fitting the reduced stiffness matrix, and the
reversible drift is rebuilt from the fitted potential and diffusion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .dictionaries import Dictionary
from .errors import InputError, NumericalError
from .generator import (
    SVD_CUTOFF,
    GeneratorEstimate,
    gedmd_deterministic,
    gedmd_reversible,
    gedmd_stochastic,
)
from .models import SampleSet, SdeModel

JACOBIAN_RANK_TOL = 1e-12  # relative eigenvalue of J^T J below which a point is excluded
CV_FOLDS = 5  # cross-validation folds of cross_validate_bases

__all__ = [
    "CoarseGrainMap",
    "identity_map",
    "linear_map",
    "polar_angle_map",
    "reduced_sample",
    "coarse_dpsi",
    "coarse_gedmd",
    "ForceMatchResult",
    "force_matching",
    "fit_diffusion",
    "diffusion_field",
    "drift_from_potential",
    "ReducedModel",
    "build_reduced_model",
    "cross_validate_bases",
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


def identity_map(dimension: int) -> CoarseGrainMap:
    """xi(x) = x; the reduction that changes nothing."""
    eye = np.eye(dimension)

    return CoarseGrainMap(
        map=lambda x: np.asarray(x, dtype=float),
        jacobian=lambda x: np.broadcast_to(eye, (x.shape[0], dimension, dimension)).copy(),
        hessians=None,
        full_dim=dimension,
        reduced_dim=dimension,
    )


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
    - noise map:  (grad xi)^T sigma
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
    sigma = None
    if sample.sigma_samples is not None:
        sigma = np.einsum("lip,lis->lps", J, sample.sigma_samples)
    return SampleSet(
        points=cg_map(x),
        drift_samples=drift,
        diffusion_samples=diffusion,
        sigma_samples=sigma,
        source=sample.source,
        measure_note=f"reduced from: {sample.measure_note}",
    )


def coarse_dpsi(
    cg_map: CoarseGrainMap, reduced_dict: Dictionary, sample: SampleSet
) -> np.ndarray:
    """Values of the generator applied to psi_k(xi(x)) at each sample point.

    Identical to the generator action the estimators use, evaluated on the
    reduced sample set produced by :func:`reduced_sample` (same code path).
    """
    rsample = reduced_sample(cg_map, sample)
    return reduced_dict.generator_action(
        rsample.points, rsample.drift_samples, rsample.diffusion_samples
    )[1]


def coarse_gedmd(
    cg_map: CoarseGrainMap,
    reduced_dict: Dictionary,
    sample: SampleSet,
    *,
    reversible: bool = False,
) -> GeneratorEstimate:
    """Generator estimate on the reduced coordinate z = xi(x).

    With ``reversible=True`` the symmetric estimator built from the reduced
    noise map (grad xi)^T sigma is used; it needs ``sigma_samples`` on the
    input.  Otherwise the deterministic or stochastic estimator is chosen by
    whether diffusion data is present.
    """
    rsample = reduced_sample(cg_map, sample)
    if reversible:
        return gedmd_reversible(reduced_dict, rsample)
    if rsample.diffusion_samples is not None:
        return gedmd_stochastic(reduced_dict, rsample)
    return gedmd_deterministic(reduced_dict, rsample)


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
        values = self.basis.evaluate(grid[:, np.newaxis]).values
        return values.T @ self.gradient_coeffs

    def potential_on(self, grid) -> np.ndarray:
        """F(z) = -integral of g from the left grid edge (trapezoid rule)."""
        grid = np.asarray(grid, dtype=float)
        g = self.force_on(grid)
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
        warnings.warn(
            f"excluded {x.shape[0] - kept.size} samples with rank-deficient "
            "map Jacobian",
            stacklevel=2,
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

    The solve cuts singular values at SVD_CUTOFF, like every regression.

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
    """
    if cg_map.reduced_dim != 1:
        raise InputError("force matching is implemented for 1D reductions")
    if isinstance(potential_gradient, SdeModel):
        if potential_gradient.potential_gradient is None:
            raise InputError("model has no potential gradient")
        potential_gradient = potential_gradient.potential_gradient
    targets, kept = local_mean_force(cg_map, potential_gradient, sample.points)
    z = cg_map(sample.points[kept])
    features = reduced_basis.evaluate(z).values.T
    coeffs, *_ = np.linalg.lstsq(features, targets[:, 0], rcond=SVD_CUTOFF)
    rms = float(np.sqrt(np.mean((features @ coeffs - targets[:, 0]) ** 2)))
    return ForceMatchResult(
        gradient_coeffs=coeffs,
        basis=reduced_basis,
        excluded=int(sample.count - kept.size),
        residual_rms=rms,
    )


# ---------------------------------------------------------------------------
# diffusion fitting


def _stiffness_designs(
    reduced_dict: Dictionary, diffusion_basis: Dictionary, points
) -> np.ndarray:
    """Per-parameter matrices A_t with A(theta) = sum_t theta_t A_t.

    A_t[i, j] = -1/2 mean_l chi_t(z_l) grad psi_i(z_l) . grad psi_j(z_l).
    """
    block = reduced_dict.evaluate(points)
    chi = diffusion_basis.evaluate(points).values  # (n_t, m)
    n, m, p = block.gradients.shape
    g = block.gradients.reshape(n, m * p)
    designs = np.empty((chi.shape[0], n, n))
    for t in range(chi.shape[0]):
        designs[t] = -0.5 / m * ((g * np.repeat(chi[t], p)) @ g.T)
    return designs


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
    are constrained nonnegative, which keeps a(z) >= 0 pointwise when every
    chi_t is nonnegative.

    Returns
    -------
    theta : (n_t,) ndarray
    """
    designs = _stiffness_designs(reduced_dict, diffusion_basis, sample.points)
    D = designs.reshape(designs.shape[0], -1).T  # (n^2, n_t)
    target = np.asarray(galerkin_A_hat, dtype=float).ravel()
    try:
        theta, _ = scipy.optimize.nnls(D, target)
    except RuntimeError as exc:
        raise NumericalError(f"nonnegative least squares failed: {exc}") from exc
    return theta


def diffusion_field(diffusion_basis: Dictionary, theta, grid) -> np.ndarray:
    """Evaluate a(z) = theta . chi(z) on a 1D grid."""
    grid = np.asarray(grid, dtype=float)
    values = diffusion_basis.evaluate(grid[:, np.newaxis]).values
    return values.T @ np.asarray(theta, dtype=float)


def drift_from_potential(
    force: ForceMatchResult, theta, diffusion_basis: Dictionary, grid
) -> np.ndarray:
    """Reversible reduced drift b(z) = -1/2 a dF/dz + 1/2 da/dz.

    Uses the fitted mean force g = -dF/dz, so b = a g / 2 + a' / 2.
    """
    grid = np.asarray(grid, dtype=float)
    theta = np.asarray(theta, dtype=float)
    block = diffusion_basis.evaluate(grid[:, np.newaxis])
    a = block.values.T @ theta
    da = block.gradients[:, :, 0].T @ theta
    return 0.5 * a * force.force_on(grid) + 0.5 * da


@dataclass(frozen=True)
class ReducedModel:
    """Reversible reduced model assembled from one sample set.

    Holds the fitted mean force (potential via integration), the diffusion
    parameters, and the reduced Galerkin matrices of the estimate the fit
    was made against.  The drift is derived from (F, a), so the reversible
    drift-potential relation holds by construction.
    """

    force: ForceMatchResult
    theta: np.ndarray
    diffusion_basis: Dictionary = field(repr=False)
    reduced_basis: Dictionary = field(repr=False)
    galerkin_A: np.ndarray = field(repr=False)
    galerkin_G: np.ndarray = field(repr=False)
    estimate: GeneratorEstimate = field(repr=False)

    def potential_on(self, grid) -> np.ndarray:
        return self.force.potential_on(grid)

    def diffusion_on(self, grid) -> np.ndarray:
        return diffusion_field(self.diffusion_basis, self.theta, grid)

    def drift_on(self, grid) -> np.ndarray:
        return drift_from_potential(self.force, self.theta, self.diffusion_basis, grid)

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
        galerkin_A=est.A_hat,
        galerkin_G=est.G_hat,
        estimate=est,
    )


def cross_validate_bases(
    points, targets, candidates: list, *, seed: int = 0
) -> tuple[int, list[float]]:
    """Pick a basis by 5-fold cross-validated regression RMS.

    Each fold's least-squares solve cuts singular values at SVD_CUTOFF.

    Parameters
    ----------
    points : (m, p) array_like
    targets : (m,) array_like
    candidates : list of Dictionary
        Typically the same kernel family over a bandwidth grid.
    seed : int
        Fold assignment is a seeded permutation, so the choice is
        reproducible.

    Returns
    -------
    best : int
        Index of the candidate with the lowest mean validation RMS.
    scores : list of float

    Raises
    ------
    InputError
        If there are fewer points than folds, so some fold would be empty.
    """
    points = np.asarray(points, dtype=float)
    targets = np.asarray(targets, dtype=float)
    m = points.shape[0]
    if m < CV_FOLDS:
        raise InputError(f"cross-validation needs at least {CV_FOLDS} points, got {m}")
    perm = np.random.Generator(np.random.Philox(seed)).permutation(m)
    bounds = np.linspace(0, m, CV_FOLDS + 1, dtype=int)
    scores = []
    for basis in candidates:
        values = basis.evaluate(points).values.T  # (m, n)
        total = 0.0
        for f in range(CV_FOLDS):
            val = perm[bounds[f] : bounds[f + 1]]
            train = np.concatenate([perm[: bounds[f]], perm[bounds[f + 1] :]])
            coeffs, *_ = np.linalg.lstsq(values[train], targets[train], rcond=SVD_CUTOFF)
            err = values[val] @ coeffs - targets[val]
            total += float(np.sqrt(np.mean(err**2)))
        scores.append(total / CV_FOLDS)
    return int(np.argmin(scores)), scores
