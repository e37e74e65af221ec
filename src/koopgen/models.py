"""SDE models, trajectory integration, and sample-set construction.

An :class:`SdeModel` bundles vectorized callables for the drift b(x) and the
noise matrix sigma(x) of

    dX_t = b(X_t) dt + sigma(X_t) dW_t,

together with optional structure (potential, Stratonovich convention).
Generator estimation consumes :class:`SampleSet` objects, which hold data
points plus drift/diffusion information at those points; sample sets can come
from exact model evaluation, from Kramers-Moyal differences of a trajectory,
or from finite differences of a deterministic trajectory.

All stochastic operations draw from a counter-based Philox stream seeded per
call, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .dictionaries import _check_box, _check_points
from .errors import InputError, IntegrationError

__all__ = [
    "SdeModel",
    "SampleSet",
    "ornstein_uhlenbeck",
    "slow_manifold_system",
    "double_well_2d",
    "duffing_oscillator",
    "lemon_slice",
    "ou_invariant_density",
    "integrate_em",
    "sample_uniform",
    "exact_sample_set",
    "kramers_moyal",
    "finite_difference_drift",
    "noisy_sample_set",
    "stratonovich_to_ito",
    "analytic_ou_generator",
    "lemon_slice_invariant_points",
]

FD_STEP = 1e-6  # central-difference width for a sigma Jacobian without a formula


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class SdeModel:
    """Drift/diffusion description of an SDE (or ODE if noise_dim == 0).

    The callables are vectorized: `drift` maps (m, d) -> (m, d) and `sigma`
    maps (m, d) -> (m, d, s) with s = `noise_dim`. `sigma_jacobian`, if
    given, maps (m, d) -> (m, d, s, d) with entry [l, i, k, j] =
    d sigma_ik / d x_j at x_l. `potential` (m, d) -> (m,) and
    `potential_gradient` (m, d) -> (m, d) are V and grad V of a gradient
    drift, `stratonovich` marks that convention, and `name` labels the model.
    """

    dimension: int
    drift: Callable[[np.ndarray], np.ndarray]
    sigma: Optional[Callable[[np.ndarray], np.ndarray]] = None
    noise_dim: int = 0
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None
    potential_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    stratonovich: bool = False
    sigma_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "sde"

    @property
    def deterministic(self) -> bool:
        return self.sigma is None or self.noise_dim == 0

    def drift_at(self, points) -> np.ndarray:
        return np.asarray(self.drift(_check_points(points, self.dimension)), dtype=np.float64)

    def sigma_at(self, points) -> np.ndarray:
        if self.deterministic:
            raise InputError(f"model {self.name!r} has no diffusion")
        return np.asarray(self.sigma(_check_points(points, self.dimension)), dtype=np.float64)

    def diffusion_at(self, points) -> np.ndarray:
        """a(x) = sigma(x) sigma(x)^T at each point, shape (m, d, d).

        A sigma whose leading stride is 0 (one matrix broadcast over the
        points, as np.broadcast_to gives) yields a read-only broadcast a of
        one d x d matrix, formed by the same einsum on that one slice.
        """
        S = self.sigma_at(points)
        if _constant(S):
            a = np.einsum("lik,ljk->lij", S[:1], S[:1])
            return np.broadcast_to(a, (S.shape[0],) + a.shape[1:])
        return np.einsum("lik,ljk->lij", S, S)


def _constant(array) -> bool:
    """True for an array with points along a leading axis of stride 0: one slice
    broadcast over every point, such as np.broadcast_to makes."""
    return array.ndim > 0 and array.shape[0] > 0 and array.strides[0] == 0


@dataclass
class SampleSet:
    """Data points with drift/diffusion information attached.

    points (m, d) and drift_samples b(x_l) (m, d) are required;
    diffusion_samples holds a(x_l) = sigma sigma^T (m, d, d), or None when
    absent. A constant diffusion given with leading stride 0 (one d x d
    matrix broadcast over the points) is kept that way: its one slice is
    checked and symmetrized, and diffusion_samples stays a read-only
    zero-stride view of it, so it takes d^2 entries, not m d^2.
    """

    points: np.ndarray
    drift_samples: np.ndarray
    diffusion_samples: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        self.drift_samples = np.atleast_2d(np.asarray(self.drift_samples, dtype=np.float64))
        for arr, label in ((self.points, "points"), (self.drift_samples, "drift_samples")):
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{label} contain non-finite entries")
        if self.drift_samples.shape != self.points.shape:
            raise InputError("drift_samples shape must match points")
        if self.diffusion_samples is not None:
            a = np.asarray(self.diffusion_samples, dtype=np.float64)
            if a.shape != (self.count, self.dimension, self.dimension):
                raise InputError("diffusion_samples must have shape (m, d, d)")
            constant = _constant(a)
            body = a[:1] if constant else a
            if not np.all(np.isfinite(body)):
                raise InputError("diffusion_samples contain non-finite entries")
            # enforce exact symmetry; callers provide a = sigma sigma^T
            body = 0.5 * (body + np.transpose(body, (0, 2, 1)))
            self.diffusion_samples = np.broadcast_to(body, a.shape) if constant else body

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def min_diffusion_eigenvalue(self) -> float:
        """Smallest eigenvalue over all diffusion slices (PSD check)."""
        if self.diffusion_samples is None:
            raise InputError("sample set has no diffusion samples")
        a = self.diffusion_samples
        return float(np.min(np.linalg.eigvalsh(a[:1] if _constant(a) else a)))


# ---------------------------------------------------------------------------
# model factories


def ornstein_uhlenbeck(alpha: float = 1.0, beta: float = 4.0) -> SdeModel:
    """dX = -alpha X dt + sqrt(2 / beta) dW, reversible with Gaussian invariant law."""
    s = math.sqrt(2.0 / beta)

    def drift(x):
        return -alpha * x

    def sigma(x):
        return np.broadcast_to(np.full((1, 1), s), (x.shape[0], 1, 1))

    return SdeModel(
        dimension=1,
        drift=drift,
        sigma=sigma,
        noise_dim=1,
        potential=lambda x: 0.5 * alpha * x[:, 0] ** 2,
        potential_gradient=lambda x: alpha * x,
        name=f"ou(alpha={alpha:g},beta={beta:g})",
    )


def ou_invariant_density(alpha: float, beta: float, x) -> np.ndarray:
    """Stationary density of the OU process, N(0, 1/(alpha beta))."""
    x = np.asarray(x, dtype=np.float64)
    return np.sqrt(alpha * beta / (2.0 * np.pi)) * np.exp(-0.5 * alpha * beta * x**2)


def slow_manifold_system(gamma: float = -0.8, delta: float = -0.7) -> SdeModel:
    """ODE with a slow parabolic manifold: dx1 = gamma x1, dx2 = delta (x2 - x1^2)."""

    def drift(x):
        return np.column_stack((gamma * x[:, 0], delta * (x[:, 1] - x[:, 0] ** 2)))

    return SdeModel(
        dimension=2,
        drift=drift,
        name=f"slow_manifold(gamma={gamma:g},delta={delta:g})",
    )


def double_well_2d() -> SdeModel:
    """Gradient drift of V = (x1^2 - 1)^2 + x2^2 with state-dependent noise.

    sigma(x) = [[0.7, x1], [0, 0.5]], so a(x) = [[0.49 + x1^2, 0.5 x1],
    [0.5 x1, 0.25]].
    """

    def drift(x):
        return np.column_stack((4.0 * x[:, 0] - 4.0 * x[:, 0] ** 3, -2.0 * x[:, 1]))

    def sigma(x):
        S = np.zeros((x.shape[0], 2, 2))
        S[:, 0, 0] = 0.7
        S[:, 0, 1] = x[:, 0]
        S[:, 1, 1] = 0.5
        return S

    return SdeModel(
        dimension=2,
        drift=drift,
        sigma=sigma,
        noise_dim=2,
        potential=lambda x: (x[:, 0] ** 2 - 1.0) ** 2 + x[:, 1] ** 2,
        name="double_well_2d",
    )


def duffing_oscillator(alpha: float = -1.1, beta: float = 1.1, eps: float = 0.05) -> SdeModel:
    """Stochastically forced Duffing oscillator, noise along the drift direction.

    dX = b(X) dt + eps b(X) o dW (Stratonovich), b = (x2, -alpha x1 - beta x1^3).
    The energy (alpha/2) x1^2 + (beta/4) x1^4 + x2^2 / 2 is conserved pathwise.
    """

    def drift(x):
        return np.column_stack((x[:, 1], -alpha * x[:, 0] - beta * x[:, 0] ** 3))

    def sigma(x):
        return eps * drift(x)[:, :, None]

    def sigma_jacobian(x):
        J = np.zeros((x.shape[0], 2, 1, 2))
        J[:, 0, 0, 1] = eps
        J[:, 1, 0, 0] = eps * (-alpha - 3.0 * beta * x[:, 0] ** 2)
        return J

    return SdeModel(
        dimension=2,
        drift=drift,
        sigma=sigma,
        noise_dim=1,
        stratonovich=True,
        sigma_jacobian=sigma_jacobian,
        name=f"duffing(alpha={alpha:g},beta={beta:g},eps={eps:g})",
    )


def _lemon_terms(x):
    r = np.hypot(x[:, 0], x[:, 1])
    phi = np.arctan2(x[:, 1], x[:, 0])
    return r, phi


def lemon_slice(k: int = 4, beta: float = 1.0) -> SdeModel:
    """Overdamped diffusion in a 2-d potential with k angular wells.

    V(r, phi) = cos(k phi) + 1/cos(phi/2) + 10 (r - 1)^2 + 1/r; the secant
    term builds an infinite barrier at phi = +-pi, so the polar angle never
    wraps. dX = -grad V dt + sqrt(2/beta) dW.
    """

    def potential(x):
        r, phi = _lemon_terms(x)
        return np.cos(k * phi) + 1.0 / np.cos(0.5 * phi) + 10.0 * (r - 1.0) ** 2 + 1.0 / r

    def potential_gradient(x):
        r, phi = _lemon_terms(x)
        dV_dr = 20.0 * (r - 1.0) - 1.0 / r**2
        sec = 1.0 / np.cos(0.5 * phi)
        dV_dphi = -k * np.sin(k * phi) + 0.5 * sec * np.tan(0.5 * phi)
        gr = np.column_stack((x[:, 0] / r, x[:, 1] / r))
        gphi = np.column_stack((-x[:, 1] / r**2, x[:, 0] / r**2))
        return dV_dr[:, None] * gr + dV_dphi[:, None] * gphi

    def drift(x):
        return -potential_gradient(x)

    s = math.sqrt(2.0 / beta)

    def sigma(x):
        return np.broadcast_to(s * np.eye(2), (x.shape[0], 2, 2))

    return SdeModel(
        dimension=2,
        drift=drift,
        sigma=sigma,
        noise_dim=2,
        potential=potential,
        potential_gradient=potential_gradient,
        name=f"lemon_slice(k={k},beta={beta:g})",
    )


def lemon_slice_invariant_points(m: int, seed, k: int = 4, beta: float = 1.0) -> np.ndarray:
    """I.i.d. draws from the lemon-slice invariant measure.

    The potential separates in polar coordinates, so the Boltzmann density
    factorizes into independent radial and angular parts (with the polar
    Jacobian r attached to the radial factor); both are sampled by
    inverse-CDF on a fine grid.
    """
    rng = _rng(seed)

    def inverse_cdf_sample(grid, log_weight, u):
        w = np.exp(log_weight - np.max(log_weight))
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(grid))))
        cdf /= cdf[-1]
        return np.interp(u, cdf, grid)

    phi_grid = np.linspace(-np.pi + 1e-4, np.pi - 1e-4, 40001)
    log_w_phi = -beta * (np.cos(k * phi_grid) + 1.0 / np.cos(0.5 * phi_grid))
    r_grid = np.linspace(0.05, 3.0, 40001)
    log_w_r = np.log(r_grid) - beta * (10.0 * (r_grid - 1.0) ** 2 + 1.0 / r_grid)

    phi = inverse_cdf_sample(phi_grid, log_w_phi, rng.uniform(size=m))
    r = inverse_cdf_sample(r_grid, log_w_r, rng.uniform(size=m))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi)))


# ---------------------------------------------------------------------------
# integration and sample construction


def integrate_em(model: SdeModel, x0, dt: float, steps: int, seed) -> np.ndarray:
    """Euler-Maruyama path of an Ito SDE (plain Euler when deterministic).

    x0 may be a single state (d,) or an ensemble (r, d); the result has shape
    (steps + 1, d) or (steps + 1, r, d). Raises IntegrationError as soon as a
    state stops being finite, naming the offending step.
    """
    if model.stratonovich:
        raise InputError(
            "model uses the Stratonovich convention; apply stratonovich_to_ito first"
        )
    if not (0 < dt < np.inf and steps >= 0):
        raise InputError("need dt positive and finite and steps >= 0")
    x = np.asarray(x0, dtype=np.float64)
    single = x.ndim == 1
    X = x.reshape(1, -1).copy() if single else x.copy()
    if X.shape[1] != model.dimension:
        raise InputError(f"x0 dimension {X.shape[1]} != model dimension {model.dimension}")
    rng = _rng(seed)
    sq = math.sqrt(dt)
    out = np.empty((steps + 1,) + X.shape)
    out[0] = X
    for step in range(1, steps + 1):
        cur = out[step - 1]
        nxt = cur + model.drift(cur) * dt
        if not model.deterministic:
            xi = rng.standard_normal((cur.shape[0], model.noise_dim))
            nxt = nxt + np.einsum("lik,lk->li", model.sigma(cur), xi) * sq
        if not np.all(np.isfinite(nxt)):
            raise IntegrationError(f"non-finite state at step {step} (dt={dt:g})")
        out[step] = nxt
    return out[:, 0, :] if single else out


def sample_uniform(box, m: int, seed) -> np.ndarray:
    """m points uniform in a box given as a (d, 2) array of (low, high) rows."""
    b = _check_box(box, "box")
    rng = _rng(seed)
    return rng.uniform(b[:, 0], b[:, 1], size=(m, b.shape[0]))


def exact_sample_set(model: SdeModel, points) -> SampleSet:
    """Evaluate the model's drift/diffusion exactly at given points."""
    if model.stratonovich:
        raise InputError(
            "model uses the Stratonovich convention; apply stratonovich_to_ito first"
        )
    x = _check_points(points, model.dimension)
    return SampleSet(
        points=x,
        drift_samples=model.drift_at(x),
        diffusion_samples=None if model.deterministic else model.diffusion_at(x),
    )


def kramers_moyal(trajectory, lag: float) -> SampleSet:
    """First/second conditional-moment estimates from trajectory increments.

    b(x_l) ~ (x_{l+1} - x_l) / lag and a(x_l) ~ outer(x_{l+1} - x_l) / lag;
    the last point has no successor and is dropped.  The trajectory is
    (T,) or (T, d), or an ensemble (T, r, d) as ``integrate_em`` returns
    it, whose increments are pooled walker by walker.
    """
    X = np.asarray(trajectory, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim not in (2, 3) or X.shape[0] < 2:
        raise InputError("need at least two trajectory points of shape (d,) or (r, d)")
    if not 0 < lag < np.inf:
        raise InputError("lag must be positive and finite")
    X = X.reshape(X.shape[0], -1, X.shape[-1]).swapaxes(0, 1)  # (r, T, d)
    diff = np.diff(X, axis=1).reshape(-1, X.shape[2])
    return SampleSet(
        points=X[:, :-1].reshape(-1, X.shape[2]),
        drift_samples=diff / lag,
        diffusion_samples=np.einsum("li,lj->lij", diff, diff) / lag,
    )


def finite_difference_drift(trajectory, dt: float) -> SampleSet:
    """Central-difference time derivatives of a deterministic trajectory."""
    X = np.asarray(trajectory, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.shape[0] < 3:
        raise InputError("need at least three trajectory points")
    if not 0 < dt < np.inf:
        raise InputError("dt must be positive and finite")
    return SampleSet(points=X[1:-1], drift_samples=(X[2:] - X[:-2]) / (2.0 * dt))


def noisy_sample_set(sample: SampleSet, noise_std: float, seed) -> SampleSet:
    """Add i.i.d. Gaussian measurement noise to drift (and diffusion) samples.

    Diffusion noise is added symmetrically, which can push slices slightly
    off positive semidefinite; that is the point of the noise study.
    """
    rng = _rng(seed)
    drift = sample.drift_samples + noise_std * rng.standard_normal(sample.drift_samples.shape)
    diffusion = None
    if sample.diffusion_samples is not None:
        eta = noise_std * rng.standard_normal(sample.diffusion_samples.shape)
        diffusion = sample.diffusion_samples + 0.5 * (eta + np.transpose(eta, (0, 2, 1)))
    return SampleSet(
        points=sample.points.copy(), drift_samples=drift, diffusion_samples=diffusion
    )


def stratonovich_to_ito(model: SdeModel) -> SdeModel:
    """Ito form of a Stratonovich SDE: drift gains c_i/2, c_i = sum_jk d(sigma_ik)/dx_j sigma_jk.

    Uses the registered analytic sigma Jacobian when available, otherwise
    central finite differences of width ``FD_STEP``.
    """
    if not model.stratonovich:
        raise InputError("model is already in Ito form")

    base_drift = model.drift
    sigma = model.sigma
    jac = model.sigma_jacobian

    def correction(x):
        S = sigma(x)
        if jac is not None:
            J = jac(x)
        else:
            d = x.shape[1]
            J = np.empty(S.shape + (d,))
            for j in range(d):
                xp = x.copy()
                xm = x.copy()
                xp[:, j] += FD_STEP
                xm[:, j] -= FD_STEP
                J[..., j] = (sigma(xp) - sigma(xm)) / (2.0 * FD_STEP)
        return np.einsum("likj,ljk->li", J, S)

    def drift(x):
        return base_drift(x) + 0.5 * correction(x)

    return replace(model, drift=drift, stratonovich=False, name=model.name + "+ito")


def analytic_ou_generator(alpha: float, beta: float, max_degree: int) -> np.ndarray:
    """Exact generator matrix of the OU process on monomials 1, x, ..., x^K.

    Column k holds the coefficients of L x^k = -alpha k x^k
    + beta^-1 k (k - 1) x^(k-2); the matrix acts on coefficient vectors.
    """
    n = max_degree + 1
    L = np.zeros((n, n))
    for k in range(n):
        L[k, k] = -alpha * k
        if k >= 2:
            L[k - 2, k] = k * (k - 1) / beta
    return L
