"""Observable dictionaries with analytic first and second derivatives.

A dictionary is a finite family of scalar basis functions psi_1, ..., psi_n
on R^d. Generator estimation needs, at every data point, the values of all
basis functions together with their gradients and (for diffusion terms)
Hessians, so every dictionary here evaluates all of them in closed form.

Conventions
-----------
* Evaluation input is an (m, d) array of points; a 1-d array is accepted
  for d = 1 (one point per entry) or as a single point of dimension d.
* Results are packed into an :class:`EvaluationBlock` with
  ``values`` of shape (n, m), ``gradients`` of shape (n, m, d) and,
  on request, ``hessians`` of shape (n, m, d, d).
* Polynomial-type dictionaries order their terms by total degree first
  (constant term first) and lexicographically descending within a degree,
  so for d = 2: 1, x1, x2, x1^2, x1*x2, x2^2, ...
* :meth:`Dictionary.generator_action` returns the values together with the
  generator action b . grad psi + 1/2 a : hess psi at each point.  Tensor
  bases walk a graded product plan, psi_e = psi_parent * f(x_w), and form
  the action by the carre-du-champ identity, without Hessians.
* Radial kernels are unnormalized, exp(-||x - c||^2 / (2 sigma^2)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, UnsupportedDictionaryError

__all__ = [
    "EvaluationBlock",
    "Dictionary",
    "Monomials",
    "LegendreBasis",
    "GaussianBasis",
    "PeriodicGaussianBasis",
    "evaluate",
    "dictionary_from_spec",
]


@dataclass(frozen=True)
class EvaluationBlock:
    """Dictionary values and derivatives at a batch of points.

    Attributes
    ----------
    values : (n, m) ndarray
        ``values[k, l] = psi_k(x_l)``.
    gradients : (n, m, d) ndarray
        ``gradients[k, l, i] = d psi_k / d x_i (x_l)``.
    hessians : (n, m, d, d) ndarray or None
        Second derivatives; ``None`` unless requested.
    """

    values: np.ndarray
    gradients: np.ndarray
    hessians: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def count(self) -> int:
        return self.values.shape[1]


def _check_points(points, dimension: int) -> np.ndarray:
    x = np.asarray(points, dtype=np.float64)
    if x.ndim == 1:
        if dimension == 1:
            x = x.reshape(-1, 1)
        elif x.shape[0] == dimension:
            x = x.reshape(1, -1)
        else:
            raise InputError(
                f"1-d input of length {x.shape[0]} does not match dimension {dimension}"
            )
    if x.ndim != 2 or x.shape[1] != dimension:
        raise InputError(f"expected points of shape (m, {dimension}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("points contain non-finite entries")
    return x


def _action_coefficients(drift, diffusion, shape):
    """Drift (m, d) and optional diffusion (m, d, d) arrays for points of `shape`."""
    m, d = shape
    b = np.asarray(drift, dtype=np.float64)
    if b.shape != (m, d):
        raise InputError(f"expected drift of shape {(m, d)}, got {b.shape}")
    if diffusion is None:
        return b, None
    a = np.asarray(diffusion, dtype=np.float64)
    if a.shape != (m, d, d):
        raise InputError(f"expected diffusion of shape {(m, d, d)}, got {a.shape}")
    return b, a


def _contract_generator(gradients, hessians, drift, diffusion) -> np.ndarray:
    """b . grad psi (+ 1/2 a : hess psi) from stored derivative arrays, shape (n, m)."""
    dpsi = np.einsum("li,kli->kl", drift, gradients)
    if diffusion is not None:
        dpsi = dpsi + 0.5 * np.einsum("lij,klij->kl", diffusion, hessians)
    return dpsi


# Elements per work array of the tensor bases' sub-chunks of points (512 KB):
# the temporaries stay in cache and are reused by the allocator instead of
# being faulted in afresh on every call.
_WORK_ELEMENTS = 65536


def _graded_exponents(dimension: int, max_degree: int) -> np.ndarray:
    """Exponent tuples sorted by total degree, descending lex within a degree."""
    # a degree-k monomial is a k-multiset of coordinates; multisets in
    # ascending lex order give exponent tuples in descending lex order
    return np.array(
        [
            np.bincount(np.array(c, dtype=np.intp), minlength=dimension)
            for k in range(max_degree + 1)
            for c in itertools.combinations_with_replacement(range(dimension), k)
        ],
        dtype=np.intp,
    )


class Dictionary:
    """Common interface of all observable dictionaries."""

    dimension: int
    size: int

    def evaluate(self, points, with_hessians: bool = False) -> EvaluationBlock:
        raise NotImplementedError

    def generator_action(self, points, drift, diffusion=None):
        """Values and generator action of every basis function at the points.

        Parameters
        ----------
        points : (m, d) array_like
        drift : (m, d) array_like
            Drift b(x_l) at each point.
        diffusion : (m, d, d) array_like, optional
            Diffusion a(x_l); without it the action is first order.

        Returns
        -------
        values : (n, m) ndarray
            ``values[k, l] = psi_k(x_l)``, as from :meth:`evaluate`.
        dpsi : (n, m) ndarray
            ``dpsi[k, l] = b(x_l) . grad psi_k(x_l) + 1/2 a(x_l) : hess psi_k(x_l)``.

        This default evaluates the points with Hessians and contracts them;
        subclasses may form the action without storing any derivative array.
        """
        x = _check_points(points, self.dimension)
        b, a = _action_coefficients(drift, diffusion, x.shape)
        block = self.evaluate(x, with_hessians=a is not None)
        return block.values, _contract_generator(block.gradients, block.hessians, b, a)

    def labels(self) -> list[str]:
        raise NotImplementedError

    def spec(self) -> dict:
        """JSON-serializable description sufficient to rebuild the dictionary."""
        raise NotImplementedError

    def full_state_selector(self) -> np.ndarray:
        """Selector B with x = B^T psi(x), one unit entry per column.

        Only dictionaries that contain every coordinate function as a basis
        element support this; others raise
        :class:`~koopgen.errors.UnsupportedDictionaryError`.
        """
        raise UnsupportedDictionaryError(
            f"{type(self).__name__} does not contain the coordinate functions"
        )

    @property
    def constant_index(self):
        """Index of the constant basis function, or None if absent."""
        return None

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(dimension={self.dimension}, size={self.size})"


class _SeparableBasis(Dictionary):
    """Tensor basis psi_e(x) = prod_j f_{e_j}(x_j) over graded exponents.

    A graded product plan evaluates it: each non-constant e has the parent
    p, e with its last nonzero coordinate w set to 0, so psi_e = psi_p * phi
    with phi = f_{e_w}(x_w) (factors multiply left to right), and each level
    of exponents with equally many nonzero coordinates is one gather-multiply
    from the level below.  Gradients follow d_i psi_e = phi d_i psi_p +
    delta_iw psi_p phi', and the generator action the carre-du-champ identity
    L(fg) = f Lg + g Lf + grad f . a grad g, which needs no Hessians:
    L psi_e = phi L psi_p + psi_p L phi + phi' (a_sym grad psi_p)_w with
    L phi = b_w phi' + 1/2 a_ww phi''.
    """

    def __init__(self, dimension: int, max_degree: int):
        if dimension < 1:
            raise InputError("dimension must be >= 1")
        if max_degree < 0:
            raise InputError("max_degree must be >= 0")
        self.dimension = int(dimension)
        self.max_degree = int(max_degree)
        self.exponents = E = _graded_exponents(self.dimension, self.max_degree)
        self.size = n = E.shape[0]
        self._index = {tuple(e): i for i, e in enumerate(E)}
        # per level: rows, their parents, the coordinate w each adds, the
        # row of f_{e_w}(x_w) in the stacked tables of _tables, and the
        # parents' nonzero coordinates (rows, level - 1)
        nonzero = E != 0
        level = nonzero.sum(axis=1)
        last = self.dimension - 1 - np.argmax(nonzero[:, ::-1], axis=1)
        base = E.copy()
        base[np.arange(n), last] = 0
        parent = np.array([self._index[tuple(p)] for p in base], dtype=np.intp)
        factor = last * (self.max_degree + 1) + E[np.arange(n), last]
        self._plan = []
        for k in range(1, level.max() + 1):
            rows = np.flatnonzero(level == k)
            support = np.nonzero(base[rows])[1].reshape(rows.size, k - 1)
            self._plan.append((rows, parent[rows], factor[rows], last[rows], support))

    @property
    def constant_index(self) -> int:
        return 0

    def index_of(self, exponent) -> int:
        """Position of an exponent tuple in the basis ordering."""
        key = tuple(int(e) for e in exponent)
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"exponent {key} not in basis (max_degree={self.max_degree})")

    def _tables(self, x: np.ndarray, order: int) -> np.ndarray:
        """Univariate factors, shape (order + 1, d, max_degree + 1, m):
        ``tables[r, j, k]`` is the r-th derivative of f_k at coordinate j."""
        raise NotImplementedError

    def _walk(self, tables, values, gradients=None, hessians=None, action=None) -> None:
        """Fill values (n, m) and any of gradients (n', m, d), Hessians
        (n, m, d, d) and ``action = (dpsi, L phi stacked like the tables,
        a_sym (d, d, m) or None)`` level by level along the plan.  Derivative
        arrays and dpsi are zero in row 0; gradients cover the first n' rows,
        a prefix of each level as its rows ascend."""
        tables = tables.reshape(len(tables), -1, values.shape[1])
        values[0] = 1.0
        if action is not None:
            dpsi, lphi, asym = action
        for rows, parents, factor, w, support in self._plan:
            phi = tables[0][factor]
            psi = values[parents]
            if action is not None:
                term = phi * dpsi[parents]
                term += psi * lphi[factor]
                if asym is not None and support.shape[1]:
                    # (a_sym grad psi_p)_w over the parent's nonzero coordinates
                    coupling = 0.0
                    for i in support.T:
                        coupling += asym[i, w] * gradients[parents, :, i]
                    term += coupling * tables[1][factor]
                dpsi[rows] = term
            if gradients is not None:
                g = np.searchsorted(rows, len(gradients))
                dphi = tables[1][factor[:g]]
                at = np.arange(g)
                # psi_p does not depend on x_w: its column and row w are 0
                grad = gradients[parents[:g]]
                if hessians is not None:
                    hess = hessians[parents]
                    hess *= phi[:, :, None, None]
                    hess[at, :, w, :] = hess[at, :, :, w] = grad * dphi[:, :, None]
                    hess[at, :, w, w] = psi * tables[2][factor]
                    hessians[rows] = hess
                grad *= phi[:g, :, None]
                grad[at, :, w[:g]] = psi[:g] * dphi
                gradients[rows[:g]] = grad
            psi *= phi
            values[rows] = psi

    def evaluate(self, points, with_hessians: bool = False) -> EvaluationBlock:
        x = _check_points(points, self.dimension)
        n, (m, d) = self.size, x.shape
        values = np.empty((n, m))
        gradients = np.zeros((n, m, d))
        hessians = np.zeros((n, m, d, d)) if with_hessians else None
        chunk = max(16, _WORK_ELEMENTS // (n * d * (d if with_hessians else 1)))
        for sl in (slice(start, start + chunk) for start in range(0, m, chunk)):
            tables = self._tables(x[sl], 2 if with_hessians else 1)
            hess = None if hessians is None else hessians[:, sl]
            self._walk(tables, values[:, sl], gradients[:, sl], hess)
        return EvaluationBlock(values, gradients, hessians)

    def generator_action(self, points, drift, diffusion=None):
        x = _check_points(points, self.dimension)
        b, a = _action_coefficients(drift, diffusion, x.shape)
        n, (m, d) = self.size, x.shape
        values = np.empty((n, m))
        dpsi = np.zeros((n, m))
        # only the diffusion term needs gradients, and only those of parents:
        # rows below the top degree, which come first
        low = max(1, np.searchsorted(self.exponents.sum(axis=1), self.max_degree))
        chunk = max(16, _WORK_ELEMENTS // (n if a is None else low * d))
        for sl in (slice(start, start + chunk) for start in range(0, m, chunk)):
            tables = self._tables(x[sl], 1 if a is None else 2)
            # L phi = b_w phi' + 1/2 a_ww phi'' for every univariate factor
            lphi = tables[1] * b[sl].T[:, None, :]
            grads = asym = None
            if a is not None:
                lphi += tables[2] * (0.5 * np.diagonal(a[sl], axis1=1, axis2=2).T)[:, None, :]
                asym = np.moveaxis(0.5 * (a[sl] + np.swapaxes(a[sl], 1, 2)), 0, -1).copy()
                grads = np.zeros((low, tables.shape[-1], d))
            lphi = lphi.reshape(-1, tables.shape[-1])
            self._walk(tables, values[:, sl], grads, action=(dpsi[:, sl], lphi, asym))
        return values, dpsi


class Monomials(_SeparableBasis):
    """All monomials x^e with total degree |e| <= max_degree.

    The basis size is binom(d + max_degree, d); the constant term comes
    first. ``index_of((2, 1))`` locates x1^2 * x2, etc.
    """

    def _tables(self, x: np.ndarray, order: int) -> np.ndarray:
        tables = np.zeros((order + 1, self.dimension, self.max_degree + 1, x.shape[0]))
        tables[0, :, 0] = 1.0
        # running products x^k = x^(k-1) x; (x^k)^(r) = k (x^(k-1))^(r-1)
        for k in range(1, self.max_degree + 1):
            np.multiply(tables[0, :, k - 1], x.T, out=tables[0, :, k])
            for r in range(1, order + 1):
                np.multiply(k, tables[r - 1, :, k - 1], out=tables[r, :, k])
        return tables

    def labels(self) -> list[str]:
        out = []
        for e in self.exponents:
            if not e.any():
                out.append("1")
                continue
            parts = []
            for j, p in enumerate(e):
                if p == 1:
                    parts.append(f"x{j + 1}")
                elif p > 1:
                    parts.append(f"x{j + 1}^{p}")
            out.append("*".join(parts))
        return out

    def spec(self) -> dict:
        return {
            "kind": "monomials",
            "dimension": self.dimension,
            "max_degree": self.max_degree,
        }

    def full_state_selector(self) -> np.ndarray:
        B = np.zeros((self.size, self.dimension))
        for j in range(self.dimension):
            e = np.zeros(self.dimension, dtype=np.intp)
            e[j] = 1
            if tuple(e) not in self._index:
                raise UnsupportedDictionaryError(
                    "coordinate functions missing (max_degree must be >= 1)"
                )
            B[self._index[tuple(e)], j] = 1.0
        return B

    def multiply_by_coordinate(self, coeffs: np.ndarray, j: int):
        """Coefficients of x_j * f where f has dictionary coefficients `coeffs`.

        Returns (new_coeffs, dropped) where `dropped` is the largest absolute
        coefficient whose shifted monomial fell outside the basis. Callers
        decide whether a nonzero drop is a closure violation.
        """
        coeffs = np.asarray(coeffs, dtype=np.float64)
        out = np.zeros_like(coeffs)
        dropped = 0.0
        for i, c in enumerate(coeffs):
            if c == 0.0:
                continue
            e = self.exponents[i].copy()
            e[j] += 1
            key = tuple(e)
            if key in self._index:
                out[self._index[key]] += c
            else:
                dropped = max(dropped, abs(c))
        return out, dropped

    def function_coefficients(self, poly_coeffs) -> np.ndarray:
        """Dictionary coefficients of a univariate polynomial (d = 1 only)."""
        if self.dimension != 1:
            raise UnsupportedDictionaryError("function_coefficients needs d = 1")
        c = np.asarray(poly_coeffs, dtype=np.float64)
        if c.shape[0] > self.size:
            raise DomainError("polynomial degree exceeds max_degree")
        out = np.zeros(self.size)
        out[: c.shape[0]] = c
        return out


def _legendre_tables(t: np.ndarray, K: int, order: int):
    """Legendre P_k(t), P'_k, P''_k for k = 0..K via the standard recurrences."""
    m = t.shape[0]
    P = np.empty((K + 1, m))
    P[0] = 1.0
    if K >= 1:
        P[1] = t
    for k in range(1, K):
        P[k + 1] = ((2 * k + 1) * t * P[k] - k * P[k - 1]) / (k + 1)
    D1 = np.zeros((K + 1, m))
    if K >= 1:
        D1[1] = 1.0
    for k in range(1, K):
        D1[k + 1] = D1[k - 1] + (2 * k + 1) * P[k]
    if order < 2:
        return P, D1
    D2 = np.zeros((K + 1, m))
    for k in range(1, K):
        D2[k + 1] = D2[k - 1] + (2 * k + 1) * D1[k]
    return P, D1, D2


class LegendreBasis(_SeparableBasis):
    """Tensor Legendre polynomials on a box, mapped affinely to [-1, 1]^d.

    Parameters
    ----------
    max_degree : int
        Maximum total degree; for d = 1 this gives max_degree + 1 functions.
    domain : sequence of (a, b) pairs, or a single pair for d = 1
        Per-coordinate intervals. Points outside the box are rejected.
    """

    def __init__(self, max_degree: int, domain):
        dom = np.asarray(domain, dtype=np.float64)
        if dom.ndim == 1:
            dom = dom.reshape(1, 2)
        if dom.ndim != 2 or dom.shape[1] != 2 or np.any(dom[:, 1] <= dom[:, 0]):
            raise InputError("domain must be a list of (a, b) pairs with a < b")
        super().__init__(dom.shape[0], max_degree)
        self.domain = dom
        # x = m0 + m1 * t maps t in [-1, 1] to [a, b]
        self._m0 = 0.5 * (dom[:, 0] + dom[:, 1])
        self._m1 = 0.5 * (dom[:, 1] - dom[:, 0])

    def _tables(self, x: np.ndarray, order: int) -> np.ndarray:
        tables = np.empty((order + 1, self.dimension, self.max_degree + 1, x.shape[0]))
        for j in range(self.dimension):
            t = (x[:, j] - self._m0[j]) / self._m1[j]
            if np.any(np.abs(t) > 1.0 + 1e-9):
                raise DomainError(
                    f"points outside Legendre domain {tuple(self.domain[j])} in coordinate {j + 1}"
                )
            tables[:, j] = _legendre_tables(np.clip(t, -1.0, 1.0), self.max_degree, order)
            # chain rule for x = m0 + m1 * t: the r-th derivative gains (1 / m1)^r
            s = 1.0 / self._m1[j]
            for r in range(1, order + 1):
                tables[r:, j] *= s
        return tables

    def labels(self) -> list[str]:
        out = []
        for e in self.exponents:
            if not e.any():
                out.append("P0")
                continue
            if self.dimension == 1:
                out.append(f"P{e[0]}")
            else:
                out.append(" ".join(f"P{p}(x{j + 1})" for j, p in enumerate(e) if p > 0))
        return out

    def spec(self) -> dict:
        return {
            "kind": "legendre",
            "max_degree": self.max_degree,
            "domain": self.domain.tolist(),
        }

    def coordinate_coefficients(self) -> np.ndarray:
        """Exact expansion x_j = sum_i C[i, j] psi_i(x); C is not a selector."""
        if self.max_degree < 1:
            raise UnsupportedDictionaryError("coordinate functions need max_degree >= 1")
        C = np.zeros((self.size, self.dimension))
        zero = self.index_of((0,) * self.dimension)
        for j in range(self.dimension):
            e = np.zeros(self.dimension, dtype=np.intp)
            e[j] = 1
            C[zero, j] += self._m0[j]
            C[self.index_of(tuple(e)), j] += self._m1[j]
        return C

    def function_coefficients(self, poly_coeffs) -> np.ndarray:
        """Exact dictionary coefficients of a polynomial in x (d = 1 only)."""
        if self.dimension != 1:
            raise UnsupportedDictionaryError("function_coefficients needs d = 1")
        c = np.asarray(poly_coeffs, dtype=np.float64)
        if c.shape[0] - 1 > self.max_degree:
            raise DomainError("polynomial degree exceeds max_degree")
        # compose p(x(t)) and convert the power-basis result to Legendre
        affine = np.polynomial.polynomial.Polynomial([self._m0[0], self._m1[0]])
        composed = np.polynomial.polynomial.Polynomial(c)(affine)
        leg = np.polynomial.legendre.poly2leg(composed.coef)
        out = np.zeros(self.size)
        out[: leg.shape[0]] = leg
        return out


class GaussianBasis(Dictionary):
    """Radial Gaussians exp(-||x - c_i||^2 / (2 sigma^2)), one per center."""

    def __init__(self, centers, bandwidth: float):
        c = np.asarray(centers, dtype=np.float64)
        if c.ndim == 1:
            c = c.reshape(-1, 1)
        if c.ndim != 2 or c.shape[0] == 0:
            raise InputError("centers must be an (n, d) array")
        if not np.all(np.isfinite(c)):
            raise InputError("centers contain non-finite entries")
        if not bandwidth > 0:
            raise InputError("bandwidth must be positive")
        self.centers = c
        self.bandwidth = float(bandwidth)
        self.size, self.dimension = c.shape

    def _displacements(self, x: np.ndarray) -> np.ndarray:
        return x[None, :, :] - self.centers[:, None, :]

    def evaluate(self, points, with_hessians: bool = False) -> EvaluationBlock:
        x = _check_points(points, self.dimension)
        s2 = self.bandwidth**2
        D = self._displacements(x)  # (n, m, d)
        values = np.exp(-np.sum(D * D, axis=2) / (2.0 * s2))
        gradients = -(D / s2) * values[:, :, None]
        hessians = None
        if with_hessians:
            outer = D[:, :, :, None] * D[:, :, None, :] / (s2 * s2)
            hessians = (outer - np.eye(self.dimension) / s2) * values[:, :, None, None]
        return EvaluationBlock(values, gradients, hessians)

    def labels(self) -> list[str]:
        return [
            "g(" + ",".join(f"{v:g}" for v in c) + ")" for c in self.centers
        ]

    def spec(self) -> dict:
        return {
            "kind": "gaussians",
            "centers": self.centers.tolist(),
            "bandwidth": self.bandwidth,
        }


class PeriodicGaussianBasis(Dictionary):
    """One-dimensional Gaussians with the distance wrapped to the nearest period image."""

    def __init__(self, centers, bandwidth: float, period: float):
        c = np.asarray(centers, dtype=np.float64).reshape(-1)
        if c.shape[0] == 0 or not np.all(np.isfinite(c)):
            raise InputError("centers must be a non-empty finite 1-d array")
        if not bandwidth > 0:
            raise InputError("bandwidth must be positive")
        if not period > 0:
            raise InputError("period must be positive")
        self.centers = c
        self.bandwidth = float(bandwidth)
        self.period = float(period)
        self.size = c.shape[0]
        self.dimension = 1

    def evaluate(self, points, with_hessians: bool = False) -> EvaluationBlock:
        x = _check_points(points, 1)
        s2 = self.bandwidth**2
        P = self.period
        raw = x[:, 0][None, :] - self.centers[:, None]
        D = raw - P * np.round(raw / P)  # wrapped displacement in [-P/2, P/2]
        values = np.exp(-D * D / (2.0 * s2))
        gradients = (-(D / s2) * values)[:, :, None]
        hessians = None
        if with_hessians:
            hessians = ((D * D / (s2 * s2) - 1.0 / s2) * values)[:, :, None, None]
        return EvaluationBlock(values, gradients, hessians)

    def labels(self) -> list[str]:
        return [f"gp({c:g})" for c in self.centers]

    def spec(self) -> dict:
        return {
            "kind": "periodic_gaussians",
            "centers": self.centers.tolist(),
            "bandwidth": self.bandwidth,
            "period": self.period,
        }


def evaluate(dictionary: Dictionary, points, with_hessians: bool = False) -> EvaluationBlock:
    """Function form of Dictionary.evaluate."""
    return dictionary.evaluate(points, with_hessians=with_hessians)


def dictionary_from_spec(spec: dict) -> Dictionary:
    """Rebuild a dictionary from the dict produced by Dictionary.spec()."""
    kind = spec.get("kind")
    if kind == "monomials":
        return Monomials(spec["dimension"], spec["max_degree"])
    if kind == "legendre":
        return LegendreBasis(spec["max_degree"], spec["domain"])
    if kind == "gaussians":
        return GaussianBasis(spec["centers"], spec["bandwidth"])
    if kind == "periodic_gaussians":
        return PeriodicGaussianBasis(spec["centers"], spec["bandwidth"], spec["period"])
    raise InputError(f"unknown dictionary kind {kind!r}")
