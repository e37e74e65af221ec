"""Observable dictionaries with analytic first and second derivatives.

A dictionary is a finite family of scalar basis functions psi_1, ..., psi_n
on R^d. Generator estimation needs, at every data point, the values of all
basis functions and their generator action; every dictionary here forms
both in closed form, and derivatives from the action.

Conventions
-----------
* Evaluation input is an (m, d) array of points; a 1-d array is accepted
  for d = 1 (one point per entry) or as a single point of dimension d.
* Results are packed into an :class:`EvaluationBlock` with
  ``values`` of shape (n, m), ``gradients`` of shape (n, m, d) and,
  on request, ``hessians`` of shape (n, m, d, d).
* A basis implements only two chunk callables, ``_chunk_values`` and
  ``_chunk_action`` (values and generator action), which write into arrays
  the caller passes; each public method of :class:`Dictionary` allocates
  its results, which own their memory, and fills them by one call of a
  fresh one. Derivatives come from the action: d_i psi under the drift e_i
  and no diffusion, d_i d_j psi under zero drift and the diffusion
  e_i e_j^T + e_j e_i^T.
* Every call evaluates the whole array it is given in one pass, so its
  work arrays grow with m; a point's results do not depend on the points
  evaluated with it. The estimators bound m by the panel rule of
  ``generator._walk``: at most ``CHUNK`` points and, for a fit of width w,
  at most ``PANEL_ENTRIES // w`` points (at least one). A walk calls one
  chunk callable for every chunk: it writes into the fold panel's rows and
  refills work arrays allocated at the first chunk.
* Polynomial-type dictionaries order their terms by total degree first
  (constant term first) and lexicographically descending within a degree,
  so for d = 2: 1, x1, x2, x1^2, x1*x2, x2^2, ...
* :meth:`Dictionary.generator_action` returns the values together with the
  generator action b . grad psi + 1/2 a : hess psi at each point, without
  Hessians: tensor bases by the carre-du-champ identity along a graded
  product plan, psi_e = psi_parent * f(x_w), Gaussians in closed form.
* Radial kernels are unnormalized, exp(-||x - c||^2 / (2 sigma^2)); periodic
  ones wrap x - c to the nearest period image.
"""

from __future__ import annotations

import itertools
import math
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

LEVEL_BLOCK = 64  # most rows of a plan level that a tensor basis gathers at once


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


def _check_box(box, label: str) -> np.ndarray:
    """A box as a (d, 2) array of finite (low, high) rows; one pair for d = 1."""
    b = np.asarray(box, dtype=np.float64)
    if b.ndim == 1:
        b = b.reshape(1, -1)
    shaped = b.ndim == 2 and b.shape[1] == 2 and np.all(np.isfinite(b))
    if not (shaped and np.all(b[:, 0] < b[:, 1])):
        raise InputError(f"{label} must be (d, 2) finite (low, high) rows with low < high")
    return b


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


class _Work:
    """One float64 block split into named buffers, for arrays refilled chunk after chunk.

    ``sizes`` maps each name to its entries; ``view(name, shape)`` is the
    leading prod(shape) entries of that buffer as a C-ordered array, so a
    shorter chunk reuses the buffers of a longer one.
    """

    def __init__(self, sizes: dict):
        self.sizes = sizes
        self._block = np.empty(sum(sizes.values()))
        self._start = dict(zip(sizes, itertools.accumulate(sizes.values(), initial=0)))

    def holds(self, sizes: dict) -> bool:
        return all(size <= self.sizes.get(name, -1) for name, size in sizes.items())

    def view(self, name, shape):
        start = self._start[name]
        return self._block[start : start + math.prod(shape)].reshape(shape)


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
    """Common interface of all observable dictionaries.

    A concrete basis implements two chunk callables, which write into (n, m)
    arrays the caller passes. ``_chunk_values()`` returns a callable
    (points, values) -> None; ``_chunk_action()`` returns a callable
    (points, drift, diffusion, values, dpsi) -> None (diffusion None for a
    first-order action), as :meth:`generator_action`. Each serves the
    consecutive chunks of one walk and refills the work arrays of its first.
    ``_chunk_gradients()`` and the public :meth:`values`, :meth:`evaluate`
    and :meth:`generator_action` are defined here once, over those two.
    """

    dimension: int
    size: int

    def evaluate(self, points, with_hessians: bool = False) -> EvaluationBlock:
        """Values (n, m), gradients (n, m, d) and, on request, Hessians (n, m, d, d).

        Under zero drift and the constant diffusion e_i e_j^T + e_j e_i^T the
        generator action is d_i d_j psi: one chunk action writes it for each
        i <= j into [..., i, j] and copies it to [..., j, i], so H is symmetric.
        """
        x = _check_points(points, self.dimension)
        (m, d), n = x.shape, self.size
        values, gradients = np.empty((n, m)), np.empty((n, m, d))
        self._chunk_gradients()(x, values, gradients)
        if not with_hessians:
            return EvaluationBlock(values, gradients)
        act, hessians, unit = self._chunk_action(), np.empty((n, m, d, d)), np.eye(d)
        for i, j in itertools.combinations_with_replacement(range(d), 2):
            pair = np.outer(unit[i], unit[j])
            act(x, np.zeros((m, d)), np.broadcast_to(pair + pair.T, (m, d, d)), values,
                hessians[..., i, j])
            hessians[..., j, i] = hessians[..., i, j]
        return EvaluationBlock(values, gradients, hessians)

    def values(self, points) -> np.ndarray:
        """``values[k, l] = psi_k(x_l)``, shape (n, m), bitwise as from
        :meth:`evaluate`, without any derivative."""
        x = _check_points(points, self.dimension)
        values = np.empty((self.size, x.shape[0]))
        self._chunk_values()(x, values)
        return values

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

        Every concrete basis forms the action in closed form and builds no
        Hessian (the carre-du-champ identity, or the Gaussian closed form).
        """
        x = _check_points(points, self.dimension)
        values, dpsi = np.empty((self.size, x.shape[0])), np.empty((self.size, x.shape[0]))
        self._chunk_action()(x, drift, diffusion, values, dpsi)
        return values, dpsi

    def _chunk_call(self, sizes, fill):
        """fill(x, *args, work=work) for the chunks of one walk, x the checked points: one
        _Work of sizes(m, *args) entries for m points serves every chunk up to m points."""
        work = None

        def call(points, *args):
            nonlocal work
            x = _check_points(points, self.dimension)
            need = sizes(x.shape[0], *args)
            if work is None or not work.holds(need):
                work = _Work(need)
            fill(x, *args, work=work)

        return call

    def _chunk_values(self):
        raise NotImplementedError

    def _chunk_action(self):
        raise NotImplementedError

    def _chunk_gradients(self):
        """Callable (points, values (n, m), gradients (n, m, d)) -> None for the chunks of one walk.

        Under the constant drift e_i and no diffusion the generator action is
        d_i psi: one chunk action writes it for each i into gradients[..., i].
        """
        act, unit = self._chunk_action(), np.eye(self.dimension)

        def call(points, values, gradients):
            x = _check_points(points, self.dimension)
            for i in range(self.dimension):
                act(x, np.broadcast_to(unit[i], x.shape), None, values, gradients[..., i])

        return call

    def labels(self) -> list[str]:
        raise NotImplementedError

    def spec(self) -> dict:
        """JSON-serializable description sufficient to rebuild the dictionary."""
        raise NotImplementedError

    def full_state_selector(self) -> np.ndarray:
        """Exact coefficients B with x = B^T psi(x).

        Only dictionaries whose span contains every coordinate function
        support this; others raise
        :class:`~koopgen.errors.UnsupportedDictionaryError`.
        """
        raise UnsupportedDictionaryError(
            f"{type(self).__name__} does not contain the coordinate functions"
        )

    @property
    def constant_index(self):
        """Index of the constant basis function, or None if absent."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(dimension={self.dimension}, size={self.size})"


class _SeparableBasis(Dictionary):
    """Tensor basis psi_e(x) = prod_j f_{e_j}(x_j) over graded exponents.

    A graded product plan evaluates it: each non-constant e has the parent
    p, e with its last nonzero coordinate w set to 0, so psi_e = psi_p * phi
    with phi = f_{e_w}(x_w) (factors multiply left to right), and each level
    of exponents with equally many nonzero coordinates is gathered and
    multiplied from the level below, at most LEVEL_BLOCK rows at a time. The
    generator action follows the carre-du-champ identity
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
        # per block of at most LEVEL_BLOCK rows of one level (a level's rows
        # do not depend on each other), _plan holds the rows, their parents
        # and the row of f_{e_w}(x_w) in the stacked tables of _tables.  The
        # action needs gradients only of parents: rows below the top degree,
        # which come first.  _act keeps them block by block at consecutive
        # positions after row 0's, so a block's gradients are one slice past
        # its parents'.  Per block _action_plan holds the parents' positions,
        # the block's first position, the count g of its rows with gradients,
        # their rows i * d + w in a (g, d, m) array, and per nonzero parent
        # coordinate i the rows i * d + w of a_sym (d, d, m) and
        # position(p) * d + i of the gradients (., d, m)
        d = self.dimension
        nonzero = E != 0
        level = nonzero.sum(axis=1)
        last = d - 1 - np.argmax(nonzero[:, ::-1], axis=1)
        base = E.copy()
        base[np.arange(n), last] = 0
        parent = np.array([self._index[tuple(p)] for p in base], dtype=np.intp)
        factor = last * (self.max_degree + 1) + E[np.arange(n), last]
        self._low = low = max(1, int(np.searchsorted(E.sum(axis=1), self.max_degree)))
        position = np.zeros(low, dtype=np.intp)
        self._plan, self._action_plan, start = [], [], 1
        for k in range(1, level.max() + 1):
            rows = np.flatnonzero(level == k)
            support = np.nonzero(base[rows])[1].reshape(rows.size, k - 1)
            for block in range(0, rows.size, LEVEL_BLOCK):
                sl = slice(block, block + LEVEL_BLOCK)
                r, w = rows[sl], last[rows[sl]]
                self._plan.append((r, parent[r], factor[r]))
                g = int(np.searchsorted(r, low))
                position[r[:g]] = np.arange(start, start + g)
                at = position[parent[r]]
                couplings = [(i * d + w, at * d + i) for i in support[sl].T]
                self._action_plan.append((at, start, g, np.arange(g) * d + w[:g], couplings))
                start += g
        self._widest = max((rows.size for rows, *_ in self._plan), default=1)

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

    def _tables(self, x: np.ndarray, tables: np.ndarray) -> None:
        """Fill the univariate factors, shape (order + 1, d, max_degree + 1, m):
        ``tables[r, j, k]`` is the r-th derivative of f_k at coordinate j."""
        raise NotImplementedError

    def _tables_in(self, x, order, work):
        """The tables of x up to derivative ``order``, in the "tables" buffer of ``work``."""
        tables = work.view("tables", (order + 1, self.dimension, self.max_degree + 1, len(x)))
        self._tables(x, tables)
        return tables

    def _walk(self, x, values, work) -> None:
        """Fill values (n, m) at points x (m, d) block by block along the
        plan, through the buffers of ``work`` (_chunk_values)."""
        m = x.shape[0]
        table = self._tables_in(x, 0, work).reshape(-1, m)
        values[0] = 1.0
        for rows, parents, factor in self._plan:
            phi, psi = (work.view(name, (rows.size, m)) for name in ("phi", "psi"))
            table.take(factor, axis=0, out=phi, mode="clip")
            values.take(parents, axis=0, out=psi, mode="clip")
            values[rows] = np.multiply(psi, phi, out=psi)

    # a binding of its own, so that tracing that wraps each class's evaluate
    # records one span per call
    evaluate = Dictionary.evaluate

    def _chunk_values(self):
        factors, level = self.dimension * (self.max_degree + 1), self._widest
        return self._chunk_call(
            lambda m, values: {"tables": factors * m, "phi": level * m, "psi": level * m},
            self._walk,
        )

    def _chunk_action(self):
        return self._chunk_call(lambda m, b, a, *_: self._action_sizes(m, a is not None), self._act)

    def _action_sizes(self, m, stochastic):
        """Buffer entries of _act for m points, with or without a diffusion."""
        d = self.dimension
        factors = d * (self.max_degree + 1)
        level = self._widest * m
        sizes = {"tables": (2 + stochastic) * factors * m, "lphi": factors * m,
                 "phi": level, "psi": level, "term": level, "gather": level}
        if stochastic:
            sizes.update(half=d * m, second=factors * m, asym=d * d * m,
                         gradients=self._low * d * m, coupling=level, other=level)
        return sizes

    def _act(self, x, drift, diffusion, values, dpsi, work):
        """Fill values and dpsi (n, m) at points x (m, d) under the drift and
        the diffusion (or None), through the buffers of ``work`` (_action_sizes).

        The carre-du-champ recurrence of the class docstring, block by block:
        gathers are np.take and products ufuncs with out=, so no array is
        allocated (numpy's ufunc iterator may take its own buffers, of at
        most 8192 entries each), and each value is formed by the same
        operations in the same order whatever the buffers. The parents'
        gradients are kept as (low, d, m) in the positions of the action plan.
        """
        m, d = x.shape
        b, a = _action_coefficients(drift, diffusion, x.shape)
        order = 1 if a is None else 2
        factors = d * (self.max_degree + 1)
        tables = self._tables_in(x, order, work)
        values[0], dpsi[0] = 1.0, 0.0
        # L phi = b_w phi' + 1/2 a_ww phi'' for every univariate factor
        lphi = np.multiply(tables[1], b.T[:, None, :], out=work.view("lphi", tables.shape[1:]))
        grads = asym = None
        if a is not None:
            half = work.view("half", (d, m))
            np.multiply(0.5, np.diagonal(a, axis1=1, axis2=2).T, out=half)
            second = work.view("second", tables.shape[1:])
            np.add(lphi, np.multiply(tables[2], half[:, None, :], out=second), out=lphi)
            moved = np.moveaxis(a, 0, -1)
            asym = np.add(moved, np.swapaxes(moved, 0, 1), out=work.view("asym", (d, d, m)))
            asym = np.multiply(0.5, asym, out=asym).reshape(d * d, m)
            grads = work.view("gradients", (self._low, d * m))
            grads[0] = 0.0
        tables = tables.reshape(order + 1, factors, m)
        lphi = lphi.reshape(factors, m)
        for (rows, parents, factor), (at, start, g, grad_at, couplings) in zip(
            self._plan, self._action_plan
        ):
            phi, psi, term, gather = (
                work.view(name, (rows.size, m)) for name in ("phi", "psi", "term", "gather")
            )
            tables[0].take(factor, axis=0, out=phi, mode="clip")
            values.take(parents, axis=0, out=psi, mode="clip")
            dpsi.take(parents, axis=0, out=term, mode="clip")
            np.multiply(phi, term, out=term)
            lphi.take(factor, axis=0, out=gather, mode="clip")
            np.add(term, np.multiply(psi, gather, out=gather), out=term)
            if asym is not None and couplings:
                # (a_sym grad psi_p)_w over the parent's nonzero coordinates
                coupling = work.view("coupling", (rows.size, m))
                other = work.view("other", (rows.size, m))
                coupling[:] = 0.0
                for asym_rows, grad_rows in couplings:
                    asym.take(asym_rows, axis=0, out=gather, mode="clip")
                    grads.reshape(-1, m).take(grad_rows, axis=0, out=other, mode="clip")
                    np.add(coupling, np.multiply(gather, other, out=gather), out=coupling)
                tables[1].take(factor, axis=0, out=gather, mode="clip")
                np.add(term, np.multiply(coupling, gather, out=gather), out=term)
            dpsi[rows] = term
            if grads is not None and g:
                # d_i psi_e = phi d_i psi_p, but psi_p phi' at i = w (psi_p does not depend on x_w)
                dphi = tables[1].take(factor[:g], axis=0, out=gather[:g], mode="clip")
                grad = grads[start : start + g]
                grads[:start].take(at[:g], axis=0, out=grad, mode="clip")
                np.multiply(grad.reshape(g, d, m), phi[:g, None, :], out=grad.reshape(g, d, m))
                grad.reshape(g * d, m)[grad_at] = np.multiply(psi[:g], dphi, out=dphi)
            values[rows] = np.multiply(psi, phi, out=psi)


class Monomials(_SeparableBasis):
    """All monomials x^e with total degree |e| <= max_degree.

    The basis size is binom(d + max_degree, d); the constant term comes
    first. ``index_of((2, 1))`` locates x1^2 * x2, etc.
    """

    def _tables(self, x: np.ndarray, tables: np.ndarray) -> None:
        order = len(tables) - 1
        tables[0, :, 0] = 1.0
        tables[1:, :, 0] = 0.0
        # running products x^k = x^(k-1) x; (x^k)^(r) = k (x^(k-1))^(r-1)
        for k in range(1, self.max_degree + 1):
            np.multiply(tables[0, :, k - 1], x.T, out=tables[0, :, k])
            for r in range(1, order + 1):
                np.multiply(k, tables[r - 1, :, k - 1], out=tables[r, :, k])

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


def _legendre_tables(t: np.ndarray, K: int, tables: np.ndarray) -> None:
    """Legendre P_k(t) and its derivatives for k = 0..K via the standard
    recurrences, written into ``tables`` (order + 1, K + 1, m), one table per order."""
    P = tables[0]
    P[0] = 1.0
    if K >= 1:
        P[1] = t
    for k in range(1, K):
        P[k + 1] = ((2 * k + 1) * t * P[k] - k * P[k - 1]) / (k + 1)
    for r in range(1, len(tables)):
        # P^(r)_{k+1} = P^(r)_{k-1} + (2k + 1) P^(r-1)_k, with P'_1 = 1
        D = tables[r]
        D[:2] = 0.0
        if r == 1 and K >= 1:
            D[1] = 1.0
        for k in range(1, K):
            D[k + 1] = D[k - 1] + (2 * k + 1) * tables[r - 1][k]


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
        dom = _check_box(domain, "domain")
        super().__init__(dom.shape[0], max_degree)
        self.domain = dom
        # x = m0 + m1 * t maps t in [-1, 1] to [a, b]
        self._m0 = 0.5 * (dom[:, 0] + dom[:, 1])
        self._m1 = 0.5 * (dom[:, 1] - dom[:, 0])

    def _tables(self, x: np.ndarray, tables: np.ndarray) -> None:
        order = len(tables) - 1
        for j in range(self.dimension):
            t = (x[:, j] - self._m0[j]) / self._m1[j]
            if np.any(np.abs(t) > 1.0 + 1e-9):
                raise DomainError(
                    f"points outside Legendre domain {tuple(map(float, self.domain[j]))} "
                    f"in coordinate {j + 1}"
                )
            _legendre_tables(np.clip(t, -1.0, 1.0), self.max_degree, tables[:, j])
            # chain rule for x = m0 + m1 * t: the r-th derivative gains (1 / m1)^r
            s = 1.0 / self._m1[j]
            for r in range(1, order + 1):
                tables[r:, j] *= s

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

    def full_state_selector(self) -> np.ndarray:
        """Exact expansion x_j = sum_i C[i, j] psi_i(x), through P0 and P1."""
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
        if not 0 < bandwidth < np.inf:
            raise InputError("bandwidth must be positive and finite")
        self.centers = c
        self.bandwidth = float(bandwidth)
        self.size, self.dimension = c.shape

    def _displacements(self, x, D, scratch) -> None:
        """Fill D (n, m, d) with x - c; ``scratch`` is an (n, m, d) array to overwrite."""
        np.subtract(x[None, :, :], self.centers[:, None, :], out=D)

    def _exponential(self, x, values, work):
        """Fill values (n, m) at x; return the displacements, in the buffers of ``work``."""
        shape = (self.size, x.shape[0], self.dimension)
        D, DD = work.view("D", shape), work.view("DD", shape)
        self._displacements(x, D, DD)
        exponent = np.sum(np.multiply(D, D, out=DD), axis=2, out=work.view("exponent", shape[:2]))
        # -x / y and x / -y round alike, so this is exp(-|D|^2 / (2 s^2)) to the bit
        np.exp(np.divide(exponent, -2.0 * self.bandwidth**2, out=exponent), out=values)
        return D

    evaluate = Dictionary.evaluate  # a binding of its own, as in _SeparableBasis

    def _sizes(self, m, *args):
        n, d = self.size, self.dimension
        return {"D": n * m * d, "DD": n * m * d, "exponent": n * m}

    def _chunk_values(self):
        return self._chunk_call(self._sizes, self._exponential)

    def _chunk_action(self):
        return self._chunk_call(self._sizes, self._action)

    def _action(self, x, drift, diffusion, values, dpsi, work):
        # L psi = psi (-b . D / s^2 + 1/2 D^T a D / s^4 - 1/2 tr a / s^2), D = x - c
        b, a = _action_coefficients(drift, diffusion, x.shape)
        s2 = self.bandwidth**2
        D = self._exponential(x, values, work)  # (n, m, d)
        # the rate in brackets is formed in dpsi, then multiplied by psi in place
        rate = np.divide(np.einsum("li,kli->kl", b, D, out=dpsi), -s2, out=dpsi)
        if a is not None:
            # elementwise, so a point's D^T a D does not depend on the points
            # evaluated with it (einsum's batched matmul rounds a lone point differently)
            DaD, term = work.view("exponent", values.shape), work.view("DD", values.shape)
            DaD[:] = 0.0
            for i, j in itertools.product(range(self.dimension), repeat=2):
                np.multiply(np.multiply(D[:, :, i], a[:, i, j], out=term), D[:, :, j], out=term)
                np.add(DaD, term, out=DaD)
            np.divide(np.multiply(0.5, DaD, out=DaD), s2 * s2, out=DaD)
            trace = 0.5 * np.trace(a, axis1=1, axis2=2) / s2
            np.add(rate, np.subtract(DaD, trace, out=DaD), out=rate)
        np.multiply(rate, values, out=rate)

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


class PeriodicGaussianBasis(GaussianBasis):
    """One-dimensional Gaussians with the distance wrapped to the nearest period image."""

    def __init__(self, centers, bandwidth: float, period: float):
        if not 0 < period < np.inf:
            raise InputError("period must be positive and finite")
        super().__init__(np.reshape(centers, (-1, 1)), bandwidth)
        self.period = float(period)

    def _displacements(self, x, D, scratch) -> None:
        """Displacements wrapped into [-P/2, P/2], shape (n, m, 1)."""
        super()._displacements(x, D, scratch)
        np.round(np.divide(D, self.period, out=scratch), out=scratch)
        np.subtract(D, np.multiply(self.period, scratch, out=scratch), out=D)

    evaluate = Dictionary.evaluate  # a binding of its own, as in _SeparableBasis

    def labels(self) -> list[str]:
        return [f"gp({c:g})" for c in self.centers[:, 0]]

    def spec(self) -> dict:
        return {
            "kind": "periodic_gaussians",
            "centers": self.centers[:, 0].tolist(),
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
