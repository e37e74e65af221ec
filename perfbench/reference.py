"""Closed-form references the benchmark checks koopgen's outputs against.

Nothing here imports koopgen: every expected value is built from the
mathematics of the test systems, so a check compares two independent
computations rather than the program against a stored copy of itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def exponents_up_to(dimension: int, degree: int) -> list[tuple[int, ...]]:
    """Every exponent tuple k with |k| <= degree, in no particular order."""
    return [
        k
        for k in itertools.product(range(degree + 1), repeat=dimension)
        if sum(k) <= degree
    ]


def ou_generator(exponents, alpha, diffusion) -> np.ndarray:
    """Generator of dX = -diag(alpha) X dt + B dW on monomials, value-space form.

    Row r holds the monomial coefficients of L x^k with k = exponents[r]:

        L x^k = -(alpha . k) x^k
                + 1/2 sum_i a_ii k_i (k_i - 1) x^(k - 2 e_i)
                + sum_{i<j} a_ij k_i k_j x^(k - e_i - e_j),

    with a = B B^T given as ``diffusion``.  The result M satisfies
    (L psi)(x) = M psi(x) for the monomial vector psi in the given order.
    """
    exps = [tuple(int(v) for v in k) for k in exponents]
    index = {k: r for r, k in enumerate(exps)}
    alpha = np.asarray(alpha, dtype=float)
    a = np.asarray(diffusion, dtype=float)
    d = alpha.shape[0]
    M = np.zeros((len(exps), len(exps)))
    for r, k in enumerate(exps):
        M[r, r] = -float(np.dot(alpha, k))
        for i in range(d):
            for j in range(i, d):
                lowered = list(k)
                lowered[i] -= 1
                lowered[j] -= 1
                if min(lowered) < 0:
                    continue
                if i == j:
                    coeff = 0.5 * a[i, i] * k[i] * (k[i] - 1)
                else:
                    coeff = a[i, j] * k[i] * k[j]
                M[r, index[tuple(lowered)]] += coeff
    return M


def ou_eigenvalues(alpha, degree: int) -> np.ndarray:
    """Sorted -(alpha . k) over |k| <= degree: the generator's spectrum there."""
    alpha = np.asarray(alpha, dtype=float)
    return np.sort(
        [-float(np.dot(alpha, k)) for k in exponents_up_to(alpha.shape[0], degree)]
    )


def parse_monomial(label: str, dimension: int) -> tuple[int, ...]:
    """Exponents of a monomial label such as ``x1^3*x2``; ``1`` is the constant."""
    exps = [0] * dimension
    if label != "1":
        for factor in label.split("*"):
            name, _, power = factor.partition("^")
            exps[int(name[1:]) - 1] += int(power) if power else 1
    return tuple(exps)


def ou_switched_mean(x0, inputs, boundaries, alpha, times) -> np.ndarray:
    """Mean of dX = -alpha (X - u) dt + noise under a switching schedule.

    ``boundaries`` are the segment edges t0 <= ... <= te; segment j holds
    input ``inputs[j % len(inputs)]``, over which the mean relaxes as
    u + (m - u) exp(-alpha (t - start)).  Evaluated at sorted ``times``.
    """
    times = np.asarray(times, dtype=float)
    out = np.empty_like(times)
    m = float(x0)
    seg = 0
    start = boundaries[0]
    for n, t in enumerate(times):
        while seg + 1 < len(boundaries) - 1 and boundaries[seg + 1] <= t:
            u = inputs[seg % len(inputs)]
            m = u + (m - u) * math.exp(-alpha * (boundaries[seg + 1] - start))
            start = boundaries[seg + 1]
            seg += 1
        u = inputs[seg % len(inputs)]
        out[n] = u + (m - u) * math.exp(-alpha * (t - start))
    return out


def tracking_objective(x0, inputs, boundaries, alpha, reference, panels=16) -> float:
    """Integral of (mean(t) - reference(t))^2 over the schedule's horizon.

    Composite Simpson rule with ``panels`` panels on every segment, so the
    integrand is smooth on each panel.
    """
    b = np.asarray(boundaries, dtype=float)
    simpson = np.ones(panels + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    segments = [(lo, hi) for lo, hi in zip(b[:-1], b[1:]) if hi > lo]
    nodes = np.concatenate([np.linspace(lo, hi, panels + 1) for lo, hi in segments])
    weights = np.concatenate([(hi - lo) / (3.0 * panels) * simpson for lo, hi in segments])
    err = ou_switched_mean(x0, inputs, b, alpha, nodes) - reference(nodes)
    return float(weights @ (err * err))


def double_well_terms() -> tuple[list[dict], list[dict]]:
    """Drift and diffusion polynomials of the 2-D double well, as exponent maps.

    V = (x1^2 - 1)^2 + x2^2 gives b = -grad V = (4 x1 - 4 x1^3, -2 x2);
    sigma = [[0.7, x1], [0, 0.5]] gives a = sigma sigma^T =
    [[0.49 + x1^2, 0.5 x1], [0.5 x1, 0.25]], listed over the upper
    triangle (1,1), (1,2), (2,2).
    """
    drift = [{(1, 0): 4.0, (3, 0): -4.0}, {(0, 1): -2.0}]
    diffusion = [{(0, 0): 0.49, (2, 0): 1.0}, {(1, 0): 0.5}, {(0, 0): 0.25}]
    return drift, diffusion


def duffing_energy(alpha: float, beta: float) -> dict:
    """Energy (alpha/2) x1^2 + (beta/4) x1^4 + x2^2 / 2 as an exponent map."""
    return {(2, 0): alpha / 2.0, (4, 0): beta / 4.0, (0, 2): 0.5}


def slow_manifold_eigenvalues(gamma: float, delta: float, degree: int) -> np.ndarray:
    """i gamma + j delta over i + 2 j <= degree.

    dx1 = gamma x1, dx2 = delta (x2 - x1^2) maps x1^i x2^j to
    (i gamma + j delta) x1^i x2^j - j delta x1^(i+2) x2^(j-1), which keeps
    the weighted degree i + 2 j.  Monomials of weighted degree <= degree lie
    in the total-degree-<= degree basis and span an invariant subspace, so
    these eigenvalues are exact for any estimate on that basis.
    """
    return np.array(
        [
            i * gamma + j * delta
            for j in range(degree // 2 + 1)
            for i in range(degree - 2 * j + 1)
        ]
    )
