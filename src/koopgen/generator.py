"""Galerkin estimation of the Koopman generator from drift/diffusion data.

Given a dictionary psi and a sample set, the estimator needs at every data
point the values psi_k(x_l) and the generator action

    dpsi_k(x_l) = b(x_l) . grad psi_k(x_l) [ + 1/2 a(x_l) : hess psi_k(x_l) ]

and solves the least-squares problem dPsi ~ M Psi for the matrix M. The
coefficient-space generator is L = M^T: for f = c^T psi, the estimate of the
generator applied to f has coefficients L c.

One chunk walker feeds (psi, T) for each CHUNK consecutive samples into one
streaming fit, where T holds k regression targets per point (dpsi for
gEDMD, psi at the lagged points for EDMD, the drift for SINDy). Memory is
O((n + k)^2 + (n + k) * CHUNK * d) whatever the sample count m; no (n, m)
value matrix or (n, m, d, d) Hessian tensor is stored. Per chunk the fit

* accumulates the sums T Psi^T and Psi Psi^T in a fixed chunk order, so
  reruns are bitwise identical (A_hat and G_hat are these over m), and
* updates the triangular factor R of the stacked matrix [Psi^T | T^T] by a
  QR factorization of R on top of the chunk (sequential TSQR).

R is the one least-squares statistic: [Psi^T | T^T] = Q R with orthonormal
Q, so ||[Psi^T | T^T] v|| = ||R v|| for every v. Any fit on a subset of
columns, and its residual, is therefore exact on the n + k rows of R instead
of the m rows of the data. With R = [[R11, R12], [0, R22]], the coefficients
C = R11^+ R12 come from an SVD of R11 with the relative cutoff SVD_CUTOFF;
for gEDMD M^T = C. This is the least-squares solution M = dPsi Psi^+ and,
unlike A_hat G_hat^+, does not square the condition number. Hard
thresholding re-solves on supports of R, and G_hat^+ = m R11^+ R11^+T.

A reversible-system shortcut builds A_hat from first derivatives only,
A_hat = -(1/2m) sum_l (grad Psi sigma)(grad Psi sigma)^T, which is symmetric
by construction and never touches Hessians; M = A_hat G_hat^+ is taken
through the same SVD of R11.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import linalg

from .dictionaries import (
    Dictionary,
    _check_points,
    _contract_generator,
    dictionary_from_spec,
)
from .errors import InputError, LogBranchError
from .models import SampleSet

__all__ = [
    "GeneratorEstimate",
    "gedmd_deterministic",
    "gedmd_stochastic",
    "gedmd_reversible",
    "perron_frobenius_estimate",
    "edmd_with_log",
    "estimate_to_dict",
    "estimate_from_dict",
]

CHUNK = 1024  # fixed accumulation chunk, keeps summation order reproducible
SVD_CUTOFF = 1e-10  # relative singular-value cutoff of every least-squares fit
LOG_BRANCH_TOL = 1e-12  # relative distance below which K_hat eigenvalues sit on the log cut


@dataclass
class GeneratorEstimate:
    """Result of a generator regression.

    M satisfies dPsi ~ M Psi (value-space); `L` (= M transposed) acts on
    coefficient vectors. A_hat and G_hat are the empirical structure and Gram
    matrices. `rank` is the numerical rank of the dictionary value matrix Psi
    at `SVD_CUTOFF` relative tolerance, counted on the singular values of
    R11 (those of Psi), for every estimator that fits from data, the
    reversible one included; :func:`perron_frobenius_estimate` carries over
    the rank of the estimate it is built from.
    """

    M: np.ndarray
    A_hat: np.ndarray
    G_hat: np.ndarray
    rank: int
    dictionary: Optional[Dictionary]
    sample_count: int
    kind: str = "deterministic"

    @property
    def L(self) -> np.ndarray:
        """Generator matrix acting on dictionary coefficient vectors."""
        return self.M.T

    @property
    def size(self) -> int:
        return self.M.shape[0]

    @property
    def rank_deficient(self) -> bool:
        """True when the fit resolves fewer directions than the estimate's size."""
        return self.rank < self.size


def _walk(m, chunk):
    """Yield chunk(sl) for consecutive CHUNK-point slices sl of m samples."""
    for start in range(0, m, CHUNK):
        yield chunk(slice(start, min(start + CHUNK, m)))


def _actions(dictionary, sample, diffusion=None):
    """(psi, dpsi) chunks; dpsi has the 1/2 a : hess psi term when `diffusion` is given."""
    x, b = sample.points, sample.drift_samples
    return _walk(
        sample.count,
        lambda sl: dictionary.generator_action(
            x[sl], b[sl], None if diffusion is None else diffusion[sl]
        ),
    )


def _fit(chunks, n, k, dictionary, sample_count, kind):
    """Streaming least-squares fit of k targets T ~ C^T Psi over (psi, T) chunks.

    Returns the estimate with M = C^T, A_hat = T Psi^T / m and
    G_hat = Psi Psi^T / m, the triangular factor R of [Psi^T | T^T], and
    the singular values s and right singular vectors V of R11 kept by the
    rank rule.
    """
    A = np.zeros((k, n))
    G = np.zeros((n, n))
    R = np.zeros((0, n + k))
    for psi, T in chunks:
        A += T @ psi.T
        G += psi @ psi.T
        R = np.linalg.qr(np.vstack([R, np.hstack([psi.T, T.T])]), mode="r")
    # Psi^T = Q R11 and T^T = Q R12 + (orthogonal rest), so C = R11^+ R12
    U, s, Vt = np.linalg.svd(R[:n, :n], full_matrices=False)
    rank = int(np.count_nonzero(s > SVD_CUTOFF * s[0])) if s.size else 0
    s, V = s[:rank], Vt[:rank].T
    C = V @ ((U[:, :rank].T @ R[:n, n:]) / s[:, None])
    if rank < n:
        warnings.warn(
            f"dictionary value matrix is rank deficient ({rank} < {n}); "
            "estimate restricted to the resolved subspace",
            stacklevel=3,
        )
    est = GeneratorEstimate(
        M=C.T,
        A_hat=A / sample_count,
        G_hat=G / sample_count,
        rank=rank,
        dictionary=dictionary,
        sample_count=sample_count,
        kind=kind,
    )
    return est, R, s, V


def apply_generator_values(block, sample: SampleSet) -> np.ndarray:
    """dpsi_k(x_l) for all k, l: drift term plus (if present) diffusion term."""
    if sample.diffusion_samples is not None and block.hessians is None:
        raise InputError("diffusion samples present but the block has no Hessians")
    return _contract_generator(
        block.gradients, block.hessians, sample.drift_samples, sample.diffusion_samples
    )


def gedmd_deterministic(dictionary: Dictionary, sample: SampleSet) -> GeneratorEstimate:
    """Generator estimate for an ODE: dpsi = b . grad psi.

    `sample.drift_samples` may be exact vector-field values or trajectory
    derivatives. Any diffusion data on the sample set is ignored here; use
    :func:`gedmd_stochastic` to include it.
    """
    n = dictionary.size
    chunks = _actions(dictionary, sample)
    return _fit(chunks, n, n, dictionary, sample.count, "deterministic")[0]


def gedmd_stochastic(dictionary: Dictionary, sample: SampleSet) -> GeneratorEstimate:
    """Generator estimate for an SDE: dpsi = b . grad psi + 1/2 a : hess psi."""
    if sample.diffusion_samples is None:
        raise InputError("gedmd_stochastic needs diffusion samples; got none")
    n = dictionary.size
    chunks = _actions(dictionary, sample, sample.diffusion_samples)
    return _fit(chunks, n, n, dictionary, sample.count, "stochastic")[0]


def gedmd_reversible(dictionary: Dictionary, sample: SampleSet) -> GeneratorEstimate:
    """Reversible-system estimate using first derivatives only.

    A_hat = -(1/2m) sum_l (grad Psi(x_l) sigma(x_l)) (grad Psi(x_l) sigma(x_l))^T
    requires points distributed according to the invariant measure and sigma
    values on the sample set; A_hat is symmetric by construction. The fit
    streams Psi alone (no targets), and M = A_hat G_hat^+ is taken through
    the SVD of its R factor, G_hat^+ = m V S^-2 V^T. The cutoff and rank are
    therefore those of Psi, as for the other estimators, not of G_hat,
    whose condition number is the square of Psi's.
    """
    if sample.sigma_samples is None:
        raise InputError("gedmd_reversible needs sigma samples on the sample set")
    x, sigma = sample.points, sample.sigma_samples
    n, m = dictionary.size, sample.count
    A = np.zeros((n, n))

    def chunk(sl):
        # A_hat's sum rides along with the walk that feeds the fit
        blk = dictionary.evaluate(x[sl])
        W = np.einsum("kli,lis->kls", blk.gradients, sigma[sl]).reshape(n, -1)
        A[:] += W @ W.T
        return blk.values, blk.values[:0]

    est, _, s, V = _fit(_walk(m, chunk), n, 0, dictionary, m, "reversible")
    A_hat = A / (-2.0 * m)
    return replace(est, M=m * (A_hat @ (V / s**2)) @ V.T, A_hat=A_hat)


def perron_frobenius_estimate(est: GeneratorEstimate) -> GeneratorEstimate:
    """Adjoint (Perron-Frobenius) generator, M* = A_hat^T G_hat^+.

    Built from the stored Gram matrices of a Koopman estimate; the returned
    object's `L` is the coefficient action on densities. G_hat^+ keeps the
    top ``est.rank`` eigenpairs of G_hat, so the adjoint has the rank of the
    estimate it is built from (that of Psi). G_hat holds the squares of
    Psi's singular values, so eigenvalues below size * eps times the largest
    are rounding noise; when the estimate's rank reaches into them, only
    the eigenpairs above that floor are kept, with a warning.
    """
    lam, V = np.linalg.eigh(est.G_hat)
    lam, V = lam[::-1], V[:, ::-1]
    floor = est.size * np.finfo(float).eps * lam[0]
    rank = min(est.rank, int(np.count_nonzero(lam > floor)))
    if rank < est.rank:
        warnings.warn(
            f"G_hat resolves only {rank} of the estimate's rank {est.rank}; "
            f"the Perron-Frobenius estimate keeps {rank} eigenpairs",
            stacklevel=2,
        )
    lam, V = lam[:rank], V[:, :rank]
    return GeneratorEstimate(
        M=(est.A_hat.T @ V / lam) @ V.T,
        A_hat=est.A_hat,
        G_hat=est.G_hat,
        rank=rank,
        dictionary=est.dictionary,
        sample_count=est.sample_count,
        kind="perron-frobenius",
    )


def edmd_with_log(
    points,
    lagged_points,
    dictionary: Dictionary,
    lag: float,
) -> GeneratorEstimate:
    """Finite-time EDMD estimate K_hat plus (1/lag) times its principal matrix log.

    K_hat = Psi(Y) Psi(X)^+ is the streamed fit with the lagged values as
    targets (k = n), so A_hat = Psi(Y) Psi(X)^T / m and `rank` is that of
    Psi(X). Fails with LogBranchError when K_hat has an eigenvalue on the
    closed negative real axis, where the principal logarithm is not defined.
    """
    if lag <= 0:
        raise InputError("lag must be positive")
    x = _check_points(points, dictionary.dimension)
    y = _check_points(lagged_points, dictionary.dimension)
    if x.shape != y.shape:
        raise InputError("points and lagged_points must have equal counts")
    n, m = dictionary.size, x.shape[0]
    chunks = _walk(
        m, lambda sl: (dictionary.evaluate(x[sl]).values, dictionary.evaluate(y[sl]).values)
    )
    est = _fit(chunks, n, n, dictionary, m, "edmd-log")[0]
    eigs = np.linalg.eigvals(est.M)
    scale = max(np.max(np.abs(eigs)), 1.0)
    on_branch_cut = (np.abs(eigs) <= LOG_BRANCH_TOL * scale) | (
        (eigs.real < 0) & (np.abs(eigs.imag) <= LOG_BRANCH_TOL * scale)
    )
    if np.any(on_branch_cut):
        bad = eigs[on_branch_cut][0]
        raise LogBranchError(
            f"transfer-matrix eigenvalue {bad:.3e} lies on the closed negative real "
            "axis; the principal logarithm is undefined (shorten the lag or change "
            "the dictionary)"
        )
    Lm = linalg.logm(est.M) / lag
    if np.iscomplexobj(Lm):
        imag = np.max(np.abs(Lm.imag))
        if imag > 1e-8 * max(np.max(np.abs(Lm.real)), 1.0):
            warnings.warn(f"matrix log has imaginary residue {imag:.2e}", stacklevel=2)
        Lm = Lm.real
    return replace(est, M=Lm)


def estimate_to_dict(est: GeneratorEstimate) -> dict:
    """JSON-ready dict with dense row-major matrices and provenance."""
    return {
        "kind": est.kind,
        "M": est.M.tolist(),
        "A_hat": est.A_hat.tolist(),
        "G_hat": est.G_hat.tolist(),
        "rank": est.rank,
        "sample_count": est.sample_count,
        "rank_deficient": bool(est.rank_deficient),
        "dictionary": est.dictionary.spec() if est.dictionary is not None else None,
    }


def estimate_from_dict(payload: dict) -> GeneratorEstimate:
    spec = payload.get("dictionary")
    return GeneratorEstimate(
        M=np.asarray(payload["M"], dtype=np.float64),
        A_hat=np.asarray(payload["A_hat"], dtype=np.float64),
        G_hat=np.asarray(payload["G_hat"], dtype=np.float64),
        rank=int(payload["rank"]),
        dictionary=dictionary_from_spec(spec) if spec else None,
        sample_count=int(payload["sample_count"]),
        kind=payload.get("kind", "deterministic"),
    )
