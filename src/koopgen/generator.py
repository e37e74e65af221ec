"""Galerkin estimation of the Koopman generator from drift/diffusion data.

Given a dictionary psi and a sample set, the estimator needs at every data
point the values psi_k(x_l) and the generator action

    dpsi_k(x_l) = b(x_l) . grad psi_k(x_l) [ + 1/2 a(x_l) : hess psi_k(x_l) ]

and solves the least-squares problem dPsi ~ M Psi for the matrix M. The
coefficient-space generator is L = M^T: for f = c^T psi, the estimate of the
generator applied to f has coefficients L c.

One chunk walker feeds (psi, dpsi) for each CHUNK consecutive samples into
one streaming fit, so memory is O(n^2 + n * CHUNK * d) whatever the sample
count; no (n, m) value matrix or (n, m, d, d) Hessian tensor is stored.
Per chunk the fit

* accumulates the Gram matrices A_hat = (1/m) dPsi Psi^T and
  G_hat = (1/m) Psi Psi^T in a fixed chunk order, so reruns are bitwise
  identical, and
* updates the triangular factor R of the stacked matrix [Psi^T | dPsi^T]
  by a QR factorization of R on top of the chunk (sequential TSQR).

With R = [[R11, R12], [0, R22]], M^T = R11^+ R12, taken through an SVD of
R11 with a relative singular-value cutoff. This is the least-squares
solution M = dPsi Psi^+ and, unlike A_hat G_hat^+, does not square the
condition number.

A reversible-system shortcut builds A_hat from first derivatives only,
A_hat = -(1/2m) sum_l (grad Psi sigma)(grad Psi sigma)^T, which is symmetric
by construction and never touches Hessians.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg

from .dictionaries import (
    Dictionary,
    EvaluationBlock,
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
DEFAULT_SVD_CUTOFF = 1e-10


@dataclass
class GeneratorEstimate:
    """Result of a generator regression.

    M satisfies dPsi ~ M Psi (value-space); `L` (= M transposed) acts on
    coefficient vectors. A_hat and G_hat are the empirical structure and Gram
    matrices; `rank` is the numerical rank of the dictionary value matrix at
    `svd_cutoff` relative tolerance.
    """

    M: np.ndarray
    A_hat: np.ndarray
    G_hat: np.ndarray
    rank: int
    svd_cutoff: float
    dictionary: Optional[Dictionary]
    sample_count: int
    kind: str = "deterministic"
    rank_deficient: bool = False

    @property
    def L(self) -> np.ndarray:
        """Generator matrix acting on dictionary coefficient vectors."""
        return self.M.T

    @property
    def size(self) -> int:
        return self.M.shape[0]


def _chunked_gram(dpsi: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n, m = psi.shape
    A = np.zeros((n, n))
    G = np.zeros((n, n))
    for start in range(0, m, CHUNK):
        sl = slice(start, min(start + CHUNK, m))
        A += dpsi[:, sl] @ psi[:, sl].T
        G += psi[:, sl] @ psi[:, sl].T
    return A / m, G / m


def _solve_m(psi: np.ndarray, dpsi: np.ndarray, svd_cutoff: float):
    """Least-squares M = dPsi Psi^+ with a relative singular-value cutoff."""
    sol, _, rank, _ = np.linalg.lstsq(psi.T, dpsi.T, rcond=svd_cutoff)
    return sol.T, int(rank)


def _walk(dictionary, sample, block, *, diffusion=None, sigma=None):
    """Yield (psi, dpsi) for consecutive CHUNK-point slices of the sample.

    dpsi is the generator action b . grad psi, plus 1/2 a : hess psi when
    `diffusion` is given; with `sigma` it is instead grad psi . sigma laid
    out as an (n, chunk * s) matrix.  Without a `block` each slice is
    evaluated afresh; with one, the block's slice is contracted.
    """
    m = sample.count
    for start in range(0, m, CHUNK):
        sl = slice(start, min(start + CHUNK, m))
        if sigma is not None:
            if block is None:
                blk = dictionary.evaluate(sample.points[sl])
                psi, grads = blk.values, blk.gradients
            else:
                psi, grads = block.values[:, sl], block.gradients[:, sl]
            W = np.einsum("kli,lis->kls", grads, sigma[sl])
            yield psi, W.reshape(W.shape[0], -1)
            continue
        drift = sample.drift_samples[sl]
        a = None if diffusion is None else diffusion[sl]
        if block is None:
            yield dictionary.generator_action(sample.points[sl], drift, a)
        else:
            hess = None if a is None else block.hessians[:, sl]
            yield block.values[:, sl], _contract_generator(
                block.gradients[:, sl], hess, drift, a
            )


def _fit(chunks, n, dictionary, sample_count, svd_cutoff, kind) -> GeneratorEstimate:
    """Streaming least-squares fit of dPsi ~ M Psi over (psi, dpsi) chunks."""
    A = np.zeros((n, n))
    G = np.zeros((n, n))
    R = np.zeros((0, 2 * n))
    for psi, dpsi in chunks:
        A += dpsi @ psi.T
        G += psi @ psi.T
        R = np.linalg.qr(np.vstack([R, np.hstack([psi.T, dpsi.T])]), mode="r")
    # Psi^T = Q R11 and dPsi^T = Q R12 + (orthogonal rest), so M^T = R11^+ R12
    U, s, Vt = np.linalg.svd(R[:n, :n], full_matrices=False)
    rank = int(np.count_nonzero(s > svd_cutoff * s[0])) if s.size else 0
    M = (Vt[:rank].T @ ((U[:, :rank].T @ R[:n, n:]) / s[:rank, None])).T
    deficient = rank < n
    if deficient:
        warnings.warn(
            f"dictionary value matrix is rank deficient ({rank} < {n}); "
            "estimate restricted to the resolved subspace",
            stacklevel=3,
        )
    return GeneratorEstimate(
        M=M,
        A_hat=A / sample_count,
        G_hat=G / sample_count,
        rank=rank,
        svd_cutoff=svd_cutoff,
        dictionary=dictionary,
        sample_count=sample_count,
        kind=kind,
        rank_deficient=deficient,
    )


def _basis_size(dictionary, sample, block, with_hessians=False) -> int:
    """Number of basis functions, after checking a given block against the sample."""
    if block is None:
        return dictionary.size
    if block.values.shape[1] != sample.count:
        raise InputError("evaluation block does not match the sample set")
    if with_hessians and block.hessians is None:
        raise InputError("evaluation block lacks Hessians")
    return block.size


def apply_generator_values(block: EvaluationBlock, sample: SampleSet) -> np.ndarray:
    """dpsi_k(x_l) for all k, l: drift term plus (if present) diffusion term."""
    if sample.diffusion_samples is not None and block.hessians is None:
        raise InputError("diffusion samples present but the block has no Hessians")
    return _contract_generator(
        block.gradients, block.hessians, sample.drift_samples, sample.diffusion_samples
    )


def gedmd_deterministic(
    dictionary: Dictionary,
    sample: SampleSet,
    *,
    block: EvaluationBlock | None = None,
    svd_cutoff: float = DEFAULT_SVD_CUTOFF,
) -> GeneratorEstimate:
    """Generator estimate for an ODE: dpsi = b . grad psi.

    `sample.drift_samples` may be exact vector-field values or trajectory
    derivatives. Any diffusion data on the sample set is ignored here; use
    :func:`gedmd_stochastic` to include it.
    """
    n = _basis_size(dictionary, sample, block)
    chunks = _walk(dictionary, sample, block)
    return _fit(chunks, n, dictionary, sample.count, svd_cutoff, "deterministic")


def gedmd_stochastic(
    dictionary: Dictionary,
    sample: SampleSet,
    *,
    block: EvaluationBlock | None = None,
    svd_cutoff: float = DEFAULT_SVD_CUTOFF,
) -> GeneratorEstimate:
    """Generator estimate for an SDE: dpsi = b . grad psi + 1/2 a : hess psi."""
    if sample.diffusion_samples is None:
        raise InputError("gedmd_stochastic needs diffusion samples; got none")
    n = _basis_size(dictionary, sample, block, with_hessians=True)
    chunks = _walk(dictionary, sample, block, diffusion=sample.diffusion_samples)
    return _fit(chunks, n, dictionary, sample.count, svd_cutoff, "stochastic")


def gedmd_reversible(
    dictionary: Dictionary,
    sample: SampleSet,
    *,
    block: EvaluationBlock | None = None,
    svd_cutoff: float = DEFAULT_SVD_CUTOFF,
) -> GeneratorEstimate:
    """Reversible-system estimate using first derivatives only.

    A_hat = -(1/2m) sum_l (grad Psi(x_l) sigma(x_l)) (grad Psi(x_l) sigma(x_l))^T
    requires points distributed according to the invariant measure and sigma
    values on the sample set; the result is symmetric by construction.
    """
    if sample.sigma_samples is None:
        raise InputError("gedmd_reversible needs sigma samples on the sample set")
    n = _basis_size(dictionary, sample, block)
    m = sample.count
    A = np.zeros((n, n))
    G = np.zeros((n, n))
    for psi, W in _walk(dictionary, sample, block, sigma=sample.sigma_samples):
        A += W @ W.T
        G += psi @ psi.T
    A /= -2.0 * m
    G /= m
    sol, _, rank, _ = np.linalg.lstsq(G, A.T, rcond=svd_cutoff)
    M = sol.T
    deficient = rank < n
    if deficient:
        warnings.warn(f"Gram matrix is rank deficient ({rank} < {n})", stacklevel=2)
    return GeneratorEstimate(
        M=M,
        A_hat=A,
        G_hat=G,
        rank=int(rank),
        svd_cutoff=svd_cutoff,
        dictionary=dictionary,
        sample_count=m,
        kind="reversible",
        rank_deficient=deficient,
    )


def perron_frobenius_estimate(est: GeneratorEstimate) -> GeneratorEstimate:
    """Adjoint (Perron-Frobenius) generator, M* = A_hat^T G_hat^+.

    Built from the stored Gram matrices of a Koopman estimate; the returned
    object's `L` is the coefficient action on densities.
    """
    sol, _, rank, _ = np.linalg.lstsq(est.G_hat, est.A_hat, rcond=est.svd_cutoff)
    # sol = G^+ A, so M* = A^T G^+ = sol^T by symmetry of G
    return GeneratorEstimate(
        M=sol.T,
        A_hat=est.A_hat,
        G_hat=est.G_hat,
        rank=int(rank),
        svd_cutoff=est.svd_cutoff,
        dictionary=est.dictionary,
        sample_count=est.sample_count,
        kind="perron-frobenius",
        rank_deficient=rank < est.size,
    )


def edmd_with_log(
    points,
    lagged_points,
    dictionary: Dictionary,
    lag: float,
    *,
    svd_cutoff: float = DEFAULT_SVD_CUTOFF,
    branch_tol: float = 1e-12,
) -> GeneratorEstimate:
    """Finite-time EDMD estimate K_hat plus (1/lag) times its principal matrix log.

    Fails with LogBranchError when K_hat has an eigenvalue on the closed
    negative real axis, where the principal logarithm is not defined.
    """
    if lag <= 0:
        raise InputError("lag must be positive")
    px = dictionary.evaluate(points).values
    py = dictionary.evaluate(lagged_points).values
    if px.shape != py.shape:
        raise InputError("points and lagged_points must have equal counts")
    K, rank = _solve_m(px, py, svd_cutoff)
    eigs = np.linalg.eigvals(K)
    scale = max(np.max(np.abs(eigs)), 1.0)
    on_branch_cut = (np.abs(eigs) <= branch_tol * scale) | (
        (eigs.real < 0) & (np.abs(eigs.imag) <= branch_tol * scale)
    )
    if np.any(on_branch_cut):
        bad = eigs[on_branch_cut][0]
        raise LogBranchError(
            f"transfer-matrix eigenvalue {bad:.3e} lies on the closed negative real "
            "axis; the principal logarithm is undefined (shorten the lag or change "
            "the dictionary)"
        )
    Lm = linalg.logm(K) / lag
    if np.iscomplexobj(Lm):
        imag = np.max(np.abs(Lm.imag))
        if imag > 1e-8 * max(np.max(np.abs(Lm.real)), 1.0):
            warnings.warn(f"matrix log has imaginary residue {imag:.2e}", stacklevel=2)
        Lm = Lm.real
    m = px.shape[1]
    return GeneratorEstimate(
        M=Lm,
        A_hat=py @ px.T / m,
        G_hat=px @ px.T / m,
        rank=rank,
        svd_cutoff=svd_cutoff,
        dictionary=dictionary,
        sample_count=m,
        kind="edmd-log",
        rank_deficient=rank < px.shape[0],
    )


def estimate_to_dict(est: GeneratorEstimate) -> dict:
    """JSON-ready dict with dense row-major matrices and provenance."""
    return {
        "kind": est.kind,
        "M": est.M.tolist(),
        "A_hat": est.A_hat.tolist(),
        "G_hat": est.G_hat.tolist(),
        "rank": est.rank,
        "svd_cutoff": est.svd_cutoff,
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
        svd_cutoff=float(payload["svd_cutoff"]),
        dictionary=dictionary_from_spec(spec) if spec else None,
        sample_count=int(payload["sample_count"]),
        kind=payload.get("kind", "deterministic"),
        rank_deficient=bool(payload.get("rank_deficient", False)),
    )
