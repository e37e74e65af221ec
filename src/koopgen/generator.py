"""Galerkin estimation of the Koopman generator from drift/diffusion data.

Given a dictionary psi and a sample set, the estimator needs at every data
point the values psi_k(x_l) and the generator action

    dpsi_k(x_l) = b(x_l) . grad psi_k(x_l) [ + 1/2 a(x_l) : hess psi_k(x_l) ]

and solves the least-squares problem dPsi ~ M Psi for the matrix M. The
coefficient-space generator is L = M^T: for f = c^T psi, the estimate of the
generator applied to f has coefficients L c.

One chunk walker feeds (psi, T) for consecutive samples into one streaming
fit, where T holds k regression targets per point (dpsi for gEDMD, psi at
the lagged points for EDMD, the drift for SINDy). Only the walker splits
samples, min(CHUNK, PANEL_ENTRIES // (n + k)) points at a time (at least
one), so no dictionary call sees more than CHUNK points and memory is
O((n + k)^2 + PANEL_ENTRIES * d) whatever the sample count m and the basis
width: a panel holds at most 1 MB, and every fit wider than 128 columns
takes fewer than CHUNK points a chunk. No (n, m) value matrix or
(n, m, d, d) Hessian tensor is stored.
Per chunk the fit folds the chunk into the triangular factor R of
[Psi^T | T^T] with LAPACK's triangular-pentagonal QR dtpqrt, which factors
R on top of the chunk without touching R's zero lower triangle (sequential
TSQR; Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 2012), in a
fixed chunk order, so reruns are bitwise identical. The fold overlaps the
walk: the calling thread builds chunk i and copies it into panel i % 2 of
two Fortran-ordered panels, while one worker thread folds chunk i - 1 from
the other panel into R; the caller waits only for fold i - 2 before it
refills a panel. dtpqrt is called by ctypes, which
releases the GIL for the call (scipy's f2py wrapper holds it, so a thread
around that would overlap nothing), from the LAPACK that numpy links: its
ILP64 symbol in numpy's linalg extension, so fitting loads no scipy. Only if
numpy exports none is it taken, at the first fold, from scipy's Cython
LAPACK table (32-bit integers). On a tensor basis no chunk allocates: the
two panels are allocated once per fit, a shorter last chunk takes their
leading entries, and the basis builds each chunk (values, gradients or the
generator action) in work arrays allocated at its first chunk
(Dictionary._chunk_evaluate, Dictionary._chunk_action), so a fit's memory
is R, two panels and one chunk's work arrays, and the allocator is not
asked for large blocks chunk after chunk. R is always (n + k) x (n + k);
when m < n + k its rows past the m-th are zero up to rounding.

R is the one statistic of the data, and every estimate keeps it:
[Psi^T | T^T] = Q R with orthonormal Q, so ||[Psi^T | T^T] v|| = ||R v|| for
every v. Any fit on a subset of columns, and its residual
||Psi^T C - T^T||_F = ||R[:, :n] C - R[:, n:]||_F, is therefore exact on the
n + k rows of R instead of the m rows of the data (_residual). With
R = [[R11, R12], [0, R22]], the coefficients are C = R11^+ R12 (_lstsq, the
one least-squares rule of the package); for gEDMD M^T = C, the
least-squares solution M = dPsi Psi^+. Rank and condition come from the
singular values of R11 under the relative cutoff SVD_CUTOFF. At full rank
C is one back substitution, R11 C = R12, by LAPACK's dtrtrs (the QR
least-squares solve; Golub & Van Loan, Matrix Computations, 5.3), taken
from the same LAPACK as dtpqrt; below it C = V S^-1 U^T R12 through the
SVD R11 = U S V^T, restricted to the resolved subspace. The Galerkin
matrices are read off R too: G_hat = R[:, :n]^T R[:, :n] / m =
R11^T R11 / m, A_hat = R[:, n:]^T R[:, :n] / m, and G_hat^+ =
m R11^-1 R11^-T at full rank, m V S^-2 V^T below it. Every product
X G_hat^+ goes through R11 by the same rule (_times_gram_pinv: two
triangular solves, or that SVD), never through G_hat, whose condition
number is the square of Psi's: the reversible estimate M = A_hat G_hat^+,
whose symmetric A_hat = -(1/2m) sum_l grad Psi a grad Psi^T needs no
Hessians, and the Perron-Frobenius adjoint M* = A_hat^T G_hat^+ of any
estimate.
"""

from __future__ import annotations

import ctypes
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dictionaries import Dictionary, _check_points, dictionary_from_spec
from .errors import InputError, LogBranchError, NumericalError, warn
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

CHUNK = 1024  # most points per chunk; fixed, so reruns are bitwise identical
PANEL_ENTRIES = 1 << 17  # most entries per chunk of a wide fit (a 1 MB float64 panel)
TPQRT_BLOCK = 16  # block size of dtpqrt's compact-WY reflectors
SVD_CUTOFF = 1e-10  # relative singular-value cutoff of every least-squares fit
LOG_BRANCH_TOL = 1e-12  # relative distance below which K_hat eigenvalues sit on the log cut


@dataclass
class GeneratorEstimate:
    """Result of a generator regression.

    M satisfies dPsi ~ M Psi (value-space); `L` (= M transposed) acts on
    coefficient vectors. R is the triangular factor of [Psi^T | T^T] (see
    the module docstring), read-only because derived estimates share it.
    A_hat is the structure matrix and `G_hat` the Gram matrix read off R.
    `rank` is the numerical rank of the dictionary value matrix Psi at
    `SVD_CUTOFF` relative tolerance, counted on the singular values of
    R11 (those of Psi), for every estimator; estimates derived from a fit,
    the Perron-Frobenius adjoint included, keep the fit's rank. `condition`
    is Psi's condition number on that rank, s_0 / s_rank of the same
    singular values (inf at rank 0, nan when unknown).
    """

    M: np.ndarray
    A_hat: np.ndarray
    R: np.ndarray
    rank: int
    dictionary: Optional[Dictionary]
    sample_count: int
    kind: str = "deterministic"
    condition: float = np.nan

    def __post_init__(self):
        self.R.flags.writeable = False

    @property
    def G_hat(self) -> np.ndarray:
        """Gram matrix Psi Psi^T / m = R11^T R11 / m."""
        n = self.M.shape[1]
        return self.R[:, :n].T @ self.R[:, :n] / self.sample_count

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


def _chunk_points(width):
    """Points per chunk of a fit `width` wide: min(CHUNK, PANEL_ENTRIES // width), at least 1."""
    return min(CHUNK, max(1, PANEL_ENTRIES // width))


def _walk(m, width, chunk):
    """Yield chunk(sl) for consecutive slices sl of m samples, _chunk_points(width) points each."""
    rows = _chunk_points(width)
    for start in range(0, m, rows):
        yield chunk(slice(start, min(start + rows, m)))


def _actions(dictionary, sample, diffusion=None):
    """Chunk sl -> (psi, dpsi); dpsi has the 1/2 a : hess psi term when `diffusion` is given.

    One chunk action of the dictionary serves the walk, so a chunk's arrays
    are overwritten by the next chunk's (tensor bases refill work arrays).
    """
    x, b, a = sample.points, sample.drift_samples, diffusion
    act = dictionary._chunk_action()
    return lambda sl: act(x[sl], b[sl], None if a is None else a[sl])


# the symbols of a LAPACK routine in numpy's linalg extension and the integer type
# each takes: numpy 2 wheels export the ILP64 OpenBLAS with a scipy_ prefix
_NUMPY_LAPACK = (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64))

# the arguments of each LAPACK routine called here: pointers, except the
# character flags, whose lengths Fortran takes as hidden trailing arguments
_LAPACK_ARGUMENTS = {
    "dtpqrt": [ctypes.c_void_p] * 12,
    "dtrtrs": [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 7 + [ctypes.c_size_t] * 3,
}


# OpenBLAS's thread-count setter and getter in numpy's linalg extension, by wheel
_NUMPY_BLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)


@functools.cache
def _numpy_linalg():
    """numpy's linalg extension opened by ctypes: the LAPACK and BLAS that numpy links."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


@functools.cache
def _lapack(routine):
    """(LAPACK `routine` as a ctypes foreign function, its integer type, "numpy" or "scipy").

    Resolved once per routine, at its first call: from the LAPACK that numpy
    links, under the first of _NUMPY_LAPACK's symbols that numpy's linalg
    extension exports, else from scipy's Cython LAPACK table with 32-bit
    integers. The arguments are _LAPACK_ARGUMENTS[routine]. A ctypes foreign
    call releases the GIL, so other Python threads run while it works.
    """
    signature = ctypes.CFUNCTYPE(None, *_LAPACK_ARGUMENTS[routine])
    for pattern, integer in _NUMPY_LAPACK:
        try:
            function = getattr(_numpy_linalg(), pattern.format(routine))
        except AttributeError:
            continue
        return signature(ctypes.cast(function, ctypes.c_void_p).value), integer, "numpy"
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__[routine]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return signature(get_pointer(capsule, get_name(capsule))), ctypes.c_int, "scipy"


def fold_lapack() -> str:
    """Which LAPACK folds R: "numpy" or "scipy" (see _lapack); the bits of R depend on it."""
    return _lapack("dtpqrt")[2]


def blas_threads(pin: bool = False) -> int | None:
    """Threads of numpy's OpenBLAS, first set to one, process-wide, if ``pin``.

    The bits of sums and products in BLAS depend on the thread count, and so
    do those of every fit. None when numpy's linalg extension exports none of
    _NUMPY_BLAS_THREADS's pairs; nothing is pinned then.
    """
    for setter, getter in _NUMPY_BLAS_THREADS:
        try:
            set_threads, get_threads = getattr(_numpy_linalg(), setter), getattr(_numpy_linalg(), getter)
        except AttributeError:
            continue
        if pin:
            set_threads(1)  # C int in, C int out: ctypes' default conversions
        return get_threads()
    return None


def _fold(R, B, T, work):
    """R <- triangular factor of [R; B] by dtpqrt, in place; B is overwritten.

    R (width x width) and B (rows x width) are Fortran-ordered; T and work
    are dtpqrt's (nb x width) block-reflector factor and (nb * width) workspace.
    """
    rows, width = B.shape
    nb = T.shape[0]
    arrays = (R, B, T, work)
    if not all(a.dtype == np.float64 and a.flags.f_contiguous for a in arrays) or (
        R.shape != (width, width) or T.shape[1] != width or work.size < nb * width
    ):
        raise ValueError("dtpqrt needs Fortran-ordered float64 arrays of matching sizes")
    dtpqrt, integer, _ = _lapack("dtpqrt")
    info = integer()

    def ref(value):
        return ctypes.byref(integer(value))

    dtpqrt(ref(rows), ref(width), ref(0), ref(nb), R.ctypes.data, ref(width),
           B.ctypes.data, ref(max(rows, 1)), T.ctypes.data, ref(nb), work.ctypes.data,
           ctypes.byref(info))
    if info.value:
        raise NumericalError(f"dtpqrt failed with info = {info.value}")


def _factor(chunk, m, width):
    """Triangular factor R of [Psi^T | T^T] over the (psi, T) chunks of _walk(m, width, chunk).

    The calling thread allocates two Fortran-ordered panels (one when a
    single chunk holds every point) and fills panel i % 2 with chunk i while
    one worker thread folds chunk i - 1 from the other panel into R. It
    waits only for fold i - 2 before it refills a panel, and folds run in
    chunk order, so R is that of the sequential fold. A chunk of r points
    takes the first width * r entries of its panel, so no chunk allocates;
    the worker runs nothing but dtpqrt.
    """
    R = np.zeros((width, width), order="F")
    nb = min(TPQRT_BLOCK, width)
    T, work = np.empty((nb, width), order="F"), np.empty(nb * width)
    points = min(m, _chunk_points(width))
    panels = [np.empty(width * points) for _ in range(1 if points == m else 2)]
    with ThreadPoolExecutor(max_workers=1) as folder:
        folds = []
        for i, (psi, targets) in enumerate(_walk(m, width, chunk)):
            if len(folds) == len(panels):
                folds.pop(0).result()
            # filled row by row, so its transpose is Fortran-ordered whatever the chunks' order
            rows = psi.shape[1]
            panel = panels[i % len(panels)][: width * rows].reshape(width, rows)
            panel[: psi.shape[0]] = psi
            panel[psi.shape[0] :] = targets
            folds.append(folder.submit(_fold, R, panel.T, T, work))
            del psi, targets  # the walk builds the next chunk without this one
        for fold in folds:
            fold.result()
    return R


def _svd(A):
    """SVD U S V^T of A under the SVD_CUTOFF rank rule.

    Returns U, s, V cut to the rank and A's condition s_0 / s_rank; warns below column rank.
    """
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.count_nonzero(s > SVD_CUTOFF * s[0])) if s.size else 0
    condition = float(s[0] / s[rank - 1]) if rank else np.inf
    if rank < A.shape[1]:
        warn(
            f"least-squares matrix is rank deficient ({rank} < {A.shape[1]}); "
            "solution restricted to the resolved subspace",
        )
    return U[:, :rank], s[:rank], Vt[:rank].T, condition


def _full_rank_triangular(A):
    """Condition s_0 / s_-1 of a square upper-triangular A that has full rank under
    the SVD_CUTOFF rule, from A's singular values alone; None for any other A."""
    n = A.shape[1]
    if A.shape[0] != n or not n or np.tril(A, -1).any():
        return None
    s = np.linalg.svd(A, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > SVD_CUTOFF * s[0] else None


def _trtrs(A, B, trans=b"N"):
    """X with A X = B (trans b"N") or A^T X = B (b"T") by LAPACK's dtrtrs, for a
    square upper-triangular A of full rank; B, a vector or a matrix, is kept."""
    n = A.shape[0]
    # a column-major A, such as R11 inside the factor R, is read in place
    if A.dtype != np.float64 or A.strides[0] != 8 or A.strides[1] < 8 * n:
        A = np.asfortranarray(A, dtype=np.float64)
    X = np.array(B.reshape(n, -1), dtype=np.float64, order="F")
    dtrtrs, integer, _ = _lapack("dtrtrs")
    info = integer()

    def ref(value):
        return ctypes.byref(integer(value))

    dtrtrs(b"U", trans, b"N", ref(n), ref(X.shape[1]), A.ctypes.data,
           ref(max(A.strides[1] // 8, 1)), X.ctypes.data, ref(max(n, 1)),
           ctypes.byref(info), 1, 1, 1)
    if info.value:
        raise NumericalError(f"dtrtrs failed with info = {info.value}")
    return X.reshape(B.shape)


def _lstsq(A, B):
    """Least-squares solution C = A^+ B, with A's rank and condition.

    B is a vector or a matrix; every regression of the package solves here. A
    square upper-triangular A of full rank (R11 of a fit) is solved by back
    substitution, its rank and condition taken from its singular values
    alone; any other A, and a rank-deficient one, through _svd(A).
    """
    condition = _full_rank_triangular(A)
    if condition is not None:
        return _trtrs(A, B), A.shape[1], condition
    U, s, V, condition = _svd(A)
    scale = s[:, None] if B.ndim == 2 else s
    return V @ ((U.T @ B) / scale), s.size, condition


def _residual(R, n, C) -> float:
    """||Psi^T C - T^T||_F = ||R[:, :n] C - R[:, n:]||_F, exact on the factor R."""
    return float(np.linalg.norm(R[:, :n] @ C - R[:, n:]))


def _times_gram_pinv(X, R, n, m):
    """X G_hat^+ with rank and condition, under _lstsq's rule for R11: m X R11^-1 R11^-T
    by two triangular solves at full rank, else m X V S^-2 V^T through the SVD of R11."""
    R11 = R[:n, :n]
    condition = _full_rank_triangular(R11)
    if condition is not None:
        # (X R11^-1)^T solves R11^T Y = X^T, and (X R11^-1 R11^-T)^T solves R11 Z = Y
        return m * _trtrs(R11, _trtrs(R11, X.T, b"T")).T, n, condition
    _, s, V, condition = _svd(R11)
    return m * (X @ (V / s**2)) @ V.T, s.size, condition


def _fit(chunk, m, n, k, dictionary, kind):
    """Streaming least-squares fit of k targets T ~ C^T Psi over _walk(m, n + k, chunk).

    The estimate keeps R; M = C^T, and A_hat = T Psi^T / m is read off R.
    """
    R = _factor(chunk, m, n + k)
    # Psi^T = Q R11 and T^T = Q R12 + (orthogonal rest), so C = R11^+ R12
    C, rank, condition = _lstsq(R[:n, :n], R[:n, n:])
    return GeneratorEstimate(
        M=C.T, A_hat=R[:, n:].T @ R[:, :n] / m, R=R, rank=rank, dictionary=dictionary,
        sample_count=m, kind=kind, condition=condition,
    )


def apply_generator_values(block, sample: SampleSet) -> np.ndarray:
    """dpsi_k(x_l) for all k, l: drift term plus (if present) diffusion term."""
    if sample.diffusion_samples is not None and block.hessians is None:
        raise InputError("diffusion samples present but the block has no Hessians")
    dpsi = np.einsum("li,kli->kl", sample.drift_samples, block.gradients)
    if sample.diffusion_samples is not None:
        dpsi = dpsi + 0.5 * np.einsum("lij,klij->kl", sample.diffusion_samples, block.hessians)
    return dpsi


def gedmd_deterministic(dictionary: Dictionary, sample: SampleSet) -> GeneratorEstimate:
    """Generator estimate for an ODE: dpsi = b . grad psi.

    `sample.drift_samples` may be exact vector-field values or trajectory
    derivatives. Any diffusion data on the sample set is ignored here; use
    :func:`gedmd_stochastic` to include it.
    """
    n = dictionary.size
    return _fit(_actions(dictionary, sample), sample.count, n, n, dictionary, "deterministic")


def gedmd_stochastic(dictionary: Dictionary, sample: SampleSet) -> GeneratorEstimate:
    """Generator estimate for an SDE: dpsi = b . grad psi + 1/2 a : hess psi."""
    if sample.diffusion_samples is None:
        raise InputError("gedmd_stochastic needs diffusion samples; got none")
    n = dictionary.size
    chunk = _actions(dictionary, sample, sample.diffusion_samples)
    return _fit(chunk, sample.count, n, n, dictionary, "stochastic")


def gedmd_reversible(dictionary: Dictionary, sample: SampleSet) -> GeneratorEstimate:
    """Reversible-system estimate using first derivatives only.

    A_hat = -(1/2m) sum_l grad Psi(x_l) a(x_l) grad Psi(x_l)^T requires points
    distributed according to the invariant measure and diffusion values
    a = sigma sigma^T on the sample set, exact or Kramers-Moyal estimates;
    A_hat is symmetrized, so it is symmetric to the last bit. The walk
    streams Psi alone (no targets) into R, and M = A_hat G_hat^+ is taken
    through R11 (_times_gram_pinv), so the cutoff and rank are those of Psi,
    as for the other estimators, not those of G_hat.
    """
    if sample.diffusion_samples is None:
        raise InputError("gedmd_reversible needs diffusion samples on the sample set")
    x, a = sample.points, sample.diffusion_samples
    n, m = dictionary.size, sample.count
    A = np.zeros((n, n))
    evaluate = dictionary._chunk_evaluate(gradients=True)
    products = None  # grad psi a per point, for the first (longest) chunk and the rest

    def chunk(sl):
        nonlocal products
        # A_hat's sum rides along with the walk that feeds the factor
        values, grads = evaluate(x[sl])
        if products is None or products.size < grads.size:
            products = np.empty(grads.size)
        Ga = products[: grads.size].reshape(grads.shape)
        np.einsum("kli,lij->klj", grads, a[sl], out=Ga)
        A[:] += Ga.reshape(n, -1) @ grads.reshape(n, -1).T
        return values, values[:0]

    R = _factor(chunk, m, n)
    A_hat = (A + A.T) / (-4.0 * m)
    M, rank, condition = _times_gram_pinv(A_hat, R, n, m)
    return GeneratorEstimate(
        M=M, A_hat=A_hat, R=R, rank=rank, dictionary=dictionary, sample_count=m,
        kind="reversible", condition=condition,
    )


def perron_frobenius_estimate(est: GeneratorEstimate) -> GeneratorEstimate:
    """Adjoint (Perron-Frobenius) generator, M* = A_hat^T G_hat^+.

    Built from the A_hat and R of a Koopman estimate; the returned object's
    `L` is the coefficient action on densities. G_hat^+ is taken through
    R11 under the rank rule of the fit (_times_gram_pinv), so the adjoint
    keeps the estimate's rank, that of Psi, and shares its R, rank and
    condition.
    """
    n = est.M.shape[1]
    M = _times_gram_pinv(est.A_hat.T, est.R, n, est.sample_count)[0]
    return replace(est, M=M, kind="perron-frobenius")


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
    if not 0 < lag < np.inf:
        raise InputError("lag must be positive and finite")
    x = _check_points(points, dictionary.dimension)
    y = _check_points(lagged_points, dictionary.dimension)
    if x.shape != y.shape:
        raise InputError("points and lagged_points must have equal counts")
    n, m = dictionary.size, x.shape[0]
    at_x, at_y = dictionary._chunk_evaluate(), dictionary._chunk_evaluate()
    est = _fit(lambda sl: (at_x(x[sl]), at_y(y[sl])), m, n, n, dictionary, "edmd-log")
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
    from scipy.linalg import logm  # imported on use, so importing koopgen loads no scipy

    Lm = logm(est.M) / lag
    if np.iscomplexobj(Lm):
        imag = np.max(np.abs(Lm.imag))
        if imag > 1e-8 * max(np.max(np.abs(Lm.real)), 1.0):
            warn(f"matrix log has imaginary residue {imag:.2e}")
        Lm = Lm.real
    return replace(est, M=Lm)


def estimate_to_dict(est: GeneratorEstimate) -> dict:
    """JSON-ready dict with dense row-major matrices and provenance; a
    non-finite ``condition`` is written as None."""
    return {
        "kind": est.kind,
        "M": est.M.tolist(),
        "A_hat": est.A_hat.tolist(),
        "R": est.R.tolist(),
        "rank": est.rank,
        "condition": est.condition if np.isfinite(est.condition) else None,
        "sample_count": est.sample_count,
        "rank_deficient": bool(est.rank_deficient),
        "dictionary": est.dictionary.spec() if est.dictionary is not None else None,
    }


def estimate_from_dict(payload: dict) -> GeneratorEstimate:
    """Inverse of ``estimate_to_dict``; a None condition is inf at rank 0, else nan."""
    spec = payload.get("dictionary")
    condition = payload.get("condition", np.nan)
    if condition is None:
        condition = np.inf if int(payload["rank"]) == 0 else np.nan
    return GeneratorEstimate(
        M=np.asarray(payload["M"], dtype=np.float64),
        A_hat=np.asarray(payload["A_hat"], dtype=np.float64),
        R=np.asarray(payload["R"], dtype=np.float64),
        rank=int(payload["rank"]),
        dictionary=dictionary_from_spec(spec) if spec else None,
        sample_count=int(payload["sample_count"]),
        kind=payload.get("kind", "deterministic"),
        condition=float(condition),
    )
