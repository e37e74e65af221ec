"""Eigen-analysis of generator estimates.

Diagonalizing the matrix L acting on coefficient vectors yields eigenvalues
(decay rates), eigenfunctions phi_l(x) = xi_l^T psi(x), implied time scales
|1 / Re lambda_l| (inf below a rounding floor), Koopman modes of the
full-state observable, and conserved quantities extracted from the
lambda = 0 eigenspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dictionaries import Dictionary
from .errors import InputError, NumericalError, warn
from .generator import GeneratorEstimate

__all__ = [
    "SpectralDecomposition",
    "ModeDecomposition",
    "decompose",
    "eigenfunction_values",
    "koopman_modes",
    "reconstruct_drift",
    "conserved_quantities",
]

#: relative threshold below which an eigenvector entry is treated as zero
#: when picking the trailing coefficient for the mode convention.
SIGNIFICANT_ENTRY_TOL = 1e-8

#: modes with 2-norm above this are reported in ``active_indices``.
MODE_TOL = 1e-8

# eigenvalues closer than this, relative to the largest eigenvalue magnitude,
# are tied for sorting
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a generator matrix acting on coefficient vectors.

    Attributes
    ----------
    eigenvalues : (n,) complex ndarray
        Sorted by descending real part; ties broken by ascending imaginary
        part, then by lexicographic order of the eigenvector entries.
    eigenvectors : (n, n) complex ndarray
        Columns xi_l, each scaled so its largest-magnitude entry is exactly
        real positive 1.
    generator : (n, n) ndarray
        The matrix L whose eigenpairs these are.
    dictionary : Dictionary or None
        Basis the coefficient vectors refer to, when known.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    generator: np.ndarray
    dictionary: Dictionary | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def timescales(self) -> np.ndarray:
        """|1 / Re lambda_l|; inf at or below the rounding floor n eps max_ij |L_ij|."""
        re = np.abs(self.eigenvalues.real)
        floor = self.size * np.finfo(float).eps * np.abs(self.generator).max(initial=0.0)
        with np.errstate(divide="ignore"):
            return np.where(re > floor, 1.0 / re, np.inf)

    def residuals(self) -> np.ndarray:
        """Per-eigenpair ||L xi_l - lambda_l xi_l||_2: it checks the eigensolver, not the fit.

        On Duffing it reads at most 3.4e-15 where leading data residuals are 0.75-1.03."""
        R = self.generator @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return np.linalg.norm(R, axis=0)


@dataclass(frozen=True)
class ModeDecomposition:
    """Koopman modes of the full-state observable.

    The columns of ``modes`` are the vectors v_l in the expansion
    b(x) = sum_l lambda_l phi_l(x) v_l.  The eigenvector matrix stored here
    is rescaled to the trailing-coefficient convention (last significant
    coefficient of each eigenvector equals 1) and the modes carry the
    inverse factors, so the expansion is unchanged while individual
    mode values are reported in that convention.  ``active_indices`` lists
    the modes with 2-norm above ``MODE_TOL``.
    """

    modes: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    selector: np.ndarray
    active_indices: np.ndarray


def _normalize_columns(vectors: np.ndarray) -> np.ndarray:
    """Scale each column so its largest-magnitude entry is real positive 1."""
    out = vectors.copy()
    for l in range(out.shape[1]):
        col = out[:, l]
        j = int(np.argmax(np.abs(col)))
        if col[j] != 0:
            out[:, l] = col / col[j]
            out[j, l] = 1.0  # complex division may be one ulp off x/x
    return out


def _sort_eigenpairs(values: np.ndarray, vectors: np.ndarray):
    """Descending real part; ties by ascending imaginary part, then by
    lexicographic order of the (normalized) eigenvector entries.

    Consecutive eigenvalues within _TIE_RTOL of the largest magnitude of the
    first of them count as tied, so a double zero computed as +-1e-15 is
    ordered by its eigenvectors and not by rounding noise.
    """
    order = np.lexsort((values.imag, -values.real))
    values = values[order]
    vectors = vectors[:, order]
    tol = _TIE_RTOL * np.abs(values).max(initial=0.0)
    i = 0
    n = values.shape[0]
    while i < n:
        j = i + 1
        while j < n and abs(values[j] - values[i]) <= tol:
            j += 1
        if j - i > 1:
            cols = sorted(
                range(i, j),
                key=lambda c: tuple(
                    (vectors[r, c].real, vectors[r, c].imag)
                    for r in range(vectors.shape[0])
                ),
            )
            values[i:j] = values[cols]
            vectors[:, i:j] = vectors[:, cols]
        i = j
    return values, vectors


def decompose(est) -> SpectralDecomposition:
    """Eigendecomposition of a generator estimate.

    Parameters
    ----------
    est : GeneratorEstimate or (n, n) array_like
        An estimate (its matrix ``L = M^T`` acting on coefficient vectors is
        decomposed) or the coefficient-space generator matrix directly.

    Returns
    -------
    SpectralDecomposition
        Eigenvalues sorted by descending real part, near-ties by eigenvector;
        eigenvectors normalized so the largest-magnitude entry of each is
        real positive 1.

    Raises
    ------
    InputError
        If the matrix contains non-finite entries.
    NumericalError
        If the eigenvalue iteration fails to converge.
    """
    if isinstance(est, GeneratorEstimate):
        L = est.L
        dictionary = est.dictionary
    else:
        L = np.asarray(est, dtype=float)
        dictionary = None
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise InputError(f"expected a square matrix, got shape {L.shape}")
    if not np.all(np.isfinite(L)):
        raise InputError("generator matrix contains non-finite entries")
    try:
        values, vectors = np.linalg.eig(L)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalError(
            f"eigenvalue solver failed for {L.shape[0]}x{L.shape[0]} matrix "
            f"(condition number {np.linalg.cond(L):.3e}): {exc}"
        ) from exc
    vectors = _normalize_columns(vectors)
    values, vectors = _sort_eigenpairs(values, vectors)
    return SpectralDecomposition(
        eigenvalues=values, eigenvectors=vectors, generator=L, dictionary=dictionary
    )


def eigenfunction_values(
    dec: SpectralDecomposition, dictionary: Dictionary | None, points
) -> np.ndarray:
    """Evaluate all eigenfunctions phi_l(x) = xi_l^T psi(x) at points.

    Parameters
    ----------
    dec : SpectralDecomposition
    dictionary : Dictionary or None
        Defaults to the dictionary stored on the decomposition.
    points : (m, d) array_like

    Returns
    -------
    (m, n) complex ndarray
        Column l holds the values of eigenfunction l.
    """
    if dictionary is None:
        dictionary = dec.dictionary
    if dictionary is None:
        raise InputError("no dictionary available to evaluate eigenfunctions")
    return (dec.eigenvectors.T @ dictionary.values(points)).T


def _trailing_rescale(eigenvectors: np.ndarray):
    """Per-column factors s_l so that dividing by s_l puts the last
    significant coefficient of each eigenvector at exactly 1."""
    n = eigenvectors.shape[1]
    factors = np.ones(n, dtype=complex)
    for l in range(n):
        col = eigenvectors[:, l]
        mags = np.abs(col)
        top = mags.max()
        if top == 0:
            continue
        significant = np.nonzero(mags > SIGNIFICANT_ENTRY_TOL * top)[0]
        factors[l] = col[significant[-1]]
    return factors


def koopman_modes(
    dec: SpectralDecomposition,
    selector: np.ndarray | None = None,
) -> ModeDecomposition:
    """Koopman modes of the full-state observable g(x) = x.

    Solves B = Xi V^T for the mode matrix V (d x n), so that
    b(x) = Re sum_l lambda_l phi_l(x) v_l.  Each (eigenvector, mode) pair is
    then jointly rescaled to the trailing-coefficient convention: the last
    significant coefficient of xi_l is set to 1 and v_l absorbs the factor,
    leaving the expansion unchanged.  For graded polynomial bases this
    reports each eigenfunction with unit leading (highest-degree)
    coefficient.

    Parameters
    ----------
    dec : SpectralDecomposition
    selector : (n, d) ndarray, optional
        Selector B with x = B^T psi(x); defaults to the stored dictionary's
        full-state selector.

    Warns
    -----
    UserWarning
        If the eigenvector matrix is singular; a pseudoinverse is used.
    """
    if selector is None:
        if dec.dictionary is None:
            raise InputError("no dictionary available; pass the selector explicitly")
        selector = dec.dictionary.full_state_selector()
    selector = np.asarray(selector, dtype=float)
    if selector.shape[0] != dec.size:
        raise InputError(
            f"selector has {selector.shape[0]} rows, expected {dec.size}"
        )
    try:
        vt = np.linalg.solve(dec.eigenvectors, selector.astype(complex))
    except np.linalg.LinAlgError:
        warn(
            "eigenvector matrix is singular; computing modes with a "
            "pseudoinverse",
        )
        vt = np.linalg.pinv(dec.eigenvectors) @ selector
    modes = vt.T  # (d, n), columns v_l with b = sum lambda_l phi_l v_l
    factors = _trailing_rescale(dec.eigenvectors)
    modes = modes * factors[np.newaxis, :]
    vectors = dec.eigenvectors / factors[np.newaxis, :]
    norms = np.linalg.norm(modes, axis=0)
    active = np.nonzero(norms > MODE_TOL)[0]
    return ModeDecomposition(
        modes=modes,
        eigenvalues=dec.eigenvalues.copy(),
        eigenvectors=vectors,
        selector=selector,
        active_indices=active,
    )


def reconstruct_drift(
    modes: ModeDecomposition, dictionary: Dictionary, points
) -> np.ndarray:
    """Evaluate b(x) = Re sum_l lambda_l phi_l(x) v_l at points.

    Returns
    -------
    (m, d) ndarray
    """
    phi = modes.eigenvectors.T @ dictionary.values(points)  # (n, m)
    out = modes.modes @ (modes.eigenvalues[:, np.newaxis] * phi)
    return out.real.T


def conserved_quantities(dec: SpectralDecomposition) -> list[np.ndarray]:
    """Coefficient vectors of conserved quantities from the lambda = 0 space.

    Collects eigenvectors with |lambda_l| below 1e-6 times the spectral
    radius (1e-12 for a zero spectrum), removes the constant-function
    direction (the constant is conserved for any system), and returns a
    real orthogonal basis of what remains, each vector scaled so its
    largest-magnitude entry is 1.  Every returned vector c defines
    E(x) = c^T psi(x) with L c ~= 0.

    Parameters
    ----------
    dec : SpectralDecomposition

    Returns
    -------
    list of (n,) ndarray
        Possibly empty.
    """
    values = dec.eigenvalues
    radius = np.abs(values).max() if values.size else 0.0
    mask = np.abs(values) < (1e-6 * radius if radius > 0 else 1e-12)
    if not np.any(mask):
        return []
    group = dec.eigenvectors[:, mask]
    columns = []
    for l in range(group.shape[1]):
        col = group[:, l]
        scale = np.abs(col).max()
        columns.append(col.real)
        if np.abs(col.imag).max() > 1e-12 * scale:
            columns.append(col.imag)
    Z = np.column_stack(columns)
    if dec.dictionary is not None and dec.dictionary.constant_index is not None:
        Z = Z.copy()
        Z[dec.dictionary.constant_index, :] = 0.0
    keep = np.linalg.norm(Z, axis=0) > 1e-10
    Z = Z[:, keep]
    if Z.shape[1] == 0:
        return []
    U, s, _ = np.linalg.svd(Z, full_matrices=False)
    rank = int(np.count_nonzero(s > 1e-8 * s[0]))
    out = []
    for l in range(rank):
        vec = U[:, l]
        j = int(np.argmax(np.abs(vec)))
        vec = vec / vec[j]  # largest entry exactly +1
        out.append(vec)
    return out
