"""Recovery of governing equations from generator estimates.

The drift is read off the estimate through the coordinate selector, the
diffusion follows by subtracting the drift terms from the action of the
generator on coordinate products, and sparse models come from iterative
hard thresholding of the regression problems.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dictionaries import Dictionary, Monomials
from .errors import ClosureError, IdentificationError, InputError, UnsupportedDictionaryError
from .generator import SVD_CUTOFF, GeneratorEstimate, _actions, _fit, _walk
from .models import SampleSet

CLOSURE_TOL = 1e-8  # relative size of a b_i * x_j coefficient that may leave the basis
INDEFINITE_TOL = 1e-6  # relative negative eigenvalue of a(x) that is an error

__all__ = [
    "IdentifiedModel",
    "identify_drift",
    "identify_diffusion",
    "identify",
    "hard_threshold",
    "threshold_generator",
    "sindy_coefficients",
    "diffusion_factor",
    "upper_triangle_pairs",
    "term_list",
]


def upper_triangle_pairs(dimension: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i <= j, in row-major order."""
    return [(i, j) for i in range(dimension) for j in range(i, dimension)]


def term_list(dictionary: Dictionary, coeffs, tol: float = 0.0) -> list[dict]:
    """Human-readable sparse representation of one coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    labels = dictionary.labels()
    return [
        {"index": int(k), "term": labels[k], "coefficient": float(c)}
        for k, c in enumerate(coeffs)
        if abs(c) > tol
    ]


@dataclass(frozen=True)
class IdentifiedModel:
    """Governing equations recovered in dictionary coefficients.

    Attributes
    ----------
    dictionary : Dictionary
    drift_coeffs : (n, d) ndarray
        Column i holds the coefficients of b_i in the basis.
    diffusion_coeffs : (n, p) ndarray or None
        Columns follow ``pairs`` (upper triangle of a, p = d(d+1)/2).
    pairs : list of (i, j)
    threshold_history : list of (iteration, surviving-coefficient count)
    residuals : dict
        Training (and, when supplied, validation) RMS of the fitted
        pointwise targets.
    """

    dictionary: Dictionary = field(repr=False)
    drift_coeffs: np.ndarray
    diffusion_coeffs: np.ndarray | None
    pairs: list
    threshold_history: list
    residuals: dict

    @property
    def dimension(self) -> int:
        return self.drift_coeffs.shape[1]

    def drift_at(self, points) -> np.ndarray:
        """Evaluate the identified drift, shape (m, d)."""
        values = self.dictionary.evaluate(points).values
        return values.T @ self.drift_coeffs

    def diffusion_at(self, points) -> np.ndarray:
        """Evaluate the identified diffusion matrix, shape (m, d, d)."""
        if self.diffusion_coeffs is None:
            raise InputError("model was identified without diffusion")
        return diffusion_values(self.dictionary, self.diffusion_coeffs, points)

    def to_dict(self, term_tol: float = 0.0) -> dict:
        """JSON-serializable per-function term lists."""
        payload = {
            "dictionary": self.dictionary.spec(),
            "drift": [
                term_list(self.dictionary, self.drift_coeffs[:, i], term_tol)
                for i in range(self.dimension)
            ],
            "pairs": [list(p) for p in self.pairs],
            "diffusion": None,
            "threshold_history": [list(h) for h in self.threshold_history],
            "residuals": {
                k: (None if v is None else float(v)) for k, v in self.residuals.items()
            },
        }
        if self.diffusion_coeffs is not None:
            payload["diffusion"] = [
                term_list(self.dictionary, self.diffusion_coeffs[:, c], term_tol)
                for c in range(self.diffusion_coeffs.shape[1])
            ]
        return payload


def diffusion_values(dictionary: Dictionary, diffusion_coeffs, points) -> np.ndarray:
    """Evaluate upper-triangle diffusion coefficients to (m, d, d) matrices."""
    coeffs = np.asarray(diffusion_coeffs, dtype=float)
    d = dictionary.dimension
    pairs = upper_triangle_pairs(d)
    if coeffs.shape[1] != len(pairs):
        raise InputError(
            f"expected {len(pairs)} diffusion columns for dimension {d}, "
            f"got {coeffs.shape[1]}"
        )
    values = dictionary.evaluate(points).values  # (n, m)
    flat = coeffs.T @ values  # (p, m)
    m = values.shape[1]
    a = np.zeros((m, d, d))
    for c, (i, j) in enumerate(pairs):
        a[:, i, j] = flat[c]
        a[:, j, i] = flat[c]
    return a


def identify_drift(est: GeneratorEstimate) -> np.ndarray:
    """Drift coefficients: apply the generator matrix to the coordinates.

    The coordinates are read through the dictionary's full-state selector.

    Returns
    -------
    (n, d) ndarray
        Column i holds the coefficients of b_i(x) = (L x_i)(x) in the basis.
    """
    return est.L @ est.dictionary.full_state_selector()


def _monomials_or_raise(dictionary) -> Monomials:
    if not isinstance(dictionary, Monomials):
        raise UnsupportedDictionaryError(
            "diffusion identification needs coordinate-product arithmetic, "
            "available for monomial bases only"
        )
    return dictionary


def identify_diffusion(est: GeneratorEstimate) -> np.ndarray:
    """Diffusion coefficients a_ij = L(x_i x_j) - b_i x_j - b_j x_i.

    The drift b is :func:`identify_drift` of the same estimate.

    Parameters
    ----------
    est : GeneratorEstimate
        Must use a monomial dictionary containing all coordinate products.

    Returns
    -------
    (n, p) ndarray
        Upper-triangle columns ordered as :func:`upper_triangle_pairs`.

    Raises
    ------
    ClosureError
        If x_i x_j or a product b_i x_j leaves the dictionary span (drops a
        coefficient above CLOSURE_TOL relative to the drift); a larger
        maximum degree fixes this.
    """
    basis = _monomials_or_raise(est.dictionary)
    drift_coeffs = identify_drift(est)
    d = basis.dimension
    scale = max(1.0, np.abs(drift_coeffs).max())
    L = est.L
    pairs = upper_triangle_pairs(d)
    out = np.empty((basis.size, len(pairs)))
    for c, (i, j) in enumerate(pairs):
        exponent = np.zeros(d, dtype=int)
        exponent[i] += 1
        exponent[j] += 1
        try:
            prod_idx = basis.index_of(exponent)
        except KeyError:
            raise ClosureError(
                f"product x_{i + 1}*x_{j + 1} is not in the dictionary; "
                "increase max_degree to at least 2"
            ) from None
        bixj, drop_i = basis.multiply_by_coordinate(drift_coeffs[:, i], j)
        bjxi, drop_j = basis.multiply_by_coordinate(drift_coeffs[:, j], i)
        if max(drop_i, drop_j) > CLOSURE_TOL * scale:
            raise ClosureError(
                f"b_{i + 1}*x_{j + 1} leaves the dictionary span "
                f"(dropped coefficient {max(drop_i, drop_j):.3e}); "
                "increase max_degree"
            )
        out[:, c] = L[:, prod_idx] - bixj - bjxi
    return out


def hard_threshold(
    features: np.ndarray,
    targets: np.ndarray,
    delta: float,
    *,
    iterations: int = 10,
):
    """Iterative hard thresholding: zero small coefficients, re-solve on support.

    Parameters
    ----------
    features : (m, n) ndarray
        Design matrix (basis values at the data points), or any matrix with
        the same column inner products together with `targets`, such as the
        R factor columns of a streamed fit.
    targets : (m,) or (m, k) ndarray
    delta : float
        Coefficients with magnitude below this are removed.
    iterations : int
        Number of threshold/re-solve rounds; stops early once every support
        is stable (further rounds are no-ops).

    Every least-squares solve cuts singular values at SVD_CUTOFF.

    Returns
    -------
    coeffs : (n,) or (n, k) ndarray
    history : list of (iteration, surviving-coefficient count)

    Warns
    -----
    UserWarning
        If the threshold empties a column's support; that column is zero.
    """
    if delta < 0:
        raise InputError("threshold must be >= 0")
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    single = targets.ndim == 1
    T = targets[:, np.newaxis] if single else targets
    n = features.shape[1]
    k = T.shape[1]
    coeffs = np.linalg.lstsq(features, T, rcond=SVD_CUTOFF)[0]
    history = [(0, int(np.count_nonzero(coeffs)))]
    supports = [np.ones(n, dtype=bool)] * k
    for it in range(1, iterations + 1):
        changed = False
        for col in range(k):
            keep = np.abs(coeffs[:, col]) >= delta
            if not np.any(keep):
                if np.any(supports[col]):
                    warnings.warn(
                        f"threshold {delta} removed every term of target {col}; "
                        "returning the zero model for it",
                        stacklevel=2,
                    )
                    coeffs[:, col] = 0.0
                    supports[col] = keep
                    changed = True
                continue
            if np.array_equal(keep, supports[col]):
                continue
            sub = np.linalg.lstsq(features[:, keep], T[:, col], rcond=SVD_CUTOFF)[0]
            coeffs[:, col] = 0.0
            coeffs[keep, col] = sub
            supports[col] = keep
            changed = True
        history.append((it, int(np.count_nonzero(coeffs))))
        if not changed:
            break
    out = coeffs[:, 0] if single else coeffs
    return out, history


def threshold_generator(
    dictionary: Dictionary,
    sample: SampleSet,
    delta: float,
) -> GeneratorEstimate:
    """Generator estimate with hard-thresholded rows.

    Each row of M (the coefficients of the generator applied to one basis
    function) is fitted by at most ten rounds of iterative hard thresholding
    instead of a plain least-squares solve.  With ``delta=0`` this equals the
    standard estimate.
    The fit streams the sample once; thresholding then works on the
    (2n, 2n) R factor of [Psi^T | dPsi^T], which poses every support's
    least-squares problem exactly, so memory does not grow with the sample.
    """
    stochastic = sample.diffusion_samples is not None
    kind = ("stochastic" if stochastic else "deterministic") + "+threshold"
    n = dictionary.size
    chunks = _actions(dictionary, sample, sample.diffusion_samples)
    est, R, _, _ = _fit(chunks, n, n, dictionary, sample.count, kind)
    coeffs, _ = hard_threshold(R[:, :n], R[:, n:], delta)
    return replace(est, M=coeffs.T)


def sindy_coefficients(dictionary: Dictionary, sample: SampleSet) -> np.ndarray:
    """Direct sparse-regression-style fit of the drift onto the basis.

    Solves min ||Psi^T C - b_data|| and returns C^T of shape (d, n); the
    predictions agree with reading the drift off a deterministic generator
    estimate through the coordinate selector (same least-squares problem).
    It is the streamed fit with the drift as its d targets, under the same
    cutoff, rank rule and rank-deficiency warning as the estimators.
    """
    x, b = sample.points, sample.drift_samples
    chunks = _walk(sample.count, lambda sl: (dictionary.evaluate(x[sl]).values, b[sl].T))
    n, d = dictionary.size, b.shape[1]
    return _fit(chunks, n, d, dictionary, sample.count, "sindy")[0].M


def _merge_histories(histories: list[list]) -> list:
    """Combine per-fit histories into per-iteration total surviving counts."""
    length = max(len(h) for h in histories)
    merged = []
    for it in range(length):
        total = sum(h[min(it, len(h) - 1)][1] for h in histories)
        merged.append((it, total))
    return merged


def identify(
    dictionary: Dictionary,
    sample: SampleSet,
    *,
    delta: float = 0.0,
    iterations: int = 10,
    validation: SampleSet | None = None,
) -> IdentifiedModel:
    """Identify drift (and diffusion) directly from pointwise data.

    The drift regression fits b_data onto the basis with iterative hard
    thresholding; the diffusion targets are formed by subtracting the
    identified drift terms from the generator action on coordinate products,
    evaluated pointwise from the sample data.  With ``delta=0``, exact data
    and a closed dictionary this reproduces the coefficient-space route
    :func:`identify_drift` / :func:`identify_diffusion`.

    Parameters
    ----------
    dictionary : Dictionary
    sample : SampleSet
        The diffusion is identified when it carries diffusion data.
    delta : float
        Hard threshold on basis coefficients; 0 disables sparsification.
    validation : SampleSet, optional
        Held-out data for the validation residual.

    Returns
    -------
    IdentifiedModel
    """
    with_diffusion = sample.diffusion_samples is not None
    block = dictionary.evaluate(sample.points)
    features = block.values.T  # (m, n)
    drift_coeffs, hist_b = hard_threshold(
        features, sample.drift_samples, delta, iterations=iterations
    )
    histories = [hist_b]
    pairs = upper_triangle_pairs(dictionary.dimension)
    diffusion_coeffs = None

    def _diffusion_targets(data: SampleSet, feats: np.ndarray) -> np.ndarray:
        # a_ij + (b_i - bhat_i) x_j + (b_j - bhat_j) x_i per point
        x = data.points
        resid = data.drift_samples - feats @ drift_coeffs
        cols = []
        for i, j in pairs:
            cols.append(data.diffusion_samples[:, i, j] + resid[:, i] * x[:, j] + resid[:, j] * x[:, i])
        return np.column_stack(cols)

    if with_diffusion:
        targets = _diffusion_targets(sample, features)
        diffusion_coeffs, hist_a = hard_threshold(features, targets, delta, iterations=iterations)
        histories.append(hist_a)

    def _rms(data: SampleSet, feats: np.ndarray) -> float:
        errs = [np.ravel(feats @ drift_coeffs - data.drift_samples)]
        if with_diffusion:
            errs.append(np.ravel(feats @ diffusion_coeffs - _diffusion_targets(data, feats)))
        stacked = np.concatenate(errs)
        return float(np.sqrt(np.mean(stacked**2)))

    residuals = {"training": _rms(sample, features)}
    residuals["validation"] = None
    if validation is not None:
        held_out = dictionary.evaluate(validation.points).values.T
        residuals["validation"] = _rms(validation, held_out)
    return IdentifiedModel(
        dictionary=dictionary,
        drift_coeffs=drift_coeffs,
        diffusion_coeffs=diffusion_coeffs,
        pairs=pairs,
        threshold_history=_merge_histories(histories),
        residuals=residuals,
    )


def diffusion_factor(
    dictionary: Dictionary,
    diffusion_coeffs,
    points,
) -> np.ndarray:
    """Per-point lower-triangular factor of the identified diffusion.

    The evaluated a(x) is symmetrized, its eigenvalues clipped at zero, and
    a lower-triangular factor with factor @ factor.T equal to the clipped
    matrix is returned for every point.

    Raises
    ------
    IdentificationError
        If a(x) is strongly indefinite at some point
        (min eigenvalue < -INDEFINITE_TOL * trace scale).
    """
    a = diffusion_values(dictionary, diffusion_coeffs, points)
    w, U = np.linalg.eigh(a)  # batched; a is symmetric by construction
    scale = np.maximum(np.abs(w).sum(axis=1), np.finfo(float).tiny)
    worst = np.argmin(w[:, 0] / scale)
    if w[worst, 0] < -INDEFINITE_TOL * scale[worst]:
        raise IdentificationError(
            f"identified diffusion is indefinite at point {int(worst)}: "
            f"min eigenvalue {w[worst, 0]:.3e} vs trace scale {scale[worst]:.3e}"
        )
    clipped = np.clip(w, 0.0, None)
    F = U * np.sqrt(clipped)[:, np.newaxis, :]  # F F^T = clipped a
    # lower-triangular form: F^T = Q R  =>  F F^T = R^T R with R^T lower
    _, R = np.linalg.qr(F.transpose(0, 2, 1))
    diag_sign = np.sign(np.einsum("lii->li", R))
    diag_sign[diag_sign == 0] = 1.0
    return R.transpose(0, 2, 1) * diag_sign[:, np.newaxis, :]
