"""Shared numerical oracles for the test suite."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.linalg


def fv_reversible_eigenvalues(potential, diffusion, lo, hi, cells=2000, k=6):
    """Leading eigenvalues of a 1D reversible generator by finite volumes.

    Discretizes L f = (1/(2 nu)) d/dz [ nu a df/dz ] with nu = exp(-V) on
    `cells` uniform cells with no-flux boundaries.  The rate matrix is
    symmetric in the nu-weighted inner product, so a similarity transform
    makes it symmetric tridiagonal and eigh_tridiagonal applies.

    Parameters
    ----------
    potential, diffusion : callable
        V(z) and a(z), vectorized over a 1D array.
    lo, hi : float
    cells : int
    k : int
        Number of leading (largest) eigenvalues to return, descending.
    """
    edges = np.linspace(lo, hi, cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    h = edges[1] - edges[0]
    faces = edges[1:-1]
    nu_c = np.exp(-potential(centers))
    flux = 0.5 * np.exp(-potential(faces)) * diffusion(faces) / h**2
    up = flux / nu_c[:-1]  # rate i -> i+1
    down = flux / nu_c[1:]  # rate i+1 -> i
    diag = np.zeros(cells)
    diag[:-1] -= up
    diag[1:] -= down
    # symmetrize with D^(1/2) Q D^(-1/2), D = diag(nu_c)
    off = np.sqrt(up * down)
    vals = scipy.linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(cells - k, cells - 1)
    )[0]
    return vals[::-1]


def lemon_slice_radial_constants(beta=1.0, lo=0.05, hi=3.0):
    """Quadrature values of C1 = int exp(-beta Vr)/r dr, C2 = int exp(-beta Vr) r dr.

    Vr(r) = 10 (r - 1)^2 + 1/r is the radial part of the lemon-slice
    potential; the reduced angular diffusion is 2 C1 / (beta C2) and the
    reduced drift is -(C1/C2) dF/dphi.
    """

    def vr(r):
        return 10.0 * (r - 1.0) ** 2 + 1.0 / r

    c1 = scipy.integrate.quad(lambda r: np.exp(-beta * vr(r)) / r, lo, hi, limit=200)[0]
    c2 = scipy.integrate.quad(lambda r: np.exp(-beta * vr(r)) * r, lo, hi, limit=200)[0]
    return c1, c2


def lemon_slice_angular_potential(phi, k=4):
    """F(phi) = cos(k phi) + sec(phi / 2), the angular part of the potential."""
    return np.cos(k * phi) + 1.0 / np.cos(0.5 * phi)


def lemon_slice_angular_force(phi, k=4):
    """-dF/dphi for the angular potential."""
    return k * np.sin(k * phi) - 0.5 * np.tan(0.5 * phi) / np.cos(0.5 * phi)


def full_state_sequence_costs(problem, z, t):
    """Predicted cost of every input sequence by propagating full lifted states.

    The reference search for ``koopgen.control._sequence_costs``: at depth k
    the predicted lifted states of all n_c**k partial sequences sit in one
    (n_c**k, R, n) array, and row s * n_c + i of the next depth extends
    sequence s by input i.  Returns an (n_c**q, R) array in
    itertools.product order over input indices.
    """
    fam = problem.surrogates
    C = fam.readout
    n_c = fam.n_inputs
    E = [fam.propagator(i, problem.h) for i in range(n_c)]
    penalty = problem.alpha * np.asarray(fam.inputs) ** 2
    Z = z[np.newaxis]
    costs = np.zeros((1, 1, z.shape[0]))
    for j in range(problem.q):
        Z = np.stack([Z @ E[i].T for i in range(n_c)], axis=1).reshape(-1, *z.shape)
        err = Z @ C.T - np.atleast_1d(problem.reference(t + (j + 1) * problem.h))
        stage = np.einsum("slr,slr->sl", err, err).reshape(-1, n_c, z.shape[0])
        costs = (costs + (stage + penalty[:, None])).reshape(-1, 1, z.shape[0])
    return costs[:, 0]


def propagator_readout_rows(family, dt, depth):
    """The search rows of ``SurrogateFamily._readout_rows`` from full propagators.

    Every E_i = expm(M_i dt) is formed, and the block of length k is the
    rows of length k - 1 times each E_i, in itertools.product order.
    """
    E = [family.propagator(i, dt) for i in range(family.n_inputs)]
    level, blocks = family.readout, []
    for _ in range(depth):
        level = np.concatenate([level @ E_i for E_i in E])
        blocks.append(level)
    return np.concatenate(blocks)


def tpqrt_fold(chunks, width, block):
    """Triangular factor of the stacked (psi, T) chunks, folded one after another.

    Each chunk is stacked into a panel B and folded into R by the f2py
    wrapper scipy.linalg.lapack.dtpqrt, on the calling thread.  A
    cross-library reference for the pipelined fold of generator._factor,
    which calls the dtpqrt of numpy's LAPACK (scipy's only where numpy
    exports none) and must agree bitwise on the sizes tested.
    """
    R = np.zeros((width, width), order="F")
    for psi, T in chunks:
        B = np.vstack([psi, T]).T
        R = scipy.linalg.lapack.dtpqrt(
            0, min(block, width), R, B, overwrite_a=1, overwrite_b=1
        )[0]
    return R


def svd_lstsq(A, B, cutoff):
    """Least-squares solution A^+ B through the thin SVD of A, with rank and condition.

    Singular values at or below ``cutoff`` times the largest are dropped.  The
    reference for generator._lstsq, which solves a full-rank triangular A by
    back substitution; the condition is s_0 / s_rank.
    """
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.count_nonzero(s > cutoff * s[0]))
    scale = s[:rank, None] if B.ndim == 2 else s[:rank]
    return Vt[:rank].T @ ((U[:, :rank].T @ B) / scale), rank, s[0] / s[rank - 1]


def ou_plant_advance_per_substep(plant, states, u, h, rng):
    """``ControlledOUPlant.advance`` drawing its noise one sub-step at a time.

    The bitwise reference for the plant, which draws the noise of all nsub
    sub-steps in one (nsub, R, 1) call on the same Generator stream.
    """
    x = np.asarray(states, dtype=float)
    nsub = max(1, int(round(h / plant.dt)))
    dt = h / nsub
    amp = np.sqrt(2.0 / plant.beta * dt) if plant.noise else 0.0
    u_col = np.broadcast_to(np.asarray(u, dtype=float), (x.shape[0],))[:, None]
    window = np.empty((x.shape[0], nsub, 1))
    for k in range(nsub):
        x = x + (-plant.alpha * (x - u_col)) * dt
        if plant.noise:
            x = x + amp * rng.standard_normal(x.shape)
        window[:, k, :] = x
    return x, window if plant.noise else x[:, np.newaxis, :]


def _gaussians(basis, points):
    """(D, psi, sigma^2) for every Gaussian of ``basis``: psi = exp(-||D||^2 / (2 sigma^2))
    of shape (n, m) and D = x - c of shape (n, m, d), for a periodic basis
    wrapped to the nearest period image."""
    x = np.asarray(points, dtype=np.float64).reshape(-1, basis.dimension)
    D = x[None, :, :] - basis.centers[:, None, :]
    if hasattr(basis, "period"):
        D = D - basis.period * np.round(D / basis.period)
    s2 = basis.bandwidth**2
    return D, np.exp(-np.sum(D * D, axis=2) / (2.0 * s2)), s2


def gaussian_gradients(basis, points):
    """-(D / sigma^2) psi for every Gaussian of ``basis``, shape (n, m, d): the
    closed-form gradient, with D and psi as in _gaussians."""
    D, psi, s2 = _gaussians(basis, points)
    return -(D / s2) * psi[:, :, None]


def gaussian_hessians(basis, points):
    """(D D^T / sigma^4 - I / sigma^2) psi for every Gaussian of ``basis``, shape
    (n, m, d, d): the closed-form Hessian, with D and psi as in _gaussians."""
    D, psi, s2 = _gaussians(basis, points)
    outer = D[:, :, :, None] * D[:, :, None, :] / (s2 * s2)
    return (outer - np.eye(basis.dimension) / s2) * psi[:, :, None, None]


def _number(cell):
    """A CSV cell or JSON leaf as a finite float, or None if it is not one."""
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _csv_cells(path):
    """(header, {(row, column): cell}) of a CSV file, column by header position."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], {(r, c): cell for r, row in enumerate(rows[1:]) for c, cell in enumerate(row)}


def _json_leaves(node, path=()):
    """Yield (path, leaf) of a JSON document; an object's leaf is its sorted keys
    and a list's its length, as tuples, so they compare exactly."""
    if isinstance(node, dict):
        yield path, ("object", *sorted(node))
        for key, value in node.items():
            yield from _json_leaves(value, path + (key,))
    elif isinstance(node, list):
        yield path, ("list", len(node))
        for k, value in enumerate(node):
            yield from _json_leaves(value, path + (k,))
    else:
        yield path, node


def _json_cells(path):
    """{leaf path: leaf} of a JSON file; a manifest loses its numpy version."""
    document = json.loads(Path(path).read_text("utf-8"))
    if Path(path).name == "manifest.json":
        document.pop("numpy", None)
    return dict(_json_leaves(document))


def _column(key, suffix):
    """The column of a cell: its CSV column, or its JSON path with list indices dropped."""
    if suffix == ".csv":
        return key[1]
    return tuple("*" if isinstance(part, int) else part for part in key)


def output_moves(fresh_dir, golden_dir):
    """Compare two trees of CLI outputs: (moves, mismatches).

    ``moves`` maps each file, by its path relative to the tree, to the
    largest |a - b| / max(max|column|, 1) over its numeric cells, the maximum
    taken over the golden column (a CSV column, or a JSON path with its list
    indices dropped). ``mismatches`` names every other difference: a file in
    one tree only, a CSV header, a JSON key or list length, a non-numeric
    cell, a cell numeric in one tree only. A manifest is compared without
    its numpy version.
    """
    fresh_dir, golden_dir = Path(fresh_dir), Path(golden_dir)
    files = {
        str(p.relative_to(root)) for root in (fresh_dir, golden_dir)
        for p in root.rglob("*") if p.is_file()
    }
    moves, mismatches = {}, []
    for name in sorted(files):
        fresh, golden = fresh_dir / name, golden_dir / name
        if not (fresh.is_file() and golden.is_file()):
            mismatches.append(f"{name}: in one tree only")
            continue
        suffix = fresh.suffix
        if suffix == ".csv":
            (header, new), (golden_header, old) = _csv_cells(fresh), _csv_cells(golden)
            if header != golden_header:
                mismatches.append(f"{name}: header {header} != {golden_header}")
        else:
            new, old = _json_cells(fresh), _json_cells(golden)
        scale = {}
        for key, cell in old.items():
            value = _number(cell)
            if value is not None:
                column = _column(key, suffix)
                scale[column] = max(scale.get(column, 1.0), abs(value))
        worst = 0.0
        for key in sorted(set(new) | set(old), key=str):
            a, b = new.get(key), old.get(key)
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b or key not in new or key not in old:
                    mismatches.append(f"{name}: {key} is {a!r}, golden {b!r}")
                continue
            worst = max(worst, abs(x - y) / scale[_column(key, suffix)])
        moves[name] = worst
    return moves, mismatches
