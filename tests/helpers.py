"""Shared numerical oracles for the test suite."""

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
