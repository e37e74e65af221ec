"""Generator-based control with per-input linear surrogates.

For each admissible constant input u the generator of the controlled system
is estimated once; the lifted state z = psi(x) then evolves by the linear
system z' = M_u z.  Model predictive control searches exhaustively over
short input sequences, and switching-time optimization tunes the times at
which a fixed cyclic input sequence switches.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dictionaries import Dictionary, evaluate
from .errors import ConfigError, InputError, StabilityError
from .generator import gedmd_deterministic, gedmd_stochastic
from .models import SampleSet, _rng

__all__ = [
    "SurrogateFamily",
    "fit_surrogates",
    "predict",
    "ControlProblem",
    "MpcResult",
    "mpc",
    "SwitchingSchedule",
    "sto_objective_and_gradient",
    "switching_time_optimize",
    "schedule_trajectory",
    "whole_steps",
    "ControlledOUPlant",
    "BurgersPlant",
]

MAX_MPC_HORIZON = 6  # exhaustive search grows as n_c**q; keep it exact and cheap
STO_PANELS = 4  # trapezoid panels K per segment of the switching-time objective
STO_TOL = 1e-9  # largest switch-time step, per unit horizon, that counts as converged


@dataclass
class SurrogateFamily:
    """Per-input surrogate matrices sharing one dictionary.

    Attributes
    ----------
    inputs : tuple of float
        The admissible constant inputs u^1 ... u^{n_c}.
    matrices : (n_c, n, n) ndarray
        M_u per input; the lifted state evolves as z' = M_u z.
    dictionary : Dictionary
    readout : (r, n) ndarray
        Rows extracting the tracked observables from z.
    estimates : tuple of GeneratorEstimate
    """

    inputs: tuple
    matrices: np.ndarray
    dictionary: Dictionary = field(repr=False)
    readout: np.ndarray = field(repr=False)
    estimates: tuple = field(default=(), repr=False)

    def __post_init__(self):
        self._propagators: dict = {}

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def size(self) -> int:
        return self.matrices.shape[1]

    def lift(self, points) -> np.ndarray:
        """psi(x) per point, shape (m, n)."""
        return evaluate(self.dictionary, points).values.T

    def propagator(self, index: int, dt: float) -> np.ndarray:
        """expm(M_u dt), cached per (input index, dt)."""
        key = (int(index), float(dt))
        if key not in self._propagators:
            self._propagators[key] = scipy.linalg.expm(self.matrices[index] * dt)
        return self._propagators[key]


def fit_surrogates(
    dictionary: Dictionary,
    inputs,
    samples,
    *,
    readout: np.ndarray | None = None,
) -> SurrogateFamily:
    """Estimate one generator matrix per admissible input.

    Parameters
    ----------
    dictionary : Dictionary
    inputs : sequence of float
    samples : sequence of SampleSet
        Training data per input, aligned with ``inputs``; stochastic
        estimation is used when diffusion data is present.
    readout : (r, n) ndarray, optional
        Defaults to the transpose of the full-state selector, so the
        tracked observables are the state coordinates.
    """
    if len(inputs) != len(samples):
        raise InputError(f"{len(inputs)} inputs but {len(samples)} sample sets")
    estimates = []
    for sample in samples:
        if sample.diffusion_samples is not None:
            estimates.append(gedmd_stochastic(dictionary, sample))
        else:
            estimates.append(gedmd_deterministic(dictionary, sample))
    if readout is None:
        readout = dictionary.full_state_selector().T
    return SurrogateFamily(
        inputs=tuple(float(u) for u in inputs),
        matrices=np.stack([est.M for est in estimates]),
        dictionary=dictionary,
        readout=np.asarray(readout, dtype=float),
        estimates=tuple(estimates),
    )


def predict(family: SurrogateFamily, index: int, z0, T: float, dt: float):
    """Evolve the lifted state under one input by matrix exponentials.

    ``dt`` must divide ``T`` (see ``whole_steps``).

    Returns
    -------
    times : (steps + 1,) ndarray
    trajectory : (steps + 1, n) ndarray
    """
    steps = whole_steps((0.0, T), dt)
    E = family.propagator(index, dt)
    out = np.empty((steps + 1, family.size))
    out[0] = np.asarray(z0, dtype=float)
    for k in range(steps):
        out[k + 1] = E @ out[k]
    return np.arange(steps + 1) * dt, out


# ---------------------------------------------------------------------------
# model predictive control


@dataclass(frozen=True)
class ControlProblem:
    """Tracking problem: follow a readout reference over a horizon.

    The stage cost at time t is ||C z - r(t)||^2 + alpha u^2, with C the
    surrogate family's readout rows and r the reference.

    Attributes
    ----------
    surrogates : SurrogateFamily
    reference : callable t -> (r,) array
    horizon : (t0, te)
    h : float
        Control step; one input is held constant per step.
    q : int
        Prediction-horizon length in steps (at most 6; the exhaustive
        search over input sequences has n_c**q branches).
    alpha : float
        Input penalty weight.
    reference_derivative : callable, optional
        dr/dt, needed by switching-time optimization.
    """

    surrogates: SurrogateFamily
    reference: callable = field(repr=False)
    horizon: tuple
    h: float
    q: int = 3
    alpha: float = 0.0
    reference_derivative: callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.h <= 0:
            raise ConfigError("control step h must be positive")
        if self.horizon[1] <= self.horizon[0]:
            raise ConfigError("horizon must have positive length")
        if self.q < 1:
            raise ConfigError("prediction horizon q must be at least 1")
        if self.alpha < 0:
            raise ConfigError("input penalty must be >= 0")


@dataclass(frozen=True)
class MpcResult:
    """Closed-loop record: states, applied inputs, and realized stage costs.

    Arrays keep a leading realization axis only when the initial state had
    one; ``states`` has one more time entry than ``inputs``.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    stage_costs: np.ndarray
    references: np.ndarray


def _sequence_costs(problem: ControlProblem, z: np.ndarray, t: float) -> np.ndarray:
    """Predicted cost of every input sequence of length q from lifted states z.

    The search runs level by level: at depth k the predicted lifted states of
    all n_c**k partial sequences sit in one (n_c**k, R, n) array, and row
    s * n_c + i of the next depth extends sequence s by input i.  The last
    depth holds n_c**q * R * n floats, which ``MAX_MPC_HORIZON`` bounds.

    Returns an (n_c**q, R) array; sequences are enumerated in
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


def mpc(problem: ControlProblem, plant, x0, *, seed=None) -> MpcResult:
    """Closed-loop model predictive control against a plant.

    At every step of length h the exhaustive search picks the input sequence
    of length q minimizing the predicted cost, the first input is applied to
    the plant, and the lifted state is re-initialized as the dictionary
    average over the window of sub-states the plant returns for that step;
    the last of them, the new state, gives the realized stage cost.
    ``problem.h`` must divide the horizon.

    Parameters
    ----------
    problem : ControlProblem
    plant : object
        Needs ``advance(states, u, h, rng) -> (new_states, window)`` with
        vectorized states (R, d) and window (R, k, d) ending at the new
        states: the sub-states of the step (length h) for stochastic plants,
        the new state alone (k = 1) for deterministic ones.
    x0 : (d,) or (R, d) array_like
        Initial state; a leading axis runs independent closed loops.
    seed : optional
        Drives the plant noise, if any.
    """
    fam = problem.surrogates
    n_c = fam.n_inputs
    if problem.q > MAX_MPC_HORIZON:
        raise ConfigError(
            f"prediction horizon q={problem.q} exceeds {MAX_MPC_HORIZON}; "
            f"the exhaustive search would enumerate {n_c**problem.q} sequences"
        )
    x0 = np.asarray(x0, dtype=float)
    batched = x0.ndim == 2
    states = x0 if batched else x0[np.newaxis, :]
    R = states.shape[0]
    t0 = problem.horizon[0]
    steps = whole_steps(problem.horizon, problem.h)
    rng = _rng(seed)

    traj = np.empty((steps + 1, R, states.shape[1]))
    traj[0] = states
    applied = np.empty((steps, R))
    stage = np.empty((steps, R))
    refs = []
    z = fam.lift(states)
    inputs_arr = np.asarray(fam.inputs)
    for k in range(steps):
        t = t0 + k * problem.h
        costs = _sequence_costs(problem, z, t)
        # row s of the costs starts with input s // n_c**(q-1) (product order)
        u = inputs_arr[np.argmin(costs, axis=0) // n_c ** (problem.q - 1)]
        states, window = plant.advance(states, u, problem.h, rng)
        traj[k + 1] = states
        applied[k] = u
        r_next = np.atleast_1d(problem.reference(t + problem.h))
        refs.append(r_next)
        lifted = fam.lift(window.reshape(-1, window.shape[-1])).reshape(R, -1, fam.size)
        err = lifted[:, -1] @ fam.readout.T - r_next
        stage[k] = np.einsum("lr,lr->l", err, err) + problem.alpha * u**2
        z = lifted.mean(axis=1)
    if not batched:
        traj = traj[:, 0]
        applied = applied[:, 0]
        stage = stage[:, 0]
    return MpcResult(
        times=t0 + np.arange(steps + 1) * problem.h,
        states=traj,
        inputs=applied,
        stage_costs=stage,
        references=np.array(refs),
    )


# ---------------------------------------------------------------------------
# switching-time optimization


@dataclass(frozen=True)
class SwitchingSchedule:
    """Switch times for a cyclic input sequence.

    ``times[0]`` is the horizon start; segment j runs over
    [times[j], times[j+1]] (the last segment ends at the horizon end) and
    uses input index j mod n_c.  ``iterations`` counts the optimizer's
    iterations and ``projected_gradient_norm`` is the stationarity measure
    at the returned schedule (see ``switching_time_optimize``).
    """

    times: np.ndarray
    horizon: tuple
    n_inputs: int
    objective: float | None = None
    converged: bool = True
    iterations: int = 0
    projected_gradient_norm: float | None = None

    @property
    def p(self) -> int:
        return self.times.shape[0] - 1

    def boundaries(self) -> np.ndarray:
        """All segment boundaries including the horizon end."""
        return np.concatenate([self.times, [self.horizon[1]]])

    def input_index(self, j: int) -> int:
        return j % self.n_inputs

    def validate(self):
        t0, te = self.horizon
        if self.times[0] != t0:
            raise InputError("schedule must start at the horizon start")
        if np.any(np.diff(self.boundaries()) < 0):
            raise InputError("switch times must be nondecreasing within the horizon")

    def to_list(self) -> list:
        return [float(t) for t in self.times]


def sto_objective_and_gradient(problem: ControlProblem, z0, tau):
    """Tracking objective of a switching schedule and its exact gradient.

    The integral of ||C z(t) - r(t)||^2 over the horizon is discretized by
    the trapezoid rule on K = 4 panels per segment (``STO_PANELS``); the
    gradient with respect to the free switch times tau_1..tau_p is the exact
    derivative of that discretization (Stellato, Ober-Bloebaum & Goulart,
    IEEE TAC 2017).  One stacked ``expm`` gives every panel propagator
    F_j = expm(M_j delta_j / K), batched products give the node states of
    all segments, and the reference and its derivative are evaluated once
    per distinct node time.  One reverse adjoint sweep
    a_j = (delta_j / K) v_j + (F_j^K)^T a_{j+1}, with v_j = sum_k
    (F_j^k)^T c_{j,k} the node cotangents pulled back to the segment start,
    carries the gradient through the states.
    Requires ``problem.reference_derivative``.

    Parameters
    ----------
    problem : ControlProblem
    z0 : (n,) array_like
        Lifted initial state.
    tau : (p,) array_like
        Nondecreasing interior switch times.

    Returns
    -------
    objective : float
    gradient : (p,) ndarray
    """
    return _sto(problem, z0, tau)[:2]


def _sto(problem: ControlProblem, z0, tau, hessian: bool = False):
    """Objective, gradient and, with ``hessian``, the exact Hessian of the
    discretized objective in the segment durations delta_0..delta_p.

    The Hessian treats every duration as free, the horizon end moving with
    their sum; only its restriction to sum-preserving directions is used,
    and there it is the Hessian in the switch times (its second differences
    along both axes give d^2 J / d tau^2).  Each panel propagator commutes
    with its generator, dF_j / d delta_j = (M_j / K) F_j, so every second
    derivative of the states is a product of the propagators already at
    hand: a forward sweep carries the segment-start sensitivities
    dz_j / d delta_l (l < j), contracted at once with the readout (the
    first-order terms) and with the adjoint (the state-curvature terms).
    The reference's second derivative comes from central differences of
    ``reference_derivative``.
    """
    if problem.reference_derivative is None:
        raise InputError("switching-time optimization needs reference_derivative")
    fam = problem.surrogates
    C = fam.readout
    t0, te = problem.horizon
    tau = np.asarray(tau, dtype=float)
    p = tau.shape[0]
    K = STO_PANELS
    w = np.r_[0.5, np.ones(K - 1), 0.5]  # trapezoid weights
    frac = np.arange(K + 1) / K
    bounds = np.concatenate([[t0], tau, [te]])
    delta = np.diff(bounds)
    h = delta / K
    which = np.arange(p + 1) % fam.n_inputs
    M = fam.matrices[which]
    cost = problem.alpha * np.asarray(fam.inputs)[which] ** 2
    F = scipy.linalg.expm(M * h[:, None, None])
    E = np.linalg.matrix_power(F, K)
    X = np.empty((p + 1, K + 1, fam.size))  # node states z_{j,k} = F_j^k z_j
    z = np.asarray(z0, dtype=float)
    for j in range(p + 1):
        X[j, 0] = z
        z = E[j] @ z
    for k in range(K):
        X[:, k + 1] = np.einsum("jab,jb->ja", F, X[:, k])
    times = np.append((bounds[:-1, None] + frac[:K] * delta[:, None]).ravel(), te)
    node = np.arange(p + 1)[:, None] * K + np.arange(K + 1)

    def at_nodes(f, shift=0.0):
        return np.reshape([f(t + shift) for t in times], (times.size, -1))[node]

    ref, rdot = at_nodes(problem.reference), at_nodes(problem.reference_derivative)
    err = X @ C.T - ref
    g_sum = np.einsum("jkr,jkr,k->j", err, err, w)
    c = 2.0 * w[:, None] * (err @ C)  # node cotangents
    MX = np.einsum("jab,jkb->jka", M, X)
    mz = np.einsum("jka,jka->jk", c, MX)
    rd = 2.0 * w * np.einsum("jkr,jkr->jk", err, rdot)
    left = -g_sum / K + h * (-mz @ frac - rd @ (1.0 - frac)) - cost
    right = g_sum / K + h * (mz @ frac - rd @ frac) + cost
    v = c[:, K]  # Horner over k, all segments at once
    for k in range(K - 1, -1, -1):
        v = np.einsum("jba,jb->ja", F, v) + c[:, k]
    # adjoint sweep, a[j] = dJ/dz_j (a[p + 1] = 0); z_j moves by -/+ M_{j-1} z_j
    # with segment j-1's start/end
    a = np.zeros((p + 2, fam.size))
    for j in range(p, 0, -1):
        a[j] = h[j] * v[j] + E[j].T @ a[j + 1]
    shift = np.append(np.einsum("ja,ja->j", a[1 : p + 1], MX[:p, K]), 0.0)
    grad = right[:p] + left[1:] - np.diff(shift)
    J = float(h @ g_sum + cost @ delta)
    if not hessian:
        return J, grad

    u = c[:, K]  # u_j = sum_k (k/K) (F_j^k)^T c_{j,k}, by Horner as v_j
    for k in range(K - 1, -1, -1):
        u = np.einsum("jba,jb->ja", F, u) + frac[k] * c[:, k]
    n_r = C.shape[0]
    eta = 1e-5 * (te - t0)
    rddot = (
        at_nodes(problem.reference_derivative, eta)
        - at_nodes(problem.reference_derivative, -eta)
    ) / (2.0 * eta)
    # D[j, k, :, l] = d/d delta_l of the node error e_{j,k} = C z_{j,k} - r(t_{j,k})
    D = np.zeros((p + 1, K + 1, n_r, p + 1))
    # rows C F_j^k of every node and beta_j = M_j^T (h_j u_j + E_j^T a_{j+1}),
    # applied in the sweep to the sensitivities dz_j / d delta_l = S[:, l]
    CF = np.empty((p + 1, K + 1, n_r, fam.size))
    CF[:, 0] = C
    for k in range(K):
        CF[:, k + 1] = CF[:, k] @ F
    beta = h[:, None] * u + np.einsum("jba,jb->ja", E, a[1:])
    rows = np.concatenate(
        [CF.reshape(p + 1, -1, fam.size), np.einsum("jba,jb->ja", M, beta)[:, None]], axis=1
    )
    curv = np.zeros((p + 1, p + 1))  # state curvature, l < m part, indexed [m, l]
    S = np.empty((fam.size, p))
    for j in range(1, p + 1):
        S[:, : j - 1] = E[j - 1] @ S[:, : j - 1]
        S[:, j - 1] = MX[j - 1, K]
        out = rows[j] @ S[:, :j]
        D[j, :, :, :j] = out[:-1].reshape(K + 1, n_r, j) - rdot[j, :, :, None]
        curv[j, :j] = out[-1]
    diag = np.arange(p + 1)
    D[diag, :, :, diag] = frac[:, None] * (MX @ C.T - rdot)
    dG = np.einsum("jkr,k,jkrl->jl", err, 2.0 * w, D)  # dG_j / d delta_l
    Dm = D.reshape(-1, p + 1)
    weight = np.repeat((2.0 * h[:, None] * w).ravel(), n_r)
    MMX = np.einsum("jab,jkb->jka", M, MX)
    curv_diag = h * np.einsum("jka,jka,k->j", c, MMX, frac**2) + np.einsum(
        "ja,ja->j", a[1:], MMX[:, K]
    )
    # reference curvature: sum over nodes of 2 w_k h_j (e . r'') dt/d delta_l dt/d delta_m,
    # where dt_{j,k}/d delta_l is 1 for l < j and k/K for l = j
    rho = 2.0 * w * h[:, None] * np.einsum("jkr,jkr->jk", err, rddot)
    tail = np.append(np.cumsum(rho.sum(axis=1)[::-1])[::-1][1:], 0.0)
    upper = np.triu(np.broadcast_to(rho @ frac + tail, (p + 1, p + 1)), 1)
    H = (
        (dG + dG.T) / K
        + Dm.T @ (weight[:, None] * Dm)
        + curv + curv.T + np.diag(curv_diag)
        - upper - upper.T - np.diag(rho @ frac**2 + tail)
    )
    return J, grad, H


def switching_time_optimize(
    problem: ControlProblem,
    p: int,
    initial_schedule=None,
    *,
    x0,
    max_iter: int = 300,
) -> SwitchingSchedule:
    """Optimize the switch times of a cyclic input sequence.

    Projected Newton steps (Bertsekas, SIAM J. Control Optim. 1982) in the
    segment durations delta >= 0, sum(delta) = horizon length, with the
    exact Hessian of the discretized objective.  Each iteration eliminates
    the longest segment, so only the bounds delta >= 0 remain.  Durations
    within min(projected-gradient norm, 1e-3 mean duration) of zero whose
    gradient pushes them down are held on the bound, the rest take a Newton
    step, and an Armijo backtracking search along the projection arc picks
    the step.
    Every iterate is a feasible nondecreasing schedule.  The optimizer has
    converged once its step moves no switch time by more than 1e-9 of the
    horizon (``STO_TOL``).

    Parameters
    ----------
    problem : ControlProblem
        Must carry ``reference_derivative``.
    p : int
        Number of passes through the cyclic input sequence; the schedule
        carries ``n_inputs * p`` free switch times.
    initial_schedule : (n_inputs * p,) array_like, optional
        Defaults to a uniform grid over the horizon; otherwise sorted and
        clipped to the horizon.
    x0 : (d,) array_like
        Plant initial state, lifted through the dictionary.

    Returns
    -------
    SwitchingSchedule
        With the objective, the iterations run and the projected-gradient
        norm at the returned schedule.

    Warns
    -----
    UserWarning
        If not converged after ``max_iter`` iterations; the last (and best)
        schedule is returned with ``converged=False``.
    """
    if p < 1:
        raise ConfigError("need at least one pass through the input sequence")
    t0, te = problem.horizon
    span = te - t0
    n_free = problem.surrogates.n_inputs * p
    z0 = problem.surrogates.lift(np.asarray(x0, dtype=float)[np.newaxis, :])[0]
    if initial_schedule is None:
        tau = np.linspace(t0, te, n_free + 2)[1:-1]
    else:
        tau = np.asarray(initial_schedule, dtype=float)
        if tau.shape != (n_free,):
            raise InputError(
                f"initial schedule must have {n_free} switch times, got {tau.shape}"
            )
        tau = np.clip(np.sort(tau), t0, te)
    J, g = sto_objective_and_gradient(problem, z0, tau)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        _, _, H = _sto(problem, z0, tau, hessian=True)
        y, gy, keep, m = _reduced(tau, g, t0, te)
        H = H[np.ix_(keep, keep)] - H[keep, m][:, None] - H[m, keep] + H[m, m]
        pg = np.minimum(y, gy)
        held = (y <= min(np.linalg.norm(pg), 1e-3 * span / (n_free + 1))) & (gy > 0)
        free = ~held
        d = y.copy()  # held durations shrink linearly to zero along the arc
        d[free] = _newton_direction(H[np.ix_(free, free)], gy[free])
        for alpha in 0.5 ** np.arange(60.0):
            trial = np.maximum(y - alpha * d, 0.0)
            rest = span - trial.sum()  # the eliminated duration
            if rest < 0.0:
                continue
            cand = np.clip(t0 + np.cumsum(np.insert(trial, m, rest))[:-1], t0, te)
            converged = np.abs(cand - tau).max() <= STO_TOL * span
            if converged:
                break
            Jc, gc = sto_objective_and_gradient(problem, z0, cand)
            decrease = alpha * gy[free] @ d[free] + gy[held] @ (y - trial)[held]
            if J - Jc >= 1e-4 * decrease:
                tau, J, g = cand, Jc, gc
                break
        else:
            converged = True  # no step length lowers J: stationary to rounding
        if converged:
            break
    if not converged:
        warnings.warn(
            f"switching-time optimization did not converge in {max_iter} "
            "iterations; returning the best schedule found",
            stacklevel=2,
        )
    y, gy, _, _ = _reduced(tau, g, t0, te)
    return SwitchingSchedule(
        times=np.concatenate([[t0], tau]),
        horizon=(t0, te),
        n_inputs=problem.surrogates.n_inputs,
        objective=J,
        converged=converged,
        iterations=iterations,
        projected_gradient_norm=float(np.linalg.norm(np.minimum(y, gy))),
    )


def _reduced(tau, g, t0, te):
    """Durations and gradient with the longest segment m eliminated.

    Returns (y, gy, keep, m): the other durations y, dJ/dy (moving delta_l
    up and delta_m down), the indices of y among all durations, and m.
    """
    delta = np.diff(np.concatenate([[t0], tau, [te]]))
    m = int(np.argmax(delta))
    keep = np.delete(np.arange(delta.size), m)
    # dJ/d delta_l is -sum_{i <= l} g_i up to a constant shared by all l
    s = np.concatenate([[0.0], np.cumsum(g)])
    return delta[keep], s[m] - s[keep], keep, m


def _newton_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve (H + mu I) d = g, mu = 0 or the first of 1e-8, 1e-7, ... times
    the largest entry of |H| that makes the matrix positive definite."""
    scale = np.abs(H).max(initial=0.0) or 1.0
    mu = 0.0
    while True:
        A = H + mu * np.eye(H.shape[0])
        # numpy's LAPACK is resident already through the estimators; a first
        # scipy.linalg.cho_factor call would add about 1 MB to the process
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            mu = max(10.0 * mu, 1e-8 * scale)
            continue
        return np.linalg.solve(A, g)


def whole_steps(horizon, dt: float) -> int:
    """Steps of length dt spanning the horizon (t0, te); InputError unless
    dt is positive and divides it to a relative tolerance of 1e-9."""
    if not dt > 0:
        raise InputError("dt must be positive")
    ratio = (horizon[1] - horizon[0]) / dt
    steps = int(round(ratio))
    if abs(ratio - steps) > 1e-9 * ratio:
        raise InputError(
            f"dt={dt} does not divide the horizon {tuple(horizon)} into whole steps"
        )
    return steps


def _switched_grid(schedule: SwitchingSchedule, dt: float):
    """Sampling grid of a schedule, with every grid step split at switch times.

    The grid is t0, t0+dt, ..., te (see ``whole_steps``).  Switch times
    falling inside a sampling step are honored exactly, so sub-grid
    switching is not quantized away; the last segment runs to the end of
    its grid step.

    Returns
    -------
    times : (steps + 1,) ndarray
    pieces : list of ``steps`` lists of (input index, duration)
        The constant-input sub-intervals making up each grid step, in order.
    """
    t0 = schedule.horizon[0]
    times = t0 + np.arange(whole_steps(schedule.horizon, dt) + 1) * dt
    bounds = schedule.boundaries()
    pieces = []
    seg = 0
    t = t0
    for target in times[1:]:
        step = []
        while t < target - 1e-12:
            while seg < schedule.p and bounds[seg + 1] <= t + 1e-12:
                seg += 1
            stop = target if seg == schedule.p else min(target, bounds[seg + 1])
            step.append((schedule.input_index(seg), stop - t))
            t = stop
        pieces.append(step)
        t = target
    return times, pieces


def schedule_trajectory(
    family: SurrogateFamily, schedule: SwitchingSchedule, z0, dt: float
):
    """Lifted open-loop trajectory under a switching schedule.

    Sampled on the uniform grid t0, t0+dt, ..., te, with switch times inside
    a sampling step honored exactly; ``dt`` must divide the horizon.  One
    stacked ``expm`` gives the whole-step propagator of every input and one
    propagator per piece of the steps that a switch splits.

    Returns (times, trajectory (steps+1, n)).
    """
    times, pieces = _switched_grid(schedule, dt)
    split = [piece for step in pieces if len(step) > 1 for piece in step]
    index = np.array([i for i, _ in split], dtype=int)
    spans = np.array([span for _, span in split])
    P = scipy.linalg.expm(
        np.concatenate([family.matrices * dt, family.matrices[index] * spans[:, None, None]])
    )
    out = np.empty((times.shape[0], family.size))
    z = np.asarray(z0, dtype=float).copy()
    out[0] = z
    row = family.n_inputs
    for k, step in enumerate(pieces, 1):
        if len(step) == 1:
            z = P[step[0][0]] @ z
        else:
            for _ in step:
                z = P[row] @ z
                row += 1
        out[k] = z
    return times, out


# ---------------------------------------------------------------------------
# ground-truth plants


@dataclass
class ControlledOUPlant:
    """dX = -alpha (X - u) dt + sqrt(2/beta) dW; the input shifts the mean.

    With ``noise=False`` the plant is the deterministic relaxation ODE.
    """

    alpha: float = 1.0
    beta: float = 2.0
    dt: float = 0.005
    noise: bool = True

    dimension = 1

    def advance(self, states, u, h, rng):
        """Euler-Maruyama sub-steps; returns (new_states, window (R, k, 1)),
        the k sub-states of the step, or without noise the new state (k = 1)."""
        x = np.asarray(states, dtype=float)
        nsub = max(1, int(round(h / self.dt)))
        dt = h / nsub
        amp = np.sqrt(2.0 / self.beta * dt) if self.noise else 0.0
        u_col = np.broadcast_to(np.asarray(u, dtype=float), (x.shape[0],))[:, None]
        window = np.empty((x.shape[0], nsub, 1))
        for k in range(nsub):
            x = x + (-self.alpha * (x - u_col)) * dt
            if self.noise:
                x = x + amp * rng.standard_normal(x.shape)
            window[:, k, :] = x
        return x, window if self.noise else x[:, np.newaxis, :]

    def sample_set(self, u: float, box, m: int, seed) -> SampleSet:
        """Exact training data for the constant-input system."""
        from .models import sample_uniform

        points = sample_uniform(box, m, seed=seed)
        drift = -self.alpha * (points - u)
        if not self.noise:
            return SampleSet(
                points=points, drift_samples=drift, source="exact",
                measure_note=f"uniform box, input u={u}",
            )
        a = np.full((m, 1, 1), 2.0 / self.beta)
        return SampleSet(
            points=points, drift_samples=drift, diffusion_samples=a,
            source="exact", measure_note=f"uniform box, input u={u}",
        )

    def simulate_switched(
        self, x0: float, inputs, schedule: SwitchingSchedule, dt: float,
        realizations: int, seed,
    ) -> np.ndarray:
        """Realizations under a switching schedule, sampled every dt.

        Uses the exact Gaussian transition of the constant-input process on
        each sub-interval, splitting steps at the switch times, so neither
        the integrator nor input quantization biases the paths.

        ``dt`` must divide the horizon.  Returns an (steps + 1, realizations)
        array of states.
        """
        times, pieces = _switched_grid(schedule, dt)
        rng = _rng(seed)
        x = np.full(realizations, float(x0))
        out = np.empty((times.shape[0], realizations))
        out[0] = x
        for k, step in enumerate(pieces, 1):
            for index, span in step:
                u = inputs[index]
                decay = np.exp(-self.alpha * span)
                x = u + (x - u) * decay
                if self.noise:
                    std = np.sqrt((1.0 - decay**2) / (self.alpha * self.beta))
                    x = x + std * rng.standard_normal(realizations)
            out[k] = x
        return out


class BurgersPlant:
    """Viscous 1D Burgers flow on a periodic grid with a bump-shaped input.

    y' = nu y_xx - y y_x + u(t) chi(x) on [0, 1) with ``nodes`` equidistant
    points, central differences, and classic fourth-order Runge-Kutta in
    time.  chi is a Gaussian bump of unit amplitude centered mid-domain with
    width an eighth of the domain.
    """

    def __init__(self, nu: float = 0.05, nodes: int = 25, dt: float = 0.005):
        self.nu = float(nu)
        self.nodes = int(nodes)
        self.dt = float(dt)
        self.length = 1.0
        self.grid = np.arange(self.nodes) * (self.length / self.nodes)
        self.spacing = self.length / self.nodes
        width = self.length / 8.0
        self.chi = np.exp(-0.5 * ((self.grid - 0.5 * self.length) / width) ** 2)
        self.dimension = self.nodes

    def check_stability(self, dt: float, y: np.ndarray):
        """Explicit-step bound: diffusion plus advection rates must fit."""
        rate = 4.0 * self.nu / self.spacing**2 + 2.0 * np.abs(y).max() / self.spacing
        if dt * rate > 2.5:
            raise StabilityError(
                f"time step {dt} violates the stability bound "
                f"{2.5 / rate:.3e} for the current state"
            )

    def rhs(self, y: np.ndarray, u) -> np.ndarray:
        """Semi-discretized right-hand side; vectorized over (R, nodes)."""
        # periodic neighbours y[i + 1] and y[i - 1]
        up = np.concatenate((y[..., 1:], y[..., :1]), axis=-1)
        dn = np.concatenate((y[..., -1:], y[..., :-1]), axis=-1)
        lap = (up - 2.0 * y + dn) / self.spacing**2
        adv = y * (up - dn) / (2.0 * self.spacing)
        force = np.multiply.outer(np.asarray(u, dtype=float), self.chi) if np.ndim(u) else u * self.chi
        return self.nu * lap - adv + force

    def _rk4(self, y: np.ndarray, u, dt: float) -> np.ndarray:
        k1 = self.rhs(y, u)
        k2 = self.rhs(y + 0.5 * dt * k1, u)
        k3 = self.rhs(y + 0.5 * dt * k2, u)
        k4 = self.rhs(y + dt * k3, u)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def advance(self, states, u, h, rng=None):
        y = np.asarray(states, dtype=float)
        nsub = max(1, int(round(h / self.dt)))
        dt = h / nsub
        self.check_stability(dt, y)
        for _ in range(nsub):
            y = self._rk4(y, u, dt)
        return y, y[:, np.newaxis, :]

    def simulate(self, y0, input_fn, T: float, dt: float | None = None):
        """Trajectory under u = input_fn(t); returns (times, states).  ``dt``
        (the plant's step by default) must divide ``T``."""
        dt = self.dt if dt is None else float(dt)
        steps = whole_steps((0.0, T), dt)
        out = np.empty((steps + 1, self.nodes))
        out[0] = np.asarray(y0, dtype=float)
        for k in range(steps):
            self.check_stability(dt, out[k])
            out[k + 1] = self._rk4(out[k], float(input_fn(k * dt)), dt)
        return np.arange(steps + 1) * dt, out

    def energy(self, y: np.ndarray) -> np.ndarray:
        """Discrete energy 1/2 sum y^2 dx along a trajectory."""
        return 0.5 * np.sum(np.asarray(y) ** 2, axis=-1) * self.spacing

    def random_states(self, count: int, seed, amplitude: float = 0.1):
        """Smooth random fields: superposed sine/cosine modes, 1/k decay.

        The nodes // 2 modes span the whole grid space, so dictionary value
        matrices over these states have full rank.
        """
        rng = _rng(seed)
        theta = 2.0 * np.pi * self.grid / self.length
        y = np.zeros((count, self.nodes))
        for k in range(1, self.nodes // 2 + 1):
            coeff = amplitude * rng.standard_normal((count, 2)) / k
            y += coeff[:, :1] * np.sin(k * theta) + coeff[:, 1:] * np.cos(k * theta)
        y += amplitude * rng.standard_normal((count, 1)) * 0.5  # mean offsets
        return y

    def sample_set(self, u: float, m: int, seed, amplitude: float = 0.1) -> SampleSet:
        """Exact drift data at random smooth states for a constant input."""
        y = self.random_states(m, seed, amplitude=amplitude)
        return SampleSet(
            points=y,
            drift_samples=self.rhs(y, u),
            source="exact",
            measure_note=f"random smooth fields, input u={u}",
        )
