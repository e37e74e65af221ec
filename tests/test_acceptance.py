"""Acceptance gate: ten pinned end-to-end criteria, one report line each.

Every test prints ``criterion N: PASS/FAIL`` with the measured numbers; the
lines are echoed in a terminal summary section after the run.  Tolerances
and runtime budgets are pinned and must not be loosened.
"""

import json
import time

import numpy as np
import pytest

import helpers
from conftest import fd_gradient, fd_hessian
from koopgen import cli, coarse_grain as cg
from koopgen import control, generator, models, spectral, sysid
from koopgen.dictionaries import GaussianBasis, LegendreBasis, Monomials, evaluate

REPORT_LINES = []


def _finish(number, detail, failures, elapsed=None, budget=None):
    if budget is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds {budget:.0f}s budget")
    ok = not failures
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    if elapsed is not None:
        line += f" [{elapsed:.1f}s]"
    if failures:
        line += " | " + "; ".join(failures)
    print(line)
    REPORT_LINES.append(line)
    assert ok, "; ".join(failures)


def _check(failures, condition, message):
    if not condition:
        failures.append(message)


def test_criterion_01_ou_spectrum_and_generator():
    start = time.perf_counter()
    model = models.ornstein_uhlenbeck(1.0, 4.0)
    points = models.sample_uniform([[-2.0, 2.0]], 100, seed=3)
    sample = models.exact_sample_set(model, points)
    est = generator.gedmd_stochastic(Monomials(1, 10), sample)
    dec = spectral.decompose(est)

    failures = []
    eig_err = np.abs(dec.eigenvalues[:5] - np.array([0.0, -1.0, -2.0, -3.0, -4.0])).max()
    _check(failures, eig_err < 1e-6, f"eigenvalue error {eig_err:.2e} >= 1e-6")
    mat_err = np.abs(est.L - models.analytic_ou_generator(1.0, 4.0, 10)).max()
    _check(failures, mat_err < 1e-8, f"matrix error {mat_err:.2e} >= 1e-8")
    elapsed = time.perf_counter() - start
    _finish(
        1,
        f"eigenvalue err {eig_err:.1e}, matrix err {mat_err:.1e}",
        failures,
        elapsed,
        budget=1.0,
    )


def test_criterion_02_slow_manifold_modes_and_reconstruction():
    start = time.perf_counter()
    model = models.slow_manifold_system(-0.8, -0.7)
    points = models.sample_uniform([[-1.0, 1.0]] * 2, 1000, seed=7)
    sample = models.exact_sample_set(model, points)
    basis = Monomials(2, 8)
    est = generator.gedmd_deterministic(basis, sample)
    dec = spectral.decompose(est)
    km = spectral.koopman_modes(dec)

    failures = []
    eig_err = max(
        np.abs(dec.eigenvalues - target).min() for target in (0.0, -0.7, -0.8, -1.6)
    )
    _check(failures, eig_err < 1e-6, f"eigenvalue error {eig_err:.2e} >= 1e-6")

    # eigenfunction at the slow rate: coefficient of x2 over that of x1^2
    xi = km.eigenvectors[:, 1].real
    ratio = xi[basis.index_of((0, 1))] / xi[basis.index_of((2, 0))]
    _check(failures, abs(ratio - 1.286) < 1e-3, f"coefficient ratio {ratio:.5f} vs 1.286")

    mode_err = max(
        np.abs(km.modes[:, l].real - expected).max()
        for l, expected in [
            (1, np.array([0.0, 0.778])),
            (2, np.array([1.0, 0.0])),
            (5, np.array([0.0, -0.778])),
        ]
    )
    _check(failures, mode_err < 1e-3, f"mode error {mode_err:.2e} >= 1e-3")

    fresh = models.sample_uniform([[-1.0, 1.0]] * 2, 100, seed=99)
    recon_err = np.abs(spectral.reconstruct_drift(km, basis, fresh) - model.drift(fresh)).max()
    _check(failures, recon_err < 1e-6, f"reconstruction error {recon_err:.2e} >= 1e-6")
    elapsed = time.perf_counter() - start
    _finish(
        2,
        f"eig err {eig_err:.1e}, ratio {ratio:.4f}, mode err {mode_err:.1e}, "
        f"reconstruction err {recon_err:.1e}",
        failures,
        elapsed,
        budget=5.0,
    )


def test_criterion_03_double_well_identification():
    start = time.perf_counter()
    model = models.double_well_2d()
    basis = Monomials(2, 4)
    points = models.sample_uniform([[-2.0, 2.0]] * 2, 8000, seed=13)
    exact = models.exact_sample_set(model, points)

    true_drift = np.zeros((basis.size, 2))
    true_drift[basis.index_of((1, 0)), 0] = 4.0
    true_drift[basis.index_of((3, 0)), 0] = -4.0
    true_drift[basis.index_of((0, 1)), 1] = -2.0
    true_diffusion = np.zeros((basis.size, 3))
    true_diffusion[basis.index_of((0, 0)), 0] = 0.49
    true_diffusion[basis.index_of((2, 0)), 0] = 1.0
    true_diffusion[basis.index_of((1, 0)), 1] = 0.5
    true_diffusion[basis.index_of((0, 0)), 2] = 0.25

    failures = []
    fit = sysid.identify(basis, exact)
    drift_err = np.abs(fit.drift_coeffs - true_drift).max()
    diff_err = np.abs(fit.diffusion_coeffs - true_diffusion).max()
    _check(failures, drift_err < 1e-6, f"exact drift error {drift_err:.2e} >= 1e-6")
    _check(failures, diff_err < 1e-6, f"exact diffusion error {diff_err:.2e} >= 1e-6")

    noisy = models.noisy_sample_set(exact, 0.1, seed=113)
    noisy_fit = sysid.identify(basis, noisy, delta=0.1)
    noisy_err = np.abs(noisy_fit.drift_coeffs - true_drift).max()
    _check(failures, noisy_err < 0.05, f"noisy drift error {noisy_err:.3f} >= 0.05")
    elapsed = time.perf_counter() - start
    _finish(
        3,
        f"exact drift err {drift_err:.1e}, diffusion err {diff_err:.1e}, "
        f"noisy drift err {noisy_err:.4f}",
        failures,
        elapsed,
        budget=10.0,
    )


def test_criterion_04_duffing_conservation_law():
    start = time.perf_counter()
    model = models.stratonovich_to_ito(models.duffing_oscillator(-1.1, 1.1, 0.05))
    points = models.sample_uniform([[-2.0, 2.0]] * 2, 3000, seed=11)
    sample = models.exact_sample_set(model, points)
    basis = Monomials(2, 4)
    dec = spectral.decompose(generator.gedmd_stochastic(basis, sample))

    failures = []
    radius = np.abs(dec.eigenvalues).max()
    multiplicity = int((np.abs(dec.eigenvalues) < 1e-6 * radius).sum())
    _check(failures, multiplicity == 2, f"zero-eigenvalue multiplicity {multiplicity} != 2")

    cons = spectral.conserved_quantities(dec)
    _check(failures, len(cons) == 1, f"{len(cons)} conserved quantities, expected 1")
    ratio_err = np.inf
    if cons:
        vec = cons[0]
        c2 = vec[basis.index_of((2, 0))]
        # targets: (beta/4)/(alpha/2) and (1/2)/(alpha/2) with alpha=-1.1, beta=1.1
        r1 = vec[basis.index_of((4, 0))] / c2
        r2 = vec[basis.index_of((0, 2))] / c2
        ratio_err = max(abs(r1 / -0.5 - 1.0), abs(r2 / (-1.0 / 1.1) - 1.0))
        _check(failures, ratio_err < 0.02, f"coefficient ratio error {ratio_err:.4f} >= 2%")
    elapsed = time.perf_counter() - start
    _finish(
        4,
        f"zero multiplicity {multiplicity}, ratio err {ratio_err:.2e}",
        failures,
        elapsed,
        budget=5.0,
    )


def test_criterion_05_gram_convergence_rate():
    start = time.perf_counter()
    model = models.ornstein_uhlenbeck(1.0, 4.0)
    basis = Monomials(1, 6)
    # exact Gram of monomials under the uniform law on [-2, 2]
    exact = np.zeros((basis.size, basis.size))
    for i in range(basis.size):
        for j in range(basis.size):
            if (i + j) % 2 == 0:
                exact[i, j] = 2.0 ** (i + j) / (i + j + 1)

    sizes = [100, 1000, 10000, 100000]
    errors = []
    for m in sizes:
        per_seed = []
        for s in range(3):
            points = models.sample_uniform([[-2.0, 2.0]], m, seed=1000 + s)
            est = generator.gedmd_stochastic(
                basis, models.exact_sample_set(model, points)
            )
            per_seed.append(np.linalg.norm(est.G_hat - exact))
        errors.append(np.exp(np.mean(np.log(per_seed))))
    slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]

    failures = []
    _check(failures, abs(slope + 0.5) < 0.15, f"slope {slope:.3f} outside -0.5 +- 0.15")
    elapsed = time.perf_counter() - start
    _finish(5, f"log-log slope {slope:.3f}", failures, elapsed, budget=30.0)


def test_criterion_06_sindy_equivalence():
    model = models.ornstein_uhlenbeck(1.0, 4.0)
    points = models.sample_uniform([[-2.0, 2.0]], 1000, seed=3)
    sample = models.exact_sample_set(model, points)
    basis = Monomials(1, 10)
    est = generator.gedmd_stochastic(basis, sample)
    direct = sysid.sindy_coefficients(basis, sample)
    values = basis.evaluate(points).values
    via_generator = (est.L @ basis.full_state_selector()).T @ values

    failures = []
    gap = np.abs(direct @ values - via_generator).max()
    _check(failures, gap < 1e-10, f"route disagreement {gap:.2e} >= 1e-10")
    _finish(6, f"max pointwise gap {gap:.1e}", failures)


def test_criterion_07_lemon_slice_coarse_graining():
    start = time.perf_counter()
    model = models.lemon_slice(k=4, beta=1.0)
    points = models.lemon_slice_invariant_points(100000, seed=42)
    sample = models.exact_sample_set(model, points)
    pmap = cg.polar_angle_map()
    basis = LegendreBasis(20, [[-np.pi, np.pi]])  # 21 functions
    rsample = cg.reduced_sample(pmap, sample)
    est = generator.gedmd_reversible(basis, rsample)
    dbasis = GaussianBasis(np.linspace(-2.8, 2.8, 25)[:, None], 0.4)

    failures = []
    theta = cg.fit_diffusion(est.A_hat, basis, rsample, dbasis)
    grid = np.linspace(-2.8, 2.8, 201)
    a_fit = dbasis.values(grid[:, None]).T @ theta
    variation = a_fit.std() / a_fit.mean()
    _check(failures, variation < 0.05, f"diffusion std/mean {variation:.3f} >= 0.05")

    dec = spectral.decompose(est)
    c1, c2 = helpers.lemon_slice_radial_constants()
    fv = helpers.fv_reversible_eigenvalues(
        helpers.lemon_slice_angular_potential,
        lambda z: 2.0 * c1 / c2 + 0.0 * z,
        -3.05,
        3.05,
        cells=2000,
    )
    fv_ts = np.abs(1.0 / fv[1:4])
    ts_err = (np.abs(dec.timescales[1:4] - fv_ts) / fv_ts).max()
    _check(failures, ts_err < 0.10, f"timescale error {ts_err:.3f} >= 10%")

    reduced = cg.build_reduced_model(pmap, basis, sample, model, dbasis)
    fine = np.linspace(-2.8, 2.8, 401)
    _, rebuilt, _ = reduced.on_grid(fine)
    coeffs = est.L @ basis.full_state_selector()[:, 0]
    direct = evaluate(basis, fine[:, None]).values.T @ coeffs
    drift_rel = np.sqrt(np.mean((rebuilt - direct) ** 2) / np.mean(direct**2))
    _check(failures, drift_rel < 0.10, f"drift reconstruction RMS {drift_rel:.3f} >= 10%")
    elapsed = time.perf_counter() - start
    _finish(
        7,
        f"a std/mean {variation:.3f}, timescale err {ts_err:.3f}, drift RMS {drift_rel:.3f}",
        failures,
        elapsed,
        budget=120.0,
    )


def test_criterion_08_ou_control():
    start = time.perf_counter()
    plant = control.ControlledOUPlant(alpha=1.0, beta=2.0)
    dictionary = Monomials(1, 12)
    inputs = [-5.0, 5.0]
    samples = [
        plant.sample_set(u, [[-2.0, 2.0]], 200, seed=11 + i)
        for i, u in enumerate(inputs)
    ]
    family = control.fit_surrogates(dictionary, inputs, samples)
    failures = []

    # surrogate mean prediction vs the analytic relaxation m(t) = u (1 - e^-t)
    z0 = family.lift(np.array([[0.0]]))[0]
    mean_err = 0.0
    for i, u in enumerate(inputs):
        t, Z = control.predict(family, i, z0, 3.0, 0.01)
        mean_err = max(mean_err, np.abs((Z @ family.readout.T)[:, 0] - u * (1.0 - np.exp(-t))).max())
    _check(failures, mean_err < 1e-3, f"surrogate mean error {mean_err:.2e} >= 1e-3")

    # MPC on a piecewise-constant reference, 1000-run Monte Carlo mean
    problem = control.ControlProblem(
        surrogates=family,
        reference=lambda t: np.array([2.0 if t < 5.0 else -2.0]),
        horizon=(0.0, 10.0),
        h=0.05,
        q=3,
    )
    result = control.mpc(problem, plant, np.zeros((1000, 1)), seed=77)
    mean = result.states[:, :, 0].mean(axis=1)
    t = result.times
    offset = max(
        abs(mean[(t >= 3.0) & (t < 5.0)].mean() - 2.0),
        abs(mean[t >= 8.0].mean() + 2.0),
    )
    _check(failures, offset < 0.2, f"MPC steady-state offset {offset:.3f} >= 0.2")

    # switching-time optimization tracking tanh(t - 10) over [0, 20]
    sto_problem = control.ControlProblem(
        surrogates=family,
        reference=lambda t: np.array([np.tanh(t - 10.0)]),
        horizon=(0.0, 20.0),
        h=0.05,
        reference_derivative=lambda t: np.array([1.0 / np.cosh(t - 10.0) ** 2]),
    )
    x0 = np.array([-1.0])
    schedule = control.switching_time_optimize(sto_problem, 200, x0=x0, max_iter=600)
    _check(failures, schedule.converged, "switching-time optimization did not converge")
    times, Z = control.schedule_trajectory(family, schedule, family.lift(x0[None, :])[0], 0.05)
    surrogate = (Z @ family.readout.T)[:, 0]
    target = np.tanh(times - 10.0)
    sto_rms = np.sqrt(np.mean((surrogate - target) ** 2))
    _check(failures, sto_rms < 0.1, f"switching surrogate RMS {sto_rms:.4f} >= 0.1")

    paths = plant.simulate_switched(-1.0, inputs, schedule, 0.05, 1000, seed=314)
    mc_rms = np.sqrt(np.mean((paths.mean(axis=1) - surrogate) ** 2))
    _check(failures, mc_rms < 0.1, f"surrogate-vs-MC RMS {mc_rms:.4f} >= 0.1")

    # analytic schedule gradient against central finite differences
    fd_rng = np.random.Generator(np.random.Philox(99))
    short = control.ControlProblem(
        surrogates=family,
        reference=lambda t: np.array([np.tanh(t - 4.0)]),
        horizon=(0.0, 8.0),
        h=0.05,
        alpha=0.5,
        reference_derivative=lambda t: np.array([1.0 / np.cosh(t - 4.0) ** 2]),
    )
    tau = np.sort(fd_rng.uniform(0.5, 7.5, size=9))
    _, grad = control.sto_objective_and_gradient(short, family.lift(x0[None, :])[0], tau)
    fd = np.empty_like(tau)
    for k in range(tau.size):
        eps = 1e-6
        up, down = tau.copy(), tau.copy()
        up[k] += eps
        down[k] -= eps
        fd[k] = (
            control.sto_objective_and_gradient(short, family.lift(x0[None, :])[0], up)[0]
            - control.sto_objective_and_gradient(short, family.lift(x0[None, :])[0], down)[0]
        ) / (2.0 * eps)
    grad_rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1.0)
    _check(failures, grad_rel < 1e-5, f"gradient FD relative error {grad_rel:.2e} >= 1e-5")
    elapsed = time.perf_counter() - start
    _finish(
        8,
        f"mean err {mean_err:.1e}, MPC offset {offset:.3f}, STO RMS {sto_rms:.3f}, "
        f"MC RMS {mc_rms:.3f}, grad err {grad_rel:.1e}, STO converged "
        f"{schedule.converged} after {schedule.iterations} iterations",
        failures,
        elapsed,
        budget=300.0,
    )


def test_criterion_09_burgers_step_refinement(burgers_refinement):
    # the surrogate fit and both MPC runs are shared session fixtures in
    # conftest.py; elapsed is the wall time of the MPC runs
    errors, elapsed = burgers_refinement
    failures = []
    ratio = errors[0.5] / errors[0.005]
    _check(failures, ratio >= 10.0, f"refinement ratio {ratio:.1f} < 10")
    _finish(
        9,
        f"tracking err {errors[0.5]:.2e} (h=0.5) vs {errors[0.005]:.2e} (h=0.005), "
        f"ratio {ratio:.0f}x",
        failures,
        elapsed,
        budget=300.0,
    )


def test_criterion_10_property_suites(tmp_path, bundled_outputs):
    failures = []

    # dictionary derivatives against central finite differences
    fd_points = models.sample_uniform([[-1.5, 1.5]] * 2, 25, seed=6)
    for dictionary in (
        Monomials(2, 4),
        LegendreBasis(6, [[-2.0, 2.0], [-2.0, 2.0]]),
        GaussianBasis(models.sample_uniform([[-1.0, 1.0]] * 2, 6, seed=1), 0.7),
    ):
        block = dictionary.evaluate(fd_points, with_hessians=True)
        g_err = np.abs(block.gradients - fd_gradient(dictionary, fd_points)).max()
        h_err = np.abs(block.hessians - fd_hessian(dictionary, fd_points)).max()
        _check(failures, g_err < 1e-6, f"{type(dictionary).__name__} gradient FD {g_err:.2e}")
        _check(failures, h_err < 1e-5, f"{type(dictionary).__name__} hessian FD {h_err:.2e}")

    # eigen-residuals and Gram PSD across the estimator variants
    ou = models.ornstein_uhlenbeck(1.0, 4.0)
    ou_sample = models.exact_sample_set(
        ou, models.sample_uniform([[-2.0, 2.0]], 500, seed=3)
    )
    slow = models.slow_manifold_system(-0.8, -0.7)
    slow_sample = models.exact_sample_set(
        slow, models.sample_uniform([[-1.0, 1.0]] * 2, 500, seed=7)
    )
    estimates = [
        generator.gedmd_stochastic(Monomials(1, 8), ou_sample),
        generator.gedmd_reversible(Monomials(1, 8), ou_sample),
        generator.gedmd_deterministic(Monomials(2, 5), slow_sample),
    ]
    for est in estimates:
        dec = spectral.decompose(est)
        bound = 1e-8 * np.linalg.norm(est.M.T)
        res = dec.residuals().max()
        _check(failures, res <= bound, f"{est.kind} eigen-residual {res:.2e} > {bound:.2e}")
        lam_min = np.linalg.eigvalsh(est.G_hat).min()
        floor = -1e-10 * np.linalg.norm(est.G_hat)
        _check(failures, lam_min >= floor, f"{est.kind} Gram min eigenvalue {lam_min:.2e}")

    # identified diffusion PSD after the clipped-factor route
    dw_sample = models.noisy_sample_set(
        models.exact_sample_set(
            models.double_well_2d(),
            models.sample_uniform([[-2.0, 2.0]] * 2, 3000, seed=13),
        ),
        0.1,
        seed=113,
    )
    basis = Monomials(2, 4)
    fit = sysid.identify(basis, dw_sample, delta=0.1)
    grid = models.sample_uniform([[-2.0, 2.0]] * 2, 200, seed=8)
    factor = sysid.diffusion_factor(basis, fit.diffusion_coeffs, grid)
    a_clipped = factor @ np.swapaxes(factor, 1, 2)
    min_eig = min(np.linalg.eigvalsh(a_clipped[i]).min() for i in range(grid.shape[0]))
    _check(failures, min_eig >= -1e-12, f"clipped diffusion min eigenvalue {min_eig:.2e}")

    # bit-reproducibility of every bundled config under its fixed seed: a second
    # run against the session's first (which test_golden also compares)
    unstable = []
    for name, config in cli.bundled_configs().items():
        first, again = bundled_outputs[name], tmp_path / name
        artifacts = cli.run_experiment(config, again)["artifacts"] + ["manifest.json"]
        for artifact in artifacts:
            if (first / artifact).read_bytes() != (again / artifact).read_bytes():
                unstable.append(f"{name}/{artifact}")
    _check(failures, not unstable, f"non-reproducible artifacts: {', '.join(unstable)}")

    _finish(
        10,
        f"FD checks, eigen-residuals, PSD, {len(cli.bundled_configs())} configs "
        "bit-reproducible",
        failures,
    )
