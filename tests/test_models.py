import dataclasses

import numpy as np
import pytest
from scipy import integrate

from koopgen.errors import InputError, IntegrationError
from koopgen.models import (
    SampleSet,
    SdeModel,
    analytic_ou_generator,
    double_well_2d,
    duffing_oscillator,
    exact_sample_set,
    finite_difference_drift,
    integrate_em,
    kramers_moyal,
    lemon_slice,
    lemon_slice_invariant_points,
    noisy_sample_set,
    ornstein_uhlenbeck,
    ou_invariant_density,
    sample_uniform,
    slow_manifold_system,
    stratonovich_to_ito,
)
from koopgen.sysid import hard_threshold


def test_ou_drift_sigma_values():
    ou = ornstein_uhlenbeck(alpha=1.0, beta=4.0)
    x = np.array([[0.5], [-2.0]])
    assert np.allclose(ou.drift_at(x), -x)
    assert np.allclose(ou.diffusion_at(x), 0.5 * np.ones((2, 1, 1)))


@pytest.mark.parametrize(
    "model, box",
    [(ornstein_uhlenbeck(1.0, 4.0), [[-2.0, 2.0]]), (lemon_slice(), [[-1.5, 1.5]] * 2)],
    ids=["ou", "lemon-slice"],
)
def test_constant_noise_keeps_one_diffusion_matrix(model, box):
    points = sample_uniform(box, 500, seed=3)
    sample = exact_sample_set(model, points)
    a = sample.diffusion_samples
    assert a.shape == (500, model.dimension, model.dimension)
    assert a.strides[0] == 0 and not a.flags.writeable
    S = np.array(model.sigma_at(points))  # the same sigma, one copy per point
    assert S.strides[0] != 0
    assert np.array_equal(a, np.einsum("lik,ljk->lij", S, S))
    materialized = SampleSet(points, sample.drift_samples, np.array(a))
    assert sample.min_diffusion_eigenvalue() == materialized.min_diffusion_eigenvalue()
    # Euler-Maruyama reads the broadcast sigma as it read the materialized one
    dense = dataclasses.replace(model, sigma=lambda x: np.array(model.sigma(x)))
    paths = [integrate_em(m, points[:40], 1e-3, 20, seed=5) for m in (model, dense)]
    assert np.array_equal(*paths)


def test_sample_set_keeps_a_zero_stride_diffusion():
    a = np.array([[2.0, 0.5], [0.3, 1.0]])
    points = sample_uniform([[-1.0, 1.0]] * 2, 50, seed=4)
    sample = SampleSet(points, -points, np.broadcast_to(a, (50, 2, 2)))
    kept = sample.diffusion_samples
    assert kept.strides[0] == 0 and not kept.flags.writeable
    assert np.array_equal(kept[17], 0.5 * (a + a.T))
    with pytest.raises(ValueError):
        kept[0, 0, 0] = 1.0
    for bad in (np.nan, np.inf):
        broken = a.copy()
        broken[1, 0] = bad
        with pytest.raises(InputError, match="non-finite"):
            SampleSet(points, -points, np.broadcast_to(broken, (50, 2, 2)))


def test_ou_invariant_density_normalized():
    grid = np.linspace(-4, 4, 4001)
    rho = ou_invariant_density(1.0, 4.0, grid)
    assert abs(integrate.trapezoid(rho, grid) - 1.0) < 1e-8


def test_analytic_ou_generator_layout():
    L = analytic_ou_generator(1.0, 4.0, 4)
    assert L.shape == (5, 5)
    assert np.allclose(np.diag(L), [0, -1, -2, -3, -4])
    assert L[0, 2] == 0.5  # beta^-1 * 2
    assert L[1, 3] == 1.5  # beta^-1 * 6
    assert L[2, 4] == 3.0  # beta^-1 * 12
    # nothing below the diagonal
    assert np.all(L[np.tril_indices(5, -1)] == 0)


def test_double_well_matches_closed_form():
    dw = double_well_2d()
    x = np.array([[1.0, -0.5], [0.3, 0.2]])
    assert np.allclose(dw.drift_at(x), np.column_stack(
        (4 * x[:, 0] - 4 * x[:, 0] ** 3, -2 * x[:, 1])
    ))
    a = dw.diffusion_at(x)
    assert np.allclose(a[:, 0, 0], 0.49 + x[:, 0] ** 2)
    assert np.allclose(a[:, 0, 1], 0.5 * x[:, 0])
    assert np.allclose(a[:, 1, 1], 0.25)


def test_integrate_em_deterministic_decay():
    model = SdeModel(dimension=1, drift=lambda x: -x)
    traj = integrate_em(model, np.array([1.0]), dt=1e-4, steps=10000, seed=0)
    assert abs(traj[-1, 0] - np.exp(-1.0)) < 1e-3


def test_integrate_em_seed_reproducible():
    ou = ornstein_uhlenbeck()
    a = integrate_em(ou, np.array([0.3]), dt=1e-3, steps=500, seed=42)
    b = integrate_em(ou, np.array([0.3]), dt=1e-3, steps=500, seed=42)
    c = integrate_em(ou, np.array([0.3]), dt=1e-3, steps=500, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_integrate_em_ensemble_shape_and_variance():
    ou = ornstein_uhlenbeck(alpha=1.0, beta=4.0)
    X0 = np.zeros((4000, 1))
    traj = integrate_em(ou, X0, dt=1e-2, steps=600, seed=7)
    assert traj.shape == (601, 4000, 1)
    # stationary variance 1/(alpha beta) = 0.25
    assert abs(np.var(traj[-1]) - 0.25) < 0.03


def test_integrate_em_blowup_reported():
    model = SdeModel(dimension=1, drift=lambda x: x**3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match="step"):
            integrate_em(model, np.array([2.0]), dt=1.0, steps=50, seed=0)


def test_integrate_em_rejects_stratonovich():
    with pytest.raises(InputError, match="Stratonovich"):
        integrate_em(duffing_oscillator(), np.array([1.0, 0.0]), 1e-3, 10, 0)


def test_sample_uniform_box_and_seed():
    box = np.array([[-2.0, 2.0], [-1.0, 1.0]])
    x = sample_uniform(box, 500, seed=3)
    assert x.shape == (500, 2)
    assert x[:, 0].min() >= -2 and x[:, 0].max() <= 2
    assert x[:, 1].min() >= -1 and x[:, 1].max() <= 1
    assert np.array_equal(x, sample_uniform(box, 500, seed=3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: sample_uniform([[np.nan, 1.0]], 10, seed=0),
        lambda: sample_uniform([[-1.0, 1.0], [0.0, np.inf]], 10, seed=0),
        lambda: kramers_moyal(np.arange(5.0), lag=np.inf),
        lambda: kramers_moyal(np.arange(5.0), lag=np.nan),
        lambda: finite_difference_drift(np.arange(5.0), dt=0.0),
        lambda: finite_difference_drift(np.arange(5.0), dt=-0.1),
        lambda: finite_difference_drift(np.arange(5.0), dt=np.inf),
        lambda: integrate_em(ornstein_uhlenbeck(), np.array([0.0]), dt=np.nan, steps=3, seed=0),
        lambda: integrate_em(ornstein_uhlenbeck(), np.array([0.0]), dt=np.inf, steps=3, seed=0),
        lambda: hard_threshold(np.eye(3), np.ones(3), np.nan),
        lambda: hard_threshold(np.eye(3), np.ones(3), np.inf),
    ],
    ids=["box-nan", "box-inf", "km-lag-inf", "km-lag-nan", "fd-dt-zero", "fd-dt-negative",
         "fd-dt-inf", "em-dt-nan", "em-dt-inf", "threshold-nan", "threshold-inf"],
)
def test_sampling_and_lag_scalars_checked(build):
    with pytest.raises(InputError, match=r"finite \(low|positive and finite"):
        build()


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: slow_manifold_system().sigma_at(np.zeros((1, 2))), "has no diffusion"),
        (lambda: SampleSet(points=np.zeros((3, 1)), drift_samples=np.zeros((3, 1)),
                           diffusion_samples=np.zeros((3, 2, 2))), r"shape \(m, d, d\)"),
        (lambda: SampleSet(points=np.zeros((3, 1)), drift_samples=np.zeros((3, 1)),
                           diffusion_samples=np.full((3, 1, 1), np.nan)), "non-finite"),
        (lambda: SampleSet(points=np.zeros((3, 1)), drift_samples=np.zeros((3, 1)))
         .min_diffusion_eigenvalue(), "no diffusion samples"),
        (lambda: integrate_em(ornstein_uhlenbeck(), np.zeros(2), 0.01, 3, seed=0),
         "x0 dimension 2 != model dimension 1"),
        (lambda: kramers_moyal(np.zeros((1, 3, 1)), 0.01), "two trajectory points"),
        (lambda: finite_difference_drift(np.arange(2.0), 0.1), "three trajectory points"),
    ],
    ids=["sigma-of-ode", "diffusion-shape", "diffusion-nan", "psd-without-diffusion",
         "em-x0-dimension", "km-one-time-point", "fd-two-points"],
)
def test_invalid_arguments_raise(build, match):
    with pytest.raises(InputError, match=match):
        build()


def test_exact_sample_set_psd_invariant():
    dw = double_well_2d()
    pts = sample_uniform([[-2, 2], [-1, 1]], 200, seed=1)
    s = exact_sample_set(dw, pts)
    assert s.min_diffusion_eigenvalue() >= -1e-10
    # symmetry is exact after construction
    assert np.array_equal(s.diffusion_samples, np.transpose(s.diffusion_samples, (0, 2, 1)))


def test_kramers_moyal_recovers_ou_statistics():
    ou = ornstein_uhlenbeck(alpha=1.0, beta=4.0)
    traj = integrate_em(ou, np.array([0.0]), dt=1e-3, steps=200000, seed=11)
    km = kramers_moyal(traj, lag=1e-3)
    assert km.count == 200000
    # regression slope of b-hat on x should be close to -alpha
    x = km.points[:, 0]
    slope = np.sum(x * km.drift_samples[:, 0]) / np.sum(x * x)
    assert abs(slope - (-1.0)) < 0.05
    # mean second conditional moment close to 2/beta = 0.5
    assert abs(np.mean(km.diffusion_samples[:, 0, 0]) - 0.5) < 0.05


def test_kramers_moyal_pools_an_ensemble_walker_by_walker():
    paths = integrate_em(double_well_2d(), np.zeros((3, 2)), 0.01, 6, seed=4)
    pooled = kramers_moyal(paths, 0.01)
    walkers = [kramers_moyal(paths[:, w], 0.01) for w in range(3)]
    for field in ("points", "drift_samples", "diffusion_samples"):
        want = np.concatenate([getattr(s, field) for s in walkers])
        assert np.array_equal(getattr(pooled, field), want)


def test_finite_difference_drift_second_order():
    t = np.linspace(0, 1, 2001)
    traj = np.column_stack((np.sin(t), np.cos(2 * t)))
    fd = finite_difference_drift(traj, dt=t[1] - t[0])
    expected = np.column_stack((np.cos(t), -2 * np.sin(2 * t)))[1:-1]
    assert np.max(np.abs(fd.drift_samples - expected)) < 1e-6


def test_stratonovich_to_ito_duffing_formula():
    alpha, beta, eps = -1.1, 1.1, 0.05
    duf = duffing_oscillator(alpha, beta, eps)
    ito = stratonovich_to_ito(duf)
    x = sample_uniform([[-2, 2], [-2, 2]], 50, seed=5)
    b = duf.drift_at(x)
    want = b + 0.5 * eps**2 * np.column_stack(
        (b[:, 1], (-alpha - 3 * beta * x[:, 0] ** 2) * b[:, 0])
    )
    assert np.allclose(ito.drift_at(x), want, atol=1e-12)
    # finite-difference fallback agrees with the analytic Jacobian
    duf_fd = duffing_oscillator(alpha, beta, eps)
    duf_fd.sigma_jacobian = None
    ito_fd = stratonovich_to_ito(duf_fd)
    assert np.allclose(ito_fd.drift_at(x), want, atol=1e-8)


def test_stratonovich_guard():
    with pytest.raises(InputError):
        stratonovich_to_ito(ornstein_uhlenbeck())
    with pytest.raises(InputError):
        exact_sample_set(duffing_oscillator(), np.array([[0.0, 0.0]]))


def test_noisy_sample_set_reproducible_and_symmetric():
    dw = double_well_2d()
    s = exact_sample_set(dw, sample_uniform([[-2, 2], [-1, 1]], 100, seed=2))
    n1 = noisy_sample_set(s, 0.1, seed=9)
    n2 = noisy_sample_set(s, 0.1, seed=9)
    assert np.array_equal(n1.drift_samples, n2.drift_samples)
    assert not np.array_equal(n1.drift_samples, s.drift_samples)
    assert np.array_equal(n1.diffusion_samples, np.transpose(n1.diffusion_samples, (0, 2, 1)))


def test_sample_set_validation():
    with pytest.raises(InputError):
        SampleSet(points=np.array([[0.0]]), drift_samples=np.array([[np.nan]]))
    with pytest.raises(InputError):
        SampleSet(points=np.zeros((3, 2)), drift_samples=np.zeros((2, 2)))


def test_lemon_slice_gradient_matches_fd():
    model = lemon_slice()
    rng = np.random.Generator(np.random.Philox(4))
    r = rng.uniform(0.6, 1.5, 40)
    phi = rng.uniform(-2.5, 2.5, 40)
    x = np.column_stack((r * np.cos(phi), r * np.sin(phi)))
    g = model.potential_gradient(x)
    h = 1e-6
    for j in range(2):
        xp = x.copy()
        xm = x.copy()
        xp[:, j] += h
        xm[:, j] -= h
        fd = (model.potential(xp) - model.potential(xm)) / (2 * h)
        assert np.max(np.abs(fd - g[:, j])) < 1e-5
    # hand value: at (1, 0) the radial force is +1 (from the 1/r term)
    b0 = model.drift_at(np.array([[1.0, 0.0]]))
    assert np.allclose(b0, [[1.0, 0.0]], atol=1e-12)


def test_lemon_slice_invariant_sampler_marginals():
    pts = lemon_slice_invariant_points(40000, seed=13)
    r = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    # radial mean from quadrature over the factorized density r exp(-V_r(r))
    rg = np.linspace(0.05, 3.0, 20001)
    w = rg * np.exp(-(10.0 * (rg - 1.0) ** 2 + 1.0 / rg))
    r_mean = integrate.trapezoid(rg * w, rg) / integrate.trapezoid(w, rg)
    assert abs(np.mean(r) - r_mean) < 0.01
    # angular histogram against the analytic marginal ~ exp(-cos(4p) - sec(p/2))
    hist, edges = np.histogram(phi, bins=16, range=(-np.pi, np.pi), density=True)
    pg = np.linspace(-np.pi + 1e-4, np.pi - 1e-4, 40001)
    wp = np.exp(-(np.cos(4 * pg) + 1.0 / np.cos(0.5 * pg)))
    wp /= integrate.trapezoid(wp, pg)
    expected = np.array([
        integrate.trapezoid(np.where((pg >= a) & (pg < b), wp, 0.0), pg) / (b - a)
        for a, b in zip(edges[:-1], edges[1:])
    ])
    assert np.max(np.abs(hist - expected)) < 0.02
    assert np.array_equal(pts, lemon_slice_invariant_points(40000, seed=13))


def test_slow_manifold_drift():
    m = slow_manifold_system(-0.8, -0.7)
    x = np.array([[1.0, 2.0]])
    assert np.allclose(m.drift_at(x), [[-0.8, -0.7 * (2.0 - 1.0)]])
    assert m.deterministic
