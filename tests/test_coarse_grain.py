"""Coarse graining: chain rule, force matching, diffusion fits, reduced models."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import helpers
from koopgen import coarse_grain as cg
from koopgen import generator, io, models, spectral
from koopgen.dictionaries import GaussianBasis, LegendreBasis, Monomials, evaluate
from koopgen.errors import InputError, NumericalError


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: cg.linear_map([1.0, 0.0]), r"\(p, d\) matrix"),
        (lambda: cg.force_matching(
            models.SampleSet(points=np.zeros((3, 2)), drift_samples=np.zeros((3, 2))),
            models.slow_manifold_system(), cg.linear_map([[1.0, 0.0]]), Monomials(1, 2),
        ), "no potential gradient"),
    ],
    ids=["linear-map-1d", "model-without-potential-gradient"],
)
def test_invalid_arguments_raise(build, match):
    with pytest.raises(InputError, match=match):
        build()


def test_package_import_leaves_scipy_optimize_unloaded(tmp_path):
    # neither the package import nor any bundled config loads scipy: not its
    # linalg (the fold and the exponential run on numpy's LAPACK), nor
    # scipy.optimize or scipy.sparse (and with them spatial and special)
    src = Path(cg.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import koopgen\n"
        "names = ('scipy', 'scipy.linalg', 'scipy.optimize', 'scipy.sparse')\n"
        "print(*[m in sys.modules for m in names])\n"
        "from koopgen import cli\n"
        "for name in sorted(cli.bundled_configs()):\n"
        "    assert cli.main(['run', name, '--out', sys.argv[1] + '/' + name]) == 0\n"
        "print(len(cli.bundled_configs()), *[m in sys.modules for m in names])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], cwd=src, capture_output=True, text=True,
        check=True,
    )
    lines = out.stdout.splitlines()
    assert lines[0] == "False False False False"
    assert lines[-1] == "9 False False False False"


def _nnls_cases():
    """name -> ((D, target) problems, exact solution or None, whether x is unique)."""
    rng = np.random.Generator(np.random.Philox(23))
    tall = []
    for _ in range(100):
        rows, cols = int(rng.integers(30, 450)), int(rng.integers(1, 26))
        tall.append((rng.standard_normal((rows, cols)), rng.standard_normal(rows)))
    positive = rng.uniform(0.1, 1.0, (60, 8))
    x_true = np.array([0.0, 1.5, 0.0, 2.0, 0.3, 0.0, 4.0, 1.0])
    zero_column = rng.standard_normal((50, 5))
    zero_column[:, 2] = 0.0
    base = rng.standard_normal((50, 5))
    duplicated = np.column_stack([base, base[:, 1], base[:, 3]])
    return {
        "random-tall": (tall, None, True),
        "negative-cone": ([(positive, -positive @ rng.uniform(0.0, 1.0, 8))], np.zeros(8), True),
        "exact-nonnegative": ([(positive, positive @ x_true)], x_true, True),
        "zero-column": ([(zero_column, rng.standard_normal(50))], None, True),
        "duplicated-columns": ([(duplicated, rng.standard_normal(50))], None, False),
        # column 2 enters first; once column 1 joins, column 2's coefficient turns
        # negative, so the solution takes one inner step
        "iteration-cap": (
            [(np.array([[1.0, 3.0], [1.0, 2.0], [1.0, 3.0]]), np.array([1.0, 3.0, 1.0]))],
            np.array([5.0 / 3.0, 0.0]), True,
        ),
    }


@pytest.mark.parametrize("case", list(_nnls_cases()))
def test_nnls_matches_scipy(monkeypatch, case):
    problems, exact, unique = _nnls_cases()[case]
    for D, target in problems:
        x, (want, _) = cg._nnls(D, target), scipy.optimize.nnls(D, target)
        assert x.min(initial=0.0) >= 0.0
        if exact is not None:
            assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)
        if not unique:  # only the fitted values are unique
            x, want = D @ x, D @ want
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    if case == "iteration-cap":
        monkeypatch.setattr(cg, "NNLS_STEPS", 0)
        with pytest.raises(NumericalError, match="more than 0 inner steps"):
            cg._nnls(*problems[0])


def map_fd_jacobian(cg_map, x, step=1e-6):
    m, d = x.shape
    out = np.empty((m, d, cg_map.reduced_dim))
    for i in range(d):
        xp, xm = x.copy(), x.copy()
        xp[:, i] += step
        xm[:, i] -= step
        out[:, i, :] = (cg_map(xp) - cg_map(xm)) / (2 * step)
    return out


def map_fd_hessians(cg_map, x, step=1e-6):
    m, d = x.shape
    out = np.empty((m, d, d, cg_map.reduced_dim))
    for i in range(d):
        xp, xm = x.copy(), x.copy()
        xp[:, i] += step
        xm[:, i] -= step
        out[:, :, i, :] = (cg_map.jacobian(xp) - cg_map.jacobian(xm)) / (2 * step)
    return out


def test_reduced_sample_reads_a_broadcast_diffusion():
    # the lemon slice's constant diffusion is one matrix broadcast over the points
    sample = models.exact_sample_set(
        models.lemon_slice(), models.lemon_slice_invariant_points(400, seed=8)
    )
    assert sample.diffusion_samples.strides[0] == 0
    dense = models.SampleSet(
        sample.points, sample.drift_samples, np.array(sample.diffusion_samples)
    )
    for cg_map in (cg.polar_angle_map(), cg.linear_map([[1.0, 0.5]])):
        got, want = cg.reduced_sample(cg_map, sample), cg.reduced_sample(cg_map, dense)
        assert np.array_equal(got.drift_samples, want.drift_samples)
        assert np.array_equal(got.diffusion_samples, want.diffusion_samples)


@pytest.fixture(scope="module")
def lemon():
    """Invariant lemon-slice sample with the reversible reduced estimate."""
    model = models.lemon_slice(k=4, beta=1.0)
    points = models.lemon_slice_invariant_points(100000, seed=42)
    sample = models.exact_sample_set(model, points)
    pmap = cg.polar_angle_map()
    basis = LegendreBasis(20, [[-np.pi, np.pi]])
    rsample = cg.reduced_sample(pmap, sample)
    est = generator.gedmd_reversible(basis, rsample)
    return {
        "model": model,
        "sample": sample,
        "map": pmap,
        "basis": basis,
        "est": est,
        "rsample": rsample,
    }


class TestMaps:
    def test_identity(self, rng):
        m = cg.linear_map(np.eye(3))
        x = rng.standard_normal((7, 3))
        assert np.array_equal(m(x), x)
        assert np.array_equal(m.jacobian(x)[0], np.eye(3))
        assert m.hessians is None

    def test_linear(self, rng):
        P = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]])
        m = cg.linear_map(P)
        x = rng.standard_normal((5, 3))
        assert np.allclose(m(x), x @ P.T)
        assert np.allclose(m.jacobian(x), map_fd_jacobian(m, x), atol=1e-8)
        assert m.hessians is None

    def test_polar_angle_hand_values(self):
        m = cg.polar_angle_map()
        x = np.array([[1.0, 0.0]])
        assert np.allclose(m(x), [[0.0]])
        assert np.allclose(m.jacobian(x)[0, :, 0], [0.0, 1.0])
        assert np.allclose(m.hessians(x)[0, :, :, 0], [[0.0, -1.0], [-1.0, 0.0]])

    def test_polar_angle_matches_fd(self, rng):
        m = cg.polar_angle_map()
        x = rng.standard_normal((40, 2)) + np.array([2.0, 0.0])  # away from the cut
        assert np.abs(m.jacobian(x) - map_fd_jacobian(m, x)).max() < 1e-6
        assert np.abs(m.hessians(x) - map_fd_hessians(m, x)).max() < 1e-6

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InputError):
            cg.reduced_sample(
                cg.polar_angle_map(),
                models.SampleSet(
                    points=rng.standard_normal((4, 3)),
                    drift_samples=np.zeros((4, 3)),
                ),
            )


class TestCoarseDpsi:
    def test_identity_map_is_plain_gedmd(self):
        model = models.double_well_2d()
        points = models.sample_uniform([[-2.0, 2.0]] * 2, 800, seed=3)
        sample = models.exact_sample_set(model, points)
        basis = Monomials(2, 4)
        rsample = cg.reduced_sample(cg.linear_map(np.eye(2)), sample)
        direct = basis.generator_action(
            points, sample.drift_samples, sample.diffusion_samples
        )[1]
        coarse = basis.generator_action(
            rsample.points, rsample.drift_samples, rsample.diffusion_samples
        )[1]
        assert np.array_equal(coarse, direct)
        est_direct = generator.gedmd_stochastic(basis, sample)
        est_coarse = generator.gedmd_stochastic(basis, rsample)
        assert np.array_equal(est_coarse.M, est_direct.M)
        assert np.array_equal(est_coarse.A_hat, est_direct.A_hat)
        assert np.array_equal(est_coarse.G_hat, est_direct.G_hat)

    def test_linear_map_drops_hessian_term(self):
        model = models.double_well_2d()
        points = models.sample_uniform([[-2.0, 2.0]] * 2, 100, seed=4)
        sample = models.exact_sample_set(model, points)
        lmap = cg.linear_map(np.array([[1.0, -2.0]]))
        rsample = cg.reduced_sample(lmap, sample)
        J = lmap.jacobian(points)
        assert np.array_equal(
            rsample.drift_samples, np.einsum("li,lip->lp", sample.drift_samples, J)
        )

    def test_deterministic_linear_map_is_plain_gedmd(self):
        # z = x1 of the slow-manifold ODE: the reduced drift is b_1 exactly
        model = models.slow_manifold_system()
        points = models.sample_uniform([[-1.0, 1.0]] * 2, 300, seed=6)
        sample = models.exact_sample_set(model, points)
        hand = models.SampleSet(points=points[:, :1], drift_samples=sample.drift_samples[:, :1])
        rsample = cg.reduced_sample(cg.linear_map([[1.0, 0.0]]), sample)
        est = generator.gedmd_deterministic(Monomials(1, 3), rsample)
        assert est.kind == "deterministic"
        assert np.array_equal(est.M, generator.gedmd_deterministic(Monomials(1, 3), hand).M)

    def test_polar_hand_value(self):
        # for psi(z) = z at x = (1, 0): b . grad(phi) = b_2 and
        # (a : hess(phi)) / 2 = -a_12; the reduced Hessian term is zero
        point = np.array([[1.0, 0.0]])
        b = np.array([[0.3, -1.1]])
        a = np.array([[[2.0, 0.4], [0.4, 1.0]]])
        sample = models.SampleSet(points=point, drift_samples=b, diffusion_samples=a)
        basis = Monomials(1, 1)
        rsample = cg.reduced_sample(cg.polar_angle_map(), sample)
        dpsi = basis.generator_action(
            rsample.points, rsample.drift_samples, rsample.diffusion_samples
        )[1]
        assert abs(dpsi[1, 0] - (-1.1 - 0.4)) < 1e-12
        assert dpsi[0, 0] == 0.0


class TestLemonSlicePipeline:
    def test_timescales_match_finite_volume_oracle(self, lemon):
        dec = spectral.decompose(lemon["est"])
        c1, c2 = helpers.lemon_slice_radial_constants()
        fv = helpers.fv_reversible_eigenvalues(
            helpers.lemon_slice_angular_potential,
            lambda z: 2 * c1 / c2 + 0.0 * z,
            -3.05,
            3.05,
        )
        fv_ts = np.abs(1.0 / fv[1:4])
        assert np.all(np.abs(dec.timescales[1:4] - fv_ts) / fv_ts < 0.10)

    def test_fitted_diffusion_nearly_constant(self, lemon):
        dbasis = GaussianBasis(np.linspace(-2.8, 2.8, 25)[:, None], 0.4)
        theta = cg.fit_diffusion(
            lemon["est"].A_hat, lemon["basis"], lemon["rsample"], dbasis
        )
        grid = np.linspace(-2.8, 2.8, 201)
        a_fit = dbasis.values(grid[:, None]).T @ theta
        assert a_fit.std() / a_fit.mean() < 0.05
        c1, c2 = helpers.lemon_slice_radial_constants()
        assert abs(a_fit.mean() - 2 * c1 / c2) / (2 * c1 / c2) < 0.05
        assert np.all(a_fit >= 0.0)

    def test_force_matching_recovers_angular_potential(self, lemon):
        force = cg.force_matching(
            lemon["sample"], lemon["model"], lemon["map"], lemon["basis"]
        )
        assert force.excluded == 0
        # the residual read off the R factor is the pointwise RMS
        targets, _ = cg.local_mean_force(
            lemon["map"], lemon["model"].potential_gradient, lemon["sample"].points
        )
        errors = force.force_on(lemon["rsample"].points[:, 0]) - targets[:, 0]
        dense = np.sqrt(np.mean(errors**2))
        assert abs(force.residual_rms - dense) <= 1e-10 * dense
        grid = np.linspace(-2.8, 2.8, 401)
        fitted = force.potential_on(grid)
        true = helpers.lemon_slice_angular_potential(grid)
        fitted = fitted - fitted.mean()
        true = true - true.mean()
        rel = np.sqrt(np.mean((fitted - true) ** 2) / np.mean(true**2))
        assert rel < 0.05

    def test_direct_drift_tracks_analytic_shape(self, lemon):
        grid = np.linspace(-2.8, 2.8, 401)
        coeffs = lemon["est"].L @ lemon["basis"].full_state_selector()[:, 0]
        direct = evaluate(lemon["basis"], grid[:, None]).values.T @ coeffs
        analytic = helpers.lemon_slice_angular_force(grid)
        assert np.corrcoef(direct, analytic)[0, 1] > 0.98

    def test_rebuilt_drift_matches_direct_estimate(self, lemon):
        reduced = cg.build_reduced_model(
            lemon["map"],
            lemon["basis"],
            lemon["sample"],
            lemon["model"],
            GaussianBasis(np.linspace(-2.8, 2.8, 25)[:, None], 0.4),
        )
        grid = np.linspace(-2.8, 2.8, 401)
        _, rebuilt, _ = reduced.on_grid(grid)
        coeffs = lemon["est"].L @ lemon["basis"].full_state_selector()[:, 0]
        direct = evaluate(lemon["basis"], grid[:, None]).values.T @ coeffs
        rel = np.sqrt(np.mean((rebuilt - direct) ** 2) / np.mean(direct**2))
        assert rel < 0.10
        payload = reduced.to_dict()
        assert payload["excluded_samples"] == 0

    def test_spectrum_from_fitted_diffusion(self, lemon):
        # timescales of the generator rebuilt from A(theta) stay within 10%
        dbasis = GaussianBasis(np.linspace(-2.8, 2.8, 25)[:, None], 0.4)
        theta = cg.fit_diffusion(
            lemon["est"].A_hat, lemon["basis"], lemon["rsample"], dbasis
        )
        designs = cg._stiffness_designs(
            lemon["basis"], dbasis, lemon["rsample"].points
        )
        A_theta = np.einsum("t,tij->ij", theta, designs)
        M_theta = np.linalg.lstsq(lemon["est"].G_hat, A_theta.T, rcond=1e-10)[0].T
        ts_est = spectral.decompose(lemon["est"]).timescales[1:4]
        ts_fit = spectral.decompose(M_theta.T).timescales[1:4]
        assert np.all(np.abs(ts_fit - ts_est) / ts_est < 0.10)

    def test_build_reduced_model_equals_hand_assembled_pipeline(self):
        model = models.lemon_slice(k=4, beta=1.0)
        sample = models.exact_sample_set(
            model, models.lemon_slice_invariant_points(3000, seed=7)
        )
        pmap = cg.polar_angle_map()
        basis = LegendreBasis(8, [[-np.pi, np.pi]])
        dbasis = GaussianBasis(np.linspace(-2.8, 2.8, 9)[:, None], 0.8)
        reduced = cg.build_reduced_model(pmap, basis, sample, model, dbasis)
        rsample = cg.reduced_sample(pmap, sample)
        est = generator.gedmd_reversible(basis, rsample)
        force = cg.force_matching(sample, model, pmap, basis)
        theta = cg.fit_diffusion(est.A_hat, basis, rsample, dbasis)
        for name in ("M", "A_hat", "G_hat"):
            assert np.array_equal(getattr(reduced.estimate, name), getattr(est, name))
        assert np.array_equal(reduced.force.gradient_coeffs, force.gradient_coeffs)
        assert reduced.force.residual_rms == force.residual_rms
        assert np.array_equal(reduced.theta, theta)

    def test_galerkin_gram_shared_code_path(self, lemon):
        # G_hat is read off the streamed R factor of the values alone
        values = lemon["basis"].evaluate(lemon["rsample"].points).values
        n, m = values.shape
        P = generator._factor(lambda sl: (values[:, sl], values[:0, sl]), m, n)[:, :n]
        assert np.array_equal(lemon["est"].G_hat, P.T @ P / m)


class TestForceMatching:
    def test_coordinate_selector_is_partial_derivative(self, rng):
        # xi = x1: G = e1 and the divergence term vanishes
        def grad_f(x):
            return np.column_stack([x[:, 0] ** 3 - x[:, 0], 2.0 * x[:, 1]])

        x = rng.standard_normal((200, 2))
        values, kept = cg.local_mean_force(
            cg.linear_map(np.array([[1.0, 0.0]])), grad_f, x
        )
        assert kept.size == 200
        assert np.abs(values[:, 0] + grad_f(x)[:, 0]).max() < 1e-12

    def test_separable_potential_marginal(self):
        # F = x1^4/4 - x1^2 + x2^2/2; the x1 marginal free energy is its
        # first term up to a constant, computed by quadrature as the oracle
        def grad_f(x):
            return np.column_stack([x[:, 0] ** 3 - 2.0 * x[:, 0], x[:, 1]])

        rng = np.random.Generator(np.random.Philox(8))
        grid1 = np.linspace(-3.0, 3.0, 20001)
        f1 = grid1**4 / 4 - grid1**2
        pdf = np.exp(-(f1 - f1.min()))
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
        cdf /= cdf[-1]
        x1 = np.interp(rng.uniform(size=100000), cdf, grid1)
        x2 = rng.standard_normal(100000)
        sample = models.SampleSet(
            points=np.column_stack([x1, x2]),
            drift_samples=np.zeros((100000, 2)),
        )
        force = cg.force_matching(
            sample, grad_f, cg.linear_map(np.array([[1.0, 0.0]])), Monomials(1, 3)
        )
        # fitted mean force has the exact polynomial coefficients of -dF1/dz
        assert np.allclose(force.gradient_coeffs, [0.0, 2.0, 0.0, -1.0], atol=1e-3)
        grid = np.linspace(-2.0, 2.0, 301)
        marginal = np.array(
            [
                np.trapezoid(np.exp(-(z**4 / 4 - z**2 + grid1**2 / 2)), grid1)
                for z in grid
            ]
        )
        oracle = -np.log(marginal)
        fitted = force.potential_on(grid)
        fitted -= fitted.mean()
        oracle -= oracle.mean()
        assert np.sqrt(np.mean((fitted - oracle) ** 2)) < 1e-3

    def test_rank_deficient_jacobian_excluded(self):
        square = cg.CoarseGrainMap(
            map=lambda x: x[:, :1] ** 2,
            jacobian=lambda x: np.stack(
                [2.0 * x[:, :1], np.zeros((x.shape[0], 1))], axis=1
            ),
            hessians=lambda x: np.broadcast_to(
                np.array([[2.0], [0.0]])[None, :, :, None] * np.eye(2)[None, :, :, None],
                (x.shape[0], 2, 2, 1),
            ).copy(),
            full_dim=2,
            reduced_dim=1,
        )
        x = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, -1.0]])
        sample = models.SampleSet(points=x, drift_samples=np.zeros_like(x))
        with pytest.warns(UserWarning, match="excluded 1 samples"):
            force = cg.force_matching(
                sample, lambda p: np.zeros_like(p), square, Monomials(1, 1)
            )
        assert force.excluded == 1

    def test_no_kept_sample_raises(self):
        x = models.sample_uniform([[-1.0, 1.0]] * 2, 50, seed=3)
        sample = models.SampleSet(points=x, drift_samples=np.zeros_like(x))
        with pytest.warns(UserWarning, match="excluded 50 samples"):
            with pytest.raises(InputError, match="every sample was excluded"):
                cg.force_matching(
                    sample, lambda p: p, cg.linear_map([[0.0, 0.0]]), Monomials(1, 2)
                )

    def test_requires_1d_reduction(self):
        sample = models.SampleSet(
            points=np.zeros((3, 2)), drift_samples=np.zeros((3, 2))
        )
        with pytest.raises(InputError):
            cg.force_matching(
                sample, lambda p: p, cg.linear_map(np.eye(2)), Monomials(2, 2)
            )


class TestFitDiffusion:
    def test_constant_diffusion_exact(self):
        model = models.ornstein_uhlenbeck(1.0, 4.0)
        points = models.sample_uniform([[-2.0, 2.0]], 2000, seed=9)
        sample = models.exact_sample_set(model, points)
        basis = Monomials(1, 6)
        est = generator.gedmd_reversible(basis, sample)
        theta = cg.fit_diffusion(est.A_hat, basis, sample, Monomials(1, 0))
        assert abs(theta[0] - 0.5) < 1e-8

    def test_zero_target_gives_zero(self):
        basis = Monomials(1, 4)
        points = models.sample_uniform([[-1.0, 1.0]], 300, seed=2)
        sample = models.SampleSet(
            points=points, drift_samples=np.zeros_like(points)
        )
        theta = cg.fit_diffusion(
            np.zeros((basis.size, basis.size)),
            basis,
            sample,
            GaussianBasis(np.linspace(-1, 1, 5)[:, None], 0.5),
        )
        assert np.abs(theta).max() == 0.0

    @pytest.mark.parametrize(
        "reduced, dbasis",
        [
            (
                LegendreBasis(6, [[-np.pi, np.pi]]),
                GaussianBasis(np.linspace(-2.8, 2.8, 25)[:, None], 0.4),
            ),
            (
                LegendreBasis(4, [[-np.pi, np.pi]] * 2),
                GaussianBasis(models.sample_uniform([[-2.0, 2.0]] * 2, 12, seed=4), 0.9),
            ),
        ],
        ids=["p1", "p2"],
    )
    def test_stiffness_designs_match_dense_sum(self, reduced, dbasis):
        # 2,500 points cross three walker chunks, the last one partial
        m = 2500
        assert 2 * generator.CHUNK < m < 3 * generator.CHUNK
        z = models.sample_uniform([[-np.pi, np.pi]] * reduced.dimension, m, seed=13)
        g = reduced.evaluate(z).gradients  # (n, m, p)
        chi = dbasis.values(z)  # (n_t, m)
        dense = -0.5 / m * np.einsum("tl,ilp,jlp->tij", chi, g, g)
        designs = cg._stiffness_designs(reduced, dbasis, z)
        assert np.linalg.norm(designs - dense) <= 1e-13 * np.linalg.norm(dense)


def _hand_model(gradient_coeffs, theta, diffusion_basis):
    """Reduced model from a given mean-force expansion in Monomials(1, 1) and diffusion."""
    force = cg.ForceMatchResult(
        gradient_coeffs=np.array(gradient_coeffs),
        basis=Monomials(1, 1),
        excluded=0,
        residual_rms=0.0,
    )
    return cg.ReducedModel(
        force=force,
        theta=np.array(theta),
        diffusion_basis=diffusion_basis,
        reduced_basis=force.basis,
        estimate=None,
    )


class TestDriftFromPotential:
    def test_constant_diffusion_quadratic_potential(self):
        # F = kappa z^2 / 2, a = 2  ->  b = -kappa z
        kappa = 1.7
        grid = np.linspace(-2, 2, 11)
        _, b, _ = _hand_model([0.0, -kappa], [2.0], Monomials(1, 0)).on_grid(grid)
        assert np.allclose(b, -kappa * grid, atol=1e-12)

    def test_divergence_term(self):
        # a(z) = z^2, F = 0  ->  b = z
        grid = np.linspace(-2, 2, 11)
        _, b, _ = _hand_model(np.zeros(2), [0.0, 0.0, 1.0], Monomials(1, 2)).on_grid(grid)
        assert np.allclose(b, grid, atol=1e-12)


class TestReducedModelOnGrid:
    @pytest.fixture(scope="class")
    def reduced(self):
        model = models.lemon_slice(k=4, beta=1.0)
        sample = models.exact_sample_set(
            model, models.lemon_slice_invariant_points(3000, seed=7)
        )
        return cg.build_reduced_model(
            cg.polar_angle_map(),
            LegendreBasis(8, [[-np.pi, np.pi]]),
            sample,
            model,
            GaussianBasis(np.linspace(-2.8, 2.8, 9)[:, None], 0.8),
        )

    def test_matches_the_separate_fields(self, reduced):
        grid = np.linspace(-2.8, 2.8, 201)
        potential, drift, diffusion = reduced.on_grid(grid)
        dbasis, theta = reduced.diffusion_basis, reduced.theta
        block = dbasis.evaluate(grid[:, None])
        a = block.values.T @ theta
        da = block.gradients[:, :, 0].T @ theta
        g = reduced.force.force_on(grid)
        assert np.array_equal(potential, reduced.force.potential_on(grid))
        assert np.array_equal(diffusion, dbasis.values(grid[:, None]).T @ theta)
        assert np.array_equal(drift, 0.5 * a * g + 0.5 * da)

    def test_writer_evaluates_each_basis_once(self, reduced, monkeypatch, tmp_path):
        grid = np.linspace(-2.8, 2.8, 201)
        calls = []
        bases = {"reduced": reduced.reduced_basis, "diffusion": reduced.diffusion_basis}
        for name, basis in bases.items():
            for method in ("values", "evaluate"):
                def spy(points, *args, _inner=getattr(basis, method), _name=name, **kwargs):
                    calls.append((_name, len(points)))
                    return _inner(points, *args, **kwargs)

                monkeypatch.setattr(basis, method, spy)
        io.write_reduced_model_csv(tmp_path / "reduced_model.csv", reduced, grid)
        assert sorted(calls) == [("diffusion", 201), ("reduced", 201)]

