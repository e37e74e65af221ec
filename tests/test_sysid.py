"""Equation recovery: drift/diffusion read-off, thresholding, factors."""

import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from koopgen import generator, models, sysid
from koopgen.dictionaries import GaussianBasis, Monomials
from koopgen.errors import (
    ClosureError,
    IdentificationError,
    InputError,
    UnsupportedDictionaryError,
)


def double_well_setup(max_degree=4, m=4000, seed=13):
    model = models.double_well_2d()
    points = models.sample_uniform([[-2.0, 2.0]] * 2, m, seed=seed)
    sample = models.exact_sample_set(model, points)
    basis = Monomials(2, max_degree)
    est = generator.gedmd_stochastic(basis, sample)
    return est, basis, sample


def double_well_true_coeffs(basis):
    drift = np.zeros((basis.size, 2))
    drift[basis.index_of((1, 0)), 0] = 4.0
    drift[basis.index_of((3, 0)), 0] = -4.0
    drift[basis.index_of((0, 1)), 1] = -2.0
    diffusion = np.zeros((basis.size, 3))
    diffusion[basis.index_of((0, 0)), 0] = 0.49
    diffusion[basis.index_of((2, 0)), 0] = 1.0
    diffusion[basis.index_of((1, 0)), 1] = 0.5
    diffusion[basis.index_of((0, 0)), 2] = 0.25
    return drift, diffusion


class TestIdentifyDrift:
    def test_double_well_exact(self):
        est, basis, _ = double_well_setup()
        coeffs = sysid.identify_drift(est)
        true, _ = double_well_true_coeffs(basis)
        assert np.abs(coeffs - true).max() < 1e-6

    def test_slow_manifold_exact(self):
        model = models.slow_manifold_system(-0.8, -0.7)
        points = models.sample_uniform([[-1.0, 1.0]] * 2, 1000, seed=7)
        sample = models.exact_sample_set(model, points)
        basis = Monomials(2, 4)
        est = generator.gedmd_deterministic(basis, sample)
        coeffs = sysid.identify_drift(est)
        true = np.zeros((basis.size, 2))
        true[basis.index_of((1, 0)), 0] = -0.8
        true[basis.index_of((0, 1)), 1] = -0.7
        true[basis.index_of((2, 0)), 1] = 0.7
        assert np.abs(coeffs - true).max() < 1e-6

    def test_ou_exact(self):
        model = models.ornstein_uhlenbeck(1.0, 4.0)
        points = models.sample_uniform([[-2.0, 2.0]], 1000, seed=3)
        sample = models.exact_sample_set(model, points)
        basis = Monomials(1, 10)
        est = generator.gedmd_stochastic(basis, sample)
        coeffs = sysid.identify_drift(est)
        true = np.zeros((basis.size, 1))
        true[basis.index_of((1,)), 0] = -1.0
        assert np.abs(coeffs - true).max() < 1e-6

    def test_zero_drift(self):
        points = models.sample_uniform([[-1.0, 1.0]] * 2, 200, seed=1)
        sample = models.SampleSet(points=points, drift_samples=np.zeros_like(points))
        est = generator.gedmd_deterministic(Monomials(2, 3), sample)
        assert np.abs(sysid.identify_drift(est)).max() == 0.0


class TestIdentifyDiffusion:
    def test_double_well_exact(self):
        est, basis, _ = double_well_setup()
        coeffs = sysid.identify_diffusion(est)
        _, true = double_well_true_coeffs(basis)
        assert np.abs(coeffs - true).max() < 1e-6

    def test_ou_constant(self):
        model = models.ornstein_uhlenbeck(1.0, 4.0)
        points = models.sample_uniform([[-2.0, 2.0]], 1000, seed=3)
        sample = models.exact_sample_set(model, points)
        basis = Monomials(1, 10)
        est = generator.gedmd_stochastic(basis, sample)
        coeffs = sysid.identify_diffusion(est)
        assert abs(coeffs[0, 0] - 0.5) < 1e-6  # a = 2/beta
        assert np.abs(coeffs[1:, 0]).max() < 1e-8

    def test_deterministic_data_gives_zero(self):
        model = models.slow_manifold_system(-0.8, -0.7)
        points = models.sample_uniform([[-1.0, 1.0]] * 2, 1000, seed=7)
        sample = models.exact_sample_set(model, points)
        sample = models.SampleSet(
            points=sample.points,
            drift_samples=sample.drift_samples,
            diffusion_samples=np.zeros((points.shape[0], 2, 2)),
        )
        est = generator.gedmd_stochastic(Monomials(2, 6), sample)
        assert np.abs(sysid.identify_diffusion(est)).max() < 1e-8

    def test_degree_three_closure_error(self):
        # cubic drift times a coordinate needs degree 4
        est, _, _ = double_well_setup(max_degree=3)
        with pytest.raises(ClosureError, match="max_degree"):
            sysid.identify_diffusion(est)

    def test_missing_product_closure_error(self):
        est, _, _ = double_well_setup(max_degree=1)
        with pytest.raises(ClosureError):
            sysid.identify_diffusion(est)

    def test_non_monomial_rejected(self):
        model = models.ornstein_uhlenbeck(1.0, 4.0)
        points = models.sample_uniform([[-2.0, 2.0]], 500, seed=3)
        sample = models.exact_sample_set(model, points)
        basis = GaussianBasis(np.linspace(-2, 2, 12)[:, None], 0.5)
        est = generator.gedmd_stochastic(basis, sample)
        with pytest.raises(UnsupportedDictionaryError):
            sysid.identify_diffusion(est)


class TestHardThreshold:
    def test_zero_delta_is_least_squares(self, rng):
        features = rng.standard_normal((60, 8))
        targets = rng.standard_normal((60, 2))
        coeffs, history = sysid.hard_threshold(features, targets, 0.0)
        direct = np.linalg.lstsq(features, targets, rcond=1e-10)[0]
        assert np.allclose(coeffs, direct, atol=1e-12)
        assert history[0][1] == coeffs.size

    def test_support_monotone(self, rng):
        features = rng.standard_normal((80, 12))
        true = np.zeros(12)
        true[[1, 5]] = [2.0, -1.5]
        targets = features @ true + 0.05 * rng.standard_normal(80)
        _, history = sysid.hard_threshold(features, targets, 0.2)
        counts = [c for _, c in history]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_empty_support_warns_and_zeroes(self, rng):
        features = rng.standard_normal((40, 5))
        targets = 0.01 * rng.standard_normal(40)
        with pytest.warns(UserWarning, match="zero model"):
            coeffs, _ = sysid.hard_threshold(features, targets, 10.0)
        assert np.abs(coeffs).max() == 0.0

    def test_single_target_shape(self, rng):
        features = rng.standard_normal((30, 4))
        targets = rng.standard_normal(30)
        coeffs, _ = sysid.hard_threshold(features, targets, 0.0)
        assert coeffs.shape == (4,)

    def test_negative_delta_rejected(self, rng):
        with pytest.raises(InputError):
            sysid.hard_threshold(np.eye(3), np.ones(3), -0.1)
        sample = models.exact_sample_set(models.ornstein_uhlenbeck(), np.linspace(-1.0, 1.0, 9)[:, None])
        with pytest.raises(InputError, match="threshold must be"):
            sysid.threshold_generator(Monomials(1, 2), sample, np.nan)

    def test_deterministic(self, rng):
        features = rng.standard_normal((50, 6))
        true = np.zeros((6, 3))
        true[[0, 3], 0] = [1.0, -2.0]
        true[[2, 4], 1] = [1.5, 0.7]
        true[5, 2] = -1.2
        targets = features @ true + 0.05 * rng.standard_normal((50, 3))
        a, _ = sysid.hard_threshold(features, targets, 0.3)
        b, _ = sysid.hard_threshold(features, targets, 0.3)
        assert np.array_equal(a, b)


class TestThresholdNoiseCurves:
    """Recovery error versus noise level and threshold choice."""

    @staticmethod
    def _errors():
        model = models.slow_manifold_system(-0.8, -0.7)
        basis = Monomials(2, 4)
        points = models.sample_uniform([[-1.0, 1.0]] * 2, 500, seed=31)
        sample = models.exact_sample_set(model, points)
        features = basis.evaluate(points).values.T
        true = np.zeros((basis.size, 2))
        true[basis.index_of((1, 0)), 0] = -0.8
        true[basis.index_of((0, 1)), 1] = -0.7
        true[basis.index_of((2, 0)), 1] = 0.7
        errors = {}
        for sigma in (1e-3, 1e-1):
            noise_rng = np.random.Generator(np.random.Philox(77))
            noisy = sample.drift_samples + sigma * noise_rng.standard_normal(
                sample.drift_samples.shape
            )
            for delta in (1e-4, 1e-2, 1e-1, 1.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    coeffs, _ = sysid.hard_threshold(features, noisy, delta)
                errors[(sigma, delta)] = np.abs(coeffs - true).mean()
        return errors

    def test_qualitative_shape(self):
        err = self._errors()
        # error grows with the noise level at a fixed small threshold
        assert err[(1e-1, 1e-4)] > 5 * err[(1e-3, 1e-4)]
        # an intermediate threshold beats a tiny one under noise
        assert err[(1e-1, 1e-1)] < err[(1e-1, 1e-4)] / 5
        # a threshold of 1 removes true terms (all below 1) even at low noise
        assert err[(1e-3, 1.0)] > 10 * err[(1e-3, 1e-2)]
        # ... leaving exactly the zero model
        assert abs(err[(1e-3, 1.0)] - 2.2 / 30) < 1e-12


class TestIdentify:
    def test_matches_estimate_route_exact(self):
        est, basis, sample = double_well_setup()
        model = sysid.identify(basis, sample)
        assert np.abs(model.drift_coeffs - sysid.identify_drift(est)).max() < 1e-10
        assert np.abs(model.diffusion_coeffs - sysid.identify_diffusion(est)).max() < 1e-10
        assert model.residuals["training"] < 1e-10
        assert model.residuals["validation"] is None

    def test_validation_without_diffusion_rejected(self):
        _, basis, sample = double_well_setup(m=500)
        held = models.SampleSet(points=sample.points, drift_samples=sample.drift_samples)
        with pytest.raises(InputError, match="validation set"):
            sysid.identify(basis, sample, validation=held)

    def test_noisy_double_well(self):
        model = models.double_well_2d()
        points = models.sample_uniform([[-2.0, 2.0]] * 2, 20000, seed=5)
        sample = models.noisy_sample_set(
            models.exact_sample_set(model, points), 0.1, seed=105
        )
        basis = Monomials(2, 4)
        fit = sysid.identify(basis, sample, delta=0.1)
        true_drift, _ = double_well_true_coeffs(basis)
        assert np.abs(fit.drift_coeffs - true_drift).max() < 0.05
        assert np.count_nonzero(fit.drift_coeffs) == 3
        i_const = basis.index_of((0, 0))
        a22 = fit.diffusion_coeffs[:, 2]
        assert abs(a22[i_const] - 0.25) < 0.05
        assert np.abs(np.delete(a22, i_const)).max() == 0.0

    def test_noisy_residuals_exact_and_sample_order_invariant(self):
        model = models.double_well_2d()

        def noisy(m, seed):
            points = models.sample_uniform([[-2.0, 2.0]] * 2, m, seed=seed)
            return models.noisy_sample_set(
                models.exact_sample_set(model, points), 0.1, seed=100 + seed
            )

        sample, held = noisy(3000, 5), noisy(700, 6)
        basis = Monomials(2, 4)
        fit = sysid.identify(basis, sample, delta=0.1, validation=held)

        def dense_rms(data):
            values = basis.evaluate(data.points).values.T
            resid = data.drift_samples - values @ fit.drift_coeffs
            x, a = data.points, data.diffusion_samples
            targets = np.column_stack(
                [a[:, i, j] + resid[:, i] * x[:, j] + resid[:, j] * x[:, i] for i, j in fit.pairs]
            )
            errors = np.concatenate(
                [resid.ravel(), (values @ fit.diffusion_coeffs - targets).ravel()]
            )
            return np.sqrt(np.mean(errors**2))

        for name, data in (("training", sample), ("validation", held)):
            dense = dense_rms(data)
            assert abs(fit.residuals[name] - dense) <= 1e-10 * dense
        perm = np.random.Generator(np.random.Philox(3)).permutation(sample.count)
        shuffled = models.SampleSet(
            points=sample.points[perm],
            drift_samples=sample.drift_samples[perm],
            diffusion_samples=sample.diffusion_samples[perm],
        )
        refit = sysid.identify(basis, shuffled, delta=0.1)
        assert np.abs(refit.drift_coeffs - fit.drift_coeffs).max() <= 1e-10
        assert np.abs(refit.diffusion_coeffs - fit.diffusion_coeffs).max() <= 1e-10
        assert refit.threshold_history == fit.threshold_history

    def test_rank_deficient_basis_warns(self):
        points = np.array([[-1.0], [0.0], [1.0]])
        sample = models.SampleSet(points=points, drift_samples=-points)
        with pytest.warns(UserWarning, match="rank deficient"):
            fit = sysid.identify(Monomials(1, 3), sample)
        assert np.abs(fit.drift_at(points) + points).max() < 1e-12

    def test_validation_residual(self):
        est, basis, sample = double_well_setup()
        held = models.exact_sample_set(
            models.double_well_2d(),
            models.sample_uniform([[-2.0, 2.0]] * 2, 500, seed=99),
        )
        fit = sysid.identify(basis, sample, validation=held)
        assert fit.residuals["validation"] < 1e-10

    def test_evaluation_helpers(self):
        _, basis, sample = double_well_setup()
        fit = sysid.identify(basis, sample)
        grid = models.sample_uniform([[-2.0, 2.0]] * 2, 50, seed=8)
        model = models.double_well_2d()
        assert np.abs(fit.drift_at(grid) - model.drift(grid)).max() < 1e-8
        assert np.abs(fit.diffusion_at(grid) - model.diffusion_at(grid)).max() < 1e-8

    def test_to_dict_json_round_trip(self):
        _, basis, sample = double_well_setup()
        fit = sysid.identify(basis, sample)
        payload = json.loads(json.dumps(fit.to_dict(term_tol=1e-8)))
        terms_b1 = {t["term"] for t in payload["drift"][0]}
        assert terms_b1 == {"x1", "x1^3"}
        terms_a11 = {t["term"] for t in payload["diffusion"][0]}
        assert terms_a11 == {"1", "x1^2"}


class TestSindyEquivalence:
    def test_predictions_agree_pointwise(self):
        model = models.slow_manifold_system(-0.8, -0.7)
        points = models.sample_uniform([[-1.0, 1.0]] * 2, 800, seed=17)
        sample = models.exact_sample_set(model, points)
        basis = Monomials(2, 5)
        est = generator.gedmd_deterministic(basis, sample)
        ms = sysid.sindy_coefficients(basis, sample)
        values = basis.evaluate(points).values
        via_generator = (est.L @ basis.full_state_selector()).T @ values
        assert np.abs(ms @ values - via_generator).max() < 1e-10
        assert np.abs((ms @ values).T - sample.drift_samples).max() < 1e-8

    def test_unthresholded_identify_drift_is_bitwise_the_direct_fit(self):
        # both fold the same [Psi^T | b] and solve on its R by the same rule
        _, basis, sample = double_well_setup(m=3000)
        drift = sysid.identify(basis, sample).drift_coeffs
        assert np.array_equal(drift, sysid.sindy_coefficients(basis, sample).T)


class TestThresholdGenerator:
    def test_zero_delta_matches_plain_estimate(self):
        est, basis, sample = double_well_setup()
        thr = sysid.threshold_generator(basis, sample, 0.0)
        assert np.array_equal(thr.M, est.M)
        assert thr.kind == "stochastic+threshold"
        assert np.allclose(thr.A_hat, est.A_hat) and np.allclose(thr.G_hat, est.G_hat)

    def test_rank_deficient_fit_warns_once(self):
        # six monomials on three points: the rounds start from the fit's solve,
        # so the one rank-deficient Psi gives one warning, not one per solve
        sample = models.exact_sample_set(models.ornstein_uhlenbeck(), np.array([[-1.0], [0.2], [0.9]]))
        with pytest.warns(UserWarning) as records:
            thr = sysid.threshold_generator(Monomials(1, 5), sample, 0.0)
        assert [str(r.message) for r in records] == ["least-squares matrix is rank deficient (3 < 6); "
                                                     "solution restricted to the resolved subspace"]
        with pytest.warns(UserWarning, match="rank deficient"):
            plain = generator.gedmd_stochastic(Monomials(1, 5), sample)
        assert np.array_equal(thr.M, plain.M)

    def test_threshold_sparsifies_rows(self):
        est, basis, sample = double_well_setup()
        # the constant's row is exactly zero, so its support empties
        with pytest.warns(UserWarning, match="zero model"):
            thr = sysid.threshold_generator(basis, sample, 1e-3)
        assert np.count_nonzero(thr.M) < np.count_nonzero(np.abs(est.M) > 0)
        # the true drift terms survive
        coeffs = sysid.identify_drift(thr)
        true, _ = double_well_true_coeffs(basis)
        assert np.abs(coeffs - true).max() < 1e-6


class TestDiffusionFactor:
    def test_constant_scalar(self):
        basis = Monomials(1, 2)
        coeffs = np.zeros((basis.size, 1))
        coeffs[0, 0] = 0.5  # a = 2/beta with beta = 4
        factor = sysid.diffusion_factor(basis, coeffs, np.zeros((3, 1)))
        assert np.allclose(factor, np.sqrt(0.5), atol=1e-12)

    def test_identity(self):
        basis = Monomials(2, 2)
        coeffs = np.zeros((basis.size, 3))
        coeffs[0, 0] = 1.0
        coeffs[0, 2] = 1.0
        factor = sysid.diffusion_factor(basis, coeffs, np.zeros((2, 2)))
        assert np.allclose(factor, np.eye(2), atol=1e-12)

    def test_double_well_matches_cholesky(self):
        est, basis, _ = double_well_setup()
        coeffs = sysid.identify_diffusion(est)
        point = np.array([[1.0, 0.0]])
        factor = sysid.diffusion_factor(basis, coeffs, point)[0]
        target = np.array([[1.49, 0.5], [0.5, 0.25]])
        oracle = scipy.linalg.cholesky(target, lower=True)
        assert np.abs(factor - oracle).max() < 1e-8
        assert np.abs(factor @ factor.T - target).max() < 1e-10
        assert np.abs(np.triu(factor, 1)).max() == 0.0

    def test_semidefinite_clipped(self):
        basis = Monomials(2, 2)
        coeffs = np.zeros((basis.size, 3))
        coeffs[0, 0] = 1.0  # a = diag(1, 0), rank deficient
        factor = sysid.diffusion_factor(basis, coeffs, np.zeros((1, 2)))[0]
        assert np.abs(factor @ factor.T - np.diag([1.0, 0.0])).max() < 1e-12

    def test_indefinite_raises(self):
        basis = Monomials(2, 2)
        coeffs = np.zeros((basis.size, 3))
        coeffs[0, 0] = -1.0
        coeffs[0, 2] = 1.0
        with pytest.raises(IdentificationError, match="indefinite"):
            sysid.diffusion_factor(basis, coeffs, np.zeros((1, 2)))


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: sysid.IdentifiedModel(
            dictionary=Monomials(1, 2), drift_coeffs=np.zeros((3, 1)),
            diffusion_coeffs=None, pairs=[], threshold_history=[], residuals={},
        ).diffusion_at(np.zeros((1, 1))), "identified without diffusion"),
        (lambda: sysid.diffusion_values(Monomials(2, 2), np.zeros((6, 2)), np.zeros((1, 2))),
         "expected 3 diffusion columns for dimension 2"),
    ],
    ids=["model-without-diffusion", "diffusion-columns"],
)
def test_invalid_arguments_raise(build, match):
    with pytest.raises(InputError, match=match):
        build()


def test_term_list_skips_small_entries():
    basis = Monomials(1, 3)
    coeffs = np.array([0.0, 2.0, 1e-12, -3.0])
    terms = sysid.term_list(basis, coeffs, tol=1e-9)
    assert [(t["term"], t["coefficient"]) for t in terms] == [("x1", 2.0), ("x1^3", -3.0)]
