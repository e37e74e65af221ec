"""Eigen-analysis: sorting, normalization, modes, conserved quantities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopgen import generator, models, spectral
from koopgen.dictionaries import Monomials, evaluate
from koopgen.errors import InputError


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: spectral.decompose(np.zeros((2, 3))), "square matrix"),
        (lambda: spectral.koopman_modes(spectral.decompose(np.eye(2))), "no dictionary"),
    ],
    ids=["non-square", "modes-without-dictionary"],
)
def test_invalid_arguments_raise(build, match):
    with pytest.raises(InputError, match=match):
        build()


def ou_decomposition(alpha=1.0, beta=4.0, max_degree=10, m=2000, seed=3):
    model = models.ornstein_uhlenbeck(alpha, beta)
    points = models.sample_uniform([[-2.0, 2.0]], m, seed=seed)
    sample = models.exact_sample_set(model, points)
    basis = Monomials(1, max_degree)
    est = generator.gedmd_stochastic(basis, sample)
    return spectral.decompose(est), basis


def slow_manifold_estimate(gamma=-0.8, delta=-0.7, max_degree=8, m=1000, seed=7):
    model = models.slow_manifold_system(gamma, delta)
    points = models.sample_uniform([[-1.0, 1.0]] * 2, m, seed=seed)
    sample = models.exact_sample_set(model, points)
    basis = Monomials(2, max_degree)
    return generator.gedmd_deterministic(basis, sample), basis, model


def pearson(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return float(a @ b / np.sqrt((a @ a) * (b @ b)))


class TestDecompose:
    def test_ou_decay_ladder(self):
        dec, _ = ou_decomposition()
        assert np.allclose(dec.eigenvalues[:4].real, [0.0, -1.0, -2.0, -3.0], atol=1e-6)
        assert np.abs(dec.eigenvalues[:4].imag).max() < 1e-8

    def test_slow_manifold_eigenvalue_set(self):
        est, _, _ = slow_manifold_estimate()
        dec = spectral.decompose(est)
        expected = [0.0, -0.7, -0.8, -1.4, -1.5, -1.6]
        assert np.allclose(dec.eigenvalues[:6].real, expected, atol=1e-8)

    def test_diagonal_matrix(self):
        dec = spectral.decompose(np.diag([-3.0, -1.0, -2.0]))
        assert np.allclose(dec.eigenvalues, [-1.0, -2.0, -3.0])
        # unit eigenvectors, largest-entry normalization leaves them as-is
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        assert np.allclose(dec.eigenvectors.real, expected)
        assert np.abs(dec.eigenvectors.imag).max() == 0.0

    def test_sorting_descending_real_ascending_imag(self):
        L = np.array([[0.0, -2.0], [2.0, 0.0]])  # eigenvalues +-2i
        dec = spectral.decompose(L)
        assert np.allclose(dec.eigenvalues, [-2.0j, 2.0j])

    def test_exact_tie_broken_by_eigenvector_order(self):
        dec = spectral.decompose(np.diag([0.0, 0.0, -1.0]))
        assert np.allclose(dec.eigenvalues[:2], 0.0)
        # lexicographically smaller column (0,1,0) precedes (1,0,0)
        assert np.allclose(dec.eigenvectors[:, 0].real, [0.0, 1.0, 0.0])
        assert np.allclose(dec.eigenvectors[:, 1].real, [1.0, 0.0, 0.0])

    def test_near_tie_ordered_like_exact_tie(self):
        # a double zero split by rounding noise, either way round
        exact = spectral.decompose(np.diag([0.0, 0.0, -1.0]))
        for noise in (1e-15, -1e-15):
            dec = spectral.decompose(np.diag([noise, 0.0, -1.0]))
            assert np.array_equal(dec.eigenvectors, exact.eigenvectors)
            assert np.allclose(dec.eigenvalues, exact.eigenvalues, rtol=0, atol=1e-15)

    def test_normalization_largest_entry_one(self):
        est, _, _ = slow_manifold_estimate()
        dec = spectral.decompose(est)
        for l in range(dec.size):
            col = dec.eigenvectors[:, l]
            # the pivot entry is exactly one; magnitude ties may sit 1 ulp off
            assert np.any(col == 1.0 + 0.0j)
            assert np.abs(col).max() <= 1.0 + 1e-12

    def test_residual_bound(self):
        est, _, _ = slow_manifold_estimate()
        dec = spectral.decompose(est)
        assert dec.residuals().max() <= 1e-8 * np.linalg.norm(dec.generator)

    def test_timescales(self):
        dec = spectral.decompose(np.diag([0.0, -0.5, -4.0]))
        assert np.isinf(dec.timescales[0])
        assert np.allclose(dec.timescales[1:], [2.0, 0.25])

    def test_timescales_are_infinite_below_the_rounding_floor(self):
        # floor n eps max|L_ij| = 3 eps 4: a rounding-level real part has no time scale
        floor = 3 * np.finfo(float).eps * 4.0
        dec = spectral.decompose(np.diag([0.5 * floor, -floor, -4.0]))
        assert np.isinf(dec.timescales[:2]).all()
        assert dec.timescales[2] == 0.25
        above = spectral.decompose(np.diag([-2.0 * floor, -1.0, -4.0])).timescales
        assert above[0] == 1.0 / (2.0 * floor)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            spectral.decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_matrices_sorted_conjugate_closed(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        L = rng.normal(size=(6, 6))
        dec = spectral.decompose(L)
        re = dec.eigenvalues.real
        assert np.all(np.diff(re) <= 1e-12)
        # spectrum closed under conjugation
        lam = np.sort_complex(dec.eigenvalues)
        assert np.allclose(lam, np.sort_complex(dec.eigenvalues.conj()), atol=1e-10)
        assert dec.residuals().max() <= 1e-8 * np.linalg.norm(L)


class TestEigenfunctions:
    def test_constant_eigenfunction_at_zero(self):
        dec, basis = ou_decomposition()
        grid = np.linspace(-1.5, 1.5, 64)[:, None]
        phi = spectral.eigenfunction_values(dec, basis, grid)
        const = phi[:, 0].real
        assert np.ptp(const) < 1e-8 * max(1.0, np.abs(const).max())

    def test_ou_hermite_correlations(self):
        # eigenfunctions at -alpha, -2 alpha are degree-1 and degree-2
        # polynomials proportional to x and 4x^2 - 1 (alpha=1, beta=4)
        dec, basis = ou_decomposition()
        grid = np.linspace(-2.0, 2.0, 201)[:, None]
        phi = spectral.eigenfunction_values(dec, basis, grid).real
        x = grid[:, 0]
        assert abs(pearson(phi[:, 1], x) - 1.0) < 1e-6
        assert abs(pearson(phi[:, 2], 4.0 * x**2 - 1.0) - 1.0) < 1e-6

    def test_product_property_slow_manifold(self):
        # the eigenfunction at 2*gamma is the square of the one at gamma
        est, basis, _ = slow_manifold_estimate()
        dec = spectral.decompose(est)
        grid = models.sample_uniform([[-1.0, 1.0]] * 2, 50, seed=12)
        phi = spectral.eigenfunction_values(dec, basis, grid)
        assert np.abs(phi[:, 5] - phi[:, 2] ** 2).max() < 1e-6

    def test_missing_dictionary_raises(self):
        dec = spectral.decompose(np.diag([-1.0, -2.0]))
        with pytest.raises(InputError):
            spectral.eigenfunction_values(dec, None, np.zeros((3, 1)))


class TestKoopmanModes:
    def test_slow_manifold_modes(self):
        est, basis, _ = slow_manifold_estimate()
        dec = spectral.decompose(est)
        km = spectral.koopman_modes(dec)
        assert list(km.active_indices) == [1, 2, 5]
        assert np.allclose(km.modes[:, 1].real, [0.0, 7.0 / 9.0], atol=1e-6)
        assert np.allclose(km.modes[:, 2].real, [1.0, 0.0], atol=1e-6)
        assert np.allclose(km.modes[:, 5].real, [0.0, -7.0 / 9.0], atol=1e-6)
        inactive = np.setdiff1d(np.arange(dec.size), km.active_indices)
        assert np.linalg.norm(km.modes[:, inactive], axis=0).max() < 1e-8

    def test_trailing_coefficient_convention(self):
        # at lambda = delta the eigenfunction reads c*x2 + x1^2 with
        # c = (2 gamma - delta)/delta = 9/7 once the leading coefficient is 1
        est, basis, _ = slow_manifold_estimate()
        km = spectral.koopman_modes(spectral.decompose(est))
        xi = km.eigenvectors[:, 1].real
        assert abs(xi[basis.index_of((2, 0))] - 1.0) < 1e-9
        assert abs(xi[basis.index_of((0, 1))] - 9.0 / 7.0) < 1e-9

    def test_diagonal_linear_system(self):
        def drift(x):
            return x * np.array([-0.5, -1.25])

        model = models.SdeModel(dimension=2, drift=drift, name="diag-linear")
        points = models.sample_uniform([[-1.0, 1.0]] * 2, 200, seed=4)
        sample = models.exact_sample_set(model, points)
        basis = Monomials(2, 1)
        dec = spectral.decompose(generator.gedmd_deterministic(basis, sample))
        km = spectral.koopman_modes(dec)
        assert np.allclose(km.modes[:, 1].real, [1.0, 0.0], atol=1e-10)
        assert np.allclose(km.modes[:, 2].real, [0.0, 1.0], atol=1e-10)

    def test_reconstruction_on_fresh_points(self):
        est, basis, model = slow_manifold_estimate()
        km = spectral.koopman_modes(spectral.decompose(est))
        fresh = models.sample_uniform([[-1.0, 1.0]] * 2, 100, seed=99)
        recon = spectral.reconstruct_drift(km, basis, fresh)
        assert np.abs(recon - model.drift(fresh)).max() < 1e-6

    def test_rescaling_leaves_reconstruction_invariant(self):
        # the expansion sum lambda_l phi_l v_l must not depend on the
        # per-pair scaling convention
        est, basis, _ = slow_manifold_estimate()
        dec = spectral.decompose(est)
        km = spectral.koopman_modes(dec)
        grid = models.sample_uniform([[-1.0, 1.0]] * 2, 40, seed=2)
        block = evaluate(basis, grid)
        raw_vt = np.linalg.solve(dec.eigenvectors, km.selector.astype(complex))
        phi_raw = dec.eigenvectors.T @ block.values
        b_raw = (raw_vt.T @ (dec.eigenvalues[:, None] * phi_raw)).real.T
        assert np.allclose(spectral.reconstruct_drift(km, basis, grid), b_raw, atol=1e-12)

    def test_singular_eigenvector_matrix_warns(self):
        xi = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        dec = spectral.SpectralDecomposition(
            eigenvalues=np.array([1.0 + 0j, 1.0 + 0j]),
            eigenvectors=xi,
            generator=np.eye(2),
        )
        with pytest.warns(UserWarning, match="singular"):
            km = spectral.koopman_modes(dec, selector=np.eye(2))
        assert np.all(np.isfinite(km.modes))

    def test_selector_shape_checked(self):
        dec = spectral.decompose(np.diag([-1.0, -2.0]))
        with pytest.raises(InputError):
            spectral.koopman_modes(dec, selector=np.eye(3))


class TestConservedQuantities:
    def test_duffing_energy(self):
        # Ito-corrected Duffing with state-proportional noise conserves
        # E = (alpha/2) x1^2 + (beta/4) x1^4 + x2^2 / 2
        model = models.stratonovich_to_ito(models.duffing_oscillator())
        points = models.sample_uniform([[-2.0, 2.0]] * 2, 3000, seed=11)
        sample = models.exact_sample_set(model, points)
        basis = Monomials(2, 4)
        dec = spectral.decompose(generator.gedmd_stochastic(basis, sample))
        assert (np.abs(dec.eigenvalues) < 1e-6 * np.abs(dec.eigenvalues).max()).sum() == 2
        cons = spectral.conserved_quantities(dec)
        assert len(cons) == 1
        vec = cons[0]
        i20 = basis.index_of((2, 0))
        i40 = basis.index_of((4, 0))
        i02 = basis.index_of((0, 2))
        # coefficient ratios of (alpha/2, beta/4, 1/2) = (-0.55, 0.275, 0.5)
        assert abs(vec[i40] / vec[i20] - 0.275 / -0.55) < 0.02 * 0.5
        assert abs(vec[i02] / vec[i20] - 0.5 / -0.55) < 0.02 * (0.5 / 0.55)
        others = np.delete(vec, [i20, i40, i02])
        assert np.abs(others).max() < 1e-8
        # conserved property: L c evaluates to ~0 on a grid
        grid = models.sample_uniform([[-2.0, 2.0]] * 2, 400, seed=5)
        values = (dec.generator @ vec) @ evaluate(basis, grid).values
        assert np.abs(values).max() < 1e-10

    def test_constant_direction_projected_out(self):
        dec, _ = ou_decomposition()
        assert spectral.conserved_quantities(dec) == []

    def test_gradient_system_has_none(self):
        # asymmetric gradient flow: only the constant sits at lambda = 0
        def drift(x):
            b = np.empty_like(x)
            b[:, 0] = -(x[:, 0] ** 3 + 0.2 * x[:, 0] * x[:, 1] ** 2)
            b[:, 1] = -(x[:, 1] + 0.2 * x[:, 0] ** 2 * x[:, 1])
            return b

        model = models.SdeModel(dimension=2, drift=drift, name="gradient-2d")
        points = models.sample_uniform([[-1.5, 1.5]] * 2, 1500, seed=21)
        sample = models.exact_sample_set(model, points)
        dec = spectral.decompose(generator.gedmd_deterministic(Monomials(2, 4), sample))
        near_zero = np.abs(dec.eigenvalues) < 1e-6 * np.abs(dec.eigenvalues).max()
        assert near_zero.sum() == 1
        assert spectral.conserved_quantities(dec) == []

    def test_no_near_zero_eigenvalue_gives_none(self):
        dec = spectral.decompose(np.diag([-1.0, -2.0]))
        assert spectral.conserved_quantities(dec) == []
