import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre

import helpers
from conftest import fd_gradient, fd_hessian, rel_err
from koopgen.dictionaries import (
    Dictionary,
    GaussianBasis,
    LegendreBasis,
    Monomials,
    PeriodicGaussianBasis,
    dictionary_from_spec,
    evaluate,
)
from koopgen.errors import DomainError, InputError, UnsupportedDictionaryError
from koopgen.models import sample_uniform

BOX3 = [(-2.0, 3.0), (-1.5, 2.0), (-3.0, 1.5)]


def test_monomial_ordering_and_size():
    mono = Monomials(2, 4)
    assert mono.size == 15  # binom(2 + 4, 2)
    assert mono.labels()[:6] == ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"]
    assert mono.index_of((0, 0)) == 0
    assert mono.index_of((1, 1)) == 4
    one_d = Monomials(1, 10)
    assert one_d.size == 11


def test_monomial_values_hand_checked():
    mono = Monomials(2, 2)
    x = np.array([[2.0, -1.0]])
    blk = mono.evaluate(x, with_hessians=True)
    assert np.allclose(blk.values[:, 0], [1.0, 2.0, -1.0, 4.0, -2.0, 1.0])
    i = mono.index_of((1, 1))
    assert np.allclose(blk.gradients[i, 0], [-1.0, 2.0])
    assert np.allclose(blk.hessians[i, 0], [[0.0, 1.0], [1.0, 0.0]])


def test_gaussian_center_values():
    g = GaussianBasis([[0.0]], 1.0)
    blk = g.evaluate(np.array([[0.0]]), with_hessians=True)
    assert blk.values[0, 0] == 1.0
    assert blk.gradients[0, 0, 0] == 0.0
    assert blk.hessians[0, 0, 0, 0] == -1.0


def test_legendre_reference_values():
    leg = LegendreBasis(3, [(-1.0, 1.0)])
    blk = leg.evaluate(np.array([[0.5]]))
    assert np.allclose(blk.values[:, 0], [1.0, 0.5, -0.125, -0.4375])


def test_legendre_domain_rejection():
    leg = LegendreBasis(3, [(-np.pi, np.pi)])
    with pytest.raises(DomainError):
        leg.evaluate(np.array([[4.0]]))


def test_one_dimensional_point_conventions():
    # d = 1: a 1-d array is m points; d = 2: a length-2 array is one point
    assert Monomials(1, 2).values(np.array([0.0, 1.0, 2.0])).shape == (3, 3)
    plane = Monomials(2, 1)
    assert np.array_equal(plane.values(np.array([2.0, 3.0]))[:, 0], [1.0, 2.0, 3.0])
    with pytest.raises(InputError, match="length 3 does not match dimension 2"):
        plane.values(np.array([1.0, 2.0, 3.0]))


def test_non_finite_points_rejected():
    mono = Monomials(1, 2)
    with pytest.raises(InputError):
        mono.evaluate(np.array([[np.nan]]))
    with pytest.raises(InputError):
        GaussianBasis([[0.0]], 1.0).evaluate(np.array([[np.inf]]))


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LegendreBasis(3, [(np.nan, 1.0)]),
        lambda: LegendreBasis(3, [(-1.0, np.inf)]),
        lambda: LegendreBasis(3, [(-1.0, 1.0), (-np.inf, 0.0)]),
        lambda: PeriodicGaussianBasis([0.0, 1.0], 0.5, period=np.inf),
        lambda: PeriodicGaussianBasis([0.0, 1.0], 0.5, period=np.nan),
        lambda: GaussianBasis([[0.0]], np.inf),
        lambda: GaussianBasis([[0.0]], np.nan),
    ],
    ids=["legendre-nan", "legendre-inf", "legendre-2d-inf", "periodic-inf",
         "periodic-nan", "gaussian-inf", "gaussian-nan"],
)
def test_non_finite_parameters_rejected(factory):
    with pytest.raises(InputError, match="finite"):
        factory()


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: Monomials(2, 2).values(np.zeros((3, 3))), InputError, "points of shape"),
        (lambda: Monomials(0, 2), InputError, "dimension must be >= 1"),
        (lambda: Monomials(1, -1), InputError, "max_degree must be >= 0"),
        (lambda: LegendreBasis(0, (-1.0, 1.0)).full_state_selector(),
         UnsupportedDictionaryError, "max_degree >= 1"),
        (lambda: LegendreBasis(2, BOX3).function_coefficients([1.0]),
         UnsupportedDictionaryError, "needs d = 1"),
        (lambda: LegendreBasis(2, (-1.0, 1.0)).function_coefficients([1.0, 0.0, 0.0, 1.0]),
         DomainError, "exceeds max_degree"),
        (lambda: GaussianBasis(np.zeros((0, 1)), 1.0), InputError, "centers must be"),
        (lambda: GaussianBasis([[np.nan]], 1.0), InputError, "non-finite"),
        (lambda: dictionary_from_spec({"kind": "bogus"}), InputError, "unknown dictionary kind"),
        (lambda: LegendreBasis(2, (-np.pi, np.pi)).values([[3.5]]), DomainError,
         re.escape("domain (-3.141592653589793, 3.141592653589793) in coordinate 1")),
    ],
    ids=["point-columns", "dimension-0", "degree-negative", "legendre-degree-0-selector",
         "coefficients-2d", "coefficients-degree", "no-centers", "nan-center", "unknown-kind",
         "legendre-domain-plain-floats"],
)
def test_invalid_arguments_raise(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_labels_name_each_function():
    assert LegendreBasis(2, (-1.0, 1.0)).labels() == ["P0", "P1", "P2"]
    assert LegendreBasis(2, [(-1.0, 1.0), (0.0, 2.0)]).labels() == [
        "P0", "P1(x1)", "P1(x2)", "P2(x1)", "P1(x1) P1(x2)", "P2(x2)"
    ]
    assert GaussianBasis([[0.0, 1.5]], 1.0).labels() == ["g(0,1.5)"]
    assert PeriodicGaussianBasis([-1.0, 0.5], 1.0, 2.0).labels() == ["gp(-1)", "gp(0.5)"]


def test_single_pair_box_for_one_dimension():
    pair = LegendreBasis(3, (-1.0, 1.0))
    assert pair.domain.tolist() == [[-1.0, 1.0]]
    x = np.linspace(-1.0, 1.0, 7)
    assert np.array_equal(pair.values(x), LegendreBasis(3, [(-1.0, 1.0)]).values(x))
    assert np.array_equal(
        sample_uniform((0.0, 1.0), 5, seed=0), sample_uniform([[0.0, 1.0]], 5, seed=0)
    )


def test_periodic_wrap_equivalence():
    pg = PeriodicGaussianBasis(np.linspace(-2.8, 2.8, 9), 1.0, 2 * np.pi)
    x = np.linspace(-np.pi, np.pi, 40).reshape(-1, 1)
    a = pg.evaluate(x).values
    b = pg.evaluate(x + 2 * np.pi).values
    # x + 2*pi itself carries ~1 ulp of input rounding; the kernel is
    # 1-Lipschitz here so the tolerance is tight but attainable
    assert np.max(np.abs(a - b)) < 1e-15


def test_full_state_selector_monomials():
    mono = Monomials(3, 2)
    B = mono.full_state_selector()
    assert B.shape == (mono.size, 3)
    assert np.all(B.sum(axis=0) == 1.0)
    x = np.random.Generator(np.random.Philox(1)).uniform(-1, 1, (20, 3))
    vals = mono.evaluate(x).values
    assert np.allclose(B.T @ vals, x.T)


def test_full_state_selector_unsupported():
    with pytest.raises(UnsupportedDictionaryError):
        Monomials(2, 0).full_state_selector()
    with pytest.raises(UnsupportedDictionaryError):
        GaussianBasis([[0.0, 0.0]], 1.0).full_state_selector()


def test_legendre_coordinate_coefficients():
    leg = LegendreBasis(4, [(-np.pi, np.pi)])
    C = leg.full_state_selector()
    x = np.linspace(-3.0, 3.0, 17).reshape(-1, 1)
    vals = leg.evaluate(x).values
    assert np.allclose(C.T @ vals, x.T)
    # x^2 expansion is exact as well
    c2 = leg.function_coefficients([0.0, 0.0, 1.0])
    assert np.allclose(c2 @ vals, x[:, 0] ** 2)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: Monomials(2, 5),
        lambda: Monomials(1, 8),
        lambda: LegendreBasis(6, [(-2.0, 2.0), (-1.0, 3.0)]),
        lambda: GaussianBasis(np.linspace(-2, 2, 7).reshape(-1, 1), 0.5),
        lambda: GaussianBasis([[0.0, 0.0], [1.0, -1.0], [0.3, 0.2]], 0.8),
        lambda: PeriodicGaussianBasis(np.linspace(-2.8, 2.8, 9), 0.7, 2 * np.pi),
        lambda: Monomials(5, 3),
        lambda: LegendreBasis(4, BOX3),
    ],
)
def test_derivatives_match_finite_differences(factory, rng):
    basis = factory()
    x = rng.uniform(-0.9, 0.9, (25, basis.dimension))
    blk = basis.evaluate(x, with_hessians=True)
    assert rel_err(fd_gradient(basis, x), blk.gradients) < 1e-6
    assert rel_err(fd_hessian(basis, x), blk.hessians) < 1e-6


def _univariate(basis, x):
    """f(j, k, r): r-th derivative of the k-th univariate factor at coordinate j."""
    if isinstance(basis, Monomials):

        def f(j, k, r):
            if k < r:
                return np.zeros(x.shape[0])
            return np.prod(np.arange(k - r + 1, k + 1)) * x[:, j] ** (k - r)

    else:
        lo, hi = basis.domain.T

        def f(j, k, r):
            t = (2.0 * x[:, j] - lo[j] - hi[j]) / (hi[j] - lo[j])
            series = legendre.legder(np.eye(k + 1)[k], r)
            return legendre.legval(t, series) * (2.0 / (hi[j] - lo[j])) ** r

    return f


@pytest.mark.parametrize("basis", [Monomials(3, 4), Monomials(5, 3), LegendreBasis(4, BOX3)])
def test_tensor_bases_match_univariate_products(basis, rng):
    x = rng.uniform(-1.4, 1.4, (30, basis.dimension))
    f = _univariate(basis, x)
    d = basis.dimension
    blk = basis.evaluate(x, with_hessians=True)

    def product(e, orders):
        return np.prod([f(j, e[j], orders[j]) for j in range(d)], axis=0)

    values = np.array([product(e, [0] * d) for e in basis.exponents])
    unit = np.eye(d, dtype=int)
    gradients = np.array(
        [[product(e, unit[i]) for i in range(d)] for e in basis.exponents]
    ).transpose(0, 2, 1)
    hessians = np.array(
        [[[product(e, unit[i] + unit[l]) for l in range(d)] for i in range(d)]
         for e in basis.exponents]
    ).transpose(0, 3, 1, 2)
    for got, want in ((blk.values, values), (blk.gradients, gradients), (blk.hessians, hessians)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_evaluation_is_deterministic(rng):
    basis = Monomials(3, 4)
    x = rng.uniform(-2, 2, (50, 3))
    a = basis.evaluate(x, with_hessians=True)
    b = basis.evaluate(x, with_hessians=True)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.gradients, b.gradients)
    assert np.array_equal(a.hessians, b.hessians)


@pytest.mark.parametrize(
    "basis",
    [
        Monomials(3, 4),
        LegendreBasis(4, [(-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)]),
        GaussianBasis(np.linspace(-1.0, 1.0, 12).reshape(4, 3), 0.8),
        PeriodicGaussianBasis(np.linspace(-2.8, 2.8, 9), 0.7, 2 * np.pi),
    ],
    ids=["monomials", "legendre", "gaussians", "periodic"],
)
def test_hessian_symmetry(basis, rng):
    x = rng.uniform(-1.9, 1.9, (15, basis.dimension))
    H = basis.evaluate(x, with_hessians=True).hessians
    assert np.array_equal(H, np.transpose(H, (0, 1, 3, 2)))


@pytest.mark.parametrize(
    "basis",
    [
        GaussianBasis(np.linspace(-1.0, 1.0, 5).reshape(-1, 1), 0.6),
        GaussianBasis([[0.0, 0.0], [1.0, -1.0], [0.3, 0.2]], 0.8),
        GaussianBasis(np.linspace(-1.0, 1.0, 12).reshape(3, 4), 0.9),
        PeriodicGaussianBasis(np.linspace(-2.8, 2.8, 9), 0.7, 2 * np.pi),
    ],
    ids=["gaussians-d1", "gaussians-d2", "gaussians-d4", "periodic"],
)
def test_gaussian_hessians_match_closed_form(basis, rng):
    # both built from the generator action; points near +-1.4 wrap around the periodic centers
    x = rng.uniform(-1.4, 1.4, (30, basis.dimension))
    block = basis.evaluate(x, with_hessians=True)
    for got, want in (
        (block.gradients, helpers.gaussian_gradients(basis, x)),
        (block.hessians, helpers.gaussian_hessians(basis, x)),
    ):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class _Quadratics(Dictionary):
    """{1, x, x^2} on R through the two chunk callables alone."""

    dimension, size = 1, 3

    def _chunk_values(self):
        def values(points, out):
            x = np.asarray(points, dtype=np.float64).reshape(-1)
            out[:] = [np.ones_like(x), x, x * x]

        return values

    def _chunk_action(self):
        def act(points, drift, diffusion, values, dpsi):
            # L x^2 = 2 b x + a
            x, b = np.asarray(points).reshape(-1), np.asarray(drift)[:, 0]
            a = 0.0 if diffusion is None else np.asarray(diffusion)[:, 0, 0]
            self._chunk_values()(points, values)
            dpsi[:] = [0.0 * x, b, 2.0 * b * x + a]

        return act


def test_chunk_callables_give_every_public_method():
    basis, x = _Quadratics(), np.array([[2.0], [-1.0]])
    values = [[1.0, 1.0], [2.0, -1.0], [4.0, 1.0]]
    assert np.array_equal(basis.values(x), values)
    block = basis.evaluate(x)
    assert np.array_equal(block.values, values)
    assert np.array_equal(block.gradients[:, :, 0], [[0.0, 0.0], [1.0, 1.0], [4.0, -2.0]])
    assert block.hessians is None
    hessians = np.broadcast_to(np.array([0.0, 0.0, 2.0])[:, None, None, None], (3, 2, 1, 1))
    assert np.array_equal(basis.evaluate(x, with_hessians=True).hessians, hessians)
    drift, diffusion = np.array([[0.5], [3.0]]), np.array([[[4.0]], [[1.0]]])
    got_values, dpsi = basis.generator_action(x, drift, diffusion)
    assert np.array_equal(got_values, values)
    assert np.array_equal(dpsi, [[0.0, 0.0], [0.5, 3.0], [6.0, -5.0]])
    first_order = basis.generator_action(x, drift)[1]
    assert np.array_equal(first_order, [[0.0, 0.0], [0.5, 3.0], [2.0, -6.0]])


@pytest.mark.parametrize(
    "basis",
    [
        Monomials(1, 12),
        Monomials(4, 4),
        LegendreBasis(4, [(-1.5, 1.5)] * 3),
        GaussianBasis([[0.1, -0.2], [0.5, 0.3], [-0.4, 0.0]], 0.4),
        PeriodicGaussianBasis([0.0, 1.0, 2.5], 0.5, 2 * np.pi),
    ],
    ids=["monomials-1d", "monomials-4d", "legendre", "gaussian", "periodic-gaussian"],
)
def test_results_own_their_memory(basis):
    # the public methods allocate their results and have the chunk callables write into
    # them, so no result is a view that keeps a chunk's scratch alive; a walk writes the
    # same bits into the rows of a fold panel
    rng = np.random.default_rng(9)
    m, n, d = 300, basis.size, basis.dimension
    x = rng.uniform(-1.4, 1.4, (m, d))
    drift, S = rng.standard_normal((m, d)), rng.standard_normal((m, d, d))
    diffusion = S @ S.transpose(0, 2, 1)
    block = basis.evaluate(x, with_hessians=True)
    action = basis.generator_action(x, drift, diffusion)
    results = (basis.values(x), *action, block.values, block.gradients, block.hessians)
    assert all(result.flags.owndata for result in results)
    panel = np.full((3 * n, m), np.nan)
    basis._chunk_values()(x, panel[:n])
    basis._chunk_action()(x, drift, diffusion, panel[n : 2 * n], panel[2 * n :])
    for got, want in zip(np.split(panel, 3), results, strict=False):
        assert np.array_equal(got, want)
    assert np.array_equal(block.values, results[0])


def test_spec_round_trip(rng):
    for basis in (
        Monomials(2, 3),
        LegendreBasis(5, [(-np.pi, np.pi)]),
        GaussianBasis([[0.1, -0.2]], 0.4),
        PeriodicGaussianBasis([0.0, 1.0], 0.5, 2 * np.pi),
    ):
        clone = dictionary_from_spec(basis.spec())
        assert clone.spec() == basis.spec()
        x = rng.uniform(-1, 1, (10, basis.dimension))
        assert np.array_equal(evaluate(basis, x).values, evaluate(clone, x).values)
    assert PeriodicGaussianBasis([0.0, 1.0], 0.5, 2 * np.pi).spec()["centers"] == [0.0, 1.0]


@given(
    d=st.integers(min_value=1, max_value=4),
    deg=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_monomial_count_matches_binomial(d, deg):
    from math import comb

    assert Monomials(d, deg).size == comb(d + deg, d)


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_periodic_shift_invariance(shift):
    pg = PeriodicGaussianBasis([0.4], 0.6, 2.0)
    k = np.round(shift / 2.0)
    x = np.array([[shift]])
    y = np.array([[shift - 2.0 * k]])
    assert np.allclose(pg.evaluate(x).values, pg.evaluate(y).values, atol=1e-12)


@given(
    kind=st.sampled_from(["monomials", "legendre", "gaussians", "periodic"]),
    d=st.integers(min_value=1, max_value=2),
    deg=st.integers(min_value=2, max_value=8),
    chunks=st.floats(min_value=0.0, max_value=2.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_values_bitwise_equal_evaluate(kind, d, deg, chunks, seed):
    rng = np.random.default_rng(seed)
    if kind == "monomials":
        basis = Monomials(d, deg)
    elif kind == "legendre":
        basis = LegendreBasis(deg, BOX3[:d])
    elif kind == "gaussians":
        basis = GaussianBasis(rng.uniform(-1.0, 1.0, (3 * deg, d)), 0.7)
    else:
        basis = PeriodicGaussianBasis(rng.uniform(-1.0, 1.0, 3 * deg), 0.7, 2.0)
    # up to 2.5 times 65536 matrix entries, in points per basis function
    m = 1 + int(chunks * max(16, 65536 // basis.size))
    box = np.array(BOX3[: basis.dimension])
    x = rng.uniform(box[:, 0], box[:, 1], (m, basis.dimension))
    values = basis.values(x)
    assert values.shape == (basis.size, m)
    assert values.tobytes() == basis.evaluate(x).values.tobytes()
