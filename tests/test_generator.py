import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from koopgen import generator, sysid
from koopgen.dictionaries import _WORK_ELEMENTS, GaussianBasis, LegendreBasis, Monomials
from koopgen.errors import InputError, LogBranchError
from koopgen.generator import (
    CHUNK,
    GeneratorEstimate,
    apply_generator_values,
    edmd_with_log,
    estimate_from_dict,
    estimate_to_dict,
    gedmd_deterministic,
    gedmd_reversible,
    gedmd_stochastic,
    perron_frobenius_estimate,
)
from koopgen.models import (
    SampleSet,
    analytic_ou_generator,
    double_well_2d,
    exact_sample_set,
    ornstein_uhlenbeck,
    ou_invariant_density,
    sample_uniform,
    slow_manifold_system,
)


def ou_sample(m=100, seed=7, alpha=1.0, beta=4.0, box=(-2.0, 2.0)):
    ou = ornstein_uhlenbeck(alpha, beta)
    return exact_sample_set(ou, sample_uniform([list(box)], m, seed=seed))


def test_ou_generator_matches_analytic():
    est = gedmd_stochastic(Monomials(1, 10), ou_sample())
    L_true = analytic_ou_generator(1.0, 4.0, 10)
    assert np.max(np.abs(est.L - L_true)) < 1e-8
    assert est.rank == 11
    assert not est.rank_deficient


def test_normal_equation_residual():
    est = gedmd_stochastic(Monomials(1, 6), ou_sample())
    scale = np.linalg.norm(est.A_hat)
    assert np.linalg.norm(est.M @ est.G_hat - est.A_hat) < 1e-9 * scale


def test_zero_drift_gives_zero_matrix():
    pts = sample_uniform([[-1, 1], [-1, 1]], 200, seed=5)
    s = SampleSet(points=pts, drift_samples=np.zeros_like(pts))
    est = gedmd_deterministic(Monomials(2, 3), s)
    assert np.max(np.abs(est.M)) < 1e-12


def test_stochastic_with_zero_diffusion_equals_deterministic():
    m1 = slow_manifold_system()
    pts = sample_uniform([[-2, 2], [-2, 2]], 300, seed=2)
    drift = m1.drift_at(pts)
    s_det = SampleSet(points=pts, drift_samples=drift)
    s_sto = SampleSet(
        points=pts, drift_samples=drift, diffusion_samples=np.zeros((300, 2, 2))
    )
    a = gedmd_deterministic(Monomials(2, 4), s_det)
    b = gedmd_stochastic(Monomials(2, 4), s_sto)
    assert np.array_equal(a.M, b.M)
    assert np.array_equal(a.A_hat, b.A_hat)
    assert np.array_equal(a.G_hat, b.G_hat)


def test_stochastic_requires_diffusion():
    pts = sample_uniform([[-1, 1]], 50, seed=0)
    s = SampleSet(points=pts, drift_samples=-pts)
    with pytest.raises(InputError):
        gedmd_stochastic(Monomials(1, 3), s)


def test_reversible_estimator_symmetry_and_spectrum():
    # points drawn from the OU invariant law N(0, 1/(alpha beta))
    rng = np.random.Generator(np.random.Philox(3))
    pts = rng.normal(0.0, 0.5, (100000, 1))
    s = exact_sample_set(ornstein_uhlenbeck(1.0, 4.0), pts)
    est = gedmd_reversible(Monomials(1, 6), s)
    assert np.array_equal(est.A_hat, est.A_hat.T)
    ev = np.sort(np.linalg.eigvals(est.L).real)[::-1]
    for i, target in enumerate([0.0, -1.0, -2.0, -3.0]):
        assert abs(ev[i] - target) <= 0.05 * max(abs(target), 1.0)


def test_reversible_rank_is_that_of_the_value_matrix():
    # cond(Psi) is about 1.5e5, so cond(G_hat) about 2e10 sits at the 1e-10 cutoff
    rng = np.random.Generator(np.random.Philox(3))
    pts = rng.normal(0.0, 0.5, (20000, 1))
    s = exact_sample_set(ornstein_uhlenbeck(1.0, 4.0), pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = gedmd_reversible(Monomials(1, 14), s)
    assert est.rank == 15
    assert not est.rank_deficient
    assert est.rank == gedmd_stochastic(Monomials(1, 14), s).rank


def test_perron_frobenius_keeps_the_estimate_rank():
    # the sample of the test above: G_hat's eigenvalues span cond(Psi)^2, about
    # 2e10, so a cutoff on them at SVD_CUTOFF would drop one
    rng = np.random.Generator(np.random.Philox(3))
    s = exact_sample_set(ornstein_uhlenbeck(1.0, 4.0), rng.normal(0.0, 0.5, (20000, 1)))
    est = gedmd_stochastic(Monomials(1, 14), s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pf = perron_frobenius_estimate(est)
    assert (pf.rank, pf.rank_deficient) == (15, False)
    assert pf.rank == est.rank
    # full rank: M* = G_hat M^T G_hat^-1, so M* G_hat = G_hat M^T
    np.testing.assert_allclose(pf.M @ est.G_hat, est.G_hat @ est.M.T, atol=1e-8 * np.abs(est.A_hat).max())


def test_perron_frobenius_warns_when_gram_loses_rank():
    # 30 narrow Gaussians: Psi has full rank, but G_hat's smallest eigenvalues
    # fall below rounding
    basis = GaussianBasis(np.linspace(-2, 2, 30).reshape(-1, 1), 0.3)
    est = gedmd_stochastic(basis, ou_sample(m=3000, seed=21))
    with pytest.warns(UserWarning, match="resolves only"):
        pf = perron_frobenius_estimate(est)
    assert est.rank == 30 and pf.rank < 30 and pf.rank_deficient
    assert np.all(np.isfinite(pf.M))


def test_reversible_requires_sigma_samples():
    pts = sample_uniform([[-1, 1]], 50, seed=0)
    s = SampleSet(points=pts, drift_samples=-pts)
    with pytest.raises(InputError):
        gedmd_reversible(Monomials(1, 3), s)


def test_perron_frobenius_with_identity_gram():
    A = np.array([[0.0, 1.0], [2.0, -1.0]])
    est = GeneratorEstimate(
        M=A.copy(), A_hat=A, G_hat=np.eye(2), rank=2, dictionary=None, sample_count=10,
    )
    pf = perron_frobenius_estimate(est)
    assert np.allclose(pf.M, A.T, atol=1e-12)


def test_perron_frobenius_invariant_density():
    # leading adjoint eigenfunction tracks the OU stationary density
    centers = np.linspace(-2, 2, 30).reshape(-1, 1)
    basis = GaussianBasis(centers, 0.3)
    s = ou_sample(m=3000, seed=21)
    est = gedmd_stochastic(basis, s)
    with pytest.warns(UserWarning, match="resolves only"):
        pf = perron_frobenius_estimate(est)
    ev, V = np.linalg.eig(pf.L)
    lead = np.argmax(ev.real)
    xi = V[:, lead].real
    grid = np.linspace(-1.5, 1.5, 200).reshape(-1, 1)
    approx = xi @ basis.evaluate(grid).values
    target = ou_invariant_density(1.0, 4.0, grid[:, 0])
    corr = np.corrcoef(approx, target)[0, 1]
    assert abs(corr) > 0.99


def test_edmd_log_recovers_diagonal_generator():
    tau = 0.01
    x = sample_uniform([[-1, 1]], 400, seed=2)
    y = x * np.exp(-tau)
    est = edmd_with_log(x, y, Monomials(1, 3), tau)
    assert np.allclose(np.diag(est.M), [0, -1, -2, -3], atol=1e-9)
    off = est.M - np.diag(np.diag(est.M))
    assert np.max(np.abs(off)) < 1e-9
    assert est.kind == "edmd-log"


def test_edmd_log_branch_error():
    x = sample_uniform([[-1, 1]], 300, seed=8)
    y = -x  # transfer matrix has eigenvalue -1 on odd monomials
    with pytest.raises(LogBranchError):
        edmd_with_log(x, y, Monomials(1, 3), 0.1)


def test_gedmd_sparser_than_edmd_log():
    # identical OU setup: the generator route stays sparse, the log route fills in
    alpha, beta, tau = 1.0, 4.0, 0.05
    est_gen = gedmd_stochastic(Monomials(1, 10), ou_sample(m=10000, seed=31))
    rng = np.random.Generator(np.random.Philox(32))
    x = rng.uniform(-2, 2, (10000, 1))
    decay = np.exp(-alpha * tau)
    std = np.sqrt((1 - decay**2) / (alpha * beta))
    y = x * decay + std * rng.standard_normal(x.shape)
    est_log = edmd_with_log(x, y, Monomials(1, 10), tau)
    n_gen = int(np.sum(np.abs(est_gen.M) > 1e-6))
    n_log = int(np.sum(np.abs(est_log.M) > 1e-6))
    assert n_gen < n_log


def test_rank_deficiency_warns():
    pts = np.tile(np.array([[0.5], [1.0], [-0.3]]), (10, 1))
    s = SampleSet(points=pts, drift_samples=-pts)
    with pytest.warns(UserWarning, match="rank deficient"):
        est = gedmd_deterministic(Monomials(1, 5), s)
    assert est.rank_deficient
    assert est.rank == 3


def test_estimate_serialization_round_trip():
    est = gedmd_stochastic(Monomials(1, 4), ou_sample(m=50, seed=1))
    payload = estimate_to_dict(est)
    back = estimate_from_dict(payload)
    assert np.allclose(back.M, est.M)
    assert np.allclose(back.G_hat, est.G_hat)
    assert back.rank == est.rank
    assert back.dictionary.spec() == est.dictionary.spec()


def test_assembly_reproducible_bitwise():
    s = ou_sample(m=5000, seed=12)
    a = gedmd_stochastic(Monomials(1, 10), s)
    b = gedmd_stochastic(Monomials(1, 10), s)
    assert np.array_equal(a.M, b.M)
    assert np.array_equal(a.A_hat, b.A_hat)


def _random_coefficients(rng, m, d):
    drift = rng.standard_normal((m, d))
    S = rng.standard_normal((m, d, d))
    return drift, S @ np.transpose(S, (0, 2, 1))


@pytest.mark.parametrize(
    "basis",
    [
        Monomials(2, 5),
        Monomials(4, 8),
        Monomials(5, 3),
        LegendreBasis(5, [[-2.0, 2.0]] * 2),
        LegendreBasis(8, [[-2.0, 2.0]] * 4),
        LegendreBasis(4, [[-2.0, 3.0], [-1.5, 2.0], [-3.0, 1.5]]),
        GaussianBasis(sample_uniform([[-1.0, 1.0]] * 3, 12, seed=4), 0.8),
    ],
    ids=[
        "monomials-d2",
        "monomials-d4",
        "monomials-d5",
        "legendre-d2",
        "legendre-d4",
        "legendre-d3-box",
        "gaussians",
    ],
)
def test_generator_action_matches_hessian_contraction(basis):
    # the 1500 points span several internal sub-chunks of the tensor bases
    rng = np.random.Generator(np.random.Philox(17))
    points = rng.uniform(-1.5, 1.5, (1500, basis.dimension))
    drift, diffusion = _random_coefficients(rng, 1500, basis.dimension)
    skew = rng.standard_normal((1500, basis.dimension, basis.dimension))
    block = basis.evaluate(points, with_hessians=True)
    # drift only, a symmetric diffusion, and one whose skew part must drop out
    for a in (None, diffusion, diffusion + skew):
        values, dpsi = basis.generator_action(points, drift, a)
        sample = SampleSet(points=points, drift_samples=drift, diffusion_samples=a)
        expected = apply_generator_values(block, sample)
        assert np.array_equal(values, block.values)
        assert np.linalg.norm(dpsi - expected) <= 1e-13 * np.linalg.norm(expected)
        if basis.constant_index is not None:
            assert not dpsi[basis.constant_index].any()  # L 1 = 0 exactly


def test_tensor_bases_independent_of_work_chunks():
    basis = Monomials(4, 6)
    m = 1000
    assert m * basis.size > 2 * _WORK_ELEMENTS  # several internal sub-chunks
    rng = np.random.Generator(np.random.Philox(23))
    points = rng.uniform(-1.5, 1.5, (m, 4))
    drift, diffusion = _random_coefficients(rng, m, 4)
    pieces = (slice(0, 1), slice(1, 450), slice(450, m))
    whole = basis.evaluate(points, with_hessians=True)
    parts = [basis.evaluate(points[sl], with_hessians=True) for sl in pieces]
    for name in ("values", "gradients", "hessians"):
        joined = np.concatenate([getattr(p, name) for p in parts], axis=1)
        assert np.array_equal(getattr(whole, name), joined)
    for a in (None, diffusion):
        whole = basis.generator_action(points, drift, a)
        parts = [
            basis.generator_action(points[sl], drift[sl], None if a is None else a[sl])
            for sl in pieces
        ]
        for k in (0, 1):
            assert np.array_equal(whole[k], np.concatenate([p[k] for p in parts], axis=1))


def test_generator_action_rejects_mismatched_coefficients():
    basis = Monomials(2, 3)
    points = np.zeros((5, 2))
    with pytest.raises(InputError):
        basis.generator_action(points, np.zeros((5, 3)))
    with pytest.raises(InputError):
        basis.generator_action(points, np.zeros((5, 2)), np.zeros((4, 2, 2)))


def _streamed_and_dense(basis, sample, lag=0.01):
    """(streamed, dense reference) pairs for every fit served by the R factor."""
    m = sample.count
    block = basis.evaluate(sample.points, with_hessians=True)
    values = block.values
    dpsi = apply_generator_values(block, sample)
    M = np.linalg.lstsq(values.T, dpsi.T, rcond=1e-10)[0].T
    G = values @ values.T / m
    # one explicit Euler step: the cubic drift takes psi(y) out of the span
    lagged = sample.points + lag * sample.drift_samples
    K = np.linalg.lstsq(values.T, basis.evaluate(lagged).values.T, rcond=1e-10)[0].T
    # quartic drift targets leave the cubic span, so the regression has a residual
    quartic = SampleSet(points=sample.points, drift_samples=sample.drift_samples * sample.points)
    B = np.linalg.lstsq(values.T, quartic.drift_samples, rcond=1e-10)[0].T
    W = np.einsum("kli,lis->kls", block.gradients, sample.sigma_samples).reshape(len(G), -1)
    P = np.linalg.pinv(values.T, rcond=1e-10)  # G^+ = m P P^T
    stochastic = gedmd_stochastic(basis, sample)
    reversible = gedmd_reversible(basis, sample)
    return [
        (stochastic.M, M),
        (stochastic.G_hat, G),
        (sysid.threshold_generator(basis, sample, 0.0).M, M),
        (sysid.sindy_coefficients(basis, quartic), B),
        (edmd_with_log(sample.points, lagged, basis, lag).M, linalg.logm(K).real / lag),
        (reversible.G_hat, G),
        (reversible.M, (-W @ W.T / (2 * m)) @ (m * P @ P.T)),
    ]


@settings(max_examples=12, deadline=None)
@given(
    m=st.integers(CHUNK + 1, 3 * CHUNK).filter(lambda m: m % CHUNK != 0),
    seed=st.integers(0, 2**31 - 1),
)
def test_streaming_fit_matches_dense_lstsq_under_permutation(m, seed):
    # the double-well drift is cubic, so dPsi leaves the span and the residual is nonzero
    rng = np.random.Generator(np.random.Philox(seed))
    basis = Monomials(2, 3)
    points = rng.uniform(-1.5, 1.5, (m, 2))
    sample = exact_sample_set(double_well_2d(), points)
    perm = rng.permutation(m)
    shuffled = SampleSet(
        points=sample.points[perm],
        drift_samples=sample.drift_samples[perm],
        diffusion_samples=sample.diffusion_samples[perm],
        sigma_samples=sample.sigma_samples[perm],
    )
    pairs = zip(_streamed_and_dense(basis, sample), _streamed_and_dense(basis, shuffled))
    for (got, want), (got_shuffled, _) in pairs:
        for fit in (got, got_shuffled):
            assert np.linalg.norm(fit - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("chunk", [97, 500, CHUNK])
def test_streaming_fit_is_chunk_size_invariant(monkeypatch, chunk):
    monkeypatch.setattr(generator, "CHUNK", chunk)
    basis = Monomials(2, 3)
    points = sample_uniform([[-1.5, 1.5]] * 2, 2100, seed=19)
    sample = exact_sample_set(double_well_2d(), points)
    for got, want in _streamed_and_dense(basis, sample):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_stochastic_fit_builds_no_hessian_tensor(monkeypatch):
    # 10-D Ornstein-Uhlenbeck process, dX = -diag(alpha) X dt + B dW, on Monomials(10, 3)
    d = 10
    basis = Monomials(d, 3)
    evaluate = Monomials.evaluate

    def no_hessians(self, points, with_hessians=False):
        if with_hessians:
            raise AssertionError("evaluate called with with_hessians=True")
        return evaluate(self, points, with_hessians)

    monkeypatch.setattr(Monomials, "evaluate", no_hessians)
    alpha = np.linspace(0.5, 2.0, d)
    B = np.eye(d) + 0.3 * np.eye(d, k=-1)
    a = B @ B.T
    points = sample_uniform([[-1.0, 1.0]] * d, 5000, seed=23)
    sample = SampleSet(
        points=points,
        drift_samples=-points * alpha,
        diffusion_samples=np.broadcast_to(a, (5000, d, d)),
    )
    est = gedmd_stochastic(basis, sample)

    # L x^e = -(alpha . e) x^e + sum_j a_jj e_j (e_j - 1) / 2 x^(e - 2 e_j)
    #         + sum_{j<k} a_jk e_j e_k x^(e - e_j - e_k)
    expected = np.zeros((basis.size, basis.size))
    for row, e in enumerate(basis.exponents):
        expected[row, row] = -alpha @ e
        for j in range(d):
            for k in range(j, d):
                lowered = e.copy()
                lowered[j] -= 1
                lowered[k] -= 1
                if lowered.min() < 0:
                    continue
                weight = 0.5 * e[j] * (e[j] - 1) if j == k else e[j] * e[k]
                expected[row, basis.index_of(lowered)] += a[j, k] * weight
    assert est.rank == basis.size
    assert np.linalg.norm(est.M - expected) <= 1e-10 * np.linalg.norm(expected)
