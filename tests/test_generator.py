import ctypes
import json
import subprocess
import sys
import threading
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

import helpers
from koopgen import generator, io, sysid
from koopgen.control import BurgersPlant
from koopgen.dictionaries import (
    GaussianBasis,
    LegendreBasis,
    Monomials,
    PeriodicGaussianBasis,
)
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
    duffing_oscillator,
    exact_sample_set,
    integrate_em,
    kramers_moyal,
    ornstein_uhlenbeck,
    ou_invariant_density,
    sample_uniform,
    slow_manifold_system,
    stratonovich_to_ito,
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


def test_reversible_estimator_reads_kramers_moyal_diffusion():
    # walkers start in the OU invariant law N(0, 1/(alpha beta)), so the sample stays in it
    model = ornstein_uhlenbeck(1.0, 4.0)
    x0 = np.random.Generator(np.random.Philox(7)).normal(0.0, 0.5, (2000, 1))
    paths = integrate_em(model, x0, 0.01, 100, seed=8)
    sample = kramers_moyal(paths, 0.01)
    est = gedmd_reversible(Monomials(1, 4), sample)
    ev = np.sort(np.linalg.eigvals(est.L).real)[::-1]
    assert np.all(np.abs(ev[:3] - [0.0, -1.0, -2.0]) <= 0.1)


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
    # 30 narrow Gaussians: Psi has full rank, but G_hat's smallest eigenvalues
    # fall below rounding; G_hat^+ comes from R11, so all 30 directions stay
    basis = GaussianBasis(np.linspace(-2, 2, 30).reshape(-1, 1), 0.3)
    est = gedmd_stochastic(basis, ou_sample(m=3000, seed=21))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pf = perron_frobenius_estimate(est)
    assert (est.rank, pf.rank, pf.rank_deficient) == (30, 30, False)
    assert np.all(np.isfinite(pf.M))


def test_perron_frobenius_warns_when_gram_loses_rank():
    # 30 narrow Gaussians on 20 points: Psi, and so G_hat, has rank 20 at most;
    # the adjoint is restricted to the fit's resolved subspace and says so
    basis = GaussianBasis(np.linspace(-2, 2, 30).reshape(-1, 1), 0.3)
    with pytest.warns(UserWarning, match="rank deficient"):
        est = gedmd_stochastic(basis, ou_sample(m=20, seed=21))
    with pytest.warns(UserWarning, match="rank deficient"):
        pf = perron_frobenius_estimate(est)
    assert est.rank < 30 and pf.rank == est.rank and pf.rank_deficient
    assert np.all(np.isfinite(pf.M))


def test_reversible_requires_diffusion_samples():
    pts = sample_uniform([[-1, 1]], 50, seed=0)
    s = SampleSet(points=pts, drift_samples=-pts)
    with pytest.raises(InputError):
        gedmd_reversible(Monomials(1, 3), s)


def test_perron_frobenius_with_identity_gram():
    A = np.array([[0.0, 1.0], [2.0, -1.0]])
    # R = sqrt(m) I, so G_hat = R^T R / m = I
    est = GeneratorEstimate(
        M=A.copy(), A_hat=A, R=np.sqrt(10.0) * np.eye(2), rank=2, dictionary=None,
        sample_count=10,
    )
    pf = perron_frobenius_estimate(est)
    assert np.allclose(pf.M, A.T, atol=1e-12)


def test_perron_frobenius_invariant_density():
    # leading adjoint eigenfunction tracks the OU stationary density
    centers = np.linspace(-2, 2, 30).reshape(-1, 1)
    basis = GaussianBasis(centers, 0.3)
    s = ou_sample(m=3000, seed=21)
    est = gedmd_stochastic(basis, s)
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


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: apply_generator_values(
            Monomials(1, 2).evaluate(np.zeros((2, 1))),
            SampleSet(points=np.zeros((2, 1)), drift_samples=np.zeros((2, 1)),
                      diffusion_samples=np.ones((2, 1, 1))),
        ), "no Hessians"),
        (lambda: edmd_with_log(np.zeros((3, 1)), np.zeros((2, 1)), Monomials(1, 2), 0.1),
         "equal counts"),
    ],
    ids=["diffusion-without-hessians", "lagged-count"],
)
def test_invalid_arguments_raise(build, match):
    with pytest.raises(InputError, match=match):
        build()


@pytest.mark.parametrize("lag", [np.nan, np.inf])
def test_edmd_log_rejects_a_non_finite_lag(lag):
    x = sample_uniform([[-1, 1]], 50, seed=2)
    with pytest.raises(InputError, match="positive and finite"):
        edmd_with_log(x, 0.9 * x, Monomials(1, 3), lag)


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
    assert np.array_equal(back.R, est.R)
    assert np.array_equal(back.G_hat, est.G_hat)
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
        GaussianBasis(sample_uniform([[-1.0, 1.0]], 9, seed=3), 0.5),
        GaussianBasis(sample_uniform([[-1.0, 1.0]] * 3, 12, seed=4), 0.8),
        GaussianBasis(sample_uniform([[-1.0, 1.0]] * 4, 20, seed=5), 1.0),
        # period 0.7: the points span more than four periods, so D wraps
        PeriodicGaussianBasis(np.linspace(-0.3, 0.3, 7), 0.15, 0.7),
    ],
    ids=[
        "monomials-d2",
        "monomials-d4",
        "monomials-d5",
        "legendre-d2",
        "legendre-d4",
        "legendre-d3-box",
        "gaussians-d1",
        "gaussians",
        "gaussians-d4",
        "periodic-gaussians",
    ],
)
def test_generator_action_matches_hessian_contraction(basis):
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
    for basis in (
        Monomials(4, 6),
        LegendreBasis(5, [(-1.5, 1.5)] * 4),
        GaussianBasis(np.linspace(-1.0, 1.0, 24).reshape(6, 4), 0.8),
        PeriodicGaussianBasis(np.linspace(-1.0, 1.0, 9), 0.5, 3.0),
    ):
        m = 1000
        rng = np.random.Generator(np.random.Philox(23))
        points = rng.uniform(-1.5, 1.5, (m, basis.dimension))
        drift, diffusion = _random_coefficients(rng, m, basis.dimension)
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


@pytest.mark.parametrize(
    "basis", [Monomials(4, 4), LegendreBasis(4, [(-1.5, 1.5)] * 3)], ids=["monomials", "legendre"]
)
@pytest.mark.parametrize("stochastic", [False, True])
def test_reused_chunk_walks_equal_fresh_calls(basis, stochastic):
    # one chunk action or evaluation refills the work arrays of its first chunk; a
    # short last chunk takes their leading entries; results equal fresh calls bitwise
    m = 700
    rng = np.random.Generator(np.random.Philox(31))
    points = rng.uniform(-1.5, 1.5, (m, basis.dimension))
    drift, diffusion = _random_coefficients(rng, m, basis.dimension)
    a = diffusion if stochastic else None
    for length in (256, 300, 699, m):  # short last chunks of 188, 100, 1 points; one chunk
        act = basis._chunk_action()
        evaluate = basis._chunk_evaluate(gradients=stochastic)
        for start in range(0, m, length):
            sl = slice(start, min(start + length, m))
            got = act(points[sl], drift[sl], None if a is None else a[sl])
            want = basis.generator_action(points[sl], drift[sl], None if a is None else a[sl])
            block = basis.evaluate(points[sl])
            got_values = evaluate(points[sl])
            if stochastic:
                got_values, got_gradients = got_values
                assert np.array_equal(got_gradients, block.gradients)
            for got_k, want_k in zip((*got, got_values), (*want, block.values)):
                assert np.array_equal(got_k, want_k)


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
    A = np.einsum("kli,lij,qlj->kq", block.gradients, sample.diffusion_samples, block.gradients)
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
        (reversible.M, (-A / (2 * m)) @ (m * P @ P.T)),
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
    )
    pairs = zip(_streamed_and_dense(basis, sample), _streamed_and_dense(basis, shuffled))
    for (got, want), (got_shuffled, _) in pairs:
        for fit in (got, got_shuffled):
            assert np.linalg.norm(fit - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "chunk, panel_entries",
    [pytest.param(c, generator.PANEL_ENTRIES, id=str(c)) for c in (1, 7, 97, 500, CHUNK)]
    # width-20 fits take 97-point panels, as fits wider than 128 take fewer than CHUNK
    + [pytest.param(CHUNK, 97 * 20, id="panel-bound")],
)
def test_streaming_fit_is_chunk_size_invariant(monkeypatch, chunk, panel_entries):
    monkeypatch.setattr(generator, "CHUNK", chunk)
    monkeypatch.setattr(generator, "PANEL_ENTRIES", panel_entries)
    basis = Monomials(2, 3)
    points = sample_uniform([[-1.5, 1.5]] * 2, 2100, seed=19)
    sample = exact_sample_set(double_well_2d(), points)
    for got, want in _streamed_and_dense(basis, sample):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "m, n, k, chunk",
    [
        (300, 6, 0, 64),  # values alone, as the reversible walk feeds them
        (300, 6, 4, 64),
        (5, 6, 4, 3),  # m < n + k: R keeps rows that are zero up to rounding
        (1, 6, 4, 1),
    ],
)
def test_factor_is_triangular_factor_of_stacked_matrix(monkeypatch, m, n, k, chunk):
    monkeypatch.setattr(generator, "CHUNK", chunk)
    X = np.random.default_rng(m + n + k).standard_normal((m, n + k))
    # fewer samples than basis functions: the fit resolves m directions and says so
    expect = pytest.warns(UserWarning, match="rank deficient") if m < n else nullcontext()
    with expect:
        est = generator._fit(lambda sl: (X[sl, :n].T, X[sl, n:].T), m, n, k, None, "test")
    R = est.R
    assert est.rank == min(m, n)
    assert R.shape == (n + k, n + k)
    assert np.array_equal(R, np.triu(R))
    gram = X.T @ X
    assert np.linalg.norm(R.T @ R - gram) <= 1e-12 * np.linalg.norm(gram)
    # estimates derived with replace share R, so it is read-only
    assert not R.flags.writeable
    with pytest.raises(ValueError):
        R[0, 0] = 1.0


def _panel_rows(width):
    """Points per panel of a width-`width` fit: the walk's row rule."""
    return min(CHUNK, generator.PANEL_ENTRIES // width)


@pytest.mark.parametrize("width, k", [(6, 0), (6, 3), (140, 0), (140, 70)])
@pytest.mark.parametrize("m", [3, 2 * CHUNK + 52])  # m < width; a short last chunk
@pytest.mark.parametrize("order", ["C", "F"])
def test_factor_is_bitwise_the_sequential_fold(width, k, m, order):
    X = np.random.default_rng(width + k + m).standard_normal((m, width))
    n = width - k

    def chunk(sl):
        # F: transposed views of X; C: fresh row-major copies
        Y = X[sl].T
        if order == "C":
            Y = np.ascontiguousarray(Y)
        return Y[:n], Y[n:]

    rows = _panel_rows(width)
    chunks = (chunk(slice(i, i + rows)) for i in range(0, m, rows))
    want = helpers.tpqrt_fold(chunks, width, generator.TPQRT_BLOCK)
    assert np.array_equal(generator._factor(chunk, m, width), want)


@pytest.mark.parametrize("m, panels", [(300, 2), (64, 1)])  # five chunks; one chunk
def test_factor_refills_two_panels(monkeypatch, m, panels):
    monkeypatch.setattr(generator, "CHUNK", 64)
    X = np.random.default_rng(8).standard_normal((m, 10))
    fold, pointers = generator._fold, []

    def spying(R, B, T, work):
        pointers.append(B.ctypes.data)
        fold(R, B, T, work)

    monkeypatch.setattr(generator, "_fold", spying)
    generator._factor(lambda sl: (X[sl, :6].T, X[sl, 6:].T), m, 10)
    assert len(pointers) == -(-m // 64)
    # chunk i is folded from panel i % 2; the short last chunk takes its panel's first entries
    assert len(set(pointers)) == panels
    assert all(p == pointers[i % panels] for i, p in enumerate(pointers))


def test_fold_falls_back_to_scipys_lapack(monkeypatch):
    # numpy's wheel exports dtpqrt and dtrtrs with 64-bit integers; without them the
    # fit takes scipy's Cython table with 32-bit ones, and the same LAPACK code gives
    # the same R and the same back substitution
    width, k, m = 140, 70, 2 * CHUNK + 52
    n = width - k
    X = np.random.default_rng(width + k + m).standard_normal((m, width))

    def chunk(sl):
        return X[sl, :n].T, X[sl, n:].T

    def fit():
        R = generator._factor(chunk, m, width)
        return R, generator._lstsq(R[:n, :n], R[:n, n:])[0]

    for routine in ("dtpqrt", "dtrtrs"):
        assert generator._lapack(routine)[1:] == (ctypes.c_int64, "numpy")
    want = fit()
    monkeypatch.setattr(generator, "_NUMPY_LAPACK", ())
    generator._lapack.cache_clear()
    try:
        got = fit()
        for routine in ("dtpqrt", "dtrtrs"):
            assert generator._lapack(routine)[1:] == (ctypes.c_int, "scipy")
        assert generator.fold_lapack() == "scipy"
    finally:
        generator._lapack.cache_clear()
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_wide_fit_panels_hold_at_most_panel_entries(monkeypatch):
    # Burgers' surrogate fit: 25 nodes, quadratic monomials, width 2 * 351 = 702
    sample = BurgersPlant().sample_set(-0.025, 800, seed=21, amplitude=0.1)
    basis = Monomials(25, 2)
    fold, panels = generator._fold, []

    def spying(R, B, T, work):
        panels.append(B.shape)
        fold(R, B, T, work)

    monkeypatch.setattr(generator, "_fold", spying)
    R = gedmd_deterministic(basis, sample).R
    per_panel = _panel_rows(702)
    expected = [min(per_panel, 800 - start) for start in range(0, 800, per_panel)]
    assert [rows for rows, _ in panels] == expected
    assert all(rows * width <= generator.PANEL_ENTRIES for rows, width in panels)
    monkeypatch.setattr(generator, "PANEL_ENTRIES", 800 * 702)
    one_panel = gedmd_deterministic(basis, sample).R
    assert panels[len(expected) :] == [(800, 702)]
    # Psi has full rank 351, so R's first 351 rows are unique up to their signs; dPsi lies
    # partly in Psi's span, so the rank-deficient rest is unique only through R^T R
    n = basis.size
    signs = np.sign(np.diag(R)[:n] * np.diag(one_panel)[:n])[:, None]
    top = one_panel[:n]
    assert np.linalg.norm(R[:n] - signs * top) <= 1e-12 * np.linalg.norm(top)
    gram = one_panel.T @ one_panel
    assert np.linalg.norm(R.T @ R - gram) <= 1e-12 * np.linalg.norm(gram)


def test_factor_raises_a_chunk_error_and_stops_its_fold_thread(monkeypatch):
    monkeypatch.setattr(generator, "CHUNK", 20)
    X = np.random.default_rng(4).standard_normal((6, 60))
    before = threading.active_count()

    def chunk(sl):
        if sl.start == 40:
            raise InputError("third chunk is malformed")
        return X[:4, sl], X[4:, sl]

    with pytest.raises(InputError, match="third chunk"):
        generator._factor(chunk, 60, 6)
    assert threading.active_count() == before


def test_concurrent_fits_match_sequential_fits():
    basis = Monomials(1, 8)
    samples = [ou_sample(m=3 * CHUNK, seed=seed) for seed in (5, 6)]
    want = [gedmd_stochastic(basis, sample) for sample in samples]
    got = [None, None]
    start = threading.Barrier(2, timeout=60)

    def fit(i):
        start.wait()
        got[i] = gedmd_stochastic(basis, samples[i])

    # two fits and their two fold threads on two cores, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fit, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for est, ref in zip(got, want):
        assert np.array_equal(est.R, ref.R)
        assert np.array_equal(est.M, ref.M)


def test_factor_leaves_chunk_arrays_unchanged(monkeypatch):
    # the chunks are views of one array, as callers that hold all values pass them
    monkeypatch.setattr(generator, "CHUNK", 25)
    values = np.random.default_rng(3).standard_normal((9, 50))
    before = values.copy()
    for n in (5, 9):
        generator._factor(lambda sl: (values[:n, sl], values[n:, sl]), 50, 9)
        assert np.array_equal(values, before)


def _spy_svds(monkeypatch):
    """Record compute_uv of every np.linalg.svd call from here on."""
    svd, calls = np.linalg.svd, []

    def spying(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spying)
    return calls


def _duffing_fit():
    model = stratonovich_to_ito(duffing_oscillator(-1.1, 1.1, 0.05))
    sample = exact_sample_set(model, sample_uniform([[-2.0, 2.0]] * 2, 3000, seed=11))
    return Monomials(2, 4), sample, gedmd_stochastic


def _burgers_fit():
    sample = BurgersPlant().sample_set(-0.025, 800, seed=21, amplitude=0.1)
    return Monomials(25, 2), sample, gedmd_deterministic


@pytest.mark.parametrize(
    "setup",
    [lambda: (Monomials(1, 10), ou_sample(), gedmd_stochastic), _duffing_fit, _burgers_fit],
    ids=["ou", "duffing", "burgers"],
)
def test_full_rank_r11_is_solved_by_back_substitution(monkeypatch, setup):
    # cond(R11) = 1.2e4, 30 and 2.0e3; against the SVD solves C moved by at most
    # 1.7e-14 and A_hat^T G_hat^+ by at most 3.7e-14 relative, the condition by 9e-16
    basis, sample, fit = setup()
    calls = _spy_svds(monkeypatch)
    est = fit(basis, sample)
    pf = perron_frobenius_estimate(est)
    assert calls == [False, False]  # singular values alone, once per R11 rule
    n, m, R = basis.size, sample.count, est.R
    want, rank, condition = helpers.svd_lstsq(R[:n, :n], R[:n, n:], generator.SVD_CUTOFF)
    assert est.rank == pf.rank == rank == n
    assert est.condition == pytest.approx(condition, rel=1e-14)
    assert np.linalg.norm(est.M.T - want) <= 1e-13 * np.linalg.norm(want)
    # A_hat^T G_hat^+ = m A_hat^T V S^-2 V^T through the full SVD R11 = U S V^T
    _, s, Vt = np.linalg.svd(R[:n, :n])
    adjoint = m * (est.A_hat.T @ (Vt.T / s**2)) @ Vt
    assert np.linalg.norm(pf.M - adjoint) <= 2e-13 * np.linalg.norm(adjoint)


def test_rank_deficient_r11_keeps_the_svd_solve(monkeypatch):
    # six monomials on three points: R11's last three rows are zero up to rounding
    sample = exact_sample_set(ornstein_uhlenbeck(), np.array([[-1.0], [0.2], [0.9]]))
    calls = _spy_svds(monkeypatch)
    with pytest.warns(UserWarning) as records:
        est = gedmd_stochastic(Monomials(1, 5), sample)
    assert [str(r.message) for r in records] == [
        "least-squares matrix is rank deficient (3 < 6); solution restricted to the resolved subspace"
    ]
    assert calls == [False, True]
    R = est.R
    want, rank, condition = helpers.svd_lstsq(R[:6, :6], R[:6, 6:], generator.SVD_CUTOFF)
    assert est.rank == rank == 3
    assert est.condition == condition
    assert np.array_equal(est.M.T, want)


@pytest.mark.parametrize(
    "A",
    [np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([[2.0, 1.0], [0.0, 3.0], [0.0, 0.0]])],
    ids=["square-not-triangular", "not-square"],
)
def test_other_designs_keep_the_svd_solve(monkeypatch, A):
    calls = _spy_svds(monkeypatch)
    C, rank, _ = generator._lstsq(A, np.ones(A.shape[0]))
    assert calls == [True]
    assert rank == 2
    assert np.array_equal(C, helpers.svd_lstsq(A, np.ones(A.shape[0]), generator.SVD_CUTOFF)[0])


def test_condition_is_that_of_psi():
    sample = ou_sample()
    basis = Monomials(1, 10)
    est = gedmd_stochastic(basis, sample)
    want = np.linalg.cond(basis.values(sample.points).T)
    assert est.condition == pytest.approx(want, rel=1e-8)
    # estimates derived from the fit keep it, and it survives serialization
    assert sysid.threshold_generator(basis, sample, 0.0).condition == est.condition
    assert perron_frobenius_estimate(est).condition == est.condition
    assert estimate_from_dict(estimate_to_dict(est)).condition == est.condition
    payload = estimate_to_dict(est)
    del payload["condition"]
    assert np.isnan(estimate_from_dict(payload).condition)


def _far_gaussian_estimate():
    # every value underflows to 0, so Psi has rank 0 and condition inf
    pts = np.array([[100.0], [101.0], [102.0]])
    with pytest.warns(UserWarning, match="rank deficient"):
        return gedmd_deterministic(
            GaussianBasis([[0.0]], 0.1), SampleSet(points=pts, drift_samples=-pts)
        )


@pytest.mark.parametrize(
    "build, check",
    [
        (lambda: GeneratorEstimate(
            M=np.eye(2), A_hat=np.eye(2), R=np.eye(4), rank=2,
            dictionary=None, sample_count=5,
        ), np.isnan),
        (_far_gaussian_estimate, np.isposinf),
    ],
    ids=["hand-built-nan", "rank-0-inf"],
)
def test_nonfinite_condition_round_trips_through_json(tmp_path, build, check):
    est = build()
    assert check(est.condition)
    path = io.write_json(tmp_path / "estimate.json", estimate_to_dict(est))
    back = estimate_from_dict(json.loads(path.read_text()))
    assert check(back.condition)
    assert back.rank == est.rank
    assert np.array_equal(back.R, est.R)


def _constant_and_materialized(m, d=3, seed=29):
    """One anisotropic OU sample set twice: the diffusion a = B B^T broadcast over
    the points (leading stride 0), and the same values in an (m, d, d) array."""
    B = np.eye(d) + 0.3 * np.eye(d, k=-1) + 0.1 * np.eye(d, k=1)
    points = sample_uniform([[-1.0, 1.0]] * d, m, seed=seed)
    drift = -points * np.linspace(0.5, 2.0, d)
    constant = SampleSet(points, drift, np.broadcast_to(B @ B.T, (m, d, d)))
    materialized = SampleSet(points, drift, np.array(constant.diffusion_samples))
    assert constant.diffusion_samples.strides[0] == 0
    assert materialized.diffusion_samples.strides[0] != 0
    return constant, materialized


@pytest.mark.parametrize("fit", [gedmd_stochastic, gedmd_reversible])
def test_broadcast_diffusion_fits_bitwise_as_materialized(fit):
    # several chunks and a short last one
    constant, materialized = _constant_and_materialized(2 * CHUNK + 70)
    got, want = (fit(Monomials(3, 3), s) for s in (constant, materialized))
    assert np.array_equal(got.R, want.R)
    assert np.array_equal(got.M, want.M)
    assert np.array_equal(got.A_hat, want.A_hat)


def test_broadcast_diffusion_identifies_bitwise_as_materialized():
    constant, materialized = _constant_and_materialized(2 * CHUNK + 70)
    got, want = (sysid.identify(Monomials(3, 2), s, delta=0.01) for s in (constant, materialized))
    assert np.array_equal(got.drift_coeffs, want.drift_coeffs)
    assert np.array_equal(got.diffusion_coeffs, want.diffusion_coeffs)
    assert got.residuals == want.residuals


def test_fits_on_a_broadcast_diffusion_take_few_page_faults():
    # a fresh interpreter, so that no earlier test has freed the large blocks that
    # raise glibc's mmap and trim thresholds: a walk that allocated its chunk
    # arrays afresh took 40-58k minor faults a fit here, a walk through reused
    # buffers about 600 in the first fit after the warm-up and 1 after it
    src = Path(generator.__file__).resolve().parents[1]
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from koopgen import generator, models\n"
        "from koopgen.dictionaries import Monomials\n"
        "assert generator.blas_threads(pin=True) in (1, None)\n"
        "alpha = np.array([1.0, 1.3, 1.7, 2.2])\n"
        "B = np.array([[0.6, 0, 0, 0], [0.2, 0.5, 0, 0], [0, 0.1, 0.7, 0], [0.1, 0, 0.2, 0.4]])\n"
        "points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(50_000, 4))\n"
        "model = models.SdeModel(dimension=4, drift=lambda x: -x * alpha, noise_dim=4,\n"
        "                        sigma=lambda x: np.broadcast_to(B, (x.shape[0], 4, 4)))\n"
        "sample = models.exact_sample_set(model, points)\n"
        "assert sample.diffusion_samples.strides[0] == 0\n"
        "basis = Monomials(4, 4)\n"
        "generator.gedmd_stochastic(basis, sample)\n"
        "for _ in range(3):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    generator.gedmd_stochastic(basis, sample)\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    faults = [int(line) for line in out.stdout.split()]
    assert len(faults) == 3
    assert max(faults) < 1000, faults


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


@settings(max_examples=24, deadline=None)
@given(
    legendre=st.booleans(),
    d=st.integers(1, 2),
    degree=st.integers(1, 4),
    m=st.integers(CHUNK + 1, 3 * CHUNK),
    stochastic=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_galerkin_properties_of_constant_containing_bases(
    legendre, d, degree, m, stochastic, seed
):
    # L 1 = 0 exactly, and G_hat is exactly symmetric and PSD to rounding
    box = [[-1.5, 1.5]] * d
    basis = LegendreBasis(degree, box) if legendre else Monomials(d, degree)
    model = double_well_2d() if d == 2 else ornstein_uhlenbeck(1.0, 4.0)
    sample = exact_sample_set(model, sample_uniform(box, m, seed=seed))
    est = (gedmd_stochastic if stochastic else gedmd_deterministic)(basis, sample)
    c = basis.constant_index
    assert not est.M[c].any()
    assert not est.A_hat[c].any()
    assert np.array_equal(est.G_hat, est.G_hat.T)
    lam = np.linalg.eigvalsh(est.G_hat)
    assert lam.min() >= -basis.size * np.finfo(float).eps * lam.max()


@settings(max_examples=24, deadline=None)
@given(
    d=st.integers(1, 2),
    degree=st.integers(1, 6),
    lower=st.floats(-5.0, 5.0),
    width=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_legendre_basis_is_affine_in_its_domain(d, degree, lower, width, seed):
    # a basis on [a, b] at x is the basis on [-1, 1] at t = (x - m0) / m1
    box = np.array([[lower, lower + width]] * d)
    m0, m1 = 0.5 * (box[:, 0] + box[:, 1]), 0.5 * (box[:, 1] - box[:, 0])
    x = sample_uniform(box, 300, seed=seed)
    on_box = LegendreBasis(degree, box).evaluate(x)
    on_reference = LegendreBasis(degree, [[-1.0, 1.0]] * d).evaluate((x - m0) / m1)
    assert np.array_equal(on_box.values, on_reference.values)
    scaled = on_reference.gradients / m1
    assert np.linalg.norm(on_box.gradients - scaled) <= 1e-12 * np.linalg.norm(scaled)
