"""Tests for per-input surrogates, MPC, and switching-time optimization."""

import dataclasses
import gc
import itertools
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from koopgen import control
from koopgen.control import (
    BurgersPlant,
    ControlProblem,
    ControlledOUPlant,
    MpcResult,
    SurrogateFamily,
    SwitchingSchedule,
    _sequence_costs,
    _sto,
    fit_surrogates,
    mpc,
    predict,
    schedule_trajectory,
    sto_objective_and_gradient,
    switching_time_optimize,
)
from koopgen.dictionaries import Monomials
from koopgen.errors import ConfigError, InputError, StabilityError
from koopgen.models import SampleSet, sample_uniform


@pytest.fixture(scope="module")
def ou_setup():
    plant = ControlledOUPlant(alpha=1.0, beta=2.0)
    dictionary = Monomials(1, 12)
    inputs = [-5.0, 5.0]
    samples = [
        plant.sample_set(u, [[-2.0, 2.0]], 200, seed=11 + i)
        for i, u in enumerate(inputs)
    ]
    family = fit_surrogates(dictionary, inputs, samples)
    return plant, family


class TestSurrogates:
    def test_constant_row_zero_on_exact_data(self, ou_setup):
        _, family = ou_setup
        # d(psi_0) == 0 for the constant observable, so its generator row
        # vanishes exactly when training data is exact
        for i in range(family.n_inputs):
            assert np.all(family.matrices[i][0] == 0.0)

    def test_ou_mean_prediction(self, ou_setup):
        _, family = ou_setup
        z0 = family.lift(np.array([[0.0]]))[0]
        for i, u in enumerate(family.inputs):
            t, Z = predict(family, i, z0, 3.0, 0.01)
            x = (Z @ family.readout.T)[:, 0]
            assert np.abs(x - u * (1.0 - np.exp(-t))).max() < 1e-3

    def test_input_independent_plant_identical_matrices(self):
        dictionary = Monomials(1, 6)
        points = sample_uniform([[-2.0, 2.0]], 300, seed=5)
        sample = SampleSet(points=points, drift_samples=-points)
        family = fit_surrogates(dictionary, [1.0, 2.0], [sample, sample])
        assert np.array_equal(family.matrices[0], family.matrices[1])

    def test_burgers_one_step_beats_persistence(self, burgers_setup):
        plant, family = burgers_setup
        held = plant.random_states(30, seed=99, amplitude=0.1)
        full = family.dictionary.full_state_selector().T
        for i, u in enumerate(family.inputs):
            nxt = plant.advance(held, u, 0.05)[0]
            pred = (family.lift(held) @ family.propagator(i, 0.05).T) @ full.T
            err_sur = np.sqrt(np.mean((pred - nxt) ** 2))
            err_per = np.sqrt(np.mean((held - nxt) ** 2))
            assert err_sur < err_per / 5.0

    def test_mismatched_inputs_raise(self, ou_setup):
        plant, family = ou_setup
        sample = plant.sample_set(1.0, [[-1.0, 1.0]], 50, seed=0)
        with pytest.raises(InputError, match="sample sets"):
            fit_surrogates(family.dictionary, [1.0, 2.0], [sample])

    def test_results_do_not_depend_on_array_layout(self, ou_setup):
        # fit_surrogates stacks Fortran-ordered estimates; C order must give the same bits
        _, fitted = ou_setup
        families = [
            SurrogateFamily(
                inputs=fitted.inputs, matrices=order(fitted.matrices),
                dictionary=fitted.dictionary, readout=order(fitted.readout),
            )
            for order in (np.ascontiguousarray, np.asfortranarray)
        ]
        assert np.array_equal(*[f._readout_rows(0.05, 3) for f in families])
        c_order, f_order = [
            switching_time_optimize(_tanh_problem(f), 40, x0=np.array([-1.0]), max_iter=150)
            for f in families
        ]
        assert np.array_equal(c_order.times, f_order.times)
        assert c_order.objective == f_order.objective

    @pytest.mark.parametrize(
        "build, error, match",
        [
            (lambda d: SurrogateFamily(
                inputs=(0.0,), matrices=np.zeros((2, d.size, d.size)),
                dictionary=d, readout=d.full_state_selector().T,
            ), InputError, r"matrices \(1, 3, 3\), got \(2, 3, 3\)"),
            (lambda d: SurrogateFamily(
                inputs=(0.0,), matrices=np.zeros((1, d.size, d.size)),
                dictionary=d, readout=np.eye(d.size)[1],
            ), InputError, "readout of shape"),
            (lambda d: fit_surrogates(d, [], []), InputError, "at least one input"),
            (lambda d: switching_time_optimize(_problem(), 0, x0=np.array([0.0])),
             ConfigError, "at least one pass"),
            (lambda d: control.whole_steps(np.array([0.0, 1.0]), 0.3), InputError,
             re.escape("horizon (0.0, 1.0) into whole steps")),
            (lambda d: control.whole_steps(np.array([0.0, np.nan]), 0.1), InputError,
             re.escape("horizon (0.0, nan) finite")),
        ],
        ids=["inputs-vs-matrices", "1d-readout", "no-inputs", "no-passes",
             "steps-plain-floats", "steps-nonfinite-plain-floats"],
    )
    def test_invalid_arguments_raise(self, build, error, match):
        with pytest.raises(error, match=match):
            build(Monomials(1, 2))


def _three_input_family(seed, readout):
    rng = np.random.default_rng(seed)
    return SurrogateFamily(
        inputs=(-1.0, 0.5, 2.0),
        matrices=0.5 * rng.standard_normal((3, 3, 3)),
        dictionary=Monomials(1, 2),
        readout=readout,
    )


def _enumerated_costs(problem, z, t):
    """Costs of every input sequence, one product expm(M dt) per sequence."""
    fam, h = problem.surrogates, problem.h
    expected = []
    for seq in itertools.product(range(fam.n_inputs), repeat=problem.q):
        phi = np.eye(fam.size)
        total = np.zeros(z.shape[0])
        for j, i in enumerate(seq):
            phi = scipy.linalg.expm(fam.matrices[i] * h) @ phi
            err = z @ phi.T @ fam.readout.T - problem.reference(t + (j + 1) * h)
            total += np.sum(err**2, axis=1) + problem.alpha * fam.inputs[i] ** 2
        expected.append(total)
    return np.array(expected)


def _toy_family(n_inputs=1, matrix=None):
    dictionary = Monomials(1, 2)
    n = dictionary.size
    matrices = np.zeros((n_inputs, n, n)) if matrix is None else matrix
    return SurrogateFamily(
        inputs=tuple(float(i) for i in range(n_inputs)),
        matrices=matrices,
        dictionary=dictionary,
        readout=dictionary.full_state_selector().T,
    )


def _expm_cases():
    """name -> matrix, drawn in this order from one seed."""
    rng = np.random.default_rng(25)
    small = 1e-2 * rng.standard_normal((5, 5))
    B = rng.standard_normal((8, 8))
    triangle = np.triu(3.0 * rng.standard_normal((20, 20)), 1) - np.diag(np.linspace(0.1, 2.0, 20))
    return {
        "small-norm": small,
        "norm-30": 30.0 * B / np.abs(B).sum(axis=0).max(),  # three squarings
        "non-normal-triangle": triangle,
        "zero": np.zeros((4, 4)),
        "1x1": np.array([[0.7]]),
    }


class TestExpm:
    # relative Frobenius distance to scipy.linalg.expm, fixed from the measured
    # worst of these cases: 1.0e-14 on norm-30 (where _expm is 7.1e-16 and scipy
    # 9.7e-15 from a 40-digit reference), 1.3e-15 on the triangle and 1.2e-15 on
    # Burgers
    RTOL = 2e-14

    def _check(self, A):
        got, want = control._expm(A), scipy.linalg.expm(A)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= self.RTOL * np.linalg.norm(want)

    @pytest.mark.parametrize("name", list(_expm_cases()))
    def test_matches_scipy(self, name):
        self._check(_expm_cases()[name])

    def test_burgers_propagators_match_scipy(self, burgers_setup):
        # M h of both inputs at the bundled config's step: 351 x 351, three squarings
        _, family = burgers_setup
        for M in family.matrices:
            self._check(M * 0.05)

    def test_stack_is_bitwise_its_matrices(self):
        # 1-norms of about 0.008 to 250: every Pade degree, and 0, 2 and 6 squarings
        rng = np.random.default_rng(26)
        scales = np.array([1e-3, 0.03, 0.1, 0.3, 2.0, 30.0])
        stack = rng.standard_normal((6, 7, 7)) * scales[:, None, None]
        alone = np.stack([control._expm(A) for A in stack])
        assert np.array_equal(control._expm(stack), alone)
        assert np.array_equal(control._expm(stack.reshape(2, 3, 7, 7)), alone.reshape(2, 3, 7, 7))

    def test_nan_matrix_gives_nan_beside_the_others(self):
        stack = np.stack([np.full((3, 3), np.nan), 40.0 * np.eye(3)])
        got = control._expm(stack)  # warnings are errors in the suite
        assert np.isnan(got[0]).all()
        assert np.array_equal(got[1], control._expm(stack[1]))


def _action_cases():
    """name -> (A, V): 1-norms 0 to 300, one column and four, drawn in this order from one seed."""
    rng = np.random.default_rng(27)
    cases = {}
    for norm in (0.0, 1e-8, 1e-3, 0.1, 1.0, 10.0, 100.0, 300.0):
        B = rng.standard_normal((12, 12))
        A = norm * B / np.abs(B).sum(axis=0).max()
        cases[f"norm-{norm:g}-vector"] = (A, rng.standard_normal(12))
        cases[f"norm-{norm:g}-columns"] = (A, rng.standard_normal((12, 4)))
    return cases


class TestExpmAction:
    # relative Frobenius distance to _expm(A) @ V and to scipy's expm_multiply,
    # fixed from the measured worst of these cases: 4.4e-15 from _expm on
    # norm-100 and 4.5e-15 from expm_multiply on norm-300, both on one column
    RTOL = 2e-14
    # the families' worst: 2.3e-15 from _expm and 4.9e-16 from expm_multiply,
    # on Burgers (shifted 1-norm 33 and 34, 351 x 351)
    FAMILY_RTOL = 1e-14

    def _check(self, A, V, rtol):
        got = control._expm_action(A, V)
        assert got.shape == V.shape
        for want in (control._expm(A) @ V, scipy.sparse.linalg.expm_multiply(A, V)):
            assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)

    @pytest.mark.parametrize("name", list(_action_cases()))
    def test_matches_expm_and_expm_multiply(self, name):
        self._check(*_action_cases()[name], self.RTOL)

    @pytest.mark.parametrize("setup", ["ou_setup", "burgers_setup"])
    def test_surrogate_families_match(self, setup, request):
        # the search's actions: M^T h on the readout columns, and on a few more
        _, family = request.getfixturevalue(setup)
        columns = np.random.default_rng(28).standard_normal((family.size, 3))
        for M in family.matrices:
            for V in (family.readout.T, columns):
                self._check(M.T * 0.05, V, self.FAMILY_RTOL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_gives_nan(self, bad):
        A = np.eye(3)
        A[0, 2] = bad
        got = control._expm_action(A, np.ones((3, 2)))  # warnings are errors in the suite
        assert got.shape == (3, 2) and np.isnan(got).all()


class TestPredict:
    def test_zero_matrix_constant(self):
        family = _toy_family()
        z0 = np.array([1.0, 0.5, 0.25])
        _, Z = predict(family, 0, z0, 1.0, 0.1)
        assert np.array_equal(Z, np.tile(z0, (11, 1)))

    def test_diagonal_decay(self):
        M = np.diag([0.0, -1.0, -2.0])[np.newaxis]
        family = _toy_family(matrix=M)
        z0 = np.array([1.0, 1.0, 1.0])
        t, Z = predict(family, 0, z0, 2.0, 0.05)
        assert np.abs(Z[:, 1] - np.exp(-t)).max() < 1e-12
        assert np.abs(Z[:, 2] - np.exp(-2.0 * t)).max() < 1e-12

    def test_linearity(self, ou_setup):
        _, family = ou_setup
        z0 = family.lift(np.array([[0.3]]))[0]
        _, Z1 = predict(family, 1, z0, 1.0, 0.1)
        _, Z2 = predict(family, 1, 3.0 * z0, 1.0, 0.1)
        np.testing.assert_allclose(Z2, 3.0 * Z1, rtol=1e-12, atol=1e-12)

    def test_bad_dt(self):
        family = _toy_family()
        with pytest.raises(InputError, match="dt"):
            predict(family, 0, np.zeros(3), 1.0, 0.0)

    def test_dt_must_divide_duration(self):
        with pytest.raises(InputError, match="whole steps"):
            predict(_toy_family(), 0, np.zeros(3), 1.0, 0.3)


class TestMpc:
    def test_holds_equilibrium_input(self, ou_setup):
        _, family = ou_setup
        plant = ControlledOUPlant(alpha=1.0, beta=2.0, noise=False)
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([-5.0]),
            horizon=(0.0, 4.0), h=0.05, q=2,
        )
        result = mpc(problem, plant, np.array([-5.0]))
        assert np.all(result.inputs == -5.0)
        assert abs(result.states[-1, 0] + 5.0) < 1e-10

    def test_ou_piecewise_reference_monte_carlo(self, ou_setup):
        plant, family = ou_setup
        reference = lambda t: np.array([2.0 if t < 5.0 else -2.0])
        problem = ControlProblem(
            surrogates=family, reference=reference, horizon=(0.0, 10.0),
            h=0.05, q=3,
        )
        result = mpc(problem, plant, np.zeros((1000, 1)), seed=77)
        mean = result.states[:, :, 0].mean(axis=1)
        t = result.times
        first = (t >= 3.0) & (t < 5.0)
        second = t >= 8.0
        assert abs(mean[first].mean() - 2.0) < 0.2
        assert abs(mean[second].mean() + 2.0) < 0.2

    def test_burgers_step_refinement_ratio(self, burgers_refinement):
        errors, _ = burgers_refinement
        assert errors[0.5] > 10.0 * errors[0.005]

    def test_horizon_guard(self, ou_setup):
        _, family = ou_setup
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([0.0]),
            horizon=(0.0, 1.0), h=0.05, q=7,
        )
        with pytest.raises(ConfigError, match="exceeds"):
            mpc(problem, ControlledOUPlant(noise=False), np.array([0.0]))

    def test_cost_monotone_under_input_set_enlargement(self, ou_setup):
        _, family = ou_setup
        small = SurrogateFamily(
            inputs=family.inputs[:1], matrices=family.matrices[:1],
            dictionary=family.dictionary, readout=family.readout,
        )
        reference = lambda t: np.array([1.0])
        z = family.lift(np.array([[0.4]]))
        cost_small = _sequence_costs(
            ControlProblem(surrogates=small, reference=reference,
                           horizon=(0.0, 1.0), h=0.1, q=3, alpha=0.01),
            z, 0.0,
        ).min()
        cost_full = _sequence_costs(
            ControlProblem(surrogates=family, reference=reference,
                           horizon=(0.0, 1.0), h=0.1, q=3, alpha=0.01),
            z, 0.0,
        ).min()
        assert cost_full <= cost_small + 1e-12

    def test_sequence_search_leaves_no_reference_cycle(self, ou_setup):
        # a cycle would keep the costs array alive until a full collection
        _, family = ou_setup
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([1.0]),
            horizon=(0.0, 1.0), h=0.1, q=3,
        )
        z = family.lift(np.zeros((50, 1)))
        gc.collect()
        gc.disable()
        try:
            _sequence_costs(problem, z, 0.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_sequence_costs_match_enumeration(self, q):
        rng = np.random.default_rng(4)
        family = SurrogateFamily(
            inputs=(-1.0, 0.5, 2.0),
            matrices=0.5 * rng.standard_normal((3, 3, 3)),
            dictionary=Monomials(1, 2),
            readout=np.eye(3)[1:],
        )
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([3.0 + t, -2.0]),
            horizon=(0.0, 1.0), h=0.1, q=q, alpha=0.3,
        )
        z = family.lift(rng.uniform(-1.0, 1.0, (4, 1)))
        costs = _sequence_costs(problem, z, 0.2)
        expected = []
        for seq in itertools.product(range(3), repeat=q):
            phi = np.eye(3)
            total = np.zeros(4)
            for j, i in enumerate(seq):
                phi = scipy.linalg.expm(family.matrices[i] * 0.1) @ phi
                err = z @ phi.T @ family.readout.T - [3.0 + 0.2 + (j + 1) * 0.1, -2.0]
                total += np.sum(err**2, axis=1) + 0.3 * family.inputs[i] ** 2
            expected.append(total)
        assert costs.shape == (3**q, 4)
        np.testing.assert_allclose(costs, expected, rtol=1e-14, atol=0.0)

    def test_first_input_follows_product_order(self):
        rng = np.random.default_rng(8)
        family = SurrogateFamily(
            inputs=(-1.0, 0.5, 2.0),
            matrices=0.5 * rng.standard_normal((3, 3, 3)),
            dictionary=Monomials(1, 2),
            readout=np.eye(3)[1:2],
        )
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([0.4]),
            horizon=(0.0, 0.1), h=0.1, q=3, alpha=0.05,
        )
        x0 = np.linspace(-1.0, 1.0, 4)[:, None]
        best = np.argmin(_sequence_costs(problem, family.lift(x0), 0.0), axis=0)
        sequences = list(itertools.product(range(3), repeat=3))
        expected = [family.inputs[sequences[b][0]] for b in best]
        result = mpc(problem, ControlledOUPlant(noise=False), x0)
        assert result.inputs[0].tolist() == expected

    def test_cached_rows_follow_step_and_horizon(self):
        # each (h, q) pair gets its own rows; stale ones would show here
        family = _three_input_family(4, np.eye(3)[1:])
        z = family.lift(np.linspace(-1.0, 1.0, 5)[:, None])
        reference = lambda t: np.array([1.0 - t, 0.5])
        for h, q in [(0.1, 2), (0.25, 2), (0.1, 3), (0.25, 1), (0.1, 2), (0.25, 3)]:
            problem = ControlProblem(
                surrogates=family, reference=reference,
                horizon=(0.0, 1.0), h=h, q=q, alpha=0.2,
            )
            np.testing.assert_allclose(
                _sequence_costs(problem, z, 0.3), _enumerated_costs(problem, z, 0.3),
                rtol=1e-14, atol=0.0,
            )

    def test_family_cannot_go_stale(self):
        # the cached rows would keep the old family's costs after either edit
        matrices = 0.5 * np.random.default_rng(4).standard_normal((3, 3, 3))
        readout = np.eye(3)[1:2]
        family = SurrogateFamily(
            inputs=(-1.0, 0.5, 2.0), matrices=matrices,
            dictionary=Monomials(1, 2), readout=readout,
        )
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([0.4 - t]),
            horizon=(0.0, 1.0), h=0.1, q=2, alpha=0.05,
        )
        z = family.lift(np.linspace(-1.0, 1.0, 4)[:, None])
        before = _sequence_costs(problem, z, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            family.readout = np.eye(3)[2:3]
        with pytest.raises(ValueError, match="read-only"):
            family.matrices[:] = 0.0
        # the family holds copies, so the caller's arrays stay writable
        matrices[:] = 0.0
        readout[:] = 0.0
        assert np.array_equal(_sequence_costs(problem, z, 0.0), before)

    def test_noisy_ou_loop_matches_full_state_search(self, ou_setup, monkeypatch):
        plant, family = ou_setup
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([1.5 * np.sin(2.0 * t)]),
            horizon=(0.0, 2.0), h=0.05, q=3, alpha=0.01,
        )
        x0 = np.linspace(-1.0, 1.0, 20)[:, None]
        result = mpc(problem, plant, x0, seed=5)
        monkeypatch.setattr(control, "_sequence_costs", helpers.full_state_sequence_costs)
        reference = mpc(problem, plant, x0, seed=5)
        assert result.inputs.shape == (40, 20)
        assert np.array_equal(result.inputs, reference.inputs)

    def test_search_rows_built_once_per_h_and_q(self, ou_setup, monkeypatch):
        _, trained = ou_setup
        family = SurrogateFamily(
            inputs=trained.inputs, matrices=trained.matrices,
            dictionary=trained.dictionary, readout=trained.readout,
        )
        calls = []

        def counting(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        monkeypatch.setattr(control, "_expm_action", counting("action", control._expm_action))
        monkeypatch.setattr(control, "_expm", counting("expm", control._expm))
        monkeypatch.setattr(
            SurrogateFamily, "propagator", counting("propagator", SurrogateFamily.propagator)
        )
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([1.0]),
            horizon=(0.0, 1.0), h=0.05, q=3,
        )
        mpc(problem, ControlledOUPlant(), np.zeros((4, 1)), seed=2)
        # one action per input and depth, and no n x n propagator
        assert calls == ["action"] * (family.n_inputs * problem.q)

    @pytest.mark.parametrize("setup, depth", [("ou_setup", 3), ("burgers_setup", 2)])
    def test_search_rows_match_propagator_rows(self, setup, depth, request):
        # relative Frobenius distance, fixed from the measured 6.0e-16 (OU, 13
        # wide, q = 3) and 2.7e-15 (Burgers, 351 wide, q = 2)
        _, family = request.getfixturevalue(setup)
        got = family._readout_rows(0.05, depth)
        want = helpers.propagator_readout_rows(family, 0.05, depth)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_cost_gaps_match_enumeration(self):
        family = _three_input_family(8, np.eye(3)[1:2])
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([0.4 - t]),
            horizon=(0.0, 0.3), h=0.1, q=2, alpha=0.05,
        )
        result = mpc(problem, ControlledOUPlant(noise=False), np.linspace(-1.0, 1.0, 4)[:, None])
        assert result.cost_gaps.shape == (3, 4)
        assert np.all(result.cost_gaps >= 0.0)
        for k, t in enumerate(result.times[:-1]):
            costs = np.sort(_enumerated_costs(problem, family.lift(result.states[k]), t), axis=0)
            np.testing.assert_allclose(
                result.cost_gaps[k], costs[1] - costs[0], rtol=1e-9, atol=1e-12
            )
        single = ControlProblem(
            surrogates=_toy_family(), reference=lambda t: np.array([0.0]),
            horizon=(0.0, 0.3), h=0.1, q=2,
        )
        gaps = mpc(single, ControlledOUPlant(noise=False), np.array([0.5])).cost_gaps
        assert gaps.shape == (3,) and np.all(gaps == np.inf)

    def test_lifts_once_per_step(self, ou_setup, monkeypatch):
        _, family = ou_setup
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([1.0]),
            horizon=(0.0, 0.5), h=0.05, q=2,
        )
        original = SurrogateFamily.lift
        calls = []

        def counting(self, points):
            calls.append(len(points))
            return original(self, points)

        monkeypatch.setattr(SurrogateFamily, "lift", counting)
        for plant in (ControlledOUPlant(noise=False), ControlledOUPlant()):
            calls.clear()
            mpc(problem, plant, np.zeros((3, 1)), seed=1)
            assert len(calls) == 10 + 1

    def test_result_record_shapes(self, ou_setup):
        _, family = ou_setup
        plant = ControlledOUPlant(noise=False)
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([0.5]),
            horizon=(0.0, 1.0), h=0.1, q=2, alpha=0.1,
        )
        result = mpc(problem, plant, np.array([0.0]))
        assert isinstance(result, MpcResult)
        assert result.times.shape == (11,)
        assert result.states.shape == (11, 1)
        assert result.inputs.shape == (10,)
        assert result.stage_costs.shape == (10,)
        assert np.all(result.stage_costs >= 0.0)

    def test_step_must_divide_horizon(self, ou_setup):
        _, family = ou_setup
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([0.0]),
            horizon=(0.0, 1.0), h=0.3, q=1,
        )
        with pytest.raises(InputError, match="whole steps"):
            mpc(problem, ControlledOUPlant(noise=False), np.array([0.0]))

    def test_config_validation(self, ou_setup):
        _, family = ou_setup
        with pytest.raises(ConfigError, match="positive"):
            ControlProblem(surrogates=family, reference=lambda t: 0.0,
                           horizon=(0.0, 1.0), h=-0.1)
        with pytest.raises(ConfigError, match="horizon"):
            ControlProblem(surrogates=family, reference=lambda t: 0.0,
                           horizon=(1.0, 1.0), h=0.1)
        with pytest.raises(ConfigError, match="penalty"):
            ControlProblem(surrogates=family, reference=lambda t: 0.0,
                           horizon=(0.0, 1.0), h=0.1, alpha=-1.0)
        with pytest.raises(ConfigError, match="at least 1"):
            ControlProblem(surrogates=family, reference=lambda t: 0.0,
                           horizon=(0.0, 1.0), h=0.1, q=0)


def _problem(**changes):
    fields = dict(surrogates=_toy_family(), reference=lambda t: 0.0, horizon=(0.0, 1.0), h=0.1)
    return ControlProblem(**{**fields, **changes})


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: control.whole_steps((0.0, np.nan), 0.1), InputError),
        (lambda: control.whole_steps((0.0, np.inf), 0.1), InputError),
        (lambda: control.whole_steps((0.0, 1.0), np.inf), InputError),
        (lambda: _problem(h=np.nan), ConfigError),
        (lambda: _problem(h=np.inf), ConfigError),
        (lambda: _problem(horizon=(0.0, np.nan)), ConfigError),
        (lambda: _problem(alpha=np.nan), ConfigError),
        (
            lambda: SwitchingSchedule(
                times=np.array([0.0, 0.5]), horizon=(0.0, np.nan), n_inputs=2
            ).validate(),
            InputError,
        ),
    ],
    ids=["steps-horizon-nan", "steps-horizon-inf", "steps-dt-inf", "problem-h-nan",
         "problem-h-inf", "problem-horizon-nan", "problem-alpha-nan", "schedule-horizon-nan"],
)
def test_nonfinite_control_scalars_rejected(build, error):
    with pytest.raises(error, match="finite"):
        build()


def _tanh_problem(family, horizon=(0.0, 8.0), center=4.0, alpha=0.0):
    return ControlProblem(
        surrogates=family,
        reference=lambda t: np.array([np.tanh(t - center)]),
        horizon=horizon, h=0.05, alpha=alpha,
        reference_derivative=lambda t: np.array([1.0 / np.cosh(t - center) ** 2]),
    )


class TestSwitchingTime:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_gradient_matches_central_differences(self, ou_setup, alpha):
        _, family = ou_setup
        problem = _tanh_problem(family, alpha=alpha)
        z0 = family.lift(np.array([[0.0]]))[0]
        rng = np.random.Generator(np.random.Philox(99))
        tau = np.sort(rng.uniform(0.5, 7.5, 9))
        _, grad = sto_objective_and_gradient(problem, z0, tau)
        eps = 1e-6
        for l in range(tau.size):
            plus, minus = tau.copy(), tau.copy()
            plus[l] += eps
            minus[l] -= eps
            J_plus, _ = sto_objective_and_gradient(problem, z0, plus)
            J_minus, _ = sto_objective_and_gradient(problem, z0, minus)
            fd = (J_plus - J_minus) / (2.0 * eps)
            assert abs(grad[l] - fd) <= 1e-5 * max(abs(fd), 1e-12)

    def test_boundary_optimum_collapses_second_input(self, ou_setup):
        _, family = ou_setup
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([-5.0]),
            horizon=(0.0, 4.0), h=0.05,
            reference_derivative=lambda t: np.array([0.0]),
        )
        schedule = switching_time_optimize(problem, 1, x0=np.array([-5.0]))
        # perfect tracking is possible iff the u^2 segment vanishes
        bounds = schedule.boundaries()
        assert bounds[2] - bounds[1] < 1e-6 * 4.0
        assert schedule.objective < 1e-10

    def test_small_tanh_instance_tracks(self, ou_setup):
        _, family = ou_setup
        problem = _tanh_problem(family)
        schedule = switching_time_optimize(problem, 40, x0=np.array([0.0]), max_iter=200)
        assert schedule.converged
        z0 = family.lift(np.array([[0.0]]))[0]
        times, Z = schedule_trajectory(family, schedule, z0, 0.05)
        x = (Z @ family.readout.T)[:, 0]
        rms = np.sqrt(np.mean((x - np.tanh(times - 4.0)) ** 2))
        assert rms < 0.25

    def test_iterates_stay_feasible(self, ou_setup, monkeypatch):
        import koopgen.control as control

        _, family = ou_setup
        problem = _tanh_problem(family, horizon=(0.0, 4.0), center=2.0)
        seen = []
        original = control._sto

        def recording(prob, z0, tau, **kwargs):
            seen.append(np.asarray(tau, dtype=float).copy())
            return original(prob, z0, tau, **kwargs)

        monkeypatch.setattr(control, "_sto", recording)
        schedule = switching_time_optimize(problem, 5, x0=np.array([0.0]), max_iter=30)
        assert schedule.converged
        assert len(seen) > 2
        for tau in seen:
            assert np.all(np.diff(tau) >= -1e-12)
            assert tau[0] >= 0.0 and tau[-1] <= 4.0

    def test_nonconvergence_warns_and_returns_best(self, ou_setup):
        _, family = ou_setup
        problem = _tanh_problem(family)
        with pytest.warns(UserWarning, match="did not converge"):
            schedule = switching_time_optimize(
                problem, 20, x0=np.array([0.0]), max_iter=2
            )
        assert not schedule.converged
        assert np.isfinite(schedule.objective)
        schedule.validate()

    def test_requires_reference_derivative(self, ou_setup):
        _, family = ou_setup
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([0.0]),
            horizon=(0.0, 1.0), h=0.05,
        )
        with pytest.raises(InputError, match="reference_derivative"):
            sto_objective_and_gradient(problem, np.zeros(family.size), [0.5])

    def test_each_schedule_evaluated_once_with_hessian(self, ou_setup, monkeypatch):
        _, family = ou_setup
        problem = _tanh_problem(family)
        calls = []
        original = control._sto

        def recording(prob, z0, tau, hessian=False):
            calls.append((tuple(np.asarray(tau, dtype=float)), hessian))
            return original(prob, z0, tau, hessian=hessian)

        monkeypatch.setattr(control, "_sto", recording)
        schedule = switching_time_optimize(problem, 40, x0=np.array([0.0]), max_iter=200)
        assert schedule.converged
        assert len(calls) > 2
        assert all(hessian for _, hessian in calls)
        assert len({tau for tau, _ in calls}) == len(calls)

    def test_schedule_validate_rejects_decreasing(self):
        schedule = SwitchingSchedule(
            times=np.array([0.0, 2.0, 1.0]), horizon=(0.0, 4.0), n_inputs=2
        )
        with pytest.raises(InputError, match="nondecreasing"):
            schedule.validate()

    def test_schedule_trajectory_handles_subgrid_switches(self, ou_setup):
        # two switches inside one sampling step must both be honored
        _, family = ou_setup
        schedule = SwitchingSchedule(
            times=np.array([0.0, 0.52, 0.58]), horizon=(0.0, 1.0), n_inputs=2
        )
        z0 = family.lift(np.array([[0.0]]))[0]
        times, Z = schedule_trajectory(family, schedule, z0, 0.5)
        direct = family.propagator(0, 0.42) @ (
            family.propagator(1, 0.06) @ (family.propagator(0, 0.52) @ z0)
        )
        np.testing.assert_allclose(Z[-1], direct, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("dt", [0.35, 0.3])
    def test_walker_rejects_dt_not_dividing_horizon(self, ou_setup, dt):
        _, family = ou_setup
        schedule = SwitchingSchedule(
            times=np.array([0.0, 0.5]), horizon=(0.0, 1.0), n_inputs=2
        )
        z0 = family.lift(np.array([[0.0]]))[0]
        with pytest.raises(InputError, match="whole steps"):
            schedule_trajectory(family, schedule, z0, dt)
        with pytest.raises(InputError, match="whole steps"):
            ControlledOUPlant().simulate_switched(
                0.0, family.inputs, schedule, dt, 3, seed=1
            )

    @pytest.mark.parametrize(
        "times, match",
        [([0.0, 5.0, 3.0], "nondecreasing"), ([1.0, 5.0], "horizon start")],
    )
    def test_walker_rejects_an_invalid_schedule(self, ou_setup, times, match):
        _, family = ou_setup
        schedule = SwitchingSchedule(
            times=np.array(times), horizon=(0.0, 8.0), n_inputs=2
        )
        z0 = family.lift(np.array([[0.0]]))[0]
        with pytest.raises(InputError, match=match):
            schedule_trajectory(family, schedule, z0, 0.5)
        with pytest.raises(InputError, match=match):
            ControlledOUPlant().simulate_switched(
                0.0, family.inputs, schedule, 0.5, 3, seed=1
            )

    def test_walker_completes_near_dividing_dt(self, ou_setup):
        # 20 / dt rounds up to 400 steps, whose grid ends 2e-10 past the horizon
        _, family = ou_setup
        schedule = SwitchingSchedule(
            times=np.array([0.0, 7.3, 13.1]), horizon=(0.0, 20.0), n_inputs=2
        )
        dt = 0.05 * (1 + 1e-11)
        z0 = family.lift(np.array([[0.0]]))[0]
        times, Z = schedule_trajectory(family, schedule, z0, dt)
        assert times.shape == (401,)
        assert Z.shape == (401, family.size)
        paths = ControlledOUPlant().simulate_switched(
            0.0, family.inputs, schedule, dt, 3, seed=1
        )
        assert paths.shape == (401, 3)


@pytest.fixture(scope="module")
def sto_families(ou_setup):
    """The two-input OU family and a three-input one, keyed by input count."""
    plant = ControlledOUPlant(alpha=1.0, beta=2.0)
    inputs = [-3.0, 0.5, 4.0]
    samples = [
        plant.sample_set(u, [[-2.0, 2.0]], 150, seed=31 + i)
        for i, u in enumerate(inputs)
    ]
    return {2: ou_setup[1], 3: fit_surrogates(Monomials(1, 8), inputs, samples)}


def _per_node_objective(problem, z0, tau, K=4):
    """Trapezoid tracking objective with one expm per sub-step."""
    fam = problem.surrogates
    bounds = np.concatenate([[problem.horizon[0]], tau, [problem.horizon[1]]])
    z = np.asarray(z0, dtype=float)
    J = 0.0
    for j in range(bounds.size - 1):
        left, delta = bounds[j], bounds[j + 1] - bounds[j]
        M, u = fam.matrices[j % fam.n_inputs], fam.inputs[j % fam.n_inputs]
        for k in range(K + 1):
            if k > 0:
                z = scipy.linalg.expm(M * (delta / K)) @ z
            err = fam.readout @ z - problem.reference(left + k / K * delta)
            J += (0.5 if k in (0, K) else 1.0) * (delta / K) * (err @ err)
        J += problem.alpha * u**2 * delta
    return J


# switch times on a coarse grid (endpoints included) collide often; the first
# drawn time is repeated, so every schedule has a zero-length segment
_coincident_schedules = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 2.5, 4.0, 6.0, 8.0]), st.floats(0.0, 8.0)),
    min_size=1, max_size=10,
).map(lambda xs: np.sort(xs + xs[:1]))


class TestSwitchingTimeProperties:
    @pytest.mark.parametrize("n_inputs", [2, 3])
    @settings(max_examples=15, deadline=None)
    @given(tau=_coincident_schedules, alpha=st.sampled_from([0.0, 0.5]))
    def test_gradient_matches_central_differences(self, sto_families, n_inputs, tau, alpha):
        family = sto_families[n_inputs]
        problem = _tanh_problem(family, alpha=alpha)
        z0 = family.lift(np.array([[-1.0]]))[0]
        _, grad = sto_objective_and_gradient(problem, z0, tau)
        eps = 1e-6
        fd = np.empty_like(tau)
        for l in range(tau.size):
            plus, minus = tau.copy(), tau.copy()
            plus[l] += eps
            minus[l] -= eps
            fd[l] = (
                sto_objective_and_gradient(problem, z0, plus)[0]
                - sto_objective_and_gradient(problem, z0, minus)[0]
            ) / (2.0 * eps)
        assert np.abs(grad - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-12)

    @pytest.mark.parametrize("n_inputs", [2, 3])
    @settings(max_examples=15, deadline=None)
    @given(tau=_coincident_schedules, alpha=st.sampled_from([0.0, 0.5]))
    def test_objective_matches_per_node_evaluation(self, sto_families, n_inputs, tau, alpha):
        family = sto_families[n_inputs]
        problem = _tanh_problem(family, alpha=alpha)
        z0 = family.lift(np.array([[-1.0]]))[0]
        J, _ = sto_objective_and_gradient(problem, z0, tau)
        assert J == pytest.approx(_per_node_objective(problem, z0, tau), rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("n_inputs", [2, 3])
    @settings(max_examples=15, deadline=None)
    @given(tau=_coincident_schedules)
    def test_hessian_matches_central_differences(self, sto_families, n_inputs, alpha, tau):
        family = sto_families[n_inputs]
        problem = _tanh_problem(family, alpha=alpha)
        z0 = family.lift(np.array([[-1.0]]))[0]
        # the Hessian is in the durations; second differences give d^2 J / d tau^2
        H = np.diff(np.diff(_sto(problem, z0, tau, hessian=True)[2], axis=0), axis=1)
        eps = 1e-6
        fd = np.empty_like(H)
        for l in range(tau.size):
            plus, minus = tau.copy(), tau.copy()
            plus[l] += eps
            minus[l] -= eps
            fd[:, l] = (
                sto_objective_and_gradient(problem, z0, plus)[1]
                - sto_objective_and_gradient(problem, z0, minus)[1]
            ) / (2.0 * eps)
        assert np.abs(H - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-12)

    def test_newton_converges_and_records_stationarity(self, sto_families):
        # 8 and 40 free switch times: each converges in a few Newton steps
        for family, passes in ((sto_families[2], 4), (sto_families[3], 10)):
            schedule = switching_time_optimize(
                _tanh_problem(family), passes, x0=np.array([-1.0]), max_iter=30
            )
            assert schedule.converged and schedule.iterations <= 15
            assert schedule.projected_gradient_norm < 1e-6
            schedule.validate()

    def test_schedule_records_iterations(self, ou_setup):
        _, family = ou_setup
        problem = _tanh_problem(family)
        with pytest.warns(UserWarning, match="did not converge"):
            capped = switching_time_optimize(problem, 4, x0=np.array([0.0]), max_iter=3)
        assert (capped.converged, capped.iterations) == (False, 3)
        problem = ControlProblem(
            surrogates=family, reference=lambda t: np.array([-5.0]),
            horizon=(0.0, 4.0), h=0.05,
            reference_derivative=lambda t: np.array([0.0]),
        )
        done = switching_time_optimize(problem, 1, x0=np.array([-5.0]), max_iter=300)
        assert done.converged and 1 <= done.iterations < 300


class TestPlants:
    def test_burgers_energy_decays_uncontrolled(self):
        plant = BurgersPlant()
        y0 = plant.random_states(1, seed=5, amplitude=0.2)[0]
        _, trajectory = plant.simulate(y0, lambda t: 0.0, 2.0)
        energy = plant.energy(trajectory)
        assert np.all(np.diff(energy) <= 1e-14)

    def test_burgers_constant_state_fixed(self):
        plant = BurgersPlant()
        _, trajectory = plant.simulate(np.full(25, 0.3), lambda t: 0.0, 1.0)
        assert np.abs(trajectory - 0.3).max() == 0.0

    def test_burgers_rhs_periodic_stencil(self):
        plant = BurgersPlant()
        batch = plant.random_states(4, seed=3, amplitude=0.3)
        for y, u in ((batch, np.linspace(-1.0, 1.0, 4)), (batch[0], 0.7)):
            up, dn = np.roll(y, -1, axis=-1), np.roll(y, 1, axis=-1)
            lap = (up - 2.0 * y + dn) / plant.spacing**2
            adv = y * (up - dn) / (2.0 * plant.spacing)
            force = np.multiply.outer(u, plant.chi) if np.ndim(u) else u * plant.chi
            assert np.array_equal(plant.rhs(y, u), plant.nu * lap - adv + force)

    def test_burgers_grid_self_convergence(self):
        def field(x):
            return 0.2 * np.sin(2 * np.pi * x) + 0.05 * np.cos(4 * np.pi * x)

        coarse = BurgersPlant()
        fine = BurgersPlant(nodes=101, dt=5e-4)
        _, y_coarse = coarse.simulate(field(coarse.grid), lambda t: 0.0, 1.0)
        _, y_fine = fine.simulate(field(fine.grid), lambda t: 0.0, 1.0)
        interp = np.interp(
            coarse.grid,
            np.append(fine.grid, fine.length),
            np.append(y_fine[-1], y_fine[-1][0]),
        )
        rel = np.sqrt(np.mean((y_coarse[-1] - interp) ** 2))
        rel /= np.sqrt(np.mean(interp**2))
        assert rel < 0.05

    def test_burgers_simulate_step_must_divide_duration(self):
        plant = BurgersPlant()
        times, trajectory = plant.simulate(np.zeros(25), lambda t: 0.0, 0.1)
        assert trajectory.shape == (21, 25) and times[-1] == pytest.approx(0.1)
        for dt in (0.003, 0.006):
            with pytest.raises(InputError, match="whole steps"):
                plant.simulate(np.zeros(25), lambda t: 0.0, 0.1, dt=dt)

    def test_ou_advance_window_ends_at_new_state(self):
        x = np.linspace(-1.0, 1.0, 4)[:, None]
        rng = np.random.default_rng(2)
        new, window = ControlledOUPlant(noise=False).advance(x, 0.5, 0.05, rng)
        assert window.shape == (4, 1, 1)
        assert np.array_equal(window[:, 0], new)
        new, window = ControlledOUPlant().advance(x, 0.5, 0.05, rng)
        assert window.shape == (4, 10, 1)
        assert np.array_equal(window[:, -1], new)

    def test_ou_advance_is_bitwise_the_per_substep_draws(self):
        x = np.linspace(-1.0, 1.0, 200)[:, None]
        for plant in (ControlledOUPlant(), ControlledOUPlant(alpha=1.3, beta=0.5, noise=False)):
            for u, h in ((0.5, 0.05), (-1.0, 0.1), (np.linspace(0.0, 1.0, 200), 0.005)):
                got = plant.advance(x, u, h, np.random.default_rng(7))
                want = helpers.ou_plant_advance_per_substep(
                    plant, x, u, h, np.random.default_rng(7)
                )
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)

    def test_ou_sample_set_keeps_one_diffusion_matrix(self):
        sample = ControlledOUPlant(beta=2.0).sample_set(0.5, [[-2.0, 2.0]], 300, seed=1)
        a = sample.diffusion_samples
        assert a.strides[0] == 0 and not a.flags.writeable
        assert np.array_equal(a, np.ones((300, 1, 1)))
        deterministic = ControlledOUPlant(noise=False).sample_set(0.5, [[-2.0, 2.0]], 300, 1)
        assert deterministic.diffusion_samples is None

    def test_burgers_stability_guard(self):
        plant = BurgersPlant(dt=0.5)
        with pytest.raises(StabilityError, match="stability"):
            plant.advance(np.zeros((1, 25)), 0.0, 0.5)

    def test_ou_exact_switched_transition_moments(self):
        plant = ControlledOUPlant(alpha=1.0, beta=2.0)
        schedule = SwitchingSchedule(
            times=np.array([0.0]), horizon=(0.0, 3.0), n_inputs=2
        )
        paths = plant.simulate_switched(
            0.0, [2.0, -2.0], schedule, 0.5, 20000, seed=123
        )
        t = 3.0
        mean_exact = 2.0 * (1.0 - np.exp(-t))
        var_exact = 0.5 * (1.0 - np.exp(-2.0 * t))
        assert abs(paths[-1].mean() - mean_exact) < 0.02
        assert abs(paths[-1].var() - var_exact) < 0.03

    def test_ou_switched_deterministic_handles_subgrid_switches(self):
        # two switches inside one sampling step must both be honored
        plant = ControlledOUPlant(alpha=1.3, noise=False)
        schedule = SwitchingSchedule(
            times=np.array([0.0, 0.52, 0.58]), horizon=(0.0, 1.0), n_inputs=2
        )
        inputs = [2.0, -1.0]
        paths = plant.simulate_switched(0.5, inputs, schedule, 0.5, 2, seed=0)
        x = 0.5
        for u, span in ((2.0, 0.52), (-1.0, 0.06), (2.0, 0.42)):
            x = u + (x - u) * np.exp(-1.3 * span)
        np.testing.assert_allclose(paths[-1], [x, x], rtol=1e-12, atol=1e-14)

    def test_ou_deterministic_sample_set(self):
        plant = ControlledOUPlant(noise=False)
        sample = plant.sample_set(1.0, [[-1.0, 1.0]], 20, seed=3)
        assert sample.diffusion_samples is None
        np.testing.assert_array_equal(sample.drift_samples, -(sample.points - 1.0))
