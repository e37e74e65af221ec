import os
import sys
import time

# Both OpenBLAS libraries run at one thread for the whole session, so the bits
# of a test do not depend on the tests run before it (cli.main pins numpy's for
# good).  scipy's library reads this variable when it loads, after this file;
# numpy's is already loaded here and is pinned in pytest_configure.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
assert "scipy.linalg" not in sys.modules, "scipy's OpenBLAS loaded before the thread pin"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from koopgen import cli, generator  # noqa: E402
from koopgen.control import BurgersPlant, ControlProblem, fit_surrogates, mpc  # noqa: E402
from koopgen.dictionaries import Monomials  # noqa: E402


def pytest_configure(config):
    assert generator.blas_threads(pin=True) in (1, None)


def fd_gradient(dictionary, points, step=1e-5):
    """Central finite-difference gradient of every basis function."""
    x = np.asarray(points, dtype=np.float64)
    n, m, d = dictionary.size, x.shape[0], x.shape[1]
    out = np.empty((n, m, d))
    for j in range(d):
        xp = x.copy()
        xm = x.copy()
        xp[:, j] += step
        xm[:, j] -= step
        vp = dictionary.evaluate(xp).values
        vm = dictionary.evaluate(xm).values
        out[:, :, j] = (vp - vm) / (2.0 * step)
    return out


def fd_hessian(dictionary, points, step=1e-5):
    """Central finite differences of the analytic gradient."""
    x = np.asarray(points, dtype=np.float64)
    n, m, d = dictionary.size, x.shape[0], x.shape[1]
    out = np.empty((n, m, d, d))
    for j in range(d):
        xp = x.copy()
        xm = x.copy()
        xp[:, j] += step
        xm[:, j] -= step
        gp = dictionary.evaluate(xp).gradients
        gm = dictionary.evaluate(xm).gradients
        out[:, :, :, j] = (gp - gm) / (2.0 * step)
    return out


def rel_err(approx, exact):
    """Max abs deviation scaled by the overall magnitude of `exact`."""
    scale = max(np.max(np.abs(exact)), 1.0)
    return np.max(np.abs(approx - exact)) / scale


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20260826))


@pytest.fixture(scope="session")
def bundled_outputs(tmp_path_factory):
    """Every bundled config run once through ``cli.run_experiment``: name -> its output directory."""
    root = tmp_path_factory.mktemp("bundled")
    for name, config in cli.bundled_configs().items():
        cli.run_experiment(config, root / name)
    return {name: root / name for name in cli.bundled_configs()}


@pytest.fixture(scope="session")
def burgers_setup():
    """Burgers plant with its two-input surrogates (seeds 21/22, m = 800)."""
    plant = BurgersPlant()
    dictionary = Monomials(25, 2)
    inputs = [-0.025, 0.075]
    samples = [
        plant.sample_set(u, 800, seed=21 + i, amplitude=0.1)
        for i, u in enumerate(inputs)
    ]
    readout = dictionary.full_state_selector().T.mean(axis=0, keepdims=True)
    family = fit_surrogates(dictionary, inputs, samples, readout=readout)
    return plant, family


@pytest.fixture(scope="session")
def burgers_refinement(burgers_setup):
    """Criterion 9's MPC runs, once per session: tracking RMS per step h, and wall time.

    The mean state tracks 0.01 sin(0.2 pi t) on (0, 10) with q = 2 at
    h = 0.5 and h = 0.005.
    """
    start = time.perf_counter()
    plant, family = burgers_setup
    reference = lambda t: np.array([0.01 * np.sin(0.2 * np.pi * t)])
    errors = {}
    for h in (0.5, 0.005):
        problem = ControlProblem(
            surrogates=family, reference=reference, horizon=(0.0, 10.0), h=h, q=2
        )
        result = mpc(problem, plant, np.zeros(25))
        means = result.states.mean(axis=1)
        targets = np.array([reference(t)[0] for t in result.times])
        errors[h] = np.sqrt(np.mean((means - targets) ** 2))
    return errors, time.perf_counter() - start


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criterion lines collected during the run."""
    try:
        from test_acceptance import REPORT_LINES
    except ImportError:
        return
    if REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in REPORT_LINES:
            terminalreporter.write_line(line)
