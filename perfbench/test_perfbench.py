"""Tests of the benchmark's own arithmetic: span self times, layer counts and
the closed-form references, each against values worked out by hand.

    python3 -m pytest perfbench -q
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import tracing  # noqa: E402


def _span(name, start, end, parent=None, op=1, attrs=None):
    return [name, start, end, parent, op, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("operation", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 5.0, 6.0, parent=0),
        _span("c", 2.0, 3.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_layer_metrics_counts_and_self_times():
    spans = [
        _span("models.sample", 0.0, 0.5, op="setup"),
        _span("operation", 0.0, 10.0),
        # a writer that delegates to another writer is one file, not two
        _span("io.write", 1.0, 3.0, parent=1, attrs={"bytes": 100}),
        _span("io.write", 1.5, 2.5, parent=2, attrs={"bytes": 100}),
        _span("control.propagator", 4.0, 5.0, parent=1),
        _span("control.expm", 4.2, 4.8, parent=4),
        _span("control.propagator", 5.0, 5.1, parent=1),
        _span("dictionaries.evaluate", 6.0, 7.0, parent=1,
              attrs={"points": 10, "hessian_bytes": 2_000_000}),
        _span("dictionaries.evaluate", 7.0, 7.5, parent=1,
              attrs={"points": 10, "repeat_points": 10}),
    ]
    m = {k: v["value"] for k, v in tracing.layer_metrics(spans).items()}
    assert m["io.write.calls"] == 1
    assert m["io.bytes"] == 100
    assert m["io.write.s"] == pytest.approx(2.0)
    assert m["control.propagator.calls"] == 2
    assert m["control.propagator.misses"] == 1
    assert m["control.expm.s"] == pytest.approx(0.6)
    assert m["dictionaries.evaluate.calls"] == 2
    assert m["dictionaries.evaluate.points"] == 20
    assert m["dictionaries.evaluate.repeat_points"] == 10
    assert m["dictionaries.hessian_mb"] == pytest.approx(2.0)
    assert m["dictionaries.evaluate.s"] == pytest.approx(1.5)
    assert m["models.sample.s"] == 0
    assert m["models.sample.setup_s"] == pytest.approx(0.5)


def test_layer_metrics_take_the_median_over_operations():
    spans = []
    for op, length in enumerate((1.0, 5.0, 2.0)):
        spans.append(_span("generator.fit", 0.0, length, op=op))
    m = tracing.layer_metrics(spans)
    assert m["generator.fit.s"]["value"] == pytest.approx(2.0)
    assert m["generator.fit.calls"]["value"] == 1


def test_tracer_records_evaluations_and_restores_bindings():
    from koopgen import control, dictionaries

    original = dictionaries.Monomials.evaluate
    basis = dictionaries.Monomials(2, 2)
    points = np.arange(6.0).reshape(3, 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.begin_operation(0)
        basis.evaluate(points, with_hessians=True)
        control.evaluate(basis, points.copy())  # same points, evaluated again
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert dictionaries.Monomials.evaluate is original
    m = {k: v["value"] for k, v in tracing.layer_metrics(tracer.spans).items()}
    assert m["dictionaries.evaluate.calls"] == 2
    assert m["dictionaries.evaluate.points"] == 6
    assert m["dictionaries.evaluate.repeat_points"] == 3
    assert m["dictionaries.hessian_mb"] == pytest.approx(6 * 3 * 2 * 2 * 8 / 1e6)


def test_ou_generator_one_dimension_by_hand():
    # alpha = 1, a = 1/2:  L 1 = 0,  L x = -x,  L x^2 = -2 x^2 + 1/2
    M = reference.ou_generator([(0,), (1,), (2,)], [1.0], [[0.5]])
    assert M == pytest.approx(np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.5, 0.0, -2.0]]))


def test_ou_generator_cross_term_by_hand():
    # L (x1 x2) = -(alpha1 + alpha2) x1 x2 + a12;  L x1^2 = -2 alpha1 x1^2 + a11
    exps = [(0, 0), (1, 1), (2, 0)]
    a = np.array([[0.3, 0.2], [0.2, 0.5]])
    M = reference.ou_generator(exps, [1.0, 2.0], a)
    assert M[1] == pytest.approx([0.2, -3.0, 0.0])
    assert M[2] == pytest.approx([0.3, 0.0, -2.0])
    assert M[0] == pytest.approx([0.0, 0.0, 0.0])


def test_ou_eigenvalues_and_exponents():
    assert reference.ou_eigenvalues([1.0, 2.0], 1) == pytest.approx([-2.0, -1.0, 0.0])
    assert len(reference.exponents_up_to(4, 4)) == 70


def test_switched_mean_by_hand():
    e = math.exp(-1.0)
    mean = reference.ou_switched_mean(0.0, (-1.0, 1.0), [0.0, 1.0, 2.0], 1.0, [0.0, 1.0, 2.0])
    m1 = -1.0 + e
    assert mean == pytest.approx([0.0, m1, 1.0 + (m1 - 1.0) * e])


def test_tracking_objective_by_hand():
    # mean 1 - e^-t against a zero reference over [0, 1], split at 0.5
    exact = 1.0 - 2.0 * (1.0 - math.exp(-1.0)) + 0.5 * (1.0 - math.exp(-2.0))
    value = reference.tracking_objective(
        0.0, (1.0,), [0.0, 0.5, 1.0], 1.0, lambda t: np.zeros_like(t)
    )
    assert value == pytest.approx(exact, rel=1e-6)


def test_monomial_labels():
    assert reference.parse_monomial("x1^3*x2", 2) == (3, 1)
    assert reference.parse_monomial("x2^4", 2) == (0, 4)
    assert reference.parse_monomial("1", 1) == (0,)


def test_slow_manifold_eigenvalues():
    values = reference.slow_manifold_eigenvalues(-0.8, -0.7, 8)
    assert len(values) == 25
    assert set(np.round(values, 12)) >= {0.0, -0.8, -0.7, -1.6, -2.8, -6.4}


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "estimate_large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
