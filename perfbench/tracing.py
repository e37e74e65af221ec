"""Span tracing of koopgen's layers, installed from outside the package.

``Tracer.install`` rebinds selected public functions and methods of the
``koopgen`` modules (and ``scipy.linalg.expm``, which the control layer
calls) to wrappers that record one span per call: name, start, end, parent
span and operation id.  Spans stay in memory; ``Tracer.dump`` writes them
out once the run is over.  ``layer_metrics`` turns the spans of each
operation into self times and counts.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
import sys
import time

import numpy as np

# Span name -> targets.  A target is "module:function" (every binding of that
# function object in a koopgen module is replaced) or "module:Class.method".
SPANS = {
    "dictionaries.evaluate": [
        "koopgen.dictionaries:_SeparableBasis.evaluate",
        "koopgen.dictionaries:GaussianBasis.evaluate",
        "koopgen.dictionaries:PeriodicGaussianBasis.evaluate",
    ],
    "generator.fit": [
        "koopgen.generator:gedmd_deterministic",
        "koopgen.generator:gedmd_stochastic",
        "koopgen.generator:gedmd_reversible",
    ],
    "generator.apply": ["koopgen.generator:apply_generator_values"],
    "spectral.decompose": ["koopgen.spectral:decompose"],
    "spectral.eigenfunctions": ["koopgen.spectral:eigenfunction_values"],
    # spans without metrics of their own: they keep cli.run to CLI code
    "spectral.modes": ["koopgen.spectral:koopman_modes"],
    "spectral.conserved": ["koopgen.spectral:conserved_quantities"],
    "sysid.identify": ["koopgen.sysid:identify"],
    "sysid.hard_threshold": ["koopgen.sysid:hard_threshold"],
    "coarse_grain.build": ["koopgen.coarse_grain:build_reduced_model"],
    "coarse_grain.force_matching": ["koopgen.coarse_grain:force_matching"],
    "coarse_grain.fit_diffusion": ["koopgen.coarse_grain:fit_diffusion"],
    "control.sto_eval": ["koopgen.control:sto_objective_and_gradient"],
    "control.sto_optimize": ["koopgen.control:switching_time_optimize"],
    "control.expm": ["scipy.linalg:expm"],
    "control.mpc": ["koopgen.control:mpc"],
    "control.lift": ["koopgen.control:SurrogateFamily.lift"],
    "control.propagator": ["koopgen.control:SurrogateFamily.propagator"],
    "control.schedule_trajectory": ["koopgen.control:schedule_trajectory"],
    "control.plant_advance": [
        "koopgen.control:ControlledOUPlant.advance",
        "koopgen.control:BurgersPlant.advance",
    ],
    "models.sample": [
        "koopgen.models:sample_uniform",
        "koopgen.models:exact_sample_set",
        "koopgen.models:noisy_sample_set",
        "koopgen.models:lemon_slice_invariant_points",
        "koopgen.control:ControlledOUPlant.sample_set",
        "koopgen.control:BurgersPlant.sample_set",
    ],
    "io.write": [
        "koopgen.io:write_csv",
        "koopgen.io:write_json",
        "koopgen.io:write_eigenvalue_csv",
        "koopgen.io:write_eigenfunction_csv",
        "koopgen.io:write_mode_csv",
        "koopgen.io:write_conserved_csv",
        "koopgen.io:write_identified_json",
        "koopgen.io:write_reduced_model_csv",
        "koopgen.io:write_control_csv",
        "koopgen.io:write_schedule_json",
        "koopgen.io:write_manifest",
    ],
    "cli.run": ["koopgen.cli:run_experiment"],
}

ROOT_SPAN = "operation"

# span record fields
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = "setup"
        self._evaluated: dict = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def begin_operation(self, op) -> int:
        """Start operation ``op``: a root span, and a fresh repeat-point memory."""
        self._op = op
        self._evaluated = {}
        return self.open(ROOT_SPAN)

    def _note_evaluation(self, record, args, kwargs, block):
        dictionary = args[0]
        points = args[1] if len(args) > 1 else kwargs["points"]
        n, m = block.values.shape
        attrs = {"points": m}
        if block.hessians is not None:
            d = dictionary.dimension
            attrs["hessian_bytes"] = n * m * d * d * 8
        raw = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        key = (id(dictionary), raw.shape, hashlib.blake2b(raw.data, digest_size=16).digest())
        if key in self._evaluated:
            attrs["repeat_points"] = m
        # holding the dictionary keeps its id from being reused in this operation
        self._evaluated[key] = dictionary
        self.spans[record][ATTRS] = attrs

    def _note_write(self, record, args, kwargs, path):
        self.spans[record][ATTRS] = {"bytes": os.path.getsize(path)}

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(record, args, kwargs, result)
                return result
            finally:
                tracer.close(record)

        return traced

    def install(self) -> None:
        """Rebind every target in SPANS to a recording wrapper."""
        for targets in SPANS.values():
            for target in targets:
                importlib.import_module(target.partition(":")[0])
        koopgen_modules = [
            mod for key, mod in sys.modules.items()
            if key == "koopgen" or key.startswith("koopgen.")
        ]
        notes = {"dictionaries.evaluate": self._note_evaluation, "io.write": self._note_write}
        for name, targets in SPANS.items():
            note = notes.get(name)
            for target in targets:
                module_name, _, attr = target.partition(":")
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._rebind(cls, method, original, self._wrap(name, original, note))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, note)
                owners = [module] + [m for m in koopgen_modules if m is not module]
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            self._rebind(owner, key, original, wrapper)

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- output ------------------------------------------------------------

    def dump(self, path, **header) -> None:
        """Write the recorded spans as JSON, one list per span."""
        fields = ["name", "start", "end", "parent", "operation", "attrs"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "fields": fields, "spans": self.spans}, handle)


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval and their durations add up.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _outermost(spans, index) -> bool:
    parent = spans[index][PARENT]
    return parent is None or spans[parent][NAME] != spans[index][NAME]


def _attr(span, key) -> float:
    return (span[ATTRS] or {}).get(key, 0)


# per-operation layer metrics: name -> (unit, function(spans, self_times, indices))
def _self(name):
    return lambda spans, own, idx: sum(own[i] for i in idx if spans[i][NAME] == name)


def _calls(name):
    return lambda spans, own, idx: sum(
        1 for i in idx if spans[i][NAME] == name and _outermost(spans, i)
    )


def _sum_attr(name, key, scale=1, outermost=False):
    return lambda spans, own, idx: scale * sum(
        _attr(spans[i], key)
        for i in idx
        if spans[i][NAME] == name and (not outermost or _outermost(spans, i))
    )


def _propagator_misses(spans, own, idx):
    computed = {spans[i][PARENT] for i in idx if spans[i][NAME] == "control.expm"}
    return sum(1 for i in idx if spans[i][NAME] == "control.propagator" and i in computed)


LAYER_METRICS = {
    "dictionaries.evaluate.s": ("s", _self("dictionaries.evaluate")),
    "dictionaries.evaluate.calls": ("count", _calls("dictionaries.evaluate")),
    "dictionaries.evaluate.points": ("count", _sum_attr("dictionaries.evaluate", "points")),
    "dictionaries.evaluate.repeat_points": (
        "count", _sum_attr("dictionaries.evaluate", "repeat_points")
    ),
    "dictionaries.hessian_mb": (
        "MB", _sum_attr("dictionaries.evaluate", "hessian_bytes", scale=1e-6)
    ),
    "generator.fit.calls": ("count", _calls("generator.fit")),
    "generator.fit.s": ("s", _self("generator.fit")),
    "generator.apply.s": ("s", _self("generator.apply")),
    "spectral.decompose.calls": ("count", _calls("spectral.decompose")),
    "spectral.decompose.s": ("s", _self("spectral.decompose")),
    "spectral.eigenfunctions.s": ("s", _self("spectral.eigenfunctions")),
    "sysid.identify.s": ("s", _self("sysid.identify")),
    "sysid.hard_threshold.calls": ("count", _calls("sysid.hard_threshold")),
    "coarse_grain.build.s": ("s", _self("coarse_grain.build")),
    "coarse_grain.force_matching.s": ("s", _self("coarse_grain.force_matching")),
    "coarse_grain.fit_diffusion.s": ("s", _self("coarse_grain.fit_diffusion")),
    "control.sto_eval.calls": ("count", _calls("control.sto_eval")),
    "control.sto_eval.s": ("s", _self("control.sto_eval")),
    "control.sto_optimize.s": ("s", _self("control.sto_optimize")),
    "control.expm.calls": ("count", _calls("control.expm")),
    "control.expm.s": ("s", _self("control.expm")),
    "control.mpc.s": ("s", _self("control.mpc")),
    "control.lift.calls": ("count", _calls("control.lift")),
    "control.propagator.calls": ("count", _calls("control.propagator")),
    "control.propagator.misses": ("count", _propagator_misses),
    "control.schedule_trajectory.s": ("s", _self("control.schedule_trajectory")),
    "control.plant_advance.s": ("s", _self("control.plant_advance")),
    "models.sample.s": ("s", _self("models.sample")),
    "io.write.calls": ("count", _calls("io.write")),
    "io.write.s": ("s", _self("io.write")),
    "io.bytes": ("bytes", _sum_attr("io.write", "bytes", outermost=True)),
    "cli.run.s": ("s", _self("cli.run")),
}


def layer_metrics(spans) -> dict:
    """Median over the traced operations of every LAYER_METRICS entry.

    Also reports ``models.sample.setup_s``, the sampling self time spent
    while the workload was set up, where the sample sets of most workloads
    are built.
    """
    own = self_times(spans)
    by_op: dict = {}
    for i, s in enumerate(spans):
        by_op.setdefault(s[OP], []).append(i)
    setup = by_op.pop("setup", [])
    out = {}
    for name, (unit, measure) in LAYER_METRICS.items():
        values = [measure(spans, own, idx) for idx in by_op.values()]
        out[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    out["models.sample.setup_s"] = {
        "value": _self("models.sample")(spans, own, setup), "unit": "s"
    }
    return out
