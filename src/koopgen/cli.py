"""Config-driven command line front end.

``koopgen run <config.json> [--out DIR] [--seed N]`` executes one experiment
described by a JSON document and writes plot-ready CSV/JSON artifacts plus a
manifest echoing the configuration as given with the seed in effect (defaults
applied by the runners are not recorded), the numpy version, which LAPACK
("numpy" or "scipy") folded the fits and the thread count of numpy's
OpenBLAS; ``koopgen list [--json]`` shows the bundled experiment configs.
Exit codes: 0 success, 1 runtime or configuration error, 2 usage error.

``main`` owns its process: before a run it pins numpy's OpenBLAS to one
thread, so the output bytes do not depend on the host's core count (it
warns, and the manifest records null threads, where numpy exports no thread
control). Importing koopgen pins nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import coarse_grain, control, generator, io, models, spectral, sysid
from .dictionaries import GaussianBasis, LegendreBasis, Monomials
from .errors import ConfigError, KoopgenError, warn

_MISSING = object()


# ---------------------------------------------------------------------------
# config access with field-path error reporting


def _field(config: dict, path: str, default=_MISSING):
    node = config
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _MISSING:
                raise ConfigError(f"missing required config field '{path}'")
            return default
        node = node[part]
    return node


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(path, values) -> list[float]:
    """`values` as floats; json reads NaN and Infinity, which no field accepts."""
    try:
        out = [float(v) for v in values]
    except OverflowError:  # an integer beyond the float range
        out = [math.inf]
    if not all(map(math.isfinite, out)):
        raise ConfigError(f"config field '{path}': expected a finite number")
    return out


def _number(config, path, default=_MISSING, minimum=None):
    value = _field(config, path, default)
    if not _is_number(value):
        raise ConfigError(f"config field '{path}': expected a number")
    (value,) = _finite(path, [value])
    if minimum is not None and value < minimum:
        raise ConfigError(f"config field '{path}': must be >= {minimum}")
    return value


def _integer(config, path, default=_MISSING, minimum=None):
    value = _field(config, path, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field '{path}': expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"config field '{path}': must be >= {minimum}")
    return value


def _string(config, path, default=_MISSING, choices=None):
    value = _field(config, path, default)
    if not isinstance(value, str):
        raise ConfigError(f"config field '{path}': expected a string")
    if choices is not None and value not in choices:
        raise ConfigError(
            f"config field '{path}': expected one of {sorted(choices)}, got '{value}'"
        )
    return value


def _box(config, path):
    value = _field(config, path)
    ok = (
        isinstance(value, list)
        and value
        and all(isinstance(r, list) and len(r) == 2 and all(map(_is_number, r)) for r in value)
    )
    box = [_finite(path, r) for r in value] if ok else []
    if not ok or not all(lo < hi for lo, hi in box):
        raise ConfigError(
            f"config field '{path}': expected a list of [low, high] pairs with low < high"
        )
    return box


def _pair(config, path):
    value = _field(config, path)
    ok = isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))
    pair = _finite(path, value) if ok else []
    if not ok or not pair[0] < pair[1]:
        raise ConfigError(f"config field '{path}': expected [start, end] with start < end")
    return pair[0], pair[1]


def _num_list(config, path):
    value = _field(config, path)
    if not (isinstance(value, list) and value and all(map(_is_number, value))):
        raise ConfigError(f"config field '{path}': expected a non-empty list of numbers")
    return _finite(path, value)


# ---------------------------------------------------------------------------
# shared builders


def _build_model(config) -> models.SdeModel:
    name = _string(
        config, "model.name",
        choices=("ou", "slow_manifold", "double_well", "duffing", "lemon_slice"),
    )
    if name == "ou":
        return models.ornstein_uhlenbeck(
            alpha=_number(config, "model.alpha", 1.0),
            beta=_number(config, "model.beta", 4.0),
        )
    if name == "slow_manifold":
        return models.slow_manifold_system(
            gamma=_number(config, "model.gamma", -0.8),
            delta=_number(config, "model.delta", -0.7),
        )
    if name == "double_well":
        return models.double_well_2d()
    if name == "duffing":
        return models.stratonovich_to_ito(
            models.duffing_oscillator(
                alpha=_number(config, "model.alpha", -1.1),
                beta=_number(config, "model.beta", 1.1),
                eps=_number(config, "model.eps", 0.05),
            )
        )
    return models.lemon_slice(
        k=_integer(config, "model.k", 4), beta=_number(config, "model.beta", 1.0)
    )


def _build_dictionary(config, dimension: int):
    kind = _string(config, "dictionary.type", "monomials", choices=("monomials", "legendre"))
    degree = _integer(config, "dictionary.degree", minimum=1)
    if kind == "monomials":
        return Monomials(dimension, degree)
    return LegendreBasis(degree, _box(config, "dictionary.domain"))


def _build_sample(config, model, seed):
    if _field(config, "sampling.invariant", False):
        if _field(config, "model.name", "") != "lemon_slice":
            raise ConfigError(
                "config field 'sampling.invariant': only supported for the lemon_slice model"
            )
        points = models.lemon_slice_invariant_points(
            _integer(config, "sampling.m", minimum=1),
            seed,
            k=_integer(config, "model.k", 4),
            beta=_number(config, "model.beta", 1.0),
        )
    else:
        points = models.sample_uniform(
            _box(config, "sampling.box"), _integer(config, "sampling.m", minimum=1), seed
        )
    sample = models.exact_sample_set(model, points)
    noise = _number(config, "sampling.noise_std", 0.0, minimum=0.0)
    if noise > 0.0:
        sample = models.noisy_sample_set(sample, noise, seed + 1)
    return sample


def _estimate(config, seed):
    """(dictionary, estimate): the config's model sampled and fitted (stochastic if sampled so)."""
    model = _build_model(config)
    dictionary = _build_dictionary(config, model.dimension)
    sample = _build_sample(config, model, seed)
    if sample.diffusion_samples is None:
        return dictionary, generator.gedmd_deterministic(dictionary, sample)
    return dictionary, generator.gedmd_stochastic(dictionary, sample)


def _evaluation_grid(config, prefix: str):
    box = _box(config, f"{prefix}.box")
    count = _integer(config, f"{prefix}.points", 101, minimum=2)
    axes = [np.linspace(lo, hi, count) for lo, hi in box]
    if len(axes) == 1:
        return axes[0][:, None]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


# ---------------------------------------------------------------------------
# experiment runners (each returns a list of artifact file names)


def _run_estimate(config, out: Path, seed: int):
    dictionary, estimate = _estimate(config, seed)
    labels = dictionary.labels()
    rows = [[labels[i]] + list(estimate.M[i]) for i in range(dictionary.size)]
    io.write_csv(out / "generator.csv", ["function"] + labels, rows)
    io.write_eigenvalue_csv(out / "eigenvalues.csv", spectral.decompose(estimate))
    return ["generator.csv", "eigenvalues.csv"]


def _run_spectrum(config, out: Path, seed: int):
    dictionary, estimate = _estimate(config, seed)
    decomposition = spectral.decompose(estimate)
    io.write_eigenvalue_csv(out / "eigenvalues.csv", decomposition)
    artifacts = ["eigenvalues.csv"]
    if _field(config, "spectral.grid", None) is not None:
        points = _evaluation_grid(config, "spectral.grid")
        top = _integer(config, "spectral.functions", 5, minimum=1)
        io.write_eigenfunction_csv(
            out / "eigenfunctions.csv", decomposition, dictionary, points,
            indices=range(min(top, dictionary.size)),
        )
        artifacts.append("eigenfunctions.csv")
    if _field(config, "spectral.modes", False):
        io.write_mode_csv(out / "modes.csv", spectral.koopman_modes(decomposition))
        artifacts.append("modes.csv")
    return artifacts


def _run_identify(config, out: Path, seed: int):
    model = _build_model(config)
    dictionary = _build_dictionary(config, model.dimension)
    sample = _build_sample(config, model, seed)
    identified = sysid.identify(
        dictionary, sample, delta=_number(config, "solver.delta", 0.0, minimum=0.0)
    )
    io.write_identified_json(out / "model.json", identified)
    return ["model.json"]


def _run_conserved(config, out: Path, seed: int):
    dictionary, estimate = _estimate(config, seed)
    decomposition = spectral.decompose(estimate)
    io.write_eigenvalue_csv(out / "eigenvalues.csv", decomposition)
    vectors = spectral.conserved_quantities(decomposition)
    stacked = (
        np.column_stack(vectors) if vectors else np.empty((dictionary.size, 0))
    )
    io.write_conserved_csv(out / "conserved.csv", dictionary, stacked)
    return ["eigenvalues.csv", "conserved.csv"]


def _run_coarsegrain(config, out: Path, seed: int):
    model = _build_model(config)
    if model.dimension != 2:
        raise ConfigError("config field 'model.name': coarsegrain expects a 2D model")
    sample = _build_sample(config, model, seed)
    cg_map = coarse_grain.polar_angle_map()
    reduced_basis = LegendreBasis(
        _integer(config, "reduction.degree", 20, minimum=2),
        [[-np.pi, np.pi]],
    )
    lo, hi = _pair(config, "reduction.span")
    if lo < -np.pi or hi > np.pi:  # the reduced basis lives on the angle's range
        raise ConfigError("config field 'reduction.span': must lie within [-pi, pi]")
    centers = np.linspace(lo, hi, _integer(config, "reduction.centers", 25, minimum=2))
    diffusion_basis = GaussianBasis(
        centers[:, None], _number(config, "reduction.bandwidth", 0.4, minimum=1e-9)
    )
    reduced = coarse_grain.build_reduced_model(
        cg_map, reduced_basis, sample, model, diffusion_basis
    )
    grid = np.linspace(lo, hi, _integer(config, "reduction.grid", 201, minimum=2))
    io.write_reduced_model_csv(out / "reduced_model.csv", reduced, grid)
    io.write_eigenvalue_csv(
        out / "eigenvalues.csv", spectral.decompose(reduced.estimate)
    )
    return ["reduced_model.csv", "eigenvalues.csv"]


def _reference_functions(config):
    kind = _string(
        config, "reference.type", choices=("constant", "piecewise", "sine", "tanh")
    )
    if kind == "constant":
        value = _number(config, "reference.value")
        return (
            lambda t: np.array([value]),
            lambda t: np.array([0.0]),
        )
    if kind == "piecewise":
        times = _num_list(config, "reference.times")
        if np.any(np.diff(times) <= 0):
            raise ConfigError(
                "config field 'reference.times': expected strictly increasing switch times"
            )
        values = _num_list(config, "reference.values")
        if len(values) != len(times) + 1:
            raise ConfigError(
                "config field 'reference.values': need one more value than switch times"
            )
        times_arr = np.asarray(times)
        values_arr = np.asarray(values)

        def piecewise(t):
            return np.array([values_arr[np.searchsorted(times_arr, t, side="right")]])

        return piecewise, None
    if kind == "sine":
        amp = _number(config, "reference.amplitude")
        period = _number(config, "reference.period", minimum=1e-12)
        omega = 2.0 * np.pi / period
        return (
            lambda t: np.array([amp * np.sin(omega * t)]),
            lambda t: np.array([amp * omega * np.cos(omega * t)]),
        )
    center = _number(config, "reference.center")
    return (
        lambda t: np.array([np.tanh(t - center)]),
        lambda t: np.array([1.0 / np.cosh(t - center) ** 2]),
    )


def _build_plant_and_family(config, seed):
    name = _string(config, "plant.name", choices=("ou", "burgers"))
    inputs = _num_list(config, "plant.inputs")
    if name == "ou":
        plant = control.ControlledOUPlant(
            alpha=_number(config, "plant.alpha", 1.0),
            beta=_number(config, "plant.beta", 2.0),
            dt=_number(config, "plant.dt", 0.005, minimum=1e-9),
        )
        dictionary = Monomials(1, _integer(config, "plant.degree", 12, minimum=1))
        box = _box(config, "plant.box")
        m = _integer(config, "plant.m", 200, minimum=1)
        samples = [
            plant.sample_set(u, box, m, seed=seed + 100 + i)
            for i, u in enumerate(inputs)
        ]
        family = control.fit_surrogates(dictionary, inputs, samples)
        x0 = np.array([_number(config, "plant.x0", 0.0)])
        return plant, family, x0
    plant = control.BurgersPlant(
        nu=_number(config, "plant.nu", 0.05, minimum=0.0),
        nodes=_integer(config, "plant.nodes", 25, minimum=3),
        dt=_number(config, "plant.dt", 0.005, minimum=1e-9),
    )
    dictionary = Monomials(plant.nodes, _integer(config, "plant.degree", 2, minimum=1))
    m = _integer(config, "plant.m", 800, minimum=1)
    amplitude = _number(config, "plant.amplitude", 0.1, minimum=0.0)
    samples = [
        plant.sample_set(u, m, seed=seed + 100 + i, amplitude=amplitude)
        for i, u in enumerate(inputs)
    ]
    readout_kind = _string(config, "plant.readout", "mean", choices=("mean", "full"))
    readout = dictionary.full_state_selector().T
    if readout_kind == "mean":
        readout = readout.mean(axis=0, keepdims=True)
    family = control.fit_surrogates(dictionary, inputs, samples, readout=readout)
    return plant, family, np.zeros(plant.nodes)


def _run_control_mpc(config, out: Path, seed: int):
    plant, family, x0 = _build_plant_and_family(config, seed)
    reference, _ = _reference_functions(config)
    problem = control.ControlProblem(
        surrogates=family,
        reference=reference,
        horizon=_pair(config, "control.horizon"),
        h=_number(config, "control.h", minimum=1e-9),
        q=_integer(config, "control.q", 3, minimum=1),
        alpha=_number(config, "control.alpha", 0.0, minimum=0.0),
    )
    realizations = _integer(config, "control.realizations", 1, minimum=1)
    start = np.tile(x0, (realizations, 1)) if realizations > 1 else x0
    result = control.mpc(problem, plant, start, seed=seed + 500)
    io.write_control_csv(out / "control.csv", result)
    return ["control.csv"]


def _run_control_switching(config, out: Path, seed: int):
    plant, family, x0 = _build_plant_and_family(config, seed)
    reference, derivative = _reference_functions(config)
    if derivative is None:
        raise ConfigError(
            "config field 'reference.type': switching needs a differentiable reference"
        )
    problem = control.ControlProblem(
        surrogates=family,
        reference=reference,
        horizon=_pair(config, "control.horizon"),
        h=_number(config, "control.h", 0.05, minimum=1e-9),
        alpha=_number(config, "control.alpha", 0.0, minimum=0.0),
        reference_derivative=derivative,
    )
    control.whole_steps(problem.horizon, problem.h)  # fail before any artifact
    schedule = control.switching_time_optimize(
        problem,
        _integer(config, "control.passes", minimum=1),
        x0=x0,
        max_iter=_integer(config, "control.max_iter", 300, minimum=1),
    )
    io.write_schedule_json(out / "schedule.json", schedule)
    z0 = family.lift(x0[np.newaxis, :])[0]
    times, trajectory = control.schedule_trajectory(family, schedule, z0, problem.h)
    readout = trajectory @ family.readout.T
    rows = [
        [times[k]] + list(readout[k]) + list(np.atleast_1d(reference(times[k])))
        for k in range(times.shape[0])
    ]
    header = (
        ["t"]
        + [f"readout{j + 1}" for j in range(readout.shape[1])]
        + [f"reference{j + 1}" for j in range(readout.shape[1])]
    )
    io.write_csv(out / "tracking.csv", header, rows)
    return ["schedule.json", "tracking.csv"]


_RUNNERS = {
    "estimate": _run_estimate,
    "spectrum": _run_spectrum,
    "identify": _run_identify,
    "conserved": _run_conserved,
    "coarsegrain": _run_coarsegrain,
    "control-mpc": _run_control_mpc,
    "control-switching": _run_control_switching,
}
KINDS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# bundled configs


def bundled_configs() -> dict:
    """Name -> parsed JSON of every bundled experiment config."""
    result = {}
    root = resources.files("koopgen").joinpath("configs")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            result[entry.name[: -len(".json")]] = json.loads(entry.read_text("utf-8"))
    return result


def _resolve_config(argument: str) -> tuple[str, dict]:
    path = Path(argument)
    if path.is_file():
        try:
            return path.stem, json.loads(path.read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file '{argument}' is not valid JSON: {exc}")
    bundled = bundled_configs()
    if argument in bundled:
        return argument, bundled[argument]
    raise ConfigError(
        f"'{argument}' is neither a config file nor a bundled config name "
        f"(bundled: {', '.join(sorted(bundled))})"
    )


def run_experiment(config: dict, out_dir, seed=None) -> dict:
    """Execute one experiment config; returns the manifest contents."""
    if not isinstance(config, dict):
        raise ConfigError("config root: expected a JSON object")
    kind = _string(config, "kind", choices=KINDS)
    resolved = dict(config)
    resolved["seed"] = int(seed) if seed is not None else _integer(config, "seed", 0)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = _RUNNERS[kind](resolved, out, resolved["seed"])
    manifest = {
        "kind": kind,
        "seed": resolved["seed"],
        "config": resolved,
        "artifacts": sorted(artifacts),
        # the output bits depend on numpy, on the LAPACK that folded R and on BLAS threading
        "numpy": np.__version__,
        "fold_lapack": generator.fold_lapack(),
        "blas_threads": generator.blas_threads(),
    }
    io.write_manifest(out / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopgen",
        description="Run generator-estimation experiments from JSON configs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run", help="execute one experiment config")
    runner.add_argument("config", help="path to a config JSON file, or a bundled name")
    runner.add_argument("--out", help="output directory (default: ./<config name>)")
    runner.add_argument("--seed", type=int, help="override the config seed")
    lister = commands.add_parser("list", help="show bundled experiment configs")
    lister.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        entries = [
            {
                "name": name,
                "kind": cfg.get("kind", "?"),
                "description": cfg.get("description", ""),
            }
            for name, cfg in sorted(bundled_configs().items())
        ]
        if args.json:
            print(json.dumps(entries, indent=2, sort_keys=True))
        else:
            width = max(len(e["name"]) for e in entries) if entries else 4
            kind_width = max(len(e["kind"]) for e in entries) if entries else 4
            for e in entries:
                print(f"{e['name']:<{width}}  {e['kind']:<{kind_width}}  {e['description']}")
        return 0
    if generator.blas_threads(pin=True) is None:
        warn("numpy exports no OpenBLAS thread control; the output bits may depend on the host")
    try:
        name, config = _resolve_config(args.config)
        out_dir = Path(args.out) if args.out else Path.cwd() / name
        manifest = run_experiment(config, out_dir, seed=args.seed)
    except (KoopgenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {', '.join(manifest['artifacts'] + ['manifest.json'])} to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
