"""Plot-ready CSV and JSON artifacts.

All writers are deterministic: floats are formatted by their shortest
round-trip representation, rows follow input order, and no timestamps or
environment details are embedded, so re-running a seeded experiment
reproduces artifacts byte for byte.  CSV files carry a header row and use
RFC-4180 quoting.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import NumericalError

__all__ = [
    "format_number",
    "write_csv",
    "write_json",
    "write_eigenvalue_csv",
    "write_eigenfunction_csv",
    "write_mode_csv",
    "write_conserved_csv",
    "write_identified_json",
    "write_reduced_model_csv",
    "write_control_csv",
    "write_schedule_json",
    "write_manifest",
]

TERM_TOL = 1e-10  # identified terms of smaller magnitude are left out of model.json


def format_number(value) -> str:
    """Shortest exact decimal form of a float or int."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    return format_number(value)


def write_csv(path, header, rows) -> Path:
    """Write rows of mixed str/number cells with a header line."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return path


def write_json(path, payload) -> Path:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    Strict JSON has no NaN or infinity: a payload holding one raises
    NumericalError before the file is opened, so no partial file is left.
    """
    path = Path(path)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path.name}: {exc}") from exc
    path.write_text(text + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# spectral artifacts


def write_eigenvalue_csv(path, decomposition) -> Path:
    """Eigenvalue table: index, real part, imaginary part, timescale."""
    timescales = decomposition.timescales
    rows = [
        (l, lam.real, lam.imag, timescales[l])
        for l, lam in enumerate(decomposition.eigenvalues)
    ]
    return write_csv(path, ["index", "real", "imag", "timescale"], rows)


def write_eigenfunction_csv(path, decomposition, dictionary, points, indices) -> Path:
    """Values of eigenfunctions ``indices`` on evaluation points, in Re/Im columns."""
    from .spectral import eigenfunction_values

    points = np.asarray(points, dtype=float)
    values = eigenfunction_values(decomposition, dictionary, points)
    indices = list(indices)
    header = [f"x{j + 1}" for j in range(points.shape[1])]
    for l in indices:
        header += [f"phi{l}_real", f"phi{l}_imag"]
    rows = []
    for i in range(points.shape[0]):
        row = list(points[i])
        for l in indices:
            row += [values[i, l].real, values[i, l].imag]
        rows.append(row)
    return write_csv(path, header, rows)


def write_mode_csv(path, modes) -> Path:
    """Mode matrix: one row per eigenpair with Re/Im mode components."""
    n_modes, dim = modes.modes.shape[1], modes.modes.shape[0]
    active = set(int(i) for i in modes.active_indices)
    header = ["index", "eigenvalue_real", "eigenvalue_imag"]
    for j in range(dim):
        header += [f"mode{j + 1}_real", f"mode{j + 1}_imag"]
    header.append("active")
    rows = []
    for l in range(n_modes):
        row = [l, modes.eigenvalues[l].real, modes.eigenvalues[l].imag]
        for j in range(dim):
            row += [modes.modes[j, l].real, modes.modes[j, l].imag]
        row.append(str(l in active).lower())
        rows.append(row)
    return write_csv(path, header, rows)


def write_conserved_csv(path, dictionary, vectors) -> Path:
    """Conserved-quantity coefficient vectors, one column per quantity."""
    vectors = np.asarray(vectors, dtype=float)
    labels = dictionary.labels()
    header = ["function"] + [f"q{k + 1}" for k in range(vectors.shape[1])]
    rows = [
        [labels[i]] + list(vectors[i]) for i in range(vectors.shape[0])
    ]
    return write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# identification / coarse-graining artifacts


def write_identified_json(path, model) -> Path:
    """Identified drift/diffusion term lists as JSON (terms above TERM_TOL)."""
    return write_json(path, model.to_dict(TERM_TOL))


def write_reduced_model_csv(path, model, grid) -> Path:
    """Reduced 1D model on a grid: z, potential, drift, diffusion."""
    grid = np.asarray(grid, dtype=float).reshape(-1)
    rows = zip(grid, *model.on_grid(grid))
    return write_csv(path, ["z", "potential", "drift", "diffusion"], rows)


# ---------------------------------------------------------------------------
# control artifacts


def write_control_csv(path, result) -> Path:
    """Closed-loop record: one row per control step.

    Columns: step start time, plant state at the step start (ensemble mean
    for batched runs), applied input (ensemble mean), reference at the step
    end, realized stage cost (ensemble mean).
    """
    states = result.states
    inputs = result.inputs
    costs = result.stage_costs
    if states.ndim == 3:  # batched realizations -> ensemble means
        states = states.mean(axis=1)
        inputs = inputs.mean(axis=1)
        costs = costs.mean(axis=1)
    dim = states.shape[1]
    r_dim = result.references.shape[1]
    header = (
        ["t"]
        + [f"y{j + 1}" for j in range(dim)]
        + ["u"]
        + [f"reference{j + 1}" for j in range(r_dim)]
        + ["stage_cost"]
    )
    rows = []
    for k in range(inputs.shape[0]):
        rows.append(
            [result.times[k]]
            + list(states[k])
            + [inputs[k]]
            + list(result.references[k])
            + [costs[k]]
        )
    return write_csv(path, header, rows)


def write_schedule_json(path, schedule) -> Path:
    """Switching schedule: times, horizon, objective, convergence, iterations
    and the projected-gradient norm at the schedule."""
    payload = {
        "switch_times": schedule.to_list(),
        "horizon": [float(schedule.horizon[0]), float(schedule.horizon[1])],
        "n_inputs": int(schedule.n_inputs),
        "objective": None if schedule.objective is None else float(schedule.objective),
        "converged": bool(schedule.converged),
        "iterations": int(schedule.iterations),
        "projected_gradient_norm": (
            None
            if schedule.projected_gradient_norm is None
            else float(schedule.projected_gradient_norm)
        ),
    }
    return write_json(path, payload)


def write_manifest(path, config: dict) -> Path:
    """Run manifest: the configuration as given plus the seed in effect, not the
    defaults, and the numpy version and fold LAPACK that the output bits depend on."""
    return write_json(path, config)
