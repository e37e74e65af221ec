"""The benchmark's workloads: inputs, one operation, and its checks.

Each workload is a class whose constructor is the set-up, with
``operation()`` returning the program's outputs and ``check(outputs)``
returning a list of problems, empty when every output is right.  The
checks compare against ``reference``, which does not use koopgen, or
against properties the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from koopgen import cli, generator, models, spectral
from koopgen.dictionaries import Monomials

import reference


def _relative(actual, expected) -> float:
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


class EstimateLarge:
    """gEDMD of a 4-D Ornstein-Uhlenbeck process on Monomials(4, 4), n = 70.

    Exact drift -diag(alpha) x and constant diffusion a = B B^T at 5e4
    points uniform in [-1, 1]^4; each operation fits the generator and
    decomposes it.
    """

    ALPHA = np.array([1.0, 1.3, 1.7, 2.2])
    B = np.array(
        [
            [0.6, 0.0, 0.0, 0.0],
            [0.2, 0.5, 0.0, 0.0],
            [0.0, 0.1, 0.7, 0.0],
            [0.1, 0.0, 0.2, 0.4],
        ]
    )
    POINTS = 50_000
    DEGREE = 4

    def __init__(self, seed: int):
        d = self.ALPHA.shape[0]
        points = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(self.POINTS, d))
        model = models.SdeModel(
            dimension=d,
            drift=lambda x: -x * self.ALPHA,
            sigma=lambda x: np.broadcast_to(self.B, (x.shape[0], d, d)),
            noise_dim=d,
            name="anisotropic-ou-4d",
        )
        self.sample = models.exact_sample_set(model, points)
        self.dictionary = Monomials(d, self.DEGREE)
        self.expected_M = reference.ou_generator(
            self.dictionary.exponents, self.ALPHA, self.B @ self.B.T
        )
        self.expected_eigenvalues = reference.ou_eigenvalues(self.ALPHA, self.DEGREE)

    def operation(self):
        estimate = generator.gedmd_stochastic(self.dictionary, self.sample)
        return estimate, spectral.decompose(estimate)

    def check(self, outputs) -> list[str]:
        estimate, decomposition = outputs
        problems = []
        basis = sorted(tuple(int(v) for v in k) for k in self.dictionary.exponents)
        if basis != sorted(reference.exponents_up_to(4, self.DEGREE)):
            problems.append("dictionary is not every monomial of degree <= 4")
        err = _relative(estimate.M, self.expected_M)
        if not err < 1e-10:
            problems.append(f"generator relative error {err:.2e} >= 1e-10")
        lam = decomposition.eigenvalues
        scale = np.abs(self.expected_eigenvalues).max()
        eig_err = np.abs(np.sort(lam.real) - self.expected_eigenvalues).max() / scale
        imag = np.abs(lam.imag).max() / scale
        if not (eig_err < 1e-8 and imag < 1e-8):
            problems.append(f"eigenvalue error {eig_err:.2e}, imaginary part {imag:.2e}")
        return problems


def mpc_offset(times, mean_states) -> float:
    """Worst settled offset from the +-2 reference, as in acceptance criterion 8."""
    return max(
        abs(mean_states[(times >= 3.0) & (times < 5.0)].mean() - 2.0),
        abs(mean_states[times >= 8.0].mean() + 2.0),
    )


def switching_problems(x0, inputs, alpha, center, switch_times, horizon, times, readout):
    """Closed-form checks of a switching schedule on the controlled OU plant.

    The surrogate trajectory must equal the plant's closed-form mean under
    the schedule, and the schedule's tracking objective must beat the
    uniform schedule the optimizer starts from.
    """
    problems = []
    bounds = np.concatenate([switch_times, [horizon[1]]])
    mean = reference.ou_switched_mean(x0, inputs, bounds, alpha, times)
    err = np.abs(readout - mean).max()
    if not err < 1e-8:
        problems.append(f"surrogate trajectory off the closed-form mean by {err:.2e}")
    target = lambda t: np.tanh(np.asarray(t) - center)  # noqa: E731
    uniform = np.linspace(horizon[0], horizon[1], len(switch_times) + 1)
    optimized = reference.tracking_objective(x0, inputs, bounds, alpha, target)
    start = reference.tracking_objective(x0, inputs, uniform, alpha, target)
    if not optimized < start:
        problems.append(f"objective {optimized:.4f} not below uniform {start:.4f}")
    return problems


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _columns(path) -> dict:
    header, rows = _read_csv(path)
    return {name: np.array([float(r[j]) for r in rows]) for j, name in enumerate(header)}


def _eigenvalues(path) -> np.ndarray:
    cols = _columns(path)
    return cols["real"] + 1j * cols["imag"]


class CliDesk:
    """One pass over the nine bundled configs through ``koopgen.cli.main``, in process.

    Each config runs with its bundled seed, as users run it, and writes to a
    fresh directory under ``out_root``; the inputs do not depend on the run
    seed, so every pass of every run does the same work.
    """

    CONFIGS = (
        "burgers_mpc", "doublewell_identify", "duffing_conserved",
        "lemonslice_coarsegrain", "ou_estimate", "ou_mpc", "ou_spectrum",
        "ou_switching", "slow_manifold_modes",
    )

    def __init__(self, out_root: Path):
        bundled = cli.bundled_configs()
        self.configs = {name: bundled[name] for name in self.CONFIGS}
        self.out_root = Path(out_root)
        self.passes = 0
        self.first_digests = None

    def operation(self):
        out = self.out_root / f"pass{self.passes}"
        self.passes += 1
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for name in self.CONFIGS:
                codes[name] = cli.main(["run", name, "--out", str(out / name)])
        return out, codes

    def check(self, outputs) -> list[str]:
        out, codes = outputs
        try:
            problems = [f"{n}: exit code {c}" for n, c in codes.items() if c != 0]
            if not problems:
                for name in self.configs:
                    problems += [
                        f"{name}: {p}"
                        for p in getattr(self, "_check_" + name)(out / name, self.configs[name])
                    ]
                digests = {
                    str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(out.rglob("*")) if p.is_file()
                }
                if self.first_digests is None:
                    self.first_digests = digests
                elif digests != self.first_digests:
                    problems.append("artifacts differ from the first pass")
            return problems
        finally:
            shutil.rmtree(out, ignore_errors=True)

    # -- per-config checks --------------------------------------------------

    def _check_ou_estimate(self, out, config):
        header, rows = _read_csv(out / "generator.csv")
        M = np.array([[float(v) for v in r[1:]] for r in rows])
        exps = [reference.parse_monomial(label, 1) for label in header[1:]]
        expected = reference.ou_generator(
            exps, [config["model"]["alpha"]], [[2.0 / config["model"]["beta"]]]
        )
        err = np.abs(M - expected).max()
        return [] if err < 1e-8 else [f"generator error {err:.2e} >= 1e-8"]

    def _check_ou_spectrum(self, out, config):
        lam = _eigenvalues(out / "eigenvalues.csv")[:5]
        alpha = config["model"]["alpha"]
        err = np.abs(lam - (-alpha * np.arange(5))).max()
        return [] if err < 1e-6 else [f"eigenvalue ladder error {err:.2e} >= 1e-6"]

    def _check_slow_manifold_modes(self, out, config):
        lam = _eigenvalues(out / "eigenvalues.csv")
        expected = reference.slow_manifold_eigenvalues(
            config["model"]["gamma"], config["model"]["delta"], config["dictionary"]["degree"]
        )
        err = max(np.abs(lam - e).min() for e in expected)
        return [] if err < 1e-6 else [f"i gamma + j delta missed by {err:.2e}"]

    def _check_doublewell_identify(self, out, config):
        payload = json.loads((out / "model.json").read_text("utf-8"))
        drift, diffusion = reference.double_well_terms()
        problems = []
        for label, found, expected in (
            ("drift", payload["drift"], drift),
            ("diffusion", payload["diffusion"], diffusion),
        ):
            if len(found) != len(expected):
                problems.append(f"{len(found)} {label} components, expected {len(expected)}")
                continue
            for c, (terms, exact) in enumerate(zip(found, expected)):
                got = {reference.parse_monomial(t["term"], 2): t["coefficient"] for t in terms}
                keys = set(got) | set(exact)
                err = max(abs(got.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)
                if not err < 1e-6:
                    problems.append(f"{label} component {c} off by {err:.2e}")
        return problems

    def _check_duffing_conserved(self, out, config):
        lam = _eigenvalues(out / "eigenvalues.csv")
        radius = np.abs(lam).max()
        multiplicity = int((np.abs(lam) < 1e-6 * radius).sum())
        problems = [] if multiplicity == 2 else [f"zero multiplicity {multiplicity} != 2"]
        header, rows = _read_csv(out / "conserved.csv")
        if len(header) != 2:
            return problems + [f"{len(header) - 1} conserved quantities, expected 1"]
        energy = reference.duffing_energy(config["model"]["alpha"], config["model"]["beta"])
        found = np.array([float(r[1]) for r in rows])
        exact = np.array([energy.get(reference.parse_monomial(r[0], 2), 0.0) for r in rows])
        scale = (found @ exact) / (found @ found)
        err = _relative(scale * found, exact)
        if not err < 0.02:
            problems.append(f"conserved vector off the energy by {err:.2%}")
        return problems

    def _check_lemonslice_coarsegrain(self, out, config):
        diffusion = _columns(out / "reduced_model.csv")["diffusion"]
        problems = []
        variation = diffusion.std() / diffusion.mean()
        if not (diffusion.min() > 0.0 and variation < 0.05):
            problems.append(
                f"diffusion min {diffusion.min():.3e}, std/mean {variation:.3f} (need > 0, < 0.05)"
            )
        lam = _eigenvalues(out / "eigenvalues.csv")
        tol = 1e-8 * np.abs(lam).max()
        zeros = int((np.abs(lam) < tol).sum())
        if not (np.abs(lam.imag).max() <= tol and lam.real.max() <= tol and zeros == 1):
            problems.append(f"spectrum not real, <= 0 with one zero ({zeros} zeros)")
        return problems

    def _check_ou_mpc(self, out, config):
        cols = _columns(out / "control.csv")
        offset = mpc_offset(cols["t"], cols["y1"])
        return [] if offset < 0.2 else [f"MPC offset {offset:.3f} >= 0.2"]

    def _check_ou_switching(self, out, config):
        schedule = json.loads((out / "schedule.json").read_text("utf-8"))
        cols = _columns(out / "tracking.csv")
        plant = config["plant"]
        return switching_problems(
            plant["x0"], plant["inputs"], plant["alpha"], config["reference"]["center"],
            np.array(schedule["switch_times"]), schedule["horizon"], cols["t"],
            cols["readout1"],
        )

    def _check_burgers_mpc(self, out, config):
        header, rows = _read_csv(out / "control.csv")
        table = np.array([[float(v) for v in r] for r in rows])
        nodes = [j for j, name in enumerate(header) if name.startswith("y")]
        spatial_mean = table[:, nodes].mean(axis=1)
        # row k holds the state at its start time and the reference at its end
        reference_at = table[:-1, header.index("reference1")]
        rms = np.sqrt(np.mean((spatial_mean[1:] - reference_at) ** 2))
        amplitude = config["reference"]["amplitude"]
        return [] if rms < 0.1 * amplitude else [f"tracking RMS {rms:.2e} >= {0.1 * amplitude:.2e}"]


WORKLOADS = {
    "estimate_large": EstimateLarge,
    "cli_desk": CliDesk,
}
