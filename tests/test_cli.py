"""Command line front end: exit codes, validation messages, artifacts."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from koopgen import cli, generator, io
from koopgen.errors import ConfigError, NumericalError


def run_cli(argv):
    """Invoke the CLI in-process, returning the exit code."""
    return cli.main(argv)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SMALL_SPECTRUM = {
    "kind": "spectrum",
    "seed": 1,
    "model": {"name": "ou", "alpha": 1.0, "beta": 4.0},
    "dictionary": {"type": "monomials", "degree": 4},
    "sampling": {"box": [[-2.0, 2.0]], "m": 50},
    "spectral": {"grid": {"box": [[-2.0, 2.0]], "points": 11}, "functions": 3},
}


class TestList:
    def test_table_lists_all_bundled_configs(self, capsys):
        assert run_cli(["list"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) >= 7
        names = {line.split()[0] for line in lines}
        assert {"ou_spectrum", "doublewell_identify", "burgers_mpc"} <= names

    def test_json_output_is_machine_readable(self, capsys):
        assert run_cli(["list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) >= 7
        for entry in entries:
            assert set(entry) == {"name", "kind", "description"}
            assert entry["kind"] in cli.KINDS

    def test_every_bundled_config_declares_kind_and_seed(self):
        for name, config in cli.bundled_configs().items():
            assert config["kind"] in cli.KINDS, name
            assert isinstance(config["seed"], int), name
            assert config["description"], name


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv", [[], ["run"], ["bogus-command"], ["run", "ou_estimate", "--frobnicate"]]
    )
    def test_usage_problems_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        capsys.readouterr()


class TestConfigErrors:
    def test_unknown_config_name_exits_1(self, capsys):
        assert run_cli(["run", "definitely_not_bundled"]) == 1
        err = capsys.readouterr().err
        assert "bundled" in err

    def test_invalid_json_reports_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run_cli(["run", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_field_reports_path(self, tmp_path, capsys):
        config = {k: v for k, v in SMALL_SPECTRUM.items() if k != "model"}
        path = write_config(tmp_path, "no_model.json", config)
        assert run_cli(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert "'model.name'" in capsys.readouterr().err

    def test_wrong_type_reports_path(self, tmp_path, capsys):
        config = json.loads(json.dumps(SMALL_SPECTRUM))
        config["dictionary"]["degree"] = "four"
        path = write_config(tmp_path, "bad_degree.json", config)
        assert run_cli(["run", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "'dictionary.degree'" in err and "integer" in err

    def test_unknown_kind_lists_choices(self, tmp_path, capsys):
        config = json.loads(json.dumps(SMALL_SPECTRUM))
        config["kind"] = "frobulate"
        path = write_config(tmp_path, "bad_kind.json", config)
        assert run_cli(["run", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "'kind'" in err and "spectrum" in err

    def test_malformed_box_reports_path(self, tmp_path, capsys):
        config = json.loads(json.dumps(SMALL_SPECTRUM))
        config["sampling"]["box"] = [[2.0, -2.0]]
        path = write_config(tmp_path, "bad_box.json", config)
        assert run_cli(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert "'sampling.box'" in capsys.readouterr().err

    def test_piecewise_reference_length_mismatch(self, tmp_path, capsys):
        config = json.loads(json.dumps(cli.bundled_configs()["ou_mpc"]))
        config["reference"]["values"] = [2.0]
        path = write_config(tmp_path, "bad_ref.json", config)
        assert run_cli(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert "'reference.values'" in capsys.readouterr().err

    def test_piecewise_reference_unsorted_times(self, tmp_path, capsys):
        # searchsorted on [5, 2] would never select the value 20
        config = json.loads(json.dumps(cli.bundled_configs()["ou_mpc"]))
        config["reference"] = {
            "type": "piecewise", "times": [5.0, 2.0], "values": [10.0, 20.0, 30.0]
        }
        path = write_config(tmp_path, "bad_times.json", config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (
            "config field 'reference.times': expected strictly increasing switch times" in err
        )
        assert not (out / "control.csv").exists()


    @pytest.mark.parametrize(
        "name, path, value, match",
        [
            ("ou_spectrum", "model.alpha", 10**400, "'model.alpha': expected a finite number"),
            ("ou_spectrum", "model.alpha", "one", "'model.alpha': expected a number"),
            ("ou_spectrum", "sampling.noise_std", -1, "'sampling.noise_std': must be >= 0"),
            ("ou_spectrum", "sampling.m", 0, "'sampling.m': must be >= 1"),
            ("ou_spectrum", "dictionary.type", 3, "'dictionary.type': expected a string"),
            ("ou_mpc", "control.horizon", [5, 1], "'control.horizon': expected [start, end]"),
            ("ou_mpc", "plant.inputs", [], "'plant.inputs': expected a non-empty list"),
            ("ou_spectrum", "sampling.invariant", True, "'sampling.invariant': only supported"),
            ("lemonslice_coarsegrain", "model.name", "ou", "coarsegrain expects a 2D model"),
            ("lemonslice_coarsegrain", "reduction.span", [-3.5, 3.5],
             "'reduction.span': must lie within [-pi, pi]"),
            ("lemonslice_coarsegrain", "reduction.bandwidth", 0,
             "'reduction.bandwidth': must be >= 1e-09"),
        ],
        ids=["int-beyond-float", "not-a-number", "below-minimum", "integer-below-minimum",
             "not-a-string", "reversed-pair", "empty-list", "invariant-not-lemon",
             "coarsegrain-1d", "coarsegrain-span-beyond-pi", "coarsegrain-bandwidth-0"],
    )
    def test_invalid_field_raises(self, tmp_path, name, path, value, match):
        config = json.loads(json.dumps(cli.bundled_configs()[name]))
        section, field = path.split(".")
        config[section][field] = value
        with pytest.raises(ConfigError, match=re.escape(match)):
            cli.run_experiment(config, tmp_path / "out")

    @pytest.mark.parametrize(
        "name, section, field, value",
        [
            ("ou_mpc", "plant", "dt", float("nan")),
            ("ou_mpc", "control", "h", float("inf")),
            ("ou_estimate", "sampling", "box", [[float("-inf"), float("inf")]]),
            ("ou_mpc", "control", "alpha", float("nan")),
        ],
        ids=["dt-nan", "h-inf", "box-inf", "alpha-nan"],
    )
    def test_non_finite_number_reports_path(self, tmp_path, capsys, name, section, field, value):
        # json writes and reads these as NaN, Infinity and -Infinity
        config = json.loads(json.dumps(cli.bundled_configs()[name]))
        config[section][field] = value
        path = write_config(tmp_path, "non_finite.json", config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config field '{section}.{field}': expected a finite number" in err
        assert not any(out.iterdir())


class TestRun:
    def test_custom_config_file_produces_artifacts(self, tmp_path, capsys):
        path = write_config(tmp_path, "small.json", SMALL_SPECTRUM)
        out = tmp_path / "artifacts"
        assert run_cli(["run", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["kind"] == "spectrum"
        assert manifest["seed"] == 1
        assert manifest["numpy"] == np.__version__
        assert manifest["fold_lapack"] == generator.fold_lapack() == "numpy"
        assert manifest["blas_threads"] == generator.blas_threads() == 1
        for artifact in manifest["artifacts"]:
            assert (out / artifact).exists()
        capsys.readouterr()

    def test_missing_blas_thread_control_warns_and_writes_null(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(generator, "_NUMPY_BLAS_THREADS", ())
        path = write_config(tmp_path, "small.json", SMALL_SPECTRUM)
        out = tmp_path / "artifacts"
        with pytest.warns(UserWarning, match="no OpenBLAS thread control"):
            assert run_cli(["run", path, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text("utf-8"))["blas_threads"] is None
        capsys.readouterr()

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # without main's pin these two configs differ between one and two
        # OpenBLAS threads: slow_manifold_modes' eigenpairs by up to 1.9e-12,
        # ou_switching's schedule and tracking by up to 4e-15
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "from koopgen import cli, generator\n"
            "print(generator.blas_threads())\n"  # the import pins nothing
            "for name in ('slow_manifold_modes', 'ou_switching'):\n"
            "    assert cli.main(['run', name, '--out', sys.argv[1] + '/' + name]) == 0\n"
        )
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            run = subprocess.run(
                [sys.executable, "-c", code, str(out)], cwd=src, capture_output=True, text=True,
                check=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            )
            assert run.stdout.splitlines()[0] == threads
            outputs[threads] = {
                str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
            }
        assert len(outputs["1"]) == 7
        assert outputs["2"] == outputs["1"]

    def test_eigenvalue_csv_shape(self, tmp_path, capsys):
        path = write_config(tmp_path, "small.json", SMALL_SPECTRUM)
        out = tmp_path / "artifacts"
        run_cli(["run", path, "--out", str(out)])
        capsys.readouterr()
        lines = (out / "eigenvalues.csv").read_text("utf-8").splitlines()
        assert lines[0] == "index,real,imag,timescale"
        assert len(lines) == 1 + 5  # header + one row per dictionary function
        values = sorted(float(l.split(",")[1]) for l in lines[1:])
        assert values[-1] == pytest.approx(0.0, abs=1e-8)

    def test_default_output_directory_is_config_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, "named_run.json", SMALL_SPECTRUM)
        assert run_cli(["run", path]) == 0
        assert (tmp_path / "named_run" / "manifest.json").exists()
        capsys.readouterr()

    def test_seed_flag_overrides_config_seed(self, tmp_path, capsys):
        path = write_config(tmp_path, "small.json", SMALL_SPECTRUM)
        out = tmp_path / "seeded"
        assert run_cli(["run", path, "--out", str(out), "--seed", "123"]) == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["seed"] == 123
        assert manifest["config"]["seed"] == 123
        capsys.readouterr()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, "small.json", SMALL_SPECTRUM)
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            assert run_cli(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        for name in json.loads((outs[0] / "manifest.json").read_text("utf-8"))["artifacts"]:
            first = (outs[0] / name).read_bytes()
            second = (outs[1] / name).read_bytes()
            assert first == second, name
        assert (outs[0] / "manifest.json").read_bytes() == (
            outs[1] / "manifest.json"
        ).read_bytes()

    def test_different_seeds_change_artifacts(self, tmp_path, capsys):
        path = write_config(tmp_path, "small.json", SMALL_SPECTRUM)
        outs = {s: tmp_path / f"seed{s}" for s in (1, 2)}
        for s, out in outs.items():
            assert run_cli(["run", path, "--out", str(out), "--seed", str(s)]) == 0
        capsys.readouterr()
        assert (outs[1] / "eigenfunctions.csv").read_bytes() != (
            outs[2] / "eigenfunctions.csv"
        ).read_bytes()

    def test_run_experiment_rejects_non_object_config(self, tmp_path):
        with pytest.raises(ConfigError, match="JSON object"):
            cli.run_experiment([1, 2, 3], tmp_path / "out")


class TestStrictJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_write_json_rejects_non_finite_values(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(NumericalError, match="out.json"):
            io.write_json(path, {"nested": [1.0, {"value": value}]})
        assert not path.exists()

    def test_non_finite_manifest_exits_1_without_a_partial_file(
        self, tmp_path, capsys, monkeypatch
    ):
        def runner(config, out, seed):
            config["drift"] = float("nan")
            return []

        monkeypatch.setitem(cli._RUNNERS, "spectrum", runner)
        path = write_config(tmp_path, "small.json", SMALL_SPECTRUM)
        out = tmp_path / "artifacts"
        assert run_cli(["run", path, "--out", str(out)]) == 1
        assert "manifest.json" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestRunKinds:
    """One fast end-to-end run per experiment kind not covered above."""

    def test_identify_writes_model_json(self, tmp_path, capsys):
        config = {
            "kind": "identify",
            "seed": 2,
            "model": {"name": "double_well"},
            "dictionary": {"type": "monomials", "degree": 4},
            "sampling": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "m": 500},
            "solver": {"delta": 0.0},
        }
        path = write_config(tmp_path, "identify.json", config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        model = json.loads((out / "model.json").read_text("utf-8"))
        drift_terms = {
            (entry["term"], round(entry["coefficient"], 6))
            for entry in model["drift"][0]
        }
        assert ("x1", 4.0) in drift_terms and ("x1^3", -4.0) in drift_terms

    def test_identify_from_noisy_samples(self, tmp_path, capsys):
        config = {
            "kind": "identify",
            "seed": 2,
            "model": {"name": "double_well"},
            "dictionary": {"type": "monomials", "degree": 4},
            "sampling": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "m": 4000, "noise_std": 0.1},
            "solver": {"delta": 0.1},
        }
        path = write_config(tmp_path, "noisy.json", config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        model = json.loads((out / "model.json").read_text("utf-8"))
        drift = {entry["term"]: entry["coefficient"] for entry in model["drift"][0]}
        assert drift["x1"] == pytest.approx(4.0, abs=0.05)
        assert drift["x1^3"] == pytest.approx(-4.0, abs=0.05)

    def test_legendre_estimate_labels_generator_rows(self, tmp_path, capsys):
        config = dict(
            SMALL_SPECTRUM,
            kind="estimate",
            dictionary={"type": "legendre", "degree": 2, "domain": [[-2.0, 2.0]]},
        )
        path = write_config(tmp_path, "legendre.json", config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "generator.csv").read_text("utf-8").splitlines()
        assert lines[0].split(",") == ["function", "P0", "P1", "P2"]
        assert [line.split(",")[0] for line in lines[1:]] == ["P0", "P1", "P2"]

    def test_legendre_spectrum_writes_modes(self, tmp_path, capsys):
        config = dict(
            SMALL_SPECTRUM,
            dictionary={"type": "legendre", "degree": 4, "domain": [[-2.0, 2.0]]},
            spectral=dict(SMALL_SPECTRUM["spectral"], modes=True),
        )
        path = write_config(tmp_path, "legendre.json", config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert "modes.csv" in manifest["artifacts"] and (out / "modes.csv").exists()

    def test_conserved_finds_duffing_energy(self, tmp_path, capsys):
        config = {
            "kind": "conserved",
            "seed": 11,
            "model": {"name": "duffing"},
            "dictionary": {"type": "monomials", "degree": 4},
            "sampling": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "m": 1500},
        }
        path = write_config(tmp_path, "conserved.json", config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "conserved.csv").read_text("utf-8").splitlines()
        header = lines[0].split(",")
        assert header[0] == "function"
        assert len(header) >= 2  # at least one conserved quantity found

    def test_coarsegrain_artifacts(self, tmp_path, capsys):
        config = {
            "kind": "coarsegrain",
            "seed": 42,
            "model": {"name": "lemon_slice", "k": 4, "beta": 1.0},
            "sampling": {"invariant": True, "m": 4000},
            "reduction": {
                "degree": 12,
                "span": [-2.8, 2.8],
                "centers": 15,
                "bandwidth": 0.4,
                "grid": 51,
            },
        }
        path = write_config(tmp_path, "cg.json", config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "reduced_model.csv").read_text("utf-8").splitlines()
        assert lines[0] == "z,potential,drift,diffusion"
        assert len(lines) == 1 + 51
        data = np.array([l.split(",") for l in lines[1:]], dtype=float)
        assert np.all(data[:, 3] > 0.0)  # diffusion stays positive

    def test_control_mpc_tracks_constant_reference(self, tmp_path, capsys):
        config = {
            "kind": "control-mpc",
            "seed": 7,
            "plant": {
                "name": "ou",
                "inputs": [-5.0, 5.0],
                "degree": 8,
                "box": [[-2.0, 2.0]],
                "m": 100,
                "x0": 0.0,
            },
            "reference": {"type": "constant", "value": 1.0},
            "control": {"horizon": [0.0, 4.0], "h": 0.05, "q": 2, "realizations": 30},
        }
        path = write_config(tmp_path, "mpc.json", config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "control.csv").read_text("utf-8").splitlines()
        assert lines[0] == "t,y1,u,reference1,stage_cost"
        data = np.array([l.split(",") for l in lines[1:]], dtype=float)
        tail = data[data[:, 0] >= 2.0]
        assert abs(tail[:, 1] - tail[:, 3]).mean() < 0.3

    def test_control_switching_schedule_and_tracking(self, tmp_path, capsys):
        config = {
            "kind": "control-switching",
            "seed": 4,
            "plant": {
                "name": "ou",
                "inputs": [-5.0, 5.0],
                "degree": 8,
                "box": [[-2.0, 2.0]],
                "m": 100,
                "x0": -1.0,
            },
            "reference": {"type": "tanh", "center": 2.0},
            "control": {"horizon": [0.0, 4.0], "h": 0.05, "passes": 8, "max_iter": 60},
        }
        path = write_config(tmp_path, "sto.json", config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        schedule = json.loads((out / "schedule.json").read_text("utf-8"))
        times = schedule["switch_times"]
        assert len(times) == 1 + 16  # start time plus passes * n_inputs switch times
        assert times == sorted(times)
        lines = (out / "tracking.csv").read_text("utf-8").splitlines()
        assert lines[0] == "t,readout1,reference1"
        data = np.array([l.split(",") for l in lines[1:]], dtype=float)
        rms = np.sqrt(np.mean((data[:, 1] - data[:, 2]) ** 2))
        assert rms < 0.6

    def test_bundled_switching_converges(self, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            assert run_cli(["run", "ou_switching", "--out", str(out)]) == 0
        capsys.readouterr()
        schedule = json.loads((out / "schedule.json").read_text("utf-8"))
        assert schedule["converged"] is True
        assert schedule["iterations"] < 150
        assert schedule["projected_gradient_norm"] < 1e-6
        assert schedule["objective"] <= 0.172279  # where 150 gradient steps stopped

    def test_switching_warns_and_records_nonconvergence(self, tmp_path, capsys):
        config = json.loads(json.dumps(cli.bundled_configs()["ou_switching"]))
        config["control"].update(passes=4, max_iter=1)
        path = write_config(tmp_path, "short_sto.json", config)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="did not converge"):
            assert run_cli(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        schedule = json.loads((out / "schedule.json").read_text("utf-8"))
        assert schedule["converged"] is False

    def test_switching_rejects_step_not_dividing_horizon(self, tmp_path, capsys):
        config = json.loads(json.dumps(cli.bundled_configs()["ou_switching"]))
        config["control"].update(h=0.3, passes=2, max_iter=1)
        path = write_config(tmp_path, "bad_step.json", config)
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out", str(out)]) == 1
        assert "whole steps" in capsys.readouterr().err
        assert not (out / "schedule.json").exists()

    def test_switching_rejects_piecewise_reference(self, tmp_path, capsys):
        config = json.loads(json.dumps(cli.bundled_configs()["ou_switching"]))
        config["reference"] = {"type": "piecewise", "times": [2.0], "values": [0.0, 1.0]}
        path = write_config(tmp_path, "bad_sto.json", config)
        assert run_cli(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert "differentiable" in capsys.readouterr().err
