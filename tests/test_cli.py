import csv
import errno
import json
import multiprocessing
import os
import pathlib
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pseudobath
from pseudobath import cli, volterra
from pseudobath.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_THRESHOLD,
    _fmt,
    _row_template,
    _validate_rho,
    main,
)
from pseudobath.config import (
    ParseError,
    ValidationError,
    apply_override,
    config_to_dict,
    parse_config,
)
from pseudobath.linalg import LinAlgError
from pseudobath.model import lorentz_correlation


def base_doc(**overrides):
    doc = {
        "system": {"n": 1, "matrix": [[[0.5, 0.0]]]},
        "bath": {"peaks": [{"g": 0.5, "gamma": 0.4, "epsilon": 0.1}], "eta": 0.0},
        "initial": {"psi": [[0.6, 0.0]], "psi0": [0.8, 0.0]},
        "time": {"t_max": 5.0, "points": 51},
    }
    doc.update(overrides)
    return doc


def _limit_address_space():
    """Cap the address space of a child process at 2 GiB before it starts."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_cli(argv, timeout=30, limit_memory=False):
    """Run ``python -m pseudobath.cli`` in a fresh process.  With
    ``limit_memory`` its address space is capped at 2 GiB (one BLAS thread,
    so that the BLAS buffers fit well inside the cap)."""
    src = str(pathlib.Path(pseudobath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    if limit_memory:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "pseudobath.cli", *argv], env=env,
        capture_output=True, text=True, timeout=timeout,
        preexec_fn=_limit_address_space if limit_memory else None,
    )


def python_process(code, timeout=60):
    """Run ``python -c code`` in a fresh process that imports this checkout."""
    src = str(pathlib.Path(pseudobath.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=timeout,
    )


def run_python(code, timeout=60):
    """Run ``python -c code`` like ``python_process``; require exit 0 and
    return its standard output."""
    out = python_process(code, timeout)
    assert out.returncode == 0, out.stderr
    return out.stdout


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_round_trip_identity(self):
        cfg = parse_config(json.dumps(base_doc()))
        again = parse_config(json.dumps(config_to_dict(cfg)))
        assert config_to_dict(again) == config_to_dict(cfg)
        np.testing.assert_array_equal(again.system.matrix, cfg.system.matrix)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_config("{not json")

    def test_missing_field_names_path(self):
        doc = base_doc()
        del doc["time"]
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "$.time"

    def test_bad_peak_names_indexed_path(self):
        doc = base_doc()
        doc["bath"]["peaks"][0]["gamma"] = -1.0
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "$.bath.peaks[0]"

    def test_bad_complex_entry(self):
        doc = base_doc()
        doc["initial"]["psi"][0] = [0.6]
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "$.initial.psi[0]"

    def test_non_hermitian_system_rejected(self):
        doc = base_doc()
        doc["system"] = {"n": 2, "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]}
        doc["initial"] = {"psi": [[1.0, 0.0], [0.0, 0.0]], "psi0": [0.0, 0.0]}
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "$.system.matrix"

    def test_apply_override(self):
        doc = base_doc()
        apply_override(doc, "bath.peaks[0].g", 1.25)
        apply_override(doc, "time.t_max", 2.0)
        assert doc["bath"]["peaks"][0]["g"] == 1.25
        assert doc["time"]["t_max"] == 2.0

    def test_grid_size_cap(self):
        for section, key, low in (("time", "points", 2), ("solver", "oracle_steps", 10)):
            doc = base_doc()
            doc.setdefault(section, {})[key] = 10**12
            assert config_to_dict(parse_config(json.dumps(doc)))[section][key] == 10**12
            doc[section][key] = 10**12 + 1
            with pytest.raises(ValidationError) as err:
                parse_config(json.dumps(doc))
            assert err.value.path == f"$.{section}.{key}"
            assert str(err.value).endswith(f"expected an integer in [{low}, 10**12]")

    def test_apply_override_bad_path(self):
        with pytest.raises(ValidationError):
            apply_override(base_doc(), "bath.nope.g", 1.0)


class TestInputErrors:
    """Bad input from the file or the command line exits 2 naming the field."""

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["compare", "--oracle-steps", "5"], "$.solver.oracle_steps"),
        ],
    )
    def test_bad_override(self, tmp_path, capsys, argv, path):
        cfg = write_config(tmp_path, base_doc())
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert path in capsys.readouterr().err

    def test_tolerance_options_are_gone(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        for option in ("--rtol", "--atol"):
            out = run_cli(["simulate", option, "1e-9", "--config", cfg, "--out", str(tmp_path)])
            assert out.returncode == EXIT_CONFIG
            assert f"unrecognized arguments: {option}" in out.stderr
            assert "Traceback" not in out.stderr

    def test_legacy_nan_rtol_is_ignored(self, tmp_path):
        # a NaN rtol used to make the adaptive integrator loop forever
        doc = base_doc()
        doc["solver"] = {"rtol": float("nan"), "atol": 1e-12}
        out = run_cli(["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
        assert out.returncode == EXIT_OK, out.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["solver"] == {"oracle_steps": 4000}
        assert set(report["tolerances"]) == {"rho_hermiticity", "rho_trace", "rho_psd"}

    def test_legacy_cutoff_is_ignored(self, tmp_path):
        doc = base_doc()
        doc["bath"]["cutoff"] = 50
        out = run_cli(["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
        assert out.returncode == EXIT_OK, out.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert "cutoff" not in report["config"]["bath"]

    @pytest.mark.parametrize("command", ["simulate", "check", "compare"])
    @pytest.mark.parametrize("peak", [{"g": 1e160, "gamma": 0.4}, {"g": 1e5, "gamma": 1e-300}])
    def test_overflowing_peak(self, tmp_path, capsys, command, peak):
        doc = base_doc(bath={"peaks": [peak], "eta": 0.5})
        out = tmp_path / "out"
        code = main([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "$.bath.peaks[0]: g^2/gamma overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_infinite_dilation_threshold(self, tmp_path, capsys, command):
        # each g^2/gamma is finite, but (eta/4) * g^2/gamma = 2.5e308 is not
        doc = base_doc(bath={"peaks": [{"g": 1.0, "gamma": 0.1}], "eta": 1e308})
        out = tmp_path / "out"
        code = main([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "invalid input: dilation threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, eta", [(["compare"], 0.0), (["cutoff-study", "--omegas", "2"], 0.5)]
    )
    def test_overflowing_kernel(self, tmp_path, argv, eta):
        # each g^2/gamma = 1e308 is finite, but their sum G(0) is not
        peak = {"g": 1e154, "gamma": 1.0, "epsilon": 0.1}
        doc = base_doc(bath={"peaks": [peak, peak], "eta": eta})
        doc["solver"] = {"oracle_steps": 100}
        out = tmp_path / "out"
        result = run_cli(argv + ["--config", write_config(tmp_path, doc), "--out", str(out)])
        assert result.returncode == EXIT_CONFIG
        # the message alone: no numpy overflow warning before it
        assert result.stderr == "invalid input: kernel is not finite on the grid\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("simulate", base_doc(time={"t_max": 5.0, "points": 10**12})),
            ("compare", base_doc(solver={"oracle_steps": 10**12})),
        ],
    )
    def test_oversized_grid_is_out_of_memory(self, tmp_path, command, doc):
        # under a 2 GiB address-space limit the 7.28 TiB array is refused
        # whatever the machine's overcommit setting
        out = tmp_path / "out"
        result = run_cli(
            [command, "--config", write_config(tmp_path, doc), "--out", str(out)],
            limit_memory=True,
        )
        assert result.returncode == EXIT_CONFIG
        assert result.stderr.startswith("out of memory: Unable to allocate 7.28 TiB")
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, doc, extra",
        [
            ("simulate", base_doc(time={"t_max": 5.0, "points": 2**63 - 1}), []),
            ("simulate", base_doc(time={"t_max": 5.0, "points": 10**20}), []),
            ("simulate", base_doc(time={"t_max": 5.0, "points": 10**12 + 1}), []),
            ("compare", base_doc(solver={"oracle_steps": 2**63 - 1}), []),
            ("compare", base_doc(), ["--oracle-steps", str(2**63 - 1)]),
        ],
        ids=["points-2**63-1", "points-1e20", "points-1e12+1", "steps-2**63-1", "option"],
    )
    def test_grid_size_above_the_cap(self, tmp_path, command, doc, extra):
        # rejected while parsing, before numpy sees the size
        field = "$.time.points: expected an integer in [2, "
        if command == "compare":
            field = "$.solver.oracle_steps: expected an integer in [10, "
        out = tmp_path / "out"
        result = run_cli(
            [command, "--config", write_config(tmp_path, doc), "--out", str(out), *extra],
            limit_memory=True,
        )
        assert result.returncode == EXIT_CONFIG
        assert result.stderr == f"invalid config: {field}10**12]\n"
        assert not out.exists()

    def test_out_of_memory_sweep_point_is_recorded(self, tmp_path):
        doc = base_doc(time={"t_max": 1.0, "points": 6})
        doc["sweep"] = {"time.points": [6, 10**12, 2**63 - 1]}
        out = tmp_path / "out"
        result = run_cli(
            ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)],
            limit_memory=True,
        )
        assert result.returncode == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert [entry["status"] for entry in manifest] == ["ok", "error", "error"]
        assert manifest[1]["error"].startswith("out of memory: Unable to allocate")
        # above the cap: rejected while parsing
        assert manifest[2]["error"] == (
            "invalid config: $.time.points: expected an integer in [2, 10**12]"
        )

    def test_bad_cutoff(self, tmp_path, capsys):
        doc = base_doc()
        doc["bath"]["eta"] = 0.5
        doc["solver"] = {"oracle_steps": 100}
        for omega, shown in (("-1", "-1.0"), ("inf", "inf")):
            argv = ["cutoff-study", "--config", write_config(tmp_path, doc), "--omegas", omega]
            assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err == f"invalid input: cutoff must be positive and finite, got {shown}\n"

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_threshold(self, tmp_path, capsys, value):
        argv = ["compare", "--config", write_config(tmp_path, base_doc()), "--threshold", value]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "--threshold" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "omegas, code", [(["20", "-1"], EXIT_CONFIG), (["20", "40"], EXIT_NUMERICAL)]
    )
    def test_cutoff_study_checks_every_omega_first(self, tmp_path, monkeypatch, omegas, code):
        # 1000 steps over t_max = 5 resolve Omega = 20 but not Omega = 40
        doc = base_doc()
        doc["bath"]["eta"] = 0.5
        doc["solver"] = {"oracle_steps": 1000}
        marches = []
        monkeypatch.setattr(volterra, "_solve_volterra_core", lambda *a: marches.append(a))
        argv = ["cutoff-study", "--config", write_config(tmp_path, doc), "--omegas", *omegas]
        assert main(argv + ["--out", str(tmp_path / "out")]) == code
        assert marches == []

    @pytest.mark.parametrize("t_min", ["nan", "100"])
    def test_cutoff_study_checks_t_min_first(self, tmp_path, monkeypatch, capsys, t_min):
        doc = base_doc()
        doc["bath"]["eta"] = 0.5
        doc["solver"] = {"oracle_steps": 1000}
        marches = []
        monkeypatch.setattr(volterra, "_solve_volterra_core", lambda *a: marches.append(a))
        argv = ["cutoff-study", "--config", write_config(tmp_path, doc), "--omegas", "20"]
        argv += ["--t-min", t_min, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert "--t-min" in capsys.readouterr().err
        assert marches == []

    @pytest.mark.parametrize(
        "field, value",
        [
            ("time.t_max", float("nan")),
            ("time.t_max", float("inf")),
            ("system.matrix[0][0]", [float("nan"), 0.0]),
            ("bath.eta", float("nan")),
            ("bath.eta", float("inf")),
            ("bath.peaks[0].epsilon", float("nan")),
            ("bath.peaks[0].epsilon", float("inf")),
            ("bath.peaks[0].g", float("inf")),
            ("bath.peaks[0].gamma", float("inf")),
        ],
    )
    def test_non_finite_value(self, tmp_path, capsys, field, value):
        doc = base_doc()
        apply_override(doc, field, value)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"$.{field}:" in capsys.readouterr().err


class TestFileErrors:
    """An operating-system failure exits 2 with the system's message."""

    @pytest.mark.parametrize(
        "argv",
        [["simulate"], ["check"], ["compare"], ["cutoff-study", "--omegas", "20"], ["sweep"]],
        ids=lambda argv: argv[0],
    )
    def test_out_under_a_regular_file(self, tmp_path, capsys, argv):
        doc = base_doc(bath={"peaks": [{"g": 0.5, "gamma": 0.4}], "eta": 0.5})
        doc["solver"] = {"oracle_steps": 1000}
        doc["sweep"] = {"bath.peaks[0].g": [0.3, 0.6]}
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        code = main([*argv, "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"file error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out}'\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_point_dir_is_a_regular_file(self, tmp_path, capsys, jobs):
        doc = base_doc(time={"t_max": 1.0, "points": 6})
        doc["sweep"] = {"bath.peaks[0].g": [0.3, 0.6, 0.9]}
        out = tmp_path / "out"
        out.mkdir()
        (out / "point_0001").write_text("")
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv + ["--jobs", jobs]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert [entry["status"] for entry in manifest] == ["ok", "error", "ok"]
        error = f"file error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: "
        assert manifest[1]["error"] == error + repr(str(out / "point_0001"))
        assert capsys.readouterr().err == f"point_0001: {manifest[1]['error']}\n"


class TestSimulate:
    def test_outputs_and_initial_row(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 51
        first = rows[0]
        assert float(first["t"]) == 0.0
        # the t=0 reduced density matrix of psi=(0.6,), psi0=0.8
        assert float(first["rho_0_0_re"]) == pytest.approx(0.64, abs=1e-12)
        assert float(first["rho_0_1_re"]) == pytest.approx(0.48, abs=1e-12)
        assert float(first["rho_1_1_re"]) == pytest.approx(0.36, abs=1e-12)
        assert float(first["excited_population"]) == pytest.approx(0.36, abs=1e-12)
        report = json.loads((out / "report.json").read_text())
        assert report["dilation"]["closed_form_pass"] is True
        assert report["trajectory"]["points"] == 51
        assert report["trajectory"]["max_trace_deviation"] < 1e-10

    def test_population_decays(self, tmp_path):
        doc = base_doc()
        doc["bath"]["peaks"][0] = {"g": 0.5, "gamma": 1.0, "epsilon": 0.0}
        doc["initial"] = {"psi": [[1.0, 0.0]], "psi0": [0.0, 0.0]}
        doc["time"] = {"t_max": 20.0, "points": 101}
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["excited_population"]) < 0.05

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == EXIT_OK
        for name in ("trajectory.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_closed_system_default_tolerances(self, tmp_path):
        doc = base_doc()
        doc["bath"] = {"peaks": [], "eta": 0.0}
        doc["initial"] = {"psi": [[1.0, 0.0]], "psi0": [0.0, 0.0]}
        doc["time"] = {"t_max": 10.0, "points": 101}
        doc["solver"] = {"rtol": 1e-9, "atol": 1e-12, "oracle_steps": 4000}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"file error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{path}'\n"
        )

    def test_invalid_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


class TestRhoRows:
    def test_row_template_matches_per_entry_format(self):
        row = [0.0, -0.0, 1e-300, -1e-300, 3, -7, 0.1, 1.0 / 3.0, 2.5e17, 5e-324]
        assert _row_template(len(row)) % tuple(row) == ",".join(_fmt(x) for x in row)

    @staticmethod
    def valid_stack():
        # mixtures of |0><0| and a pure state (|0> + |1>)/sqrt(2), trace 1, PSD
        pure = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        ground = np.diag([1.0, 0.0]).astype(complex)
        w = np.linspace(0.0, 1.0, 5)[:, None, None]
        return np.linspace(0.0, 2.0, 5), w * pure + (1.0 - w) * ground

    def test_valid_stack_summary(self):
        t, rho = self.valid_stack()
        trace_dev, min_eig = _validate_rho(t, rho)
        assert trace_dev <= 1e-15
        assert abs(min_eig) <= 1e-15

    @pytest.mark.parametrize(
        "index, damage, message",
        [
            (3, lambda m: m + np.array([[0.0, 1e-6], [0.0, 0.0]]), r"t=1\.5 not Hermitian"),
            (2, lambda m: m + np.diag([0.0, 1e-6]), r"t=1\.0 trace deviates"),
            (4, lambda m: np.diag([1.5, -0.5]).astype(complex), r"t=2\.0 not PSD"),
            (1, lambda m: m * np.nan, r"t=0\.5 not Hermitian"),
        ],
    )
    def test_validator_names_first_failing_time(self, index, damage, message):
        t, rho = self.valid_stack()
        for k in range(index, len(rho)):
            rho[k] = damage(rho[k])
        with pytest.raises(LinAlgError, match=message):
            _validate_rho(t, rho)


class TestCheck:
    def test_lorentz_bath_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "dilation.json").read_text())
        assert report["spectral_pass"] and report["closed_form_pass"]
        assert report["threshold"] == 0.0
        assert json.loads(capsys.readouterr().out) == report

    def test_ohmic_below_threshold_fails(self, tmp_path):
        doc = base_doc()
        doc["system"] = {"n": 1, "matrix": [[[0.2, 0.0]]]}
        doc["bath"] = {"peaks": [{"g": 1.0, "gamma": 1.0}], "eta": 1.0}
        out = tmp_path / "out"
        assert main(["check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "dilation.json").read_text())
        assert not report["closed_form_pass"]
        assert not report["spectral_pass"]
        assert report["threshold"] == pytest.approx(0.25)


class TestCompare:
    def test_routes_agree_below_default_threshold(self, tmp_path, capsys):
        doc = base_doc()
        doc["solver"] = {"oracle_steps": 2000}
        out = tmp_path / "out"
        code = main(["compare", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "compare.json").read_text())
        assert report["comparison"]["sup_deviation"] < 1e-6
        assert report["comparison"]["l2_deviation"] < 1e-6

    def test_reports_oracle_error_estimate(self, tmp_path):
        doc = base_doc()
        doc["solver"] = {"oracle_steps": 2000}
        out = tmp_path / "out"
        code = main(["compare", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == EXIT_OK
        estimate = json.loads((out / "compare.json").read_text())["comparison"][
            "oracle_error_estimate"
        ]
        cfg = parse_config(json.dumps(doc))
        oracle = volterra.solve_renormalized(
            cfg.system, 0.0, lambda t: lorentz_correlation(cfg.bath.peaks, t),
            cfg.initial.psi, cfg.t_max, 2000, extrapolate=True,
        )
        assert estimate == oracle.error_estimate
        assert 0.0 < estimate < 1e-4

    def test_unreachable_threshold_exits_nonzero(self, tmp_path):
        doc = base_doc()
        doc["solver"] = {"oracle_steps": 2000}
        code = main(
            [
                "compare",
                "--config",
                write_config(tmp_path, doc),
                "--out",
                str(tmp_path / "out"),
                "--threshold",
                "1e-18",
            ]
        )
        assert code == EXIT_THRESHOLD

    def test_non_finite_deviation_is_a_numerical_failure(self, tmp_path, capsys):
        doc = base_doc()
        doc["system"] = {"n": 1, "matrix": [[[1e300, 0.0]]]}
        doc["solver"] = {"oracle_steps": 100}
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["compare", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "numerical failure: route deviation is not finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "compare.json").exists()

    def test_ohmic_route(self, tmp_path):
        doc = base_doc()
        doc["bath"]["eta"] = 1.0
        doc["solver"] = {"oracle_steps": 2000}
        out = tmp_path / "out"
        code = main(["compare", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == EXIT_OK


class TestCutoffStudy:
    def test_requires_ohmic_bath(self, tmp_path):
        code = main(
            [
                "cutoff-study",
                "--config",
                write_config(tmp_path, base_doc()),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_non_finite_deviation_is_a_numerical_failure(self, tmp_path, capsys):
        doc = base_doc()
        doc["system"] = {"n": 1, "matrix": [[[1e300, 0.0]]]}
        doc["bath"]["eta"] = 0.5
        doc["solver"] = {"oracle_steps": 100}
        out = tmp_path / "out"
        argv = ["cutoff-study", "--omegas", "2", "--config", write_config(tmp_path, doc)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "numerical failure: deviation at cutoff 2.0 is not finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_writes_deviation_table(self, tmp_path):
        doc = base_doc()
        doc["bath"] = {"peaks": [], "eta": 0.5}
        doc["system"] = {"n": 1, "matrix": [[[1.0, 0.0]]]}
        doc["initial"] = {"psi": [[1.0, 0.0]], "psi0": [0.0, 0.0]}
        doc["solver"] = {"oracle_steps": 4000}
        out = tmp_path / "out"
        code = main(
            [
                "cutoff-study",
                "--config",
                write_config(tmp_path, doc),
                "--out",
                str(out),
                "--omegas",
                "20",
                "40",
            ]
        )
        assert code == EXIT_OK
        lines = (out / "cutoff_study.csv").read_text().strip().splitlines()
        assert lines[0] == "Omega,sup_deviation"
        assert len(lines) == 3
        devs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(d < 1.0 for d in devs)


class TestSweep:
    def test_cartesian_sweep(self, tmp_path):
        doc = base_doc()
        doc["time"] = {"t_max": 2.0, "points": 11}
        doc["sweep"] = {"bath.peaks[0].g": [0.3, 0.6], "system.matrix[0][0][0]": [0.0, 0.5, 1.0]}
        out = tmp_path / "out"
        code = main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest) == 6
        for entry in manifest:
            point = out / entry["dir"]
            assert (point / "trajectory.csv").exists()
            report = json.loads((point / "report.json").read_text())
            g = entry["params"]["bath.peaks[0].g"]
            assert report["config"]["bath"]["peaks"][0]["g"] == g

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_point_does_not_stop_the_sweep(self, tmp_path, capsys, jobs):
        doc = base_doc()
        doc["time"] = {"t_max": 1.0, "points": 6}
        doc["sweep"] = {"bath.peaks[0].gamma": [0.4, -1.0, 0.6]}
        out = tmp_path / "out"
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv + ["--jobs", jobs]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert [entry["status"] for entry in manifest] == ["ok", "error", "ok"]
        assert "peak width must be positive" in manifest[1]["error"]
        assert "error" not in manifest[0] and "error" not in manifest[2]
        assert sorted(p.parent.name for p in out.glob("*/report.json")) == [
            "point_0000",
            "point_0002",
        ]
        assert "point_0001" in capsys.readouterr().err

    def test_sweep_requires_section(self, tmp_path):
        code = main(
            [
                "sweep",
                "--config",
                write_config(tmp_path, base_doc()),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_workers_bounded_by_points(self, tmp_path, monkeypatch):
        # the stand-in runs each share in this process, so a bound that
        # fails starts no process
        started = []

        class InlineProcess:
            def __init__(self, target, args):
                self.target, self.args = target, args

            def start(self):
                started.append(self.args[0])
                self.target(*self.args)

            def terminate(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr(multiprocessing, "Process", InlineProcess)
        doc = base_doc()
        doc["time"] = {"t_max": 1.0, "points": 6}
        doc["sweep"] = {"bath.peaks[0].gamma": [0.3, 0.6, 0.9]}
        out = tmp_path / "out"
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv + ["--jobs", "64"]) == EXIT_OK
        # the parent runs point 0; two workers run one point each
        assert [[os.path.basename(d) for _, d in share] for share in started] == [
            ["point_0001"],
            ["point_0002"],
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [entry["status"] for entry in manifest] == ["ok"] * 3

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_must_be_positive(self, tmp_path, capsys, jobs):
        doc = base_doc()
        doc["sweep"] = {"bath.peaks[0].gamma": [0.3, 0.6]}
        out = tmp_path / "out"
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv + ["--jobs", jobs]) == EXIT_CONFIG
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_matches_serial(self, tmp_path):
        doc = base_doc()
        doc["time"] = {"t_max": 1.0, "points": 6}
        doc["sweep"] = {"bath.peaks[0].gamma": [0.3, 0.6]}
        cfg = write_config(tmp_path, doc)
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["sweep", "--config", cfg, "--out", str(serial)]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(parallel), "--jobs", "2"]) == EXIT_OK
        for sub in ("point_0000", "point_0001"):
            a = (serial / sub / "trajectory.csv").read_bytes()
            b = (parallel / sub / "trajectory.csv").read_bytes()
            assert a == b

    def test_uneven_split_matches_serial(self, tmp_path):
        # 5 points over 3 processes: shares of 2, 2 and 1 points
        doc = base_doc()
        doc["time"] = {"t_max": 1.0, "points": 6}
        doc["sweep"] = {"bath.peaks[0].gamma": [0.2, 0.3, 0.4, 0.5, 0.6]}
        cfg = write_config(tmp_path, doc)
        trees = []
        for jobs in ("1", "3"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == EXIT_OK
            files = sorted(p for p in out.rglob("*") if p.is_file())
            trees.append({p.relative_to(out): p.read_bytes() for p in files})
        assert len(trees[0]) == 11
        assert trees[0] == trees[1]

    @pytest.mark.parametrize(
        "failure, exit_code", [("raise KeyError(out_dir)", 1), ("os._exit(7)", 7)]
    )
    def test_failing_worker_ends_the_sweep(self, tmp_path, failure, exit_code):
        # worker 1 of 2 runs points 1 and 3; the patch reaches it through fork
        out = tmp_path / "out"
        code = _failing_sweep_script(tmp_path, out, "point_0001", failure)
        result = python_process(code + "sys.exit(cli.main(argv))\n", timeout=60)
        assert result.returncode != 0
        assert f"sweep worker 1 exited with code {exit_code}" in result.stderr
        assert not (out / "manifest.json").exists()

    def test_failing_parent_share_joins_the_workers(self, tmp_path):
        out = tmp_path / "out"
        code = _failing_sweep_script(tmp_path, out, "point_0000", "raise KeyError(out_dir)")
        code += """
try:
    cli.main(argv)
except KeyError:
    print(multiprocessing.active_children())
"""
        assert run_python(code, timeout=60) == "[]\n"


def _failing_sweep_script(tmp_path, out, point, failure):
    """Source of a script that sets up a 4-point ``sweep --jobs 2`` as
    ``argv`` and makes ``point`` run the statement ``failure``."""
    doc = base_doc()
    doc["time"] = {"t_max": 1.0, "points": 6}
    doc["sweep"] = {"bath.peaks[0].gamma": [0.3, 0.4, 0.5, 0.6]}
    argv = ["sweep", "--jobs", "2", "--config", write_config(tmp_path, doc), "--out", str(out)]
    return f"""
import multiprocessing, os, sys
from pseudobath import cli

multiprocessing.set_start_method("fork")
simulate = cli._simulate

def failing(cfg, out_dir):
    if out_dir.endswith({point!r}):
        {failure}
    simulate(cfg, out_dir)

cli._simulate = failing
argv = {argv!r}
"""


# prints the scipy modules loaded so far, one line, in a fresh process
_SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
# likewise the concurrent.futures and multiprocessing modules, as JSON
_PROCESS_MODULES = (
    "import json; print(json.dumps(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('concurrent', 'multiprocessing'))))"
)

class TestImports:
    """Only the commands that propagate or march load scipy, and only a
    sweep that starts workers loads multiprocessing."""

    def test_cli_import_is_numpy_only(self):
        assert run_python("import sys, pseudobath.cli; " + _SCIPY_MODULES) == "[]\n"

    def test_check_is_numpy_only(self, tmp_path):
        argv = ["check", "--config", write_config(tmp_path, base_doc()), "--out", str(tmp_path)]
        code = f"import sys; from pseudobath.cli import main; main({argv!r}); " + _SCIPY_MODULES
        assert run_python(code).splitlines()[-1] == "[]"
        assert (tmp_path / "dilation.json").exists()

    @pytest.mark.parametrize("argv", [[], ["check"], ["sweep", "--jobs", "1"]])
    def test_no_process_modules_without_workers(self, tmp_path, argv):
        doc = base_doc(time={"t_max": 1.0, "points": 6}, sweep={"bath.peaks[0].gamma": [0.3]})
        if argv:
            argv += ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]
        call = f"main({argv!r}); " if argv else ""
        code = f"import sys; from pseudobath.cli import main; {call}" + _PROCESS_MODULES
        loaded = json.loads(run_python(code).splitlines()[-1])
        if "sweep" in argv:
            # scipy.linalg imports numpy.testing, which loads the base of
            # concurrent.futures but neither its process pool nor multiprocessing
            loaded = [m for m in loaded if m.startswith("multiprocessing")
                      or m == "concurrent.futures.process"]
        assert loaded == []

    def test_sweep_loads_scipy_linalg_before_the_pool(self, tmp_path):
        # fork-started workers inherit what the parent has imported
        doc = base_doc()
        doc["time"] = {"t_max": 1.0, "points": 6}
        doc["sweep"] = {"bath.peaks[0].gamma": [0.3, 0.6]}
        argv = ["sweep", "--jobs", "2", "--config", write_config(tmp_path, doc)]
        argv += ["--out", str(tmp_path / "out")]
        code = f"""
import multiprocessing, sys
from pseudobath import cli

class InlineProcess:
    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        print("scipy.linalg" in sys.modules)
        self.target(*self.args)

    def terminate(self):
        pass

    def join(self):
        pass

multiprocessing.Process = InlineProcess
sys.exit(cli.main({argv!r}))
"""
        assert run_python(code) == "True\n"
