import contextlib
import csv
import errno
import inspect
import io
import itertools
import json
import math
import multiprocessing
import os
import pathlib
import random
import resource
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fuzz import SPECIAL

import pseudobath
from pseudobath import cli, dynamics, linalg, pseudomode, volterra
from pseudobath.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_THRESHOLD,
    _validate_rho,
    main,
)
from pseudobath.config import (
    ConfigError,
    ValidationError,
    apply_override,
    config_to_dict,
    parse_config,
)
from pseudobath.csvformat import _sources
from pseudobath.linalg import CHUNK_ROWS, LinAlgError
from pseudobath.model import InitialState, ModelError, SystemHamiltonian
from pseudobath.pseudomode import build_effective_hamiltonian, dilation_threshold, optical_potential


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


def inline_processes(patch, on_start):
    """Give every start method of ``multiprocessing`` a stand-in ``Process``
    that, when started, calls ``on_start`` with its share of the sweep and
    then runs its target in this process, so that a sweep's workers start no
    process; ``patch`` sets the attribute (``monkeypatch.setattr``, or
    ``setattr`` in a process of its own)."""

    class InlineProcess:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            on_start(self.args[0])
            self.target(*self.args)

        def terminate(self):
            pass

        def join(self):
            pass

    for method in multiprocessing.get_all_start_methods():
        patch(multiprocessing.get_context(method), "Process", InlineProcess)


class TestParseConfig:
    def test_round_trip_identity(self):
        cfg = parse_config(json.dumps(base_doc()))
        again = parse_config(json.dumps(config_to_dict(cfg)))
        assert config_to_dict(again) == config_to_dict(cfg)
        np.testing.assert_array_equal(again.system.matrix, cfg.system.matrix)

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="^malformed JSON: "):
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

    def test_round_trip_of_complex_entries(self):
        # complex off-diagonal pairs tell a transposed matrix from H itself
        matrix = [[[1, -0.0], [0.25, -0.5]], [[0.25, 0.5], [-2.0, 0]]]
        doc = base_doc(system={"n": 2, "matrix": matrix},
                       initial={"psi": [[0.6, -0.0], [0, 0.48]], "psi0": [-0.0, 0.64]})
        cfg = parse_config(json.dumps(doc))
        again = parse_config(json.dumps(config_to_dict(cfg)))
        assert again.system.matrix.tobytes() == cfg.system.matrix.tobytes()
        assert again.initial.psi.tobytes() == cfg.initial.psi.tobytes()
        assert repr(again.initial.psi0) == repr(cfg.initial.psi0) == "(-0+0.64j)"
        assert config_to_dict(cfg)["system"]["matrix"] == matrix
        assert json.dumps(config_to_dict(again)) == json.dumps(config_to_dict(cfg))

    def test_psi_is_written_whatever_its_length(self):
        # RunConfig does not tie psi's length to the matrix; serializing must not either
        cfg = parse_config(json.dumps(base_doc()))
        cfg = cfg._replace(initial=InitialState(psi=[1, 0, 0]))
        assert config_to_dict(cfg)["initial"]["psi"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]

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


def _reference_complex(val, path) -> complex:
    """The check of one [re, im] pair on its own: the reference for the
    errors of the one-pass read."""
    if (
        not isinstance(val, list)
        or len(val) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in val)
    ):
        raise ValidationError(path, "complex values must be [re, im] number pairs")
    try:
        z = complex(val[0], val[1])
    except OverflowError:
        raise ValidationError(path, "number is out of the float range") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(path, f"complex value must be finite, got {val}")
    return z


def reference_arrays(doc):
    """H and psi of ``doc`` read pair by pair, with the checks between them
    that ``parse_config`` makes (the bath of ``doc`` is valid)."""
    n, rows = doc["system"]["n"], doc["system"]["matrix"]
    matrix = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"$.system.matrix[{i}]", f"expected {n} entries")
        for j, entry in enumerate(row):
            matrix[i, j] = _reference_complex(entry, f"$.system.matrix[{i}][{j}]")
    try:
        SystemHamiltonian(matrix)
    except ModelError as exc:
        raise ValidationError("$.system.matrix", str(exc)) from exc
    psi = np.array(
        [_reference_complex(v, f"$.initial.psi[{i}]") for i, v in enumerate(doc["initial"]["psi"])],
        dtype=complex,
    )
    try:
        InitialState(psi=psi, psi0=_reference_complex(doc["initial"]["psi0"], "$.initial.psi0"))
    except ModelError as exc:
        raise ValidationError("$.initial", str(exc)) from exc
    return matrix, psi


#: Parts of pairs that numpy and ``complex`` could round differently.
EDGE_NUMBERS = [2**53 + 1, 2**63 + 1, 10**20, -0.0, 0, 1, -3, 0.1]


def _number(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(EDGE_NUMBERS)
    return rng.randint(-(2**70), 2**70) if kind == 1 else rng.uniform(-1e6, 1e6)


@st.composite
def pair_docs(draw):
    """A valid document with an n-level Hermitian H of mixed int and float
    parts, n in 1 .. 24, and up to three defects in H or psi."""
    n = draw(st.integers(1, 24))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = [_number(rng), rng.choice([0, 0.0, -0.0])]
        for j in range(i + 1, n):
            re, im = _number(rng), _number(rng)
            rows[i][j], rows[j][i] = [re, im], [re, -im]
    psi = [[0, 0.0]] * n
    psi[draw(st.integers(0, n - 1))] = draw(st.sampled_from([[0.6, 0.0], [0, -0.6], [-0.6, -0.0]]))
    doc = base_doc(system={"n": n, "matrix": rows})
    doc["initial"] = {"psi": psi, "psi0": [0.8, 0.0]}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["pair", "part", "triple", "row", "short"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind in ("pair", "part", "triple"):
            target = draw(st.sampled_from([rows[i], psi]))
            if not (isinstance(target, list) and j < len(target)):
                continue  # row i is already broken
        if kind == "pair":
            target[j] = draw(st.sampled_from(SPECIAL))
        elif kind == "part":
            target[j] = list(target[j]) if isinstance(target[j], list) else [0.0, 0.0]
            target[j][draw(st.integers(0, 1))] = draw(st.sampled_from(SPECIAL))
        elif kind == "triple":
            target[j] = [0.5, 0.0, 0.0]
        elif kind == "row":
            rows[i] = draw(st.sampled_from([v for v in SPECIAL if not isinstance(v, list)]))
        else:
            rows[i] = rows[i][: draw(st.integers(0, n - 1))] if isinstance(rows[i], list) else []
    return doc


class TestPairArrays:
    """The one-pass read of ``system.matrix`` and ``initial.psi`` gives the
    arrays and the errors of the pair-by-pair read."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(pair_docs())
    def test_same_errors_and_bits_as_pair_by_pair(self, doc):
        text = json.dumps(doc)
        try:
            matrix, psi = reference_arrays(json.loads(text))
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                parse_config(text)
            assert type(err.value) is ValidationError
            assert (err.value.path, str(err.value)) == (exc.path, str(exc))
        else:
            cfg = parse_config(text)
            assert cfg.system.matrix.tobytes() == matrix.tobytes()
            assert cfg.initial.psi.tobytes() == psi.tobytes()

    def test_bits_of_int_and_signed_zero_entries(self):
        rows = [[[2**53 + 1, -0.0], [10**20, 3]], [[10**20, -3], [-0.0, 0]]]
        doc = base_doc(system={"n": 2, "matrix": rows})
        doc["initial"] = {"psi": [[0, -0.0], [-0.6, 0]], "psi0": [0.8, 0.0]}
        cfg = parse_config(json.dumps(doc))
        want = np.array([[complex(re, im) for re, im in row] for row in rows])
        assert cfg.system.matrix.tobytes() == want.tobytes()
        psi = np.array([complex(0, -0.0), complex(-0.6, 0)])
        assert cfg.initial.psi.tobytes() == psi.tobytes()

    @pytest.mark.parametrize(
        "part",
        [10**400, -(10**400), math.inf, math.nan, True, None],
        ids=["1e400", "-1e400", "inf", "nan", "true", "null"],
    )
    @pytest.mark.parametrize("key", ["matrix", "psi"])
    def test_bad_part_after_valid_pairs(self, key, part):
        doc = base_doc(system={"n": 2, "matrix": [[[1.0, 0.0], [0, 0]], [[0, 0], [2, 0.0]]]})
        doc["initial"] = {"psi": [[0.6, 0.0], [0.0, 0.0]], "psi0": [0.8, 0.0]}
        pairs = doc["system"]["matrix"][1] if key == "matrix" else doc["initial"]["psi"]
        pairs[1] = [0.0, part]
        text = json.dumps(doc)
        with pytest.raises(ValidationError) as want:
            reference_arrays(json.loads(text))
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert str(err.value) == str(want.value)
        assert err.value.path == ("$.system.matrix[1][1]" if key == "matrix" else "$.initial.psi[1]")

    def test_first_defect_in_document_order(self):
        doc = base_doc(system={"n": 3, "matrix": [
            [[1.0, 0.0], [0.0, 0.0], [True, 0.0]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0]],
        ]})
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "$.system.matrix[0][2]"
        doc["system"]["matrix"][0][2] = [0.0, 0.0]
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc))
        assert str(err.value) == "$.system.matrix[2]: expected 3 entries"


class TestInputErrors:
    """Bad input from the file or the command line exits 2 naming the field."""

    def test_tolerance_options_are_gone(self, tmp_path):
        # solver.oracle_steps is set by the config alone
        cfg = write_config(tmp_path, base_doc())
        for option in ("--rtol", "--atol", "--oracle-steps"):
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

    def test_compare_refuses_what_check_refuses(self, tmp_path, capsys):
        # (eta/4) g^2/gamma = 2.5e309 overflows: compare ran a guard of its
        # own and exited 3 with "route deviation is not finite"
        doc = base_doc(bath={"peaks": [{"g": 1e150, "gamma": 1.0}], "eta": 1e10})
        path = write_config(tmp_path, doc)
        results = []
        for command in ("check", "compare"):
            out = tmp_path / command
            code = main([command, "--config", path, "--out", str(out)])
            results.append((code, capsys.readouterr().err))
            assert not out.exists()
        assert results[0] == results[1] == (
            EXIT_CONFIG,
            "invalid input: dilation threshold (eta/4) * sum g_j^2/gamma_j overflows (inf)\n",
        )

    @pytest.mark.parametrize("command", ["check", "compare", "simulate", "sweep"])
    def test_every_command_certifies_before_it_propagates(self, tmp_path, capsys, command):
        # the threshold overflows and the 3-point grid up to 5e-324 is not
        # strictly increasing; certification comes first in every command, so
        # none reports the grid (exit 3)
        doc = base_doc(bath={"peaks": [{"g": 1e150, "gamma": 1.0}], "eta": 1e10})
        doc["time"] = {"t_max": 5e-324, "points": 3}
        prefix, files = "", None
        if command == "sweep":
            doc["sweep"] = {"bath.eta": [1e10]}
            prefix, files = "point_0000: ", ["manifest.json"]
        out = tmp_path / "out"
        code = main([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            EXIT_CONFIG,
            prefix + "invalid input: dilation threshold (eta/4) * sum g_j^2/gamma_j overflows (inf)\n",
        )
        assert (sorted(os.listdir(out)) if out.exists() else None) == files

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
        "command, doc",
        [
            ("simulate", base_doc(time={"t_max": 5.0, "points": 2**63 - 1})),
            ("simulate", base_doc(time={"t_max": 5.0, "points": 10**20})),
            ("simulate", base_doc(time={"t_max": 5.0, "points": 10**12 + 1})),
            ("compare", base_doc(solver={"oracle_steps": 2**63 - 1})),
        ],
        ids=["points-2**63-1", "points-1e20", "points-1e12+1", "steps-2**63-1"],
    )
    def test_grid_size_above_the_cap(self, tmp_path, command, doc):
        # rejected while parsing, before numpy sees the size
        field = "$.time.points: expected an integer in [2, "
        if command == "compare":
            field = "$.solver.oracle_steps: expected an integer in [10, "
        out = tmp_path / "out"
        result = run_cli(
            [command, "--config", write_config(tmp_path, doc), "--out", str(out)],
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
        assert capsys.readouterr().err == (
            f"invalid config: --threshold must be finite and >= 0, got {float(value)}\n"
        )
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
        assert capsys.readouterr().err == (
            f"invalid config: --t-min must be finite and <= t_max 5.0, got {float(t_min)}\n"
        )
        assert marches == []

    def test_cutoff_study_t_min_at_t_max(self, tmp_path, capsys):
        # the oracle's last time is t_max, not steps * (t_max / steps), which
        # rounds below t_max on these grids: --t-min t_max keeps the last row,
        # as a t_min half a step lower does
        for t_max, steps, omega in ((0.9, 10, "1"), (13.7, 100, "0.5"), (0.23, 100, "20")):
            doc = base_doc(time={"t_max": t_max, "points": 11})
            doc["bath"]["eta"] = 0.5
            doc["solver"] = {"oracle_steps": steps}
            argv = ["cutoff-study", "--config", write_config(tmp_path, doc), "--omegas", omega]
            rows = []
            for t_min in (t_max, t_max - 0.5 * t_max / steps):
                out = tmp_path / f"out-{t_min!r}"
                assert main(argv + ["--t-min", repr(t_min), "--out", str(out)]) == EXIT_OK
                rows.append(capsys.readouterr().out)
            assert rows[0] == rows[1]
            assert len(rows[0].splitlines()) == 2

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (
                ["simulate"],
                base_doc(
                    system={"n": 1, "matrix": [[[-5.0, 0.0]]]},
                    bath={"peaks": [{"g": 0.5, "gamma": 0.4, "epsilon": 0.1}], "eta": 0.5},
                ),
                "system norm 1.035318160975 at t=0.5 exceeds 1: "
                "propagation failed or the model is not dilatable",
            ),
            # the propagation overflows; this used to be reported as a rho
            # that is not Hermitian (defect nan)
            (
                ["simulate"],
                base_doc(time={"t_max": 1e300, "points": 51}),
                "system state at t=2.0000000000000002e+298 is not finite: propagation failed",
            ),
            (
                ["cutoff-study", "--omegas", "40"],
                base_doc(
                    bath={"peaks": [{"g": 0.5, "gamma": 0.4, "epsilon": 0.1}], "eta": 0.5},
                    solver={"oracle_steps": 1000},
                ),
                "step 5.000e-03 too coarse for cutoff 40.0: need h <= 2.500e-03",
            ),
        ],
        ids=["norm-exceeded", "not-finite", "step-too-coarse"],
    )
    def test_numerical_failure(self, tmp_path, capsys, argv, doc, message):
        # the norm and step checks raise LinAlgError
        argv = argv + ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical failure: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_degenerate_time_grid(self, tmp_path, capsys, command):
        # linspace(0, 5e-324, 3) is [0, 0, 5e-324]
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(time={"t_max": 5e-324, "points": 3}))
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: time grid must be strictly increasing and start at 0\n"
        )
        assert not (out / "trajectory.csv").exists()
        assert not (out / "trajectory.csv.tmp").exists()

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

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize(
        "values, path, shown",
        [
            ("[1.0, NaN]", "[1]", "nan"),
            ("[Infinity]", "[0]", "inf"),
            ("[2.0, 3.0, 1e999]", "[2]", "inf"),
            ("[[NaN, 0]]", "[0]", "[nan, 0]"),
        ],
        ids=["NaN", "Infinity", "1e999", "nested"],
    )
    def test_non_finite_sweep_value(self, tmp_path, capsys, command, values, path, shown):
        # the values were copied raw, and written as bare NaN/Infinity tokens
        # into report.json and manifest.json
        text = json.dumps(base_doc())[:-1] + f', "sweep": {{"time.t_max": {values}}}}}'
        config = tmp_path / "run.json"
        config.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"invalid config: $.sweep.time.t_max{path}: must be finite, got {shown}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "check", "compare", "sweep"])
    def test_deeply_nested_sweep_value(self, tmp_path, command):
        # writing the config echo into report.json or compare.json recursed
        # once per level: simulate and compare ended in a RecursionError
        deep = "[" * 985 + "0.5" + "]" * 985
        config = tmp_path / "run.json"
        config.write_text(json.dumps(base_doc())[:-1] + f', "sweep": {{"time.t_max": {deep}}}}}')
        out = tmp_path / "out"
        result = run_cli([command, "--config", str(config), "--out", str(out)])
        assert result.returncode == EXIT_CONFIG
        assert result.stderr == (
            "invalid config: $.sweep.time.t_max[0]: nested more than 32 levels deep\n"
        )
        assert not out.exists()

    def test_sweep_value_depth_bound(self):
        def doc(depth):
            return json.dumps(base_doc())[:-1] + (
                f', "sweep": {{"bath.eta": [{"[" * depth}0.5{"]" * depth}]}}}}'
            )

        value = parse_config(doc(32)).sweep["bath.eta"][0]
        for _ in range(32):
            (value,) = value
        assert value == 0.5
        with pytest.raises(ValidationError, match=r"^\$\.sweep\.bath\.eta\[0\]: nested more"):
            parse_config(doc(33))


class TestFuzzFindings:
    """Defects found by ``test_fuzz.py``: each ended in a traceback, printed
    numpy warnings before the message, or wrote an infinite tolerance."""

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("time.t_max", 10**400, "$.time.t_max"),
            ("bath.peaks[0].g", -(10**400), "$.bath.peaks[0].g"),
            ("system.matrix[0][0]", [10**400, 0], "$.system.matrix[0][0]"),
            ("initial.psi0", [0, 10**400], "$.initial.psi0"),
        ],
        ids=["t_max", "g", "matrix", "psi0"],
    )
    def test_integer_beyond_the_float_range(self, tmp_path, capsys, field, value, path):
        # JSON integers are unbounded; float() of this one raised OverflowError
        doc = base_doc()
        apply_override(doc, field, value)
        argv = ["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"invalid config: {path}: number is out of the float range\n"
        )

    def test_huge_ground_amplitude(self, tmp_path, capsys):
        # |psi0| ** 2 raised OverflowError
        doc = base_doc()
        doc["initial"]["psi0"] = [1e300, 0.0]
        argv = ["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "invalid config: $.initial: initial state is not normalized: "
            "||psi||^2 + |psi0|^2 = inf\n"
        )

    @pytest.mark.parametrize(
        "text",
        [b"\xff{}", b"[" * 200_000 + b"]" * 200_000, b'{"system": ' + b"1" * 5000 + b"}"],
        ids=["not UTF-8", "nested 200000 deep", "5000 digits"],
    )
    def test_unreadable_config(self, tmp_path, capsys, text):
        # UnicodeDecodeError, RecursionError and the ValueError of an integer
        # of over 4300 digits ended in a traceback
        config = tmp_path / "run.json"
        config.write_bytes(text)
        out = tmp_path / "out"
        assert main(["check", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid config: malformed JSON: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "check", "compare"])
    def test_hamiltonian_too_large_to_certify(self, tmp_path, command):
        # the Frobenius norm of V overflowed: "psd_tolerance": Infinity, and
        # every eigenvalue passed; compare, which does not certify, exited 3
        doc = base_doc(system={"n": 1, "matrix": [[[1e300, 0.0]]]})
        doc["bath"]["eta"] = 0.2
        out = tmp_path / "out"
        result = run_cli([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert result.returncode == EXIT_CONFIG
        assert result.stderr == (
            "invalid input: optical potential is too large to certify (norm inf)\n"
        )
        assert not out.exists()

    def test_overflow_prints_no_numpy_warning(self, tmp_path):
        # the oracle's overflow used to print numpy's RuntimeWarnings before
        # the message; at eta = 0 the optical potential is 0 and certifiable
        doc = base_doc(system={"n": 1, "matrix": [[[1e100, 0.0]]]})
        doc["bath"] = {"peaks": [], "eta": 0.0}
        doc["solver"] = {"oracle_steps": 40}
        out = tmp_path / "out"
        result = run_cli(["compare", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert result.returncode == EXIT_NUMERICAL
        assert result.stderr == "numerical failure: route deviation is not finite (sup nan, L2 nan)\n"

    def test_spawned_sweep_worker_prints_no_numpy_warning(self, tmp_path):
        # a spawned worker does not inherit the numpy error state of main
        doc = base_doc(system={"n": 1, "matrix": [[[-1e300, 0.0]]]})
        doc["bath"] = {"peaks": [], "eta": 0.2}
        doc["sweep"] = {"time.points": [11, 12]}
        argv = ["sweep", "--jobs", "2", "--config", write_config(tmp_path, doc)]
        argv += ["--out", str(tmp_path / "out")]
        code = f"""
import multiprocessing, sys
from pseudobath import cli

multiprocessing.get_all_start_methods = lambda: ["spawn"]
sys.exit(cli.main({argv!r}))
"""
        result = python_process(code)
        assert result.returncode == EXIT_CONFIG
        message = "invalid input: optical potential is too large to certify (norm inf)"
        assert result.stderr == f"point_0000: {message}\npoint_0001: {message}\n"


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


class TestTempFiles:
    """A failed write leaves no ``.tmp`` file behind."""

    def test_report_path_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        argv = ["simulate", "--config", write_config(tmp_path, base_doc()), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"file error: [Errno {errno.EISDIR}] ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "trajectory.csv"]

    def test_validation_failure_in_a_later_block(self, tmp_path, monkeypatch, capsys):
        # row 600 of 601, in the second 512-row block, is damaged after the
        # first block has been written
        assert cli._BLOCK_ROWS <= 600
        observables = dynamics.observables

        def damaged(traj, init):
            excited, rho = observables(traj, init)
            rho[..., 600, 0, 1] += 1e-6
            return excited, rho

        monkeypatch.setattr(dynamics, "observables", damaged)
        doc = base_doc(time={"t_max": 6.0, "points": 601})
        out = tmp_path / "out"
        argv = ["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: rho at t=6.0 not Hermitian (defect 1.000e-06)\n"
        )
        assert list(out.iterdir()) == []

    def test_every_file_goes_through_the_writer(self, tmp_path, monkeypatch):
        write_file, written = cli._write_file, []

        def recorded(directory, name, chunks):
            written.append(pathlib.Path(directory, name))
            return write_file(directory, name, chunks)

        monkeypatch.setattr(cli, "_write_file", recorded)
        doc = base_doc(time={"t_max": 1.0, "points": 6})
        argv = ["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "simulate")]
        assert main(argv) == EXIT_OK
        doc["sweep"] = {"bath.peaks[0].gamma": [0.3, 0.6]}
        argv = ["sweep", "--jobs", "1", "--config", write_config(tmp_path, doc, "sweep.json"),
                "--out", str(tmp_path / "sweep")]
        assert main(argv) == EXIT_OK
        files = [p for p in tmp_path.rglob("*") if p.is_file() and p.parent != tmp_path]
        assert len(files) == 7  # two CSVs and two reports per run, and the manifest
        assert sorted(written) == sorted(files)

    def test_an_interrupt_removes_the_unfinished_csv(self, tmp_path):
        cfg = parse_config(json.dumps(base_doc()))

        def blocks():
            yield "0,1,0,0,0,0,0,0,0,0\n", 0.0, 0.0, 0.36
            raise KeyboardInterrupt

        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            cli._write_point(cfg, str(out), {}, blocks())
        assert list(out.iterdir()) == []


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

    def test_final_ground_population(self, tmp_path):
        # the report's ground population is the last row's rho_0_0, bit for bit
        cfg, out = write_config(tmp_path, base_doc()), tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        with open(out / "trajectory.csv") as fh:
            last = list(csv.DictReader(fh))[-1]
        summary = json.loads((out / "report.json").read_text())["trajectory"]
        ground = summary["final_ground_population"]
        assert ground == 1.0 - summary["final_excited_population"]
        assert "%.17g" % ground == last["rho_0_0_re"]
        assert 0.0 < ground < 1.0

    @staticmethod
    def coupled_doc(n):
        """n levels over 1201 points, three rho blocks; every pair of levels
        is coupled, so rho's off-diagonal entries have real and imaginary
        parts."""
        matrix = [[[1.0 + 0.3 * i, 0.0] if i == j else [0.1, 0.05 * (j - i)] for j in range(n)]
                  for i in range(n)]
        psi = [[0.3, 0.1 * (k + 1)] for k in range(n)]
        ground = math.sqrt(1.0 - sum(re * re + im * im for re, im in psi))
        return base_doc(
            system={"n": n, "matrix": matrix},
            bath={"peaks": [{"g": 0.4, "gamma": 0.8, "epsilon": 0.1},
                            {"g": 0.3, "gamma": 0.6, "epsilon": -0.2}], "eta": 0.5},
            initial={"psi": psi, "psi0": [ground, 0.0]},
            time={"t_max": 12.0, "points": 1201},
        )

    @staticmethod
    def coupled_observables(doc):
        cfg = parse_config(json.dumps(doc))
        traj = dynamics.evolve(cfg.system, cfg.bath, cfg.initial, cfg.t_max, cfg.output_points)
        return (traj, *dynamics.observables(traj, cfg.initial.psi0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_are_the_text_of_observables(self, tmp_path, n):
        doc = self.coupled_doc(n)
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
        traj, excited, rho = self.coupled_observables(doc)
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert len(rows) == 1201 > 2 * cli._BLOCK_ROWS
        for t, r, e, row in zip(traj.times, rho, excited, rows):
            assert row == ",".join("%.17g" % x for x in (t, *r.ravel().view(float), e))

    def test_rho_block_text_is_copied_below_the_diagonal(self):
        # a CSV block of three coupled levels: each re column below rho's
        # diagonal takes the text of its mirror's, which equals it bit for bit
        traj, excited, rho = self.coupled_observables(self.coupled_doc(3))
        block = slice(0, cli._BLOCK_ROWS)
        table = np.column_stack((traj.times[block], rho[block].reshape(cli._BLOCK_ROWS, -1).view(float),
                                 excited[block]))
        source, _ = _sources(table.view(np.uint64).T)
        dim = rho.shape[-1]
        for i, j in itertools.combinations(range(dim), 2):
            assert source[1 + 2 * (dim * j + i)] == 1 + 2 * (dim * i + j)

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

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # a fresh process per grid prints its own peak RSS in KiB; at the
        # parent, 200001 points peaked 150 MB above 2001 points
        peaks = []
        for points in (2001, 200001):
            doc = base_doc(time={"t_max": 100.0, "points": points})
            argv = ["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)]
            code = f"""
import resource
from pseudobath.cli import main
assert main({argv!r}) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
            peaks.append(int(run_python(code)))
            assert (tmp_path / "trajectory.csv").read_bytes().count(b"\n") == points + 1
        assert peaks[1] - peaks[0] <= 20 * 1024

    def test_invalid_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


class TestRhoRows:
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
        assert trace_dev.shape == min_eig.shape == (5,)
        assert trace_dev.max() <= 1e-15
        assert abs(min_eig.min()) <= 1e-15

    @pytest.mark.parametrize(
        "index, damage, message",
        [
            (3, lambda m: m + np.array([[0.0, 1e-6], [0.0, 0.0]]), r"t=1\.5 not Hermitian"),
            (2, lambda m: m + np.diag([0.0, 1e-6]), r"t=1\.0 trace deviates"),
            (4, lambda m: np.diag([1.5, -0.5]).astype(complex), r"t=2\.0 not PSD"),
            (1, lambda m: m * np.nan, r"t=0\.5 not Hermitian"),
            # Hermitian, trace 1, below -_RHO_PSD_TOL by a factor of 5
            (3, lambda m: np.diag([1.0 + 5e-10, -5e-10]).astype(complex),
             r"t=1\.5 not PSD \(min eigenvalue -5\.000e-10\)"),
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

    @pytest.mark.parametrize("eta", [0.0, -0.0])
    def test_pure_lorentz_bath_whose_sum_overflows(self, tmp_path, eta):
        # 2 g^2/gamma = 2e308 overflows, and the threshold was 0 * inf = NaN:
        # check refused the bath, which is always dilatable
        peak = {"g": 1e154, "gamma": 1.0, "epsilon": 0.1}
        doc = base_doc(bath={"peaks": [peak, peak], "eta": eta})
        out = tmp_path / "out"
        assert main(["check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
        text = (out / "dilation.json").read_text()
        assert f'"threshold": {eta}\n' in text
        report = json.loads(text)
        assert report["closed_form_pass"] and report["spectral_pass"]

    def test_dilation_object_is_the_certificate(self, tmp_path):
        # eta > 0, N = 2, K = 2: check and simulate write the dict that
        # check_dilation_closed_form returns, and each value is the quantity
        # its key names
        doc = base_doc(
            system={"n": 2, "matrix": [[[1.0, 0.0], [0.1, -0.05]], [[0.1, 0.05], [1.3, 0.0]]]},
            bath={"peaks": [{"g": 0.4, "gamma": 0.8, "epsilon": 0.1},
                            {"g": 0.3, "gamma": 0.6, "epsilon": -0.2}], "eta": 0.5},
            initial={"psi": [[0.6, 0.0], [0.0, 0.5]], "psi0": [0.6244997998398398, 0.0]},
        )
        path = write_config(tmp_path, doc)
        cfg = parse_config(json.dumps(doc))
        expected = json.loads(json.dumps(pseudomode.check_dilation_closed_form(cfg.system, cfg.bath)))
        assert main(["check", "--config", path, "--out", str(tmp_path / "c")]) == EXIT_OK
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "s")]) == EXIT_OK
        written = json.loads((tmp_path / "c" / "dilation.json").read_text())
        assert written == expected
        assert json.loads((tmp_path / "s" / "report.json").read_text())["dilation"] == expected

        e = np.linalg.eigvalsh(cfg.system.matrix)
        v = optical_potential(build_effective_hamiltonian(cfg.system, cfg.bath))
        tolerance = 1e-10 * (1.0 + float(np.linalg.norm(v)))
        assert written["min_eigenvalue_H"] == e[0]
        assert written["min_eigenvalue_V"] == np.linalg.eigvalsh(v)[0] != e[0]
        assert written["threshold"] == dilation_threshold(cfg.bath)
        assert written["psd_tolerance"] == tolerance
        assert [b["alpha"] for b in written["per_block"]] == [0, 1]
        assert [b["E_alpha"] for b in written["per_block"]] == e.tolist()
        for b in written["per_block"]:
            assert b["passed"] is (b["min_eigenvalue"] >= -tolerance)


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
        oracle = volterra.solve_integro_differential(
            cfg.system, cfg.bath, cfg.initial.psi, cfg.t_max, 2000, extrapolate=True
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


def decaying_doc(**overrides):
    """psi0 = 0, so rho has exact 0 and -0 entries, and an excited amplitude
    that decays into the subnormal range by t = 420."""
    doc = base_doc(
        bath={"peaks": [{"g": 2.0, "gamma": 4.0, "epsilon": 0.1}], "eta": 0.0},
        initial={"psi": [[1.0, 0.0]], "psi0": [0.0, 0.0]},
        time={"t_max": 420.0, "points": 43},
    )
    doc.update(overrides)
    return doc


def assert_percent_17g(path):
    """Every field below the header of the CSV file at ``path`` is ``%.17g``
    of its own value: the file is what per-entry formatting writes, byte for
    byte.  Returns the values."""
    text = path.read_bytes().decode("ascii")
    header, body = text.split("\n", 1)
    values = [[float(field) for field in line.split(",")] for line in body.splitlines()]
    rows = "".join(",".join("%.17g" % v for v in row) + "\n" for row in values)
    assert text == header + "\n" + rows
    return np.array(values)


class TestCsvFiles:
    def test_trajectory(self, tmp_path):
        out = tmp_path / "out"
        argv = ["simulate", "--config", write_config(tmp_path, decaying_doc()), "--out", str(out)]
        assert main(argv) == EXIT_OK
        values = np.abs(assert_percent_17g(out / "trajectory.csv"))
        raw = (out / "trajectory.csv").read_text().replace("\n", ",").split(",")
        assert "0" in raw and "-0" in raw
        # subnormal and other entries below 1e-269, which csvformat leaves to %
        assert np.any((values > 0) & (values < np.finfo(float).tiny))
        assert np.any((values >= np.finfo(float).tiny) & (values < 1e-269))

    def test_sweep_points(self, tmp_path):
        doc = decaying_doc(sweep={"time.points": [22, 43], "bath.peaks[0].epsilon": [0.1, -0.3]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
        points = sorted(out.glob("point_*/trajectory.csv"))
        assert len(points) == 4
        for path in points:
            assert_percent_17g(path)

    def test_cutoff_study(self, tmp_path):
        doc = base_doc(bath={"peaks": [], "eta": 0.5}, solver={"oracle_steps": 400})
        out = tmp_path / "out"
        argv = ["cutoff-study", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv + ["--omegas", "2", "4", "--t-min", "0.5"]) == EXIT_OK
        values = assert_percent_17g(out / "cutoff_study.csv")
        assert values[:, 0].tolist() == [2.0, 4.0]


def key_paths(obj, prefix=""):
    """The dotted paths of the leaves of a JSON value; ``[]`` stands for
    every element of a list."""
    if isinstance(obj, dict):
        return set().union(*(key_paths(v, f"{prefix}.{k}" if prefix else k) for k, v in obj.items()))
    if isinstance(obj, list):
        return set().union(*(key_paths(v, prefix + "[]") for v in obj)) if obj else {prefix + "[]"}
    return {prefix}


class TestArtifactSchema:
    """Every key a command writes, and every CSV header, is pinned here: a
    key added, renamed or dropped fails."""

    CONFIG = {
        "config.bath.eta", "config.bath.peaks[].epsilon", "config.bath.peaks[].g",
        "config.bath.peaks[].gamma", "config.initial.psi0[]", "config.initial.psi[][]",
        "config.solver.oracle_steps", "config.system.matrix[][][]", "config.system.n",
        "config.time.points", "config.time.t_max",
    }
    DILATION = {
        "closed_form_pass", "min_eigenvalue_H", "min_eigenvalue_V", "per_block[].E_alpha",
        "per_block[].alpha", "per_block[].min_eigenvalue", "per_block[].passed",
        "psd_tolerance", "spectral_pass", "threshold",
    }

    def test_key_paths_and_headers(self, tmp_path, capsys):
        doc = base_doc(bath={"peaks": [{"g": 0.5, "gamma": 0.4, "epsilon": 0.1}], "eta": 0.05})
        doc["time"] = {"t_max": 1.0, "points": 11}
        doc["solver"] = {"oracle_steps": 400}
        path = write_config(tmp_path, doc)
        for argv in (["simulate"], ["check"], ["compare", "--threshold", "1"],
                     ["cutoff-study", "--omegas", "2", "--t-min", "0.5"]):
            assert main(argv + ["--config", path, "--out", str(tmp_path / argv[0])]) == EXIT_OK
        doc["sweep"] = {"bath.eta": [0.05]}
        argv = ["sweep", "--config", write_config(tmp_path, doc, "sweep.json")]
        assert main(argv + ["--out", str(tmp_path / "sweep")]) == EXIT_OK
        capsys.readouterr()

        def read(name):
            return json.loads((tmp_path / name).read_text())

        assert key_paths(read("check/dilation.json")) == self.DILATION
        assert key_paths(read("simulate/report.json")) == self.CONFIG | {
            "dilation." + key for key in self.DILATION
        } | {
            "tolerances.rho_hermiticity", "tolerances.rho_psd", "tolerances.rho_trace",
            "trajectory.final_excited_population", "trajectory.final_ground_population",
            "trajectory.max_trace_deviation", "trajectory.min_rho_eigenvalue",
            "trajectory.points",
        }
        assert key_paths(read("compare/compare.json")) == self.CONFIG | {
            "comparison.l2_deviation", "comparison.oracle_error_estimate",
            "comparison.oracle_extrapolated", "comparison.oracle_steps",
            "comparison.sup_deviation", "comparison.threshold",
        }
        (entry,) = read("sweep/manifest.json")
        assert key_paths(entry) == {"dir", "index", "params.bath.eta", "status"}

        def header(name):
            return (tmp_path / name).read_text().split("\n", 1)[0]

        assert header("simulate/trajectory.csv") == (
            "t,rho_0_0_re,rho_0_0_im,rho_0_1_re,rho_0_1_im,"
            "rho_1_0_re,rho_1_0_im,rho_1_1_re,rho_1_1_im,excited_population"
        )
        assert header("cutoff-study/cutoff_study.csv") == "Omega,sup_deviation"


class TestCutoffStudy:
    def test_requires_ohmic_bath(self, tmp_path, capsys):
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
        assert capsys.readouterr().err == (
            "invalid config: cutoff-study requires an Ohmic bath (eta > 0)\n"
        )

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


#: Peak lists a random sweep draws, K = 0-2: the last one has a negative width,
#: a config error.
SWEEP_PEAKS = [
    [],
    [{"g": 0.5, "gamma": 0.4, "epsilon": 0.1}],
    [{"g": 0.3, "gamma": 0.9, "epsilon": -0.2}, {"g": 0.4, "gamma": 0.6, "epsilon": 0.0}],
    [{"g": 0.5, "gamma": -1.0, "epsilon": 0.1}],
]
#: g = 1e150: with eta = 1e10 the dilation threshold overflows; with a smaller
#: eta the propagation fails with a non-finite state.
OVERFLOWING_PEAKS = [{"g": 1e150, "gamma": 1.0, "epsilon": 0.0}]
#: Matrices of each N; the second lies below the dilation threshold of every
#: eta > 0, so that its runs end in a norm or rho failure.
SWEEP_MATRICES = {
    1: [[[[0.5, 0.0]]], [[[-0.5, 0.0]]]],
    2: [[[[0.5, 0.0], [0.1, 0.2]], [[0.1, -0.2], [1.0, 0.0]]],
        [[[-0.5, 0.0], [0.0, 0.1]], [[0.0, -0.1], [0.3, 0.0]]]],
}
SWEEP_PSI = {1: [[0.6, 0.0]], 2: [[0.48, 0.0], [0.0, 0.36]]}
#: Strategies of sweep values that do not depend on the draw.
SWEEP_VALUES = {
    "bath.peaks": st.sampled_from([*SWEEP_PEAKS, OVERFLOWING_PEAKS]),
    "bath.eta": st.sampled_from([0.0, 0.5, 2.0, 1e10]),
}


@st.composite
def sweep_cases(draw):
    """A random sweep as (config, CHUNK_ROWS, _BLOCK_ROWS, --jobs).  The base
    config has N 1-2, K 0-2 and 2-30 points; its sweep has 1-3 paths, the
    first of 2 values and the others of 1-2, drawn from ``bath.eta``, whole
    ``bath.peaks`` lists, whole ``system.matrix`` values and ``time.points``
    (``THRESHOLD_OVERFLOW`` draws the overflow on purpose).  Chunks of 2-64
    rows and blocks of 1-40 rows cross every boundary of group, batch, block
    and chunk on these tiny grids."""
    chunk_rows, block_rows = draw(st.integers(2, 64)), draw(st.integers(1, 40))
    # besides any grid, one short enough that a block and a chunk hold two
    # whole points, and one longer than a chunk, where 30 points are
    grids = (st.integers(2, max(2, min(block_rows, chunk_rows) // 2)) | st.integers(2, 30)
             | st.integers(min(chunk_rows + 1, 30), 30))
    n = draw(st.integers(1, 2))
    matrices = st.sampled_from(SWEEP_MATRICES[n])
    doc = {
        "system": {"n": n, "matrix": draw(matrices)},
        "bath": {"peaks": draw(st.sampled_from(SWEEP_PEAKS[:3])),
                 "eta": draw(st.sampled_from([0.0, 0.5, 2.0]))},
        "initial": {"psi": SWEEP_PSI[n], "psi0": [0.8, 0.0]},
        "time": {"t_max": draw(st.sampled_from([0.5, 2.0, 6.0])), "points": draw(grids)},
    }
    values = {**SWEEP_VALUES, "system.matrix": matrices, "time.points": grids}
    paths = draw(st.lists(st.sampled_from(list(values)), min_size=1, max_size=3, unique=True))
    doc["sweep"] = {path: draw(st.lists(values[path], min_size=1 + (path == paths[0]), max_size=2))
                    for path in paths}
    # mostly --jobs 1, where groups are largest; shares interleave at 2 and 3
    jobs = draw(st.sampled_from([1, 1, 1, 2, 3]))
    return doc, chunk_rows, block_rows, jobs


#: A sweep case whose last point overflows the dilation threshold; the second
#: fails with a non-finite state, the other two pass.
THRESHOLD_OVERFLOW = (
    {**base_doc(), "sweep": {"bath.peaks": [SWEEP_PEAKS[1], OVERFLOWING_PEAKS], "bath.eta": [0.5, 1e10]}},
    4, 3, 1,
)


def check_sweep_is_its_points(
    root, doc, chunk_rows=CHUNK_ROWS, block_rows=cli._BLOCK_ROWS, jobs=1
) -> list:
    """Run ``doc``'s sweep into ``root / "sweep"`` at ``--jobs jobs`` in this
    process, its workers through ``inline_processes``, with
    ``linalg.CHUNK_ROWS`` = ``chunk_rows`` and ``cli._BLOCK_ROWS`` =
    ``block_rows``; then run each point alone through ``simulate`` into
    ``root / "alone"`` under the same patches.  Asserts that each point's
    directory holds what simulate's holds, byte for byte, directories
    included, or that both are absent; that its manifest entry holds its
    params and simulate's outcome and stderr line; and that the sweep's
    stderr is those lines, prefixed and in order, and its exit code that of
    the first failing point.  Returns the manifest."""
    with contextlib.ExitStack() as patches:

        def patch(obj, name, value):
            patches.enter_context(mock.patch.object(obj, name, value))

        for obj, name, value in [(linalg, "CHUNK_ROWS", chunk_rows), (cli, "_BLOCK_ROWS", block_rows)]:
            patch(obj, name, value)
        inline_processes(patch, lambda share: None)

        def run(argv, doc, out):
            (root / "run.json").write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*argv, "--config", str(root / "run.json"), "--out", str(root / out)])
            return code, err.getvalue()

        code, err = run(["sweep", "--jobs", str(jobs)], doc, "sweep")
        paths = sorted(doc["sweep"])
        expected_code, expected_err, expected_manifest = EXIT_OK, "", []
        for index, combo in enumerate(itertools.product(*(doc["sweep"][p] for p in paths))):
            point = json.loads(json.dumps(doc))
            del point["sweep"]
            for path, value in zip(paths, combo):
                apply_override(point, path, value)
            name = f"point_{index:04d}"
            alone, message = run(["simulate"], point, f"alone/{name}")
            entry = {"index": index, "dir": name, "params": dict(zip(paths, combo)), "status": "ok"}
            if alone != EXIT_OK:
                entry.update(status="error", error=message.rstrip("\n"))
                expected_err += f"{name}: {message}"
                expected_code = expected_code or alone
            else:
                assert message == ""
            expected_manifest.append(entry)

        def tree(root):
            return {p.relative_to(root): p.is_file() and p.read_bytes() for p in root.rglob("*")}

        assert (code, err) == (expected_code, expected_err)
        swept = tree(root / "sweep")
        manifest = json.loads(swept.pop(pathlib.Path("manifest.json")))
        assert manifest == expected_manifest
        assert swept == tree(root / "alone")
    return manifest


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

    @pytest.mark.parametrize(
        "path, missing",
        [("bath.peaks[0].gama", "'gama'"), ("bath[0]", "0"), ("solver.oracle_step", "'oracle_step'")],
    )
    def test_misspelled_path_is_refused(self, tmp_path, capsys, path, missing):
        # the last key was set as a new key, which parse_config ignores: the
        # sweep exited 0 with every point running the same config
        doc = base_doc()
        doc["sweep"] = {path: [0.2, 0.9]}
        out = tmp_path / "out"
        code = main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"invalid config: $.sweep.{path}: path does not exist in config: {missing}\n"
        )
        assert not out.exists()

    def test_sweep_requires_section(self, tmp_path, capsys):
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
        assert capsys.readouterr().err == (
            'invalid config: sweep requires a non-empty "sweep" section in the config\n'
        )

    def test_workers_bounded_by_points(self, tmp_path, monkeypatch):
        # 64 usable CPUs, so that only the points bound the workers; the
        # stand-in runs each share in this process, so a bound that fails
        # starts no process
        started = []
        inline_processes(monkeypatch.setattr, started.append)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
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

    @pytest.mark.parametrize("affinity", [True, False])
    def test_workers_bounded_by_usable_cpus(self, tmp_path, monkeypatch, affinity):
        # two usable CPUs, from the affinity set where there is one, else
        # from the CPU count; the stand-in runs each share in this process,
        # so a bound that fails starts no process
        started = []
        inline_processes(monkeypatch.setattr, started.append)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        doc = base_doc()
        doc["time"] = {"t_max": 1.0, "points": 6}
        doc["sweep"] = {"bath.peaks[0].gamma": [0.2, 0.3, 0.4, 0.5, 0.6]}
        out = tmp_path / "out"
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv + ["--jobs", "64"]) == EXIT_OK
        # the parent runs points 0 and 3; two workers run the rest
        assert [[os.path.basename(d) for _, d in share] for share in started] == [
            ["point_0001", "point_0004"],
            ["point_0002"],
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [entry["status"] for entry in manifest] == ["ok"] * 5

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_must_be_positive(self, tmp_path, capsys, jobs):
        doc = base_doc()
        doc["sweep"] = {"bath.peaks[0].gamma": [0.3, 0.6]}
        out = tmp_path / "out"
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv + ["--jobs", jobs]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"invalid config: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    @staticmethod
    def sweep_trees(tmp_path, monkeypatch, gammas, jobs):
        """The output tree of a 6-point sweep over ``gammas`` with --jobs 1,
        then with ``jobs`` under the fork and under the spawn start method,
        each as {relative path: bytes}."""
        doc = base_doc()
        doc["time"] = {"t_max": 1.0, "points": 6}
        doc["sweep"] = {"bath.peaks[0].gamma": gammas}
        cfg = write_config(tmp_path, doc)
        trees = []
        for method, n in (("serial", "1"), ("fork", jobs), ("spawn", jobs)):
            # the sweep takes fork only where the platform offers it
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: [method])
            out = tmp_path / method
            assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", n]) == EXIT_OK
            files = sorted(p for p in out.rglob("*") if p.is_file())
            trees.append({p.relative_to(out): p.read_bytes() for p in files})
        return trees

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        serial, fork, spawn = self.sweep_trees(tmp_path, monkeypatch, [0.3, 0.6], "2")
        assert len(serial) == 5
        assert fork == serial
        assert spawn == serial

    def test_uneven_split_matches_serial(self, tmp_path, monkeypatch):
        # 5 points over 3 processes: shares of 2, 2 and 1 points
        gammas = [0.2, 0.3, 0.4, 0.5, 0.6]
        serial, fork, spawn = self.sweep_trees(tmp_path, monkeypatch, gammas, "3")
        assert len(serial) == 11
        assert fork == serial
        assert spawn == serial

    #: Baths of a sweep over a system with H = -0.5 and psi0 = 0.8, and the
    #: first error of each run alone; None where it passes.
    GROUP_BATHS = [
        ({"peaks": [{"g": 0.5, "gamma": 0.4, "epsilon": 0.1}], "eta": 0.0}, None),
        ({"peaks": [{"g": 0.3, "gamma": 0.9, "epsilon": -0.2}], "eta": 0.0}, None),
        ({"peaks": [{"g": 0.5, "gamma": -1.0, "epsilon": 0.1}], "eta": 0.0},
         "invalid config: $.bath.peaks[0]: peak width must be positive"),
        ({"peaks": [{"g": 1e150, "gamma": 0.4, "epsilon": 0.1}], "eta": 1e10},
         "invalid input: dilation threshold"),
        ({"peaks": [{"g": 0.5, "gamma": 0.4, "epsilon": 0.1}], "eta": 0.5}, "not PSD"),
        ({"peaks": [{"g": 0.5, "gamma": 0.4, "epsilon": 0.1}], "eta": 2.0}, "system norm"),
        ({"peaks": [{"g": 0.4, "gamma": 0.6, "epsilon": 0.0}], "eta": 0.0}, None),
    ]

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_groups_write_what_each_point_writes_alone(self, tmp_path, capsys, jobs):
        # time.points varies fastest, 201, 101, 201 within each bath: at --jobs 1
        # the 201-row points of adjacent baths share a group (two per rho
        # block) and each 101-row point runs alone; other --jobs mix the
        # points of a process's share differently.  Points fail at parsing,
        # certification, the system norm and the PSD check.
        doc = base_doc(system={"n": 1, "matrix": [[[-0.5, 0.0]]]})
        doc["sweep"] = {"bath": [bath for bath, _ in self.GROUP_BATHS], "time.points": [201, 101, 201]}
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "sweep")]
        code = main(argv + ["--jobs", jobs])
        err = capsys.readouterr().err

        # each point alone through simulate
        expected_code, expected_err, manifest = EXIT_OK, "", []
        combos = itertools.product(self.GROUP_BATHS, [201, 101, 201])
        for index, ((bath, failure), points) in enumerate(combos):
            point = base_doc(system=doc["system"], bath=bath)
            point["time"]["points"] = points
            name = f"point_{index:04d}"
            alone = main(["simulate", "--config", write_config(tmp_path, point, f"{name}.json"),
                          "--out", str(tmp_path / "alone" / name)])
            message = capsys.readouterr().err
            entry = {"index": index, "dir": name, "params": {"bath": bath, "time.points": points},
                     "status": "ok" if alone == EXIT_OK else "error"}
            if alone != EXIT_OK:
                assert failure is not None and failure in message
                entry["error"] = message.rstrip("\n")
                expected_err += f"{name}: {message}"
                expected_code = expected_code or alone
            else:
                assert failure is None
            manifest.append(entry)

        def tree(root):
            return {p.relative_to(root): p.is_file() and p.read_bytes() for p in root.rglob("*")}

        assert code == expected_code == EXIT_CONFIG
        assert err == expected_err
        swept = tree(tmp_path / "sweep")
        assert json.loads(swept.pop(pathlib.Path("manifest.json"))) == manifest
        assert swept == tree(tmp_path / "alone")
        # the norm and PSD failures keep an empty directory, the parsing and
        # certification failures none
        dirs = {p.name: sorted(p.iterdir()) for p in (tmp_path / "sweep").glob("point_*")}
        assert sorted(name for name, files in dirs.items() if not files) == [
            f"point_{i:04d}" for i in range(12, 18)
        ]
        assert len(dirs) == 21 - 6

    def test_failure_in_a_later_chunk(self, tmp_path, monkeypatch, capsys):
        # the second 4096-row piece of a 5001-point run runs out of memory
        # after the first piece's rows have been written
        propagate_chunks = dynamics.propagate_chunks

        def failing(blocks, z0, step, count):
            chunks = propagate_chunks(blocks, z0, step, count)
            yield next(chunks)
            if count > CHUNK_ROWS:
                raise MemoryError("second chunk")

        monkeypatch.setattr(dynamics, "propagate_chunks", failing)
        doc = base_doc(time={"t_max": 50.0, "points": 5001})
        out = tmp_path / "out"
        argv = ["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "out of memory: second chunk\n"
        assert list(out.iterdir()) == []

        # in a sweep, the 201-row points around each 5001-point point, the
        # middle two in one group, write what they write alone
        doc = base_doc(time={"t_max": 50.0, "points": 201})
        doc["sweep"] = {"bath.peaks[0].gamma": [0.3, 0.6], "time.points": [201, 5001, 201]}
        manifest = check_sweep_is_its_points(tmp_path, doc)
        assert [entry["status"] for entry in manifest] == ["ok", "error", "ok"] * 2
        assert manifest[1]["error"] == "out of memory: second chunk"
        assert list((tmp_path / "sweep" / "point_0004").iterdir()) == []

    def test_groups_stay_within_one_chunk(self, tmp_path, monkeypatch):
        # 25 equal 201-row points: a group stacks at most 4096 // 201 = 20
        propagate_chunks = dynamics.propagate_chunks
        stacks = []

        def counted(blocks, *args):
            stacks.append(len(blocks))  # N = 1: one block per point
            return propagate_chunks(blocks, *args)

        monkeypatch.setattr(dynamics, "propagate_chunks", counted)
        doc = base_doc(time={"t_max": 2.0, "points": 201})
        doc["sweep"] = {"bath.peaks[0].gamma": [round(0.2 + 0.05 * j, 2) for j in range(25)]}
        manifest = check_sweep_is_its_points(tmp_path, doc)
        assert {entry["status"] for entry in manifest} == {"ok"}
        swept = stacks[: -len(manifest)]  # then one propagation per point alone
        assert sum(swept) == 25
        assert max(swept) == CHUNK_ROWS // 201

    def test_groups_are_cut_by_the_propagation_chunk(self, tmp_path):
        # with linalg.CHUNK_ROWS = 22 alone patched, three 30-row points each
        # span two pieces, so each runs alone and writes all of its 30 rows
        doc = base_doc(time={"t_max": 2.0, "points": 30})
        doc["sweep"] = {"bath.peaks[0].gamma": [0.3, 0.4, 0.5]}
        manifest = check_sweep_is_its_points(tmp_path, doc, chunk_rows=22)
        assert {entry["status"] for entry in manifest} == {"ok"}
        for entry in manifest:
            csv_text = (tmp_path / "sweep" / entry["dir"] / "trajectory.csv").read_text()
            assert csv_text.count("\n") == 1 + 30

    def test_points_of_more_rows_than_a_chunk_run_alone(self, tmp_path, monkeypatch):
        # two equal points of two pieces each; in one group, the second point
        # would find the group's second piece already read by the first
        propagate_chunks = dynamics.propagate_chunks
        stacks = []

        def counted(blocks, *args):
            stacks.append(len(blocks))  # N = 1: one block per point
            return propagate_chunks(blocks, *args)

        monkeypatch.setattr(dynamics, "propagate_chunks", counted)
        doc = base_doc(time={"t_max": 8.0, "points": CHUNK_ROWS + 1})
        doc["sweep"] = {"bath.peaks[0].gamma": [0.3, 0.6]}
        manifest = check_sweep_is_its_points(tmp_path, doc)
        assert {entry["status"] for entry in manifest} == {"ok"}
        assert stacks == [1, 1, 1, 1]  # swept, then each point through simulate

    def test_points_of_two_rho_blocks_share_a_chunk(self, tmp_path, monkeypatch):
        # six 601-row points, two rho blocks each, fit one 4096-row chunk
        propagate_chunks = dynamics.propagate_chunks
        stacks = []

        def counted(blocks, *args):
            stacks.append(len(blocks))  # N = 1: one block per point
            return propagate_chunks(blocks, *args)

        monkeypatch.setattr(dynamics, "propagate_chunks", counted)
        doc = base_doc(time={"t_max": 6.0, "points": 601})
        doc["sweep"] = {"bath.peaks[0].gamma": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]}
        manifest = check_sweep_is_its_points(tmp_path, doc)
        assert {entry["status"] for entry in manifest} == {"ok"}
        assert cli._BLOCK_ROWS < 601 <= CHUNK_ROWS // 6
        assert stacks[: -len(manifest)] == [6]  # then one propagation per point alone

    def test_batches_are_drawn_from_the_live_points(self, tmp_path, monkeypatch):
        # five 201-row points, two per batch; the second fails certification,
        # so the four others are formatted in two batches of two
        from pseudobath import csvformat

        format_rows = csvformat.format_rows
        tables = []

        def counted(table, *args):
            tables.append(len(table))
            return format_rows(table, *args)

        monkeypatch.setattr(csvformat, "format_rows", counted)
        doc = base_doc(system={"n": 1, "matrix": [[[-0.5, 0.0]]]})
        doc["time"] = {"t_max": 2.0, "points": 201}
        doc["sweep"] = {"bath": [self.GROUP_BATHS[i][0] for i in (0, 3, 1, 6, 0)]}
        manifest = check_sweep_is_its_points(tmp_path, doc)
        assert [entry["status"] for entry in manifest] == ["ok", "error", "ok", "ok", "ok"]
        assert "dilation threshold" in manifest[1]["error"]
        assert cli._BLOCK_ROWS // 201 == 2
        assert tables[:-4] == [402, 402]  # then one call per point alone

    def test_a_share_is_parsed_one_group_at_a_time(self, tmp_path, monkeypatch):
        # six 11-row points in groups of two: when group g runs, its points
        # and those before, and at most one more, have been parsed, so a share
        # holds one group's configs, not all of them
        parse_config, simulate_group = cli.parse_config, cli._simulate_group
        parsed, seen = [], []

        def counted(text):
            parsed.append(text)
            return parse_config(text)

        def watched(group):
            seen.append((len(group), len(parsed)))
            return simulate_group(group)

        monkeypatch.setattr(linalg, "CHUNK_ROWS", 2 * 11)
        monkeypatch.setattr(cli, "parse_config", counted)
        monkeypatch.setattr(cli, "_simulate_group", watched)
        doc = base_doc(time={"t_max": 1.0, "points": 11})
        share = []
        for j, gamma in enumerate([0.3, 0.4, 0.5, 0.6, 0.7, 0.8]):
            doc["bath"]["peaks"][0]["gamma"] = gamma
            share.append((json.dumps(doc), str(tmp_path / f"point_{j}")))
        assert cli._run_share(share) == [(EXIT_OK, None)] * 6
        assert [size for size, _ in seen] == [2, 2, 2]
        for g, (_, count) in enumerate(seen):
            assert count <= 2 * (g + 1) + 1

    def test_groups_hold_only_certified_points(self, tmp_path, monkeypatch):
        # three 11-row points in groups of two; the middle one fails
        # certification, so the two others fill one group
        simulate_group = cli._simulate_group
        seen = []

        def watched(group):
            seen.append(len(group))
            return simulate_group(group)

        monkeypatch.setattr(cli, "_simulate_group", watched)
        overflowing = {"peaks": [{"g": 1e150, "gamma": 1.0}], "eta": 1e10}
        doc = base_doc(time={"t_max": 1.0, "points": 11})
        doc["sweep"] = {"bath": [doc["bath"], overflowing, doc["bath"]]}
        manifest = check_sweep_is_its_points(tmp_path, doc, chunk_rows=2 * 11)
        assert seen == [2, 1, 1]  # then the two good points alone through simulate
        assert manifest[1] == {
            "index": 1, "dir": "point_0001", "params": {"bath": overflowing}, "status": "error",
            "error": "invalid input: dilation threshold (eta/4) * sum g_j^2/gamma_j overflows (inf)",
        }
        assert [entry["status"] for entry in manifest] == ["ok", "error", "ok"]

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(case=sweep_cases())
    @example(case=THRESHOLD_OVERFLOW)
    def test_a_sweep_is_its_points(self, case):
        # each point writes, and fails with, exactly what it does alone, on
        # random sweeps; tests/sweep_property.py draws far more of them
        with tempfile.TemporaryDirectory() as tmp:
            check_sweep_is_its_points(pathlib.Path(tmp), *case)

    def test_start_method(self, monkeypatch):
        # fork where offered, so workers inherit the imported modules
        started = []

        class Context:
            def __init__(self, method):
                self.method = method

            def Pipe(self, duplex):
                raise RuntimeError(self.method)

        monkeypatch.setattr(multiprocessing, "get_context", Context)
        for offered in (["fork", "spawn", "forkserver"], ["spawn"]):
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: offered)
            with pytest.raises(RuntimeError) as err:
                cli._run_sweep([("{}", "x")] * 2, 2)
            started.append(str(err.value))
        assert started == ["fork", "spawn"]

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
write_point = cli._write_point

def failing(cfg, out_dir, *rest):
    if out_dir.endswith({point!r}):
        {failure}
    write_point(cfg, out_dir, *rest)

cli._write_point = failing
argv = {argv!r}
"""


# prints the scipy, dataclasses and package modules loaded so far, as JSON
_LOADED_MODULES = (
    "import json; print(json.dumps(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('scipy', 'dataclasses', 'pseudobath'))))"
)
# likewise the concurrent.futures and multiprocessing modules
_PROCESS_MODULES = (
    "import json; print(json.dumps(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('concurrent', 'multiprocessing'))))"
)
# what importing the command line loads of the package: the modules check runs
_CHECK_MODULES = [
    "pseudobath", "pseudobath.cli", "pseudobath.config", "pseudobath.linalg",
    "pseudobath.model", "pseudobath.pseudomode",
]

class TestParser:
    """The parser is built on the first ``main`` call and shared by the later
    ones; a process that calls ``main`` many times writes what as many fresh
    processes write."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the --help width, here and in the children
        doc = base_doc(solver={"oracle_steps": 500})
        config = write_config(tmp_path, doc)
        calls = [
            ["check", "--config", config],
            ["check", "--config", config, "--no-such-option"],
            ["--help"],
            ["simulate", "--config", config],
            ["compare", "--config", config],
        ]

        def shared(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        def fresh(argv):
            proc = run_cli(argv)
            return proc.returncode, proc.stdout, proc.stderr

        sides = {}
        for side, run in (("shared", shared), ("fresh", fresh)):
            results = [
                run([*argv, "--out", str(tmp_path / side / str(i))] if "--config" in argv else argv)
                for i, argv in enumerate(calls)
            ]
            files = {
                p.relative_to(tmp_path / side): p.read_bytes()
                for p in sorted((tmp_path / side).rglob("*")) if p.is_file()
            }
            sides[side] = results, files
        results, files = sides["shared"]
        assert [code for code, *_ in results] == [EXIT_OK, EXIT_CONFIG, EXIT_OK, EXIT_OK, EXIT_OK]
        assert {p.as_posix() for p in files} == {
            "0/dilation.json", "3/trajectory.csv", "3/report.json", "4/compare.json",
        }
        assert sides["shared"] == sides["fresh"]


class TestImports:
    """Importing the command line loads numpy and the modules ``check`` runs,
    and no dataclasses; only the commands that propagate or march load scipy
    and their modules, and only a sweep that starts workers loads
    multiprocessing."""

    def test_cli_import_is_numpy_only(self):
        loaded = run_python("import sys, pseudobath.cli; " + _LOADED_MODULES)
        assert json.loads(loaded) == _CHECK_MODULES

    def test_check_is_numpy_only(self, tmp_path):
        argv = ["check", "--config", write_config(tmp_path, base_doc()), "--out", str(tmp_path)]
        code = f"import sys; from pseudobath.cli import main; main({argv!r}); " + _LOADED_MODULES
        assert json.loads(run_python(code).splitlines()[-1]) == _CHECK_MODULES
        assert (tmp_path / "dilation.json").exists()

    @pytest.mark.parametrize("argv", [[], ["check"], ["sweep", "--jobs", "1"]])
    def test_no_process_modules_without_workers(self, tmp_path, argv):
        doc = base_doc(time={"t_max": 1.0, "points": 6}, sweep={"bath.peaks[0].gamma": [0.3]})
        if argv:
            argv += ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]
        call = f"main({argv!r}); " if argv else ""
        code = f"import sys; from pseudobath.cli import main; {call}"
        out = run_python(code + _LOADED_MODULES + "; " + _PROCESS_MODULES).splitlines()
        loaded = json.loads(out[-1])
        if "sweep" in argv:
            # each point ran simulate in this process: it propagates, but no oracle
            assert "pseudobath.dynamics" in json.loads(out[-2])
            assert "pseudobath.volterra" not in json.loads(out[-2])
            # scipy.linalg imports numpy.testing, which loads the base of
            # concurrent.futures but neither its process pool nor multiprocessing
            loaded = [m for m in loaded if m.startswith("multiprocessing")
                      or m == "concurrent.futures.process"]
        assert loaded == []

    def test_sweep_loads_scipy_linalg_before_the_pool(self, tmp_path):
        # fork-started workers inherit what the parent has imported: scipy.linalg
        # and the modules a point runs
        doc = base_doc()
        doc["time"] = {"t_max": 1.0, "points": 6}
        doc["sweep"] = {"bath.peaks[0].gamma": [0.3, 0.6]}
        argv = ["sweep", "--jobs", "2", "--config", write_config(tmp_path, doc)]
        argv += ["--out", str(tmp_path / "out")]
        code = f"""
import multiprocessing, sys
from pseudobath import cli

{inspect.getsource(inline_processes)}
inline_processes(setattr, lambda share: print(all(m in sys.modules for m in
                 ("scipy.linalg", "pseudobath.dynamics", "pseudobath.csvformat"))))
sys.exit(cli.main({argv!r}))
"""
        assert run_python(code) == "True\n"
