"""Seeded inputs, references and output checks for the benchmark workloads.

Configs are generated with the standard library's ``random`` so that one seed
gives byte-identical inputs on every machine and numpy version.  The seed
jitters every parameter of a fixed base config (see ``_Draw``).  Checks use
tolerances, never byte hashes: a change of propagator may legitimately move
results at the 1e-10 level.

Every config with ``eta > 0`` has its system Hamiltonian lifted (by a
Gershgorin bound) above the closed-form dilation threshold
``(eta/4) * sum g_j^2 / gamma_j``, so the norm cannot grow and every run must
exit 0.
"""

import json
import os
import random
import shutil

# Margin of the Gershgorin lower bound of H over the dilation threshold after
# lifting, so the certificate does not hang on the PSD tolerance.
_LIFT_MARGIN = 0.2

# Full-size and toy-size parameters; the toy sizes keep the self-check fast.
SIZES = {
    "simulate-dense": {"full": dict(n=3, k=3, t_max=20.0, points=4001),
                       "toy": dict(n=2, k=1, t_max=2.0, points=51)},
    "compare-ohmic": {"full": dict(n=2, k=2, t_max=10.0, steps=4000),
                      "toy": dict(n=1, k=1, t_max=2.0, steps=100)},
    "sweep-small": {"full": dict(k=2, points=201, g_values=4, gamma_values=4),
                    "toy": dict(k=2, points=11, g_values=2, gamma_values=1)},
    "check-wide": {"full": dict(n=24, k=3), "toy": dict(n=3, k=2)},
}


class CheckFailed(Exception):
    """An invocation's output violates the workload's check."""


def _pair(z: complex) -> list:
    return [z.real, z.imag]


class _Draw:
    """Random numbers of one workload: a base value shared by every seed,
    scaled by a factor within 1 +- JITTER drawn from the seed.

    The seed changes every number the program computes with, so the output
    checks are exercised afresh, but not the amount of work: with fully random
    inputs the eigen-solver's cost alone differs by 20 % between seeds, which
    would hide the spread of the machine.
    """

    JITTER = 0.02

    def __init__(self, workload: str, seed: int):
        self._base = random.Random(workload)
        self._seed = random.Random(f"{workload}:{seed}")

    def __call__(self, lo: float, hi: float) -> float:
        return self._base.uniform(lo, hi) * (1.0 + self.JITTER * self._seed.uniform(-1.0, 1.0))


def _peaks(draw: _Draw, k: int) -> list:
    return [
        {"g": draw(0.3, 0.5), "gamma": draw(0.5, 1.0), "epsilon": draw(-0.2, 0.2)}
        for _ in range(k)
    ]


def dilation_threshold(eta: float, peaks: list) -> float:
    return 0.25 * eta * sum(p["g"] ** 2 / p["gamma"] for p in peaks)


def _hamiltonian(draw: _Draw, n: int, floor: float) -> list:
    """Random Hermitian matrix whose Gershgorin lower bound is >= floor."""
    h = [[0j] * n for _ in range(n)]
    for i in range(n):
        h[i][i] = complex(draw(0.8, 1.2))
        for j in range(i + 1, n):
            z = complex(draw(-0.1, 0.1), draw(-0.1, 0.1))
            h[i][j] = z
            h[j][i] = z.conjugate()
    lower = min(h[i][i].real - sum(abs(h[i][j]) for j in range(n) if j != i) for i in range(n))
    lift = max(0.0, floor - lower)
    return [[_pair(h[i][j] + (lift if i == j else 0.0)) for j in range(n)] for i in range(n)]


def _initial(draw: _Draw, n: int) -> dict:
    amps = [complex(draw(-1.0, 1.0), draw(-1.0, 1.0)) for _ in range(n + 1)]
    norm = sum(abs(a) ** 2 for a in amps) ** 0.5
    amps = [a / norm for a in amps]
    return {"psi0": _pair(amps[0]), "psi": [_pair(a) for a in amps[1:]]}


def _base(draw, n, k, eta, t_max, points, oracle_steps=4000) -> dict:
    peaks = _peaks(draw, k)
    floor = dilation_threshold(eta, peaks) + _LIFT_MARGIN
    return {
        "system": {"n": n, "matrix": _hamiltonian(draw, n, floor)},
        "bath": {"peaks": peaks, "eta": eta},
        "initial": _initial(draw, n),
        "time": {"t_max": t_max, "points": points},
        "solver": {"rtol": 1e-9, "atol": 1e-12, "oracle_steps": oracle_steps},
    }


def make_config(workload: str, seed: int, scale: str = "full") -> dict:
    """The config document of ``workload`` for ``seed`` at ``scale``."""
    size = SIZES[workload][scale]
    draw = _Draw(workload, seed)
    if workload == "simulate-dense":
        return _base(draw, size["n"], size["k"], draw(0.1, 0.3), size["t_max"], size["points"])
    if workload == "compare-ohmic":
        return _base(draw, size["n"], size["k"], 0.5, size["t_max"], 101, size["steps"])
    if workload == "sweep-small":
        etas = [0.0, 0.1]
        gs = sorted(draw(0.2, 0.6) for _ in range(size["g_values"]))
        gammas = sorted(draw(0.4, 1.0) for _ in range(size["gamma_values"]))
        doc = _base(draw, 1, size["k"], 0.0, 5.0, size["points"])
        # Lift for the most demanding sweep point: largest eta and g, smallest gamma.
        worst = [dict(doc["bath"]["peaks"][0], g=gs[-1]),
                 dict(doc["bath"]["peaks"][1], gamma=gammas[0])]
        floor = dilation_threshold(etas[-1], worst) + _LIFT_MARGIN
        doc["system"]["matrix"] = _hamiltonian(draw, 1, floor)
        doc["sweep"] = {"bath.eta": etas, "bath.peaks[0].g": gs, "bath.peaks[1].gamma": gammas}
        return doc
    if workload == "check-wide":
        return _base(draw, size["n"], size["k"], 0.7, 10.0, 101)
    raise KeyError(workload)


def cli_args(workload: str, config_path: str, out_dir: str) -> list:
    """Arguments for ``pseudobath.cli.main``."""
    command = {
        "simulate-dense": ["simulate"],
        "compare-ohmic": ["compare", "--threshold", "1e-6"],
        "sweep-small": ["sweep", "--jobs", "2"],
        "check-wide": ["check"],
    }[workload]
    return command + ["--config", config_path, "--out", out_dir]


def _matrix(doc_matrix):
    import numpy as np

    return np.array([[complex(*z) for z in row] for row in doc_matrix])


def reference(workload: str, doc: dict):
    """Independent reference values, computed once per run before timing.

    For ``simulate-dense`` this is the final excited population from a dense
    matrix exponential of the pseudomode generator, assembled here from the
    config rather than by the package.
    """
    if workload != "simulate-dense":
        return None
    import numpy as np
    from scipy.linalg import expm

    n = doc["system"]["n"]
    peaks = doc["bath"]["peaks"]
    eta = doc["bath"]["eta"]
    f = 1.0 / (1.0 + 0.5j * eta)
    dim = (len(peaks) + 1) * n
    m = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(n)
    m[:n, :n] = f * _matrix(doc["system"]["matrix"])
    for j, p in enumerate(peaks, start=1):
        lo = j * n
        m[:n, lo:lo + n] = f * p["g"] * eye
        m[lo:lo + n, :n] = p["g"] * eye
        m[lo:lo + n, lo:lo + n] = (p["epsilon"] - 0.5j * p["gamma"]) * eye
    y0 = np.zeros(dim, dtype=complex)
    y0[:n] = f * np.array([complex(*z) for z in doc["initial"]["psi"]])
    y = expm(-1j * doc["time"]["t_max"] * m) @ y0
    return float(np.vdot(y[:n], y[:n]).real)


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {exc}") from exc


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _check_report(report: dict, points: int):
    traj = report["trajectory"]
    tol = report["tolerances"]
    _require(traj["points"] == points, f"trajectory has {traj['points']} points, expected {points}")
    _require(traj["max_trace_deviation"] <= tol["rho_trace"],
             f"rho trace deviation {traj['max_trace_deviation']:.3e}")
    _require(traj["min_rho_eigenvalue"] >= -tol["rho_psd"],
             f"rho not PSD: min eigenvalue {traj['min_rho_eigenvalue']:.3e}")
    pops = traj["final_excited_population"] + traj["final_ground_population"]
    _require(abs(pops - 1.0) <= 1e-12, f"final populations sum to {pops!r}")
    _require(report["dilation"]["spectral_pass"] and report["dilation"]["closed_form_pass"],
             "lifted Hamiltonian failed dilation certification")


def check(workload: str, doc: dict, out_dir: str, code: int, ref) -> None:
    """Raise CheckFailed unless the invocation's exit code and outputs are right."""
    _require(code == 0, f"exit code {code}")
    if workload == "simulate-dense":
        report = _load(os.path.join(out_dir, "report.json"))
        points = doc["time"]["points"]
        _check_report(report, points)
        final = report["trajectory"]["final_excited_population"]
        _require(abs(final - ref) <= 1e-7,
                 f"final excited population {final!r} differs from expm reference {ref!r}")
        with open(os.path.join(out_dir, "trajectory.csv")) as fh:
            rows = fh.read().splitlines()
        _require(len(rows) == points + 1, f"trajectory.csv has {len(rows)} lines")
        _require(float(rows[-1].rsplit(",", 1)[1]) == final,
                 "last CSV row disagrees with report.json")
    elif workload == "compare-ohmic":
        comparison = _load(os.path.join(out_dir, "compare.json"))["comparison"]
        _require(comparison["sup_deviation"] <= 1e-6,
                 f"sup deviation {comparison['sup_deviation']:.3e} > 1e-6")
        _require(comparison["oracle_steps"] == doc["solver"]["oracle_steps"], "oracle steps differ")
    elif workload == "sweep-small":
        expected = 1
        for values in doc["sweep"].values():
            expected *= len(values)
        manifest = _load(os.path.join(out_dir, "manifest.json"))
        _require(len(manifest) == expected, f"manifest has {len(manifest)} entries, expected {expected}")
        dirs = sorted(d for d in os.listdir(out_dir) if d.startswith("point_"))
        _require(len(dirs) == expected, f"{len(dirs)} point directories, expected {expected}")
        for entry in manifest:
            report = _load(os.path.join(out_dir, entry["dir"], "report.json"))
            _check_report(report, doc["time"]["points"])
    elif workload == "check-wide":
        report = _load(os.path.join(out_dir, "dilation.json"))
        _require(report["spectral_pass"] is True and report["closed_form_pass"] is True,
                 "dilation certification did not pass both ways")
        _require(len(report["per_block"]) == doc["system"]["n"],
                 f"{len(report['per_block'])} blocks, expected {doc['system']['n']}")
    else:
        raise KeyError(workload)


def corrupt(workload: str, out_dir: str) -> None:
    """Damage one output the way a wrong result would, for the self-check."""
    if workload == "sweep-small":
        shutil.rmtree(os.path.join(out_dir, "point_0000"))
        return
    name, edit = {
        "simulate-dense": ("report.json",
                           lambda d: d["trajectory"].update(final_excited_population=0.5,
                                                            final_ground_population=0.5)),
        "compare-ohmic": ("compare.json",
                          lambda d: d["comparison"].update(sup_deviation=1e-3)),
        "check-wide": ("dilation.json", lambda d: d.update(spectral_pass=False)),
    }[workload]
    path = os.path.join(out_dir, name)
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
