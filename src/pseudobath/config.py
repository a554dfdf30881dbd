"""JSON run-configuration parsing and validation.

Complex numbers travel as two-element [re, im] arrays everywhere.  Every
validation failure names the JSON path of the offending field so config
errors are directly actionable.  The pairs of ``system.matrix`` and
``initial.psi`` are checked in one pass and converted as one array; an error
names the first defect in document order (a malformed matrix row comes after
the entries of the rows before it).
"""

import json
import math
from collections import namedtuple
from itertools import chain

import numpy as np

from .model import (
    BathModel,
    InitialState,
    LorentzPeak,
    ModelError,
    SystemHamiltonian,
)

#: The oracle's step count where the config sets none.
_ORACLE_STEPS = 4000


class ConfigError(Exception):
    """A configuration failure: malformed JSON, or ``ValidationError``."""


class ValidationError(ConfigError):
    """Structurally valid JSON with invalid content."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class RunConfig(
    namedtuple("RunConfig", "system bath initial t_max output_points oracle_steps sweep")
):
    """A validated run configuration: a ``SystemHamiltonian``, a
    ``BathModel``, an ``InitialState``, the grid and the oracle's step count
    (the wire key ``solver.oracle_steps``).  ``oracle_steps`` defaults to
    ``_ORACLE_STEPS`` and ``sweep`` to a new empty dict."""

    __slots__ = ()

    def __new__(
        cls, system, bath, initial, t_max, output_points, oracle_steps=_ORACLE_STEPS, sweep=None
    ):
        sweep = {} if sweep is None else sweep
        return super().__new__(
            cls, system, bath, initial, t_max, output_points, oracle_steps, sweep
        )


def _get(obj: dict, key: str, path: str, kind=None, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise ValidationError(f"{path}.{key}", "missing required field")
        return default
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise ValidationError(
            f"{path}.{key}", f"expected {getattr(kind, '__name__', kind)}, got {type(val).__name__}"
        )
    return val


#: JSON integers are unbounded; float() raises OverflowError beyond 1.8e308.
_OUT_OF_RANGE = "number is out of the float range"


def _number(obj, key, path, required=True, default=None):
    val = _get(obj, key, path, required=required, default=default)
    if val is default and not required:
        return default
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValidationError(f"{path}.{key}", "expected a number")
    try:
        return float(val)
    except OverflowError:
        raise ValidationError(f"{path}.{key}", _OUT_OF_RANGE) from None


def _finite(obj, key, path, required=True, default=None):
    val = _number(obj, key, path, required=required, default=default)
    if not math.isfinite(val):
        raise ValidationError(f"{path}.{key}", f"must be finite, got {val}")
    return val


def _grid_size(obj, key, path, low, default=None) -> int:
    """An integer in [low, 10**12], required unless it has a default; above
    the cap numpy fails on the array size itself, before any MemoryError."""
    val = _get(obj, key, path, required=default is None, default=default)
    if isinstance(val, bool) or not isinstance(val, int) or not low <= val <= 10**12:
        raise ValidationError(f"{path}.{key}", f"expected an integer in [{low}, 10**12]")
    return val


def _complex(val, path) -> complex:
    if (
        not isinstance(val, list)
        or len(val) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in val)
    ):
        raise ValidationError(path, "complex values must be [re, im] number pairs")
    try:
        z = complex(val[0], val[1])
    except OverflowError:
        raise ValidationError(path, _OUT_OF_RANGE) from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(path, f"complex value must be finite, got {val}")
    return z


def _complex_array(values, path_of) -> np.ndarray:
    """The list of [re, im] pairs ``values`` as a complex array, bit for bit
    ``complex(re, im)``.  One pass checks that every pair holds two numbers
    of exact type ``int`` or ``float`` (so not ``bool``); numpy converts
    them, raising OverflowError like ``float`` on an integer beyond the float
    range.  On any defect every pair goes through ``_complex`` instead, which
    raises the first one's error at ``path_of(index)``: no path is built for
    valid input."""
    if all(
        type(v) is list and len(v) == 2
        and type(v[0]) in (int, float) and type(v[1]) in (int, float)
        for v in values
    ):
        try:
            parts = np.fromiter(chain.from_iterable(values), float, 2 * len(values))
        except OverflowError:
            pass
        else:
            if np.isfinite(parts).all():
                return parts.view(complex)
    return np.array([_complex(v, path_of(i)) for i, v in enumerate(values)], dtype=complex)


#: Levels a sweep value may nest; no config field nests more than 3 (the
#: matrix), and the report writer recurses once per level.
_MAX_SWEEP_DEPTH = 32


def _check_sweep_value(value, path: str):
    """Raise unless ``value`` nests at most _MAX_SWEEP_DEPTH levels and no
    float nested anywhere in it is NaN or infinite."""
    finite = True
    stack = [(value, 0)]
    while stack:
        v, depth = stack.pop()
        if isinstance(v, (list, dict)):
            if depth == _MAX_SWEEP_DEPTH:
                raise ValidationError(path, f"nested more than {_MAX_SWEEP_DEPTH} levels deep")
            stack.extend((w, depth + 1) for w in (v.values() if isinstance(v, dict) else v))
        elif isinstance(v, float) and not math.isfinite(v):
            finite = False
    if not finite:
        raise ValidationError(path, f"must be finite, got {value}")


def _record(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a record of ``model``; a ``ModelError`` it
    raises is raised as a ``ValidationError`` at the JSON ``path``."""
    try:
        return make(*args, **kwargs)
    except ModelError as exc:
        raise ValidationError(path, str(exc)) from exc


def parse_config(text) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    # ValueError: not UTF-8, not JSON, or an integer of over 4300 digits
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("$", "top level must be an object")

    sys_obj = _get(doc, "system", "$", dict)
    n = _get(sys_obj, "n", "$.system")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError("$.system.n", "expected a positive integer")
    rows = _get(sys_obj, "matrix", "$.system", list)
    if len(rows) != n:
        raise ValidationError("$.system.matrix", f"expected {n} rows, got {len(rows)}")
    # a malformed row is reported after the entries of the rows before it
    bad_row = next(
        (i for i, row in enumerate(rows) if not isinstance(row, list) or len(row) != n), n
    )
    matrix = _complex_array(
        [entry for row in rows[:bad_row] for entry in row],
        lambda k: f"$.system.matrix[{k // n}][{k % n}]",
    )
    if bad_row < n:
        raise ValidationError(f"$.system.matrix[{bad_row}]", f"expected {n} entries")
    system = _record("$.system.matrix", SystemHamiltonian, matrix.reshape(n, n))

    bath_obj = _get(doc, "bath", "$", dict)
    peaks = []
    for i, p in enumerate(_get(bath_obj, "peaks", "$.bath", list, required=False, default=[])):
        ppath = f"$.bath.peaks[{i}]"
        if not isinstance(p, dict):
            raise ValidationError(ppath, "expected an object")
        g = _finite(p, "g", ppath)
        gamma = _finite(p, "gamma", ppath)
        epsilon = _finite(p, "epsilon", ppath, required=False, default=0.0)
        peaks.append(_record(ppath, LorentzPeak, g=g, gamma=gamma, epsilon=epsilon))
    eta = _finite(bath_obj, "eta", "$.bath", required=False, default=0.0)
    bath = _record("$.bath", BathModel, peaks=tuple(peaks), eta=eta)

    init_obj = _get(doc, "initial", "$", dict)
    psi_raw = _get(init_obj, "psi", "$.initial", list)
    if len(psi_raw) != n:
        raise ValidationError("$.initial.psi", f"expected {n} entries, got {len(psi_raw)}")
    psi = _complex_array(psi_raw, lambda i: f"$.initial.psi[{i}]")
    psi0 = _complex(_get(init_obj, "psi0", "$.initial"), "$.initial.psi0")
    initial = _record("$.initial", InitialState, psi=psi, psi0=psi0)

    time_obj = _get(doc, "time", "$", dict)
    t_max = _number(time_obj, "t_max", "$.time")
    if not 0.0 < t_max < math.inf:
        raise ValidationError("$.time.t_max", f"must be positive and finite, got {t_max}")
    points = _grid_size(time_obj, "points", "$.time", 2)

    solver_obj = _get(doc, "solver", "$", dict, required=False, default={})
    oracle_steps = _grid_size(solver_obj, "oracle_steps", "$.solver", 10, default=_ORACLE_STEPS)

    sweep = _get(doc, "sweep", "$", dict, required=False, default={})
    for key, vals in sweep.items():
        if not isinstance(vals, list) or not vals:
            raise ValidationError(f"$.sweep.{key}", "expected a non-empty list of values")
        for i, val in enumerate(vals):
            _check_sweep_value(val, f"$.sweep.{key}[{i}]")

    return RunConfig(
        system=system,
        bath=bath,
        initial=initial,
        t_max=t_max,
        output_points=points,
        oracle_steps=oracle_steps,
        sweep=dict(sweep),
    )


def config_to_dict(cfg: RunConfig) -> dict:
    """Serialize back to the wire schema; parse(serialize(cfg)) is identity.
    The [re, im] pairs are read from float views of the arrays."""
    n = cfg.system.n
    doc = {
        "system": {"n": n, "matrix": cfg.system.matrix.view(float).reshape(n, n, 2).tolist()},
        "bath": {
            "peaks": [
                {"g": p.g, "gamma": p.gamma, "epsilon": p.epsilon} for p in cfg.bath.peaks
            ],
            "eta": cfg.bath.eta,
        },
        "initial": {
            "psi": cfg.initial.psi.view(float).reshape(-1, 2).tolist(),
            "psi0": [cfg.initial.psi0.real, cfg.initial.psi0.imag],
        },
        "time": {"t_max": cfg.t_max, "points": cfg.output_points},
        "solver": {"oracle_steps": cfg.oracle_steps},
    }
    if cfg.sweep:
        doc["sweep"] = cfg.sweep
    return doc


def apply_override(doc: dict, dotted_path: str, value):
    """Set a value inside a raw config dict by dotted path, e.g.
    ``bath.peaks[0].g`` or ``bath.eta``.  Used by parameter sweeps; the path
    must name a field the dict already holds."""
    import re

    tokens = []
    for part in dotted_path.split("."):
        m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)((?:\[\d+\])*)", part)
        if not m:
            raise ValidationError(f"$.sweep.{dotted_path}", f"bad path component {part!r}")
        tokens.append(m.group(1))
        tokens.extend(int(idx) for idx in re.findall(r"\[(\d+)\]", m.group(2)))
    target = doc
    for tok in tokens[:-1]:
        try:
            target = target[tok]
        except (KeyError, IndexError, TypeError) as exc:
            raise ValidationError(
                f"$.sweep.{dotted_path}", f"path does not exist in config: {tok!r}"
            ) from exc
    # a new key would be ignored by parse_config, and every point would run
    # the same config
    if isinstance(target, dict) and tokens[-1] not in target:
        raise ValidationError(
            f"$.sweep.{dotted_path}", f"path does not exist in config: {tokens[-1]!r}"
        )
    try:
        target[tokens[-1]] = value
    except (IndexError, TypeError) as exc:
        raise ValidationError(
            f"$.sweep.{dotted_path}", f"cannot assign at {tokens[-1]!r}"
        ) from exc


__all__ = [
    "ConfigError",
    "RunConfig",
    "ValidationError",
    "apply_override",
    "config_to_dict",
    "parse_config",
]
