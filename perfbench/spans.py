"""Span tracing of one ``pseudobath.cli.main`` invocation, layer by layer.

The tracer replaces public names at the site where each caller looks them
up: ``cli`` imports ``parse_config``, ``hermitian_eigen`` and
``lorentz_correlation`` by name and ``dynamics`` imports
``integrate_linear_ode`` by name, so patching only the defining module would
miss those calls.  Spans (name, start, end, id, parent, run id) and counts stay
in memory; forked sweep workers write theirs to a spool directory when they
exit, and the parent merges them after the invocation.

The layers are the package modules: a span's layer is the part of its name
before the first dot.
"""

import functools
import glob
import inspect
import json
import multiprocessing.util
import os
import time
from collections import defaultdict

LAYERS = ("config", "model", "pseudomode", "linalg", "dynamics", "volterra", "cli")


def _march_counts(fn, args, kwargs, _result) -> dict:
    """Steps and history multiply-adds of one oracle solve, from its arguments.

    At step k the predictor and the corrector each sum k + 1 history terms of
    an n-vector, so a march of s steps costs n * s * (s + 1) multiply-adds in
    the direct history sum.  Richardson extrapolation adds a march of 2s steps.
    """
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    steps = bound.arguments["steps"]
    n = len(bound.arguments["psi0"])
    marches = [steps, 2 * steps] if bound.arguments["extrapolate"] else [steps]
    return {
        "volterra.march_steps": sum(marches),
        "volterra.history_macs": sum(n * s * (s + 1) for s in marches),
    }


def _calls(key: str):
    return lambda _fn, _args, _kwargs, _result: {key: 1}


def _nfev(_fn, _args, _kwargs, result) -> dict:
    return {"linalg.ode_nfev": result.nfev}


# (module, attribute, span name or None for no span, counter or None).
PATCHES = (
    ("cli", "main", "cli.main", None),
    ("cli", "_sweep_point", "cli.sweep_point", None),
    ("cli", "parse_config", "config.parse", None),
    ("cli", "hermitian_eigen", "linalg.eigen", _calls("linalg.eigen_calls")),
    ("cli", "lorentz_correlation", "model.kernel", None),
    ("pseudomode", "hermitian_eigen", "linalg.eigen", _calls("linalg.eigen_calls")),
    ("pseudomode", "build_effective_hamiltonian", "pseudomode.assemble", None),
    ("pseudomode", "block_decompose", "pseudomode.assemble", None),
    ("pseudomode", "check_dilation_closed_form", "pseudomode.certify",
     _calls("pseudomode.certify_calls")),
    ("dynamics", "evolve", "dynamics.evolve", None),
    ("dynamics", "evolve_closed", "dynamics.evolve", None),
    ("dynamics", "observables", "dynamics.observables", None),
    ("dynamics", "reduced_density", None, _calls("dynamics.rho_count")),
    ("dynamics", "integrate_linear_ode", "linalg.ode", None),
    ("linalg", "solve_ivp", None, _nfev),
    ("volterra", "solve_integro_differential", "volterra.march", _march_counts),
    ("volterra", "solve_renormalized", "volterra.march", _march_counts),
    ("volterra", "compare_trajectories", "volterra.compare", None),
)


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.run_id = 0
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._originals = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self):
        # In a forked worker: keep the inherited span stack (so worker spans
        # point at the parent's open span), start empty, flush on exit.
        self.spans = []
        self.counts = defaultdict(int)
        multiprocessing.util.Finalize(None, self._flush_child, exitpriority=100)

    def _flush_child(self):
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": [[k[0], k[1], v] for k, v in self.counts.items()]}, fh)

    def collect_children(self):
        """Merge and remove the spool files that forked workers wrote."""
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "spans-*.json"))):
            with open(path) as fh:
                doc = json.load(fh)
            os.remove(path)
            self.spans.extend(tuple(s) for s in doc["spans"])
            for run_id, key, value in doc["counts"]:
                self.counts[(run_id, key)] += value

    def _wrap(self, fn, name, counter):
        def count(args, kwargs, result):
            if counter is not None:
                for key, value in counter(fn, args, kwargs, result).items():
                    self.counts[(self.run_id, key)] += value

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = f"{os.getpid()}:{self._next_id}"
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((name, start, end, span_id, parent, self.run_id))
            count(args, kwargs, result)
            return result

        return traced

    def install(self) -> list:
        """Patch every name in PATCHES; return the names the package lacks."""
        import importlib

        missing = []
        for module_name, attr, name, counter in PATCHES:
            module = importlib.import_module(f"pseudobath.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return missing

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans, counts, run_id: int) -> dict:
    """Per-layer figures of one traced invocation.

    Inclusive times (``certify_s``, ``evolve_s``, ...) are span durations;
    self times (``*.self_s``, ``assemble_s``, ``march_s``) subtract the part of
    the span covered by its child spans.  Spans of forked workers overlap in
    time, so per-layer sums on a parallel sweep can exceed the wall time.
    """
    spans = [s for s in spans if s[5] == run_id]
    children = defaultdict(list)
    for name, start, end, _sid, parent, _rid in spans:
        children[parent].append((start, end))
    inclusive = defaultdict(float)
    own = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, start, end, sid, _parent, _rid in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children[sid] if e > start and s < end]
        self_time = (end - start) - _covered(kids)
        inclusive[name] += end - start
        own[name] += self_time
        layer_self[name.split(".", 1)[0]] += self_time
    count = {key: value for (rid, key), value in counts.items() if rid == run_id}
    out = {
        "linalg.eigen_s": inclusive["linalg.eigen"],
        "linalg.ode_s": inclusive["linalg.ode"],
        "pseudomode.certify_s": inclusive["pseudomode.certify"],
        "pseudomode.assemble_s": own["pseudomode.assemble"],
        "dynamics.evolve_s": inclusive["dynamics.evolve"],
        "dynamics.observables_s": inclusive["dynamics.observables"],
        "volterra.march_s": own["volterra.march"],
        "volterra.compare_s": inclusive["volterra.compare"],
        "model.kernel_s": inclusive["model.kernel"],
        "config.parse_s": inclusive["config.parse"],
        "trace.spans": len(spans),
    }
    for key in ("linalg.eigen_calls", "linalg.ode_nfev", "pseudomode.certify_calls",
                "dynamics.rho_count", "volterra.march_steps", "volterra.history_macs"):
        out[key] = count.get(key, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
