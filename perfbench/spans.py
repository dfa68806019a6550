"""In-memory span tracing of singpde's layers, installed from outside.

The tracer wraps the public functions each layer exposes on the module
attributes that callers actually resolve (``singpde.solver.solve_spd``,
``singpde.cli.solve_sequence``, ``singpde.diagnostics.torsion_function``, ...)
and the ``__call__`` of ``SingularNonlinearity`` and ``ScalarField`` at class
level.  Nothing under ``src/`` is edited.

A span is ``[id, name, start, end, parent, thread, error, attrs]``.  Parents
come from a thread-local stack; the first span of a worker thread takes the
root span (``cli.main``) as its parent, so sweep rows hang under the command.
Spans stay in memory and are written out once, when the command ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# Layer name -> (defining module, public functions wrapped).  An empty tuple
# means every function in the module's ``__all__``.
MODULE_LAYERS = {
    "mesh": ("singpde.mesh", ("solve_spd", "build_laplacian", "build_grid")),
    "measures": ("singpde.measures", ("mollify",)),
    "solver": ("singpde.solver", ()),
    "diagnostics": ("singpde.diagnostics", ()),
}

# Functions whose results carry regularization levels and Picard iterations.
LEVEL_SPANS = ("solver.solve_sequence", "solver.solve_regularized", "solver.solve_clamped")


def _solve_spd_attrs(args, kwargs, result):
    return {"unknowns": int(args[0].grid.interior_count)}


def _h_attrs(args, kwargs, result):
    return {"points": int(getattr(args[1], "size", 1))}


def _level_attrs(result):
    return {
        "levels": 1,
        "iterations": int(result.iterations),
        "nonconverged": int(not result.converged),
    }


def _sequence_attrs(args, kwargs, result):
    spec = args[0]
    schedule = args[1] if len(args) > 1 else kwargs.get("n_schedule")
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    key = repr((spec.grid.dim, spec.grid.cells_per_side, spec.h, spec.f, spec.mu,
                None if schedule is None else tuple(schedule), cfg))
    attrs = {"key": key}
    if result is not None:
        attrs.update(
            levels=len(result.results),
            iterations=sum(int(r.iterations) for r in result.results),
            nonconverged=sum(int(not r.converged) for r in result.results),
        )
    return attrs


ANNOTATORS = {
    "mesh.solve_spd": _solve_spd_attrs,
    "singularity.h": _h_attrs,
    "solver.solve_sequence": _sequence_attrs,
    "solver.solve_regularized": lambda a, k, r: None if r is None else _level_attrs(r),
    "solver.solve_clamped": lambda a, k, r: None if r is None else _level_attrs(r),
}


class Tracer:
    """Records spans around wrapped callables; one tracer per process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def wrap(self, name: str, fn):
        annotate = ANNOTATORS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            if tracer._root is None:
                tracer._root = sid
            stack.append(sid)
            result = None
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = annotate(args, kwargs, result) if annotate else None
                tracer.spans.append(
                    [sid, name, start, end, parent, threading.get_ident(), error, attrs]
                )

        return traced

    def install(self) -> None:
        """Wrap every layer boundary of an imported ``singpde``."""
        import singpde.cli
        import singpde.config
        import singpde.fields
        import singpde.singularity

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "singpde"]
        for layer, (mod_name, names) in MODULE_LAYERS.items():
            mod = sys.modules[mod_name]
            for fname in names or mod.__all__:
                orig = getattr(mod, fname)
                if not inspect.isfunction(orig):
                    continue
                traced = self.wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, traced)
        for cls, name in (
            (singpde.singularity.SingularNonlinearity, "singularity.h"),
            (singpde.fields.ScalarField, "fields.eval"),
        ):
            cls.__call__ = self.wrap(name, cls.__call__)
        run_config = singpde.config.RunConfig
        run_config.from_file = classmethod(
            self.wrap("config.from_file", run_config.__dict__["from_file"].__func__)
        )
        singpde.cli.main = self.wrap("cli.main", singpde.cli.main)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------------


def load(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    keys = ("id", "name", "start", "end", "parent", "thread", "error", "attrs")
    return [dict(zip(keys, s), run=data["run_id"]) for s in data["spans"]]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span may run on several threads and overlap, so the
    covered time is the length of the union of their intervals.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and self times of one traced command.

    Every ``.s`` value is a self time, so the layers' seconds do not count a
    nested call twice; ``config.load_s`` is the inclusive time of
    ``RunConfig.from_file``, the part of set-up that the program owns.
    """
    selft = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    calls = defaultdict(int)
    secs = defaultdict(float)
    layer_secs = defaultdict(float)
    layer_calls = defaultdict(int)
    for s in spans:
        calls[s["name"]] += 1
        secs[s["name"]] += selft[s["id"]]
        layer = s["name"].split(".")[0]
        layer_secs[layer] += selft[s["id"]]
        layer_calls[layer] += 1

    def attr_sum(name, key, level_outermost=False):
        total = 0
        for s in spans:
            if s["name"] != name or not s["attrs"] or key not in s["attrs"]:
                continue
            if level_outermost and _has_ancestor(s, by_id, LEVEL_SPANS):
                continue
            total += s["attrs"][key]
        return total

    spd_calls = calls["mesh.solve_spd"]
    unknowns = attr_sum("mesh.solve_spd", "unknowns")
    seq_calls = calls["solver.solve_sequence"]
    distinct = len({s["attrs"]["key"] for s in spans if s["name"] == "solver.solve_sequence"})
    levels = sum(attr_sum(n, "levels", True) for n in LEVEL_SPANS)
    picard = sum(attr_sum(n, "iterations", True) for n in LEVEL_SPANS)
    nonconv = sum(attr_sum(n, "nonconverged", True) for n in LEVEL_SPANS)
    return {
        "mesh.solve_spd.calls": spd_calls,
        "mesh.solve_spd.s": secs["mesh.solve_spd"],
        "mesh.solve_spd.unknowns": unknowns,
        "mesh.solve_spd.ns_per_unknown": 1e9 * secs["mesh.solve_spd"] / unknowns if unknowns else 0.0,
        "mesh.solve_spd.failed": sum(1 for s in spans if s["name"] == "mesh.solve_spd" and s["error"]),
        "mesh.build_laplacian.calls": calls["mesh.build_laplacian"],
        "mesh.build_laplacian.s": secs["mesh.build_laplacian"],
        "mesh.build_grid.calls": calls["mesh.build_grid"],
        "mesh.build_grid.s": secs["mesh.build_grid"],
        "solver.solve_sequence.calls": seq_calls,
        "solver.solve_sequence.distinct": distinct,
        "solver.sequence_reuse": distinct / seq_calls if seq_calls else 0.0,
        "solver.levels": levels,
        "solver.picard_iterations": picard,
        "solver.solves_per_picard": spd_calls / picard if picard else 0.0,
        "solver.nonconverged": nonconv,
        "solver.self_s": layer_secs["solver"],
        "singularity.h.calls": calls["singularity.h"],
        "singularity.h.points": attr_sum("singularity.h", "points"),
        "singularity.h.s": secs["singularity.h"],
        "fields.eval.calls": calls["fields.eval"],
        "fields.eval.s": secs["fields.eval"],
        "measures.mollify.calls": calls["measures.mollify"],
        "measures.mollify.s": secs["measures.mollify"],
        "diagnostics.calls": layer_calls["diagnostics"],
        "diagnostics.s": layer_secs["diagnostics"],
        "cli.self_s": secs["cli.main"],
        "config.load_s": sum(s["end"] - s["start"] for s in spans if s["name"] == "config.from_file"),
    }


def _has_ancestor(span, by_id, names) -> bool:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] in names:
            return True
        parent = by_id.get(parent["parent"])
    return False
