"""In-process tracing of the ``affinetoda`` layers.

Only the traced run uses this module.  It wraps the public module-level
functions of each package module, plus the two public methods the per-layer
metrics need (``ChevalleyAlgebra.bracket`` and ``DomainGrid.laplacian``).
Each call becomes a span (name, start, end, parent span, op id) kept in
memory; ``Tracer.spans`` is written out at the end of the run.

``todasolver.matvec_calls`` counts calls of the public ``jacobian_apply``.
If the solver stops routing its matvecs through that function, the counter
no longer counts CG iterations.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from typing import Callable, Dict, List, Optional

from stats import outermost, self_times

LAYERS = ("rootdata", "chevalley", "grids", "connection", "todasolver", "restriction", "cli")
METHODS = {"chevalley": ("ChevalleyAlgebra", ("bracket",)), "grids": ("DomainGrid", ("laplacian",))}


def _bracket_bytes(args, kwargs, result) -> Dict:
    """points x nnz x 16: the complex (points, nnz) product array the
    bracket computes (a computed size, not a measured allocation).  nnz is
    the length of the algebra's flattened structure table; an algebra
    without that table reports 0."""
    nnz = len(getattr(args[0], "_bk_v", ()))
    return {"bytes": math.prod(result.shape[:-1]) * nnz * 16}


def _file_bytes(args, kwargs, result) -> Dict:
    return {"bytes": os.path.getsize(args[0])}


def _iterations(args, kwargs, result) -> Dict:
    return {"iterations": int(result.iterations)}


ANNOTATE: Dict[str, Callable] = {
    "chevalley.ChevalleyAlgebra.bracket": _bracket_bytes,
    "grids.write_field_binary": _file_bytes,
    "grids.read_field_binary": _file_bytes,
    "todasolver.solve": _iterations,
}


def import_layers() -> Dict[str, object]:
    return {m: importlib.import_module(f"affinetoda.{m}") for m in LAYERS}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._undo: List = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap public names of every layer module, and rebind each wrapped
        function wherever another package module imported it by name."""
        mods = import_layers()
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for other in mods.values():
                    if vars(other).get(attr) is fn:
                        self._undo.append((other, attr, fn))
                        setattr(other, attr, wrapped)
            if layer in METHODS:
                cls_name, names = METHODS[layer]
                cls = getattr(mod, cls_name)
                for attr in names:
                    fn = vars(cls)[attr]
                    self._undo.append((cls, attr, fn))
                    setattr(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


UNITS = {
    "todasolver.matvec_calls": "count",
    "todasolver.matvec_self_s": "s",
    "todasolver.newton_steps": "count",
    "todasolver.cg_iters_per_newton_step": "ratio",
    "todasolver.residual_calls": "count",
    "todasolver.line_search_evals": "count",
    "todasolver.solve_self_s": "s",
    "grids.laplacian_s": "s",
    "grids.laplacian_calls": "count",
    "grids.io_s": "s",
    "grids.io_bytes": "bytes",
    "chevalley.bracket_s": "s",
    "chevalley.bracket_calls": "count",
    "chevalley.bracket_bytes_computed": "bytes",
    "chevalley.table_s": "s",
    "chevalley.sl2_s": "s",
    "chevalley.verify_structure_s": "s",
    "connection.curvature_self_s": "s",
    "connection.char_scale_s": "s",
    "connection.build_s": "s",
    "connection.higgs_residual_s": "s",
    "connection.commutator_defect_s": "s",
    "rootdata.build_s": "s",
    "restriction.restrict_s": "s",
    "restriction.classify_s": "s",
    "cli.self_s": "s",
    "cli.solve_s": "s",
    "cli.verify_s": "s",
    "cli.conn_check_s": "s",
    "cli.lie_s": "s",
    "trace.overhead_s": "s",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    own = self_times(spans)

    def incl(name: str) -> float:
        return sum(s["end"] - s["start"] for s in outermost(spans, name))

    def self_of(name: str) -> float:
        return sum(own[s["id"]] for s in spans if s["name"] == name)

    def count(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    def total(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    matvecs = count("todasolver.jacobian_apply")
    steps = newton_steps(spans)
    residuals = count("todasolver.residual")
    return {
        "todasolver.matvec_calls": matvecs,
        "todasolver.matvec_self_s": self_of("todasolver.jacobian_apply"),
        "todasolver.newton_steps": steps,
        "todasolver.cg_iters_per_newton_step": matvecs / steps if steps else 0.0,
        "todasolver.residual_calls": residuals,
        "todasolver.line_search_evals": residuals - loop_residuals(spans),
        "todasolver.solve_self_s": self_of("todasolver.solve"),
        "grids.laplacian_s": incl("grids.DomainGrid.laplacian"),
        "grids.laplacian_calls": count("grids.DomainGrid.laplacian"),
        "grids.io_s": incl("grids.write_field_binary") + incl("grids.read_field_binary"),
        "grids.io_bytes": total("grids.write_field_binary", "bytes")
        + total("grids.read_field_binary", "bytes"),
        "chevalley.bracket_s": incl("chevalley.ChevalleyAlgebra.bracket"),
        "chevalley.bracket_calls": count("chevalley.ChevalleyAlgebra.bracket"),
        "chevalley.bracket_bytes_computed": total("chevalley.ChevalleyAlgebra.bracket", "bytes"),
        "chevalley.table_s": incl("chevalley.build_chevalley"),
        "chevalley.sl2_s": incl("chevalley.build_principal_sl2") + incl("chevalley.coxeter_element"),
        "chevalley.verify_structure_s": incl("chevalley.verify_structure"),
        "connection.curvature_self_s": self_of("connection.curvature"),
        "connection.char_scale_s": incl("connection.char_scale"),
        "connection.build_s": incl("connection.build_toda_connection"),
        "connection.higgs_residual_s": incl("connection.higgs_residual"),
        "connection.commutator_defect_s": incl("connection.commutator_defect"),
        "rootdata.build_s": incl("rootdata.build_root_system"),
        "restriction.restrict_s": incl("restriction.restrict"),
        "restriction.classify_s": incl("restriction.classify_affine"),
        "cli.self_s": sum(own[s["id"]] for s in spans if _layer(s["name"]) == "cli"),
    }


def _solve_children(spans: List[Dict]) -> Dict[int, List[Dict]]:
    """Residual and matvec spans inside each solve span, in call order."""
    by_id = {s["id"]: s for s in spans}
    out: Dict[int, List[Dict]] = {s["id"]: [] for s in spans if s["name"] == "todasolver.solve"}
    for s in spans:
        if s["name"] not in ("todasolver.residual", "todasolver.jacobian_apply"):
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != "todasolver.solve":
            p = by_id[p]["parent"]
        if p is not None:
            out[p].append(s)
    return out


def _inner_solves(calls: List[Dict]) -> int:
    """Number of runs of consecutive matvecs: one per inner CG solve."""
    runs, prev = 0, None
    for s in calls:
        if s["name"] == "todasolver.jacobian_apply" and prev != s["name"]:
            runs += 1
        prev = s["name"]
    return runs


def newton_steps(spans: List[Dict]) -> int:
    """Solution.iterations summed over the solves that returned, plus the
    inner solves started by solves that raised (which return no Solution)."""
    steps = 0
    for sid, calls in _solve_children(spans).items():
        span = spans[sid]
        steps += span["iterations"] if "iterations" in span else _inner_solves(calls)
    return steps


def loop_residuals(spans: List[Dict]) -> int:
    """Residual evaluations at the top of a Newton iteration: one before each
    inner solve, plus the final convergence test of a solve that returned.
    Every other residual call is a line-search evaluation.  (A solve that
    gives up inside its line search has no final test and is counted one
    evaluation short.)"""
    n = 0
    for sid, calls in _solve_children(spans).items():
        n += _inner_solves(calls) + (0 if "error" in spans[sid] else 1)
    return n
