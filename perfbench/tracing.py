"""Spans recorded around the benchmark's calls into solgeo, and per-layer
figures read from a ``cProfile`` run.

Both live in the benchmark alone: spans wrap the calls that
``workloads.py`` makes, and the profiler attributes self time and call
counts to the module file each function is defined in.
"""

from __future__ import annotations

import os
import pstats
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List

MODULES = ("sol_space", "patch", "numerics", "surface_calculus",
           "biconservative_family", "exact_poly", "verification", "cli")

# (metric, module file or "numpy"/"scipy", function names summed)
CALL_COUNTS = (
    ("surface_calculus.shape_data.calls", "surface_calculus", ("shape_data",)),
    ("surface_calculus.adapted_frame.calls", "surface_calculus",
     ("adapted_frame",)),
    ("surface_calculus.biconservative_residual.calls", "surface_calculus",
     ("biconservative_residual",)),
    ("surface_calculus.laplace_beltrami.calls", "surface_calculus",
     ("laplace_beltrami",)),
    ("patch.handle_calls", "patch",
     ("position", "du", "dv", "duu", "duv", "dvv")),
    ("sol_space.christoffel.calls", "sol_space", ("christoffel",)),
    ("sol_space.sectional_curvature.calls", "sol_space",
     ("sectional_curvature",)),
    ("sol_space.curvature_components.calls", "sol_space",
     ("curvature_components",)),
    ("external.scipy_eigh.calls", "scipy", ("eigh",)),
    ("external.numpy_cross.calls", "numpy", ("cross",)),
    ("biconservative_family.solve_f.calls", "biconservative_family",
     ("solve_f",)),
    ("numerics.rk4_step.calls", "numerics", ("rk4_step",)),
    ("numerics.adaptive_simpson.calls", "numerics", ("adaptive_simpson",)),
    ("numerics.hermite_eval.calls", "numerics", ("hermite_eval",)),
    ("numerics.central_diff.calls", "numerics", ("central_diff",)),
)

SELF_TIMES = tuple(f"{m}.self_s" for m in MODULES) + ("external.self_s",)


class Spans:
    """In-memory span log: name, start, end, parent and operation id.

    Times are ``perf_counter`` seconds; nothing is written until the caller
    dumps ``records`` at the end of the run.
    """

    def __init__(self) -> None:
        self.records: List[Dict] = []
        self._stack: List[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.records), "op": self.op, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def no_span(name: str):
    """Stand-in for ``Spans.span`` in the timed run, where tracing is off."""
    return nullcontext()


def _owner(filename: str, package_dir: str, bench_dir: str) -> str:
    """Layer that a profiled function belongs to, from its source file."""
    if os.path.dirname(filename) == package_dir:
        return os.path.splitext(os.path.basename(filename))[0]
    if os.path.dirname(filename) == bench_dir:
        return "bench"
    parts = filename.replace("\\", "/").split("/")
    for lib in ("numpy", "scipy"):
        if lib in parts:
            return lib
    return "external"


def layer_profile(stats: pstats.Stats, package_dir: str,
                  bench_dir: str) -> Dict[str, float]:
    """Self time per solgeo module and the call counts in ``CALL_COUNTS``.

    ``external.self_s`` is everything outside solgeo and the benchmark:
    numpy, scipy, builtins and the rest of the standard library.
    """
    out = {name: 0.0 for name in SELF_TIMES}
    out.update({name: 0 for name, _, _ in CALL_COUNTS})
    wanted = {}
    for metric, owner, functions in CALL_COUNTS:
        for function in functions:
            wanted[(owner, function)] = metric
    for (filename, _line, function), (_cc, nc, tt, _ct, _callers) \
            in stats.stats.items():
        owner = _owner(filename, package_dir, bench_dir)
        if owner in MODULES:
            out[f"{owner}.self_s"] += tt
        elif owner != "bench" and owner != "__init__":
            out["external.self_s"] += tt
        metric = wanted.get((owner, function))
        if metric is not None:
            out[metric] += nc
    return out
