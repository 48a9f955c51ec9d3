"""One benchmark worker: imports solgeo, runs operations of one workload
in a closed loop with a single client, checks each output, and writes a
JSON result file for ``run.py``.

    python3 perfbench/worker.py CONFIG_JSON

The config names the workload, the seed, the result path and either a
time budget (``seconds``) or a fixed operation list (``first``/``count``,
used by the traced run).  ``profile`` turns on ``cProfile`` around the
operations only; checks run with the profiler paused.  ``probe`` runs the
host speed probe around and during each operation.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import time
import traceback
from contextlib import nullcontext, suppress

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import workloads  # noqa: E402
from tracing import Spans, layer_profile, no_span  # noqa: E402


def _operation(workload: str, scratch: str):
    if workload == "surface_grid":
        return workloads.surface_grid_op, workloads.surface_grid_check
    if workload == "implicit_march":
        return workloads.implicit_march_op, workloads.implicit_march_check
    if workload == "mesh_generate":
        path = os.path.join(scratch, f"mesh_{os.getpid()}")

        def run(inp, span):
            return workloads.mesh_generate_op(inp, span, path)

        def check(inp, out):
            try:
                workloads.mesh_generate_check(inp, out)
            finally:
                with suppress(FileNotFoundError):
                    os.remove(path)

        return run, check
    if workload == "verify_all":
        return workloads.verify_op, \
            lambda inp, out: workloads.verify_check(out["json"])
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        config = json.load(handle)
    import solgeo

    workload, seed = config["workload"], config["seed"]
    run, check = _operation(workload, config["scratch"])
    spans = Spans() if config["spans"] else None
    span = spans.span if spans else no_span
    profiler = cProfile.Profile() if config["profile"] else None

    inputs = workloads.op_inputs(workload, seed)
    for _ in range(config.get("first", 0)):
        next(inputs)
    count = config.get("count")
    deadline = time.perf_counter() + config.get("seconds", 0.0)
    ops = []
    probes = probe.Probes() if config["probe"] else None
    for index, inp in enumerate(inputs):
        if spans:
            spans.op = index
        error = None
        out = None
        sampler = probe.Sampler() if probes is not None else nullcontext()
        start = time.perf_counter()
        try:
            if profiler:
                profiler.enable()
            with sampler, span("op"):
                out = run(inp, span)
        except Exception:  # a failing operation is counted, not fatal
            error = traceback.format_exc(limit=4)
        finally:
            if profiler:
                profiler.disable()
        elapsed = time.perf_counter() - start
        if probes is not None:
            elapsed -= sampler.spent()
            probes.record(sampler.samples)
        if error is None:
            try:
                check(inp, out)
            except Exception:  # the check's own report of a wrong output
                error = traceback.format_exc(limit=4)
        ops.append({"s": elapsed,
                    "units": out["units"] if error is None else 0,
                    "error": error, "input": inp,
                    "json": out.get("json") if out else None})
        done = len(ops) >= count if count is not None \
            else time.perf_counter() >= deadline
        if done:
            break

    result = {"ops": ops}
    if probes is not None:
        result["probes"] = probes.as_record()
    if spans:
        result["spans"] = spans.records
    if profiler:
        stats = pstats.Stats(profiler)
        result["layers"] = layer_profile(
            stats, os.path.dirname(os.path.abspath(solgeo.__file__)), HERE)
    with open(config["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
