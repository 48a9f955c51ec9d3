"""solgeo benchmark: four workloads against the public API and the CLI.

Run from the root of a source tree (the directory that holds ``src/solgeo``):

    python3 perfbench/run.py --workload surface_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` times operations for ``--seconds`` seconds with tracing off
and prints the end-to-end metrics.  ``--trace 1`` runs a fixed list of
operations twice, once with spans only and once with spans and
``cProfile``, and prints the per-layer metrics.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the same figures for a reader.

This process never imports solgeo.  It starts one child interpreter at a
time: the import timer, the worker, or (for ``verify_all``) one
``solgeo verify`` per operation.  Timings are scaled by a host speed probe
(probe.py).  See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import workloads  # noqa: E402
from tracing import CALL_COUNTS, SELF_TIMES  # noqa: E402

SETUP_REPEATS = 9
BUDGET_S = 170.0
IMPORT_TIMER = ("import time; t = time.perf_counter(); import solgeo; "
                "print(repr(time.perf_counter() - t))")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts the child interpreters of one benchmark run, one at a time,
    within the run's overall time budget."""

    def __init__(self, root: str):
        self.root = root
        self.scratch = os.path.join(root, ".perfbench")
        os.makedirs(self.scratch, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env.update({name: "1" for name in THREAD_VARS})
        self.deadline = time.monotonic() + BUDGET_S

    def run(self, argv: List[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            return subprocess.run([sys.executable] + argv, cwd=self.root,
                                  env=self.env, capture_output=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {argv[:3]}") from exc

    def worker(self, config: Dict) -> Dict:
        tag = f"{os.getpid()}_{config['workload']}"
        config_path = os.path.join(self.scratch, f"config_{tag}.json")
        result_path = os.path.join(self.scratch, f"result_{tag}.json")
        config = dict(config, result=result_path, scratch=self.scratch)
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        proc = self.run([os.path.join(HERE, "worker.py"), config_path])
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             + proc.stderr.decode(errors="replace"))
        with open(result_path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        os.remove(config_path)
        os.remove(result_path)
        return result

    def setup_seconds(self, probes: probe.Probes) -> List[float]:
        """Import times of solgeo in fresh interpreters, after one untimed
        import that leaves the bytecode cache filled."""
        times = []
        for k in range(SETUP_REPEATS + 1):
            proc = self.run(["-c", IMPORT_TIMER])
            if proc.returncode != 0:
                raise BenchError("cannot import solgeo:\n"
                                 + proc.stderr.decode(errors="replace"))
            if k:
                times.append(float(proc.stdout))
                probes.record([])
        return times

    def verify_ops(self, seed: int, seconds: float,
                   probes: probe.Probes) -> List[Dict]:
        """Timed ``solgeo verify --suite all`` operations, each in a fresh
        interpreter; the child times its ``main`` call (see verify_cli.py)."""
        ops = []
        timing_path = os.path.join(self.scratch, f"timing_{os.getpid()}")
        end = time.perf_counter() + seconds
        for inp in workloads.op_inputs("verify_all", seed):
            argv = [os.path.join(HERE, "verify_cli.py"), timing_path,
                    "verify", "--suite", "all",
                    "--seed", str(inp["suite_seed"])]
            start = time.perf_counter()
            proc = self.run(argv)
            try:
                with open(timing_path, "r", encoding="utf-8") as handle:
                    timing = json.load(handle)
                os.remove(timing_path)
            except FileNotFoundError:  # the child failed; the check says how
                timing = {"s": time.perf_counter() - start, "samples": []}
            elapsed = timing["s"]
            probes.record(timing["samples"])
            error = None
            text = proc.stdout.decode()
            try:
                workloads.verify_check(text, proc.returncode)
            except (AssertionError, ValueError) as exc:
                error = f"{exc}\n{proc.stderr.decode(errors='replace')}"
            ops.append({"s": elapsed, "error": error, "input": inp,
                        "json": text,
                        "units": 0 if error else workloads.VERIFY_REPORTS})
            if time.perf_counter() >= end:
                return ops


def _determinism_errors(ops: List[Dict]) -> List[str]:
    """Report JSON must be byte-identical whenever a suite seed repeats."""
    seen: Dict[int, str] = {}
    errors = []
    for op in ops:
        if op.get("json") is None or op["error"]:
            continue
        seed = op["input"]["suite_seed"]
        digest = hashlib.sha256(op["json"].encode()).hexdigest()
        if seen.setdefault(seed, digest) != digest:
            errors.append(f"report JSON differs for repeated seed {seed}")
    return errors


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def timed(runner: Runner, workload: str, seed: int, seconds: float):
    """End-to-end metrics.  Times are in seconds at the nominal probe speed
    (see probe.py); the raw figures are printed beside them."""
    setup_probes = probe.Probes()
    imports = runner.setup_seconds(setup_probes)
    if workload == "verify_all":
        probes = probe.Probes()
        ops = runner.verify_ops(seed, seconds, probes)
    else:
        result = runner.worker({"workload": workload, "seed": seed,
                                "seconds": seconds, "spans": False,
                                "profile": False, "probe": True})
        ops, probes = result["ops"], probe.Probes(result["probes"])
    failed = sum(1 for op in ops if op["error"])
    errors = [op["error"] for op in ops if op["error"]]
    errors += _determinism_errors(ops)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    raw_times = [op["s"] for op in ops]
    times = sorted(probes.scaled(raw_times))
    units = sum(op["units"] for op in ops)
    raw = {"setup_s": statistics.median(imports),
           "op_p50_s": statistics.median(raw_times),
           "throughput_per_s": units / sum(raw_times)}
    metrics = {
        "setup_s": _metric(statistics.median(setup_probes.scaled(imports)),
                           "s"),
        "op_p50_s": _metric(statistics.median(times), "s"),
        "throughput_per_s": _metric(units / sum(times), "1/s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }
    notes = [f"ops={len(ops)} unit={workloads.UNITS[workload]} "
             f"failed_ratio={failed / len(ops)} probes={probes.count()}",
             "raw (unscaled) "
             + " ".join(f"{k}={v:.6g}" for k, v in raw.items())]
    if len(times) >= 20:
        # The highest percentile with at least ten samples beyond it.
        pct = 100.0 * (len(times) - 10) / len(times)
        notes.append(f"op_p{pct:.0f}_s={times[-11]:.6f} s")
    return metrics, len(ops), failed, errors, notes


def traced(runner: Runner, workload: str, seed: int):
    """Per-layer metrics from two passes over the same fixed operations:
    spans only (pass A, whose times are the untraced ones) and spans plus
    cProfile (pass B, whose counts and self times are reported)."""
    count = workloads.TRACE_OPS[workload]
    passes = []
    for profile in (False, True):
        if workload == "verify_all":
            # One fresh interpreter per operation, as a CLI user runs it.
            parts = [runner.worker({"workload": workload, "seed": seed,
                                    "first": k, "count": 1, "spans": True,
                                    "profile": profile, "probe": False})
                     for k in range(count)]
        else:
            parts = [runner.worker({"workload": workload, "seed": seed,
                                    "count": count, "spans": True,
                                    "profile": profile, "probe": False})]
        merged = {"ops": [], "spans": [], "layers": {}}
        for part in parts:
            merged["ops"] += part["ops"]
            merged["spans"].append(part["spans"])
            for name, value in part.get("layers", {}).items():
                merged["layers"][name] = merged["layers"].get(name, 0) + value
        passes.append(merged)
    plain, profiled = passes

    ops = plain["ops"] + profiled["ops"]
    failed = sum(1 for op in ops if op["error"])
    errors = [op["error"] for op in ops if op["error"]]
    errors += _determinism_errors(ops)

    def span_total(name: str) -> float:
        return sum(r["end"] - r["start"] for records in plain["spans"]
                   for r in records if r["name"] == name)

    units = sum(op["units"] for op in plain["ops"])
    points = units if workload in ("surface_grid", "mesh_generate") else 0
    samples = units if workload == "implicit_march" else 0
    grid_points = units if workload == "surface_grid" else 0
    layers = profiled["layers"]
    values = {name: layers[name] for name in SELF_TIMES}
    values.update({name: layers[name] for name, _, _ in CALL_COUNTS})
    values["patch.handle_calls_per_point"] = (
        layers["patch.handle_calls"] / points if points else 0.0)
    values["biconservative_family.solve_f_per_sample"] = (
        layers["biconservative_family.solve_f.calls"] / samples
        if samples else 0.0)
    for name in ("shape_data", "biconservative_residual"):
        values[f"surface_calculus.{name}.per_point_us"] = (
            1e6 * span_total(f"grid.{name}") / grid_points
            if grid_points else 0.0)
    for name in workloads.SUITES:
        values[f"verification.suite.{name}.s"] = (
            span_total(f"suite.{name}") / count
            if workload == "verify_all" else 0.0)
    values["trace_overhead_ratio"] = (
        sum(op["s"] for op in profiled["ops"])
        / sum(op["s"] for op in plain["ops"]))

    trace_path = os.path.join(runner.scratch,
                              f"trace_{workload}_seed{seed}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "environment": environment(),
                   "spans_plain": plain["spans"],
                   "spans_profiled": profiled["spans"],
                   "layers": layers}, handle)
    metrics = {name: _metric(value, _unit(name))
               for name, value in values.items()}
    notes = [f"ops={count} per pass, unit={workloads.UNITS[workload]}, "
             f"spans written to {os.path.relpath(trace_path, runner.root)}"]
    return metrics, len(ops), failed, errors, notes


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_point") or name.endswith("_per_sample"):
        return "calls/unit"
    return "count"


def environment() -> Dict[str, str]:
    return {"nproc": str(os.cpu_count()),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "solgeo", "__init__.py")):
        print("error: run from the root of a solgeo source tree "
              "(no src/solgeo here)", file=sys.stderr)
        return 2
    runner = Runner(root)
    try:
        if args.trace:
            metrics, attempted, failed, errors, notes = traced(
                runner, args.workload, args.seed)
        else:
            metrics, attempted, failed, errors, notes = timed(
                runner, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in environment().items()))
    for note in notes:
        print(f"# {note}")
    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:>16.6f} {metric['unit']}")
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
