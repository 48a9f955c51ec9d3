"""The four benchmark workloads: seeded inputs, one operation each, and the
check that decides whether an operation's output is correct.

Inputs come only from ``random.Random`` keyed by the workload seed, so this
module imports nothing from ``solgeo`` at module level; ``run.py`` uses it
without paying the package import.

Inputs are drawn in blocks of ``BLOCK`` operations.  Inside a block every
continuous parameter is split into ``BLOCK`` equal strata and each stratum
is used once, in a seeded order, with a seeded point inside it (a Latin
hypercube per block).  Every operation therefore gets new parameter
values, which keeps each one cold with respect to the ``lru_cache``
quadratures in ``biconservative_family``, while the mix of cheap and
expensive operations in a run is nearly the same for every seed.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List

BLOCK = 8

# One operation's work, per workload, in the unit ``throughput_per_s`` uses.
UNITS = {
    "verify_all": "reports",
    "surface_grid": "grid_points",
    "implicit_march": "profile_samples",
    "mesh_generate": "mesh_vertices",
}

# Fixed operation counts for the traced run, so that its call counts
# repeat exactly for a repeated seed.
TRACE_OPS = {
    "verify_all": 2,
    "surface_grid": 6,
    "implicit_march": 16,
    "mesh_generate": 4,
}

WORKLOADS = tuple(UNITS)

# The suites of ``solgeo verify --suite all``, in the order it runs them.
SUITES = ("ambient", "frames", "family", "biharmonic", "polynomial")

VERIFY_REPORTS = 74
VERIFY_SEED_POOL = 3
GRID_SAMPLES = 64
GRID_RULINGS = 16
MESH_N = 256
IMPLICIT_SPAN = 1.5
IMPLICIT_STEP = 1e-3
HALT_REASONS = ("span_exhausted", "angle_degenerate",
                "theta_prime_nonnegative", "theta_second_nonnegative")

H_TOL = 1e-8
K_TOL = 1e-7
RESIDUAL_TOL = 1e-6
RELATION_TOL = 1e-10


def _strata(rng: random.Random, lo: float, hi: float) -> List[float]:
    width = (hi - lo) / BLOCK
    values = [lo + (k + rng.random()) * width for k in range(BLOCK)]
    rng.shuffle(values)
    return values


def _choices(rng: random.Random, options) -> List:
    values = [options[k % len(options)] for k in range(BLOCK)]
    rng.shuffle(values)
    return values


def _block(workload: str, seed: int, index: int) -> List[Dict]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "verify_all":
        base = random.Random(f"{workload}:{seed}").randrange(1 << 20)
        start = index * BLOCK
        return [{"suite_seed": base + (start + k) % VERIFY_SEED_POOL}
                for k in range(BLOCK)]
    if workload == "surface_grid":
        return [{"u_min": lo, "u_max": hi, "variant": var}
                for lo, hi, var in zip(_strata(rng, -4.25, -3.75),
                                       _strata(rng, -0.06, -0.01),
                                       _choices(rng, ("x1", "x2")))]
    if workload == "implicit_march":
        return [{"c": c, "theta_start": th}
                for c, th in zip(_strata(rng, 0.5, 2.0),
                                 _strata(rng, 2.0, 2.6))]
    if workload == "mesh_generate":
        return [{"u_min": lo, "u_max": hi, "variant": var, "format": fmt}
                for lo, hi, var, fmt in zip(_strata(rng, -4.0, -2.0),
                                            _strata(rng, -0.2, -0.01),
                                            _choices(rng, ("x1", "x2")),
                                            _choices(rng, ("obj", "ply")))]
    raise ValueError(f"unknown workload {workload!r}")


def op_inputs(workload: str, seed: int) -> Iterator[Dict]:
    """Endless, deterministic stream of operation inputs for one seed."""
    index = 0
    while True:
        yield from _block(workload, seed, index)
        index += 1


# -- operations and checks (run inside a worker that has imported solgeo) --


def surface_grid_op(inp: Dict, span) -> Dict:
    import numpy as np
    from solgeo import (EXPLICIT, biconservative_residual, build_profile,
                        family_surface, shape_data)

    with span("profile_build"):
        profile = build_profile(
            EXPLICIT, u_grid=np.linspace(inp["u_min"], inp["u_max"],
                                         GRID_SAMPLES))
    with span("surface_build"):
        patch = family_surface(profile, inp["variant"])
    us, vs = patch.grid(GRID_SAMPLES, GRID_RULINGS)
    points = [(float(u), float(v)) for u in us for v in vs]
    with span("grid.shape_data"):
        shapes = [shape_data(patch, u, v) for u, v in points]
    with span("grid.biconservative_residual"):
        residuals = [biconservative_residual(patch, u, v) for u, v in points]
    return {"units": len(points), "patch": patch, "points": points,
            "shapes": shapes, "residuals": residuals}


def surface_grid_check(inp: Dict, out: Dict) -> None:
    from solgeo import (f_explicit, fundamental_forms,
                        gaussian_curvature_closed_form)

    for (u, v), sd, r in zip(out["points"], out["shapes"], out["residuals"]):
        h_err = abs(sd.h - f_explicit(u))
        if not h_err <= H_TOL:
            raise AssertionError(f"|h - f| = {h_err:.3e} at u = {u!r}")
        k_err = abs(sd.K - gaussian_curvature_closed_form(u))
        if not k_err <= K_TOL:
            raise AssertionError(f"|K - K_closed| = {k_err:.3e} at u = {u!r}")
        first = fundamental_forms(out["patch"], u, v).first
        norm = math.sqrt(float(r @ first @ r))
        if not norm <= RESIDUAL_TOL:
            raise AssertionError(f"residual norm {norm:.3e} at "
                                 f"(u, v) = ({u!r}, {v!r})")


def implicit_march_op(inp: Dict, span) -> Dict:
    from solgeo import integrate_implicit_profile, profile_to_csv

    with span("implicit_integrate"):
        profile = integrate_implicit_profile(inp["c"], inp["theta_start"],
                                             IMPLICIT_SPAN, IMPLICIT_STEP)
    with span("profile_csv"):
        csv_text = profile_to_csv(profile)
    return {"units": len(profile.u), "profile": profile, "csv": csv_text}


def implicit_march_check(inp: Dict, out: Dict) -> None:
    from solgeo import CONSTANTS

    profile = out["profile"]
    if profile.halt_reason not in HALT_REASONS:
        raise AssertionError(f"uncatalogued halt {profile.halt_reason!r}")
    a1, a2 = CONSTANTS.a1, CONSTANTS.a2
    log_c = math.log(inp["c"])
    for theta, f in zip(profile.theta, profile.f):
        y = math.sin(theta)
        rel = (6.0 * a2 * math.log(f - a1 * y)
               - 6.0 * a1 * math.log(f - a2 * y) - log_c)
        if not abs(rel) <= RELATION_TOL:
            raise AssertionError(f"implicit relation off by {rel:.3e} at "
                                 f"theta = {theta!r}")
    rows = out["csv"].count("\n")
    footer = 1 + (profile.theta_error_estimate is not None)
    if rows != 1 + len(profile.u) + footer:
        raise AssertionError(f"CSV holds {rows} lines for "
                             f"{len(profile.u)} samples")


def mesh_generate_op(inp: Dict, span, path: str) -> Dict:
    import contextlib
    import io

    from solgeo.cli import main

    argv = ["generate", "--nu", str(MESH_N), "--nv", str(MESH_N),
            "--u-min", repr(inp["u_min"]), "--u-max", repr(inp["u_max"]),
            "--variant", inp["variant"], "--format", inp["format"],
            "--output", path]
    with span("mesh_write"), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return {"units": MESH_N * MESH_N, "code": code, "path": path}


def mesh_generate_check(inp: Dict, out: Dict) -> None:
    if out["code"] != 0:
        raise AssertionError(f"solgeo generate exited {out['code']}")
    n_vertices = MESH_N * MESH_N
    n_faces = 2 * (MESH_N - 1) * (MESH_N - 1)
    with open(out["path"], "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if inp["format"] == "obj":
        vertices = sum(1 for line in lines if line.startswith("v "))
        faces = sum(1 for line in lines if line.startswith("f "))
    else:
        end = lines.index("end_header")
        header = lines[:end]
        if (f"element vertex {n_vertices}" not in header
                or f"element face {n_faces}" not in header):
            raise AssertionError("PLY header counts do not match the grid")
        body = lines[end + 1:]
        vertices = sum(1 for line in body if not line.startswith("3 "))
        faces = len(body) - vertices
    if (vertices, faces) != (n_vertices, n_faces):
        raise AssertionError(f"mesh holds {vertices} vertices and {faces} "
                             f"faces, expected {n_vertices} and {n_faces}")


def verify_op(inp: Dict, span) -> Dict:
    """The traced form of one ``solgeo verify --suite all`` operation: the
    five suites in the order ``run_suite("all")`` runs them, one span each,
    so that each suite's time is measured."""
    from solgeo import reports_to_json, run_suite

    reports = []
    for name in SUITES:
        with span(f"suite.{name}"):
            reports.extend(run_suite(name, seed=inp["suite_seed"]))
    return {"units": len(reports), "json": reports_to_json(reports)}


def verify_check(text: str, code: int = 0) -> None:
    import json

    if code != 0:
        raise AssertionError(f"solgeo verify exited {code}")
    reports = json.loads(text)
    if len(reports) != VERIFY_REPORTS:
        raise AssertionError(f"{len(reports)} reports, expected "
                             f"{VERIFY_REPORTS}")
    failed = [r["check_id"] for r in reports if r["status"] == "fail"]
    if failed:
        raise AssertionError(f"failed checks: {failed}")
