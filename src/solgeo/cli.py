"""Command-line front end: mesh export, profile tables, verification runs,
and pointwise curvature queries.

Configuration can come from a JSON file (``--config``) and from flags;
flags win.  Exit codes: 0 success / all checks pass, 1 runtime failure or
failed checks, 2 usage error.  All outputs are deterministic and
byte-identical across reruns with the same configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import (Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from .biconservative_family import (EXPLICIT, EXPLICIT_U_MIN, IMPLICIT,
                                    MAX_MARCH_STEPS, ProfileAngleError,
                                    ProfileSolution, build_profile,
                                    family_rows, family_surface,
                                    profile_to_csv)
from .sol_space import (Point, TangentVector, curvature_tensor, frame_vector,
                        sectional_curvature)
from .verification import SUITE_NAMES, reports_to_json, run_suite


class UsageError(ValueError):
    """Invalid configuration; reported with exit code 2."""


# vertices of one generated mesh: about 1,500 times a 256 x 256 grid
MAX_MESH_VERTICES = 10 ** 8


@dataclass
class RunConfig:
    """Merged configuration for one command invocation.

    Only ``u0`` (no anchor given) and ``output`` (the default path or
    stdout) may be ``None``; every other field must hold a value of its
    type, and a JSON ``null`` there is a usage error.
    """

    command: str
    kind: str = EXPLICIT
    variant: str = "x1"
    c: float = 1.0
    u_min: float = -3.0
    u_max: float = -0.01
    v_min: float = -1.0
    v_max: float = 1.0
    nu: int = 64
    nv: int = 16
    u0: Optional[float] = None
    theta_start: float = 2.2
    step: float = 1e-3
    suite: str = "all"
    seed: int = 0
    output: Optional[str] = None
    format: str = "obj"
    point: str = "0,0,0"
    plane: str = "E1,E3"
    as_json: bool = False

    def validate(self) -> None:
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is None and name == "u0":
                continue
            if isinstance(value, bool) or not (
                    isinstance(value, (int, float)) and math.isfinite(value)):
                raise UsageError(f"{name} must be a finite number, "
                                 f"got {value!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        for name in ("point", "plane"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise UsageError(f"{name} must be a string, got {value!r}")
        if self.output is not None and not isinstance(self.output, str):
            raise UsageError(f"output must be a string or null, got "
                             f"{self.output!r}")
        if not isinstance(self.as_json, bool):
            raise UsageError(f"as_json must be true or false, got "
                             f"{self.as_json!r}")
        if self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed!r}")
        if self.kind not in (EXPLICIT, IMPLICIT):
            raise UsageError(f"unknown family kind {self.kind!r}")
        if self.variant not in ("x1", "x2"):
            raise UsageError(f"unknown variant {self.variant!r}")
        if self.format not in ("obj", "ply"):
            raise UsageError(f"unknown mesh format {self.format!r}")
        if self.nu < 2 or self.nv < 2:
            raise UsageError("grid sizes must be at least 2")
        # the implicit march's own sample cap bounds each axis
        for name in ("nu", "nv"):
            if getattr(self, name) > MAX_MARCH_STEPS:
                raise UsageError(f"{name} must be at most {MAX_MARCH_STEPS}, "
                                 f"got {getattr(self, name)!r}")
        if self.command == "generate" \
                and self.nu * self.nv > MAX_MESH_VERTICES:
            raise UsageError(f"nu * nv must be at most {MAX_MESH_VERTICES} "
                             f"mesh vertices, got {self.nu * self.nv}")
        for axis, lo, hi in (("u", self.u_min, self.u_max),
                             ("v", self.v_min, self.v_max)):
            if not lo < hi:
                raise UsageError(f"empty {axis} range")
            if not math.isfinite(hi - lo):
                raise UsageError(f"the {axis} range [{lo!r}, {hi!r}] is "
                                 f"wider than the largest double")
        if self.step <= 0:
            raise UsageError("step must be positive")
        if self.kind == EXPLICIT:
            for name in ("u_min", "u_max", "u0"):
                value = getattr(self, name)
                if value is not None and not EXPLICIT_U_MIN <= value < 0:
                    raise UsageError(
                        f"{name} must lie in the explicit domain "
                        f"[{EXPLICIT_U_MIN!r}, 0), got {value!r}")
        if self.kind == IMPLICIT:
            if self.u_min < 0:
                raise UsageError("implicit profiles start at u >= 0")
            if self.u0 is not None and not 0 <= self.u0 <= self.u_max:
                raise UsageError(f"implicit anchors need 0 <= u0 <= u_max "
                                 f"= {self.u_max!r}, got {self.u0!r}")
            if self.c <= 0:
                raise UsageError("the integration constant c must be "
                                 "positive")
            # the profile's own quadrant rule for its starting angle
            if math.sin(self.theta_start) <= 0 \
                    or math.cos(self.theta_start) >= 0:
                raise UsageError("theta_start must lie in (pi/2, pi), got "
                                 f"{self.theta_start!r}")
        if self.suite not in SUITE_NAMES + ("all",):
            raise UsageError(f"unknown suite {self.suite!r}")


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
_FLOAT_FIELDS = ("c", "u_min", "u_max", "v_min", "v_max", "u0", "theta_start",
                 "step")
_INT_FIELDS = ("nu", "nv", "seed")


def _merge_config(command: str, args: argparse.Namespace) -> RunConfig:
    values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(loaded) - _CONFIG_FIELDS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for name in _CONFIG_FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    config = RunConfig(command=command, **values)
    config.validate()
    return config


# -- mesh output -----------------------------------------------------------


def _build_family_profile(config: RunConfig) -> ProfileSolution:
    grid = np.linspace(config.u_min, config.u_max, config.nu)
    return build_profile(config.kind, c=config.c, u_grid=grid, u0=config.u0,
                         theta_start=config.theta_start, step=config.step)


# labels per table of face tokens: the face writer's memory is
# O(nv + _FACE_BLOCK_LABELS) tokens whatever nu is
_FACE_BLOCK_LABELS = 1 << 14
_WRITE_BUFFER = 1 << 20


def _face_tokens(prefix: str, first: int, stop: int) -> np.ndarray:
    """Fixed-width tokens as ``np.void`` items: ``prefix`` at index 0, then
    ``label + " "`` and ``label + "\n"`` for each label from ``first`` to
    ``stop - 1``, at 1 + 2 (label - first) and the index after it.

    Decimal digits are written once, right-aligned, with integer
    arithmetic in the smallest unsigned type that holds the labels; the
    leading zeros and the unused bytes of the prefix are NUL.
    """
    width = len(str(stop - 1)) + 1
    token = np.dtype((np.void, width))
    label = np.empty((stop - first, width), np.uint8)
    rest = np.arange(first, stop, dtype=np.min_scalar_type(stop - 1))
    label[:, -2] = rest % 10 + 48
    for column in range(width - 3, -1, -1):
        rest //= 10
        label[:, column] = np.where(rest > 0, rest % 10 + 48, 0)
    table = np.empty(1 + 2 * (stop - first), token)
    table[0] = prefix.encode("ascii").ljust(width, b"\0")
    for index, separator in ((1, b" "), (2, b"\n")):
        label[:, -1] = ord(separator)
        table[index::2] = label.view(token).ravel()
    return table


def _mesh_chunks(fmt: str, name: str, nu: int, rulings: Sequence[float],
                 rows: Iterable[Tuple[Optional[float], ...]]
                 ) -> Iterator[str]:
    """Text of an OBJ or ASCII PLY mesh over ``nu`` grid rows of
    ``len(rulings)`` vertices, two triangles per grid cell: one chunk for
    the header, then one per vertex row and one per face row.

    Each of ``rows`` holds one row's fixed coordinates with ``None`` in the
    ruling slot (see :func:`family_rows`).  Numbers get 12 fixed decimals,
    the sign of zero kept; each ruling is formatted once per mesh and each
    fixed coordinate once per row.

    Faces are written a block of vertex rows at a time, about
    ``_FACE_BLOCK_LABELS`` labels and never fewer than 2 rows: the block's
    labels become a table of fixed-width tokens (:func:`_face_tokens`),
    and each face row is one gather of its 8 (nv - 1) tokens with the NUL
    padding dropped.  Consecutive blocks share one vertex row.
    """
    nv = len(rulings)
    n_faces = 2 * (nu - 1) * (nv - 1)
    if fmt == "obj":
        header = (f"# {name}", f"# grid {nu} {nv}")
        vertex_prefix, face_prefix, base = "v ", "f ", 1
    else:
        header = ("ply", "format ascii 1.0", f"comment {name}",
                  f"element vertex {nu * nv}",
                  "property float x", "property float y",
                  "property float z", f"element face {n_faces}",
                  "property list uchar int vertex_indices", "end_header")
        vertex_prefix, face_prefix, base = "", "3 ", 0
    yield "".join(line + "\n" for line in header)
    columns = ["%.12f" % v for v in rulings]
    for row in rows:
        slot = row.index(None)
        head = vertex_prefix + "".join("%.12f " % x for x in row[:slot])
        tail = "".join(" %.12f" % x for x in row[slot + 1:]) + "\n"
        yield head + (tail + head).join(columns) + tail
    # cell j between vertex rows a and b (the next u) is the triangles
    # (a_j, b_j, b_j+1) and (a_j, b_j+1, a_j+1).  In a block's first face
    # row, a_j + " " is token a and b_j + " " token b, so b_j+1 + " ",
    # b_j+1 + "\n" and a_j+1 + "\n" are b + 2, b + 3 and a + 3; each later
    # row moves its label tokens (not the prefix, token 0) on by one
    # vertex row
    cell = np.arange(nv - 1)
    a, b = 1 + 2 * cell, 1 + 2 * (nv + cell)
    prefix = np.zeros_like(cell)
    pattern = np.stack([prefix, a, b, b + 3, prefix, a, b + 2, a + 3],
                       axis=1).ravel()
    shift = np.where(pattern > 0, 2 * nv, 0)
    block_rows = max(2, _FACE_BLOCK_LABELS // nv)
    for start in range(0, nu - 1, block_rows - 1):
        stop = min(start + block_rows, nu)
        tokens = _face_tokens(face_prefix, base + start * nv, base + stop * nv)
        for k in range(stop - start - 1):
            yield np.take(tokens, pattern + k * shift).tobytes() \
                .translate(None, b"\0").decode("ascii")


def cmd_generate(config: RunConfig) -> int:
    profile = _build_family_profile(config)
    name = family_surface(profile, config.variant).name
    rulings = np.linspace(config.v_min, config.v_max, config.nv).tolist()
    nu, nv = len(profile.u), len(rulings)
    chunks = _mesh_chunks(config.format, name, nu, rulings,
                          family_rows(profile, config.variant))
    path = config.output or f"family_{config.variant}.{config.format}"
    with open(path, "w", encoding="utf-8", newline="\n",
              buffering=_WRITE_BUFFER) as handle:
        handle.writelines(chunks)
    print(f"wrote {path}: {nu * nv} vertices, "
          f"{2 * (nu - 1) * (nv - 1)} triangles")
    return 0


def cmd_profile(config: RunConfig) -> int:
    profile = _build_family_profile(config)
    csv_text = profile_to_csv(profile, config.output)
    if config.output:
        print(f"wrote {config.output}: {len(profile.u)} rows")
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_verify(config: RunConfig) -> int:
    if config.output:
        folder = os.path.dirname(config.output) or os.curdir
        if not os.path.isdir(folder):
            raise OSError(f"cannot write report: {folder} is not a directory")
    reports = run_suite(config.suite, seed=config.seed)
    text = reports_to_json(reports)
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="\n") as out:
            out.write(text)
        for report in reports:
            print(f"{report.check_id}: {report.status} "
                  f"(max_error={report.max_error:.3e}, "
                  f"tolerance={report.tolerance:.3e})")
    else:
        sys.stdout.write(text)
    n_fail = sum(1 for r in reports if r.status == "fail")
    print(f"{len(reports) - n_fail} passed, {n_fail} failed", file=sys.stderr)
    return 1 if n_fail else 0


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"point needs three coordinates, got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad point {text!r}: {exc}") from exc
    if not all(map(math.isfinite, (x, y, z))):
        raise UsageError(f"point coordinates must be finite, got {text!r}")
    return Point(x, y, z)


def _parse_plane(text: str, base: Point) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"plane needs two spanning vectors, got {text!r}")

    def vector(token: str) -> TangentVector:
        token = token.strip()
        if token.upper() in ("E1", "E2", "E3"):
            return frame_vector(base, int(token[1]))
        comps = token.split(":")
        if len(comps) != 3:
            raise UsageError(f"bad plane vector {token!r}; use E1/E2/E3 or "
                             "a:b:c frame components")
        try:
            values = np.array([float(c) for c in comps])
        except ValueError as exc:
            raise UsageError(f"bad plane vector {token!r}: {exc}") from exc
        if not np.all(np.isfinite(values)):
            raise UsageError(f"plane vector {token!r} must be finite")
        return TangentVector(base, values)

    return vector(parts[0]), vector(parts[1])


def cmd_curvature(config: RunConfig) -> int:
    base = _parse_point(config.point)
    x, y = _parse_plane(config.plane, base)
    try:
        with np.errstate(over="raise", invalid="raise"):
            k = sectional_curvature(x, y)
            r_xyy = curvature_tensor(x, y, y).components
    except FloatingPointError as exc:
        raise ValueError(f"curvature out of double range: {exc}") from None
    payload = {
        "point": [float(value) for value in base.as_array()],
        "plane": config.plane,
        "sectional_curvature": float(k),
        "curvature_R_xy_y_frame": [float(c) for c in r_xyy],
    }
    if config.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        print(f"point: ({base.x:g}, {base.y:g}, {base.z:g})")
        print(f"plane: {config.plane}")
        print(f"sectional curvature: {k:.12f}")
        print("R(X, Y)Y frame components: "
              + " ".join(f"{c:.12f}" for c in r_xyy))
    return 0


# -- argument parsing ------------------------------------------------------


def _build_parser() -> Tuple[argparse.ArgumentParser, Set[str]]:
    """The command-line parser and the option strings that take a value."""
    value_flags = set()

    def flag(group, *names, **options):
        action = group.add_argument(*names, **options)
        if action.nargs is None:
            value_flags.update(action.option_strings)

    # allow_abbrev=False: every flag has one spelling, so value_flags
    # names each flag that _attach_dash_values can meet
    parser = argparse.ArgumentParser(
        prog="solgeo", allow_abbrev=False,
        description="Geometry of the solvable model space: family meshes, "
                    "profile tables, verification suites, curvature "
                    "queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    flag(config, "--config", help="JSON file with RunConfig fields; flags "
                                  "override")
    profile_flags = argparse.ArgumentParser(add_help=False, parents=[config])
    flag(profile_flags, "--kind", choices=(EXPLICIT, IMPLICIT))
    flag(profile_flags, "--c", type=float,
         help="implicit integration constant")
    flag(profile_flags, "--u-min", dest="u_min", type=float)
    flag(profile_flags, "--u-max", dest="u_max", type=float)
    flag(profile_flags, "--nu", type=int, help="profile sample count")
    flag(profile_flags, "--u0", type=float, help="quadrature anchor")
    flag(profile_flags, "--theta-start", dest="theta_start", type=float)
    flag(profile_flags, "--step", type=float,
         help="implicit integration step")

    gen = sub.add_parser("generate", parents=[profile_flags],
                         allow_abbrev=False,
                         help="export a family surface mesh")
    flag(gen, "--variant", choices=("x1", "x2"))
    flag(gen, "--v-min", dest="v_min", type=float)
    flag(gen, "--v-max", dest="v_max", type=float)
    flag(gen, "--nv", type=int, help="rulings sample count")
    flag(gen, "--output",
         help="mesh path (default family_<variant>.<format>)")
    flag(gen, "--format", choices=("obj", "ply"))

    prof = sub.add_parser("profile", parents=[profile_flags],
                          allow_abbrev=False,
                          help="tabulate a profile curve as CSV")
    flag(prof, "--output", help="CSV path (default: stdout)")

    ver = sub.add_parser("verify", parents=[config], allow_abbrev=False,
                         help="run a verification suite")
    flag(ver, "--suite", choices=SUITE_NAMES + ("all",))
    flag(ver, "--seed", type=int)
    flag(ver, "--output", help="JSON report path (default: stdout)")

    cur = sub.add_parser("curvature", parents=[config], allow_abbrev=False,
                         help="sectional curvature at a point")
    flag(cur, "--point", help="x,y,z coordinates")
    flag(cur, "--plane", help="two of E1/E2/E3 or a:b:c frame triples, "
                              "comma separated")
    flag(cur, "--json", dest="as_json", action="store_true", default=None)
    return parser, value_flags


_DISPATCH = {
    "generate": cmd_generate,
    "profile": cmd_profile,
    "verify": cmd_verify,
    "curvature": cmd_curvature,
}


def _attach_dash_values(argv: Sequence[str],
                        value_flags: Set[str]) -> List[str]:
    """``argv`` with each value that starts with one ``-`` joined to its
    flag as ``--flag=value``.

    argparse reads a token that starts with ``-`` as an option unless it is
    a plain decimal such as ``-2`` or ``-0.5``, so ``--u-max -1e-3`` or
    ``--point -1,0,0`` would lose its value.  Here, as with getopt, a flag
    that takes a value reads the next token, unless that token starts with
    ``--``: ``--u-max --nu 3`` still lacks a value.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] in value_flags \
                and token.startswith("-") and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, value_flags = _build_parser()
    args = parser.parse_args(_attach_dash_values(
        sys.argv[1:] if argv is None else argv, value_flags))
    try:
        config = _merge_config(args.command, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[config.command](config)
    except (UsageError, ProfileAngleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
