import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from solgeo import cli
from solgeo.biconservative_family import (EXPLICIT, EXPLICIT_U_MIN,
                                          build_profile, family_rows)
from solgeo.cli import RunConfig, main

THETA_ROW_M1 = "-1.000000000000,2.347062254033,0.309858529206"


def run(argv):
    return main(argv)


def test_generate_obj_counts(tmp_path):
    out = tmp_path / "mesh.obj"
    assert run(["generate", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    vertices = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(vertices) == 64 * 16
    assert len(faces) == 2 * 63 * 15


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    assert run(["generate", "--output", str(a)]) == 0
    assert run(["generate", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_obj_indices_in_range(tmp_path):
    out = tmp_path / "m.obj"
    run(["generate", "--nu", "4", "--nv", "3", "--output", str(out)])
    lines = out.read_text().splitlines()
    n_vertices = sum(1 for l in lines if l.startswith("v "))
    assert n_vertices == 12
    for line in lines:
        if line.startswith("f "):
            idx = [int(tok) for tok in line.split()[1:]]
            assert len(idx) == 3
            assert all(1 <= i <= n_vertices for i in idx)


def test_generate_x2_swaps_roles(tmp_path):
    a, b = tmp_path / "x1.obj", tmp_path / "x2.obj"
    run(["generate", "--nu", "4", "--nv", "2", "--output", str(a)])
    run(["generate", "--nu", "4", "--nv", "2", "--variant", "x2",
         "--output", str(b)])
    va = [l.split()[1:] for l in a.read_text().splitlines()
          if l.startswith("v ")]
    vb = [l.split()[1:] for l in b.read_text().splitlines()
          if l.startswith("v ")]
    for (xa, ya, za), (xb, yb, zb) in zip(va, vb):
        assert xb == ya and yb == xa
        assert float(zb) == pytest.approx(-float(za), abs=1e-12)


def test_generate_ply(tmp_path):
    out = tmp_path / "mesh.ply"
    assert run(["generate", "--format", "ply", "--nu", "3", "--nv", "3",
                "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ply"
    assert "element vertex 9" in lines
    assert "element face 8" in lines
    assert lines[-1].startswith("3 ")


# `solgeo generate` flags of the pinned meshes: a 256 x 256 grid, an odd nv
# (the ruling v = 0.0), a u-grid ending at the anchor u0 = -1 (Psi and Phi1
# are -0.0 there, so x2 writes -0.000000000000) and an implicit grid whose
# rulings run from -1e300 to -0.0.
MESH_CASES = {
    "full": ["--nu", "256", "--nv", "256"],
    "odd_nv": ["--nu", "7", "--nv", "5"],
    "anchor": ["--u-min=-3", "--u-max=-1", "--u0=-1", "--nu", "9",
               "--nv", "4"],
    "implicit": ["--kind", "implicit", "--u-min", "0", "--u-max", "0.25",
                 "--nu", "6", "--nv", "3", "--v-min=-1e300",
                 "--v-max=-0.0"],
}

# sha256 of each pinned mesh, taken from the one-line-per-vertex writer:
# a faster writer must leave every byte as it was.
MESH_DIGESTS = {
    ("full", "x1", "obj"):
        "b34986a6507305324942ab0f164d6ad50365720dd875bf01184e555a04b388f7",
    ("full", "x1", "ply"):
        "0e07b0041b3c43ab49621c99818eb09a14d6515839d486c744c81b1dabfc02ea",
    ("full", "x2", "obj"):
        "70d3e8f2a193e235719c5277577c9ee08414b01dc209c82273c4c13592ec911c",
    ("full", "x2", "ply"):
        "2edf7bba06bc8d4788f9ad1fc988262b700c8bde14ab15f3806f5978b6ce804e",
    ("odd_nv", "x1", "obj"):
        "957331ac9b307c781263946f65c3b68739724ee5fa33a7fb6a60df625f7f6f65",
    ("odd_nv", "x1", "ply"):
        "c047ff0cd949a86bfb6a184f6d954c80470ea973ac0113dc90ad4a029898a7f9",
    ("odd_nv", "x2", "obj"):
        "a1146eddbe8171876f15b493473f54923e8df5446ccf1f3fdfa9c2e023e236e8",
    ("odd_nv", "x2", "ply"):
        "2eb534349976809dc21d98c00df5e33e16fa9795adfe57b5fff54a5c59f8338c",
    ("anchor", "x1", "obj"):
        "c2056e05c755097d69117d7b6ef89f0613dbf1b2c173896f115fcbdc2934a550",
    ("anchor", "x1", "ply"):
        "6fe928cecb5ff5e8e2fe789578aeea49c6b3f653b113602a533404c3a55a025c",
    ("anchor", "x2", "obj"):
        "33db4c457b6df2ac517ba973b62991242f929935f886ebee0850decccfdde215",
    ("anchor", "x2", "ply"):
        "86dac9c76c3e7d5d78dd70afc2acd4acac45b3310f4a0182c40f5a7c503138f8",
    ("implicit", "x1", "obj"):
        "11a4fb0757c32575065b919b80b92fff37bbf29cd29714ec62028b7c80828795",
    ("implicit", "x1", "ply"):
        "c89631590531db69c75a84507b006357974f1510a665cd95a4e4d2450421281f",
    ("implicit", "x2", "obj"):
        "1771078fde6ba31cdc0eb350fff6d51ce321c0a860c623f30604d61ed82727f3",
    ("implicit", "x2", "ply"):
        "bae3e0bad716fc49d6b957257738132c15f63895277d70ab2370b0f734ac5992",
}


@pytest.mark.parametrize("case,variant,fmt", sorted(MESH_DIGESTS))
def test_generate_bytes_are_pinned(case, variant, fmt, tmp_path):
    out = tmp_path / f"mesh.{fmt}"
    assert run(["generate", *MESH_CASES[case], "--variant", variant,
                "--format", fmt, "--output", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == MESH_DIGESTS[case, variant, fmt]


@pytest.mark.parametrize("variant", ["x1", "x2"])
@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_generate_streams_one_chunk_per_grid_row(variant, fmt, tmp_path,
                                                  monkeypatch):
    nu, nv = 6, 3
    profile = build_profile(EXPLICIT, u_grid=np.linspace(-3.0, -0.01, nu))
    chunks = cli._mesh_chunks(fmt, "m", nu, [-1.0, 0.0, 1.0],
                              family_rows(profile, variant))
    assert inspect.isgenerator(chunks)
    header, *rows = chunks
    assert header.endswith("# grid 6 3\n" if fmt == "obj"
                           else "end_header\n")
    assert len(rows) == nu + nu - 1
    assert [row.count("\n") for row in rows] == [nv] * nu \
        + [2 * (nv - 1)] * (nu - 1)

    # the command writes those chunks as the writer yields them
    writer, seen = cli._mesh_chunks, []

    def spy(*args):
        for chunk in writer(*args):
            seen.append(chunk)
            yield chunk

    monkeypatch.setattr(cli, "_mesh_chunks", spy)
    out = tmp_path / f"mesh.{fmt}"
    assert run(["generate", "--nu", str(nu), "--nv", str(nv), "--variant",
                variant, "--format", fmt, "--output", str(out)]) == 0
    assert len(seen) == 2 * nu
    assert seen[1:] == rows
    assert out.read_text() == "".join(seen)


def reference_faces(fmt, nu, nv):
    """Face rows of the mesh, one triangle at a time."""
    prefix, base = ("f ", 1) if fmt == "obj" else ("3 ", 0)
    rows = []
    for i in range(nu - 1):
        lines = []
        for j in range(nv - 1):
            a0 = base + i * nv + j
            a1, b0, b1 = a0 + 1, a0 + nv, a0 + nv + 1
            lines.append("%s%d %d %d\n" % (prefix, a0, b0, b1))
            lines.append("%s%d %d %d\n" % (prefix, a0, b1, a1))
        rows.append("".join(lines))
    return rows


# nu * nv crosses 10, 100, 1,000, 10,000 and 100,000 labels, so the
# label width changes inside one mesh; nv = 2 and nu = 2 are the thinnest
# grids
@pytest.mark.parametrize("nu,nv", [(3, 4), (11, 10), (9, 120), (101, 100),
                                   (7, 2), (60, 2), (2, 6), (2, 5001),
                                   (2, 50001)])
@pytest.mark.parametrize("fmt", ["obj", "ply"])
@pytest.mark.parametrize("block", [None, 7, 1000])
def test_face_rows_match_a_per_triangle_reference(nu, nv, fmt, block,
                                                  monkeypatch):
    # a small block puts several token tables and a width change inside
    # one mesh; every block still holds at least two vertex rows
    if block is not None:
        monkeypatch.setattr(cli, "_FACE_BLOCK_LABELS", block)
    chunks = list(cli._mesh_chunks(fmt, "m", nu, [0.0] * nv,
                                   [(0.0, None, 0.0)] * nu))
    assert chunks[1 + nu:] == reference_faces(fmt, nu, nv)


# PLY labels start at 0 and OBJ labels at 1; ranges of one label, ranges
# that cross 10, 100 and 100,000, and ranges of one width
@pytest.mark.parametrize("first,stop", [
    (0, 1), (1, 2), (7, 8), (100000, 100001), (0, 10), (1, 10), (0, 11),
    (1, 11), (5, 200), (1, 101), (99, 101), (10, 100), (100, 1000),
    (99990, 100010), (0, 100001)])
def test_face_tokens_are_each_label_and_its_separator(first, stop):
    table = cli._face_tokens(first, stop)
    tokens = [token.tobytes() for token in table]
    assert [token.replace(b"\0", b"").decode("ascii")
            for token in tokens] == [
        form % label for label in range(first, stop)
        for form in ("%d ", "%d\n")]
    if len(str(first)) == len(str(stop - 1)):
        assert b"\0" not in table.tobytes()


@pytest.mark.parametrize("nu,nv", [(256, 256), (2, 5001)])
@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_face_token_tables_stay_within_the_block_bound(nu, nv, fmt,
                                                       monkeypatch):
    # the face writer's memory grows with nv but not with nu
    builder, sizes = cli._face_tokens, []

    def spy(first, stop):
        table = builder(first, stop)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(cli, "_face_tokens", spy)
    for _ in cli._mesh_chunks(fmt, "m", nu, [0.0] * nv,
                              [(0.0, None, 0.0)] * nu):
        pass
    assert sizes
    assert max(sizes) <= 2 * max(cli._FACE_BLOCK_LABELS, 2 * nv)


def test_profile_stdout(capsys):
    assert run(["profile", "--u-min", "-2.0", "--u-max", "-1.0",
                "--nu", "5"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "u,theta,f,Psi,Phi,K"
    assert lines[-1].startswith(THETA_ROW_M1)


def test_profile_implicit_footer(capsys):
    assert run(["profile", "--kind", "implicit", "--u-min", "0",
                "--u-max", "0.25", "--nu", "6", "--c", "1.0",
                "--theta-start", "2.2"]) == 0
    out = capsys.readouterr().out
    assert "# halt_reason:" in out


# sha256 of `solgeo profile <argv>` stdout
PROFILE_DIGESTS = {
    (): "a0efb696bfa9d7742f156d11b624bf6b79fb38bfbd1302ed47feeec3f3cca5b6",
    ("--u0", "-2"):
        "6c2cd14733e958eb4ba53df22d06d8d700591813b59696014611d6f2133c7662",
    ("--kind", "implicit", "--c", "1", "--theta-start", "2.2",
     "--u-min", "0", "--u-max", "0.25"):
        "f0d738fb75887d186c6e4736cde0189c81c9d3c960e0002ee05e1e9c6e6e3eed",
    ("--kind", "implicit", "--c", "2", "--theta-start", "2.0",
     "--u-min", "0", "--u-max", "0.25", "--u0", "0.05"):
        "8a4c5a62d0a073058b223459834738439e19b64c16badc06a021d08d15224181",
}


@pytest.mark.parametrize("argv", sorted(PROFILE_DIGESTS),
                         ids=lambda argv: " ".join(argv) or "defaults")
def test_profile_stdout_is_pinned(argv, capsys):
    assert run(["profile", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == PROFILE_DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(PROFILE_DIGESTS),
                         ids=lambda argv: " ".join(argv) or "defaults")
def test_profile_output_file_is_pinned(argv, tmp_path, capsys):
    # the file holds the bytes that stdout would, and stdout one line
    path = tmp_path / "rows.csv"
    assert run(["profile", *argv, "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == PROFILE_DIGESTS[argv]
    rows = sum(not line.startswith("#")
               for line in path.read_text().splitlines()[1:])
    assert capsys.readouterr() == (f"wrote {path}: {rows} rows\n", "")


def test_profile_empty_output_is_stdout(capsys):
    # an empty --output means stdout, for profile as for verify
    assert run(["profile", "--nu", "3", "--output", ""]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "u,theta,f,Psi,Phi,K"
    assert len(out.splitlines()) == 4
    assert err == ""


def test_verify_polynomial_stdout(capsys):
    assert run(["verify", "--suite", "polynomial"]) == 0
    captured = capsys.readouterr()
    reports = json.loads(captured.out)
    assert len(reports) == 1
    assert reports[0]["check_id"] == "polynomial_obstruction"
    assert reports[0]["status"] == "pass"


def test_verify_summary_counts_passes_and_failures(capsys):
    assert run(["verify", "--suite", "polynomial"]) == 0
    assert capsys.readouterr().err == "1 passed, 0 failed\n"


# sha256 of `solgeo verify --suite all --seed <seed>` stdout
VERIFY_DIGESTS = {
    0: "a7b913b48b5c8debcbf7318793cb1d7d4a89516b0b69371eed63a66ade37a6ca",
    7: "97b2f5c0b12fa6851f5aa6b69e826773a76df4e7db7a6f1e9daf6182839a22a8",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_DIGESTS))
def test_verify_all_stdout_is_pinned(seed, capsys):
    assert run(["verify", "--suite", "all", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == VERIFY_DIGESTS[seed]


def test_verify_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "ambient", "--output", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert all(r["status"] == "pass" for r in reports)
    stdout = capsys.readouterr().out
    assert "ambient_sectional_e1_e3: pass" in stdout


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["ambient", "polynomial"])
def test_verify_negative_seed_is_usage_error(suite, capsys):
    assert run(["verify", "--suite", suite, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, " \
                                      "got -1\n"


def test_curvature_text(capsys):
    assert run(["curvature", "--point", "0,0,0", "--plane", "E1,E3"]) == 0
    out = capsys.readouterr().out
    assert "sectional curvature: -1.000000000000" in out


def test_curvature_left_invariant(capsys):
    assert run(["curvature", "--point", "1,2,0.5", "--plane", "E1,E2",
                "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sectional_curvature"] == pytest.approx(1.0, abs=1e-12)


def test_curvature_numeric_plane(capsys):
    assert run(["curvature", "--point", "0,0,0",
                "--plane", "1:1:0,0:0:1"]) == 0
    out = capsys.readouterr().out
    # mixed horizontal direction against the vertical: K = -1
    assert "sectional curvature: -1.000000000000" in out


def test_curvature_json_bytes_for_a_numeric_plane(capsys):
    assert run(["curvature", "--point=0.5,-1.25,0.75",
                "--plane=0.3:-1.2:0.7,1.1:0.4:-0.9", "--json"]) == 0
    assert capsys.readouterr().out == """{
  "curvature_R_xy_y_frame": [
    -0.3600000000000001,
    -0.8640000000000001,
    -0.8240000000000001
  ],
  "plane": "0.3:-1.2:0.7,1.1:0.4:-0.9",
  "point": [
    0.5,
    -1.25,
    0.75
  ],
  "sectional_curvature": 0.09274873524451942
}
"""


def test_curvature_degenerate_plane_is_runtime_error(capsys):
    assert run(["curvature", "--plane", "E1,E1"]) == 1
    assert "error" in capsys.readouterr().err


def test_curvature_of_a_plane_past_the_gram_overflow(capsys):
    # |x|^2 |y|^2 = 1e400 overflows, but K = -1 and R(X, Y)Y = -1e300 E1
    # are finite
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["curvature", "--point", "0,0,0", "--plane",
                    "1e100:0:0,0:0:1e100", "--json"]) == 0
    assert caught == []
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert abs(payload["sectional_curvature"] + 1.0) <= 1e-15
    assert payload["curvature_R_xy_y_frame"] == [-1e300, 0.0, 0.0]
    assert captured.err == ""


def test_curvature_of_a_tiny_plane(capsys):
    # two orthogonal vectors of length 1e-10 span a plane: the Gram test is
    # relative to |x|^2 |y|^2
    assert run(["curvature", "--point", "0,0,0", "--plane",
                "1e-10:0:0,0:1e-10:0", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["sectional_curvature"] == 1.0
    assert captured.err == ""


@pytest.mark.parametrize("plane", ["1e200:1e200:0,0:1e200:1e200",
                                   "1e300:0:0,0:0:1e300"])
def test_curvature_out_of_double_range_is_runtime_error(capsys, plane):
    # R(X, Y)Y overflows: one error line, no NaN on stdout, no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["curvature", "--point", "0,0,0", "--plane", plane,
                    "--json"]) == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_curvature_malformed_plane_is_usage_error(capsys):
    assert run(["curvature", "--plane", "E1"]) == 2
    assert run(["curvature", "--point", "1,2", "--plane", "E1,E2"]) == 2


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": 8, "nv": 3, "u_min": -2.0,
                               "u_max": -0.5}))
    out = tmp_path / "m.obj"
    assert run(["generate", "--config", str(cfg), "--nu", "5",
                "--output", str(out)]) == 0
    vertices = [l for l in out.read_text().splitlines()
                if l.startswith("v ")]
    assert len(vertices) == 5 * 3  # flag overrides config nu


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run(["generate", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("values", [{"nu": "abc"}, {"nv": 2.5},
                                    {"seed": "7"}, {"seed": False}])
def test_config_integer_fields(tmp_path, capsys, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert run(["generate", "--config", str(cfg),
                "--output", str(tmp_path / "mesh.obj")]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "mesh.obj").exists()


@pytest.mark.parametrize("command,values,message", [
    ("curvature", {"point": 5}, "point must be a string, got 5"),
    ("curvature", {"plane": ["E1", "E3"]},
     "plane must be a string, got ['E1', 'E3']"),
    ("verify", {"output": 3, "suite": "polynomial"},
     "output must be a string or null, got 3"),
    ("curvature", {"as_json": "no"}, "as_json must be true or false, got 'no'"),
    # JSON's true and false are no numbers, though Python's bool is an int
    ("profile", {"kind": "implicit", "c": True, "step": True, "u_min": 0.0,
                 "u_max": 0.2}, "c must be a finite number, got True"),
    ("generate", {"v_min": False, "v_max": True},
     "v_min must be a finite number, got False"),
    # values that the flags' choices refuse before validation
    ("profile", {"kind": "spiral"}, "unknown family kind 'spiral'"),
    ("generate", {"format": "stl"}, "unknown mesh format 'stl'"),
    ("verify", {"suite": "none"}, "unknown suite 'none'"),
    ("verify", [1, 2], "config file must hold a JSON object"),
    ("generate", {"variant": "x3"}, "unknown variant 'x3'"),
])
def test_config_string_and_bool_fields(tmp_path, capsys, command, values,
                                       message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert run([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("name", ["c", "u_min", "u_max", "v_min", "v_max",
                                  "theta_start", "step"])
def test_config_null_float_field_is_usage_error(name, tmp_path, capsys):
    # only u0 may be null; the others have no meaning without a value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: None}))
    assert run(["verify", "--suite", "polynomial", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {name} must be a finite number, got None\n")


def test_config_null_anchor_and_output_are_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u0": None, "output": None, "nu": 5}))
    assert run(["profile", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("u,theta,f,Psi,Phi,K\n")


@pytest.mark.parametrize("argv", [
    ["generate", "--u-min", "1", "--u-max", "-1"],
    ["generate", "--nu", "1"],
    ["generate", "--kind", "explicit", "--u-max", "0.5", "--u-min", "-1"],
    ["generate", "--kind", "implicit", "--u-min", "-0.5", "--u-max", "0.5"],
    ["generate", "--kind", "implicit", "--u-min", "0", "--u-max", "1",
     "--c", "-2"],
    ["profile", "--step", "-1"],
    ["profile", "--kind", "implicit", "--u-min", "0", "--u-max", "0.5",
     "--c", "nan"],
    ["profile", "--kind", "implicit", "--u-min", "0", "--u-max", "0.5",
     "--theta-start=nan"],
    ["profile", "--kind", "implicit", "--u-min", "0", "--u-max", "0.5",
     "--step", "nan"],
    ["generate", "--u0=nan"],
    ["profile", "--u0", "0.5"],
    ["profile", "--u0", "0"],
    ["profile", "--kind", "implicit", "--u-min", "0", "--u-max", "0.5",
     "--u0", "-0.25"],
    ["generate", "--u-min=-inf"],
    ["generate", "--v-max", "inf"],
    ["curvature", "--point", "nan,0,0"],
    ["curvature", "--point=0,-inf,0"],
    ["curvature", "--plane", "1:nan:0,E3"],
    ["generate", "--u-min", "-100"],
    ["generate", "--u-min", "-35", "--nu", "20000"],
    ["profile", "--kind", "implicit", "--u-min", "0", "--u-max", "0.5",
     "--theta-start", "3.2"],
    ["profile", "--kind", "implicit", "--u-min", "0", "--u-max", "0.5",
     "--theta-start", "1.4"],
    ["curvature", "--plane", "1:2,E3"],
    ["curvature", "--plane", "a:b:c,E3"],
])
def test_validation_exit_codes(argv, capsys):
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value,option", [
    ("profile", "--u-max", "-1e-3", []),
    ("generate", "--v-min", "-1E0", ["--v-max", "0.5", "--nv", "3"]),
    ("profile", "--u-min", "-3.5e0", []),
    ("curvature", "--point", "-1,0,0", []),
    ("curvature", "--plane", "-1:0:0,E3", []),
    ("profile", "--u-max", "-5e-1", ["--nu", "2"]),
], ids=["u-max", "v-min", "u-min", "point", "plane", "u-max-nu"])
def test_a_value_that_starts_with_a_dash_follows_its_flag(
        command, flag, value, option, tmp_path, capsys):
    # argparse alone reads such a token as an unknown option; the
    # space-separated form must give the bytes of the --flag=value form
    mesh = tmp_path / "mesh.obj"
    if command == "generate":
        option = option + ["--output", str(mesh)]

    def output(form):
        assert run([command, *form, *option]) == 0
        return capsys.readouterr().out, mesh.exists() and mesh.read_bytes()

    assert output([flag, value]) == output([f"{flag}={value}"])


def test_a_flag_followed_by_another_flag_still_lacks_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["profile", "--u-max", "--nu", "3"])
    assert exc.value.code == 2
    assert "argument --u-max: expected one argument" in capsys.readouterr().err


def test_a_range_wider_than_the_largest_double_is_usage_error(tmp_path,
                                                              capsys):
    # the width 2e308 overflows, and linspace would write nan and inf
    mesh = tmp_path / "mesh.obj"
    assert run(["generate", "--v-min=-1e308", "--v-max=1e308",
                "--output", str(mesh)]) == 2
    assert capsys.readouterr().err == (
        "error: the v range [-1e+308, 1e+308] is wider than the largest "
        "double\n")
    assert not mesh.exists()


def test_an_implicit_anchor_past_u_max_is_usage_error(capsys):
    # the march never reaches u0, which the config alone decides
    assert run(["profile", "--kind", "implicit", "--u-min", "0",
                "--u-max", "0.3", "--u0", "0.5"]) == 2
    assert capsys.readouterr().err == (
        "error: implicit anchors need 0 <= u0 <= u_max = 0.3, got 0.5\n")


def test_theta_start_outside_the_quadrant_names_the_field(capsys):
    # cos of the double nearest pi/2 is +6e-17: the profile cannot start
    assert run(["profile", "--kind", "implicit", "--u-min", "0",
                "--u-max", "0.5", "--theta-start", "1.5707963267948966"]) == 2
    assert "theta_start must lie in (pi/2, pi)" in capsys.readouterr().err


# repr of the double just below EXPLICIT_U_MIN
BELOW_DOMAIN = repr(math.nextafter(EXPLICIT_U_MIN, -math.inf))


@pytest.mark.parametrize("argv,field", [
    (["profile", "--u-min", BELOW_DOMAIN], "u_min"),
    (["profile", "--u-max", "0"], "u_max"),
    (["profile", "--u-min", "-60", "--u-max", BELOW_DOMAIN], "u_min"),
    (["profile", "--u0", BELOW_DOMAIN], "u0"),
    (["profile", "--u0", "0"], "u0"),
    (["generate", "--u-min", BELOW_DOMAIN], "u_min"),
    (["generate", "--u-max", "0.5"], "u_max"),
    # f underflows to 0 near u = -857, and Phi1 overflows near -5379
    (["generate", "--u-min", "-1000", "--nu", "8"], "u_min"),
    (["profile", "--u0", "-6000", "--nu", "2"], "u0"),
])
def test_explicit_u_outside_the_domain_is_usage_error(argv, field, tmp_path,
                                                      capsys):
    out = tmp_path / ("mesh.obj" if argv[0] == "generate" else "rows.csv")
    assert run(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must lie in the explicit domain "
                          f"[{EXPLICIT_U_MIN!r}, 0), got ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_explicit_anchor_at_the_domain_bound(capsys):
    bound = repr(EXPLICIT_U_MIN)
    assert run(["profile", "--u0", bound, "--u-min", bound, "--nu", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    # the anchor is the first sample, so its Psi and Phi vanish
    assert rows[0].split(",")[:5] == [
        "-41.500223459658", "3.141592653590", "0.000000000000",
        "0.000000000000", "0.000000000000"]


def test_explicit_grid_where_theta_stops_decreasing(tmp_path, capsys):
    # samples 0.1 apart near the bound round to the same angle
    mesh = tmp_path / "mesh.obj"
    assert run(["generate", "--u-min", "-41", "--u-max", "-1", "--nu", "400",
                "--output", str(mesh)]) == 2
    err = capsys.readouterr().err
    assert "stops at u = -40.899749373433586" in err
    assert "round to the same double" in err
    assert not mesh.exists()
    # the two samples of the domain's ends still decrease
    assert run(["generate", "--u-min", repr(EXPLICIT_U_MIN), "--nu", "2",
                "--output", str(mesh)]) == 0
    assert mesh.exists()


def test_step_too_small_for_the_span(capsys):
    # 1 / 5e-324 overflows: a runtime failure with an error line
    code = run(["profile", "--kind", "implicit", "--c", "1",
                "--theta-start", "2.2", "--u-min", "0", "--u-max", "1",
                "--step", "5e-324"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: step 5e-324 ")


def test_step_beyond_the_march_cap(capsys):
    # 1e12 steps: refused before any sample, with one error line
    code = run(["profile", "--kind", "implicit", "--c", "1",
                "--theta-start", "2.2", "--u-min", "0", "--u-max", "1",
                "--step", "1e-12"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 1e-12 is too small for u_span")
    assert err.count("\n") == 1


def test_runtime_failure_exit_code(capsys):
    # a valid start just past pi/2, where the first step leaves the
    # quadrant: the profile halts at u = 0 and leaves no usable grid
    code = run(["profile", "--kind", "implicit", "--u-min", "0",
                "--u-max", "0.5", "--nu", "8", "--theta-start", "1.5708",
                "--step", "0.1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_config_json_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"nu": 5,')
    assert run(["generate", "--config", str(cfg),
                "--output", str(tmp_path / "mesh.obj")]) == 2
    assert "cannot load config" in capsys.readouterr().err
    assert not (tmp_path / "mesh.obj").exists()


def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe\x00{")
    assert run(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load config: ")
    assert err.count("\n") == 1


def test_output_into_a_directory_is_runtime_error(tmp_path, capsys):
    assert run(["generate", "--nu", "4", "--nv", "3",
                "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_verify_output_into_a_missing_directory_fails_first(
        tmp_path, monkeypatch, capsys):
    def no_suite(*args, **kwargs):
        raise AssertionError("the suites ran before the output was checked")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    missing = tmp_path / "missing"
    assert run(["verify", "--output", str(missing / "report.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report: ")
    assert f"{missing} is not a directory" in err
    assert err.count("\n") == 1


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "solgeo", "verify", "--suite", "polynomial"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)


@pytest.mark.parametrize("value", ["-5e-1", "0.5"])
def test_an_abbreviated_flag_is_refused(value, capsys):
    # every flag has one spelling, so a value that starts with a dash
    # parses the same way after every flag that argparse accepts
    with pytest.raises(SystemExit) as exc:
        run(["profile", "--u-ma", value, "--nu", "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --u-ma {value}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command,argv,message", [
    ("profile", ["--nu", "1000001"], "nu must be at most 1000000, got 1000001"),
    ("generate", ["--nv", "1000001"], "nv must be at most 1000000, got 1000001"),
    ("generate", ["--nu", "10001", "--nv", "10000"],
     "nu * nv must be at most 100000000 mesh vertices, got 100010000"),
], ids=["nu", "nv", "vertices"])
def test_a_grid_past_its_bound_is_usage_error(command, argv, message,
                                              tmp_path, capsys):
    out = tmp_path / "out"
    assert run([command, *argv, "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_a_mesh_at_the_vertex_bound_is_valid():
    RunConfig(command="generate", nu=10 ** 6, nv=100).validate()
