"""The command line's exit contract on drawn input.

``solgeo.cli.main`` runs in-process on argv drawn from each command's own
flags, in the space-separated and the ``--flag=value`` form, with values
that include negative scientific notation, non-finite and non-numeric
strings, and with a config file whose values may have the wrong type.
Every run returns 0, 1 or 2 or leaves argparse's ``SystemExit(2)``; a
return of 1 or 2 leaves a last stderr line that starts with ``error:``;
and a mesh that ``generate`` writes holds finite numbers only.  Grids stay
at 16 samples a side and steps at 1e-4 or above, and every file is written
inside a temporary directory.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from solgeo.cli import main
from solgeo.verification import SUITE_NAMES

# numbers as typed on a command line
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-50.0, 50.0).map("{:e}".format),
    st.floats(-50.0, 50.0).map("{:E}".format),
    st.integers(-50, 50).map(str),
    st.sampled_from(["-1e-3", "-3.5e0", "-1E0", "-inf", "-nan", "nan", "inf",
                     "-Infinity", "1e308", "-1e308", "-0", "", "x", "-x",
                     "-"]))
COUNTS = st.one_of(st.integers(-2, 16).map(str),
                   st.sampled_from(["2.5", "-1e0", "x", "-"]))
STEPS = st.one_of(st.floats(1e-4, 1.0).map(repr),
                  st.sampled_from(["0", "-1e-3", "-inf", "nan", "x"]))
TRIPLES = st.tuples(NUMBERS, NUMBERS, NUMBERS)
PLANE_VECTORS = st.one_of(st.sampled_from(["E1", "E2", "E3", "e3", "E4"]),
                          TRIPLES.map(":".join))

PROFILE_FLAGS = {
    "--kind": st.sampled_from(["explicit", "implicit", "-x"]),
    "--c": NUMBERS, "--u-min": NUMBERS, "--u-max": NUMBERS, "--nu": COUNTS,
    "--u0": NUMBERS, "--theta-start": NUMBERS, "--step": STEPS,
}
FLAGS = {
    "generate": dict(
        PROFILE_FLAGS, **{
            "--variant": st.sampled_from(["x1", "x2", "x3"]),
            "--v-min": NUMBERS, "--v-max": NUMBERS, "--nv": COUNTS,
            "--format": st.sampled_from(["obj", "ply", "stl"]),
            "--output": st.sampled_from(["mesh.obj", "-mesh.ply",
                                         "missing/mesh.obj", "."])}),
    "profile": dict(
        PROFILE_FLAGS,
        **{"--output": st.sampled_from(["rows.csv", "missing/rows.csv"])}),
    "verify": {
        "--suite": st.sampled_from(SUITE_NAMES + ("all", "none")),
        "--seed": st.one_of(st.integers(-3, 2 ** 70).map(str),
                            st.sampled_from(["-1e0", "1.5", "x"])),
        "--output": st.sampled_from(["report.json", "missing/report.json"]),
    },
    "curvature": {
        "--point": st.one_of(TRIPLES.map(",".join),
                             st.sampled_from(["-1,0,0", "0,0", "a,b,c"])),
        "--plane": st.lists(PLANE_VECTORS, min_size=1, max_size=3)
                     .map(",".join),
        "--json": None,
    },
}

# config values of a type that no field takes; text is left out, since
# ``output`` would take it as a path
WRONG = st.one_of(st.none(), st.booleans(),
                  st.lists(st.integers(0, 3), max_size=2),
                  st.dictionaries(st.just("k"), st.integers(0, 3),
                                  max_size=1))
FLOAT_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                         st.integers(-50, 50))
COUNT_VALUES = st.one_of(st.integers(-2, 16), st.floats(0.0, 16.0))
CONFIG_VALUES = {
    "kind": st.text(max_size=8), "variant": st.text(max_size=3),
    "c": FLOAT_VALUES, "u_min": FLOAT_VALUES, "u_max": FLOAT_VALUES,
    "v_min": FLOAT_VALUES, "v_max": FLOAT_VALUES, "u0": FLOAT_VALUES,
    "theta_start": FLOAT_VALUES,
    "step": st.one_of(st.floats(1e-4, 1.0),
                      st.sampled_from([0.0, -1e-3, math.inf, math.nan])),
    "nu": COUNT_VALUES, "nv": COUNT_VALUES,
    "seed": st.one_of(st.integers(-3, 2 ** 70), st.floats(0.0, 9.0)),
    "suite": st.text(max_size=8), "format": st.text(max_size=3),
    "point": st.text(max_size=8), "plane": st.text(max_size=8),
    "output": st.sampled_from(["out.txt", "missing/out.txt"]),
    "as_json": st.booleans(), "bogus": st.integers(),
}


@st.composite
def invocations(draw):
    """(argv after the config path, config dict or None)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    names = draw(st.lists(st.sampled_from(sorted(FLAGS[command])),
                          max_size=6, unique=True))
    for name in names:
        values = FLAGS[command][name]
        form = draw(st.sampled_from(["space", "equals", "bare"]))
        if values is None or form == "bare":
            argv.append(name)
        elif form == "space":
            argv += [name, draw(values)]
        else:
            argv.append(f"{name}={draw(values)}")
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=4,
                         unique=True))
    config = draw(st.none() | st.just(
        {key: draw(st.one_of(CONFIG_VALUES[key], WRONG)) for key in keys}))
    return argv, config


def _run(argv):
    """(exit code, stderr, whether argparse exited) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            return main(argv), err.getvalue(), False
        except SystemExit as exc:
            return exc.code, err.getvalue(), True


@settings(max_examples=150, deadline=None)
@given(invocations())
# a v range whose width overflows once gave nan and inf vertices
@example((["generate", "--v-min=-1e308", "--v-max", "1e308"], None))
def test_main_keeps_its_exit_contract(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as folder:
        root = Path(folder)
        run = root / "run"
        run.mkdir()
        if config is not None:
            (root / "config.json").write_text(json.dumps(config))
            argv = argv[:1] + ["--config", str(root / "config.json")] \
                + argv[1:]
        with contextlib.chdir(run):
            code, err, exited = _run(argv)
        if exited:
            assert code == 2, (argv, err)
            return
        assert code in (0, 1, 2), argv
        if code:
            assert err.splitlines()[-1].startswith("error:"), (argv, err)
        if code == 0 and argv[0] == "generate":
            for path in run.rglob("*"):
                for token in path.read_text().split():
                    try:
                        value = float(token)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (argv, path, token)
