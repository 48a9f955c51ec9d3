"""One timed ``solgeo verify`` operation in a fresh interpreter.

    python3 perfbench/verify_cli.py TIMING_JSON verify --suite all --seed S

Does what the ``solgeo`` console script does: import ``solgeo.cli`` and
call ``main`` with the remaining arguments, so the report JSON goes to
stdout and the exit code is ``main``'s.  The operation's time is the
``main`` call, measured here with the host speed sampler running; the
import is what ``setup_s`` measures.  Writes ``{"s": seconds less probe
time, "samples": probe samples}`` to ``TIMING_JSON``.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probe  # noqa: E402

if __name__ == "__main__":
    from solgeo.cli import main

    start = time.perf_counter()
    with probe.Sampler() as sampler:
        code = main(sys.argv[2:])
    elapsed = time.perf_counter() - start - sampler.spent()
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump({"s": elapsed, "samples": sampler.samples}, handle)
    sys.exit(code)
