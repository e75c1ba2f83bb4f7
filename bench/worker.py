"""Runs one workload's commands through `benchsel.cli.main` in this process.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

One caller runs whole passes of the spec's commands for about the spec's
seconds.  The result holds, per execution, the pass, the wall time, the
time of a fixed reference computation just before it, the exit code and a
digest of the output files, and with tracing on the per-layer figures of
each traced pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The warm-up pass, one traced and one untraced pass after it.  Two passes
# also let each command's output be compared byte for byte.
MIN_PASSES = 3
_REF_SMALL = 60.0 * np.eye(60) + np.ones((60, 60))
_REF_LARGE = np.linspace(-1.0, 1.0, 400 * 400).reshape(400, 400)


def reference_s() -> float:
    """Seconds of a fixed computation of the program's kinds of work,
    independent of the program: an arithmetic loop, number formatting, dict
    building, small LAPACK calls and products of 400x400 matrices.  It
    runs before every command.  A shared host can run a whole run ~1.7x
    slower than the next; command time over reference time in the same run
    cancels most of that.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(40_000):
        total += (i % 7) * 0.5
    row = ",".join(f"{i * 0.37:.4f}" for i in range(12_000))
    {i: float(x) for i, x in enumerate(row.split(","))}
    for _ in range(300):
        np.linalg.cholesky(_REF_SMALL)
    for _ in range(3):
        _REF_LARGE @ _REF_LARGE
    return time.perf_counter() - start


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _execute(cli, argv, out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main([*argv, "--out", out_dir])
    except Exception:
        # A crash is a failed command, not the end of the run.
        traceback.print_exc()
        code = "exception"
    except SystemExit as exc:
        code = exc.code
    return time.perf_counter() - start, code


def _run(cli, cmd, out_root, **tags) -> dict:
    ref = reference_s()
    out_dir = os.path.join(out_root, cmd["id"])
    seconds, code = _execute(cli, cmd["argv"], out_dir)
    return {"command": cmd["id"], "seconds": seconds, "ref_s": ref,
            "exit_code": code, "digest": _digest(out_dir), **tags}


def _passes(cli, spec):
    """Whole passes of the spec's commands, one after another, until the
    spec's seconds are up and at least MIN_PASSES have run.  Every command
    thus gets one sample per pass, however long it takes.  Pass 0 warms up.
    With tracing on, the passes after it are alternately traced and
    untraced, so that per-pass counts are exact and the tracing overhead is
    the difference between the two kinds of pass.  A command that fails
    runs no more."""
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
    live = list(spec["commands"])
    executions, layers = [], []
    start = time.perf_counter()
    n_pass = 0
    while live and (n_pass < MIN_PASSES
                    or time.perf_counter() - start < spec["seconds"]):
        traced = tracer is not None and n_pass % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            runs = [_run(cli, cmd, spec["out"], traced=traced, pass_no=n_pass)
                    for cmd in live]
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(layer_metrics(tracer, spec["layer_metrics"]))
        executions += runs
        failed = {r["command"] for r in runs if r["exit_code"] != 0}
        live = [cmd for cmd in live if cmd["id"] not in failed]
        n_pass += 1
    return executions, layers


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import benchsel.cli as cli

    executions, layers = _passes(cli, spec)
    result = {
        "executions": executions,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "benchsel_file": os.path.abspath(cli.__file__),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
