"""Seeded benchmark of the benchsel command line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's score matrices from the seed, times a fresh
interpreter's `python -m benchsel.cli --help` (set-up, untraced runs only),
then runs whole passes of the workload's commands in a fresh worker
process, one caller in a closed loop, for S seconds.  Checks every output,
and prints as its last line one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json, command times among them as multiples of a fixed
reference computation timed in the same run (`*_rel`, unit `x_ref`); with
--trace 1 they are its per-layer metrics, from a tracer that wraps the
package's functions from outside.  The line before it records the
environment and, per command and for the reference, the median seconds,
the highest percentile with at least ten samples beyond it, and the sample
count.  Exits 2 when the checkout has no benchsel source.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread, so that timings do not depend on how many cores the host
# lends a run.  Set before numpy loads; the child processes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread pins)

import checks  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
# Cold starts per run, half before the worker and half after it, so that
# set-up is timed at both ends of the run.
SETUP_RUNS = 4
CHILD_TIMEOUT_S = 150


def percentile_summary(samples) -> dict:
    """Median, the highest of p50/p90/p99/p99.9 with >= 10 samples beyond
    it (None when there are too few samples), and the sample count."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs),
           "high_pct": None, "high": None}
    for pct in (50, 90, 99, 99.9):
        if len(xs) * (1 - pct / 100) >= 10:
            out["high_pct"] = pct
            out["high"] = xs[math.ceil(len(xs) * pct / 100) - 1]
    return out


def environment() -> dict:
    import scipy

    def blas_version(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return f"{deps['blas']['name']} {deps['blas']['version']}"
        except (KeyError, TypeError, AttributeError):
            return None

    sha = None
    try:
        # The ceiling keeps git from looking for a repository above ROOT.
        ceiling = {"GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, **ceiling})
        if git.returncode == 0:
            sha = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version(np),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def measure_setup(runs: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "benchsel.cli", "--help"],
                       env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def run_worker(spec: dict, work: str) -> dict:
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                    spec_path, result_path], cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not result["benchsel_file"].startswith(SRC + os.sep):
        raise RuntimeError(f"benchsel imported from {result['benchsel_file']}")
    return result


def check_outputs(w, inp, result, out_dir):
    """Failed executions (as indices) and the quality figures."""
    executions = result["executions"]
    bad = checks.check_executions(executions)
    problems = [p for found in bad.values() for p in found]
    failed = set(bad)
    quality = {"impute_rmse": math.nan, "cv_r2": math.nan}

    def out(cmd_id, name):
        return os.path.join(out_dir, cmd_id, name)

    content: dict[str, list[str]] = {}
    for cmd_id in {ex["command"] for ex in executions}:
        try:
            if cmd_id == "impute":
                sd = np.nanstd(inp.train_values, axis=0, ddof=1)
                found, quality["impute_rmse"] = checks.check_completed(
                    out("impute", "completed.csv"), inp.test_csv,
                    inp.test_values, sd)
            elif cmd_id == "cv":
                found, quality["cv_r2"] = checks.check_cv_summary(
                    out("cv", "cv_summary.json"))
            elif cmd_id == "select-budgeted":
                found = checks.check_selection(
                    out(cmd_id, "selection.json"), inp.names,
                    costs=inp.costs, budget=inp.budget)
            elif cmd_id.startswith("select-"):
                found = checks.check_selection(
                    out(cmd_id, "selection.json"), inp.names, k=w.select_k)
            else:
                found = []
        except (OSError, ValueError, KeyError) as exc:
            found = [f"unreadable output: {exc!r}"]
        content[cmd_id] = [f"{cmd_id}: {p}" for p in found]
    for i, ex in enumerate(executions):
        if content[ex["command"]]:
            failed.add(i)
    problems += [p for found in content.values() for p in found]
    return failed, quality, problems


def end_to_end(commands, result, setup, quality):
    """Each time metric sums, over the commands that add to it, the mean
    time of the command over the passes after the warm-up, divided by the
    mean time of the reference computation over the same passes."""
    samples: dict[str, list[float]] = {c["id"]: [] for c in commands}
    samples["reference"] = []
    for ex in result["executions"]:
        if ex["pass_no"] > 0:
            samples[ex["command"]].append(ex["seconds"])
            samples["reference"].append(ex["ref_s"])
    ref = statistics.fmean(samples["reference"])
    values = {"setup_s": statistics.median(setup)}
    for cmd in commands:
        xs = samples[cmd["id"]]
        values[cmd["metric"]] = (values.get(cmd["metric"], 0.0)
                                 + (statistics.fmean(xs) / ref if xs
                                    else math.nan))
    values["peak_rss_mb"] = result["peak_rss_mb"]
    values.update(quality)
    samples["setup"] = setup
    return values, {c: percentile_summary(xs) for c, xs in samples.items()
                    if xs}


def per_layer(result):
    layers = result["layers"]
    values = {name: statistics.median(p[name] for p in layers)
              for name in layers[0]}
    pass_s: dict[tuple[bool, int], float] = {}
    for ex in result["executions"]:
        if ex["pass_no"] > 0:  # pass 0 warms up
            key = (ex["traced"], ex["pass_no"])
            pass_s[key] = pass_s.get(key, 0.0) + ex["seconds"]
    traced = statistics.median(s for (t, _), s in pass_s.items() if t)
    untraced = statistics.median(s for (t, _), s in pass_s.items() if not t)
    values["tracing.overhead_s"] = traced - untraced
    values["tracing.overhead_frac"] = (traced - untraced) / untraced
    return values, {"traced_passes": len(layers),
                    "untraced_passes": len(pass_s) - len(layers),
                    "traced_pass_s": traced, "untraced_pass_s": untraced}


def _number(value):
    """A JSON number, or null for a figure a failed check left undefined."""
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "benchsel", "cli.py")):
        print(f"error: no benchsel source under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    traced_names = [m["name"] for m in declared
                    if not m["name"].startswith("tracing.")]

    w = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch)
    try:
        setup = [] if args.trace else measure_setup(SETUP_RUNS // 2)
        inp = workloads.generate(w, args.seed, work)
        out_dir = os.path.join(work, "out")
        spec = {"seconds": args.seconds, "trace": bool(args.trace),
                "out": out_dir, "layer_metrics": traced_names,
                "commands": workloads.commands(w, inp)}
        result = run_worker(spec, work)
        if not args.trace:
            setup += measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
        failed, quality, problems = check_outputs(w, inp, result, out_dir)
        if args.trace:
            values, detail = per_layer(result)
        else:
            values, detail = end_to_end(spec["commands"], result, setup,
                                        quality)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only once no other run is using it

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = len(result["executions"])
    print(json.dumps({"environment": environment(), "workload": w.name,
                      "seed": args.seed,
                      "failed_frac": len(failed) / attempted,
                      "detail": detail}))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": _number(values[m["name"]]),
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
