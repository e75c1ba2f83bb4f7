"""Output checks.  Each check returns a list of problems; empty means pass."""

from __future__ import annotations

import csv
import json
import math

import numpy as np


def check_executions(executions) -> dict[int, list[str]]:
    """Per execution: exit code 0, and the same output bytes as the first
    execution of the same command in the run."""
    first: dict[str, str] = {}
    problems: dict[int, list[str]] = {}
    for i, ex in enumerate(executions):
        found = []
        if ex["exit_code"] != 0:
            found.append(f"exit code {ex['exit_code']}")
        ref = first.setdefault(ex["command"], ex["digest"])
        if ex["exit_code"] == 0 and ex["digest"] != ref:
            found.append("output differs from the first execution")
        if found:
            problems[i] = [f"{ex['command']} #{i}: {p}" for p in found]
    return problems


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_completed(completed_csv, test_csv, truth, train_sd):
    """completed.csv keeps every observed test cell and fills every hidden
    one with a finite value.  Returns (problems, RMSE of the hidden cells
    against `truth` in units of `train_sd`)."""
    got, shown = _read_rows(completed_csv), _read_rows(test_csv)
    if len(got) != len(shown) or got[0] != shown[0]:
        return ["completed.csv does not match the test CSV's shape"], math.nan
    problems = []
    errors = []
    for i, (g_row, s_row) in enumerate(zip(got[1:], shown[1:])):
        if len(g_row) != len(s_row) or g_row[0] != s_row[0]:
            problems.append(f"row {i}: labels or width differ")
            continue
        for j, (g, s) in enumerate(zip(g_row[1:], s_row[1:])):
            try:
                value = float(g)
            except ValueError:
                problems.append(f"cell ({i}, {j}): {g!r} is not a number")
                continue
            if s != "":
                if value != float(s):
                    problems.append(f"cell ({i}, {j}): observed {s} "
                                    f"became {g}")
            elif not math.isfinite(value):
                problems.append(f"cell ({i}, {j}): imputed {g}")
            else:
                errors.append((value - truth[i, j]) / train_sd[j])
    if not errors:
        problems.append("no hidden cell was imputed")
        return problems, math.nan
    return problems, float(np.sqrt(np.mean(np.square(errors))))


def check_selection(selection_json, names, k=None, costs=None, budget=None):
    """selection.json holds k distinct benchmark names (or, for a budgeted
    selection, distinct names whose costs fit the budget)."""
    with open(selection_json, encoding="utf-8") as fh:
        chosen = json.load(fh).get("selected", [])
    problems = []
    if len(set(chosen)) != len(chosen):
        problems.append("selection repeats a benchmark")
    if not set(chosen) <= set(names):
        problems.append("selection names an unknown benchmark")
    if k is not None and len(chosen) != k:
        problems.append(f"selection has {len(chosen)} names, expected {k}")
    if budget is not None:
        spent = sum(costs[names.index(n)] for n in chosen if n in names)
        if not chosen or spent > budget + 1e-9:
            problems.append(f"budgeted selection costs {spent} of {budget}")
    return problems


def check_cv_summary(summary_json):
    """Every mean with n > 0 is finite.  Returns (problems, mean of the
    finite means)."""
    with open(summary_json, encoding="utf-8") as fh:
        rows = json.load(fh)["summary"]
    problems = [f"{r['method']} p={r['holdout_p']} k={r['k']}: mean "
                f"{r['mean']}" for r in rows
                if r["n"] > 0 and not math.isfinite(r["mean"])]
    means = [r["mean"] for r in rows if math.isfinite(r["mean"])]
    if not means:
        problems.append("cv summary has no finite mean")
        return problems, math.nan
    return problems, float(np.mean(means))
