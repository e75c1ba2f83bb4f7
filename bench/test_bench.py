"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import csv
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

import benchsel  # noqa: E402
from benchsel import cli, imputation, selection  # noqa: E402


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    runs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        out = tmp_path / label
        out.mkdir()
        inp = workloads.generate(w, seed, str(out))
        runs[label] = (_bytes(inp.train_csv), _bytes(inp.test_csv), inp)
    assert runs["a"][:2] == runs["b"][:2]
    assert runs["a"][1] != runs["c"][1]
    np.testing.assert_array_equal(runs["a"][2].test_values,
                                  runs["b"][2].test_values)


def test_block_regime_has_a_full_suite_and_few_patterns(tmp_path):
    inp = workloads.generate(workloads.WORKLOADS["block-em"], 0, str(tmp_path))
    mask = ~np.isnan(inp.train_values)
    patterns = {row.tobytes() for row in mask}
    assert len(patterns) <= workloads.BLOCK_SUITES
    assert mask.all(axis=1).any()


def _completed_from_truth(inp, path):
    with open(inp.test_csv, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row[1:]):
            if cell == "":
                row[j + 1] = repr(float(inp.test_values[i, j]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return rows


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_checker_flags_a_corrupted_completed_cell(tmp_path):
    inp = workloads.generate(workloads.WORKLOADS["block-em"], 3, str(tmp_path))
    sd = np.nanstd(inp.train_values, axis=0, ddof=1)
    path = str(tmp_path / "completed.csv")
    rows = _completed_from_truth(inp, path)
    problems, rmse = checks.check_completed(path, inp.test_csv,
                                            inp.test_values, sd)
    assert problems == [] and rmse == 0.0

    i, j = map(int, np.argwhere(inp.test_mask)[0])
    observed = [r[:] for r in rows]
    observed[i + 1][j + 1] = repr(float(observed[i + 1][j + 1]) + 1.0)
    _write_rows(path, observed)
    problems, _ = checks.check_completed(path, inp.test_csv,
                                         inp.test_values, sd)
    assert len(problems) == 1 and "observed" in problems[0]

    i, j = map(int, np.argwhere(~inp.test_mask)[0])
    hidden = [r[:] for r in rows]
    hidden[i + 1][j + 1] = "nan"
    _write_rows(path, hidden)
    problems, _ = checks.check_completed(path, inp.test_csv,
                                         inp.test_values, sd)
    assert len(problems) == 1 and "imputed nan" in problems[0]


def test_checker_flags_a_nonzero_exit_and_changed_bytes():
    runs = [
        {"command": "cv", "exit_code": 0, "digest": "x"},
        {"command": "cv", "exit_code": 2, "digest": "x"},
        {"command": "cv", "exit_code": 0, "digest": "y"},
        {"command": "impute", "exit_code": 0, "digest": "z"},
        {"command": "impute", "exit_code": "exception", "digest": "z"},
    ]
    problems = checks.check_executions(runs)
    assert sorted(problems) == [1, 2, 4]
    assert "exit code 2" in problems[1][0]
    assert "differs" in problems[2][0]


def test_worker_stops_repeating_a_failing_command(tmp_path):
    import worker

    class FakeCli:
        @staticmethod
        def main(argv):
            os.makedirs(argv[-1], exist_ok=True)
            return 2 if argv[0] == "bad" else 0

    spec = {"seconds": 0.05, "out": str(tmp_path), "trace": False,
            "commands": [{"id": "ok", "argv": ["ok"]},
                         {"id": "bad", "argv": ["bad"]}]}
    runs, layers = worker._passes(FakeCli, spec)
    assert [r["exit_code"] for r in runs if r["command"] == "bad"] == [2]
    ok = [r["pass_no"] for r in runs if r["command"] == "ok"]
    assert ok == list(range(len(ok))) and len(ok) >= worker.MIN_PASSES
    assert layers == []
    assert sorted(checks.check_executions(runs)) == [
        i for i, r in enumerate(runs) if r["command"] == "bad"]


def test_checker_flags_selection_and_cv_summary(tmp_path):
    names = ("a", "b", "c")
    sel = tmp_path / "selection.json"
    sel.write_text(json.dumps({"selected": ["a", "a"]}))
    assert checks.check_selection(str(sel), names, k=2)
    sel.write_text(json.dumps({"selected": ["c", "a"]}))
    assert checks.check_selection(str(sel), names, k=2) == []
    assert checks.check_selection(str(sel), names, costs=(1, 1, 2),
                                  budget=2.5)

    summary = tmp_path / "cv_summary.json"
    rows = [{"method": "mi", "holdout_p": 0.2, "k": 1, "mean": 0.5, "n": 2},
            {"method": "mi", "holdout_p": 0.2, "k": 2, "mean": float("nan"),
             "n": 0}]
    summary.write_text(json.dumps({"summary": rows}))
    assert checks.check_cv_summary(str(summary)) == ([], 0.5)
    rows[1]["n"] = 1
    summary.write_text(json.dumps({"summary": rows}))
    assert checks.check_cv_summary(str(summary))[0]


def test_tracer_counts_outer_calls_and_restores(tmp_path):
    inp = workloads.generate(workloads.WORKLOADS["block-em"], 1, str(tmp_path))
    original = cli.load_csv
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["select", inp.train_csv, "--k", "2",
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    assert cli.load_csv is original
    assert imputation.clip_standardized.__module__ == "benchsel.imputation"
    load = tracer.stats["score_matrix.load_csv"]
    assert load.calls == 1  # load_csv(path) calls itself once per load
    assert load.cells == 80 * 10
    assert tracer.stats["covariance.em_fit"].iters > 0
    assert "imputation.clip_standardized" not in tracer.stats
    root = tracer.stats["cli.main"]
    assert 0 < root.self_s < root.s
    assert tracer.edges[("cli.cmd_select", "score_matrix.load_csv")].calls == 1


def test_tracer_tolerates_a_missing_function(tmp_path, monkeypatch):
    for ns in (selection, benchsel, cli):
        monkeypatch.delattr(ns, "lazy_greedy_entropy")
    for ns in (imputation, benchsel, cli):
        monkeypatch.delattr(ns, "impute_row")
    tracer = Tracer()
    tracer.install()
    try:
        got = selection.greedy_entropy(np.eye(3), 2)
    finally:
        tracer.uninstall()
    assert got.order == (0, 1)
    metrics = layer_metrics(tracer, ["selection.greedy_entropy.calls",
                                     "imputation.calls",
                                     "covariance.em_fit.s_per_iter"])
    assert metrics == {"selection.greedy_entropy.calls": 1,
                       "imputation.calls": 0,
                       "covariance.em_fit.s_per_iter": 0.0}


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]
                    if not m["name"].startswith("tracing.")]
    # An unknown field raises; a declared owner that made no call reads 0.
    assert layer_metrics(Tracer(), declared) == dict.fromkeys(declared, 0)
