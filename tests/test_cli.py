import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchsel.cli import build_parser, main
from benchsel.score_matrix import load_csv, write_csv

from benchsel.covariance import GaussianModel, estimate_full, fit_model
from benchsel.imputation import impute_rows

from conftest import make_matrix, mcar_matrix, rank_one_matrix
from test_score_matrix import reference_write_table


def write_matrix(tmp_path, matrix, name="input.csv"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(matrix, fh)
    return str(path)


def read_all(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def read_table(path):
    """The numbers of a table that `impute` wrote, an empty cell as NaN."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(c) if c else np.nan for c in row[1:]]
                     for row in rows])


def manifest_configs(argv, flag, values, tmp_path, command):
    """Run argv once per flag value; check the outputs differ and return
    the value each manifest records."""
    outs, recorded = [], []
    for v in values:
        out = str(tmp_path / f"{command}{v}")
        assert main([*argv, flag, v, "--out", out]) == 0
        files = read_all(out)
        manifest = json.loads(files.pop(f"{command}_manifest.json"))
        outs.append(files)
        recorded.append(manifest["config"][flag.lstrip("-")])
    assert outs[0] != outs[1]
    return recorded


@pytest.fixture()
def diag_csv(tmp_path):
    # independent columns with strictly decreasing variances
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(60, 5)) * np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    return write_matrix(tmp_path, make_matrix(vals))


@pytest.fixture()
def rank1_csv(tmp_path):
    return write_matrix(tmp_path, rank_one_matrix(M=80, N=6, noise=0.05, seed=1))


@pytest.fixture()
def unit_csv(tmp_path):
    # rank-one scores squashed into (0, 1), as the logit transform needs
    z = rank_one_matrix(M=80, N=6, noise=0.05, seed=1).values
    return write_matrix(tmp_path, make_matrix(1 / (1 + np.exp(-z))),
                        name="unit.csv")


class TestSpectrum:
    def test_rank_one_k1(self, rank1_csv, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["spectrum", rank1_csv, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "90% explained at k=1" in printed
        rows = open(os.path.join(out, "spectrum.csv")).read().splitlines()
        assert rows[0] == "k,eigenvalue,explained,residual_fraction"
        assert len(rows) == 7

    def test_manifest_fields(self, rank1_csv, tmp_path):
        out = str(tmp_path / "out")
        main(["spectrum", rank1_csv, "--out", out])
        doc = json.load(open(os.path.join(out, "spectrum_manifest.json")))
        assert doc["command"] == "spectrum"
        assert len(doc["input_digest"]) == 64
        assert "tool_version" in doc


class TestSelect:
    def test_entropy_on_diagonal_data(self, diag_csv, tmp_path):
        out = str(tmp_path / "out")
        assert main(["select", diag_csv, "--objective", "entropy",
                     "--k", "3", "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "selection.json")))
        # standardization flattens variances but the file must exist
        # and list 3 picks with nonincreasing gains
        assert len(doc["order"]) == 3
        assert doc["objective"] == "entropy"
        gains = doc["gains"]
        assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))

    def test_lazy_matches_eager(self, rank1_csv, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["select", rank1_csv, "--k", "4", "--out", a])
        main(["select", rank1_csv, "--k", "4", "--lazy", "--out", b])
        da = json.load(open(os.path.join(a, "selection.json")))
        db = json.load(open(os.path.join(b, "selection.json")))
        assert da["order"] == db["order"]
        assert da["gains"] == db["gains"]

    def test_mi_on_a_rank_deficient_matrix(self, tmp_path):
        # 8 complete rows of 20 benchmarks: the sample covariance has rank
        # at most 7, but the fit's prior keeps Sigma positive definite, so
        # both objectives make all 8 picks.
        rng = np.random.default_rng(0)
        path = write_matrix(tmp_path, make_matrix(rng.normal(size=(8, 20))))
        for objective in ("entropy", "mi"):
            out = str(tmp_path / objective)
            assert main(["select", path, "--objective", objective,
                         "--k", "8", "--out", out]) == 0
            doc = json.load(open(os.path.join(out, "selection.json")))
            assert len(set(doc["order"])) == len(doc["order"]) == 8
            assert doc["truncated"] is False

    def test_mi_zero_gain_warning(self, tmp_path, capsys):
        # orthogonal +-1 columns: every sample covariance is exactly zero
        path = tmp_path / "orth.csv"
        path.write_text("model,b0,b1,b2\nr1,1,1,1\nr2,1,-1,-1\n"
                        "r3,-1,1,-1\nr4,-1,-1,1\n")
        assert main(["select", str(path), "--objective", "mi", "--k", "2",
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == (
            "warning: all MI gains are zero (independent benchmarks)\n")

    def test_budgeted_unit_costs(self, diag_csv, tmp_path):
        # weakly correlated data keeps the shifted marginals positive,
        # so the ratio rule reduces to the plain gain rule
        m = load_csv(open(diag_csv).read())
        costs_path = tmp_path / "costs.csv"
        with open(costs_path, "w") as fh:
            fh.write("benchmark,cost\n")
            for n in m.benchmark_names:
                fh.write(f"{n},1.0\n")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["select", diag_csv, "--objective", "budgeted",
              "--costs", str(costs_path), "--budget", "3", "--out", a])
        main(["select", diag_csv, "--objective", "entropy", "--k", "3",
              "--out", b])
        da = json.load(open(os.path.join(a, "selection.json")))
        db = json.load(open(os.path.join(b, "selection.json")))
        assert set(da["order"]) == set(db["order"])

    @pytest.mark.parametrize("form", [
        # quoted cells, CRLF line ends, benchmarks in another order
        '"benchmark","cost"\r\n' + "".join(
            f'"b{j}",{j % 3 + 1}\r\n' for j in reversed(range(6))),
        # any label cell, blank padding, CR line ends
        "name , Cost \r" + "".join(f" b{j} ,\t{j % 3 + 1}.0 \r"
                                    for j in range(6)),
    ], ids=["quoted-crlf", "label-padding-cr"])
    def test_costs_file_is_read_like_a_score_file(self, rank1_csv, tmp_path,
                                                   form):
        docs = []
        for name, body in (("plain", "benchmark,cost\n" + "".join(
                f"b{j},{j % 3 + 1}\n" for j in range(6))), ("other", form)):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(body.encode())
            out = tmp_path / name
            assert main(["select", rank1_csv, "--objective", "budgeted",
                         "--costs", str(path), "--budget", "4",
                         "--out", str(out)]) == 0
            docs.append((out / "selection.json").read_bytes())
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["total_cost"] <= 4

    def test_budgeted_negative_gain_warning(self, tmp_path, capsys):
        # unit costs on a strongly correlated matrix: later shifted
        # marginals go negative, which voids the approximation guarantee
        matrix = rank_one_matrix(M=80, N=6, noise=0.05, seed=5)
        path = write_matrix(tmp_path, matrix)
        costs = tmp_path / "costs.csv"
        costs.write_text("benchmark,cost\n" + "".join(
            f"{n},1.0\n" for n in matrix.benchmark_names))
        assert main(["select", path, "--objective", "budgeted",
                     "--costs", str(costs), "--budget", "3",
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == (
            "warning: shifted marginal gain went negative; the "
            "approximation guarantee is void\n"
        )

    @pytest.mark.parametrize("shift_c", ["nan", "inf", "-inf"])
    def test_non_finite_shift_c_rejected(self, rank1_csv, tmp_path, capsys,
                                         shift_c):
        costs = tmp_path / "costs.csv"
        costs.write_text("benchmark,cost\n" + "".join(
            f"b{j},1\n" for j in range(6)))
        out = str(tmp_path / "out")
        assert main(["select", rank1_csv, "--objective", "budgeted",
                     "--costs", str(costs), "--budget", "3",
                     f"--shift-c={shift_c}", "--out", out]) == 2
        assert capsys.readouterr().err == "data error: shift_c must be finite\n"
        assert not os.path.exists(out)

    def test_nan_budget_rejected(self, rank1_csv, tmp_path, capsys):
        costs = tmp_path / "costs.csv"
        costs.write_text("benchmark,cost\n" + "".join(
            f"b{j},1\n" for j in range(6)))
        out = str(tmp_path / "out")
        assert main(["select", rank1_csv, "--objective", "budgeted",
                     "--costs", str(costs), "--budget", "nan",
                     "--out", out]) == 2
        assert capsys.readouterr().err == "data error: budget must be positive\n"
        assert not os.path.exists(out)

    def test_usage_errors(self, rank1_csv, tmp_path):
        out = str(tmp_path / "out")
        assert main(["select", rank1_csv, "--objective", "budgeted",
                     "--out", out]) == 1
        assert main(["select", rank1_csv, "--out", out]) == 1

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,b0,b1\na,xx,1\nb,2,3\n")
        assert main(["select", str(bad), "--k", "1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_input_path_with_a_comma(self, tmp_path):
        (tmp_path / "a,b").mkdir()
        path = write_matrix(tmp_path / "a,b", rank_one_matrix(M=20, N=4),
                            name="in.csv")
        out = str(tmp_path / "o")
        assert main(["select", path, "--k", "2", "--out", out]) == 0
        assert len(json.load(open(os.path.join(out, "selection.json")))
                   ["order"]) == 2

    def test_constant_column_exit_code(self, tmp_path, capsys):
        # seven cells of 0.1: the mean does not round exactly, so the
        # sample std is 1.5e-17, not 0
        vals = np.random.default_rng(3).normal(size=(7, 3))
        vals[:, 0] = 0.1
        path = write_matrix(tmp_path, make_matrix(vals))
        assert main(["select", path, "--k", "2",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "data error: column 'b0' has zero observed variance\n")

    def test_fewer_models_than_benchmarks_with_holes(self, tmp_path):
        # M < N and missing cells: EM with the identity shrink
        matrix, _, _ = mcar_matrix(8, 12, 0.2, seed=25)
        path = write_matrix(tmp_path, matrix)
        assert main(["select", path, "--k", "3",
                     "--out", str(tmp_path / "o")]) == 0

    def test_non_finite_cell_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,b0,b1\na,-nan,1\nb,2,3\nc,4,5\n")
        assert main(["select", str(bad), "--k", "1",
                     "--out", str(tmp_path / "o")]) == 2


class TestFlagRules:
    """A flag the chosen mode would ignore is a usage error: exit 1, one
    `error:` line and no --out directory.  The input file does not exist,
    so a check made after reading it would exit 2 instead."""

    @pytest.mark.parametrize("argv,message", [
        (["select", "--objective", "entropy", "--k", "2", "--costs", "c.csv",
          "--shift-c", "3"], None),
        (["select", "--objective", "mi", "--k", "1", "--costs", "c.csv",
          "--budget", "5"], None),
        (["select", "--k", "2", "--budget", "5"], None),
        (["select", "--k", "2", "--shift-c", "1"], None),
        (["select", "--objective", "budgeted", "--costs", "c.csv",
          "--budget", "2", "--k", "7"],
         "--k does not apply to --objective budgeted"),
        (["impute", "--model", "m.json", "--logit", "--selected", "b0"],
         "--logit applies to --train, not --model"),
        (["impute", "--model", "m.json", "--logit", "--selected", "b0",
          "--epsilon", "0.2"], "unrecognized arguments: --epsilon 0.2"),
        (["select", "--k", "2", "--epsilon", "0.9"],
         "unrecognized arguments: --epsilon 0.9"),
    ], ids=["entropy-costs-shift", "mi-costs-budget", "entropy-budget",
            "entropy-shift", "budgeted-k", "model-logit", "impute-epsilon",
            "select-epsilon"])
    def test_usage_error(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [argv[0], str(tmp_path / "missing.csv"), *argv[1:],
                "--out", str(out)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error: ")]
        assert errors == [
            "error: " + (message or "--costs, --budget and --shift-c "
                         "require --objective budgeted")]
        assert not out.exists()


@st.composite
def impute_cases(draw):
    """(train, test, selected): positive scores, so that --logit applies,
    and test rows that fall into one to three conditioning sets on the
    selected benchmarks, each row observing other cells at random; the
    first test row observes every cell."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N, R = draw(st.integers(2, 6)), draw(st.integers(4, 12))
    loadings = rng.normal(size=(2, N))
    scores = np.exp(0.3 * (rng.normal(size=(30 + R, 2)) @ loadings
                           + 0.5 * rng.normal(size=(30 + R, N))))
    selected = np.flatnonzero(rng.random(N) < 0.5)
    if selected.size == 0:
        selected = rng.integers(N, size=1)
    sets = rng.random((draw(st.integers(1, 3)), selected.size)) < 0.6
    mask = rng.random((R, N)) < 0.5
    mask[:, selected] = sets[rng.integers(len(sets), size=R)]
    mask[0] = True
    for i in np.flatnonzero(~mask.any(axis=1)):
        mask[i, rng.integers(N)] = True
    test = make_matrix(np.where(mask, scores[30:], np.nan), prefix="t")
    return make_matrix(scores[:30]), test, selected


class TestImpute:
    @pytest.mark.fresh_draws
    @settings(max_examples=60, deadline=None)
    @given(impute_cases(), st.booleans())
    def test_tables_match_the_csv_writer(self, case, logit):
        # Rows that share a conditioning set share their sds in raw mode;
        # the tables come out as csv.writer writes each cell's repr.
        train, test, selected = case
        names = ",".join(test.benchmark_names[j] for j in selected)
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, f) for f in ("train.csv", "test.csv")]
            for path, matrix in zip(paths, (train, test)):
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    write_csv(matrix, fh)
            out, ref = os.path.join(tmp, "out"), os.path.join(tmp, "ref")
            assert main(["impute", paths[1], "--train", paths[0],
                         "--selected", names, "--out", out,
                         *(["--logit"] if logit else [])]) == 0

            fit = fit_model(train, logit=logit)
            pred, cvar = impute_rows(fit.encode(test.values), selected,
                                     fit.model)
            sd = fit.decode_sd(pred, np.sqrt(np.maximum(cvar, 0.0)))
            os.mkdir(ref)
            for name, table in (
                    ("completed.csv",
                     np.where(test.mask, test.values, fit.decode(pred))),
                    ("conditional_sd.csv", np.where(test.mask, np.nan, sd))):
                reference_write_table(
                    os.path.join(ref, name), ["model", *test.benchmark_names],
                    [[label, *row] for label, row
                     in zip(test.model_names, table.tolist())])
                with open(os.path.join(out, name), "rb") as got, \
                        open(os.path.join(ref, name), "rb") as want:
                    assert got.read() == want.read()

    def test_train_recovers_rank_one(self, tmp_path):
        full = rank_one_matrix(M=80, N=5, noise=0.02, seed=3)
        train_path = write_matrix(tmp_path, full, "train.csv")
        vals = full.values.copy()
        hidden = vals[5, 4]
        vals[5, 4] = np.nan
        mask = full.mask.copy()
        mask[5, 4] = False
        from benchsel.score_matrix import ScoreMatrix
        holed = ScoreMatrix(vals, mask, full.model_names, full.benchmark_names)
        input_path = write_matrix(tmp_path, holed, "holed.csv")
        out = str(tmp_path / "out")
        sel = ",".join(full.benchmark_names[:3])
        assert main(["impute", input_path, "--train", train_path,
                     "--selected", sel, "--out", out]) == 0
        completed = load_csv(open(os.path.join(out, "completed.csv")).read())
        got = completed.values[5, 4]
        assert got == pytest.approx(hidden, rel=0.15)
        import csv
        with open(os.path.join(out, "conditional_sd.csv")) as fh:
            rows = list(csv.reader(fh))
        filled = [(i, j) for i, row in enumerate(rows[1:])
                  for j, cell in enumerate(row[1:]) if cell]
        assert filled == [(5, 4)]  # only the imputed cell has an sd

    @pytest.mark.parametrize("logit", [[], ["--logit"]])
    def test_one_or_two_new_models(self, tmp_path, logit):
        # The input's columns need no two observed cells: one or two new
        # models, each reporting a benchmark or two, are filled as the
        # same rows of a larger input are.
        z = rank_one_matrix(M=60, N=5, noise=0.1, seed=7).values
        vals = 1 / (1 + np.exp(-z))
        train_path = write_matrix(tmp_path, make_matrix(vals[:40]), "train.csv")
        mask = np.random.default_rng(41).random((20, 5)) < 0.5
        mask[:2] = [[True, False, False, False, False],
                    [True, False, True, False, False]]
        mask[~mask.any(axis=1), 0] = True
        new = make_matrix(np.where(mask, vals[40:], np.nan), mask)
        tables = {}
        for rows in (20, 1, 2):
            path = write_matrix(tmp_path, make_matrix(
                new.values[:rows], new.mask[:rows]), f"new{rows}.csv")
            out = str(tmp_path / f"out{rows}")
            assert main(["impute", path, "--train", train_path, "--selected",
                         "b0,b2", *logit, "--out", out]) == 0
            tables[rows] = [read_table(os.path.join(out, name))
                            for name in ("completed.csv", "conditional_sd.csv")]
        for rows in (1, 2):
            for got, want in zip(tables[rows], tables[20]):
                assert np.isfinite(got[~new.mask[:rows]]).all()
                assert np.allclose(got, want[:rows], rtol=1e-12, atol=0,
                                   equal_nan=True)

    def test_logit_train(self, tmp_path):
        rng = np.random.default_rng(17)
        a = rng.uniform(0.2, 0.8, size=60)
        b = rng.uniform(0.5, 1.5, size=5)
        vals = np.clip(np.outer(a, b) / 2 + rng.normal(0, 0.02, (60, 5)),
                       0.01, 0.99)
        train_path = write_matrix(tmp_path, make_matrix(vals), "train.csv")
        mask = rng.random(vals.shape) >= 0.3
        mask[:, 0] = True
        holed = make_matrix(np.where(mask, vals, np.nan), mask)
        input_path = write_matrix(tmp_path, holed, "holed.csv")
        out = str(tmp_path / "out")
        assert main(["impute", input_path, "--train", train_path,
                     "--selected", "b0,b1", "--logit", "--out", out]) == 0
        completed = load_csv(open(os.path.join(out, "completed.csv")).read())
        assert completed.mask.all()
        assert np.array_equal(completed.values[mask], holed.values[mask])
        assert np.isfinite(completed.values[~mask]).all()
        # the logit map keeps predictions inside (0, training maximum)
        assert (completed.values[~mask] > 0).all()
        col_max = np.broadcast_to(vals.max(axis=0), vals.shape)
        assert (completed.values[~mask] < col_max[~mask]).all()

    def test_quoted_model_names(self, tmp_path):
        # Names the csv module must quote, or that hold the text "nan",
        # come out as csv.writer alone would write them and read back.
        full = rank_one_matrix(M=40, N=5, noise=0.1, seed=4)
        train = write_matrix(tmp_path, full, "train.csv")
        names = ["a,b", 'say "hi"', "nan-model", " lead", "plain"]
        rng = np.random.default_rng(5)
        test = tmp_path / "test.csv"
        with open(test, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC)
            writer.writerow(["model", *full.benchmark_names])
            for name, row in zip(names, full.values[:5].tolist()):
                row = [v if rng.random() < 0.6 else "" for v in row]
                writer.writerow([name, *row])
        assert '"a,b"' in test.read_text()
        argv = ["impute", str(test), "--train", train, "--selected", "b0"]
        written = {}

        def reference(sink, header, rows):
            written[os.path.basename(sink)] = rows = [list(r) for r in rows]
            reference_write_table(sink, header, rows)

        out, ref = str(tmp_path / "out"), str(tmp_path / "ref")
        assert main([*argv, "--out", out]) == 0
        with mock.patch("benchsel.cli.write_table", reference):
            assert main([*argv, "--out", ref]) == 0
        got, want = read_all(out), read_all(ref)
        for name in ("completed.csv", "conditional_sd.csv"):
            assert got[name] == want[name]
        back = load_csv(os.path.join(out, "completed.csv"))
        rows = written["completed.csv"]
        assert back.model_names == ("a,b", 'say "hi"', "nan-model", "lead",
                                    "plain")
        assert [[name] for name in back.model_names] == [r[:1] for r in rows]
        assert (back.values.tobytes()
                == np.array([r[1:] for r in rows]).tobytes())

    def test_model_imputes_in_raw_score_space(self, tmp_path):
        # a bare model JSON conditions on raw scores, untransformed
        full = rank_one_matrix(M=40, N=4, noise=0.1, seed=3)
        model = estimate_full(full)
        model_path = tmp_path / "model.json"
        model_path.write_text(model.to_json())
        holed, _, _ = mcar_matrix(20, 4, 0.3, seed=4)
        out = str(tmp_path / "out")
        assert main(["impute", write_matrix(tmp_path, holed), "--model",
                     str(model_path), "--selected", "b0,b2",
                     "--out", out]) == 0
        pred, cvar = impute_rows(holed.values, [0, 2], model)
        completed = load_csv(os.path.join(out, "completed.csv"))
        assert np.array_equal(completed.values,
                              np.where(holed.mask, holed.values, pred))
        with open(os.path.join(out, "conditional_sd.csv")) as fh:
            sd = np.array([[float(c) if c else np.nan for c in
                            line.split(",")[1:]]
                           for line in fh.read().splitlines()[1:]])
        assert np.array_equal(sd, np.where(holed.mask, np.nan, np.sqrt(cvar)),
                              equal_nan=True)

    def test_indefinite_model_exit_code(self, tmp_path, capsys):
        # symmetric but indefinite: the conditioning block stays singular
        model_path = tmp_path / "model.json"
        model_path.write_text(GaussianModel(
            np.zeros(2), [[1.0, 1.5], [1.5, 1.0]], "full").to_json())
        path = write_matrix(tmp_path, make_matrix([[0.1, 0.2], [0.3, 0.1]]))
        assert main(["impute", path, "--model", str(model_path),
                     "--selected", "b0,b1", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("numerical error: ")

    def test_model_mean_not_1d_exit_code(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(
            {"mean": [[0.0, 1.0]], "cov": [1, 0, 0, 1], "estimator": "full"}))
        path = write_matrix(tmp_path, make_matrix([[0.1, 0.2], [0.3, np.nan]]))
        out = tmp_path / "o"
        assert main(["impute", path, "--model", str(model_path),
                     "--selected", "b0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "data error: mean must be 1-D\n"
        assert not out.exists()

    def test_singular_conditioning_block_names_the_model(self, tmp_path,
                                                          capsys):
        # Row y observes both selected cells, and the indefinite model's
        # block on them does not factor even with the ridge; row x
        # observes one cell only, whose 1x1 block factors.
        model_path = tmp_path / "model.json"
        model_path.write_text(GaussianModel(
            np.zeros(2), [[1.0, 1.5], [1.5, 1.0]], "full").to_json())
        path = tmp_path / "in.csv"
        path.write_text("model,a,b\nx,0.1,\ny,0.3,0.2\n")
        out = tmp_path / "o"
        assert main(["impute", str(path), "--model", str(model_path),
                     "--selected", "a,b", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical error: conditioning block for row 'y' is "
                       "singular even with ridge"]
        assert not out.exists()

    def test_negative_conditional_variance_exit_code(self, tmp_path, capsys):
        # The conditioning block [1] factors, but the model is not PSD: b's
        # conditional variance is 0.5 - 0.99**2 / 1.01 = -0.47.
        model_path = tmp_path / "model.json"
        model_path.write_text(GaussianModel(
            np.zeros(2), [[1.0, 0.99], [0.99, 0.5]], "full").to_json())
        path = tmp_path / "in.csv"
        path.write_text("model,a,b\nx,0.1,0.2\ny,0.3,\nz,-0.4,\n")
        out = tmp_path / "o"
        assert main(["impute", str(path), "--model", str(model_path),
                     "--selected", "a", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error: ")
        assert "'b' for row 'y' is negative" in err[0]
        assert not out.exists()

    def test_rank_one_model_at_zero_ridge(self, tmp_path):
        # A PSD model of rank 1 conditions on one column exactly; its
        # conditional variances are zero up to rounding, some below it.
        v = np.array([0.1, 0.7, 0.3, 0.9])
        model = GaussianModel(np.zeros(4), np.outer(v, v), "full")
        model_path = tmp_path / "model.json"
        model_path.write_text(model.to_json())
        values = np.array([[0.2, np.nan, 0.5, 0.9], [np.nan] * 3 + [-0.45]])
        assert (impute_rows(values, [3], model, 0.0).cond_var < 0).any()
        out = str(tmp_path / "o")
        assert main(["impute", write_matrix(tmp_path, make_matrix(values)),
                     "--model", str(model_path), "--selected", "b3",
                     "--ridge", "0", "--out", out]) == 0
        sd = read_table(os.path.join(out, "conditional_sd.csv"))
        filled = np.isnan(values)
        assert np.isfinite(sd[filled]).all() and (sd[filled] >= 0).all()
        assert np.isnan(sd[~filled]).all()

    def test_mutual_exclusion(self, rank1_csv, tmp_path):
        assert main(["impute", rank1_csv, "--selected", "b0",
                     "--out", str(tmp_path / "o")]) == 1

    def test_unknown_selected_name(self, rank1_csv, tmp_path):
        code = main(["impute", rank1_csv, "--train", rank1_csv,
                     "--selected", "nope", "--out", str(tmp_path / "o")])
        assert code == 2


class TestCv:
    def test_rank_one_summary(self, tmp_path):
        path = write_matrix(tmp_path, rank_one_matrix(M=80, N=6,
                                                      noise=0.05, seed=4))
        out = str(tmp_path / "out")
        assert main(["cv", path, "--folds", "3", "--holdout", "0.2",
                     "--kmax", "2", "--methods", "entropy", "--seed", "5",
                     "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "cv_summary.json")))
        k1 = next(s for s in doc["summary"]
                  if s["method"] == "entropy" and s["k"] == 1)
        assert k1["mean"] >= 0.95

    def test_identity_entropy_vs_random(self, tmp_path):
        rng = np.random.default_rng(6)
        path = write_matrix(tmp_path, make_matrix(rng.normal(size=(600, 5))))
        out = str(tmp_path / "out")
        main(["cv", path, "--folds", "3", "--holdout", "0.2",
              "--kmax", "2", "--methods", "entropy,random", "--seed", "7",
              "--out", out])
        doc = json.load(open(os.path.join(out, "cv_summary.json")))
        means = {(s["method"], s["k"]): s["mean"] for s in doc["summary"]}
        for k in (1, 2):
            assert abs(means[("entropy", k)] - means[("random", k)]) <= 0.05

    def test_verbose_prints_each_summary_key(self, rank1_csv, tmp_path,
                                             capsys):
        out = str(tmp_path / "out")
        assert main(["cv", rank1_csv, "--folds", "3", "--holdout", "0.2",
                     "--kmax", "2", "--methods", "entropy", "--verbose",
                     "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "cv_summary.json")))
        assert capsys.readouterr().out.splitlines() == [
            f"('entropy', 0.2, {s['k']}): mean={s['mean']:.4f} "
            f"std={s['std']:.4f}" for s in doc["summary"]]

    def test_missing_r2_is_an_empty_cell(self, tmp_path):
        # at k = 6 of 6 columns no target cell is left, so R^2 is NaN
        path = write_matrix(tmp_path, rank_one_matrix(M=80, N=6,
                                                      noise=0.05, seed=5))
        out = str(tmp_path / "out")
        assert main(["cv", path, "--folds", "3", "--holdout", "0.2",
                     "--kmax", "6", "--methods", "entropy",
                     "--out", out]) == 0
        with open(os.path.join(out, "cv_cells.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        r2 = rows[0].index("r2")
        last = [row for row in rows[1:] if row[3] == "6"]
        assert len(last) == 3 and all(row[r2] == "" for row in last)
        assert all(row[r2] not in ("", "nan") for row in rows[1:]
                   if row[3] != "6")

    def test_default_holdout_fractions(self, rank1_csv, tmp_path):
        out = str(tmp_path / "out")
        assert main(["cv", rank1_csv, "--folds", "2", "--kmax", "1",
                     "--methods", "entropy", "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "cv_summary.json")))
        assert sorted({s["holdout_p"] for s in doc["summary"]}) == [
            0.1, 0.2, 0.5, 0.9]
        doc = json.load(open(os.path.join(out, "cv_manifest.json")))
        assert doc["config"]["holdout"] == [0.1, 0.2, 0.5, 0.9]

    @pytest.mark.parametrize("flags", [
        ["--holdout", "0.5", "--methods", "entropy,entropy"],
        ["--holdout", "0.5", "--holdout", "0.5", "--methods", "entropy"],
    ])
    def test_repeated_method_or_holdout_exits_2(self, rank1_csv, tmp_path,
                                               capsys, flags):
        # Each repeat used to score its folds twice and report n = 4 from
        # two folds.
        out = tmp_path / "out"
        assert main(["cv", rank1_csv, "--folds", "2", "--kmax", "2",
                     *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not (out / "cv_cells.csv").exists()

    def test_negative_seed_exits_2(self, rank1_csv, tmp_path, capsys):
        # SeedSequence rejects a negative seed with a ValueError, which
        # ended `cv` in a traceback and exit 1.
        out = tmp_path / "out"
        assert main(["cv", rank1_csv, "--folds", "2", "--kmax", "1",
                     "--methods", "entropy", "--seed", "-1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "data error: seed must be >= 0\n"
        assert not (out / "cv_cells.csv").exists()


class TestNormality:
    def test_gaussian_input(self, tmp_path):
        rng = np.random.default_rng(8)
        path = write_matrix(tmp_path, make_matrix(rng.normal(size=(120, 4))))
        out = str(tmp_path / "out")
        assert main(["normality", path, "--out", out]) == 0
        rows = open(os.path.join(out, "shapiro.csv")).read().splitlines()
        assert len(rows) == 5
        doc = json.load(open(os.path.join(out, "mardia.json")))
        assert doc["matrix"] == "raw"
        assert 0 <= doc["p_kurt"] <= 1

    def test_sparse_input_completed(self, tmp_path):
        full = rank_one_matrix(M=100, N=4, noise=0.1, seed=9)
        vals = full.values.copy()
        mask = full.mask.copy()
        rng = np.random.default_rng(10)
        holes = rng.random(vals.shape) < 0.1
        mask &= ~holes
        mask[mask.sum(axis=1) == 0, 0] = True
        for j in range(4):
            if mask[:, j].sum() < 2:
                mask[:2, j] = True
        vals[~mask] = np.nan
        from benchsel.score_matrix import ScoreMatrix
        path = write_matrix(
            tmp_path,
            ScoreMatrix(vals, mask, full.model_names, full.benchmark_names),
        )
        out = str(tmp_path / "out")
        assert main(["normality", path, "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "mardia.json")))
        assert doc["matrix"] == "completed-data"


    def test_bonferroni_and_no_correction(self, tmp_path):
        # alpha 0.5 over 4 columns: Bonferroni tests each p against 0.125
        rng = np.random.default_rng(8)
        path = write_matrix(tmp_path, make_matrix(rng.normal(size=(120, 4))))
        flags = {}
        for correction, cut in (("bonferroni", 0.125), ("none", 0.5)):
            out = str(tmp_path / correction)
            assert main(["normality", path, "--alpha", "0.5",
                         "--correction", correction, "--out", out]) == 0
            rows = [line.split(",") for line in
                    open(os.path.join(out, "shapiro.csv")).read().splitlines()]
            flags[correction] = [row[3] for row in rows[1:]]
            assert flags[correction] == [str(int(float(row[2]) <= cut))
                                         for row in rows[1:]]
        assert flags["bonferroni"] != flags["none"]

    @pytest.mark.parametrize("correction", ["bh", "bonferroni", "none"])
    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "nan"])
    def test_alpha_outside_the_unit_interval_rejected(
            self, tmp_path, capsys, correction, alpha):
        rng = np.random.default_rng(8)
        path = write_matrix(tmp_path, make_matrix(rng.normal(size=(30, 3))))
        out = str(tmp_path / "out")
        assert main(["normality", path, "--alpha", alpha, "--correction",
                     correction, "--out", out]) == 2
        assert capsys.readouterr().err == "data error: alpha must lie in (0, 1)\n"
        assert not os.path.exists(os.path.join(out, "shapiro.csv"))

    def test_singular_mardia_warns_on_one_line(self, tmp_path, capsys):
        # The last column is the sum of the first two; at this seed
        # np.linalg.inv raises and mardia falls back to the pseudo-inverse.
        vals = np.random.default_rng(2).standard_normal((30, 4))
        vals[:, 3] = vals[:, 0] + vals[:, 1]
        path = write_matrix(tmp_path, make_matrix(vals))
        out = str(tmp_path / "out")
        assert main(["normality", path, "--out", out]) == 0
        assert capsys.readouterr().err == (
            "warning: singular sample covariance; using pseudo-inverse\n")
        assert json.load(open(os.path.join(out, "mardia.json")))["matrix"] \
            == "raw"

    def test_failed_completion_warns(self, tmp_path, capsys):
        # A constant column fails the EM completion: Mardia is skipped with
        # a warning line, mardia.json is null and the command succeeds.
        full = rank_one_matrix(M=60, N=4, noise=0.1, seed=9)
        mask = np.random.default_rng(10).random(full.shape) > 0.1
        mask[:2] = True
        values = np.where(mask, full.values, np.nan)
        values[:, 1] = np.where(mask[:, 1], 0.5, np.nan)
        path = write_matrix(tmp_path, make_matrix(values, mask))
        out = str(tmp_path / "out")
        assert main(["normality", path, "--out", out]) == 0
        assert capsys.readouterr().err == (
            "warning: Mardia skipped: column 'b1' has zero observed "
            "variance\n")
        assert json.load(open(os.path.join(out, "mardia.json"))) is None

    @pytest.mark.parametrize("ridge", ["-0.5", "nan", "inf"])
    @pytest.mark.parametrize("missing", [0.0, 0.1])
    def test_bad_ridge_rejected(self, tmp_path, capsys, missing, ridge):
        # normality has no --ridge: its EM completion runs at impute_rows'
        # default, so any value is a usage error on either kind of input.
        full = rank_one_matrix(M=60, N=4, noise=0.1, seed=9)
        mask = np.random.default_rng(10).random(full.shape) >= missing
        mask[:2] = True
        path = write_matrix(tmp_path, make_matrix(
            np.where(mask, full.values, np.nan), mask))
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["normality", path, "--ridge", ridge, "--out", out])
        assert exc.value.code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error: ")]
        assert errors == [f"error: unrecognized arguments: --ridge {ridge}"]
        assert not os.path.exists(out)

    def test_overflowing_covariance_skips_mardia(self, tmp_path, capsys):
        X = _overflowing_draw()
        path = write_matrix(tmp_path, make_matrix(X))
        out = str(tmp_path / "out")
        assert main(["normality", path, "--out", out]) == 0
        assert capsys.readouterr().err == (
            "warning: Mardia skipped: the sample covariance overflows\n")
        assert json.load(open(os.path.join(out, "mardia.json"))) is None
        assert len(read_table(os.path.join(out, "shapiro.csv"))) == X.shape[1]

    def test_too_few_rows_for_mardia_warns(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        path = write_matrix(tmp_path, make_matrix(rng.normal(size=(3, 4))))
        out = str(tmp_path / "out")
        assert main(["normality", path, "--out", out]) == 0
        assert capsys.readouterr().err == (
            "warning: Mardia skipped: 3 rows do not exceed 4 columns\n")
        assert json.load(open(os.path.join(out, "mardia.json"))) is None


class TestDeterminism:
    def run_twice(self, argv_builder, tmp_path):
        a, b = str(tmp_path / "da"), str(tmp_path / "db")
        assert main(argv_builder(a)) == 0
        assert main(argv_builder(b)) == 0
        assert read_all(a) == read_all(b)

    def test_all_commands_byte_identical(self, tmp_path, rank1_csv):
        self.run_twice(lambda o: ["spectrum", rank1_csv, "--out", o], tmp_path)
        self.run_twice(
            lambda o: ["select", rank1_csv, "--k", "3", "--out", o], tmp_path
        )
        self.run_twice(
            lambda o: ["impute", rank1_csv, "--train", rank1_csv,
                       "--selected", "b0,b1", "--out", o],
            tmp_path,
        )
        self.run_twice(
            lambda o: ["cv", rank1_csv, "--folds", "3", "--holdout", "0.2",
                       "--kmax", "2", "--methods", "entropy,random",
                       "--seed", "3", "--out", o],
            tmp_path,
        )
        self.run_twice(
            lambda o: ["normality", rank1_csv, "--out", o], tmp_path
        )


# A decimal number in an output file, as the regex splits the text.
NUMBER = re.compile(r"(-?\d+\.?\d*(?:[eE][-+]?\d+)?)")


class TestThreadCount:
    def test_one_and_two_blas_threads_agree(self, tmp_path):
        # 100 complete rows of rank 10 in 300 columns: every fit has more
        # columns than rows, so the sample covariance is singular, and the
        # products and factors are large enough for OpenBLAS to split.
        # Each output matches between 1 and 2 threads, text between the
        # numbers exactly and every number within 1e-9 relative.
        rng = np.random.default_rng(0)
        path = write_matrix(tmp_path, make_matrix(
            rng.normal(size=(100, 10)) @ rng.normal(size=(10, 300))))
        outs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            for argv in (["select", path, "--objective", "mi", "--k", "40"],
                         ["cv", path, "--folds", "2", "--holdout", "0.2",
                          "--kmax", "15"]):
                out = str(tmp_path / threads / argv[0])
                subprocess.run([sys.executable, "-m", "benchsel.cli", *argv,
                                "--out", out], env=env, check=True)
                outs.setdefault(threads, {}).update(
                    {(argv[0], name): text.decode()
                     for name, text in read_all(out).items()})
        assert outs["1"].keys() == outs["2"].keys()
        for key, text in outs["1"].items():
            one, two = NUMBER.split(text), NUMBER.split(outs["2"][key])
            assert one[::2] == two[::2], key
            for a, b in zip(map(float, one[1::2]), map(float, two[1::2])):
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), key


# One valid call per subcommand, without --out.
VALID_ARGV = {
    "spectrum": lambda path: ["spectrum", path],
    "select": lambda path: ["select", path, "--k", "2"],
    "impute": lambda path: ["impute", path, "--train", path,
                            "--selected", "b0"],
    "cv": lambda path: ["cv", path, "--folds", "2", "--holdout", "0.2",
                        "--kmax", "1", "--methods", "entropy"],
    "normality": lambda path: ["normality", path],
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestManifest:
    def test_every_flag_is_recorded(self, rank1_csv, tmp_path):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(VALID_ARGV)
        for command, parser in sub.choices.items():
            out = str(tmp_path / command)
            assert main([*VALID_ARGV[command](rank1_csv), "--out", out]) == 0
            with open(os.path.join(out, f"{command}_manifest.json")) as fh:
                doc = json.load(fh)
            dests = {a.dest for a in parser._actions if a.option_strings}
            dests -= {"help", "out"}
            # --seed has its own top-level field
            missing = [d for d in dests if d not in doc["config"]
                       and not (d == "seed" and "seed" in doc)]
            assert missing == [], command

    def test_train_file_is_recorded_by_digest(self, tmp_path):
        inp = write_matrix(tmp_path, rank_one_matrix(M=40, N=4, seed=1),
                           "input.csv")
        docs = []
        for seed in (2, 3):
            train = write_matrix(tmp_path, rank_one_matrix(M=40, N=4,
                                                           seed=seed),
                                 f"train{seed}.csv")
            out = str(tmp_path / f"out{seed}")
            assert main(["impute", inp, "--train", train, "--selected", "b0",
                         "--out", out]) == 0
            doc = json.load(open(os.path.join(out, "impute_manifest.json")))
            assert doc["config"]["train"] == sha256(train)
            assert doc["config"]["model"] is None
            docs.append(doc)
        assert docs[0] != docs[1]

    def test_costs_file_is_recorded_by_digest(self, rank1_csv, tmp_path):
        docs = []
        for name, costs in (("c1", "1,1,1,1,1,1"), ("c2", "1,2,1,2,1,2")):
            path = tmp_path / f"{name}.csv"
            path.write_text("benchmark,cost\n" + "".join(
                f"b{j},{c}\n" for j, c in enumerate(costs.split(","))))
            out = str(tmp_path / name)
            assert main(["select", rank1_csv, "--objective", "budgeted",
                         "--costs", str(path), "--budget", "3",
                         "--out", out]) == 0
            doc = json.load(open(os.path.join(out, "select_manifest.json")))
            assert doc["config"]["costs"] == sha256(path)
            docs.append(doc)
        assert docs[0] != docs[1]


    def test_selected_file_is_recorded_by_digest(self, rank1_csv, tmp_path):
        # one path, rewritten between the runs
        path = tmp_path / "selected.txt"
        docs = []
        for names in ("b0\n", "b3\nb4\n"):
            path.write_text(names)
            out = str(tmp_path / f"out{len(docs)}")
            assert main(["impute", rank1_csv, "--train", rank1_csv,
                         "--selected", f"@{path}", "--out", out]) == 0
            doc = json.load(open(os.path.join(out, "impute_manifest.json")))
            assert doc["config"]["selected"] == sha256(path)
            docs.append(doc)
        assert docs[0] != docs[1]


class TestBadFiles:
    """A bad input file ends in exit code 2 and one `data error:` line."""

    def run(self, argv, tmp_path, capsys, message=None):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        if message is not None:
            assert err == f"data error: {message}\n"

    @staticmethod
    def argv(flag, bad, good):
        """A call that is valid but for `bad` given as `flag`."""
        return {"input": ["impute", bad, "--train", good, "--selected", "b0"],
                "--train": ["impute", good, "--train", bad,
                            "--selected", "b0"],
                "--model": ["impute", good, "--model", bad,
                            "--selected", "b0"],
                "--selected": ["impute", good, "--train", good,
                               "--selected", "@" + bad],
                "--costs": ["select", good, "--objective", "budgeted",
                            "--costs", bad, "--budget", "3"]}[flag]

    @pytest.mark.parametrize("flag", ["input", "--train", "--model",
                                      "--selected"])
    def test_missing_file(self, flag, rank1_csv, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        self.run(self.argv(flag, missing, rank1_csv), tmp_path, capsys)

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    @pytest.mark.parametrize("flag", ["input", "--train", "--model",
                                      "--selected", "--costs"])
    def test_unreadable_file(self, flag, kind, rank1_csv, tmp_path, capsys):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe" + b"model,b0\n" * 3)
        self.run(self.argv(flag, str(bad), rank1_csv), tmp_path, capsys)

    @pytest.mark.parametrize("body", [
        None,                                   # no costs file
        "",                                     # empty file
        "benchmark,cost\nb0,abc\n",             # unparsable cost
        "benchmark,cost\nb0\n",                 # one-cell row
        "benchmark,cost\nb0,1\nb0,2\n",         # duplicate benchmark
        "benchmark,cost\nb0,inf\n",             # non-finite cost
        "benchmark,cost\nb0,1_000\n",           # not a decimal number
        # over the csv module's field size limit, 131,072 characters
        "benchmark,cost\nb0," + "1" * 140_000 + "\n",
    ], ids=["no-file", "empty", "abc", "one-cell", "duplicate", "inf",
            "underscore", "over-field-limit"])
    def test_bad_costs(self, body, rank1_csv, tmp_path, capsys):
        path = tmp_path / "costs.csv"
        if body:
            # every other benchmark gets a valid cost
            body += "".join(f"b{j},1\n" for j in range(1, 6))
        if body is not None:
            path.write_text(body)
        self.run(["select", rank1_csv, "--objective", "budgeted",
                  "--costs", str(path), "--budget", "3"], tmp_path, capsys)

    @pytest.mark.parametrize("head,row,message", [
        ("benchmark,cost,note", "b0,1,2", "header must be '<label>,cost'"),
        ("benchmark,cost", "b0,1,x", "line 2: expected 2 cells, got 3"),
        ("benchmark,price", "b0,1", "header must be '<label>,cost'"),
        ("benchmark,cost", "b0,abc",
         "line 2, column 'cost': cannot parse 'abc' as a number"),
        ("benchmark,cost", "b0,inf",
         "line 2, column 'cost': non-finite value 'inf' is not a valid score"),
        ("benchmark,cost", "b0,", "row 'b0' has no observed entries"),
        ("benchmark,cost", "b1,1", "duplicate benchmark 'b1'"),
        ("benchmark,cost", "b0," + "1" * 140_000,
         "field larger than field limit (131072)"),
    ], ids=["third-column", "third-cell", "not-cost", "abc", "inf", "empty",
            "duplicate", "over-field-limit"])
    def test_costs_errors_name_the_costs_file(self, head, row, message,
                                              rank1_csv, tmp_path, capsys):
        # The costs file is read by load_csv; each fault it finds is
        # reported after a "costs CSV: " prefix.
        width = head.count(",") + 1
        rows = [row] + [",".join([f"b{j}"] + ["1"] * (width - 1))
                        for j in range(1, 6)]
        path = tmp_path / "costs.csv"
        path.write_text("\n".join([head, *rows]) + "\n")
        self.run(["select", rank1_csv, "--objective", "budgeted",
                  "--costs", str(path), "--budget", "3"], tmp_path, capsys,
                 f"costs CSV: {message}")

    @pytest.mark.parametrize("observed", [0, 1])
    @pytest.mark.parametrize("argv", [
        ["spectrum"], ["select", "--k", "1"], ["select", "--k", "1", "--logit"],
        ["cv", "--folds", "2"], ["normality"], ["impute", "--selected", "b0"],
    ], ids=["spectrum", "select", "select-logit", "cv", "normality", "impute"])
    def test_underobserved_training_column(self, argv, observed, rank1_csv,
                                           tmp_path, capsys):
        # The file a command fits needs two observed cells per column.
        vals = np.abs(rank_one_matrix(M=30, N=6, seed=2).values)
        vals[observed:, 1] = np.nan
        bad = write_matrix(tmp_path, make_matrix(vals), "bad.csv")
        argv = ([*argv, rank1_csv, "--train", bad] if argv[0] == "impute"
                else [*argv, bad])
        self.run(argv, tmp_path, capsys,
                 "column 'b1' has fewer than 2 observed entries")

    @pytest.mark.parametrize("body,message", [
        ("benchmark,cost\nzz,1\n" + "".join(f"b{j},1\n" for j in range(6)),
         "unknown benchmark 'zz' in costs CSV"),
        ("benchmark,cost\n" + "".join(f"b{j},1\n" for j in range(5)),
         "costs CSV missing benchmarks: ['b5']"),
    ], ids=["unknown", "missing"])
    def test_costs_name_mismatch(self, body, message, rank1_csv, tmp_path,
                                 capsys):
        path = tmp_path / "costs.csv"
        path.write_text(body)
        self.run(["select", rank1_csv, "--objective", "budgeted",
                  "--costs", str(path), "--budget", "3"], tmp_path, capsys,
                 message)

    def test_train_header_mismatch(self, rank1_csv, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text(open(rank1_csv).read().replace("b5", "bz", 1))
        self.run(["impute", rank1_csv, "--train", str(train),
                  "--selected", "b0"], tmp_path, capsys,
                 "training CSV benchmarks do not match input")

    def test_model_width_mismatch(self, rank1_csv, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(GaussianModel(np.zeros(5), np.eye(5), "full")
                        .to_json())
        self.run(["impute", rank1_csv, "--model", str(path),
                  "--selected", "b0"], tmp_path, capsys,
                 "model dimension does not match input width")

    def test_model_without_benchmarks(self, rank1_csv, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"mean": [], "cov": [], "estimator": "em"}')
        self.run(["impute", rank1_csv, "--model", str(path),
                  "--selected", "b0"], tmp_path, capsys,
                 "model has no benchmarks")

    def test_more_folds_than_models(self, tmp_path, capsys):
        path = write_matrix(tmp_path, rank_one_matrix(M=5, N=3))
        self.run(["cv", path, "--folds", "6", "--holdout", "0.2"], tmp_path,
                 capsys, "not enough models for the requested fold count")

    # Each holds one cell longer than the csv module's field size limit,
    # 131,072 characters.
    @pytest.mark.parametrize("body", [
        'model,"' + "x" * 140_000 + '",b1\nm0,1,2\nm1,3,4\nm2,5,1\n',
        "model,b0,b1\nm0," + "1" * 140_000 + ",2\nm1,3,4\nm2,5,1\n",
    ], ids=["quoted-name", "long-number"])
    def test_cell_over_the_field_limit(self, body, tmp_path, capsys):
        path = tmp_path / "input.csv"
        path.write_text(body)
        self.run(["select", str(path), "--k", "1"], tmp_path, capsys,
                 "field larger than field limit (131072)")

    def test_model_without_cov(self, rank1_csv, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"mean": [0.0] * 6, "estimator": "full"}))
        self.run(["impute", rank1_csv, "--model", str(path),
                  "--selected", "b0"], tmp_path, capsys)

    @pytest.mark.parametrize("field,index,bad", [("cov", 7, "NaN"),
                                                 ("mean", 2, "Infinity")])
    def test_non_finite_model(self, field, index, bad, rank1_csv, tmp_path,
                              capsys):
        # Python's json reads NaN and Infinity; a NaN variance used to
        # write an empty sd cell, an infinite mean an `inf` score.
        doc = json.loads(estimate_full(load_csv(rank1_csv)).to_json())
        doc[field][index] = float(bad)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert bad in path.read_text()
        self.run(["impute", rank1_csv, "--model", str(path),
                  "--selected", "b0"], tmp_path, capsys)


class TestEntryPoint:
    def test_usage_error_exit_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "benchsel.cli", "bogus-command"],
            capture_output=True,
        )
        assert proc.returncode == 1

    def test_import_leaves_scipy_stats_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, benchsel.cli; "
             "print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == "False\n"

    def test_import_leaves_scipy_linalg_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, benchsel.cli; "
             "print('scipy.linalg' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == "False\n"

    def test_fresh_select_mi_matches_in_process(self, tmp_path, capsys):
        # The first Cholesky of a process loads LAPACK; its outputs are
        # those of a process that had it loaded already.
        path = write_matrix(tmp_path, rank_one_matrix(M=60, N=8, noise=0.1,
                                                      seed=9))
        argv = ["select", path, "--objective", "mi", "--k", "4"]
        fresh, warm = str(tmp_path / "fresh"), str(tmp_path / "warm")
        proc = subprocess.run([sys.executable, "-m", "benchsel.cli", *argv,
                               "--out", fresh],
                              capture_output=True, text=True, check=True)
        assert main([*argv, "--out", warm]) == 0
        assert capsys.readouterr().out == proc.stdout
        assert read_all(fresh) == read_all(warm)

    def test_fresh_normality_matches_in_process(self, tmp_path):
        # The first normality call of a process imports scipy.stats; its
        # outputs are those of a process that had it loaded already.
        full = rank_one_matrix(M=60, N=4, noise=0.1, seed=9)
        mask = np.random.default_rng(10).random(full.shape) > 0.1
        mask[:2] = True
        path = write_matrix(tmp_path, make_matrix(
            np.where(mask, full.values, np.nan), mask))
        fresh, warm = str(tmp_path / "fresh"), str(tmp_path / "warm")
        subprocess.run([sys.executable, "-m", "benchsel.cli", "normality",
                        path, "--out", fresh], check=True)
        assert main(["normality", path, "--out", warm]) == 0
        assert read_all(fresh) == read_all(warm)

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "benchsel.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for cmd in ("spectrum", "select", "impute", "cv", "normality"):
            assert cmd in proc.stdout


def _overflowing_draw():
    """A complete 12 x 3 draw with entries up to 2.4e280, whose normality
    run once ended in pinv's LinAlgError."""
    rng = np.random.default_rng(2)
    M, N = rng.integers(5, 14), rng.integers(2, 6)
    X = (rng.normal(size=(M, 1)) @ rng.normal(size=(1, N))
         + rng.normal(scale=10.0 ** rng.integers(-12, 1), size=(M, N)))
    return X * 10.0 ** rng.integers(-300, 300)


@st.composite
def fuzz_matrices(draw):
    """Small leaderboards: a rank-one signal plus noise at 1e-12 to 1 of
    its scale, scaled by 10^-300 to 10^300, maybe nonnegative, maybe with
    a constant, duplicated or near-collinear column, 0-80% holes, and at
    least one observed cell per row."""
    M, N = draw(st.integers(2, 13)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(M, 1)) @ rng.normal(size=(1, N))
    X += rng.normal(scale=10.0 ** draw(st.integers(-12, 0)), size=(M, N))
    X *= 10.0 ** draw(st.integers(-300, 300))
    if draw(st.booleans()):
        X = np.abs(X)
    column = draw(st.sampled_from(["", "constant", "duplicate", "collinear"]))
    if column == "constant":
        X[:, -1] = X[0, -1]
    elif column == "duplicate":
        X[:, -1] = X[:, 0]
    elif column == "collinear":
        X[:, -1] = X[:, 0] * (1 + 1e-9)
    holes = rng.random((M, N)) < draw(st.sampled_from([0.0, 0.2, 0.5, 0.8]))
    holes[np.arange(M), rng.integers(N, size=M)] = False
    return np.where(holes, np.nan, X)


@pytest.mark.fresh_draws
class TestEveryInputExits:
    """Every command ends in an exit code on any leaderboard the CSV
    schema admits: 0, 2 for bad data, 3 for a numerical failure, and 1
    only for a usage error; never in an exception."""

    COMMANDS = [
        ["spectrum"],
        ["select", "--k", "2"],
        ["select", "--objective", "mi", "--k", "2"],
        ["select", "--k", "2", "--logit"],
        ["select", "--objective", "budgeted", "--costs", "{costs}",
         "--budget", "2"],
        ["impute", "--train", "{input}", "--selected", "b0"],
        ["impute", "--train", "{input}", "--selected", "b0", "--logit"],
        ["cv", "--folds", "2", "--kmax", "2", "--holdout", "0.5"],
        ["cv", "--folds", "2", "--kmax", "2", "--holdout", "0.5", "--logit"],
        ["normality"],
    ]

    @settings(max_examples=40, deadline=None)
    @given(fuzz_matrices())
    @example(_overflowing_draw())
    def test_exit_code(self, X):
        m = make_matrix(X)
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"input": write_matrix(Path(tmp), m),
                     "costs": os.path.join(tmp, "costs.csv")}
            with open(paths["costs"], "w", encoding="utf-8") as fh:
                fh.write("benchmark,cost\n" + "".join(
                    f"{name},1\n" for name in m.benchmark_names))
            for command in self.COMMANDS:
                argv = [command[0], paths["input"], "--out",
                        os.path.join(tmp, "out"),
                        *(a.format(**paths) for a in command[1:])]
                err = io.StringIO()
                # numpy's overflow warnings reach a user as stderr lines.
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()), \
                        warnings.catch_warnings(record=True):
                    warnings.simplefilter("always")
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse's usage errors
                        code = exc.code
                assert code in (0, 1, 2, 3), argv
                assert code != 1 or "error: " in err.getvalue(), argv
