import dataclasses
import math
import os

import numpy as np
import pytest

from benchsel import evaluation
from benchsel.cli import main
from benchsel.covariance import EmConfig, em_fit, estimate_full
from benchsel.errors import DataError, NumericalError
from benchsel.evaluation import (
    CvCell,
    CvConfig,
    _balanced_folds,
    run_cv,
    training_size,
)
from benchsel.imputation import clip_standardized, impute_row, r2_standardized
from benchsel.score_matrix import (
    ScoreMatrix,
    column_stats,
    logit_params,
    logit_transform,
    standardize,
    write_csv,
)
from benchsel.selection import (
    entropy_value,
    greedy_entropy,
    greedy_mi,
    mi_value,
    residual_trace,
)

from conftest import independent_matrix, make_matrix, mcar_matrix, rank_one_matrix


class TestConfig:
    def test_defaults(self):
        cfg = CvConfig()
        assert cfg.folds == 10
        assert cfg.holdout_fractions == (0.1, 0.2, 0.5, 0.9)
        assert cfg.k_max == 15

    def test_validation(self):
        with pytest.raises(DataError):
            CvConfig(folds=1)
        with pytest.raises(DataError):
            CvConfig(k_max=0)
        with pytest.raises(DataError):
            CvConfig(holdout_fractions=(0.0,))
        with pytest.raises(DataError):
            CvConfig(methods=("bogus",))

    def test_repeats_rejected(self):
        with pytest.raises(DataError, match="method"):
            CvConfig(methods=("entropy", "mi", "entropy"))
        with pytest.raises(DataError, match="fraction"):
            CvConfig(holdout_fractions=(0.5, 0.2, 0.5))


class TestFoldMechanics:
    def test_fold_sizes_118_models(self):
        rng = np.random.default_rng(0)
        folds = _balanced_folds(118, 10, rng)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [11, 11] + [12] * 8

    def test_fold_balance_property(self):
        rng = np.random.default_rng(1)
        for M in (23, 50, 101):
            folds = _balanced_folds(M, 10, rng)
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1
            assert sorted(np.concatenate(folds)) == list(range(M))

    def test_training_size_rounding(self):
        # round-half-to-even at the .5 boundary
        assert training_size(0.5, 9, 100) == 4  # 4.5 -> 4
        assert training_size(0.5, 11, 100) == 6  # 5.5 -> 6
        assert training_size(0.9, 100, 90) == 10

    def test_p_small_uses_full_pool(self):
        # at p=0.1 with 10 folds the requested size hits the pool cap
        assert training_size(0.1, 100, 90) == 90


@pytest.fixture(scope="module")
def small_cfg():
    return CvConfig(
        folds=3,
        holdout_fractions=(0.2,),
        k_max=3,
        methods=("entropy", "mi", "random"),
        seed=7,
    )


@pytest.fixture(scope="module")
def rank1_report(small_cfg):
    matrix = rank_one_matrix(M=120, N=8, noise=0.05, seed=0)
    return run_cv(matrix, small_cfg)


class TestRunCv:
    def test_rank_one_high_r2_at_k1(self, rank1_report, small_cfg):
        for method in ("entropy", "mi"):
            s = rank1_report.summary[(method, 0.2, 1)]
            assert s["mean"] >= 0.99

    def test_cell_coverage(self, rank1_report, small_cfg):
        keys = {(c.method, c.holdout_p, c.fold, c.k) for c in rank1_report.cells}
        assert len(keys) == len(rank1_report.cells)
        assert len(keys) == 3 * 1 * 3 * 3  # methods x p x folds x k

    def test_summary_recomputable(self, rank1_report):
        for (method, p, k), s in rank1_report.summary.items():
            vals = [
                c.r2
                for c in rank1_report.cells
                if c.method == method and c.holdout_p == p and c.k == k
                and np.isfinite(c.r2)
            ]
            assert s["mean"] == pytest.approx(np.mean(vals), abs=1e-12)
            if len(vals) > 1:
                assert s["std"] == pytest.approx(np.std(vals, ddof=1), abs=1e-12)

    def test_determinism(self, small_cfg):
        matrix = rank_one_matrix(M=60, N=6, noise=0.05, seed=2)
        a = run_cv(matrix, small_cfg)
        b = run_cv(matrix, small_cfg)
        assert a.cells == b.cells
        assert a.selection_orders == b.selection_orders

    def test_independent_columns_r2_near_zero(self):
        matrix = independent_matrix(M=2000, N=6, seed=0)
        cfg = CvConfig(folds=3, holdout_fractions=(0.2,), k_max=5,
                       methods=("entropy",), seed=3)
        report = run_cv(matrix, cfg)
        for k in range(1, 6):
            assert abs(report.summary[("entropy", 0.2, k)]["mean"]) <= 0.05

    def test_no_leakage_from_validation_rows(self):
        matrix = rank_one_matrix(M=60, N=6, noise=0.05, seed=4)
        cfg = CvConfig(folds=3, holdout_fractions=(0.2,), k_max=2,
                       methods=("entropy",), seed=5)
        base = run_cv(matrix, cfg)
        # perturb one row and rerun; folds containing it as validation
        # must keep the same selection order
        rng = np.random.default_rng(0)
        perm = rng.permutation(60)
        folds = np.array_split(perm, 3)
        # find which fold row 0 lands in under the cv seed
        fold_rng = np.random.default_rng(np.random.SeedSequence([5, 0]))
        folds = np.array_split(fold_rng.permutation(60), 3)
        target_fold = next(i for i, f in enumerate(folds) if 0 in f)
        vals = matrix.values.copy()
        vals[0, :] += 37.0
        perturbed = ScoreMatrix(vals, matrix.mask.copy(),
                                matrix.model_names, matrix.benchmark_names)
        other = run_cv(perturbed, cfg)
        key = ("entropy", 0.2, target_fold)
        assert base.selection_orders[key] == other.selection_orders[key]

    def test_random_method_seeded(self):
        matrix = rank_one_matrix(M=60, N=6, noise=0.1, seed=6)
        cfg = CvConfig(folds=3, holdout_fractions=(0.5,), k_max=2,
                       methods=("random",), seed=11)
        a = run_cv(matrix, cfg)
        b = run_cv(matrix, cfg)
        assert a.selection_orders == b.selection_orders
        # different folds draw different permutations (overwhelmingly)
        orders = [a.selection_orders[("random", 0.5, f)] for f in range(3)]
        assert len(set(orders)) > 1

    def test_adding_method_does_not_perturb_others(self):
        matrix = rank_one_matrix(M=60, N=6, noise=0.1, seed=8)
        base = run_cv(matrix, CvConfig(folds=3, holdout_fractions=(0.2,),
                                       k_max=2, methods=("random",), seed=9))
        both = run_cv(matrix, CvConfig(folds=3, holdout_fractions=(0.2,),
                                       k_max=2, methods=("entropy", "random"),
                                       seed=9))
        for f in range(3):
            key = ("random", 0.2, f)
            assert base.selection_orders[key] == both.selection_orders[key]

    def test_logit_mode_runs(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(0.2, 0.8, size=80)
        b = rng.uniform(0.5, 1.5, size=5)
        vals = np.clip(np.outer(a, b) / 2 + rng.normal(0, 0.02, (80, 5)),
                       0.01, 0.99)
        matrix = make_matrix(vals)
        cfg = CvConfig(folds=3, holdout_fractions=(0.2,), k_max=2,
                       methods=("entropy",), seed=1, logit_mode=True)
        report = run_cv(matrix, cfg)
        assert report.summary[("entropy", 0.2, 1)]["mean"] > 0.5

    def test_em_path_with_missing_data(self):
        matrix = rank_one_matrix(M=80, N=6, noise=0.05, seed=10)
        vals = matrix.values.copy()
        mask = matrix.mask.copy()
        rng = np.random.default_rng(14)
        holes = rng.random(vals.shape) < 0.15
        holes[:, holes.sum(axis=0) > 70] = False
        mask &= ~holes
        vals[~mask] = np.nan
        sparse = ScoreMatrix(vals, mask, matrix.model_names,
                             matrix.benchmark_names)
        cfg = CvConfig(folds=3, holdout_fractions=(0.2,), k_max=3,
                       methods=("entropy",), seed=2)
        report = run_cv(sparse, cfg)
        # at k=1 many validation rows miss the single selected benchmark
        # and fall back to the marginal mean, so assert at k=3
        assert report.summary[("entropy", 0.2, 3)]["mean"] > 0.95

    def test_unconverged_folds_are_warned(self):
        matrix, _, _ = mcar_matrix(60, 5, 0.3, seed=24)
        cfg = CvConfig(folds=3, holdout_fractions=(0.2,), k_max=2,
                       methods=("entropy",), seed=4)
        unconverged = [
            f"p=0.2 fold={f}: EM did not converge in 1 iterations"
            for f in range(3)
        ]
        capped = run_cv(matrix, dataclasses.replace(cfg, em=EmConfig(max_iter=1)))
        assert [w for w in capped.warnings if "EM" in w] == unconverged
        assert not any("EM" in w for w in run_cv(matrix, cfg).warnings)

    def test_block_folds_at_p09_converge(self):
        # At p=0.9 a fold trains on 4 rows of 8 columns, drawn from four
        # leaderboard suites that each ran a fixed set of benchmarks.
        # Without a prior on Sigma that likelihood is unbounded, and three
        # of these five folds ended unconverged after 500 cycles.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3)) @ rng.normal(size=(3, 8)) \
            + 0.5 * rng.normal(size=(40, 8))
        suites = rng.random((4, 8)) < 0.6
        suites[0] = True
        mask = suites[rng.integers(0, 4, size=40)]
        mask[~mask.any(axis=1), 0] = True
        cfg = CvConfig(folds=5, holdout_fractions=(0.9,), k_max=2,
                       methods=("entropy",), seed=0)
        report = run_cv(make_matrix(np.where(mask, X, np.nan), mask), cfg)
        assert report.cells
        assert not any("EM did not converge" in w for w in report.warnings)

    def test_constant_column_is_excluded(self):
        # 7 training rows per fold; seven cells of 0.1 have a sample std
        # of 1.5e-17 (eight would round to an exact 0)
        vals = np.random.default_rng(5).normal(size=(14, 4))
        vals[:, 0] = 0.1
        cfg = CvConfig(folds=2, holdout_fractions=(0.5,), k_max=2,
                       methods=("entropy",), seed=0)
        assert training_size(0.5, 14, 7) == 7
        report = run_cv(make_matrix(vals), cfg)
        assert list(report.warnings) == [
            f"p=0.5 fold={f}: column 'b0' excluded (too few training "
            "observations or zero variance)" for f in range(2)]
        assert all("b0" not in order
                   for order in report.selection_orders.values())

    def test_empty_training_row_is_dropped(self):
        # Row 0 observes only the constant, excluded column b0, so the
        # training set of the fold whose pool holds it loses that row.
        vals = np.random.default_rng(6).normal(size=(12, 3))
        vals[:, 0] = 0.1
        vals[0, 1:] = np.nan
        cfg = CvConfig(folds=2, holdout_fractions=(0.1,), k_max=1,
                       methods=("entropy",))
        report = run_cv(make_matrix(vals), cfg)
        dropped = [w for w in report.warnings if "dropped" in w]
        assert len(dropped) == 1
        assert dropped[0].endswith(": dropped 1 empty training rows")
        assert {c.fold for c in report.cells} == {0, 1}

    def test_empty_training_set_skips_the_fold(self):
        # round((1 - 0.9) * 4) = 0 training rows
        report = run_cv(make_matrix(np.random.default_rng(0).normal(size=(4, 3))),
                        CvConfig(folds=2, holdout_fractions=(0.9,), k_max=1,
                                 methods=("entropy",)))
        assert report.cells == ()
        assert report.warnings[3::4] == tuple(
            f"p=0.9 fold={f}: fewer than 2 usable columns; fold skipped"
            for f in range(2))


def reference_fit_training_model(values, mask, em_cfg, names_rows,
                                 names_cols):
    """The fit `_run_fold` made before `fit_model` existed."""
    m = ScoreMatrix(values, mask, names_rows, names_cols)
    return estimate_full(m) if mask.all() else em_fit(m, em_cfg)


def reference_run_fold(m, cfg, p, pk, fold_idx, train_rows, val_rows,
                       warnings_out):
    """`_run_fold` with one `impute_row` call per validation row and scalar
    logit inversion and clipping per target cell."""
    tr_vals, tr_mask = m.values[train_rows], m.mask[train_rows]
    va_vals, va_mask = m.values[val_rows], m.mask[val_rows]
    active = [
        j for j in range(m.shape[1])
        if tr_mask[:, j].sum() >= 2 and tr_vals[tr_mask[:, j], j].std(ddof=1) > 0
    ]
    assert len(active) == m.shape[1], "fixture must keep every column"
    names = m.benchmark_names
    keep = tr_mask.any(axis=1)
    tr_vals, tr_mask = tr_vals[keep], tr_mask[keep]
    train_m = ScoreMatrix(tr_vals, tr_mask,
                          tuple(f"r{i}" for i in range(tr_vals.shape[0])),
                          names)
    raw_stats = column_stats(train_m)
    if cfg.logit_mode:
        lp = logit_params(train_m, 1e-3)  # cv's fixed logit epsilon
        work_train = logit_transform(train_m, lp)
        va_work = logit_transform(
            ScoreMatrix(va_vals, va_mask,
                        tuple(f"v{i}" for i in range(va_vals.shape[0])),
                        names),
            lp,
        ).values
        stats = column_stats(work_train)
    else:
        lp, work_train, va_work, stats = None, train_m, va_vals, raw_stats
    std_train = standardize(work_train, stats)
    model = reference_fit_training_model(
        std_train.values, std_train.mask, cfg.em,
        std_train.model_names, names,
    )
    Sigma = model.cov
    n_act = len(active)
    va_std = (va_work - stats.means) / stats.stds

    cells, orders = [], {}
    for method in cfg.methods:
        k_cap = min(cfg.k_max, n_act if method != "mi" else n_act - 1)
        if method == "entropy":
            order = list(greedy_entropy(Sigma, k_cap).order)
        elif method == "mi":
            order = list(greedy_mi(Sigma, k_cap).order)
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 2, pk, fold_idx])
            )
            order = [int(j) for j in rng.permutation(n_act)[:k_cap]]
        orders[(method, p, fold_idx)] = tuple(names[j] for j in order)
        total_var = float(np.trace(Sigma))
        for k in range(1, len(order) + 1):
            A = order[:k]
            preds, targets = [], []
            for i in range(va_vals.shape[0]):
                obs_cols = np.flatnonzero(va_mask[i])
                obs = {int(j): float(va_std[i, j]) for j in obs_cols}
                target_cols = [j for j in obs_cols if j not in A]
                if not target_cols:
                    continue
                res = impute_row(obs, A, model, ridge=cfg.ridge,
                                 targets=target_cols)
                for j in target_cols:
                    if cfg.logit_mode:
                        f = res.predicted[j] * stats.stds[j] + stats.means[j]
                        raw = (1.0 / (1.0 + math.exp(-f))) * lp.col_max[j]
                        pred_z = (raw - raw_stats.means[j]) / raw_stats.stds[j]
                        target_z = ((va_vals[i, j] - raw_stats.means[j])
                                    / raw_stats.stds[j])
                    else:
                        pred_z, target_z = res.predicted[j], va_std[i, j]
                    preds.append(pred_z)
                    targets.append(clip_standardized(target_z))
            r2 = r2_standardized(preds, targets) if targets else math.nan
            try:
                ent = entropy_value(Sigma, A)
            except NumericalError:
                ent = math.nan
            rfrac = residual_trace(Sigma, A) / total_var
            cells.append(CvCell(method, p, fold_idx, k, r2, float(rfrac),
                                float(ent), float(mi_value(Sigma, A))))
    return cells, orders


class TestBatchedFold:
    @pytest.mark.parametrize("logit_mode", [True, False])
    def test_matches_per_row_reference(self, monkeypatch, logit_mode):
        # Scores in (0, 1) for the logit map, with MCAR holes in every
        # column, so validation rows condition on different subsets.
        rng = np.random.default_rng(21)
        a = rng.uniform(0.2, 0.8, size=90)
        b = rng.uniform(0.5, 1.5, size=6)
        vals = np.clip(np.outer(a, b) / 2 + rng.normal(0, 0.05, (90, 6)),
                       0.01, 0.99)
        mask = rng.random(vals.shape) >= 0.25
        mask[~mask.any(axis=1), 0] = True
        matrix = make_matrix(np.where(mask, vals, np.nan), mask)
        cfg = CvConfig(folds=3, holdout_fractions=(0.2,), k_max=4,
                       methods=("entropy", "mi", "random"), seed=3,
                       logit_mode=logit_mode)
        got = run_cv(matrix, cfg)
        monkeypatch.setattr(evaluation, "_run_fold", reference_run_fold)
        want = run_cv(matrix, cfg)
        assert len(got.cells) == len(want.cells) == 3 * (4 + 4 + 4)
        assert got.selection_orders == want.selection_orders
        for g, w in zip(got.cells, want.cells):
            assert (g.method, g.holdout_p, g.fold, g.k) == \
                (w.method, w.holdout_p, w.fold, w.k)
            assert np.isfinite(w.r2)
            assert abs(g.r2 - w.r2) <= 1e-12
            # The path metrics come from one downdate per prefix, the
            # reference from fresh factorizations: equal up to rounding.
            for a, b in ((g.residual_fraction, w.residual_fraction),
                         (g.entropy, w.entropy), (g.mi, w.mi)):
                assert abs(a - b) <= 1e-12


class TestPrefixR2:
    def test_matches_r2_standardized(self):
        # Column 2's observed targets are all zero, so the k = 3 prefix,
        # which leaves only column 2, has a zero denominator and a nonzero
        # SSE; k = 4 leaves no target at all.  Both are NaN.
        rng = np.random.default_rng(8)
        va_z = rng.normal(size=(5, 4))
        va_z[:, 2] = 0.0
        va_z[[1, 3], 1] = va_z[0, 3] = np.nan
        order = [3, 1, 0, 2]
        pred = rng.normal(size=(4, 5, 4))
        got = evaluation._prefix_r2(pred, order, va_z)
        for k in (1, 2, 3, 4):
            tmask = ~np.isnan(va_z)
            tmask[:, order[:k]] = False
            want = (r2_standardized(pred[k - 1][tmask], va_z[tmask])
                    if tmask.any() else math.nan)
            assert got[k - 1] == pytest.approx(want, rel=1e-12, nan_ok=True)
        assert np.isfinite(got[:2]).all() and np.isnan(got[2:]).all()


class TestPathMetricsInCv:
    def test_mi_cells_are_the_cumulative_greedy_gains(self, monkeypatch):
        # Rank 3 in 30 columns: every fold's Sigma is singular.
        rng = np.random.default_rng(4)
        matrix = make_matrix(rng.normal(size=(24, 3)) @ rng.normal(size=(3, 30)))
        runs = []

        def recording_greedy_mi(*args):
            runs.append(greedy_mi(*args))
            return runs[-1]

        monkeypatch.setattr(evaluation, "greedy_mi", recording_greedy_mi)
        report = run_cv(matrix, CvConfig(folds=2, holdout_fractions=(0.5,),
                                         k_max=3, methods=("mi",), seed=4))
        assert len(runs) == 2
        for fold, r in enumerate(runs):
            cells = [c.mi for c in report.cells if c.fold == fold]
            assert cells == pytest.approx(np.cumsum(r.gains), rel=1e-12)


def sparse_validation_matrix():
    """30x4 scores in (0, 1); b3 is observed in one row of fold 0 (seed 0)
    and in every row of the other folds."""
    rng = np.random.default_rng(31)
    a = rng.uniform(0.2, 0.8, size=30)
    vals = np.clip(np.outer(a, rng.uniform(0.5, 1.5, size=4)) / 2
                   + rng.normal(0, 0.03, (30, 4)), 0.01, 0.99)
    fold0 = _balanced_folds(30, 3, np.random.default_rng(
        np.random.SeedSequence([0, 0])))[0]
    mask = np.ones(vals.shape, dtype=bool)
    mask[fold0[1:], 3] = False
    return make_matrix(np.where(mask, vals, np.nan), mask)


class TestLogitSparseValidation:
    # A validation fold that observes a benchmark once used to abort the
    # logit path: the fold's rows were wrapped in a ScoreMatrix, which
    # requires two observations per column.
    def test_run_cv(self):
        cfg = CvConfig(folds=3, holdout_fractions=(0.2,), k_max=2,
                       methods=("entropy",), seed=0, logit_mode=True)
        report = run_cv(sparse_validation_matrix(), cfg)
        assert len(report.cells) == 6
        assert all(np.isfinite(c.r2) for c in report.cells)

    def test_cli(self, tmp_path):
        path = str(tmp_path / "input.csv")
        write_csv(sparse_validation_matrix(), path)
        out = str(tmp_path / "out")
        assert main(["cv", path, "--folds", "3", "--holdout", "0.2",
                     "--kmax", "2", "--methods", "entropy", "--seed", "0",
                     "--logit", "--out", out]) == 0
        rows = open(os.path.join(out, "cv_cells.csv")).read().splitlines()[1:]
        assert len(rows) == 6
        assert all(math.isfinite(float(r.split(",")[4])) for r in rows)


class TestCsvExport:
    def test_tidy_round_trip(self):
        import csv
        import io

        matrix = rank_one_matrix(M=60, N=6, noise=0.05, seed=15)
        cfg = CvConfig(folds=3, holdout_fractions=(0.2,), k_max=2,
                       methods=("entropy",), seed=6)
        report = run_cv(matrix, cfg)
        buf = io.StringIO()
        report.to_csv(buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == len(report.cells)
        # repr round trip is exact
        assert float(rows[0]["r2"]) == report.cells[0].r2
