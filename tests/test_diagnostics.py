import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from benchsel import diagnostics
from benchsel.diagnostics import (
    SW_MAX_N,
    benjamini_hochberg,
    mardia,
    normality_report,
    shapiro_wilk,
)
from benchsel.errors import DataError

from conftest import make_matrix


class TestShapiroWilk:
    def test_normal_quantiles_high_w(self):
        n = 50
        x = stats.norm.ppf((np.arange(1, n + 1) - 0.375) / (n + 0.25))
        W, p = shapiro_wilk(x)
        assert W >= 0.995

    def test_bimodal_rejected(self):
        x = np.concatenate([-np.ones(25), np.ones(25)])
        # exact ties break the ordering assumption, jitter slightly
        x = x + np.linspace(-1e-6, 1e-6, 50)
        W, p = shapiro_wilk(x)
        assert W < 0.8
        assert p < 0.01

    def test_matches_scipy_reference(self):
        # the wrapper's contract: scipy's values, as Python floats, so
        # that repr writes plain numbers under numpy 2
        rng = np.random.default_rng(0)
        for n in (3, 5, 8, 12, 25, 60, 200, 1000, 5000):
            x = rng.normal(size=n)
            W, p = shapiro_wilk(x)
            ref = stats.shapiro(x)
            assert type(W) is float and type(p) is float
            assert (W, p) == (ref.statistic, ref.pvalue)

    def test_location_scale_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        W1, _ = shapiro_wilk(x)
        W2, _ = shapiro_wilk(3.7 * x + 11.0)
        assert W1 == pytest.approx(W2, abs=1e-10)

    def test_null_rejection_rate(self):
        rejections = 0
        for seed in range(1000):
            x = np.random.default_rng(seed).normal(size=100)
            _, p = shapiro_wilk(x)
            rejections += p < 0.05
        assert 0.03 <= rejections / 1000 <= 0.07

    def test_constant_rejected(self):
        with pytest.raises(DataError):
            shapiro_wilk(np.ones(10))

    def test_size_limits(self):
        with pytest.raises(DataError):
            shapiro_wilk(np.array([1.0, 2.0]))
        with pytest.raises(DataError):
            shapiro_wilk(np.random.default_rng(0).normal(size=5001))

    def test_nan_rejected(self):
        with pytest.raises(DataError, match="finite"):
            shapiro_wilk([1.0, 2.0, np.nan, 4.0, 5.0])

    def test_inf_rejected(self):
        with pytest.raises(DataError, match="finite"):
            shapiro_wilk([1.0, 2.0, np.inf, 4.0, 5.0])


class TestMardia:
    def test_gaussian_kurtosis_within_3_sigma(self):
        M, N = 5000, 3
        X = np.random.default_rng(2).normal(size=(M, N))
        out = mardia(X)
        null_mean = N * (N + 2)
        sigma = np.sqrt(8 * null_mean / M)
        assert abs(out["beta2"] - null_mean) <= 3 * sigma

    def test_univariate_reduces_to_moments(self):
        x = np.random.default_rng(3).normal(size=400)[:, None]
        out = mardia(x)
        c = x - x.mean()
        s2 = float(np.mean(c**2))  # MLE variance, matching the 1/M kernel
        skew = float(np.mean(c**3)) / s2**1.5
        kurt = float(np.mean(c**4)) / s2**2
        assert out["beta1"] == pytest.approx(skew**2, abs=1e-8)
        assert out["beta2"] == pytest.approx(kurt, abs=1e-8)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 4))
        A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=4)
        a_out = mardia(X)
        b_out = mardia(X @ A.T + b)
        assert a_out["beta1"] == pytest.approx(b_out["beta1"], abs=1e-8)
        assert a_out["beta2"] == pytest.approx(b_out["beta2"], abs=1e-8)

    def test_pvalues_in_range(self):
        X = np.random.default_rng(5).normal(size=(300, 3))
        out = mardia(X)
        assert 0 <= out["p_skew"] <= 1
        assert 0 <= out["p_kurt"] <= 1

    def test_near_singular_covariance_uses_pseudo_inverse(self):
        # The last column is the sum of the first two: cond(S) is about
        # 4e16 and inv returns without raising, but its beta2 was 13.76.
        X = np.random.default_rng(0).standard_normal((30, 4))
        X[:, 3] = X[:, 0] + X[:, 1]
        with pytest.warns(UserWarning, match="pseudo-inverse"):
            out = mardia(X)
        assert out["beta2"] == pytest.approx(mardia(X[:, :3])["beta2"],
                                             rel=1e-12)

    def test_m_le_n_rejected(self):
        with pytest.raises(DataError):
            mardia(np.random.default_rng(6).normal(size=(3, 3)))

    def test_no_columns_rejected(self):
        # LAPACK's dtrtri refuses an order-0 factor
        with pytest.raises(DataError, match="with a column"):
            mardia(np.zeros((5, 0)))

    def test_missing_rejected(self):
        X = np.random.default_rng(7).normal(size=(50, 3))
        X[0, 0] = np.nan
        with pytest.raises(DataError):
            mardia(X)

    def test_inf_rejected(self):
        X = np.random.default_rng(7).normal(size=(20, 3))
        X[4, 1] = np.inf
        with pytest.raises(DataError, match="finite"):
            mardia(X)


def reference_mardia(X, pinv):
    """b1, the same sum of |D^3|, and b2 from the whole M x M kernel
    D = Xc S^-1 Xc^T, with S^-1 by LU inversion or by the pseudo-inverse."""
    M = len(X)
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / M
    D = Xc @ (np.linalg.pinv(S) if pinv else np.linalg.inv(S)) @ Xc.T
    return (np.sum(D**3) / M**2, np.sum(np.abs(D) ** 3) / M**2,
            np.sum(np.diag(D) ** 2) / M)


@pytest.mark.fresh_draws
class TestMardiaKernel:
    """mardia's one factor of S and its blocks of rows against the whole
    kernel from S^-1: the same statistics up to rounding."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(2, 60), st.integers(1, 80),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_the_whole_kernel(self, N, extra, rows, singular, seed):
        # A block may take from one row of D to all of them.
        rng = np.random.default_rng(seed)
        M = 2 * N + extra
        X = (rng.exponential(size=(M, N)) * rng.uniform(0.1, 10.0, N)
             + rng.normal(scale=5.0, size=N))
        singular = singular and N >= 2
        if singular:  # a repeated column: S is singular
            X[:, -1] = X[:, 0]
        with mock.patch.object(diagnostics, "_BLOCK_CELLS", rows * M), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = mardia(X)
        assert [str(w.message) for w in caught] == \
            ["singular sample covariance; using pseudo-inverse"] * singular
        beta1, scale, beta2 = reference_mardia(X, pinv=singular)
        # b1's terms cancel: on four rows of one column it can be 1e-6 of
        # their size, so its rounding is relative to that size.
        assert abs(out["beta1"] - beta1) <= 1e-10 * scale
        assert out["beta2"] == pytest.approx(beta2, rel=1e-10)

    def test_memory_grows_with_the_rows_not_their_square(self):
        # The whole 8000 x 8000 kernel and its cube took about 1 GB.
        X = np.random.default_rng(15).standard_normal((8000, 4)) ** 3
        tracemalloc.start()
        try:
            mardia(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def reference_benjamini_hochberg(pvals, alpha):
    """The BH step-up rule: reject the ranks up to the largest i with
    p_(i) <= i * alpha / m."""
    pvals = np.asarray(pvals, dtype=float)
    m = pvals.size
    order = np.argsort(pvals, kind="stable")
    thresholds = (np.arange(1, m + 1) / m) * alpha
    passing = np.nonzero(pvals[order] <= thresholds)[0]
    rejected = np.zeros(m, dtype=bool)
    if passing.size:
        rejected[order[: passing[-1] + 1]] = True
    return rejected.tolist()


class TestBenjaminiHochberg:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), max_size=40),
           st.floats(0.001, 0.999))
    def test_matches_the_step_up_rule(self, pvals, alpha):
        # p * m / i <= alpha and p <= i * alpha / m round differently only
        # within a few ulps of the threshold
        m = len(pvals)
        ranked = np.sort(pvals)
        thresholds = np.arange(1, m + 1) / m * alpha
        assume(not np.any(np.abs(ranked - thresholds) <= 1e-12 * alpha))
        assert benjamini_hochberg(pvals, alpha) == \
            reference_benjamini_hochberg(pvals, alpha)

    @pytest.mark.parametrize("pvals,alpha", [
        ([0.5, -0.1], 0.05), ([1.5], 0.05), ([0.5, np.nan], 0.05),
        ([0.5], 0.0), ([0.5], 1.0), ([0.5], np.nan),
    ])
    def test_bad_input_rejected(self, pvals, alpha):
        with pytest.raises(DataError, match="must lie in"):
            benjamini_hochberg(pvals, alpha)

    def test_all_zero(self):
        assert benjamini_hochberg([0.0, 0.0, 0.0], 0.05) == [True] * 3

    def test_all_one(self):
        assert benjamini_hochberg([1.0, 1.0], 0.05) == [False, False]

    def test_hand_worked_example(self):
        # thresholds i*alpha/4: 0.0125, 0.025, 0.0375, 0.05;
        # largest i with p_(i) <= threshold is i=2
        rej = benjamini_hochberg([0.01, 0.02, 0.04, 0.9], 0.05)
        assert rej == [True, True, False, False]

    def test_order_mapping(self):
        rej = benjamini_hochberg([0.9, 0.01, 0.04, 0.02], 0.05)
        assert rej == [False, True, False, True]

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(8)
        p = rng.random(30)
        prior = None
        for alpha in (0.01, 0.05, 0.1, 0.3, 0.8):
            cur = benjamini_hochberg(p, alpha)
            if prior is not None:
                assert all(b or not a for a, b in zip(prior, cur))
            prior = cur


def column_loop_report(m):
    """normality_report's W, p and skipped columns, one column at a time:
    its observed cells, a seeded subsample of those past SW_MAX_N, and one
    shapiro_wilk call unless under 3 cells or constant."""
    sample = np.random.default_rng(0)
    expected, skipped = {}, []
    for j, name in enumerate(m.benchmark_names):
        col = m.values[m.mask[:, j], j]
        if col.size > SW_MAX_N:
            col = sample.choice(col, size=SW_MAX_N, replace=False)
        if col.size >= 3 and not np.all(col == col[0]):
            W, p = shapiro_wilk(col)
            expected[name] = {"W": W, "p": p}
        else:
            skipped.append(name)
    return expected, tuple(skipped)


class TestNormalityReport:
    def test_gaussian_columns(self):
        rng = np.random.default_rng(9)
        m = make_matrix(rng.normal(size=(200, 5)))
        rep = normality_report(m, alpha=0.05, correction="bh")
        assert set(rep.shapiro) == set(m.benchmark_names)
        for entry in rep.shapiro.values():
            assert 0 < entry["W"] <= 1
            assert 0 <= entry["p"] <= 1

    def test_nonnormal_column_flagged(self):
        rng = np.random.default_rng(10)
        vals = rng.normal(size=(300, 3))
        vals[:, 1] = rng.exponential(size=300) ** 2
        m = make_matrix(vals)
        rep = normality_report(m, alpha=0.05, correction="bh")
        assert rep.shapiro[m.benchmark_names[1]]["rejected"]

    def test_short_column_skipped(self):
        vals = np.full((6, 2), np.nan)
        vals[:, 0] = np.random.default_rng(11).normal(size=6)
        vals[:2, 1] = [0.3, 0.7]
        m = make_matrix(vals, mask=~np.isnan(vals))
        rep = normality_report(m)
        assert m.benchmark_names[1] in rep.skipped

    def test_subsampling_is_seeded(self):
        # 6000 cells exceed Shapiro-Wilk's 5000: the report tests a fixed
        # subsample, the same on every call
        rng = np.random.default_rng(12)
        m = make_matrix(rng.normal(size=(6000, 2)))
        a = normality_report(m)
        b = normality_report(m)
        names = m.benchmark_names
        assert all(a.shapiro[n] == b.shapiro[n] for n in names)

    def test_matches_the_column_loop(self):
        # Holes, a constant column, a column of two cells and more rows
        # than Shapiro-Wilk takes, against one shapiro_wilk call a column.
        rng = np.random.default_rng(14)
        vals = rng.normal(size=(SW_MAX_N + 700, 5))
        vals[rng.random(vals.shape) < 0.3] = np.nan
        vals[:, 1] = 2.5
        vals[2:, 2] = np.nan
        vals[:, 4] = rng.exponential(size=vals.shape[0])
        m = make_matrix(vals)
        rep = normality_report(m)
        assert rep.skipped == ("b1", "b2")
        assert ({n: {"W": r["W"], "p": r["p"]} for n, r in rep.shapiro.items()},
                rep.skipped) == column_loop_report(m)

    @pytest.mark.fresh_draws
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.lists(st.sampled_from(
        ["holes", "holes", "complete", "constant", "short", "empty"]),
        min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    def test_the_screen_matches_the_column_loop(self, M, kinds, seed):
        # Random holes, with constant, short (< 3 cells) and empty columns.
        rng = np.random.default_rng(seed)
        vals = np.round(rng.normal(size=(M, len(kinds))), 1)
        for j, kind in enumerate(kinds):
            if kind == "holes":
                vals[rng.random(M) < rng.random(), j] = np.nan
            elif kind == "constant":
                vals[:, j] = np.where(rng.random(M) < 0.3, np.nan, 1.5)
            elif kind == "short":
                vals[rng.permutation(M)[rng.integers(0, 3):], j] = np.nan
            elif kind == "empty":
                vals[:, j] = np.nan
        vals[np.isnan(vals).all(axis=1), -1] = 0.25  # a cell in every row
        m = make_matrix(vals)
        rep = normality_report(m)
        assert ({n: {"W": r["W"], "p": r["p"]} for n, r in rep.shapiro.items()},
                rep.skipped) == column_loop_report(m)

    def test_bad_correction(self):
        m = make_matrix(np.random.default_rng(13).normal(size=(30, 2)))
        with pytest.raises(DataError):
            normality_report(m, correction="holm")
