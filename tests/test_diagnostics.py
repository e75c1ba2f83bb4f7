import numpy as np
import pytest
from scipy import stats

from benchsel.diagnostics import (
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

    def test_m_le_n_rejected(self):
        with pytest.raises(DataError):
            mardia(np.random.default_rng(6).normal(size=(3, 3)))

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


class TestBenjaminiHochberg:
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

    def test_bad_correction(self):
        m = make_matrix(np.random.default_rng(13).normal(size=(30, 2)))
        with pytest.raises(DataError):
            normality_report(m, correction="holm")
