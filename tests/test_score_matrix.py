import io

import numpy as np
import pytest

from benchsel.errors import DataError
from benchsel.score_matrix import (
    ColumnStats,
    LogitParams,
    ScoreMatrix,
    column_stats,
    destandardize,
    drop_sparse_rows,
    inverse_logit,
    load_csv,
    logit_params,
    logit_transform,
    standardize,
    write_csv,
)

from conftest import make_matrix


CSV_FULL = "model,b0,b1\nalpha,1.0,2.0\nbeta,3.0,4.0\n"


class TestLoadCsv:
    def test_fully_observed(self):
        m = load_csv(CSV_FULL)
        assert m.shape == (2, 2)
        assert m.mask.all()
        assert m.model_names == ("alpha", "beta")
        assert m.benchmark_names == ("b0", "b1")

    def test_empty_cell_is_missing(self):
        m = load_csv(
            "model,b0,b1,b2\n"
            "modelA,0.5,,0.7\n"
            "modelB,0.1,0.2,0.3\n"
            "modelC,0.4,0.5,\n"
        )
        assert m.mask[0].tolist() == [True, False, True]

    def test_nan_token_rejected(self):
        with pytest.raises(DataError, match="missing-cell"):
            load_csv("model,b0,b1\na,NaN,1\nb,2,3\nc,4,5\n")
        with pytest.raises(DataError, match="missing-cell"):
            load_csv("model,b0,b1\na,NA,1\nb,2,3\nc,4,5\n")

    @pytest.mark.parametrize("token", ["inf", "-inf", "+nan", "-nan", "1e999"])
    def test_non_finite_rejected(self, token):
        with pytest.raises(DataError, match=r"line 3, column 'b1': non-finite"):
            load_csv(f"model,b0,b1\na,1,2\nb,3,{token}\nc,4,5\n")

    def test_duplicate_names(self):
        with pytest.raises(DataError, match="duplicate model"):
            load_csv("model,b0,b1\na,1,2\na,3,4\n")
        with pytest.raises(DataError, match="duplicate benchmark"):
            load_csv("model,b0,b0\na,1,2\nb,3,4\n")

    def test_all_missing_row(self):
        with pytest.raises(DataError, match="no observed"):
            load_csv("model,b0,b1\na,,\nb,1,2\nc,3,4\n")

    def test_underobserved_column(self):
        with pytest.raises(DataError, match="fewer than 2"):
            load_csv("model,b0,b1\na,1,2\nb,3,\nc,4,\n")

    def test_malformed_number(self):
        with pytest.raises(DataError, match="cannot parse"):
            load_csv("model,b0,b1\na,xx,2\nb,3,4\n")

    def test_wrong_cell_count(self):
        with pytest.raises(DataError, match="expected"):
            load_csv("model,b0,b1\na,1\nb,3,4\n")

    def test_byte_stream(self):
        m = load_csv(io.BytesIO(CSV_FULL.encode()))
        assert m.shape == (2, 2)

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(6, 4))
        mask = rng.random((6, 4)) > 0.3
        mask[:, mask.sum(axis=0) < 2] = True
        mask[mask.sum(axis=1) == 0, 0] = True
        m = make_matrix(np.where(mask, vals, np.nan), mask)
        buf = io.StringIO()
        write_csv(m, buf)
        m2 = load_csv(buf.getvalue())
        assert m2.model_names == m.model_names
        assert m2.benchmark_names == m.benchmark_names
        assert (m2.mask == m.mask).all()
        assert np.array_equal(
            m2.values[m2.mask], m.values[m.mask]
        )


class TestInvariants:
    def test_sentinel_never_read(self):
        m = load_csv("model,b0,b1\na,1,\nb,2,3\nc,4,5\n")
        with pytest.raises(DataError):
            m.observed(0, 1)
        assert m.observed(0, 0) == 1.0

    def test_values_immutable(self):
        m = load_csv(CSV_FULL)
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0


class TestDropSparseRows:
    def test_fully_observed_unchanged(self):
        m = load_csv(CSV_FULL)
        out = drop_sparse_rows(m, 0.5)
        assert out.model_names == m.model_names

    def test_sparse_row_removed(self):
        m = load_csv(
            "model,b0,b1,b2,b3\n"
            "a,1,,,\n"
            "b,2,3,4,5\n"
            "c,6,7,8,9\n"
        )
        out = drop_sparse_rows(m, 0.5)
        assert out.model_names == ("b", "c")

    def test_invariant_propagation(self):
        # removing the sparse row starves column b3
        m = load_csv(
            "model,b0,b1,b2,b3\n"
            "a,,,,7\n"
            "b,2,3,4,5\n"
            "c,6,7,8,\n"
        )
        with pytest.raises(DataError):
            drop_sparse_rows(m, 0.5)

    def test_idempotent(self):
        m = load_csv(
            "model,b0,b1,b2,b3\n"
            "a,1,,,\n"
            "b,2,3,4,5\n"
            "c,6,7,8,9\n"
        )
        once = drop_sparse_rows(m, 0.5)
        twice = drop_sparse_rows(once, 0.5)
        assert once.model_names == twice.model_names

    def test_bad_fraction(self):
        m = load_csv(CSV_FULL)
        with pytest.raises(DataError):
            drop_sparse_rows(m, 1.5)


class TestStandardize:
    def test_single_value(self):
        m = make_matrix([[0.8], [0.4], [0.6]])
        stats = ColumnStats(np.array([0.6]), np.array([0.2]))
        out = standardize(m, stats)
        assert out.values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_own_stats_gives_zero_mean_unit_std(self):
        rng = np.random.default_rng(2)
        m = make_matrix(rng.normal(2.0, 3.0, size=(20, 3)))
        out = standardize(m, column_stats(m))
        assert np.allclose(out.values.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(out.values.std(axis=0, ddof=1), 1, atol=1e-12)

    def test_training_stats_applied_to_validation(self):
        # oracle: recompute by hand on a 4-row example
        train = make_matrix([[1.0], [2.0], [3.0], [6.0]])
        stats = column_stats(train)
        mu = (1 + 2 + 3 + 6) / 4.0
        sd = np.std([1, 2, 3, 6], ddof=1)
        val = make_matrix([[0.6], [0.6]], prefix="v")
        out = standardize(val, stats)
        assert out.values[0, 0] == pytest.approx((0.6 - mu) / sd, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        m = make_matrix(rng.normal(size=(10, 4)))
        stats = column_stats(m)
        back = destandardize(standardize(m, stats), stats)
        assert np.allclose(back.values, m.values, atol=1e-12)

    def test_zero_variance_rejected(self):
        m = make_matrix([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        with pytest.raises(DataError, match="zero observed variance"):
            column_stats(m)

    def test_dimension_mismatch(self):
        m = load_csv(CSV_FULL)
        stats = ColumnStats(np.zeros(3), np.ones(3))
        with pytest.raises(DataError):
            standardize(m, stats)


class TestLogit:
    def test_midpoint_maps_to_zero(self):
        m = make_matrix([[0.5], [0.25], [1.0]])
        p = LogitParams(np.array([1.0]))
        out = logit_transform(m, p)
        assert out.values[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_clipped_maximum(self):
        # oracle: log((1-eps)/eps) with eps = 1e-3
        m = make_matrix([[1.0], [0.25], [0.5]])
        p = LogitParams(np.array([1.0]), epsilon=1e-3)
        out = logit_transform(m, p)
        assert out.values[0, 0] == pytest.approx(np.log(0.999 / 0.001), abs=1e-9)
        assert out.values[0, 0] == pytest.approx(6.906754778648553, abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(0.05, 0.95, size=(8, 3))
        m = make_matrix(vals)
        p = logit_params(m)
        back = inverse_logit(logit_transform(m, p), p)
        inside = (m.values / p.col_max > 1e-3) & (m.values / p.col_max < 1 - 1e-3)
        assert np.allclose(back.values[inside], m.values[inside], atol=1e-9)

    def test_inverse_midpoint_and_saturation(self):
        m = make_matrix([[0.0], [50.0], [-50.0]])
        p = LogitParams(np.array([0.8]))
        out = inverse_logit(m, p)
        assert out.values[0, 0] == pytest.approx(0.4, abs=1e-12)
        assert out.values[1, 0] == pytest.approx(0.8, abs=1e-9)

    def test_negative_scores_rejected(self):
        m = make_matrix([[-0.1], [0.5], [0.7]])
        with pytest.raises(DataError, match="nonnegative"):
            logit_params(m)

    def test_bad_params(self):
        with pytest.raises(DataError):
            LogitParams(np.array([0.0]))
        with pytest.raises(DataError):
            LogitParams(np.array([1.0]), epsilon=0.7)
