import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchsel.covariance import fit_model
from benchsel.errors import DataError
from benchsel.score_matrix import (
    ColumnStats,
    LogitParams,
    ScoreMatrix,
    column_stats,
    load_csv,
    logit_params,
    logit_transform,
    standardize,
    write_csv,
    write_table,
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

    def test_whitespace_only_cell_is_missing(self):
        m = load_csv("model,b0,b1\na,1, \nb,2,3\nc,\t,5\nd,4,6\n")
        assert m.mask.tolist() == [[True, False], [True, True],
                                   [False, True], [True, True]]
        assert np.isnan(m.values[0, 1]) and np.isnan(m.values[2, 0])

    def test_quoted_comma_rejected(self):
        with pytest.raises(DataError, match=r"^line 2, column 'b0': quoted "
                           "comma cells are not supported$"):
            load_csv('model,b0,b1\na,"1,5",2\nb,3,4\nc,5,6\n')

    def test_token_reported_before_a_later_unparsable_cell(self):
        with pytest.raises(DataError, match=r"^line 3, column 'b0': token "
                           "'nan' is not a valid missing-cell encoding"):
            load_csv("model,b0,b1\na,1,2\nb,nan,xx\nc,5,6\n")

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

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "\uff11"])
    def test_non_decimal_text_rejected(self, cell):
        # float() reads digit separators, Arabic-Indic and full-width digits
        with pytest.raises(DataError, match=rf"^line 3, column 'b1': cannot "
                           rf"parse '{cell}' as a number$"):
            load_csv(f"model,b0,b1\na,1,2\nb,3,{cell}\nc,4,5\n")

    def test_non_ascii_padding_is_stripped(self):
        # no-break spaces around a number are whitespace, as str.strip says
        m = load_csv("model,b0,b1\na,1,\u00a02\u00a0\nb,3,4\nc,5,\u00a0\n")
        assert m.values[0, 1] == 2.0 and not m.mask[2, 1]

    def test_wrong_cell_count(self):
        with pytest.raises(DataError, match="expected"):
            load_csv("model,b0,b1\na,1\nb,3,4\n")

    def test_byte_stream(self):
        m = load_csv(io.BytesIO(CSV_FULL.encode()))
        assert m.shape == (2, 2)

    def test_text_is_told_from_a_path_by_its_line_break(self, tmp_path):
        (tmp_path / "a,b").mkdir()
        path = tmp_path / "a,b" / "in.csv"
        path.write_text(CSV_FULL)
        for source in (str(path), bytes(path), CSV_FULL, CSV_FULL.encode(),
                       CSV_FULL.replace("\n", "\r")):
            assert load_csv(source).shape == (2, 2)

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


    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_bit_exact_over_random_masks(self, data):
        M = data.draw(st.integers(2, 8))
        N = data.draw(st.integers(1, 5))
        cells = st.one_of(
            st.sampled_from([-0.0, 0.0, 5e-324, -5e-324,
                             1.7976931348623157e308, -1.7976931348623157e308]),
            st.floats(allow_nan=False, allow_infinity=False))
        vals = np.array(data.draw(st.lists(cells, min_size=M * N,
                                           max_size=M * N))).reshape(M, N)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=M * N,
                                           max_size=M * N))).reshape(M, N)
        mask[:2] = True  # every column observed twice
        mask[~mask.any(axis=1), 0] = True  # every row once
        m = make_matrix(vals, mask)
        buf = io.StringIO()
        write_csv(m, buf)
        back = load_csv(buf.getvalue())
        assert back.model_names == m.model_names
        assert back.benchmark_names == m.benchmark_names
        assert np.array_equal(back.mask, m.mask)
        assert back.values[mask].tobytes() == vals[mask].tobytes()


class TestWriteTable:
    def test_nan_is_an_empty_cell(self):
        buf = io.StringIO()
        write_table(buf, ["name", "k", "x", "y"],
                    [["a", 1, 0.1, float("nan")], ["b,c", 2, -0.0, 1e300]])
        assert buf.getvalue() == (
            "name,k,x,y\na,1,0.1,\n\"b,c\",2,-0.0,1e+300\n")


class TestInvariants:
    def test_sentinel_never_read(self):
        # an unobserved cell is masked out and holds NaN, never a score
        m = load_csv("model,b0,b1\na,1,\nb,2,3\nc,4,5\n")
        assert not m.mask[0, 1] and np.isnan(m.values[0, 1])
        assert m.mask[0, 0] and m.values[0, 0] == 1.0

    def test_values_immutable(self):
        m = load_csv(CSV_FULL)
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_observed_cell_rejected(self, bad):
        # Built in the library, not through load_csv: the first observed
        # non-finite cell in row-major order is named.
        vals = np.random.default_rng(0).normal(size=(8, 3))
        vals[2, 1] = bad
        vals[5, 0] = np.inf
        with pytest.raises(DataError, match="model 'm2', benchmark 'b1'"):
            make_matrix(vals, np.ones((8, 3), dtype=bool))

    def test_non_finite_unobserved_cell_ignored(self):
        vals = np.random.default_rng(1).normal(size=(8, 3))
        vals[2, 1] = np.inf
        mask = np.ones((8, 3), dtype=bool)
        mask[2, 1] = False
        assert np.isnan(make_matrix(vals, mask).values[2, 1])


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
        # FittedModel.decode inverts encode, NaN cells included
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(10, 4))
        vals[3, 1] = np.nan
        m = make_matrix(vals)
        fit = fit_model(m)
        z = fit.encode(m.values)
        np.testing.assert_array_equal(
            z, standardize(m, column_stats(m)).values)
        back = fit.decode(z)
        assert np.isnan(back[3, 1])
        assert np.allclose(back[m.mask], m.values[m.mask], atol=1e-12)

    def test_zero_variance_rejected(self):
        m = make_matrix([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        with pytest.raises(DataError, match="zero observed variance"):
            column_stats(m)
        # seven cells of 0.1 have a mean that does not round exactly, and
        # a std of 1.5e-17 > 0; the column is still constant
        m = make_matrix(np.column_stack([np.arange(7.0), np.full(7, 0.1)]))
        assert m.values[:, 1].std(ddof=1) > 0
        with pytest.raises(DataError, match="column 'b1' has zero observed"):
            column_stats(m)

    def test_matches_the_column_loop(self):
        rng = np.random.default_rng(13)
        vals = rng.normal(2.0, 3.0, size=(300, 6))
        mask = rng.random(vals.shape) > 0.3
        mask[:, :3] = True
        m = make_matrix(np.where(mask, vals, np.nan), mask)
        stats = column_stats(m)
        for j in range(6):
            col = m.values[m.mask[:, j], j]
            if j < 3:  # fully observed: the same bits
                assert stats.means[j] == col.mean()
                assert stats.stds[j] == col.std(ddof=1)
            else:  # holes reorder the sums
                assert stats.means[j] == pytest.approx(col.mean(), rel=1e-13)
                assert stats.stds[j] == pytest.approx(col.std(ddof=1), rel=1e-13)

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
        # FittedModel.decode inverts encode inside the clip band
        rng = np.random.default_rng(11)
        m = make_matrix(rng.uniform(0.05, 0.95, size=(8, 3)))
        fit = fit_model(m, logit=True)
        p = fit.logit
        back = fit.decode(fit.encode(m.values))
        t = m.values / p.col_max
        inside = (t > p.epsilon) & (t < 1 - p.epsilon)
        assert inside.sum() == m.values.size - 3  # each column's maximum
        assert np.allclose(back[inside], m.values[inside], atol=1e-9)
        assert np.allclose(back[~inside], (1 - p.epsilon) * p.col_max[
            np.nonzero(~inside)[1]], atol=1e-12)

    def test_inverse_midpoint_and_saturation(self):
        p = LogitParams(np.array([0.8]))
        out = p.inverse(np.array([[0.0], [50.0], [-50.0], [-800.0]]))
        assert out[0, 0] == pytest.approx(0.4, abs=1e-12)
        assert out[1, 0] == pytest.approx(0.8, abs=1e-9)
        assert out[2, 0] == pytest.approx(0.0, abs=1e-9)
        assert out[3, 0] == 0.0  # exp overflow saturates without a warning

    def test_params_match_the_column_loop(self):
        rng = np.random.default_rng(12)
        vals = rng.uniform(0.0, 5.0, size=(30, 6))
        mask = rng.random(vals.shape) > 0.3
        mask[:2] = True
        m = make_matrix(np.where(mask, vals, np.nan), mask)
        want = [m.values[m.mask[:, j], j].max() for j in range(6)]
        assert logit_params(m).col_max.tolist() == want
        # the error names the first column holding a negative score
        vals[:, [2, 4]] = -vals[:, [2, 4]]
        with pytest.raises(DataError, match="column 'b2'"):
            logit_params(make_matrix(vals, mask))

    def test_negative_scores_rejected(self):
        m = make_matrix([[-0.1], [0.5], [0.7]])
        with pytest.raises(DataError, match="nonnegative"):
            logit_params(m)

    def test_bad_params(self):
        with pytest.raises(DataError):
            LogitParams(np.array([0.0]))
        with pytest.raises(DataError):
            LogitParams(np.array([1.0]), epsilon=0.7)
