import csv
import io
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from benchsel import score_matrix
from benchsel.covariance import em_fit, fit_model
from benchsel.errors import DataError
from benchsel.evaluation import run_cv
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

    def test_duplicate_is_named(self):
        # The first name read a second time: 'b' repeats before 'a' does.
        with pytest.raises(DataError, match="^duplicate model names: 'b'$"):
            load_csv("model,x\na,1\nb,2\nc,3\nb,4\na,5\n")
        with pytest.raises(DataError,
                           match="^duplicate benchmark names: 'y'$"):
            load_csv("model,x,y,z,y\na,1,2,3,4\nb,5,6,7,8\n")

    def test_all_missing_row(self):
        with pytest.raises(DataError, match="no observed"):
            load_csv("model,b0,b1\na,,\nb,1,2\nc,3,4\n")

    def test_underobserved_column(self):
        # A matrix that is only imputed may observe a column once; a fit
        # needs two cells per column.
        m = load_csv("model,b0,b1\na,1,2\nb,3,\nc,4,\n")
        assert m.mask.sum(axis=0).tolist() == [3, 1]
        for fit in (fit_model, em_fit, run_cv):
            with pytest.raises(DataError, match="^column 'b1' has fewer "
                               "than 2 observed entries$"):
                fit(m)

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
        # but a blank inside a number is no padding
        with pytest.raises(DataError, match=r"^line 3, column 'b1': cannot "
                           r"parse '1\\xa02' as a number$"):
            load_csv("model,b0,b1\na,1,2\nb,3,1\u00a02\nc,4,5\n")

    def test_every_unicode_blank_is_padding(self):
        # _numbers reads these as spaces; str.strip removes them
        assert sorted(score_matrix._UNICODE_BLANKS) == [
            c for c in map(chr, range(128, sys.maxunicode + 1)) if c.isspace()]

    def test_wrong_cell_count(self):
        with pytest.raises(DataError, match="expected"):
            load_csv("model,b0,b1\na,1\nb,3,4\n")
        # A quoted comma does not make up for the missing cell.
        with pytest.raises(DataError, match="^line 2: expected 3 cells, got 2$"):
            load_csv('model,b0,b1\na,"1,5"\nb,3,4\n')

    @pytest.mark.parametrize("eol", ["\n", "\r"])
    @pytest.mark.parametrize("later", ["m3,1", "m3,1,xx", "m3,1,2\nm4"],
                             ids=["short-row", "bad-cell", "one-cell-row"])
    @pytest.mark.parametrize("token,message", [
        ("inf", "non-finite value 'inf' is not a valid score"),
        ("1e999", "non-finite value '1e999' is not a valid score"),
        ("nan", "token 'nan' is not a valid missing-cell encoding (use an "
         "empty cell)")], ids=["inf", "1e999", "nan"])
    def test_first_fault_in_file_order(self, eol, later, token, message):
        # A later short row or bad cell was reported in place of the
        # non-finite cell on line 2.
        text = f"model,a,b\nm1,{token},2\nm2,1,2\n{later}\n"
        with pytest.raises(DataError) as exc:
            load_csv(text.replace("\n", eol))
        assert str(exc.value) == "line 2, column 'a': " + message

    @pytest.mark.parametrize("form", ["bare-cr", "quote-in-name",
                                      "quoted-numbers"])
    def test_csv_split_files_take_the_number_read(self, form):
        # Files that only the csv module splits: their numbers are read in
        # one call, not cell by cell, to the bits of the plain file.
        rng = np.random.default_rng(4)
        mask = rng.random((9, 4)) > 0.3
        mask[:2] = True
        mask[~mask.any(axis=1), 0] = True
        m = make_matrix(np.where(mask, rng.normal(size=mask.shape), np.nan),
                        mask)
        names = m.model_names
        if form == "quote-in-name":
            names = (*names[:3], 'm"3', *names[4:])
        buf = io.StringIO()
        if form == "quoted-numbers":
            writer = csv.writer(buf, lineterminator="\n",
                                quoting=csv.QUOTE_ALL)
            writer.writerow(["model", *m.benchmark_names])
            writer.writerows([n, *("" if np.isnan(v) else repr(v) for v in row)]
                             for n, row in zip(names, m.values.tolist()))
        else:
            write_csv(ScoreMatrix(m.values, m.mask, names,
                                  m.benchmark_names), buf)
        text = buf.getvalue()
        if form == "bare-cr":
            text = text.replace("\n", "\r")
        assert score_matrix._parse_plain(text) is None
        with mock.patch.object(score_matrix, "_parse_row",
                               side_effect=AssertionError("cell loop ran")):
            back = load_csv(text)
        assert back.values.tobytes() == m.values.tobytes()
        assert back.model_names == names
        assert back.benchmark_names == m.benchmark_names

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


# Cells for the reader comparison: mostly numbers, then blanks and the
# tokens each reader must treat alike.
_NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-999, 999).map(str),
    st.floats(-1e3, 1e3).map(lambda v: f" {v:.3f}\t"))
_ODD_CELLS = st.sampled_from([
    "", "", "", " ", "\t ", "1_000", "\u0661\u0662", "nan", "NA", "inf",
    "1e999", "-1e999", "+.5e-3", "-0", "1.", "4.9e-324", "1e", ".", "1 2",
    '"1,5"', '"2"', "\u00a0", "\u3000-2.5\u00a0", "1\u00a02"])


def _load_outcome(text):
    """load_csv's matrix as bytes and names, or its DataError message."""
    try:
        m = load_csv(io.StringIO(text, newline=""))
    except DataError as exc:
        return str(exc)
    return (m.values.tobytes(), m.mask.tobytes(), m.model_names,
            m.benchmark_names)


@pytest.mark.fresh_draws
class TestCsvReaders:
    """load_csv splits plain numeric text with str methods and the rest
    with the csv module; both must read every file alike."""

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_the_readers_agree(self, data):
        N = data.draw(st.integers(1, 4))
        M = data.draw(st.integers(0, 5))
        cell = st.integers(0, 19).flatmap(
            lambda k: _ODD_CELLS if k == 0 else _NUMBER_CELLS)
        name = st.sampled_from(["a", " b ", "a", "c", "a", " d", '"q"',
                                '"r,s"', "x\ry"])
        rows = []
        for i in range(M):
            width = max(N + data.draw(st.sampled_from([0] * 18 + [-1, 1])), 0)
            rows.append([data.draw(name) if i == 0 else f"m{i}",
                         *data.draw(st.lists(cell, min_size=width,
                                             max_size=width))])
        # A third of the files get one odd cell in otherwise plain text.
        if rows and data.draw(st.sampled_from([False, False, True])):
            row = rows[data.draw(st.integers(0, M - 1))]
            if len(row) > 1:
                row[data.draw(st.integers(1, len(row) - 1))] = \
                    data.draw(_ODD_CELLS)
        lines = ["model," + ",".join(f"b{j}" for j in range(N)),
                 *(",".join(row) for row in rows)]
        if data.draw(st.sampled_from([False] * 5 + [True])):
            lines.insert(data.draw(st.integers(1, len(lines))), "")
        eol = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = eol.join(lines) + data.draw(st.sampled_from(["", eol]))

        fast = _load_outcome(text)
        with mock.patch.object(score_matrix, "_parse_plain",
                               return_value=None):
            assert _load_outcome(text) == fast

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("holes", [0.0, 0.5])
    def test_plain_numeric_text_skips_the_cell_loop(self, eol, holes):
        rng = np.random.default_rng(3)
        mask = rng.random((40, 12)) >= holes
        mask[:2] = True
        mask[~mask.any(axis=1), 0] = True
        assert mask.all() == (holes == 0)
        m = make_matrix(np.where(mask, rng.normal(50, 10, mask.shape), np.nan),
                        mask)
        buf = io.StringIO()
        write_csv(m, buf)
        with mock.patch.object(score_matrix, "_parse_rows",
                               side_effect=AssertionError("csv reader ran")):
            back = load_csv(buf.getvalue().replace("\n", eol))
        assert back.values.tobytes() == m.values.tobytes()
        assert np.array_equal(back.mask, m.mask)
        assert back.model_names == m.model_names
        assert back.benchmark_names == m.benchmark_names

    @pytest.mark.parametrize("pad", ["\u00a0", "\u2003 ", "\u3000\t"])
    def test_blank_padded_numbers_skip_the_cell_loop(self, pad):
        # Blanks that str.strip removes around every number and in every
        # empty cell, but not around the names: one numpy read, same bits.
        rng = np.random.default_rng(3)
        mask = rng.random((40, 12)) >= 0.5
        mask[:2] = True
        mask[~mask.any(axis=1), 0] = True
        m = make_matrix(np.where(mask, rng.normal(50, 10, mask.shape), np.nan),
                        mask)
        buf = io.StringIO()
        write_csv(m, buf)
        header, *lines = buf.getvalue().splitlines()
        text = header + "\n" + "".join(
            f"{name},{pad}{rest.replace(',', f'{pad},{pad}')}{pad}\n"
            for name, rest in (line.split(",", 1) for line in lines))
        with mock.patch.object(score_matrix, "_parse_rows",
                               side_effect=AssertionError("csv reader ran")):
            back = load_csv(text)
        assert back.values.tobytes() == m.values.tobytes()
        assert np.array_equal(back.mask, m.mask)
        assert back.model_names == m.model_names

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("rows", [
        # first cell empty, last empty, both with one observed cell
        [[math.nan, 1.0, 2.0], [3.0, 4.0, math.nan], [5.0, math.nan, 6.0],
         [math.nan, 7.5, math.nan]],
        [[0.1, -2e-300, 3e10], [4.0, 5e-324, -6.0]],  # complete
        [[1.0], [-0.0], [2.5]],  # one column
    ], ids=["holes", "complete", "one-column"])
    def test_edge_rows_skip_the_cell_loop(self, eol, rows):
        m = make_matrix(rows)
        buf = io.StringIO()
        write_csv(m, buf)
        with mock.patch.object(score_matrix, "_parse_rows",
                               side_effect=AssertionError("csv reader ran")):
            back = load_csv(buf.getvalue().replace("\n", eol))
        assert back.values.tobytes() == m.values.tobytes()
        assert np.array_equal(back.mask, m.mask)
        assert back.model_names == m.model_names
        assert back.benchmark_names == m.benchmark_names

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("text,want", [
        ("model,b0,b1,b2\na, ,1,2\nb,3,\t ,4\nc,5,6,  \nd,7,,9\n", 4),
        # in one column, a blank cell leaves its row with nothing observed
        ("model,b0\nm0,1\nm1, \nm2,2\n", "row 'm1' has no observed entries"),
    ], ids=["blank-cells", "one-column"])
    def test_blank_cells_skip_the_cell_loop(self, eol, text, want):
        # A cell of spaces and tabs is missing, as an empty one is.
        text = text.replace("\n", eol)
        with mock.patch.object(score_matrix, "_parse_plain",
                               return_value=None):
            slow = _load_outcome(text)
        with mock.patch.object(score_matrix, "_parse_rows",
                               side_effect=AssertionError("csv reader ran")):
            assert _load_outcome(text) == slow
        if isinstance(want, str):
            assert slow == want
        else:
            assert np.isnan(np.frombuffer(slow[0])).sum() == want

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_row_of_one_empty_cell(self, eol):
        # loadtxt would skip the blank line, and warn on a file of them
        text = eol.join(["model,b0", "m0,1", "m1,", "m2,2", ""])
        with mock.patch.object(score_matrix, "_parse_rows",
                               side_effect=AssertionError("csv reader ran")):
            with pytest.raises(DataError,
                               match="^row 'm1' has no observed entries$"):
                load_csv(text)
            with pytest.raises(DataError,
                               match="^row 'm0' has no observed entries$"):
                load_csv(eol.join(["model,b0", "m0,", "m1,", ""]))

    @pytest.mark.parametrize("cell,message", [
        ("nan", "token 'nan' is not a valid missing-cell encoding (use an "
         "empty cell)"),
        ("inf", "non-finite value 'inf' is not a valid score"),
        ("1_000", "cannot parse '1_000' as a number")])
    def test_odd_cell_in_plain_text_gets_the_csv_readers_error(self, cell,
                                                              message):
        text = "model,b0,b1,b2\na,1,,2\nb,3,4,5\nc,,6,7\n"
        with pytest.raises(DataError) as exc:
            load_csv(text.replace("4", cell))
        assert str(exc.value) == "line 3, column 'b1': " + message

    @pytest.mark.parametrize("text", [
        'model,"b0\nm0,1\nm1,2\n',  # a quote left open in the header
        'model,"b\n0",b1\nm0,1,2\nm1,3,4\n',
        'model,b0\n"m\n0",1\nm1,2\nm2,3\n',
        'model,b0\n"m0\n",1\nm1,2\nm2,3\n',
        'model,b0\n"m0,1\nm1",2\nm2,3\n',
        'model,b0\n",1\nm1,2\nm2,3\n',  # a quote opened before a comma
        'model,b0\n"m""0",1\nm1,2\n'])  # csv reads "" as one quote
    def test_quoted_line_breaks(self, text):
        fast = _load_outcome(text)
        with mock.patch.object(score_matrix, "_parse_plain",
                               return_value=None):
            assert _load_outcome(text) == fast

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_quoted_names_and_header(self, data):
        """Names and header cells quoted or not, holding commas, quotes and
        line breaks, with blanks inside and outside the quotes: the readers
        agree, and the csv reader runs only for a cell the fast one leaves
        to it."""
        N = data.draw(st.integers(1, 3))
        M = data.draw(st.integers(2, 4))
        # distinct labels, so that most files load
        header = [_draw_label(data, True, "" if j == 0 else f"b{j}")
                  for j in range(N + 1)]
        names = [_draw_label(data, False, f"m{i}") for i in range(M)]
        cell = st.integers(0, 3).flatmap(
            lambda k: st.just("") if k == 0 else _NUMBER_CELLS)
        lines = [",".join(c for c, _ in header)] + [
            ",".join([name, *data.draw(st.lists(cell, min_size=N,
                                                max_size=N))])
            for name, _ in names]
        eol = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = eol.join(lines) + eol

        fast = _load_outcome(text)
        with mock.patch.object(score_matrix, "_parse_plain",
                               return_value=None):
            assert _load_outcome(text) == fast
        if all(fits for _, fits in header + names):
            with mock.patch.object(score_matrix, "_parse_rows",
                                   side_effect=AssertionError("csv reader ran")):
                assert _load_outcome(text) == fast


def _draw_label(data, header, tag):
    """A name ending in `tag` as written in a CSV cell, and whether the fast
    reader reads it: quoted or not, with a blank outside the quotes or none."""
    form = data.draw(st.sampled_from(["quoted", "quoted", "bare", "bare",
                                      "raw"]))
    alphabet = 'ab "' if form == "bare" else 'ab ,"\n'
    text = data.draw(st.text(st.sampled_from(alphabet), max_size=4)) + tag
    if form != "quoted":
        # csv reads a quote after the first character as text
        return text, not ("," in text or "\n" in text or text[:1] == '"')
    before, after = data.draw(st.sampled_from(
        [("", ""), ("", ""), (" ", ""), ("", " ")]))
    # csv reads "" inside quotes as one quote, and the header line is read
    # by csv, but a quote in a data line's name is left to the csv reader.
    return (before + '"' + text.replace('"', '""') + '"' + after,
            not before and not after and "\n" not in text
            and (header or '"' not in text))


def reference_write_table(sink, header, rows) -> None:
    """write_table as csv.writer alone renders it, cell by cell."""
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            return reference_write_table(fh, header, rows)
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(["" if isinstance(v, float) and math.isnan(v) else v
                      for v in row] for row in rows)


def _rendering(writer, header, rows):
    """The text `writer` gives, or the type of the error it raises."""
    buf = io.StringIO()
    try:
        writer(buf, header, rows)
    except csv.Error as e:  # Python 3.10's csv rejects a NUL in a cell
        return type(e)
    return buf.getvalue()


_SPECIAL_FLOATS = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1e16,
                   1e-5, 0.1 + 0.2]
_floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_texts = st.text(alphabet=st.sampled_from(
    ',"\n\r\0 abné\u4e2d\u2028No0.-'), max_size=8) | st.sampled_from(
    ["a,b", 'q"q', "l\nf", "c\rr", "", " lead", "trail ", "\u00e9t\u00e9",
     "nan", "nan-model", "banana", "None", "r\r\n"])
_cells = (_floats | _floats.map(np.float64)
          | st.floats(width=32).map(np.float32) | _texts | st.integers()
          | st.booleans() | st.none())
_rows = (st.lists(_cells, max_size=6) | st.lists(_cells, max_size=6).map(tuple)
         | st.lists(_texts, max_size=6))


class TestWriteTable:
    def test_nan_is_an_empty_cell(self):
        buf = io.StringIO()
        write_table(buf, ["name", "k", "x", "y"],
                    [["a", 1, 0.1, float("nan")], ["b,c", 2, -0.0, 1e300]])
        assert buf.getvalue() == (
            "name,k,x,y\na,1,0.1,\n\"b,c\",2,-0.0,1e+300\n")

    def test_header_nan_and_one_empty_cell(self):
        buf = io.StringIO()
        write_table(buf, ["k", math.nan], [[math.nan], [None], [""], [1, 2]])
        assert buf.getvalue() == 'k,nan\n""\n""\n""\n1,2\n'

    @settings(max_examples=300)
    @given(st.lists(_cells, max_size=4), st.lists(_rows, max_size=6))
    @example([math.nan], [[np.float32("nan"), 1.0], ("nan", math.nan),
                          [np.float64("nan")], ["banana", -0.0, math.nan],
                          ['q"q', 1], ["it's", 'both"\'', 2]])
    @example(["a", "b"], [["a", ","], ['"', "q"], ["\r", "c"], ["l", "\n"],
                          [" ", "s"], ["", "e"], ["", ""], [""], [",", ""]])
    @example(["a"], [["n", "\0"]])
    def test_matches_csv_writer(self, header, rows):
        assert (_rendering(write_table, header, rows)
                == _rendering(reference_write_table, header, rows))


def reference_row_groups(observed):
    """_row_groups by np.unique over the rows of the boolean matrix."""
    patterns, first, inverse = np.unique(
        observed, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    return [(patterns[k], np.flatnonzero(inverse == k))
            for k in np.argsort(first)]


@st.composite
def boolean_masks(draw):
    """Boolean matrices of 0 to 12 rows and 0 to 20 columns, with few or
    many distinct rows, laid out in C order, in Fortran order or as a
    strided view."""
    M, N = draw(st.integers(0, 12)), draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = rng.random((draw(st.integers(1, 4)), 2 * N)) < draw(
        st.floats(0, 1))
    wide = kinds[rng.integers(len(kinds), size=M)]
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        return wide[:, ::2]
    return np.asarray(wide[:, :N], order=layout)


class TestRowGroups:
    @settings(max_examples=300, deadline=None)
    @given(boolean_masks())
    @example(np.ones((3, 0), bool))
    @example(np.ones((0, 3), bool))
    @example(np.zeros((5, 16), bool))
    def test_matches_np_unique_over_rows(self, observed):
        got = list(score_matrix._row_groups(observed))
        want = reference_row_groups(observed)
        assert len(got) == len(want)
        for (p, rows), (p_want, rows_want) in zip(got, want):
            assert p.dtype == bool and np.array_equal(p, p_want)
            assert np.array_equal(rows, rows_want)


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


def reference_column_pass(values):
    """_column_pass as masked copies wrote it: np.where zeroes the holes of
    the transposed matrix, and again after centring."""
    obs = np.ascontiguousarray(~np.isnan(values).T)
    X = np.where(obs, values.T, 0.0)
    n = obs.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = X.sum(axis=1) / n
        d = np.where(obs, X - means[:, None], 0.0)
        stds = np.sqrt((d * d).sum(axis=1) / (n - 1))
    varies = ((X.max(axis=1, initial=-np.inf, where=obs)
               > X.min(axis=1, initial=np.inf, where=obs)) & (stds > 0))
    return means, stds, varies


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def in_layout(X, layout):
    """X as a C-ordered array, an F-ordered one, or a strided view (every
    other row and column of a larger array) holding the same values."""
    if layout in ("C", "F"):
        return np.array(X, order=layout)
    base = np.full((2 * X.shape[0], 2 * X.shape[1]), -7.0)
    base[::2, ::2] = X
    return base[::2, ::2]


@st.composite
def column_pass_cases(draw):
    """Score matrices with holes, all-NaN columns, one-cell and constant
    columns, at scales from 1e-3 to 1e3, in one of three layouts."""
    M, N = draw(st.integers(0, 30)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(M, N)) * 10.0 ** rng.uniform(-3, 3, size=N)
    holes = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    X[rng.random((M, N)) < holes] = np.nan
    for j in rng.choice(N, size=draw(st.integers(0, N)), replace=True):
        kind = rng.integers(3)
        if kind == 0:
            X[:, j] = np.nan
        elif kind == 1 and M:  # one cell
            X[:, j] = np.nan
            X[rng.integers(M), j] = rng.normal()
        else:
            X[:, j] = np.where(np.isnan(X[:, j]), np.nan, 0.1)
    return in_layout(X, draw(st.sampled_from(["C", "F", "strided"])))


@pytest.mark.fresh_draws
class TestColumnPass:
    """One owned transposed copy, centred and squared in place, gives the
    bits of the masked copies, and the caller's array is left as it was."""

    @settings(max_examples=200, deadline=None)
    @given(column_pass_cases())
    def test_matches_the_masked_copies(self, X):
        before = X.copy()
        got, want = score_matrix._column_pass(X), reference_column_pass(X)
        assert np.array_equal(X, before, equal_nan=True)
        assert X.flags.writeable
        for a, b in zip(got, want):
            assert same_bits(a, b)


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

    def test_underobserved_column_rejected(self):
        # b1 has one observed cell: too few, whatever its variance.
        m = load_csv("model,b0,b1\na,1,2\nb,3,\nc,4,\n")
        with pytest.raises(DataError, match="column 'b1' has fewer than 2 "
                                            "observed entries"):
            column_stats(m)
        m = load_csv("model,b0,b1\na,1,2\nb,3,2\nc,4,\n")
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
        # oracle: log((1-eps)/eps) with eps = LOGIT_EPSILON = 1e-3
        eps = score_matrix.LOGIT_EPSILON
        m = make_matrix([[1.0], [0.25], [0.5]])
        out = logit_transform(m, LogitParams(np.array([1.0])))
        assert out.values[0, 0] == pytest.approx(np.log((1 - eps) / eps),
                                                 abs=1e-9)
        assert out.values[0, 0] == pytest.approx(6.906754778648553, abs=1e-9)

    def test_round_trip(self):
        # FittedModel.decode inverts encode inside the clip band
        rng = np.random.default_rng(11)
        m = make_matrix(rng.uniform(0.05, 0.95, size=(8, 3)))
        fit = fit_model(m, logit=True)
        p = fit.logit
        back = fit.decode(fit.encode(m.values))
        t = m.values / p.col_max
        eps = score_matrix.LOGIT_EPSILON
        inside = (t > eps) & (t < 1 - eps)
        assert inside.sum() == m.values.size - 3  # each column's maximum
        assert np.allclose(back[inside], m.values[inside], atol=1e-9)
        assert np.allclose(back[~inside], (1 - eps) * p.col_max[
            np.nonzero(~inside)[1]], atol=1e-12)

    def test_decode_sd_is_the_slope_of_decode(self):
        # decode_sd maps a model-space sd by decode's derivative: checked
        # against a central difference, and exactly in plain mode
        rng = np.random.default_rng(12)
        m = make_matrix(rng.uniform(0.05, 0.95, size=(8, 3)))
        z = rng.normal(0.0, 2.0, size=(5, 3))
        sd = rng.uniform(0.1, 1.0, size=z.shape)
        fit = fit_model(m, logit=True)
        h = 1e-6
        slope = (fit.decode(z + h) - fit.decode(z - h)) / (2 * h)
        assert np.allclose(fit.decode_sd(z, sd), sd * slope, rtol=1e-7)
        # far in the tails the slope underflows to 0, without a warning
        assert (fit.decode_sd(np.array([[-800.0, 800.0, 0.0]]),
                              np.ones((1, 3)))[0, :2] == 0).all()
        plain = fit_model(m)
        np.testing.assert_array_equal(plain.decode_sd(z, sd),
                                      sd * plain.stats.stds)

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


def _owned_values():
    """(value, {field: the caller's array}) for each frozen value type, built
    from arrays the caller keeps: an F-ordered matrix and strided vectors."""
    from benchsel.covariance import GaussianModel
    from benchsel.selection import CostModel

    vals = np.asfortranarray(np.arange(1.0, 7.0).reshape(3, 2))
    mask = np.asfortranarray(np.ones((3, 2), dtype=bool))
    base = np.arange(1.0, 9.0)
    cov = np.asfortranarray(np.eye(2))
    return [
        (ScoreMatrix(vals, mask, ("a", "b", "c"), ("x", "y")),
         {"values": vals, "mask": mask}),
        (ColumnStats(base[::2], base[1::2]),
         {"means": base[::2], "stds": base[1::2]}),
        (LogitParams(base[:2]), {"col_max": base[:2]}),
        (CostModel(base[2:5], 3.0), {"costs": base[2:5]}),
        (GaussianModel(base[:2], cov, "full"), {"mean": base[:2], "cov": cov}),
    ]


class TestOwnedArrays:
    """Each value type keeps a read-only, C-ordered copy of every array it
    is given and leaves the caller's array as it was."""

    @pytest.mark.parametrize("case", range(5), ids=[
        "ScoreMatrix", "ColumnStats", "LogitParams", "CostModel",
        "GaussianModel"])
    def test_fields_are_owned_read_only_copies(self, case):
        value, given = _owned_values()[case]
        for name, theirs in given.items():
            ours = getattr(value, name)
            assert not np.may_share_memory(ours, theirs), name
            assert not ours.flags.writeable and ours.flags.c_contiguous, name
            assert theirs.flags.writeable, name
            np.testing.assert_array_equal(ours, theirs)

    def test_column_stats_leaves_the_caller_array_alone(self):
        m, s = np.zeros(3), np.ones(3)
        stats = ColumnStats(m, s)
        assert m.flags.writeable and stats.means is not m
        m[0] = 5.0
        assert stats.means[0] == 0.0

    def test_logit_params_do_not_see_a_later_write(self):
        base = np.array([1.0, 2.0, 3.0])
        params = LogitParams(base[:2])
        base[0] = 99.0
        assert params.col_max.tolist() == [1.0, 2.0]

    def test_vector_field_must_be_1d(self):
        with pytest.raises(DataError, match="^col_max must be 1-D$"):
            LogitParams(np.ones((2, 1)))


class TestValidation:
    """Checks of the value types and transforms, one per case."""

    @pytest.mark.parametrize("call,message", [
        (lambda: ScoreMatrix(np.zeros((2, 2)), np.ones((2, 3), bool),
                             ("a", "b"), ("x", "y")),
         "values and mask must be 2-D with identical shape"),
        (lambda: ScoreMatrix(np.zeros((2, 2)), np.ones((2, 2), bool),
                             ("a",), ("x", "y")),
         "label lengths do not match matrix shape"),
        (lambda: LogitParams(np.array([1.0])).forward(np.array([[-1.0]])),
         "logit transform requires nonnegative scores"),
        (lambda: logit_transform(make_matrix([[0.1, 0.2], [0.3, 0.4]]),
                                 LogitParams(np.array([1.0]))),
         "logit params dimension does not match matrix width"),
    ], ids=["mask-shape", "labels", "negative-score", "params-width"])
    def test_rejected(self, call, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            call()
