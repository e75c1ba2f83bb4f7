"""Score matrix data model: ingestion, standardization, logit transform.

A score matrix holds M models by N benchmarks with an observation mask.
Unobserved cells hold NaN, exactly where the mask is false, so code below
ScoreMatrix reads NaN as missing; all operations return new matrices.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from benchsel.errors import DataError


def _own(value, vectors=(), **arrays) -> None:
    """Store each keyword array as that field of the frozen dataclass
    `value`: read-only, C-ordered, and copied when it may share memory with
    what the caller passed, so `value` owns it.  DataError when a field
    named in `vectors` is not 1-D."""
    for name, array in arrays.items():
        if name in vectors and array.ndim != 1:
            raise DataError(f"{name} must be 1-D")
        array = (array.copy() if np.may_share_memory(array, getattr(value, name))
                 else np.ascontiguousarray(array))
        array.setflags(write=False)
        object.__setattr__(value, name, array)


@dataclass(frozen=True)
class ScoreMatrix:
    """M x N scores with observation mask and row/column labels."""

    values: np.ndarray  # float64, NaN where unobserved
    mask: np.ndarray    # bool, True = observed
    model_names: tuple[str, ...]
    benchmark_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.shape != mask.shape or values.ndim != 2:
            raise DataError("values and mask must be 2-D with identical shape")
        M, N = values.shape
        if len(self.model_names) != M or len(self.benchmark_names) != N:
            raise DataError("label lengths do not match matrix shape")
        for kind in ("model", "benchmark"):
            names = tuple(getattr(self, f"{kind}_names"))
            if len(set(names)) != len(names):
                seen: set = set()  # the first name met a second time
                dup = next(n for n in names if n in seen or seen.add(n))
                raise DataError(f"duplicate {kind} names: {dup!r}")
            object.__setattr__(self, f"{kind}_names", names)
        bad = mask & ~np.isfinite(values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(
                f"non-finite score {float(values[i, j])} for model "
                f"{self.model_names[i]!r}, benchmark {self.benchmark_names[j]!r}"
            )
        row_obs = mask.sum(axis=1)
        if np.any(row_obs < 1):
            bad = self.model_names[int(np.argmin(row_obs))]
            raise DataError(f"row {bad!r} has no observed entries")
        values = values.copy()
        values[~mask] = np.nan
        _own(self, values=values, mask=mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def with_values(self, values: np.ndarray) -> "ScoreMatrix":
        """New matrix with the same mask and labels but different values."""
        return ScoreMatrix(values, self.mask, self.model_names, self.benchmark_names)


@dataclass(frozen=True)
class ColumnStats:
    """Per-benchmark means and standard deviations from a training set."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        stds = np.asarray(self.stds, dtype=float)
        if means.shape != stds.shape or means.ndim != 1:
            raise DataError("means and stds must be 1-D with equal length")
        if not np.all((stds > 0) & np.isfinite(stds)):
            j = int(np.argmin((stds > 0) & np.isfinite(stds)))
            raise DataError(f"column {j} has std {stds[j]} outside (0, inf)")
        _own(self, means=means, stds=stds)


# The logit map clips s/max_j to [LOGIT_EPSILON, 1 - LOGIT_EPSILON].
LOGIT_EPSILON = 1e-3


@dataclass(frozen=True)
class LogitParams:
    """Per-benchmark training maxima for the logit map."""

    col_max: np.ndarray

    def __post_init__(self):
        col_max = np.asarray(self.col_max, dtype=float)
        if np.any(col_max <= 0):
            j = int(np.argmin(col_max))
            raise DataError(f"column {j} has nonpositive maximum {col_max[j]}")
        _own(self, ("col_max",), col_max=col_max)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """s -> log(t / (1-t)), t = clip(s/max_j, eps, 1-eps); NaN stays NaN."""
        if np.any(values < 0):
            raise DataError("logit transform requires nonnegative scores")
        t = np.clip(values / self.col_max, LOGIT_EPSILON, 1 - LOGIT_EPSILON)
        return np.log(t / (1 - t))

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """f -> sigmoid(f) * max_j; caps at the training maximum."""
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-values)) * self.col_max


# Every byte a plain numeric cell may hold: ASCII digits, sign, point,
# exponent and blanks.  No NaN or inf token, digit separator or non-ASCII
# digit gets through, so a NaN from the C reader marks an empty or blank cell,
# and float() and the C reader (both PyOS_string_to_double) read each cell
# to the same bits.
_PLAIN_BYTES = b"0123456789eE+-. \t,"
# The non-ASCII characters that str.isspace (so str.strip) takes; U+3000 last.
_UNICODE_BLANKS = "".join(filter(str.isspace, map(chr, range(128, 0x3001))))


def load_csv(source) -> ScoreMatrix:
    """Parse a model-by-benchmark CSV into a ScoreMatrix.

    First row: label cell, then benchmark names.  Each following row:
    model name, then one cell per benchmark, each an ASCII decimal number
    or empty or whitespace-only (missing).  "NaN"/"NA" tokens are rejected as
    malformed, and so are quoted cells holding a comma and cells that parse
    to a non-finite number ("inf", "-nan", "1e999").  Lines may end in LF,
    CRLF or CR.
    `source` may be a path, a text stream, a byte stream, or the CSV text
    itself; a str or bytes is CSV text when it holds a line break.

    Two readers split the lines of this grammar, and one reads the
    numbers.  Plain text is split with str methods: every cell after the
    model name is ASCII numeric text, padded by any blanks str.strip
    removes, or empty, a model name may be quoted ("a,b" reads as a,b) if it
    holds no quote itself, and a header line with quotes is read by the csv
    module.  The csv module splits every other file.  Either way numpy's C
    reader reads all the numbers in one call: first the cells as they are;
    only when that fails, or a data row is a lone empty cell, does every
    empty cell become "nan" for a second read.  A file that read does not
    take is read row by row in file order, and its first fault, a wrong
    cell count or a bad cell, is reported.
    """
    text = _read_text(source)
    try:
        values, models, names = _parse_plain(text) or _parse_rows(text)
    except csv.Error as exc:  # such as a cell over csv's field size limit
        raise DataError(str(exc)) from None
    return ScoreMatrix(values, ~np.isnan(values), models, names)


def _read_text(source) -> str:
    """The whole text of a path, a text or byte stream, or CSV text."""
    if isinstance(source, (str, bytes)):
        breaks = ("\n", "\r") if isinstance(source, str) else (b"\n", b"\r")
        if not any(b in source for b in breaks):
            with open(source, "r", encoding="utf-8", newline="") as fh:
                return fh.read()
        return source if isinstance(source, str) else source.decode("utf-8")
    if isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")
    return source.read()


def _parse_plain(text: str):
    """(values, model names, benchmark names) of plain numeric CSV text,
    read by np.loadtxt; None when the text is anything else."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        return None
    reader = csv.reader(lines)  # reads a header line that holds a quote
    header = next(reader) if '"' in lines[0] else lines[0].split(",")
    if reader.line_num > 1:  # a quoted cell holds a line break
        return None
    models, rests = [], []
    for line in lines[1:]:
        if line.startswith('"'):
            # A quoted name ends at the first '",' unless it holds a quote.
            end = line.find('",', 1)
            model, rest = line[1:end], line[end + 2:]
            if end < 0 or '"' in model:
                return None
        else:
            # csv reads a quote after a name's first character as text
            model, comma, rest = line.partition(",")
            if not comma:  # a blank line or a row of one cell
                return None
        models.append(model.strip())
        rests.append(rest)
    values = _numbers(rests, len(header) - 1)
    return None if values is None else (
        values, tuple(models), tuple(c.strip() for c in header[1:]))


def _numbers(rests, width: int):
    """The len(rests) x width values of comma-separated numeric lines, read
    by np.loadtxt with each empty or blank cell NaN; None when a line holds
    anything else, or other than `width` cells, or a cell reads as inf."""
    joined = ",".join(rests)
    if not joined.isascii():  # padding that str.strip removes
        for blank in filter(joined.__contains__, _UNICODE_BLANKS):
            rests = [rest.replace(blank, " ") for rest in rests]
        joined = ",".join(rests)
    # What is left once the plain bytes go; a non-ASCII character as "?".
    if joined.encode("ascii", "replace").translate(None, _PLAIN_BYTES):
        return None
    # A row of one empty cell (loadtxt skips a blank line) and any empty or
    # blank cell take a second read, with each one "nan", at a line's ends too.
    values = None if "" in rests else _loadtxt(rests)
    if values is None:
        if " " in joined or "\t" in joined:
            rests = [re.sub(r",[ \t]+(?=,)", ",", f",{r},")[1:-1] for r in rests]
        values = _loadtxt([f",{rest},".replace(",,", ",nan,")
                           .replace(",,", ",nan,")[1:-1] for rest in rests])
    if (values is None or values.shape != (len(rests), width)
            or np.isinf(values).any()):
        return None
    return values


def _loadtxt(lines):
    """np.loadtxt of comma-separated numeric lines; None on a ValueError."""
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def _parse_rows(text: str):
    """(values, model names, benchmark names) of CSV text split by the csv
    module; DataError at the first fault in file order."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or len(rows[0]) < 2:
        raise DataError("CSV must have a header row with at least one benchmark")
    if len(rows) < 2:
        raise DataError("CSV contains no data rows")
    names = tuple(c.strip() for c in rows[0][1:])
    # Rows of the header's length only: a quoted comma must not pass as a cell.
    rests = [",".join(r[1:]) for r in rows[1:] if len(r) == len(rows[0])]
    values = None if len(rests) < len(rows) - 1 else _numbers(rests, len(names))
    if values is None:  # the first fault in file order, if there is one
        values = [_parse_row(n, r, names) for n, r in enumerate(rows[1:], 2)]
    return (np.asarray(values, dtype=float),
            tuple(row[0].strip() for row in rows[1:]), names)


def _parse_row(lineno, row, names) -> list[float]:
    """Parse a row's stripped cells one by one; raise DataError at a wrong
    cell count or at a bad cell."""
    if len(row) != len(names) + 1:
        raise DataError(
            f"line {lineno}: expected {len(names) + 1} cells, got {len(row)}")
    out = []
    for name, cell in zip(names, map(str.strip, row[1:])):
        where = f"line {lineno}, column {name!r}: "
        if "," in cell:
            raise DataError(where + "quoted comma cells are not supported")
        if cell.lower() in ("nan", "na"):
            raise DataError(where + f"token {cell!r} is not a valid "
                            "missing-cell encoding (use an empty cell)")
        try:
            if "_" in cell or not cell.isascii():  # float() reads '1_000'
                raise ValueError(cell)
            out.append(float(cell) if cell else math.nan)
        except ValueError:
            raise DataError(where + f"cannot parse {cell!r} as a number") from None
        if cell and not math.isfinite(out[-1]):
            raise DataError(where + f"non-finite value {cell!r} is not a valid score")
    return out


def write_table(sink, header, rows) -> None:
    """Write a CSV table to a text stream or a path, with LF line ends.

    The header row is as csv.writer writes it.  In each data row (a
    sequence) a float NaN or None is an empty cell and every other cell is
    its str(): repr for a float, which loads back bit-exactly.  A row of
    floats, ints, bools and strs is one join of its cells when no str holds
    a comma, a quote or a character repr() escapes; a row of strs alone,
    when none holds a comma, a quote, CR, LF or NUL.  csv.writer writes
    every other row, so quoting follows the running Python's csv module.
    Rows are streamed, never held as one string.
    """
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            return write_table(fh, header, rows)
    csv_line = csv.writer(_Echo(), lineterminator="\n").writerow
    sink.write(csv_line(header))
    sink.writelines(_table_line(csv_line, row) for row in rows)


class _Echo:
    """A csv.writer target whose write returns the line it is given."""

    def write(self, line: str) -> str:
        return line


# The cell types whose repr() is their str(), apart from a str's quotes.
_PLAIN_TYPES = frozenset((float, int, bool, str))


def _table_line(csv_line, row) -> str:
    types = set(map(type, row))
    if types <= _PLAIN_TYPES:
        if types == {str}:  # csv quotes a ", CR or LF; 3.10's refuses NUL
            text = ",".join(row)
            plain = not any(map(text.__contains__, '"\r\n\0'))
        else:
            # repr() is faster than str() and sets the strs apart: each is
            # 'text', so a cell that starts with nan is a float NaN.  With no
            # " or \ in the join, no text holds a quote or a character
            # repr() escapes.
            text = ",".join(map(repr, row)).replace(",nan", ",")
            if text.startswith("nan"):
                text = text[3:]
            plain = '"' not in text and "\\" not in text
            text = text.replace("'", "")
        # The comma count finds a comma inside a cell, and csv writes a lone
        # empty cell as "".
        if plain and text and text.count(",") == len(row) - 1:
            return text + "\n"
    return csv_line(["" if isinstance(v, float) and math.isnan(v) else v
                     for v in row])


def write_csv(m: ScoreMatrix, sink) -> None:
    """Write a ScoreMatrix in the CSV schema load_csv reads, bit-exactly."""
    write_table(sink, ["model", *m.benchmark_names],
                ([name, *row] for name, row
                 in zip(m.model_names, m.values.tolist())))


def _column_pass(values: np.ndarray):
    """Non-NaN means, ddof=1 stds (NaN below two cells) and which vary.

    A column varies when its observed max exceeds its min (seven cells of
    0.1 have a std of 1.5e-17) and its std is positive.  Sums run along the
    rows of one owned, C-ordered transposed copy, holes zeroed, then
    centred and squared in place, so a fully observed column gets the bits
    of its own mean() and std(ddof=1).
    """
    X = np.array(values.T, order="C")  # a copy even when values is F-ordered
    holes = np.isnan(X)
    complete = not holes.any()
    if not complete:
        X[holes] = 0.0
    n = len(values) - holes.sum(axis=1)
    obs = True if complete else ~holes  # a where= mask costs 3x a plain max
    hi = X.max(axis=1, initial=-np.inf, where=obs)
    lo = X.min(axis=1, initial=np.inf, where=obs)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        means = X.sum(axis=1) / n
        X -= means[:, None]
        if not complete:
            X[holes] = 0.0
        X *= X
        stds = np.sqrt(X.sum(axis=1) / (n - 1))
    return means, stds, (hi > lo) & (stds > 0)


def _row_groups(observed: np.ndarray):
    """(pattern, rows) for each distinct row of a boolean matrix, in the
    order of each pattern's first row; `rows` ascend."""
    # Each row's void key: a zero byte (a key when N = 0), then its bits.
    keys = np.zeros((len(observed), (observed.shape[1] + 15) // 8), np.uint8)
    keys[:, 1:] = np.packbits(observed, axis=1)
    _, first, inverse = np.unique(keys.view(f"V{keys.shape[1]}").ravel(),
                                  return_index=True, return_inverse=True)
    for k in np.argsort(first):
        yield observed[first[k]], np.flatnonzero(inverse == k)


def _reject_columns(m: ScoreMatrix, bad: np.ndarray, why: str) -> None:
    """DataError naming the first column flagged in `bad`, if any."""
    if bad.any():
        raise DataError(f"column {m.benchmark_names[np.argmax(bad)]!r} {why}")


def _require_two_cells(m: ScoreMatrix) -> None:
    """DataError naming a column with fewer than the 2 cells a fit needs."""
    col_obs = m.mask.sum(axis=0)
    if np.any(col_obs < 2):
        bad = m.benchmark_names[int(np.argmin(col_obs))]
        raise DataError(f"column {bad!r} has fewer than 2 observed entries")


def column_stats(m: ScoreMatrix) -> ColumnStats:
    """Observed-cell means and sample stds (ddof=1) per column.

    Columns with fewer than two observed cells, scores whose mean or std
    overflows, or zero observed variance are rejected: a constant benchmark
    carries no selection signal and breaks standardization.
    """
    _require_two_cells(m)
    means, stds, varies = _column_pass(m.values)
    _reject_columns(m, ~(np.isfinite(means) & np.isfinite(stds)),
                    "has scores too large for a finite mean and std")
    _reject_columns(m, ~varies, "has zero observed variance")
    return ColumnStats(means, stds)


def standardize(m: ScoreMatrix, stats: ColumnStats) -> ScoreMatrix:
    """(value - mean_j) / std_j on observed cells; mask unchanged."""
    if stats.means.shape[0] != m.shape[1]:
        raise DataError("stats dimension does not match matrix width")
    vals = (m.values - stats.means) / stats.stds
    return m.with_values(vals)


def logit_params(m: ScoreMatrix) -> LogitParams:
    """Per-column observed maxima from training data."""
    _reject_columns(m, np.any(m.mask & (m.values < 0), axis=0),
                    "has negative scores; the logit transform requires "
                    "nonnegative scores")
    col_max = np.where(m.mask, m.values, -np.inf).max(axis=0)
    _reject_columns(m, col_max <= 0, "has no positive score; the logit "
                    "transform requires a positive maximum")
    return LogitParams(col_max)


def logit_transform(m: ScoreMatrix, params: LogitParams) -> ScoreMatrix:
    """Map each observed cell s -> log(t / (1-t)), t = clip(s/max_j, eps, 1-eps)."""
    if params.col_max.shape[0] != m.shape[1]:
        raise DataError("logit params dimension does not match matrix width")
    return m.with_values(params.forward(m.values))
