"""Score matrix data model: ingestion, standardization, logit transform.

A score matrix holds M models by N benchmarks with an observation mask.
Unobserved cells carry NaN internally but are only ever interpreted
through the mask; all operations are pure and return new matrices.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from benchsel.errors import DataError


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
        if len(set(self.model_names)) != M:
            raise DataError("duplicate model names")
        if len(set(self.benchmark_names)) != N:
            raise DataError("duplicate benchmark names")
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
        col_obs = mask.sum(axis=0)
        if np.any(col_obs < 2):
            bad = self.benchmark_names[int(np.argmin(col_obs))]
            raise DataError(f"column {bad!r} has fewer than 2 observed entries")
        values = values.copy()
        values[~mask] = np.nan
        values.setflags(write=False)
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "model_names", tuple(self.model_names))
        object.__setattr__(self, "benchmark_names", tuple(self.benchmark_names))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def observed_fraction(self) -> float:
        return float(self.mask.mean())

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
        if np.any(stds <= 0):
            j = int(np.argmin(stds))
            raise DataError(f"column {j} has nonpositive std {stds[j]}")
        means.setflags(write=False)
        stds.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)


@dataclass(frozen=True)
class LogitParams:
    """Per-benchmark training maxima and clipping bound for the logit map."""

    col_max: np.ndarray
    epsilon: float = 1e-3

    def __post_init__(self):
        col_max = np.asarray(self.col_max, dtype=float)
        if np.any(col_max <= 0):
            j = int(np.argmin(col_max))
            raise DataError(f"column {j} has nonpositive maximum {col_max[j]}")
        if not 0 < self.epsilon < 0.5:
            raise DataError("epsilon must lie in (0, 0.5)")
        col_max.setflags(write=False)
        object.__setattr__(self, "col_max", col_max)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """s -> log(t / (1-t)), t = clip(s/max_j, eps, 1-eps); NaN stays NaN."""
        if np.any(values < 0):
            raise DataError("logit transform requires nonnegative scores")
        t = np.clip(values / self.col_max, self.epsilon, 1 - self.epsilon)
        return np.log(t / (1 - t))

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """f -> sigmoid(f) * max_j; caps at the training maximum."""
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-values)) * self.col_max


def load_csv(source) -> ScoreMatrix:
    """Parse a model-by-benchmark CSV into a ScoreMatrix.

    First row: label cell, then benchmark names.  Each following row:
    model name, then one cell per benchmark, each an ASCII decimal number
    or empty or whitespace-only (missing).  "NaN"/"NA" tokens are rejected as
    malformed, and so are quoted cells holding a comma and cells that parse
    to a non-finite number ("inf", "-nan", "1e999").
    `source` may be a path, a text stream, a byte stream, or the CSV text
    itself; a str or bytes is CSV text when it holds a line break.
    """
    if isinstance(source, (str, bytes)):
        breaks = ("\n", "\r") if isinstance(source, str) else (b"\n", b"\r")
        if not any(b in source for b in breaks):
            with open(source, "r", encoding="utf-8", newline="") as fh:
                return load_csv(fh)
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8"), newline="")
    elif isinstance(source, str):
        source = io.StringIO(source, newline="")
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")

    rows = list(csv.reader(source))
    if not rows or len(rows[0]) < 2:
        raise DataError("CSV must have a header row with at least one benchmark")
    names = [c.strip() for c in rows[0][1:]]

    values, blanks = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise DataError(
                f"line {lineno}: expected {len(rows[0])} cells, got {len(row)}"
            )
        cells = row[1:]
        text = "".join(cells)
        try:
            # what _decimal rejects, tested once per row
            if "_" in text or not text.isascii():
                raise ValueError(text)
            values.append([float(c) if c.strip() else math.nan for c in cells])
        except ValueError:
            values.append(_parse_row(lineno, cells, names))
        blanks.append(cells.count(""))
    if not values:
        raise DataError("CSV contains no data rows")
    values = np.array(values, dtype=float)
    missing = np.isnan(values)
    # Parse again the rows with an inf or a NaN that no empty cell explains.
    for i in np.flatnonzero(np.isinf(values).any(axis=1)
                            | (missing.sum(axis=1) > blanks)):
        _parse_row(i + 2, rows[i + 1][1:], names)
    return ScoreMatrix(values, ~missing,
                       tuple(row[0].strip() for row in rows[1:]), tuple(names))


def _decimal(text: str) -> float:
    """float() of ASCII decimal text; ValueError for anything else, such as
    the '1_000' and non-ASCII digits float() accepts."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return float(text)


def _parse_row(lineno, cells, names) -> list[float]:
    """Parse stripped cells one by one; raise DataError at a bad one."""
    out = []
    for name, cell in zip(names, map(str.strip, cells)):
        where = f"line {lineno}, column {name!r}: "
        if "," in cell:
            raise DataError(where + "quoted comma cells are not supported")
        if cell.lower() in ("nan", "na"):
            raise DataError(where + f"token {cell!r} is not a valid "
                            "missing-cell encoding (use an empty cell)")
        try:
            out.append(_decimal(cell) if cell else math.nan)
        except ValueError:
            raise DataError(where + f"cannot parse {cell!r} as a number") from None
        if cell and not math.isfinite(out[-1]):
            raise DataError(where + f"non-finite value {cell!r} is not a valid score")
    return out


def write_table(sink, header, rows) -> None:
    """Write a CSV table to a text stream or a path.  A float NaN becomes
    an empty cell; csv writes other floats with repr, which loads back
    bit-exactly, and ints and strings as they are."""
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            return write_table(fh, header, rows)
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(["" if isinstance(v, float) and math.isnan(v) else v
                      for v in row] for row in rows)


def write_csv(m: ScoreMatrix, sink) -> None:
    """Write a ScoreMatrix in the CSV schema load_csv reads, bit-exactly."""
    write_table(sink, ["model", *m.benchmark_names],
                ([name, *row] for name, row
                 in zip(m.model_names, m.values.tolist())))


def _column_pass(values: np.ndarray, mask: np.ndarray):
    """Observed means, ddof=1 stds (NaN below two cells) and which vary.

    A column varies when its observed max exceeds its min (seven cells of
    0.1 have a std of 1.5e-17) and its std is positive.  Sums run along the
    rows of a contiguous transposed copy, so a fully observed column gets
    the bits of its own mean() and std(ddof=1).
    """
    obs = np.ascontiguousarray(mask.T)
    X = np.where(obs, values.T, 0.0)
    n = obs.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = X.sum(axis=1) / n
        d = np.where(obs, X - means[:, None], 0.0)
        stds = np.sqrt((d * d).sum(axis=1) / (n - 1))
    varies = ((X.max(axis=1, initial=-np.inf, where=obs)
               > X.min(axis=1, initial=np.inf, where=obs)) & (stds > 0))
    return means, stds, varies


def column_stats(m: ScoreMatrix) -> ColumnStats:
    """Observed-cell means and sample stds (ddof=1) per column.

    Columns with zero observed variance are rejected: a constant
    benchmark carries no selection signal and breaks standardization.
    """
    means, stds, varies = _column_pass(m.values, m.mask)
    if not varies.all():
        raise DataError(f"column {m.benchmark_names[int(np.argmin(varies))]!r} "
                        "has zero observed variance")
    return ColumnStats(means, stds)


def standardize(m: ScoreMatrix, stats: ColumnStats) -> ScoreMatrix:
    """(value - mean_j) / std_j on observed cells; mask unchanged."""
    if stats.means.shape[0] != m.shape[1]:
        raise DataError("stats dimension does not match matrix width")
    vals = (m.values - stats.means) / stats.stds
    return m.with_values(vals)


def logit_params(m: ScoreMatrix, epsilon: float = 1e-3) -> LogitParams:
    """Per-column observed maxima from training data."""
    negative = np.any(m.mask & (m.values < 0), axis=0)
    if negative.any():
        raise DataError(
            f"column {m.benchmark_names[int(np.argmax(negative))]!r} has "
            "negative scores; the logit transform requires nonnegative scores"
        )
    return LogitParams(np.where(m.mask, m.values, -np.inf).max(axis=0),
                       epsilon)


def logit_transform(m: ScoreMatrix, params: LogitParams) -> ScoreMatrix:
    """Map each observed cell s -> log(t / (1-t)), t = clip(s/max_j, eps, 1-eps)."""
    if params.col_max.shape[0] != m.shape[1]:
        raise DataError("logit params dimension does not match matrix width")
    return m.with_values(params.forward(m.values))
