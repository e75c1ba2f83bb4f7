"""Score matrix data model: ingestion, standardization, logit transform.

A score matrix holds M models by N benchmarks with an observation mask.
Unobserved cells carry NaN internally but are only ever interpreted
through the mask; all operations are pure and return new matrices.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

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

    def observed(self, i: int, j: int) -> float:
        """Value at (i, j); raises if the cell is unobserved."""
        if not self.mask[i, j]:
            raise DataError(f"cell ({i}, {j}) is not observed")
        return float(self.values[i, j])

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
    source: str = "training"

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


def load_csv(source) -> ScoreMatrix:
    """Parse a model-by-benchmark CSV into a ScoreMatrix.

    First row: label cell, then benchmark names.  Each following row:
    model name, then one cell per benchmark, each a decimal number or
    empty (missing).  "NaN"/"NA" tokens are rejected as malformed, and so
    are cells that parse to a non-finite number ("inf", "-nan", "1e999").
    `source` may be a path, a text stream, or a byte stream.
    """
    if isinstance(source, (str, bytes)) and b"," not in (
        source.encode() if isinstance(source, str) else source
    ):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_csv(fh)
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        source = io.StringIO(source)
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")

    rows = list(csv.reader(source))
    if not rows or len(rows[0]) < 2:
        raise DataError("CSV must have a header row with at least one benchmark")
    header = rows[0]
    benchmark_names = [c.strip() for c in header[1:]]
    N = len(benchmark_names)

    model_names: list[str] = []
    values: list[list[float]] = []
    mask: list[list[bool]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != N + 1:
            raise DataError(
                f"line {lineno}: expected {N + 1} cells, got {len(row)}"
            )
        name = row[0].strip()
        vrow, mrow = [], []
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell == "":
                vrow.append(np.nan)
                mrow.append(False)
                continue
            if "," in cell:
                raise DataError(
                    f"line {lineno}, column {benchmark_names[j]!r}: "
                    "quoted comma cells are not supported"
                )
            if cell.lower() in ("nan", "na"):
                raise DataError(
                    f"line {lineno}, column {benchmark_names[j]!r}: "
                    f"token {cell!r} is not a valid missing-cell encoding "
                    "(use an empty cell)"
                )
            try:
                vrow.append(float(cell))
            except ValueError:
                raise DataError(
                    f"line {lineno}, column {benchmark_names[j]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            mrow.append(True)
        model_names.append(name)
        values.append(vrow)
        mask.append(mrow)

    if not values:
        raise DataError("CSV contains no data rows")
    values = np.array(values, dtype=float)
    mask = np.array(mask, dtype=bool)
    non_finite = np.argwhere(mask & ~np.isfinite(values))
    if non_finite.size:
        i, j = non_finite[0]
        raise DataError(
            f"line {i + 2}, column {benchmark_names[j]!r}: non-finite value "
            f"{rows[i + 1][j + 1].strip()!r} is not a valid score"
        )
    return ScoreMatrix(values, mask, tuple(model_names), tuple(benchmark_names))


def write_csv(m: ScoreMatrix, sink) -> None:
    """Write a ScoreMatrix in the same CSV schema load_csv reads.

    Values are emitted with repr so load_csv(write_csv(m)) round-trips
    bit-exactly.  `sink` is a text stream or a path.
    """
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            write_csv(m, fh)
        return
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["model"] + list(m.benchmark_names))
    for i, name in enumerate(m.model_names):
        row = [name]
        for j in range(m.shape[1]):
            row.append(repr(float(m.values[i, j])) if m.mask[i, j] else "")
        writer.writerow(row)


def drop_sparse_rows(m: ScoreMatrix, min_fraction: float) -> ScoreMatrix:
    """Keep rows whose observed fraction is >= min_fraction, order preserved."""
    if not 0 <= min_fraction <= 1:
        raise DataError("min_fraction must lie in [0, 1]")
    frac = m.mask.mean(axis=1)
    keep = frac >= min_fraction
    return ScoreMatrix(
        m.values[keep],
        m.mask[keep],
        tuple(n for n, k in zip(m.model_names, keep) if k),
        m.benchmark_names,
    )


def column_stats(m: ScoreMatrix, source: str = "training") -> ColumnStats:
    """Observed-cell means and sample stds (ddof=1) per column.

    Columns with zero observed variance are rejected: a constant
    benchmark carries no selection signal and breaks standardization.
    """
    N = m.shape[1]
    means = np.empty(N)
    stds = np.empty(N)
    for j in range(N):
        col = m.values[m.mask[:, j], j]
        means[j] = col.mean()
        stds[j] = col.std(ddof=1) if col.size > 1 else 0.0
        if stds[j] <= 0:
            raise DataError(
                f"column {m.benchmark_names[j]!r} has zero observed variance"
            )
    return ColumnStats(means, stds, source)


def standardize(m: ScoreMatrix, stats: ColumnStats) -> ScoreMatrix:
    """(value - mean_j) / std_j on observed cells; mask unchanged."""
    if stats.means.shape[0] != m.shape[1]:
        raise DataError("stats dimension does not match matrix width")
    vals = (m.values - stats.means) / stats.stds
    return m.with_values(vals)


def destandardize(m: ScoreMatrix, stats: ColumnStats) -> ScoreMatrix:
    """Inverse of standardize."""
    if stats.means.shape[0] != m.shape[1]:
        raise DataError("stats dimension does not match matrix width")
    vals = m.values * stats.stds + stats.means
    return m.with_values(vals)


def logit_params(m: ScoreMatrix, epsilon: float = 1e-3) -> LogitParams:
    """Per-column observed maxima from training data."""
    N = m.shape[1]
    col_max = np.empty(N)
    for j in range(N):
        col = m.values[m.mask[:, j], j]
        if np.any(col < 0):
            raise DataError(
                f"column {m.benchmark_names[j]!r} has negative scores; "
                "the logit transform requires nonnegative scores"
            )
        col_max[j] = col.max()
    return LogitParams(col_max, epsilon)


def logit_transform(m: ScoreMatrix, params: LogitParams) -> ScoreMatrix:
    """Map each observed cell s -> log(t / (1-t)), t = clip(s/max_j, eps, 1-eps)."""
    if params.col_max.shape[0] != m.shape[1]:
        raise DataError("logit params dimension does not match matrix width")
    if np.any(m.values[m.mask] < 0):
        raise DataError("logit transform requires nonnegative scores")
    t = np.clip(m.values / params.col_max, params.epsilon, 1 - params.epsilon)
    return m.with_values(np.log(t / (1 - t)))


def inverse_logit(m: ScoreMatrix, params: LogitParams) -> ScoreMatrix:
    """Map each cell f -> sigmoid(f) * max_j; caps at the training maximum."""
    if params.col_max.shape[0] != m.shape[1]:
        raise DataError("logit params dimension does not match matrix width")
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-m.values))
    return m.with_values(s * params.col_max)
