"""Gaussian conditional imputation and the standardized-space R^2 metric.

Predictions condition only on the selected benchmarks actually observed
for a row; with nothing to condition on, the marginal mean is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from benchsel.errors import DataError, SingularRowError
from benchsel.covariance import GaussianModel, _cholesky, _solve_lower
from benchsel.score_matrix import _row_groups

STANDARDIZED_CLIP = 10.0
# The ridge added to Sigma_CC before it is factored, where no caller sets one.
RIDGE = 1e-2


@dataclass(frozen=True)
class ImputationResult:
    """Single-row imputation output.

    predicted / cond_var are keyed by target column index; used_condition
    is the conditioning set actually applied (selected AND observed).
    """

    predicted: dict[int, float]
    cond_var: dict[int, float]
    used_condition: tuple[int, ...]


class BatchImputation(NamedTuple):
    """Per-row conditional moments over every column, each shaped (R, N)."""

    predicted: np.ndarray
    cond_var: np.ndarray


def impute_rows(
    values, selected, model: GaussianModel, ridge: float = RIDGE
) -> BatchImputation:
    """Conditional means and variances of every column, for every row.

    Row i conditions on the selected columns it observed: a NaN in the
    standardized `values` is an unobserved cell, an infinite one an
    error.  Rows with the same conditioning set C share one `_condition`:
    their means are mu + W'G and their variances diag Sigma - sum_c G^2.
    With C empty, G and W are empty: a row gets the marginal moments.
    """
    values, sel = _checked(values, selected, model, ridge)
    mu, var = model.mean, np.diag(model.cov)
    sel = np.unique(sel)
    predicted = np.tile(mu, (len(values), 1))
    cond_var = np.tile(var, (len(values), 1))
    for pattern, rows in _row_groups(~np.isnan(values[:, sel])):
        G, W = _condition(values, rows, sel[pattern], model, ridge)
        predicted[rows] = mu + W.T @ G
        cond_var[rows] = var - np.sum(G * G, axis=0)
    return BatchImputation(predicted, cond_var)


def impute_prefixes(values, order, model: GaussianModel,
                    ridge: float = RIDGE) -> np.ndarray:
    """Conditional means of every column for each prefix of `order`.

    Returns a (K, R, N) array whose out[k-1] is
    impute_rows(values, order[:k], model, ridge).predicted.  Each group of
    rows that observes the same pivots C takes one `_condition` on C in
    pivot order: its means given the first c pivots are mu + W[:c]'G[:c],
    so each pivot adds one outer product.  A singular block raises the
    error of impute_rows' first failing prefix.
    """
    values, order = _checked(values, order, model, ridge)
    if np.unique(order).size != order.size:
        raise DataError("order repeats an index")
    out = np.tile(model.mean, (order.size, len(values), 1))
    for pattern, rows in _row_groups(~np.isnan(values[:, order])):
        steps = np.flatnonzero(pattern)
        try:
            G, W = _condition(values, rows, order[steps], model, ridge)
        except SingularRowError:  # raise the per-k loop's error
            for k in range(1, order.size + 1):
                impute_rows(values, order[:k], model, ridge)
            raise
        pred = np.tile(model.mean, (rows.size, 1))
        # Pivot order[t] serves the prefixes up to the group's next pivot.
        for t, end, g, w in zip(steps, [*steps[1:], order.size], G, W):
            pred += np.outer(w, g)
            out[t:end, rows] = pred
    return out


def _condition(values, rows, C, model: GaussianModel, ridge: float):
    """(G, W) = L^-1 (Sigma[C, :], (x_C - mu_C)') for the rows `rows` from
    one triangular solve, L the lower Cholesky factor of Sigma_CC + ridge*I
    in C's order, so row c reads C[:c + 1] alone; an empty C factors none."""
    mu, Sigma = model.mean, model.cov
    if C.size == 0:
        return np.empty((0, mu.size)), np.empty((0, rows.size))
    factor = _cholesky(Sigma[C[:, None], C] + ridge * np.eye(C.size))
    if factor is None:
        raise SingularRowError(int(rows[0]))
    rhs = np.concatenate((Sigma[C], (values[rows[:, None], C] - mu[C]).T), 1)
    Z = _solve_lower(factor, rhs)
    return Z[:, :mu.size], Z[:, mu.size:]


def _checked(values, selected, model: GaussianModel, ridge: float):
    """`values` as an R x N float array and `selected` as an index array,
    after the input checks that impute_rows and impute_prefixes share."""
    values = np.asarray(values, float)
    N = model.mean.size
    if values.ndim != 2 or values.shape[1] != N:
        raise DataError("values must be R x N")
    if np.isinf(values).any():
        raise DataError("values must be finite or NaN")
    if not 0 <= ridge < math.inf:
        raise DataError("ridge must be finite and nonnegative")
    return values, _indices(selected, N)


def _indices(idx, N: int) -> np.ndarray:
    """`idx` as an int array of integers in range(N): a float or a boolean
    mask is refused, not truncated to a column."""
    idx = np.asarray(list(idx))
    if idx.size and (idx.dtype.kind not in "iu"
                     or not 0 <= idx.min() <= idx.max() < N):
        raise DataError(f"column indices must be integers in range({N})")
    return idx.astype(int)


def impute_row(
    obs: dict[int, float],
    selected,
    model: GaussianModel,
    ridge: float = RIDGE,
    targets=None,
) -> ImputationResult:
    """Conditional mean and variance for a partially observed row.

    `obs` maps column index -> standardized value.  The conditioning set
    is selected ∩ keys(obs); `targets` defaults to every column outside
    `selected`.  A one-row view of `impute_rows`.
    """
    N = model.mean.size
    selected = np.unique(_indices(selected, N)).tolist()
    if targets is None:
        targets = [j for j in range(N) if j not in selected]
    targets = np.unique(_indices(targets, N)).tolist()
    row = np.full((1, N), np.nan)
    row[0, _indices(obs, N)] = list(obs.values())
    pred, cvar = impute_rows(row, selected, model, ridge)
    return ImputationResult(
        {j: float(pred[0, j]) for j in targets},
        {j: float(cvar[0, j]) for j in targets},
        tuple(j for j in selected if j in obs),
    )


def clip_standardized(v: float) -> float:
    """Clamp a standardized value to [-10, 10]."""
    return float(min(max(v, -STANDARDIZED_CLIP), STANDARDIZED_CLIP))


def r2_standardized(pred, target) -> float:
    """1 - SSE / sum(target^2): the zero prediction is the baseline.

    Targets are assumed standardized by training stats and clipped, so
    predicting zero corresponds to predicting the training mean.  An
    all-zero target vector is degenerate and returns NaN (excluded from
    fold averaging by callers).
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape or pred.ndim != 1 or pred.size == 0:
        raise DataError("pred and target must be equal-length nonempty vectors")
    denom = float(np.sum(target**2))
    if denom == 0.0:
        return math.nan
    sse = float(np.sum((pred - target) ** 2))
    return 1.0 - sse / denom
