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
from benchsel.covariance import GaussianModel, _cho_solve, _cholesky
from benchsel.score_matrix import _row_groups

STANDARDIZED_CLIP = 10.0


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
    values, selected, model: GaussianModel, ridge: float = 1e-2
) -> BatchImputation:
    """Conditional means and variances of every column, for every row.

    Row i conditions on the selected columns it observed: a NaN in the
    standardized `values` is an unobserved cell, an infinite one an
    error.  Rows with the same conditioning set C share one Cholesky
    factor of Sigma_CC + ridge*I; with C empty a row gets the marginal
    mean and variance.
    """
    values, sel = _checked(values, selected, model, ridge)
    mu, Sigma = model.mean, model.cov
    sel = np.unique(sel)
    var = np.diag(Sigma)
    predicted = np.tile(mu, (len(values), 1))
    cond_var = np.tile(var, (len(values), 1))
    for pattern, rows in _row_groups(~np.isnan(values[:, sel])):
        C = sel[pattern]
        if C.size == 0:
            continue
        factor = _cholesky(Sigma[np.ix_(C, C)] + ridge * np.eye(C.size))
        if factor is None:
            raise SingularRowError(int(rows[0]))
        Sxc = Sigma[:, C]
        x = _cho_solve(factor, (values[np.ix_(rows, C)] - mu[C]).T)
        predicted[rows] = mu + (Sxc @ x).T
        gain = _cho_solve(factor, Sxc.T)  # Scc^{-1} Sigma_C.
        cond_var[rows] = var - np.sum(Sxc * gain.T, axis=1)
    return BatchImputation(predicted, cond_var)


def impute_prefixes(values, order, model: GaussianModel,
                    ridge: float = 1e-2) -> np.ndarray:
    """Conditional means of every column for each prefix of `order`.

    Returns a (K, R, N) array whose out[k-1] is
    impute_rows(values, order[:k], model, ridge).predicted, from one pass.
    Conditioning on the pivots one at a time is the Cholesky of
    Sigma_CC + ridge*I in pivot order, so each group of rows that observes
    the same pivots keeps only the N x c factor columns: a pivot j takes
    col = Sigma[:, j] - L L[j]' and s = col[j] + ridge, and moves the
    group's means by (x_j - pred_j) / s * col.
    """
    values, order = _checked(values, order, model, ridge)
    if np.unique(order).size != order.size:
        raise DataError("order repeats an index")
    mu, Sigma = model.mean, model.cov
    K, N = order.size, mu.size
    out = np.tile(mu, (K, len(values), 1))
    failed = []  # (pivot position, first row) of each singular group
    for pattern, rows in _row_groups(~np.isnan(values[:, order])):
        steps = np.flatnonzero(pattern)
        x = values[np.ix_(rows, order[steps])]
        pred = np.tile(mu, (rows.size, 1))
        L = np.empty((N, steps.size))
        # Pivot order[t] serves the prefixes up to the group's next pivot.
        for c, (t, end) in enumerate(zip(steps, [*steps[1:], K])):
            j = order[t]
            col = Sigma[:, j] - L[:, :c] @ L[j, :c]
            s = col[j] + ridge
            if not s > 0:
                failed.append((t, int(rows[0])))
                break
            L[:, c] = col / math.sqrt(s)
            pred += np.outer((x[:, c] - pred[:, j]) / s, col)
            out[t:end, rows] = pred
    if failed:
        raise SingularRowError(min(failed)[1])
    return out


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
    sel = np.asarray(list(selected), dtype=int)
    if sel.size and (sel.min() < 0 or sel.max() >= N):
        raise DataError("selected index out of range")
    return values, sel


def impute_row(
    obs: dict[int, float],
    selected,
    model: GaussianModel,
    ridge: float = 1e-2,
    targets=None,
) -> ImputationResult:
    """Conditional mean and variance for a partially observed row.

    `obs` maps column index -> standardized value.  The conditioning set
    is selected ∩ keys(obs); `targets` defaults to every column outside
    `selected`.  A one-row view of `impute_rows`.
    """
    N = model.mean.size
    selected = sorted(set(int(j) for j in selected))
    if targets is None:
        targets = [j for j in range(N) if j not in selected]
    targets = sorted(set(int(j) for j in targets))
    row = np.array([[obs.get(j, np.nan) for j in range(N)]])
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
