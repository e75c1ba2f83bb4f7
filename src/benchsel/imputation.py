"""Gaussian conditional imputation and the standardized-space R^2 metric.

Predictions condition only on the selected benchmarks actually observed
for a row; with nothing to condition on, the marginal mean is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import linalg

from benchsel.errors import DataError, NumericalError
from benchsel.covariance import GaussianModel

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
    values, mask, selected, model: GaussianModel, ridge: float = 1e-2
) -> BatchImputation:
    """Conditional means and variances of every column, for every row.

    Row i conditions on selected ∩ observed(i), where `mask` marks the
    observed cells of the standardized `values`.  Rows with the same
    conditioning set C share one Cholesky factor of Sigma_CC + ridge*I;
    with C empty a row gets the marginal mean and variance.
    """
    values, mask = np.asarray(values, float), np.asarray(mask, bool)
    mu, Sigma = model.mean, model.cov
    N = mu.size
    if values.ndim != 2 or values.shape != mask.shape or values.shape[1] != N:
        raise DataError("values and mask must both be R x N")
    sel = np.unique(np.asarray(list(selected), dtype=int))
    if sel.size and (sel[0] < 0 or sel[-1] >= N):
        raise DataError("selected index out of range")
    var = np.diag(Sigma)
    predicted = np.tile(mu, (len(values), 1))
    cond_var = np.tile(var, (len(values), 1))
    patterns, first, inverse = np.unique(
        mask[:, sel], axis=0, return_index=True, return_inverse=True
    )
    for k, pattern in enumerate(patterns):
        C = sel[pattern]
        if C.size == 0:
            continue
        rows = np.flatnonzero(inverse == k)
        try:
            factor = linalg.cho_factor(
                Sigma[np.ix_(C, C)] + ridge * np.eye(C.size), lower=True
            )
        except np.linalg.LinAlgError:
            raise NumericalError(
                f"conditioning block for row {int(first[k])} is singular "
                "even with ridge"
            ) from None
        Sxc = Sigma[:, C]
        x = linalg.cho_solve(factor, (values[np.ix_(rows, C)] - mu[C]).T)
        predicted[rows] = mu + (Sxc @ x).T
        gain = linalg.cho_solve(factor, Sxc.T)  # Scc^{-1} Sigma_C.
        cond_var[rows] = var - np.sum(Sxc * gain.T, axis=1)
    return BatchImputation(predicted, cond_var)


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
    pred, cvar = impute_rows(row, ~np.isnan(row), selected, model, ridge)
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
