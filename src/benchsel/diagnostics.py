"""Normality diagnostics: Shapiro-Wilk, Mardia, Benjamini-Hochberg.

Shapiro-Wilk is scipy's implementation of Royston's algorithm AS R94
(Royston 1995), valid for 3 <= n <= 5000, run once per tested column.

scipy is imported inside the functions that use it, not at module top:
`scipy.stats` takes most of a second to import, and every command but
`normality` loads this module without calling them.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from benchsel import covariance
from benchsel.errors import DataError, NumericalError

# The largest sample Royston's W approximation covers.
SW_MAX_N = 5000
# Cells of Mardia's M x M kernel held at once: up to M = 1024 one block.
_BLOCK_CELLS = 2**20


@dataclass(frozen=True)
class NormalityReport:
    """Per-benchmark Shapiro-Wilk results."""

    shapiro: dict  # column name -> {"W": float, "p": float, "rejected": bool}
    alpha: float
    correction: str  # {"bh", "bonferroni", "none"}
    skipped: tuple[str, ...] = ()


def shapiro_wilk(x) -> tuple[float, float]:
    """Shapiro-Wilk W statistic and p-value for 3 <= n <= 5000.

    scipy's 1-D test without its axis and NaN wrapper, as Python floats,
    after checks that reject what the approximation does not cover.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3 or n > SW_MAX_N:
        raise DataError(f"sample size {n} outside [3, {SW_MAX_N}]")
    if not np.isfinite(x).all():
        raise DataError("shapiro_wilk requires finite values")
    if np.all(x == x.flat[0]):
        raise DataError("constant sample")
    from scipy import stats

    W, p = inspect.unwrap(stats.shapiro)(x)  # the 1-D test, as in the report
    return float(W), float(p)


def mardia(X) -> dict:
    """Mardia's multivariate skewness and kurtosis with asymptotic p-values.

    Requires a fully observed M x N matrix with M > N.  The skewness
    statistic M*b1/6 is referred to chi^2 with N(N+1)(N+2)/6 degrees of
    freedom; kurtosis is a z-score against mean N(N+2) and variance
    8 N(N+2)/M.  One Cholesky factor L of the sample covariance S,
    inverted once, whitens the centred rows, Y = Xc L^-T, and b1 sums the
    Mahalanobis kernel D = Y Y^T cubed in blocks of rows of at most
    _BLOCK_CELLS cells, so memory grows with M*N, not M^2.  An S that is
    not positive definite, or whose 1-norm condition number exceeds
    1/(N eps), falls back to the pseudo-inverse with a warning; an S that
    overflows raises NumericalError.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise DataError("X must be a 2-D matrix with a column")
    if not np.isfinite(X).all():
        raise DataError("mardia requires a fully observed, finite matrix")
    M, N = X.shape
    if M <= N:
        raise DataError("mardia requires more rows than columns")
    from scipy import special

    with np.errstate(over="ignore", invalid="ignore"):
        Xc = X - X.mean(axis=0)
        S = Xc.T @ Xc / M
    if not np.isfinite(S).all():  # pinv's SVD would not converge
        raise NumericalError("the sample covariance overflows")
    factor = covariance._cholesky(S)
    # L^-1 in L's own array, so that no N x N array is added, with its
    # upper triangle zeroed: dtrtri leaves S's entries there.  All NaN,
    # which fails the test below, when S is not positive definite.
    inv = (np.full((N, N), np.nan) if factor is None
           else covariance._lapack.dtrtri(factor, lower=1, overwrite_c=1)[0])
    np.copyto(inv, 0.0, where=~np.tri(N, dtype=bool))
    # Past a 1-norm condition number of 1/(N eps) S^-1 has no correct digit.
    if (np.linalg.norm(S, 1) * np.linalg.norm(inv.T @ inv, 1)
            <= 1.0 / (N * np.finfo(float).eps)):
        np.matmul(Xc, inv.T, out=Xc)  # Y, in Xc's place
        W = R = Xc
    else:
        warnings.warn("singular sample covariance; using pseudo-inverse",
                      stacklevel=2)
        W, R = Xc @ np.linalg.pinv(S), Xc
    rows = max(1, _BLOCK_CELLS // M)
    beta1 = 0.0
    for i in range(0, M, rows):
        D = W[i:i + rows] @ R.T
        cube = D * D
        cube *= D  # D**3 calls pow per cell; D * D * D keeps two copies
        beta1 += float(np.sum(cube))
    beta1 = max(0.0, beta1 / M**2)  # a squared norm over M^2, bar rounding
    beta2 = float(np.sum(np.einsum("ij,ij->i", W, R) ** 2)) / M

    skew_stat = M * beta1 / 6.0
    dof = N * (N + 1) * (N + 2) / 6.0
    # chi2.sf's and norm.sf's kernels.
    p_skew = float(special.chdtrc(dof, skew_stat))
    kurt_stat = (beta2 - N * (N + 2)) / math.sqrt(8.0 * N * (N + 2) / M)
    p_kurt = float(2 * special.ndtr(-abs(kurt_stat)))
    return {
        "beta1": beta1,
        "beta2": beta2,
        "skew_stat": skew_stat,
        "kurt_stat": kurt_stat,
        "p_skew": p_skew,
        "p_kurt": p_kurt,
    }


def benjamini_hochberg(pvals, alpha: float) -> list[bool]:
    """BH step-up: reject ranks up to the largest i with p_(i) <= i*alpha/m,
    that is, where scipy's BH-adjusted p-value is at most alpha."""
    pvals = np.asarray(pvals, dtype=float)
    if not np.all((pvals >= 0) & (pvals <= 1)):
        raise DataError("p-values must lie in [0, 1]")
    if not 0 < alpha < 1:
        raise DataError("alpha must lie in (0, 1)")
    from scipy import stats

    return (stats.false_discovery_control(pvals) <= alpha).tolist()


def normality_report(m, alpha: float = 0.05,
                     correction: str = "bh") -> NormalityReport:
    """Per-benchmark Shapiro-Wilk with multiple-testing correction.

    Columns too short (< 3 observed) or constant are skipped and listed.
    Each other column's observed cells, or past SW_MAX_N a subsample of
    SW_MAX_N drawn by default_rng(0), get one call of scipy's 1-D test,
    unwrapped from its axis and NaN wrapper.
    """
    if correction not in ("bh", "bonferroni", "none"):
        raise DataError("correction must be bh, bonferroni, or none")
    if not 0 < alpha < 1:
        raise DataError("alpha must lie in (0, 1)")
    counts = m.mask.sum(axis=0)
    X = np.array(m.values, order="F")  # NaN in the holes, columns contiguous
    rng = np.random.default_rng(0)
    for j in np.flatnonzero(counts > SW_MAX_N):
        X[:, j] = np.nan
        X[:SW_MAX_N, j] = rng.choice(m.values[m.mask[:, j], j],
                                     size=SW_MAX_N, replace=False)
    keep = (counts >= 3) & (np.fmax.reduce(X) > np.fmin.reduce(X))
    skipped = tuple(n for n, k in zip(m.benchmark_names, keep) if not k)

    from scipy import stats

    shapiro = inspect.unwrap(stats.shapiro)  # itself, if not wrapped
    results = {}
    for j in np.flatnonzero(keep):
        col = X[:, j]
        W, p = shapiro(col[~np.isnan(col)])
        results[m.benchmark_names[j]] = {"W": float(W), "p": float(p)}
    pvals = [r["p"] for r in results.values()]
    if correction == "bh" and pvals:
        flags = benjamini_hochberg(pvals, alpha)
    else:
        tests = len(pvals) if correction == "bonferroni" else 1
        flags = [p <= alpha / tests for p in pvals]
    for r, rej in zip(results.values(), flags):
        r["rejected"] = bool(rej)
    return NormalityReport(results, alpha, correction, skipped)
