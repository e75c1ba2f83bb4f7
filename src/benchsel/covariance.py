"""Gaussian model estimation: closed form, pairwise-complete, and EM.

Estimates (mu, Sigma) over benchmarks from complete or incomplete score
matrices, with PSD projection, identity shrinkage for rank-deficient
regimes, and correlation conversion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from benchsel.errors import DataError, NumericalError
from benchsel.score_matrix import ScoreMatrix

_SYM_TOL = 1e-8


@dataclass(frozen=True)
class GaussianModel:
    """Mean and symmetric PSD covariance over benchmarks."""

    mean: np.ndarray
    cov: np.ndarray
    estimator: str  # {"full", "pairwise", "em"}
    em_iterations: int = 0
    converged: bool = True
    loglik_trace: tuple[float, ...] = ()
    clamped: bool = False  # whether PSD projection altered eigenvalues

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise DataError("covariance shape does not match mean length")
        if np.max(np.abs(cov - cov.T)) > 1e-10 * max(1.0, np.max(np.abs(cov))):
            raise DataError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        mean = mean.copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def to_json(self) -> str:
        return json.dumps(
            {
                "mean": self.mean.tolist(),
                "cov": self.cov.ravel().tolist(),
                "estimator": self.estimator,
                "em_iterations": self.em_iterations,
                "converged": self.converged,
                "loglik_trace": list(self.loglik_trace),
                "clamped": self.clamped,
            }
        )

    @classmethod
    def from_json(cls, doc: str) -> "GaussianModel":
        d = json.loads(doc)
        mean = np.asarray(d["mean"], dtype=float)
        n = mean.size
        cov = np.asarray(d["cov"], dtype=float).reshape(n, n)
        return cls(
            mean, cov, d["estimator"], d.get("em_iterations", 0),
            d.get("converged", True),
            tuple(float(x) for x in d.get("loglik_trace", ())),
            d.get("clamped", False),
        )


@dataclass(frozen=True)
class EmConfig:
    """EM iteration controls.

    psd_floor=None selects automatically: 1e-3 for rank-deficient
    (M < N) or sparse (< 50% observed) inputs, 1e-10 otherwise.
    """

    max_iter: int = 500
    rel_tol: float = 1e-6
    ridge: float = 1e-8
    psd_floor: float | None = None
    shrink: str = "auto"  # {"auto", "off"}

    def __post_init__(self):
        if self.max_iter < 1:
            raise DataError("max_iter must be >= 1")
        if self.rel_tol <= 0:
            raise DataError("rel_tol must be > 0")
        if self.ridge < 0:
            raise DataError("ridge must be >= 0")
        if self.psd_floor is not None and self.psd_floor <= 0:
            raise DataError("psd_floor must be > 0")
        if self.shrink not in ("auto", "off"):
            raise DataError("shrink must be 'auto' or 'off'")


def estimate_full(m: ScoreMatrix) -> GaussianModel:
    """Closed-form moments for a fully observed matrix (1/(M-1) covariance)."""
    if not m.mask.all():
        raise DataError("estimate_full requires a fully observed matrix")
    B = m.values
    M = B.shape[0]
    if M < 2:
        raise DataError("need at least 2 rows")
    mu = B.mean(axis=0)
    Bc = B - mu
    cov = Bc.T @ Bc / (M - 1)
    return GaussianModel(mu, 0.5 * (cov + cov.T), "full")


def mean_missing(m: ScoreMatrix) -> np.ndarray:
    """Per-column mean over observed entries."""
    counts = m.mask.sum(axis=0)
    if np.any(counts == 0):
        j = int(np.argmin(counts))
        raise DataError(f"column {m.benchmark_names[j]!r} has no observations")
    vals = np.where(m.mask, m.values, 0.0)
    return vals.sum(axis=0) / counts


def pairwise_cov(m: ScoreMatrix, mu: np.ndarray) -> np.ndarray:
    """Pairwise-complete covariance with denominator max(n_jk - 1, 1).

    The output is not guaranteed PSD: each entry is estimated from a
    different subset of rows.  Columns never co-observed get entry 0.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.size != m.shape[1]:
        raise DataError("mu dimension does not match matrix width")
    O = m.mask.astype(float)
    Bc = np.where(m.mask, m.values - mu, 0.0)
    num = Bc.T @ Bc
    den = np.maximum(O.T @ O - 1.0, 1.0)
    S = num / den
    return 0.5 * (S + S.T)


def psd_project(S: np.ndarray, floor: float) -> np.ndarray:
    """Eigendecompose, clamp eigenvalues to >= floor, reconstruct."""
    S = np.asarray(S, dtype=float)
    if np.max(np.abs(S - S.T)) > _SYM_TOL * max(1.0, np.max(np.abs(S))):
        raise DataError("input is not symmetric")
    S = 0.5 * (S + S.T)
    w, V = np.linalg.eigh(S)
    out = (V * np.maximum(w, floor)) @ V.T
    return 0.5 * (out + out.T)


def shrink_identity(S: np.ndarray, M: int, N: int) -> np.ndarray:
    """Linear shrinkage toward (tr(S)/N) I with alpha = (N - M)/N.

    alpha is clamped to [0, 1]; the trace is preserved by construction.
    """
    S = np.asarray(S, dtype=float)
    alpha = min(max((N - M) / N, 0.0), 1.0)
    if alpha == 0.0:
        return S.copy()
    target = (np.trace(S) / N) * np.eye(N)
    return (1 - alpha) * S + alpha * target


def to_correlation(S: np.ndarray) -> np.ndarray:
    """Convert a covariance to a correlation matrix D^{-1/2} S D^{-1/2}."""
    S = np.asarray(S, dtype=float)
    d = np.diag(S)
    if np.any(d <= 0):
        raise DataError("covariance has nonpositive diagonal entries")
    inv_sd = 1.0 / np.sqrt(d)
    R = S * np.outer(inv_sd, inv_sd)
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 1.0)
    return R


def _missingness_patterns(m: ScoreMatrix) -> list[tuple]:
    """Distinct mask rows, ordered by the first row that has each.

    Each entry is (obs, mis, rows, x_obs): the observed and missing column
    indices, the row indices in file order, and their observed values.
    """
    patterns, first, inverse = np.unique(
        m.mask, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.ravel()
    out = []
    for k in np.argsort(first):
        obs = np.flatnonzero(patterns[k])
        rows = np.flatnonzero(inverse == k)
        out.append(
            (obs, np.flatnonzero(~patterns[k]), rows, m.values[np.ix_(rows, obs)])
        )
    return out


def _factor_loglik(Soo: np.ndarray, resid: np.ndarray):
    """Unridged Cholesky of Soo (None if it fails) and sum of log N(r; 0, Soo).

    `resid` holds one residual per row.  Without a factor the log-density
    comes from slogdet/solve, and is -inf when the sign is not positive.
    """
    rows, n = resid.shape
    try:
        factor = linalg.cho_factor(Soo, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        factor = None
    if factor is not None:
        logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
        z = linalg.solve_triangular(
            factor[0], resid.T, lower=True, check_finite=False
        )
        quad = np.sum(z * z)
    else:
        sign, logdet = np.linalg.slogdet(Soo)
        if sign <= 0:
            return None, -np.inf
        quad = np.sum(resid.T * np.linalg.solve(Soo, resid.T))
    return factor, -0.5 * (rows * (n * np.log(2 * np.pi) + logdet) + quad)


def _observed_loglik(patterns, mu: np.ndarray, Sigma: np.ndarray) -> float:
    """Sum over rows of log N(x_obs; mu_obs, Sigma_obs_obs)."""
    return sum(
        _factor_loglik(Sigma[np.ix_(obs, obs)], x_obs - mu[obs])[1]
        for obs, _, _, x_obs in patterns
    )


def _e_step(m: ScoreMatrix, patterns, mu, Sigma, ridge):
    """Conditional expectations at (mu, Sigma), one pattern at a time.

    Returns the completed matrix, the summed conditional covariance of the
    missing cells, and the observed-data log-likelihood at (mu, Sigma).
    The gain uses the unridged Cholesky of the observed block, retrying
    with `ridge` on the diagonal if that fails.
    """
    completed = np.where(m.mask, m.values, 0.0)
    correction = np.zeros_like(Sigma)
    loglik = 0.0
    for obs, mis, rows, x_obs in patterns:
        Soo = Sigma[np.ix_(obs, obs)]
        resid = x_obs - mu[obs]
        factor, ll = _factor_loglik(Soo, resid)
        loglik += ll
        if mis.size == 0:
            continue
        if factor is None:
            try:
                factor = linalg.cho_factor(
                    Soo + ridge * np.eye(obs.size), lower=True,
                    check_finite=False,
                )
            except np.linalg.LinAlgError:
                raise NumericalError(
                    f"observed block for row {m.model_names[rows[0]]!r} "
                    "is singular even with ridge"
                ) from None
        Smo = Sigma[np.ix_(mis, obs)]
        gain = linalg.cho_solve(factor, Smo.T, check_finite=False).T
        completed[np.ix_(rows, mis)] = mu[mis] + resid @ gain.T
        cond_cov = Sigma[np.ix_(mis, mis)] - gain @ Smo.T
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
        correction[np.ix_(mis, mis)] += rows.size * cond_cov
    return completed, correction, loglik


def em_fit(m: ScoreMatrix, cfg: EmConfig = EmConfig()) -> GaussianModel:
    """EM for (mu, Sigma) under MAR missingness.

    Initializes from mean_missing and the PSD-projected pairwise
    covariance (identity-shrunk when M < N), then alternates conditional
    imputation with completed-data moment updates plus the
    conditional-covariance correction, projecting to the PSD cone each
    iteration.  Stops on relative Frobenius change of Sigma or max_iter.

    The E-step sweeps the distinct missingness patterns, not the rows:
    rows that miss the same cells share one Cholesky factor of their
    observed block per iteration, and all their conditional means come
    from one matrix product.  The same factor gives the observed-data
    log-likelihood at the E-step's inputs, so iteration t's E-step yields
    the log-likelihood of the estimate from iteration t - 1; one last
    pass after the loop gives that of the returned estimate.
    `loglik_trace[t - 1]` is the log-likelihood after iteration t, before
    any final shrinkage.
    """
    M, N = m.shape
    rank_deficient = M < N
    sparse = m.observed_fraction() < 0.5
    floor = cfg.psd_floor
    if floor is None:
        floor = 1e-3 if (rank_deficient or sparse) else 1e-10

    mu = mean_missing(m)
    Sigma = psd_project(pairwise_cov(m, mu), floor)
    if cfg.shrink == "auto" and rank_deficient:
        Sigma = shrink_identity(Sigma, M, N)

    patterns = _missingness_patterns(m)
    loglik_trace: list[float] = []
    clamped = False
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        completed, correction, loglik = _e_step(m, patterns, mu, Sigma, cfg.ridge)
        if it > 1:
            loglik_trace.append(loglik)

        mu_new = completed.mean(axis=0)
        Bc = completed - mu_new
        Sigma_new = (Bc.T @ Bc + correction) / M
        Sigma_new = 0.5 * (Sigma_new + Sigma_new.T)
        projected = psd_project(Sigma_new, floor)
        if np.max(np.abs(projected - Sigma_new)) > 1e-12 * max(
            1.0, np.max(np.abs(Sigma_new))
        ):
            clamped = True
        Sigma_new = projected

        denom = np.linalg.norm(Sigma, "fro")
        change = np.linalg.norm(Sigma_new - Sigma, "fro") / max(denom, 1e-300)
        mu, Sigma = mu_new, Sigma_new
        if change < cfg.rel_tol:
            converged = True
            break
    loglik_trace.append(_observed_loglik(patterns, mu, Sigma))

    if cfg.shrink == "auto" and rank_deficient:
        Sigma = shrink_identity(Sigma, M, N)

    return GaussianModel(
        mu, Sigma, "em", em_iterations=it, converged=converged,
        loglik_trace=tuple(loglik_trace), clamped=clamped,
    )
