"""Gaussian model estimation: closed form and EM.

Estimates (mu, Sigma) over benchmarks from complete or incomplete score
matrices, with PSD projection and correlation conversion.  EM starts from
the pairwise-complete covariance and finds the posterior mode under a
conjugate prior on Sigma, which keeps every covariance it touches
positive definite.  `fit_model` is the one path from raw scores to a
model: (logit ->) standardize -> fit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from benchsel.errors import DataError, NumericalError
from benchsel.score_matrix import (
    ColumnStats,
    LogitParams,
    ScoreMatrix,
    _row_groups,
    column_stats,
    logit_params,
    logit_transform,
    standardize,
)

_SYM_TOL = 1e-8
# Weight of em_fit's prior on Sigma, in pseudo-observations.
_PRIOR_NU = 1.0


@dataclass(frozen=True)
class GaussianModel:
    """Mean and symmetric PSD covariance over benchmarks."""

    mean: np.ndarray
    cov: np.ndarray
    estimator: str  # {"full", "em"}
    em_iterations: int = 0
    converged: bool = True
    loglik_trace: tuple[float, ...] = ()
    clamped: bool = False  # read from a loaded model; no fit sets it

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise DataError("covariance shape does not match mean length")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise DataError("mean and covariance must be finite")
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
        try:
            d = json.loads(doc)
            mean = np.asarray(d["mean"], dtype=float)
            cov = np.asarray(d["cov"], dtype=float).reshape(mean.size, mean.size)
            trace = tuple(float(x) for x in d.get("loglik_trace", ()))
            estimator = d["estimator"]
        except KeyError as exc:
            raise DataError(f"model JSON has no {exc.args[0]!r} field") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed model JSON: {exc}") from None
        return cls(mean, cov, estimator, d.get("em_iterations", 0),
                   d.get("converged", True), trace, d.get("clamped", False))


@dataclass(frozen=True)
class EmConfig:
    """EM iteration controls.

    max_iter caps the SQUAREM cycles, three EM steps each.  A fit has
    converged when the relative Frobenius change of Sigma over one cycle
    is below rel_tol.
    """

    max_iter: int = 500
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iter < 1:
            raise DataError("max_iter must be >= 1")
        if self.rel_tol <= 0:
            raise DataError("rel_tol must be > 0")


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


class _Pattern(NamedTuple):
    """One distinct mask row: its observed and missing columns, its rows in
    file order, their observed values, and the np.ix_ gathers of its Sigma
    blocks and of its missing cells, built once per fit."""

    obs: np.ndarray
    mis: np.ndarray
    rows: np.ndarray
    x_obs: np.ndarray
    oo: tuple
    mo: tuple
    mm: tuple
    rows_mis: tuple


def _missingness_patterns(m: ScoreMatrix) -> list[_Pattern]:
    """Distinct mask rows, ordered by the first row that has each."""
    out = []
    for pattern, rows in _row_groups(m.mask):
        obs, mis = np.flatnonzero(pattern), np.flatnonzero(~pattern)
        out.append(_Pattern(
            obs, mis, rows, m.values[np.ix_(rows, obs)], np.ix_(obs, obs),
            np.ix_(mis, obs), np.ix_(mis, mis), np.ix_(rows, mis),
        ))
    return out


# scipy.linalg.lapack, bound by the first _cholesky call: importing it
# takes most of `import benchsel`, and dpotrs and dtrtrs only ever run on
# a factor that _cholesky returned.
_lapack = None


def _cholesky(a: np.ndarray):
    """Lower Cholesky factor of the finite symmetric `a` by LAPACK dpotrf,
    or None when `a` is not positive definite.

    The factor is the one scipy.linalg.cho_factor(a, lower=True) returns,
    upper triangle left as in `a`, without its per-call checks: pass it
    to _cho_solve or _logdet_quad.
    """
    global _lapack
    if _lapack is None:
        from scipy.linalg import lapack as _lapack
    c, info = _lapack.dpotrf(a, lower=1, clean=0)
    return c if info == 0 else None


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """S^-1 rhs by LAPACK dpotrs, from the lower Cholesky factor of S."""
    return _lapack.dpotrs(factor, rhs, lower=1)[0]


def _logdet_quad(factor: np.ndarray, rhs: np.ndarray):
    """log det S and the sum of r' S^-1 r over the columns r of `rhs`,
    from the lower Cholesky factor of S."""
    z = _lapack.dtrtrs(factor, rhs, lower=1)[0]
    return 2.0 * np.sum(np.log(np.diag(factor))), np.sum(z * z)


def _e_step(m: ScoreMatrix, patterns, mu, Sigma):
    """Conditional expectations at (mu, Sigma), one pattern at a time.

    Returns the completed matrix, the summed conditional covariance of the
    missing cells, and the observed-data log-likelihood at (mu, Sigma).
    An observed block that fails Cholesky raises NumericalError naming
    the first row, in file order, that observes it.
    """
    completed = np.where(m.mask, m.values, 0.0)
    correction = np.zeros_like(Sigma)
    loglik = 0.0
    for pat in patterns:
        factor = _cholesky(Sigma[pat.oo])
        if factor is None:
            raise NumericalError(
                f"observed block for row {m.model_names[pat.rows[0]]!r} "
                "is singular"
            )
        resid = pat.x_obs - mu[pat.obs]
        logdet, quad = _logdet_quad(factor, resid.T)
        loglik -= 0.5 * (
            pat.rows.size * (pat.obs.size * np.log(2 * np.pi) + logdet) + quad
        )
        if pat.mis.size == 0:
            continue
        Smo = Sigma[pat.mo]
        gain = _cho_solve(factor, Smo.T).T
        completed[pat.rows_mis] = mu[pat.mis] + resid @ gain.T
        cond_cov = Sigma[pat.mm] - gain @ Smo.T
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
        correction[pat.mm] += pat.rows.size * cond_cov
    return completed, correction, loglik


def _log_prior(Sigma: np.ndarray, D: np.ndarray) -> float:
    """The prior's term -nu/2 (log det Sigma + tr(Sigma^-1 diag(D))), from
    one Cholesky of Sigma."""
    factor = _cholesky(Sigma)
    if factor is None:
        raise NumericalError("EM covariance is singular")
    logdet, trace = _logdet_quad(factor, np.diag(np.sqrt(D)))
    return -0.5 * _PRIOR_NU * (logdet + trace)


def _em_map(m: ScoreMatrix, patterns, mu, Sigma, D):
    """One EM update under the prior: E-step, then the posterior-mode
    M-step Sigma' = (scatter + correction + nu diag(D)) / (M + nu).

    Returns (mu', Sigma', penalized objective at (mu, Sigma)).
    """
    completed, correction, loglik = _e_step(m, patterns, mu, Sigma)
    mu_new = completed.mean(axis=0)
    Bc = completed - mu_new
    Sigma_new = Bc.T @ Bc + correction + np.diag(_PRIOR_NU * D)
    Sigma_new /= m.shape[0] + _PRIOR_NU
    return (mu_new, 0.5 * (Sigma_new + Sigma_new.T),
            float(loglik + _log_prior(Sigma, D)))


def em_fit(m: ScoreMatrix, cfg: EmConfig = EmConfig()) -> GaussianModel:
    """EM for the posterior mode of (mu, Sigma) under MAR missingness,
    accelerated by SQUAREM.

    mu has a flat prior; Sigma has the conjugate (inverse-Wishart-type)
    prior p(Sigma) ~ exp(-nu/2 (log det Sigma + tr(Sigma^-1 diag(D)))),
    with nu = 1 pseudo-observation and D the diagonal of the starting
    pairwise covariance: the identity on standardized data, and a target
    that scales with the columns on raw data.  The fit maximizes the
    penalized objective, the observed-data log-likelihood plus that log
    prior; unlike the likelihood alone, it is bounded above however few
    cells the rows observe (Fraley & Raftery 2007; Schafer 1997, ch. 5).

    The fit starts from mean_missing and the pairwise covariance, PSD-
    projected to the floor nu min(D) / (M + nu).  The EM map `_em_map`
    alternates conditional imputation with the M-step
    Sigma' = (scatter + correction + nu diag(D)) / (M + nu), whose
    eigenvalues are all at least that floor, so every covariance EM
    touches is positive definite.  The E-step sweeps the distinct
    missingness patterns, not the rows: rows that miss the same cells
    share one Cholesky factor of their observed block, which also gives
    the observed-data log-likelihood at the map's input.

    Each cycle is one SQUAREM step (Varadhan & Roland 2008, scheme S3):
    two maps from theta0 give theta1 and theta2; with r and v the first
    and second differences of the stacked (mu, Sigma), the step length is
    alpha = -|r|/|v|, capped at -1, and the extrapolated point
    theta0 - 2 alpha r + alpha^2 v is projected to the floor and
    stabilized by a third map.  When the extrapolated point's objective
    is below theta1's, the cycle falls back to theta2, the second plain
    iterate.  Every accepted iterate is an EM map's output from a point
    at least as good as the cycle's start, so the objective never
    decreases.  |alpha| has no upper limit: a step that overshoots costs
    its cycle the extrapolation, though on a slowly drifting fit that can
    repeat for many cycles.

    `em_iterations` counts cycles (three EM maps each).  The fit has
    `converged` when the relative Frobenius change of Sigma over one
    cycle is below `rel_tol`.  `loglik_trace[c - 1]` is the
    penalized objective of cycle c's accepted iterate: the next cycle's
    first E-step gives it, and one last E-step after the loop gives that
    of the returned estimate.  A complete matrix gives the closed form
    (Bc'Bc + nu diag(D)) / (M + nu) in at most two cycles.
    """
    mu = mean_missing(m)
    Sigma = pairwise_cov(m, mu)
    D = np.diag(Sigma).copy()
    floor = _PRIOR_NU * D.min() / (m.shape[0] + _PRIOR_NU)
    Sigma = psd_project(Sigma, floor)

    patterns = _missingness_patterns(m)
    loglik_trace: list[float] = []
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        mu1, S1, ll0 = _em_map(m, patterns, mu, Sigma, D)
        if it > 1:
            loglik_trace.append(ll0)
        mu2, S2, ll1 = _em_map(m, patterns, mu1, S1, D)
        r_mu, r_S = mu1 - mu, S1 - Sigma
        v_mu, v_S = mu2 - mu1 - r_mu, S2 - S1 - r_S
        nr = np.sqrt(r_mu @ r_mu + np.sum(r_S * r_S))
        nv = np.sqrt(v_mu @ v_mu + np.sum(v_S * v_S))
        alpha = -max(nr / nv, 1.0) if nv > 0 else -1.0
        mu_x = mu - 2 * alpha * r_mu + alpha**2 * v_mu
        S_x = Sigma - 2 * alpha * r_S + alpha**2 * v_S
        mu3, S3, ll_x = _em_map(m, patterns, mu_x, psd_project(S_x, floor), D)
        mu_new, Sigma_new = (mu3, S3) if ll_x >= ll1 else (mu2, S2)

        denom = np.linalg.norm(Sigma, "fro")
        change = np.linalg.norm(Sigma_new - Sigma, "fro") / max(denom, 1e-300)
        mu, Sigma = mu_new, Sigma_new
        if change < cfg.rel_tol:
            converged = True
            break
    loglik_trace.append(
        _e_step(m, patterns, mu, Sigma)[2] + _log_prior(Sigma, D)
    )

    return GaussianModel(
        mu, Sigma, "em", em_iterations=it, converged=converged,
        loglik_trace=tuple(loglik_trace),
    )


@dataclass(frozen=True)
class FittedModel:
    """A model in standardized (optionally logit) space and its transforms."""

    model: GaussianModel
    stats: ColumnStats
    logit: LogitParams | None = None

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Raw scores -> model space; NaN cells stay NaN."""
        values = np.asarray(values, dtype=float)
        if self.logit is not None:
            values = self.logit.forward(values)
        return (values - self.stats.means) / self.stats.stds

    def decode(self, values: np.ndarray) -> np.ndarray:
        """Model space -> raw scores: the inverse of encode."""
        raw = np.asarray(values, dtype=float) * self.stats.stds + self.stats.means
        return self.logit.inverse(raw) if self.logit is not None else raw

    def decode_sd(self, values: np.ndarray, sd: np.ndarray) -> np.ndarray:
        """Model-space sds at `values` -> raw-score sds by the delta method:
        sd times the slope of decode at `values`."""
        sd = np.asarray(sd, dtype=float) * self.stats.stds
        if self.logit is not None:
            raw = self.decode(values)
            sd = sd * raw * (1.0 - raw / self.logit.col_max)
        return sd


def fit_model(m: ScoreMatrix, *, logit: bool = False, epsilon: float = 1e-3,
              em: EmConfig = EmConfig()) -> FittedModel:
    """(logit ->) standardize -> fit, with every transform taken from `m`:
    the closed form on a complete matrix and EM otherwise."""
    lp = logit_params(m, epsilon) if logit else None
    work = logit_transform(m, lp) if logit else m
    stats = column_stats(work)
    std = standardize(work, stats)
    model = estimate_full(std) if std.mask.all() else em_fit(std, em)
    return FittedModel(model, stats, lp)
