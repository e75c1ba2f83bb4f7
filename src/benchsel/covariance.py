"""Gaussian model estimation: closed form and EM.

Estimates (mu, Sigma) over benchmarks from complete or incomplete score
matrices, with PSD projection, identity shrinkage for rank-deficient
regimes, and correlation conversion; EM starts from the pairwise-complete
covariance.  `fit_model` is the one path from raw scores to a model:
(logit ->) standardize -> fit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import linalg

from benchsel.errors import DataError, NumericalError
from benchsel.score_matrix import (
    ColumnStats,
    LogitParams,
    ScoreMatrix,
    column_stats,
    logit_params,
    logit_transform,
    standardize,
)

_SYM_TOL = 1e-8
# Added to an E-step's observed block when its plain Cholesky fails.
_EM_RIDGE = 1e-8


@dataclass(frozen=True)
class GaussianModel:
    """Mean and symmetric PSD covariance over benchmarks."""

    mean: np.ndarray
    cov: np.ndarray
    estimator: str  # {"full", "em"}
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
    converged when, over one cycle, both the relative Frobenius change of
    Sigma and the relative change of the observed-data log-likelihood are
    below rel_tol.
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
    patterns, first, inverse = np.unique(
        m.mask, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.ravel()
    out = []
    for k in np.argsort(first):
        obs = np.flatnonzero(patterns[k])
        mis = np.flatnonzero(~patterns[k])
        rows = np.flatnonzero(inverse == k)
        out.append(_Pattern(
            obs, mis, rows, m.values[np.ix_(rows, obs)], np.ix_(obs, obs),
            np.ix_(mis, obs), np.ix_(mis, mis), np.ix_(rows, mis),
        ))
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


def _e_step(m: ScoreMatrix, patterns, mu, Sigma):
    """Conditional expectations at (mu, Sigma), one pattern at a time.

    Returns the completed matrix, the summed conditional covariance of the
    missing cells, and the observed-data log-likelihood at (mu, Sigma).
    The gain uses the unridged Cholesky of the observed block, retrying
    with _EM_RIDGE on the diagonal if that fails.
    """
    completed = np.where(m.mask, m.values, 0.0)
    correction = np.zeros_like(Sigma)
    loglik = 0.0
    for pat in patterns:
        Soo = Sigma[pat.oo]
        resid = pat.x_obs - mu[pat.obs]
        factor, ll = _factor_loglik(Soo, resid)
        loglik += ll
        if pat.mis.size == 0:
            continue
        if factor is None:
            try:
                factor = linalg.cho_factor(
                    Soo + _EM_RIDGE * np.eye(pat.obs.size), lower=True,
                    check_finite=False,
                )
            except np.linalg.LinAlgError:
                raise NumericalError(
                    f"observed block for row {m.model_names[pat.rows[0]]!r} "
                    "is singular even with ridge"
                ) from None
        Smo = Sigma[pat.mo]
        gain = linalg.cho_solve(factor, Smo.T, check_finite=False).T
        completed[pat.rows_mis] = mu[pat.mis] + resid @ gain.T
        cond_cov = Sigma[pat.mm] - gain @ Smo.T
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
        correction[pat.mm] += pat.rows.size * cond_cov
    return completed, correction, loglik


def _em_map(m: ScoreMatrix, patterns, mu, Sigma, floor):
    """One plain EM update: E-step, completed-data moments, PSD projection.

    Returns (mu', Sigma', observed-data log-likelihood at (mu, Sigma),
    whether the projection altered the M-step's Sigma).
    """
    completed, correction, loglik = _e_step(m, patterns, mu, Sigma)
    mu_new = completed.mean(axis=0)
    Bc = completed - mu_new
    Sigma_new = (Bc.T @ Bc + correction) / m.shape[0]
    Sigma_new = 0.5 * (Sigma_new + Sigma_new.T)
    projected = psd_project(Sigma_new, floor)
    clamped = np.max(np.abs(projected - Sigma_new)) > 1e-12 * max(
        1.0, np.max(np.abs(Sigma_new))
    )
    return mu_new, projected, float(loglik), bool(clamped)


def em_fit(m: ScoreMatrix, cfg: EmConfig = EmConfig()) -> GaussianModel:
    """EM for (mu, Sigma) under MAR missingness, accelerated by SQUAREM.

    Initializes from mean_missing and the PSD-projected pairwise
    covariance (identity-shrunk when M < N).  Every projection clamps
    eigenvalues at 1e-3 for rank-deficient (M < N) or sparse (< 50%
    observed) inputs, at 1e-10 otherwise.  The EM map `_em_map`
    alternates conditional imputation with completed-data moment updates
    plus the conditional-covariance correction, projecting to the PSD
    cone.  The E-step sweeps the distinct missingness patterns, not the
    rows: rows that miss the same cells share one Cholesky factor of their
    observed block, which also gives the observed-data log-likelihood at
    the map's input.

    Each cycle is one SQUAREM step (Varadhan & Roland 2008, scheme S3):
    two maps from theta0 give theta1 and theta2; with r and v the first
    and second differences of the stacked (mu, Sigma), the step length is
    alpha = -|r|/|v|, capped at -1, and the extrapolated point
    theta0 - 2 alpha r + alpha^2 v is projected to the PSD cone and
    stabilized by a third map.  When the extrapolated point's
    log-likelihood is below theta1's, the cycle falls back to theta2, the
    second plain iterate.  Every accepted iterate is an EM map's output
    from a point at least as likely as the cycle's start, so the
    log-likelihood never decreases while no projection clamps.  As in
    Varadhan's reference implementation, |alpha| is also bounded by a step
    limit that starts at 1, grows fourfold when a step at the limit is
    accepted and shrinks fourfold when one is rejected; without it, a
    slowly drifting fit extrapolates too far and falls back cycle after
    cycle.

    `em_iterations` counts cycles (three EM maps each).  The fit has
    `converged` when, over one cycle, both the relative Frobenius change
    of Sigma and the relative change of the log-likelihood are below
    `rel_tol`; the latter compares the cycle's start with the point its
    accepted iterate was mapped from.  `loglik_trace[c - 1]` is the
    log-likelihood of cycle c's accepted iterate, before any final
    shrinkage: the next cycle's first E-step gives it, and one last
    E-step after the loop gives that of the returned estimate.  `clamped`
    reports projections of M-step outputs, not of extrapolated points.
    """
    M, N = m.shape
    rank_deficient = M < N
    floor = 1e-3 if (rank_deficient or m.observed_fraction() < 0.5) else 1e-10

    mu = mean_missing(m)
    Sigma = psd_project(pairwise_cov(m, mu), floor)
    if rank_deficient:
        Sigma = shrink_identity(Sigma, M, N)

    patterns = _missingness_patterns(m)
    loglik_trace: list[float] = []
    clamped = False
    converged = False
    step_max = 1.0
    it = 0
    for it in range(1, cfg.max_iter + 1):
        mu1, S1, ll0, c1 = _em_map(m, patterns, mu, Sigma, floor)
        if it > 1:
            loglik_trace.append(ll0)
        mu2, S2, ll1, c2 = _em_map(m, patterns, mu1, S1, floor)
        r_mu, r_S = mu1 - mu, S1 - Sigma
        v_mu, v_S = mu2 - mu1 - r_mu, S2 - S1 - r_S
        nr = np.sqrt(r_mu @ r_mu + np.sum(r_S * r_S))
        nv = np.sqrt(v_mu @ v_mu + np.sum(v_S * v_S))
        alpha = -min(max(nr / nv, 1.0), step_max) if nv > 0 else -1.0
        mu_x = mu - 2 * alpha * r_mu + alpha**2 * v_mu
        S_x = Sigma - 2 * alpha * r_S + alpha**2 * v_S
        mu3, S3, ll_x, c3 = _em_map(
            m, patterns, mu_x, psd_project(S_x, floor), floor
        )
        clamped = clamped or c1 or c2 or c3
        if ll_x >= ll1:
            mu_new, Sigma_new, ll_new = mu3, S3, ll_x
            if -alpha == step_max:
                step_max *= 4.0
        else:
            mu_new, Sigma_new, ll_new = mu2, S2, ll1
            if -alpha == step_max:
                step_max = max(step_max / 4.0, 1.0)

        denom = np.linalg.norm(Sigma, "fro")
        change = np.linalg.norm(Sigma_new - Sigma, "fro") / max(denom, 1e-300)
        ll_change = abs(ll_new - ll0) / max(abs(ll0), 1e-300)
        mu, Sigma = mu_new, Sigma_new
        if change < cfg.rel_tol and ll_change < cfg.rel_tol:
            converged = True
            break
    loglik_trace.append(_e_step(m, patterns, mu, Sigma)[2])

    if rank_deficient:
        Sigma = shrink_identity(Sigma, M, N)

    return GaussianModel(
        mu, Sigma, "em", em_iterations=it, converged=converged,
        loglik_trace=tuple(loglik_trace), clamped=clamped,
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


def fit_model(m: ScoreMatrix, estimator: str = "auto", logit: bool = False,
              epsilon: float = 1e-3, em: EmConfig = EmConfig()) -> FittedModel:
    """(logit ->) standardize -> fit, with every transform taken from `m`.

    estimator "auto" uses the closed form on a complete matrix and EM
    otherwise; "full" requires a complete matrix; "em" always runs EM.
    """
    if estimator not in ("auto", "full", "em"):
        raise DataError("estimator must be auto, full, or em")
    lp = logit_params(m, epsilon) if logit else None
    work = logit_transform(m, lp) if logit else m
    stats = column_stats(work)
    std = standardize(work, stats)
    complete = bool(std.mask.all())
    if estimator == "full" or (estimator == "auto" and complete):
        if not complete:
            raise DataError("estimator 'full' requires a complete matrix")
        model = estimate_full(std)
    else:
        model = em_fit(std, em)
    return FittedModel(model, stats, lp)
