"""Gaussian model estimation by EM, and the sample-covariance reference.

Estimates (mu, Sigma) over benchmarks from complete or incomplete score
matrices, with PSD projection and correlation conversion.  EM finds the
posterior mode under a conjugate prior on Sigma, which keeps every
covariance it touches positive definite, in closed form on a complete
matrix.  `fit_model` is the one path from raw scores to a model:
(logit ->) standardize -> em_fit.
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
    _own,
    _require_two_cells,
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
        _own(self, ("mean",), mean=mean, cov=0.5 * (cov + cov.T))

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
        n = self.max_iter
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise DataError("max_iter must be an integer >= 1")
        if not self.rel_tol > 0:  # rejects NaN too
            raise DataError("rel_tol must be > 0")


def estimate_full(m: ScoreMatrix) -> GaussianModel:
    """Closed-form moments for a fully observed matrix (1/(M-1) covariance):
    a reference that no command fits with, as fit_model takes em_fit."""
    if not m.mask.all():
        raise DataError("estimate_full requires a fully observed matrix")
    _require_two_cells(m)
    B = m.values
    M = B.shape[0]
    mu = B.mean(axis=0)
    Bc = B - mu
    cov = Bc.T @ Bc / (M - 1)
    return GaussianModel(mu, 0.5 * (cov + cov.T), "full")


def mean_missing(m: ScoreMatrix) -> np.ndarray:
    """Per-column mean over observed entries, two or more per column."""
    _require_two_cells(m)
    vals = np.where(m.mask, m.values, 0.0)
    return vals.sum(axis=0) / m.mask.sum(axis=0)


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


class _Stack(NamedTuple):
    """The G distinct mask rows that miss k cells: their (G, k) missing
    columns, each row's pattern, each pattern's row count, the flat N x N
    indices of their (G, k, k) blocks, and the gather of the rows' cells."""

    mis: np.ndarray
    of_row: np.ndarray
    counts: np.ndarray
    mm: np.ndarray
    rows_mis: tuple


def _missingness_stacks(m: ScoreMatrix) -> list[_Stack]:
    """The distinct mask rows that miss a cell, stacked by how many they
    miss, fewest first, each stack in the order of its first rows."""
    groups = [(np.flatnonzero(~p), rows) for p, rows in _row_groups(m.mask)]
    out = []
    for k in sorted({mis.size for mis, _ in groups} - {0}):
        mis, rows = zip(*(g for g in groups if g[0].size == k))
        mis, counts = np.array(mis), np.array([r.size for r in rows])
        of_row = np.repeat(np.arange(len(mis)), counts)
        out.append(_Stack(mis, of_row, counts,
                          mis[:, :, None] * m.shape[1] + mis[:, None],
                          (np.concatenate(rows)[:, None], mis[of_row])))
    return out


# scipy.linalg.lapack, bound by the first _cholesky call: importing it
# takes most of `import benchsel`, and every other LAPACK call here runs
# after _cholesky has returned a factor.
_lapack = None


def _cholesky(a: np.ndarray):
    """Lower Cholesky factor of the finite symmetric `a` by LAPACK dpotrf,
    or None when `a` is not positive definite.

    The factor is the one scipy.linalg.cho_factor(a, lower=True) returns,
    upper triangle left as in `a`, without its per-call checks: pass it
    to _solve_lower or _cho_inverse.
    """
    global _lapack
    if _lapack is None:
        from scipy.linalg import lapack as _lapack
    c, info = _lapack.dpotrf(a, lower=1, clean=0)
    return c if info == 0 else None


def _solve_lower(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^-1 rhs by LAPACK dtrtrs; rhs when L is empty, which dtrtrs rejects."""
    return _lapack.dtrtrs(factor, rhs, lower=1)[0] if len(factor) else rhs


def _cho_inverse(factor: np.ndarray) -> np.ndarray:
    """S^-1 by LAPACK dpotri, from the lower Cholesky factor of S: its
    lower triangle, mirrored."""
    inv = _lapack.dpotri(factor, lower=1)[0]
    return np.where(np.tri(len(inv), dtype=bool), inv, inv.T)


def _cholesky_pivots(a: np.ndarray) -> np.ndarray:
    """The pivots of the symmetric `a`'s Cholesky factorization in its own
    order, NaN from the first one that is not positive on."""
    c, info = _lapack.dpotrf(a, lower=1, clean=0)
    pivots = np.diag(c) ** 2
    pivots[info - 1 if info else len(a):] = np.nan
    return pivots


def _stacked_cholesky(blocks: np.ndarray) -> np.ndarray:
    """Cholesky factors of a (G, k, k) stack; NumericalError if one fails."""
    try:
        return np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        raise NumericalError("EM covariance is singular") from None


def _em_map(m: ScoreMatrix, stacks, mu, Sigma, D):
    """One EM update under the prior: conditional expectations at
    (mu, Sigma) in precision form (the sweep identity; Little & Rubin
    2002, ch. 11), one stack at a time, then the posterior-mode M-step
    Sigma' = (scatter + correction + nu diag(D)) / (M + nu).

    Returns (mu', Sigma', penalized objective at (mu, Sigma)).  One
    Cholesky factor of Sigma gives log det Sigma, read by every row and
    the prior, and the precision P.  Rows missing the cells m need only
    P_mm: P_mm^-1 is their conditional covariance, mu_m - t_m P_mm^-1
    their means for t = r P, r the observed residual, and log det Sigma_oo
    = log det Sigma + log det P_mm.  Each stack factors and inverts its
    blocks P_mm in one call each; a failure raises Sigma's NumericalError.
    With S the M-step's scatter and d = mu' - mu, the completed rows'
    quadratic forms sum to tr(P S) + M d'Pd; the prior's is nu diag(P)'D.
    """
    factor = _cholesky(Sigma)
    if factor is None:
        raise NumericalError("EM covariance is singular")
    logdet = 2.0 * np.sum(np.log(np.diag(factor)))
    P = _cho_inverse(factor)
    t = np.where(m.mask, m.values - mu, 0.0) @ P
    completed = np.where(m.mask, m.values, 0.0)
    correction = np.zeros(Sigma.size)
    objective = -0.5 * ((len(completed) + _PRIOR_NU) * logdet
                        + m.mask.sum() * np.log(2 * np.pi))
    for s in stacks:
        blocks = _stacked_cholesky(P.take(s.mm))
        objective -= s.counts @ np.log(np.diagonal(blocks, 0, 1, 2)).sum(1)
        inv = np.linalg.inv(blocks)
        cond_cov = inv.transpose(0, 2, 1) @ inv
        completed[s.rows_mis] = mu[s.rows_mis[1]] - np.einsum(
            "rk,rkl->rl", t[s.rows_mis], cond_cov[s.of_row])
        np.add.at(correction, s.mm, s.counts[:, None, None] * cond_cov)
    mu_new, Sigma_new, S = _m_step(completed, correction.reshape(P.shape), D)
    d = mu_new - mu
    quad = (np.sum(P * S) + len(completed) * (d @ P @ d)
            + _PRIOR_NU * (np.diag(P) @ D))
    return mu_new, Sigma_new, float(objective - 0.5 * quad)


def _m_step(completed, correction, D):
    """The M-step's mu, Sigma and scatter Bc'Bc from the completed matrix."""
    mu = completed.mean(axis=0)
    Bc = completed - mu
    scatter = Bc.T @ Bc
    Sigma = scatter + correction + np.diag(_PRIOR_NU * D)
    Sigma /= len(completed) + _PRIOR_NU
    return mu, 0.5 * (Sigma + Sigma.T), scatter


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
    incomplete missingness patterns, not the rows, stacked by how many
    cells they miss: the patterns that miss k cells share one stacked
    Cholesky factorization of their blocks P_mm of the precision
    P = Sigma^-1, for their conditional moments and log det; one factor
    of Sigma per map gives P, and P with the M-step's scatter gives every
    row's quadratic form in the penalized objective at the map's input.

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
    first map gives it, and one last map after the loop gives that of
    the returned estimate.  A complete matrix gives the maps' common
    fixed point (Bc'Bc + nu diag(D)) / (M + nu) at once: no cycle, no trace.
    """
    mu = mean_missing(m)
    if m.mask.all():
        return GaussianModel(
            *_m_step(m.values, 0.0, m.values.var(axis=0, ddof=1))[:2], "em")
    Sigma = pairwise_cov(m, mu)
    D = np.diag(Sigma).copy()
    floor = _PRIOR_NU * D.min() / (m.shape[0] + _PRIOR_NU)
    Sigma = psd_project(Sigma, floor)

    stacks = _missingness_stacks(m)
    loglik_trace: list[float] = []
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        mu1, S1, ll0 = _em_map(m, stacks, mu, Sigma, D)
        if it > 1:
            loglik_trace.append(ll0)
        mu2, S2, ll1 = _em_map(m, stacks, mu1, S1, D)
        r_mu, r_S = mu1 - mu, S1 - Sigma
        v_mu, v_S = mu2 - mu1 - r_mu, S2 - S1 - r_S
        nr = np.sqrt(r_mu @ r_mu + np.sum(r_S * r_S))
        nv = np.sqrt(v_mu @ v_mu + np.sum(v_S * v_S))
        alpha = -max(nr / nv, 1.0) if nv > 0 else -1.0
        mu_x = mu - 2 * alpha * r_mu + alpha**2 * v_mu
        S_x = Sigma - 2 * alpha * r_S + alpha**2 * v_S
        mu3, S3, ll_x = _em_map(m, stacks, mu_x, psd_project(S_x, floor), D)
        mu_new, Sigma_new = (mu3, S3) if ll_x >= ll1 else (mu2, S2)

        denom = np.linalg.norm(Sigma, "fro")
        change = np.linalg.norm(Sigma_new - Sigma, "fro") / max(denom, 1e-300)
        mu, Sigma = mu_new, Sigma_new
        if change < cfg.rel_tol:
            converged = True
            break
    loglik_trace.append(_em_map(m, stacks, mu, Sigma, D)[2])

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


def fit_model(m: ScoreMatrix, *, logit: bool = False,
              em: EmConfig = EmConfig()) -> FittedModel:
    """(logit ->) standardize -> em_fit, every transform taken from `m`."""
    _require_two_cells(m)
    lp = logit_params(m) if logit else None
    work = logit_transform(m, lp) if logit else m
    stats = column_stats(work)
    return FittedModel(em_fit(standardize(work, stats), em), stats, lp)
