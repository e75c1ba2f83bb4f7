"""Greedy benchmark subset selection and spectral diagnostics.

Every greedy objective is one forward pivoted-Cholesky recursion with
its own pivot rule: entropy takes the largest residual diagonal, mutual
information runs it on Sigma and its precision with shared pivots, and
budgeted entropy takes the best shifted gain-to-cost ratio.  Along a
given order, `path_metrics` gives the entropy, MI and residual trace of
every prefix.  Ties break lexicographically: largest gain, then lowest
index, so runs are fully deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from benchsel.errors import DataError, NumericalError

LOG_2PIE = math.log(2 * math.pi * math.e)

# A pick is refused when its residual variance falls below this times
# the largest initial diagonal entry (numerical-rank exhaustion).
DEGENERACY_REL_FLOOR = 1e-12

# Eigenvalue clamp for the precision and log-determinants of a singular Sigma.
PSD_FLOOR = 1e-10


@dataclass(frozen=True)
class SelectionResult:
    """Ordered selection with per-step gains and residual diagnostics."""

    order: tuple[int, ...]
    gains: tuple[float, ...]       # per-step marginal gains, nats
    residual_trace: tuple[float, ...]  # length len(order)+1
    objective: str                 # {entropy, mi, budgeted_entropy, random}
    seed: int | None = None
    truncated: bool = False
    total_cost: float | None = None   # budgeted only

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise DataError("selection order contains duplicates")

    def to_dict(self, benchmark_names) -> dict:
        d = {
            "objective": self.objective,
            "order": list(self.order),
            "gains": list(self.gains),
            "residual_trace": list(self.residual_trace),
            "truncated": self.truncated,
            "selected": [benchmark_names[j] for j in self.order],
        }
        if self.seed is not None:
            d["seed"] = self.seed
        if self.total_cost is not None:
            d["total_cost"] = self.total_cost
        return d


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues with cumulative explained-variance fractions."""

    eigenvalues: np.ndarray
    explained: np.ndarray
    residual_fraction: np.ndarray

    def smallest_k(self, fraction: float) -> int:
        """Smallest k with explained variance >= fraction."""
        idx = np.nonzero(self.explained >= fraction - 1e-12)[0]
        return int(idx[0]) + 1 if idx.size else len(self.eigenvalues)


@dataclass(frozen=True)
class CostModel:
    """Per-element costs, total budget, and the entropy shift constant."""

    costs: np.ndarray
    budget: float
    shift_c: float | None = None  # None: computed per instance

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        if np.any(costs <= 0):
            raise DataError("costs must be positive")
        if self.budget <= 0:
            raise DataError("budget must be positive")
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)

    def resolved_shift(self, S: np.ndarray) -> float:
        """The shift constant actually used: the configured value, or the
        smallest nonnegative constant making every singleton entropy
        nonnegative."""
        if self.shift_c is not None:
            return float(self.shift_c)
        diag = np.diag(np.asarray(S, dtype=float))
        min_singleton = 0.5 * (LOG_2PIE + np.log(np.maximum(diag, 1e-300))).min()
        return max(0.0, -float(min_singleton))


def _check_cov(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DataError("covariance must be square")
    return 0.5 * (S + S.T)


def _pivoted_cholesky(mats, k: int, pivot):
    """Forward pivoted Cholesky of every matrix in `mats`, shared pivots.

    At most k steps.  Each step `pivot(d, active)` returns (element, gain)
    from the residual diagonals d (one row per matrix), or None to stop.
    The element's Cholesky column then downdates each row of d whose
    residual at the element is positive; the other matrices get a zero
    column.  Returns the order, the gains and the residual trace of mats[0].
    """
    N = mats[0].shape[0]
    d = np.array([np.diag(S) for S in mats])
    ell = np.zeros((len(mats), N, k))
    active = np.ones(N, dtype=bool)
    order: list[int] = []
    gains: list = []
    trace = [float(np.sum(d[0]))]
    for t in range(k):
        step = pivot(d, active)
        if step is None:
            break
        j, gain = step
        order.append(j)
        gains.append(gain)
        active[j] = False
        idx = np.flatnonzero(active)
        for S, dm, L in zip(mats, d, ell):
            if dm[j] > 0:
                L[idx, t] = (S[idx, j] - L[idx, :t] @ L[j, :t]) / math.sqrt(dm[j])
                dm[idx] -= L[idx, t] ** 2
        trace.append(float(np.sum(d[0][active])))
    return tuple(order), tuple(gains), tuple(trace)


def _precision(S: np.ndarray) -> np.ndarray:
    """Inverse of S by Cholesky, or with eigenvalues clamped to PSD_FLOOR."""
    try:
        return linalg.cho_solve(linalg.cho_factor(S, lower=True), np.eye(len(S)))
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(S)
        return (V / np.maximum(w, PSD_FLOOR)) @ V.T


def greedy_entropy(S: np.ndarray, k: int) -> SelectionResult:
    """Greedy entropy maximization = pivoted Cholesky with max pivot.

    Each step picks argmax of the residual diagonal d (ties to the lowest
    index) and records the marginal gain 0.5*log(2*pi*e*d) in nats.
    Stops early (truncated=True) once the largest residual falls below
    the degeneracy floor.
    """
    S = _check_cov(S)
    N = S.shape[0]
    if not 1 <= k <= N:
        raise DataError(f"k={k} out of range [1, {N}]")
    diag = np.diag(S)
    if np.any(diag < -1e-9):
        raise DataError("covariance has a negative diagonal entry")
    floor = DEGENERACY_REL_FLOOR * max(diag.max(), 0.0)

    def max_residual(d, active):
        d = d[0]
        j = int(np.argmax(np.where(active, d, -np.inf)))  # lowest index on ties
        if np.any(d[active] < -1e-9):
            raise NumericalError("negative residual variance: input is not PSD")
        if d[j] <= floor:
            return None
        return j, 0.5 * (LOG_2PIE + math.log(d[j]))

    order, gains, trace = _pivoted_cholesky([S], k, max_residual)
    return SelectionResult(order, gains, trace, "entropy",
                           truncated=len(order) < k)


def greedy_mi(S: np.ndarray, k: int) -> SelectionResult:
    """Greedy mutual information maximization.

    Pivoted Cholesky of Sigma and of P = Sigma^-1 under shared pivots: the
    residual p_j of P is the precision diagonal of the complement block,
    so the gain of j is 0.5*(log d_j + log p_j).  Each step takes the
    argmax over d_j above the degeneracy floor and p_j > 0 (lowest index
    on ties) and stops early (truncated=True) when none is left.  P comes
    from one Cholesky, or from eigenvalues clamped to PSD_FLOOR.  Negative
    gains are legal (MI is non-monotone) and simply recorded.
    """
    S = _check_cov(S)
    N = S.shape[0]
    if not 1 <= k <= N - 1:
        raise DataError(f"k={k} out of range [1, {N - 1}] (complement nonempty)")
    floor = DEGENERACY_REL_FLOOR * max(np.diag(S).max(), 0.0)

    def max_mi(d, active):
        if np.any(d[0, active] < -1e-9):
            raise NumericalError("negative residual variance: input is not PSD")
        cand = np.flatnonzero(active & (d[0] > floor) & (d[1] > 0))
        if cand.size == 0:
            return None
        crit = 0.5 * (np.log(d[0, cand]) + np.log(d[1, cand]))
        pos = int(np.argmax(crit))
        return int(cand[pos]), float(crit[pos])

    order, gains, trace = _pivoted_cholesky([S, _precision(S)], k, max_mi)
    return SelectionResult(order, gains, trace, "mi", truncated=len(order) < k)


def lazy_greedy_entropy(S: np.ndarray, k: int) -> SelectionResult:
    """Deprecated alias of greedy_entropy, kept for existing callers."""
    return greedy_entropy(S, k)


def budgeted_entropy(S: np.ndarray, cm: CostModel) -> SelectionResult:
    """Cost-aware entropy selection: modified greedy under a knapsack.

    Runs (i) cost-effective greedy on the shifted gain-to-cost ratio
    (delta + shift_c)/cost over affordable elements, and (ii) the best
    affordable singleton under the shifted objective; returns whichever
    set has the larger shifted objective value.
    """
    S = _check_cov(S)
    N = S.shape[0]
    if cm.costs.size != N:
        raise DataError("cost vector length does not match covariance size")
    diag = np.diag(S)
    affordable0 = cm.costs <= cm.budget
    if not affordable0.any():
        raise DataError("no element is affordable within the budget")

    shift_c = cm.resolved_shift(S)
    floor = DEGENERACY_REL_FLOOR * max(diag.max(), 0.0)
    singles = np.flatnonzero(affordable0 & (diag > floor))
    if singles.size == 0:
        raise DataError("no affordable element with positive variance")
    spent = 0.0
    negative_marginal = False

    def max_ratio(d, active):
        nonlocal spent, negative_marginal
        d = d[0]
        cand = np.flatnonzero(
            active & (cm.costs <= cm.budget - spent) & (d > floor)
        )
        if cand.size == 0:
            return None
        marg = 0.5 * (LOG_2PIE + np.log(d[cand])) + shift_c
        if np.any(marg < 0):
            negative_marginal = True
        pos = int(np.argmax(marg / cm.costs[cand]))
        j = int(cand[pos])
        spent += float(cm.costs[j])
        return j, float(marg[pos] - shift_c)

    order, gains, trace = _pivoted_cholesky([S], N, max_ratio)
    if negative_marginal:
        warnings.warn(
            "shifted marginal gain went negative; the approximation "
            "guarantee is void",
            stacklevel=2,
        )

    best_single = int(singles[np.argmax(diag[singles])])
    g = 0.5 * (LOG_2PIE + math.log(diag[best_single]))
    if g + shift_c > sum(gains) + shift_c * len(order):
        order, gains, trace = _pivoted_cholesky(
            [S], 1, lambda d, active: (best_single, g))
        spent = float(cm.costs[best_single])
    return SelectionResult(order, gains, trace, "budgeted_entropy",
                           total_cost=spent)


def random_select(N: int, k: int,
                  seed: int | np.random.SeedSequence) -> SelectionResult:
    """First k elements of a seeded uniform permutation of range(N)."""
    if k > N:
        raise DataError(f"k={k} exceeds N={N}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(N)
    order = tuple(int(j) for j in perm[:k])
    return SelectionResult(
        order, (math.nan,) * k, (math.nan,) * (k + 1), "random", seed=seed
    )


def path_metrics(S: np.ndarray, order):
    """Entropy, MI and residual trace of every prefix of `order`.

    One run of greedy_mi's recursion along `order`, one downdate per
    prefix.  Returns three arrays indexed by prefix length 0..len(order).
    Entropy and MI are 0 for the empty prefix and NaN from the first
    non-positive pivot on; MI of the full set is 0, as in mi_value.
    """
    S = _check_cov(S)
    if len(set(order)) != len(order) or not all(0 <= j < len(S) for j in order):
        raise DataError("order must hold distinct indices of the covariance")
    steps = iter(order)

    def follow(d, active):
        j = next(steps)
        return j, d[:, j].copy()

    _, pivots, trace = _pivoted_cholesky([S, _precision(S)], len(order),
                                         follow)
    pivots = np.reshape(pivots, (-1, 2))
    logs = np.log(pivots, out=np.full(pivots.shape, math.nan), where=pivots > 0)
    entropy, mi = (np.concatenate(([0.0], np.cumsum(step))) for step in
                   (0.5 * (LOG_2PIE + logs[:, 0]), 0.5 * logs.sum(axis=1)))
    if len(order) == len(S):
        mi[-1] = 0.0
    return entropy, mi, np.asarray(trace)


def entropy_value(S: np.ndarray, A) -> float:
    """Joint differential entropy 0.5*logdet(2*pi*e*Sigma_AA) in nats."""
    S = _check_cov(S)
    idx = np.asarray(sorted(A), dtype=int)
    if idx.size == 0:
        raise DataError("A must be nonempty")
    sub = S[np.ix_(idx, idx)]
    try:
        L = np.linalg.cholesky(sub)
    except np.linalg.LinAlgError:
        raise NumericalError("selected principal submatrix is singular") from None
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return 0.5 * (idx.size * LOG_2PIE + logdet)


def _logdet_psd(sub: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(sub)
    if sign > 0 and np.isfinite(logdet):
        return float(logdet)
    w = np.linalg.eigvalsh(sub)
    return float(np.sum(np.log(np.maximum(w, PSD_FLOOR))))


def mi_value(S: np.ndarray, A) -> float:
    """Mutual information I(X_A; X_complement) in nats.

    Evaluated as 0.5*(logdet Sigma_AA + logdet Sigma_CC - logdet Sigma);
    empty or full A returns 0 by convention.  Singular blocks fall back
    to log-determinants with eigenvalues clamped to PSD_FLOOR.
    """
    S = _check_cov(S)
    N = S.shape[0]
    idx = np.asarray(sorted(A), dtype=int)
    if idx.size == 0 or idx.size == N:
        return 0.0
    comp = np.setdiff1d(np.arange(N), idx)
    v = 0.5 * (
        _logdet_psd(S[np.ix_(idx, idx)])
        + _logdet_psd(S[np.ix_(comp, comp)])
        - _logdet_psd(S)
    )
    return float(v)


def spectrum(R: np.ndarray) -> SpectrumReport:
    """Eigenvalue decay diagnostic: explained and residual fractions."""
    R = _check_cov(R)
    w = np.linalg.eigvalsh(R)[::-1]
    total = float(np.sum(w))
    explained = np.cumsum(w) / total
    return SpectrumReport(w, explained, 1.0 - explained)


def residual_trace(S: np.ndarray, A, psd_floor: float | None = None) -> float:
    """Trace of the Schur complement of Sigma_AA: total residual variance.

    A singular Sigma_AA raises unless psd_floor is given, in which case
    a clamped-eigenvalue solve is used with a warning.
    """
    S = _check_cov(S)
    N = S.shape[0]
    idx = np.asarray(sorted(A), dtype=int)
    if idx.size == 0:
        return float(np.trace(S))
    if idx.size == N:
        return 0.0
    comp = np.setdiff1d(np.arange(N), idx)
    Saa = S[np.ix_(idx, idx)]
    Sca = S[np.ix_(comp, idx)]
    try:
        c, low = linalg.cho_factor(Saa, lower=True)
        X = linalg.cho_solve((c, low), Sca.T)
    except np.linalg.LinAlgError:
        if psd_floor is None:
            raise NumericalError(
                "Sigma_AA is singular; pass psd_floor to use a clamped solve"
            ) from None
        warnings.warn("Sigma_AA singular; using clamped-eigenvalue solve",
                      stacklevel=2)
        w, V = np.linalg.eigh(Saa)
        w = np.maximum(w, psd_floor)
        X = V @ ((V.T @ Sca.T) / w[:, None])
    val = float(np.trace(S[np.ix_(comp, comp)]) - np.sum(Sca * X.T))
    return val
