"""Greedy benchmark subset selection and spectral diagnostics.

Every greedy objective is one forward pivoted-Cholesky recursion with
its own pivot rule: entropy takes the largest residual diagonal, mutual
information runs it on Sigma and its precision with shared pivots, and
budgeted entropy takes the best shifted gain-to-cost ratio.  The
residuals at the pivots, and the precision's block on the picks, give the
entropy, MI and residual trace of every prefix: `path_metrics` follows a
given order, and cross-validation reads them off each method's own run.
Ties break lexicographically: largest gain, then lowest index, so runs
are fully deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from benchsel.covariance import (
    _cho_inverse, _cholesky_pivots, _factor, _solve_lower, _symmetric)
from benchsel.errors import DataError, NumericalError
from benchsel.score_matrix import _own

LOG_2PIE = math.log(2 * math.pi * math.e)

# A pick is refused when its residual variance falls below this times
# the largest initial diagonal entry (numerical-rank exhaustion).
DEGENERACY_REL_FLOOR = 1e-12


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
        # not (x > 0) rejects NaN too; an infinite budget stays valid
        if not np.all(costs > 0):
            raise DataError("costs must be positive")
        if not self.budget > 0:
            raise DataError("budget must be positive")
        if self.shift_c is not None and not math.isfinite(self.shift_c):
            raise DataError("shift_c must be finite")
        _own(self, ("costs",), costs=costs)

    def resolved_shift(self, S: np.ndarray) -> float:
        """The shift constant actually used: the configured value, or the
        smallest nonnegative constant making every singleton entropy
        nonnegative."""
        if self.shift_c is not None:
            return float(self.shift_c)
        diag = np.diag(np.asarray(S, dtype=float))
        min_singleton = 0.5 * (LOG_2PIE + np.log(np.maximum(diag, 1e-300))).min()
        return max(0.0, -float(min_singleton))


def _pivoted_cholesky(mats, k: int, pivot):
    """Forward pivoted Cholesky of every matrix in `mats`, shared pivots.

    At most k steps.  Each step `pivot(d, active)` returns (element, gain)
    from the residual diagonals d (one row per matrix), or None to stop.
    The element's Cholesky column then downdates each row of d whose
    residual at the element is positive; the other matrices get a zero
    column.  Returns the order, the gains, the residual trace of mats[0]
    and the (steps, len(mats)) residuals at each pivot, final once picked.
    """
    N = mats[0].shape[0]
    d = np.array([np.diag(S) for S in mats])
    ell = np.zeros((len(mats), N, k))
    active = np.ones(N, dtype=bool)
    order, gains = [], []
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
    return tuple(order), tuple(gains), tuple(trace), d[:, order].T


def _pivot_rule(S: np.ndarray, objective: str, order=()):
    """The pivot rule of greedy_entropy or greedy_mi, or, for any other
    objective, one that follows `order` with NaN gains."""
    floor = DEGENERACY_REL_FLOOR * np.max(np.diag(S), initial=0.0)
    steps = iter(order)

    def pivot(d, active):
        if objective not in ("entropy", "mi"):
            return next(steps), math.nan
        if np.any(d[0, active] < -1e-9):
            raise NumericalError("negative residual variance: input is not PSD")
        if objective == "entropy":
            j = int(np.argmax(np.where(active, d[0], -np.inf)))  # lowest on ties
            if d[0, j] <= floor:
                return None
            return j, 0.5 * (LOG_2PIE + math.log(d[0, j]))
        cand = np.flatnonzero(active & (d[0] > floor) & (d[1] > 0))
        if cand.size == 0:
            return None
        crit = 0.5 * (np.log(d[0, cand]) + np.log(d[1, cand]))
        pos = int(np.argmax(crit))
        return int(cand[pos]), float(crit[pos])

    return pivot


def _selection_path(S, factor, objective: str, k: int, order=()):
    """Order of at most k steps of `objective`'s recursion, and
    path_metrics' entropy, MI and residual trace of each of its prefixes.

    `factor` is S's lower Cholesky factor.  Only the mi pivot rule reads
    P = S^-1 at every candidate, so only mi runs the recursion on [S, P].
    Every order takes P's residuals at its picks A from the pivots of
    P_AA = Y'Y, Y = L^-1 E_A from one solve against A's N x k selector.
    """
    mats = [S, _cho_inverse(factor)] if objective == "mi" else [S]
    order, _, trace, pivots = _pivoted_cholesky(
        mats, k, _pivot_rule(S, objective, order))
    A = list(order)
    E = np.zeros((len(S), len(A)), order="F")  # A's selector: no N x N eye
    E[A, range(len(A))] = 1.0
    Y = _solve_lower(factor, E)
    pivots = np.column_stack((pivots[:, 0], _cholesky_pivots(Y.T @ Y)))
    logs = np.log(pivots, out=np.full(pivots.shape, math.nan), where=pivots > 0)
    entropy, mi = (np.concatenate(([0.0], np.cumsum(step))) for step in
                   (0.5 * (LOG_2PIE + logs[:, 0]), 0.5 * logs.sum(axis=1)))
    if len(order) == len(S):
        mi[-1] = 0.0
    return A, entropy, mi, np.asarray(trace)


def greedy_entropy(S: np.ndarray, k: int) -> SelectionResult:
    """Greedy entropy maximization = pivoted Cholesky with max pivot.

    Each step picks argmax of the residual diagonal d (ties to the lowest
    index) and records the marginal gain 0.5*log(2*pi*e*d) in nats.
    Stops early (truncated=True) once the largest residual falls below
    the degeneracy floor.
    """
    S = _symmetric(S)
    N = S.shape[0]
    if not 1 <= k <= N:
        raise DataError(f"k={k} out of range [1, {N}]")
    if np.any(np.diag(S) < -1e-9):
        raise DataError("covariance has a negative diagonal entry")
    order, gains, trace, _ = _pivoted_cholesky([S], k, _pivot_rule(S, "entropy"))
    return SelectionResult(order, gains, trace, "entropy",
                           truncated=len(order) < k)


def greedy_mi(S: np.ndarray, k: int) -> SelectionResult:
    """Greedy mutual information maximization.

    Pivoted Cholesky of Sigma and of P = Sigma^-1 under shared pivots: the
    residual p_j of P is the precision diagonal of the complement block,
    so the gain of j is 0.5*(log d_j + log p_j).  Each step takes the
    argmax over d_j above the degeneracy floor and p_j > 0 (lowest index
    on ties) and stops early (truncated=True) when none is left.  P comes
    from one Cholesky, so a singular Sigma raises NumericalError.
    Negative gains are legal (MI is non-monotone) and simply recorded.
    """
    S = _symmetric(S)
    N = S.shape[0]
    if not 1 <= k <= N - 1:
        raise DataError(f"k={k} out of range [1, {N - 1}] (complement nonempty)")
    order, gains, trace, _ = _pivoted_cholesky([S, _cho_inverse(_factor(S))],
                                               k, _pivot_rule(S, "mi"))
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
    S = _symmetric(S)
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
        if np.any(d[active] < -1e-9):
            raise NumericalError("negative residual variance: input is not PSD")
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

    order, gains, trace, _ = _pivoted_cholesky([S], N, max_ratio)
    if negative_marginal:
        warnings.warn(
            "shifted marginal gain went negative; the approximation "
            "guarantee is void",
            stacklevel=2,
        )

    best_single = int(singles[np.argmax(diag[singles])])
    g = 0.5 * (LOG_2PIE + math.log(diag[best_single]))
    if g + shift_c > sum(gains) + shift_c * len(order):
        order, gains, trace, _ = _pivoted_cholesky(
            [S], 1, lambda d, active: (best_single, g))
        spent = float(cm.costs[best_single])
    return SelectionResult(order, gains, trace, "budgeted_entropy",
                           total_cost=spent)


def random_select(N: int, k: int,
                  seed: int | np.random.SeedSequence) -> SelectionResult:
    """First k elements of a seeded uniform permutation of range(N)."""
    if not 0 <= k <= N:
        raise DataError(f"k={k} out of range [0, {N}]")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(N)
    order = tuple(int(j) for j in perm[:k])
    return SelectionResult(
        order, (math.nan,) * k, (math.nan,) * (k + 1), "random", seed=seed
    )


def path_metrics(S: np.ndarray, order):
    """Entropy, MI and residual trace of every prefix of `order`.

    One run of greedy_entropy's recursion along `order`, one downdate per
    prefix; MI adds one factorization of the precision's block on `order`,
    from one solve against Sigma's factor, so no inverse of Sigma is
    formed.  A singular Sigma raises NumericalError.  Returns three arrays
    indexed by prefix length 0..len(order).  Entropy and MI are 0 for the
    empty prefix and NaN from the first non-positive pivot on; MI of the
    full set is 0, as in mi_value.
    """
    S = _symmetric(S)
    if len(set(order)) != len(order) or not all(0 <= j < len(S) for j in order):
        raise DataError("order must hold distinct indices of the covariance")
    return _selection_path(S, _factor(S), "path", len(order), order)[1:]


def entropy_value(S: np.ndarray, A) -> float:
    """Joint differential entropy 0.5*logdet(2*pi*e*Sigma_AA) in nats."""
    S = _symmetric(S)
    idx = np.asarray(sorted(A), dtype=int)
    if idx.size == 0:
        raise DataError("A must be nonempty")
    L = _factor(S[np.ix_(idx, idx)], "selected principal submatrix is singular")
    return 0.5 * idx.size * LOG_2PIE + float(np.sum(np.log(np.diag(L))))


def mi_value(S: np.ndarray, A) -> float:
    """Mutual information I(X_A; X_complement) in nats.

    Evaluated as 0.5*(logdet Sigma_AA + logdet Sigma_CC - logdet Sigma);
    empty or full A returns 0 by convention.  A block that is not
    positive definite raises NumericalError.
    """
    S = _symmetric(S)
    N = S.shape[0]
    idx = np.asarray(sorted(A), dtype=int)
    if idx.size == 0 or idx.size == N:
        return 0.0
    comp = np.setdiff1d(np.arange(N), idx)
    a, c, s = (np.sum(np.log(np.diag(_factor(
        B, "covariance block is not positive definite"))))
        for B in (S[np.ix_(idx, idx)], S[np.ix_(comp, comp)], S))
    return float(a + c - s)


def spectrum(R: np.ndarray) -> SpectrumReport:
    """Eigenvalue decay diagnostic: explained and residual fractions."""
    R = _symmetric(R)
    w = np.linalg.eigvalsh(R)[::-1]
    explained = np.cumsum(w)
    explained /= explained[-1]  # the same sum: exactly 1 at k = N
    return SpectrumReport(w, explained, 1.0 - explained)


def residual_trace(S: np.ndarray, A) -> float:
    """Trace of the Schur complement of Sigma_AA: total residual variance.

    A singular Sigma_AA raises NumericalError.
    """
    S = _symmetric(S)
    N = S.shape[0]
    idx = np.asarray(sorted(A), dtype=int)
    if idx.size == N:
        return 0.0
    comp = np.setdiff1d(np.arange(N), idx)
    factor = _factor(S[np.ix_(idx, idx)], "Sigma_AA is singular")
    G = _solve_lower(factor, S[np.ix_(idx, comp)])
    return float(np.trace(S[np.ix_(comp, comp)]) - np.sum(G * G))
