"""Greedy benchmark subset selection and spectral diagnostics.

Every greedy objective is one forward pivoted-Cholesky recursion with
its own pivot rule: entropy takes the largest residual diagonal, mutual
information scores it against a fresh factorization of the complement
block, and budgeted entropy takes the best shifted gain-to-cost ratio.
Ties break lexicographically: largest gain, then lowest index, so runs
are fully deterministic.
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

    def to_dict(self, benchmark_names=None) -> dict:
        names = (
            [benchmark_names[j] for j in self.order]
            if benchmark_names is not None
            else None
        )
        d = {
            "objective": self.objective,
            "order": list(self.order),
            "gains": list(self.gains),
            "residual_trace": list(self.residual_trace),
            "truncated": self.truncated,
        }
        if names is not None:
            d["selected"] = names
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


def _pivoted_cholesky(S: np.ndarray, k: int, pivot):
    """Forward pivoted Cholesky of S for at most k steps.

    Each step `pivot(d, active)` returns (element, gain) from the residual
    diagonal d, or None to stop; the element's Cholesky column then
    downdates d.  Returns the order, the gains and the residual trace.
    """
    N = S.shape[0]
    d = np.diag(S).copy()
    ell = np.zeros((N, k))
    active = np.ones(N, dtype=bool)
    order: list[int] = []
    gains: list[float] = []
    trace = [float(np.sum(d))]
    for t in range(k):
        step = pivot(d, active)
        if step is None:
            break
        j, gain = step
        order.append(j)
        gains.append(gain)
        active[j] = False
        sq = math.sqrt(d[j])
        ell[j, t] = sq
        idx = np.flatnonzero(active)
        if idx.size:
            ell[idx, t] = (S[idx, j] - ell[idx, :t] @ ell[j, :t]) / sq
            d[idx] -= ell[idx, t] ** 2
        trace.append(float(np.sum(d[active])))
    return tuple(order), tuple(gains), tuple(trace)


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
        j = int(np.argmax(np.where(active, d, -np.inf)))  # lowest index on ties
        if np.any(d[active] < -1e-9):
            raise NumericalError("negative residual variance: input is not PSD")
        if d[j] <= floor:
            return None
        return j, 0.5 * (LOG_2PIE + math.log(d[j]))

    order, gains, trace = _pivoted_cholesky(S, k, max_residual)
    return SelectionResult(order, gains, trace, "entropy",
                           truncated=len(order) < k)


def _complement_precision_diag(S_bar: np.ndarray, psd_floor: float) -> np.ndarray:
    """Diagonal of the inverse of the complement block.

    Cholesky route: P_jj = ||(L^{-1})_{:,j}||^2 from one triangular
    solve.  Falls back to an eigendecomposition with eigenvalues
    clamped to psd_floor when the block is not positive definite.
    """
    n = S_bar.shape[0]
    try:
        L = np.linalg.cholesky(S_bar)
        Linv = linalg.solve_triangular(L, np.eye(n), lower=True)
        return np.sum(Linv**2, axis=0)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(S_bar)
        w = np.maximum(w, psd_floor)
        return np.sum(V**2 / w, axis=1)


def greedy_mi(S: np.ndarray, k: int, psd_floor: float = 1e-10) -> SelectionResult:
    """Greedy mutual information maximization.

    Per step: fresh Cholesky of the complement block gives the precision
    diagonal P_jj; the criterion is argmax 0.5*(log d_j + log P_jj) with
    lowest-index tie-breaking.  The forward residual diagonal d follows
    the entropy recursion.  Negative gains are legal (MI is non-monotone)
    and simply recorded.
    """
    S = _check_cov(S)
    N = S.shape[0]
    if not 1 <= k <= N - 1:
        raise DataError(f"k={k} out of range [1, {N - 1}] (complement nonempty)")

    def max_mi(d, active):
        comp = np.flatnonzero(active)
        P = _complement_precision_diag(S[np.ix_(comp, comp)], psd_floor)
        with np.errstate(divide="ignore", invalid="ignore"):
            crit = 0.5 * (np.log(d[comp]) + np.log(P))
        pos = int(np.argmax(crit))
        return int(comp[pos]), float(crit[pos])

    return SelectionResult(*_pivoted_cholesky(S, k, max_mi), "mi")


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
    spent = 0.0
    negative_marginal = False

    def max_ratio(d, active):
        nonlocal spent, negative_marginal
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

    order, gains, trace = _pivoted_cholesky(S, N, max_ratio)
    if negative_marginal:
        warnings.warn(
            "shifted marginal gain went negative; the approximation "
            "guarantee is void",
            stacklevel=2,
        )

    def shifted_objective(idx_set):
        if not idx_set:
            return 0.0
        return entropy_value(S, idx_set) + shift_c * len(idx_set)

    set_value = shifted_objective(order)
    singles = np.flatnonzero(affordable0 & (diag > floor))
    best_single = int(singles[np.argmax(diag[singles])])
    single_value = shifted_objective([best_single])

    if single_value > set_value:
        g = 0.5 * (LOG_2PIE + math.log(diag[best_single]))
        total = float(np.sum(diag))
        rt = residual_trace(S, [best_single]) if N > 1 else 0.0
        return SelectionResult(
            (best_single,), (g,), (total, rt), "budgeted_entropy",
            total_cost=float(cm.costs[best_single]),
        )
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


def _logdet_psd(sub: np.ndarray, psd_floor: float) -> float:
    sign, logdet = np.linalg.slogdet(sub)
    if sign > 0 and np.isfinite(logdet):
        return float(logdet)
    w = np.linalg.eigvalsh(sub)
    return float(np.sum(np.log(np.maximum(w, psd_floor))))


def mi_value(S: np.ndarray, A, psd_floor: float = 1e-10) -> float:
    """Mutual information I(X_A; X_complement) in nats.

    Evaluated as 0.5*(logdet Sigma_AA + logdet Sigma_CC - logdet Sigma);
    empty or full A returns 0 by convention.  Singular blocks fall back
    to clamped-eigenvalue log-determinants.
    """
    S = _check_cov(S)
    N = S.shape[0]
    idx = np.asarray(sorted(A), dtype=int)
    if idx.size == 0 or idx.size == N:
        return 0.0
    comp = np.setdiff1d(np.arange(N), idx)
    v = 0.5 * (
        _logdet_psd(S[np.ix_(idx, idx)], psd_floor)
        + _logdet_psd(S[np.ix_(comp, comp)], psd_floor)
        - _logdet_psd(S, psd_floor)
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
