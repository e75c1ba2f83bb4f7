import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from benchsel import covariance, selection
from benchsel.covariance import fit_model
from benchsel.errors import DataError, NumericalError
from benchsel.selection import (
    DEGENERACY_REL_FLOOR,
    LOG_2PIE,
    CostModel,
    SelectionResult,
    budgeted_entropy,
    entropy_value,
    greedy_entropy,
    greedy_mi,
    lazy_greedy_entropy,
    mi_value,
    path_metrics,
    random_select,
    residual_trace,
    spectrum,
)

from conftest import make_matrix, random_spd


def pivoted_cholesky_oracle(S, k):
    """Independent pivoted-Cholesky implementation: at each step pick the
    largest residual diagonal of a dense Schur complement, refactoring
    from scratch each time."""
    S = np.asarray(S, dtype=float)
    N = S.shape[0]
    order = []
    traces = [np.trace(S)]
    for _ in range(k):
        rest = [j for j in range(N) if j not in order]
        if order:
            A = np.array(order)
            schur = {}
            SAA = S[np.ix_(A, A)]
            inv = np.linalg.inv(SAA)
            for j in rest:
                schur[j] = S[j, j] - S[j, A] @ inv @ S[A, j]
        else:
            schur = {j: S[j, j] for j in rest}
        pick = max(rest, key=lambda j: (schur[j], -j))
        order.append(pick)
        A = np.array(order)
        SAA = S[np.ix_(A, A)]
        inv = np.linalg.inv(SAA)
        comp = [j for j in range(N) if j not in order]
        if comp:
            C = np.array(comp)
            resid = S[np.ix_(C, C)] - S[np.ix_(C, A)] @ inv @ S[np.ix_(A, C)]
            traces.append(np.trace(resid))
        else:
            traces.append(0.0)
    return order, traces


class TestGreedyEntropy:
    def test_diagonal(self):
        r = greedy_entropy(np.diag([3.0, 2.0, 1.0]), 2)
        assert r.order == (0, 1)
        assert r.objective == "entropy"

    def test_identity_tie_break(self):
        r = greedy_entropy(np.eye(3), 2)
        assert r.order == (0, 1)

    def test_matches_oracle(self):
        S = random_spd(8, seed=42)
        r = greedy_entropy(S, 5)
        order, traces = pivoted_cholesky_oracle(S, 5)
        assert list(r.order) == order
        assert np.allclose(r.residual_trace, traces, atol=1e-8)

    def test_gains_telescope_to_entropy(self):
        S = random_spd(6, seed=7)
        r = greedy_entropy(S, 4)
        assert sum(r.gains) == pytest.approx(entropy_value(S, r.order), abs=1e-8)

    def test_gains_nonincreasing(self):
        S = random_spd(10, seed=9)
        r = greedy_entropy(S, 10)
        assert (np.diff(r.gains) <= 1e-9).all()

    def test_residual_nonincreasing(self):
        S = random_spd(10, seed=10)
        r = greedy_entropy(S, 10)
        assert (np.diff(r.residual_trace) <= 1e-9).all()

    def test_scale_invariance(self):
        S = random_spd(7, seed=11)
        assert greedy_entropy(S, 5).order == greedy_entropy(3.7 * S, 5).order

    def test_degenerate_truncates(self):
        # rank-2 matrix: third pick has zero residual variance
        A = np.random.default_rng(0).normal(size=(2, 5))
        S = A.T @ A
        r = greedy_entropy(S, 4)
        assert r.truncated
        assert len(r.order) == 2

    def test_k_out_of_range(self):
        with pytest.raises(DataError):
            greedy_entropy(np.eye(3), 0)
        with pytest.raises(DataError):
            greedy_entropy(np.eye(3), 4)

    def test_non_psd_rejected(self):
        with pytest.raises(NumericalError):
            greedy_entropy(np.array([[1.0, 2.0], [2.0, 1.0]]), 2)


class TestGreedyMi:
    def test_identity_zero_gains(self):
        r = greedy_mi(np.eye(4), 3)
        assert r.order == (0, 1, 2)
        assert np.allclose(r.gains, 0.0, atol=1e-12)

    def test_bivariate_closed_form(self):
        S = np.array([[1.0, 0.8], [0.8, 1.0]])
        r = greedy_mi(S, 1)
        assert r.order == (0,)
        assert r.gains[0] == pytest.approx(-0.5 * np.log(1 - 0.64), abs=1e-10)
        assert r.gains[0] == pytest.approx(0.5108256237659907, abs=1e-10)

    def test_prefix_matches_direct_mi(self):
        S = random_spd(7, seed=3)
        r = greedy_mi(S, 5)
        acc = 0.0
        for t in range(5):
            acc += r.gains[t]
            assert acc == pytest.approx(mi_value(S, r.order[: t + 1]), abs=1e-8)

    def test_scale_invariance(self):
        S = random_spd(7, seed=4)
        assert greedy_mi(S, 5).order == greedy_mi(0.2 * S, 5).order

    def test_k_range(self):
        with pytest.raises(DataError):
            greedy_mi(np.eye(3), 3)  # complement must stay nonempty


class TestLazyGreedy:
    def test_identical_to_eager(self):
        for seed in range(20):
            S = random_spd(12, seed=seed)
            eager = greedy_entropy(S, 6)
            lazy = lazy_greedy_entropy(S, 6)
            assert lazy.order == eager.order
            assert np.array_equal(lazy.gains, eager.gains)
            assert np.array_equal(lazy.residual_trace, eager.residual_trace)


# The three greedy loops as they were before they shared one recursion,
# kept verbatim as the reference for the shared kernel, but for budgeted
# entropy's check of a negative residual, which greedy entropy already had.

def _reference_check_cov(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DataError("covariance must be square")
    return 0.5 * (S + S.T)


def reference_greedy_entropy(S: np.ndarray, k: int) -> SelectionResult:
    """Greedy entropy maximization = pivoted Cholesky with max pivot.

    Maintains the residual diagonal d and Cholesky rows; each step picks
    argmax d (ties to the lowest index), records the marginal gain
    0.5*log(2*pi*e*d) in nats, and downdates the remaining diagonal.
    Stops early (truncated=True) once the largest residual falls below
    the degeneracy floor.
    """
    S = _reference_check_cov(S)
    N = S.shape[0]
    if not 1 <= k <= N:
        raise DataError(f"k={k} out of range [1, {N}]")
    d = np.diag(S).copy()
    if np.any(d < -1e-9):
        raise DataError("covariance has a negative diagonal entry")
    floor = DEGENERACY_REL_FLOOR * max(d.max(), 0.0)

    ell = np.zeros((N, k))
    active = np.ones(N, dtype=bool)
    order: list[int] = []
    gains: list[float] = []
    trace = [float(np.sum(d))]
    truncated = False
    for t in range(k):
        masked = np.where(active, d, -np.inf)
        j_star = int(np.argmax(masked))  # argmax takes the lowest index on ties
        if np.any(d[active] < -1e-9):
            raise NumericalError("negative residual variance: input is not PSD")
        if d[j_star] <= floor:
            truncated = True
            break
        gains.append(0.5 * (LOG_2PIE + math.log(d[j_star])))
        order.append(j_star)
        active[j_star] = False
        sq = math.sqrt(d[j_star])
        ell[j_star, t] = sq
        idx = np.flatnonzero(active)
        if idx.size:
            ell[idx, t] = (S[idx, j_star] - ell[idx, :t] @ ell[j_star, :t]) / sq
            d[idx] -= ell[idx, t] ** 2
        trace.append(float(np.sum(d[active])))
    return SelectionResult(
        tuple(order), tuple(gains), tuple(trace), "entropy", truncated=truncated
    )


def _reference_precision_diag(S_bar: np.ndarray, psd_floor: float) -> np.ndarray:
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


def reference_greedy_mi(S: np.ndarray, k: int, psd_floor: float = 1e-10) -> SelectionResult:
    """Greedy mutual information maximization.

    Per step: fresh Cholesky of the complement block gives the precision
    diagonal P_jj; the criterion is argmax 0.5*(log d_j + log P_jj) with
    lowest-index tie-breaking.  The forward residual diagonal d follows
    the entropy recursion.  Negative gains are legal (MI is non-monotone)
    and simply recorded.
    """
    S = _reference_check_cov(S)
    N = S.shape[0]
    if not 1 <= k <= N - 1:
        raise DataError(f"k={k} out of range [1, {N - 1}] (complement nonempty)")
    d = np.diag(S).copy()
    ell = np.zeros((N, k))
    active = np.ones(N, dtype=bool)
    order: list[int] = []
    gains: list[float] = []
    trace = [float(np.sum(d))]
    for t in range(k):
        comp = np.flatnonzero(active)
        P = _reference_precision_diag(S[np.ix_(comp, comp)], psd_floor)
        with np.errstate(divide="ignore", invalid="ignore"):
            crit = 0.5 * (np.log(d[comp]) + np.log(P))
        pos = int(np.argmax(crit))
        j_star = int(comp[pos])
        gains.append(float(crit[pos]))
        order.append(j_star)
        active[j_star] = False
        sq = math.sqrt(d[j_star])
        ell[j_star, t] = sq
        idx = np.flatnonzero(active)
        if idx.size:
            ell[idx, t] = (S[idx, j_star] - ell[idx, :t] @ ell[j_star, :t]) / sq
            d[idx] -= ell[idx, t] ** 2
        trace.append(float(np.sum(d[active])))
    return SelectionResult(tuple(order), tuple(gains), tuple(trace), "mi")


def reference_budgeted_entropy(S: np.ndarray, cm: CostModel) -> SelectionResult:
    """Cost-aware entropy selection: modified greedy under a knapsack.

    Runs (i) cost-effective greedy on the shifted gain-to-cost ratio
    (delta + shift_c)/cost over affordable elements, and (ii) the best
    affordable singleton under the shifted objective; returns whichever
    set has the larger shifted objective value.
    """
    S = _reference_check_cov(S)
    N = S.shape[0]
    if cm.costs.size != N:
        raise DataError("cost vector length does not match covariance size")
    diag = np.diag(S)
    affordable0 = cm.costs <= cm.budget
    if not affordable0.any():
        raise DataError("no element is affordable within the budget")

    shift_c = cm.resolved_shift(S)

    floor = DEGENERACY_REL_FLOOR * max(diag.max(), 0.0)
    d = diag.astype(float).copy()
    ell = np.zeros((N, N))
    active = np.ones(N, dtype=bool)
    order: list[int] = []
    gains: list[float] = []
    trace = [float(np.sum(d))]
    spent = 0.0
    negative_marginal = False
    t = 0
    while True:
        if np.any(d[active] < -1e-9):
            raise NumericalError("negative residual variance: input is not PSD")
        remaining = cm.budget - spent
        cand = np.flatnonzero(active & (cm.costs <= remaining) & (d > floor))
        if cand.size == 0:
            break
        marg = 0.5 * (LOG_2PIE + np.log(d[cand])) + shift_c
        if np.any(marg < 0):
            negative_marginal = True
        ratio = marg / cm.costs[cand]
        pos = int(np.argmax(ratio))
        j_star = int(cand[pos])
        gains.append(float(marg[pos] - shift_c))
        order.append(j_star)
        active[j_star] = False
        spent += float(cm.costs[j_star])
        sq = math.sqrt(d[j_star])
        ell[j_star, t] = sq
        idx = np.flatnonzero(active)
        if idx.size:
            ell[idx, t] = (S[idx, j_star] - ell[idx, :t] @ ell[j_star, :t]) / sq
            d[idx] -= ell[idx, t] ** 2
        trace.append(float(np.sum(d[active])))
        t += 1

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
    return SelectionResult(
        tuple(order), tuple(gains), tuple(trace), "budgeted_entropy",
        total_cost=spent,
    )


@st.composite
def greedy_cases(draw):
    """A full-rank or rank-deficient PSD matrix (or a rank-deficient one
    pushed just below PSD), a k that is sometimes out of range, and a cost
    model whose budget sometimes leaves nothing affordable."""
    N = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["full", "deficient", "indefinite"]))
    rank = N if kind == "full" else draw(st.integers(1, N - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(N, rank)) * rng.uniform(0.1, 10.0, size=(N, 1))
    if kind == "indefinite":
        S = A @ A.T - draw(st.sampled_from([1e-10, 1e-8, 1e-6])) * np.eye(N)
    else:
        S = A @ A.T
    k = draw(st.integers(1, N) | st.sampled_from([0, N + 1]))
    cm = CostModel(rng.uniform(0.1, 3.0, size=N), rng.uniform(0.05, 1.5 * N),
                   draw(st.none() | st.floats(0.0, 5.0)))
    return S, k, cm, kind


def outcome(fn, *args):
    """Everything a call shows: its result fields bit for bit, or its
    exception, plus the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            r = fn(*args)
            got = (r.order, [repr(g) for g in r.gains],
                   [repr(v) for v in r.residual_trace], r.objective,
                   r.truncated, repr(r.total_cost))
        except Exception as exc:
            got = (type(exc), str(exc))
    return got, [(w.category, str(w.message)) for w in caught]


def reference_mi_criteria(S, A, psd_floor=1e-10):
    """The reference MI criterion of every element outside A: residual
    variances from a fresh solve, the precision diagonal from a fresh
    factorization of the complement block."""
    comp = np.array([j for j in range(S.shape[0]) if j not in A])
    d = np.diag(S)[comp].copy()
    if len(A):
        A = list(A)
        d -= np.einsum("ij,ji->i", S[np.ix_(comp, A)],
                       np.linalg.solve(S[np.ix_(A, A)], S[np.ix_(A, comp)]))
    P = _reference_precision_diag(S[np.ix_(comp, comp)], psd_floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * (np.log(d) + np.log(P))


def close(a, b, rel, scale=1.0):
    """a and b agree within rel, relative to the larger of |a|, |b| and scale."""
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


class TestSharedKernel:
    @settings(max_examples=300, deadline=None)
    @given(greedy_cases())
    def test_matches_the_separate_loops(self, case):
        S, k, cm, kind = case
        assert outcome(greedy_entropy, S, k) == \
            outcome(reference_greedy_entropy, S, k)
        self.check_budgeted(S, cm)
        if kind == "full":
            self.check_mi(S, k)
        else:
            self.check_degenerate_mi(S, k)

    @staticmethod
    def check_budgeted(S, cm):
        got, got_warned = outcome(budgeted_entropy, S, cm)
        want, want_warned = outcome(reference_budgeted_entropy, S, cm)
        assert got_warned == want_warned
        if want[0] is ValueError:
            # The reference takes np.argmax of no affordable singleton.
            assert got == (DataError, "no affordable element with positive variance")
            return
        if got == want:
            return
        # Only the singleton branch may differ: the reference takes its
        # residual trace from a solve, the kernel from one downdate.
        (order, gains, trace, *rest), (w_order, w_gains, w_trace, *w_rest) = \
            got, want
        assert (order, rest) == (w_order, w_rest) and len(order) == 1
        total = abs(float(w_trace[0]))
        for a, b in zip(gains + trace, w_gains + w_trace):
            assert close(float(a), float(b), 1e-12, total)

    @staticmethod
    def check_mi(S, k):
        if not 1 <= k < len(S):
            assert outcome(greedy_mi, S, k) == outcome(reference_greedy_mi, S, k)
            return
        got, want = greedy_mi(S, k), reference_greedy_mi(S, k)
        tol = max(1e-12, 1e-14 * np.linalg.cond(S))
        for t, (a, b) in enumerate(zip(got.order, want.order)):
            if a != b:
                # A near-tie in the reference's criteria: the orders may
                # part from here on.
                top = np.sort(reference_mi_criteria(S, want.order[:t]))[-2:]
                assert close(top[0], top[1], tol)
                return
            assert close(got.gains[t], want.gains[t], tol)
        assert got.order == want.order
        assert got.residual_trace == want.residual_trace
        assert not got.truncated

    @staticmethod
    def check_degenerate_mi(S, k):
        try:
            r = greedy_mi(S, k)
        except (DataError, NumericalError):
            return
        assert len(set(r.order)) == len(r.order) == len(r.gains) <= k
        assert r.truncated == (len(r.order) < k)
        assert np.isfinite(r.gains).all()


@st.composite
def full_rank_paths(draw):
    """A full-rank covariance and a random order of some of its elements."""
    N = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(N, N)) * rng.uniform(0.1, 10.0, size=(N, 1))
    order = rng.permutation(N)[: draw(st.integers(0, N))].tolist()
    return A @ A.T, order


@pytest.mark.fresh_draws
class TestPathMetrics:
    @settings(max_examples=200, deadline=None)
    @given(full_rank_paths())
    def test_matches_the_from_scratch_values(self, case):
        S, order = case
        entropy, mi, trace = path_metrics(S, order)
        assert len(entropy) == len(mi) == len(trace) == len(order) + 1
        assert entropy[0] == mi[0] == 0.0
        tol = max(1e-12, 1e-14 * np.linalg.cond(S))
        for k in range(len(order) + 1):
            A = order[:k]
            assert close(trace[k], residual_trace(S, A), tol, trace[0])
            if k:
                assert close(entropy[k], entropy_value(S, A), tol)
                assert close(mi[k], mi_value(S, A), tol)
        if len(order) == len(S):
            assert mi[-1] == 0.0

    def test_singular_sigma_raises(self):
        # b1 duplicates b0, so Sigma is singular and has no precision.
        S = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(NumericalError, match="not positive definite"):
            path_metrics(S, [0, 1, 2])

    def test_rejects_a_repeated_index(self):
        with pytest.raises(DataError):
            path_metrics(np.eye(3), [0, 0])

    def test_empty_covariance(self):
        assert [a.tolist() for a in path_metrics(np.zeros((0, 0)), [])] == \
            [[0.0], [0.0], [0.0]]


def reference_path_metrics(S, order):
    """path_metrics by the shared recursion on [Sigma, P]: P the full
    inverse, from dpotrs against the identity, and both matrices
    downdated along `order` with shared pivots."""
    S = 0.5 * (S + S.T)
    P = linalg.cho_solve(linalg.cho_factor(S, lower=True), np.eye(len(S)))
    _, _, trace, pivots = selection._pivoted_cholesky(
        [S, P], len(order), selection._pivot_rule(S, "path", order))
    logs = np.log(pivots, out=np.full(pivots.shape, math.nan), where=pivots > 0)
    entropy, mi = (np.concatenate(([0.0], np.cumsum(step))) for step in
                   (0.5 * (LOG_2PIE + logs[:, 0]), 0.5 * logs.sum(axis=1)))
    if len(order) == len(S):
        mi[-1] = 0.0
    return entropy, mi, np.asarray(trace)


@st.composite
def ill_conditioned_paths(draw):
    """An SPD matrix of condition number up to 1e12 and a random order of
    some of its elements."""
    N = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = np.linalg.qr(rng.normal(size=(N, N)))[0]
    w = np.geomspace(1.0, 10.0 ** -draw(st.floats(0.0, 12.0)), N)
    order = rng.permutation(N)[: draw(st.integers(0, N))].tolist()
    return (Q * w) @ Q.T * draw(st.floats(1e-3, 1e3)), order


@pytest.mark.fresh_draws
class TestPrecisionOnThePicks:
    """path_metrics reads P = Sigma^-1 only on the picks, from one solve
    against Sigma's factor, and agrees with the shared [Sigma, P]
    recursion: MI within the conditioning tolerance, with the same NaN
    cells, and entropy and residual trace bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(full_rank_paths(), ill_conditioned_paths()))
    def test_matches_the_shared_recursion(self, case):
        S, order = case
        N = len(S)
        tol = max(1e-12, 1e-14 * np.linalg.cond(S))
        for A in ([], order, np.random.default_rng(N).permutation(N).tolist()):
            entropy, mi, trace = path_metrics(S, A)
            w_entropy, w_mi, w_trace = reference_path_metrics(S, A)
            assert entropy.tobytes() == w_entropy.tobytes()
            assert trace.tobytes() == w_trace.tobytes()
            assert (np.isnan(mi) == np.isnan(w_mi)).all()
            for a, b in zip(mi, w_mi):
                assert math.isnan(a) or close(a, b, tol)

    def test_pivots_are_nan_from_the_first_non_positive_one(self):
        # Indefinite symmetric matrices: the downdate along the identity
        # order gives the same pivots up to its first non-positive one.
        rng = np.random.default_rng(12)
        failed_at = []
        for n in (1, 2, 5, 9):
            for _ in range(20):
                a = rng.normal(size=(n, n)) + rng.uniform(0, 2 * n) * np.eye(n)
                a = a + a.T
                covariance._cholesky(np.eye(1))  # binds LAPACK
                got = covariance._cholesky_pivots(a)
                want = selection._pivoted_cholesky(
                    [a], n, selection._pivot_rule(a, "path", range(n)))[3][:, 0]
                bad = np.flatnonzero(want <= 0)
                first = bad[0] if bad.size else n
                assert np.isnan(got[first:]).all()
                assert got[:first] == pytest.approx(want[:first], rel=1e-10)
                failed_at.append((n, first))
        # The draws hold positive definite matrices and failures at the
        # first, a middle and the last pivot.
        assert {(9, 9), (1, 0), (9, 3), (2, 1), (5, 4)} <= set(failed_at)


@pytest.mark.fresh_draws
class TestNystromBound:
    """Whatever k elements are picked, the residual trace is at least the
    sum of the N - k smallest eigenvalues of Sigma (Harbrecht, Peters &
    Schneider 2012)."""

    @settings(max_examples=200, deadline=None)
    @given(full_rank_paths())
    def test_residual_trace_is_above_the_eigen_tail(self, case):
        S, order = case
        N = len(S)
        self.check(S, path_metrics(S, order)[2])
        self.check(S, greedy_entropy(S, N).residual_trace)
        if N > 1:
            self.check(S, greedy_mi(S, N - 1).residual_trace)

    @staticmethod
    def check(S, trace):
        # tail[k]: the sum of the N - k smallest eigenvalues
        tail = np.append(np.cumsum(np.linalg.eigvalsh(S))[::-1], 0.0)
        for k, t in enumerate(trace):
            assert t >= tail[k] - 1e-9 * np.trace(S)


@st.composite
def padded_spd(draw):
    """An SPD matrix, the same matrix with zero rows and columns (constant
    benchmarks) inserted at drawn positions, which no rounding lets
    Cholesky factor, and a proper nonempty subset of the padded indices."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0, size=(n, 1))
    S = A @ A.T + 0.1 * np.eye(n)
    N = n + draw(st.integers(1, 4))
    keep = np.sort(rng.permutation(N)[:n])
    padded = np.zeros((N, N))
    padded[np.ix_(keep, keep)] = S
    subset = rng.permutation(N)[: draw(st.integers(1, N - 1))].tolist()
    return S, padded, subset


@pytest.mark.fresh_draws
class TestSingularSigma:
    """greedy_mi, path_metrics and mi_value take a positive definite Sigma;
    a singular one raises NumericalError, with no eigenvalue clamp."""

    @settings(max_examples=100, deadline=None)
    @given(padded_spd())
    def test_raises_on_a_singular_sigma(self, case):
        _, padded, subset = case
        for call in (lambda: greedy_mi(padded, len(subset)),
                     lambda: path_metrics(padded, subset),
                     lambda: path_metrics(padded, []),
                     lambda: mi_value(padded, subset)):
            with pytest.raises(NumericalError, match="not positive definite"):
                call()

    @settings(max_examples=100, deadline=None)
    @given(padded_spd())
    def test_spd_input_is_left_unchanged(self, case):
        S, _, _ = case
        before = S.copy()
        N = len(S)
        tol = max(1e-12, 1e-14 * np.linalg.cond(S))
        entropy, mi, trace = path_metrics(S, list(range(N)))
        assert np.isfinite(entropy).all() and np.isfinite(mi).all()
        for k in range(1, N):
            assert close(mi[k], mi_value(S, range(k)), tol)
        if N > 1:
            r = greedy_mi(S, N - 1)
            assert not r.truncated
            assert close(sum(r.gains), mi_value(S, r.order), tol, 1.0)
        assert S.tobytes() == before.tobytes()


class TestBudgeted:
    def test_unit_costs_match_greedy(self):
        S = random_spd(8, seed=5)
        cm = CostModel(costs=np.ones(8), budget=4.0)
        b = budgeted_entropy(S, cm)
        g = greedy_entropy(S, 4)
        assert set(b.order) == set(g.order)

    def test_singleton_branch_wins(self):
        # cheap low-entropy pair vs one expensive high-variance element
        S = np.diag([np.e**2, np.e**10, np.e**2])
        cm = CostModel(costs=np.array([1.0, 10.0, 1.0]), budget=10.0)
        b = budgeted_entropy(S, cm)
        assert set(b.order) == {1}
        # exhaustive check over feasible subsets under the shifted objective
        shift = cm.resolved_shift(S)
        best, best_val = None, -np.inf
        for r in range(1, 4):
            for A in itertools.combinations(range(3), r):
                if sum(cm.costs[list(A)]) > cm.budget:
                    continue
                val = entropy_value(S, A) + shift * len(A)
                if val > best_val:
                    best, best_val = A, val
        got = entropy_value(S, b.order) + shift * len(b.order)
        assert got >= (1 - 1 / np.e) * best_val - 1e-9

    def test_full_budget_takes_everything(self):
        S = random_spd(5, seed=6)
        cm = CostModel(costs=np.ones(5), budget=100.0)
        b = budgeted_entropy(S, cm)
        assert set(b.order) == set(range(5))

    def test_unaffordable(self):
        S = np.eye(2)
        with pytest.raises(DataError):
            budgeted_entropy(S, CostModel(costs=np.array([5.0, 5.0]), budget=1.0))

    @pytest.mark.parametrize("shift_c", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_c_rejected(self, shift_c):
        with pytest.raises(DataError, match="shift_c must be finite"):
            CostModel(np.ones(2), 1.0, shift_c)

    @pytest.mark.parametrize("costs,budget,message", [
        ([1.0, np.nan, 1.0], 2.0, "costs must be positive"),
        ([1.0, 1.0, 1.0], np.nan, "budget must be positive")])
    def test_nan_cost_or_budget_rejected(self, costs, budget, message):
        # NaN fails every comparison, so a test of <= 0 lets it through
        with pytest.raises(DataError, match=f"^{message}$"):
            CostModel(np.array(costs), budget)

    def test_infinite_budget_takes_everything(self):
        b = budgeted_entropy(random_spd(4, seed=9),
                             CostModel(np.ones(4), np.inf))
        assert sorted(b.order) == [0, 1, 2, 3]

    def test_no_affordable_positive_variance(self):
        # element 0 is affordable but has zero variance, element 1 is too dear
        cm = CostModel(np.array([1.0, 5.0]), 2.0)
        with pytest.raises(DataError, match="no affordable element with positive variance"):
            budgeted_entropy(np.diag([0.0, 1.0]), cm)

    def test_costs_must_be_1d(self):
        # a column of costs used to reach budgeted_entropy as an IndexError
        with pytest.raises(DataError, match="^costs must be 1-D$"):
            CostModel(np.ones((3, 1)), 2.0)

    def test_indefinite_input_rejected_like_greedy_entropy(self):
        # eigenvalue -0.8: after picks 0 and 1 the residual of 2 is -15.2
        S = np.array([[1, .9, .9], [.9, 1, -.9], [.9, -.9, 1]])
        message = "^negative residual variance: input is not PSD$"
        with pytest.raises(NumericalError, match=message):
            greedy_entropy(S, 3)
        with pytest.raises(NumericalError, match=message):
            budgeted_entropy(S, CostModel(np.ones(3), 3.0))

    def test_cost_within_budget(self):
        rng = np.random.default_rng(8)
        S = random_spd(10, seed=8)
        costs = rng.uniform(0.5, 3.0, size=10)
        b = budgeted_entropy(S, CostModel(costs=costs, budget=6.0))
        assert b.total_cost <= 6.0 + 1e-12


class TestRandomSelect:
    def test_full_permutation(self):
        r = random_select(6, 6, seed=1)
        assert sorted(r.order) == list(range(6))
        assert r.objective == "random"
        assert r.seed == 1

    def test_deterministic(self):
        assert random_select(9, 4, seed=3).order == random_select(9, 4, seed=3).order

    def test_uniformity(self):
        counts = np.zeros(5)
        for seed in range(10000):
            counts[random_select(5, 1, seed=seed).order[0]] += 1
        expect = 2000
        sigma = np.sqrt(10000 * 0.2 * 0.8)
        assert (np.abs(counts - expect) <= 5 * sigma).all()

    def test_k_too_big(self):
        with pytest.raises(DataError):
            random_select(3, 4, seed=0)

    def test_negative_k_rejected(self):
        with pytest.raises(DataError, match="out of range"):
            random_select(5, -2, seed=0)

    def test_k_zero_selects_nothing(self):
        r = random_select(5, 0, seed=0)
        assert r.order == () and r.gains == ()


class TestValues:
    def test_unit_singleton_entropy(self):
        v = entropy_value(np.eye(3), [1])
        assert v == pytest.approx(0.5 * LOG_2PIE, abs=1e-12)
        assert v == pytest.approx(1.4189385332046727, abs=1e-10)

    def test_identity_additive(self):
        assert entropy_value(np.eye(5), [0, 2, 4]) == pytest.approx(
            3 * 0.5 * LOG_2PIE, abs=1e-12
        )

    def test_mi_block_diagonal_zero(self):
        S = np.block(
            [[random_spd(2, seed=1), np.zeros((2, 3))],
             [np.zeros((3, 2)), random_spd(3, seed=2)]]
        )
        assert mi_value(S, [0, 1]) == pytest.approx(0.0, abs=1e-10)

    def test_mi_bivariate(self):
        S = np.array([[1.0, 0.8], [0.8, 1.0]])
        assert mi_value(S, [0]) == pytest.approx(-0.5 * np.log(0.36), abs=1e-10)

    def test_mi_symmetry_and_boundaries(self):
        S = random_spd(6, seed=12)
        for r in range(1, 6):
            A = list(range(r))
            comp = list(range(r, 6))
            assert mi_value(S, A) == pytest.approx(mi_value(S, comp), abs=1e-9)
            assert mi_value(S, A) >= -1e-9
        assert mi_value(S, []) == 0.0
        assert mi_value(S, list(range(6))) == 0.0


class TestSpectrum:
    def test_identity(self):
        rep = spectrum(np.eye(4))
        assert np.allclose(rep.explained, [0.25, 0.5, 0.75, 1.0], atol=1e-12)

    def test_rank_one(self):
        rep = spectrum(np.ones((3, 3)))
        assert rep.explained[0] == pytest.approx(1.0, abs=1e-12)

    def test_invariants(self):
        rep = spectrum(random_spd(7, seed=13))
        assert (np.diff(rep.eigenvalues) <= 1e-12).all()
        assert np.allclose(rep.residual_fraction, 1 - rep.explained, atol=1e-12)

    @pytest.mark.fresh_draws
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.floats(1e-6, 1e6),
           st.integers(0, 2**32 - 1))
    def test_fractions_end_at_one_and_zero(self, N, rank, scale, seed):
        # A PSD matrix of any rank: the last row is exactly 1 and 0, and
        # no residual fraction is negative while no eigenvalue is.
        A = np.random.default_rng(seed).normal(size=(N, min(rank, N)))
        rep = spectrum(scale * A @ A.T)
        assert rep.explained[-1] == 1.0 and rep.residual_fraction[-1] == 0.0
        if rep.eigenvalues[-1] >= 0:
            assert (rep.residual_fraction >= 0).all()

    def test_smallest_k(self):
        rep = spectrum(np.diag([9.0, 0.5, 0.5]))
        assert rep.smallest_k(0.9) == 1
        assert rep.smallest_k(0.95) == 2


class TestResidualTrace:
    def test_empty_set(self):
        S = random_spd(5, seed=14)
        assert residual_trace(S, []) == pytest.approx(np.trace(S), abs=1e-12)

    def test_diagonal(self):
        S = np.diag([4.0, 3.0, 2.0, 1.0])
        assert residual_trace(S, [0, 2]) == pytest.approx(4.0, abs=1e-12)

    def test_matches_greedy_run(self):
        S = random_spd(9, seed=15)
        r = greedy_entropy(S, 4)
        assert residual_trace(S, r.order) == pytest.approx(
            r.residual_trace[-1], abs=1e-8
        )

    def test_singular_block_raises(self):
        with pytest.raises(NumericalError, match="Sigma_AA is singular"):
            residual_trace(np.ones((3, 3)), [0, 1])

    def test_eigen_tail_lower_bound(self):
        S = random_spd(8, seed=16)
        lam = np.sort(np.linalg.eigvalsh(S))[::-1]
        for k in range(1, 8):
            for A in itertools.combinations(range(8), k):
                assert residual_trace(S, list(A)) >= lam[k:].sum() - 1e-8


class TestNonFiniteCovariance:
    # No LAPACK call checks its input, so every entry point checks once.
    CALLS = {
        "greedy_entropy": lambda S: greedy_entropy(S, 1),
        "greedy_mi": lambda S: greedy_mi(S, 1),
        "budgeted_entropy": lambda S: budgeted_entropy(
            S, CostModel(np.ones(3), 2.0)),
        "path_metrics": lambda S: path_metrics(S, [0, 1]),
        "residual_trace": lambda S: residual_trace(S, [0]),
        "entropy_value": lambda S: entropy_value(S, [0]),
        "mi_value": lambda S: mi_value(S, [0]),
        "spectrum": spectrum,
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected(self, name, bad):
        S = random_spd(3, seed=17)
        S[2, 1] = S[1, 2] = bad
        with pytest.raises(DataError, match="finite"):
            self.CALLS[name](S)


class TestSubmodularity:
    def test_conditional_variance_gains(self):
        # diminishing returns of the marginal conditional variance,
        # exhaustively over nested subsets of a 6-element ground set
        S = random_spd(6, seed=20)

        def cond_var(j, A):
            if not A:
                return S[j, j]
            A = list(A)
            return S[j, j] - S[j, A] @ np.linalg.solve(S[np.ix_(A, A)], S[A, j])

        universe = range(6)
        for r_a in range(0, 4):
            for A in itertools.combinations(universe, r_a):
                for B in itertools.combinations(universe, r_a + 1):
                    if not set(A) <= set(B):
                        continue
                    for v in universe:
                        if v in set(B):
                            continue
                        assert cond_var(v, A) >= cond_var(v, B) - 1e-9


class TestSerialization:
    def test_to_dict_names(self):
        S = random_spd(4, seed=21)
        r = greedy_entropy(S, 2)
        d = r.to_dict(["a", "b", "c", "d"])
        assert d["objective"] == "entropy"
        assert len(d["selected"]) == 2
        assert len(d["residual_trace"]) == 3
        assert d["truncated"] is False

    def test_to_dict_records_a_seed(self):
        d = random_select(4, 2, seed=7).to_dict(["a", "b", "c", "d"])
        assert d["seed"] == 7 and d["objective"] == "random"


class TestValidation:
    """Checks and stops that no other test reaches, one per case."""

    def test_mi_stops_at_the_degeneracy_floor(self):
        r = greedy_mi(np.diag([1, 1, 1e-13, 1e-13]), 3)
        assert r.order == (0, 1) and r.truncated

    @pytest.mark.parametrize("call,error,message", [
        (lambda: SelectionResult((0, 0), (1.0, 1.0), (2.0, 1.0, 0.0), "mi"),
         DataError, "selection order contains duplicates"),
        (lambda: greedy_entropy(np.ones((2, 3)), 1),
         DataError, "covariance must be square"),
        (lambda: greedy_entropy(np.diag([1.0, -1.0]), 1),
         DataError, "covariance has a negative diagonal entry"),
        (lambda: budgeted_entropy(np.eye(3), CostModel(np.ones(2), 1.0)),
         DataError, "cost vector length does not match covariance size"),
        (lambda: entropy_value(np.eye(2), []), DataError, "A must be nonempty"),
        (lambda: entropy_value(np.array([[1.0, 2.0], [2.0, 1.0]]), [0, 1]),
         NumericalError, "selected principal submatrix is singular"),
    ], ids=["duplicate-order", "not-square", "negative-diagonal",
            "cost-length", "empty-A", "singular-block"])
    def test_rejected(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call()


def same_path(a, b, rel):
    """a and b take the same greedy path up to ties: step by step their
    gains agree within rel, and where the orders part the two picks had
    equal gains, so what follows is no longer comparable."""
    assert len(a.gains) == len(b.gains)
    for t, (i, j) in enumerate(zip(a.order, b.order)):
        assert close(a.gains[t], b.gains[t], rel)
        if i != j:
            return
    assert a.residual_trace == pytest.approx(b.residual_trace, rel=rel,
                                             abs=rel * a.residual_trace[0])


@st.composite
def permuted_covariances(draw):
    """A full-rank covariance, a permutation of its indices and a k."""
    N = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(N, N)) * rng.uniform(0.1, 10.0, size=(N, 1))
    return A @ A.T, rng.permutation(N), draw(st.integers(1, N - 1))


@st.composite
def rescaled_matrices(draw):
    """A score matrix, complete or with MCAR holes, and a copy whose
    columns are each scaled by a positive factor and shifted."""
    N = draw(st.integers(2, 8))
    M = draw(st.integers(N + 3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(M, 3)) @ rng.normal(size=(3, N))
    X += 0.3 * rng.normal(size=(M, N))
    mask = rng.random((M, N)) >= draw(st.sampled_from([0.0, 0.2]))
    mask[: N + 1] = True
    mask[mask.sum(axis=1) == 0, 0] = True
    scale = rng.uniform(0.1, 10.0, size=N)
    shift = rng.uniform(-10.0, 10.0, size=N)
    m = make_matrix(np.where(mask, X, np.nan), mask)
    return m, m.with_values(m.values * scale + shift)


class TestInvariance:
    @settings(max_examples=200, deadline=None)
    @given(permuted_covariances())
    def test_greedy_orders_are_permutation_equivariant(self, case):
        S, perm, k = case
        Sp = S[np.ix_(perm, perm)]
        tol = max(1e-12, 1e-14 * np.linalg.cond(S))
        for greedy in (greedy_entropy, greedy_mi):
            want, got = greedy(S, k), greedy(Sp, k)
            mapped = dataclasses.replace(
                got, order=tuple(int(perm[j]) for j in got.order))
            same_path(mapped, want, tol)

    @settings(max_examples=60, deadline=None)
    @given(rescaled_matrices())
    def test_select_through_fit_model_ignores_column_scale_and_shift(
            self, case):
        m, rescaled = case
        S = fit_model(m).model.cov
        Sr = fit_model(rescaled).model.cov
        # EM may stop one cycle apart on the two inputs, which moves Sigma
        # by up to its rel_tol.
        tol = 1e-10 if m.mask.all() else 1e-5
        N = S.shape[0]
        for greedy in (greedy_entropy, greedy_mi):
            same_path(greedy(Sr, N - 1), greedy(S, N - 1), tol)
