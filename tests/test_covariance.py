import json
from decimal import Context, Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.linalg import lapack
from scipy.linalg.lapack import dtrtrs

from benchsel import covariance
from benchsel.covariance import (
    EmConfig,
    GaussianModel,
    em_fit,
    estimate_full,
    fit_model,
    mean_missing,
    pairwise_cov,
    psd_project,
    to_correlation,
)
from benchsel.errors import DataError, NumericalError
from benchsel.score_matrix import (
    column_stats, logit_params, logit_transform, standardize)

from conftest import make_matrix, mcar_matrix, random_spd


class TestEstimateFull:
    def test_hand_2x2(self):
        m = make_matrix([[1.0, 0.0], [0.0, 1.0]])
        g = estimate_full(m)
        assert np.allclose(g.mean, [0.5, 0.5], atol=1e-12)
        assert np.allclose(g.cov, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
        assert g.estimator == "full"

    def test_duplicated_rows_rescale(self):
        # doubling every row changes only the 1/(M-1) factor
        rows = np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 4.0]])
        g1 = estimate_full(make_matrix(rows))
        g2 = estimate_full(make_matrix(np.vstack([rows, rows])))
        # centered cross products double, denominator goes 2 -> 5
        assert np.allclose(g2.cov, g1.cov * 2 * 2 / 5, atol=1e-12)

    def test_missing_rejected(self):
        m = make_matrix([[1.0, np.nan], [3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(DataError):
            estimate_full(m)

    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(30, 5))
        g = estimate_full(make_matrix(vals))
        assert np.allclose(g.cov, np.cov(vals, rowvar=False), atol=1e-12)


class TestMeanMissing:
    def test_hand(self):
        m = make_matrix([[1.0, np.nan], [3.0, 4.0], [2.0, 6.0]])
        assert np.allclose(mean_missing(m), [2.0, 5.0], atol=1e-12)

    def test_fully_observed(self):
        rng = np.random.default_rng(1)
        m = make_matrix(rng.normal(size=(9, 3)))
        assert np.allclose(mean_missing(m), estimate_full(m).mean, atol=1e-12)


class TestPairwiseCov:
    def test_fully_observed_matches_full(self):
        rng = np.random.default_rng(4)
        m = make_matrix(rng.normal(size=(15, 4)))
        mu = mean_missing(m)
        assert np.allclose(pairwise_cov(m, mu), estimate_full(m).cov, atol=1e-12)

    def test_never_coobserved_entry_zero(self):
        vals = np.array(
            [
                [1.0, np.nan, 2.0],
                [2.0, np.nan, 1.0],
                [np.nan, 3.0, 4.0],
                [np.nan, 5.0, 0.0],
            ]
        )
        m = make_matrix(vals)
        S = pairwise_cov(m, mean_missing(m))
        assert S[0, 1] == 0.0
        assert S[1, 0] == 0.0

    def test_single_coobservation_floored(self):
        vals = np.array(
            [
                [1.0, 4.0],
                [2.0, np.nan],
                [3.0, np.nan],
                [np.nan, 5.0],
            ]
        )
        m = make_matrix(vals)
        mu = mean_missing(m)
        S = pairwise_cov(m, mu)
        # n_01 = 1, denominator max(0, 1) = 1
        assert S[0, 1] == pytest.approx((1.0 - mu[0]) * (4.0 - mu[1]), abs=1e-12)

    def test_oracle_loop(self):
        matrix, _, _ = mcar_matrix(40, 4, 0.3, seed=9)
        mu = mean_missing(matrix)
        S = pairwise_cov(matrix, mu)
        V = matrix.values
        O = matrix.mask
        for j in range(4):
            for k in range(4):
                both = O[:, j] & O[:, k]
                num = np.sum((V[both, j] - mu[j]) * (V[both, k] - mu[k]))
                assert S[j, k] == pytest.approx(num / max(both.sum() - 1, 1), abs=1e-10)


class TestPsdProject:
    def test_psd_unchanged(self):
        S = random_spd(5, seed=2)
        assert np.allclose(psd_project(S, 1e-10), S, atol=1e-10)

    def test_diagonal_clamp(self):
        out = psd_project(np.diag([1.0, -0.5]), 1e-3)
        assert np.allclose(out, np.diag([1.0, 1e-3]), atol=1e-12)

    def test_indefinite_oracle(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(5, 5))
        S = (A + A.T) / 2
        out = psd_project(S, 1e-3)
        w, Q = np.linalg.eigh(S)
        expect = (Q * np.maximum(w, 1e-3)) @ Q.T
        assert np.allclose(out, expect, atol=1e-10)
        assert np.linalg.eigvalsh(out).min() >= 1e-3 - 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(6, 6))
        S = (A + A.T) / 2
        once = psd_project(S, 1e-4)
        assert np.allclose(psd_project(once, 1e-4), once, atol=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(DataError):
            psd_project(np.array([[1.0, 2.0], [0.0, 1.0]]), 1e-6)


class TestToCorrelation:
    def test_diagonal(self):
        assert np.allclose(to_correlation(np.diag([4.0, 9.0])), np.eye(2), atol=1e-12)

    def test_perfect_correlation(self):
        R = to_correlation(np.array([[4.0, 2.0], [2.0, 1.0]]))
        assert np.allclose(R, np.ones((2, 2)), atol=1e-12)

    def test_formula_oracle(self):
        S = random_spd(6, seed=5)
        R = to_correlation(S)
        d = np.sqrt(np.diag(S))
        assert np.allclose(R, S / np.outer(d, d), atol=1e-12)
        assert np.allclose(np.diag(R), 1.0, atol=1e-12)
        assert np.abs(R).max() <= 1 + 1e-9

    def test_nonpositive_diagonal(self):
        with pytest.raises(DataError):
            to_correlation(np.array([[0.0, 0.0], [0.0, 1.0]]))


class TestEmFit:
    def test_fully_observed_fast_and_matches_the_map_closed_form(self):
        # (Bc'Bc + nu diag(D)) / (M + nu), where D, the pairwise diagonal,
        # is that of the 1/(M-1) covariance on a complete matrix
        rng = np.random.default_rng(12)
        vals = rng.normal(size=(40, 4))
        m = make_matrix(vals)
        g = em_fit(m, EmConfig())
        assert g.converged
        assert g.em_iterations <= 3
        full = estimate_full(m)
        M = 40
        want = (full.cov * (M - 1) + PRIOR_NU * np.diag(np.diag(full.cov))) \
            / (M + PRIOR_NU)
        assert np.allclose(g.mean, full.mean, atol=1e-8)
        assert np.allclose(g.cov, want, atol=1e-8)

    def test_single_missing_cell_bivariate_fill(self):
        # E-step fill for one missing cell must match the closed-form
        # conditional mean mu2 + (S12/S11)(x1 - mu1) at the fitted moments
        rng = np.random.default_rng(13)
        z = rng.normal(size=(60, 2))
        vals = np.column_stack([z[:, 0], 0.8 * z[:, 0] + 0.6 * z[:, 1]])
        vals_missing = vals.copy()
        vals_missing[0, 1] = np.nan
        m = make_matrix(vals_missing)
        g = em_fit(m, EmConfig(rel_tol=1e-12, max_iter=2000))
        fill = g.mean[1] + g.cov[0, 1] / g.cov[0, 0] * (vals[0, 0] - g.mean[0])
        # at the EM fixed point the M-step mean reproduces the fill
        mu1_restored = (np.sum(vals_missing[1:, 1]) + fill) / 60
        assert g.mean[1] == pytest.approx(mu1_restored, abs=1e-6)

    def test_mcar_beats_pairwise(self):
        matrix, _, Sigma = mcar_matrix(500, 6, 0.2, seed=17)
        g = em_fit(matrix, EmConfig())
        S_pw = psd_project(
            pairwise_cov(matrix, mean_missing(matrix)), 1e-10
        )
        err_em = np.linalg.norm(g.cov - Sigma)
        err_pw = np.linalg.norm(S_pw - Sigma)
        assert err_em < err_pw

    def test_loglik_nondecreasing_when_unclamped(self):
        matrix, _, _ = mcar_matrix(300, 5, 0.15, seed=21)
        g = em_fit(matrix, EmConfig())
        assert not g.clamped
        assert (np.diff(g.loglik_trace) >= -1e-8).all()

    def test_slow_mcar_fit_converges_to_its_optimum(self):
        # Seven complete rows; the other rows miss 60% of their cells.
        # Plain EM under the prior (reference_em_fit) stops at the default
        # rel_tol after 121 iterations at -489.70725136279873, and needs
        # 264 to stop at rel_tol=1e-10, at -489.70725135552493.
        m, _, _ = mcar_matrix(80, 6, 0.6, seed=3, complete_rows=7)
        g = em_fit(m, EmConfig())
        assert g.converged
        assert g.loglik_trace[-1] > -489.70725136279873
        assert g.loglik_trace[-1] >= -489.70725135552493 * (1 + 1e-8)

    def test_sigma_stop_leaves_the_loglik_settled(self):
        # No complete rows: once Sigma's change per cycle is below
        # rel_tol, the penalized objective has settled to rel_tol too.
        m, _, _ = mcar_matrix(40, 8, 0.4, seed=0)
        g = em_fit(m, EmConfig())
        last, prev = g.loglik_trace[-2:]
        assert g.converged
        assert abs(last - prev) < 1e-6 * abs(prev)

    def test_chain_of_windows_converges_quickly(self):
        # Only the prior pins the covariances of the columns that no suite
        # observes together.  The fit takes 26 cycles.
        g = em_fit(_chain_of_windows_example())
        assert g.converged
        assert g.em_iterations <= 40

    def test_max_iter_exhaustion_not_error(self):
        matrix, _, _ = mcar_matrix(200, 5, 0.3, seed=22)
        g = em_fit(matrix, EmConfig(max_iter=1, rel_tol=1e-15))
        assert not g.converged
        assert g.em_iterations == 1

    @pytest.mark.parametrize("kwargs", [
        {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": 3.0},
        {"max_iter": True}, {"max_iter": "5"}, {"rel_tol": 0.0},
        {"rel_tol": -1e-6}, {"rel_tol": float("nan")}])
    def test_config_rejects(self, kwargs):
        # A NaN rel_tol would never stop a fit: every cycle's change
        # compares false against it.
        with pytest.raises(DataError, match="^(max_iter|rel_tol) must be"):
            EmConfig(**kwargs)

    def test_config_accepts_numpy_integer(self):
        assert EmConfig(max_iter=np.int64(3)).max_iter == 3

    def test_estimator_tag(self):
        matrix, _, _ = mcar_matrix(100, 4, 0.2, seed=23)
        assert em_fit(matrix, EmConfig()).estimator == "em"

    def test_rank_deficient_fit_is_shrunk_toward_the_identity(self):
        # M = 8 < N = 12, standardized, so the prior's target diag(D) is
        # about the identity; every M-step adds nu diag(D) / (M + nu) to a
        # PSD matrix, so no eigenvalue is below nu min(D) / (M + nu)
        raw, _, _ = mcar_matrix(8, 12, 0.2, seed=25)
        matrix = standardize(raw, column_stats(raw))
        D = np.diag(pairwise_cov(matrix, mean_missing(matrix)))
        assert np.allclose(D, 1.0, atol=1e-12)
        g = em_fit(matrix)
        assert g.converged
        bound = PRIOR_NU * D.min() / (8 + PRIOR_NU)
        assert np.linalg.eigvalsh(g.cov)[0] >= bound * (1 - 1e-12)


# The weight, in pseudo-observations, of em_fit's prior on Sigma.
PRIOR_NU = 1.0


def _reference_conditional_moments(mu, Sigma, obs_idx, mis_idx, x_obs):
    """Per-row conditional mean/cov of the missing block."""
    Soo = Sigma[np.ix_(obs_idx, obs_idx)]
    Smo = Sigma[np.ix_(mis_idx, obs_idx)]
    Smm = Sigma[np.ix_(mis_idx, mis_idx)]
    c, low = linalg.cho_factor(Soo, lower=True)
    gain = linalg.cho_solve((c, low), Smo.T).T
    cond_cov = Smm - gain @ Smo.T
    return mu[mis_idx] + gain @ (x_obs - mu[obs_idx]), 0.5 * (cond_cov + cond_cov.T)


def _reference_observed_loglik(m, mu, Sigma, D):
    """Per-row sum of log N(x_obs; mu_obs, Sigma_obs_obs) by slogdet/solve,
    plus the log prior -nu/2 (log det Sigma + tr(Sigma^-1 diag(D)))."""
    total = 0.0
    for i in range(m.shape[0]):
        obs = np.flatnonzero(m.mask[i])
        Soo = Sigma[np.ix_(obs, obs)]
        resid = m.values[i, obs] - mu[obs]
        sign, logdet = np.linalg.slogdet(Soo)
        if sign <= 0:
            return -np.inf
        alpha = np.linalg.solve(Soo, resid)
        total += -0.5 * (len(obs) * np.log(2 * np.pi) + logdet + resid @ alpha)
    sign, logdet = np.linalg.slogdet(Sigma)
    trace = np.trace(np.linalg.solve(Sigma, np.diag(D)))
    return total - 0.5 * PRIOR_NU * (logdet + trace)


def reference_em_map(m, mu, Sigma, D):
    """One EM update under the prior, with a row-by-row E-step."""
    M, N = m.shape
    completed = np.where(m.mask, m.values, 0.0)
    correction = np.zeros((N, N))
    for i in range(M):
        mis = np.flatnonzero(~m.mask[i])
        if mis.size == 0:
            continue
        obs = np.flatnonzero(m.mask[i])
        cond_mean, cond_cov = _reference_conditional_moments(
            mu, Sigma, obs, mis, m.values[i, obs],
        )
        completed[i, mis] = cond_mean
        correction[np.ix_(mis, mis)] += cond_cov
    mu_new = completed.mean(axis=0)
    Bc = completed - mu_new
    Sigma_new = (Bc.T @ Bc + correction + PRIOR_NU * np.diag(D)) / (M + PRIOR_NU)
    return mu_new, 0.5 * (Sigma_new + Sigma_new.T)


def reference_em_init(m):
    """em_fit's starting point and the prior's diagonal D."""
    mu = mean_missing(m)
    S = pairwise_cov(m, mu)
    D = np.diag(S).copy()
    return mu, psd_project(S, PRIOR_NU * D.min() / (m.shape[0] + PRIOR_NU)), D


def reference_em_fit(m, cfg):
    """Plain EM under the prior, stopped by the relative Frobenius change
    of Sigma alone, with a row-by-row E-step.  `loglik_trace` holds only
    the final penalized objective, from a separate row-by-row pass."""
    mu, Sigma, D = reference_em_init(m)
    converged = False
    for it in range(1, cfg.max_iter + 1):
        mu_new, Sigma_new = reference_em_map(m, mu, Sigma, D)
        change = np.linalg.norm(Sigma_new - Sigma, "fro") / max(
            np.linalg.norm(Sigma, "fro"), 1e-300
        )
        mu, Sigma = mu_new, Sigma_new
        if change < cfg.rel_tol:
            converged = True
            break
    return GaussianModel(
        mu, Sigma, "em", em_iterations=it, converged=converged,
        loglik_trace=(_reference_observed_loglik(m, mu, Sigma, D),),
    )


# The bound on an E-step's distance from oracle_em_map, in units of
# cond(Sigma) eps times each output's scale.  Over 6,000 maps of
# em_matrices draws the float row-by-row reference came within 1.1 of
# them, and the precision-form E-step within 1.4.
ORACLE_C = 8.0
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582")
_to_decimal = np.vectorize(Decimal, otypes=[object])


def _decimal_cholesky(A):
    """Lower Cholesky factor of a Decimal object matrix, column by column."""
    L = np.full(A.shape, Decimal(0), dtype=object)
    for j in range(len(A)):
        L[j, j] = (A[j, j] - L[j, :j] @ L[j, :j]).sqrt()
        L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def _decimal_forward(L, B):
    """L^-1 B for a lower-triangular Decimal L and a vector or matrix B."""
    X = B.copy()
    for j in range(len(L)):
        X[j] = (X[j] - L[j, :j] @ X[:j]) / L[j, j]
    return X


def _decimal_logdet(L):
    """log det of L L' from its Cholesky factor L."""
    return 2 * sum(d.ln() for d in np.diag(L))


def oracle_em_map(m, mu, Sigma, D):
    """One EM map under the prior, row by row in 40-digit decimal
    arithmetic from the exact values of its float inputs.

    Each row with observed set o factors Sigma_oo = L L' and takes
    y = L^-1 (x_o - mu_o) and W = L^-1 Sigma_om: its missing cells'
    conditional mean mu_m + W'y and covariance Sigma_mm - W'W, and its
    log-density term from log det L L' and y'y.  Returns
    (mu', Sigma', penalized objective at (mu, Sigma)) as floats.
    """
    M, N = m.shape
    with localcontext(Context(prec=40)):
        mu_d, S_d, D_d = _to_decimal(mu), _to_decimal(Sigma), _to_decimal(D)
        nu = Decimal(PRIOR_NU)
        completed = _to_decimal(np.where(m.mask, m.values, 0.0))
        correction = np.full((N, N), Decimal(0), dtype=object)
        objective = Decimal(0)
        for i in range(M):
            obs, mis = np.flatnonzero(m.mask[i]), np.flatnonzero(~m.mask[i])
            L = _decimal_cholesky(S_d[np.ix_(obs, obs)])
            y = _decimal_forward(L, completed[i, obs] - mu_d[obs])
            objective -= (obs.size * (2 * _PI).ln() + _decimal_logdet(L)
                          + y @ y) / 2
            if mis.size:
                W = _decimal_forward(L, S_d[np.ix_(obs, mis)])
                completed[i, mis] = mu_d[mis] + W.T @ y
                correction[np.ix_(mis, mis)] += S_d[np.ix_(mis, mis)] - W.T @ W
        L = _decimal_cholesky(S_d)
        Z = _decimal_forward(L, np.eye(N, dtype=int).astype(object))
        objective -= nu * (_decimal_logdet(L) + np.sum(Z * Z, axis=0) @ D_d) / 2
        mu_new = completed.sum(axis=0) / M
        Bc = completed - mu_new
        Sigma_new = (Bc.T @ Bc + correction + nu * np.diag(D_d)) / (M + nu)
        return (mu_new.astype(float), Sigma_new.astype(float),
                float(objective))


def _chain_of_windows_example():
    """A 40x8 matrix whose three suites observe columns 0-3, 2-5 and 4-7,
    so columns 0-1 are never observed with 4-7, nor 2-3 with 6-7."""
    rng = np.random.default_rng(20)
    A = rng.normal(size=(8, 8))
    X = rng.multivariate_normal(np.zeros(8), A @ A.T + np.eye(8), size=40)
    mask = np.zeros((40, 8), dtype=bool)
    for rows, start in zip(np.array_split(rng.permutation(40), 3), (0, 2, 4)):
        mask[rows, start:start + 4] = True
    return make_matrix(np.where(mask, X, np.nan), mask)


def _shared_cell_example():
    """A fixed 16x5 matrix whose rows, in a shuffled order, miss {0, 1}
    and {1, 2} (three rows each), {1} and {2, 3, 4} (two rows each), or
    nothing (six rows): two patterns of one size and one of another add
    into the same cells of the correction."""
    rng = np.random.default_rng(29)
    missing = ([()] * 6 + [(0, 1)] * 3 + [(1, 2)] * 3 + [(1,)] * 2
               + [(2, 3, 4)] * 2)
    mask = np.ones((16, 5), dtype=bool)
    for row, mis in zip(rng.permutation(16), missing):
        mask[row, list(mis)] = False
    A = rng.normal(size=(5, 5))
    X = rng.multivariate_normal(np.zeros(5), A @ A.T + np.eye(5), size=16)
    return make_matrix(np.where(mask, X, np.nan), mask)


def _no_complete_rows_example():
    """A fixed 24x5 mask with no complete row: row i misses column i % 5,
    and 30% of the other cells are missing at random."""
    rng = np.random.default_rng(5)
    M, N = 24, 5
    mask = rng.random((M, N)) > 0.3
    mask[np.arange(M), np.arange(M) % N] = False
    empty = np.flatnonzero(~mask.any(axis=1))
    mask[empty, (empty + 1) % N] = True
    A = rng.normal(size=(N, N))
    X = rng.multivariate_normal(np.zeros(N), A @ A.T + np.eye(N), size=M)
    return make_matrix(np.where(mask, X, np.nan), mask)


@st.composite
def em_matrices(draw):
    """Gaussian scores under block, MCAR or mixed (block plus MCAR) masks.

    Block masks give few distinct patterns, MCAR masks mostly one per row.
    Half the draws have their first N + 1 rows fully observed; in the
    other half any row may miss cells, and many draws have no complete
    row, where only the prior keeps the objective bounded.
    """
    N = draw(st.integers(2, 6))
    M = draw(st.integers(3 * N, 6 * N))
    regime = draw(st.sampled_from(["block", "mcar", "mixed"]))
    complete_rows = draw(st.sampled_from([0, N + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.ones((M, N), dtype=bool)
    if regime in ("block", "mixed"):
        suites = rng.random((draw(st.integers(1, 4)), N)) > 0.4
        mask = suites[rng.integers(0, len(suites), size=M)]
    if regime in ("mcar", "mixed"):
        mask = mask & (rng.random((M, N)) > 0.25)
    mask[:complete_rows] = True
    mask[~mask.any(axis=1), 0] = True
    for j in np.flatnonzero(mask.sum(axis=0) < 2):
        mask[rng.choice(M, size=2, replace=False), j] = True
    A = rng.normal(size=(N, N))
    X = rng.multivariate_normal(rng.normal(size=N), A @ A.T + np.eye(N), size=M)
    return make_matrix(np.where(mask, X, np.nan), mask)


@st.composite
def complete_matrices(draw):
    """Complete Gaussian scores, taller or wider than they are long, with
    column scales from 0.1 to 10."""
    N = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(draw(st.integers(2, 30)), N))
    return make_matrix(X * rng.uniform(0.1, 10.0, size=N) + rng.normal(size=N))


def rel_close(a, b, rel):
    """a and b agree within rel, relative to b's largest entry."""
    return np.abs(a - b).max() <= rel * np.abs(b).max()


@pytest.mark.fresh_draws
class TestCompleteClosedForm:
    """On a complete matrix em_fit returns the EM map's fixed point."""

    @settings(max_examples=60, deadline=None)
    @given(complete_matrices())
    def test_is_the_fixed_point_of_plain_em(self, m):
        g = em_fit(m)
        assert (g.em_iterations, g.converged, g.loglik_trace) == (0, True, ())
        _, _, D = reference_em_init(m)
        mu, Sigma, _ = covariance._em_map(
            m, covariance._missingness_stacks(m), g.mean, g.cov, D)
        assert rel_close(mu, g.mean, 1e-12)
        assert rel_close(Sigma, g.cov, 1e-12)
        ref = reference_em_fit(m, EmConfig())
        assert ref.converged
        assert rel_close(g.mean, ref.mean, 1e-12)
        assert rel_close(g.cov, ref.cov, 1e-12)


class TestEmPatternSweep:
    @pytest.mark.fresh_draws
    @settings(max_examples=30, deadline=None)
    @given(em_matrices(), st.integers(0, 3))
    # One pattern per row, up to 10 of 12 cells missing.
    @example(mcar_matrix(40, 12, 0.5, seed=3)[0], 1)
    # Three patterns, none complete, missing 4 cells each.
    @example(_chain_of_windows_example(), 1)
    # Two patterns of one size that share a missing cell, and a third
    # pattern of another size that shares it too, each on several rows.
    @example(_shared_cell_example(), 1)
    def test_matches_per_row_reference(self, m, stride):
        # One EM map at the start and at several iterates of plain EM: the
        # pattern-grouped E-step and M-step against the 40-digit
        # row-by-row oracle.  An E-step's rounding error grows with the
        # conditioning of Sigma, so each output is held to
        # ORACLE_C cond(Sigma) eps of its scale: |mu'| plus the largest
        # sd, |Sigma'|, and |objective| plus the observed cell count, as
        # each cell adds a log 2 pi and a log det term of order one.
        patterns = covariance._missingness_stacks(m)
        mu, Sigma, D = reference_em_init(m)
        for step in range(5):
            for _ in range(stride if step else 0):
                mu, Sigma = reference_em_map(m, mu, Sigma, D)
            got_mu, got_S, got_ll = covariance._em_map(
                m, patterns, mu, Sigma, D
            )
            want_mu, want_S, want_ll = oracle_em_map(m, mu, Sigma, D)
            tol = ORACLE_C * np.linalg.cond(Sigma) * np.finfo(float).eps
            scale_mu = np.abs(want_mu).max() + np.sqrt(np.diag(want_S).max())
            assert np.abs(got_mu - want_mu).max() <= tol * scale_mu
            assert np.abs(got_S - want_S).max() <= tol * np.abs(want_S).max()
            assert abs(got_ll - want_ll) <= tol * (abs(want_ll) + m.mask.sum())
            mu, Sigma = want_mu, want_S

    @pytest.mark.fresh_draws
    @settings(max_examples=50, deadline=None)
    @given(em_matrices())
    @example(_no_complete_rows_example())
    def test_loglik_nondecreasing(self, m):
        # A block draw whose columns are never observed together converges
        # slowest: there only the prior pins their covariance.  Over two
        # sets of 3000 draws the slowest took 112 cycles, the median 6-7.
        g = em_fit(m, EmConfig(max_iter=1000))
        assert g.converged and not g.clamped
        assert len(g.loglik_trace) == g.em_iterations
        assert (np.diff(g.loglik_trace) >= -1e-8).all()

    @settings(max_examples=15, deadline=None)
    @given(em_matrices())
    def test_no_lower_than_plain_em(self, m):
        cfg = EmConfig(rel_tol=1e-10, max_iter=20000)
        g = em_fit(m, cfg)
        ref = reference_em_fit(m, cfg)
        assert g.converged
        if m.mask.all():
            # No cycle and no trace: the closed form is plain EM's limit.
            assert g.loglik_trace == ()
            assert rel_close(g.cov, ref.cov, 1e-12)
            return
        # Plain EM may still be short of the optimum after max_iter; it
        # only climbs, so SQUAREM must be above it all the same.
        assert g.loglik_trace[-1] >= ref.loglik_trace[-1] - 1e-8 * abs(
            ref.loglik_trace[-1]
        )
        assert (np.diff(g.loglik_trace) >= -1e-8).all()

    @settings(max_examples=30, deadline=None)
    @given(em_matrices(), st.randoms(use_true_random=False))
    def test_row_permutation_equivariant(self, m, rnd):
        perm = np.array(rnd.sample(range(m.shape[0]), m.shape[0]))
        pm = make_matrix(m.values[perm], m.mask[perm])
        # One EM map: permuting rows reorders the patterns and the sums
        # over them, and nothing else.
        mu, Sigma, D = reference_em_init(m)
        mu, Sigma = reference_em_map(m, mu, Sigma, D)
        got = covariance._em_map(
            pm, covariance._missingness_stacks(pm), mu, Sigma, D
        )
        want = covariance._em_map(
            m, covariance._missingness_stacks(m), mu, Sigma, D
        )
        for a, b in zip(got[:2], want[:2]):
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))
        assert got[2] == pytest.approx(want[2], rel=1e-10)
        # Whole fits: extrapolation amplifies the reordered rounding along
        # the way, and a fit stops wherever its change per cycle falls
        # below rel_tol, which on a slowly contracting map is
        # rel_tol / (1 - rate) away from the optimum.  So the
        # log-likelihood agrees to 1e-8, the parameters to less: a 12x2
        # draw whose two fits stop after 18 and 21 cycles differs by 9e-8.
        cfg = EmConfig(rel_tol=1e-10, max_iter=20000)
        g, p = em_fit(m, cfg), em_fit(pm, cfg)
        assert p.converged and g.converged
        # A complete draw gets the closed form, with no trace.
        assert p.loglik_trace[-1:] == pytest.approx(g.loglik_trace[-1:],
                                                    rel=1e-8)
        for a, b in ((p.mean, g.mean), (p.cov, g.cov)):
            assert np.max(np.abs(a - b)) <= 1e-6 * np.max(np.abs(b))

    def test_singular_pattern_block_raises(self, monkeypatch):
        # Patterns missing one and two of four cells, the two-cell stack
        # holding two blocks.  A principal block of a precision that has
        # factored is positive definite too, so a failing factor of a
        # block P_mm is simulated: every 2x2 block, then only the later
        # one, is made negative definite before the stacked
        # factorization.  It has no cause apart from Sigma, so it gets
        # Sigma's message.
        rng = np.random.default_rng(40)
        vals = rng.normal(size=(9, 4))
        mask = np.ones((9, 4), dtype=bool)
        mask[3:5, 3] = False
        mask[[5, 8], 2:] = False
        mask[[6, 7], :2] = False
        m = make_matrix(np.where(mask, vals, np.nan), mask)
        assert [s.mis.shape for s in covariance._missingness_stacks(m)] == [
            (1, 1), (2, 2)]
        stacked_cholesky = covariance._stacked_cholesky
        for failing in (slice(None), -1):
            def singular_pairs(blocks, failing=failing):
                if blocks.shape[1:] == (2, 2):
                    blocks = blocks.copy()
                    blocks[failing] *= -1.0
                return stacked_cholesky(blocks)

            monkeypatch.setattr(covariance, "_stacked_cholesky",
                                singular_pairs)
            with pytest.raises(NumericalError,
                               match="^EM covariance is singular$"):
                em_fit(m, EmConfig())


def count_factors(mp, sizes, solves, inverses, stacked):
    """From now on, record the order of each matrix that covariance's
    _cholesky factors in `sizes`, each triangular solve in `solves`, the
    order of each inverse from a factor in `inverses`, and the name and
    shape of each stack that numpy's cholesky or inv takes in `stacked`."""
    cholesky = covariance._cholesky

    def recording(a):
        sizes.append(len(a))
        return cholesky(a)

    def dtrtrs_recording(*args, **kwargs):
        solves.append(args[1].shape)
        return lapack.dtrtrs(*args, **kwargs)

    def dpotri_recording(*args, **kwargs):
        inverses.append(len(args[0]))
        return lapack.dpotri(*args, **kwargs)

    def stacked_recording(name):
        routine = getattr(np.linalg, name)

        def record(a):
            stacked.append((name, a.shape))
            return routine(a)
        return record

    mp.setattr(covariance, "_cholesky", recording)
    mp.setattr(covariance, "_lapack", SimpleNamespace(
        dpotrf=lapack.dpotrf, dtrtrs=dtrtrs_recording, dpotri=dpotri_recording))
    for name in ("cholesky", "inv"):
        mp.setattr(np.linalg, name, stacked_recording(name))


class TestOneFactorOfSigma:
    """An EM map factors and inverts Sigma once.  The incomplete patterns
    that miss k cells share one stacked factorization of their blocks
    P_mm of the precision and one stacked inverse of those factors, one
    pair per distinct k and none per pattern; complete rows form no
    pattern and factor nothing."""

    @pytest.mark.fresh_draws
    @settings(max_examples=40, deadline=None)
    @given(em_matrices())
    @example(mcar_matrix(30, 4, 0.2, seed=6, complete_rows=5)[0])
    @example(_shared_cell_example())
    def test_factorizations_per_map(self, m):
        stacks = covariance._missingness_stacks(m)
        mu, Sigma, D = reference_em_init(m)
        sizes, solves, inverses, stacked = [], [], [], []
        with pytest.MonkeyPatch.context() as mp:
            count_factors(mp, sizes, solves, inverses, stacked)
            covariance._em_map(m, stacks, mu, Sigma, D)
        N = m.shape[1]
        # The distinct incomplete mask rows, counted by how many cells
        # they miss, from the mask alone.
        missed = np.unique(~m.mask, axis=0).sum(axis=1)
        ks, groups = np.unique(missed[missed > 0], return_counts=True)
        assert sizes == inverses == [N]
        assert stacked == [(name, (g, k, k)) for k, g in zip(ks, groups)
                           for name in ("cholesky", "inv")]
        # P and the M-step's scatter give every row's quadratic form and
        # the prior's trace: no triangular solve.
        assert solves == []

    def test_singular_sigma_raises(self, monkeypatch):
        # The prior keeps every Sigma EM touches positive definite, so a
        # failing factor of Sigma is simulated.  The complete rows' pattern
        # would read that factor too.
        m, _, _ = mcar_matrix(30, 4, 0.2, seed=6, complete_rows=5)
        cholesky = covariance._cholesky

        def singular_sigma(a):
            return None if len(a) == 4 else cholesky(a)

        monkeypatch.setattr(covariance, "_cholesky", singular_sigma)
        with pytest.raises(NumericalError,
                           match="^EM covariance is singular$"):
            em_fit(m, EmConfig())


class TestGaussianModelJson:
    def test_round_trip(self):
        matrix, _, _ = mcar_matrix(120, 4, 0.2, seed=30)
        g = em_fit(matrix, EmConfig())
        g2 = GaussianModel.from_json(g.to_json())
        assert np.array_equal(g2.mean, g.mean)
        assert np.array_equal(g2.cov, g.cov)
        assert g2.estimator == g.estimator
        assert g2.em_iterations == g.em_iterations
        assert g2.converged == g.converged
        assert g2.loglik_trace == g.loglik_trace
        assert g2.clamped == g.clamped

    def test_round_trip_infinite_loglik_and_clamped(self):
        g = GaussianModel(
            np.zeros(2), np.eye(2), "em", em_iterations=3, converged=False,
            loglik_trace=(-np.inf, -12.5, -3.25), clamped=True,
        )
        g2 = GaussianModel.from_json(g.to_json())
        assert g2.loglik_trace == (-np.inf, -12.5, -3.25)
        assert g2.clamped is True

    def test_asymmetric_cov_symmetrized(self):
        g = GaussianModel(
            mean=np.zeros(2),
            cov=np.array([[1.0, 0.3 + 5e-11], [0.3, 1.0]]),
            estimator="full",
        )
        assert g.cov[0, 1] == g.cov[1, 0]

    @pytest.mark.parametrize("field,index", [("mean", 1), ("cov", 0),
                                             ("cov", 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, index, bad):
        # A NaN compares false in the symmetry check, so it needs its own.
        doc = {"mean": [0.0, 0.0], "cov": [1.0, 0.2, 0.2, 1.0],
               "estimator": "full"}
        doc[field][index] = bad
        with pytest.raises(DataError, match="finite"):
            GaussianModel.from_json(json.dumps(doc))

    @pytest.mark.parametrize("mean,cov", [([[0.0, 1.0]], [1, 0, 0, 1]),
                                          (0.0, [1.0])])
    def test_mean_not_1d_rejected(self, mean, cov):
        # A (1, 2) mean has the size of a 2-vector, so the covariance's
        # shape check alone would let it through.
        doc = {"mean": mean, "cov": cov, "estimator": "full"}
        with pytest.raises(DataError, match="^mean must be 1-D$"):
            GaussianModel.from_json(json.dumps(doc))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


@st.composite
def factor_cases(draw):
    """A symmetric matrix that is positive definite, near-singular (a
    rank-deficient product plus a jitter at or below rounding) or
    indefinite, and right-hand sides in C or Fortran order."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spd", "near-singular", "indefinite"]))
    if kind == "spd":
        A = rng.normal(size=(n, n))
        S = A @ A.T + draw(st.sampled_from([1e-3, 0.1, 1.0])) * np.eye(n)
    elif kind == "near-singular":
        B = rng.normal(size=(n, draw(st.integers(0, n))))
        S = B @ B.T + draw(st.sampled_from([0.0, 1e-18, 1e-15])) * np.eye(n)
    else:
        A = rng.normal(size=(n, n))
        v = rng.normal(size=n)
        S = A @ A.T + 0.1 * np.eye(n) - 10.0 * (1 + v @ v) * np.outer(v, v)
    S = 0.5 * (S + S.T)
    nrhs = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rhs = rng.normal(size=(n, nrhs))
    else:
        rhs = rng.normal(size=(nrhs, n)).T
    return S, rhs


class TestCholeskyHelper:
    """`_cholesky` with dtrtrs gives scipy's front ends' bits."""

    @settings(max_examples=300, deadline=None)
    @given(factor_cases())
    def test_matches_scipy_bit_for_bit(self, case):
        S, rhs = case
        before = S.copy(), rhs.copy()
        got = covariance._cholesky(S)
        assert same_bits(S, before[0])
        try:
            want = linalg.cho_factor(S, lower=True)
        except np.linalg.LinAlgError:
            assert got is None
            return
        assert got is not None and same_bits(got, want[0])
        assert same_bits(dtrtrs(got, rhs, lower=1)[0],
                         linalg.solve_triangular(want[0], rhs, lower=True))
        # The E-step and impute_rows read their right-hand sides again
        # after the solves.
        assert same_bits(rhs, before[1])

    @pytest.mark.fresh_draws
    @settings(max_examples=300, deadline=None)
    @given(factor_cases())
    def test_cho_inverse_matches_cho_solve(self, case):
        S = case[0]
        got = covariance._cholesky(S)
        if got is None:
            return
        inv = covariance._cho_inverse(got)
        assert same_bits(inv, inv.T)
        want = linalg.cho_solve(linalg.cho_factor(S, lower=True), np.eye(len(S)))
        assert rel_close(inv, want, 1e-10)


class TestFitModel:
    """`fit_model` takes em_fit on every matrix, complete or not, on the
    standardized (and, with logit=True, logit) scores."""

    @pytest.mark.parametrize("logit", [False, True])
    @pytest.mark.parametrize("missing", [0.0, 0.2])
    def test_fit_policy(self, missing, logit):
        m, _, _ = mcar_matrix(40, 5, missing, seed=3)
        m = m.with_values(np.abs(m.values))  # logit needs nonnegative scores
        assert m.mask.all() == (missing == 0)
        work = logit_transform(m, logit_params(m)) if logit else m
        std = standardize(work, column_stats(work))
        want = em_fit(std)
        fit = fit_model(m, logit=logit)
        assert same_bits(fit.stats.stds, column_stats(work).stds)
        got = fit.model
        assert got.estimator == "em"
        assert same_bits(got.mean, want.mean)
        assert same_bits(got.cov, want.cov)
        assert got.em_iterations == want.em_iterations
        assert got.loglik_trace == want.loglik_trace


class TestValidation:
    """Checks of GaussianModel, its JSON and pairwise_cov, one per case."""

    @pytest.mark.parametrize("call,message", [
        (lambda: GaussianModel(np.zeros(2), np.eye(3), "full"),
         "covariance shape does not match mean length"),
        (lambda: GaussianModel(np.zeros(2), [[1.0, 0.5], [0.0, 1.0]], "full"),
         "covariance is not symmetric"),
        (lambda: GaussianModel.from_json("{"), "malformed model JSON: .*"),
        (lambda: GaussianModel.from_json(
            '{"mean": [0, 0], "cov": [1, 0, 1], "estimator": "full"}'),
         "malformed model JSON: .*"),
        (lambda: pairwise_cov(make_matrix([[1.0, 2.0], [3.0, 5.0]]),
                              np.zeros(3)),
         "mu dimension does not match matrix width"),
    ], ids=["cov-shape", "asymmetric", "not-json", "cov-size", "mu-width"])
    def test_rejected(self, call, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            call()
