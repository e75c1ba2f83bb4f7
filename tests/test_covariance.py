import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import linalg

from benchsel import covariance
from benchsel.covariance import (
    EmConfig,
    GaussianModel,
    em_fit,
    estimate_full,
    mean_missing,
    pairwise_cov,
    psd_project,
    shrink_identity,
    to_correlation,
)
from benchsel.errors import DataError, NumericalError

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


class TestShrinkIdentity:
    def test_m_ge_n_noop(self):
        S = random_spd(4, seed=1)
        assert np.allclose(shrink_identity(S, M=10, N=4), S, atol=1e-12)

    def test_m_zero_full_shrink(self):
        S = random_spd(4, seed=2)
        out = shrink_identity(S, M=0, N=4)
        assert np.allclose(out, np.eye(4) * np.trace(S) / 4, atol=1e-12)

    def test_trace_preserved(self):
        S = random_spd(6, seed=3)
        out = shrink_identity(S, M=2, N=6)
        assert np.trace(out) == pytest.approx(np.trace(S), abs=1e-9)


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
    def test_fully_observed_fast_and_matches_1_over_m(self):
        rng = np.random.default_rng(12)
        vals = rng.normal(size=(40, 4))
        m = make_matrix(vals)
        g = em_fit(m, EmConfig())
        assert g.converged
        assert g.em_iterations <= 3
        full = estimate_full(m)
        M = 40
        assert np.allclose(g.mean, full.mean, atol=1e-8)
        assert np.allclose(g.cov, full.cov * (M - 1) / M, atol=1e-8)

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
        if not g.clamped:
            diffs = np.diff(g.loglik_trace)
            assert (diffs >= -1e-8).all()

    def test_slow_mcar_fit_converges_to_its_optimum(self):
        # Seven complete rows keep the likelihood bounded; the other rows
        # miss 60% of their cells.  Plain EM ends unconverged after 500
        # iterations at -467.567143269574, and needs 1355 to stop at
        # rel_tol=1e-10, at -467.5671330929.
        m, _, _ = mcar_matrix(80, 6, 0.6, seed=3, complete_rows=7)
        g = em_fit(m, EmConfig())
        assert g.converged
        assert g.loglik_trace[-1] > -467.567143269574
        assert g.loglik_trace[-1] >= -467.5671330929 * (1 + 1e-8)

    def test_does_not_stop_while_the_loglik_moves(self):
        # With no complete rows this likelihood is unbounded: the smallest
        # eigenvalue of Sigma drifts toward the PSD floor while Sigma's
        # relative change per cycle is already below rel_tol.  The
        # log-likelihood rule keeps the fit going until the drift settles.
        m, _, _ = mcar_matrix(40, 8, 0.4, seed=0)
        g = em_fit(m, EmConfig())
        last, prev = g.loglik_trace[-2:]
        assert g.converged
        assert abs(last - prev) < 1e-6 * abs(prev)

    def test_max_iter_exhaustion_not_error(self):
        matrix, _, _ = mcar_matrix(200, 5, 0.3, seed=22)
        g = em_fit(matrix, EmConfig(max_iter=1, rel_tol=1e-15))
        assert not g.converged
        assert g.em_iterations == 1

    def test_estimator_tag(self):
        matrix, _, _ = mcar_matrix(100, 4, 0.2, seed=23)
        assert em_fit(matrix, EmConfig()).estimator == "em"


# The ridge em_fit's E-step retries a failed Cholesky with.
EM_RIDGE = 1e-8


def _reference_conditional_moments(mu, Sigma, obs_idx, mis_idx, x_obs, row_label):
    """Per-row conditional mean/cov of the missing block, ridge retry."""
    Soo = Sigma[np.ix_(obs_idx, obs_idx)]
    Smo = Sigma[np.ix_(mis_idx, obs_idx)]
    Smm = Sigma[np.ix_(mis_idx, mis_idx)]
    resid = x_obs - mu[obs_idx]
    for eps in (0.0, EM_RIDGE):
        try:
            c, low = linalg.cho_factor(
                Soo + eps * np.eye(len(obs_idx)), lower=True
            )
        except np.linalg.LinAlgError:
            continue
        gain = linalg.cho_solve((c, low), Smo.T).T
        cond_mean = mu[mis_idx] + gain @ resid
        cond_cov = Smm - gain @ Smo.T
        return cond_mean, 0.5 * (cond_cov + cond_cov.T)
    raise NumericalError(
        f"observed block for row {row_label!r} is singular even with ridge"
    )


def _reference_observed_loglik(m, mu, Sigma):
    """Per-row sum of log N(x_obs; mu_obs, Sigma_obs_obs) by slogdet/solve."""
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
    return total


def reference_floor(m):
    """em_fit's PSD floor."""
    sparse = m.observed_fraction() < 0.5
    return 1e-3 if (m.shape[0] < m.shape[1] or sparse) else 1e-10


def reference_em_map(m, mu, Sigma, floor):
    """One plain EM update with a row-by-row E-step: (mu', Sigma', clamped)."""
    M, N = m.shape
    completed = np.where(m.mask, m.values, 0.0)
    correction = np.zeros((N, N))
    for i in range(M):
        mis = np.flatnonzero(~m.mask[i])
        if mis.size == 0:
            continue
        obs = np.flatnonzero(m.mask[i])
        cond_mean, cond_cov = _reference_conditional_moments(
            mu, Sigma, obs, mis, m.values[i, obs], m.model_names[i],
        )
        completed[i, mis] = cond_mean
        correction[np.ix_(mis, mis)] += cond_cov
    mu_new = completed.mean(axis=0)
    Bc = completed - mu_new
    Sigma_new = (Bc.T @ Bc + correction) / M
    Sigma_new = 0.5 * (Sigma_new + Sigma_new.T)
    projected = psd_project(Sigma_new, floor)
    clamped = np.max(np.abs(projected - Sigma_new)) > 1e-12 * max(
        1.0, np.max(np.abs(Sigma_new))
    )
    return mu_new, projected, bool(clamped)


def reference_em_init(m):
    """em_fit's starting point."""
    mu = mean_missing(m)
    Sigma = psd_project(pairwise_cov(m, mu), reference_floor(m))
    if m.shape[0] < m.shape[1]:
        Sigma = shrink_identity(Sigma, *m.shape)
    return mu, Sigma


def reference_em_fit(m, cfg):
    """Plain EM, stopped by the relative Frobenius change of Sigma alone,
    with a row-by-row E-step.  `loglik_trace` holds only the final
    log-likelihood, from a separate row-by-row pass."""
    M, N = m.shape
    floor = reference_floor(m)
    mu, Sigma = reference_em_init(m)
    clamped, converged = False, False
    for it in range(1, cfg.max_iter + 1):
        mu_new, Sigma_new, c = reference_em_map(m, mu, Sigma, floor)
        clamped = clamped or c
        change = np.linalg.norm(Sigma_new - Sigma, "fro") / max(
            np.linalg.norm(Sigma, "fro"), 1e-300
        )
        mu, Sigma = mu_new, Sigma_new
        if change < cfg.rel_tol:
            converged = True
            break
    loglik = _reference_observed_loglik(m, mu, Sigma)
    if M < N:
        Sigma = shrink_identity(Sigma, M, N)
    return GaussianModel(
        mu, Sigma, "em", em_iterations=it, converged=converged,
        loglik_trace=(loglik,), clamped=clamped,
    )


@st.composite
def em_matrices(draw):
    """Gaussian scores under block, MCAR or mixed (block plus MCAR) masks.

    Block masks give few distinct patterns, MCAR masks mostly one per row.
    The first N + 1 rows are fully observed, which keeps the fitted Sigma
    well conditioned: on a near-singular Sigma, reordered sums alone move
    the log-likelihood by more than the comparison tolerance.
    """
    N = draw(st.integers(2, 6))
    M = draw(st.integers(3 * N, 6 * N))
    regime = draw(st.sampled_from(["block", "mcar", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.ones((M, N), dtype=bool)
    if regime in ("block", "mixed"):
        suites = rng.random((draw(st.integers(1, 4)), N)) > 0.4
        mask = suites[rng.integers(0, len(suites), size=M)]
    if regime in ("mcar", "mixed"):
        mask = mask & (rng.random((M, N)) > 0.25)
    mask[: N + 1] = True
    mask[~mask.any(axis=1), 0] = True
    A = rng.normal(size=(N, N))
    X = rng.multivariate_normal(rng.normal(size=N), A @ A.T + np.eye(N), size=M)
    return make_matrix(np.where(mask, X, np.nan), mask)


class TestEmPatternSweep:
    @settings(max_examples=30, deadline=None)
    @given(em_matrices(), st.integers(0, 3))
    def test_matches_per_row_reference(self, m, stride):
        # One EM map at several iterates of plain EM: the pattern-grouped
        # E-step and M-step against the row-by-row ones.  The starting
        # point is skipped: its PSD-projected pairwise Sigma can sit at the
        # 1e-10 floor, where summation order alone moves the
        # log-likelihood by more than the tolerance.
        floor = reference_floor(m)
        patterns = covariance._missingness_patterns(m)
        mu, Sigma = reference_em_init(m)
        for _ in range(5):
            for _ in range(1 + stride):
                mu, Sigma, _ = reference_em_map(m, mu, Sigma, floor)
            got_mu, got_S, got_ll, got_c = covariance._em_map(
                m, patterns, mu, Sigma, floor
            )
            want_mu, want_S, want_c = reference_em_map(m, mu, Sigma, floor)
            assert got_c == want_c
            assert np.allclose(got_mu, want_mu, rtol=0, atol=1e-10)
            assert np.allclose(got_S, want_S, rtol=0, atol=1e-10)
            want_ll = _reference_observed_loglik(m, mu, Sigma)
            assert got_ll == pytest.approx(want_ll, rel=1e-10, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(em_matrices())
    def test_loglik_nondecreasing(self, m):
        g = em_fit(m, EmConfig(max_iter=100))
        # the PSD projection is not an M-step, so only unclamped fits qualify
        assume(not g.clamped)
        assert len(g.loglik_trace) == g.em_iterations
        assert (np.diff(g.loglik_trace) >= -1e-8).all()

    @settings(max_examples=15, deadline=None)
    @given(em_matrices())
    def test_no_lower_than_plain_em(self, m):
        cfg = EmConfig(rel_tol=1e-10, max_iter=20000)
        g = em_fit(m, cfg)
        ref = reference_em_fit(m, cfg)
        # A draw whose complete rows are nearly coplanar puts an eigenvalue
        # of the optimum at the PSD floor; there rounding alone moves the
        # log-likelihood by more than the tolerance.
        assume(np.linalg.cond(ref.cov) < 1e6)
        # Plain EM may still be short of the optimum after max_iter; it
        # only climbs, so SQUAREM must be above it all the same.
        assert g.converged
        assert g.loglik_trace[-1] >= ref.loglik_trace[-1] - 1e-8 * abs(
            ref.loglik_trace[-1]
        )
        if not g.clamped:
            assert (np.diff(g.loglik_trace) >= -1e-8).all()

    @settings(max_examples=30, deadline=None)
    @given(em_matrices(), st.randoms(use_true_random=False))
    def test_row_permutation_equivariant(self, m, rnd):
        perm = np.array(rnd.sample(range(m.shape[0]), m.shape[0]))
        pm = make_matrix(m.values[perm], m.mask[perm])
        # One EM map: permuting rows reorders the patterns and the sums
        # over them, and nothing else.
        floor = reference_floor(m)
        mu, Sigma = reference_em_init(m)
        mu, Sigma, _ = reference_em_map(m, mu, Sigma, floor)
        got = covariance._em_map(
            pm, covariance._missingness_patterns(pm), mu, Sigma, floor
        )
        want = covariance._em_map(
            m, covariance._missingness_patterns(m), mu, Sigma, floor
        )
        for a, b in zip(got[:2], want[:2]):
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))
        assert got[2] == pytest.approx(want[2], rel=1e-10)
        # Whole fits: extrapolation amplifies the reordered rounding along
        # the way, and a fit stops wherever its change per cycle falls
        # below rel_tol, which on a slowly contracting map is
        # rel_tol / (1 - rate) away from the optimum.  So the
        # log-likelihood agrees to 1e-8, the parameters to less.
        cfg = EmConfig(rel_tol=1e-10, max_iter=20000)
        g, p = em_fit(m, cfg), em_fit(pm, cfg)
        assert p.converged and g.converged
        assert p.loglik_trace[-1] == pytest.approx(g.loglik_trace[-1], rel=1e-8)
        for a, b in ((p.mean, g.mean), (p.cov, g.cov)):
            assert np.max(np.abs(a - b)) <= 1e-6 * np.max(np.abs(b))

    def test_singular_pattern_names_its_first_row(self, monkeypatch):
        # Two 2-of-4 patterns: [F, F, T, T] sorts before [T, T, F, F], but
        # the latter comes first in the file (row m5), so it is named.
        rng = np.random.default_rng(40)
        vals = rng.normal(size=(9, 4))
        mask = np.ones((9, 4), dtype=bool)
        mask[3:5, 3] = False
        mask[[5, 8], 2:] = False
        mask[[6, 7], :2] = False
        m = make_matrix(np.where(mask, vals, np.nan), mask)

        # The PSD floor keeps a fitted Sigma positive definite, so a
        # singular observed block is simulated: every 2x2 factorization fails.
        class SingularPairs:
            def __getattr__(self, name):
                return getattr(linalg, name)

            def cho_factor(self, a, **kw):
                if a.shape == (2, 2):
                    raise np.linalg.LinAlgError("not positive definite")
                return linalg.cho_factor(a, **kw)

        monkeypatch.setattr(covariance, "linalg", SingularPairs())
        with pytest.raises(NumericalError, match="row 'm5' is singular"):
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
