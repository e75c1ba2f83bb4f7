import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from benchsel import imputation
from benchsel.covariance import GaussianModel, fit_model
from benchsel.errors import DataError, NumericalError
from benchsel.imputation import (
    STANDARDIZED_CLIP,
    clip_standardized,
    impute_prefixes,
    impute_row,
    impute_rows,
    r2_standardized,
)

from conftest import make_matrix, random_spd


def model_from(cov, mean=None):
    cov = np.asarray(cov, dtype=float)
    mean = np.zeros(cov.shape[0]) if mean is None else np.asarray(mean, float)
    return GaussianModel(mean=mean, cov=cov, estimator="full")


class TestImputeRow:
    def test_diagonal_gives_marginal_mean(self):
        g = model_from(np.diag([1.0, 2.0, 3.0]), mean=[0.5, -0.2, 1.1])
        res = impute_row({0: 4.0}, selected=[0], model=g, ridge=0.0)
        assert res.predicted[1] == pytest.approx(-0.2, abs=1e-12)
        assert res.predicted[2] == pytest.approx(1.1, abs=1e-12)

    def test_bivariate_closed_form(self):
        for rho in [-0.9, -0.5, 0.0, 0.4, 0.9]:
            g = model_from([[1.0, rho], [rho, 1.0]])
            res = impute_row({0: 1.7}, selected=[0], model=g, ridge=0.0)
            assert res.predicted[1] == pytest.approx(rho * 1.7, abs=1e-12)
            assert res.cond_var[1] == pytest.approx(1 - rho**2, abs=1e-12)

    def test_ridge_shrinks_single_conditioner(self):
        rho = 0.6
        g = model_from([[1.0, rho], [rho, 1.0]])
        res = impute_row({0: 2.0}, selected=[0], model=g, ridge=1e-2)
        assert res.predicted[1] == pytest.approx(rho / 1.01 * 2.0, abs=1e-12)

    def test_empty_conditioning_set(self):
        g = model_from(random_spd(3, seed=1), mean=[1.0, 2.0, 3.0])
        res = impute_row({}, selected=[0], model=g, ridge=0.0)
        assert res.used_condition == ()
        assert res.predicted[1] == pytest.approx(2.0, abs=1e-12)
        assert res.cond_var[1] == pytest.approx(g.cov[1, 1], abs=1e-12)

    def test_conditions_only_on_selected_and_observed(self):
        g = model_from(random_spd(4, seed=2))
        res = impute_row({0: 1.0, 2: 2.0}, selected=[0, 1], model=g, ridge=0.0)
        # column 2 is observed but not selected, column 1 selected but missing
        assert res.used_condition == (0,)
        # default targets are the unselected columns
        assert set(res.predicted) == {2, 3}

    def test_matches_normal_equations_oracle(self):
        S = random_spd(5, seed=3)
        mu = np.array([0.1, -0.3, 0.7, 0.0, 1.2])
        g = model_from(S, mean=mu)
        obs = {0: 0.9, 2: -1.4}
        res = impute_row(obs, selected=[0, 2], model=g, ridge=0.0)
        C = [0, 2]
        x = np.linalg.solve(S[np.ix_(C, C)], np.array([0.9, -1.4]) - mu[C])
        for j in [1, 3, 4]:
            assert res.predicted[j] == pytest.approx(mu[j] + S[j, C] @ x, abs=1e-8)
            cv = S[j, j] - S[j, C] @ np.linalg.solve(S[np.ix_(C, C)], S[C, j])
            assert res.cond_var[j] == pytest.approx(cv, abs=1e-8)

    def test_cond_var_value_independent(self):
        g = model_from(random_spd(4, seed=4))
        a = impute_row({0: 5.0, 1: -5.0}, selected=[0, 1], model=g, ridge=1e-2)
        b = impute_row({0: 0.01, 1: 0.02}, selected=[0, 1], model=g, ridge=1e-2)
        for j in (2, 3):
            assert a.cond_var[j] == b.cond_var[j]

    def test_monotone_variance_reduction(self):
        S = random_spd(6, seed=5)
        g = model_from(S)
        target = 5
        obs = {j: 0.3 * j for j in range(5)}
        for r in range(0, 4):
            for A in itertools.combinations(range(5), r):
                for v in range(5):
                    if v in A:
                        continue
                    small = impute_row(obs, selected=list(A), model=g,
                                       ridge=0.0, targets=[target])
                    big = impute_row(obs, selected=list(A) + [v], model=g,
                                     ridge=0.0, targets=[target])
                    assert big.cond_var[target] <= small.cond_var[target] + 1e-9

    def test_explicit_targets(self):
        g = model_from(random_spd(4, seed=6))
        res = impute_row({0: 1.0}, selected=[0], model=g, ridge=0.0, targets=[2])
        assert set(res.predicted) == {2}

    def test_cond_var_nonnegative(self):
        g = model_from(random_spd(8, seed=7))
        obs = {j: 1.0 for j in range(4)}
        res = impute_row(obs, selected=list(range(4)), model=g, ridge=0.0)
        assert all(v >= -1e-9 for v in res.cond_var.values())

    def test_bad_selected_index(self):
        g = model_from(random_spd(3, seed=8))
        with pytest.raises(DataError):
            impute_row({0: 1.0}, selected=[0, 5], model=g, ridge=0.0)

    @pytest.mark.parametrize("selected, targets", [
        ([1.7], None), ([0], [2.0]), ([0], [True, False, True]),
    ])
    def test_non_integer_index_rejected(self, selected, targets):
        # int() truncated 1.7 to column 1.
        g = model_from(random_spd(3, seed=8))
        with pytest.raises(DataError, match="integers"):
            impute_row({0: 1.0}, selected, g, targets=targets)

    @pytest.mark.parametrize("obs", [{1.5: 2.0}, {7: 2.0}, {True: 2.0},
                                     {0: 1.0, 2.0: 1.0}],
                             ids=["float", "out-of-range", "bool", "mixed"])
    def test_bad_obs_key_rejected(self, obs):
        # Keys 1.5 and 7 were ignored, so the row conditioned on nothing,
        # and True read as column 1.
        g = model_from(random_spd(2, seed=8))
        with pytest.raises(DataError, match=r"^column indices must be "
                           r"integers in range\(2\)$"):
            impute_row(obs, [0, 1], g)

    def test_numpy_integer_obs_keys_accepted(self):
        g = model_from(random_spd(3, seed=8))
        want = impute_row({0: 0.5, 2: -1.0}, [0, 2], g)
        got = impute_row({np.int64(0): 0.5, np.uint8(2): -1.0}, [0, 2], g)
        assert got == want


# A float, a boolean mask (which read as columns 1, 0, 1), a float among
# integers and a numeric string: none is a column index.
NON_INTEGER_INDICES = [[1.7], [True, False, True], [0, 2.0], ["1"]]


def reference_impute_row(obs, selected, model, ridge, targets):
    """One row at a time: Cholesky of the conditioning block, two solves."""
    mu, Sigma = model.mean, model.cov
    cond = [j for j in sorted(set(selected)) if j in obs]
    if not cond:
        return ({j: mu[j] for j in targets},
                {j: Sigma[j, j] for j in targets})
    C, T = np.asarray(cond), np.asarray(targets, dtype=int)
    factor = linalg.cho_factor(
        Sigma[np.ix_(C, C)] + ridge * np.eye(C.size), lower=True
    )
    Stc = Sigma[np.ix_(T, C)]
    x = linalg.cho_solve(factor, np.array([obs[j] for j in cond]) - mu[C])
    gain = linalg.cho_solve(factor, Stc.T)
    pred = mu[T] + Stc @ x
    cvar = np.diag(Sigma)[T] - np.sum(Stc * gain.T, axis=1)
    return dict(zip(targets, pred)), dict(zip(targets, cvar))


@st.composite
def batch_cases(draw):
    """An SPD model, a selected set and NaN-holed rows that include one row
    with an empty conditioning set and one that observes every selected
    column."""
    N = draw(st.integers(1, 7))
    R = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(N, N))
    model = model_from(A @ A.T + 0.5 * np.eye(N), mean=rng.normal(size=N))
    selected = sorted(draw(st.sets(st.integers(0, N - 1), max_size=N)))
    mask = rng.random((R, N)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    mask[0, selected] = False
    mask[1, selected] = True
    values = np.where(mask, rng.normal(size=(R, N)), np.nan)
    ridge = draw(st.sampled_from([0.0, 1e-2]))
    return values, selected, model, ridge


class TestImputeRows:
    @pytest.mark.fresh_draws
    @settings(max_examples=200, deadline=None)
    @given(batch_cases())
    def test_matches_per_row(self, case):
        values, selected, model, ridge = case
        R, N = values.shape
        pred, cvar = impute_rows(values, selected, model, ridge)
        assert pred.shape == cvar.shape == (R, N)
        for i in range(R):
            obs = {int(j): values[i, j]
                   for j in np.flatnonzero(~np.isnan(values[i]))}
            row = impute_row(obs, selected, model, ridge=ridge)
            ref_pred, ref_var = reference_impute_row(
                obs, selected, model, ridge, sorted(row.predicted)
            )
            for j in row.predicted:
                assert abs(pred[i, j] - row.predicted[j]) <= 1e-12
                assert abs(cvar[i, j] - row.cond_var[j]) <= 1e-12
                assert abs(pred[i, j] - ref_pred[j]) <= 1e-12
                assert abs(cvar[i, j] - ref_var[j]) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(batch_cases(), st.randoms(use_true_random=False))
    def test_row_permutation_equivariant(self, case, rnd):
        values, selected, model, ridge = case
        perm = np.array(rnd.sample(range(len(values)), len(values)))
        pred, cvar = impute_rows(values, selected, model, ridge)
        p_pred, p_cvar = impute_rows(values[perm], selected, model, ridge)
        assert np.allclose(p_pred, pred[perm], rtol=0, atol=1e-10)
        assert np.allclose(p_cvar, cvar[perm], rtol=0, atol=1e-10)

    def test_shape_mismatch(self):
        g = model_from(random_spd(3, seed=13))
        with pytest.raises(DataError):
            impute_rows(np.zeros((2, 4)), [0], g)

    @pytest.mark.parametrize("selected", NON_INTEGER_INDICES)
    def test_non_integer_index_rejected(self, selected):
        with pytest.raises(DataError, match="integers"):
            impute_rows(np.ones((2, 3)), selected,
                        model_from(random_spd(3, seed=13)))

    def test_integer_arrays_accepted(self):
        g = model_from(random_spd(3, seed=13))
        values = np.array([[0.5, np.nan, -1.0], [1.0, 2.0, np.nan]])
        want = impute_rows(values, [0, 2], g)
        for selected in (np.array([0, 2], np.int32), np.array([2, 0], np.uint8),
                         (np.int64(0), 2)):
            got = impute_rows(values, selected, g)
            assert np.array_equal(got.predicted, want.predicted)
            assert np.array_equal(got.cond_var, want.cond_var)

    # Columns 1 and 2 have an indefinite block that the ridge cannot
    # repair, so every conditioning set holding both is singular.
    SINGULAR = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 1.5], [0.0, 1.5, 1.0]])

    def test_singular_group_names_its_first_row(self):
        # Rows 2 and 4 condition on {1, 2}; rows 0, 1 and 3 on the
        # positive definite {0, 1}.  The error names row 2.
        observed = np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 1, 0],
                             [0, 1, 1]], bool)
        with pytest.raises(NumericalError, match="row 2 is singular"):
            impute_rows(np.where(observed, 1.0, np.nan), [0, 1, 2],
                        model_from(self.SINGULAR), ridge=1e-2)

    def test_first_singular_row_in_file_order_is_named(self):
        # Two singular groups: {0, 1, 2} from row 1 and {1, 2} from row 2.
        # The later one's pattern [F, T, T] sorts first in np.unique, yet
        # the error names row 1, as em_fit's E-step would.
        observed = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1], [0, 1, 1]],
                            bool)
        with pytest.raises(NumericalError, match="row 1 is singular"):
            impute_rows(np.where(observed, 1.0, np.nan), [0, 1, 2],
                        model_from(self.SINGULAR), ridge=1e-2)

    def test_singular_seam_names_the_first_row(self, monkeypatch):
        # A positive definite model whose 2x2 blocks are made to fail to
        # factor.  Row 1 conditions on {0, 1}, row 2 on {1, 2}; [F, T, T]
        # sorts first, but row 1 comes first in the file.
        cholesky = imputation._cholesky
        monkeypatch.setattr(imputation, "_cholesky", lambda a: None
                            if a.shape == (2, 2) else cholesky(a))
        observed = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 1]], bool)
        with pytest.raises(NumericalError, match="^conditioning block for "
                           "row 1 is singular even with ridge$"):
            impute_rows(np.where(observed, 1.0, np.nan), [0, 1, 2],
                        model_from(random_spd(3, seed=4)))

    def test_infinite_value_rejected(self):
        values = np.array([[1.0, np.nan, 0.5], [np.inf, 0.2, np.nan]])
        with pytest.raises(DataError, match="finite"):
            impute_rows(values, [0, 1], model_from(random_spd(3, seed=5)))

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -0.5])
    def test_bad_ridge_rejected(self, ridge):
        # LAPACK's dpotrf can factor a NaN block without reporting it, and
        # a negative ridge is no ridge.
        with pytest.raises(DataError, match="ridge"):
            impute_rows(np.ones((1, 3)), [0],
                        model_from(random_spd(3, seed=6)), ridge)


def singular_name(fn):
    """The NumericalError message of fn(), or None when it succeeds."""
    try:
        fn()
    except NumericalError as exc:
        return str(exc)
    return None


class TestImputePrefixes:
    @pytest.mark.fresh_draws
    @settings(max_examples=200, deadline=None)
    @given(batch_cases(), st.randoms(use_true_random=False))
    def test_every_prefix_matches_impute_rows(self, case, rnd):
        values, selected, model, ridge = case
        order = rnd.sample(selected, len(selected))
        out = impute_prefixes(values, order, model, ridge)
        assert out.shape == (len(order),) + values.shape
        for k in range(1, len(order) + 1):
            want = impute_rows(values, order[:k], model, ridge).predicted
            assert np.abs(out[k - 1] - want).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(batch_cases(), st.randoms(use_true_random=False))
    def test_row_permutation_equivariant(self, case, rnd):
        values, selected, model, ridge = case
        order = rnd.sample(selected, len(selected))
        perm = np.array(rnd.sample(range(len(values)), len(values)))
        out = impute_prefixes(values, order, model, ridge)
        p_out = impute_prefixes(values[perm], order, model, ridge)
        assert np.allclose(p_out, out[:, perm], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("observed", [
        [[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 1, 0], [0, 1, 1]],
        [[1, 1, 0], [1, 1, 1], [0, 1, 1], [0, 1, 1]],
    ])
    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_singular_names_the_row_of_the_per_k_loop(self, observed, order):
        values = np.where(np.array(observed, bool), 1.0, np.nan)
        model = model_from(TestImputeRows.SINGULAR)

        def per_k():
            for k in range(1, 4):
                impute_rows(values, order[:k], model, ridge=1e-2)

        want = singular_name(per_k)
        assert want is not None
        assert singular_name(lambda: impute_prefixes(
            values, order, model, ridge=1e-2)) == want

    def test_smallest_failing_prefix_is_named_first(self):
        # Two indefinite pairs, {0, 1} and {2, 3}.  Row 0 observes the
        # second, which fails at k = 4; row 1 the first, which fails at
        # k = 2, so the per-k loop stops at row 1.
        pair = TestImputeRows.SINGULAR[1:, 1:]
        model = model_from(linalg.block_diag(pair, pair))
        values = np.array([[np.nan, np.nan, 1.0, 1.0],
                           [1.0, 1.0, np.nan, np.nan]])
        with pytest.raises(NumericalError, match="row 1 is singular"):
            impute_prefixes(values, [0, 1, 2, 3], model, ridge=1e-2)

    @pytest.mark.parametrize("order, match", [
        ([0, 2, 0], "repeats"), ([0, 3], "range"), ([-1, 1], "range"),
    ])
    def test_bad_order_rejected(self, order, match):
        with pytest.raises(DataError, match=match):
            impute_prefixes(np.ones((2, 3)), order,
                            model_from(random_spd(3, seed=7)))

    @pytest.mark.parametrize("order", NON_INTEGER_INDICES)
    def test_non_integer_order_rejected(self, order):
        with pytest.raises(DataError, match="integers"):
            impute_prefixes(np.ones((2, 3)), order,
                            model_from(random_spd(3, seed=7)))

    def test_empty_order(self):
        out = impute_prefixes(np.ones((2, 3)), [],
                              model_from(random_spd(3, seed=8)))
        assert out.shape == (0, 2, 3)


class TestOneFactorPerGroup:
    """impute_rows and impute_prefixes factor Sigma_CC + ridge*I once per
    group of rows that observe the same nonempty set C of the selected
    columns; a group with C empty factors nothing."""

    @pytest.mark.fresh_draws
    @settings(max_examples=100, deadline=None)
    @given(batch_cases(), st.randoms(use_true_random=False))
    def test_factorizations_per_group(self, case, rnd):
        values, selected, model, ridge = case
        order = rnd.sample(selected, len(selected))
        observed = {tuple(row) for row in ~np.isnan(values[:, selected])}
        want = sorted(sum(row) for row in observed if any(row))
        cholesky = imputation._cholesky
        for impute, idx in ((impute_rows, selected), (impute_prefixes, order)):
            sizes = []

            def recording(a):
                sizes.append(len(a))
                return cholesky(a)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(imputation, "_cholesky", recording)
                impute(values, idx, model, ridge)
            assert sorted(sizes) == want, impute.__name__


class TestConditionalSdCoverage:
    def test_raw_mode_coverage(self):
        # Rank-5 Gaussian scores plus noise, raw mode: the hidden cells of
        # 300 test rows, each conditioned on the 5 selected columns, lie
        # within 1.96 conditional sds of their prediction about 95% of
        # the time.
        rng = np.random.default_rng(2024)
        W = rng.normal(size=(60, 5))

        def rows(n):
            return rng.normal(size=(n, 5)) @ W.T + 0.5 * rng.normal(
                size=(n, 60))

        fit = fit_model(make_matrix(rows(300)))
        test = rows(300)
        selected = np.sort(rng.choice(60, 5, replace=False))
        hidden = rng.random(test.shape) < 0.5
        hidden[:, selected] = False
        pred, cvar = impute_rows(fit.encode(np.where(hidden, np.nan, test)),
                                 selected, fit.model)
        assert (cvar[hidden] > 0).all()
        sd = fit.decode_sd(pred, np.sqrt(cvar))
        inside = np.abs(test - fit.decode(pred)) <= 1.96 * sd
        assert 0.92 <= inside[hidden].mean() <= 0.98


class TestClip:
    def test_interior(self):
        assert clip_standardized(3.2) == 3.2

    def test_below(self):
        assert clip_standardized(-14.0) == -10.0

    def test_boundary(self):
        assert clip_standardized(10.0) == 10.0
        assert STANDARDIZED_CLIP == 10.0


class TestR2:
    def test_perfect(self):
        t = np.array([1.0, -2.0, 0.5])
        assert r2_standardized(t, t) == pytest.approx(1.0, abs=1e-12)

    def test_zero_prediction_baseline(self):
        t = np.array([1.0, -2.0, 0.5])
        assert r2_standardized(np.zeros(3), t) == pytest.approx(0.0, abs=1e-12)

    def test_anti_prediction(self):
        t = np.array([1.0, -2.0, 0.5])
        assert r2_standardized(-t, t) == pytest.approx(-3.0, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        p = rng.normal(size=20)
        t = rng.normal(size=20)
        perm = rng.permutation(20)
        assert r2_standardized(p, t) == pytest.approx(
            r2_standardized(p[perm], t[perm]), abs=1e-12
        )

    def test_all_zero_targets_undefined(self):
        assert np.isnan(r2_standardized(np.ones(3), np.zeros(3)))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            r2_standardized([], [])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            r2_standardized([1.0], [1.0, 2.0])
