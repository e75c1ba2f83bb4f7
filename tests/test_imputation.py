import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from benchsel.covariance import GaussianModel
from benchsel.errors import DataError, NumericalError
from benchsel.imputation import (
    STANDARDIZED_CLIP,
    clip_standardized,
    impute_row,
    impute_rows,
    r2_standardized,
)

from conftest import random_spd


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
    """An SPD model, a selected set and masked rows that include one row
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
    return values, mask, selected, model, ridge


class TestImputeRows:
    @settings(max_examples=200, deadline=None)
    @given(batch_cases())
    def test_matches_per_row(self, case):
        values, mask, selected, model, ridge = case
        R, N = values.shape
        pred, cvar = impute_rows(values, mask, selected, model, ridge)
        assert pred.shape == cvar.shape == (R, N)
        for i in range(R):
            obs = {int(j): values[i, j] for j in np.flatnonzero(mask[i])}
            row = impute_row(obs, selected, model, ridge=ridge)
            ref_pred, ref_var = reference_impute_row(
                obs, selected, model, ridge, sorted(row.predicted)
            )
            for j in row.predicted:
                assert abs(pred[i, j] - row.predicted[j]) <= 1e-12
                assert abs(cvar[i, j] - row.cond_var[j]) <= 1e-12
                assert abs(pred[i, j] - ref_pred[j]) <= 1e-12
                assert abs(cvar[i, j] - ref_var[j]) <= 1e-12

    def test_shape_mismatch(self):
        g = model_from(random_spd(3, seed=13))
        with pytest.raises(DataError):
            impute_rows(np.zeros((2, 4)), np.ones((2, 4), bool), [0], g)

    def test_singular_group_names_its_first_row(self):
        # Columns 1 and 2 have an indefinite block that the ridge cannot
        # repair.  Rows 2 and 4 condition on {1, 2}, whose pattern
        # [F, T, T] sorts first in np.unique; rows 0, 1 and 3 condition on
        # the positive definite {0, 1}.  The error names row 2.
        cov = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 1.5], [0.0, 1.5, 1.0]])
        g = GaussianModel(mean=np.zeros(3), cov=cov, estimator="full")
        mask = np.array([[True, True, False], [True, True, False],
                         [False, True, True], [True, True, False],
                         [False, True, True]])
        values = np.where(mask, 1.0, np.nan)
        with pytest.raises(NumericalError, match="row 2 is singular"):
            impute_rows(values, mask, [0, 1, 2], g, ridge=1e-2)


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
