import os

import numpy as np
import pytest
from hypothesis import settings

from benchsel.score_matrix import ScoreMatrix, write_csv

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and prints
# the blob that replays a failure, so a failing property test reproduces.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_spd(n, seed, jitter=0.1):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return A @ A.T + jitter * np.eye(n)


def make_matrix(values, mask=None, prefix="m"):
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = ~np.isnan(values)
    M, N = values.shape
    return ScoreMatrix(
        values,
        np.asarray(mask, dtype=bool),
        tuple(f"{prefix}{i}" for i in range(M)),
        tuple(f"b{j}" for j in range(N)),
    )


def rank_one_matrix(M=500, N=20, noise=0.05, seed=0):
    """Rank-1 factor scores with loadings bounded away from zero."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=M)
    b = rng.uniform(0.5, 1.5, size=N)
    B = np.outer(a, b) + noise * rng.normal(size=(M, N))
    return make_matrix(B)


def independent_matrix(M=2000, N=6, seed=0):
    rng = np.random.default_rng(seed)
    return make_matrix(rng.normal(size=(M, N)))


def mcar_matrix(M, N, missing, seed, mu=None, Sigma=None, complete_rows=0):
    """Gaussian rows with MCAR missingness, except the first complete_rows
    rows, which are fully observed; returns (matrix, mu, Sigma)."""
    rng = np.random.default_rng(seed)
    if Sigma is None:
        A = rng.normal(size=(N, N))
        Sigma = A @ A.T + np.eye(N)
    if mu is None:
        mu = rng.normal(size=N)
    X = rng.multivariate_normal(mu, Sigma, size=M)
    mask = rng.random((M, N)) > missing
    mask[:complete_rows] = True
    mask[mask.sum(axis=1) == 0, 0] = True
    for j in range(N):
        need = 2 - mask[:, j].sum()
        if need > 0:
            mask[:need, j] = True
    return make_matrix(np.where(mask, X, np.nan), mask), mu, Sigma


@pytest.fixture
def spd8():
    return random_spd(8, seed=3)


@pytest.fixture
def scores_csv(tmp_path):
    """A 30x6 leaderboard with 20% holes, written to tmp_path/scores.csv."""
    m, _, _ = mcar_matrix(30, 6, 0.2, seed=1, complete_rows=7)
    path = tmp_path / "scores.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(m, fh)
    return path
