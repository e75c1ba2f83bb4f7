"""Seeded score matrices and the command sequence of each workload.

Every matrix is a rank-5 factor model plus noise, mapped to per-benchmark
score scales and rounded to four decimals.  The training CSV carries the
workload's missingness regime; the test CSV holds unseen models that report
every selected benchmark and about half of the others.  The hidden test
cells stay on the benchmark side as the truth the imputation is scored on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

RANK = 5
TEST_HIDDEN = 0.5
BLOCK_SUITES = 6
BLOCK_SUITE_COVERAGE = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    regime: str          # "complete" or "block"
    selected: int        # benchmarks the test models report for sure
    cv: tuple[str, ...]  # extra flags of the `cv` command
    select_k: int
    noise_sd: float      # per-benchmark noise next to the rank-5 signal
    test_rows: int = 300
    budgeted: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("complete-cv", 300, 60, "complete", 5,
                 ("--folds", "2", "--holdout", "0.2", "--kmax", "3",
                  "--methods", "entropy,mi,random"), 15, 0.5),
        Workload("block-em", 80, 10, "block", 3,
                 ("--folds", "2", "--holdout", "0.2", "--kmax", "5",
                  "--methods", "entropy,mi,random"), 5, 2.0, test_rows=600),
        Workload("wide-select", 500, 400, "complete", 10,
                 ("--folds", "2", "--holdout", "0.5", "--kmax", "1",
                  "--methods", "entropy"), 50, 0.5, test_rows=150,
                 budgeted=True),
    )
}


@dataclass(frozen=True)
class Inputs:
    train_csv: str
    test_csv: str
    costs_csv: str | None
    budget: float | None
    names: tuple[str, ...]
    selected: tuple[str, ...]
    costs: tuple[float, ...]
    train_values: np.ndarray  # raw training scores, NaN where unobserved
    test_values: np.ndarray   # every test score, hidden ones included
    test_mask: np.ndarray     # True where the test CSV shows the score


def _ensure_coverage(mask: np.ndarray, rng: np.random.Generator) -> None:
    """Give every row one observed cell and every column two, in place."""
    for i in np.flatnonzero(~mask.any(axis=1)):
        mask[i, rng.integers(mask.shape[1])] = True
    for j in np.flatnonzero(mask.sum(axis=0) < 2):
        mask[rng.choice(mask.shape[0], 2, replace=False), j] = True


def training_mask(regime: str, M: int, N: int, suites,
                  rng: np.random.Generator) -> np.ndarray:
    if regime == "complete":
        return np.ones((M, N), dtype=bool)
    if regime == "block":
        # Leaderboard blocks: models fall into suites, each suite ran one
        # set of benchmarks, and the first suite ran every benchmark.
        mask = np.zeros((M, N), dtype=bool)
        groups = np.array_split(rng.permutation(M), BLOCK_SUITES)
        mask[groups[0]] = True
        for rows, cols in zip(groups[1:], suites):
            mask[np.ix_(rows, cols)] = True
    else:
        raise ValueError(f"unknown regime {regime!r}")
    _ensure_coverage(mask, rng)
    return mask


def _write_matrix(path, names, row_prefix, values, mask) -> None:
    lines = ["model," + ",".join(names)]
    for i, row in enumerate(values):
        cells = (f"{v:.4f}" if seen else ""
                 for v, seen in zip(row.tolist(), mask[i].tolist()))
        lines.append(f"{row_prefix}{i}," + ",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _rng(w: Workload, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([*key, *w.name.encode()]))


def generate(w: Workload, seed: int, out_dir: str) -> Inputs:
    """Write the workload's CSVs into out_dir; deterministic in seed.

    The population (factor loadings, score scales, which benchmarks each
    leaderboard suite ran, the selected benchmarks and their costs) and the
    training leaderboard are fixed per workload.  The seed draws the
    held-out test models and their hidden cells.  Training models drawn per
    seed would make the work itself vary: between samples of one
    population, EM needed from 73 to 500 iterations.
    """
    M, N = w.rows, w.cols
    pop = _rng(w, 0)
    strength = np.sqrt(np.linspace(2.0, 0.5, RANK))
    loadings = pop.standard_normal((N, RANK)) * strength
    loc = pop.uniform(30.0, 80.0, N)
    scale = pop.uniform(5.0, 15.0, N) / np.sqrt(
        np.sum(strength**2) + w.noise_sd**2)
    suites = [pop.choice(N, round(BLOCK_SUITE_COVERAGE * N), replace=False)
              for _ in range(BLOCK_SUITES - 1)]
    sel_idx = np.sort(pop.choice(N, w.selected, replace=False))
    costs = np.round(pop.uniform(1.0, 3.0, N), 2)

    def draw(rng, rows):
        latent = (rng.standard_normal((rows, RANK)) @ loadings.T
                  + w.noise_sd * rng.standard_normal((rows, N)))
        return np.round(loc + scale * latent, 4)

    train_rng = _rng(w, 1)
    train = draw(train_rng, M)
    train_mask = training_mask(w.regime, M, N, suites, train_rng)
    test_rng = _rng(w, 2, seed)
    test = draw(test_rng, w.test_rows)
    test_mask = test_rng.random(test.shape) >= TEST_HIDDEN
    test_mask[:, sel_idx] = True
    _ensure_coverage(test_mask, test_rng)

    names = tuple(f"b{j:03d}" for j in range(N))
    train_csv = os.path.join(out_dir, "train.csv")
    test_csv = os.path.join(out_dir, "test.csv")
    _write_matrix(train_csv, names, "m", train, train_mask)
    _write_matrix(test_csv, names, "t", test, test_mask)

    costs_csv = budget = None
    if w.budgeted:
        costs_csv = os.path.join(out_dir, "costs.csv")
        with open(costs_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write("benchmark,cost\n")
            fh.writelines(f"{n},{c:.2f}\n" for n, c in zip(names, costs))
        budget = 2.0 * w.select_k
    return Inputs(train_csv, test_csv, costs_csv, budget, names,
                  tuple(names[j] for j in sel_idx), tuple(costs.tolist()),
                  np.where(train_mask, train, np.nan), test, test_mask)


def commands(w: Workload, inp: Inputs) -> list[dict]:
    """The workload's commands: each entry is a CLI call without --out.

    `metric` names the end-to-end relative time the call adds to.
    """
    train, k = inp.train_csv, str(w.select_k)
    cmds = [{"id": "cv", "metric": "cv_rel",
             "argv": ["cv", train, *w.cv, "--seed", "0"]}]
    for objective in ("entropy", "mi"):
        cmds.append({"id": f"select-{objective}", "metric": "select_rel",
                     "argv": ["select", train, "--objective", objective,
                              "--k", k]})
    if w.budgeted:
        cmds.append({"id": "select-budgeted", "metric": "select_rel",
                     "argv": ["select", train, "--objective", "budgeted",
                              "--costs", inp.costs_csv,
                              "--budget", repr(inp.budget)]})
    cmds.append({"id": "impute", "metric": "impute_rel",
                 "argv": ["impute", inp.test_csv, "--train", train,
                          "--selected", ",".join(inp.selected)]})
    cmds.append({"id": "normality", "metric": "normality_rel",
                 "argv": ["normality", train]})
    return cmds
