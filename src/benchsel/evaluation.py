"""Cross-validation protocol.

Models are permuted into balanced folds; per fold a training subset is
drawn from the pool at the requested holdout fraction, column stats and
the Gaussian model are fit on training data only, each selection method
picks benchmarks on the training covariance, and held-out rows are
imputed conditioning only on selected benchmarks they actually report.

All randomness derives from a single root seed through keyed
SeedSequence substreams (fold partition: key 0; training subsample:
key 1; random-selection draws: key 2), so adding a method or holdout
fraction never perturbs the draws of another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from benchsel.errors import DataError
from benchsel.covariance import EmConfig, fit_model
from benchsel.imputation import RIDGE, STANDARDIZED_CLIP, impute_prefixes
from benchsel.score_matrix import (
    ScoreMatrix, _column_pass, _require_two_cells, column_stats, write_table)
from benchsel.selection import _factor, _selection_path, random_select

VALID_METHODS = ("entropy", "mi", "random")


@dataclass(frozen=True)
class CvConfig:
    folds: int = 10
    holdout_fractions: tuple[float, ...] = (0.1, 0.2, 0.5, 0.9)
    k_max: int = 15
    methods: tuple[str, ...] = ("entropy", "mi", "random")
    seed: int = 0
    ridge: float = RIDGE
    logit_mode: bool = False
    em: EmConfig = field(default_factory=EmConfig)

    def __post_init__(self):
        if self.folds < 2:
            raise DataError("folds must be >= 2")
        if self.k_max < 1:
            raise DataError("k_max must be >= 1")
        if self.seed < 0:  # SeedSequence takes no negative entropy
            raise DataError("seed must be >= 0")
        for p in self.holdout_fractions:
            if not 0 < p < 1:
                raise DataError("holdout fractions must lie in (0, 1)")
        for m in self.methods:
            if m not in VALID_METHODS:
                raise DataError(f"unknown method {m!r}")
        # A repeat would score its folds twice and count each twice in n.
        if len(set(self.methods)) < len(self.methods):
            raise DataError("methods repeat a method")
        if len(set(self.holdout_fractions)) < len(self.holdout_fractions):
            raise DataError("holdout fractions repeat a fraction")


@dataclass(frozen=True)
class CvCell:
    method: str
    holdout_p: float
    fold: int
    k: int
    r2: float
    residual_fraction: float
    entropy: float
    mi: float


@dataclass(frozen=True)
class CvReport:
    cells: tuple[CvCell, ...]
    selection_orders: dict  # (method, holdout_p, fold) -> benchmark names
    summary: dict           # (method, holdout_p, k) -> {"mean": .., "std": .., "n": ..}
    warnings: tuple[str, ...] = ()

    def to_csv(self, sink) -> None:
        """Tidy CSV, one row per cell, to a path or a text stream; a NaN
        (an R^2 with no target cell left) is an empty cell."""
        header = [f.name for f in fields(CvCell)]
        write_table(sink, header, map(attrgetter(*header), self.cells))

    def summary_dict(self) -> dict:
        out = {"summary": [], "selection_orders": [], "warnings": list(self.warnings)}
        for (method, p, k) in sorted(self.summary):
            s = self.summary[(method, p, k)]
            out["summary"].append(
                {"method": method, "holdout_p": p, "k": k, **s}
            )
        for (method, p, fold) in sorted(self.selection_orders):
            out["selection_orders"].append(
                {"method": method, "holdout_p": p, "fold": fold,
                 "order": list(self.selection_orders[(method, p, fold)])}
            )
        return out


def _p_key(p: float) -> int:
    # Stable integer key for a holdout fraction, for seed derivation.
    return int(round(p * 10**6))


def _balanced_folds(M: int, K: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(M)
    return [np.asarray(f) for f in np.array_split(perm, K)]


def training_size(p: float, M: int, pool_size: int) -> int:
    """Round-half-to-even (1-p)*M, capped at the pool size."""
    return min(round((1 - p) * M), pool_size)


def run_cv(m: ScoreMatrix, cfg: CvConfig = CvConfig()) -> CvReport:
    """Execute the full cross-validation protocol; deterministic in cfg.seed."""
    _require_two_cells(m)
    M, N = m.shape
    if M < cfg.folds:
        raise DataError("not enough models for the requested fold count")

    fold_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    folds = _balanced_folds(M, cfg.folds, fold_rng)

    cells: list[CvCell] = []
    orders: dict = {}
    warnings_out: list[str] = []

    for p in cfg.holdout_fractions:
        pk = _p_key(p)
        for fold_idx, val_rows in enumerate(folds):
            pool = np.concatenate(
                [f for i, f in enumerate(folds) if i != fold_idx]
            )
            sub_rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 1, pk, fold_idx])
            )
            pool_perm = pool[sub_rng.permutation(pool.size)]
            train_rows = pool_perm[: training_size(p, M, pool.size)]

            result = _run_fold(
                m, cfg, p, pk, fold_idx, train_rows, val_rows, warnings_out
            )
            if result is None:
                continue
            fold_cells, fold_orders = result
            cells.extend(fold_cells)
            orders.update(fold_orders)

    summary: dict = {}
    by_key: dict = {}
    for c in cells:
        by_key.setdefault((c.method, c.holdout_p, c.k), []).append(c.r2)
    for key, vals in by_key.items():
        finite = [v for v in vals if not math.isnan(v)]
        if finite:
            mean = float(np.mean(finite))
            std = float(np.std(finite, ddof=1)) if len(finite) > 1 else 0.0
        else:
            mean, std = math.nan, math.nan
        summary[key] = {"mean": mean, "std": std, "n": len(finite)}

    return CvReport(tuple(cells), orders, summary, tuple(warnings_out))


def _run_fold(m, cfg, p, pk, fold_idx, train_rows, val_rows, warnings_out):
    tr_vals = m.values[train_rows]

    # Columns must be estimable from training data: observed values that
    # are not all equal; others are excluded from this fold.
    varies = _column_pass(tr_vals)[2]
    warnings_out.extend(
        f"p={p} fold={fold_idx}: column {m.benchmark_names[j]!r} "
        "excluded (too few training observations or zero variance)"
        for j in np.flatnonzero(~varies)
    )
    active = np.flatnonzero(varies)
    if len(active) < 2:
        warnings_out.append(
            f"p={p} fold={fold_idx}: fewer than 2 usable columns; fold skipped"
        )
        return None
    names = tuple(m.benchmark_names[j] for j in active)
    tr_vals, va_vals = tr_vals[:, active], m.values[np.ix_(val_rows, active)]

    keep = ~np.isnan(tr_vals).all(axis=1)
    if not keep.all():
        warnings_out.append(
            f"p={p} fold={fold_idx}: dropped {int((~keep).sum())} empty "
            "training rows"
        )
        tr_vals = tr_vals[keep]
    train_m = ScoreMatrix(tr_vals, ~np.isnan(tr_vals),
                          tuple(f"r{i}" for i in range(len(tr_vals))), names)
    fit = fit_model(train_m, logit=cfg.logit_mode, em=cfg.em)
    if not fit.model.converged:
        warnings_out.append(
            f"p={p} fold={fold_idx}: EM did not converge in "
            f"{fit.model.em_iterations} iterations"
        )
    Sigma = fit.model.cov
    factor = _factor(Sigma)  # one factorization for every method's run
    n_act = len(active)
    va_std = fit.encode(va_vals)
    # R^2 is scored in raw standardized space, in logit mode too.
    raw_stats = column_stats(train_m) if cfg.logit_mode else fit.stats
    va_z = np.clip((va_vals - raw_stats.means) / raw_stats.stds,
                   -STANDARDIZED_CLIP, STANDARDIZED_CLIP)

    fold_cells: list[CvCell] = []
    fold_orders: dict = {}
    for method in cfg.methods:
        k_cap = min(cfg.k_max, n_act if method != "mi" else n_act - 1)
        drawn = random_select(n_act, k_cap, np.random.SeedSequence(
            [cfg.seed, 2, pk, fold_idx])).order if method == "random" else ()
        order, entropy, mi, rtrace = _selection_path(
            Sigma, factor, method, k_cap, drawn)
        fold_orders[(method, p, fold_idx)] = tuple(names[j] for j in order)

        pred = impute_prefixes(va_std, order, fit.model, cfg.ridge)
        if cfg.logit_mode:
            # standardized logit -> raw -> raw standardized
            pred = (fit.decode(pred) - raw_stats.means) / raw_stats.stds
        r2 = _prefix_r2(pred, order, va_z)
        fold_cells.extend(
            CvCell(method, p, fold_idx, k, float(r2[k - 1]),
                   float(rtrace[k] / rtrace[0]), float(entropy[k]),
                   float(mi[k]))
            for k in range(1, len(order) + 1)
        )
    return fold_cells, fold_orders


def _prefix_r2(pred, order, va_z) -> np.ndarray:
    """r2_standardized of each prefix's (R, N) predictions pred[k-1]
    against the observed cells of `va_z` outside order[:k]; NaN where
    those targets are missing or all zero."""
    observed = ~np.isnan(va_z)
    z = np.where(observed, va_z, 0.0)
    err = np.where(observed, pred - z, 0.0)
    sse, z2 = np.sum(err * err, axis=1), np.sum(z * z, axis=0)
    # Column order[t] is a target of the prefixes k <= t only.
    step = np.full(z.shape[1], len(order))
    step[order] = np.arange(len(order))
    target = step > np.arange(len(order))[:, None]
    denom = target @ z2
    r2 = np.full(len(order), math.nan)
    ok = denom > 0
    r2[ok] = 1.0 - np.sum(sse * target, axis=1)[ok] / denom[ok]
    return r2
