"""Batch command-line front end.

Subcommands: spectrum, select, impute, cv, normality.  Every command
writes CSV tables plus a JSON manifest (command, resolved config, input
digest, tool version, seed) into the --out directory, and is
deterministic given flags + input + seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

import benchsel
from benchsel.errors import DataError, NumericalError
from benchsel.covariance import EmConfig, GaussianModel, em_fit, estimate_full, to_correlation
from benchsel.diagnostics import mardia, normality_report
from benchsel.evaluation import CvConfig, run_cv
from benchsel.imputation import impute_row
from benchsel.score_matrix import (
    ScoreMatrix,
    column_stats,
    load_csv,
    logit_params,
    logit_transform,
    standardize,
)
from benchsel.selection import (
    CostModel,
    budgeted_entropy,
    greedy_entropy,
    greedy_mi,
    lazy_greedy_entropy,
    spectrum,
)


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 per the CLI contract (argparse defaults to 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, command, config, input_path, seed, extra=None):
    doc = {
        "command": command,
        "config": config,
        "input_digest": _digest(input_path),
        "tool_version": benchsel.__version__,
        "seed": seed,
    }
    if extra:
        doc.update(extra)
    path = os.path.join(out_dir, f"{command}_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fit_pipeline(m: ScoreMatrix, estimator: str, logit: bool,
                  epsilon: float = 1e-3):
    """Shared preprocessing: (logit ->) standardize -> fit covariance."""
    lp = logit_params(m, epsilon) if logit else None
    work = logit_transform(m, lp) if logit else m
    stats = column_stats(work)
    std = standardize(work, stats)
    complete = bool(std.mask.all())
    if estimator == "full" or (estimator == "auto" and complete):
        if not complete:
            raise DataError("--estimator full requires a complete matrix")
        model = estimate_full(std)
    else:
        model = em_fit(std, EmConfig())
    return model, stats, lp, std


def cmd_spectrum(args) -> int:
    m = load_csv(args.input)
    model, _, _, _ = _fit_pipeline(m, args.estimator, False)
    rep = spectrum(to_correlation(model.cov))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "spectrum.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", "eigenvalue", "explained", "residual_fraction"])
        for i in range(rep.eigenvalues.size):
            w.writerow([i + 1, repr(float(rep.eigenvalues[i])),
                        repr(float(rep.explained[i])),
                        repr(float(rep.residual_fraction[i]))])
    thresholds = {f: rep.smallest_k(f) for f in (0.90, 0.95, 0.99)}
    _write_manifest(
        args.out, "spectrum",
        {"estimator": args.estimator}, args.input, None,
        extra={"explained_thresholds": {str(k): v for k, v in thresholds.items()}},
    )
    for f, k in thresholds.items():
        print(f"{int(f * 100)}% explained at k={k}")
    return 0


def _parse_costs(path, benchmark_names):
    costs = np.empty(len(benchmark_names))
    costs[:] = np.nan
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [c.strip().lower() for c in header[:2]] != ["benchmark", "cost"]:
            raise DataError("costs CSV must have header 'benchmark,cost'")
        index = {n: j for j, n in enumerate(benchmark_names)}
        for row in reader:
            name = row[0].strip()
            if name not in index:
                raise DataError(f"unknown benchmark {name!r} in costs CSV")
            costs[index[name]] = float(row[1])
    if np.isnan(costs).any():
        missing = [n for n, j in index.items() if math.isnan(costs[j])]
        raise DataError(f"costs CSV missing benchmarks: {missing}")
    return costs


def cmd_select(args) -> int:
    if args.objective == "budgeted" and (args.costs is None or args.budget is None):
        print("error: --objective budgeted requires --costs and --budget",
              file=sys.stderr)
        return 1
    if args.budget is not None and args.costs is None:
        print("error: --budget requires --costs", file=sys.stderr)
        return 1
    if args.objective != "budgeted" and args.k is None:
        print("error: --k is required for entropy/mi objectives",
              file=sys.stderr)
        return 1

    m = load_csv(args.input)
    model, _, _, _ = _fit_pipeline(m, "auto", args.logit, args.epsilon)
    Sigma = model.cov
    if args.objective == "entropy":
        fn = lazy_greedy_entropy if args.lazy else greedy_entropy
        result = fn(Sigma, args.k)
    elif args.objective == "mi":
        result = greedy_mi(Sigma, args.k)
        if all(abs(g) < 1e-12 for g in result.gains):
            print("warning: all MI gains are zero (independent benchmarks)",
                  file=sys.stderr)
    else:
        costs = _parse_costs(args.costs, m.benchmark_names)
        result = budgeted_entropy(
            Sigma, CostModel(costs, args.budget, args.shift_c)
        )

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "selection.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result.to_dict(m.benchmark_names), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(args.out, "selection.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(f"objective: {result.objective}\n")
        for rank, (j, g) in enumerate(zip(result.order, result.gains), 1):
            fh.write(
                f"{rank:3d}. {m.benchmark_names[j]}  gain={g:.6f}  "
                f"residual_trace={result.residual_trace[rank]:.6f}\n"
            )
    _write_manifest(
        args.out, "select",
        {"objective": args.objective, "k": args.k, "budget": args.budget,
         "shift_c": args.shift_c, "lazy": args.lazy, "logit": args.logit},
        args.input, args.seed,
    )
    return 0


def _resolve_selected(arg, benchmark_names):
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            names = [line.strip() for line in fh if line.strip()]
    else:
        names = [n.strip() for n in arg.split(",") if n.strip()]
    index = {n: j for j, n in enumerate(benchmark_names)}
    missing = [n for n in names if n not in index]
    if missing:
        raise DataError(f"selected benchmarks not in header: {missing}")
    return [index[n] for n in names]


def cmd_impute(args) -> int:
    if (args.model is None) == (args.train is None):
        print("error: exactly one of --model / --train is required",
              file=sys.stderr)
        return 1
    m = load_csv(args.input)
    selected = _resolve_selected(args.selected, m.benchmark_names)

    if args.train is not None:
        train = load_csv(args.train)
        if train.benchmark_names != m.benchmark_names:
            raise DataError("training CSV benchmarks do not match input")
        model, stats, lp, _ = _fit_pipeline(
            train, "auto", args.logit, args.epsilon
        )
        work = logit_transform(m, lp) if args.logit else m
        std_vals = (work.values - stats.means) / stats.stds
    else:
        # A bare model JSON is interpreted in raw score space.
        with open(args.model, "r", encoding="utf-8") as fh:
            model = GaussianModel.from_json(fh.read())
        if model.mean.size != m.shape[1]:
            raise DataError("model dimension does not match input width")
        stats = lp = None
        std_vals = m.values

    N = m.shape[1]
    completed = m.values.copy()
    cond_sd = np.full(m.shape, np.nan)
    for i in range(m.shape[0]):
        obs_cols = np.flatnonzero(m.mask[i])
        target_cols = np.flatnonzero(~m.mask[i])
        if target_cols.size == 0:
            continue
        obs = {int(j): float(std_vals[i, j]) for j in obs_cols}
        res = impute_row(obs, selected, model, ridge=args.ridge,
                         targets=[int(j) for j in target_cols])
        for j in target_cols:
            pred = res.predicted[int(j)]
            sd = math.sqrt(max(res.cond_var[int(j)], 0.0))
            if stats is not None:
                pred = pred * stats.stds[j] + stats.means[j]
                sd = sd * stats.stds[j]
                if lp is not None:
                    pred = (1.0 / (1.0 + math.exp(-pred))) * lp.col_max[j]
            completed[i, j] = pred
            cond_sd[i, j] = sd

    os.makedirs(args.out, exist_ok=True)
    header = ["model"] + list(m.benchmark_names)
    with open(os.path.join(args.out, "completed.csv"), "w", encoding="utf-8",
              newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for i, name in enumerate(m.model_names):
            w.writerow([name] + [repr(float(v)) for v in completed[i]])
    with open(os.path.join(args.out, "conditional_sd.csv"), "w",
              encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for i, name in enumerate(m.model_names):
            w.writerow(
                [name]
                + ["" if math.isnan(v) else repr(float(v)) for v in cond_sd[i]]
            )
    _write_manifest(
        args.out, "impute",
        {"selected": args.selected, "ridge": args.ridge, "logit": args.logit,
         "train": bool(args.train)},
        args.input, None,
    )
    return 0


def cmd_cv(args) -> int:
    m = load_csv(args.input)
    cfg = CvConfig(
        folds=args.folds,
        holdout_fractions=tuple(args.holdout),
        k_max=args.kmax,
        methods=tuple(args.methods.split(",")),
        seed=args.seed,
        estimator_policy=args.estimator,
        ridge=args.ridge,
        logit_mode=args.logit,
    )
    report = run_cv(m, cfg)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "cv_cells.csv"), "w", encoding="utf-8",
              newline="") as fh:
        report.to_csv(fh)
    with open(os.path.join(args.out, "cv_summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report.summary_dict(), fh, indent=2)
        fh.write("\n")
    _write_manifest(
        args.out, "cv",
        {"folds": args.folds, "holdout": list(args.holdout),
         "kmax": args.kmax, "methods": args.methods,
         "estimator": args.estimator, "ridge": args.ridge,
         "logit": args.logit},
        args.input, args.seed,
        extra={"warnings": list(report.warnings)},
    )
    if args.verbose:
        for key in sorted(report.summary):
            s = report.summary[key]
            print(f"{key}: mean={s['mean']:.4f} std={s['std']:.4f}")
    return 0


def cmd_normality(args) -> int:
    m = load_csv(args.input)
    rep = normality_report(m, alpha=args.alpha, correction=args.correction)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "shapiro.csv"), "w", encoding="utf-8",
              newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["benchmark", "W", "p", "rejected"])
        for name in m.benchmark_names:
            if name in rep.shapiro:
                r = rep.shapiro[name]
                w.writerow([name, repr(r["W"]), repr(r["p"]),
                            int(r["rejected"])])

    mardia_doc = None
    if m.mask.all() and m.shape[0] > m.shape[1]:
        mardia_doc = mardia(m.values)
        mardia_doc["matrix"] = "raw"
    else:
        # Mardia needs a complete matrix; fill by EM conditional means.
        try:
            stats = column_stats(m)
            std = standardize(m, stats)
            model = em_fit(std, EmConfig())
            filled = std.values.copy()
            for i in range(m.shape[0]):
                miss = np.flatnonzero(~m.mask[i])
                if miss.size == 0:
                    continue
                obs_cols = np.flatnonzero(m.mask[i])
                obs = {int(j): float(std.values[i, j]) for j in obs_cols}
                res = impute_row(obs, [int(j) for j in obs_cols], model,
                                 ridge=args.ridge,
                                 targets=[int(j) for j in miss])
                for j in miss:
                    filled[i, j] = res.predicted[int(j)]
            if filled.shape[0] > filled.shape[1]:
                mardia_doc = mardia(filled)
                mardia_doc["matrix"] = "completed-data"
        except (DataError, NumericalError):
            mardia_doc = None
    with open(os.path.join(args.out, "mardia.json"), "w",
              encoding="utf-8") as fh:
        json.dump(mardia_doc, fh, indent=2)
        fh.write("\n")
    _write_manifest(
        args.out, "normality",
        {"alpha": args.alpha, "correction": args.correction},
        args.input, None,
        extra={"skipped_columns": list(rep.skipped)},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="benchsel")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalue decay diagnostic")
    p.add_argument("input")
    p.add_argument("--estimator", choices=("auto", "full", "em"),
                   default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("select", help="greedy benchmark selection")
    p.add_argument("input")
    p.add_argument("--objective", choices=("entropy", "mi", "budgeted"),
                   default="entropy")
    p.add_argument("--k", type=int)
    p.add_argument("--costs")
    p.add_argument("--budget", type=float)
    p.add_argument("--shift-c", dest="shift_c", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lazy", action="store_true")
    p.add_argument("--logit", action="store_true")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("impute", help="fill unobserved cells")
    p.add_argument("input")
    p.add_argument("--model")
    p.add_argument("--train")
    p.add_argument("--selected", required=True,
                   help="comma-separated names or @file")
    p.add_argument("--ridge", type=float, default=1e-2)
    p.add_argument("--logit", action="store_true")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_impute)

    p = sub.add_parser("cv", help="cross-validation protocol")
    p.add_argument("input")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--holdout", type=float, action="append",
                   default=None)
    p.add_argument("--kmax", type=int, default=15)
    p.add_argument("--methods", default="entropy,mi,random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimator", choices=("auto", "full", "em"),
                   default="auto")
    p.add_argument("--ridge", type=float, default=1e-2)
    p.add_argument("--logit", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_cv)

    p = sub.add_parser("normality", help="normality diagnostics")
    p.add_argument("input")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--correction", choices=("bh", "bonferroni", "none"),
                   default="bh")
    p.add_argument("--ridge", type=float, default=1e-2)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_normality)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cv" and args.holdout is None:
        args.holdout = [0.1, 0.2, 0.5, 0.9]
    try:
        return args.fn(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
