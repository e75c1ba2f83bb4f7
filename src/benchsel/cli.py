"""Batch command-line front end.

Subcommands: spectrum, select, impute, cv, normality.  Every command
writes CSV tables plus a JSON manifest (command, every parsed flag, input
digest, tool version, seed) into the --out directory; for a fixed BLAS
library and thread count, its bytes are set by flags + input + seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import warnings

import numpy as np

import benchsel
from benchsel.errors import DataError, NumericalError, SingularRowError
from benchsel.covariance import (
    FittedModel, GaussianModel, fit_model, to_correlation)
from benchsel.diagnostics import mardia, normality_report
from benchsel.evaluation import CvConfig, run_cv
# cli uses neither impute_row nor lazy_greedy_entropy; bench/test_bench.py
# deletes both names from cli to test its tracer, so they stay importable.
from benchsel.imputation import RIDGE, impute_row, impute_rows  # noqa: F401
from benchsel.score_matrix import (
    ColumnStats, load_csv, write_table)
from benchsel.selection import (
    CostModel,
    budgeted_entropy,
    greedy_entropy,
    greedy_mi,
    lazy_greedy_entropy,  # noqa: F401
    spectrum,
)


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 per the CLI contract (argparse defaults to 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.exit(_usage_error(message))


@contextlib.contextmanager
def _warnings_to_stderr():
    """Print each UserWarning raised in the block as one `warning:` line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        yield
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, doc, sort_keys=False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


class _File(str):
    """A flag value that names an input file; manifests record its SHA-256."""


def _write_manifest(args, **extra):
    """`<command>_manifest.json` in --out: `config` holds every parsed flag
    but the input, --out and --seed, a file flag by its SHA-256."""
    config = {k: _digest(v) if isinstance(v, _File) else v
              for k, v in vars(args).items()
              if k not in ("command", "fn", "input", "out", "seed")}
    doc = {
        "command": args.command,
        "config": config,
        "input_digest": _digest(args.input),
        "tool_version": benchsel.__version__,
        "seed": getattr(args, "seed", None),
        **extra,
    }
    _write_json(os.path.join(args.out, f"{args.command}_manifest.json"), doc,
                sort_keys=True)


def cmd_spectrum(args) -> int:
    m = load_csv(args.input)
    rep = spectrum(to_correlation(fit_model(m).model.cov))
    os.makedirs(args.out, exist_ok=True)
    write_table(
        os.path.join(args.out, "spectrum.csv"),
        ["k", "eigenvalue", "explained", "residual_fraction"],
        zip(range(1, rep.eigenvalues.size + 1), rep.eigenvalues.tolist(),
            rep.explained.tolist(), rep.residual_fraction.tolist()),
    )
    thresholds = {f: rep.smallest_k(f) for f in (0.90, 0.95, 0.99)}
    _write_manifest(args, explained_thresholds={
        str(k): v for k, v in thresholds.items()})
    for f, k in thresholds.items():
        print(f"{int(f * 100)}% explained at k={k}")
    return 0


def _parse_costs(path, benchmark_names):
    """The cost of each benchmark from a CSV whose rows are the benchmarks
    and whose one column is `cost`, read by load_csv."""
    try:
        table = load_csv(path)
        if [n.lower() for n in table.benchmark_names] != ["cost"]:
            raise DataError("header must be '<label>,cost'")
    except DataError as exc:  # whose rows are benchmarks, not models
        raise DataError("costs CSV: " + str(exc).replace(
            "duplicate model names:", "duplicate benchmark")) from None
    given = dict(zip(table.model_names, table.values[:, 0].tolist()))
    known = set(benchmark_names)
    for name in given:
        if name not in known:
            raise DataError(f"unknown benchmark {name!r} in costs CSV")
    missing = [n for n in benchmark_names if n not in given]
    if missing:
        raise DataError(f"costs CSV missing benchmarks: {missing}")
    return np.array([given[n] for n in benchmark_names])


def cmd_select(args) -> int:
    budgeted = args.objective == "budgeted"
    if budgeted and None in (args.costs, args.budget):
        return _usage_error("--objective budgeted requires --costs and --budget")
    if not budgeted and (args.costs, args.budget, args.shift_c) != (None,) * 3:
        return _usage_error("--costs, --budget and --shift-c require "
                            "--objective budgeted")
    if budgeted != (args.k is None):
        return _usage_error("--k does not apply to --objective budgeted"
                            if budgeted else
                            "--k is required for entropy/mi objectives")

    m = load_csv(args.input)
    Sigma = fit_model(m, logit=args.logit).model.cov
    if args.objective == "entropy":
        result = greedy_entropy(Sigma, args.k)
    elif args.objective == "mi":
        result = greedy_mi(Sigma, args.k)
        if all(abs(g) < 1e-12 for g in result.gains):
            print("warning: all MI gains are zero (independent benchmarks)",
                  file=sys.stderr)
    else:
        costs = _parse_costs(args.costs, m.benchmark_names)
        with _warnings_to_stderr():
            result = budgeted_entropy(
                Sigma, CostModel(costs, args.budget, args.shift_c)
            )

    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "selection.json"),
                result.to_dict(m.benchmark_names))
    with open(os.path.join(args.out, "selection.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(f"objective: {result.objective}\n")
        for rank, (j, g) in enumerate(zip(result.order, result.gains), 1):
            fh.write(
                f"{rank:3d}. {m.benchmark_names[j]}  gain={g:.6f}  "
                f"residual_trace={result.residual_trace[rank]:.6f}\n"
            )
    _write_manifest(args)
    return 0


def _resolve_selected(arg, benchmark_names):
    if isinstance(arg, _File):
        with open(arg, "r", encoding="utf-8") as fh:
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
        return _usage_error("exactly one of --model / --train is required")
    if args.model is not None and args.logit:
        return _usage_error("--logit applies to --train, not --model")
    m = load_csv(args.input)
    selected = _resolve_selected(args.selected, m.benchmark_names)

    if args.train is not None:
        train = load_csv(args.train)
        if train.benchmark_names != m.benchmark_names:
            raise DataError("training CSV benchmarks do not match input")
        fit = fit_model(train, logit=args.logit)
    else:
        # A bare model JSON is in raw score space: identity transforms.
        with open(args.model, "r", encoding="utf-8") as fh:
            model = GaussianModel.from_json(fh.read())
        if model.mean.size != m.shape[1]:
            raise DataError("model dimension does not match input width")
        fit = FittedModel(model, ColumnStats(np.zeros_like(model.mean),
                                             np.ones_like(model.mean)))

    try:
        pred, cvar = impute_rows(fit.encode(m.values), selected, fit.model,
                                 args.ridge)
    except SingularRowError as exc:
        raise SingularRowError(exc.row, repr(m.model_names[exc.row])) from None
    # Below rounding, a negative variance means Sigma is not PSD.
    negative = ~m.mask & (cvar < -1e-9 * np.abs(np.diag(fit.model.cov)))
    if negative.any():
        i, j = np.argwhere(negative)[0]
        raise NumericalError(
            f"conditional variance of {m.benchmark_names[j]!r} for row "
            f"{m.model_names[i]!r} is negative: the model's Sigma is not PSD")
    sd = fit.decode_sd(pred, np.sqrt(np.maximum(cvar, 0.0)))
    completed = np.where(m.mask, m.values, fit.decode(pred))
    # In raw mode, rows with one conditioning set share their sds.  Each
    # distinct row of bits is formatted once, by repr, in the cells a row of
    # its group did not observe; a NaN and an observed cell are empty.
    _, first, inverse = np.unique(
        sd.view(f"V{sd.itemsize * sd.shape[1]}").ravel(),
        return_index=True, return_inverse=True)
    distinct = sd[first]
    shown = np.zeros(distinct.shape, bool)
    np.logical_or.at(shown, inverse, ~m.mask)
    shown &= ~np.isnan(distinct)
    texts = np.full(distinct.shape, "", dtype=object)
    texts[shown] = list(map(repr, distinct[shown].tolist()))
    texts = np.where(m.mask, "", texts[inverse])

    os.makedirs(args.out, exist_ok=True)
    header = ["model"] + list(m.benchmark_names)
    for name, table in (("completed.csv", completed.tolist()),
                        ("conditional_sd.csv", texts.tolist())):
        write_table(os.path.join(args.out, name), header,
                    ([label, *row] for label, row
                     in zip(m.model_names, table)))
    _write_manifest(args)
    return 0


def cmd_cv(args) -> int:
    if args.holdout is None:
        args.holdout = list(CvConfig.holdout_fractions)
    m = load_csv(args.input)
    cfg = CvConfig(
        folds=args.folds,
        holdout_fractions=tuple(args.holdout),
        k_max=args.kmax,
        methods=tuple(args.methods.split(",")),
        seed=args.seed,
        ridge=args.ridge,
        logit_mode=args.logit,
    )
    report = run_cv(m, cfg)
    os.makedirs(args.out, exist_ok=True)
    report.to_csv(os.path.join(args.out, "cv_cells.csv"))
    _write_json(os.path.join(args.out, "cv_summary.json"),
                report.summary_dict())
    _write_manifest(args, warnings=list(report.warnings))
    if args.verbose:
        for key in sorted(report.summary):
            s = report.summary[key]
            print(f"{key}: mean={s['mean']:.4f} std={s['std']:.4f}")
    return 0


def cmd_normality(args) -> int:
    m = load_csv(args.input)
    rep = normality_report(m, alpha=args.alpha, correction=args.correction)
    os.makedirs(args.out, exist_ok=True)
    write_table(
        os.path.join(args.out, "shapiro.csv"),
        ["benchmark", "W", "p", "rejected"],
        ([name, r["W"], r["p"], int(r["rejected"])]
         for name, r in rep.shapiro.items()),
    )

    # Mardia reads observed scores only (a filled cell has too little spread
    # for its null): on an incomplete file, the models that ran every column.
    x, noun, kind = m.values, "rows", {"matrix": "raw"}
    if not m.mask.all():
        x, noun = m.values[m.mask.all(axis=1)], "fully observed rows"
        kind = {"matrix": "complete-rows", "rows": len(x)}
    mardia_doc = None
    try:
        if len(x) <= x.shape[1]:
            raise DataError("{} {} do not exceed {} columns".format(
                len(x), noun, x.shape[1]))
        mardia_doc = {**mardia(x), **kind}
    except (DataError, NumericalError) as exc:
        print(f"warning: Mardia skipped: {exc}", file=sys.stderr)
    _write_json(os.path.join(args.out, "mardia.json"), mardia_doc)
    _write_manifest(args, skipped_columns=list(rep.skipped))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="benchsel")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", type=_File)
    common.add_argument("--out", required=True)
    add_command = functools.partial(sub.add_parser, parents=[common])

    p = add_command("spectrum", help="eigenvalue decay diagnostic")
    p.set_defaults(fn=cmd_spectrum)

    p = add_command("select", help="greedy benchmark selection")
    p.add_argument("--objective", choices=("entropy", "mi", "budgeted"),
                   default="entropy")
    p.add_argument("--k", type=int)
    p.add_argument("--costs", type=_File)
    p.add_argument("--budget", type=float)
    p.add_argument("--shift-c", dest="shift_c", type=float)
    p.add_argument("--lazy", action="store_true",
                   help="accepted for compatibility; same as the default")
    p.add_argument("--logit", action="store_true")
    p.set_defaults(fn=cmd_select)

    p = add_command("impute", help="fill unobserved cells")
    p.add_argument("--model", type=_File)
    p.add_argument("--train", type=_File)
    p.add_argument("--selected", required=True,
                   type=lambda s: _File(s[1:]) if s.startswith("@") else s,
                   help="comma-separated names or @file")
    p.add_argument("--ridge", type=float, default=RIDGE)
    p.add_argument("--logit", action="store_true")
    p.set_defaults(fn=cmd_impute)

    p = add_command("cv", help="cross-validation protocol")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--holdout", type=float, action="append")
    p.add_argument("--kmax", type=int, default=15)
    p.add_argument("--methods", default="entropy,mi,random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ridge", type=float, default=RIDGE)
    p.add_argument("--logit", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_cv)

    p = add_command("normality", help="normality diagnostics")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--correction", choices=("bh", "bonferroni", "none"),
                   default="bh")
    p.set_defaults(fn=cmd_normality)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
