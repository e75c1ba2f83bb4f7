"""Outside-in tracer for the benchsel package.

Wraps the public functions of each benchsel module from outside, without
touching the package's source.  `cli` and `evaluation` import functions by
name, so a function is patched in every benchsel namespace that holds it.
Names that a module no longer defines are skipped, and functions that did
not exist when this file was written are picked up by discovery, so the
per-module figures survive renames and removals.

Each wrapped call is a span with a parent (the innermost wrapped call
around it) and a self time (its duration minus its wrapped children).
A function that calls itself is recorded once, at the outer call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

PACKAGE = "benchsel"
MODULES = ("score_matrix", "covariance", "selection", "imputation",
           "evaluation", "diagnostics", "cli")

# Called millions of times per `cv`; a timing wrapper would dominate it.
UNTRACED = {"imputation.clip_standardized"}

# The CV metrics as `evaluation` computes them per k, grouped as one layer.
CV_METRICS = ("entropy_value", "mi_value", "residual_trace")


class Stat:
    __slots__ = ("calls", "s", "self_s", "cells", "iters", "converged")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.cells = 0
        self.iters = 0
        self.converged = 0


def _work(label: str, result, stat: Stat) -> None:
    """Count the work a call returned, from the fields its result has."""
    if label == "covariance.em_fit":
        stat.iters += int(getattr(result, "em_iterations", 0))
        stat.converged += bool(getattr(result, "converged", False))
    elif label == "score_matrix.load_csv":
        stat.cells += int(getattr(getattr(result, "values", None), "size", 0))
    elif label == "evaluation.run_cv":
        stat.cells += len(getattr(result, "cells", ()))
    elif label.startswith("imputation."):
        predicted = getattr(result, "predicted", None)
        if isinstance(predicted, dict):
            stat.cells += len(predicted)
        elif predicted is not None:
            stat.cells += int(getattr(predicted, "size", 0))


class Tracer:
    """Patch on `install()`, restore on `uninstall()`; stats accumulate."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], Stat] = {}  # (parent, child)
        self._stack: list[list] = []  # [label, children_s]
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()

    def _modules(self):
        for name in MODULES:
            try:
                yield name, importlib.import_module(f"{PACKAGE}.{name}")
            except ImportError:
                continue

    def targets(self) -> dict[int, tuple[object, str]]:
        """id(function) -> (function, label) for every public function."""
        found = {}
        for short, mod in self._modules():
            for name, fn in vars(mod).items():
                label = f"{short}.{name}"
                if (name.startswith("_") or label in UNTRACED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                found[id(fn)] = (fn, label)
        return found

    def install(self) -> None:
        if self._patches:
            return
        targets = self.targets()
        namespaces = [importlib.import_module(PACKAGE)]
        namespaces += [mod for _, mod in self._modules()]
        wrappers: dict[tuple[int, str], object] = {}
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = targets.get(id(obj))
                if hit is None:
                    continue
                fn, label = hit
                if (ns.__name__ == f"{PACKAGE}.evaluation"
                        and name in CV_METRICS):
                    label = "selection.cv_metrics"
                key = (id(fn), label)
                if key not in wrappers:
                    wrappers[key] = self._wrap(fn, label)
                self._patches.append((ns, name, obj))
                setattr(ns, name, wrappers[key])

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self._patches.clear()

    def _wrap(self, fn, label: str):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._active.get(label):
                return fn(*args, **kwargs)
            self._active[label] = 1
            frame = [label, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._stack.pop()
                self._active[label] = 0
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[1] += elapsed
                self._record(label, parent[0] if parent else "", elapsed,
                             elapsed - frame[1])
            _work(label, result, self.stats[label])
            return result

        return traced

    def _record(self, label, parent, elapsed, self_s) -> None:
        stat = self.stats.get(label)
        if stat is None:
            stat = self.stats[label] = Stat()
        stat.calls += 1
        stat.s += elapsed
        stat.self_s += self_s
        edge = self.edges.get((parent, label))
        if edge is None:
            edge = self.edges[(parent, label)] = Stat()
        edge.calls += 1
        edge.s += elapsed

    def modules(self) -> dict[str, Stat]:
        """Per-module totals.

        A module's time counts each call whose parent lies in another
        module, so nested calls inside one module are not counted twice;
        its self time sums the self time of all its spans.
        """
        out: dict[str, Stat] = {}
        for (parent, label), edge in self.edges.items():
            mod = label.split(".", 1)[0]
            agg = out.setdefault(mod, Stat())
            if parent.split(".", 1)[0] != mod:
                agg.calls += edge.calls
                agg.s += edge.s
        for label, stat in self.stats.items():
            agg = out.setdefault(label.split(".", 1)[0], Stat())
            agg.self_s += stat.self_s
            agg.cells += stat.cells
        return out


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """The named figures of one traced pass.

    A name is an owner and a field: a function label or a module, then a
    `Stat` field (`covariance.em_fit.iters`, `imputation.cells`) or one of
    the EM ratios `s_per_iter` and `converged_frac`, which read 0 without
    calls.  An owner that made no call reads 0 throughout.
    """
    mods = tracer.modules()
    out: dict[str, float] = {}
    for name in names:
        owner, field = name.rsplit(".", 1)
        stat = (tracer.stats if "." in owner else mods).get(owner, Stat())
        if field == "s_per_iter":
            out[name] = stat.s / stat.iters if stat.iters else 0.0
        elif field == "converged_frac":
            out[name] = stat.converged / stat.calls if stat.calls else 0.0
        else:
            out[name] = getattr(stat, field)
    return out
