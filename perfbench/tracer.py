"""Per-layer tracer for the cdfreg benchmark.

The tracer times calls into the public functions of each cdfreg module from
outside the package: it rebinds every listed function, in every cdfreg
module namespace that holds it, to one timing wrapper. It keeps only
per-(function, caller) totals in memory, never individual spans, because a
polynomial sweep makes hundreds of thousands of ``eval_nodes`` calls.

A function's self time is its span minus the spans of the traced functions
it called; the caller of a span is the innermost traced span open when it
started.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# The layers are the package modules; each lists the functions it exports
# that the benchmark times. ``eval_nodes`` is a method, traced on every basis
# class that defines it and reported under one name.
TRACED = {
    "cli": ["main"],
    "synth": ["run_scaling_experiment", "run_coverage_experiment", "sample_scheme2",
              "hard_instance_matrix", "write_records_csv", "write_aggregates_csv"],
    "realdata": ["evaluate_pipeline", "load_csv", "fit_gaussian_laplace_basis",
                 "fit_lad_univariate", "fit_ols_univariate", "write_report_csv"],
    "measure": ["jump_panel", "tail_mass", "make_uniform_measure", "measure_from_spec"],
    "basis": ["inverse_cdf_sample", "eval_nodes"],
    "gram": ["accumulate", "gram_matrix_of_context", "response_vector_of_sample"],
    "estimators": ["ridge_estimate", "penalized_estimate", "project_simplex"],
    "bounds": ["l2_error_crps", "ks_distance", "weighted_norm", "min_eigenvalue"],
}
METHODS = {"eval_nodes"}


def traced_names():
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def metric_names():
    """Names of the per-layer metrics, in the order the benchmark reports them."""
    names = []
    for name in traced_names():
        names += [f"{name}.calls", f"{name}.self_s"]
    names += [f"{layer}.self_s" for layer in TRACED]
    return names + ["basis.evals_per_draw", "gram.accumulate_per_row",
                    "trace_overhead_frac"]


class Tracer:
    """Per-(function, caller) call counts, total time and self time."""

    def __init__(self):
        self.stats = {}  # (name, caller name or None) -> [calls, total_s, self_s]
        self._stack = []  # open spans: [name, time spent in child spans]
        self._undo = []  # (owner, attribute, original) to restore on uninstall

    def wrap(self, name, fn):
        stats, stack, clock = self.stats, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            span = [name, 0.0]
            stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = stats.get((name, caller))
                if rec is None:
                    rec = stats[(name, caller)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - span[1]

        return traced

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every listed function wherever cdfreg holds it.

        Returns {traced name: [(namespace, attribute), ...]} for each binding
        that now points at the wrapper.
        """
        for layer in TRACED:
            importlib.import_module(f"cdfreg.{layer}")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "cdfreg" or key.startswith("cdfreg.")]
        basis_mod = sys.modules["cdfreg.basis"]
        bound = {}
        for layer, fns in TRACED.items():
            home = sys.modules[f"cdfreg.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                sites = bound[name] = []
                if fn in METHODS:
                    for cls in vars(basis_mod).values():
                        if (isinstance(cls, type) and issubclass(cls, basis_mod.BasisFamily)
                                and fn in vars(cls)):
                            self._rebind(cls, fn, self.wrap(name, vars(cls)[fn]))
                            sites.append((cls.__qualname__, fn))
                    continue
                original = getattr(home, fn)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapper)
                            sites.append((mod.__name__, attr))
        return bound

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def table(self):
        """Per-(function, caller) rows for the run record."""
        return [{"fn": name, "caller": caller, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (name, caller), (calls, total, self_s) in sorted(
                    self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]
