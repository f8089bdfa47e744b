"""Self-test of the benchmark's tracer.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the package's own test run does not
collect it; it runs each workload once untraced and once traced (about a
minute on a 2-core machine).
"""

import json
import os
import sys

import pytest

import run
from tracer import METHODS, TRACED, Tracer, metric_names
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def _cdfreg_modules():
    import cdfreg.cli  # noqa: F401  (imports every layer)
    return [mod for key, mod in sys.modules.items()
            if key == "cdfreg" or key.startswith("cdfreg.")]


def test_benchmark_json_lists_the_reported_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert sorted(PER_LAYER) == sorted(metric_names())
    assert len(set(PER_LAYER)) == len(PER_LAYER)


def test_every_listed_function_is_rebound_in_every_module_holding_it():
    modules = _cdfreg_modules()
    originals = {f"{layer}.{fn}": getattr(sys.modules[f"cdfreg.{layer}"], fn)
                 for layer, fns in TRACED.items() for fn in fns if fn not in METHODS}
    tracer = Tracer()
    bound = tracer.install()
    try:
        for name, original in originals.items():
            sites = bound[name]
            assert sites, name
            wrappers = {id(getattr(sys.modules[mod], attr)) for mod, attr in sites}
            assert len(wrappers) == 1 and id(original) not in wrappers, name
        for mod in modules:
            for attr, value in vars(mod).items():
                assert not any(value is o for o in originals.values()), f"{mod.__name__}.{attr}"
        # bindings made by `from .x import y` that a module-only patch would miss
        assert ("cdfreg.synth", "accumulate") in bound["gram.accumulate"]
        assert ("cdfreg.realdata", "accumulate") in bound["gram.accumulate"]
        assert ("cdfreg.synth", "inverse_cdf_sample") in bound["basis.inverse_cdf_sample"]
        assert ("cdfreg.realdata", "l2_error_crps") in bound["bounds.l2_error_crps"]
        assert ("cdfreg.cli", "evaluate_pipeline") in bound["realdata.evaluate_pipeline"]
        basis = sys.modules["cdfreg.basis"]
        families = [c for c in vars(basis).values() if isinstance(c, type)
                    and issubclass(c, basis.BasisFamily) and "eval_nodes" in vars(c)]
        assert len(bound["basis.eval_nodes"]) == len(families) >= 4
        assert all(hasattr(vars(c)["eval_nodes"], "__wrapped__") for c in families)
    finally:
        tracer.uninstall()
    for name, original in originals.items():
        layer, fn = name.split(".")
        assert getattr(sys.modules[f"cdfreg.{layer}"], fn) is original


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced run of every workload."""
    return {name: run._measure(wl, 0, 0, True, str(tmp_path_factory.mktemp(name)),
                               run._now() + run.HARD_LIMIT_S)
            for name, wl in WORKLOADS.items()}


def test_traced_and_untraced_runs_write_the_same_outputs(runs):
    for name, (untraced, traced) in runs.items():
        assert not untraced["trace"] and traced["trace"], name
        assert untraced["problems"] == traced["problems"] == [], name
        assert untraced["hashes"] == traced["hashes"], name


def test_every_layer_metric_is_nonzero_on_some_workload(runs):
    metrics = [run._layer_metrics(WORKLOADS[name], [traced], [untraced])[0]
               for name, (untraced, traced) in runs.items()]
    zero = [name for name in PER_LAYER if all(m[name][0] == 0 for m in metrics)]
    assert zero == []
