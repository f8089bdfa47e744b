"""Every benchmark workload's config passes the CLI's config checks and its output gate.

``perfbench/workloads.py`` fixes each workload's config, and the harness
runs it with ``--seed N --threads 1``. A schema change that rejected either
would fail every benchmark run, so both go through ``build_parser`` and
``_load_config`` here. A sampler or solver change that broke a workload's
gate (the hard sweep's l2 slope, the penalized run's coverage and
dominance) would fail every run too, so each workload also runs through
``cli.main`` and its ``check``. The workloads file is read, never changed
or imported as a package module.
"""

import pathlib
import sys
import types

import pytest

from cdfreg.cli import _load_config, build_parser, main

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_WORKLOADS_PATH = _ROOT / "perfbench" / "workloads.py"


def _load_workloads():
    """Execute the workloads' source in a fresh namespace, writing no bytecode."""
    module = types.ModuleType("perfbench_workloads_source")
    module.__file__ = str(_WORKLOADS_PATH)
    sys.modules[module.__name__] = module  # dataclasses looks its module up
    try:
        exec(compile(_WORKLOADS_PATH.read_text(), str(_WORKLOADS_PATH), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("seed", [0, 1701])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_config_loads_with_harness_argv(tmp_path, name, seed):
    wl = WORKLOADS[name]
    path = tmp_path / "config.json"
    wl.write_config(str(path), str(_ROOT))
    args = build_parser().parse_args([wl.command, "--config", str(path),
                                      "--out", str(tmp_path / "out"),
                                      "--seed", str(seed), "--threads", "1"])
    config = _load_config(args)
    assert config["seed"] == seed and config["threads"] == 1


@pytest.mark.parametrize("seed", [0, 1701])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_passes_its_check(tmp_path, name, seed):
    wl = WORKLOADS[name]
    path, out = tmp_path / "config.json", tmp_path / "out"
    wl.write_config(str(path), str(_ROOT))
    assert main([wl.command, "--config", str(path), "--out", str(out),
                 "--seed", str(seed), "--threads", "1"]) == 0
    assert wl.check(str(out)) == []
