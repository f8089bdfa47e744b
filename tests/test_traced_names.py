"""Every function the benchmark traces still exists in its cdfreg module, and
some benchmark workload still calls it.

``perfbench/tracer.py`` wraps the functions it lists by name; a listed name
that no longer resolves breaks every traced benchmark run, and one that no
workload calls reports a per-layer metric of zero. The tracer and
``perfbench/workloads.py`` are read here, never changed or imported as
package modules.
"""

import importlib
import pathlib
import sys
import types

import pytest

import cdfreg.cli as cli
from cdfreg.basis import BasisFamily

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_source(path, name):
    """Execute a perfbench file's source in a fresh namespace, writing no bytecode."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    sys.modules[name] = module  # dataclasses looks its module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


TRACER = _load_source(_ROOT / "perfbench" / "tracer.py", "perfbench_tracer")
WORKLOADS = _load_source(_ROOT / "perfbench" / "workloads.py",
                         "perfbench_workloads_source").WORKLOADS


@pytest.mark.parametrize("name", TRACER.traced_names())
def test_traced_function_exists(name):
    layer, fn = name.split(".")
    module = importlib.import_module(f"cdfreg.{layer}")
    if fn in TRACER.METHODS:  # traced on every basis class that defines it
        assert any(isinstance(cls, type) and issubclass(cls, BasisFamily) and fn in vars(cls)
                   for cls in vars(module).values())
    else:
        assert callable(getattr(module, fn, None))


def test_every_traced_function_is_called_by_some_workload(tmp_path):
    """One traced run of each workload, in this process, calls every traced function."""
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        for name, wl in sorted(WORKLOADS.items()):
            path = tmp_path / f"{name}.json"
            wl.write_config(str(path), str(_ROOT))
            assert cli.main([wl.command, "--config", str(path), "--out", str(tmp_path / name),
                             "--seed", "0", "--threads", "1"]) == 0
    finally:
        tracer.uninstall()
    called = {name for name, _ in tracer.stats}
    assert [name for name in TRACER.traced_names() if name not in called] == []
