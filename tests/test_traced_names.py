"""Every function the benchmark traces still exists in its cdfreg module.

``perfbench/tracer.py`` wraps the functions it lists by name; a listed name
that no longer resolves breaks every traced benchmark run. The tracer is read
here, never changed or imported as a package module.
"""

import importlib
import pathlib
import types

import pytest

from cdfreg.basis import BasisFamily

_TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    """Execute the tracer's source in a fresh namespace, writing no bytecode."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(_TRACER_PATH)
    exec(compile(_TRACER_PATH.read_text(), str(_TRACER_PATH), "exec"), module.__dict__)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("name", TRACER.traced_names())
def test_traced_function_exists(name):
    layer, fn = name.split(".")
    module = importlib.import_module(f"cdfreg.{layer}")
    if fn in TRACER.METHODS:  # traced on every basis class that defines it
        assert any(isinstance(cls, type) and issubclass(cls, BasisFamily) and fn in vars(cls)
                   for cls in vars(module).values())
    else:
        assert callable(getattr(module, fn, None))
