"""numpy and the standard library are the only imports of the CLI path, and
every name the package exports is used by a driver or is listed as library-only.

Each import check runs in a fresh interpreter, so the modules the test session
has already loaded (scipy, jsonschema, hypothesis) do not hide an import.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# One tiny config per subcommand; the real one reads the bundled smoke CSV.
TINY_CONFIGS = {
    "synth-poly": {"basis": {"kind": "polynomial", "d": 3}, "n_grid": [20, 40],
                   "lambdas": [0.01], "reps": 1},
    "synth-bernoulli": {"basis": {"kind": "bernoulli_hard", "d": 3},
                        "n_grid": [50, 100], "lambdas": [0.01], "reps": 2},
    "bound-check": {"mode": "penalized", "d": 3, "n": 50, "delta": 0.1, "reps": 3,
                    "theta_star": [0.5, 0.3, 0.2],
                    "basis": {"kind": "bernoulli_atoms",
                              "atoms": [[0.2, 0.5, 0.8], [0.7, 0.3, 0.6]],
                              "probs": [0.5, 0.5],
                              "measure": {"kind": "counting", "points": [0.0, 1.0]}}},
    "real": {"csv_path": str(SRC / "cdfreg" / "data" / "smoke_12.csv"), "outcome": "y",
             "basis": {"kind": "gaussian_laplace", "w": 0.5},
             "measure": {"kind": "gaussian", "c": 0.0, "var": 9.0, "n_nodes": 16},
             "lambdas": [0.1], "seeds": [0]},
}

_MAIN_IMPORTS = """
import json, os, sys
import cdfreg.cli as cli
out_dir, configs = sys.argv[1], json.loads(sys.argv[2])
added = {}
for command, config in configs.items():
    path = os.path.join(out_dir, command + ".json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    before = set(sys.modules)
    code = cli.main([command, "--config", path, "--out", os.path.join(out_dir, command),
                     "--threads", "1"])
    added[command] = [code, sorted(set(sys.modules) - before)]
print(json.dumps(added))
"""


def _run(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_cli_import_loads_neither_scipy_nor_jsonschema():
    loaded = _run("import json, sys; import cdfreg.cli; "
                  "print(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m.split(".")[0] in ("scipy", "jsonschema")] == []


def test_main_imports_no_module(tmp_path):
    added = _run(_MAIN_IMPORTS, str(tmp_path), json.dumps(TINY_CONFIGS))
    assert added == {command: [0, []] for command in TINY_CONFIGS}


def test_cli_import_loads_neither_numpy_ma_nor_concurrent_futures():
    # Quantiles come from synth.sorted_quantile, and runs are serial: no thread pool.
    loaded = _run("import json, sys; import cdfreg.cli; "
                  "print(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")
            or m.split(".")[0] == "concurrent"] == []


# Exports that no driver reaches: the paper results no command runs yet and the
# error unregularized_estimate raises.
LIBRARY_ONLY = {"hilbert_bound", "hilbert_estimate", "epsilon_unreg", "unregularized_estimate",
                "SingularGram", "sample_scheme1", "sample_mismatched"}


def _exports_and_driver_names():
    """Names cdfreg/__init__.py exports, and every name the cli, synth and realdata
    modules refer to, directly or through the package functions and classes they use."""
    trees = {p.stem: ast.parse(p.read_text()) for p in (SRC / "cdfreg").glob("*.py")}
    defs = {node.name: node for stem, tree in trees.items() if stem != "__init__"
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used, todo = set(), [trees[m] for m in ("cli", "synth", "realdata")]
    while todo:
        for node in ast.walk(todo.pop()):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name not in used:
                used.add(name)
                if name in defs:
                    todo.append(defs[name])
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return exported, used


def test_every_export_is_used_by_a_driver_or_library_only():
    exported, used = _exports_and_driver_names()
    assert sorted(exported - used - LIBRARY_ONLY) == []
    assert sorted(LIBRARY_ONLY - exported) == []  # the list names only exports
    assert sorted(LIBRARY_ONLY & used) == []  # a name a driver reaches leaves the list
