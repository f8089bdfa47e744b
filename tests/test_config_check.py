"""cli._check accepts and rejects exactly the configs jsonschema.validate does.

The corpus is the four benchmark configs, the configs of test_cli.py, and
one-change mutations of each: booleans, fractions and integral floats where
an integer is expected, values on every bound, empty arrays, unknown keys,
wrong enum values and missing required keys. A rejection must name the
field jsonschema names.
"""

import copy
import importlib.util
import pathlib
import sys

import jsonschema
import pytest

from cdfreg.cli import _SCHEMAS, _ConfigError, _check
from cdfreg.realdata import evaluate_pipeline
from cdfreg.synth import run_coverage_experiment, run_scaling_experiment

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _benchmark_configs():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(wl.command, wl.config) for wl in workloads.WORKLOADS.values()]


_REAL = {"csv_path": "smoke_12.csv", "outcome": "y",
         "measure": {"kind": "gaussian", "c": 0.0, "var": 9.0, "n_nodes": 32},
         "basis": {"kind": "gaussian_laplace", "w": 0.0},
         "lambdas": [0.1, 1.0, 5.0], "seeds": [0]}
_BERN = {"basis": {"kind": "bernoulli_hard", "d": 2}, "lambdas": [0.001],
         "n_grid": [100, 300], "reps": 2, "metrics": ["l2"], "seed": 1}
CLI_CONFIGS = [
    ("synth-bernoulli", _BERN),
    ("synth-bernoulli", dict(_BERN, typo_field=1)),
    ("synth-bernoulli", dict(_BERN, basis={"kind": "polynomial"})),
    ("synth-bernoulli", {"basis": {"kind": "bernoulli_hard"}, "lambdas": [0.1]}),
    ("bound-check", {"d": 2, "n": 50, "delta": 1.5, "reps": 2}),
    ("bound-check", {"mode": "self", "d": 2, "n": 200, "delta": 0.1, "lambda": 0.01,
                     "reps": 10, "seed": 3, "basis": {"kind": "bernoulli_hard"},
                     "theta_star": [0.5, 0.5]}),
    ("real", _REAL),
    ("real", dict(_REAL, features=["x2"], lambdas=[1.0])),
    ("real", [1, 2]),
]


def _fields(value, schema, path=()):
    """(path, subschema) of every field present in value, nested ones included."""
    yield path, schema
    if isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from _fields(value[key], sub, path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for j, item in enumerate(value):
            yield from _fields(item, schema["items"], path + (j,))


def _get(config, path):
    for key in path:
        config = config[key]
    return config


_DELETE = object()


def _set(config, path, value):
    """A deep copy of config with the field at path set to value, or deleted."""
    out = copy.deepcopy(config)
    node = _get(out, path[:-1])
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def _mutants(config, schema):
    """(changed path, mutated config, key the error must name) triples, one change each."""
    for path, sub in _fields(config, schema):
        kind = sub.get("type")
        values = []
        if kind == "integer":
            values += [True, 2.5, 2.0, "3"]
        if kind == "number":
            values += [True, "0.5", 1]
        if kind == "array":
            values += [[], {}]
        if kind == "object":
            values += [[]]
            node = _get(config, path)
            if isinstance(node, dict) and sub.get("additionalProperties") is False:
                yield path, _set(config, path + ("zz_unknown",), 1), "zz_unknown"
            for key in sub.get("required", ()):
                if isinstance(node, dict) and key in node:
                    yield path, _set(config, path + (key,), _DELETE), key
        if "enum" in sub:
            values += ["nope", None]
        for bound in ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum"):
            if bound in sub:
                values += [sub[bound], sub[bound] - 0.5, sub[bound] + 0.5]
        if path:
            for v in values:
                yield path, _set(config, path, v), None


def _corpus():
    for command, config in _benchmark_configs() + CLI_CONFIGS:
        schema = _SCHEMAS[command]
        yield command, (), config, None
        for path, mutant, key in _mutants(config, schema):
            yield command, path, mutant, key


CORPUS = list(_corpus())
# What jsonschema.validate uses for these schemas, built once: validate()
# itself re-checks the schema against its metaschema on every call.
VALIDATORS = {c: jsonschema.validators.validator_for(s)(s) for c, s in _SCHEMAS.items()}


def test_schemas_are_valid_and_corpus_has_both_verdicts():
    for schema in _SCHEMAS.values():
        jsonschema.validators.validator_for(schema).check_schema(schema)
    verdicts = [VALIDATORS[c].is_valid(m) for c, _, m, _ in CORPUS]
    assert len(CORPUS) > 400
    assert 50 < sum(verdicts) < len(CORPUS) - 50


@pytest.mark.parametrize("command, path, config, key", CORPUS,
                         ids=[f"{c}:{'.'.join(map(str, p)) or 'root'}:{i}"
                              for i, (c, p, _, _) in enumerate(CORPUS)])
def test_check_matches_jsonschema(command, path, config, key):
    schema = _SCHEMAS[command]
    errors = list(VALIDATORS[command].iter_errors(config))
    if not errors:
        _check(config, schema)
        return
    with pytest.raises(_ConfigError) as info:
        _check(config, schema)
    message = str(info.value)
    named = {".".join(str(p) for p in e.absolute_path) or "<root>" for e in errors}
    assert any(message.startswith(f"config field {where}: ") for where in named)
    if key is not None and len(errors) == 1:
        assert repr(key) in message


DRIVERS = {"synth-bernoulli": run_scaling_experiment, "synth-poly": run_scaling_experiment,
           "bound-check": run_coverage_experiment, "real": evaluate_pipeline}


def test_each_driver_rejects_what_check_rejects_with_the_same_message():
    """A library call is checked like a CLI config: every corpus case that _check rejects
    makes its command's driver raise a ValueError with the message _check gives."""
    rejected = 0
    for command, _, config, _ in CORPUS:
        try:
            _check(config, _SCHEMAS[command])
        except _ConfigError as exc:
            with pytest.raises(ValueError) as info:
                DRIVERS[command](config)
            assert str(info.value) == str(exc)
            rejected += 1
    assert rejected > len(CORPUS) // 2
