"""Every benchmark workload's config passes the CLI's config checks and its output gate.

``perfbench/workloads.py`` fixes each workload's config, and the harness
runs it with ``--seed N --threads 1``. A schema change that rejected either
would fail every benchmark run, so both go through ``build_parser`` and
``_load_config`` here. A sampler or solver change that broke a workload's
gate (the hard sweep's l2 slope, the penalized run's coverage and
dominance) would fail every run too, so each workload also runs through
``cli.main`` and its ``check``, and its ``records.csv`` and ``aggregates.csv``
must keep their pinned bytes, so that a change meant only to speed a workload up
cannot move its outputs. The workloads file is read, never changed or imported as
a package module.
"""

import hashlib
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

# SHA-256 of (records.csv, aggregates.csv) per (workload, seed). The digests are of numpy
# 2.4 on x86-64 Linux; a BLAS or libm that rounds differently can move a value, and so them.
DIGESTS = {
    ("hard_sweep", 0): ("9a539378cd87af48936869b5bdbb7b5d4b33ff0059591648de0fb2c2cbe988bf",
        "d41c60d6ee5407c08d4a0012b81ba5ef4b57f146801d08d1ae1aa02cc74f1642"),
    ("hard_sweep", 1701): ("f2cc40393eceaaac3cd297488900f7c2ad565208e48d41331854f0a91d064336",
        "7670378712319182ec918d9fb15c1a011618a2e025b328a6e461a0b23ce0ac32"),
    ("penalized_atoms", 0): ("43965cbfaa2608f5d0b04bda598deaa336fbcd87aded476ad03245c9e9d68f55",
        "945d8583202f82360b6dd78ba32e8b93cde51c77ba04af64211c0cab1f72a3f4"),
    ("penalized_atoms", 1701): ("af34bbdd3bd50a78768eddf472214c0887cbbc14c626cfae089a94ad3b11ed73",
        "945d8583202f82360b6dd78ba32e8b93cde51c77ba04af64211c0cab1f72a3f4"),
    ("poly_sweep", 0): ("a58e3e8b3e25ad88e798ba19cbe15dc1726a60ee5abd181ac4ceb8314f88307c",
        "aaa150a2f60e5757893fbb9ef9e7d79bd36b09ee6db3e0184c0c24f7939a0910"),
    ("poly_sweep", 1701): ("6538994be454b8933dce54d03aaa21fa696a0cebd9447dc7f99490ab99332e4e",
        "b9dccaefaf144e1909b294b4099a34582b12bd4d082406f6e4cb21d94cf456cb"),
    ("real_crps", 0): ("b98c12432e56836a0109bb953a01639eca495af222e7ce6f399d772d51fbd1b7",
        "64b58e03c0ca0f93f391934e07b5f54cbabfcc730bd42135700dbb8eab863546"),
    ("real_crps", 1701): ("2a9bd695f94bb3ad327dbe6ce0607ed254cc53a9fae35fe1e8aed797629a9bed",
        "5e3440a39b1f559e842d2685c0ed3229692e305a1cbc9e3894bb213695a8ec37"),
}


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
    assert tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                 for f in ("records.csv", "aggregates.csv")) == DIGESTS[name, seed]
