import csv
import json
import pathlib

import pytest

from cdfreg import __version__
from cdfreg.cli import _scaling_summary, build_parser, main
from cdfreg.synth import ExperimentRecord

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "cdfreg" / "data"


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(tmp_path, command, payload, extra=()):
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


BERN_CFG = {"basis": {"kind": "bernoulli_hard", "d": 2}, "lambdas": [0.001],
            "n_grid": [100, 300], "reps": 2, "metrics": ["l2"], "seed": 1}


def test_synth_bernoulli_happy_path(tmp_path):
    code, out = run(tmp_path, "synth-bernoulli", BERN_CFG)
    assert code == 0
    with open(out / "records.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 grid points x 2 reps x 1 lambda x 1 metric
    assert {r["metric"] if "metric" in r else r["metric_name"] for r in rows} \
        == {"l2"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["version"] == f"cdfreg-{__version__}"
    assert summary["config"]["seed"] == 1
    assert "d=2,lambda=0.001" in summary["slopes"]
    assert (out / "aggregates.csv").exists()


def test_synth_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, BERN_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["synth-bernoulli", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "records.csv").read_bytes())
    assert outs[0] == outs[1]


def test_invalid_delta_exits_2(tmp_path, capsys):
    payload = {"d": 2, "n": 50, "delta": 1.5, "reps": 2}
    code, _ = run(tmp_path, "bound-check", payload)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "delta" in err["message"]


def test_missing_required_field_exits_2(tmp_path, capsys):
    payload = {"basis": {"kind": "bernoulli_hard"}, "lambdas": [0.1]}
    code, _ = run(tmp_path, "synth-bernoulli", payload)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "reps" in err["message"]


def test_unknown_key_rejected(tmp_path, capsys):
    payload = dict(BERN_CFG, typo_field=1)
    code, _ = run(tmp_path, "synth-bernoulli", payload)
    assert code == 2
    assert "typo_field" in json.loads(capsys.readouterr().err)["message"]


def test_wrong_basis_for_subcommand(tmp_path, capsys):
    payload = dict(BERN_CFG, basis={"kind": "polynomial"})
    code, _ = run(tmp_path, "synth-bernoulli", payload)
    assert code == 2
    capsys.readouterr()


def test_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, BERN_CFG)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["synth-bernoulli", "--config", cfg, "--out", str(out1),
                 "--seed", "5"]) == 0
    assert main(["synth-bernoulli", "--config", cfg, "--out", str(out2),
                 "--seed", "6"]) == 0
    assert (out1 / "records.csv").read_bytes() != (out2 / "records.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    assert s1["config"]["seed"] == 5


def test_bound_check_happy_path(tmp_path):
    payload = {"mode": "self", "d": 2, "n": 200, "delta": 0.1, "lambda": 0.01,
               "reps": 10, "seed": 3, "basis": {"kind": "bernoulli_hard"},
               "theta_star": [0.5, 0.5]}
    code, out = run(tmp_path, "bound-check", payload)
    assert code == 0
    with open(out / "records.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert all(r["covered"] in ("0", "1") for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["coverage"] >= 0.8


@pytest.mark.parametrize("mode", ["self", "sigma", "penalized", "mismatch"])
def test_bound_check_writes_plain_numbers(tmp_path, mode):
    """Every number bound-check writes is a plain float literal, whatever type the
    scores and bounds took on the way."""
    payload = {"mode": mode, "d": 3, "n": 300, "delta": 0.1, "reps": 5, "seed": 1,
               "basis": {"kind": "bernoulli_hard", "p_e": 0.4}}
    if mode == "mismatch":
        payload["q"] = 0.2
    code, out = run(tmp_path, "bound-check", payload)
    assert code == 0
    for name in ("records.csv", "aggregates.csv"):
        with open(out / name) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for value in (v for r in rows for k, v in r.items() if k != "mode"):
            float(value)  # "np.float64(1.0)" and the like raise
    summary = json.loads((out / "summary.json").read_text())
    assert all(type(v) in (int, float) for k, v in summary.items() if k.endswith(("_mean", "_max"))
               or k == "coverage")


def test_real_happy_path(tmp_path):
    payload = {"csv_path": str(DATA / "smoke_12.csv"), "outcome": "y",
               "measure": {"kind": "gaussian", "c": 0.0, "var": 9.0,
                           "n_nodes": 32},
               "basis": {"kind": "gaussian_laplace", "w": 0.0},
               "lambdas": [0.1, 1.0, 5.0], "seeds": [0]}
    code, out = run(tmp_path, "real", payload)
    assert code == 0
    with open(out / "records.csv") as fh:
        rows = list(csv.DictReader(fh))
    # 3 lambdas of ridge + ecdf + mle rows for the single seed
    assert sum(r["method"] == "ridge_projected" for r in rows) == 3
    assert sum(r["method"] == "ecdf" for r in rows) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failures"] == []
    assert "ridge_projected" in summary["summary"]


@pytest.mark.parametrize("csv_text,features", [
    ("x1,y\n" + "".join(f"{i}.0,{i % 3}.5\n" for i in range(7)), ["x2"]),
    ("x1,y\n" + "a,b\n" * 7, None),
], ids=["missing_feature", "no_numeric_row"])
def test_real_unusable_csv_exits_2(tmp_path, capsys, csv_text, features):
    p = tmp_path / "t.csv"
    p.write_text(csv_text)
    payload = {"csv_path": str(p), "outcome": "y",
               "measure": {"kind": "gaussian", "c": 0.0, "var": 9.0},
               "basis": {"kind": "gaussian_laplace", "w": 0.0},
               "lambdas": [1.0], "seeds": [0]}
    if features is not None:
        payload["features"] = features
    code, _ = run(tmp_path, "real", payload)
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


REAL_ONE_SEED = {"csv_path": str(DATA / "smoke_12.csv"), "outcome": "y",
                 "measure": {"kind": "gaussian", "c": 0.0, "var": 9.0, "n_nodes": 16},
                 "basis": {"kind": "gaussian_laplace", "w": 0.0},
                 "lambdas": [1.0], "seeds": [0]}


def test_real_negative_seed_is_a_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "real", dict(REAL_ONE_SEED, seeds=[0, -1]))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "seeds" in err["message"]
    assert not (out / "records.csv").exists()  # raised before any seed ran


@pytest.mark.parametrize("extra,flags", [({"seed": 3}, ()), ({"n_seeds": 2}, ()),
                                         ({}, ("--seed", "5"))],
                         ids=["seed", "n_seeds", "--seed"])
def test_real_seeds_with_seed_or_n_seeds_is_a_config_error(tmp_path, capsys, extra, flags):
    code, out = run(tmp_path, "real", dict(REAL_ONE_SEED, **extra), flags)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "seeds" in err["message"]
    assert not (out / "records.csv").exists()


@pytest.mark.parametrize("delimiter", ["", ";;", "\t\t", "a\n"],
                         ids=["empty", "two", "two_tabs", "trailing_newline"])
def test_real_delimiter_of_other_than_one_character_exits_2(tmp_path, capsys, delimiter):
    code, out = run(tmp_path, "real", dict(REAL_ONE_SEED, delimiter=delimiter))
    assert code == 2
    assert _config_error(capsys).startswith("config field delimiter: ")
    assert not (out / "records.csv").exists()


def test_real_integral_float_seed_runs_as_its_integer(tmp_path):
    code, out = run(tmp_path, "real", dict(REAL_ONE_SEED, seeds=[2.0]))
    assert code == 0
    (tmp_path / "int").mkdir()
    code, ref = run(tmp_path / "int", "real", dict(REAL_ONE_SEED, seeds=[2]))
    assert code == 0
    assert (out / "records.csv").read_bytes() == (ref / "records.csv").read_bytes()


@pytest.mark.parametrize("command", ["synth-bernoulli", "synth-poly", "bound-check", "real"])
def test_every_subcommand_takes_the_shared_options(command, capsys):
    parse = build_parser().parse_args
    args = parse([command, "--config", "c.json"])
    assert (args.command, args.config, args.out, args.seed, args.threads) == (
        command, "c.json", ".", None, None)
    args = parse([command, "--config", "c.json", "--out", "o", "--seed", "3",
                  "--threads", "1"])
    assert (args.out, args.seed, args.threads) == ("o", 3, 1)
    with pytest.raises(SystemExit) as exc:
        parse([command])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err


@pytest.mark.parametrize("command, sweep", [("synth-bernoulli", True), ("synth-poly", True),
                                            ("bound-check", False), ("real", False)])
def test_only_the_sweeps_take_long(command, sweep, capsys):
    parse = build_parser().parse_args
    if sweep:
        assert parse([command, "--config", "c.json"]).long is False
        assert parse([command, "--config", "c.json", "--long"]).long is True
        return
    with pytest.raises(SystemExit) as exc:
        parse([command, "--config", "c.json", "--long"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --long" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["real", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    capsys.readouterr()


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code = main(["bound-check", "--config", str(p), "--out", str(tmp_path)])
    assert code == 2
    assert "JSON" in json.loads(capsys.readouterr().err)["message"]


POLY_CFG = {"basis": {"kind": "polynomial", "d": 2}, "lambdas": [0.01],
            "n_grid": [50, 100], "reps": 1, "seed": 1}


def _config_error(capsys):
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    return err["message"]


@pytest.mark.parametrize("field", [{"metrics": ["l2", "l2x"]}, {"slope_metric": "foo"},
                                   {"metrics": ["l2\n"]}, {"slope_metric": "l2\n"}],
                         ids=["metrics", "slope_metric", "metrics_newline",
                              "slope_metric_newline"])
def test_unknown_metric_name_exits_2(tmp_path, capsys, field):
    code, out = run(tmp_path, "synth-poly", dict(POLY_CFG, **field))
    assert code == 2
    assert next(iter(field)) in _config_error(capsys)
    assert not (out / "records.csv").exists()


_BOUND_CFG = {"mode": "self", "d": 2, "n": 50, "delta": 0.1, "reps": 2,
              "basis": {"kind": "bernoulli_hard"}}
_CFG = {"synth-bernoulli": BERN_CFG, "synth-poly": POLY_CFG, "bound-check": _BOUND_CFG,
        "real": REAL_ONE_SEED}


# Runs are serial, so threads is 1 or a config error, on every command.
@pytest.mark.parametrize("command, key, value", [
    ("synth-poly", "seed", -1), ("synth-poly", "threads", 0),
    *((command, "threads", 2) for command in _CFG)],
    ids=["seed--1", "threads-0", *(f"{command}-threads-2" for command in _CFG)])
@pytest.mark.parametrize("where", ["file", "argv"])
def test_bad_override_exits_2_like_the_config_field(tmp_path, capsys, command, key, value,
                                                    where):
    payload = dict(_CFG[command], **{key: value}) if where == "file" else _CFG[command]
    extra = [f"--{key}", str(value)] if where == "argv" else []
    code, out = run(tmp_path, command, payload, extra)
    assert code == 2
    assert _config_error(capsys).startswith(f"config field {key}: ")
    assert not (out / "records.csv").exists()


@pytest.mark.parametrize("command, payload", [
    ("synth-bernoulli", dict(BERN_CFG, basis={"kind": "bernoulli_hard", "d": 3},
                             theta_star=[1, 1, 1])),
    ("synth-poly", dict(POLY_CFG, theta_star=[1, 1])),
    ("synth-poly", dict(POLY_CFG, theta_star=[0.5, 0.3, 0.2])),
    ("synth-poly", {"basis": {"kind": "polynomial"}, "lambdas": [0.01], "reps": 1,
                    "d_grid": [2, 3], "n": 50, "theta_star": [0.5, 0.5]}),
    ("bound-check", dict(_BOUND_CFG, theta_star=[0.5, float("nan")])),
    ("bound-check", dict(_BOUND_CFG, theta_star=[1.5, -0.5])),
], ids=["off_simplex_bernoulli", "off_simplex_poly", "wrong_length", "d_grid_length",
        "nan", "negative"])
def test_bad_theta_star_exits_2_before_any_task(tmp_path, capsys, command, payload):
    code, out = run(tmp_path, command, payload)
    assert code == 2
    assert "theta" in _config_error(capsys)
    assert not (out / "records.csv").exists()


@pytest.mark.parametrize("basis, metrics", [
    ({"x_lo": 2.0, "x_hi": 0.5}, ["l2", "sigma_norm"]),
    ({"x_lo": 2.0, "x_hi": 0.5}, ["l2"]),
    ({"x_lo": 3.0}, ["l2"]),
    ({"x_hi": 0.4}, ["l2"]),
    ({"x_lo": 1.0, "x_hi": 1.0}, ["l2", "sigma_norm"]),
], ids=["reversed_sigma", "reversed", "x_lo_above_default", "x_hi_below_default", "equal"])
def test_empty_context_range_exits_2_before_any_task(tmp_path, capsys, basis, metrics):
    """x_lo >= x_hi is a config error naming basis.x_lo, not a failure row of every task."""
    payload = dict(POLY_CFG, basis={"kind": "polynomial", "d": 2, **basis}, metrics=metrics)
    code, out = run(tmp_path, "synth-poly", payload)
    assert code == 2
    assert "basis.x_lo" in _config_error(capsys)
    assert not (out / "records.csv").exists()


@pytest.mark.parametrize("payload, names", [
    (dict(BERN_CFG, basis={"kind": "bernoulli_hard", "d": 2, "c": 20.0}), "reduce c"),
    ({"basis": {"kind": "bernoulli_hard", "c": 20.0}, "lambdas": [0.001], "reps": 2,
      "d_grid": [2, 8], "n": 100, "metrics": ["l2"]}, "reduce c"),
    (dict(BERN_CFG, basis={"kind": "bernoulli_hard", "d": 1}), "d >= 2"),
], ids=["c_n_grid", "c_d_grid", "d_1"])
def test_bad_hard_design_exits_2_before_any_task(tmp_path, capsys, payload, names):
    """A design that cannot be built is a config error, not failure rows of its tasks; with
    d_grid [2, 8] the d = 8 design is valid, and d = 2 still fails the run."""
    code, out = run(tmp_path, "synth-bernoulli", payload)
    assert code == 2
    assert names in _config_error(capsys)
    assert not (out / "records.csv").exists()


_ATOMS = {"kind": "bernoulli_atoms", "atoms": [[0.2, 0.5, 0.8], [0.7, 0.3, 0.6]],
          "probs": [0.5, 0.5]}


@pytest.mark.parametrize("field, basis", [
    ("basis.atoms", dict(_ATOMS, atoms=[[0.2, 0.5], [0.7, 0.3]])),
    ("basis.atoms", dict(_ATOMS, atoms=[[0.2, 0.5, 0.8], [0.7, 0.3]])),
    ("basis.atoms", dict(_ATOMS, atoms=[[0.2, 0.5, 1.8], [0.7, 0.3, 0.6]])),
    ("basis.atoms", dict(_ATOMS, atoms=[0.2, 0.5, 0.8])),
    ("basis.probs", dict(_ATOMS, probs=[0.7, 0.5])),
    ("basis.probs", dict(_ATOMS, probs=[1.0])),
], ids=["short_rows", "ragged", "above_one", "flat", "off_simplex", "wrong_count"])
def test_bad_atom_design_exits_2_naming_the_field(tmp_path, capsys, field, basis):
    payload = {"mode": "penalized", "d": 3, "n": 50, "delta": 0.1, "reps": 2, "basis": basis}
    code, out = run(tmp_path, "bound-check", payload)
    assert code == 2
    assert field in _config_error(capsys)
    assert not (out / "records.csv").exists()


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, payload, field", [
    ("synth-bernoulli", dict(BERN_CFG, basis={"kind": "bernoulli_hard", "d": 2, "c": _NAN}),
     "basis.c"),
    ("synth-bernoulli", dict(BERN_CFG, lambdas=[_NAN]), "lambdas.0"),
    ("synth-bernoulli", dict(BERN_CFG, lambdas=[0.001, _INF]), "lambdas.1"),
    ("synth-poly", dict(POLY_CFG, basis={"kind": "polynomial", "d": 2, "x_lo": _NAN}),
     "basis.x_lo"),
    ("bound-check", {"mode": "penalized", "d": 3, "n": 50, "delta": 0.1, "reps": 2,
                     "basis": dict(_ATOMS, probs=[_NAN, _NAN])}, "basis.probs.0"),
], ids=["c_nan", "lambda_nan", "lambda_inf", "x_lo_nan", "probs_nan"])
def test_non_finite_number_exits_2_naming_the_field(tmp_path, capsys, command, payload, field):
    """json reads NaN and Infinity; every number field rejects them before any task runs."""
    code, out = run(tmp_path, command, payload)
    assert code == 2
    assert _config_error(capsys).startswith(f"config field {field}: ")
    assert not (out / "records.csv").exists()


@pytest.mark.parametrize("command, payload, key", [
    ("bound-check", {"mode": "penalized", "d": 3, "n": 50, "delta": 0.1, "reps": 2,
                     "basis": dict(_ATOMS, measure={"kind": "counting", "points": [0.0, _NAN]})},
     "measure.points"),
    ("real", dict(REAL_ONE_SEED, measure={"kind": "gaussian", "c": 0.0, "var": _NAN}),
     "measure.var"),
], ids=["counting_points_nan", "gaussian_var_nan"])
def test_non_finite_measure_exits_2_naming_the_key(tmp_path, capsys, command, payload, key):
    """The config check leaves a measure object's fields untyped; building it rejects them."""
    code, out = run(tmp_path, command, payload)
    assert code == 2
    assert key in _config_error(capsys)
    assert not (out / "records.csv").exists()


@pytest.mark.parametrize("message, payload", [
    ("mismatch mode needs q", {"mode": "mismatch",
                               "basis": {"kind": "bernoulli_hard", "p_e": 0.4}}),
    ("mismatch mode needs basis.p_e", {"mode": "mismatch", "q": 0.2,
                                       "basis": {"kind": "bernoulli_hard"}}),
    ("mismatch mode needs basis.p_e", {"mode": "mismatch", "q": 0.2}),
    ("lambda: penalized mode takes no lambda", {"mode": "penalized", "lambda": 0.01,
                                                "basis": _ATOMS}),
], ids=["no_q", "no_p_e", "no_basis", "penalized_lambda"])
def test_bad_mode_fields_exit_2_naming_the_field(tmp_path, capsys, message, payload):
    code, out = run(tmp_path, "bound-check", {"d": 3, "n": 50, "delta": 0.1, "reps": 2,
                                              **payload})
    assert code == 2
    assert message in _config_error(capsys)
    assert not (out / "records.csv").exists()


def _slope_summary(means):
    """cli._scaling_summary of one record per n = 10, 100, ..., at d = 2, lambda = 0.1."""
    records = [ExperimentRecord("x", "Fixed", 2, 10 ** (j + 1), 0.1, 0, 0, "l2", mean)
               for j, mean in enumerate(means)]
    return _scaling_summary({}, records)["slopes"]


def test_slope_needs_two_n_and_positive_means():
    assert _slope_summary([1.0, 0.1])["d=2,lambda=0.1"]["slope"] == pytest.approx(-1.0)
    assert _slope_summary([1.0]) == {}
    assert _slope_summary([1.0, 0.0, 0.1]) == {}
    assert _slope_summary([-2e-22, 1.0]) == {}
    assert _slope_summary([float("nan"), 1.0]) == {}


def test_non_positive_slope_metric_mean_gets_no_slope(tmp_path):
    """mu_min(U_n) of a rank-deficient U_n (n < d) is 0 up to round-off, whose sign a run
    does not control: the run still writes its summary and exits 0, with a slope for the
    (d, lambda) exactly when every mean is positive."""
    payload = {"basis": {"kind": "bernoulli_hard", "d": 8}, "lambdas": [0.001], "reps": 2,
               "n_grid": [2, 3, 4], "metrics": ["mu_min_U"], "slope_metric": "mu_min_U"}
    code, out = run(tmp_path, "synth-bernoulli", payload)
    assert code == 0
    with open(out / "aggregates.csv") as fh:
        means = [float(r["mean"]) for r in csv.DictReader(fh)]
    summary = json.loads((out / "summary.json").read_text())
    assert len(means) == 3 and summary["n_failures"] == 0
    assert ("d=8,lambda=0.001" in summary["slopes"]) == all(m > 0 for m in means)
