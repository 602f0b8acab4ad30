import importlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import zetaglue
from zetaglue import cli, spectral_core
from zetaglue.cli import (
    EXPERIMENTS,
    ConfigError,
    main,
    resolve_config,
)

SRC = Path(zetaglue.__file__).resolve().parents[1]

STD_CONFIG = {
    "experiment": "bfk",
    "fiber": {"type": "finite", "modes": [[0.0, 1], [1.0, 1]]},
    "geometry": {"a1": 1.0, "a2": 2.0, "holonomy": [math.pi / 2]},
}


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestListing:
    def test_registry_names_stable(self):
        assert sorted(EXPERIMENTS) == [
            "bfk", "dn-asymptotics", "heat-cancellation", "model-identities",
            "split", "svalues", "theorem-dn", "theorem-main", "trace-perp",
        ]

    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert out.count("entry:") == 9
        assert out.count("checks:") == 9

    def test_list_entries_are_importable_callables(self, capsys):
        assert main(["list"]) == 0
        entries = [line.split("entry:")[1].strip()
                   for line in capsys.readouterr().out.splitlines()
                   if "entry:" in line]
        assert len(entries) == 9
        for entry in entries:
            module, _, name = entry.rpartition(".")
            assert module.startswith("zetaglue.")
            assert callable(getattr(importlib.import_module(module), name))


class TestConfigValidation:
    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match=r"\$\.bogus"):
            resolve_config({"experiment": "bfk", "bogus": 1})

    def test_negative_mu_path(self):
        with pytest.raises(ConfigError, match=r"fiber\.modes\[0\]\[0\]"):
            resolve_config({"experiment": "bfk",
                            "fiber": {"type": "finite", "modes": [[-1.0, 1]]}})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match=r"\$\.experiment"):
            resolve_config({"experiment": "nope"})

    def test_holonomy_count(self):
        with pytest.raises(ConfigError, match=r"geometry\.holonomy"):
            resolve_config({
                "experiment": "bfk",
                "fiber": {"type": "finite", "modes": [[0.0, 2]]},
                "geometry": {"a1": 1.0, "a2": 1.0, "holonomy": [1.0]},
            })

    def test_unknown_tolerance(self):
        with pytest.raises(ConfigError, match=r"\$\.tolerances\.nope"):
            resolve_config(dict(STD_CONFIG, tolerances={"nope": 1.0}))

    def test_defaults_resolved(self):
        cfg = resolve_config(dict(STD_CONFIG))
        assert cfg["r_grid"] == [2.0, 4.0, 8.0, 16.0, 32.0]
        assert cfg["tolerances"] == {"rel_dev": 1e-9}
        assert cfg["out_dir"] == "out"

    @pytest.mark.parametrize("extra", [{}, {"t_grid": [0.5, 2.0],
                                            "thetas": [1.0, 2.0]}],
                             ids=["defaults", "grids"])
    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_resolved_config_is_data(self, experiment, extra):
        cfg = resolve_config(dict(STD_CONFIG, experiment=experiment, **extra))
        assert json.loads(json.dumps(cfg, allow_nan=False)) == cfg

    def test_circle_tolerance_default(self):
        cfg = resolve_config({
            "experiment": "bfk",
            "fiber": {"type": "circle", "circumference": 2 * math.pi},
            "geometry": {"a1": 1.0, "a2": 2.0, "holonomy": [math.pi / 2]},
        })
        assert cfg["tolerances"] == {"rel_dev": 1e-6}


CIRCLE = {"type": "circle", "circumference": 2 * math.pi}

# (experiment, keys the experiment needs, where the bad number goes, the
# path the error names); a "--" key is a command-line flag
NON_FINITE_FIELDS = [
    ("bfk", {}, ["geometry", "a1"], "geometry.a1"),
    ("bfk", {}, ["geometry", "a2"], "geometry.a2"),
    ("bfk", {}, ["geometry", "holonomy", 0], "geometry.holonomy[0]"),
    ("bfk", {}, ["fiber", "modes", 1, 0], "fiber.modes[1][0]"),
    ("bfk", {"fiber": CIRCLE}, ["fiber", "circumference"],
     "fiber.circumference"),
    ("bfk", {"r_grid": [2.0, 4.0, 8.0]}, ["r_grid", 1], "$.r_grid[1]"),
    ("heat-cancellation", {"t_grid": [0.25, 1.0]}, ["t_grid", 0],
     "$.t_grid[0]"),
    ("model-identities", {"thetas": [1.0, 2.0, 3.0]}, ["thetas", 2],
     "$.thetas[2]"),
    ("svalues", {"kappa": 0.75}, ["kappa"], "$.kappa"),
    ("split", {"epsilon": 0.25}, ["epsilon"], "$.epsilon"),
    ("bfk", {"tolerances": {"rel_dev": 1e-9}}, ["tolerances", "rel_dev"],
     "$.tolerances.rel_dev"),
    ("bfk", {}, ["--rmax"], "--rmax"),
    ("bfk", {}, ["--tol"], "--tol"),
]


def _unreachable(cfg, out_dir):
    raise AssertionError("a rejected config reached run_experiment")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize("experiment,extra,where,path", NON_FINITE_FIELDS,
                         ids=[case[3] for case in NON_FINITE_FIELDS])
def test_non_finite_number_is_config_error(tmp_path, monkeypatch, capsys,
                                           experiment, extra, where, path,
                                           bad):
    # rejected before any computation: with NaN epsilon the split job spun
    # for minutes, and NaN a1 ended in an empty "numeric failure: "
    monkeypatch.setattr(cli, "run_experiment", _unreachable)
    doc = json.loads(json.dumps(dict(STD_CONFIG, experiment=experiment,
                                     **extra)))
    flags = []
    if where[0].startswith("--"):
        flags = [f"{where[0]}={bad}"]
    else:
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = bad
    code = main(["run", str(write_config(tmp_path, doc)), *flags])
    assert code == 2
    assert f"config error: {path}: " in capsys.readouterr().err


# JSON true and false are Python ints: a1 true resolved to 1.0, a
# multiplicity true to 1
BOOLEAN_FIELDS = [case for case in NON_FINITE_FIELDS
                  if not case[2][0].startswith("--")] + [
    ("bfk", {}, ["fiber", "modes", 1, 1], "fiber.modes[1][1]")]


@pytest.mark.parametrize("bad", [True, False], ids=["true", "false"])
@pytest.mark.parametrize("experiment,extra,where,path", BOOLEAN_FIELDS,
                         ids=[case[3] for case in BOOLEAN_FIELDS])
def test_boolean_number_is_config_error(tmp_path, monkeypatch, capsys,
                                        experiment, extra, where, path, bad):
    monkeypatch.setattr(cli, "run_experiment", _unreachable)
    doc = json.loads(json.dumps(dict(STD_CONFIG, experiment=experiment,
                                     **extra)))
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = bad
    code = main(["run", str(write_config(tmp_path, doc))])
    assert code == 2
    assert f"config error: {path}: " in capsys.readouterr().err


# a JSON string "false" is truthy, and str() accepted any value as a path
@pytest.mark.parametrize("key,bad", [
    ("xy_files", "false"), ("xy_files", 0), ("xy_files", None),
    ("out_dir", [1, 2]), ("out_dir", 5), ("out_dir", False)])
def test_non_boolean_xy_files_and_non_string_out_dir_are_config_errors(
        tmp_path, monkeypatch, capsys, key, bad):
    monkeypatch.setattr(cli, "run_experiment", _unreachable)
    code = main(["run", str(write_config(tmp_path, dict(STD_CONFIG,
                                                        **{key: bad})))])
    assert code == 2
    assert f"config error: $.{key}: " in capsys.readouterr().err


def test_xy_files_false_writes_no_xy_file(tmp_path):
    cfg = dict(STD_CONFIG, out_dir=str(tmp_path / "out"), xy_files=False)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "bfk.csv", "summary.json"]


# a repeated stretch divided by zero in the theorem extrapolation and
# compared an svalues window with itself
REPEATED_GRIDS = [
    ("theorem-main", "r_grid", [4, 4, 8, 16, 32]),
    ("svalues", "r_grid", [10, 10, 20]),
    ("bfk", "r_grid", [8, 4]),
    ("heat-cancellation", "t_grid", [0.25, 0.25, 1.0]),
    ("model-identities", "thetas", [1.0, 1.0, 2.0]),
]


@pytest.mark.parametrize("experiment,key,grid", REPEATED_GRIDS,
                         ids=[f"{e}-{k}" for e, k, _ in REPEATED_GRIDS])
def test_grid_must_strictly_increase(tmp_path, monkeypatch, capsys,
                                     experiment, key, grid):
    monkeypatch.setattr(cli, "run_experiment", _unreachable)
    cfg = dict(STD_CONFIG, experiment=experiment, **{key: grid})
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert (f"config error: $.{key}: must be strictly increasing"
            in capsys.readouterr().err)


def test_model_identities_evaluates_reflected_towers_once(tmp_path,
                                                        monkeypatch):
    # 2 zero modes, thetas pi/3, pi/2, pi: 4 + 4 + 2 quarter-model towers
    # and 2 per single-phase tower, plus the 3 reflected-piece towers once
    # (they were evaluated once per theta, 25 in all)
    calls = []
    family_zeta = spectral_core._family_zeta

    def counted(*args):
        calls.append(args[0])
        return family_zeta(*args)

    monkeypatch.setattr(spectral_core, "_family_zeta", counted)
    cfg = {"experiment": "model-identities",
           "fiber": {"type": "finite", "modes": [[0.0, 2], [1.0, 1]]},
           "geometry": {"a1": 1.0, "a2": 2.0, "holonomy": [1.0, 2.0]},
           "out_dir": str(tmp_path / "out")}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    assert len(calls) == 19


class TestRun:
    def test_bfk_run(self, tmp_path, capsys):
        cfg = dict(STD_CONFIG, out_dir=str(tmp_path / "out"))
        code = main(["run", str(write_config(tmp_path, cfg))])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["summary"]["predicted_constant"] == 0.0625
        assert summary["summary"]["max_rel_dev"] < 1e-9
        csv = (tmp_path / "out" / "bfk.csv").read_text().splitlines()
        assert csv[0].startswith("# zetaglue-artifact")
        assert csv[2].startswith("# config-sha256: ")
        rows = [line.split(",") for line in csv[4:]]
        assert [float(r[0]) for r in rows] == [2.0, 4.0, 8.0, 16.0, 32.0]
        assert all(float(r[-1]) < 1e-9 for r in rows)

    def test_theorem_main_run(self, tmp_path):
        cfg = {
            "experiment": "theorem-main",
            "fiber": STD_CONFIG["fiber"],
            "geometry": STD_CONFIG["geometry"],
            "out_dir": str(tmp_path / "out"),
        }
        code = main(["run", str(write_config(tmp_path, cfg))])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert abs(summary["summary"]["predicted_limit"] - 0.125) < 1e-12
        assert summary["summary"]["cause"] is None
        csv = (tmp_path / "out" / "theorem-main.csv").read_text().splitlines()
        assert csv[3] == "R,scaled_ratio,log_deviation,tail_bound,rounding_floor"
        for line in csv[4:]:
            _, _, dev, bound, floor = map(float, line.split(","))
            assert abs(dev) <= bound + floor
        assert abs(dev) < 1e-4

    def test_malformed_fiber_exit_2(self, tmp_path, capsys):
        cfg = {"experiment": "bfk",
               "fiber": {"type": "finite", "modes": [[-1.0, 1]]}}
        code = main(["run", str(write_config(tmp_path, cfg))])
        assert code == 2
        assert "fiber.modes[0][0]" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", str(p)]) == 2

    def test_numeric_failure_exit_3(self, tmp_path, capsys):
        cfg = dict(STD_CONFIG, out_dir=str(tmp_path / "out"),
                   tolerances={"rel_dev": 1e-18})
        code = main(["run", str(write_config(tmp_path, cfg))])
        assert code == 3
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_bit_for_bit_reproducibility(self, tmp_path, experiment):
        out = tmp_path / "out"
        cfg = dict(STD_CONFIG, experiment=experiment, out_dir=str(out))
        path = write_config(tmp_path, cfg)

        def run():
            code = main(["run", str(path)])
            return code, {p.name: p.read_bytes() for p in out.iterdir()}

        code, first = run()
        assert code == 0
        assert {"summary.json", f"{experiment}.csv"} <= set(first)
        assert run() == (code, first)

    def test_out_flag_overrides(self, tmp_path):
        cfg = dict(STD_CONFIG, out_dir=str(tmp_path / "ignored"))
        path = write_config(tmp_path, cfg)
        dest = tmp_path / "elsewhere"
        assert main(["run", str(path), "--out", str(dest)]) == 0
        assert (dest / "bfk.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_rmax_filters_grid(self, tmp_path):
        cfg = dict(STD_CONFIG, out_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path), "--rmax", "8"]) == 0
        csv = (tmp_path / "out" / "bfk.csv").read_text().splitlines()
        rows = [line.split(",") for line in csv[4:]]
        assert [float(r[0]) for r in rows] == [2.0, 4.0, 8.0]

    def test_tol_overrides_primary(self, tmp_path):
        cfg = dict(STD_CONFIG, out_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path), "--tol", "1e-18"]) == 3

    def test_every_summary_carries_provenance(self, tmp_path):
        cfg = dict(STD_CONFIG, out_dir=str(tmp_path / "out"))
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        prov = doc["provenance"]
        assert len(prov["config_sha256"]) == 64
        assert prov["resolved_config"]["experiment"] == "bfk"
        assert "_fiber" not in prov["resolved_config"]

    def test_xy_files_carry_provenance(self, tmp_path):
        cfg = dict(STD_CONFIG, out_dir=str(tmp_path / "out"))
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
        xy = (tmp_path / "out" / "bfk_bfk_vs_R.xy").read_text().splitlines()
        assert xy[0].startswith("# zetaglue-artifact")
        assert len(xy[3].split()) == 2


def test_subnormal_holonomy_names_condition_A(tmp_path, capsys):
    geometry = dict(STD_CONFIG["geometry"], holonomy=[5e-324])
    cfg = dict(STD_CONFIG, geometry=geometry, out_dir=str(tmp_path / "out"))
    assert main(["run", str(write_config(tmp_path, cfg))]) == 3
    assert capsys.readouterr().err == (
        "zetaglue: numeric failure: zero mode 0: holonomy phase 5e-324 "
        "underflows sin(theta/2) to 0, a flat circle mode\n")
    cfg["geometry"] = dict(geometry, holonomy=[1e-320])
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0


def test_trace_perp_underflow_fails_a_named_gate(tmp_path, capsys):
    # past R of about 180 the difference underflows to 0.0, whose log ended
    # the job with "numeric failure: math domain error"
    out = tmp_path / "out"
    cfg = dict(STD_CONFIG, experiment="trace-perp", out_dir=str(out),
               r_grid=[3, 50, 100, 200, 400])
    assert main(["run", str(write_config(tmp_path, cfg))]) == 3
    err = capsys.readouterr().err
    assert "trace-perp: FAILED (nonzero_ok)" in err
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["nonzero_ok"] is False and summary["slope_ok"] is True
    assert abs(summary["fitted_slope"] + 4.0) < 1e-6
    rows = (out / "trace-perp.csv").read_text().splitlines()[4:]
    assert [row.split(",")[1] for row in rows[-2:]] == ["0", "0"]
    xy = (out / "trace-perp_log_abs_diff_vs_R.xy").read_text().splitlines()
    assert [line.split()[0] for line in xy[3:]] == ["3", "50", "100"]


def test_trace_perp_circle_fiber_runs(tmp_path):
    # modes with 2 mu L_i between 709.78 and 745 overflow math.expm1(2 mu L_i)
    cfg = {"experiment": "trace-perp",
           "fiber": {"type": "circle", "circumference": 1.0},
           "geometry": {"a1": 1.0, "a2": 2.0, "holonomy": [math.pi / 2]},
           "out_dir": str(tmp_path / "out")}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True


# 601 modes: 2^(-2 zeta(0) - h) underflows to 0.0, det R is past the float
# range on every row and the main limit is about 1.2e300
WIDE_MODES = [[0.0, 1]] + [[0.5 + 0.005 * k, 1] for k in range(601)]


def test_bfk_wide_fiber_passes_with_outputs(tmp_path, capsys):
    # the rows are checked in logs, whatever their linear columns read
    cfg = {"experiment": "bfk", "fiber": {"type": "finite", "modes": WIDE_MODES},
           "geometry": {"a1": 1.0, "a2": 2.0, "holonomy": [math.pi / 2]},
           "out_dir": str(tmp_path / "out")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["summary"]["predicted_constant"] == 0.0
    assert -1e4 < summary["summary"]["log_predicted_constant"] < -745.0
    assert summary["summary"]["failed_rows"] == []
    assert summary["summary"]["max_rel_dev"] <= 1e-9
    csv = (tmp_path / "out" / "bfk.csv").read_text().splitlines()
    assert len(csv[4:]) == 5
    for line in csv[4:]:
        assert all(math.isfinite(float(x)) for x in line.split(",")[1:5])


@pytest.mark.parametrize("experiment, column", [
    # every scaled ratio is finite, near 1e300
    ("theorem-main", "scaled_ratio"),
    # every scaled det R is past the float range
    ("theorem-dn", "scaled_det_R"),
], ids=["theorem-main", "theorem-dn"])
def test_theorem_wide_fiber_passes_with_outputs(tmp_path, capsys, experiment,
                                                column):
    # each row is checked in logs, whatever its linear column reads
    cfg = {"experiment": experiment,
           "fiber": {"type": "finite", "modes": WIDE_MODES},
           "geometry": {"a1": 1.0, "a2": 2.0, "holonomy": [math.pi / 2]},
           "out_dir": str(tmp_path / "out")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["summary"]["failed_rows"] == []
    assert math.isfinite(summary["summary"]["log_predicted_limit"])
    csv = (tmp_path / "out" / f"{experiment}.csv").read_text().splitlines()
    values = [list(map(float, line.split(","))) for line in csv[4:]]
    assert len(values) == 5
    assert all(math.isfinite(row[2]) for row in values)
    if column == "scaled_det_R":
        assert [row[1] for row in values] == [math.inf] * 5


@pytest.mark.parametrize("experiment", ["theorem-main", "theorem-dn"])
def test_theorem_circle_1000_grid_not_asymptotic(tmp_path, capsys,
                                                 experiment):
    # the lowest fiber frequency is 2 pi / 1000: at R = 64 the tail bound
    # is still above 1, so no row resolves the limit
    cfg = {"experiment": experiment,
           "fiber": {"type": "circle", "circumference": 1000.0},
           "geometry": {"a1": 1.0, "a2": 2.0, "holonomy": [math.pi / 2]},
           "out_dir": str(tmp_path / "out")}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 3
    assert capsys.readouterr().err.strip() == (
        f"zetaglue: {experiment}: FAILED (limit_ok)")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["summary"]["failed_rows"] == []
    assert summary["summary"]["cause"].startswith("grid not asymptotic: ")


def test_split_summary_records_quadrature_errors(tmp_path):
    cfg = dict(STD_CONFIG, experiment="split", out_dir=str(tmp_path / "out"))
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for key in ("small_quad_error", "large_quad_error"):
        assert 0.0 < summary["summary"][key] < 1e-9


@pytest.mark.parametrize("experiment", ["svalues", "dn-asymptotics"])
def test_no_zero_mode_fiber_fails(tmp_path, capsys, experiment):
    # no zero mode: no small eigenvalue and no pairing to check, so no pass
    cfg = {"experiment": experiment,
           "fiber": {"type": "finite", "modes": [[1.0, 1]]},
           "geometry": {"a1": 1.0, "a2": 2.0, "holonomy": []},
           "out_dir": str(tmp_path / "out")}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 3
    assert f"{experiment}: FAILED" in capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False
    csv = (tmp_path / "out" / f"{experiment}.csv").read_text().splitlines()
    assert len(csv[4:]) == 0


def _load_strict(path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_wide_fiber_summary_is_strict_json(tmp_path):
    # the predicted limit overflows to inf: null, with the key kept
    cfg = {"experiment": "theorem-dn",
           "fiber": {"type": "finite", "modes": WIDE_MODES},
           "geometry": {"a1": 1.0, "a2": 2.0, "holonomy": [math.pi / 2]},
           "out_dir": str(tmp_path / "out")}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    summary = _load_strict(tmp_path / "out" / "summary.json")["summary"]
    assert "predicted_limit" in summary and summary["predicted_limit"] is None


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_summary_is_strict_json(tmp_path, experiment):
    cfg = dict(STD_CONFIG, experiment=experiment,
               out_dir=str(tmp_path / "out"))
    main(["run", str(write_config(tmp_path, cfg))])
    doc = _load_strict(tmp_path / "out" / "summary.json")
    assert doc["experiment"] == experiment


@pytest.mark.parametrize("fiber", [STD_CONFIG["fiber"],
                                   {"type": "circle", "circumference": 100.0}],
                         ids=["finite", "circle-100"])
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_pass_is_the_and_of_the_named_gates(tmp_path, capsys, experiment,
                                            fiber):
    out = tmp_path / "out"
    cfg = dict(STD_CONFIG, experiment=experiment, fiber=fiber,
               out_dir=str(out))
    code = main(["run", str(write_config(tmp_path, cfg))])
    err = capsys.readouterr().err
    assert "see summary.json" not in err
    doc = json.loads((out / "summary.json").read_text())
    gates = {key: value for key, value in doc["summary"].items()
             if isinstance(value, bool) and key != "pass"}
    assert gates
    assert doc["summary"]["pass"] is doc["passed"] is all(gates.values())
    assert doc["passed"] == (code == 0)
    if code:
        line = err.strip().splitlines()[-1]
        assert line.startswith(f"zetaglue: {experiment}: FAILED (")
        named = line[line.index("(") + 1:-1].split(", ")
        assert sorted(named) == sorted(k for k, v in gates.items() if not v)


def test_svalues_window_past_threshold_fails_a_named_gate(tmp_path, capsys):
    # the windows at R = 10, 20, 40 reach past mu_min = 2 pi / 100: the job
    # ended with "numeric failure" and wrote nothing
    out = tmp_path / "out"
    cfg = dict(STD_CONFIG, experiment="svalues", out_dir=str(out),
               fiber={"type": "circle", "circumference": 100.0})
    assert main(["run", str(write_config(tmp_path, cfg))]) == 3
    err = capsys.readouterr().err
    assert "svalues: FAILED (window_ok, rates_ok)" in err
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["failed_rows"] == [
        [R, "window reaches past the first transverse threshold"]
        for R in (10.0, 20.0, 40.0)]
    rows = (out / "svalues.csv").read_text().splitlines()[4:]
    assert rows and {row.split(",")[0] for row in rows} == {"80"}


def test_svalues_huge_stretch_ends_as_a_failed_row(tmp_path, capsys):
    # the window at R = 1e300 holds about 1e75 roots; they were enumerated
    # one at a time
    out = tmp_path / "out"
    cfg = dict(STD_CONFIG, experiment="svalues", out_dir=str(out),
               r_grid=[10, 1e300])
    start = time.perf_counter()
    assert main(["run", str(write_config(tmp_path, cfg))]) == 3
    assert time.perf_counter() - start < 5.0
    assert "svalues: FAILED (window_ok" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())["summary"]
    [[R, error]] = summary["failed_rows"]
    assert R == 1e300 and "roots, more than" in error


def test_stretch_overflow_has_a_message(tmp_path, capsys):
    # C = a1 + a2 + 4R overflows: the message was empty
    cfg = dict(STD_CONFIG, r_grid=[1e308], out_dir=str(tmp_path / "out"))
    assert main(["run", str(write_config(tmp_path, cfg))]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("zetaglue: numeric failure: ")
    assert "a1 + a2 + 4R overflows at R = 1e+308" in err


@pytest.mark.parametrize("experiment", ["trace-perp", "dn-asymptotics"])
def test_overflowing_stretch_is_a_failed_row(tmp_path, capsys, experiment):
    # C = a1 + a2 + 4R overflows at R = 1e308: the job ended with "numeric
    # failure" and wrote nothing
    out = tmp_path / "out"
    cfg = dict(STD_CONFIG, experiment=experiment, out_dir=str(out),
               r_grid=[3, 1e307, 1e308])
    assert main(["run", str(write_config(tmp_path, cfg))]) == 3
    assert f"{experiment}: FAILED (rows_ok" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["rows_ok"] is False
    assert summary["failed_rows"] == [
        [1e308, "circumference a1 + a2 + 4R overflows at R = 1e+308"]]
    rows = (out / f"{experiment}.csv").read_text().splitlines()[4:]
    assert {float(row.split(",")[0]) for row in rows} == {3.0, 1e307}


@pytest.mark.parametrize("experiment", ["trace-perp", "dn-asymptotics"])
def test_rows_ok_on_the_default_grid(tmp_path, experiment):
    out = tmp_path / "out"
    cfg = dict(STD_CONFIG, experiment=experiment, out_dir=str(out))
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["failed_rows"] == [] and summary["rows_ok"] is True


@pytest.mark.parametrize("experiment, modes, r_grid, line", [
    ("bfk", [[0.0, 1], [1.0, 1]], [2, 1e308], "bfk: FAILED (constant_ok)"),
    # L1 L2 overflows past R = 6.7e153, mu L1 past 9e306 for mu = 10
    ("bfk", [[0.0, 1], [10.0, 1]], [3, 1e200, 1e307, 1e308],
     "bfk: FAILED (constant_ok)"),
    ("trace-perp", [[0.0, 1], [10.0, 1]], [3, 1e307, 1e308],
     "trace-perp: FAILED (rows_ok, slope_ok, nonzero_ok)"),
], ids=["bfk-1e308", "bfk-past-1e153", "trace-perp-1e308"])
def test_overflowing_stretch_prints_no_numpy_warning(tmp_path, experiment,
                                                     modes, r_grid, line):
    # numpy printed a RuntimeWarning block, with file paths, per overflowing
    # product; a fresh interpreter shows each warning, which this one may not
    cfg = dict(STD_CONFIG, experiment=experiment, r_grid=r_grid,
               fiber={"type": "finite", "modes": modes})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "zetaglue.cli", "run",
         str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [f"zetaglue: {line}"]
