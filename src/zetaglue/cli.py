"""Configuration-driven experiment runner.

Batch-only: reads a JSON config, runs one named experiment, writes a CSV
table of per-stretch values, a JSON summary with pass/fail and fit
diagnostics, and optional two-column xy files for plotting.  Output is
bit-for-bit reproducible: fixed row order, floats at 17 significant
digits, and a provenance header (config hash, artifact version) on every
file.

Exit codes: 0 every gate passes, 2 config error, 3 failed gates (named on
stderr) or a numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adiabatic import (
    consistency_triangle_gap,
    sweep,
    verify_bfk_corollary,
    verify_lemma_cancellation,
    verify_smalltime_largetime_split,
    verify_theorem_dn,
    verify_theorem_main,
)
from .glue import GlueGeometry, condition_A_check, trace_perp_inverse_diff
from .scattering import (
    det_L_identity,
    dn_zero_mode_asymptotics,
    model_logdet,
    model_zeta_single_phase,
    model_identities_over,
    svalue_rate_ratios,
    svalue_report,
)
from .spectral_core import FiberSpectrum


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _number(v, path: str, message: str, valid=lambda x: True) -> float:
    """v as a float if it is a finite number that passes valid, else a
    ConfigError naming path.  json.loads accepts NaN and Infinity, and NaN
    slips past a test like `v <= 0`; an integer past the float range
    overflows float(); true and false are ints to Python.  All of them stop
    here, before any computation."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and valid(x):
            return x
    raise ConfigError(path, message)


def _positive(x: float) -> bool:
    return x > 0


def _require_keys(obj: dict, allowed: set[str], path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")


def _parse_fiber(obj, path="fiber") -> FiberSpectrum:
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    kind = obj.get("type")
    if kind == "finite":
        _require_keys(obj, {"type", "modes"}, path)
        modes = obj.get("modes")
        if not isinstance(modes, list) or not modes:
            raise ConfigError(f"{path}.modes", "must be a nonempty list")
        pairs = []
        for i, entry in enumerate(modes):
            if (not isinstance(entry, list) or len(entry) != 2):
                raise ConfigError(f"{path}.modes[{i}]", "must be [mu, mult]")
            mu, mult = entry
            mu = _number(mu, f"{path}.modes[{i}][0]",
                         "mu must be a finite nonnegative number",
                         lambda x: x >= 0)
            if type(mult) is not int or mult < 1:   # bool is an int
                raise ConfigError(f"{path}.modes[{i}][1]",
                                  "mult must be a positive integer")
            pairs.append((mu, mult))
        try:
            return FiberSpectrum.finite(pairs)
        except ValueError as exc:
            raise ConfigError(f"{path}.modes", str(exc)) from exc
    if kind == "circle":
        _require_keys(obj, {"type", "circumference"}, path)
        circ = _number(obj.get("circumference"), f"{path}.circumference",
                       "must be a finite positive number", _positive)
        return FiberSpectrum.circle(circ)
    raise ConfigError(f"{path}.type", "must be 'finite' or 'circle'")


def _parse_geometry(obj, fiber: FiberSpectrum, path="geometry") -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    _require_keys(obj, {"a1", "a2", "holonomy"}, path)
    a1, a2 = (_number(obj.get(key), f"{path}.{key}",
                      "must be a finite positive number", _positive)
              for key in ("a1", "a2"))
    hol = obj.get("holonomy", [])
    if not isinstance(hol, list):
        raise ConfigError(f"{path}.holonomy", "must be a list of phases")
    hol = tuple(_number(t, f"{path}.holonomy[{i}]",
                        "phase must lie in [0, 2pi)",
                        lambda x: 0.0 <= x < 2 * math.pi)
                for i, t in enumerate(hol))
    if len(hol) != fiber.h0:
        raise ConfigError(f"{path}.holonomy",
                          f"needs one phase per zero mode ({fiber.h0})")
    return {"a1": a1, "a2": a2, "holonomy": list(hol)}


_TOP_KEYS = {"experiment", "fiber", "geometry", "r_grid", "t_grid", "thetas",
             "kappa", "epsilon", "tolerances", "out_dir", "xy_files"}


def _positive_grid(obj, path: str) -> list[float]:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(path, "must be a nonempty list")
    vals = [_number(v, f"{path}[{i}]", "must be a finite positive number",
                    _positive)
            for i, v in enumerate(obj)]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(path, "must be strictly increasing")
    return vals


def resolve_config(raw: dict) -> dict:
    """Validate, apply defaults, and return the fully resolved config."""
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "$")
    name = raw.get("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError("$.experiment",
                          f"must be one of {sorted(EXPERIMENTS)}")
    fiber = _parse_fiber(raw.get("fiber", {"type": "finite",
                                           "modes": [[0.0, 1], [1.0, 1]]}))
    geometry = _parse_geometry(raw.get("geometry", {
        "a1": 1.0, "a2": 2.0, "holonomy": [math.pi / 2] * fiber.h0}), fiber)

    reg = EXPERIMENTS[name]
    resolved = {
        "experiment": name,
        "fiber": (
            {"type": "finite",
             "modes": [[m, k] for m, k in fiber.modes]}
            if fiber.kind == "finite"
            else {"type": "circle", "circumference": fiber.circumference}
        ),
        "geometry": geometry,
        "r_grid": _positive_grid(raw.get("r_grid", list(reg["r_grid"])),
                                 "$.r_grid"),
        "kappa": _number(raw.get("kappa", 0.75), "$.kappa",
                         "must be a finite number"),
        "epsilon": _number(raw.get("epsilon", 0.25), "$.epsilon",
                           "must be a finite number"),
        "out_dir": raw.get("out_dir", "out"),
        "xy_files": raw.get("xy_files", True),
    }
    for key, kind, what in (("out_dir", str, "a string"),
                            ("xy_files", bool, "true or false")):
        if not isinstance(resolved[key], kind):
            raise ConfigError(f"$.{key}", f"must be {what}")
    for key in ("t_grid", "thetas"):   # set in the config or by the row
        if key in raw or key in reg:
            resolved[key] = _positive_grid(raw.get(key, list(reg.get(key, ()))),
                                           f"$.{key}")
    for i, t in enumerate(resolved.get("thetas", ())):
        if not (0.0 < t < 2 * math.pi):
            raise ConfigError(f"$.thetas[{i}]", "must lie in (0, 2pi)")
    tol = dict(reg["tolerances"])
    if fiber.kind == "circle":
        tol.update(reg.get("tolerances_circle", {}))
    raw_tol = raw.get("tolerances", {})
    if not isinstance(raw_tol, dict):
        raise ConfigError("$.tolerances", "must be an object")
    for key, v in raw_tol.items():
        if key not in tol:
            raise ConfigError(f"$.tolerances.{key}", "unknown tolerance")
        tol[key] = _number(v, f"$.tolerances.{key}",
                           "must be a finite positive number", _positive)
    resolved["tolerances"] = tol
    if reg.get("needs_nonzero_mode") and not math.isfinite(fiber.min_nonzero):
        raise ConfigError("$.fiber", f"{name} needs a nonzero mode")
    return resolved


# ---------------------------------------------------------------------------
# Experiment runners: each takes the config, the geometry at the first
# stretch and the fiber, and returns (columns, rows, summary, gates, xy),
# gates mapping a gate name to its verdict; run_experiment alone combines them
# ---------------------------------------------------------------------------

def _run_bfk(cfg, geom, fiber):
    result = sweep(geom, fiber, cfg["r_grid"])
    check = verify_bfk_corollary(result, rel_tol=cfg["tolerances"]["rel_dev"])
    cols = ["R", "log_det_M", "log_det_M1", "log_det_M2", "log_det_R",
            "bfk_ratio", "rel_dev"]
    rows = [[r.R, r.log_det_M, r.log_det_M1, r.log_det_M2, r.log_det_R,
             r.bfk_ratio, dev]
            for r, dev in zip(result.rows, check.rel_devs)]
    computed = [row for row, r in zip(rows, result.rows) if not r.failed]
    summary = {
        "predicted_constant": check.predicted,
        "log_predicted_constant": check.log_predicted,
        "max_rel_dev": check.max_rel_dev,
        "worst_R": (max(computed, key=lambda row: row[-1])[0]
                    if computed else None),
        "failed_rows": [[R, error] for R, error in check.failed_rows],
    }
    xy = {"bfk_vs_R": [(r.R, r.bfk_ratio) for r in result.rows]}
    return cols, rows, summary, {"constant_ok": check.passed}, xy


def _run_theorem(cfg, geom, fiber, verify, col):
    result = sweep(geom, fiber, cfg["r_grid"])
    check = verify(result, tol=cfg["tolerances"]["limit_gap"])
    rows = [[r.R, getattr(r, col), *per_row] for r, *per_row in zip(
        result.rows, check.deviations, check.tail_bounds,
        check.rounding_floors)]
    summary = {
        "predicted_limit": check.predicted,
        "log_predicted_limit": check.log_predicted,
        "cause": check.cause,
        "failed_rows": [[R, error] for R, error in check.failed_rows],
    }
    xy = {f"{col}_vs_R": list(zip(result.Rs, result.column(col)))}
    cols = ["R", col, "log_deviation", "tail_bound", "rounding_floor"]
    return cols, rows, summary, {"limit_ok": check.passed}, xy


def _run_theorem_dn(cfg, geom, fiber):
    cols, rows, summary, gates, xy = _run_theorem(
        cfg, geom, fiber, verify_theorem_dn, "scaled_det_R")
    gap = consistency_triangle_gap(geom, fiber)
    summary["consistency_triangle_gap"] = gap
    gates["triangle_ok"] = gap <= cfg["tolerances"]["triangle_gap"]
    return cols, rows, summary, gates, xy


def _per_stretch(cfg, geom, fiber, evaluate):
    """({R: evaluate(geom at R, fiber)} over the grid, [[R, error]]): a
    stretch that raises a ValueError is a failed row, and the grid goes on."""
    values, failed = {}, []
    for R in cfg["r_grid"]:
        try:
            values[R] = evaluate(geom.with_R(R), fiber)
        except ValueError as exc:
            failed.append([R, str(exc)])
    return values, failed


def _run_svalues(cfg, geom, fiber):
    kappa, grid = cfg["kappa"], cfg["r_grid"]
    # a zero holonomy phase fails every stretch alike: ends the job, as in sweep
    condition_A_check(geom, fiber).raise_if_failed()
    reports, failed = _per_stretch(cfg, geom, fiber, lambda g, f: {
        w: svalue_report(w, g, f, kappa) for w in ("M", "M1", "M2")})
    rows, quant_worst = [], {}
    for R, reps in reports.items():
        for which, rep in reps.items():
            rows.extend([R, which, *pair] for pair in rep.pairs)
        # piece quantization |2 R lambda - k pi| <= c R^{-kappa}
        quant_worst[R] = max(
            (abs(2 * R * lam - round(2 * R * lam / math.pi) * math.pi)
             for w in ("M1", "M2") for lam, *_ in reps[w].pairs),
            default=0.0)
    cols = ["R", "operator", "lambda", "scaled_value", "model_value",
            "residual"]
    ratios, done = [], list(reports)
    for which in ("M", "M1", "M2"):
        for r_small, r_large in zip(done, done[1:]):
            ratios.extend(svalue_rate_ratios(reports[r_small][which],
                                             reports[r_large][which]))
    lo, hi = cfg["tolerances"]["rate_low"], cfg["tolerances"]["rate_high"]
    r_ref = (done or grid)[-1]
    c_hat = quant_worst.get(r_ref, 0.0) * r_ref ** kappa
    gates = {
        "window_ok": not failed,
        "bijective": all(rep.bijective for reps in reports.values()
                         for rep in reps.values()),
        # no pair, no rate: an empty zero-mode space checks nothing
        "rates_ok": bool(ratios) and all(lo <= r <= hi for r in ratios),
        "quantization_ok": all(w <= 2.0 * c_hat * R ** (-kappa) + 1e-15
                               for R, w in quant_worst.items()),
    }
    summary = {"rate_ratios": ratios, "quantization_c_hat": c_hat,
               "failed_rows": failed}
    xy = {"worst_residual_vs_R":
          [(R, max(rep.worst_residual for rep in reps.values()))
           for R, reps in reports.items()]}
    return cols, rows, summary, gates, xy


def _run_dn_asymptotics(cfg, geom, fiber):
    # a zero holonomy phase fails every stretch alike: ends the job, as in sweep
    condition_A_check(geom, fiber).raise_if_failed()
    reports, failed = _per_stretch(cfg, geom, fiber, dn_zero_mode_asymptotics)
    rows, worst_match, worst_plus = [], 0.0, 0.0
    for R, rep in reports.items():
        for e in rep.entries:
            err = abs(e.value_minus - e.model_matched)
            rows.append([R, e.piece, e.mode, e.value_minus, e.model_matched,
                         err, e.value_plus, e.alpha_derived, e.matched_sign])
            worst_match = max(worst_match, err / max(1.0, abs(e.value_minus)))
            worst_plus = max(worst_plus, abs(e.value_plus))
    cols = ["R", "piece", "mode", "pairing_minus", "model_matched",
            "match_error", "pairing_plus", "alpha", "matched_sign"]
    # no zero mode, no entry: nothing was checked, and the worst is undefined
    summary = {"worst_match_error": worst_match if rows else None,
               "worst_plus_pairing": worst_plus if rows else None,
               "failed_rows": failed}
    tol = cfg["tolerances"]
    gates = {"rows_ok": not failed,
             "match_ok": bool(rows) and worst_match <= tol["match_err"],
             "plus_ok": bool(rows) and worst_plus <= tol["plus_bound"]}
    return cols, rows, summary, gates, {}


def _run_heat_cancellation(cfg, geom, fiber):
    rep = verify_lemma_cancellation(geom, fiber, Rs=cfg["r_grid"],
                                    ts=cfg["t_grid"])
    cols = ["R", "t", "log_abs_deviation", "log_bound"]
    rows = [[R, t, lg, math.log(rep.c1_hat) - rep.c2_hat * R * R / t]
            for R, t, lg in rep.rows]
    summary = {key: getattr(rep, key) for key in (
        "c1_hat", "c2_hat", "max_violation_factor", "float_crosscheck_gap")}
    gates = {"bound_ok": rep.ok(c2_min=cfg["tolerances"]["c2_min"],
                                slack=cfg["tolerances"]["bound_slack"])}
    xy = {"log_dev_vs_R2_over_t": [(R * R / t, lg) for R, t, lg in rep.rows]}
    return cols, rows, summary, gates, xy


def _run_trace_perp(cfg, geom, fiber):
    diffs, failed = _per_stretch(cfg, geom, fiber, trace_perp_inverse_diff)
    rows = [[R, diff] for R, diff in diffs.items()]
    # fitted to the rows whose difference did not underflow to 0.0
    logs = [(R, math.log(abs(diff))) for R, diff in rows if diff != 0.0]
    slope = (float(np.polyfit(*zip(*logs), 1)[0]) if len(logs) >= 2
             else math.nan)
    expected = -4.0 * fiber.min_nonzero
    rel = abs(slope - expected) / abs(expected)
    summary = {"fitted_slope": slope, "expected_slope": expected,
               "slope_rel_gap": rel, "failed_rows": failed}
    gates = {"rows_ok": not failed,
             "slope_ok": rel <= cfg["tolerances"]["slope_rel"],
             "nonzero_ok": len(logs) == len(rows)}
    return (["R", "trace_perp_diff"], rows, summary, gates,
            {"log_abs_diff_vs_R": logs})


def _run_model_identities(cfg, geom, fiber):
    rows = []
    worst_exact, worst_numeric, worst_detl = 0.0, 0.0, 0.0
    geoms = [GlueGeometry(geom.a1, geom.a2, geom.R,
                          holonomy=tuple([theta] * fiber.h0))
             for theta in cfg["thetas"]]
    for theta, geom_theta, mi in zip(cfg["thetas"], geoms,
                                     model_identities_over(geoms, fiber)):
        dl = det_L_identity(geom_theta)
        single = abs(model_zeta_single_phase(theta).log_det
                     - model_logdet([theta]))
        rows.append([theta, mi.log_det_quarter_c12, mi.gap_quarter,
                     mi.gap_cbar, mi.numeric_gap_quarter, mi.numeric_gap_cbar,
                     single, dl.det_L, dl.rhs, dl.gap])
        worst_exact = max(worst_exact, mi.gap_quarter, mi.gap_cbar)
        worst_numeric = max(worst_numeric, mi.numeric_gap_quarter,
                            mi.numeric_gap_cbar, single)
        worst_detl = max(worst_detl, dl.gap)
    cols = ["theta", "log_det_quarter_c12", "gap_quarter_exact",
            "gap_cbar_exact", "numeric_gap_quarter", "numeric_gap_cbar",
            "numeric_gap_single_phase", "det_L", "det_L_rhs", "det_L_gap"]
    summary = {"worst_exact_gap": worst_exact,
               "worst_numeric_gap": worst_numeric,
               "worst_det_L_gap": worst_detl}
    gates = {"exact_ok": worst_exact <= cfg["tolerances"]["exact_gap"],
             "numeric_ok": worst_numeric <= cfg["tolerances"]["numeric_gap"],
             "det_L_ok": worst_detl <= cfg["tolerances"]["det_L_gap"]}
    return cols, rows, summary, gates, {}


def _run_split(cfg, geom, fiber):
    rep = verify_smalltime_largetime_split(geom.with_R(cfg["r_grid"][-1]),
                                           fiber, epsilon=cfg["epsilon"])
    cols = ["window", "raw", "counterterm", "limit_value", "gap"]
    rows = [
        ["small", rep.small_raw, rep.small_counterterm,
         rep.small_limit_value, rep.small_gap],
        ["large", rep.large_raw, rep.large_counterterm,
         rep.large_limit_value, rep.large_gap],
    ]
    summary = {key: getattr(rep, key) for key in (
        "R", "epsilon", "T", "sum_quadrature", "log_ratio_closed",
        "sum_vs_closed_gap", "asymptote", "asymptote_gap", "small_gap",
        "large_gap", "small_quad_error", "large_quad_error")}
    tol = cfg["tolerances"]
    gates = {"sum_ok": rep.sum_vs_closed_gap <= tol["sum_gap"],
             "asymptote_ok": rep.asymptote_gap <= tol["asymptote_gap"]}
    return cols, rows, summary, gates, {}


EXPERIMENTS = {
    "bfk": {
        "primary_tol": "rel_dev",
        "description": "per-stretch gluing-constant identity",
        "claim": "det_M/(det_M1 det_M2 det_R) = 2^(-zeta(0)-h) at every R",
        "entry": verify_bfk_corollary,
        "runner": _run_bfk,
        "r_grid": (2.0, 4.0, 8.0, 16.0, 32.0),
        "tolerances": {"rel_dev": 1e-9},
        "tolerances_circle": {"rel_dev": 1e-6},
    },
    "theorem-main": {
        "primary_tol": "limit_gap",
        "description": "determinant-ratio limit under stretching",
        "claim": "R^h det_M/(det_M1 det_M2) -> 2^(-h) sqrt(det*) det((1-U)/2)",
        "entry": verify_theorem_main,
        "runner": lambda cfg, geom, fiber: _run_theorem(
            cfg, geom, fiber, verify_theorem_main, "scaled_ratio"),
        "r_grid": (4.0, 8.0, 16.0, 32.0, 64.0),
        "tolerances": {"limit_gap": 1e-4},
        "tolerances_circle": {"limit_gap": 1e-3},
    },
    "theorem-dn": {
        "primary_tol": "limit_gap",
        "description": "boundary-operator determinant limit",
        "claim": "R^h det_R -> 2^(zeta(0)) det*(sqrt) det((1-U)/2)",
        "entry": verify_theorem_dn,
        "runner": _run_theorem_dn,
        "r_grid": (4.0, 8.0, 16.0, 32.0, 64.0),
        "tolerances": {"limit_gap": 1e-4, "triangle_gap": 1e-9},
        "tolerances_circle": {"limit_gap": 1e-3},
    },
    "svalues": {
        "primary_tol": "rate_high",
        "description": "small-eigenvalue quantization and model matching",
        "claim": "(R lambda)^2 matches the model towers at rate 1/R, bijectively",
        "entry": svalue_report,
        "runner": _run_svalues,
        "r_grid": (10.0, 20.0, 40.0, 80.0),
        "tolerances": {"rate_low": 1.6, "rate_high": 2.4},
    },
    "dn-asymptotics": {
        "primary_tol": "match_err",
        "description": "zero-mode boundary pairings vs scattering prediction",
        "claim": "pairing on the -1 vector equals (1/R)(1-alpha/2R)^(-1)",
        "entry": dn_zero_mode_asymptotics,
        "runner": _run_dn_asymptotics,
        "r_grid": (5.0, 10.0, 20.0, 40.0),
        "tolerances": {"match_err": 1e-12, "plus_bound": 1e-14},
    },
    "heat-cancellation": {
        "primary_tol": "bound_slack",
        "description": "relative heat trace vs half cross-section trace",
        "claim": "|relative trace - half cross-section trace| <= c1 e^(-c2 R^2/t)",
        "entry": verify_lemma_cancellation,
        "runner": _run_heat_cancellation,
        "r_grid": (4.0, 6.0, 8.0),
        "t_grid": (0.25, 1.0, 4.0),
        "tolerances": {"c2_min": 0.5, "bound_slack": 2.0},
    },
    "trace-perp": {
        "primary_tol": "slope_rel",
        "description": "inverse boundary operator vs doubled square root",
        "claim": "off-kernel trace difference decays like e^(-4 mu_min R)",
        "entry": trace_perp_inverse_diff,
        "runner": _run_trace_perp,
        "r_grid": (3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
        "needs_nonzero_mode": True,
        "tolerances": {"slope_rel": 0.1},
    },
    "model-identities": {
        "primary_tol": "numeric_gap",
        "description": "model-operator determinant identities",
        "claim": "det = 4^d prod sin^2(a/2); quarter/reflected identities hold",
        "entry": model_identities_over,
        "runner": _run_model_identities,
        "r_grid": (10.0,),
        "thetas": (math.pi / 3, math.pi / 2, math.pi),
        "tolerances": {"exact_gap": 1e-12, "numeric_gap": 1e-8,
                       "det_L_gap": 1e-12},
    },
    "split": {
        "primary_tol": "asymptote_gap",
        "description": "small-time/large-time window decomposition",
        "claim": "window contributions sum to the relative zeta derivative",
        "entry": verify_smalltime_largetime_split,
        "runner": _run_split,
        "r_grid": (4.0, 8.0, 16.0, 32.0, 64.0),
        "tolerances": {"sum_gap": 1e-6, "asymptote_gap": 0.03},
    },
}


def list_experiments() -> str:
    lines = []
    for name in sorted(EXPERIMENTS):
        reg = EXPERIMENTS[name]
        lines.append(f"{name:18s} {reg['description']}")
        lines.append(f"{'':18s} checks: {reg['claim']}")
        entry = reg["entry"]
        lines.append(f"{'':18s} entry:  {entry.__module__}.{entry.__name__}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------

def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _strict_json(x):
    """x with every non-finite float replaced by None, so that it dumps as
    strict JSON; keys are kept."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict_json(v) for v in x]
    return x


def _write_lines(path: Path, cfg: dict, digest: str, lines):
    """Write lines under the provenance header; digest is the config hash."""
    header = [f"# zetaglue-artifact v{__version__}",
              f"# experiment: {cfg['experiment']}",
              f"# config-sha256: {digest}"]
    path.write_text("\n".join(header + list(lines)) + "\n")


def run_experiment(cfg: dict, out_dir: Path) -> int:
    name = cfg["experiment"]
    fiber = _parse_fiber(cfg["fiber"])
    geom = GlueGeometry(R=cfg["r_grid"][0], **cfg["geometry"])
    cols, rows, summary, gates, xy = EXPERIMENTS[name]["runner"](
        cfg, geom, fiber)
    failing = [gate for gate, ok in gates.items() if not ok]
    summary.update({gate: bool(ok) for gate, ok in gates.items()})
    summary["pass"] = not failing
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = _config_hash(cfg)
    _write_lines(out_dir / f"{name}.csv", cfg, digest, [",".join(cols)] + [
        ",".join(_fmt(x) for x in row) for row in rows])
    summary_doc = {
        "experiment": name,
        "passed": not failing,
        "summary": summary,
        "provenance": {
            "artifact_version": __version__,
            "config_sha256": digest,
            "resolved_config": cfg,
        },
    }
    (out_dir / "summary.json").write_text(
        json.dumps(_strict_json(summary_doc), sort_keys=True, indent=2,
                   allow_nan=False) + "\n")
    if cfg["xy_files"]:
        for series, points in xy.items():
            _write_lines(out_dir / f"{name}_{series}.xy", cfg, digest,
                         (f"{_fmt(float(x))} {_fmt(float(y))}"
                          for x, y in points))
    if failing:
        print(f"zetaglue: {name}: FAILED ({', '.join(failing)})",
              file=sys.stderr)
        return 3
    print(f"zetaglue: {name}: pass")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for later calls."""
    parser = argparse.ArgumentParser(
        prog="zetaglue",
        description="Determinant-gluing experiment runner (batch only).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--rmax", type=float, default=None,
                       help="drop grid entries above this stretch")
    p_run.add_argument("--tol", type=float, default=None,
                       help="override the experiment's primary tolerance")
    sub.add_parser("list", help="list available experiments")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "list":
        print(list_experiments())
        return 0

    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"zetaglue: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"zetaglue: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = resolve_config(raw)
        if args.rmax is not None:
            rmax = _number(args.rmax, "--rmax", "must be a finite number")
            kept = [R for R in cfg["r_grid"] if R <= rmax]
            if not kept:
                raise ConfigError("$.r_grid", "empty after --rmax filter")
            cfg["r_grid"] = kept
        if args.tol is not None:
            primary = EXPERIMENTS[cfg["experiment"]]["primary_tol"]
            cfg["tolerances"][primary] = _number(
                args.tol, "--tol", "must be a finite positive number", _positive)
    except ConfigError as exc:
        print(f"zetaglue: config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path(cfg["out_dir"])
    try:
        return run_experiment(cfg, out_dir)
    except Exception as exc:
        print(f"zetaglue: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
