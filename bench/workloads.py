"""Seeded workloads: pools of library calls, and their output checks.

Each workload is a pool of calls into the library generated only from the
seed.  A run makes whole passes through its pool, in order.  The
parameters that drive cost and verdicts (fiber size, circumference, grid
length or stretch, zero-mode count, a1, a2, the first holonomy phase) are
shifted Halton coordinates, so that the pool covers their ranges evenly.
The coordinates that set a call's cost -- size, second size, a1 and a2 --
use the same shift for every seed, so two seeds give the same mix of
costs; the zero-mode count and the phase use seeded shifts.  Frequencies,
multiplicities and further phases come from a plain seeded generator.

Calls expose `prepare()` (untimed), `call()` (the timed library work)
and `check(value)`, which classifies the result without trusting the
library's own gates.  A failing call has exactly one cause, in
order of precedence: `numeric_failure` (it raised, or the CLI exited 3
reporting a numeric failure), `identity_miss` (a computed row breaks the
log-domain BFK identity, or a reported number is not finite),
`vacuous_pass` (the verdict passed with no evidence) and `failed_row`
(some sweep rows failed).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
from pathlib import Path

from zetaglue import adiabatic, cli, spectral_core
from zetaglue.glue import GlueGeometry
from zetaglue.spectral_core import FiberSpectrum

# Bound at import, before a tracer wraps the library, so that the checks
# do not show up in the per-layer numbers.
_fiber_zeta_data = spectral_core.fiber_zeta_data

TWO_PI = 2.0 * math.pi
LOG2 = math.log(2.0)
# Relative tolerance of the per-row gluing ratio; the CLI's bfk defaults.
BFK_REL_TOL = {"finite": 1e-9, "circle": 1e-6}
CAUSES = ("numeric_failure", "identity_miss", "vacuous_pass", "failed_row")
EXPERIMENTS = tuple(sorted(cli.EXPERIMENTS))


@dataclasses.dataclass
class Outcome:
    cause: str | None        # one of CAUSES, or None
    verdict: bool            # library verdict passed, with evidence
    digest: bytes            # sha256 of the canonical result fields
    malformed: str = ""      # why the output could not be checked at all
    write_bytes: int = 0
    detail: str = ""         # error message or failing gate, for the report


def _digest(obj) -> bytes:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).digest()


def _raised(value) -> Outcome | None:
    if isinstance(value, Exception):
        return Outcome("numeric_failure", False,
                       _digest([type(value).__name__, str(value)]),
                       detail=f"{type(value).__name__}: {value}")
    return None


def _fiber_label(fiber: FiberSpectrum) -> str:
    if fiber.kind == "circle":
        return f"circle C={fiber.circumference:.4g}"
    return f"finite modes={sum(1 for mu, _ in fiber.modes if mu > 0.0)}"


def _finite(*xs) -> bool:
    return all(math.isfinite(x) for x in xs)


def bfk_identity_holds(row_logs, fiber: FiberSpectrum) -> bool:
    """log_det_M - log_det_M1 - log_det_M2 - log_det_R = -(2 zeta(0) + h) log 2.

    The gluing ratio's relative deviation, expm1 of the log gap, must stay
    within the kind's tolerance; no exponential is taken of the logs
    themselves, so overflow cannot hide a miss.
    """
    log_m, log_1, log_2, log_r = row_logs
    if not _finite(log_m, log_1, log_2, log_r):
        return False
    zeta0 = _fiber_zeta_data(fiber).zeta_at_zero
    h_y = 2 * fiber.h0
    gap = (log_m - log_1 - log_2 - log_r) + (2.0 * zeta0 + h_y) * LOG2
    return abs(gap) < 1.0 and abs(math.expm1(gap)) <= BFK_REL_TOL[fiber.kind]


# ---------------------------------------------------------------------------
# Library calls
# ---------------------------------------------------------------------------

class SweepCall:
    """`adiabatic.sweep` on a stretch grid plus `verify_bfk_corollary`."""

    kind = "sweep"

    def __init__(self, geom: GlueGeometry, fiber: FiberSpectrum, grid):
        self.geom, self.fiber, self.grid = geom, fiber, tuple(grid)
        self.label = f"sweep {_fiber_label(fiber)} rows={len(self.grid)}"

    def prepare(self):
        pass

    def call(self):
        result = adiabatic.sweep(self.geom, self.fiber, self.grid)
        check = adiabatic.verify_bfk_corollary(
            result, rel_tol=BFK_REL_TOL[self.fiber.kind])
        return result, check

    def check(self, value) -> Outcome:
        raised = _raised(value)
        if raised:
            return raised
        result, check = value
        rows = [[r.R, r.log_det_M, r.log_det_M1, r.log_det_M2, r.log_det_R,
                 r.scaled_ratio, r.scaled_det_R, r.bfk_ratio, r.failed, r.error]
                for r in result.rows]
        digest = _digest([rows, check.predicted, check.max_rel_dev,
                          check.passed, list(check.per_row)])
        good = [r for r in result.rows if not r.failed]
        cause = None
        if not all(bfk_identity_holds((r.log_det_M, r.log_det_M1, r.log_det_M2,
                                       r.log_det_R), self.fiber) for r in good):
            cause = "identity_miss"
        elif check.passed and not check.per_row:
            cause = "vacuous_pass"
        elif len(good) < len(result.rows):
            cause = "failed_row"
        verdict = cause is None and check.passed and bool(check.per_row)
        errors = sorted({r.error for r in result.rows if r.failed})
        return Outcome(cause, verdict, digest, detail="; ".join(errors))


class LemmaCall:
    """`adiabatic.verify_lemma_cancellation` at its default grid."""

    kind = "lemma"

    def __init__(self, geom: GlueGeometry, fiber: FiberSpectrum):
        self.geom, self.fiber = geom, fiber
        self.label = f"lemma {_fiber_label(fiber)}"

    def prepare(self):
        pass

    def call(self):
        return adiabatic.verify_lemma_cancellation(self.geom, self.fiber)

    def check(self, value) -> Outcome:
        raised = _raised(value)
        if raised:
            return raised
        rep = value
        digest = _digest([rep.c1_hat, rep.c2_hat, rep.rows,
                          rep.max_violation_factor, rep.float_crosscheck_gap])
        sane = _finite(rep.c1_hat, rep.c2_hat, rep.max_violation_factor,
                       rep.float_crosscheck_gap)
        cause = None if sane else "identity_miss"
        verdict = cause is None and bool(rep.rows) and rep.ok()
        return Outcome(cause, verdict, digest)


class SplitCall:
    """`adiabatic.verify_smalltime_largetime_split` at one stretch.

    The verdict uses the CLI's split tolerances: the window sum must
    reproduce the closed-form log ratio, and at R = 64, the stretch the
    CLI checks, the sum must also sit on its large-R asymptote.
    """

    kind = "split"
    SUM_GAP = 1e-6
    ASYMPTOTE_GAP = 0.03
    ASYMPTOTE_R = 64.0

    def __init__(self, geom: GlueGeometry, fiber: FiberSpectrum):
        self.geom, self.fiber = geom, fiber
        self.label = f"split {_fiber_label(fiber)} R={geom.R:g}"

    def prepare(self):
        pass

    def call(self):
        return adiabatic.verify_smalltime_largetime_split(self.geom, self.fiber)

    def check(self, value) -> Outcome:
        raised = _raised(value)
        if raised:
            return raised
        fields = dataclasses.astuple(value)
        digest = _digest(list(fields))
        cause = None if _finite(*fields) else "identity_miss"
        verdict = cause is None and value.sum_vs_closed_gap <= self.SUM_GAP
        if value.R >= self.ASYMPTOTE_R:
            verdict = verdict and value.asymptote_gap <= self.ASYMPTOTE_GAP
        return Outcome(cause, verdict, digest)


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------

class CliCall:
    """One in-process `zetaglue run <config> --out <dir>` job."""

    kind = "cli"

    def __init__(self, config: dict, fiber: FiberSpectrum, config_path: Path,
                 out_dir: Path, label: str = ""):
        self.experiment = config["experiment"]
        self.fiber = fiber
        self.label = label or f"cli {self.experiment} {_fiber_label(fiber)}"
        self.config_text = json.dumps(config)
        self.config_path, self.out_dir = config_path, out_dir

    def prepare(self):
        self.config_path.write_text(self.config_text)
        # Empty the previous pass's outputs in place: the job then rewrites
        # existing files, and a file it fails to write reads back empty.
        if self.out_dir.is_dir():
            for path in self.out_dir.iterdir():
                path.write_bytes(b"")

    def call(self):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["run", str(self.config_path),
                             "--out", str(self.out_dir)])
        return code, err.getvalue()

    def check(self, value) -> Outcome:
        if isinstance(value, Exception):
            # main() turns library errors into exit codes; a raise is a CLI bug
            return Outcome("numeric_failure", False,
                           _digest([type(value).__name__, str(value)]),
                           malformed=f"cli raised {type(value).__name__}")
        code, stderr = value
        files = sorted(self.out_dir.iterdir()) if self.out_dir.exists() else []
        blobs = [(p.name, p.read_bytes()) for p in files]
        digest = _digest([code, [(n, b.decode()) for n, b in blobs]])
        written = sum(len(b) for _, b in blobs)
        if code == 3 and "numeric failure" in stderr:
            return Outcome("numeric_failure", False, digest, write_bytes=written,
                           detail=stderr.strip())
        if code not in (0, 3):
            return Outcome(None, False, digest, write_bytes=written,
                           malformed=f"exit code {code}: {stderr.strip()}")
        contents = dict(blobs)
        try:
            summary = json.loads(contents["summary.json"])
            table = contents[f"{self.experiment}.csv"].decode().splitlines()
        except (KeyError, ValueError) as exc:
            return Outcome(None, False, digest, write_bytes=written,
                           malformed=f"unreadable output: {exc!r}")
        if summary["passed"] != (code == 0):
            return Outcome(None, False, digest, write_bytes=written,
                           malformed="summary.json disagrees with exit code")
        data = list(csv.DictReader(l for l in table if not l.startswith("#")))
        cause = None
        if self.experiment == "bfk":
            logs = [tuple(float(row[k]) for k in
                          ("log_det_M", "log_det_M1", "log_det_M2", "log_det_R"))
                    for row in data]
            computed = [l for l in logs if not any(map(math.isnan, l))]
            if not all(bfk_identity_holds(l, self.fiber) for l in computed):
                cause = "identity_miss"
            elif summary["passed"] and not computed:
                cause = "vacuous_pass"
            elif len(computed) < len(logs):
                cause = "failed_row"
        if cause is None and summary["passed"] and not data:
            cause = "vacuous_pass"
        verdict = cause is None and summary["passed"] and bool(data)
        return Outcome(cause, verdict, digest, write_bytes=written,
                       detail=stderr.strip())


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _radical_inverse(index: int, base: int) -> float:
    inv, scale = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        inv += digit * scale
        scale /= base
    return inv


# Halton base of each stratified coordinate
SIZE, SECOND, ZEROS, A1, A2, PHASE = 2, 3, 5, 7, 11, 13


# the cost coordinates, shifted alike for every seed
COST_SHIFTS = {SIZE: 0.5 ** 0.5, SECOND: 3.0 ** 0.5 % 1.0,
               A1: 5.0 ** 0.5 % 1.0, A2: 7.0 ** 0.5 % 1.0}


class _Sampler:
    """Halton coordinates, each base shifted by its own offset: a fixed one
    for the cost coordinates, a seeded one for the others."""

    def __init__(self, rng: random.Random):
        self.shift = {b: rng.random() for b in (SIZE, SECOND, ZEROS, A1, A2, PHASE)}
        self.shift.update(COST_SHIFTS)

    def u(self, index: int, base: int) -> float:
        return (_radical_inverse(index + 1, base) + self.shift[base]) % 1.0


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _log_uniform_int(u: float, lo: int, hi: int) -> int:
    return min(hi, int(lo * ((hi + 1) / lo) ** u))


def _finite_fiber(rng: random.Random, n: int, zeros: int,
                  freqs: tuple[float, float], max_mult: int) -> FiberSpectrum:
    mus: set[float] = set()
    while len(mus) < n:
        mus.add(_log_uniform(rng.random(), *freqs))
    modes = [(0.0, zeros)] + [(mu, rng.randint(1, max_mult)) for mu in sorted(mus)]
    return FiberSpectrum.finite(modes)


def _geometry(q: _Sampler, index: int, rng: random.Random, h0: int,
              R: float) -> GlueGeometry:
    """a1, a2 in [0.5, 3]; holonomy phases in (0.1, 2 pi - 0.1)."""
    phases = [0.1 + (TWO_PI - 0.2) * q.u(index, PHASE)]
    phases += [rng.uniform(0.1, TWO_PI - 0.1) for _ in range(h0 - 1)]
    return GlueGeometry(0.5 + 2.5 * q.u(index, A1), 0.5 + 2.5 * q.u(index, A2),
                        R, holonomy=tuple(phases))


def _geometric_grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


FINITE_WIDE_POOL = 100


def finite_wide(seed: int, workdir: Path) -> list:
    """Sweeps of finite fibers with 1-1000 distinct nonzero frequencies.

    Grid length is about 2000 / modes, at least 5, on [2, 64]: long grids
    on small fibers expose per-row overhead, short grids on large fibers
    the per-mode cost of `logdet_closed`.
    """
    rng = random.Random(seed)
    q = _Sampler(rng)
    calls = []
    for i in range(FINITE_WIDE_POOL):
        n = _log_uniform_int(q.u(i, SIZE), 1, 1000)
        fiber = _finite_fiber(rng, n, 1 + int(3 * q.u(i, ZEROS)), (0.1, 10.0),
                              max_mult=3)
        grid = _geometric_grid(2.0, 64.0, max(5, round(2000 / n)))
        calls.append(SweepCall(_geometry(q, i, rng, fiber.h0, grid[0]),
                               fiber, grid))
    return calls


CIRCLE_HEAT_ROUNDS = 40
SPLIT_STRETCHES = (16.0, 32.0, 64.0)


def circle_heat(seed: int, workdir: Path) -> list:
    """Circle fibers; rounds of one lemma, one split and one sweep.

    Heat-suite circumferences are log-uniform on [1, 1e3]; sweep
    circumferences on [1, 1e4] with 5-20 stretches on [2, 64].
    """
    rng = random.Random(seed)
    q = _Sampler(rng)
    calls = []
    for j in range(CIRCLE_HEAT_ROUNDS):
        # the three sizes of a round sit apart in their range, so that no
        # stretch of the pool holds only large or only small calls
        u = q.u(j, SIZE)
        lemma = FiberSpectrum.circle(_log_uniform(u, 1.0, 1e3))
        split = FiberSpectrum.circle(_log_uniform(1.0 - u, 1.0, 1e3))
        R = SPLIT_STRETCHES[int(3 * q.u(j, SECOND))]
        swept = FiberSpectrum.circle(_log_uniform((u + 0.5) % 1.0, 1.0, 1e4))
        grid = _geometric_grid(2.0, 64.0, 5 + int(16 * q.u(j, SECOND)))
        calls += [
            LemmaCall(_geometry(q, j, rng, 1, 4.0), lemma),
            SplitCall(_geometry(q, j, rng, 1, R), split),
            SweepCall(_geometry(q, j, rng, 1, grid[0]), swept, grid),
        ]
    return calls


CLI_SUITE_ROUNDS = 36


def _fiber_config(fiber: FiberSpectrum) -> dict:
    if fiber.kind == "circle":
        return {"type": "circle", "circumference": fiber.circumference}
    return {"type": "finite", "modes": [[mu, k] for mu, k in fiber.modes]}


def _defect_points() -> dict[str, tuple[FiberSpectrum, GlueGeometry]]:
    """Fixed inputs that reproduce the known verdict and overflow defects.

    They sit in round 0 of every seed's pool, whatever their outcome.
    """
    default = GlueGeometry(1.0, 2.0, 1.0, holonomy=(math.pi / 2,))
    wide = FiberSpectrum.finite([(0.0, 1)]
                                + [(0.5 + 0.005 * k, 1) for k in range(601)])
    return {
        # 601 modes: every sweep row overflows and the verdict passes vacuously
        "bfk": (wide, default),
        # expm1 overflows below the 745 guard in trace_perp_inverse_diff
        "trace-perp": (FiberSpectrum.circle(1.0), default),
        # fitted-constant gate misses by a factor just above its slack of 2
        "heat-cancellation": (FiberSpectrum.circle(10.0), default),
    }


def cli_suite(seed: int, workdir: Path) -> list:
    """Rounds of nine CLI jobs, one per experiment, at default grids.

    Even rounds use finite fibers with 1-40 nonzero modes, odd rounds
    circle fibers of circumference 1-30; a1, a2 lie in [0.5, 3].
    """
    rng = random.Random(seed)
    q = _Sampler(rng)
    defects = _defect_points()
    jobs = []
    for j in range(CLI_SUITE_ROUNDS):
        for experiment in EXPERIMENTS:
            label = ""
            if j == 0 and experiment in defects:
                fiber, geom = defects[experiment]
                label = f"cli {experiment} {_fiber_label(fiber)} (defect point)"
            else:
                k = j // 2   # Halton index within this round's fiber kind
                if j % 2:
                    fiber = FiberSpectrum.circle(
                        _log_uniform(q.u(k, SIZE), 1.0, 30.0))
                else:
                    n = _log_uniform_int(q.u(k, SIZE), 1, 40)
                    fiber = _finite_fiber(rng, n, 1 + int(2 * q.u(k, ZEROS)),
                                          (0.5, 4.0), max_mult=2)
                geom = _geometry(q, k, rng, fiber.h0, 1.0)
            config = {
                "experiment": experiment,
                "fiber": _fiber_config(fiber),
                "geometry": {"a1": geom.a1, "a2": geom.a2,
                             "holonomy": list(geom.holonomy)},
            }
            slot = f"{j}-{experiment}"
            jobs.append(CliCall(config, fiber, workdir / f"{slot}.json",
                                workdir / slot, label))
    return jobs


def warmups(workload: str, workdir: Path) -> list:
    """One fixed, seed-independent call of each kind in the workload."""
    geom = GlueGeometry(1.0, 2.0, 2.0, holonomy=(math.pi / 2,))
    circle = FiberSpectrum.circle(10.0)
    if workload == "finite-wide":
        fiber = FiberSpectrum.finite([(0.0, 1)] + [(0.5 * k, 2) for k in range(1, 11)])
        return [SweepCall(geom, fiber, _geometric_grid(2.0, 64.0, 5))]
    if workload == "circle-heat":
        return [LemmaCall(geom.with_R(4.0), circle),
                SplitCall(geom.with_R(16.0), circle),
                SweepCall(geom, FiberSpectrum.circle(100.0),
                        _geometric_grid(2.0, 64.0, 5))]
    fiber = FiberSpectrum.finite([(0.0, 1), (1.0, 1)])
    return [CliCall({"experiment": e}, fiber, workdir / f"warm{i}.json",
                  workdir / f"warm{i}")
            for i, e in enumerate(EXPERIMENTS)]


GENERATORS = {
    "finite-wide": finite_wide,
    "circle-heat": circle_heat,
    "cli-suite": cli_suite,
}
