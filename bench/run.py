"""zetaglue benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload finite-wide --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1     # each workload in its own process
    python3 bench/run.py --write-spec                # regenerate BENCHMARK.json

One process runs one workload as a closed loop with a single client: each
operation starts when the previous one has ended.  It imports the library
from `src/` of the checkout it sits in, and fails without printing a
result when that source is missing.

A workload is a pool of operations, each one library call: a sweep plus
its BFK check in finite-wide, a lemma, split or sweep in circle-heat, one
`zetaglue run` job in cli-suite.  `--trace 0` runs whole passes through
the pool until `--seconds` of operation time have passed, and prints the
end-to-end metrics.

On a shared machine the speed a process gets swings by up to 2x, in short
bursts and over whole minutes, as other tenants load the host.  Two
measures keep the timings steady.  An operation's time is its fastest
pass, which drops the bursts.  And before every call a fixed pure-Python
kernel is timed; a call's reference seconds (`ref_s`) are its seconds
scaled by CAL_REF_S over the kernel's time in the calls around it,
which removes most of the slow drift.  The raw seconds are printed beside
them.  The kernel is the benchmark's own code, so a change to the library
moves reference seconds as it moves seconds.

Failures and verdicts are counted on the first pass, so `attempted`,
`failed` and the verdicts are fixed by the seed, whatever the speed of the
run; every later pass must reproduce each call's first-pass output digest
exactly, or the run is not correct.

`--trace 1` runs the first half of the pool once with every public library
function wrapped (see tracer.py), then the same calls unwrapped, and
prints the per-layer metrics; the work is fixed by the seed, so the call
counts repeat exactly.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines above it are
the human-readable report.  The full record, with the machine and the
failure causes, goes to `.bench_results/`, and the spans of a traced run
to `.bench_results/<workload>.spans.jsonl`.  Scratch files live under
`.bench_work/` and are removed at exit.
"""

import os

# Pinned before numpy can load: one BLAS/OpenMP thread, and the library's
# serial sweep path.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ZETAGLUE_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

COMMAND = ["python3", "bench/run.py"]
RUN_SECONDS = 25
SETUP_SAMPLES = 5   # the run's own set-up plus this many minus one probes
CAL_ITERATIONS = 400  # loop length of the calibration kernel
CAL_REF_S = 1.5e-4    # its time on an idle 2-vCPU Xeon, the reference machine
CAL_WINDOW = 10       # calls on each side whose kernels set a call's speed
TRACED_SHARE = 2      # a traced run covers the first 1/TRACED_SHARE of the pool

WORKLOADS = {
    "finite-wide": "sweeps of finite fibers with 1-1000 modes; time goes to "
                   "glue.logdet_closed and the base1d closed forms, plus "
                   "per-row overhead on long grids; no heat trace, "
                   "scattering or cli code runs",
    "circle-heat": "circle fibers: lemma, split and sweep in rotation; time "
                   "goes to adiabatic image sums, quadrature over "
                   "relative_heat_trace and spectral_core heat traces",
    "cli-suite": "in-process zetaglue run jobs over all nine experiments on "
                 "small fibers; cli config and output handling per job, "
                 "scattering and zeta_from_sequence in the tail",
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s.p50", "ref_s", "lower", 0.25),
    ("op_s.p90", "ref_s", "lower", 0.25),
    ("ops_per_s", "1/ref_s", "higher", 0.25),
    ("verdict_pass_share", "share", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (what each group should move, [(name, unit, better), ...])
PER_LAYER_GROUPS = [
    ("op_s.p50, op_s.p90 and ops_per_s on finite-wide; no change on cli-suite", [
        ("glue.logdet_closed.calls", "count", "lower"),
        ("glue.logdet_closed.self_s", "s", "lower"),
        ("glue.logdet_closed.modes", "count", "lower"),
        ("glue.logdet_closed.us_per_mode", "us", "lower"),
        ("glue.logdet_closed.size_exponent", "slope", "lower"),
        ("base1d.closed_form.calls", "count", "lower"),
        ("base1d.self_s", "s", "lower"),
    ]),
    ("failed_share and verdict_pass_share on finite-wide and circle-heat", [
        ("adiabatic.sweep.rows", "count", "higher"),
        ("adiabatic.sweep.useful_row_ratio", "share", "higher"),
        ("glue.failed", "count", "lower"),
        ("adiabatic.failed", "count", "lower"),
    ]),
    ("op_s.p90 and ops_per_s on circle-heat", [
        ("spectral_core.heat_trace.calls", "count", "lower"),
        ("spectral_core.heat_trace.self_s", "s", "lower"),
        ("adiabatic.relative_heat_trace.calls", "count", "lower"),
        ("adiabatic.self_s", "s", "lower"),
        ("adiabatic.verify.self_s", "s", "lower"),
        ("adiabatic.verify_lemma_cancellation.size_exponent", "slope", "lower"),
    ]),
    ("op_s.p90 on cli-suite; absent on finite-wide", [
        ("spectral_core.zeta_from_sequence.calls", "count", "lower"),
        ("spectral_core.zeta_from_sequence.self_s", "s", "lower"),
        ("scattering.c12_family.calls", "count", "lower"),
        ("scattering.c12_family.self_s", "s", "lower"),
        ("scattering.model_identities.self_s", "s", "lower"),
        ("scattering.self_s", "s", "lower"),
    ]),
    ("op_s.p50 on cli-suite", [
        ("cli.resolve_config.self_s", "s", "lower"),
        ("cli.run_experiment.self_s", "s", "lower"),
        ("cli.write.bytes", "B", "lower"),
        ("cli.self_s", "s", "lower"),
    ]),
    ("every workload; trace.overhead_s is the traced minus the untraced pass", [
        ("spectral_core.self_s", "s", "lower"),
        ("glue.self_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]),
]
PER_LAYER = [m for _, group in PER_LAYER_GROUPS for m in group]


class SourceMissing(RuntimeError):
    pass


def spec() -> dict:
    return {
        "command": COMMAND,
        "paths": [BENCH_DIR.name],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Set-up and the pass loop
# ---------------------------------------------------------------------------

def import_library():
    """Import zetaglue from this checkout's src/, never from elsewhere."""
    if not (SRC / "zetaglue" / "__init__.py").is_file():
        raise SourceMissing(f"no zetaglue source under {SRC}")
    sys.path.insert(0, str(SRC))
    import zetaglue
    if SRC not in Path(zetaglue.__file__).resolve().parents:
        raise SourceMissing(f"zetaglue imported from {zetaglue.__file__}")
    return zetaglue


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate the pool, run one warm-up call of each kind.

    Returns (pool, seconds taken).
    """
    start = time.perf_counter()
    import_library()
    import workloads
    workdir.mkdir(parents=True, exist_ok=True)
    pool = workloads.GENERATORS[workload](seed, workdir)
    for call in workloads.warmups(workload, workdir):
        run_call(call)
    return pool, time.perf_counter() - start


def run_call(call):
    """(seconds, outcome) of one library call; only `call.call` is timed."""
    call.prepare()
    start = time.perf_counter()
    try:
        value = call.call()
    except Exception as exc:  # a raising call is a counted failure
        value = exc
    elapsed = time.perf_counter() - start
    return elapsed, call.check(value)


def calibration_kernel() -> float:
    """Seconds taken by fixed pure-Python work, the benchmark's own: how
    fast the shared machine runs this process at this moment."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, CAL_ITERATIONS):
        acc += math.log(i) * math.exp(-1e-3 * i) + math.sqrt(i)
    return time.perf_counter() - start


class Record(NamedTuple):
    pass_no: int
    index: int          # position in the pool
    call: object
    seconds: float
    outcome: object
    cal_s: float        # the calibration kernel, timed just before the call


def run_pool(pool, seconds: float, tracer=None) -> list[Record]:
    """Whole passes through the pool until `seconds` of call time have
    passed; one pass when `seconds` is 0."""
    records = []
    timed = 0.0
    passes = 0
    while passes == 0 or timed < seconds:
        for index, call in enumerate(pool):
            if tracer is not None:
                tracer.request = index
            cal_s = calibration_kernel()
            elapsed, outcome = run_call(call)
            records.append(Record(passes, index, call, elapsed, outcome, cal_s))
            timed += elapsed
        passes += 1
    return records


def setup_probe_samples(args, count: int) -> list[float]:
    """Set-up seconds measured in fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest percentile, at most 90, with at least ten samples beyond it."""
    return max(1, min(90, 100 * (n - 10) // n))


def summarize(records: list[Record], size: int) -> dict:
    """Each operation's fastest pass, in seconds and in reference seconds;
    failures, causes and verdicts of the first pass.  Later passes are
    compared with the first-pass digests.

    A call's reference seconds are its seconds times CAL_REF_S over the
    lower quartile of the calibration times of the calls around it: the
    machine's speed in its quieter moments, as the fastest pass is a call's
    time in its quietest.
    """
    import workloads
    best_s = [math.inf] * size
    best_ref = [math.inf] * size
    cals = [r.cal_s for r in records]
    causes = {c: 0 for c in workloads.CAUSES}
    kinds = {}
    failures = {}
    first_digest = [b""] * size
    unstable = set()
    for k, r in enumerate(records):
        around = sorted(cals[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1])
        local = around[len(around) // 4]
        best_s[r.index] = min(best_s[r.index], r.seconds)
        best_ref[r.index] = min(best_ref[r.index], r.seconds * CAL_REF_S / local)
        out = r.outcome
        if r.pass_no > 0:
            if out.digest != first_digest[r.index]:
                unstable.add(r.call.label)
            continue
        first_digest[r.index] = out.digest
        if out.cause:
            causes[out.cause] += 1
        if out.cause or "defect point" in r.call.label:
            failures[r.call.label] = (out.cause or ("verdict pass" if out.verdict
                                                    else "verdict fail"),
                                      out.detail)
        kind = kinds.setdefault(r.call.kind, {"calls": 0, "seconds": 0.0,
                                              "failed": 0, "verdict_pass": 0})
        kind["calls"] += 1
        kind["seconds"] += r.seconds
        kind["failed"] += out.cause is not None
        kind["verdict_pass"] += out.verdict
    pct = tail_percentile(size)
    first = [r.outcome for r in records if r.pass_no == 0]
    return {
        "passes": records[-1].pass_no + 1,
        "attempted": size,
        "failed": sum(causes.values()),
        "causes": causes,
        "verdict_pass": sum(out.verdict for out in first),
        "unstable": sorted(unstable),
        "malformed": sorted({r.outcome.malformed for r in records
                             if r.outcome.malformed}),
        "timed_s": sum(r.seconds for r in records),
        "cal_s.p50": statistics.median(cals),
        "tail_pct": pct,
        "seconds": _timings(best_s, pct),
        "ref_seconds": _timings(best_ref, pct),
        "best_s": best_s,
        "best_ref_s": best_ref,
        "kinds": kinds,
        "failures": failures,
        "write_bytes": sum(r.outcome.write_bytes for r in records),
    }


def _timings(best: list[float], pct: int) -> dict:
    return {"p50": statistics.median(best),
            "tail": statistics.quantiles(best, n=100, method="inclusive")[pct - 1],
            "sum": sum(best)}


def digest(records: list[Record]) -> str:
    """sha256 over the result fields of every call of the first pass."""
    h = hashlib.sha256()
    for r in records:
        if r.pass_no == 0:
            h.update(r.outcome.digest)
    return h.hexdigest()


def correct(summary: dict) -> bool:
    return (not summary["malformed"] and not summary["unstable"]
            and summary["causes"]["identity_miss"] == 0)


def environment() -> dict:
    """Machine, interpreter, library versions and source identity."""
    import numpy
    import scipy
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    source = hashlib.sha256()
    for path in sorted((SRC / "zetaglue").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "source_sha256": source.hexdigest(),
        "commit": commit,
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "ZETAGLUE_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failure_lines(summary: dict, limit: int = 8) -> list[str]:
    """failed_share with its base and causes, then the distinct failing
    inputs (and every defect point, whatever its outcome)."""
    n, failed = summary["attempted"], summary["failed"]
    causes = ", ".join(f"{c} {k}" for c, k in summary["causes"].items())
    lines = [f"failed_share        {failed / n:.4f}      "
             f"({failed}/{n} calls of the first pass: {causes})"]
    if summary["unstable"]:
        lines.append("  output changed between passes: "
                     + "; ".join(summary["unstable"][:limit]))
    items = sorted(summary["failures"].items(),
                   key=lambda kv: "defect point" not in kv[0])
    for label, (cause, detail) in items[:limit]:
        lines.append(f"  {label}: {cause}" + (f" ({detail[:100]})" if detail else ""))
    if len(items) > limit:
        lines.append(f"  ... {len(items) - limit} more distinct inputs "
                     "in the results file")
    return lines


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_end_to_end(args, pool, setup_s: float, report: dict) -> dict:
    records = run_pool(pool, float(args.seconds))
    s = summarize(records, len(pool))
    setups = [setup_s] + setup_probe_samples(args, SETUP_SAMPLES - 1)
    n, passes = s["attempted"], s["passes"]
    ref, sec = s["ref_seconds"], s["seconds"]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s.p50": ref["p50"],
        "op_s.p90": ref["tail"],
        "ops_per_s": n / ref["sum"],
        "verdict_pass_share": s["verdict_pass"] / n,
        "peak_rss_mb": peak_rss_mb(),
    }
    report.update(summary=s, setup_samples=setups, digest=digest(records))
    each = f"n={n} operations, each its fastest of {passes} passes"
    lines = [
        f"setup_s             {metrics['setup_s']:.4f} s    "
        f"(median of {len(setups)} set-ups)",
        f"op_s.p50            {metrics['op_s.p50']:.6f} ref_s  "
        f"({sec['p50']:.6f} s; {each})",
        f"op_s.p90            {metrics['op_s.p90']:.6f} ref_s  "
        f"({sec['tail']:.6f} s; p{s['tail_pct']}, {each})",
        f"ops_per_s           {metrics['ops_per_s']:.4f} 1/ref_s  "
        f"({n / sec['sum']:.4f} 1/s; {n} operations in {ref['sum']:.3f} ref_s "
        f"= {sec['sum']:.3f} s, the sum of their fastest passes)",
        f"machine speed       calibration kernel p50 {s['cal_s.p50'] * 1e6:.1f} us "
        f"against {CAL_REF_S * 1e6:.1f} us reference; {passes * n} calls "
        f"in {s['timed_s']:.2f} s in all",
        *failure_lines(s),
        f"verdict_pass_share  {metrics['verdict_pass_share']:.4f} share  "
        f"({s['verdict_pass']}/{n} calls of the first pass)",
        f"peak_rss_mb         {metrics['peak_rss_mb']:.2f} MB",
        f"digest              sha256:{report['digest']} (first pass)",
    ]
    for kind, k in s["kinds"].items():
        lines.append(f"  {kind:6s} calls={k['calls']} "
                     f"mean_s={k['seconds'] / k['calls']:.5f} "
                     f"failed={k['failed']} verdict_pass={k['verdict_pass']}")
    report["lines"] = lines
    return {"correct": correct(s), "attempted": n, "failed": s["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit, _, _ in END_TO_END}}


def run_traced(args, pool, report: dict) -> dict:
    import zetaglue
    from tracer import Tracer
    traced = pool[:len(pool) // TRACED_SHARE]
    tracer = Tracer()
    tracer.install(zetaglue)
    try:
        records = run_pool(traced, 0.0, tracer)
    finally:
        tracer.uninstall()
    plain = run_pool(traced, 0.0)
    s = summarize(records, len(traced))
    overhead = s["timed_s"] - sum(r.seconds for r in plain)
    layer = tracer.layer_metrics(s["write_bytes"], overhead)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}.spans.jsonl"
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    report.update(summary=s, digest=digest(records),
                  spans=str(spans_path.relative_to(ROOT)),
                  span_count=len(tracer.spans), function_stats=tracer.stats)
    lines = [f"traced pass: {s['attempted']} calls, "
             f"{s['timed_s']:.3f} s traced, "
             f"{s['timed_s'] - overhead:.3f} s untraced, "
             f"{len(tracer.spans)} spans",
             *failure_lines(s),
             f"digest              sha256:{report['digest']} "
             f"(first {len(traced)} calls of the pool)"]
    for moves, group in PER_LAYER_GROUPS:
        lines.append(f"# should move: {moves}")
        lines += [f"{name:50s} {layer[name]:.6g} {unit}" for name, unit, _ in group]
    report["lines"] = lines
    return {"correct": correct(s), "attempted": s["attempted"],
            "failed": s["failed"],
            "metrics": {name: {"value": layer[name], "unit": unit}
                        for name, unit, _ in PER_LAYER}}


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        pool, setup_s = setup(args.workload, args.seed, workdir)
        if args.probe_setup:
            print(repr(setup_s))
            return 0
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "pool": len(pool), "environment": environment()}
        if args.trace:
            result = run_traced(args, pool, report)
        else:
            result = run_end_to_end(args, pool, setup_s, report)
    except SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    env = report["environment"]
    print(f"zetaglue benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} pool={len(pool)}")
    print(f"machine             nproc={env['nproc']} cpu={env['cpu']!r} "
          f"caches={'; '.join(env['caches'])}")
    print(f"software            python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} source_sha256={env['source_sha256'][:16]} "
          f"commit={env['commit']}")
    for line in report["lines"]:
        print(line)
    report["result"] = result
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}{'.trace' if args.trace else ''}.json"
    (RESULTS / name).write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
