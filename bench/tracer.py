"""Call tracing for the per-layer metrics, recorded from outside the library.

`Tracer.install` replaces every public function of the six zetaglue
layers with a timing wrapper, everywhere the function is bound: in its
defining module, in each layer module that imported it, and in the
package namespace.  Library code that calls `logdet_closed` through
`adiabatic`'s globals therefore goes through the same wrapper as a direct
`glue.logdet_closed` call.  `uninstall` restores the originals.

Coarse calls become spans (id, parent id, request number, name, start, end,
self time, size).  Hot leaves -- the per-mode closed forms and the heat
traces, called up to millions of times -- only update aggregated counters.
Every call, leaf or not, adds its duration to its caller's child time, so
self time is span time minus the time spent in wrapped callees.

A function is public when its module's `__all__` names it, or, for a
module without `__all__` (`cli`), when its name has no leading underscore.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

LAYERS = ("spectral_core", "base1d", "glue", "scattering", "adiabatic", "cli")

HEAT_TRACES = ("spectral_core.heat_trace_circle",
               "spectral_core.heat_trace_dirichlet")
CLOSED_FORMS = ("base1d.logdet_circle_mode", "base1d.logdet_dirichlet_mode",
                "base1d.dn_block")
HOT_LEAVES = frozenset(HEAT_TRACES + CLOSED_FORMS
                       + ("spectral_core.heat_trace_mode",))


def _fiber_arg(args, kwargs):
    return kwargs["fiber"] if "fiber" in kwargs else args[1]


def _logdet_modes(args, kwargs, result, counters):
    return len(result.rows)


def _lemma_circumference(args, kwargs, result, counters):
    fiber = _fiber_arg(args, kwargs)
    return fiber.circumference if fiber.kind == "circle" else None


def _sweep_rows(args, kwargs, result, counters):
    counters["sweep.rows"] += len(result.rows)
    counters["sweep.failed_rows"] += sum(1 for r in result.rows if r.failed)
    return len(result.rows)


# name -> hook(args, kwargs, result, counters) returning the span's size
SIZE_HOOKS = {
    "glue.logdet_closed": _logdet_modes,
    "adiabatic.verify_lemma_cancellation": _lemma_circumference,
    "adiabatic.sweep": _sweep_rows,
}


def _public_name(func) -> str | None:
    """'layer.function' for a public zetaglue layer function, else None."""
    module_name = func.__module__ or ""
    package, _, layer = module_name.rpartition(".")
    if package != "zetaglue" or layer not in LAYERS:
        return None
    module = sys.modules[module_name]
    exported = getattr(module, "__all__", None)
    name = func.__name__
    if exported is None:
        public = not name.startswith("_")
    else:
        public = name in exported
    return f"{layer}.{name}" if public else None


class Tracer:
    """Spans and per-function counters for one traced pass."""

    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds, raised]
        self.stats: dict[str, list] = {}
        # (span id, parent id, request, name, start, end, self seconds, size)
        self.spans: list[tuple] = []
        self.counters = {"sweep.rows": 0, "sweep.failed_rows": 0}
        self.request = -1
        self._stack: list[list] = []   # open calls: [child seconds, span id]
        self._next_id = 0
        self._patched: list[tuple] = []

    def install(self, package) -> None:
        modules = [package] + [importlib.import_module(f"{package.__name__}.{l}")
                               for l in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                name = _public_name(obj)
                if name is None:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name)
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, func, name: str):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        leaf = name in HOT_LEAVES
        hook = SIZE_HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def close(frame, parent_id, start, size, raised):
            end = clock()
            stack.pop()
            duration = end - start
            self_s = duration - frame[0]
            if stack:
                stack[-1][0] += duration
            stat[0] += 1
            stat[1] += duration
            stat[2] += self_s
            stat[3] += raised
            if not leaf:
                self.spans.append((frame[1], parent_id, self.request, name,
                                   start, end, self_s, size))

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent_id = stack[-1][1] if stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                close(frame, parent_id, start, None, True)
                raise
            size = hook(args, kwargs, result, self.counters) if hook else None
            close(frame, parent_id, start, size, False)
            return result

        return traced

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _stat(self, name: str, index: int):
        return self.stats.get(name, [0, 0.0, 0.0, 0])[index]

    def _layer_sum(self, layer: str, index: int, prefix: str = ""):
        return sum(s[index] for n, s in self.stats.items()
                   if n.startswith(f"{layer}.{prefix}"))

    def _sized(self, name: str) -> list[tuple[float, float]]:
        """(size, inclusive seconds) of every completed span of `name`."""
        return [(size, end - start) for _, _, _, n, start, end, _, size
                in self.spans if n == name and size]

    def layer_metrics(self, write_bytes: int, overhead_s: float) -> dict:
        """Every per-layer metric of the benchmark, by name."""
        logdet = self._sized("glue.logdet_closed")
        modes = sum(m for m, _ in logdet)
        logdet_s = sum(t for _, t in logdet)
        rows = self.counters["sweep.rows"]
        failed_rows = self.counters["sweep.failed_rows"]
        return {
            "glue.logdet_closed.calls": self._stat("glue.logdet_closed", 0),
            "glue.logdet_closed.self_s": self._stat("glue.logdet_closed", 2),
            "glue.logdet_closed.modes": modes,
            "glue.logdet_closed.us_per_mode":
                1e6 * logdet_s / modes if modes else 0.0,
            "glue.logdet_closed.size_exponent": size_exponent(logdet, 10),
            "base1d.closed_form.calls":
                sum(self._stat(n, 0) for n in CLOSED_FORMS),
            "base1d.self_s": self._layer_sum("base1d", 2),
            "adiabatic.sweep.rows": rows,
            "adiabatic.sweep.useful_row_ratio":
                (rows - failed_rows) / rows if rows else 0.0,
            "glue.failed": self._layer_sum("glue", 3),
            "adiabatic.failed": self._layer_sum("adiabatic", 3) + failed_rows,
            "spectral_core.heat_trace.calls":
                sum(self._stat(n, 0) for n in HEAT_TRACES),
            "spectral_core.heat_trace.self_s":
                self._layer_sum("spectral_core", 2, "heat_trace_"),
            "adiabatic.relative_heat_trace.calls":
                self._stat("adiabatic.relative_heat_trace", 0),
            "adiabatic.self_s": self._layer_sum("adiabatic", 2),
            "adiabatic.verify.self_s": self._layer_sum("adiabatic", 2, "verify_"),
            "adiabatic.verify_lemma_cancellation.size_exponent":
                size_exponent(self._sized("adiabatic.verify_lemma_cancellation")),
            "spectral_core.zeta_from_sequence.calls":
                self._stat("spectral_core.zeta_from_sequence", 0),
            "spectral_core.zeta_from_sequence.self_s":
                self._stat("spectral_core.zeta_from_sequence", 2),
            "scattering.c12_family.calls": self._stat("scattering.c12_family", 0),
            "scattering.c12_family.self_s": self._stat("scattering.c12_family", 2),
            "scattering.model_identities.self_s":
                self._stat("scattering.model_identities", 2),
            "scattering.self_s": self._layer_sum("scattering", 2),
            "cli.resolve_config.self_s": self._stat("cli.resolve_config", 2),
            "cli.run_experiment.self_s": self._stat("cli.run_experiment", 2),
            "cli.write.bytes": write_bytes,
            "cli.self_s": self._layer_sum("cli", 2),
            "spectral_core.self_s": self._layer_sum("spectral_core", 2),
            "glue.self_s": self._layer_sum("glue", 2),
            "trace.overhead_s": overhead_s,
        }


def size_exponent(points: list[tuple[float, float]], min_size: float = 0.0) -> float:
    """Least-squares slope of log(seconds) against log(size).

    Calls below `min_size` stay out of the fit, so the fixed per-call cost
    of tiny inputs does not flatten the slope.  0.0 when fewer than two
    distinct sizes remain.
    """
    pts = [(math.log(s), math.log(t)) for s, t in points
           if s >= min_size and s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
