"""Per-layer tracing of ``maxbias`` from outside the library.

``Tracer.install`` wraps the public functions of each ``maxbias`` module, and
the public methods of ``GFunction``, at every binding site: a module that
imports a name directly (``efficiency.find_root``, ``dominance.objective_tail_inf``,
``cli.bias_curve``) holds its own reference, and each such reference is
replaced.  ``uninstall`` puts every original back.  A name the metrics need
that no longer exists raises ``TraceError``, so a later rename cannot read as
zero.

Each wrapped call is a span.  Spans are aggregated as they close, per job
class and span name, into a call count, inclusive time (outermost call of a
name only, so recursion through ``find_root`` is not counted twice) and self
time (duration minus the time of child spans).  A few spans also count work:
``find_root`` counts the evaluations of its ``f``, ``g_inverse`` splits its
time into the first call on an instance (which builds the lazy table) and
later calls, and ``write_rows`` counts the bytes it writes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path

MODULES = ("rho", "gfunction", "numerics", "curves", "dominance", "efficiency", "cli", "_io")

# cli has no __all__; these are its public functions.
_CLI_PUBLIC = ("main",)

# Spans the per-layer metrics read; each must exist or install() fails.
REQUIRED = (
    "gfunction.GFunction.__init__",
    "gfunction.GFunction.g_eval",
    "gfunction.GFunction.phi_eval",
    "gfunction.GFunction.g_inverse",
    "gfunction.GFunction.check_phi_unimodal",
    "gfunction.GFunction.peak",
    "gfunction.GFunction.check_g_convex",
    "numerics.find_root",
    "numerics.maximize_unimodal",
    "curves.critical_pair",
    "curves.scale_bounds",
    "curves.bias_curve",
    "dominance.dominance_report",
    "dominance.c_naught",
    "dominance.inadmissibility_threshold",
    "efficiency.tune",
    "efficiency.avar_table",
    "efficiency.m_avar",
    "cli.main",
    "_io.write_rows",
)

# Counters kept next to the spans, per job class.
FIND_ROOT_EVALS = "numerics.find_root.evals"
G_INVERSE_COLD = "gfunction.g_inverse.cold"
G_INVERSE_COLD_S = "gfunction.g_inverse.cold_s"
G_INVERSE_WARM_S = "gfunction.g_inverse.warm_s"
WRITE_ROWS_BYTES = "_io.write_rows.bytes"


class TraceError(RuntimeError):
    """The library no longer has a name the tracer must wrap."""


class _CountingStream:
    def __init__(self, stream):
        self._stream = stream
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        return self._stream.write(text)


class Tracer:
    """Wraps ``maxbias`` in place; aggregates spans while ``active`` is true."""

    def __init__(self) -> None:
        # job class -> span name -> [calls, inclusive_s, self_s]
        self.spans: dict[str, dict[str, list]] = defaultdict(dict)
        # job class -> counter name -> value
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.active = False
        self._cur_spans: dict[str, list] = self.spans[""]
        self._cur_counters = self.counters[""]
        self._stack: list[float] = []  # child time of each open span
        self._inverted = weakref.WeakSet()
        self._patches: list[tuple[object, str, object]] = []

    def set_job_class(self, cls: str) -> None:
        self._cur_spans = self.spans[cls]
        self._cur_counters = self.counters[cls]

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import maxbias

        modules = {name: importlib.import_module(f"maxbias.{name}") for name in MODULES}
        targets = {}  # span name -> (owner, attr, original)
        for short, mod in modules.items():
            names = getattr(mod, "__all__", _CLI_PUBLIC if short == "cli" else ())
            for attr in names:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[f"{short}.{attr}"] = (mod, attr, obj)
        gf_cls = modules["gfunction"].GFunction
        for attr, obj in vars(gf_cls).items():
            if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                targets[f"gfunction.GFunction.{attr}"] = (gf_cls, attr, obj)
        missing = [name for name in REQUIRED if name not in targets]
        if missing:
            raise TraceError(f"maxbias no longer defines {missing}; update bench/trace.py")

        # Every namespace that may hold a direct reference to a wrapped function.
        namespaces = [maxbias] + [
            m for n, m in sys.modules.items() if n.startswith("maxbias.") and m is not None
        ]
        for name, (owner, attr, original) in targets.items():
            wrapper = self._wrap(name, original)
            sites = [(owner, attr)] if owner is gf_cls else [
                (ns, key) for ns in namespaces for key, val in vars(ns).items() if val is original
            ]
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapper)
        originals = {id(orig) for _, _, orig in targets.values()}
        left = [f"{ns.__name__}.{key}" for ns in namespaces
                for key, val in vars(ns).items() if id(val) in originals]
        if left:
            self.uninstall()
            raise TraceError(f"unwrapped references remain at {left}")

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "numerics.find_root":
            return self._span(name, fn, self._count_evals)
        if name == "gfunction.GFunction.g_inverse":
            return self._span(name, fn, None, self._split_cold)
        if name == "_io.write_rows":
            return self._span(name, fn, self._count_bytes)
        return self._span(name, fn)

    def _count_evals(self, args: tuple, kwargs: dict):
        f = args[0]
        counters = self._cur_counters

        def counted(x):
            counters[FIND_ROOT_EVALS] += 1
            return f(x)

        return (counted,) + args[1:], kwargs, None

    def _count_bytes(self, args: tuple, kwargs: dict):
        out = args[0]
        if isinstance(out, (str, Path)):
            return args, kwargs, lambda: Path(out).stat().st_size
        stream = _CountingStream(out)
        return (stream,) + args[1:], kwargs, lambda: stream.bytes

    def _split_cold(self, instance, dt: float) -> None:
        if instance in self._inverted:
            self._cur_counters[G_INVERSE_WARM_S] += dt
        else:
            self._inverted.add(instance)
            self._cur_counters[G_INVERSE_COLD] += 1
            self._cur_counters[G_INVERSE_COLD_S] += dt

    def _span(self, name: str, fn, rewrite=None, on_exit=None):
        # Hot path: g_eval alone is entered ~10^5 times per traced run.
        stack, clock, tracer = self._stack, time.perf_counter, self
        level = [0]  # open calls of this name, so recursion is timed once

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            size = None
            if rewrite is not None:
                args, kwargs, size = rewrite(args, kwargs)
            stack.append(0.0)
            outermost = level[0] == 0
            level[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                level[0] -= 1
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = tracer._cur_spans.get(name)
                if rec is None:
                    rec = tracer._cur_spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                if outermost:
                    rec[1] += dt
                rec[2] += dt - child
                if size is not None:
                    tracer._cur_counters[WRITE_ROWS_BYTES] += size()
                if on_exit is not None:
                    on_exit(args[0], dt)

        return functools.update_wrapper(wrapper, fn)

    # -- aggregation --------------------------------------------------------

    def totals(self) -> tuple[dict[str, list], dict[str, float]]:
        """Spans and counters summed over job classes."""
        spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        counters: dict[str, float] = defaultdict(float)
        for per_class in self.spans.values():
            for name, rec in per_class.items():
                for i in range(3):
                    spans[name][i] += rec[i]
        for per_class in self.counters.values():
            for name, value in per_class.items():
                counters[name] += value
        return spans, counters
