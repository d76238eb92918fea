"""Span tracing of pairinglab from outside the package.

``install`` replaces every public function and public method of the layer
modules with a wrapper that records a span per call: call count, time
inclusive of nested calls to the same function, self time (the span minus
its child spans) and the longest single span.  A function imported by name
into another module is rebound there too, or its calls would escape the
trace.  Integrands handed to the quadrature drivers and the evaluators of
every field are wrapped as well, so that their time lands in the layer that
wrote them rather than in the quadrature routine that calls them.

Spans are kept per thread and merged by ``Tracer.export``.  Tracing changes
no argument and no return value, so traced reports equal untraced ones.
"""

import functools
import importlib
import inspect
import threading
import time

import numpy as np

LAYERS = ("scenarios", "fields", "bv", "measures", "quadrature", "pairing",
          "variational", "cli")
QUAD_DRIVERS = ("adaptive_simpson", "polar_quad", "circle_integral",
                "segment_integral", "polygon_quad")
FIELD_CALLABLES = ("eval", "div_x", "primitive", "div_primitive", "sigma")
INTEGRAND = "<integrand>"


class _Stat:
    __slots__ = ("calls", "total", "self", "max", "count")

    def __init__(self):
        self.calls = 0
        self.total = 0.0   # inclusive time, outermost call of this key only
        self.self = 0.0    # time not covered by child spans
        self.max = 0.0     # longest single span
        self.count = 0     # key-specific work counter (points, repeats, ...)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = {
                "stack": [], "active": {}, "stats": {}, "seen": {},
                "worker": threading.current_thread() is not
                threading.main_thread(),
                "roots": []}
            with self._lock:
                self._threads.append(st)
        return st

    def stat(self, key):
        stats = self._state()["stats"]
        if key not in stats:
            stats[key] = _Stat()
        return stats[key]

    def wrap(self, key, fn, before=None, after=None):
        """``fn`` recording spans under ``key`` = (layer, name).

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(result, args, kwargs)`` observes the result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            st = tracer._state()
            stack, active = st["stack"], st["active"]
            frame = [0.0]
            stack.append(frame)
            depth = active.get(key, 0)
            active[key] = depth + 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                elif st["worker"]:
                    st["roots"].append((t0, t0 + dt))
                active[key] = depth
                s = tracer.stat(key)
                s.calls += 1
                s.self += dt - frame[0]
                s.max = max(s.max, dt)
                if depth == 0:
                    s.total += dt
            if after is not None:
                after(result, args, kwargs)
            return result

        traced._perfbench_traced = True
        return traced

    def export(self):
        """Spans merged over threads, as plain JSON data.

        ``worker_busy_s`` is the union of the intervals covered by spans
        that start a worker thread's stack: the main thread waits on them
        inside its own span, and that wait is not the main thread's work.
        """
        merged = {}
        roots = []
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            roots += st["roots"]
            for key, s in st["stats"].items():
                m = merged.setdefault(key, _Stat())
                m.calls += s.calls
                m.total += s.total
                m.self += s.self
                m.max = max(m.max, s.max)
                m.count += s.count
        busy, end = 0.0, float("-inf")
        for lo, hi in sorted(roots):
            busy += max(0.0, hi - max(lo, end))
            end = max(end, hi)
        return {"worker_busy_s": busy,
                "stats": [[layer, name, s.calls, s.total, s.self, s.max,
                           s.count]
                          for (layer, name), s in sorted(merged.items())]}


def _points(x, planar):
    n = int(np.size(x))
    return n // 2 if planar else n


def _hooks(tracer, layer, name, fn):
    """Extra (before, after) hooks for the functions that feed counters."""
    if layer == "quadrature" and name in QUAD_DRIVERS:
        planar = name != "adaptive_simpson"

        def before(args, kwargs):
            if args:
                f = _integrand(tracer, args[0], planar)
                return (f,) + args[1:], kwargs
            key = "f" if "f" in kwargs else "g"
            kwargs = dict(kwargs)
            kwargs[key] = _integrand(tracer, kwargs[key], planar)
            return args, kwargs
        return before, None
    if (layer, name) == ("measures", "SingularLadder.evaluate"):
        def before(args, kwargs):
            tracer.stat(("measures", "ladder_points")).count += \
                int(np.size(args[1] if len(args) > 1 else kwargs["x"]))
            return args, kwargs
        return before, None
    if (layer, name) == ("pairing", "pairing_distributional"):
        sig = inspect.signature(fn)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (id(a["field"]), id(a["u"]), id(a["phi"]), a["tol"],
                   a["form_check"])
            seen = tracer._state()["seen"]
            if key in seen:
                tracer.stat(("pairing", "distributional_repeats")).count += 1
            # hold the objects so their ids stay unique within the scenario
            seen[key] = (a["field"], a["u"], a["phi"])
            return args, kwargs
        return before, None
    if (layer, name) == ("pairing", "cylindrical_average"):
        def after(result, args, kwargs):
            if not result.converged:
                tracer.stat(("pairing", "cyl_unconverged")).count += 1
        return None, after
    if (layer, name) == ("scenarios", "run_scenario"):
        def before(args, kwargs):
            tracer._state()["seen"] = {}
            return args, kwargs
        return before, None
    if layer == "fields" and "." not in name:
        def after(result, args, kwargs):
            _wrap_field(tracer, result)
        return None, after
    return None, None


def _integrand(tracer, f, planar):
    """Count the points an integrand receives; span it in its own layer."""
    if getattr(f, "_perfbench_integrand", False):
        return f
    module = getattr(f, "__module__", "") or ""
    layer = module.rpartition(".")[2] if module.startswith("pairinglab.") \
        else None

    def counted(x, *args, **kwargs):
        s = tracer.stat(("quadrature", "integrand_points"))
        s.calls += 1
        s.count += _points(x, planar)
        return f(x, *args, **kwargs)

    if layer in LAYERS and not getattr(f, "_perfbench_traced", False):
        counted = tracer.wrap((layer, INTEGRAND), counted)
    counted._perfbench_integrand = True
    return counted


def _wrap_field(tracer, field):
    """Give a freshly built FieldB traced evaluators, in place."""
    from pairinglab.fields import FieldB
    if not isinstance(field, FieldB):
        return
    for attr in FIELD_CALLABLES:
        fn = getattr(field, attr)
        if callable(fn) and not getattr(fn, "_perfbench_traced", False):
            # FieldB is frozen; set the attribute the way its __init__ does
            object.__setattr__(field, attr, tracer.wrap(
                ("fields", f"FieldB.{attr}"), fn))


def _public(name):
    return not name.startswith("_") or name == "__call__"


def install(tracer):
    """Wrap every layer module of the imported pairinglab package."""
    modules = {layer: importlib.import_module(f"pairinglab.{layer}")
               for layer in LAYERS}
    importers = [*modules.values(), importlib.import_module("pairinglab")]
    replaced = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ \
                    or not _public(name):
                continue
            if inspect.isfunction(obj):
                before, after = _hooks(tracer, layer, name, obj)
                replaced[obj] = tracer.wrap((layer, name), obj, before, after)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_methods(tracer, layer, obj)
    for mod in importers:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, name, replaced[obj])
    checks = modules["scenarios"].CHECKS
    for name, fn in list(checks.items()):
        checks[name] = tracer.wrap(("scenarios", f"check.{name}"), fn)


def _wrap_methods(tracer, layer, cls):
    for name, raw in list(vars(cls).items()):
        if not _public(name):
            continue
        key = (layer, f"{cls.__name__}.{name}")
        if isinstance(raw, (staticmethod, classmethod)):
            before, after = _hooks(tracer, layer, key[1], raw.__func__)
            setattr(cls, name, type(raw)(
                tracer.wrap(key, raw.__func__, before, after)))
        elif inspect.isfunction(raw):
            before, after = _hooks(tracer, layer, key[1], raw)
            setattr(cls, name, tracer.wrap(key, raw, before, after))
