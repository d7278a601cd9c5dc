"""Benchmark-owned span tracing around the repro layers.

The traced run wraps every function and method defined in each layer
module (see ``LAYERS``) with a recorder, so no file under ``src/``
changes. Each call that enters a layer becomes one span: layer,
function, parent span, thread, and start/end on two clocks (wall
``perf_counter_ns`` and the calling thread's CPU clock
``thread_time_ns``). Spans stay in flat arrays in memory and are written
once, after the run.

Wrappers are installed on the defining class or module *and* on every
loaded ``repro`` module that bound the function by name (``from x import
f`` keeps its own reference), so the traced objects must be built after
:func:`install` runs.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import sys
import threading
import time

#: Layer name -> modules whose functions belong to it.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.engine": ("repro.sim.engine", "repro.sim.events"),
    "streams.splitter": ("repro.streams.splitter",),
    "core.policies": ("repro.core.policies",),
    "net.connection": ("repro.net.connection", "repro.net.buffers"),
    "streams.pe": ("repro.streams.pe",),
    "streams.merger": ("repro.streams.merger",),
    "core.balancer": ("repro.core.balancer", "repro.core.blocking_rate"),
    "core.rate_function": ("repro.core.rate_function",),
    "core.monotone": ("repro.core.monotone",),
    "core.rap": ("repro.core.rap",),
    "core.clustering": ("repro.core.clustering",),
    "obs": (
        "repro.obs.registry",
        "repro.obs.spans",
        "repro.obs.audit",
        "repro.obs.hub",
        "repro.obs.export",
    ),
    "proc.region": ("repro.proc.region",),
    "net.framing": ("repro.net.framing",),
    "proc.supervisor": ("repro.proc.supervisor",),
}


class Tracer:
    """Flat, append-only span store shared by every wrapper.

    Spans are recorded at layer boundaries only: a wrapped function
    called while its own layer is already running on the thread runs
    unrecorded, its time staying in the enclosing span of that layer.
    So a span's self time (duration minus child spans) is time spent in
    that layer, and a layer's call count is the number of times another
    layer, or the benchmark, entered it.
    """

    COLUMNS = ("fn", "parent", "thread", "wall0", "wall1", "cpu0", "cpu1")

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # id -> (layer, qualname)
        self.layer_ids: dict[str, int] = {}
        self.fn = array.array("q")
        self.parent = array.array("q")
        self.thread = array.array("q")
        self.wall0 = array.array("q")
        self.wall1 = array.array("q")
        self.cpu0 = array.array("q")
        self.cpu1 = array.array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded span (wrappers keep recording into this)."""
        for column in self.COLUMNS:
            del getattr(self, column)[:]

    def wrap(self, layer: str, qualname: str, func):
        fid = len(self.names)
        self.names.append((layer, qualname))
        lid = self.layer_ids.setdefault(layer, len(self.layer_ids))
        local = self._local
        lock = self._lock
        fn_a, par_a, thr_a = self.fn, self.parent, self.thread
        w0_a, w1_a, c0_a, c1_a = self.wall0, self.wall1, self.cpu0, self.cpu1
        wall, cpu = time.perf_counter_ns, time.thread_time_ns
        ident = threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            try:
                outer_layer = local.layer
            except AttributeError:
                outer_layer = local.layer = -1
                local.span = -1
            if outer_layer == lid:
                return func(*args, **kwargs)
            outer_span = local.span
            with lock:
                idx = len(fn_a)
                fn_a.append(fid)
                par_a.append(outer_span)
                thr_a.append(ident())
                w0_a.append(0)
                w1_a.append(0)
                c0_a.append(0)
                c1_a.append(0)
            local.layer, local.span = lid, idx
            c0_a[idx] = cpu()
            w0_a[idx] = wall()
            try:
                return func(*args, **kwargs)
            finally:
                w1_a[idx] = wall()
                c1_a[idx] = cpu()
                local.layer, local.span = outer_layer, outer_span

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", qualname)
        traced.__qualname__ = getattr(func, "__qualname__", qualname)
        traced.__module__ = getattr(func, "__module__", None)
        return traced

    # -------------------------------------------------------------- analysis

    def summarize(self) -> dict:
        """Per-entry-point and per-layer calls, inclusive and self times.

        Spans still open when the summary runs (a thread that never
        returned) are skipped.
        """
        n = len(self.fn)
        fn, par = self.fn, self.parent
        w0, w1, c0, c1 = self.wall0, self.wall1, self.cpu0, self.cpu1
        child_wall = array.array("q", bytes(8 * n))
        child_cpu = array.array("q", bytes(8 * n))
        for i in range(n):
            p = par[i]
            if p >= 0 and w1[i]:
                child_wall[p] += w1[i] - w0[i]
                child_cpu[p] += c1[i] - c0[i]
        funcs: dict[int, list] = {}
        for i in range(n):
            if not w1[i]:
                continue
            rec = funcs.setdefault(fn[i], [0, 0, 0, 0, 0])
            rec[0] += 1
            rec[1] += w1[i] - w0[i]
            rec[2] += c1[i] - c0[i]
            rec[3] += (w1[i] - w0[i]) - child_wall[i]
            rec[4] += (c1[i] - c0[i]) - child_cpu[i]
        functions = {}
        layers: dict[str, dict] = {}
        for f, (calls, wall_ns, cpu_ns, self_wall, self_cpu) in funcs.items():
            layer, qual = self.names[f]
            functions[f"{layer}:{qual}"] = {
                "calls": calls,
                "incl_wall_s": wall_ns / 1e9,
                "incl_cpu_s": cpu_ns / 1e9,
                "self_wall_s": self_wall / 1e9,
                "self_cpu_s": self_cpu / 1e9,
            }
            agg = layers.setdefault(
                layer, {"calls": 0, "self_wall_s": 0.0, "self_cpu_s": 0.0}
            )
            agg["calls"] += calls
            agg["self_wall_s"] += self_wall / 1e9
            agg["self_cpu_s"] += self_cpu / 1e9
        return {"spans": n, "functions": functions, "layers": layers}

    def write(self, prefix: str) -> None:
        """Write the spans: ``prefix.json`` header, ``prefix.bin`` columns.

        The binary file holds the columns of ``COLUMNS`` one after the
        other, each ``count`` native int64 values; ``fn`` indexes
        ``names``, ``parent`` is a span index (-1 at a root), times are
        nanoseconds of ``perf_counter_ns`` (wall) and ``thread_time_ns``
        (CPU of the recording thread).
        """
        with open(prefix + ".json", "w") as f:
            json.dump({
                "count": len(self.fn),
                "columns": list(self.COLUMNS),
                "dtype": "int64",
                "byteorder": sys.byteorder,
                "names": [list(name) for name in self.names],
            }, f)
        with open(prefix + ".bin", "wb") as f:
            for column in self.COLUMNS:
                getattr(self, column).tofile(f)


def _targets(module):
    """Yield ``(owner, attr, qualname, func, kind)`` for a module's code."""
    for attr, value in list(vars(module).items()):
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield module, attr, attr, value, "function"
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for name, member in list(vars(value).items()):
                if name.startswith("__") and name != "__init__":
                    continue
                kind = "function"
                if isinstance(member, staticmethod):
                    kind, member = "static", member.__func__
                elif isinstance(member, classmethod):
                    kind, member = "class", member.__func__
                if not inspect.isfunction(member):
                    continue  # properties, slots, constants
                if inspect.isgeneratorfunction(member):
                    continue  # a span would time only generator creation
                yield value, name, f"{value.__name__}.{name}", member, kind


def install(tracer: Tracer) -> int:
    """Wrap every layer function; return how many were wrapped."""
    replaced: dict[int, object] = {}
    count = 0
    for layer, modules in LAYERS.items():
        for modname in modules:
            module = importlib.import_module(modname)
            for owner, attr, qual, func, kind in _targets(module):
                wrapped = tracer.wrap(layer, qual, func)
                if kind == "static":
                    setattr(owner, attr, staticmethod(wrapped))
                elif kind == "class":
                    setattr(owner, attr, classmethod(wrapped))
                else:
                    setattr(owner, attr, wrapped)
                if owner is module:
                    replaced[id(func)] = (func, wrapped)
                count += 1
    # Rebind module-level functions wherever another module imported them
    # by name.
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return count
