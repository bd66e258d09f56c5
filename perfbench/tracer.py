"""Binding-aware, thread-aware span tracer for the dimer_nm layers.

The tracer wraps every public function of each layer module from the
outside, at every module-level name that refers to it. A function
imported with ``from .dynamics import integrate`` is therefore traced
both as ``dynamics.integrate`` and where ``harness`` calls it. Spans are
named after the defining module, so both bindings feed one entry.

Spans are aggregated as they close rather than stored one by one: each
thread keeps calls, inclusive time and self time per span name, merged
when the report is taken. A span that opens on a pool thread with no
enclosing span of its own takes the innermost open span of the main
thread as its parent, which lies inside the top-level
``harness.run_experiment`` span of a pass. Such children overlap one
another, so a parent's self time subtracts the union of their intervals.
A top-level span also records its busy time: its own duration minus the
time covered by pool-thread descendants plus their summed durations,
i.e. thread-seconds of traced work, so busy / duration is the mean
number of busy threads.

Counters are computed from the traced call's arguments and result by
callbacks keyed by span name; they never time anything.
"""

import functools
import importlib
import inspect
import sys
import threading
import time

LAYERS = ("harness", "cli", "model", "dynamics", "kernels", "nonmarkov",
          "opalg", "entanglement")


_ZERO = {"calls": 0, "s": 0.0, "self_s": 0.0, "busy_s": 0.0}


class _Frame:
    __slots__ = ("name", "start", "child_s", "remote", "pool")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child_s = 0.0  # closed children on the same thread
        self.remote = []  # (start, end) of pool-thread children
        self.pool = []  # (start, end) of pool-thread descendants (top level only)


def union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, frontier = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, frontier), min(b, hi)
        if b > a:
            total += b - a
            frontier = b
    return total


class Tracer:
    def __init__(self, counters=None):
        self.counters = dict(counters or {})
        self.names = []  # span names of every wrapped function
        self.bindings = {}  # span name -> ["module.attr", ...]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # per-thread (stack, stats, counts)
        self._main = threading.main_thread().ident
        self._main_stack = None
        self._top_s = 0.0

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], {}, {})
            with self._lock:
                self._threads.append(st)
            if threading.get_ident() == self._main:
                self._main_stack = st[0]
        return st

    def wrap(self, name, fn):
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, stats, counts = self._state()
            frame = _Frame(name, time.perf_counter())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(frame, end, stack, stats)
            if counter is not None:
                counter(args, kwargs, result, counts)
            return result

        return traced

    def _close(self, frame, end, stack, stats):
        dur = end - frame.start
        covered = frame.child_s + union_length(frame.remote, frame.start, end)
        busy = dur
        if frame.pool:
            busy += sum(b - a for a, b in frame.pool)
            busy -= union_length(frame.pool, frame.start, end)
        entry = stats.get(frame.name)
        if entry is None:
            entry = stats[frame.name] = [0, 0.0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - covered
        entry[3] += busy
        if stack:
            stack[-1].child_s += dur
        elif stack is self._main_stack:
            self._top_s += dur
        else:
            # pool thread: the main thread is blocked inside its open spans
            with self._lock:
                main = self._main_stack
                if main:
                    main[-1].remote.append((frame.start, end))
                    main[0].pool.append((frame.start, end))

    def install(self, package="dimer_nm", layers=LAYERS):
        """Wrap the public functions of each layer at all their bindings."""
        span_of = {}
        for layer in layers:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    span_of[obj] = f"{layer}.{attr}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in span_of.items()}
        self.names = sorted(span_of.values())
        self.bindings = {name: [] for name in self.names}
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self.bindings[span_of[obj]].append(f"{modname}.{attr}")

    def report(self):
        """Merged per-span stats and counters of every thread so far."""
        stats, counts = {}, {}
        with self._lock:
            threads = list(self._threads)
        for _, t_stats, t_counts in threads:
            for name, (calls, s, self_s, busy_s) in t_stats.items():
                acc = stats.setdefault(name, dict(_ZERO))
                acc["calls"] += calls
                acc["s"] += s
                acc["self_s"] += self_s
                acc["busy_s"] += busy_s
            for key, val in t_counts.items():
                if key.endswith("_max"):
                    counts[key] = max(counts.get(key, val), val)
                else:
                    counts[key] = counts.get(key, 0) + val
        for name in self.names:
            stats.setdefault(name, dict(_ZERO))
        return {"stats": stats, "counts": counts, "top_s": self._top_s,
                "bindings": self.bindings}


def _add(counts, key, val):
    counts[key] = counts.get(key, 0) + val


def _kernel_steps(args, kwargs, result, counts):
    # rk4_lindblad_steps(rho, h_eff, jump_ops, rates, dt, n_steps)
    d = result.shape[0]
    n_jumps = len(args[2])
    steps = int(args[5])
    _add(counts, "kernels.steps", steps)
    # computed, matmul only: 4 stages x (2 + 2 per jump) complex d^3
    # products at 8 real flops per complex multiply-add
    _add(counts, "kernels.flop", steps * 4 * (2 + 2 * n_jumps) * 8 * d ** 3)


def _superop_dim(args, kwargs, result, counts):
    dim = result.shape[0]
    counts["dynamics.superop_dim_max"] = max(counts.get("dynamics.superop_dim_max", 0), dim)


def _nm_points(args, kwargs, result, counts):
    family = args[0] if args else kwargs["family"]
    _add(counts, "nonmarkov.grid_points", len(family) - 1)
    _add(counts, "nonmarkov.skipped_points", len(result.skipped_times))


def _integrate_work(args, kwargs, result, counts):
    _add(counts, "dynamics.steps", int(result.diagnostics["n_steps"]))
    _add(counts, "dynamics.stored_states", int(result.times.shape[0]))
    _add(counts, "dynamics.direct_calls", int(result.diagnostics["method"] == "direct"))


def _csv_bytes(args, kwargs, result, counts):
    _add(counts, "harness.csv_bytes",
         sum(len(csv.encode("utf-8")) for csv, _ in result.values()))


COUNTERS = {
    "kernels.rk4_lindblad_steps": _kernel_steps,
    "dynamics.liouvillian_matrix": _superop_dim,
    "nonmarkov.nm_measure": _nm_points,
    "dynamics.integrate": _integrate_work,
    "harness.run_experiment": _csv_bytes,
}
