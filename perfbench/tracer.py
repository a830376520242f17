"""In-memory span tracer that wraps the public functions of the mbl modules.

`Tracer.install()` replaces every public function and public method of the
layer modules (in each module namespace that refers to it, since the package
imports names with `from .x import y`) by a wrapper that records one span:
name, start, end, and the span that was open when it was called. Worker
threads of the sweep pool start with an empty stack; their top-level spans
take the span open on the main thread (run_sweep) as parent. `uninstall()`
restores the originals. Counts are taken at the same wrappers: calls per
span name, plus two hooks (bytes handed to `output.write_text`, and
computed steady-state flops from the Liouvillian size).

Self time is a span's duration minus the union of the intervals its child
spans cover, so time children spend in parallel threads is not counted
twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import types
from collections import defaultdict

LAYERS = ("cli", "sweep", "model", "core", "lindblad", "analytic", "output")
PACKAGE = "mbl"


def lu_solve_flops(n: int) -> float:
    """Real flops of one complex n x n LU, two triangular solves and a residual matvec."""
    return 8.0 / 3.0 * n**3 + 3 * 8.0 * n**2


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (span id, name id, start, end, parent span id or -1)
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._next_id = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._counter_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def count(self, name: str, amount: float) -> None:
        with self._counter_lock:
            self.counters[name] += amount

    def wrap(self, name: str, fn, hook=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        spans, main_stack, next_id, clock = self.spans, self._main_stack, self._next_id, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif main_stack and stack is not main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            span_id = next(next_id)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name_id, start, end, parent))
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    # -------------------------------------------------------- (un)install

    def _set(self, target, attr: str, value) -> None:
        # vars(), not getattr(): a classmethod must be restored as the descriptor, not a bound method
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        import importlib

        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        owners = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        hooks = {"lindblad.steady_state": _flops_hook, "output.write_text": _bytes_hook}
        wrapped: dict[int, object] = {}
        seen: set[str] = set()
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                owner = owners.get(getattr(obj, "__module__", None))
                if isinstance(obj, types.FunctionType) and owner is not None:
                    if id(obj) not in wrapped:
                        name = f"{owner}.{obj.__name__}"
                        wrapped[id(obj)] = self.wrap(name, obj, hooks.get(name))
                    self._set(module, attr, wrapped[id(obj)])
                elif isinstance(obj, type) and owner is not None and obj.__module__ == module.__name__:
                    self._wrap_methods(owner, obj, seen)

    def _wrap_methods(self, owner: str, cls: type, seen: set[str]) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{owner}.{attr}"
            if name in seen:  # same method name on two classes of one module
                name = f"{owner}.{cls.__name__}.{attr}"
            seen.add(name)
            if isinstance(raw, types.FunctionType):
                self._set(cls, attr, self.wrap(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self.wrap(name, raw.__func__)))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # --------------------------------------------------------- aggregates

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, _nid, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = {}
        for sid, nid, start, end, _parent in self.spans:
            covered = _covered(children.get(sid, ()), start, end)
            agg = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
        return out

    def dump(self, path: str) -> None:
        """Write the spans out as JSON: one [id, name, start, end, parent] row each."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "columns": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans, "counters": self.counters}, fh)


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _bytes_hook(tracer: Tracer, args, _result) -> None:
    tracer.count("output.bytes", len(args[1].encode("utf-8")))


def _flops_hook(tracer: Tracer, args, _result) -> None:
    tracer.count("lindblad.steady_state.flops", lu_solve_flops(args[0].shape[0]))
