"""Outside-in tracing of the ``wetmm`` layers, installed from the benchmark.

:func:`install` wraps every public function (the names in ``__all__``) of
the layer modules and rebinds each wrapper wherever the original is bound:
in every ``wetmm`` module namespace that imported it and in
``wetmm.cli._RUNNERS``.  A wrapper records one span per call.  Spans are kept
in compact arrays in memory and written as JSON lines only when asked.

A span's self time is its duration minus the time its child spans cover.
Calls in one process are nested and sequential, so that is the duration
minus the sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("sysmodel", "estimation", "energy", "rates", "optimizer", "montecarlo", "cli")


def _arg(fn, name, default):
    """Reader of one argument of ``fn`` from a call's args and kwargs."""
    params = list(inspect.signature(fn).parameters)
    pos = params.index(name)

    def read(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if len(args) > pos else default
    return read


def _size(shape) -> int:
    n = 1
    for dim in (shape if isinstance(shape, tuple) else (shape,)):
        n *= int(dim)
    return n


def _counter(name, fn):
    """(counter name, increment per call) for functions whose work is more
    than one call, else None."""
    if name == "sysmodel.complex_gaussian":
        shape = _arg(fn, "shape", None)
        return ("sysmodel.complex_gaussian.samples",
                lambda args, kwargs, res: _size(shape(args, kwargs)))
    if name == "estimation.draw_realization":
        method = _arg(fn, "method", "statistical")
        return ("estimation.draw_realization.pilot_calls",
                lambda args, kwargs, res: int(method(args, kwargs) == "pilot"))
    if name == "montecarlo.simulate_frame":
        return "montecarlo.resamples", lambda args, kwargs, res: int(res.resamples)
    if name == "optimizer.grid_search_p1":
        return ("optimizer.grid_search_p1.evaluations",
                lambda args, kwargs, res: int(res.n_evaluations))
    return None


class Tracer:
    """Span recorder.  ``command`` tags every span with the current op."""

    def __init__(self):
        self.names: list[str] = []
        self.commands: list[str] = []
        self.command = -1
        self.name_idx = array("i")
        self.cmd_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def begin_command(self, label: str) -> None:
        self.commands.append(label)
        self.command = len(self.commands) - 1

    def wrap(self, name: str, fn):
        """Wrapper of ``fn`` that records a span named ``name`` per call."""
        self.names.append(name)
        nid = len(self.names) - 1
        counter = _counter(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_idx.append(nid)
            self.cmd_idx.append(self.command)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict:
        """Per function: calls, total_s, self_s and the list of durations."""
        n = len(self.start)
        child_s = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        stats = {}
        for i in range(n):
            name = self.names[self.name_idx[i]]
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "durations": []})
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child_s[i]
            s["durations"].append(dur)
        return stats

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span: id, parent, name, start, end, command."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i, "parent": self.parent[i],
                    "name": self.names[self.name_idx[i]],
                    "start": self.start[i], "end": self.end[i],
                    "command": self.commands[self.cmd_idx[i]] if self.cmd_idx[i] >= 0 else None,
                }) + "\n")


def install(tracer: Tracer, layers=LAYERS):
    """Wrap the layers' public functions everywhere they are bound.

    Returns a callable that puts every original back.
    """
    wrappers = {}
    for layer in layers:
        mod = importlib.import_module(f"wetmm.{layer}")
        for fname in mod.__all__:
            obj = getattr(mod, fname)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[obj] = tracer.wrap(f"{layer}.{fname}", obj)
    namespaces = [vars(m) for name, m in sys.modules.items()
                  if name == "wetmm" or name.startswith("wetmm.")]
    namespaces.append(importlib.import_module("wetmm.cli")._RUNNERS)
    undo = []
    for ns in namespaces:
        for key, value in list(ns.items()):
            if inspect.isfunction(value) and value in wrappers:
                ns[key] = wrappers[value]
                undo.append((ns, key, value))

    def uninstall():
        for ns, key, value in undo:
            ns[key] = value
    return uninstall
