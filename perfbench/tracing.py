"""In-memory span recorder that wraps the public functions of ``espc``.

Tracing is added from outside the program: while :meth:`Tracer.patched` is
active, every public function attribute of the ``espc`` modules is replaced
by a wrapper that records one span per call (name, start, end, parent span,
request id, and a count taken at the boundary).  Calls made inside the
program through module globals, such as ``evaluate_rank`` calling
``locate_interval``, are therefore recorded as child spans of the real call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("core", "data", "index", "search", "stats", "bench", "cli")


class Tracer:
    """Spans in parallel lists; ``current_request`` tags every span opened next."""

    def __init__(self):
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.count: dict[int, int] = {}  # span -> comparisons of a SearchOutcome
        self.shift: dict[int, int] = {}  # exponential_search span -> rank - start
        self.current_request = -1
        self._stack = [-1]

    def wrap(self, fn):
        span_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        if span_name not in self.names:
            self.names.append(span_name)
        code = self.names.index(span_name)
        counted = fn.__annotations__.get("return") == "SearchOutcome"
        is_search = fn.__name__ == "exponential_search"
        clock = time.perf_counter_ns
        stack, name, start, end = self._stack, self.name, self.start, self.end
        parent, request, count, shift = self.parent, self.request, self.count, self.shift

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(code)
            parent.append(stack[-1])
            request.append(self.current_request)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counted:
                count[i] = out.comparisons
                if is_search:
                    shift[i] = out.rank - args[1]
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Replace every public ``espc`` function attribute with a traced one."""
        saved = []
        for short in MODULES:
            module = importlib.import_module(f"espc.{short}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("espc."):
                    continue
                saved.append((module, attr, value))
                setattr(module, attr, self.wrap(value))
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    @staticmethod
    def calibrate(rounds: int = 15, calls: int = 10_000) -> tuple[float, float]:
        """Wrapper cost in ns: inside a span's clock reads, and outside them.

        The inside part inflates every span's duration; the outside part
        lands in the parent's self time.  :class:`Spans` subtracts both.
        Each figure is the median over ``rounds`` rounds of ``calls`` calls.
        """
        insides, outsides = [], []
        for _ in range(rounds):
            probe = Tracer()
            leaf = probe.wrap(_noop)
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                _noop(None)
            plain = (time.perf_counter_ns() - t0) / calls
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                leaf(None)
            traced = (time.perf_counter_ns() - t0) / calls
            inside = float(np.median(np.subtract(probe.end, probe.start))) - plain
            insides.append(inside)
            outsides.append(traced - plain - inside)
        return max(float(np.median(insides)), 0.0), max(float(np.median(outsides)), 0.0)

    def arrays(self, inside: float = 0.0, outside: float = 0.0) -> "Spans":
        n = len(self.name)
        count = np.full(n, -1, dtype=np.int64)
        count[list(self.count)] = list(self.count.values())
        shift = np.zeros(n, dtype=np.int64)
        shift[list(self.shift)] = list(self.shift.values())
        return Spans(
            names=list(self.names),
            name=np.array(self.name, dtype=np.int64),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            request=np.array(self.request, dtype=np.int64),
            count=count,
            shift=shift,
            inside=inside,
            outside=outside,
        )


def _noop(x):
    return x


class Spans:
    """Recorded spans with wrapper-corrected durations and self times.

    A span's ``duration`` is its clock interval minus the wrapper cost of
    the span itself and of every span nested in it; ``self_time`` is that
    duration minus the durations of its direct children.
    """

    def __init__(self, names, name, start, end, parent, request, count, shift,
                 inside=0.0, outside=0.0):
        self.names = names
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.count = count
        self.shift = shift
        self.inside = inside
        self.outside = outside
        descendants = [0] * len(name)
        for i, p in zip(range(len(name) - 1, -1, -1), parent[::-1].tolist()):
            if p >= 0:
                descendants[p] += 1 + descendants[i]
        nested = np.array(descendants, dtype=np.float64)
        self.duration = (end - start) - inside - nested * (inside + outside)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=self.duration[has_parent], minlength=len(name)
        )
        self.self_time = self.duration - covered

    def code(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2

    def select(self, name: str, parent: str | None = None, roots=None) -> np.ndarray:
        """Indices of spans called ``name``.

        ``parent`` keeps spans whose parent has that name; ``roots`` keeps
        spans whose parent index is in the given array (``-1`` selects
        top-level spans).
        """
        mask = self.name == self.code(name)
        if parent is not None:
            mask &= self.parent >= 0
            mask[mask] = self.name[self.parent[mask]] == self.code(parent)
        if roots is not None:
            mask &= np.isin(self.parent, roots)
        return np.flatnonzero(mask)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=self.name,
            start=self.start,
            end=self.end,
            parent=self.parent,
            request=self.request,
            count=self.count,
            shift=self.shift,
            wrapper_ns=np.array([self.inside, self.outside]),
        )
