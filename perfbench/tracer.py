"""Span recorder for the traced benchmark run.

`Tracer.install` wraps every public function of the given modules, and
rebinds every module attribute that names one of those functions, so that a
by-name import such as `reinforce.prune`, `harness.query` or
`harness.binary_label` (an alias of `oracle.label`) is traced too. Each call
records a span: function, start, end, parent span and the id of the seeded
run. A generator function gets one span per `next()`, so the time of
consuming it is measured, not the time of creating it.

Spans stay in flat arrays while the seed list runs; `summarise` reduces them
once it is done.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

# below this many spans a function's p99 has fewer than ten samples beyond it
PERCENTILE_MIN_SPANS = 1000


class Tracer:
    """Records spans of wrapped functions. For the functions named in
    `distinct_args_of` ('module.function'), it also keeps the set of
    distinct first arguments."""

    def __init__(self, distinct_args_of=()):
        self.names: list[str] = []
        self.calls: list[int] = []  # per name; a generator counts once
        self.items: list[int] = []  # per name; values a generator yielded
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.run_id = -1
        self._stack = [-1]
        self._distinct_args_of = set(distinct_args_of)
        self.distinct_args: dict[str, set] = {}
        self._rebound: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.items.append(0)
        calls, items, stack = self.calls, self.items, self._stack
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def open_span() -> int:
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            return sid

        if inspect.isgeneratorfunction(fn):

            def consume(gen):
                while True:
                    sid = open_span()
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        starts[sid] = t0
                        ends[sid] = t1
                    items[idx] += 1
                    yield item

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                calls[idx] += 1
                return consume(fn(*args, **kwargs))

            return traced

        seen = None
        if name in self._distinct_args_of:
            seen = self.distinct_args.setdefault(name, set())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[idx] += 1
            sid = open_span()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                if seen is not None:
                    seen.add((args + tuple(kwargs.values()))[0])

        return traced

    def install(self, modules) -> list[str]:
        """Wrap the public functions of `modules` and rebind every attribute
        of those modules that refers to one. Returns the rebound attributes
        as 'module.attr' strings."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        rebound = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebound.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
                    rebound.append(f"{mod.__name__.rpartition('.')[2]}.{attr}")
        return rebound

    def uninstall(self) -> None:
        for mod, attr, original in self._rebound:
            setattr(mod, attr, original)
        self._rebound.clear()

    # -- reduction ---------------------------------------------------------

    def _columns(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        return name, parent, dur

    def summarise(self) -> dict:
        """Per wrapped function: calls, values yielded, inclusive seconds,
        self seconds (span time not covered by child spans) and, from
        PERCENTILE_MIN_SPANS spans on, the p50/p99 span time in µs."""
        name, parent, dur = self._columns()
        has_parent = parent >= 0
        child_s = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        n_names = len(self.names)
        incl = np.bincount(name, weights=dur, minlength=n_names)
        self_s = np.bincount(name, weights=dur - child_s, minlength=n_names)
        spans = np.bincount(name, minlength=n_names)
        out = {}
        for idx, fn_name in enumerate(self.names):
            entry = {
                "calls": self.calls[idx],
                "items": self.items[idx],
                "incl_s": float(incl[idx]),
                "self_s": float(self_s[idx]),
                "us_p50": 0.0,
                "us_p99": 0.0,
            }
            if spans[idx] >= PERCENTILE_MIN_SPANS:
                p50, p99 = np.percentile(dur[name == idx], [50, 99]) * 1e6
                entry["us_p50"], entry["us_p99"] = float(p50), float(p99)
            out[fn_name] = entry
        return out

    def count_within(self, inner: str, outer: str) -> int:
        """Spans of `inner` that ran, at any depth, inside a span of `outer`."""
        name, parent, _ = self._columns()
        inner_idx, outer_idx = self.names.index(inner), self.names.index(outer)
        # a parent is always opened before its child, so every span's
        # ancestor chain is finite; propagate "inside outer" down it
        inside = name == outer_idx
        has_parent = parent >= 0
        while True:
            grown = inside.copy()
            grown[has_parent] |= inside[parent[has_parent]]
            if np.array_equal(grown, inside):
                break
            inside = grown
        return int(np.count_nonzero(inside & (name == inner_idx)))

    def save(self, path) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
            span_run=np.frombuffer(self.span_run, dtype=np.int32),
            span_start=np.frombuffer(self.span_start),
            span_end=np.frombuffer(self.span_end),
        )
