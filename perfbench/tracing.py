"""Timing wrappers swapped onto treereg's module attributes from outside.

Each wrapped callable is one span name; the tracer keeps, per name, the call
count, total time, self time (total minus the time of wrapped calls made
inside it) and an item count.  A callable that returns an iterator is timed
while the caller consumes it too: each next() adds to its span, and a
returned-items span counts what it yields.  Spans are aggregated in memory,
not stored one by one, so a sweep's hundreds of thousands of calls cost a few
list updates each.  Worker processes forked after the wrappers are installed run them
too, but their totals stay in the worker; only the calling process reports.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections.abc import Iterator
from typing import Callable, Optional

Items = Optional[Callable[[tuple, object], int]]


def _rows(args: tuple, result: object) -> int:
    return len(args[0])


def _returned(args: tuple, result: object) -> int:
    return len(result)  # an iterator is counted as it yields instead


def _file_size(args: tuple, result: object) -> int:
    return args[1].stat().st_size


# (owner, attribute, span name, item counter).  An owner is a module path or
# a 'module.Class' path.  The name's prefix before the first dot is the layer it belongs
# to; "pool" is the time the caller is blocked in Pool.map.  A callable that
# a later version of treereg no longer has is skipped, and its span reads 0.
TRACE_POINTS: list[tuple[str, str, str, Items]] = [
    ("treereg.cli", "main", "cli.main", None),
    ("treereg.cli", "canonical_code", "trees.canonical_code", None),
    ("treereg.census", "run_verify", "census.run_verify", None),
    ("treereg.census._Checkpoint", "dump", "census.checkpoint_dump", _file_size),
    ("treereg.census", "enumerate_codes", "trees.enumerate_codes", _returned),
    ("treereg.trees", "enumerate_codes", "trees.enumerate_codes", _returned),
    ("treereg.census", "tree_from_code", "trees.tree_from_code", None),
    ("treereg.trees", "tree_from_code", "trees.tree_from_code", None),
    ("treereg.census", "record_for_tree", "bounds.record_for_tree", None),
    ("treereg.census", "verify_record", "bounds.verify_record", None),
    ("treereg.bounds", "structural_invariants", "graphs.structural_invariants", None),
    ("treereg.bounds", "induced_matching_number",
     "invariants.induced_matching_number", None),
    ("treereg.bounds", "independence_number", "invariants.independence_number", None),
    ("treereg.bounds", "canonical_code", "trees.canonical_code", None),
    ("treereg.bounds", "evaluate_bounds", "bounds.evaluate_bounds", None),
    ("treereg.homology", "betti_table", "homology.betti_table", None),
    ("treereg.gf2", "rank", "gf2.rank", _rows),
    ("multiprocessing.pool.Pool", "map", "pool.map", None),
]


def _resolve(owner: str) -> object:
    """The module or class that a module path or 'module.Class' path names."""
    try:
        return importlib.import_module(owner)
    except ImportError:
        module, _, attr = owner.rpartition(".")
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


class Tracer:
    """Per-span-name [calls, total_s, self_s, items] for one process."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.missing: list[str] = []
        self._inner = [0.0]  # time of wrapped calls inside each open span

    def install(self) -> None:
        for owner, attr, name, items in TRACE_POINTS:
            target = _resolve(owner)
            fn = getattr(target, attr, None)
            if fn is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            setattr(target, attr, self._wrap(fn, name, items))

    def _wrap(self, fn: Callable, name: str, items: Items) -> Callable:
        stat = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        inner = self._inner
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                nested = inner.pop()
                inner[-1] += took
                stat[0] += 1
                stat[1] += took
                stat[2] += took - nested
            if isinstance(result, Iterator):
                return self._consume(result, stat, items is _returned)
            if items is not None:
                try:
                    stat[3] += items(args, result)
                except (AttributeError, IndexError, OSError, TypeError):
                    pass  # a changed signature loses the count, never the call
            return result

        return traced

    def _consume(self, it: Iterator, stat: list, count: bool) -> Iterator:
        """Yield from it, adding the time of each next() to stat's span."""
        inner = self._inner
        clock = time.perf_counter
        while True:
            inner.append(0.0)
            start = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                took = clock() - start
                nested = inner.pop()
                inner[-1] += took
                stat[1] += took
                stat[2] += took - nested
            stat[3] += count
            yield item
