"""Pure helpers shared by the benchmark's parent and child processes.

Nothing here imports ``locdom`` or touches the file system: spans, self-time
arithmetic, quartiles, metric-name checks and the speed reference, so the
unit tests in ``perfbench/tests`` can cover them without running a workload.
"""

from __future__ import annotations

import functools
import inspect
import math
import re
import statistics
import time
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Any, Callable, Iterable

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_metric_name(name: str) -> str:
    """Return ``name`` unchanged, or raise if it is not a valid metric name."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``
    gives them with its default exclusive method. A single value is its own
    quartiles."""
    data = sorted(values)
    if not data:
        raise ValueError("quartiles of an empty sample")
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def tail_percentile(values: Iterable[float], beyond: int = 10) -> tuple[int, float] | None:
    """Highest whole percentile p with at least ``beyond`` samples above it,
    with its value by the nearest-rank rule, or None when the sample is too
    small to have one above the median."""
    data = sorted(values)
    n = len(data)
    best: tuple[int, float] | None = None
    for p in range(50, 100):
        rank = math.ceil(p / 100 * n)
        if rank < 1 or n - rank < beyond:
            break
        best = (p, data[rank - 1])
    return best


# About what one ``reference_work()`` call takes on the 2-vCPU KVM host
# (Xeon, Python 3.11) the benchmark was defined on. It only sets the scale:
# rescaled times read as seconds at that speed.
REFERENCE_S = 0.15


@dataclass(frozen=True)
class _Row:
    key: int
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.key < 0:
            raise ValueError("negative key")


def reference_work() -> int:
    """Fixed pure-Python work that gauges how fast the machine runs right now.

    Three parts, in the styles ``locdom`` spends its time in: a
    locating-domination style scan over the subsets of a 15-vertex circulant
    graph (int bit tricks, set membership); 15,000 validated frozen-dataclass
    rows built, indexed and sorted (allocation churn); and minimum adjacency
    codes over all relabelings of small graphs (permutation tuples, as in
    isomorphism-class generation). It is the benchmark's own code, so no
    change to ``locdom`` can move it.
    """
    n = 15
    adj = tuple((1 << (v + 1) % n) | (1 << (v - 1) % n) | (1 << (v + 5) % n) for v in range(n))
    full = (1 << n) - 1
    found = 0
    for cand in range(1, 1 << n):
        rest = full & ~cand
        traces: set[int] = set()
        while rest:
            low = rest & -rest
            rest ^= low
            t = adj[low.bit_length() - 1] & cand
            if not t or t in traces:
                break
            traces.add(t)
        else:
            found += 1
    rows = [_Row(i, tuple(range(i % 7))) for i in range(15_000)]
    index = {row.key: row for row in rows}
    rows.sort(key=lambda row: (len(row.parts), -row.key))
    found += len(index)
    pairs = list(combinations(range(5), 2))
    codes: dict[int, int] = {}
    for mask in range(0, 1 << len(pairs), 6):
        nbrs = [0] * 5
        for j, (u, v) in enumerate(pairs):
            if mask >> j & 1:
                nbrs[u] |= 1 << v
                nbrs[v] |= 1 << u
        best = min(
            sum((nbrs[order[a]] >> order[b] & 1) << (a * 5 + b)
                for a in range(5) for b in range(a + 1, 5))
            for order in permutations(range(5))
        )
        codes.setdefault(best, mask)
    return found + len(codes)


def reference_seconds(clock: Callable[[], float] = time.perf_counter) -> float:
    started = clock()
    reference_work()
    return clock() - started


def at_reference_speed(wall_s: float, probes: list[float]) -> float:
    """Rescale a wall time to what it would read at ``REFERENCE_S``, given
    reference probes spread over the same stretch of time. The probes' median
    is used because the host tends to flip between a fast and a slow state,
    and a few probes caught in the other state should not move the result."""
    return wall_s * REFERENCE_S / statistics.median(probes)


# A span is (name, start, end, parent index or -1).
Span = tuple[str, float, float, int]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the sum over its spans of duration minus the part of
    that interval its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for index, (name, start, end, _) in enumerate(spans):
        inner = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        own = (end - start) - _covered([iv for iv in inner if iv[1] > iv[0]])
        out[name] = out.get(name, 0.0) + own
    return out


def span_counts(spans: list[Span]) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


class Tracer:
    """In-memory span recorder for one thread.

    ``wrap`` returns a stand-in for a function that records one span per
    call, parented to the innermost span open at the time. A generator
    function gets one span per resumption, so work done lazily while the
    caller iterates is still attributed to it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self.clock(), math.nan, parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans must close innermost first")
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, self.clock(), parent)

    def take(self) -> list[Span]:
        """Return the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        done, self.spans = self.spans, []
        return done

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def resumed(*args: Any, **kwargs: Any) -> Any:
                inner = fn(*args, **kwargs)
                while True:
                    index = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    yield item

            return resumed

        @functools.wraps(fn)
        def called(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return called
