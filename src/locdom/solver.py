"""Exact location-domination solver: membership test, lower bounds, subset search.

A set L is locating-dominating when every vertex outside L sees a nonempty
slice of L through its open neighborhood (the vertex's "trace") and no two
outside vertices share a trace. The location-domination number is the
minimum size of such a set.

Equivalently, L is a hitting set of the constraint rows ``N[v]`` (v is in L
or has a neighbor in L) and ``{u, v} | (N(u) ^ N(v))`` (u or v is in L, or L
tells them apart). ``lambda_exact`` searches that model, trying sizes upward
from the larger of two sound lower bounds:

* counting: the outside vertices need pairwise distinct nonempty subsets of
  L, so ``order - size <= 2**size - 1`` must hold for any hit;
* twins: a pair row equal to ``{u, v}`` marks twins u < v. Swapping twins is
  an automorphism, so the lexicographically least solution of each size
  contains every such u; that forced twin core may seed the search.

``lambda_oracle`` is the trust anchor: a plain unpruned enumeration of all
subsets in ascending cardinality, kept free of every shortcut used by the
real search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, TwinPartition, VertexSet
# not called here; perfbench's traced mode wraps this binding by name
from .graph import twin_partition  # noqa: F401

ORACLE_MAX_ORDER = 24


@dataclass(frozen=True)
class SearchStats:
    sets_tested: int
    pruned_cardinalities_skipped: int
    elapsed: float


@dataclass(frozen=True)
class SolveResult:
    lambda_: int
    witness: VertexSet
    stats: SearchStats


def _is_ld_mask(adj: tuple[int, ...], candidate: int, full: int) -> bool:
    rest = full & ~candidate
    traces: set[int] = set()
    add = traces.add
    while rest:
        low = rest & -rest
        rest ^= low
        t = adj[low.bit_length() - 1] & candidate
        if not t or t in traces:
            return False
        add(t)
    return True


def trace(g: Graph, candidate: VertexSet, u: int) -> VertexSet:
    """Trace of ``u``: its open neighborhood intersected with the candidate set.

    Defined only for vertices outside the candidate set.
    """
    if candidate.universe != g.n:
        raise ValueError("candidate set universe does not match the graph order")
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range for order {g.n}")
    if candidate.mask >> u & 1:
        raise ValueError(f"vertex {u} is inside the candidate set")
    return VertexSet(g.n, g.adj[u] & candidate.mask)


def is_locating_dominating(g: Graph, candidate: VertexSet) -> bool:
    """True when every outside vertex has a nonempty trace and all traces differ.

    The full vertex set qualifies vacuously; the empty set fails for any
    graph with at least one vertex.
    """
    if candidate.universe != g.n:
        raise ValueError("candidate set universe does not match the graph order")
    return _is_ld_mask(g.adj, candidate.mask, (1 << g.n) - 1)


def info_lower_bound(order: int) -> int:
    """Smallest size s with ``order - s <= 2**s - 1``.

    A locating-dominating set of size s must hand out distinct nonempty
    subsets of itself to the ``order - s`` outside vertices, and only
    ``2**s - 1`` are available.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    s = 0
    while order - s > (1 << s) - 1:
        s += 1
    return s


def twin_lower_bound(partition: TwinPartition) -> int:
    """Sum of (size - 1) over all twin classes of size at least 2."""
    return sum(len(cls.vertices) - 1 for cls in partition.classes if len(cls.vertices) >= 2)


def lambda_exact(
    g: Graph,
    use_twin_pruning: bool = True,
    deterministic_witness: bool = False,
) -> SolveResult:
    """Exact location-domination number with the lexicographically least witness.

    At each size from the lower bound upward, a depth-first search adds
    vertices in index order until every constraint row is hit, so its first
    hit is the lex-least set of that size. ``use_twin_pruning`` starts it from
    the forced twin core. ``stats.sets_tested`` counts search nodes.
    ``deterministic_witness`` is kept for compatibility and changes nothing:
    every witness is already lex-least.
    """
    started = time.perf_counter()
    n = g.n
    adj = g.adj
    rows = {adj[v] | 1 << v for v in range(n)}
    core = 0
    for u in range(n):
        for v in range(u + 1, n):
            pair = 1 << u | 1 << v
            row = pair | adj[u] ^ adj[v]
            if row == pair:
                core |= 1 << u
            rows.add(row)
    start = max(info_lower_bound(n), core.bit_count())
    chosen = core if use_twin_pruning else 0
    # ascending highest vertex, so unhit[0] bounds the next pick from above
    unhit = sorted((r for r in rows if not r & chosen), key=int.bit_length)
    nodes = 0

    def search(chosen: int, unhit: list[int], cursor: int, left: int) -> int | None:
        nonlocal nodes
        nodes += 1
        if not unhit:
            return chosen
        if not left:
            return None
        for v in range(cursor, min(unhit[0].bit_length(), n - left + 1)):
            bit = 1 << v
            if chosen & bit:
                continue
            hit = search(chosen | bit, [r for r in unhit if not r & bit], v + 1, left - 1)
            if hit is not None:
                return hit
        return None

    for size in range(start, n + 1):
        best = search(chosen, unhit, 0, size - chosen.bit_count())
        if best is not None:
            break
    assert best is not None  # the full vertex set always qualifies
    elapsed = time.perf_counter() - started
    return SolveResult(size, VertexSet(n, best), SearchStats(nodes, start, elapsed))


def lambda_oracle(g: Graph) -> SolveResult:
    """Ground-truth value by full subset enumeration, no pruning of any kind.

    Guarded to 24 vertices; use ``lambda_exact`` beyond that.
    """
    if g.n > ORACLE_MAX_ORDER:
        raise ValueError(f"oracle guard: order {g.n} exceeds {ORACLE_MAX_ORDER}")
    started = time.perf_counter()
    adj = g.adj
    full = (1 << g.n) - 1
    single = [1 << v for v in range(g.n)]
    tested = 0
    for size in range(g.n + 1):
        for combo in combinations(single, size):
            candidate = 0
            for bit in combo:
                candidate |= bit
            tested += 1
            if _is_ld_mask(adj, candidate, full):
                elapsed = time.perf_counter() - started
                return SolveResult(
                    size, VertexSet(g.n, candidate), SearchStats(tested, 0, elapsed)
                )
    raise AssertionError("unreachable: the full vertex set always qualifies")
