"""Exact location-domination solver: membership test, lower bounds, subset search.

A set L is locating-dominating when every vertex outside L sees a nonempty
slice of L through its open neighborhood (the vertex's "trace") and no two
outside vertices share a trace. The location-domination number is the
minimum size of such a set.

Equivalently, L is a hitting set of the constraint rows ``N[v]`` (v is in L
or has a neighbor in L) and ``{u, v} | (N(u) ^ N(v))`` (u or v is in L, or L
tells them apart). ``lambda_exact`` solves that model in one of two ways,
chosen by the order n alone:

* n <= ``TABLE_MAX_ORDER``: a table pass decides all ``2**n`` subsets at
  once. It holds them as the bits of one integer and ANDs in, row by row,
  the subsets that hit the row, read off precomputed per-order tables. The
  value and the lexicographically least witness are then read off
  precomputed size layers. ``stats.sets_tested`` is ``2**n`` and
  ``use_twin_pruning`` changes nothing.
* larger n: branch and bound. A pair row whose ends have no common neighbor
  contains ``N[u]``, so it is implied and left out. Each search node
  branches on its smallest unhit row and fails once a greedy packing of
  pairwise disjoint unhit rows needs more picks than are left; with one
  pick left, that pick must lie in every unhit row. A node that branches
  and finds nothing is remembered in a table of refuted subproblems, keyed
  by its unhit rows alone, so a later node with the same rows and no more
  picks left fails at once. The table lives for one call and is cleared
  whenever the row references it holds would pass ``REFUTED_BUDGET``. The
  same search then turns the first hit into the lexicographically least
  one, one vertex at a time (see ``_lambda_search``).

Both try sizes upward from the larger of two sound lower bounds, and the
first size with a hit is the value:

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
from bisect import insort
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, TwinPartition, VertexSet
# not called here; perfbench's traced mode wraps this binding by name
from .graph import twin_partition  # noqa: F401

ORACLE_MAX_ORDER = 24
# largest order that ``lambda_exact`` decides by one pass over all subsets
TABLE_MAX_ORDER = 12
# a constraint row indexes the subset tables in two chunks of this many
# vertices, which covers every order up to TABLE_MAX_ORDER
_CHUNK = 6
_LOW = (1 << _CHUNK) - 1
# order -> subset tables of ``_tables``, built on first use
_TABLES: dict[int, tuple[list[int], list[int], list[int]]] = {}
# row references the refuted-subproblem table of one ``lambda_exact`` call may
# hold, 8 bytes each plus a key tuple and a dict slot per entry; the table is
# cleared when the next entry would pass this
REFUTED_BUDGET = 1 << 20


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

    Graphs of order at most ``TABLE_MAX_ORDER`` go to ``_lambda_table``, which
    decides all ``2**n`` subsets at once: there ``stats.sets_tested`` is
    ``2**n`` and ``use_twin_pruning`` changes nothing. Larger graphs go to the
    branch and bound of ``_lambda_search``, where ``stats.sets_tested`` counts
    search nodes. Both give the same value, witness and start bound.
    ``deterministic_witness`` is kept for compatibility and changes nothing.
    """
    if g.n <= TABLE_MAX_ORDER:
        return _lambda_table(g)
    return _lambda_search(g, use_twin_pruning)


def _tables(n: int) -> tuple[list[int], list[int], list[int]]:
    """Subset tables of order ``n`` for ``_lambda_table``, built on first use.

    Each table is a ``2**n``-bit integer whose bit p stands for the set that
    holds vertex v iff bit ``n - 1 - v`` of p is set. ``lo[k]`` and ``hi[k]``
    mark the sets that meet vertex set ``k`` and ``k << _CHUNK``, so the sets
    hitting row r are ``lo[r & _LOW] | hi[r >> _CHUNK]``; ``layers[s]`` marks
    the sets of size s.
    """
    tables = _TABLES.get(n)
    if tables is None:
        ones = (1 << (1 << n)) - 1
        # holding[v]: the sets holding v, that is the positions p with bit
        # j = n - 1 - v set, the upper 2**j of every 2 * 2**j positions
        holding = [0] * (2 * _CHUNK)
        for v in range(n):
            run = 1 << n - 1 - v
            holding[v] = ones // ((1 << 2 * run) - 1) * ((1 << run) - 1 << run)
        lo = [0] * (1 << _CHUNK)
        hi = [0] * (1 << _CHUNK)
        for k in range(1, 1 << _CHUNK):
            v = (k & -k).bit_length() - 1
            lo[k] = lo[k & k - 1] | holding[v]
            hi[k] = hi[k & k - 1] | holding[v + _CHUNK]
        # positions below 2**(m + 1) of popcount s: those below 2**m, and
        # those of popcount s - 1 shifted up by 2**m
        layers = [1]
        for m in range(n):
            layers = [
                (layers[s] if s <= m else 0) | (layers[s - 1] << (1 << m) if s else 0)
                for s in range(m + 2)
            ]
        tables = _TABLES[n] = (lo, hi, layers)
    return tables


def _lambda_table(g: Graph) -> SolveResult:
    """Bit-parallel pass over all subsets, for graphs of order ``<= TABLE_MAX_ORDER``.

    ``ok`` starts as every subset and is ANDed with the sets that hit each
    constraint row, so it ends as the locating-dominating sets. Implied pair
    rows cost one AND each and are not filtered out. The twin core is read
    off the same pair rows, for the start bound alone. In the bit order of
    ``_tables`` vertex 0 is the highest bit, so of two sets of one size
    the one holding the first vertex where they differ, the lex-lesser, sits
    higher. The value is the first size from the start bound with a set in
    ``ok``, and the witness is the highest such position.
    """
    started = time.perf_counter()
    n = g.n
    adj = g.adj
    lo, hi, layers = _tables(n)
    ok = -1
    for v in range(n):
        row = adj[v] | 1 << v
        ok &= lo[row & _LOW] | hi[row >> _CHUNK]
    core = 0
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            pair = 1 << u | 1 << v
            row = pair | au ^ adj[v]
            if row == pair:
                core |= 1 << u
            ok &= lo[row & _LOW] | hi[row >> _CHUNK]
    start = max(info_lower_bound(n), core.bit_count())
    size = start
    while not (found := ok & layers[size]):
        size += 1
    witness = int(f"{found.bit_length() - 1:0{n}b}"[::-1], 2)
    elapsed = time.perf_counter() - started
    return SolveResult(size, VertexSet(n, witness), SearchStats(1 << n, start, elapsed))


def _lambda_search(g: Graph, use_twin_pruning: bool = True) -> SolveResult:
    """Branch and bound over the hitting-set model, for graphs of any order.

    The search core ``hit(unhit, allowed, left)`` returns some set of at most
    ``left`` vertices from ``allowed`` that hits every row in ``unhit``, or
    None. Rows are sorted by size. In one pass over them a node fails when a
    row has no allowed vertex or when a greedy packing of the rows' allowed
    parts needs more than ``left`` disjoint parts; otherwise it branches on
    the first row, lowest vertex first, and drops each vertex from
    ``allowed`` once its branch fails. A node with one pick left returns the
    lowest allowed vertex that lies in every row, which is the first leaf
    that branching would find. The value is the first size, upward from the
    lower bound, at which ``hit`` succeeds.

    A node with more than two picks left that passes the packing pass looks
    up ``tuple(unhit)`` in a table of refuted subproblems shared by both
    phases. An entry of at least ``left`` means no hit exists. A node whose
    branches all fail stores ``left`` under its rows. The rows alone are a
    sound key. Say a node X with rows U fails, and a later node Y with rows U
    and no more picks left has a hit S. Nothing in S was dropped before the
    paths to X and Y part: within one root ``allowed`` only shrinks as the
    walk goes on, and a later root's ``allowed`` never grows, because the λ
    roots share one set and the extraction roots only grow ``fixed`` and
    ``cursor``. So a vertex of S missing from X's ``allowed`` was dropped on
    the path down to X, after its branch at some node W failed. Take the
    first such drop, of v at W: S plus the picks from W down to X hits W's
    rows, holds v, lies inside what W allowed when it tried v, and needs no
    more picks than W had. So v's branch had a hit and did not truly fail.
    By induction over the order in which nodes fail, every failure, and so
    every skip, is a true one. Both phases therefore visit their successful
    branches in the same order and return the same sets as without the
    table. The table is cleared when the row references it holds would
    pass ``REFUTED_BUDGET``.

    Equal-size sets are ordered by the smallest element of their symmetric
    difference, so the witness is walked down with the same core: with
    ``low`` the lowest free vertex of the current witness and ``cursor`` one
    past the last fixed pick, ``hit`` gets one extra row ``[cursor, low)``
    and only vertices from ``cursor`` up. A hit is a smaller witness and
    replaces it; a miss fixes ``low`` as the next pick.

    ``use_twin_pruning`` fixes the forced twin core before either phase.
    ``stats.sets_tested`` counts ``hit`` nodes over both phases, including
    those the refuted-subproblem table answers.
    """
    started = time.perf_counter()
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    rows = {adj[v] | 1 << v for v in range(n)}
    core = 0
    for u in range(n):
        for v in range(u + 1, n):
            pair = 1 << u | 1 << v
            row = pair | adj[u] ^ adj[v]
            if row == pair:
                core |= 1 << u
            # without a common neighbor the row contains N[u], so it is implied
            if adj[u] & adj[v]:
                rows.add(row)
    start = max(info_lower_bound(n), core.bit_count())
    fixed = core if use_twin_pruning else 0
    unhit = sorted([r for r in rows if not r & fixed], key=int.bit_count)
    nodes = 0
    # unhit rows -> most picks known not to suffice
    refuted: dict[tuple[int, ...], int] = {}
    stored = 0

    def hit(unhit: list[int], allowed: int, left: int) -> int | None:
        nonlocal nodes, stored
        nodes += 1
        if not unhit:
            return 0
        if left == 1:
            # the one pick left has to lie in every row
            common = allowed
            for r in unhit:
                common &= r
            return common & -common or None
        used = packed = 0
        for r in unhit:
            part = r & allowed
            if not part:
                return None
            if not part & used:
                if packed == left:
                    return None
                used |= part
                packed += 1
        if left > 2:
            key = tuple(unhit)
            if refuted.get(key, 0) >= left:
                return None
        # the first row is always packed, and it is the smallest
        branch = unhit[0] & allowed
        while branch:
            bit = branch & -branch
            branch ^= bit
            found = hit([r for r in unhit if not r & bit], allowed, left - 1)
            if found is not None:
                return found | bit
            allowed &= ~bit
        if left > 2:
            stored += len(unhit)
            if stored > REFUTED_BUDGET:
                refuted.clear()
                stored = len(unhit)
            refuted[key] = left
        return None

    size = start
    while (found := hit(unhit, full & ~fixed, size - fixed.bit_count())) is None:
        size += 1
    witness = fixed | found
    cursor = 0
    while free := witness & ~fixed:
        low = free & -free
        allowed = full & ~fixed & -(1 << cursor)
        found = None
        if below := (low - 1) & allowed:
            narrowed = [r for r in unhit if not r & fixed]
            insort(narrowed, below, key=int.bit_count)
            found = hit(narrowed, allowed, size - fixed.bit_count())
        if found is None:
            fixed |= low
            cursor = low.bit_length()
        else:
            witness = fixed | found
    # hit reaches itself through its closure cell; breaking that cycle frees
    # it now rather than at a later cyclic collection, so thousands of small
    # solves do not leave closures behind to fragment the heap
    del hit
    elapsed = time.perf_counter() - started
    return SolveResult(size, VertexSet(n, witness), SearchStats(nodes, start, elapsed))


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
