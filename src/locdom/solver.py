"""Exact location-domination solver: membership test, lower bounds, subset search.

A set L is locating-dominating when every vertex outside L sees a nonempty
slice of L through its open neighborhood (the vertex's "trace") and no two
outside vertices share a trace. The location-domination number is the
minimum size of such a set.

Equivalently, L is a hitting set of the constraint rows ``N[v]`` (v is in L
or has a neighbor in L) and ``{u, v} | (N(u) ^ N(v))`` (u or v is in L, or L
tells them apart). ``lambda_exact`` solves that model by one branch and
bound at every order. A pair row whose ends have no common neighbor
contains ``N[u]``, so it is implied and left out. The rows are numbered by
size, then by value, so a node's unhit rows are one integer over row
numbers and a pick removes the rows holding it with one AND. Each search
node branches on its first unhit row and fails once a greedy packing of
pairwise disjoint unhit rows needs more picks than are left; with one pick
left, that pick must lie in every unhit row, and with two left and two
parts packed, the last pick lies in the second part. A node that branches
and finds nothing is remembered in a table of refuted subproblems, keyed by
its unhit rows alone, so a later node with the same rows and no more picks
left fails at once. The rows each packed part meets are memoized per part.
Both tables live for one call, and ``REFUTED_BUDGET`` bounds the bytes of
each. The search takes a greedy upper bound and walks down from it until a
size fails or the start bound is reached. The same search then turns the
hit into the lexicographically least one, deciding the vertices in index
order (see ``lambda_exact``).

The search starts from the largest of three sound lower bounds, computed
once per solve and reported as ``stats.pruned_cardinalities_skipped``:

* counting: the outside vertices need pairwise distinct nonempty subsets of
  L, so ``order - size <= 2**size - 1`` must hold for any hit;
* degree: the outside traces are distinct and nonempty, and at most
  ``size`` of them are singletons, so L has at least
  ``2 (order - size) - size`` edges to the outside and at most
  ``size * Δ``, Δ the maximum degree: ``size >= 2 order / (Δ + 3)``
  (Slater, 1988). It is the value on paths and cycles;
* twin core plus blocks: u < v are twins when ``N(u) = N(v)`` or
  ``N[u] = N[v]``, which is when their pair row is just ``{u, v}``.
  Swapping twins is an automorphism, so the lexicographically least
  solution of each size contains every such u; that forced twin core, all
  but the highest member of each class of ``graph._twin_classes``, is
  fixed before the search starts. Disjoint two-vertex blocks
  ``B_1..B_k`` outside the core, each union ``B_i | B_j`` a row, add
  k - 1 (``_block_bound``): a set missing two blocks misses the row in
  their union. Twins are the
  one-vertex case of a block, and the K_n identity functigraph's n blocks
  ``{v, n + v}`` give its value n - 1.

The bounds sweep in ``theorems`` solves thousands of functigraphs of order
at most 12 that it holds as constraint rows alone, XORed from base and map
parts (see ``functigraph._base_parts``), and needs every minimum set of
each. ``_fold_layer`` decides all ``2**n`` subsets of such a graph at once.
It holds them as the bits of one integer and ANDs in, row by row, the
subsets that hit the row, one lookup each in a per-order table indexed by
the row itself, then reads the value and every minimum set off size layers.
The sweep builds these ``_tables`` once per order it folds, then drops them.

``lambda_oracle`` is the trust anchor: a plain unpruned enumeration of all
subsets in ascending cardinality, kept free of every shortcut used by the
real search.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_
from typing import Iterable

from .graph import Graph, TwinPartition, VertexSet, _twin_classes
# not called here; perfbench's traced mode wraps this binding by name
from .graph import twin_partition  # noqa: F401

ORACLE_MAX_ORDER = 24
# bytes each of the refuted-subproblem table and the part memo of one
# ``lambda_exact`` call may hold. A refuted entry is counted as 88 bytes for its
# dict slot and int header plus one byte per 8 bits of its key, a memo entry as
# 116 bytes (a second int header) plus one per 8 bits of its key and value. A
# table is cleared when its own entries would pass this, so the two hold about
# twice this at most
REFUTED_BUDGET = 1 << 23


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
    """Sum of (size - 1) over all twin classes of size at least 2.

    This is the size of the twin core that ``lambda_exact`` reads off its own
    rows; the tests check its start bound against it from below.
    """
    return sum(len(cls.vertices) - 1 for cls in partition.classes if len(cls.vertices) >= 2)


def _block_bound(quads: list[int], rows: set[int]) -> int:
    """k - 1 for disjoint two-vertex blocks B_1..B_k, read off ``quads``, with
    every union ``B_i | B_j`` in ``rows``; 0 when the first of ``quads``
    shares exactly two vertices with no other.

    A set hitting ``rows`` misses at most one block, since missing two
    misses their union, so it holds a vertex of k - 1 disjoint blocks. B_1
    is the pair the first row of ``quads`` shares with the first row that
    shares one, and each row holding B_1 offers the rest of itself as a
    block, kept when it is disjoint from every kept block and their union
    is in ``rows``.
    """
    first = quads[0] if quads else 0
    for other in quads:
        pair = first & other
        if pair.bit_count() == 2:
            blocks = [pair]
            for row in quads:
                if row & pair == pair:
                    block = row ^ pair
                    for kept in blocks:
                        if block & kept or block | kept not in rows:
                            break
                    else:
                        blocks.append(block)
            return len(blocks) - 1
    return 0


def _tables(n: int) -> tuple[list[int], list[int], int]:
    """Subset tables ``(hits, layers, start)`` of order ``n`` for ``_fold_layer``.

    Each table entry is a ``2**n``-bit integer whose bit p stands for the set
    that holds vertex v iff bit ``n - 1 - v`` of p is set. ``hits[k]`` marks
    the sets that meet vertex set ``k``, so a constraint row r is one lookup,
    ``hits[r]``; ``layers[s]`` marks the sets of size s; ``start`` is the
    counting bound. Nothing caches them: at order 12 ``hits`` takes 2.4 MB.
    """
    ones = (1 << (1 << n)) - 1
    # the vertex sets with highest vertex v are those below it plus v, and
    # the sets holding v are the positions p with bit j = n - 1 - v set,
    # the upper 2**j of every 2 * 2**j positions
    hits = [0]
    for v in range(n):
        run = 1 << n - 1 - v
        holding = ones // ((1 << 2 * run) - 1) * ((1 << run) - 1 << run)
        hits += [h | holding for h in hits]
    # positions below 2**(m + 1) of popcount s: those below 2**m, and
    # those of popcount s - 1 shifted up by 2**m
    layers = [1]
    for m in range(n):
        layers = [
            (layers[s] if s <= m else 0) | (layers[s - 1] << (1 << m) if s else 0)
            for s in range(m + 2)
        ]
    return hits, layers, info_lower_bound(n)


def _constraint_rows(adj: tuple[int, ...]) -> list[int]:
    """The constraint rows of the graph with rows ``adj``: ``N[v]`` for each
    v, then ``{u, v} | (N(u) ^ N(v))`` for each u < v in (u, v) order.

    Implied pair rows are kept: in ``_fold_layer`` each costs one AND.
    """
    n = len(adj)
    rows = [a | 1 << v for v, a in enumerate(adj)]
    # one comprehension over all pairs: one per u was about a third slower
    rows += [1 << u | 1 << v | au ^ adj[v] for u, au in enumerate(adj) for v in range(u + 1, n)]
    return rows


def _fold_layer(tables: tuple, rows: Iterable[int]) -> tuple[int, int]:
    """(value, minimum layer) of the graph of order n whose constraint rows
    are ``rows``, through ``tables``, the ``_tables(n)`` its caller holds.

    The bounds sweep calls it on orders up to 12, since ``VerifyConfig``
    caps ``n_max_bounds`` at 6; the tables of order n take about ``4**n``
    bits, so they are not meant for much larger graphs. ``ok`` starts as
    every subset and one ``reduce`` ANDs in the sets hitting each row, so it
    ends as the locating-dominating sets. The value is the first size from
    the tables' counting bound with a set in ``ok``. The minimum layer is
    ``ok`` cut to that size, every locating-dominating set of least size, as
    one integer whose bit p stands for the set that holds vertex v iff bit
    ``n - 1 - v`` of p is set; of two sets of one size the lex-lesser
    sits higher.
    """
    hits, layers, size = tables
    ok = reduce(and_, map(hits.__getitem__, rows))
    while not (found := ok & layers[size]):
        size += 1
    return size, found


def lambda_exact(g: Graph, *, deterministic_witness: bool = False) -> SolveResult:
    """Exact location-domination number with the lexicographically least witness,
    by branch and bound over the hitting-set model.

    Rows are sorted by size, then by value, and numbered in that order. A set
    of rows is an int with bit i for row i, and ``covers[v]`` is the set of
    rows holding v. The search core ``hit(unhit, allowed, left)`` returns
    some set of at most ``left`` vertices from ``allowed`` that hits every
    row in ``unhit``, or None. A node first packs greedily: it takes the
    allowed part of the first remaining row and drops every row that meets
    it, and fails on a row with no allowed vertex or once it needs more than
    ``left`` parts. The rows meeting a part, the OR of its vertices'
    ``covers``, are memoized per part for the call, since the same parts
    recur across nodes; the memo only saves work, so it changes no node.
    Otherwise the node branches on its first row, lowest vertex first, the
    child's rows being ``unhit & ~covers[v]``, and drops each vertex from
    ``allowed`` once its branch fails. A node with one pick left
    returns the lowest allowed vertex of its first row that lies in every
    row, which is the first leaf that branching would find.

    A node with two picks left makes no child calls. It tries each first
    pick x of its first row inline, lowest first, and counts one node per
    x, as the child call did. When the packing found two parts, every hit
    takes one pick from each; x lies in the first, so the last pick comes
    from the second, and x is dropped at once when a row the second part
    does not meet misses x. The last pick is the lowest vertex of the
    first row x leaves unhit that lies in every row x leaves unhit, taken
    from the last part, or from ``allowed`` after a one-part packing. A
    first pick that failed before x is never a last pick for x, since that
    pair would have been found first. So a skipped x or last pick could not
    hit, and the nodes and the answer are those of the plain branching.

    A greedy set (the vertex in the most unhit rows, the lowest on ties,
    until every row is hit) bounds the value from above. Each λ root then
    asks for one pick fewer than the best hit so far, until one fails or
    the next size would fall below the start bound. The start bound (see
    the module docstring) is computed once, before any root. Where it is
    the value, as on paths, cycles, K_n identity functigraphs and every K_n
    functigraph up to n = 8 whose map has other than two images, no root
    fails.

    Equal-size sets are ordered by the smallest element of their symmetric
    difference, so the witness is walked down with the same core. Vertices
    are decided in index order, and a decided vertex leaves ``allowed``
    for good. A vertex of the current witness is fixed. Any other vertex v
    gets one extraction root, ``hit(unhit & ~covers[v], allowed, left - 1)``:
    a hit holds v and is a lex-lesser witness, so it replaces the witness
    and v is fixed; a miss drops v. The walk ends once every pick is fixed.

    A node with more than two picks left looks up its ``unhit``, before it
    packs, in a table of refuted subproblems shared by all roots. An
    entry of at least ``left`` means no hit exists. A node whose branches
    all fail stores ``left`` under its rows. The rows alone are a sound key.
    Say a node X with rows U fails, and a later node Y with rows U and no
    more picks left has a hit S. Every root is passed the one ``allowed``,
    which only shrinks from root to root, so S lies inside what X's root
    allowed, and a vertex of S missing from X's ``allowed`` was dropped on
    the path down to X, after its branch failed at some node W. Take the
    first such drop, of v at W: S plus the picks from W down to X hits W's
    rows, holds v, lies inside what W allowed when it tried v, and needs no
    more picks than W had. So v's branch had a hit and did not truly fail.
    By induction over the order in which nodes fail, every failure, and so
    every skip, is a true one. The search therefore visits its successful
    branches in the same order and returns the same sets as without the
    table. ``REFUTED_BUDGET`` bounds the estimated bytes of the table and of
    the part memo, each on its own, so the two hold about twice it at most.
    Each is cleared only when its own entries would pass the budget, so the
    memo never moves a clearing of the table.

    The forced twin core is fixed before any root, and the rows it hits are
    never built, so the start bound reads its blocks off rows the core
    misses. ``stats.sets_tested`` counts ``hit`` nodes over all roots,
    including those the refuted-subproblem table answers. It is 0 when the
    greedy set already has the start size and holds the lowest vertices
    outside the fixed core, as when the core hits every row.
    ``deterministic_witness`` changes nothing, since every witness is
    already the lexicographically least; it is kept because perfbench's
    ``solve-ladder`` workload passes it.
    """
    started = time.perf_counter()
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    # the forced twin core: every member of a twin class but its highest
    fixed = sum(mask ^ 1 << mask.bit_length() - 1 for mask in _twin_classes(adj))
    # rows the fixed vertices already hit are left out
    unfixed = [(adj[v], 1 << v) for v in range(n) if not fixed >> v & 1]
    rows = {a | bit for a, bit in unfixed if not a & fixed}
    add = rows.add
    for i, (au, bu) in enumerate(unfixed):
        for av, bv in unfixed[i + 1:]:
            # without a common neighbor the row contains N[u], so it is implied
            if au & av:
                row = bu | bv | au ^ av
                if not row & fixed:
                    add(row)
    row_set = rows
    rows = sorted(rows)
    rows.sort(key=int.bit_count)
    quads = rows[bisect_left(rows, 4, key=int.bit_count):bisect_left(rows, 5, key=int.bit_count)]
    start = max(
        info_lower_bound(n),
        # a set of size s has at most s * Δ edges to the outside, and at least
        # 2 (n - s) - s, since at most s outside traces are singletons
        -(-2 * n // (max(map(int.bit_count, adj)) + 3)),
        # the core, plus blocks among the rows it does not hit
        fixed.bit_count() + _block_bound(quads, row_set),
    )
    # covers[v] marks the rows holding v, as bits over row indices. With a
    # bit above vertex n - 1, every row's bin() string has width n + 3, so
    # joined last row first, every (n + 3)-th character from 2 + n - v reads
    # vertex v of row i at bit i
    width = n + 3
    table = "".join(map(bin, map((1 << n).__or__, reversed(rows)))) or "0" * width
    covers = [int(table[j::width], 2) for j in range(width - 1, 2, -1)]
    nodes = 0
    # unhit rows -> most picks known not to suffice
    refuted: dict[int, int] = {}
    # allowed part of a row -> the rows meeting it, the OR of its covers
    spans: dict[int, int] = {}
    # estimated bytes of each table; REFUTED_BUDGET bounds each on its own
    stored = spanned = 0

    def hit(unhit: int, allowed: int, left: int) -> int | None:
        nonlocal nodes, stored, spanned
        nodes += 1
        if not unhit:
            return 0
        first = rows[(unhit & -unhit).bit_length() - 1] & allowed
        if left == 1:
            # the one pick left has to lie in every row
            while first:
                bit = first & -first
                if not unhit & ~covers[bit.bit_length() - 1]:
                    return bit
                first ^= bit
            return None
        if left > 2 and refuted.get(unhit, 0) >= left:
            return None
        rest = unhit
        packed = 0
        while rest:
            part = rows[(rest & -rest).bit_length() - 1] & allowed
            if not part or packed == left:
                return None
            packed += 1
            # the rows meeting this part cannot be packed beside it
            span = spans.get(part)
            if span is None:
                span = 0
                vertices = part
                while vertices:
                    bit = vertices & -vertices
                    vertices ^= bit
                    span |= covers[bit.bit_length() - 1]
                cost = 116 + (part.bit_length() + span.bit_length()) // 8
                spanned += cost
                if spanned > REFUTED_BUDGET:
                    spans.clear()
                    spanned = cost
                spans[part] = span
            rest &= ~span
        if left == 2:
            # with two parts packed, every hit takes one pick from each, so the
            # last pick lies in the last part and the first must hit the rows
            # that part does not meet; one part packed leaves ``outside`` empty
            last = part if packed == 2 else allowed
            outside = unhit & ~span
            while first:
                bit = first & -first
                first ^= bit
                nodes += 1
                cover = covers[bit.bit_length() - 1]
                if outside & ~cover:
                    continue
                rest = unhit & ~cover
                if not rest:
                    return bit
                second = rows[(rest & -rest).bit_length() - 1] & last
                while second:
                    low = second & -second
                    if not rest & ~covers[low.bit_length() - 1]:
                        return bit | low
                    second ^= low
            return None
        branch = first
        while branch:
            bit = branch & -branch
            branch ^= bit
            found = hit(unhit & ~covers[bit.bit_length() - 1], allowed, left - 1)
            if found is not None:
                return found | bit
            allowed &= ~bit
        # only nodes with more than two picks left branch here
        cost = 88 + unhit.bit_length() // 8
        stored += cost
        if stored > REFUTED_BUDGET:
            refuted.clear()
            stored = cost
        refuted[unhit] = left
        return None

    # greedy upper bound: the vertex in the most unhit rows, the lowest on
    # ties, until every row is hit
    found = 0
    rest = unhit = (1 << len(rows)) - 1
    while rest:
        counts = [(rest & c).bit_count() for c in covers]
        v = counts.index(max(counts))
        found |= 1 << v
        rest &= ~covers[v]
    # walk down while one pick fewer still hits; no hit is below the start
    allowed = full & ~fixed
    floor = start - fixed.bit_count()
    while (picks := found.bit_count() - 1) >= floor and (
        smaller := hit(unhit, allowed, picks)
    ) is not None:
        found = smaller
    witness = fixed | found
    size = witness.bit_count()
    left = found.bit_count()
    for v in range(n):
        if not left:
            break
        bit = 1 << v
        if not allowed & bit:
            continue
        # v is decided here, so no later root allows it
        allowed ^= bit
        if not witness & bit:
            # a hit holding v is a lex-lesser witness
            found = hit(unhit & ~covers[v], allowed, left - 1)
            if found is None:
                continue
            witness = fixed | bit | found
        fixed |= bit
        unhit &= ~covers[v]
        left -= 1
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
