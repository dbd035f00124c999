"""Simple undirected graphs on dense integer vertices.

Adjacency is stored as one int bitmask per vertex, which keeps the set
arithmetic of the exhaustive searches (neighborhood traces, unions,
complements) down to single machine-word operations at the orders this
package targets (at most 128 vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_ORDER = 128

ADJACENT_TWINS = "adjacent-twins"
NON_ADJACENT_TWINS = "non-adjacent-twins"
SINGLETON = "singleton"


def check_order(n: int) -> None:
    """Raise ``ValueError`` unless ``1 <= n <= MAX_ORDER``."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {n}")


def bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices ``[0, universe)`` of a fixed-order graph.

    Set algebra is done on masks: ``VertexSet(n, a.mask | b.mask)`` is the
    union of two sets of one universe, and the constructor rejects a mask
    with members outside its universe.
    """

    universe: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.universe < 0:
            raise ValueError("universe must be non-negative")
        if self.mask < 0 or self.mask >> self.universe:
            raise ValueError("vertex set has members outside its universe")

    @classmethod
    def of(cls, universe: int, members: Iterable[int] = ()) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < universe:
                raise ValueError(f"vertex {v} outside [0, {universe})")
            mask |= 1 << v
        return cls(universe, mask)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and bool(self.mask >> v & 1)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.adj) is not tuple:
            # a private copy, so no later change to the caller's list reaches it
            object.__setattr__(self, "adj", tuple(self.adj))
        check_order(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match the order")
        adj = self.adj
        full = (1 << self.n) - 1
        ends = mirrored = 0
        for u, row in enumerate(adj):
            if row < 0 or row & ~full:
                raise ValueError(f"neighbors of vertex {u} out of range")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
            ends += row.bit_count()
            # each edge is checked once, from its lower end
            row >>= u
            while row:
                low = row & -row
                row ^= low
                mirrored += adj[u + low.bit_length() - 1] >> u & 1
        # the mirrored entries above the diagonal have as many mirrors below
        # it, so the count holds only when those are all entries
        if ends != 2 * mirrored:
            for u, row in enumerate(adj):
                for v in bits(row):
                    if not adj[v] >> u & 1:
                        raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; rejects self-loops and duplicates.

        The order is checked before ``edges`` is read, so a generator of a
        too-large graph's edges is refused before any edge is built.
        """
        check_order(n)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    # kept for the tests, which read degrees through it; no package code calls it
    def degree(self, u: int) -> int:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range")
        return self.adj[u].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if v > u]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


@dataclass(frozen=True)
class TwinClass:
    vertices: VertexSet
    kind: str


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertices into maximal twin classes."""

    classes: tuple[TwinClass, ...]

    def __iter__(self) -> Iterator[TwinClass]:
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def _twin_classes(adj: Sequence[int]) -> list[int]:
    """Masks of the maximal twin classes of the graph with rows ``adj``, in
    order of smallest member.

    u and v are twins when ``N(u) = N(v)`` or ``N[u] = N[v]``. No N(u) equals
    an N[v]: v in N[v] = N(u) would put u in N[v] = N(u). So both kinds of
    key share one table, and a class is found by the key its first member
    stored.
    """
    classes: list[int] = []
    first: dict[int, int] = {}
    for v, a in enumerate(adj):
        bit = 1 << v
        i = first.get(a, first.get(a | bit))
        if i is None:
            first[a] = first[a | bit] = len(classes)
            classes.append(bit)
        else:
            classes[i] |= bit
    return classes


def twin_partition(g: Graph) -> TwinPartition:
    """Group vertices into maximal twin classes, in order of smallest member.

    A class of two or more holds adjacent twins when its lowest member is
    adjacent to the rest, else non-adjacent twins; a lone vertex is a singleton.
    """
    classes = []
    for mask in _twin_classes(g.adj):
        low = mask & -mask
        if mask == low:
            kind = SINGLETON
        elif g.adj[low.bit_length() - 1] & mask:
            kind = ADJACENT_TWINS
        else:
            kind = NON_ADJACENT_TWINS
        classes.append(TwinClass(VertexSet(g.n, mask), kind))
    return TwinPartition(tuple(classes))


def is_connected(g: Graph) -> bool:
    """True when the graph has a single connected component (order 1 counts)."""
    adj = g.adj
    seen = frontier = 1
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown |= adj[low.bit_length() - 1]
        frontier = grown & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def permute_graph(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices so old vertex ``v`` becomes ``perm[v]``."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex range")
    adj = [0] * g.n
    for u in range(g.n):
        row = 0
        for v in bits(g.adj[u]):
            row |= 1 << perm[v]
        adj[perm[u]] = row
    return Graph(g.n, tuple(adj))


def graph_to_json_dict(g: Graph) -> dict:
    """Canonical JSON form: ``{"n": ..., "edges": [[u, v], ...]}`` with u < v."""
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_json_dict(data: object) -> Graph:
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    if "n" not in data or "edges" not in data:
        raise ValueError('graph JSON needs "n" and "edges" fields')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError('"n" must be an integer')
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise ValueError('"edges" must be a list of [u, v] pairs')
    edges: list[tuple[int, int]] = []
    for item in raw_edges:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"bad edge entry {item!r}")
        u, v = item
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v)):
            raise ValueError(f"bad edge entry {item!r}")
        if u >= v:
            raise ValueError(f"edges must satisfy u < v, got [{u}, {v}]")
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def graph_from_edge_text(text: str) -> Graph:
    """Parse the plain edge-list format: one ``u v`` pair per line, ``#`` comments.

    The order is inferred as the largest mentioned index plus one, so isolated
    trailing vertices need the JSON form instead.
    """
    edges: list[tuple[int, int]] = []
    top = -1
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"expected a 'u v' pair, got {raw!r}")
        u, v = int(fields[0]), int(fields[1])
        if u < 0 or v < 0:
            raise ValueError(f"negative vertex index in {raw!r}")
        edges.append((u, v))
        top = max(top, u, v)
    if top < 0:
        raise ValueError("edge list is empty")
    return Graph.from_edges(top + 1, edges)
