"""Simple undirected graphs on dense integer vertices.

Adjacency is stored as one int bitmask per vertex, which keeps the set
arithmetic of the exhaustive searches (neighborhood traces, unions,
complements) down to single machine-word operations at the orders this
package targets (at most 128 vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
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


@total_ordering
@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices ``[0, universe)`` of a fixed-order graph.

    Comparisons order sets lexicographically by their sorted member tuples,
    the tie-break order used for solver witnesses. Subset queries go through
    :meth:`issubset`; ``|``, ``&`` and ``-`` work as for built-in sets.
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

    def __lt__(self, other: "VertexSet") -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.members < other.members

    def _require_same_universe(self, other: "VertexSet") -> None:
        if self.universe != other.universe:
            raise ValueError("vertex sets belong to different universes")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._require_same_universe(other)
        return VertexSet(self.universe, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._require_same_universe(other)
        return VertexSet(self.universe, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._require_same_universe(other)
        return VertexSet(self.universe, self.mask & ~other.mask)

    def complement(self) -> "VertexSet":
        return VertexSet(self.universe, ~self.mask & ((1 << self.universe) - 1))

    def issubset(self, other: "VertexSet") -> bool:
        self._require_same_universe(other)
        return self.mask & ~other.mask == 0


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        check_order(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match the order")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row < 0 or row & ~full:
                raise ValueError(f"neighbors of vertex {u} out of range")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
        # full symmetry scan; constructors must never produce a directed pair
        for u in range(self.n):
            for v in bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; rejects self-loops and duplicates."""
        check_order(n)
        adj = [0] * n
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

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


def neighborhood(g: Graph, u: int, closed: bool = False) -> VertexSet:
    """Open neighborhood of ``u``, or the closed one (``u`` included)."""
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range for order {g.n}")
    mask = g.adj[u] | (1 << u if closed else 0)
    return VertexSet(g.n, mask)


def twin_partition(g: Graph) -> TwinPartition:
    """Group vertices into maximal twin classes.

    Vertices sharing a closed neighborhood form adjacent-twin classes; the
    remaining vertices sharing an open neighborhood form non-adjacent-twin
    classes; everything else is a singleton. In a simple graph no pair can
    satisfy both relations, so testing the adjacent relation first only
    shapes the scan, not the result. Classes are reported in order of their
    smallest member.
    """
    by_closed: dict[int, list[int]] = {}
    for v in range(g.n):
        by_closed.setdefault(g.adj[v] | 1 << v, []).append(v)
    grouped: list[tuple[list[int], str]] = []
    rest: list[int] = []
    for group in by_closed.values():
        if len(group) >= 2:
            grouped.append((group, ADJACENT_TWINS))
        else:
            rest.append(group[0])
    by_open: dict[int, list[int]] = {}
    for v in rest:
        by_open.setdefault(g.adj[v], []).append(v)
    for group in by_open.values():
        grouped.append((group, NON_ADJACENT_TWINS if len(group) >= 2 else SINGLETON))
    grouped.sort(key=lambda entry: entry[0][0])
    return TwinPartition(
        tuple(TwinClass(VertexSet.of(g.n, members), kind) for members, kind in grouped)
    )


def is_connected(g: Graph) -> bool:
    """True when the graph has a single connected component (order 1 counts)."""
    seen = 1
    frontier = 1
    while frontier:
        grown = 0
        for v in bits(frontier):
            grown |= g.adj[v]
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
