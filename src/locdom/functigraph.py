"""Functigraphs: two copies of a base graph joined by the edges of a function.

For a connected base graph on n vertices, copy one occupies indices [0, n)
and copy two occupies [n, 2n); each copy-one vertex u gains the single cross
edge (u, n + f(u)). The map f is unrestricted: it need not be injective or
surjective.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import or_

from .graph import Graph, graph_from_json_dict, is_connected
from .solver import _constraint_rows

CONSTANT = "constant"
BIJECTIVE = "bijective"
MID_NO_MATCHING = "mid-no-matching"
MID_WITH_MATCHING = "mid-with-matching"


@dataclass(frozen=True)
class FunctionMap:
    """Map from copy-one vertices to copy-two vertices, as base-graph indices."""

    n: int
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.targets) is not tuple:
            # a private copy, so no later change to the caller's list reaches it
            object.__setattr__(self, "targets", tuple(self.targets))
        if self.n < 1:
            raise ValueError("base order must be at least 1")
        if len(self.targets) != self.n:
            raise ValueError("target list length must equal the base order")
        for u, t in enumerate(self.targets):
            if not isinstance(t, int) or isinstance(t, bool):
                raise ValueError(f"target of vertex {u} is not an integer")
            if not 0 <= t < self.n:
                raise ValueError(f"target of vertex {u} out of range")


@dataclass(frozen=True)
class Signature:
    """Preimage sizes over the image, as a non-increasing tuple of positive ints."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("signature must have at least one part")
        previous: int | None = None
        for part in self.parts:
            if not isinstance(part, int) or isinstance(part, bool) or part < 1:
                raise ValueError("signature parts must be positive integers")
            if previous is not None and part > previous:
                raise ValueError("signature parts must be non-increasing")
            previous = part

    @property
    def n(self) -> int:
        """Base order the signature describes (the sum of its parts)."""
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def num_unit_parts(self) -> int:
        """Number of size-1 parts; each one is a functi matching of the built graph."""
        return sum(1 for part in self.parts if part == 1)


@dataclass(frozen=True)
class FunctionClass:
    kind: str
    image_size: int
    matching_count: int


@dataclass(frozen=True)
class Functigraph:
    graph: Graph
    base: Graph
    map: FunctionMap


def build_functigraph(base: Graph, fmap: FunctionMap) -> Functigraph:
    """Join two copies of ``base`` with the cross edges of ``fmap``.

    The result always has 2n vertices and 2|E| + n edges: cross edges run
    between the copies, so they can never coincide with a copy edge or with
    each other.
    """
    if fmap.n != base.n:
        raise ValueError("map length does not match the base order")
    if not is_connected(base):
        raise ValueError("functigraph construction requires a connected base graph")
    rows = tuple(map(or_, _copies(base), _cross_rows(fmap)))
    return Functigraph(Graph(2 * base.n, rows), base, fmap)


def _copies(base: Graph) -> tuple[int, ...]:
    """The 2n rows of two copies of ``base``, with no cross edge."""
    return base.adj + tuple(row << base.n for row in base.adj)


def _cross_rows(fmap: FunctionMap) -> list[int]:
    """The 2n rows of the cross edges of ``fmap`` alone: each (u, n + f(u))
    is set in both of its rows."""
    n = fmap.n
    rows = [1 << n + t for t in fmap.targets] + [0] * n
    for u, t in enumerate(fmap.targets):
        rows[n + t] |= 1 << u
    return rows


def _base_parts(base: Graph) -> list[int]:
    """The base parts of the constraint rows of every functigraph of ``base``.

    The copy rows C and cross rows X of a functigraph have disjoint supports,
    so its rows are C ^ X and each constraint row of ``solver`` is the XOR of
    a base part and the map part of ``_map_parts`` at the same index: N[v]
    is (C[v] | 1 << v) ^ X[v], and the pair row of u < v, with p their two
    bits, is (p | C[u] ^ C[v]) ^ ((X[u] ^ X[v]) & ~p). The vertex rows come
    first, then the pairs in (u, v) order: the base parts are the
    ``solver._constraint_rows`` of the two copies alone.
    """
    return _constraint_rows(_copies(base))


def _map_parts(fmap: FunctionMap) -> list[int]:
    """The map parts of the constraint rows of every functigraph under
    ``fmap``, matching ``_base_parts`` index by index."""
    rows = _cross_rows(fmap)
    # one comprehension over all pairs, as in ``solver._constraint_rows``
    return rows + [
        (ru ^ rows[v]) & ~(1 << u | 1 << v)
        for u, ru in enumerate(rows)
        for v in range(u + 1, len(rows))
    ]


def preimage_signature(fmap: FunctionMap) -> Signature:
    """Multiset of preimage sizes over the image, largest first."""
    counts = Counter(fmap.targets)
    return Signature(tuple(sorted(counts.values(), reverse=True)))


def _map_class(sig: Signature) -> str:
    """Class of every map with preimage signature ``sig``: constant, bijective,
    or mid-range with or without a functi matching (a unit part)."""
    k = sig.num_parts
    if k == 1:
        return CONSTANT
    if k == sig.n:
        return BIJECTIVE
    return MID_WITH_MATCHING if sig.num_unit_parts else MID_NO_MATCHING


def classify(fmap: FunctionMap) -> FunctionClass:
    """Structural class of the map: constant, bijective, or mid-range by matchings."""
    sig = preimage_signature(fmap)
    return FunctionClass(_map_class(sig), sig.num_parts, sig.num_unit_parts)


def functigraph_from_json_dict(data: object) -> Functigraph:
    if not isinstance(data, dict):
        raise ValueError("functigraph JSON must be an object")
    if "base" not in data or "map" not in data:
        raise ValueError('functigraph JSON needs "base" and "map" fields')
    base = graph_from_json_dict(data["base"])
    raw_map = data["map"]
    if not isinstance(raw_map, list):
        raise ValueError('"map" must be a list of integers')
    return build_functigraph(base, FunctionMap(base.n, tuple(raw_map)))
