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

from .graph import (
    Graph,
    check_order,
    graph_from_json_dict,
    graph_to_json_dict,
    is_connected,
)

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

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.targets)))

    @property
    def image_size(self) -> int:
        return len(set(self.targets))

    def preimage(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return tuple(u for u, t in enumerate(self.targets) if t == v)


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

    @property
    def base_order(self) -> int:
        return self.base.n

    def cross_edges(self) -> list[tuple[int, int]]:
        n = self.base.n
        return [(u, n + t) for u, t in enumerate(self.map.targets)]


def build_functigraph(base: Graph, fmap: FunctionMap) -> Functigraph:
    """Join two copies of ``base`` with the cross edges of ``fmap``.

    The result always has 2n vertices and 2|E| + n edges: cross edges run
    between the copies, so they can never coincide with a copy edge or with
    each other.

    The result is not validated again: it is valid by construction. Each of
    its rows is a row of the validated ``base`` or that row shifted by n,
    plus cross edges, and each cross edge (u, n + f(u)) with 0 <= f(u) < n
    is set in both of its rows. So every row is in range, has no self-loop
    and is mirrored once ``base`` and ``fmap`` have passed their own checks.
    Only the order 2n is checked here, since ``base`` may have up to
    ``MAX_ORDER`` vertices.
    """
    if fmap.n != base.n:
        raise ValueError("map length does not match the base order")
    if not is_connected(base):
        raise ValueError("functigraph construction requires a connected base graph")
    check_order(2 * base.n)
    return Functigraph(_join(_copies(base), _cross_rows(fmap)), base, fmap)


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


def _join(copies: tuple[int, ...], cross: list[int]) -> Graph:
    """The functigraph with rows ``copies`` ORed with ``cross``, unvalidated
    (see ``build_functigraph`` for why it is valid)."""
    # built at its final size through a list: ``tuple(map(...))`` grows a
    # smaller tuple, and the 2n-tuples it frees pile up in CPython's free list
    return Graph._trusted(len(copies), tuple([*map(or_, copies, cross)]))


def preimage_signature(fmap: FunctionMap) -> Signature:
    """Multiset of preimage sizes over the image, largest first."""
    counts = Counter(fmap.targets)
    return Signature(tuple(sorted(counts.values(), reverse=True)))


def functi_matchings(fmap: FunctionMap) -> list[tuple[int, int]]:
    """Cross edges (u, n + v) whose image vertex v has u as its only preimage.

    The number of such edges equals the number of unit parts of the map's
    preimage signature.
    """
    counts = Counter(fmap.targets)
    return [
        (fmap.targets.index(v), fmap.n + v) for v in sorted(counts) if counts[v] == 1
    ]


def classify(fmap: FunctionMap) -> FunctionClass:
    """Structural class of the map: constant, bijective, or mid-range by matchings."""
    sig = preimage_signature(fmap)
    k = sig.num_parts
    p = sig.num_unit_parts
    if k == 1:
        kind = CONSTANT
    elif k == fmap.n:
        kind = BIJECTIVE
    elif p == 0:
        kind = MID_NO_MATCHING
    else:
        kind = MID_WITH_MATCHING
    return FunctionClass(kind, k, p)


def functigraph_to_json_dict(fg: Functigraph) -> dict:
    return {"base": graph_to_json_dict(fg.base), "map": list(fg.map.targets)}


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
