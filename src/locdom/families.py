"""Generators for graph families, cross maps, and small-graph enumeration.

The labeling conventions matter: solver witnesses and twin cores are index
based, and the verification harness freezes expected values against these
exact layouts (star center at index 0, near-complete twin pairs at
{0,1}, {2,3}, ..., saturated block at the top indices).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterator, Sequence

from .functigraph import FunctionMap, Signature
from .graph import Graph, bits, check_order, is_connected

@dataclass(frozen=True)
class FamilySpec:
    kind: str
    n: int | None = None
    i: int | None = None
    t: int | None = None


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def star_graph(n: int) -> Graph:
    """Star on n vertices with the center at index 0."""
    if n < 2:
        raise ValueError("star graph needs n >= 2")
    return Graph.from_edges(n, ((0, v) for v in range(1, n)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path graph needs n >= 1")
    return Graph.from_edges(n, ((v, v + 1) for v in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    # C_1 and C_2 are not simple graphs, so the floor is 3
    if n < 3:
        raise ValueError("cycle graph needs n >= 3")
    return Graph.from_edges(n, ((v, (v + 1) % n) for v in range(n)))


def h_graph(n: int, i: int) -> Graph:
    """Complete graph on n vertices minus the i-edge matching (0,1), (2,3), ...

    Each removed edge turns its endpoints into a non-adjacent twin pair; the
    untouched vertices 2i..n-1 stay saturated. The pair (n, i) = (2, 1) is
    rejected because the result would have no edges at all.
    """
    if n < 2:
        raise ValueError("h_graph needs n >= 2")
    check_order(n)
    if not 1 <= i <= n // 2:
        raise ValueError(f"h_graph needs 1 <= i <= floor(n/2), got i={i}")
    if n == 2:
        raise ValueError("h_graph(2, 1) would be edgeless")
    g = complete_graph(n)
    adj = list(g.adj)
    for j in range(i):
        a, b = 2 * j, 2 * j + 1
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
    return Graph(n, tuple(adj))


def pendant_gap_graph(t: int) -> Graph:
    """Path 0-1-2 plus t-1 pendant vertices attached to vertex 0.

    Its location-domination number is t, and the functigraph under the
    constant map onto vertex 0 of the second copy doubles that to 2t.
    """
    if t < 2:
        raise ValueError("pendant gap graph needs t >= 2")
    edges = chain(((0, 1), (1, 2)), ((0, v) for v in range(3, t + 2)))
    return Graph.from_edges(t + 2, edges)


# kind -> its generator and the FamilySpec fields it takes, in argument order
_FAMILIES = (
    ("complete", complete_graph, ("n",)),
    ("star", star_graph, ("n",)),
    ("path", path_graph, ("n",)),
    ("cycle", cycle_graph, ("n",)),
    ("pendant_gap", pendant_gap_graph, ("t",)),
    ("h_graph", h_graph, ("n", "i")),
)
FAMILY_KINDS = tuple(kind for kind, _, _ in _FAMILIES)


def make_family(spec: FamilySpec) -> Graph:
    for kind, generator, fields in _FAMILIES:
        if kind == spec.kind:
            args = [getattr(spec, name) for name in fields]
            if None in args:
                noun = "parameters" if len(fields) > 1 else "parameter"
                raise ValueError(f"family {kind!r} needs {noun} {' and '.join(fields)}")
            return generator(*args)
    raise ValueError(f"unknown family kind {spec.kind!r}")


def constant_map(n: int, target: int) -> FunctionMap:
    if not 0 <= target < n:
        raise ValueError(f"constant target {target} out of range")
    return FunctionMap(n, (target,) * n)


def identity_map(n: int) -> FunctionMap:
    return FunctionMap(n, tuple(range(n)))


def permutation_map(targets: Sequence[int]) -> FunctionMap:
    if sorted(targets) != list(range(len(targets))):
        raise ValueError("targets do not form a permutation")
    return FunctionMap(len(targets), tuple(targets))


def signature_map(parts: Sequence[int]) -> FunctionMap:
    """Canonical map with the given preimage signature.

    Preimages are contiguous blocks: vertices [0, s_1) map to image 0, the
    next s_2 vertices to image 1, and so on. This is the labeling the
    closed-form predictions and their witness sets are stated in.
    """
    sig = Signature(tuple(parts))
    targets: list[int] = []
    for image, size in enumerate(sig.parts):
        targets.extend([image] * size)
    return FunctionMap(sig.n, tuple(targets))


def parse_map(spec: str, n: int) -> FunctionMap:
    """Map on an n-vertex base from its text form.

    The forms are ``identity``, ``constant:<v>``, ``perm:<list>`` (also
    spelled ``permutation:<list>``) and ``signature:<list>``, where a list is
    comma-separated integers. A permutation needs n entries, and signature
    parts must sum to n.
    """
    if spec == "identity":
        return identity_map(n)
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"bad map spec {spec!r}; expected kind:params or 'identity'")
    if kind == "constant":
        try:
            target = int(rest)
        except ValueError:
            raise ValueError(f"bad constant target {rest!r}") from None
        return constant_map(n, target)
    if kind not in ("perm", "permutation", "signature"):
        raise ValueError(f"unknown map kind {kind!r}")
    try:
        values = [int(x) for x in rest.split(",") if x != ""]
    except ValueError:
        raise ValueError(f"bad integer list {rest!r}") from None
    if kind == "signature":
        if sum(values) != n:
            raise ValueError(f"signature parts must sum to {n}")
        return signature_map(values)
    if len(values) != n:
        raise ValueError(f"permutation has {len(values)} entries, base order is {n}")
    return permutation_map(values)


def signatures(n: int) -> list[Signature]:
    """All signatures of n (integer partitions), in reverse-lexicographic order."""
    if n < 1:
        raise ValueError("signatures need n >= 1")
    out: list[Signature] = []
    prefix: list[int] = []

    def descend(remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(Signature(tuple(prefix)))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part)
            prefix.pop()

    descend(n, n)
    return out


def all_maps(n: int) -> Iterator[FunctionMap]:
    """Every one of the n**n maps on an n-vertex base, in target-tuple order."""
    for targets in product(range(n), repeat=n):
        yield FunctionMap(n, targets)


def _labeled_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs of an n-vertex graph, n <= 6; bit j of an edge mask is pair j."""
    if not 1 <= n <= 6:
        raise ValueError("labeled enumeration is limited to 1 <= n <= 6")
    return list(combinations(range(n), 2))


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices (2^C(n,2) of them); n <= 6."""
    pairs = _labeled_pairs(n)
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[j] for j in bits(mask)])


def nonisomorphic_connected_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices.

    The representative is the class's first graph in :func:`all_graphs` order.
    Edge masks are walked in that order; an unmarked mask opens a new class,
    and its whole orbit is then marked, so no other member of the class is
    ever built. The transposition of vertices 0 and 1 and the cycle
    v -> v + 1 (mod n) generate every relabeling, so the orbit is what a walk
    from the new mask reaches through the two, each read off a table that
    maps every edge mask to its image.
    """
    pairs = _labeled_pairs(n)
    index = {pair: j for j, pair in enumerate(pairs)}
    tables = []
    for perm in ([1, 0, *range(2, n)], [*range(1, n), 0]):
        # the masks whose highest edge is j are those below it plus that edge
        table = [0]
        for a, b in pairs:
            image = 1 << index[min(perm[a], perm[b]), max(perm[a], perm[b])]
            table += [t | image for t in table]
        tables.append(table)
    marked = bytearray(1 << len(pairs))
    out: list[Graph] = []
    for mask in range(len(marked)):
        if marked[mask]:
            continue
        g = Graph.from_edges(n, [pairs[j] for j in bits(mask)])
        if is_connected(g):
            out.append(g)
        marked[mask] = 1
        stack = [mask]
        while stack:
            m = stack.pop()
            for table in tables:
                image = table[m]
                if not marked[image]:
                    marked[image] = 1
                    stack.append(image)
    return out


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    for _ in range(10_000):
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g
    raise ValueError("failed to sample a connected graph; increase p")


def random_map_with_signature(rng: random.Random, parts: Sequence[int]) -> FunctionMap:
    """Uniformly scrambled map whose preimage signature equals ``parts``.

    Kept to drive the tests' signature-determinism properties.
    """
    sig = Signature(tuple(parts))
    n = sig.n
    vertices = list(range(n))
    rng.shuffle(vertices)
    images = rng.sample(range(n), sig.num_parts)
    targets = [0] * n
    at = 0
    for image, size in zip(images, sig.parts):
        for v in vertices[at : at + size]:
            targets[v] = image
        at += size
    return FunctionMap(n, tuple(targets))
