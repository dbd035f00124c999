"""Generators for graph families, cross maps, and small-graph enumeration.

The labeling conventions matter: solver witnesses and twin cores are index
based, and the verification harness freezes expected values against these
exact layouts (star center at index 0, near-complete twin pairs at
{0,1}, {2,3}, ..., saturated block at the top indices).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product
from operator import mul
from typing import Iterator, Sequence

from .functigraph import FunctionMap, Signature
from .graph import Graph, bits, check_order, is_connected

FAMILY_KINDS = ("complete", "star", "path", "cycle", "pendant_gap", "h_graph")


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
    check_order(n)
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path graph needs n >= 1")
    check_order(n)
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    # C_1 and C_2 are not simple graphs, so the floor is 3
    if n < 3:
        raise ValueError("cycle graph needs n >= 3")
    check_order(n)
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


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
    check_order(t + 2)
    edges = [(0, 1), (1, 2)] + [(0, 3 + j) for j in range(t - 1)]
    return Graph.from_edges(t + 2, edges)


def make_family(spec: FamilySpec) -> Graph:
    simple = {
        "complete": complete_graph,
        "star": star_graph,
        "path": path_graph,
        "cycle": cycle_graph,
    }
    if spec.kind in simple:
        if spec.n is None:
            raise ValueError(f"family {spec.kind!r} needs parameter n")
        return simple[spec.kind](spec.n)
    if spec.kind == "pendant_gap":
        if spec.t is None:
            raise ValueError("family 'pendant_gap' needs parameter t")
        return pendant_gap_graph(spec.t)
    if spec.kind == "h_graph":
        if spec.n is None or spec.i is None:
            raise ValueError("family 'h_graph' needs parameters n and i")
        return h_graph(spec.n, spec.i)
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


def connected_graphs(n: int) -> Iterator[Graph]:
    for g in all_graphs(n):
        if is_connected(g):
            yield g


def _least_code(g: Graph) -> tuple[tuple, list[list[int]]]:
    """Canonical key of ``g`` and every vertex order that attains it, in the
    order they are found.

    The key is ``(n, sorted degrees, code)``, where the code is the least
    adjacency code (upper triangle, row by row) over the vertex orders that
    list the vertices by degree. Regular graphs fall back to all
    permutations of their order.
    """
    n = g.n
    degree_of = [g.adj[v].bit_count() for v in range(n)]
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(degree_of[v], []).append(v)
    blocks = [groups[d] for d in sorted(groups)]
    best: int | None = None
    orders: list[list[int]] = []
    for choice in product(*(permutations(block) for block in blocks)):
        order = [v for block in choice for v in block]
        code = 0
        for a in range(n):
            row = g.adj[order[a]]
            for b in range(a + 1, n):
                code = code << 1 | (row >> order[b] & 1)
        if best is None or code < best:
            best = code
            orders = [order]
        elif code == best:
            orders.append(order)
    return (n, tuple(sorted(degree_of)), best), orders


def _carry(order: list[int], target: list[int]) -> list[int]:
    """The permutation that sends the vertex at each place of ``order`` to
    the vertex at that place of ``target``."""
    perm = [0] * len(order)
    for v, w in zip(order, target):
        perm[v] = w
    return perm


def canonical_form(g: Graph) -> tuple:
    """Isomorphism-invariant key: minimal adjacency code over degree-preserving
    relabelings. Intended for small graphs; regular graphs fall back to all
    permutations of their order.

    It serves callers and tests as an isomorphism key; class generation in
    :func:`nonisomorphic_connected_graphs` does not use it.
    """
    return _least_code(g)[0]


def automorphisms(g: Graph, orders: list[list[int]] | None = None) -> list[tuple[int, ...]]:
    """Every permutation ``perm`` with ``permute_graph(g, perm) == g``, the
    identity first. ``orders``, if given, is ``_least_code(g)[1]``.

    Two vertex orders that attain the canonical key put ``g`` in one layout,
    so carrying the first onto any other is an automorphism. Conversely an
    automorphism keeps degrees, so it moves the first order to another
    order of the search with the same code. Intended for small graphs, as
    ``canonical_form``.
    """
    orders = orders or _least_code(g)[1]
    return [tuple(_carry(orders[0], order)) for order in orders]


def map_orbits(
    g: Graph, orders: list[list[int]] | None = None
) -> tuple[list[tuple[int, ...]], list[tuple[int, int, int]]]:
    """The automorphisms of ``g`` and, for each map on its vertices in
    :func:`all_maps` order, ``(h0, i, j)``: the index of the first map of
    its orbit under f -> sigma f tau, for sigma and tau automorphisms, with
    the map equal to ``auts[j] h0 auts[i]^-1``. ``orders`` is as in
    :func:`automorphisms`.

    F(g, sigma f tau) is F(g, f) with its first copy moved by tau^-1 and its
    second by sigma, so the maps of one orbit give isomorphic functigraphs.
    On a complete graph the orbits are the preimage signatures. Intended for
    small graphs: every one of the n**n maps gets an entry.
    """
    n = g.n
    auts = automorphisms(g, orders)
    # sigma f tau with tau = rho^-1 sends rho[u] to sigma[f(u)], so its index
    # sums sigma[f(u)] times the place weight of rho[u]
    placed = [[n ** (n - 1 - v) for v in rho] for rho in auts]
    orbits: list = [None] * n**n
    for index, targets in enumerate(product(range(n), repeat=n)):
        if orbits[index] is None:
            images = [[sigma[t] for t in targets] for sigma in auts]
            for i, weights in enumerate(placed):
                for j, image in enumerate(images):
                    at = sum(map(mul, image, weights))
                    if orbits[at] is None:
                        orbits[at] = (index, i, j)
    return auts, orbits


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


def random_connected_graph(rng: random.Random, n: int, p: float | None = None) -> Graph:
    prob = 0.5 if p is None else p
    for _ in range(10_000):
        g = random_graph(rng, n, prob)
        if is_connected(g):
            return g
    raise ValueError("failed to sample a connected graph; increase p")


def random_map_with_signature(rng: random.Random, parts: Sequence[int]) -> FunctionMap:
    """Uniformly scrambled map whose preimage signature equals ``parts``."""
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
