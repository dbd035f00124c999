import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdom.graph import (
    ADJACENT_TWINS,
    NON_ADJACENT_TWINS,
    SINGLETON,
    Graph,
    VertexSet,
    bits,
    graph_from_edge_text,
    graph_from_json_dict,
    graph_to_json_dict,
    is_connected,
    permute_graph,
    twin_partition,
)
from locdom.families import complete_graph, path_graph, random_graph, star_graph


# independent reference implementations, kept on plain Python sets

def nbr_sets(g):
    return [set(bits(g.adj[v])) for v in range(g.n)]


def naive_connected(g):
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in bits(g.adj[v]):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def twin_kind(g, u, v):
    nbrs = nbr_sets(g)
    if nbrs[u] | {u} == nbrs[v] | {v}:
        return ADJACENT_TWINS
    if nbrs[u] == nbrs[v]:
        return NON_ADJACENT_TWINS
    return None


def first_fault(n, adj):
    """Message of the first range, self-loop or asymmetry fault in row order."""
    for u, row in enumerate(adj):
        if not 0 <= row < 1 << n:
            return f"neighbors of vertex {u} out of range"
        if row >> u & 1:
            return f"self-loop at vertex {u}"
    for u in range(n):
        for v in range(n):
            if adj[u] >> v & 1 and not adj[v] >> u & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


@st.composite
def hostile_rows(draw):
    """Arbitrary rows, or a symmetric graph with a few entries flipped."""
    n = draw(st.integers(1, 10))
    row = st.integers(-1, (1 << n + 1) - 1)
    if draw(st.booleans()):
        return n, tuple(draw(st.lists(row, min_size=n, max_size=n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    adj = [0] * n
    for u, v in draw(st.sets(pair)):
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    for u, v in draw(st.lists(pair, max_size=3)):
        adj[u] ^= 1 << v
    return n, tuple(adj)


def small_graph_corpus():
    graphs = []
    for n in range(1, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            graphs.append(Graph.from_edges(n, [pairs[j] for j in bits(mask)]))
    rng = random.Random(7)
    for _ in range(60):
        graphs.append(random_graph(rng, rng.randint(5, 9), rng.uniform(0.1, 0.9)))
    return graphs


class TestVertexSet:
    def test_members_and_len(self):
        s = VertexSet.of(6, [4, 1, 2])
        assert s.members == (1, 2, 4)
        assert len(s) == 3
        assert list(s) == [1, 2, 4]
        assert 2 in s and 3 not in s and 6 not in s

    def test_algebra(self):
        # set algebra is done on masks and wrapped in a set of the same universe
        a = VertexSet.of(5, [0, 1, 3])
        b = VertexSet.of(5, [1, 2])
        assert VertexSet(5, a.mask | b.mask).members == (0, 1, 2, 3)
        assert VertexSet(5, a.mask & b.mask).members == (1,)
        assert VertexSet(5, a.mask & ~b.mask).members == (0, 3)

    def test_universe_mismatch(self):
        # a mask from a larger universe does not fit a smaller one
        with pytest.raises(ValueError, match="outside its universe"):
            VertexSet(3, VertexSet.of(3, [0]).mask | VertexSet.of(4, [3]).mask)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSet.of(3, [3])
        with pytest.raises(ValueError):
            VertexSet(3, 1 << 3)

    @settings(max_examples=200, deadline=None)
    @given(
        u=st.integers(1, 10),
        data=st.data(),
    )
    def test_algebra_matches_builtin_sets(self, u, data):
        xs = data.draw(st.lists(st.integers(0, u - 1), max_size=u))
        ys = data.draw(st.lists(st.integers(0, u - 1), max_size=u))
        a, b = VertexSet.of(u, xs), VertexSet.of(u, ys)
        sa, sb = set(xs), set(ys)
        assert set(VertexSet(u, a.mask | b.mask)) == sa | sb
        assert set(VertexSet(u, a.mask & b.mask)) == sa & sb
        assert set(VertexSet(u, a.mask & ~b.mask)) == sa - sb
        assert len(a) == len(sa)
        assert all((v in a) == (v in sa) for v in range(-1, u + 1))


class TestGraphConstruction:
    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (2, 1)])
        assert g.degree(1) == 2
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.edge_count == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            Graph.from_edges(0, [])
        with pytest.raises(ValueError):
            Graph.from_edges(129, [])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError, match="between 0 and 1"):
            Graph(2, (0b10, 0b00))
        # visible only from the higher vertex's row
        with pytest.raises(ValueError, match="between 2 and 0"):
            Graph(3, (0b010, 0b101, 0b011))

    def test_keeps_a_private_copy_of_list_rows(self):
        rows = [0b010, 0b101, 0b010]
        g = Graph(3, rows)
        rows[2] = 0b100  # would be a self-loop
        assert g.adj == (0b010, 0b101, 0b010)
        assert g == path_graph(3)
        assert hash(g) == hash(path_graph(3))

    def test_keeps_a_tuple_as_given(self):
        rows = (0b010, 0b101, 0b010)
        assert Graph(3, rows).adj is rows

    @settings(max_examples=400, deadline=None)
    @given(hostile_rows())
    def test_rejects_exactly_the_faulty_rows(self, case):
        n, adj = case
        fault = first_fault(n, adj)
        if fault is None:
            assert Graph(n, adj).adj == adj
        else:
            with pytest.raises(ValueError) as caught:
                Graph(n, adj)
            assert str(caught.value) == fault


class TestTwinPartition:
    def test_star(self):
        part = twin_partition(star_graph(5))
        layout = {(cls.vertices.members, cls.kind) for cls in part}
        assert layout == {((0,), SINGLETON), ((1, 2, 3, 4), NON_ADJACENT_TWINS)}

    def test_complete(self):
        part = twin_partition(complete_graph(4))
        assert len(part) == 1
        (cls,) = part.classes
        assert cls.vertices.members == (0, 1, 2, 3)
        assert cls.kind == ADJACENT_TWINS

    def test_path_has_no_twins(self):
        part = twin_partition(path_graph(5))
        assert all(cls.kind == SINGLETON for cls in part)
        # direct pairwise comparison oracle
        for u in range(5):
            for v in range(u + 1, 5):
                assert twin_kind(path_graph(5), u, v) is None

    def test_matches_pairwise_oracle_on_corpus(self):
        for g in small_graph_corpus():
            part = twin_partition(g)
            covered = sorted(v for cls in part for v in cls.vertices.members)
            assert covered == list(range(g.n))
            where = {}
            for idx, cls in enumerate(part.classes):
                if len(cls.vertices) >= 2:
                    assert cls.kind in (ADJACENT_TWINS, NON_ADJACENT_TWINS)
                else:
                    assert cls.kind == SINGLETON
                for v in cls.vertices:
                    where[v] = idx
                # defining equality holds literally inside every class
                members = cls.vertices.members
                for a in members:
                    for b in members:
                        if a < b:
                            assert twin_kind(g, a, b) == cls.kind
            # completeness: every twin pair ends up in one class
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if twin_kind(g, u, v) is not None:
                        assert where[u] == where[v]

    def test_deterministic(self):
        g = star_graph(6)
        assert twin_partition(g) == twin_partition(g)

    def test_relabeling_invariance(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            perm = list(range(g.n))
            rng.shuffle(perm)
            before = {
                (frozenset(perm[v] for v in cls.vertices), cls.kind)
                for cls in twin_partition(g)
            }
            after = {
                (frozenset(cls.vertices.members), cls.kind)
                for cls in twin_partition(permute_graph(g, perm))
            }
            assert before == after


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path_graph(5))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(Graph.from_edges(1, []))

    def test_matches_naive_on_corpus(self):
        for g in small_graph_corpus():
            assert is_connected(g) == naive_connected(g)


class TestPermute:
    def test_roundtrip(self):
        g = star_graph(5)
        perm = [4, 0, 1, 2, 3]
        inverse = [perm.index(v) for v in range(5)]
        assert permute_graph(permute_graph(g, perm), inverse) == g

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_graph(path_graph(3), [0, 0, 1])


class TestSerialization:
    def test_json_roundtrip(self):
        g = star_graph(4)
        d = graph_to_json_dict(g)
        assert d == {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}
        assert graph_from_json_dict(json.loads(json.dumps(d))) == g

    def test_json_requires_u_less_than_v(self):
        with pytest.raises(ValueError):
            graph_from_json_dict({"n": 3, "edges": [[1, 0]]})

    def test_json_rejects_duplicates(self):
        with pytest.raises(ValueError):
            graph_from_json_dict({"n": 3, "edges": [[0, 1], [0, 1]]})

    def test_json_shape_errors(self):
        for bad in (
            [],
            {"n": 3},
            {"edges": []},
            {"n": "3", "edges": []},
            {"n": 3, "edges": [[0]]},
            {"n": 3, "edges": [[0, True]]},
        ):
            with pytest.raises(ValueError):
                graph_from_json_dict(bad)

    def test_edge_text(self):
        g = graph_from_edge_text("# a triangle\n0 1\n1 2 # last\n\n0 2\n")
        assert g == complete_graph(3)

    def test_edge_text_errors(self):
        with pytest.raises(ValueError):
            graph_from_edge_text("# nothing\n")
        with pytest.raises(ValueError):
            graph_from_edge_text("0 1 2\n")
