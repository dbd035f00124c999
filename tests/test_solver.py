import random
from itertools import combinations

import pytest

from locdom.families import (
    complete_graph,
    constant_map,
    cycle_graph,
    identity_map,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
)
from locdom.functigraph import build_functigraph
from locdom.graph import Graph, VertexSet, bits, permute_graph, twin_partition
from locdom.solver import (
    info_lower_bound,
    is_locating_dominating,
    lambda_exact,
    lambda_oracle,
    trace,
    twin_lower_bound,
)


def naive_is_ld(g, members):
    """Reference predicate on plain frozensets, independent of the bitmask path."""
    inside = set(members)
    traces = []
    for u in range(g.n):
        if u in inside:
            continue
        t = frozenset(w for w in bits(g.adj[u]) if w in inside)
        if not t:
            return False
        traces.append(t)
    return len(traces) == len(set(traces))


def naive_lambda(g):
    for size in range(g.n + 1):
        for members in combinations(range(g.n), size):
            if naive_is_ld(g, members):
                return size, members
    raise AssertionError("unreachable")


def with_isolated_and_pendants(rng, g):
    """Append isolated vertices and pendants on random hosts, then relabel.

    A pendant's closed neighborhood has two elements without the pendant and
    its host being twins, which a twin test keyed on row size gets wrong.
    """
    isolated = rng.randint(0, 2)
    n = min(12, g.n + isolated + rng.randint(1, 3))
    edges = g.edges() + [(rng.randrange(p), p) for p in range(g.n + isolated, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return permute_graph(Graph.from_edges(n, edges), perm)


def all_connected(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    from locdom.graph import is_connected

    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(n, [pairs[j] for j in bits(mask)])
        if is_connected(g):
            yield g


class TestTrace:
    def test_complete(self):
        g = complete_graph(3)
        assert trace(g, VertexSet.of(3, [0, 1]), 2).members == (0, 1)

    def test_non_neighbor_gives_empty(self):
        g = path_graph(3)
        assert trace(g, VertexSet.of(3, [0]), 2).members == ()

    def test_inside_vertex_rejected(self):
        with pytest.raises(ValueError):
            trace(path_graph(3), VertexSet.of(3, [0]), 0)

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            trace(path_graph(3), VertexSet.of(4, [0]), 1)

    def test_star_constant_functigraph_missing_leaf(self):
        # star base, constant map onto the second-copy center: dropping all of
        # the last twin pair leaves the last second-copy leaf with empty trace
        n = 5
        fg = build_functigraph(star_graph(n), constant_map(n, 0))
        g = fg.graph
        partial = VertexSet.of(2 * n, list(range(1, n - 1)) + list(range(n + 1, 2 * n - 1)))
        assert trace(g, partial, 2 * n - 1).members == ()
        assert not is_locating_dominating(g, partial)
        full_leaves = VertexSet.of(2 * n, list(range(1, n)) + list(range(n + 1, 2 * n)))
        assert is_locating_dominating(g, full_leaves)
        assert len(full_leaves) == 2 * n - 2


class TestMembership:
    def test_complete_all_but_one(self):
        assert is_locating_dominating(complete_graph(4), VertexSet.of(4, [0, 1, 2]))

    def test_twins_share_a_trace(self):
        assert not is_locating_dominating(complete_graph(3), VertexSet.of(3, [0]))

    def test_constant_complete_witness(self):
        # all of copy one but its last vertex, all of copy two but the image
        # and the last vertex
        n = 5
        fg = build_functigraph(complete_graph(n), constant_map(n, 0))
        witness = VertexSet.of(2 * n, [0, 1, 2, 3, 6, 7, 8])
        assert is_locating_dominating(fg.graph, witness)

    def test_full_set_vacuous(self):
        g = path_graph(4)
        assert is_locating_dominating(g, VertexSet.of(4, range(4)))

    def test_empty_set_fails(self):
        assert not is_locating_dominating(path_graph(2), VertexSet.of(2))
        assert not is_locating_dominating(Graph.from_edges(1, []), VertexSet.of(1))

    def test_superset_closure_seeded(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8))
            base = VertexSet.of(g.n, [v for v in range(g.n) if rng.random() < 0.6])
            if not is_locating_dominating(g, base):
                continue
            hits += 1
            extra = [v for v in range(g.n) if rng.random() < 0.5]
            assert is_locating_dominating(g, base | VertexSet.of(g.n, extra))
        assert hits > 20

    def test_matches_naive_predicate(self):
        rng = random.Random(13)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.0, 1.0))
            members = [v for v in range(g.n) if rng.random() < 0.5]
            assert is_locating_dominating(g, VertexSet.of(g.n, members)) == naive_is_ld(
                g, members
            )


class TestLowerBounds:
    def test_info_values(self):
        assert info_lower_bound(6) == 3
        assert info_lower_bound(1) == 1
        assert info_lower_bound(4) == 2

    def test_info_is_minimal(self):
        for order in range(1, 80):
            s = info_lower_bound(order)
            assert order - s <= (1 << s) - 1
            if s > 0:
                assert order - (s - 1) > (1 << (s - 1)) - 1

    def test_info_rejects_zero(self):
        with pytest.raises(ValueError):
            info_lower_bound(0)

    def test_twin_bound_complete(self):
        for n in range(2, 7):
            assert twin_lower_bound(twin_partition(complete_graph(n))) == n - 1

    def test_twin_bound_star_functigraph(self):
        # two leaf twin classes of size n-1 remain after the constant map
        for n in (4, 5, 6):
            fg = build_functigraph(star_graph(n), constant_map(n, 0))
            assert twin_lower_bound(twin_partition(fg.graph)) == 2 * (n - 2)

    def test_twin_bound_path(self):
        assert twin_lower_bound(twin_partition(path_graph(5))) == 0


class TestLambdaExact:
    def test_frozen_values(self):
        assert lambda_exact(complete_graph(4)).lambda_ == 3
        assert lambda_exact(complete_graph(3)).lambda_ == 2
        assert lambda_exact(star_graph(4)).lambda_ == 3
        assert lambda_exact(cycle_graph(4)).lambda_ == 2
        assert lambda_exact(path_graph(3)).lambda_ == 2
        assert lambda_exact(Graph.from_edges(1, [])).lambda_ == 1

    def test_functigraph_values(self):
        fg = build_functigraph(path_graph(3), identity_map(3))
        assert lambda_exact(fg.graph).lambda_ == 3
        fg = build_functigraph(star_graph(6), constant_map(6, 0))
        assert lambda_exact(fg.graph).lambda_ == 10

    def test_path3_by_hand(self):
        # no single vertex works, some pair does
        g = path_graph(3)
        assert not any(naive_is_ld(g, (v,)) for v in range(3))
        assert any(naive_is_ld(g, pair) for pair in combinations(range(3), 2))
        assert lambda_exact(g).lambda_ == 2

    def test_witness_is_valid(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 9))
            res = lambda_exact(g)
            assert len(res.witness) == res.lambda_
            assert is_locating_dominating(g, res.witness)

    def test_matches_naive_search(self):
        rng = random.Random(31)
        graphs = [random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.9)) for _ in range(40)]
        for _ in range(40):
            core = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.8))
            graphs.append(with_isolated_and_pendants(rng, core))
        for g in graphs:
            expected = naive_lambda(g)
            for pruning in (True, False):
                res = lambda_exact(g, use_twin_pruning=pruning)
                assert (res.lambda_, res.witness.members) == expected

    def test_oracle_equivalence_exhaustive_n4(self):
        for g in all_connected(4):
            reference = lambda_oracle(g)
            for pruning in (True, False):
                res = lambda_exact(g, use_twin_pruning=pruning)
                assert (res.lambda_, res.witness) == (reference.lambda_, reference.witness)

    def test_deterministic_witness_is_lex_least(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 8))
            pruned = lambda_exact(g, deterministic_witness=True)
            reference = lambda_oracle(g)
            assert pruned.lambda_ == reference.lambda_
            # the oracle scans lexicographically, so its first hit is lex-least
            assert pruned.witness == reference.witness

    def test_pruned_first_hit_already_lex_least(self):
        rng = random.Random(41)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 8))
            assert lambda_exact(g).witness == lambda_exact(
                g, deterministic_witness=True
            ).witness

    def test_lower_bound_consistency(self):
        rng = random.Random(43)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(1, 9))
            res = lambda_exact(g)
            floor = max(
                info_lower_bound(g.n), twin_lower_bound(twin_partition(g))
            )
            assert res.lambda_ >= floor
            assert res.stats.pruned_cardinalities_skipped == floor

    def test_isomorphism_invariance(self):
        rng = random.Random(47)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 8))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert lambda_exact(permute_graph(g, perm)).lambda_ == lambda_exact(g).lambda_

    def test_stats_counts(self):
        res = lambda_exact(complete_graph(4))
        assert res.stats.sets_tested >= 1
        assert res.stats.elapsed >= 0.0


class TestLambdaOracle:
    def test_values(self):
        assert lambda_oracle(complete_graph(3)).lambda_ == 2
        assert lambda_oracle(star_graph(4)).lambda_ == 3

    def test_no_smaller_set_exists(self):
        g = star_graph(5)
        res = lambda_oracle(g)
        for members in combinations(range(g.n), res.lambda_ - 1):
            assert not naive_is_ld(g, members)

    def test_guard(self):
        with pytest.raises(ValueError):
            lambda_oracle(path_graph(25))
