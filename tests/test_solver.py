import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdom import solver, theorems
from locdom.families import (
    all_graphs,
    complete_graph,
    constant_map,
    cycle_graph,
    identity_map,
    path_graph,
    random_connected_graph,
    random_graph,
    signature_map,
    signatures,
    star_graph,
)
from locdom.functigraph import FunctionMap, Signature, build_functigraph
from locdom.graph import Graph, VertexSet, bits, is_connected, permute_graph, twin_partition
from locdom.solver import (
    _block_bound,
    _constraint_rows,
    _fold_layer,
    _tables,
    info_lower_bound,
    is_locating_dominating,
    lambda_exact,
    lambda_oracle,
    twin_lower_bound,
)
from locdom.theorems import VerifyConfig, predicted_lambda_complete, verify_suite


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


def start_bound(g):
    """``lambda_exact``'s start bound from the definitions: the counting
    bound, the degree bound ``ceil(2n / (Δ + 3))``, and the twin core taken
    pairwise plus ``_block_bound`` over the rows of four the core misses."""
    adj = g.adj
    core = {
        u
        for u, v in combinations(range(g.n), 2)
        if adj[u] == adj[v] or adj[u] | 1 << u == adj[v] | 1 << v
    }
    mask = sum(1 << u for u in core)
    # a pair row without a common neighbor is implied, so the search leaves it out
    rows = {adj[v] | 1 << v for v in range(g.n)}
    rows |= {
        1 << u | 1 << v | adj[u] ^ adj[v]
        for u, v in combinations(range(g.n), 2)
        if adj[u] & adj[v]
    }
    quads = sorted(row for row in rows if row.bit_count() == 4 and not row & mask)
    degree = max(a.bit_count() for a in adj)
    return max(
        info_lower_bound(g.n), -(-2 * g.n // (degree + 3)), len(core) + _block_bound(quads, rows)
    )


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


def with_small_components(rng, g):
    """Append K2 components and an isolated pair, then relabel.

    Twins there have no common neighbor, so their pair rows are implied and
    left out of the search; the twin core must still count them.
    """
    k2 = rng.randint(0, 2)
    n = g.n + 2 * k2 + 2
    edges = g.edges() + [(g.n + 2 * i, g.n + 2 * i + 1) for i in range(k2)]
    perm = list(range(n))
    rng.shuffle(perm)
    return permute_graph(Graph.from_edges(n, edges), perm)


@st.composite
def small_graphs(draw):
    """Graphs with n <= 10 of any density, with isolated vertices and K2
    components mixed in by a drawn relabeling."""
    k2 = draw(st.integers(0, 2))
    isolated = draw(st.integers(0, 2))
    main = draw(st.integers(0 if k2 or isolated else 1, 10 - 2 * k2 - isolated))
    pairs = list(combinations(range(main), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if draw(st.booleans()):
        edges = set(pairs) - edges
    n = main + 2 * k2 + isolated
    edges |= {(main + 2 * i, main + 2 * i + 1) for i in range(k2)}
    g = Graph.from_edges(n, sorted(edges))
    return permute_graph(g, draw(st.permutations(range(n))))


@st.composite
def mid_graphs(draw):
    """Graphs with 11 <= n <= 14 of any density."""
    n = draw(st.integers(11, 14))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs)))
    if draw(st.booleans()):
        edges = set(pairs) - edges
    return Graph.from_edges(n, sorted(edges))


def pinned_graphs():
    """Graphs of order 13 to 40, most past what the oracle checks in tier-1 time."""
    rng = random.Random(61)
    graphs = [cycle_graph(n) for n in (13, 17, 22, 29, 35, 40)]
    graphs += [path_graph(n) for n in (14, 19, 26, 33, 40)]
    graphs += [build_functigraph(complete_graph(n), identity_map(n)).graph
               for n in (7, 9, 12, 15, 18, 20)]
    graphs += [build_functigraph(path_graph(n), identity_map(n)).graph for n in (7, 9, 11, 13, 15)]
    graphs += [random_graph(rng, rng.randint(13, 40), rng.uniform(0.08, 0.6)) for _ in range(10)]
    graphs += [random_connected_graph(rng, rng.randint(13, 40)) for _ in range(8)]
    return graphs


class TestTrace:
    def test_star_constant_functigraph_missing_leaf(self):
        # star base, constant map onto the second-copy center: dropping all of
        # the last twin pair leaves the last second-copy leaf with empty trace
        n = 5
        fg = build_functigraph(star_graph(n), constant_map(n, 0))
        g = fg.graph
        partial = VertexSet.of(2 * n, list(range(1, n - 1)) + list(range(n + 1, 2 * n - 1)))
        # the trace of a vertex outside L is its open neighborhood within L
        assert not g.adj[2 * n - 1] & partial.mask
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

    def test_universe_mismatch(self):
        with pytest.raises(ValueError, match="does not match the graph order"):
            is_locating_dominating(path_graph(3), VertexSet.of(4, [0]))

    def test_superset_closure_seeded(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8))
            base = VertexSet.of(g.n, [v for v in range(g.n) if rng.random() < 0.6])
            if not is_locating_dominating(g, base):
                continue
            hits += 1
            extra = VertexSet.of(g.n, [v for v in range(g.n) if rng.random() < 0.5]).mask
            assert is_locating_dominating(g, VertexSet(g.n, base.mask | extra))
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
            res = lambda_exact(g)
            assert (res.lambda_, res.witness.members) == expected

    def test_oracle_equivalence_exhaustive_n4(self):
        for g in filter(is_connected, all_graphs(4)):
            reference = lambda_oracle(g)
            res = lambda_exact(g)
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

    def test_positional_flag_is_rejected(self):
        # ``deterministic_witness`` is keyword-only, so a positional flag
        # raises instead of binding to it silently
        with pytest.raises(TypeError):
            lambda_exact(path_graph(3), False)

    def test_lower_bound_consistency(self):
        rng = random.Random(43)
        graphs = [random_connected_graph(rng, rng.randint(1, 9)) for _ in range(40)]
        graphs += [Graph.from_edges(2, []), Graph.from_edges(2, [(0, 1)])]
        for _ in range(40):
            core = random_connected_graph(rng, rng.randint(1, 7))
            graphs.append(with_small_components(rng, core))
        for g in graphs:
            res = lambda_exact(g)
            floor = max(
                info_lower_bound(g.n), twin_lower_bound(twin_partition(g))
            )
            start = res.stats.pruned_cardinalities_skipped
            assert floor <= start == start_bound(g) <= lambda_oracle(g).lambda_ == res.lambda_
        # the start bound against the twin core taken straight from the
        # pairwise definition: every u with a v > u of N(u) = N(v) or N[u] = N[v]
        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        graphs += [random_graph(rng, rng.randint(1, 16), rng.random()) for _ in range(200)]
        for _ in range(200):
            core = random_graph(rng, rng.randint(1, 9), rng.random())
            graphs.append(with_isolated_and_pendants(rng, core))
        for g in graphs:
            twin_core = {
                u
                for u, v in combinations(range(g.n), 2)
                if g.adj[u] == g.adj[v] or g.adj[u] | 1 << u == g.adj[v] | 1 << v
            }
            start = lambda_exact(g).stats.pruned_cardinalities_skipped
            assert max(info_lower_bound(g.n), len(twin_core)) <= start == start_bound(g)
            assert start <= lambda_oracle(g).lambda_

    def test_lex_extraction_matches_oracle(self):
        # the refuted-subproblem table answers lookups on C13 to C18, P10 and P15
        graphs = [build_functigraph(complete_graph(n), identity_map(n)).graph for n in range(3, 10)]
        graphs += [cycle_graph(n) for n in range(5, 19)]
        graphs += [path_graph(10), path_graph(15)]
        # the twin core of K_n hits every row, and on K_n and the stars the
        # greedy set is already the lex-least witness, so the search has
        # little or nothing left to do
        graphs += [family(n) for family in (complete_graph, star_graph) for n in range(13, 17)]
        for g in graphs:
            reference = lambda_oracle(g)
            res = lambda_exact(g)
            assert (res.lambda_, res.witness) == (reference.lambda_, reference.witness)

    def test_solved_subproblems_are_not_refuted(self):
        # a table that also stored solved subproblems refutes a solvable one
        # on each of these and misses the lex-least witness
        graphs = [
            Graph.from_edges(14, [(0, 1), (0, 2), (0, 6), (0, 8), (0, 10), (2, 3), (2, 4),
                                  (2, 9), (2, 12), (4, 10), (5, 12), (5, 13), (7, 10),
                                  (8, 9), (9, 10), (9, 11), (11, 12)]),
            Graph.from_edges(11, [(0, 9), (0, 10), (1, 8), (2, 7), (2, 9), (3, 4), (3, 8),
                                  (4, 6), (4, 7), (4, 9), (5, 7), (5, 8), (5, 9), (7, 10)]),
            Graph.from_edges(11, [(0, 5), (0, 7), (0, 8), (0, 10), (1, 2), (1, 5), (1, 6),
                                  (1, 7), (1, 8), (1, 10), (2, 8), (2, 9), (2, 10), (3, 8),
                                  (4, 9), (6, 7), (7, 9), (7, 10)]),
            Graph.from_edges(12, [(0, 5), (0, 8), (0, 10), (1, 10), (1, 11), (2, 4), (2, 6),
                                  (3, 5), (4, 5), (5, 10), (8, 9), (8, 11)]),
        ]
        for g in graphs:
            reference = lambda_oracle(g)
            res = lambda_exact(g)
            assert (res.lambda_, res.witness) == (reference.lambda_, reference.witness)

    def test_larger_values(self):
        assert lambda_exact(cycle_graph(30)).lambda_ == 12
        for n in (14, 18, 20, 24, 32):
            g = build_functigraph(complete_graph(n), identity_map(n)).graph
            res = lambda_exact(g)
            assert res.lambda_ == predicted_lambda_complete(n, Signature((1,) * n))
            assert len(res.witness) == res.lambda_
            assert is_locating_dominating(g, res.witness)
            if n == 14:
                # without the refuted-subproblem table this takes 68,324 nodes
                assert res.stats.sets_tested < 10_000
        # Slater's value for both is ceil(2n / 5)
        for g in (cycle_graph(60), path_graph(60)):
            res = lambda_exact(g)
            assert res.lambda_ == 24
            assert is_locating_dominating(g, res.witness)
        res = lambda_exact(build_functigraph(complete_graph(16), identity_map(16)).graph)
        # 2,762 nodes when the size loop climbed from the start bound
        assert res.stats.sets_tested < 1_000
        # 13,696 nodes when the size loop climbed from the start bound
        assert lambda_exact(cycle_graph(40)).stats.sets_tested < 2_000

    def test_cleared_refuted_table_keeps_answers(self, monkeypatch):
        # 1 byte holds one entry of each table, so every store clears it;
        # 300 bytes hold about three refuted entries, so that table is cleared
        # up to 20 times per solve; at 2,000 it is cleared twice on the P9
        # and C9 identity functigraphs, and a lookup skipping one pick too
        # early changes a witness of C18. The part memo shares the budget at
        # 116 bytes or more an entry, so it is cleared on most new parts at
        # 300 and up to 12 times a solve at 2,000. The node counts are those
        # of the same search without the memo: clearing the memo must not
        # move a refuted-table clearing or change any node
        graphs = [build_functigraph(complete_graph(n), identity_map(n)).graph for n in (8, 9)]
        graphs += [cycle_graph(n) for n in range(15, 19)]
        graphs += [build_functigraph(g, identity_map(9)).graph
                   for g in (path_graph(9), cycle_graph(9))]
        references = [lambda_oracle(g) for g in graphs]
        nodes = {
            1: [13, 15, 40, 84, 110, 171, 354, 313],
            300: [13, 15, 34, 78, 95, 153, 354, 313],
            2_000: [13, 15, 34, 48, 59, 63, 354, 313],
        }
        for budget, counts in nodes.items():
            monkeypatch.setattr(solver, "REFUTED_BUDGET", budget)
            for g, reference, count in zip(graphs, references, counts):
                res = lambda_exact(g)
                assert (res.lambda_, res.witness) == (reference.lambda_, reference.witness)
                assert res.stats.sets_tested == count

    def test_overwritten_refuted_keys_count_once(self, monkeypatch):
        # the C11 identity functigraph has 66 rows, so 27,000 bytes hold 281
        # refuted entries; one of its 288 stores overwrites a key. Cleared on
        # its entry count, the table is cleared once, at store 283, late
        # enough to keep the nodes of an unbounded table; a byte counter that
        # counts the overwriting store twice clears it at store 282, at 280
        # entries, and costs 12 nodes
        g = build_functigraph(cycle_graph(11), identity_map(11)).graph
        monkeypatch.setattr(solver, "REFUTED_BUDGET", 1 << 60)
        unbounded = lambda_exact(g)
        monkeypatch.setattr(solver, "REFUTED_BUDGET", 27_000)
        res = lambda_exact(g)
        assert (res.lambda_, res.witness) == (unbounded.lambda_, unbounded.witness)
        assert res.stats.sets_tested == unbounded.stats.sets_tested == 1_430

    def test_node_counts_are_pinned(self):
        # search nodes of the benchmark's solve ladder and of three harder
        # solves, equal to those of the same search without the part memo;
        # a change here changed the search, not just its cost
        def identity_functigraph(g):
            return build_functigraph(g, identity_map(g.n)).graph

        cases = [
            (cycle_graph(22), 97),
            (path_graph(22), 146),
            (identity_functigraph(complete_graph(11)), 19),
            (random_connected_graph(random.Random(0), 24, 0.15), 958),
            (identity_functigraph(complete_graph(10)), 17),
            (identity_functigraph(path_graph(20)), 18_676),
            (random_connected_graph(random.Random(0), 40), 17_753),
            (identity_functigraph(complete_graph(32)), 61),
        ]
        assert [lambda_exact(g).stats.sets_tested for g, _ in cases] == [
            count for _, count in cases
        ]

    def test_random_node_counts_are_pinned(self):
        # (value, witness, nodes) of 240 seeded random graphs. They reach
        # two-pick nodes that pack one part and two, and first picks whose
        # last pick the second part cannot give; a new digest means the
        # search changed, not just its cost
        rng = random.Random(5)
        key = []
        for i in range(240):
            g = random_graph(rng, rng.randint(8, 22), (0.1, 0.15, 0.2, 0.3, 0.5)[i % 5])
            res = lambda_exact(g)
            key.append((res.lambda_, res.witness.members, res.stats.sets_tested))
        assert hashlib.sha256(repr(key).encode()).hexdigest() == (
            "0537950d4645fb90417fd3aeb67cb929697c2de2c9c09188d90ef2375bad514c"
        )

    def test_search_answers_are_pinned(self):
        # (value, witness) of graphs past the oracle's reach in tier-1 time,
        # the same as before the start bound took the degree and block
        # bounds; a new digest means an answer changed
        results = list(map(lambda_exact, pinned_graphs()))
        key = [(res.lambda_, res.witness.members) for res in results]
        assert len(key) == 40
        assert hashlib.sha256(repr(key).encode()).hexdigest() == (
            "c537d8bf00afa904bd3cc2c5ed5be0074bfa49afe984b65ca2e4048d314a4fd2"
        )
        # the start bounds, equal to the value on the cycles, paths and K_n
        # identity functigraphs
        assert [res.stats.pruned_cardinalities_skipped for res in results] == [
            6, 7, 9, 12, 14, 16, 6, 8, 11, 14, 16, 6, 8, 11, 14, 17, 19, 5, 6, 8,
            9, 10, 5, 5, 5, 6, 6, 5, 4, 4, 5, 5, 5, 5, 5, 5, 6, 5, 5, 5,
        ]

    @settings(max_examples=40, deadline=None)
    @given(mid_graphs())
    def test_search_against_oracle_on_graphs_of_11_to_14(self, g):
        reference = lambda_oracle(g)
        res = lambda_exact(g)
        assert (res.lambda_, res.witness) == (reference.lambda_, reference.witness)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_differential_against_oracle(self, data):
        g = data.draw(small_graphs())
        reference = lambda_oracle(g)
        res = lambda_exact(g)
        assert (res.lambda_, res.witness) == (reference.lambda_, reference.witness)
        assert naive_is_ld(g, res.witness.members)
        perm = data.draw(st.permutations(range(g.n)))
        assert lambda_exact(permute_graph(g, perm)).lambda_ == reference.lambda_

    def test_isomorphism_invariance(self):
        rng = random.Random(47)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 8))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert lambda_exact(permute_graph(g, perm)).lambda_ == lambda_exact(g).lambda_

    def test_stats_counts(self):
        # the greedy set {0, 1, 2} of K4 has the start size and is lex-least,
        # so the search visits no node
        res = lambda_exact(complete_graph(4))
        assert res.stats.sets_tested == 0
        assert res.stats.pruned_cardinalities_skipped == 3
        assert res.stats.elapsed >= 0.0


class TestStartBound:
    """The start bound, ``stats.pruned_cardinalities_skipped``: the largest of
    the counting bound, the degree bound and the twin core plus the block
    bound. It must never pass the value, since no size below it is tried."""

    @staticmethod
    def graphs():
        """Every labeled graph on at most five vertices, then seeded random
        graphs and random functigraphs of order at most 12."""
        rng = random.Random(71)
        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        graphs += [random_graph(rng, rng.randint(6, 12), rng.random()) for _ in range(300)]
        for _ in range(300):
            n = rng.randint(2, 6)
            fmap = FunctionMap(n, tuple(rng.randrange(n) for _ in range(n)))
            graphs.append(build_functigraph(random_connected_graph(rng, n), fmap).graph)
        return graphs

    def test_start_never_passes_the_oracle_value(self):
        for g in self.graphs():
            start = lambda_exact(g).stats.pruned_cardinalities_skipped
            assert start <= lambda_oracle(g).lambda_

    def test_start_is_the_value_on_the_paper_families(self):
        # Slater's value ceil(2n / 5) of paths and cycles is the degree bound
        for n in range(5, 41):
            for g in (path_graph(n), cycle_graph(n)):
                res = lambda_exact(g)
                assert res.stats.pruned_cardinalities_skipped == res.lambda_ == -(-2 * n // 5)
        # the K_n identity functigraph has the n blocks {v, n + v}
        for n in range(4, 33):
            res = lambda_exact(build_functigraph(complete_graph(n), identity_map(n)).graph)
            assert res.stats.pruned_cardinalities_skipped == res.lambda_ == n - 1
        # from n = 4 on, a map of K_n onto two images is the one signature
        # whose start falls short of the value, by one
        for n in range(2, 9):
            for sig in signatures(n):
                g = build_functigraph(complete_graph(n), signature_map(sig.parts)).graph
                res = lambda_exact(g)
                assert res.lambda_ == predicted_lambda_complete(n, sig)
                short = sig.num_parts == 2 and n >= 4
                assert res.stats.pruned_cardinalities_skipped == res.lambda_ - short

    def test_blocks_must_be_disjoint_with_rows_for_unions(self):
        def row(*vertices):
            return sum(1 << v for v in vertices)

        # the blocks {0, 1}, {2, 3} and {4, 5}, every union a row
        quads = [row(0, 1, 2, 3), row(0, 1, 4, 5), row(2, 3, 4, 5)]
        assert _block_bound(quads, set(quads)) == 2
        # {2, 3} | {4, 5} is not a row, so only one of them counts
        assert _block_bound(quads[:2], set(quads[:2])) == 1
        # no two rows share exactly two vertices
        quads = [row(0, 1, 2, 3), row(0, 1, 2, 4)]
        assert _block_bound(quads, set(quads)) == 0
        assert _block_bound([], set()) == 0
        # B_1 = {0, 1} from the first and last rows; the candidates {3, 4}
        # and {3, 5} meet the kept {2, 3} though each union is a row, and
        # {6, 7} | {2, 3} is not a row, so one block joins B_1. Counting the
        # overlapping blocks would claim 3 picks where {0, 3} hits every row
        quads = [row(0, 1, 2, 3), row(0, 1, 3, 4), row(0, 1, 3, 5), row(0, 1, 6, 7)]
        rows = {*quads, row(2, 3, 4), row(2, 3, 5), row(3, 4, 5)}
        assert _block_bound(quads, rows) == 1
        assert all(r & row(0, 3) for r in rows)


def layer_answer(g, tables):
    """(value, witness, floor) read from ``_fold_layer`` through the tables of
    g's order and the independent twin partition: the layer's highest
    position is the lex-least minimum set, and the floor is the larger of
    the counting and twin bounds, which the start bound must not fall below."""
    value, layer = _fold_layer(tables, _constraint_rows(g.adj))
    top = layer.bit_length() - 1
    witness = VertexSet.of(g.n, [v for v in range(g.n) if top >> (g.n - 1 - v) & 1])
    floor = max(info_lower_bound(g.n), twin_lower_bound(twin_partition(g)))
    return value, witness, floor


class TestSubsetTableFold:
    """``lambda_exact`` against the oracle and the subset-table fold
    ``_fold_layer`` on graphs of up to 13 vertices, and the tables
    themselves."""

    def test_matches_oracle_on_every_labeled_graph_up_to_five(self):
        count = 0
        for n in range(1, 6):
            for g in all_graphs(n):
                count += 1
                reference = lambda_oracle(g)
                res = lambda_exact(g)
                assert (res.lambda_, res.witness) == (reference.lambda_, reference.witness)
                floor = max(info_lower_bound(n), twin_lower_bound(twin_partition(g)))
                start = res.stats.pruned_cardinalities_skipped
                assert floor <= start == start_bound(g) <= reference.lambda_
        assert count == 1099

    def test_matches_oracle_at_orders_12_and_13(self):
        # order 12, the largest the bounds sweep folds, and order 13 past it
        rng = random.Random(53)
        graphs = [
            build_functigraph(complete_graph(6), identity_map(6)).graph,
            cycle_graph(12),
            cycle_graph(13),
        ]
        for n in (12, 13):
            for k2 in (0, 1, 2, 3):
                # k2 K2 components and two isolated vertices, relabeled
                main = n - 2 * k2 - 2
                edges = random_graph(rng, main, rng.uniform(0.2, 0.7)).edges()
                edges += [(main + 2 * i, main + 2 * i + 1) for i in range(k2)]
                perm = list(range(n))
                rng.shuffle(perm)
                graphs.append(permute_graph(Graph.from_edges(n, edges), perm))
        assert {g.n for g in graphs} == {12, 13}
        for g in graphs:
            reference = lambda_oracle(g)
            res = lambda_exact(g)
            assert (res.lambda_, res.witness) == (reference.lambda_, reference.witness)

    def test_cores_agree_on_random_graphs(self):
        rng = random.Random(59)
        tables = {n: _tables(n) for n in range(1, 13)}
        for i in range(2000):
            if i % 2:
                core = random_graph(rng, rng.randint(1, 9), rng.uniform(0.0, 1.0))
                g = with_isolated_and_pendants(rng, core)
            else:
                g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.0, 1.0))
            value, witness, floor = layer_answer(g, tables[g.n])
            start = start_bound(g)
            assert floor <= start <= lambda_oracle(g).lambda_
            res = lambda_exact(g)
            assert (res.lambda_, res.witness, res.stats.pruned_cardinalities_skipped) == (
                value, witness, start
            )

    def test_tables_match_brute_force(self):
        def sets_of(n):
            # position p stands for the set holding v iff bit n - 1 - v of p is set
            return [sum(1 << v for v in range(n) if p >> (n - 1 - v) & 1) for p in range(1 << n)]

        def meeting(sets, k):
            return sum(1 << p for p, m in enumerate(sets) if m & k)

        for n in range(1, 9):
            hits, layers, start = _tables(n)
            assert start == info_lower_bound(n)
            sets = sets_of(n)
            assert layers == [
                sum(1 << p for p, m in enumerate(sets) if m.bit_count() == size)
                for size in range(n + 1)
            ]
            assert len(hits) == 1 << n
            for k in range(1 << n):
                assert hits[k] == meeting(sets, k)
        hits, _, _ = _tables(12)
        sets = sets_of(12)
        for k in random.Random(12).sample(range(1 << 12), 300):
            assert hits[k] == meeting(sets, k)

    def test_only_the_bounds_sweep_builds_tables(self, monkeypatch):
        # the sweep builds each order's tables once per call and keeps none
        built = []
        build = theorems._tables

        def counted(n):
            built.append(n)
            return build(n)

        monkeypatch.setattr(theorems, "_tables", counted)
        monkeypatch.setattr(solver, "_tables", counted)
        rng = random.Random(67)
        graphs = [random_graph(rng, n, rng.uniform(0.2, 0.8)) for n in range(1, 13)]
        graphs.append(build_functigraph(complete_graph(6), identity_map(6)).graph)
        for g in graphs:
            assert lambda_exact(g).lambda_ == lambda_oracle(g).lambda_
        assert built == []
        # the default sweep folds functigraphs of bases on 3 to 5 vertices
        assert verify_suite().all_match
        assert built == [6, 8, 10]
        assert verify_suite().all_match
        assert built == [6, 8, 10] * 2
        assert verify_suite(VerifyConfig(n_max_bounds=6)).all_match
        assert built == [6, 8, 10] * 3 + [12]


class TestMinimumLayer:
    """The minimum layer of ``_fold_layer`` must hold every minimum set: the
    bounds sweep derives relabeled witnesses from it, so a missing set would
    corrupt only those."""

    @staticmethod
    def check(g, tables):
        size, layer = _fold_layer(tables, _constraint_rows(g.adj))
        # position p stands for the set holding v iff bit n - 1 - v of p is set
        sets = {sum(1 << v for v in range(g.n) if p >> (g.n - 1 - v) & 1) for p in bits(layer)}
        brute = {
            VertexSet.of(g.n, members).mask
            for members in combinations(range(g.n), size)
            if is_locating_dominating(g, VertexSet.of(g.n, members))
        }
        assert sets == brute
        assert not any(
            is_locating_dominating(g, VertexSet.of(g.n, members))
            for members in combinations(range(g.n), size - 1)
        )
        assert size == lambda_oracle(g).lambda_

    def test_every_labeled_graph_up_to_five(self):
        count = 0
        for n in range(1, 6):
            tables = _tables(n)
            for g in all_graphs(n):
                self.check(g, tables)
                count += 1
        assert count == 1099

    def test_random_graphs_up_to_ten(self):
        rng = random.Random(61)
        tables = {n: _tables(n) for n in range(6, 11)}
        for _ in range(150):
            g = random_graph(rng, rng.randint(6, 10), rng.uniform(0.1, 0.9))
            self.check(g, tables[g.n])


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
