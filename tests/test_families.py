import hashlib
import random
import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdom.families import (
    FamilySpec,
    all_graphs,
    all_maps,
    complete_graph,
    constant_map,
    cycle_graph,
    h_graph,
    identity_map,
    make_family,
    nonisomorphic_connected_graphs,
    parse_map,
    path_graph,
    pendant_gap_graph,
    permutation_map,
    random_connected_graph,
    random_map_with_signature,
    signature_map,
    signatures,
    star_graph,
)
from locdom.functigraph import FunctionMap, build_functigraph, preimage_signature
from locdom.graph import (
    ADJACENT_TWINS,
    MAX_ORDER,
    NON_ADJACENT_TWINS,
    SINGLETON,
    Graph,
    bits,
    is_connected,
    permute_graph,
    twin_partition,
)
from locdom.solver import _constraint_rows, _fold_layer, _tables, lambda_exact


def iso_key(g: Graph) -> tuple[int, ...]:
    """Brute-force isomorphism key: the least adjacency over every relabeling."""
    return min(permute_graph(g, p).adj for p in permutations(range(g.n)))


class TestFamilies:
    def test_complete(self):
        g = complete_graph(5)
        assert g.edge_count == 10
        assert all(g.degree(v) == 4 for v in range(5))

    def test_star_center_is_zero(self):
        g = star_graph(6)
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_path_and_cycle(self):
        assert path_graph(4).edges() == [(0, 1), (1, 2), (2, 3)]
        assert cycle_graph(5).edge_count == 5

    def test_parameter_floors(self):
        with pytest.raises(ValueError):
            complete_graph(0)
        with pytest.raises(ValueError):
            star_graph(1)
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            pendant_gap_graph(1)

    def test_order_ceiling(self):
        for make in (complete_graph, star_graph, path_graph, cycle_graph,
                     lambda n: h_graph(n, 1), lambda n: pendant_gap_graph(n - 2)):
            assert make(MAX_ORDER).n == MAX_ORDER
            with pytest.raises(ValueError, match="order must be in"):
                make(MAX_ORDER + 1)

    def test_h_graph_twin_inventory(self):
        part = twin_partition(h_graph(7, 2))
        layout = {(cls.vertices.members, cls.kind) for cls in part}
        assert layout == {
            ((0, 1), NON_ADJACENT_TWINS),
            ((2, 3), NON_ADJACENT_TWINS),
            ((4, 5, 6), ADJACENT_TWINS),
        }

    def test_h_graph_inventory_across_range(self):
        for n in range(3, 9):
            for i in range(1, n // 2 + 1):
                if (n, i) == (2, 1):
                    continue
                part = twin_partition(h_graph(n, i))
                pairs = [c for c in part if c.kind == NON_ADJACENT_TWINS]
                assert len(pairs) == i
                assert all(len(c.vertices) == 2 for c in pairs)
                saturated = [c for c in part if c.kind == ADJACENT_TWINS]
                if n - 2 * i >= 2:
                    assert len(saturated) == 1
                    assert saturated[0].vertices.members == tuple(range(2 * i, n))
                else:
                    assert not saturated
                    leftovers = [c for c in part if c.kind == SINGLETON]
                    assert len(leftovers) == n - 2 * i
                assert is_connected(h_graph(n, i))

    def test_h_graph_4_2_is_a_4_cycle(self):
        assert permute_graph(h_graph(4, 2), (0, 2, 1, 3)) == cycle_graph(4)

    def test_h_graph_guards(self):
        with pytest.raises(ValueError):
            h_graph(2, 1)
        with pytest.raises(ValueError):
            h_graph(5, 3)
        with pytest.raises(ValueError):
            h_graph(5, 0)

    def test_pendant_gap_shape_and_values(self):
        g2 = pendant_gap_graph(2)
        assert permute_graph(g2, (1, 2, 3, 0)) == path_graph(4)
        assert lambda_exact(g2).lambda_ == 2
        g3 = pendant_gap_graph(3)
        assert g3.n == 5
        assert g3.degree(0) == 3
        assert lambda_exact(g3).lambda_ == 3

    def test_make_family_dispatch(self):
        assert make_family(FamilySpec("complete", n=4)) == complete_graph(4)
        assert make_family(FamilySpec("h_graph", n=6, i=2)) == h_graph(6, 2)
        assert make_family(FamilySpec("pendant_gap", t=3)) == pendant_gap_graph(3)

    def test_make_family_errors(self):
        # each missing parameter is named, in the words of the dispatch
        for kind in ("complete", "star", "path", "cycle"):
            with pytest.raises(ValueError, match=f"^family '{kind}' needs parameter n$"):
                make_family(FamilySpec(kind, i=1, t=3))
        with pytest.raises(ValueError, match="^family 'pendant_gap' needs parameter t$"):
            make_family(FamilySpec("pendant_gap", n=5, i=1))
        for spec in (FamilySpec("h_graph", n=6), FamilySpec("h_graph", i=2)):
            with pytest.raises(ValueError, match="^family 'h_graph' needs parameters n and i$"):
                make_family(spec)
        with pytest.raises(ValueError, match="^unknown family kind 'moebius'$"):
            make_family(FamilySpec("moebius", n=6))


class TestMaps:
    def test_constant(self):
        assert constant_map(5, 0).targets == (0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            constant_map(5, 5)

    def test_permutation(self):
        assert permutation_map([2, 0, 1]).targets == (2, 0, 1)
        with pytest.raises(ValueError):
            permutation_map([0, 0, 1])

    def test_identity(self):
        assert identity_map(4).targets == (0, 1, 2, 3)

    def test_signature_blocks(self):
        assert signature_map((4, 3, 2)).targets == (0, 0, 0, 0, 1, 1, 1, 2, 2)
        with pytest.raises(ValueError):
            signature_map((2, 3))
        with pytest.raises(ValueError):
            signature_map((2, -1))

    def test_parse_map(self):
        assert parse_map("constant:1", 3) == constant_map(3, 1)
        assert parse_map("identity", 3) == identity_map(3)
        assert parse_map("perm:1,0", 2) == permutation_map([1, 0])
        assert parse_map("permutation:2,0,1", 3) == permutation_map([2, 0, 1])
        assert parse_map("signature:3,2", 5) == signature_map((3, 2))

    @pytest.mark.parametrize(
        "spec, n, message",
        [
            ("signature:3,2", 6, "signature parts must sum to 6"),
            ("affine:1", 3, "unknown map kind 'affine'"),
            ("affine", 3, "bad map spec 'affine'"),
            ("constant:9", 3, "constant target 9 out of range"),
            ("constant:x", 3, "bad constant target 'x'"),
            ("perm:0,1", 3, "permutation has 2 entries, base order is 3"),
            ("perm:0,0,1", 3, "targets do not form a permutation"),
            ("signature:2,2", 3, "signature parts must sum to 3"),
            ("signature:1,a", 2, "bad integer list '1,a'"),
        ],
    )
    def test_parse_map_rejects(self, spec, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_map(spec, n)

    def test_random_map_signature_roundtrip(self):
        rng = random.Random(2)
        for parts in [(4, 3, 2), (2, 2, 1), (5,), (1, 1, 1)]:
            fmap = random_map_with_signature(rng, parts)
            assert preimage_signature(fmap).parts == parts


class TestSignatures:
    def test_counts_are_partition_numbers(self):
        expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}
        for n, count in expected.items():
            assert len(signatures(n)) == count

    def test_reverse_lexicographic_order(self):
        sigs = [s.parts for s in signatures(4)]
        assert sigs == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert sigs == sorted(sigs, reverse=True)

    def test_roundtrip_through_canonical_maps(self):
        for n in range(1, 9):
            for sig in signatures(n):
                assert preimage_signature(signature_map(sig.parts)) == sig


class TestEnumeration:
    def test_all_graphs_count(self):
        assert sum(1 for _ in all_graphs(3)) == 8
        assert sum(1 for _ in all_graphs(4)) == 64

    def test_connected_counts(self):
        # labeled connected graphs on n vertices
        assert sum(1 for _ in filter(is_connected, all_graphs(3))) == 4
        assert sum(1 for _ in filter(is_connected, all_graphs(4))) == 38
        assert sum(1 for _ in filter(is_connected, all_graphs(5))) == 728

    def test_nonisomorphic_counts(self):
        # unlabeled connected graphs on n vertices
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
        for n, count in expected.items():
            assert len(nonisomorphic_connected_graphs(n)) == count

    def test_nonisomorphic_against_canonical_keys(self):
        def first_per_key(n):
            seen = {}
            for g in filter(is_connected, all_graphs(n)):
                seen.setdefault(iso_key(g), g)
            return list(seen.values())

        for n in range(1, 6):
            assert nonisomorphic_connected_graphs(n) == first_per_key(n)
        representatives = nonisomorphic_connected_graphs(6)
        assert len({iso_key(g) for g in representatives}) == len(representatives) == 112
        assert all(is_connected(g) for g in representatives)
        # the representatives and their order, which the verify rows follow
        pinned = {
            5: "7ea70d6e7b74845a9ac2c8c6ca79e22477533205569c3ffdbd1542c1786bc328",
            6: "989294f9b1d8c87b14ccb7463936f3939099d7a557f7a11c13a72814623eae37",
        }
        for n, digest in pinned.items():
            adj = [g.adj for g in nonisomorphic_connected_graphs(n)]
            assert hashlib.sha256(repr(adj).encode()).hexdigest() == digest
        for n in (0, 7):
            with pytest.raises(ValueError):
                nonisomorphic_connected_graphs(n)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            next(all_graphs(7))

    def test_all_maps_count(self):
        assert sum(1 for _ in all_maps(3)) == 27

    def test_random_connected_is_connected_and_seeded(self):
        a = random_connected_graph(random.Random(9), 8)
        b = random_connected_graph(random.Random(9), 8)
        assert a == b
        assert is_connected(a)


@st.composite
def maps_on_connected_graphs(draw):
    """A connected graph on 2..5 vertices (a random tree plus random edges,
    relabeled) and a map on it."""
    n = draw(st.integers(2, 5))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= draw(st.sets(st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)])))
    g = permute_graph(Graph.from_edges(n, sorted(edges)), draw(st.permutations(range(n))))
    return g, tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))


@st.composite
def maps_with_automorphisms(draw):
    """A connected graph and a map on it, and two of its automorphisms sigma
    and tau."""
    g, targets = draw(maps_on_connected_graphs())
    auts = [p for p in permutations(range(g.n)) if permute_graph(g, p) == g]
    return g, targets, draw(st.sampled_from(auts)), draw(st.sampled_from(auts))


@st.composite
def maps_with_isomorphisms(draw):
    """A connected graph G and a map on it, and two isomorphisms alpha and
    beta from G onto one labeled base: any alpha, and beta among the
    permutations p with the same image of G."""
    g, targets = draw(maps_on_connected_graphs())
    alpha = draw(st.permutations(range(g.n)))
    image = permute_graph(g, alpha)
    betas = [p for p in permutations(range(g.n)) if permute_graph(g, p) == image]
    return g, targets, tuple(alpha), draw(st.sampled_from(betas))


# the fold's subset tables of each functigraph order the strategy draws
FOLD_TABLES = {order: _tables(order) for order in (4, 6, 8, 10)}


def minimum_sets(g: Graph) -> tuple[int, set[frozenset[int]]]:
    value, layer = _fold_layer(FOLD_TABLES[g.n], _constraint_rows(g.adj))
    return value, {
        frozenset(v for v in range(g.n) if p >> g.n - 1 - v & 1) for p in bits(layer)
    }


class TestAutomorphisms:
    @settings(max_examples=150, deadline=None)
    @given(maps_with_automorphisms())
    def test_sigma_f_tau_moves_the_functigraph(self, instance):
        # F(G, sigma f tau) is F(G, f) with copy one moved by tau^-1 and copy
        # two by sigma, so the values agree and the minimum sets correspond
        g, targets, sigma, tau = instance
        n = g.n
        moved = tuple(sigma[targets[tau[u]]] for u in range(n))
        value, sets = minimum_sets(build_functigraph(g, FunctionMap(n, targets)).graph)
        other, other_sets = minimum_sets(build_functigraph(g, FunctionMap(n, moved)).graph)
        assert other == value
        tau_inverse = [0] * n
        for u, w in enumerate(tau):
            tau_inverse[w] = u
        image = {
            frozenset(tau_inverse[v] if v < n else n + sigma[v - n] for v in s) for s in sets
        }
        assert image == other_sets

    @settings(max_examples=150, deadline=None)
    @given(maps_with_isomorphisms())
    def test_alpha_beta_carry_the_functigraph_onto_another_base(self, instance):
        # for B = alpha(G) = beta(G), F(G, h) with copy one moved by alpha and
        # copy two by beta is F(B, beta h alpha^-1), so the values agree and
        # the minimum sets correspond: the exhaustive bounds rows lift each
        # answer on G to the other labeled bases this way
        g, targets, alpha, beta = instance
        n = g.n
        alpha_inverse = [0] * n
        for u, w in enumerate(alpha):
            alpha_inverse[w] = u
        lifted = tuple(beta[targets[alpha_inverse[w]]] for w in range(n))
        fg = build_functigraph(g, FunctionMap(n, targets)).graph
        other_fg = build_functigraph(permute_graph(g, alpha), FunctionMap(n, lifted)).graph
        assert permute_graph(fg, alpha + tuple(n + v for v in beta)) == other_fg
        value, sets = minimum_sets(fg)
        other, other_sets = minimum_sets(other_fg)
        assert other == value
        image = {frozenset(alpha[v] if v < n else n + beta[v - n] for v in s) for s in sets}
        assert image == other_sets
