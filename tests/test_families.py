import hashlib
import random
import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdom.families import (
    FamilySpec,
    _carry,
    _least_code,
    all_graphs,
    all_maps,
    automorphisms,
    canonical_form,
    complete_graph,
    connected_graphs,
    constant_map,
    cycle_graph,
    h_graph,
    identity_map,
    make_family,
    map_orbits,
    nonisomorphic_connected_graphs,
    parse_map,
    path_graph,
    pendant_gap_graph,
    permutation_map,
    random_connected_graph,
    random_graph,
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
from locdom.solver import lambda_exact, minimum_layer


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
        assert canonical_form(h_graph(4, 2)) == canonical_form(cycle_graph(4))

    def test_h_graph_guards(self):
        with pytest.raises(ValueError):
            h_graph(2, 1)
        with pytest.raises(ValueError):
            h_graph(5, 3)
        with pytest.raises(ValueError):
            h_graph(5, 0)

    def test_pendant_gap_shape_and_values(self):
        g2 = pendant_gap_graph(2)
        assert canonical_form(g2) == canonical_form(path_graph(4))
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
        with pytest.raises(ValueError):
            make_family(FamilySpec("complete"))
        with pytest.raises(ValueError):
            make_family(FamilySpec("h_graph", n=6))
        with pytest.raises(ValueError):
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
        assert sum(1 for _ in connected_graphs(3)) == 4
        assert sum(1 for _ in connected_graphs(4)) == 38
        assert sum(1 for _ in connected_graphs(5)) == 728

    def test_nonisomorphic_counts(self):
        # unlabeled connected graphs on n vertices
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
        for n, count in expected.items():
            assert len(nonisomorphic_connected_graphs(n)) == count

    def test_nonisomorphic_against_canonical_keys(self):
        def first_per_key(n):
            seen = {}
            for g in connected_graphs(n):
                seen.setdefault(canonical_form(g), g)
            return list(seen.values())

        for n in range(1, 6):
            assert nonisomorphic_connected_graphs(n) == first_per_key(n)
        representatives = nonisomorphic_connected_graphs(6)
        assert len({canonical_form(g) for g in representatives}) == len(representatives) == 112
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

    def test_canonical_form_is_isomorphism_invariant(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 6))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(permute_graph(g, perm)) == canonical_form(g)

    def test_relabeling_maps_one_graph_onto_the_other(self):
        # the exhaustive bounds sweep relabels a class's first base onto each
        # other base by carrying the first least-code order of one onto the
        # first of the other
        def relabeling(g, h):
            (key, orders), (other, targets) = _least_code(g), _least_code(h)
            assert key == other
            return _carry(orders[0], targets[0])

        rng = random.Random(19)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.8))
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = permute_graph(g, perm)
            found = relabeling(g, h)
            assert sorted(found) == list(range(g.n))
            assert permute_graph(g, found) == h
            assert permute_graph(h, relabeling(h, g)) == g
        # every labeled graph on up to 4 vertices against the first of its
        # class; the keys split the graphs into the 1, 2, 4 and 11 classes
        for n, classes in zip(range(1, 5), (1, 2, 4, 11)):
            firsts = {}
            for g in all_graphs(n):
                firsts.setdefault(canonical_form(g), g)
            assert len(firsts) == classes
            for h in all_graphs(n):
                g = firsts[canonical_form(h)]
                assert permute_graph(g, relabeling(g, h)) == h
                assert permute_graph(h, relabeling(h, g)) == g

    def test_random_connected_is_connected_and_seeded(self):
        a = random_connected_graph(random.Random(9), 8)
        b = random_connected_graph(random.Random(9), 8)
        assert a == b
        assert is_connected(a)


@st.composite
def maps_with_automorphisms(draw):
    """A connected graph on 2..5 vertices (a random tree plus random edges,
    relabeled), a map on it and two of its automorphisms sigma and tau."""
    n = draw(st.integers(2, 5))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= draw(st.sets(st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)])))
    g = permute_graph(Graph.from_edges(n, sorted(edges)), draw(st.permutations(range(n))))
    targets = tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    auts = automorphisms(g)
    return g, targets, draw(st.sampled_from(auts)), draw(st.sampled_from(auts))


def minimum_sets(g: Graph) -> tuple[int, set[frozenset[int]]]:
    value, layer = minimum_layer(g)
    return value, {
        frozenset(v for v in range(g.n) if p >> g.n - 1 - v & 1) for p in bits(layer)
    }


class TestAutomorphisms:
    def test_equal_brute_force_on_every_small_graph(self):
        for n in range(1, 6):
            perms = list(permutations(range(n)))
            for g in all_graphs(n):
                found = automorphisms(g)
                assert found[0] == tuple(range(n))
                assert len(found) == len(set(found))
                assert set(found) == {p for p in perms if permute_graph(g, p) == g}

    def test_map_orbits_factor_every_map(self):
        # each map is auts[j] h0 auts[i]^-1 for the first map h0 of its orbit
        for n in range(1, 5):
            maps = [fmap.targets for fmap in all_maps(n)]
            for g in connected_graphs(n):
                auts, orbits = map_orbits(g)
                assert auts == automorphisms(g)
                assert len(orbits) == len(maps)
                for h, (h0, i, j) in enumerate(orbits):
                    assert h0 <= h and orbits[h0][0] == h0
                    rho, sigma = auts[i], auts[j]
                    assert all(maps[h][rho[u]] == sigma[t] for u, t in enumerate(maps[h0]))

    def test_map_orbits_of_complete_graphs_are_the_signatures(self):
        for n in range(1, 6):
            maps = list(all_maps(n))
            orbits = map_orbits(complete_graph(n))[1]
            firsts = {h0 for h0, _, _ in orbits}
            assert len(firsts) == len(signatures(n))
            for fmap, (h0, _, _) in zip(maps, orbits):
                assert preimage_signature(fmap) == preimage_signature(maps[h0])

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
