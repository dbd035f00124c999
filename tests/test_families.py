import random

import pytest

from locdom.families import (
    FamilySpec,
    all_graphs,
    all_maps,
    canonical_form,
    complete_graph,
    connected_graphs,
    constant_map,
    cycle_graph,
    h_graph,
    identity_map,
    make_family,
    make_map,
    nonisomorphic_connected_graphs,
    path_graph,
    pendant_gap_graph,
    permutation_map,
    random_connected_graph,
    random_map_with_signature,
    signature_map,
    signatures,
    star_graph,
)
from locdom.functigraph import preimage_signature
from locdom.graph import (
    ADJACENT_TWINS,
    MAX_ORDER,
    NON_ADJACENT_TWINS,
    SINGLETON,
    is_connected,
    twin_partition,
)
from locdom.solver import lambda_exact


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

    def test_make_map(self):
        assert make_map("constant", n=3, target=1) == constant_map(3, 1)
        assert make_map("identity", n=3) == identity_map(3)
        assert make_map("permutation", perm=[1, 0]) == permutation_map([1, 0])
        assert make_map("signature", n=5, parts=(3, 2)) == signature_map((3, 2))
        with pytest.raises(ValueError):
            make_map("signature", n=6, parts=(3, 2))
        with pytest.raises(ValueError):
            make_map("affine", n=3)

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
        from locdom.graph import permute_graph

        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 6))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(permute_graph(g, perm)) == canonical_form(g)

    def test_random_connected_is_connected_and_seeded(self):
        a = random_connected_graph(random.Random(9), 8)
        b = random_connected_graph(random.Random(9), 8)
        assert a == b
        assert is_connected(a)
