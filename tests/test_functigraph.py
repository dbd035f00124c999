import random

import pytest

from locdom.families import (
    all_graphs,
    all_maps,
    complete_graph,
    constant_map,
    cycle_graph,
    identity_map,
    path_graph,
    random_connected_graph,
    random_map_with_signature,
    signature_map,
    signatures,
    star_graph,
)
from locdom.functigraph import (
    BIJECTIVE,
    CONSTANT,
    MID_NO_MATCHING,
    MID_WITH_MATCHING,
    FunctionMap,
    Signature,
    _base_parts,
    _map_parts,
    build_functigraph,
    classify,
    functigraph_from_json_dict,
    preimage_signature,
)
from locdom.graph import (
    ADJACENT_TWINS,
    MAX_ORDER,
    Graph,
    bits,
    graph_to_json_dict,
    is_connected,
    permute_graph,
    twin_partition,
)
from locdom.solver import _fold_layer, _tables, lambda_exact
from locdom.theorems import complete_case_id


def functi_matchings(g):
    """Cross edges (u, w) of the functigraph ``g`` whose copy-two end w has
    u as its only copy-one neighbour, read off the built graph alone."""
    n = g.n // 2
    low = (1 << n) - 1
    return [
        ((g.adj[w] & low).bit_length() - 1, w)
        for w in range(n, g.n)
        if (g.adj[w] & low).bit_count() == 1
    ]


class TestFunctionMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionMap(3, (0, 1))
        with pytest.raises(ValueError):
            FunctionMap(3, (0, 1, 3))
        with pytest.raises(ValueError):
            FunctionMap(0, ())

    @pytest.mark.parametrize("targets", [(1.0, 0, 0), (True, 0, 0)])
    def test_rejects_non_integer_targets(self, targets):
        with pytest.raises(ValueError, match="not an integer"):
            FunctionMap(3, targets)

    def test_keeps_a_private_copy_of_list_targets(self):
        targets = [0, 1, 2]
        fmap = FunctionMap(3, targets)
        targets[2] = -1  # the cross edge of 2 would end at 3 - 1 = 2, a self-loop
        assert fmap == identity_map(3)
        assert hash(fmap) == hash(identity_map(3))
        fg = build_functigraph(path_graph(3), fmap)
        assert Graph(fg.graph.n, fg.graph.adj) == fg.graph

    def test_image(self):
        # image {0, 2}: vertex 2 has preimage {0, 1, 3}, vertex 0 has {2}
        f = FunctionMap(4, (2, 2, 0, 2))
        assert preimage_signature(f).parts == (3, 1)


class TestSignature:
    def test_validation(self):
        with pytest.raises(ValueError):
            Signature(())
        with pytest.raises(ValueError):
            Signature((2, 3))
        with pytest.raises(ValueError):
            Signature((2, 0))

    def test_counts(self):
        sig = Signature((3, 2, 1, 1))
        assert sig.n == 7
        assert sig.num_parts == 4
        assert sig.num_unit_parts == 2


class TestBuild:
    def test_k2_identity_is_a_4_cycle(self):
        fg = build_functigraph(complete_graph(2), identity_map(2))
        assert fg.graph.n == 4
        assert fg.graph.edge_count == 4
        assert all(fg.graph.degree(v) == 2 for v in range(4))
        assert permute_graph(fg.graph, (0, 1, 3, 2)) == cycle_graph(4)

    def test_k3_identity_is_a_triangular_prism(self):
        fg = build_functigraph(complete_graph(3), identity_map(3))
        assert fg.graph.n == 6
        assert fg.graph.edge_count == 9
        assert all(fg.graph.degree(v) == 3 for v in range(6))

    def test_star_constant_to_center_layout(self):
        n = 5
        fg = build_functigraph(star_graph(n), constant_map(n, 0))
        g = fg.graph
        # second-copy center n sees its own leaves plus every first-copy vertex
        assert set(bits(g.adj[n])) == set(range(n)) | {n + v for v in range(1, n)}
        # a first-copy leaf sees the first-copy center and the cross target
        assert set(bits(g.adj[2])) == {0, n}
        assert g.edge_count == 2 * (n - 1) + n

    def test_cross_edges(self):
        fg = build_functigraph(path_graph(3), FunctionMap(3, (2, 2, 0)))
        cross = [(u, v) for u, v in fg.graph.edges() if u < 3 <= v]
        assert cross == [(0, 5), (1, 5), (2, 3)]

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            build_functigraph(path_graph(3), identity_map(4))

    def test_disconnected_base_rejected(self):
        base = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            build_functigraph(base, identity_map(4))

    def test_base_order_above_half_max_order_rejected(self):
        build_functigraph(path_graph(MAX_ORDER // 2), identity_map(MAX_ORDER // 2))
        with pytest.raises(ValueError, match="order must be in"):
            build_functigraph(
                path_graph(MAX_ORDER // 2 + 1), identity_map(MAX_ORDER // 2 + 1)
            )

    def test_rebuilt_rows_give_an_equal_graph(self):
        # the rows of every built functigraph, passed to the constructor again,
        # give an equal graph
        cases = [
            (base, fmap)
            for n in range(1, 5)
            for base in filter(is_connected, all_graphs(n))
            for fmap in all_maps(n)
        ]
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 12)
            fmap = FunctionMap(n, tuple(rng.randrange(n) for _ in range(n)))
            cases.append((random_connected_graph(rng, n), fmap))
        for base, fmap in cases:
            g = build_functigraph(base, fmap).graph
            assert Graph(g.n, g.adj) == g

    def test_build_validates_its_result_once(self, monkeypatch):
        base, fmap = star_graph(6), signature_map((3, 2, 1))
        validated = []
        validate = Graph.__post_init__

        def counted(self):
            validated.append(self)
            validate(self)

        monkeypatch.setattr(Graph, "__post_init__", counted)
        fg = build_functigraph(base, fmap)
        assert len(validated) == 1
        assert validated[0] is fg.graph
        assert fg.graph.n == 12

    def test_counting_invariants_random(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 8)
            base = random_connected_graph(rng, n)
            fmap = FunctionMap(n, tuple(rng.randrange(n) for _ in range(n)))
            fg = build_functigraph(base, fmap)
            assert fg.graph.n == 2 * n
            assert fg.graph.edge_count == 2 * base.edge_count + n
            assert is_connected(fg.graph)
            preimage_size = [fmap.targets.count(v) for v in range(n)]
            for u in range(n):
                assert fg.graph.degree(u) == base.degree(u) + 1
                assert fg.graph.degree(n + u) == base.degree(u) + preimage_size[u]


def _row_part_cases():
    """Every connected labeled base on 3 to 5 vertices under seeded maps, with
    a constant and a bijection among each base's maps, and random connected
    bases on 6 vertices."""
    rng = random.Random(17)
    cases = []
    for n in (3, 4, 5):
        for base in filter(is_connected, all_graphs(n)):
            maps = [constant_map(n, rng.randrange(n)), signature_map((1,) * n)]
            maps += [FunctionMap(n, tuple(rng.randrange(n) for _ in range(n)))]
            cases += [(base, fmap) for fmap in maps]
    for _ in range(60):
        fmap = FunctionMap(6, tuple(rng.randrange(6) for _ in range(6)))
        cases.append((random_connected_graph(rng, 6), fmap))
    return cases


class TestRowParts:
    """The constraint rows of a functigraph are its base parts XORed with its
    map parts, so a sampled row is solved without building the functigraph."""

    def test_xored_parts_are_the_constraint_rows(self):
        # under every map the cross rows of u and n + f(u) hold each other,
        # so their XOR holds both bits of that pair: the mask of the map part
        # is what keeps those bits of the base part set in the row
        for base, fmap in _row_part_cases():
            adj = build_functigraph(base, fmap).graph.adj
            rows = [a | 1 << v for v, a in enumerate(adj)]
            rows += [
                1 << u | 1 << v | adj[u] ^ adj[v]
                for u in range(len(adj))
                for v in range(u + 1, len(adj))
            ]
            parts = list(map(int.__xor__, _base_parts(base), _map_parts(fmap)))
            assert parts == rows, (base.edges(), fmap.targets)

    def test_fold_is_minimum_layer(self):
        # the fold's value is the exact one, and the highest set of its
        # minimum layer, vertex 0 at the top bit, is the lex-least witness
        tables = {order: _tables(order) for order in (6, 8, 10, 12)}
        for base, fmap in _row_part_cases():
            rows = map(int.__xor__, _base_parts(base), _map_parts(fmap))
            g = build_functigraph(base, fmap).graph
            value, layer = _fold_layer(tables[g.n], rows)
            top = layer.bit_length() - 1
            result = lambda_exact(g)
            assert (value, {v for v in range(g.n) if top >> g.n - 1 - v & 1}) == (
                result.lambda_,
                set(result.witness.members),
            ), (base.edges(), fmap.targets)


class TestSignatureOps:
    def test_constant(self):
        assert preimage_signature(constant_map(5, 2)).parts == (5,)

    def test_bijective(self):
        assert preimage_signature(identity_map(5)).parts == (1, 1, 1, 1, 1)

    def test_blocks(self):
        fmap = signature_map((4, 3, 2))
        assert fmap.targets == (0, 0, 0, 0, 1, 1, 1, 2, 2)
        assert preimage_signature(fmap).parts == (4, 3, 2)

    def test_matchings_constant(self):
        fg = build_functigraph(complete_graph(4), constant_map(4, 1))
        assert functi_matchings(fg.graph) == []

    def test_matchings_bijective(self):
        fg = build_functigraph(complete_graph(4), identity_map(4))
        assert functi_matchings(fg.graph) == [(0, 4), (1, 5), (2, 6), (3, 7)]

    def test_matchings_mixed(self):
        # n=9, image size 6, two non-unit parts: four matchings
        fg = build_functigraph(complete_graph(9), signature_map((3, 2, 1, 1, 1, 1)))
        edges = functi_matchings(fg.graph)
        assert edges == [(5, 9 + 2), (6, 9 + 3), (7, 9 + 4), (8, 9 + 5)]

    def test_matchings_are_the_unit_parts(self):
        for n in range(1, 8):
            for sig in signatures(n):
                fg = build_functigraph(complete_graph(n), signature_map(sig.parts))
                assert len(functi_matchings(fg.graph)) == sig.num_unit_parts, sig


class TestClassify:
    def test_constant(self):
        c = classify(signature_map((5,)))
        assert (c.kind, c.image_size, c.matching_count) == (CONSTANT, 1, 0)

    def test_mid_without_matching(self):
        c = classify(signature_map((3, 2)))
        assert (c.kind, c.image_size, c.matching_count) == (MID_NO_MATCHING, 2, 0)

    def test_mid_with_matching(self):
        c = classify(signature_map((2, 1, 1, 1)))
        assert (c.kind, c.image_size, c.matching_count) == (MID_WITH_MATCHING, 4, 3)

    def test_bijective(self):
        c = classify(identity_map(5))
        assert (c.kind, c.image_size, c.matching_count) == (BIJECTIVE, 5, 5)

    def test_signature_decides_class_and_case(self):
        # a scrambled map has its canonical map's class, and the complete-graph
        # predictions split the signatures into the same four classes
        case_of = {
            CONSTANT: "complete-constant",
            BIJECTIVE: "complete-bijective",
            MID_NO_MATCHING: "complete-mid-nomatch",
            MID_WITH_MATCHING: "complete-mid-match",
        }
        rng = random.Random(29)
        for n in range(2, 9):
            for sig in signatures(n):
                canonical = classify(signature_map(sig.parts))
                assert classify(random_map_with_signature(rng, sig.parts)) == canonical
                assert (canonical.image_size, canonical.matching_count) == (
                    sig.num_parts,
                    sig.num_unit_parts,
                )
                assert case_of[canonical.kind] == complete_case_id(n, sig), sig


class TestTwinStructure:
    def test_preimage_blocks_are_twin_classes_for_complete_base(self):
        n = 6
        fmap = signature_map((3, 2, 1))
        fg = build_functigraph(complete_graph(n), fmap)
        classes = {
            cls.vertices.members: cls.kind for cls in twin_partition(fg.graph)
        }
        # blocks with at least two preimages are adjacent twins inside copy one
        assert classes[(0, 1, 2)] == ADJACENT_TWINS
        assert classes[(3, 4)] == ADJACENT_TWINS
        # the non-image block of copy two is a twin class as well
        assert classes[(n + 3, n + 4, n + 5)] == ADJACENT_TWINS

    def test_json_roundtrip(self):
        fg = build_functigraph(star_graph(4), constant_map(4, 0))
        data = {"base": graph_to_json_dict(fg.base), "map": list(fg.map.targets)}
        back = functigraph_from_json_dict(data)
        assert back.graph == fg.graph
        assert back.map == fg.map

    def test_json_shape_errors(self):
        with pytest.raises(ValueError):
            functigraph_from_json_dict({"base": {"n": 2, "edges": [[0, 1]]}})
        with pytest.raises(ValueError):
            functigraph_from_json_dict(
                {"base": {"n": 2, "edges": [[0, 1]]}, "map": [0, "1"]}
            )
