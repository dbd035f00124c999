import csv
import hashlib
import io
import json
import math
import random

import pytest

from locdom import families, theorems
from locdom.families import (
    complete_graph,
    constant_map,
    h_graph,
    identity_map,
    make_family,
    parse_map,
    pendant_gap_graph,
    signature_map,
    signatures,
)
from locdom.functigraph import FunctionMap, Signature, build_functigraph
from locdom.graph import Graph
from locdom.solver import lambda_exact
from locdom.theorems import (
    SATURATED,
    TWIN_PAIR,
    CaseRow,
    Report,
    TheoremCase,
    VerifyConfig,
    complete_case_id,
    hi_case_id,
    hi_target_kind,
    predicted_bounds_functigraph,
    predicted_lambda_complete,
    predicted_lambda_hi,
    verify_suite,
)


class TestPredictedComplete:
    def test_frozen_values(self):
        assert predicted_lambda_complete(5, Signature((5,))) == 7
        assert predicted_lambda_complete(5, Signature((1, 1, 1, 1, 1))) == 4
        assert predicted_lambda_complete(5, Signature((3, 2))) == 6
        assert predicted_lambda_complete(3, Signature((2, 1))) == 3
        assert predicted_lambda_complete(5, Signature((2, 1, 1, 1))) == 4

    def test_small_orders(self):
        assert predicted_lambda_complete(2, Signature((2,))) == 2
        assert predicted_lambda_complete(2, Signature((1, 1))) == 2
        assert predicted_lambda_complete(3, Signature((3,))) == 3
        assert predicted_lambda_complete(3, Signature((1, 1, 1))) == 3

    def test_total_and_single_cased(self):
        ids = {
            "complete-constant",
            "complete-bijective",
            "complete-mid-nomatch",
            "complete-mid-match",
        }
        for n in range(2, 11):
            for sig in signatures(n):
                value = predicted_lambda_complete(n, sig)
                assert value >= 1
                assert complete_case_id(n, sig) in ids

    def test_mid_regimes_agree_for_n_at_least_4(self):
        # same k, with and without unit parts: (2, 2) vs (3, 1)
        assert predicted_lambda_complete(4, Signature((2, 2))) == predicted_lambda_complete(
            4, Signature((3, 1))
        )
        assert predicted_lambda_complete(6, Signature((3, 3))) == predicted_lambda_complete(
            6, Signature((4, 2))
        ) == predicted_lambda_complete(6, Signature((5, 1)))

    def test_mid_without_matching_needs_n_at_least_4(self):
        for n in range(2, 11):
            for sig in signatures(n):
                if 1 < sig.num_parts < n and sig.num_unit_parts == 0:
                    assert n >= 4

    def test_errors(self):
        with pytest.raises(ValueError):
            predicted_lambda_complete(1, Signature((1,)))
        with pytest.raises(ValueError):
            predicted_lambda_complete(5, Signature((3, 3)))


class TestPredictedHi:
    def test_frozen_values(self):
        assert predicted_lambda_hi(4, 2, TWIN_PAIR) == 4
        assert predicted_lambda_hi(4, 1, SATURATED) == 4
        assert predicted_lambda_hi(7, 2, TWIN_PAIR) == 8
        assert predicted_lambda_hi(7, 2, SATURATED) == 7
        assert predicted_lambda_hi(6, 3, TWIN_PAIR) == 5
        assert predicted_lambda_hi(7, 3, TWIN_PAIR) == 6
        assert predicted_lambda_hi(7, 3, SATURATED) == 6
        assert predicted_lambda_hi(5, 1, SATURATED) == 5

    def test_small_case_shadows_general_formula(self):
        # n=4 answers 4 even where the general saturated formula would say 3
        assert predicted_lambda_hi(4, 1, SATURATED) == 4
        assert predicted_lambda_hi(4, 1, SATURATED) != 2 * 4 - 2 * 1 - 3

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            predicted_lambda_hi(3, 1, TWIN_PAIR)
        with pytest.raises(ValueError):
            predicted_lambda_hi(6, 3, SATURATED)  # no saturated vertex at i = n/2
        with pytest.raises(ValueError):
            predicted_lambda_hi(6, 4, TWIN_PAIR)
        with pytest.raises(ValueError):
            predicted_lambda_hi(6, 1, "corner")

    def test_case_ids(self):
        assert hi_case_id(4, 2, TWIN_PAIR) == "hgraph-small"
        assert hi_case_id(8, 2, SATURATED) == "hgraph-saturated"
        assert hi_case_id(8, 2, TWIN_PAIR) == "hgraph-twin-pair"
        assert hi_case_id(8, 4, TWIN_PAIR) == "hgraph-even-half"
        assert hi_case_id(9, 4, TWIN_PAIR) == "hgraph-odd-half"

    def test_target_kind(self):
        assert hi_target_kind(7, 2, 0) == TWIN_PAIR
        assert hi_target_kind(7, 2, 3) == TWIN_PAIR
        assert hi_target_kind(7, 2, 4) == SATURATED
        with pytest.raises(ValueError):
            hi_target_kind(7, 2, 7)

    def test_all_targets_of_a_kind_agree(self):
        n, i = 5, 1
        values = {}
        for target in range(n):
            fg = build_functigraph(h_graph(n, i), constant_map(n, target))
            values.setdefault(hi_target_kind(n, i, target), set()).add(
                lambda_exact(fg.graph).lambda_
            )
        assert len(values[TWIN_PAIR]) == 1
        assert len(values[SATURATED]) == 1
        assert values[TWIN_PAIR] == {predicted_lambda_hi(n, i, TWIN_PAIR)}
        assert values[SATURATED] == {predicted_lambda_hi(n, i, SATURATED)}


class TestPredictedBounds:
    def test_values(self):
        b3 = predicted_bounds_functigraph(3)
        assert (b3.lower, b3.upper) == (3, 4)
        b6 = predicted_bounds_functigraph(6)
        assert (b6.lower, b6.upper) == (3, 10)
        assert b6.lower_witness[0].kind == "path"
        assert b6.upper_witness[0].kind == "star"
        assert b6.upper_witness[1] == "constant:0"

    def test_floor(self):
        with pytest.raises(ValueError):
            predicted_bounds_functigraph(2)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_witnesses_attain_their_ends(self, n):
        # built from their spec form, the way a caller outside verify would
        bounds = predicted_bounds_functigraph(n)
        for (spec, map_spec), end in (
            (bounds.lower_witness, bounds.lower),
            (bounds.upper_witness, bounds.upper),
        ):
            base = make_family(spec)
            fg = build_functigraph(base, parse_map(map_spec, base.n))
            assert lambda_exact(fg.graph).lambda_ == end


class TestClosedFormsAtScale:
    def test_functigraphs_up_to_max_order(self):
        # (base, map, predicted value) for every family with a closed form,
        # up to base order 64, where the functigraph reaches MAX_ORDER
        cases = [
            (complete_graph(n), signature_map(sig.parts), predicted_lambda_complete(n, sig))
            for n in range(2, 15)
            for sig in signatures(n)
        ]
        for n in (16, 24, 32, 48, 64):
            for parts in ((n,), (2,) + (1,) * (n - 2), (2,) * (n // 2)):
                sig = Signature(parts)
                cases.append(
                    (complete_graph(n), signature_map(parts), predicted_lambda_complete(n, sig))
                )
        # the identity map on K_64 alone would take about 0.7 s
        for n in (16, 24, 32, 48):
            sig = Signature((1,) * n)
            cases.append((complete_graph(n), identity_map(n), predicted_lambda_complete(n, sig)))
        for n in range(4, 31):
            for i in range(1, n // 2 + 1):
                # target 0 sits in a twin pair; target 2i, if any, stayed saturated
                for target in (0, 2 * i) if 2 * i < n else (0,):
                    kind = hi_target_kind(n, i, target)
                    cases.append(
                        (h_graph(n, i), constant_map(n, target), predicted_lambda_hi(n, i, kind))
                    )
        for t in range(2, 31):
            g = pendant_gap_graph(t)
            assert lambda_exact(g).lambda_ == t
            cases.append((g, constant_map(g.n, 0), 2 * t))
        assert len(cases) == 506 + 15 + 4 + 432 + 29
        for base, fmap, value in cases:
            g = build_functigraph(base, fmap).graph
            assert Graph(g.n, g.adj) == g
            assert lambda_exact(g).lambda_ == value, (base, fmap.targets)


SMALL_CONFIG = VerifyConfig(
    n_max_complete=5, n_max_hi=5, n_max_bounds=3, include_gap_lemma=True, t_max=2
)


class TestVerifySuite:
    def test_small_sweep_all_match(self):
        report = verify_suite(SMALL_CONFIG)
        assert report.all_match
        sections = report.section_counts()
        # 2 + 3 + 5 + 7 signatures, plus the base rows for n in {4, 5}
        assert sections["complete"] == (17 + 2, 17 + 2)
        # n=4: i in {1, 2} with both kinds at i=1; n=5: i in {1, 2}, both kinds at each
        assert sections["hgraph"] == (7, 7)
        # 4 connected bases on 3 vertices, 27 maps each, plus both sharp rows
        assert sections["bounds"] == (108 + 2, 108 + 2)
        assert sections["gap"] == (2, 2)
        # derived rows: signatures of n in {4, 5} with image size < n
        assert sections["matching"] == (10, 10)
        assert sections["equality"] == (10, 10)

    @staticmethod
    def row_digest(rows):
        # every field but millis; a new digest means the rows, their order or
        # their witnesses changed
        key = [
            (r.case_id, r.n, r.params, r.predicted, r.computed, r.match, r.witness, r.anchor)
            for r in rows
        ]
        return hashlib.sha256(repr(key).encode()).hexdigest()

    def test_default_rows_are_pinned(self):
        rows = verify_suite().rows
        assert len(rows) == 10_330
        assert self.row_digest(rows) == (
            "cb465e0b40e30e8ee16549cd17285d0e93a74d21ee58b0f972d0982b6cce68d0"
        )

    def test_bounds6_rows_are_pinned(self):
        rows = verify_suite(VerifyConfig(n_max_bounds=6)).rows
        assert len(rows) == 12_683
        assert self.row_digest(rows) == (
            "fdc3e6b68e33c7972b918230e37247358c3d4309849df17109293c1dee4860b3"
        )

    def test_relabeled_bounds_rows_match_their_own_solves(self):
        # bases on 3 and 4 vertices take value and witness from the first base
        # of their class; each row must equal a solve of its own instance
        config = VerifyConfig(
            n_max_complete=1, n_max_hi=3, n_max_bounds=4, include_gap_lemma=False
        )
        rows = [r for r in verify_suite(config).rows if r.case_id == "bounds-range"]
        assert len(rows) == len({r.params for r in rows}) == 4 * 27 + 38 * 256
        for row in rows:
            edges, _, targets = row.params.removeprefix("edges=").partition(" map=")
            pairs = [tuple(map(int, edge.split("-"))) for edge in edges.split()]
            base = Graph.from_edges(row.n, pairs)
            fmap = FunctionMap(row.n, tuple(map(int, targets.split(","))))
            result = lambda_exact(build_functigraph(base, fmap).graph)
            assert (row.computed, row.witness) == (
                result.lambda_,
                result.witness.members,
            ), row.params

    @pytest.mark.parametrize("seed", [0, 23])
    def test_sampled_bounds_rows_match_their_own_solves(self, seed):
        # bases on 5 and 6 vertices are joined straight from a class
        # representative's rows and a map's cross rows; each row must equal a
        # solve of its own functigraph: every row on 5 vertices, a seeded
        # sample of those on 6
        config = VerifyConfig(
            n_max_complete=1, n_max_hi=3, n_max_bounds=6, include_gap_lemma=False
        )
        rows = [
            r
            for r in verify_suite(config, sample_seed=seed).rows
            if r.case_id == "bounds-range" and r.n >= 5
        ]
        rng = random.Random(seed)
        sampled = {n: len(theorems._sampled_maps(n, rng)) for n in (5, 6)}
        five = [r for r in rows if r.n == 5]
        six = [r for r in rows if r.n == 6]
        assert (len(five), len(six)) == (21 * sampled[5], 112 * sampled[6])
        assert len({r.params for r in rows}) == len(rows)
        for row in five + random.Random(seed).sample(six, 400):
            edges, _, targets = row.params.removeprefix("edges=").partition(" map=")
            pairs = [tuple(map(int, edge.split("-"))) for edge in edges.split()]
            base = Graph.from_edges(row.n, pairs)
            fmap = FunctionMap(row.n, tuple(map(int, targets.split(","))))
            result = lambda_exact(build_functigraph(base, fmap).graph)
            assert (row.computed, row.witness) == (
                result.lambda_,
                result.witness.members,
            ), row.params
            assert row.match == (3 <= row.computed <= 2 * row.n - 2)
            assert row.predicted == f"3..{2 * row.n - 2}"

    @pytest.mark.parametrize(
        "config, builds, solves, class_orders",
        [(VerifyConfig(), 328, 90, [5]), (VerifyConfig(n_max_bounds=6), 329, 91, [5, 6])],
        ids=["default", "bounds6"],
    )
    def test_sampled_bounds_rows_skip_the_functigraph_records(
        self, monkeypatch, config, builds, solves, class_orders
    ):
        # the sampled rows on 5 and 6 vertices neither build a Functigraph
        # nor call lambda_exact; the parent sweep made 664 and 426 such calls
        # at the default config, 3,017 and 2,779 at n_max_bounds = 6
        calls = {"build": 0, "solve": 0}
        orders = []
        build, solve = theorems.build_functigraph, theorems.lambda_exact
        classes = theorems.nonisomorphic_connected_graphs

        def counted_build(*args):
            calls["build"] += 1
            return build(*args)

        def counted_solve(*args):
            calls["solve"] += 1
            return solve(*args)

        def counted_classes(n):
            orders.append(n)
            return classes(n)

        monkeypatch.setattr(theorems, "build_functigraph", counted_build)
        monkeypatch.setattr(theorems, "lambda_exact", counted_solve)
        monkeypatch.setattr(theorems, "nonisomorphic_connected_graphs", counted_classes)
        verify_suite(config)
        assert (calls["build"], calls["solve"], orders) == (builds, solves, class_orders)

    def test_exhaustive_bounds_solve_one_map_per_orbit(self, monkeypatch):
        # one solve per orbit of f -> sigma f tau under the automorphisms of
        # each class's first base: a lost orbit merge changes these counts
        # even where the rows still match
        solves = {3: 0, 4: 0}
        solve = theorems.minimum_layer

        def counted(g):
            solves[g.n // 2] += 1
            return solve(g)

        monkeypatch.setattr(theorems, "minimum_layer", counted)
        config = VerifyConfig(
            n_max_complete=1, n_max_hi=3, n_max_bounds=4, include_gap_lemma=False
        )
        assert verify_suite(config).total == 2 + 4 * 27 + 1 + 38 * 256
        assert solves == {3: 13, 4: 232}

    def test_least_code_runs_once_per_labeled_base(self, monkeypatch):
        # key, relabeling and the automorphisms of a class's first base all
        # come from one canonical search per connected labeled base
        calls = []
        least_code = families._least_code

        def counted(g):
            calls.append(g.n)
            return least_code(g)

        monkeypatch.setattr(families, "_least_code", counted)
        monkeypatch.setattr(theorems, "_least_code", counted)
        config = VerifyConfig(
            n_max_complete=1, n_max_hi=3, n_max_bounds=4, include_gap_lemma=False
        )
        verify_suite(config)
        assert (calls.count(3), calls.count(4), len(calls)) == (4, 38, 42)

    @staticmethod
    def masked_json_digest(report):
        # the JSON report bytes with every millis set to 0.0
        data = report.to_json_dict()
        for row in data["rows"]:
            row["millis"] = 0.0
        return hashlib.sha256(json.dumps(data).encode()).hexdigest()

    def test_json_report_bytes_are_pinned(self):
        # key order, value types and the witness lists of the written report
        assert self.masked_json_digest(verify_suite()) == (
            "2c3293f13313d8ca2a36292a2a42e2f010d558f449c8708ff68d82559b470ae3"
        )
        assert self.masked_json_digest(verify_suite(VerifyConfig(n_max_bounds=6))) == (
            "46b8e00ee71af54c66753d69840fa22b76fbc77f33f9502489f57129ee089ef9"
        )

    def test_millis_is_a_float_and_zero_for_read_off_rows(self):
        # a float keeps "0.0" in the JSON; an int would write "0"
        report = verify_suite()
        for row in report.rows:
            assert type(row.millis) is float, row
            assert math.isfinite(row.millis) and row.millis >= 0.0, row
        read_off = [
            r for r in report.rows if r.case_id in ("matching-lower-bound", "equality-at-k")
        ]
        assert len(read_off) == 68
        assert all(r.millis == 0.0 for r in read_off)

    def test_record_fields_and_immutability(self):
        assert CaseRow._fields == (
            "case_id", "n", "params", "predicted", "computed", "match",
            "millis", "witness", "anchor",
        )
        assert TheoremCase._fields == (
            "case_id", "n", "params", "low", "high", "graph", "anchor",
        )
        row = CaseRow("demo-ok", 3, "", "3", 3, True, 0.1, (0, 1, 2))
        case = TheoremCase("demo-ok", 3, "", 3, 3, complete_graph(3))
        assert row.anchor == case.anchor == ""
        with pytest.raises(AttributeError):
            row.millis = 0.0
        with pytest.raises(AttributeError):
            case.low = 0

    def test_rows_carry_witnesses(self):
        report = verify_suite(SMALL_CONFIG)
        for row in report.rows:
            assert isinstance(row.witness, tuple)
            assert row.witness != () or row.computed == 0

    def test_csv_shape(self):
        report = verify_suite(VerifyConfig(3, 4, 3, False, 2))
        buf = io.StringIO()
        report.write_csv(buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["case_id", "n", "params", "predicted", "computed", "match", "millis"]
        assert len(rows) == report.total + 1
        assert all(row[5] == "true" for row in rows[1:])

    def test_json_shape(self):
        report = verify_suite(VerifyConfig(3, 4, 3, False, 2))
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["summary"]["all_match"] is True
        assert data["summary"]["total"] == report.total
        assert set(data["rows"][0]) == {
            "case_id", "n", "params", "predicted", "computed", "match",
            "millis", "witness", "anchor",
        }

    def test_mismatch_reporting(self):
        good = CaseRow("demo-ok", 3, "", "3", 3, True, 0.1, (0, 1, 2))
        bad = CaseRow("demo-bad", 3, "", "4", 3, False, 0.1, (0, 1, 2))
        report = Report([good, bad])
        assert not report.all_match
        assert report.mismatches() == [bad]
        assert report.section_counts()["demo"] == (1, 2)

    @pytest.mark.parametrize(
        "ceiling",
        [{"n_max_complete": 65}, {"n_max_hi": 65}, {"n_max_bounds": 7}, {"t_max": 63}],
    )
    def test_ceiling_rejected_before_any_case(self, monkeypatch, ceiling):
        def no_build(*args):
            raise AssertionError("a case was built before the ceiling check")

        monkeypatch.setattr(theorems, "build_functigraph", no_build)
        with pytest.raises(ValueError):
            verify_suite(VerifyConfig(**ceiling))

    def test_ceilings_accept_section_off_and_largest_values(self):
        # the values a caller passes to switch every section off
        off = VerifyConfig(n_max_complete=1, n_max_hi=3, n_max_bounds=2,
                           include_gap_lemma=False)
        assert verify_suite(off).total == 0
        VerifyConfig(n_max_complete=64, n_max_hi=64, n_max_bounds=6, t_max=62)

    def test_workers_other_than_one_rejected_before_any_case(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("a case was built before the workers check")

        monkeypatch.setattr(theorems, "build_functigraph", no_build)
        with pytest.raises(ValueError, match="one process"):
            verify_suite(VerifyConfig(4, 4, 3, True, 2), workers=2)
