"""End-to-end acceptance checks.

Every criterion prints one PASS/FAIL line (run pytest with -s to see them all;
values are integers, so every comparison is exact equality or containment).
"""

import random
import time

import pytest

from locdom.families import (
    all_graphs,
    all_maps,
    complete_graph,
    constant_map,
    h_graph,
    identity_map,
    nonisomorphic_connected_graphs,
    path_graph,
    pendant_gap_graph,
    random_connected_graph,
    random_graph,
    random_map_with_signature,
    signature_map,
    signatures,
    star_graph,
)
from locdom.functigraph import build_functigraph
from locdom.graph import VertexSet, is_connected, permute_graph, twin_partition
from locdom.solver import (
    info_lower_bound,
    is_locating_dominating,
    lambda_exact,
    lambda_oracle,
    twin_lower_bound,
)
from locdom.theorems import (
    SATURATED,
    TWIN_PAIR,
    predicted_lambda_complete,
    predicted_lambda_hi,
)


def verdict(tag, failures):
    ok = not failures
    print(f"\n{tag}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{tag}: {failures[:10]}"


@pytest.fixture(scope="module")
def complete_sweep():
    started = time.perf_counter()
    values = {}
    for n in range(2, 8):
        for sig in signatures(n):
            fg = build_functigraph(complete_graph(n), signature_map(sig.parts))
            values[(n, sig.parts)] = lambda_exact(fg.graph).lambda_
    return values, time.perf_counter() - started


def test_criterion_1_complete_graph_sweep(complete_sweep):
    values, elapsed = complete_sweep
    failures = []
    for n in range(2, 8):
        for sig in signatures(n):
            computed = values[(n, sig.parts)]
            predicted = predicted_lambda_complete(n, sig)
            if computed != predicted:
                failures.append((n, sig.parts, predicted, computed))
    if elapsed >= 10.0:
        failures.append(("sweep too slow", elapsed))
    verdict("ACCEPTANCE 1 (complete-graph sweep, n=2..7)", failures)


def test_criterion_2_h_graph_sweep():
    started = time.perf_counter()
    failures = []
    for n in range(4, 10):
        for i in range(1, n // 2 + 1):
            kinds = [TWIN_PAIR] + ([SATURATED] if n > 2 * i else [])
            for kind in kinds:
                target = 0 if kind == TWIN_PAIR else 2 * i
                fg = build_functigraph(h_graph(n, i), constant_map(n, target))
                computed = lambda_exact(fg.graph).lambda_
                predicted = predicted_lambda_hi(n, i, kind)
                if computed != predicted:
                    failures.append((n, i, kind, predicted, computed))
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        failures.append(("sweep too slow", elapsed))
    verdict("ACCEPTANCE 2 (near-complete h_graph sweep, n=4..9)", failures)


def test_criterion_3_bounds_and_sharpness():
    failures = []
    for n in (3, 4):
        low, high = 3, 2 * n - 2
        bases = [g for g in all_graphs(n) if is_connected(g)]
        for base in bases:
            for fmap in all_maps(n):
                value = lambda_exact(build_functigraph(base, fmap).graph).lambda_
                if not low <= value <= high:
                    failures.append((n, base.edges(), fmap.targets, value))
    low_value = lambda_exact(
        build_functigraph(path_graph(3), identity_map(3)).graph
    ).lambda_
    if low_value != 3:
        failures.append(("path3 identity", low_value))
    for n in range(3, 8):
        fg = build_functigraph(star_graph(n), constant_map(n, 0))
        value = lambda_exact(fg.graph).lambda_
        if value != 2 * n - 2:
            failures.append(("star constant", n, value))
    verdict("ACCEPTANCE 3 (bounds [3, 2n-2] and both sharpness instances)", failures)


def test_criterion_4_gap_realization():
    failures = []
    for t in (2, 3, 4):
        g = pendant_gap_graph(t)
        base_value = lambda_exact(g).lambda_
        if base_value != t:
            failures.append(("base", t, base_value))
        fg = build_functigraph(g, constant_map(g.n, 0))
        doubled = lambda_exact(fg.graph).lambda_
        if doubled != 2 * t:
            failures.append(("functigraph", t, doubled))
    verdict("ACCEPTANCE 4 (gap construction: t then 2t)", failures)


def test_criterion_5_corollary_checks(complete_sweep):
    values, _ = complete_sweep
    failures = []
    for n in range(4, 8):
        base_value = lambda_exact(complete_graph(n)).lambda_
        if base_value != n - 1:
            failures.append(("complete base", n, base_value))
        for sig in signatures(n):
            k = sig.num_parts
            computed = values[(n, sig.parts)]
            if k == n:
                # the cited boundary instance: n matchings but value n - 1,
                # which is why both checks are scoped to image size < n
                if computed != n - 1:
                    failures.append(("bijective boundary", n, computed))
                continue
            if computed < sig.num_unit_parts:
                failures.append(("matching bound", n, sig.parts, computed))
            if (computed == base_value) != (k == n - 1):
                failures.append(("equality at k", n, sig.parts, computed))
    verdict(
        "ACCEPTANCE 5 (matching-count bound and base equality exactly at k=n-1)",
        failures,
    )


def test_criterion_6_oracle_equivalence():
    failures = []

    def check(label, g):
        reference = lambda_oracle(g)
        for pruning in (True, False):
            res = lambda_exact(g, use_twin_pruning=pruning)
            if (res.lambda_, res.witness) != (reference.lambda_, reference.witness):
                failures.append((label, pruning, g.n, g.edges()))

    for n in range(1, 6):
        for g in all_graphs(n):
            if is_connected(g):
                check("exhaustive", g)
    representatives = nonisomorphic_connected_graphs(6)
    if len(representatives) != 112:
        failures.append(("representative count", len(representatives)))
    for g in representatives:
        check("representatives n=6", g)
    rng = random.Random(20260810)
    for _ in range(500):
        g = random_connected_graph(rng, rng.randint(7, 10), rng.uniform(0.25, 0.75))
        check("random", g)
    verdict(
        "ACCEPTANCE 6 (search equals oracle in value and witness, with and without "
        "twin pruning: all labeled n<=5, class representatives at n=6, 500 random "
        "n in [7,10])",
        failures,
    )


def test_criterion_7_property_suite():
    failures = []

    rng = random.Random(71)
    for trial in range(1000):
        g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
        base = VertexSet.of(g.n, [v for v in range(g.n) if rng.random() < 0.6])
        if not is_locating_dominating(g, base):
            continue
        bigger = base | VertexSet.of(g.n, [v for v in range(g.n) if rng.random() < 0.5])
        if not is_locating_dominating(g, bigger):
            failures.append(("superset closure", trial, g.edges(), base.members))

    rng = random.Random(72)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 10))
        value = lambda_exact(g).lambda_
        floor = max(info_lower_bound(g.n), twin_lower_bound(twin_partition(g)))
        if value < floor:
            failures.append(("lower bound", g.edges(), value, floor))

    rng = random.Random(73)
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(3, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        if lambda_exact(permute_graph(g, perm)).lambda_ != lambda_exact(g).lambda_:
            failures.append(("relabeling", g.edges(), perm))

    rng = random.Random(74)
    for n in range(2, 7):
        for sig in signatures(n):
            canonical = lambda_exact(
                build_functigraph(complete_graph(n), signature_map(sig.parts)).graph
            ).lambda_
            for _ in range(2):
                fmap = random_map_with_signature(rng, sig.parts)
                scrambled = lambda_exact(
                    build_functigraph(complete_graph(n), fmap).graph
                ).lambda_
                if scrambled != canonical:
                    failures.append(("signature determines value", n, sig.parts))

    verdict(
        "ACCEPTANCE 7 (superset closure, lower bounds, relabeling invariance, "
        "signature determinism)",
        failures,
    )


def test_criterion_8_counting_lower_bound_unit():
    failures = []
    if info_lower_bound(6) != 3:
        failures.append(("info_lower_bound(6)", info_lower_bound(6)))
    verdict("ACCEPTANCE 8 (counting bound: order 6 needs at least 3)", failures)
