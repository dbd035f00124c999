"""Closed-form location-domination values for functigraph families, plus the
sweep harness that checks every prediction against the exact solver.

Predictions cover three instance families:

* functigraphs of complete graphs, where the value depends only on the map's
  preimage signature;
* functigraphs of complete graphs minus an i-edge matching under constant
  maps, where the value depends on whether the image vertex stayed saturated;
* the universal range [3, 2n - 2] for functigraphs of any connected base of
  order n >= 3, together with the instances attaining each end.

``verify_suite`` checks every swept instance against its exact value and
reports one row per comparison; a mismatch is a report row, never an
exception. Each instance is solved exactly, except that on bases of at
most 4 vertices one instance per symmetry orbit is solved and the others
take its value and witness (see ``_relabeled_rows``).
"""

from __future__ import annotations

import csv
import random
import time
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterator

from .families import (
    FamilySpec,
    _carry,
    _least_code,
    all_graphs,
    all_maps,
    complete_graph,
    constant_map,
    h_graph,
    identity_map,
    map_orbits,
    nonisomorphic_connected_graphs,
    path_graph,
    pendant_gap_graph,
    signature_map,
    signatures,
    star_graph,
)
from .functigraph import FunctionMap, Signature, _copies, _cross_rows, _join, build_functigraph
from .graph import MAX_ORDER, Graph, is_connected
from .solver import lambda_exact, minimum_layer

SATURATED = "saturated"
TWIN_PAIR = "twin-pair"


def _check_signature(n: int, sig: Signature) -> None:
    if sig.n != n:
        raise ValueError(f"signature {sig.parts} does not sum to {n}")


def _complete_regime(n: int, sig: Signature) -> tuple[str, int, str]:
    """(case id, predicted value, anchor) of the functigraph of the complete
    graph on n vertices under any map with preimage signature ``sig``."""
    _check_signature(n, sig)
    k = sig.num_parts
    if k == 1:
        value = 2 if n == 2 else 2 * n - 3
        return "complete-constant", value, "constant maps: 2 at n=2, else 2n-3"
    if k == n:
        value = n if n <= 3 else n - 1
        return "complete-bijective", value, "bijections: n at n<=3, else n-1"
    case_id = "complete-mid-nomatch" if sig.num_unit_parts == 0 else "complete-mid-match"
    if n == 3:
        # the only mid-range signature of 3 is (2, 1), which carries a matching
        return case_id, 2 * n - k - 1, "mid range at n=3: 2n-k-1"
    return case_id, 2 * n - k - 2, "mid range: 2n-k-2"


def predicted_lambda_complete(n: int, sig: Signature) -> int:
    """Predicted value for the functigraph of the complete graph on n >= 2
    vertices, for any map with preimage signature ``sig``.

    With k images and p unit parts:
      k = 1 (constant):   2 when n = 2, else 2n - 3
      k = n (bijective):  n when n <= 3, else n - 1
      1 < k < n:          2n - k - 1 when n = 3, else 2n - k - 2

    The two mid-range regimes (p = 0 and p >= 1) agree at 2n - k - 2 for
    n >= 4; p = 0 with 1 < k < n already forces n >= 4 since every part is
    then at least 2.
    """
    if n < 2:
        raise ValueError("complete-graph predictions need n >= 2")
    return _complete_regime(n, sig)[1]


def complete_case_id(n: int, sig: Signature) -> str:
    return _complete_regime(n, sig)[0]


def _hi_regime(n: int, i: int, v_kind: str) -> tuple[str, int]:
    """(case id, predicted value) of the functigraph of ``h_graph(n, i)``
    under a constant map whose image vertex is of kind ``v_kind``."""
    if n == 4:
        return "hgraph-small", 4
    if i <= n // 2 - 1:
        if v_kind == SATURATED:
            return "hgraph-saturated", 2 * n - 2 * i - 3
        return "hgraph-twin-pair", 2 * n - 2 * i - 2
    if n % 2 == 0:
        return "hgraph-even-half", n - 1
    return "hgraph-odd-half", 2 * (n // 2)


def predicted_lambda_hi(n: int, i: int, v_kind: str) -> int:
    """Predicted value for the functigraph of ``h_graph(n, i)`` under a
    constant map, split by the kind of the image vertex.

      n = 4:                              4 for every valid (i, v_kind)
      n >= 5, i <= floor(n/2) - 1:        2n - 2i - 3 (saturated image)
                                          2n - 2i - 2 (twin-pair image)
      n even, i = n/2:                    n - 1
      n odd,  i = floor(n/2):             2 * floor(n/2), either image kind

    The n = 4 value shadows the general case-1 formula on purpose (4, not 3).
    """
    if v_kind not in (SATURATED, TWIN_PAIR):
        raise ValueError(f"unknown image-vertex kind {v_kind!r}")
    if n < 4:
        raise ValueError("h_graph predictions need n >= 4")
    if not 1 <= i <= n // 2:
        raise ValueError(f"need 1 <= i <= floor(n/2), got i={i}")
    if v_kind == SATURATED and n <= 2 * i:
        raise ValueError("no saturated vertices remain when i = n/2")
    return _hi_regime(n, i, v_kind)[1]


def hi_case_id(n: int, i: int, v_kind: str) -> str:
    return _hi_regime(n, i, v_kind)[0]


def hi_target_kind(n: int, i: int, target: int) -> str:
    """Kind of a constant map's image vertex against the h_graph labeling:
    indices below 2i sit in twin pairs, the rest stayed saturated."""
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range")
    if not 1 <= i <= n // 2:
        raise ValueError(f"need 1 <= i <= floor(n/2), got i={i}")
    return TWIN_PAIR if target < 2 * i else SATURATED


@dataclass(frozen=True)
class FunctigraphBounds:
    """Universal range for functigraphs of connected bases of a given order,
    with the family instances attaining each end."""

    base_order: int
    lower: int
    upper: int
    lower_witness: tuple[FamilySpec, str]
    upper_witness: tuple[FamilySpec, str]


def predicted_bounds_functigraph(n: int) -> FunctigraphBounds:
    if n < 3:
        raise ValueError("functigraph bounds need base order n >= 3")
    return FunctigraphBounds(
        base_order=n,
        lower=3,
        upper=2 * n - 2,
        lower_witness=(FamilySpec("path", n=3), "identity"),
        upper_witness=(FamilySpec("star", n=n), "constant:0"),
    )


# Immutable records, cheap to build since a sweep builds about ten thousand.
# They come from ``collections.namedtuple``: ``typing.NamedTuple`` would
# compile each of this module's postponed (string) annotations at import.
TheoremCase = namedtuple(
    "TheoremCase", "case_id n params low high graph anchor", defaults=("",)
)
TheoremCase.__doc__ = "One solvable instance with its predicted value (or range)."
CaseRow = namedtuple(
    "CaseRow",
    "case_id n params predicted computed match millis witness anchor",
    defaults=("",),
)
CaseRow.__doc__ = "One report row: the predicted and the exact value, and a witness."


@dataclass(frozen=True)
class VerifyConfig:
    """Sweep ceilings; a ceiling below a section's first order turns it off.

    Ceilings that would build a functigraph above ``MAX_ORDER``, or ask for
    isomorphism classes beyond order 6, raise ``ValueError`` here, before
    any case is built.
    """

    n_max_complete: int = 7
    n_max_hi: int = 9
    n_max_bounds: int = 5
    include_gap_lemma: bool = True
    t_max: int = 4

    def __post_init__(self) -> None:
        # every functigraph has twice the base order; the gap base has t + 2
        for name, base_order in (
            ("n_max_complete", self.n_max_complete),
            ("n_max_hi", self.n_max_hi),
            ("t_max", self.t_max + 2),
        ):
            if 2 * base_order > MAX_ORDER:
                raise ValueError(
                    f"{name} = {getattr(self, name)} builds functigraphs above "
                    f"order {MAX_ORDER}"
                )
        if self.n_max_bounds > 6:
            raise ValueError(
                f"n_max_bounds = {self.n_max_bounds} exceeds 6, the largest base "
                "order whose isomorphism classes are enumerated"
            )


@dataclass
class Report:
    rows: list[CaseRow] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def matched(self) -> int:
        return sum(1 for r in self.rows if r.match)

    @property
    def all_match(self) -> bool:
        return self.matched == self.total

    def mismatches(self) -> list[CaseRow]:
        return [r for r in self.rows if not r.match]

    def section_counts(self) -> dict[str, tuple[int, int]]:
        """Per section (case-id prefix): (matched, total)."""
        counts: dict[str, list[int]] = {}
        for r in self.rows:
            section = r.case_id.split("-", 1)[0]
            entry = counts.setdefault(section, [0, 0])
            entry[0] += int(r.match)
            entry[1] += 1
        return {k: (v[0], v[1]) for k, v in counts.items()}

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream)
        writer.writerow(["case_id", "n", "params", "predicted", "computed", "match", "millis"])
        for r in self.rows:
            writer.writerow(
                [
                    r.case_id,
                    r.n,
                    r.params,
                    r.predicted,
                    r.computed,
                    "true" if r.match else "false",
                    f"{r.millis:.3f}",
                ]
            )

    def to_json_dict(self) -> dict:
        # one object per row, its fields in CaseRow order; json writes the
        # witness tuple as a list
        matched = self.matched
        return {
            "summary": {
                "total": self.total,
                "matched": matched,
                "all_match": matched == self.total,
            },
            "rows": [
                {
                    "case_id": case_id,
                    "n": n,
                    "params": params,
                    "predicted": predicted,
                    "computed": computed,
                    "match": match,
                    "millis": millis,
                    "witness": witness,
                    "anchor": anchor,
                }
                for case_id, n, params, predicted, computed, match, millis, witness, anchor
                in self.rows
            ],
        }


def _sig_str(sig: Signature) -> str:
    return "+".join(str(p) for p in sig.parts)


def _map_str(fmap: FunctionMap) -> str:
    return ",".join(str(t) for t in fmap.targets)


def _edge_str(g: Graph) -> str:
    return " ".join(f"{u}-{v}" for u, v in g.edges())


def _row(case: TheoremCase) -> CaseRow:
    case_id, n, params, low, high, graph, anchor = case
    result = lambda_exact(graph)
    value = result.lambda_
    predicted = str(low) if low == high else f"{low}..{high}"
    return CaseRow(
        case_id,
        n,
        params,
        predicted,
        value,
        low <= value <= high,
        result.stats.elapsed * 1000.0,
        result.witness.members,
        anchor,
    )


def _sampled_maps(n: int, rng: random.Random, extra: int = 5) -> list[FunctionMap]:
    """Deterministic map sample for bases too large for the full n**n sweep:
    identity, every constant, one canonical map per signature, a few random."""
    maps: list[FunctionMap] = [identity_map(n)]
    maps.extend(constant_map(n, t) for t in range(n))
    maps.extend(signature_map(sig.parts) for sig in signatures(n))
    maps.extend(
        FunctionMap(n, tuple(rng.randrange(n) for _ in range(n))) for _ in range(extra)
    )
    unique: dict[tuple[int, ...], FunctionMap] = {m.targets: m for m in maps}
    return list(unique.values())


def verify_suite(
    config: VerifyConfig | None = None,
    workers: int = 1,
    sample_seed: int = 0,
) -> Report:
    """Find the exact value of every swept instance and compare against the
    predictions.

    Sections: the complete-graph signature sweep (with the matching-count and
    base-equality checks derived from it), the near-complete h_graph sweep,
    the bounds sweep with its sharpness instances, and the gap construction.
    Bases of order up to 4 are swept with every labeled base and every map,
    solving one instance per symmetry orbit (see ``_relabeled_rows``).
    Larger bases use one representative per isomorphism class with a
    deterministic map sample.

    The sweep runs in one process and solves the cases in order. The bounds
    rows are streamed: each instance is built, solved and turned into its
    row in turn, so none outlives its row. A ``bounds-range`` row's
    ``millis`` is the wall time spent producing it (build and solve, or
    derivation), any other solved row's the solve alone.

    ``workers`` is kept only so that callers passing ``workers=1`` (the
    benchmark's worker does) keep working; any other value raises
    ``ValueError`` before a case is built.
    """
    if workers != 1:
        raise ValueError(
            f"workers = {workers!r}: verify runs in one process, so only 1 is accepted"
        )
    cfg = config or VerifyConfig()
    sigs, complete = _complete_cases(cfg.n_max_complete)
    head = [_row(case) for case in complete]
    rest = chain(
        map(_row, _hi_cases(cfg.n_max_hi)),
        _bounds_rows(cfg.n_max_bounds, random.Random(sample_seed)),
        map(_row, _gap_cases(cfg.t_max)) if cfg.include_gap_lemma else (),
    )
    return Report(head + _derived_rows(sigs, head) + list(rest))


def _exact(
    case_id: str, n: int, params: str, value: int, graph: Graph, anchor: str = ""
) -> TheoremCase:
    return TheoremCase(case_id, n, params, value, value, graph, anchor)


def _complete_cases(n_max: int) -> tuple[list[tuple[int, Signature]], list[TheoremCase]]:
    """Signature cases of the complete graphs on 2..n_max vertices, then the
    ``complete-base`` cases from n = 4; ``sigs`` lists the (n, sig) of each
    signature case, in case order."""
    sigs = [(n, sig) for n in range(2, n_max + 1) for sig in signatures(n)]
    cases: list[TheoremCase] = []
    for n, sig in sigs:
        case_id, value, anchor = _complete_regime(n, sig)
        fg = build_functigraph(complete_graph(n), signature_map(sig.parts))
        cases.append(_exact(case_id, n, f"sig={_sig_str(sig)}", value, fg.graph, anchor))
    cases += [
        _exact(
            "complete-base",
            n,
            "family=complete",
            n - 1,
            complete_graph(n),
            "complete graphs need n-1",
        )
        for n in range(4, n_max + 1)
    ]
    return sigs, cases


def _hi_cases(n_max: int) -> list[TheoremCase]:
    cases: list[TheoremCase] = []
    for n in range(4, n_max + 1):
        for i in range(1, n // 2 + 1):
            kinds = [TWIN_PAIR] + ([SATURATED] if n > 2 * i else [])
            for kind in kinds:
                target = 0 if kind == TWIN_PAIR else 2 * i
                fg = build_functigraph(h_graph(n, i), constant_map(n, target))
                case_id, value = _hi_regime(n, i, kind)
                cases.append(
                    _exact(case_id, n, f"i={i} target={target} kind={kind}", value, fg.graph)
                )
    return cases


def _bounds_rows(n_max: int, rng: random.Random) -> Iterator[CaseRow]:
    """The bounds section's rows for each n: the sharp instances, then the
    ``bounds-range`` rows, from ``_relabeled_rows`` on at most 4 vertices.

    On larger n each class representative is joined to each sampled map:
    its copy rows are built once per base and each map's cross rows once
    per n. ``minimum_layer`` solves the join, and its highest position,
    the lex-least minimum set, is read through the half tables ``ones``
    and ``twos`` that ``_relabeled_rows`` shares. A row's ``millis`` is
    the wall time of its join, solve and witness read, in whole ns over 1e6.
    """
    clock = time.perf_counter_ns
    for n in range(3, n_max + 1):
        bounds = predicted_bounds_functigraph(n)
        if n == 3:
            fg = build_functigraph(path_graph(3), identity_map(3))
            yield _row(
                _exact(
                    "bounds-sharp-low",
                    n,
                    "base=path3 map=identity",
                    bounds.lower,
                    fg.graph,
                    "identity on the 3-path attains the floor",
                )
            )
        fg = build_functigraph(star_graph(n), constant_map(n, 0))
        yield _row(
            _exact(
                "bounds-sharp-high",
                n,
                f"base=star{n} map=constant:0",
                bounds.upper,
                fg.graph,
                "stars with a constant map onto the center attain 2n-2",
            )
        )
        # n-bit half of a position -> the members it stands for, in either copy
        ones = [tuple(v for v in range(n) if x >> n - 1 - v & 1) for x in range(1 << n)]
        twos = [tuple(n + v for v in members) for members in ones]
        if n <= 4:
            yield from _relabeled_rows(n, bounds, ones, twos)
            continue
        predicted = f"{bounds.lower}..{bounds.upper}"
        low = (1 << n) - 1
        maps = _sampled_maps(n, rng)
        crosses = [_cross_rows(fmap) for fmap in maps]
        map_strs = [_map_str(fmap) for fmap in maps]
        for base in nonisomorphic_connected_graphs(n):
            copies = _copies(base)
            prefix = f"edges={_edge_str(base)} map="
            for cross, map_str in zip(crosses, map_strs):
                started = clock()
                value, layer = minimum_layer(_join(copies, cross))
                top = layer.bit_length() - 1
                yield CaseRow(
                    "bounds-range",
                    n,
                    prefix + map_str,
                    predicted,
                    value,
                    bounds.lower <= value <= bounds.upper,
                    (clock() - started) / 1e6,
                    ones[top >> n] + twos[top & low],
                )


def _relabeled_rows(
    n: int, bounds: FunctigraphBounds, ones: list[tuple], twos: list[tuple]
) -> Iterator[CaseRow]:
    """``bounds-range`` rows of every connected labeled base on n vertices
    under every map, in ``all_graphs`` then ``all_maps`` order.

    Only the first base G of each isomorphism class is solved, and only
    under the first map h0 of each orbit of ``map_orbits(G)``: F(G, sigma
    h0 tau) is F(G, h0) with its first copy moved by tau^-1 and its second
    by sigma. Moving a base by ``perm`` and its map g to ``perm g perm^-1``
    moves both copies by ``perm``, so the base ``permute_graph(G, perm)``
    under g reads h = perm^-1 g perm = sigma h0 tau. Its locating-dominating
    sets are those of F(G, h0) moved by perm tau^-1 on copy one and by perm
    sigma on copy two, and its witness is the lex-least image of h0's
    minimum sets. In the position order of ``minimum_layer`` each n-bit
    half of a position is moved by the table of its copy's permutation, and
    the lex-least image is the highest. One ``_least_code`` per base gives
    its class, ``perm`` and, for G, the automorphisms. A row's ``millis``
    is the wall time spent producing it, in whole ns over 1e6: the build
    and solve for G under h0, the derivation for every other row.
    """
    clock = time.perf_counter_ns
    maps = list(all_maps(n))
    map_strs = [_map_str(fmap) for fmap in maps]
    predicted = f"{bounds.lower}..{bounds.upper}"
    low = (1 << n) - 1
    # permutation p -> half table: entry x is half x with each vertex v moved
    # to p[v]
    tables: dict[tuple[int, ...], list[int]] = {}
    # class key -> (first order of the first base G, its map_orbits, first
    # map index of an orbit -> (value, match, the minimum sets as upper
    # half -> lower halves))
    classes: dict[tuple, tuple] = {}
    for base in all_graphs(n):
        if not is_connected(base):
            continue
        key, orders = _least_code(base)
        if key not in classes:
            classes[key] = (orders[0], *map_orbits(base, orders), [None] * len(maps))
        first, auts, orbits, answers = classes[key]
        perm, inverse = _carry(first, orders[0]), _carry(orders[0], first)
        moved = []
        for aut in auts:
            p = tuple(perm[v] for v in aut)
            if p not in tables:
                tables[p] = [sum(1 << n - 1 - p[v] for v in members) for members in ones]
            moved.append(tables[p].__getitem__)
        # the index of perm^-1 g perm for every g in all_maps order: g's
        # digit v, of value t, is digit inverse[v] of value inverse[t] there
        conjugated = [0]
        for v in range(n):
            step = n ** (n - 1 - inverse[v])
            conjugated = [at + inverse[t] * step for at in conjugated for t in range(n)]
        prefix = f"edges={_edge_str(base)} map="
        # (h0, i) -> the highest upper half under moved[i], kept per base
        uppers = {}
        for index, map_str in zip(conjugated, map_strs):
            started = clock()
            h0, i, j = orbits[index]
            answer = answers[h0]
            if answer is None:
                # maps come in all_maps order, so this is G under h0 itself
                value, layer = minimum_layer(build_functigraph(base, maps[h0]).graph)
                halves: dict[int, list[int]] = {}
                while layer:
                    top = layer.bit_length() - 1
                    layer ^= 1 << top
                    halves.setdefault(top >> n, []).append(top & low)
                answer = answers[h0] = (value, bounds.lower <= value <= bounds.upper, halves)
            value, match, halves = answer
            one, two = moved[i], moved[j]
            # the highest image has the highest upper half, then lower half
            upper = uppers.get((h0, i))
            if upper is None:
                upper = uppers[h0, i] = max(halves, key=one)
            lower = max(halves[upper], key=two)
            yield CaseRow(
                "bounds-range",
                n,
                prefix + map_str,
                predicted,
                value,
                match,
                (clock() - started) / 1e6,
                ones[one(upper)] + twos[two(lower)],
            )


def _gap_cases(t_max: int) -> list[TheoremCase]:
    cases: list[TheoremCase] = []
    for t in range(2, t_max + 1):
        g = pendant_gap_graph(t)
        cases.append(_exact("gap-base", g.n, f"t={t}", t, g, "base value is t"))
        fg = build_functigraph(g, constant_map(g.n, 0))
        cases.append(
            _exact(
                "gap-functigraph",
                g.n,
                f"t={t} map=constant:0",
                2 * t,
                fg.graph,
                "functigraph value doubles to 2t",
            )
        )
    return cases


def _derived_rows(
    sigs: list[tuple[int, Signature]], complete_rows: list[CaseRow]
) -> list[CaseRow]:
    """Matching-count and base-equality rows for the signature rows of
    ``complete_rows``, which pair up with ``sigs``; the base value is read off
    the ``complete-base`` rows."""
    base_lambda = {r.n: r.computed for r in complete_rows if r.case_id == "complete-base"}
    derived: list[CaseRow] = []
    for (n, sig), row in zip(sigs, complete_rows):
        if n < 4:
            continue
        k = sig.num_parts
        if k == n:
            # both derived checks are scoped to maps with image size < n;
            # bijections already have their own prediction row above
            continue
        p = sig.num_unit_parts
        derived.append(
            CaseRow(
                "matching-lower-bound",
                n,
                f"sig={_sig_str(sig)}",
                f">={p}",
                row.computed,
                row.computed >= p,
                0.0,
                row.witness,
                anchor="value is at least the number of functi matchings",
            )
        )
        base_value = base_lambda[n]
        should_equal = k == n - 1
        derived.append(
            CaseRow(
                "equality-at-k",
                n,
                f"sig={_sig_str(sig)} k={k}",
                f"=={base_value}" if should_equal else f"!={base_value}",
                row.computed,
                (row.computed == base_value) == should_equal,
                0.0,
                row.witness,
                anchor="base and functigraph values agree exactly at image size n-1",
            )
        )
    return derived
