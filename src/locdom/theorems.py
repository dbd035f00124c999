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
most 4 vertices only the first labeled base G of each isomorphism class is
solved, under the first map of each orbit of its maps under G's
automorphisms, and each row of the orbit on G is lifted once to every
labeled base of the class (see ``_relabeled_rows``). The bounds-range
instances, those orbit representatives and the sampled instances on larger
bases, are solved from their constraint rows alone, each the XOR of a base
part and a map part, with no functigraph built (see ``_bounds_rows``).
"""

from __future__ import annotations

import csv
import random
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, permutations, repeat
from operator import xor
from time import perf_counter_ns
from typing import IO, Iterator

from .families import (
    LABELED_MAX_ORDER,
    FamilySpec,
    all_graphs,
    all_maps,
    complete_graph,
    constant_map,
    h_graph,
    identity_map,
    make_family,
    nonisomorphic_connected_graphs,
    parse_map,
    pendant_gap_graph,
    signature_map,
    signatures,
)
# not called here; perfbench's traced mode wraps these bindings by name
from .families import path_graph, star_graph  # noqa: F401
from .functigraph import BIJECTIVE, CONSTANT, MID_WITH_MATCHING, FunctionMap, Signature
from .functigraph import _base_parts, _map_class, _map_parts, build_functigraph
from .graph import MAX_ORDER, Graph, is_connected, permute_graph
from .solver import _fold_layer, _tables, lambda_exact

SATURATED = "saturated"
TWIN_PAIR = "twin-pair"


def _complete_regime(n: int, sig: Signature) -> tuple[str, int, str]:
    """(case id, predicted value, anchor) of the functigraph of the complete
    graph on n vertices under any map with preimage signature ``sig``."""
    if n < 2:
        raise ValueError("complete-graph predictions need n >= 2")
    if sig.n != n:
        raise ValueError(f"signature {sig.parts} does not sum to {n}")
    kind = _map_class(sig)
    if kind == CONSTANT:
        value = 2 if n == 2 else 2 * n - 3
        return "complete-constant", value, "constant maps: 2 at n=2, else 2n-3"
    if kind == BIJECTIVE:
        value = n if n <= 3 else n - 1
        return "complete-bijective", value, "bijections: n at n<=3, else n-1"
    case_id = "complete-mid-match" if kind == MID_WITH_MATCHING else "complete-mid-nomatch"
    k = sig.num_parts
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
    return _complete_regime(n, sig)[1]


def complete_case_id(n: int, sig: Signature) -> str:
    return _complete_regime(n, sig)[0]


def _hi_regime(n: int, i: int, v_kind: str) -> tuple[str, int]:
    """(case id, predicted value) of the functigraph of ``h_graph(n, i)``
    under a constant map whose image vertex is of kind ``v_kind``."""
    if v_kind not in (SATURATED, TWIN_PAIR):
        raise ValueError(f"unknown image-vertex kind {v_kind!r}")
    if n < 4:
        raise ValueError("h_graph predictions need n >= 4")
    if not 1 <= i <= n // 2:
        raise ValueError(f"need 1 <= i <= floor(n/2), got i={i}")
    if v_kind == SATURATED and n <= 2 * i:
        raise ValueError("no saturated vertices remain when i = n/2")
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
    """Universal range for functigraphs of connected bases of a given order n,
    with a family instance attaining each end. ``lower_witness`` is the
    3-vertex path under the identity for every n: from n = 6 on no n-vertex
    base attains 3, since a 2n-vertex functigraph's counting bound is 4."""

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


# Immutable rows, cheap to build since a sweep builds about ten thousand.
# They come from ``collections.namedtuple``: ``typing.NamedTuple`` would
# compile each of this module's postponed (string) annotations at import.
CaseRow = namedtuple(
    "CaseRow",
    "case_id n params predicted computed match millis witness anchor",
    defaults=("",),
)
CaseRow.__doc__ = "One report row: the predicted and the exact value, and a witness."
# a CaseRow from one iterable of all nine fields, with no Python-level
# ``__new__`` frame: the bounds sweep builds most rows through it
_new_row = partial(tuple.__new__, CaseRow)


@dataclass(frozen=True)
class VerifyConfig:
    """Sweep ceilings; a ceiling below a section's first order turns it off.

    Ceilings that would build a functigraph above ``MAX_ORDER``, or ask for
    isomorphism classes beyond ``LABELED_MAX_ORDER``, raise ``ValueError``
    here, before any case is built.
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
        if self.n_max_bounds > LABELED_MAX_ORDER:
            raise ValueError(
                f"n_max_bounds = {self.n_max_bounds} exceeds {LABELED_MAX_ORDER}, the "
                "largest base order whose isomorphism classes are enumerated"
            )


@dataclass
class Report:
    rows: list[CaseRow] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def matched(self) -> int:
        return sum(r.match for r in self.rows)

    @property
    def all_match(self) -> bool:
        return self.matched == self.total

    def mismatches(self) -> list[CaseRow]:
        return [r for r in self.rows if not r.match]

    def section_counts(self) -> dict[str, tuple[int, int]]:
        """Per section (case-id prefix): (matched, total)."""
        counts: dict[str, tuple[int, int]] = {}
        for r in self.rows:
            section = r.case_id.split("-", 1)[0]
            matched, total = counts.get(section, (0, 0))
            counts[section] = (matched + r.match, total + 1)
        return counts

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
    return "+".join(map(str, sig.parts))


def _map_str(fmap: FunctionMap) -> str:
    return ",".join(map(str, fmap.targets))


def _edge_str(g: Graph) -> str:
    return " ".join(f"{u}-{v}" for u, v in g.edges())


def _row(
    case_id: str, n: int, params: str, value: int, graph: Graph, anchor: str = ""
) -> CaseRow:
    """The row of one instance predicted to have exactly ``value``."""
    result = lambda_exact(graph)
    computed = result.lambda_
    return CaseRow(
        case_id,
        n,
        params,
        str(value),
        computed,
        computed == value,
        result.stats.elapsed * 1000.0,
        result.witness.members,
        anchor,
    )


def _sampled_maps(n: int, rng: random.Random) -> list[FunctionMap]:
    """Deterministic map sample for bases too large for the full n**n sweep:
    identity, every constant, one canonical map per signature, five random."""
    maps: list[FunctionMap] = [identity_map(n)]
    maps.extend(constant_map(n, t) for t in range(n))
    maps.extend(signature_map(sig.parts) for sig in signatures(n))
    maps.extend(
        FunctionMap(n, tuple(rng.randrange(n) for _ in range(n))) for _ in range(5)
    )
    return list({m.targets: m for m in maps}.values())


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
    solving the first base of each class under one map per orbit and
    lifting each row of the orbit once to every labeled base of the class
    (see ``_relabeled_rows``). Larger bases use one representative per
    isomorphism class with a deterministic map sample.

    The sweep runs in one process and solves the cases in order. Every
    section is streamed: each instance is solved and turned into its row in
    turn, so none outlives its row; on at most 4 vertices the columns lifted
    to a later base of the class wait for its turn. A ``bounds-range`` row's
    ``millis`` is, on at most 4 vertices, its share in whole ns of its
    isomorphism class's wall time (see ``_relabeled_rows``), on a sampled
    map the wall time of its fold, solve and witness read; any other solved
    row's is the solve alone.

    ``workers`` is kept only so that callers passing ``workers=1`` (the
    benchmark's worker does) keep working; any other value raises
    ``ValueError`` before a case is built.
    """
    if workers != 1:
        raise ValueError(
            f"workers = {workers!r}: verify runs in one process, so only 1 is accepted"
        )
    cfg = config or VerifyConfig()
    rows = chain(
        _complete_rows(cfg.n_max_complete),
        _hi_rows(cfg.n_max_hi),
        _bounds_rows(cfg.n_max_bounds, random.Random(sample_seed)),
        _gap_rows(cfg.t_max) if cfg.include_gap_lemma else (),
    )
    return Report(list(rows))


def _complete_rows(n_max: int) -> Iterator[CaseRow]:
    """Signature rows of the complete graphs on 2..n_max vertices, then the
    ``complete-base`` rows from n = 4, then the matching-count and
    base-equality rows read off both."""
    # (signature, row) of each map both derived checks cover: from n = 4, of
    # image size below n, since bijections have their own prediction row
    derivable = []
    bases = {n: complete_graph(n) for n in range(2, n_max + 1)}
    for n, base in bases.items():
        for sig in signatures(n):
            case_id, value, anchor = _complete_regime(n, sig)
            fg = build_functigraph(base, signature_map(sig.parts))
            row = _row(case_id, n, f"sig={_sig_str(sig)}", value, fg.graph, anchor)
            if n >= 4 and sig.num_parts < n:
                derivable.append((sig, row))
            yield row
    base_value = {}
    for n in range(4, n_max + 1):
        row = _row(
            "complete-base", n, "family=complete", n - 1, bases[n],
            "complete graphs need n-1",
        )
        base_value[n] = row.computed
        yield row
    for sig, row in derivable:
        k, p = sig.num_parts, sig.num_unit_parts
        yield CaseRow(
            "matching-lower-bound",
            row.n,
            row.params,
            f">={p}",
            row.computed,
            row.computed >= p,
            0.0,
            row.witness,
            anchor="value is at least the number of functi matchings",
        )
        base = base_value[row.n]
        should_equal = k == row.n - 1
        yield CaseRow(
            "equality-at-k",
            row.n,
            f"{row.params} k={k}",
            f"=={base}" if should_equal else f"!={base}",
            row.computed,
            (row.computed == base) == should_equal,
            0.0,
            row.witness,
            anchor="base and functigraph values agree exactly at image size n-1",
        )


def _hi_rows(n_max: int) -> Iterator[CaseRow]:
    for n in range(4, n_max + 1):
        for i in range(1, n // 2 + 1):
            base = h_graph(n, i)
            for target in (0, 2 * i) if 2 * i < n else (0,):
                kind = hi_target_kind(n, i, target)
                fg = build_functigraph(base, constant_map(n, target))
                case_id, value = _hi_regime(n, i, kind)
                yield _row(case_id, n, f"i={i} target={target} kind={kind}", value, fg.graph)


def _bounds_rows(n_max: int, rng: random.Random) -> Iterator[CaseRow]:
    """The bounds section's rows for each n: the sharp rows, then the
    ``bounds-range`` rows, from ``_relabeled_rows`` on at most 4 vertices.

    The sharp rows solve the instances ``predicted_bounds_functigraph(n)``
    names as attaining each end, built from their family and map specs; an
    end's row comes only when its named base has n vertices.

    On larger n each class representative is solved under each sampled map
    with no functigraph built: its constraint rows are the XOR of the base
    parts, built once per base, and the map parts, built once per map and n
    (see ``functigraph._base_parts``). ``solver._fold_layer`` solves those
    rows, and the layer's highest position, the lex-least minimum set, is
    read through the half tables ``ones`` and ``twos`` that
    ``_relabeled_rows`` shares. A sampled row's ``millis`` is the wall time
    of its fold, solve and witness read, in whole ns over 1e6; a row on at
    most 4 vertices gets its share of its isomorphism class's wall time.

    Each n builds the subset tables of order 2n (``solver._tables``) once,
    after its classes on n >= 5, and drops them before the next n.
    """
    for n in range(3, n_max + 1):
        bounds = predicted_bounds_functigraph(n)
        for case_id, value, (spec, map_spec), anchor in (
            ("bounds-sharp-low", bounds.lower, bounds.lower_witness,
             "identity on the 3-path attains the floor"),
            ("bounds-sharp-high", bounds.upper, bounds.upper_witness,
             "stars with a constant map onto the center attain 2n-2"),
        ):
            if spec.n == n:
                fg = build_functigraph(make_family(spec), parse_map(map_spec, n))
                params = f"base={spec.kind}{n} map={map_spec}"
                yield _row(case_id, n, params, value, fg.graph, anchor)
        # n-bit half of a position -> the members it stands for, in either copy
        ones = [tuple(v for v in range(n) if x >> n - 1 - v & 1) for x in range(1 << n)]
        twos = [tuple(n + v for v in members) for members in ones]
        predicted = f"{bounds.lower}..{bounds.upper}"
        if n <= 4:
            yield from _relabeled_rows(n, bounds, predicted, ones, twos, _tables(2 * n))
            continue
        low = (1 << n) - 1
        maps = _sampled_maps(n, rng)
        map_parts = [_map_parts(fmap) for fmap in maps]
        map_strs = [_map_str(fmap) for fmap in maps]
        bases = nonisomorphic_connected_graphs(n)
        # built after the classes, whose generation holds tables of its own
        tables = _tables(2 * n)
        for base in bases:
            base_parts = _base_parts(base)
            prefix = f"edges={_edge_str(base)} map="
            for parts, map_str in zip(map_parts, map_strs):
                started = perf_counter_ns()
                value, layer = _fold_layer(tables, map(xor, base_parts, parts))
                top = layer.bit_length() - 1
                yield _new_row((
                    "bounds-range", n, prefix + map_str, predicted, value,
                    bounds.lower <= value <= bounds.upper, (perf_counter_ns() - started) / 1e6,
                    ones[top >> n] + twos[top & low], "",
                ))
        del tables


def _relabeled_rows(
    n: int, bounds: FunctigraphBounds, predicted: str, ones: list, twos: list, tables: tuple
) -> Iterator[CaseRow]:
    """``bounds-range`` rows of every connected labeled base on n vertices
    under every map, in ``all_graphs`` then ``all_maps`` order.

    The first base G of each isomorphism class comes before the others. Its
    images under the n! permutations, in ``itertools.permutations`` order,
    are the class's labeled bases B. Those onto G are its automorphisms;
    those onto B are p_B sigma, for p_B the first of them and each
    automorphism sigma. Moving copy one of F(G, h0) by alpha and copy two by
    beta, two of those onto B, gives F(B, beta h0 alpha^-1). So G alone is
    solved, under the first map h0 of each orbit of f -> tau f sigma^-1, in
    ``all_maps`` order: G's base parts XOR h0's map parts are the constraint
    rows ``solver._fold_layer`` folds.

    Each fold walks the automorphism pairs (sigma, tau) once on G, keeping
    each pair whose row tau h0 sigma^-1 is new there. The pair lifts to
    (p_B sigma, p_B tau) on each B, onto that row conjugated by p_B, so each
    row of each B is written once. A lifted pair is an isomorphism of the
    two functigraphs, so it carries h0's minimum sets onto the row's own,
    whichever p_B was taken. The witness is the lex-least of them, the
    highest image position: alpha moves each n-bit upper half, chosen once
    per (B, sigma), and beta each lower half. Each B's values, matches and
    witnesses wait in columns in ``pending`` until its turn builds its rows.
    A row's ``millis`` is its share of its class's wall time (isomorphisms,
    folds and lifts), split evenly over its rows (labeled bases times n**n),
    whole ns over 1e6.
    """
    maps = list(all_maps(n))
    map_strs = [_map_str(fmap) for fmap in maps]
    low = (1 << n) - 1
    # position -> the members it stands for, shared by the rows it serves
    witness_of = [ones[p >> n] + twos[p & low] for p in range(1 << 2 * n)]
    # permutation p -> its half table (entry x is half x with each vertex v
    # moved to p[v]), and for every map h in all_maps order the index of p h
    # and the index of h p^-1, each built one vertex v = 0, 1, ... at a time
    records = {}
    for p in permutations(range(n)):
        table, after, before = [0], [0], [0]
        for image in p:
            bit, step = 1 << n - 1 - image, n ** (n - 1 - image)
            table = [x | b for x in table for b in (0, bit)]
            after = [at * n + t for at in after for t in p]
            before = [at + t for at in before for t in range(0, n * step, step)]
        records[p] = table, after, before
    pending = {}  # labeled base -> its lift with its columns, and millis
    for base in all_graphs(n):
        if not is_connected(base):
            continue
        if base.adj not in pending:
            started = perf_counter_ns()
            onto = {}  # labeled base B -> p_B
            auts = []
            for p in records:
                adj = permute_graph(base, p).adj
                onto.setdefault(adj, p)
                if adj == base.adj:
                    auts.append(p)
            # per B, G's first: the records of p_B sigma in auts order, then
            # B's columns of values, matches and witnesses, each entry of
            # which is written once
            lifts = [
                (
                    [records[tuple(map(p.__getitem__, s))] for s in auts],
                    *([0] * n**n for _ in range(3)),
                )
                for p in onto.values()
            ]
            seen = bytearray(len(maps))
            base_parts = _base_parts(base)
            for h0, fmap in enumerate(maps):
                if seen[h0]:
                    continue
                value, layer = _fold_layer(tables, map(xor, base_parts, _map_parts(fmap)))
                match = bounds.lower <= value <= bounds.upper
                # the minimum sets as upper half -> lower halves
                halves = {}
                while layer:
                    top = layer.bit_length() - 1
                    layer ^= 1 << top
                    halves.setdefault(top >> n, []).append(top & low)
                # (sigma, the taus whose row of G is new), by index in auts;
                # G's own lift, the first, holds the automorphisms' records
                reached = []
                for i, (_, _, before) in enumerate(lifts[0][0]):
                    taus = []
                    for j, (_, after, _) in enumerate(lifts[0][0]):
                        if not seen[f := before[after[h0]]]:
                            seen[f] = 1
                            taus.append(j)
                    if taus:
                        reached.append((i, taus))
                for lifted, values, matches, witnesses in lifts:
                    for i, taus in reached:
                        # the highest image has the highest upper half, then
                        # the highest lower half
                        one, _, before = lifted[i]
                        upper = max(halves, key=one.__getitem__)
                        high, lows = one[upper] << n, halves[upper]
                        for j in taus:
                            two, after, _ = lifted[j]
                            f = before[after[h0]]
                            values[f] = value
                            matches[f] = match
                            # most rows have one lower half to choose from
                            witnesses[f] = witness_of[high | (
                                two[lows[0]] if len(lows) == 1 else max(map(two.__getitem__, lows))
                            )]
            millis = (perf_counter_ns() - started) // (len(onto) * len(maps)) / 1e6
            pending.update(zip(onto, zip(lifts, repeat(millis))))
        (_, values, matches, witnesses), millis = pending.pop(base.adj)
        params = map(f"edges={_edge_str(base)} map=".__add__, map_strs)
        yield from map(_new_row, zip(
            repeat("bounds-range"), repeat(n), params, repeat(predicted), values, matches,
            repeat(millis), witnesses, repeat(""),
        ))


def _gap_rows(t_max: int) -> Iterator[CaseRow]:
    for t in range(2, t_max + 1):
        g = pendant_gap_graph(t)
        yield _row("gap-base", g.n, f"t={t}", t, g, "base value is t")
        fg = build_functigraph(g, constant_map(g.n, 0))
        yield _row(
            "gap-functigraph",
            g.n,
            f"t={t} map=constant:0",
            2 * t,
            fg.graph,
            "functigraph value doubles to 2t",
        )
