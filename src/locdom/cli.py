"""Command-line front end: solve graphs, inspect twins, generate families,
and run the verification sweeps.

Exit codes: 0 on success (and all rows matching for ``verify``), 1 when a
verification sweep has mismatches, 2 on any input error, 3 on an internal
error (any other exception, reported as ``internal error: ...``). With
``--json`` or ``--csv``, stdout carries only the structured artifact; prose
goes to stderr. At most one of them may write to stdout. ``verify`` runs in
one process.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import IO, Iterator

from .families import FAMILY_KINDS, FamilySpec, make_family, parse_map
from .functigraph import build_functigraph, functigraph_from_json_dict
from .graph import (
    Graph,
    graph_from_edge_text,
    graph_from_json_dict,
    graph_to_json_dict,
    twin_partition,
)
from .solver import SolveResult, lambda_exact, lambda_oracle
from .theorems import Report, VerifyConfig, verify_suite


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_input(text: str, map_spec: str | None, require_functigraph: bool) -> Graph:
    """Parse a Graph, or a Functigraph's graph (JSON sniffed by the leading
    brace and the "map" key, anything else treated as edge-list text)."""
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty input")
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("JSON input nested too deeply") from None
        if isinstance(data, dict) and "map" in data:
            if map_spec is not None:
                raise ValueError("--map conflicts with functigraph input")
            return functigraph_from_json_dict(data).graph
        base = graph_from_json_dict(data)
    else:
        base = graph_from_edge_text(text)
    if map_spec is not None:
        return build_functigraph(base, parse_map(map_spec, base.n)).graph
    if require_functigraph:
        raise ValueError("--functigraph needs functigraph JSON input or --map")
    return base


def _emit_solve(result: SolveResult, as_json: bool) -> None:
    if as_json:
        payload = {
            "lambda": result.lambda_,
            "witness": list(result.witness.members),
            "stats": {
                "sets_tested": result.stats.sets_tested,
                "pruned_cardinalities_skipped": result.stats.pruned_cardinalities_skipped,
                "elapsed": result.stats.elapsed,
            },
        }
        print(json.dumps(payload))
        return
    print(f"lambda = {result.lambda_}")
    print("witness =", " ".join(str(v) for v in result.witness.members))
    stats = result.stats
    print(
        f"sets tested = {stats.sets_tested}, cardinalities skipped = "
        f"{stats.pruned_cardinalities_skipped}, elapsed = {stats.elapsed:.3f}s"
    )


def cmd_lambda(args: argparse.Namespace) -> int:
    g = _load_input(_read_text(args.graph), args.map, args.functigraph)
    _emit_solve(lambda_exact(g), args.json)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_input(_read_text(args.graph), args.map, args.functigraph)
    _emit_solve(lambda_oracle(g), args.json)
    return 0


def cmd_twins(args: argparse.Namespace) -> int:
    g = _load_input(_read_text(args.graph), args.map, args.functigraph)
    partition = twin_partition(g)
    if args.json:
        payload = {
            "n": g.n,
            "classes": [
                {"vertices": list(cls.vertices.members), "kind": cls.kind}
                for cls in partition
            ],
        }
        print(json.dumps(payload))
        return 0
    print(f"n = {g.n}")
    for cls in partition:
        members = " ".join(str(v) for v in cls.vertices.members)
        print(f"{{{members}}} {cls.kind}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    g = make_family(FamilySpec(args.family, n=args.n, i=args.i, t=args.t))
    with _output(args.output) as fh:
        fh.write(json.dumps(graph_to_json_dict(g), separators=(",", ":")) + "\n")
    return 0


@contextmanager
def _output(path: str) -> Iterator[IO[str]]:
    """The stream for an output FILE, or stdout for ``-``; a file gets no
    newline translation, as the CSV writer needs."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _print_summary(report: Report, stream: IO[str]) -> None:
    for section, (matched, total) in sorted(report.section_counts().items()):
        print(f"{section}: {matched}/{total}", file=stream)
    verdict = "all match" if report.all_match else "MISMATCHES"
    print(f"total: {report.matched}/{report.total} rows, {verdict}", file=stream)
    for row in report.mismatches()[:20]:
        print(
            f"  mismatch {row.case_id} n={row.n} {row.params}: "
            f"predicted {row.predicted}, computed {row.computed}",
            file=stream,
        )


def cmd_verify(args: argparse.Namespace) -> int:
    if args.csv == "-" and args.json_out == "-":
        raise ValueError("--csv - and --json - would both write to stdout; send one to a file")
    config = VerifyConfig(
        n_max_complete=args.nmax_complete,
        n_max_hi=args.nmax_hi,
        n_max_bounds=args.nmax_bounds,
        include_gap_lemma=not args.no_gap,
        t_max=args.gap_tmax,
    )
    report = verify_suite(config)
    structured = args.csv is not None or args.json_out is not None
    _print_summary(report, sys.stderr if structured else sys.stdout)
    if args.csv is not None:
        with _output(args.csv) as fh:
            report.write_csv(fh)
    if args.json_out is not None:
        with _output(args.json_out) as fh:
            # the report is a tree of fresh containers: the cycle check only costs time
            fh.write(json.dumps(report.to_json_dict(), check_circular=False) + "\n")
    return 0 if report.all_match else 1


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", metavar="FILE", default=None,
                        help="input file (JSON or edge list); default stdin")
    parser.add_argument("--map", metavar="SPEC", default=None,
                        help="build a functigraph from the input base graph: "
                        "constant:<v>, perm:<comma list>, signature:<comma list>, identity")
    parser.add_argument("--functigraph", action="store_true",
                        help="require the input to describe a functigraph")
    parser.add_argument("--json", action="store_true", help="emit a JSON result")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locdom",
        description="Exact locating-domination computations on graphs and functigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lambda = sub.add_parser("lambda", help="exact value via the hitting-set search")
    _add_input_options(p_lambda)
    p_lambda.set_defaults(func=cmd_lambda)

    p_oracle = sub.add_parser("oracle", help="exact value via plain enumeration (order <= 24)")
    _add_input_options(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_twins = sub.add_parser("twins", help="print the twin partition")
    _add_input_options(p_twins)
    p_twins.set_defaults(func=cmd_twins)

    p_gen = sub.add_parser("gen", help="emit a family graph as JSON")
    p_gen.add_argument("--family", required=True, choices=FAMILY_KINDS)
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--i", type=int, default=None, help="removed matching size (h_graph)")
    p_gen.add_argument("--t", type=int, default=None, help="gap parameter (pendant_gap)")
    p_gen.add_argument("-o", "--output", metavar="FILE", default="-")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="run the prediction sweeps")
    p_verify.add_argument("--nmax-complete", type=int, default=VerifyConfig.n_max_complete)
    p_verify.add_argument("--nmax-hi", type=int, default=VerifyConfig.n_max_hi)
    p_verify.add_argument("--nmax-bounds", type=int, default=VerifyConfig.n_max_bounds)
    p_verify.add_argument("--gap-tmax", type=int, default=VerifyConfig.t_max)
    p_verify.add_argument("--no-gap", action="store_true", help="skip the gap construction")
    p_verify.add_argument("--csv", metavar="FILE", default=None,
                          help="write the report as CSV ('-' for stdout)")
    p_verify.add_argument("--json", dest="json_out", metavar="FILE", default=None,
                          help="write the report as JSON ('-' for stdout)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program, not of its input or of the predictions
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
