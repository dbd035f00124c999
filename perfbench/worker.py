"""Child process of the benchmark: one workload, one seed, one mode.

Run by ``perfbench/run.py`` with ``src`` on ``PYTHONPATH``. It imports
``locdom.cli``, builds the workload's inputs and prints a ``ready`` line, so
the parent can time set-up from outside. In ``setup`` mode it then exits. In
``run`` mode it times untraced passes; in ``trace`` mode it times pairs of
an untraced and a traced unit, the traced one with spans around the public
functions of each layer, then (verify workloads) each section alone. Every output is checked;
a failed check is counted, never dropped. The last stdout line is a JSON
summary for the parent.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import harness

clock = time.perf_counter

# Row totals of the two sweeps at seed 0. Other seeds may drop a few rows when
# a random map coincides with a canonical one, up to 5 per class sampled.
EXPECTED_ROWS = {"verify-default": 10_330, "verify-bounds6": 12_683}
SAMPLED_CLASSES = {"verify-default": 21, "verify-bounds6": 21 + 112}
SECTIONS = {"complete", "matching", "equality", "hgraph", "bounds", "gap"}
CLASS_COUNTS = {5: 21, 6: 112}

# The timed sparse instance is fixed; the seed's own sparse graph is solved
# after timing. Across seeds 0-11 a sparse 24-vertex solve took 0.4-3.1 s,
# a spread no regression bound on pass time could absorb.
SPARSE_PASS_SEED = 0


class Checks:
    """Outputs attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


# ---------------------------------------------------------------- workloads


class VerifyWorkload:
    """``verify_suite`` at one config, then the report written the way
    ``locdom verify --json FILE`` writes it."""

    def __init__(self, name: str, seed: int, out_dir: Path, **config: int) -> None:
        from locdom import theorems

        self.name = name
        self.seed = seed
        self.config = theorems.VerifyConfig(**config)
        self.report_path = out_dir / f"report-{name}-seed{seed}.json"
        self.digest: str | None = None

    def build_inputs(self) -> Any:
        return self.config

    def run(self, config: Any, tracer: harness.Tracer | None = None) -> Any:
        from locdom import theorems

        report = theorems.verify_suite(config, workers=1, sample_seed=self.seed)
        span = tracer.open("cli.report_write") if tracer else -1
        text = json.dumps(report.to_json_dict())
        with open(self.report_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if tracer:
            tracer.close(span)
        return report

    def timings(self, report: Any) -> dict[str, float]:
        return {}

    def check(self, report: Any, checks: Checks) -> None:
        for row in report.rows:
            checks.expect(row.match, f"row {row.case_id} {row.params}: predicted "
                          f"{row.predicted}, computed {row.computed}")
        expected = EXPECTED_ROWS[self.name]
        low = expected if self.seed == 0 else expected - 5 * SAMPLED_CLASSES[self.name]
        checks.expect(low <= report.total <= expected,
                      f"{report.total} rows, expected {low}..{expected}")
        checks.expect(set(report.section_counts()) == SECTIONS,
                      f"sections {sorted(report.section_counts())}")
        digest = hashlib.sha256(repr([
            (r.case_id, r.params, r.computed, r.witness) for r in report.rows
        ]).encode()).hexdigest()
        self.digest = self.digest or digest
        checks.expect(digest == self.digest, "rows differ from the first pass")
        with open(self.report_path, encoding="utf-8") as fh:
            written = json.load(fh)
        checks.expect(written["summary"] == {"total": report.total,
                                             "matched": report.matched,
                                             "all_match": report.all_match}
                      and len(written["rows"]) == report.total,
                      "written report does not match the sweep")

    def final_checks(self, checks: Checks) -> dict[str, Any]:
        return {}

    def section_configs(self) -> dict[str, Any]:
        """One config per section, every other section switched off."""
        off = dict(n_max_complete=1, n_max_hi=3, n_max_bounds=2, include_gap_lemma=False)
        cfg = self.config
        return {
            "complete": replace(cfg, **{**off, "n_max_complete": cfg.n_max_complete}),
            "hgraph": replace(cfg, **{**off, "n_max_hi": cfg.n_max_hi}),
            "bounds": replace(cfg, **{**off, "n_max_bounds": cfg.n_max_bounds}),
            "gap": replace(cfg, **{**off, "include_gap_lemma": True}),
        }


@dataclass(frozen=True)
class Instance:
    name: str
    graph: Any
    expected: int | None
    lexmin: bool = False


class LadderWorkload:
    """One ``lambda_exact`` call per instance on inputs built before timing."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.first: dict[str, Any] | None = None

    def build_inputs(self) -> list[Instance]:
        from locdom import families, functigraph, theorems
        from locdom.functigraph import Signature

        def identity_fg(n: int) -> Any:
            base = families.complete_graph(n)
            return functigraph.build_functigraph(base, families.identity_map(n)).graph

        def complete_identity(n: int) -> int:
            return theorems.predicted_lambda_complete(n, Signature((1,) * n))

        sparse = families.random_connected_graph(random.Random(SPARSE_PASS_SEED), 24, 0.15)
        return [
            Instance("cycle-22", families.cycle_graph(22), math.ceil(2 * 22 / 5)),
            Instance("path-22", families.path_graph(22), math.ceil(2 * 22 / 5)),
            Instance("complete-11-identity", identity_fg(11), complete_identity(11)),
            Instance("sparse-24", sparse, None),
            Instance("complete-10-identity-lexmin", identity_fg(10), complete_identity(10),
                     lexmin=True),
        ]

    def run(self, instances: list[Instance], tracer: harness.Tracer | None = None) -> Any:
        from locdom import solver

        results = []
        for inst in instances:
            started = clock()
            result = solver.lambda_exact(inst.graph, deterministic_witness=inst.lexmin)
            results.append((inst, result, clock() - started))
        return results

    def timings(self, output: Any) -> dict[str, float]:
        return {f"solver.solve_s.{inst.name}": solve_s for inst, _, solve_s in output}

    def check(self, output: Any, checks: Checks) -> None:
        from locdom import solver

        for inst, result, _ in output:
            if inst.expected is not None:
                checks.expect(result.lambda_ == inst.expected,
                              f"{inst.name}: lambda {result.lambda_}, expected {inst.expected}")
            checks.expect(_valid_witness(solver, inst.graph, result),
                          f"{inst.name}: witness {result.witness.members} is not a "
                          f"locating-dominating set of size {result.lambda_}")
        seen = {inst.name: (result.lambda_, result.witness) for inst, result, _ in output}
        self.first = self.first or seen
        checks.expect(seen == self.first, "results differ from the first pass")

    def final_checks(self, checks: Checks) -> dict[str, Any]:
        """Oracle agreement, outside every timing, plus the seed's sparse graph."""
        from locdom import families, solver

        graphs = {inst.name: inst.graph for inst in self.build_inputs()}
        solved = self.first or {}
        sparse, lexmin = "sparse-24", "complete-10-identity-lexmin"
        checks.expect(sparse in solved and solved[sparse][0]
                      == solver.lambda_oracle(graphs[sparse]).lambda_,
                      f"{sparse}: lambda disagrees with the oracle")
        checks.expect(lexmin in solved and solved[lexmin][1]
                      == solver.lambda_oracle(graphs[lexmin]).witness,
                      f"{lexmin}: witness is not the oracle's")
        seeded = families.random_connected_graph(random.Random(self.seed), 24, 0.15)
        started = clock()
        result = solver.lambda_exact(seeded)
        solve_s = clock() - started
        checks.expect(_valid_witness(solver, seeded, result),
                      "sparse-24-seeded: witness is not a locating-dominating set")
        checks.expect(result.lambda_ == solver.lambda_oracle(seeded).lambda_,
                      "sparse-24-seeded: lambda disagrees with the oracle")
        return {"solver.solve_s.sparse-24-seeded": {"median": solve_s, "n": 1}}

    def section_configs(self) -> dict[str, Any]:
        return {}


def _valid_witness(solver: Any, graph: Any, result: Any) -> bool:
    return (len(result.witness) == result.lambda_
            and solver.is_locating_dominating(graph, result.witness))


WORKLOADS: dict[str, Callable[[int, Path], Any]] = {
    "verify-default": lambda seed, out: VerifyWorkload("verify-default", seed, out),
    "verify-bounds6": lambda seed, out: VerifyWorkload("verify-bounds6", seed, out,
                                                       n_max_bounds=6),
    "solve-ladder": lambda seed, out: LadderWorkload("solve-ladder", seed),
}


# ------------------------------------------------------------------ tracing

GENERATORS_IN_THEOREMS = (
    "complete_graph", "h_graph", "path_graph", "star_graph", "pendant_gap_graph",
    "signature_map", "constant_map", "identity_map", "signatures", "all_maps", "all_graphs",
)
GENERATORS_IN_FAMILIES = (
    "complete_graph", "cycle_graph", "path_graph", "identity_map", "random_connected_graph",
)


class Instrumented:
    """Module attributes swapped for span-recording stand-ins, restored on exit.

    Each layer is wrapped where its callers look it up: ``theorems`` and
    ``solver`` imported their dependencies by name, so those bindings are the
    ones swapped. ``families`` internals used by ``nonisomorphic_connected_graphs``
    stay unwrapped, so labeled enumeration and canonical forms count as
    isomorphism-class generation.
    """

    def __init__(self, tracer: harness.Tracer) -> None:
        from locdom import families, functigraph, graph, solver, theorems

        self.tracer = tracer
        self.counters = {"sets_tested": 0, "bound_gap": 0, "classes": 0}
        self.class_counts: list[tuple[int, int]] = []
        solve = self._solve_hook
        patches = [
            (theorems, "verify_suite", "theorems.verify_suite", None),
            (theorems, "lambda_exact", "solver.lambda_exact", solve),
            (solver, "lambda_exact", "solver.lambda_exact", solve),
            (solver, "twin_partition", "graph.twin_partition", None),
            (graph.Graph, "__post_init__", "graph.validate", None),
            (theorems, "build_functigraph", "functigraph.build", None),
            (functigraph, "build_functigraph", "functigraph.build", None),
            (theorems, "nonisomorphic_connected_graphs", "families.nonisomorphic",
             self._classes_hook),
        ]
        patches += [(theorems, n, "families.generators", None) for n in GENERATORS_IN_THEOREMS]
        patches += [(families, n, "families.generators", None) for n in GENERATORS_IN_FAMILIES]
        self.patches = patches
        self.originals: list[tuple[Any, str, Any]] = []

    def _solve_hook(self, args: tuple, result: Any) -> None:
        self.counters["sets_tested"] += result.stats.sets_tested
        self.counters["bound_gap"] += result.lambda_ - result.stats.pruned_cardinalities_skipped

    def _classes_hook(self, args: tuple, result: Any) -> None:
        self.counters["classes"] += len(result)
        self.class_counts.append((args[0], len(result)))

    def __enter__(self) -> "Instrumented":
        for owner, attr, name, hook in self.patches:
            original = owner.__dict__[attr]
            wrapped = self.tracer.wrap(name, original)
            if hook is not None:
                wrapped = _after(wrapped, hook)
            self.originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        self.originals.clear()

    def reset(self) -> dict[str, int]:
        counters = dict(self.counters)
        for key in self.counters:
            self.counters[key] = 0
        return counters


def _after(fn: Callable[..., Any], hook: Callable[[tuple, Any], None]) -> Callable[..., Any]:
    """Call ``hook(args, result)`` after ``fn``, outside its span."""

    def call(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        hook(args, result)
        return result

    return call


def layer_metrics(spans: list[harness.Span], counters: dict[str, int]) -> dict[str, float]:
    own = harness.self_times(spans)
    calls = harness.span_counts(spans)
    solve_s = own.get("solver.lambda_exact", 0.0)
    sets = counters["sets_tested"]
    out: dict[str, float] = {
        "families.generators.self_s": own.get("families.generators", 0.0),
        "families.nonisomorphic.self_s": own.get("families.nonisomorphic", 0.0),
        "families.nonisomorphic.classes": counters["classes"],
        "theorems.verify_suite.self_s": own.get("theorems.verify_suite", 0.0),
        "cli.report_write_s": own.get("cli.report_write", 0.0),
        "solver.sets_tested": sets,
        "solver.sets_per_s": sets / solve_s if solve_s else 0.0,
        "solver.hit_ratio": calls.get("solver.lambda_exact", 0) / sets if sets else 0.0,
        "solver.bound_gap": counters["bound_gap"],
    }
    for layer in ("functigraph.build", "graph.validate", "graph.twin_partition",
                  "solver.lambda_exact"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    return out


# --------------------------------------------------------------------- main


def timed_loop(seconds: float, minimum: int, step: Callable[[], float]) -> dict[str, list[float]]:
    """Run ``step`` (which returns its own timed duration) until another run
    would likely overrun ``seconds``, but at least ``minimum`` times.

    Reference probes run after each step, for about a sixth of its time, so
    they sample the machine's speed across the whole loop.
    """
    wall: list[float] = []
    probes: list[float] = []
    started = clock()
    while True:
        gc.collect()
        wall.append(step())
        probes.append(harness.reference_seconds())
        count = round(0.15 * wall[-1] / statistics.fmean(probes))
        probes.extend(harness.reference_seconds() for _ in range(count - 1))
        elapsed = clock() - started
        if len(wall) >= minimum and elapsed + harness.quartiles(wall)[1] > seconds:
            return {"wall": wall, "probes": probes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    started = clock()
    import locdom.cli  # noqa: F401  (the CLI module pulls in every layer)

    import_s = clock() - started
    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    inputs = workload.build_inputs()
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    if args.mode == "setup":
        print(json.dumps({"probes": [harness.reference_seconds() for _ in range(2)]}), flush=True)
        return 0

    checks = Checks()
    summary: dict[str, Any] = {}

    if args.mode == "run":

        def one_pass() -> float:
            t0 = clock()
            output = workload.run(inputs)
            elapsed = clock() - t0
            workload.check(output, checks)
            # set-up plus one pass, read before the first probe runs
            summary.setdefault("peak_rss_mb", resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
            return elapsed

        summary["pass"] = timed_loop(args.seconds, 3, one_pass)
    else:
        summary.update(trace_mode(workload, args.seconds, checks))
        spans = summary.pop("spans")
        path = args.out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)

    summary["detail"] = {**summary.get("detail", {}), **workload.final_checks(checks)}
    summary.update(attempted=checks.attempted, failed=checks.failed, failures=checks.messages)
    print(json.dumps(summary), flush=True)
    return 0


def trace_mode(workload: Any, seconds: float, checks: Checks) -> dict[str, Any]:
    """Pairs of one untraced and one traced unit, then (verify workloads) one
    untraced run per section.

    A unit is input building plus one pass, so layers the ladder only touches
    while building its inputs still show up in its trace. Pairing the units
    puts each traced unit next to an untraced one, so tracing overhead is read
    from neighbours rather than across the machine's slow and fast stretches.
    """
    timings: dict[str, list[float]] = {}
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    last_spans: list[harness.Span] = []
    tracer = harness.Tracer()
    inst = Instrumented(tracer)

    def unit(traced_unit: bool) -> float:
        t0 = clock()
        if traced_unit:
            with inst:
                root = tracer.open("bench.unit")
                output = workload.run(workload.build_inputs(), tracer)
                tracer.close(root)
        else:
            output = workload.run(workload.build_inputs())
        elapsed = clock() - t0
        workload.check(output, checks)
        for name, value in workload.timings(output).items():
            timings.setdefault(name, []).append(value)
        return elapsed

    def pair() -> float:
        nonlocal last_spans
        plain.append(unit(False))
        traced.append(unit(True))
        last_spans = tracer.take()
        layers.append(layer_metrics(last_spans, inst.reset()))
        return plain[-1] + traced[-1]

    probes = timed_loop(seconds, 2, pair)["probes"]
    for n, count in inst.class_counts:
        if n in CLASS_COUNTS:
            checks.expect(count == CLASS_COUNTS[n],
                          f"{count} isomorphism classes at n={n}, expected {CLASS_COUNTS[n]}")

    from locdom import theorems

    detail: dict[str, dict[str, float]] = {}
    for section, config in workload.section_configs().items():
        t0 = clock()
        report = theorems.verify_suite(config, workers=1, sample_seed=workload.seed)
        detail[f"theorems.section_s.{section}"] = {"median": clock() - t0, "n": 1}
        checks.expect(report.all_match and report.total > 0,
                      f"section {section}: {report.total} rows, all match {report.all_match}")
    for name, values in timings.items():
        detail[name] = {"median": harness.quartiles(values)[1], "n": len(values)}

    medians = {name: harness.quartiles([row[name] for row in layers])[1] for name in layers[0]}
    extra = [t - p for p, t in zip(plain, traced)]
    return {
        "unit": {"wall": plain, "probes": probes},
        "traced_unit": {"wall": traced, "probes": probes},
        "layers": {
            **medians,
            "trace.overhead_s": harness.at_reference_speed(harness.quartiles(extra)[1], probes),
            "trace.overhead_pct": 100 * harness.quartiles(
                [t / p - 1 for p, t in zip(plain, traced)])[1],
        },
        "detail": detail,
        "spans": [list(span) for span in last_spans],
    }


if __name__ == "__main__":
    sys.exit(main())
