"""locdom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-default --seed 0 --seconds 30 --trace 0

Run from the repository root. Every timed call goes to a child interpreter
that imports ``src/locdom``; nothing is installed. With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer ones, as
listed in ``BENCHMARK.json``. A table with quartiles, sample counts and every
extra layer figure goes to stdout first; the last stdout line is the JSON
result. Full results and the spans of the last traced unit are written under
``.bench_build/perfbench/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import harness
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name == "solver.sets_per_s":
        return "1/s"
    if name in ("solver.hit_ratio", "error_rate"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s") or ".solve_s." in name or ".section_s." in name:
        return "s"
    return "count"


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "locdom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_header(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
    }


class Child:
    """One worker interpreter; ``ready_s`` is spawn-to-ready wall time."""

    def __init__(self, args: argparse.Namespace, mode: str, out_dir: Path, deadline: float):
        env = {k: v for k, v in os.environ.items() if k != "LD_THREADS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        command = [
            sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--mode", mode, "--out-dir", str(out_dir),
        ]
        self.deadline = deadline
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else ""
            self.ready_s = time.perf_counter() - started
            self.ready = json.loads(line) if line else {}
            if not self.ready.get("ready"):
                raise BenchError(f"{mode} child did not get ready")
        except BaseException:
            self.kill()
            raise

    def _left(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def kill(self) -> None:
        self.proc.kill()
        self.proc.communicate()

    def finish(self) -> dict[str, Any]:
        try:
            out, _ = self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("child ran past the time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"child exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("child printed no result")
        return json.loads(lines[-1])


def measure(args: argparse.Namespace, out_dir: Path) -> tuple[dict[str, Any], dict[str, list[float]]]:
    """Set-up samples from fresh children, then the measuring child's result.

    A set-up sample is spawn-to-ready wall time; each child then runs
    reference probes, which rescale the samples' median.
    """
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    Child(args, "setup", out_dir, deadline).finish()  # fills bytecode and file caches
    setup: dict[str, list[float]] = {"wall": [], "probes": [], "import_s": []}
    for _ in range(SETUP_SAMPLES):
        child = Child(args, "setup", out_dir, deadline)
        setup["probes"] += child.finish()["probes"]
        setup["wall"].append(child.ready_s)
        setup["import_s"].append(child.ready["import_s"])
    main = Child(args, "trace" if args.trace else "run", out_dir, deadline)
    result = main.finish()
    setup["wall"].append(main.ready_s)
    setup["import_s"].append(main.ready["import_s"])
    return result, setup


def rescaled(loop: dict[str, list[float]]) -> dict[str, Any]:
    """Quartiles of a loop's wall times, all rescaled by its median probe."""
    scale = harness.at_reference_speed(1.0, loop["probes"])
    return {**summarize([w * scale for w in loop["wall"]]),
            "wall_median": harness.quartiles(loop["wall"])[1], "probes": len(loop["probes"])}


def summarize(values: list[float]) -> dict[str, Any]:
    q1, median, q3 = harness.quartiles(values)
    entry: dict[str, Any] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    tail = harness.tail_percentile(values)
    if tail is not None:
        entry[f"p{tail[0]}"] = tail[1]
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (ROOT / "src" / "locdom" / "cli.py").is_file():
            raise BenchError(f"no locdom sources under {ROOT / 'src'}")
        out_dir = ROOT / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        header = run_header(args)
        child, setup = measure(args, out_dir)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stats: dict[str, dict[str, Any]] = {}
    if args.trace:
        stats["cli.import_s"] = summarize(setup["import_s"])
        for name, value in child["layers"].items():
            stats[name] = {"median": value, "n": len(child["traced_unit"]["wall"])}
        stats.update(child["detail"])
        stats["bench.unit_s"] = rescaled(child["unit"])
        stats["bench.traced_unit_s"] = rescaled(child["traced_unit"])
        wanted = spec["per_layer"]
    else:
        stats["pass_s"] = rescaled(child["pass"])
        stats["setup_s"] = rescaled(setup)
        stats["reference_s"] = summarize(child["pass"]["probes"])
        stats["peak_rss_mb"] = {"median": child["peak_rss_mb"], "n": 1}
        wanted = spec["end_to_end"]
    attempted, failed = child["attempted"], child["failed"]
    stats["error_rate"] = {"median": failed / attempted if attempted else 1.0, "n": attempted}

    missing = [m["name"] for m in wanted if m["name"] not in stats]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            harness.check_metric_name(m["name"]): {"value": stats[m["name"]]["median"],
                                                   "unit": m["unit"]}
            for m in wanted
        },
    }
    detail_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps({"header": header, "stats": stats, "result": result,
                                       "samples": {"setup": setup, "child": child}},
                                      indent=1) + "\n")

    print("header " + json.dumps(header))
    for name, entry in stats.items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in entry.items() if k not in ("median", "n"))
        print(f"{name:<44} {entry['median']:>14.6g} {unit_of(name):<6} n={entry['n']} {extra}")
    for message in child["failures"]:
        print(f"FAILED: {message}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
