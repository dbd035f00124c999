import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locdom
from locdom.cli import build_parser, main
from locdom.families import (
    FAMILY_KINDS,
    FamilySpec,
    complete_graph,
    make_family,
    path_graph,
    star_graph,
)
from locdom.functigraph import functigraph_from_json_dict
from locdom.graph import Graph, graph_from_edge_text, graph_from_json_dict, graph_to_json_dict


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# outside input for the readers: JSON-shaped values, and graph and functigraph
# documents that are valid apart from at most one stray entry
json_leaves = (
    st.none() | st.booleans() | st.integers(-2, 140) | st.floats() | st.text(max_size=2)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "base", "map", ""]), inner, max_size=4),
    max_leaves=6,
)
stray = st.lists(json_leaves | st.lists(st.integers(-1, 8), max_size=3), max_size=1)


@st.composite
def near_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    return {"n": n, "edges": edges + draw(stray)}


@st.composite
def near_functigraphs(draw):
    base = draw(near_graphs())
    n = base["n"]
    targets = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return {"base": base, "map": targets + draw(stray)}


hostile_json = json_values | near_graphs() | near_functigraphs()
hostile_text = st.text() | st.text(alphabet="0123456789 -#\n\t{}", max_size=60)


def read_or_reject(reader, value):
    """The reader's graph, or None when it rejects ``value`` with ValueError."""
    try:
        return reader(value)
    except ValueError:
        return None


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestGen:
    def test_emits_canonical_json(self, capsys):
        code, out, err = run(capsys, ["gen", "--family", "complete", "--n", "5"])
        assert code == 0
        assert graph_from_json_dict(json.loads(out)) == complete_graph(5)
        # byte-identical with the in-process serialization
        expected = json.dumps(graph_to_json_dict(complete_graph(5)), separators=(",", ":"))
        assert out.strip() == expected

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        code, out, _ = run(
            capsys, ["gen", "--family", "star", "--n", "4", "-o", str(target)]
        )
        assert code == 0
        assert out == ""
        assert graph_from_json_dict(json.loads(target.read_text())) == star_graph(4)

    def test_family_choices_are_the_family_kinds(self, capsys):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        family = next(a for a in sub.choices["gen"]._actions if a.dest == "family")
        assert tuple(family.choices) == FAMILY_KINDS
        for kind in FAMILY_KINDS:
            code, out, _ = run(
                capsys, ["gen", "--family", kind, "--n", "6", "--i", "2", "--t", "3"]
            )
            assert code == 0
            spec = FamilySpec(kind, n=6, i=2, t=3)
            assert graph_from_json_dict(json.loads(out)) == make_family(spec)

    def test_family_parameter_errors(self, capsys):
        code, _, err = run(capsys, ["gen", "--family", "h_graph", "--n", "6"])
        assert code == 2
        assert "error:" in err
        code, _, _ = run(capsys, ["gen", "--family", "pendant_gap", "--t", "1"])
        assert code == 2
        # refused before any edge list is built, so no time or memory is spent
        for family, size in (("path", "--n"), ("star", "--n"), ("cycle", "--n"),
                             ("pendant_gap", "--t")):
            code, _, err = run(capsys, ["gen", "--family", family, size, "1000000000"])
            assert code == 2
            assert "order must be in" in err


class TestLambda:
    def test_graph_file(self, capsys, tmp_path):
        path = write(
            tmp_path, "k4.json", json.dumps(graph_to_json_dict(complete_graph(4)))
        )
        code, out, _ = run(capsys, ["lambda", "--graph", path, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == 3
        assert len(payload["witness"]) == 3
        assert set(payload["stats"]) == {
            "sets_tested",
            "pruned_cardinalities_skipped",
            "elapsed",
        }

    def test_human_output(self, capsys, tmp_path):
        path = write(
            tmp_path, "k4.json", json.dumps(graph_to_json_dict(complete_graph(4)))
        )
        code, out, _ = run(capsys, ["lambda", "--graph", path])
        assert code == 0
        assert "lambda = 3" in out

    def test_piped_from_gen(self, capsys, monkeypatch):
        code, gen_out, _ = run(capsys, ["gen", "--family", "complete", "--n", "5"])
        assert code == 0
        code, out, _ = run(
            capsys,
            ["lambda", "--map", "constant:0", "--json"],
            stdin=gen_out,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["lambda"] == 7

    def test_identity_map_on_path3(self, capsys, tmp_path):
        path = write(tmp_path, "p3.json", json.dumps(graph_to_json_dict(path_graph(3))))
        code, out, _ = run(
            capsys, ["lambda", "--graph", path, "--map", "identity", "--json"]
        )
        assert code == 0
        assert json.loads(out)["lambda"] == 3

    def test_functigraph_json_input(self, capsys, tmp_path):
        doc = {"base": graph_to_json_dict(star_graph(6)), "map": [0] * 6}
        path = write(tmp_path, "fg.json", json.dumps(doc))
        code, out, _ = run(
            capsys, ["lambda", "--graph", path, "--functigraph", "--json"]
        )
        assert code == 0
        assert json.loads(out)["lambda"] == 10

    def test_edge_text_input(self, capsys, tmp_path):
        path = write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")
        code, out, _ = run(capsys, ["lambda", "--graph", path, "--json"])
        assert code == 0
        assert json.loads(out)["lambda"] == 2

    def test_functigraph_flag_needs_map_input(self, capsys, tmp_path):
        path = write(tmp_path, "p3.json", json.dumps(graph_to_json_dict(path_graph(3))))
        code, _, err = run(capsys, ["lambda", "--graph", path, "--functigraph"])
        assert code == 2
        assert "functigraph" in err

    def test_map_conflicts_with_functigraph_input(self, capsys, tmp_path):
        doc = {"base": graph_to_json_dict(path_graph(3)), "map": [0, 0, 0]}
        path = write(tmp_path, "fg.json", json.dumps(doc))
        code, _, err = run(capsys, ["lambda", "--graph", path, "--map", "identity"])
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", "{not json")
        code, _, err = run(capsys, ["lambda", "--graph", path])
        assert code == 2
        assert "error:" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        depth = 100_000
        path = write(tmp_path, "deep.json", '{"n":' * depth + "1" + "}" * depth)
        code, _, err = run(capsys, ["lambda", "--graph", path])
        assert code == 2
        assert "nested too deeply" in err

    def test_bad_edge_order(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", json.dumps({"n": 3, "edges": [[1, 0]]}))
        code, _, _ = run(capsys, ["lambda", "--graph", path])
        assert code == 2

    def test_bad_map_spec(self, capsys, tmp_path):
        path = write(tmp_path, "p3.json", json.dumps(graph_to_json_dict(path_graph(3))))
        for spec in ["constant:9", "perm:0,1", "signature:2,2", "affine:1"]:
            code, _, _ = run(capsys, ["lambda", "--graph", path, "--map", spec])
            assert code == 2

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["lambda", "--map", "identity"], "0 1\n2 3\n"),
            (
                ["lambda"],
                json.dumps({"base": {"n": 4, "edges": [[0, 1], [2, 3]]}, "map": [0] * 4}),
            ),
            (["lambda"], json.dumps({"base": graph_to_json_dict(path_graph(3)), "map": [0, 1]})),
            # a functigraph of a 65-vertex base would have order 130
            (["lambda", "--map", "identity"], "".join(f"{v} {v + 1}\n" for v in range(64))),
        ],
        ids=["map-on-disconnected-base", "json-disconnected-base", "json-short-map",
             "map-above-max-order"],
    )
    def test_functigraph_inputs_rejected(self, capsys, monkeypatch, argv, stdin):
        code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_unknown_flag_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["lambda", "--bogus"])
        assert info.value.code == 2

    def test_removed_deterministic_witness_flag_exits_two(self, capsys, tmp_path):
        # every witness is the lexicographically least and the twin core is
        # always fixed, so neither flag would select anything and both are gone
        path = write(tmp_path, "k4.json", json.dumps(graph_to_json_dict(complete_graph(4))))
        for flag in ("--deterministic-witness", "--no-prune"):
            with pytest.raises(SystemExit) as info:
                main(["lambda", "--graph", path, flag])
            assert info.value.code == 2
            assert flag in capsys.readouterr().err


def twins_on_stdin(text):
    """Exit code and stderr of ``locdom twins`` reading ``text`` on stdin.

    Hypothesis cannot share function-scoped fixtures across examples, so the
    streams are swapped here.
    """
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        return main(["twins"]), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


class TestHostileInput:
    @settings(max_examples=300, deadline=None)
    @given(hostile_json, hostile_text, st.booleans())
    def test_rejected_or_valid(self, data, text, pipe_json):
        for reader, value in (
            (graph_from_json_dict, data),
            (graph_from_edge_text, text),
        ):
            g = read_or_reject(reader, value)
            assert g is None or Graph(g.n, g.adj) == g
        fg = read_or_reject(functigraph_from_json_dict, data)
        if fg is not None:
            assert Graph(fg.graph.n, fg.graph.adj) == fg.graph
            assert fg.graph.n == 2 * fg.base.n
        code, err = twins_on_stdin(json.dumps(data) if pipe_json else text)
        assert code in (0, 2)
        assert (code == 2) == err.startswith("error: ")


class TestOracle:
    def test_small_graph(self, capsys, tmp_path):
        path = write(tmp_path, "k3.json", json.dumps(graph_to_json_dict(complete_graph(3))))
        code, out, _ = run(capsys, ["oracle", "--graph", path, "--json"])
        assert code == 0
        assert json.loads(out)["lambda"] == 2

    def test_guard(self, capsys, tmp_path):
        path = write(tmp_path, "p25.json", json.dumps(graph_to_json_dict(path_graph(25))))
        code, _, err = run(capsys, ["oracle", "--graph", path])
        assert code == 2
        assert "guard" in err


class TestTwins:
    def test_star_json(self, capsys, tmp_path):
        path = write(tmp_path, "s5.json", json.dumps(graph_to_json_dict(star_graph(5))))
        code, out, _ = run(capsys, ["twins", "--graph", path, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 5
        assert {"vertices": [1, 2, 3, 4], "kind": "non-adjacent-twins"} in payload["classes"]

    def test_human(self, capsys, tmp_path):
        path = write(tmp_path, "s5.json", json.dumps(graph_to_json_dict(star_graph(5))))
        code, out, _ = run(capsys, ["twins", "--graph", path])
        assert code == 0
        assert "non-adjacent-twins" in out


class TestVerify:
    def test_small_run_exits_zero(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "verify",
                "--nmax-complete", "4",
                "--nmax-hi", "4",
                "--nmax-bounds", "3",
                "--gap-tmax", "2",
            ],
        )
        assert code == 0
        assert "all match" in out

    def test_csv_on_stdout_keeps_prose_on_stderr(self, capsys):
        code, out, err = run(
            capsys,
            [
                "verify",
                "--nmax-complete", "3",
                "--nmax-hi", "4",
                "--nmax-bounds", "3",
                "--no-gap",
                "--csv", "-",
            ],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "case_id"
        assert "total:" in err

    def test_csv_and_json_both_on_stdout_exit_two(self, capsys, monkeypatch):
        # stdout could carry only one of the two formats
        def no_build(*args):
            raise AssertionError("a case was built before the output check")

        monkeypatch.setattr("locdom.theorems.build_functigraph", no_build)
        code, out, err = run(capsys, ["verify", "--csv", "-", "--json", "-"])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_default_flags_are_the_config_defaults(self, capsys, monkeypatch):
        from locdom.theorems import Report, VerifyConfig

        configs = []

        def captured(config):
            configs.append(config)
            return Report()

        monkeypatch.setattr("locdom.cli.verify_suite", captured)
        code, _, _ = run(capsys, ["verify"])
        assert code == 0
        assert configs == [VerifyConfig()]

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        from locdom.theorems import CaseRow, Report

        doctored = Report([CaseRow("demo-bad", 3, "", "4", 3, False, 0.1, (0,))])
        monkeypatch.setattr("locdom.cli.verify_suite", lambda *a, **k: doctored)
        code, out, _ = run(capsys, ["verify", "--nmax-complete", "2"])
        assert code == 1
        assert "mismatch demo-bad" in out

    def test_json_report_bytes(self, capsys, monkeypatch, tmp_path):
        # the command writes the artifact the benchmark writes:
        # json.dumps(report.to_json_dict()) and a newline, to a file or stdout
        from locdom.theorems import VerifyConfig, verify_suite

        report = verify_suite(VerifyConfig(4, 4, 3, True, 2))
        monkeypatch.setattr("locdom.cli.verify_suite", lambda *a, **k: report)
        expected = json.dumps(report.to_json_dict()) + "\n"
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, ["verify", "--json", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_bytes() == expected.encode()
        code, out, _ = run(capsys, ["verify", "--json", "-"])
        assert code == 0
        assert out == expected

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        # a crash inside the sweep is neither a mismatch (1) nor bad input (2)
        def broken(*args, **kwargs):
            raise RuntimeError("solver fault")

        monkeypatch.setattr("locdom.theorems.lambda_exact", broken)
        code, out, err = run(capsys, ["verify", "--nmax-complete", "2"])
        assert code == 3
        assert out == ""
        assert "internal error: RuntimeError: solver fault" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [["--nmax-complete", "65"], ["--nmax-hi", "65"], ["--nmax-bounds", "7"],
         ["--gap-tmax", "63"]],
    )
    def test_sweep_ceilings_exit_two(self, capsys, monkeypatch, flags):
        # the check must come before any case is built
        def no_build(*args):
            raise AssertionError("a case was built before the ceiling check")

        monkeypatch.setattr("locdom.theorems.build_functigraph", no_build)
        code, out, err = run(capsys, ["verify", *flags])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_ld_threads_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("LD_THREADS", "nope")
        code, out, _ = run(
            capsys,
            ["verify", "--nmax-complete", "3", "--nmax-hi", "4",
             "--nmax-bounds", "3", "--no-gap"],
        )
        assert code == 0
        assert "all match" in out

    @pytest.mark.parametrize("module", ["locdom", "locdom.cli"])
    def test_module_entry_point(self, module):
        env = dict(os.environ, PYTHONPATH=str(Path(locdom.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", module, "verify", "--nmax-complete", "3",
             "--nmax-hi", "4", "--nmax-bounds", "3", "--no-gap"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "all match" in proc.stdout

    def test_cli_import_leaves_out_multiprocessing(self):
        env = dict(os.environ, PYTHONPATH=str(Path(locdom.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, locdom.cli; print('multiprocessing' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_report_files(self, capsys, tmp_path):
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        code, out, err = run(
            capsys,
            [
                "verify",
                "--nmax-complete", "3",
                "--nmax-hi", "4",
                "--nmax-bounds", "3",
                "--no-gap",
                "--csv", str(csv_path),
                "--json", str(json_path),
            ],
        )
        assert code == 0
        assert out == ""
        report = json.loads(json_path.read_text())
        assert report["summary"]["all_match"] is True
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == report["summary"]["total"] + 1
