import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locdom
from locdom.cli import main
from locdom.families import complete_graph, path_graph, star_graph
from locdom.graph import graph_from_json_dict, graph_to_json_dict


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_family_parameter_errors(self, capsys):
        code, _, err = run(capsys, ["gen", "--family", "h_graph", "--n", "6"])
        assert code == 2
        assert "error:" in err
        code, _, _ = run(capsys, ["gen", "--family", "pendant_gap", "--t", "1"])
        assert code == 2
        # refused before any edge list is built, so no time or memory is spent
        code, _, err = run(capsys, ["gen", "--family", "path", "--n", "1000000000"])
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

    def test_no_prune_agrees(self, capsys, tmp_path):
        path = write(tmp_path, "k4.json", json.dumps(graph_to_json_dict(complete_graph(4))))
        _, out_default, _ = run(capsys, ["lambda", "--graph", path, "--json"])
        _, out_noprune, _ = run(
            capsys, ["lambda", "--graph", path, "--no-prune", "--json"]
        )
        assert json.loads(out_default)["lambda"] == json.loads(out_noprune)["lambda"]

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

    def test_unknown_flag_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["lambda", "--bogus"])
        assert info.value.code == 2


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

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        from locdom.theorems import CaseRow, Report

        doctored = Report([CaseRow("demo-bad", 3, "", "4", 3, False, 0.1, (0,))])
        monkeypatch.setattr("locdom.cli.verify_suite", lambda *a, **k: doctored)
        code, out, _ = run(capsys, ["verify", "--nmax-complete", "2"])
        assert code == 1
        assert "mismatch demo-bad" in out

    def test_ld_threads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LD_THREADS", "2")
        code, out, _ = run(
            capsys,
            ["verify", "--nmax-complete", "3", "--nmax-hi", "4",
             "--nmax-bounds", "3", "--no-gap"],
        )
        assert code == 0
        assert "all match" in out
        monkeypatch.setenv("LD_THREADS", "nope")
        code, _, err = run(capsys, ["verify", "--nmax-complete", "3"])
        assert code == 2

    @pytest.mark.parametrize("module", ["locdom", "locdom.cli"])
    def test_module_entry_point(self, module):
        env = dict(os.environ, PYTHONPATH=str(Path(locdom.__file__).parents[1]))
        env.pop("LD_THREADS", None)
        proc = subprocess.run(
            [sys.executable, "-m", module, "verify", "--nmax-complete", "3",
             "--nmax-hi", "4", "--nmax-bounds", "3", "--no-gap"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "all match" in proc.stdout

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
