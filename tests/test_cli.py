import collections
import enum
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import semidom
from semidom import cli, intervals
from semidom.formats import write_edgelist, write_partition
from semidom.generators import (gen_connected_graph, gen_interval_model, gen_named,
                                gen_split_graph)
from semidom.graph import Graph, SplitPartition
from semidom.intervals import intersection_graph

SOLVE_KEYS = {"algorithm", "n", "m", "size", "set", "verified", "elapsedMs", "extra"}


# the child process imports the same semidom as this one, installed or not
SRC = str(Path(semidom.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "semidom", *args],
                          capture_output=True, text=True, cwd=cwd, env=CHILD_ENV)
    doc = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, doc


class TestSolve:
    def test_exact_on_generated_cycle(self, tmp_path):
        f = tmp_path / "c4.txt"
        code, doc = run_cli("gen", "--family", "cycle", "--size", "4",
                            "--output", str(f))
        assert code == 0 and doc["n"] == 4
        code, doc = run_cli("solve", "--algo", "exact", "--input", str(f))
        assert code == 0
        assert set(doc) == SOLVE_KEYS
        assert doc["size"] == 2 and doc["verified"] is True
        assert doc["set"] == sorted(doc["set"])

    def test_interval_matches_exact(self, tmp_path):
        f = tmp_path / "m.txt"
        run_cli("gen", "--family", "intervals", "--size", "9", "--seed", "5",
                "--output", str(f))
        code_i, doc_i = run_cli("solve", "--algo", "interval",
                                "--format", "intervals", "--input", str(f))
        code_e, doc_e = run_cli("solve", "--algo", "exact",
                                "--format", "intervals", "--input", str(f))
        assert code_i == code_e == 0
        assert doc_i["size"] == doc_e["size"]
        assert doc_i["verified"] and doc_e["verified"]

    def test_approx_is_verified(self, tmp_path):
        f = tmp_path / "g.txt"
        run_cli("gen", "--family", "random", "--size", "10", "--p", "0.4",
                "--seed", "2", "--output", str(f))
        code, doc = run_cli("solve", "--algo", "approx", "--input", str(f))
        assert code == 0 and doc["verified"] is True

    def test_interval_algo_requires_interval_format(self, tmp_path):
        f = tmp_path / "c4.txt"
        run_cli("gen", "--family", "cycle", "--size", "4", "--output", str(f))
        code, doc = run_cli("solve", "--algo", "interval", "--input", str(f))
        assert code == 1 and "error" in doc

    def test_infeasible_instance_exits_3(self, tmp_path):
        f = tmp_path / "iso.txt"
        f.write_text("2 0\n")
        code, doc = run_cli("solve", "--algo", "exact", "--input", str(f))
        assert code == 3 and doc["kind"] == "infeasible"

    def test_approx_on_disconnected_graph(self, tmp_path):
        f = tmp_path / "2k2.txt"
        f.write_text("4 2\n0 1\n2 3\n")
        code, doc = run_cli("solve", "--algo", "approx", "--input", str(f))
        assert code == 0 and doc["set"] == [0, 1, 2, 3] and doc["verified"] is True
        f.write_text("3 1\n0 1\n")
        code, doc = run_cli("solve", "--algo", "approx", "--input", str(f))
        assert code == 3 and doc["kind"] == "infeasible"

    def test_exact_node_budget_exits_4(self, tmp_path):
        f = tmp_path / "g60.txt"
        run_cli("gen", "--family", "random", "--size", "60", "--p", "0.08",
                "--seed", "0", "--output", str(f))
        code, doc = run_cli("solve", "--algo", "exact", "--input", str(f),
                            "--max-nodes", "1000")
        assert code == 4 and doc["kind"] == "size-cap" and "1000" in doc["error"]
        code, doc = run_cli("solve", "--algo", "approx", "--input", str(f),
                            "--max-nodes", "1000")
        assert code == 1 and doc["kind"] == "invalid-input"


class TestVerify:
    def test_valid_set_exits_0(self, tmp_path):
        g = tmp_path / "c4.txt"
        s = tmp_path / "set.txt"
        run_cli("gen", "--family", "cycle", "--size", "4", "--output", str(g))
        s.write_text("0 1\n")
        code, doc = run_cli("verify", "--input", str(g), "--set", str(s),
                            "--kind", "semitotal")
        assert code == 0 and doc["valid"] is True and doc["violations"] == []

    def test_singleton_semitotal_exits_2(self, tmp_path):
        g = tmp_path / "c4.txt"
        s = tmp_path / "set.txt"
        run_cli("gen", "--family", "cycle", "--size", "4", "--output", str(g))
        s.write_text("0\n")
        code, doc = run_cli("verify", "--input", str(g), "--set", str(s),
                            "--kind", "semitotal")
        assert code == 2
        assert [0, "NO_PARTNER_WITHIN_2"] in doc["violations"]

    def test_kinds_dom_and_total(self, tmp_path):
        g = tmp_path / "p4.txt"
        s = tmp_path / "set.txt"
        run_cli("gen", "--family", "path", "--size", "4", "--output", str(g))
        s.write_text("0 3\n")
        assert run_cli("verify", "--input", str(g), "--set", str(s),
                       "--kind", "dom")[0] == 0
        assert run_cli("verify", "--input", str(g), "--set", str(s),
                       "--kind", "total")[0] == 2


class TestReduce:
    def test_bipartite_of_c4(self, tmp_path):
        g = tmp_path / "c4.txt"
        h = tmp_path / "h.txt"
        run_cli("gen", "--family", "cycle", "--size", "4", "--output", str(g))
        code, doc = run_cli("reduce", "--kind", "bipartite", "--input", str(g),
                            "--output", str(h))
        assert code == 0
        assert doc["extra"]["h_n"] == 24
        roles = json.loads((tmp_path / "h.txt.roles.json").read_text())
        assert roles["0"] == ["original", 0]
        assert len(roles) == 24
        code, doc = run_cli("solve", "--algo", "exact", "--input", str(h))
        assert code == 0 and doc["size"] == 10  # 2n + domination number of C4

    def test_split_needs_partition(self, tmp_path):
        g = tmp_path / "s.txt"
        run_cli("gen", "--family", "split", "--clique", "2", "--ind", "2",
                "--seed", "4", "--output", str(g))
        code, doc = run_cli("reduce", "--kind", "split", "--input", str(g),
                            "--output", str(tmp_path / "h.txt"))
        assert code == 1 and doc["error"] == "--kind split requires --partition"
        code, doc = run_cli("reduce", "--kind", "split", "--input", str(g),
                            "--partition", str(tmp_path / "s.txt.partition"),
                            "--output", str(tmp_path / "h.txt"))
        assert code == 0 and doc["extra"]["h_n"] == 2 * 4 + 5


class TestCheckReduction:
    def test_split_generator_shortcut(self):
        code, doc = run_cli("check-reduction", "--kind", "split",
                            "--clique", "1", "--ind", "1")
        assert code == 0 and doc["holds"] is True

    def test_split_empty_independent_part_exits_1(self):
        code, doc = run_cli("check-reduction", "--kind", "split",
                            "--clique", "2", "--ind", "0")
        assert code == 1 and doc["kind"] == "invalid-input"
        assert "nonempty independent part" in doc["error"]

    def test_gp4_random_source(self):
        code, doc = run_cli("check-reduction", "--kind", "gp4", "--size", "3",
                            "--seed", "8")
        assert code == 0 and doc["holds"] is True

    def test_size_cap_exits_4(self, tmp_path):
        g = tmp_path / "p65.txt"
        run_cli("gen", "--family", "path", "--size", "65", "--output", str(g))
        code, doc = run_cli("check-reduction", "--kind", "bipartite",
                            "--input", str(g))
        assert code == 4 and doc["kind"] == "size-cap"

    def test_split_input_needs_partition(self, tmp_path):
        g = tmp_path / "s.txt"
        run_cli("gen", "--family", "split", "--clique", "2", "--ind", "2",
                "--output", str(g))
        code, doc = run_cli("check-reduction", "--kind", "split", "--input", str(g))
        assert code == 1 and doc["error"] == "--kind split requires --partition"


class TestBenchAndErrors:
    def test_bench_subcommand_is_gone(self, capsys):
        # the benchmark lives in bench/, with pinned answers and bounds
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--algo", "interval", "--sizes", "50,100"])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage: semidom")

    def test_zero_denominator_endpoint_exits_1(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("2\n0 1/0\n1 3\n")
        code, doc = run_cli("solve", "--algo", "interval", "--format", "intervals",
                            "--input", str(f))
        assert code == 1 and doc["kind"] == "invalid-input"
        assert "'1/0'" in doc["error"]

    def test_unknown_flag_exits_1(self):
        proc = subprocess.run([sys.executable, "-m", "semidom", "solve",
                               "--nonsense"], capture_output=True, text=True,
                              env=CHILD_ENV)
        assert proc.returncode == 1

    def test_missing_file_exits_1(self):
        code, doc = run_cli("solve", "--algo", "exact", "--input", "no-such-file")
        assert code == 1 and "error" in doc

    def test_malformed_edgelist_exits_1(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("2 1\n1 0\n")  # edges must be u < v
        code, doc = run_cli("solve", "--algo", "exact", "--input", str(f))
        assert code == 1


class TestColdStart:
    """`semidom solve` loads the solvers and nothing else; the rest of the
    package loads on first use. Each check runs in a fresh interpreter."""

    @staticmethod
    def run_child(code: str, *flags: str) -> dict:
        proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                              text=True, env=CHILD_ENV, check=True)
        return json.loads(proc.stdout)

    def test_solve_loads_no_gadget_or_generator_code(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        f = tmp_path / "c4.txt"
        f.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n")
        # -S: site may load typing itself
        doc = self.run_child(
            "import contextlib, io, json, sys\n"
            "import semidom.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    code = semidom.cli.main(['solve', '--algo', 'exact', '--input', {str(f)!r}])\n"
            "print(json.dumps({'code': code, 'answer': json.loads(out.getvalue()),\n"
            "                  'modules': sorted(sys.modules)}))\n", "-S")
        assert doc["code"] == 0 and doc["answer"]["set"] == [0, 1]
        loaded = set(doc["modules"])
        assert not loaded & {"semidom.reductions", "semidom.generators"}
        # records are slots classes, so none of these loads
        assert not loaded & {"dataclasses", "inspect", "typing"}
        # a traced bench run looks each traced module up in sys.modules
        assert {f"semidom.{mod}" for mod, _ in spans.TRACED} <= loaded

    def test_lazy_names_load_on_first_use(self):
        doc = self.run_child(
            "import json, sys\n"
            "from semidom import build_gadget, GadgetKind, SplitMix64\n"
            "print(json.dumps({'kind': GadgetKind.GP4.name,\n"
            "                  'draw': SplitMix64(0).next_u64(),\n"
            "                  'gadget': build_gadget.__module__,\n"
            "                  'loaded': [m in sys.modules for m in\n"
            "                             ('semidom.reductions', 'semidom.generators')]}))\n")
        assert doc == {"kind": "GP4", "draw": 16294208416658607535,
                       "gadget": "semidom.reductions", "loaded": [True, True]}
        # the modules themselves stay attributes of the bare package
        doc = self.run_child(
            "import json, semidom\n"
            "print(json.dumps([semidom.reductions.__name__, semidom.generators.__name__]))\n")
        assert doc == ["semidom.reductions", "semidom.generators"]


class TestInProcess:
    def test_parser_built_once_without_state_between_calls(self, tmp_path, capsys):
        f = tmp_path / "g.txt"
        f.write_text(write_edgelist(gen_connected_graph(12, 0.3, 0)))
        solve = ["solve", "--algo", "exact", "--input", str(f)]
        cli.build_parser.cache_clear()
        assert cli.main(solve + ["--max-nodes", "1"]) == 4
        assert json.loads(capsys.readouterr().out)["kind"] == "size-cap"
        assert cli.main(solve) == 0  # the budget of the last call is gone
        assert json.loads(capsys.readouterr().out)["verified"] is True
        for argv, code in ((["solve", "--nonsense"], 1), (["--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == code
        assert cli.build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["nope"], ["solve"], ["solve", "--help"], ["solve", "--nonsense"],
        ["solve", "--algo", "nope", "--input", "x"],
        # the subcommand takes its own arguments; the one left over is the
        # top-level parser's error, with its usage line
        ["solve", "--algo", "exact", "--input", "x", "--nonsense"],
    ])
    def test_parse_exits_as_the_full_parser(self, capsys, argv):
        outcomes = []
        for parse in (cli.main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            out = capsys.readouterr()
            outcomes.append((exc.value.code, out.out, out.err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (0 if "--help" in argv else 1)

    @pytest.mark.parametrize("argv", [
        ["solve", "--algo", "exact", "--input", "g.txt"],
        ["verify", "--format", "intervals", "--input", "m", "--set", "s", "--kind", "dom"],
        ["reduce", "--kind", "ln", "--input", "g", "--output", "h"],
        ["check-reduction", "--kind", "gp4", "--size", "3"],
        ["gen", "--family", "path", "--output", "o", "--size", "7"],
    ])
    def test_parse_gives_the_full_parsers_namespace(self, argv):
        assert cli.parse_args(argv) == cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("fmt, text", [("edgelist", "0 0\n"), ("intervals", "0\n")])
    @pytest.mark.parametrize("algo", ["exact", "interval", "approx"])
    def test_empty_instance_exits_1_with_one_message(self, tmp_path, capsys, algo, fmt, text):
        f = tmp_path / "empty.txt"
        f.write_text(text)
        code = cli.main(["solve", "--algo", algo, "--format", fmt, "--input", str(f)])
        doc = json.loads(capsys.readouterr().out)
        # the usage error comes first: it holds whatever the file holds
        error = ("--algo interval requires --format intervals"
                 if (algo, fmt) == ("interval", "edgelist") else "graph is empty")
        assert code == 1 and doc == {"error": error, "kind": "invalid-input"}

    @pytest.mark.parametrize("argv, kind, cap", [
        (["--kind", "split", "--clique", "2000", "--ind", "2"], "SPLIT", 128),
        (["--kind", "gp4", "--size", "6000"], "GP4", 40),
        # the cap comes before the generator's own checks
        (["--kind", "gp4", "--size", "6000", "--p", "2"], "GP4", 40),
        # one vertex over the cap is refused the same way
        (["--kind", "split", "--clique", "64", "--ind", "65"], "SPLIT", 128),
        (["--kind", "apx", "--size", "41"], "APX", 40),
    ])
    def test_oversized_generated_source_exits_4_before_it_is_built(self, capsys,
                                                                  monkeypatch, argv,
                                                                  kind, cap):
        def generate(*args):
            raise AssertionError("the source was generated")
        monkeypatch.setattr("semidom.generators.gen_split_graph", generate)
        monkeypatch.setattr("semidom.generators.gen_connected_graph", generate)
        assert cli.main(["check-reduction", *argv]) == 4
        assert capsys.readouterr().out == (
            "{\n"
            f'  "error": "source too large for {kind} check (cap n<={cap})",\n'
            '  "kind": "size-cap"\n'
            "}\n")

    @pytest.mark.parametrize("argv, error", [
        (["--kind", "split", "--clique", "3"],
         "split check needs --clique and --ind (or --input)"),
        (["--kind", "split", "--ind", "3"],
         "split check needs --clique and --ind (or --input)"),
        (["--kind", "gp4"], "check needs --input or --size"),
        (["--kind", "apx", "--clique", "3", "--ind", "3"], "check needs --input or --size"),
    ])
    def test_generated_source_argument_error_exits_1_before_it_is_built(
            self, capsys, monkeypatch, argv, error):
        def generate(*args):
            raise AssertionError("the source was generated")
        monkeypatch.setattr("semidom.generators.gen_split_graph", generate)
        monkeypatch.setattr("semidom.generators.gen_connected_graph", generate)
        assert cli.main(["check-reduction", *argv]) == 1
        assert capsys.readouterr().out == (
            "{\n"
            f'  "error": "{error}",\n'
            '  "kind": "invalid-input"\n'
            "}\n")

    @pytest.mark.parametrize("text, code, error", [
        # the cap comes before the edge lines, of which the one here is malformed
        ("41 1\n0 x\n", 4, "source too large for GP4 check (cap n<=40)"),
        # and after the header's own checks, as parse_edgelist makes them
        ("5\n0 x\n", 1, "expected header 'n m', got '5'"),
        ("2000000 0\n", 1, "edge list declares 2000000 vertices, more than the "
                           "limit of 1000000"),
        ("# no data\n", 1, "empty edge-list file"),
    ])
    def test_oversized_input_source_exits_4_before_its_edges_are_parsed(
            self, tmp_path, capsys, monkeypatch, text, code, error):
        def parse(text):
            raise AssertionError("the edge lines were parsed")
        monkeypatch.setattr(cli, "parse_edgelist", parse)
        f = tmp_path / "g.txt"
        f.write_text(text)
        assert cli.main(["check-reduction", "--kind", "gp4", "--input", str(f)]) == code
        assert json.loads(capsys.readouterr().out)["error"] == error

    def test_input_is_read_as_utf8_whatever_its_line_ends(self, tmp_path, capsys):
        f = tmp_path / "c4.txt"
        text = "# C4\n4 4\n0 1\n0 3\n1 2\n2 3\n"
        docs = []
        for ends in ("\n", "\r\n", "\r"):
            f.write_bytes(text.replace("\n", ends).encode())
            assert cli.main(["solve", "--algo", "exact", "--input", str(f)]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["elapsedMs"]
            docs.append(doc)
        assert docs[0] == docs[1] == docs[2] and docs[0]["set"] == [0, 1]
        f.write_bytes(b"4 4\n0 1\xff\n")
        assert cli.main(["solve", "--algo", "exact", "--input", str(f)]) == 1
        assert json.loads(capsys.readouterr().out)["kind"] == "invalid-input"
        # a missing file is named as typed
        missing = f"{tmp_path}/./missing.txt"
        assert cli.main(["solve", "--algo", "exact", "--input", missing]) == 1
        assert json.loads(capsys.readouterr().out)["error"].endswith(f"{missing!r}")

    def test_gadget_kinds_are_the_gadget_enum(self):
        from semidom.reductions import GadgetKind
        assert cli.GADGET_KINDS == tuple(k.value.lower() for k in GadgetKind)

    def test_named_families_are_gen_named_families(self):
        from semidom.graph import Graph
        for family in cli.NAMED_FAMILIES:
            assert isinstance(gen_named(family, 5), Graph), family
        with pytest.raises(ValueError, match="^unknown family: wheel$"):
            gen_named("wheel", 5)

    def test_huge_vertex_count_exits_1(self, tmp_path, capsys):
        f = tmp_path / "g.txt"
        f.write_text("2000000 0\n")  # just past the limit, so a failure stays cheap
        t0 = time.perf_counter()
        code = cli.main(["solve", "--algo", "exact", "--input", str(f)])
        assert time.perf_counter() - t0 < 0.5
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["kind"] == "invalid-input"
        assert "limit of 1000000" in doc["error"]

    def test_negative_interval_count_exits_1(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("-3\n")
        code = cli.main(["solve", "--algo", "interval", "--format", "intervals",
                         "--input", str(f)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc == {"error": "interval count must be nonnegative, got -3",
                                     "kind": "invalid-input"}

    def test_huge_exponent_endpoint_exits_1(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("2\n0 1e4000000\n1 3\n")
        t0 = time.perf_counter()
        code = cli.main(["solve", "--algo", "interval", "--format", "intervals",
                         "--input", str(f)])
        assert time.perf_counter() - t0 < 0.5
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["kind"] == "invalid-input"
        assert "'1e4000000'" in doc["error"]

    def test_infeasible_interval_model_exits_3_before_the_graph(self, tmp_path, capsys,
                                                                 monkeypatch):
        # a chain of 8,000 intervals and one far away: the intersection graph
        # alone takes seconds, so the model is solved first
        chain = [(3 * i, 3 * i + 4 + i % 3) for i in range(8000)] + [(10**6, 10**6 + 1)]
        f = tmp_path / "m.txt"
        f.write_text(f"{len(chain)}\n" + "".join(f"{a} {b}\n" for a, b in chain))

        def no_graph(model):
            raise AssertionError("solve built the intersection graph")

        monkeypatch.setattr(cli, "intersection_graph", no_graph)
        t0 = time.perf_counter()
        code = cli.main(["solve", "--algo", "interval", "--format", "intervals",
                         "--input", str(f)])
        assert time.perf_counter() - t0 < 1.0
        doc = json.loads(capsys.readouterr().out)
        assert code == 3 and doc == {"error": "isolated vertex 8000", "kind": "infeasible"}

    @pytest.mark.parametrize("algo", ["exact", "approx", "interval"])
    def test_interval_edge_cap_exits_4_before_the_graph(self, tmp_path, capsys, monkeypatch,
                                                        algo):
        # 20,000 identical intervals: their 199,990,000 edges would take some
        # 10 GB, so they are counted from the model and refused; --algo
        # interval builds the graph only to verify its answer, and is refused
        # the same way
        f = tmp_path / "m.txt"
        f.write_text("20000\n" + "0 1\n" * 20000)

        def no_graph(*args, **kwargs):
            raise AssertionError("solve built a graph")

        monkeypatch.setattr(cli, "intersection_graph", no_graph)
        monkeypatch.setattr(intervals, "intersection_graph", no_graph)
        monkeypatch.setattr(Graph, "__init__", no_graph)
        t0 = time.perf_counter()
        code = cli.main(["solve", "--algo", algo, "--format", "intervals", "--input", str(f)])
        assert time.perf_counter() - t0 < 2.0
        doc = json.loads(capsys.readouterr().out)
        assert code == 4 and doc == {
            "error": f"interval graph too large for --algo {algo}: 199990000 edges "
                     "(cap m<=10000000)",
            "kind": "size-cap"}

    @pytest.mark.parametrize("algo", ["exact", "approx", "interval"])
    def test_interval_edge_cap_admits_its_own_size(self, tmp_path, capsys, monkeypatch, algo):
        monkeypatch.setattr(cli, "MAX_BUILT_EDGES", 3)
        f = tmp_path / "m.txt"
        f.write_text("3\n0 1\n0 1\n0 1\n")  # 3 edges
        assert cli.main(["solve", "--algo", algo, "--format", "intervals",
                         "--input", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["m"] == 3
        f.write_text("4\n0 1\n0 1\n0 1\n0 1\n")  # 6 edges
        assert cli.main(["solve", "--algo", algo, "--format", "intervals",
                         "--input", str(f)]) == 4
        assert "6 edges (cap m<=3)" in json.loads(capsys.readouterr().out)["error"]

    def test_infeasible_interval_model_over_the_edge_cap_exits_3(self, tmp_path, capsys,
                                                                 monkeypatch):
        # --algo interval solves the model before it is admitted on the graph
        # it would build for the check, so an infeasible model is reported
        # as such, and no graph is built
        f = tmp_path / "m.txt"
        f.write_text("20001\n" + "0 1\n" * 20000 + "5 6\n")

        def no_graph(*args, **kwargs):
            raise AssertionError("solve built a graph")

        monkeypatch.setattr(intervals, "intersection_graph", no_graph)
        monkeypatch.setattr(Graph, "__init__", no_graph)
        code = cli.main(["solve", "--algo", "interval", "--format", "intervals",
                         "--input", str(f)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3 and doc == {"error": "isolated vertex 20000", "kind": "infeasible"}

    def test_verify_on_intervals_builds_no_graph(self, tmp_path, capsys, monkeypatch):
        # 20,000 identical intervals: the 199,990,000 edges that `verify`
        # once built to count covers would take some 10 GB
        f, members = tmp_path / "m.txt", tmp_path / "set.txt"
        f.write_text("20000\n" + "0 1\n" * 20000)

        def no_graph(*args, **kwargs):
            raise AssertionError("verify built a graph")

        monkeypatch.setattr(cli, "intersection_graph", no_graph)
        monkeypatch.setattr(intervals, "intersection_graph", no_graph)
        monkeypatch.setattr(Graph, "__init__", no_graph)
        for text, kind, code, violations in (("0 1\n", "semitotal", 0, []),
                                             ("0 1\n", "total", 0, []),
                                             ("5\n", "dom", 0, []),
                                             ("5\n", "semitotal", 2,
                                              [[5, "NO_PARTNER_WITHIN_2"]])):
            members.write_text(text)
            t0 = time.perf_counter()
            got = cli.main(["verify", "--format", "intervals", "--input", str(f),
                            "--set", str(members), "--kind", kind])
            assert time.perf_counter() - t0 < 3.0
            ids = list(map(int, text.split()))
            assert (got, json.loads(capsys.readouterr().out)) == (code, {
                "algorithm": "verify", "kind": kind, "n": 20000, "m": 199990000,
                "size": len(ids), "set": ids, "valid": not violations,
                "violations": violations})

    def test_exact_member_cap_exits_4(self, tmp_path, capsys):
        f = tmp_path / "path.txt"
        f.write_text(write_edgelist(gen_named("path", 3100)))
        t0 = time.perf_counter()
        assert cli.main(["solve", "--algo", "exact", "--input", str(f)]) == 4
        assert time.perf_counter() - t0 < 10
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "size-cap" and "members" in doc["error"]

    @pytest.mark.parametrize("algo, fmt", [("approx", "edgelist"), ("exact", "edgelist"),
                                           ("approx", "intervals"), ("exact", "intervals")])
    def test_mask_cap_admits_its_own_size(self, tmp_path, capsys, monkeypatch, algo, fmt):
        # closed_masks holds n(n+1)/2 bits on n vertices, and the exact
        # search as many again for its distance-2 masks; a chain of
        # intervals is a path too
        def text(n):
            if fmt == "edgelist":
                return write_edgelist(gen_named("path", n))
            return f"{n}\n" + "".join(f"{2 * i} {2 * i + 3}\n" for i in range(n))

        def bits(n):
            return n * (n + 1) // (1 if algo == "exact" else 2)

        monkeypatch.setattr(cli, "MAX_MASK_BITS", bits(10))
        f = tmp_path / "path.txt"
        solve = ["solve", "--algo", algo, "--format", fmt, "--input", str(f)]
        f.write_text(text(10))
        assert cli.main(solve) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

        def no_masks(g):
            raise AssertionError("solve built the masks")

        monkeypatch.setattr("semidom.approx.closed_masks", no_masks)
        monkeypatch.setattr("semidom.domination.closed_masks", no_masks)
        f.write_text(text(11))
        assert cli.main(solve) == 4
        assert json.loads(capsys.readouterr().out) == {
            "error": f"graph too large for --algo {algo}: 11 vertices need {bits(11)} "
                     f"mask bits (cap {bits(10)})",
            "kind": "size-cap"}

    @pytest.mark.parametrize("fmt", ["edgelist", "intervals"])
    def test_exact_mask_cap_is_summed_over_components(self, tmp_path, capsys, monkeypatch,
                                                      fmt):
        # exact_min builds its masks per component, c(c+1) bits on c vertices
        def text(sizes):  # disjoint paths with these vertex counts
            if fmt == "edgelist":
                edges, start = [], 0
                for c in sizes:
                    edges += [(start + i, start + i + 1) for i in range(c - 1)]
                    start += c
                return write_edgelist(Graph(start, edges))
            ivs = []
            for k, c in enumerate(sizes):  # a chain of c intervals, right of the last
                x = 2 * len(ivs) + 10 * k
                ivs += [(x + 2 * i, x + 2 * i + 3) for i in range(c)]
            return f"{len(ivs)}\n" + "".join(f"{a} {b}\n" for a, b in ivs)

        monkeypatch.setattr(cli, "MAX_MASK_BITS", 12 * 13)
        f = tmp_path / "paths.txt"
        solve = ["solve", "--algo", "exact", "--format", fmt, "--input", str(f)]
        # 20 disjoint edges need 20 * 6 bits, though n(n+1) on n = 40 is 1640
        for sizes in ([2] * 20, [12]):
            f.write_text(text(sizes))
            assert cli.main(solve) == 0
            doc = json.loads(capsys.readouterr().out)
            assert (doc["n"], doc["verified"]) == (sum(sizes), True)

        def no_masks(g):
            raise AssertionError("solve built the masks")

        monkeypatch.setattr("semidom.domination.closed_masks", no_masks)
        for sizes, n, bits in (([13], 13, 182), ([12, 2], 14, 162)):
            f.write_text(text(sizes))
            assert cli.main(solve) == 4
            assert json.loads(capsys.readouterr().out) == {
                "error": f"graph too large for --algo exact: {n} vertices need {bits} "
                         "mask bits (cap 156)",
                "kind": "size-cap"}

    def test_approx_mask_cap_reads_only_the_header(self, tmp_path, capsys, monkeypatch):
        # the approximation's masks span the whole graph, so the header's n
        # sizes them, and an oversized file is refused before any edge line
        # is parsed, even if a later line is malformed
        monkeypatch.setattr(cli, "MAX_MASK_BITS", 10 * 11 // 2)

        def no_parse(text):
            raise AssertionError("solve parsed the edge list")

        monkeypatch.setattr("semidom.formats.parse_edgelist", no_parse)
        monkeypatch.setattr("semidom.cli.parse_edgelist", no_parse)
        f = tmp_path / "path.txt"
        for text in (write_edgelist(gen_named("path", 11)), "# c\n11 10\n0 x\n"):
            f.write_text(text)
            assert cli.main(["solve", "--algo", "approx", "--input", str(f)]) == 4
            assert json.loads(capsys.readouterr().out) == {
                "error": "graph too large for --algo approx: 11 vertices need 66 mask bits "
                         "(cap 55)",
                "kind": "size-cap"}

    # one instance per route and capped quantity: the argv, with input and
    # output files by name, and the amount of the quantity it asks for
    ADMISSIONS = [
        ("edges", ["solve", "--algo", "interval", "--format", "intervals", "--input", "chain"],
         3),
        ("edges", ["solve", "--algo", "exact", "--format", "intervals", "--input", "chain"], 3),
        ("mask bits", ["solve", "--algo", "approx", "--input", "path"], 10),
        ("mask bits", ["solve", "--algo", "exact", "--format", "intervals", "--input",
                       "chain"], 20),
        ("vertices", ["reduce", "--kind", "apx", "--input", "path", "--output", "out"], 27),
        ("edges", ["reduce", "--kind", "split", "--input", "path", "--partition",
                   "partition", "--output", "out"], 15),
        ("intervals", ["gen", "--family", "intervals", "--size", "4", "--output", "out"], 4),
        ("vertices", ["gen", "--family", "gp4", "--size", "2", "--output", "out"], 10),
        ("edges", ["gen", "--family", "complete", "--size", "5", "--output", "out"], 10),
        ("pair draws", ["gen", "--family", "split", "--clique", "1", "--ind", "4",
                        "--density", "0", "--output", "out"], 4),
        ("edges", ["gen", "--family", "random", "--size", "5", "--p", "1", "--output", "out"],
         10),
    ]

    def test_every_cap_admits_its_own_size_and_refuses_one_more(self, tmp_path, capsys,
                                                                monkeypatch):
        # every quantity of the cap table is sized on some route
        assert {quantity for quantity, _, _ in self.ADMISSIONS} == set(cli._CAPS)
        files = {"path": write_edgelist(gen_named("path", 4)),
                 "partition": "clique 1 2\nindependent 0 3\n",
                 "chain": "4\n0 3\n2 5\n4 7\n6 9\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)

        def built(*args, **kwargs):
            raise AssertionError("a refused route built its work")

        for quantity, argv, amount in self.ADMISSIONS:
            argv = [str(tmp_path / a) if a in (*files, "out") else a for a in argv]
            out, end = tmp_path / "out", cli._CAPS[quantity][1]
            with monkeypatch.context() as patch:
                patch.setitem(cli._CAPS, quantity, (lambda args: amount, end))
                assert cli.main(argv) == 0, argv
                capsys.readouterr()
                out.unlink(missing_ok=True)
                patch.setitem(cli._CAPS, quantity, (lambda args: amount - 1, end))
                for name in ("cli.intersection_graph", "intervals.intersection_graph",
                             "approx.closed_masks", "domination.closed_masks",
                             "generators.gen_named", "generators.gen_connected_graph",
                             "generators.gen_split_graph", "generators.gen_interval_model",
                             "reductions.build_gadget"):
                    patch.setattr(f"semidom.{name}", built)
                assert cli.main(argv) == 4, argv
                doc = json.loads(capsys.readouterr().out)
                assert doc["kind"] == "size-cap", argv
                assert doc["error"].endswith(end.format(amount - 1)), argv
                assert not out.exists(), argv

    def test_exact_default_node_budget_exits_4(self, tmp_path, capsys, monkeypatch):
        # unbounded, a semitotal search on P_300 runs for hours; the default
        # budget, lowered here to keep the test fast, stops it with exit 4
        monkeypatch.setattr(cli, "DEFAULT_MAX_NODES", 2000)
        f = tmp_path / "path.txt"
        f.write_text(write_edgelist(gen_named("path", 300)))
        assert cli.main(["solve", "--algo", "exact", "--input", str(f)]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"error": "exact search exceeded its budget of 2000 nodes",
                       "kind": "size-cap"}
        # --max-nodes overrides the default: P_30 needs 97 nodes (101 before
        # dominated candidates left the search)
        monkeypatch.setattr(cli, "DEFAULT_MAX_NODES", 96)
        f.write_text(write_edgelist(gen_named("path", 30)))
        solve = ["solve", "--algo", "exact", "--input", str(f)]
        assert cli.main(solve) == 4
        assert "budget of 96 nodes" in json.loads(capsys.readouterr().out)["error"]
        assert cli.main(solve + ["--max-nodes", "97"]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_check_reduction_node_budget_exits_4(self, capsys, monkeypatch):
        # a source under the cap that is slower than the measured ones stops
        # at the budget, lowered here so that a small source reaches it
        check = ["check-reduction", "--kind", "apx", "--size", "20", "--p", "0.2"]
        assert cli.main(check) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True
        monkeypatch.setattr(cli, "DEFAULT_MAX_NODES", 10)
        assert cli.main(check) == 4
        assert json.loads(capsys.readouterr().out) == {
            "error": "exact search exceeded its budget of 10 nodes", "kind": "size-cap"}

    @pytest.mark.parametrize("algo, fmt, budget, error", [
        ("approx", "edgelist", "5", "--max-nodes requires --algo exact"),
        ("interval", "intervals", "5", "--max-nodes requires --algo exact"),
        ("exact", "edgelist", "0", "node budget must be positive, got 0"),
        ("exact", "intervals", "-3", "node budget must be positive, got -3"),
    ])
    def test_bad_node_budget_exits_1(self, tmp_path, capsys, algo, fmt, budget, error):
        f = tmp_path / "k2.txt"
        f.write_text("2 1\n0 1\n" if fmt == "edgelist" else "2\n0 2\n1 3\n")
        code = cli.main(["solve", "--algo", algo, "--format", fmt, "--input", str(f),
                         "--max-nodes", budget])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc == {"error": error, "kind": "invalid-input"}

    def test_repeated_partition_label_exits_1(self, tmp_path, capsys):
        g, p = tmp_path / "s.txt", tmp_path / "s.partition"
        g.write_text("4 3\n0 1\n0 2\n1 3\n")
        # the last two lines alone are a valid partition of this graph
        p.write_text("clique 3\nclique 0 1\nindependent 2 3\n")
        code = cli.main(["reduce", "--kind", "split", "--input", str(g),
                         "--partition", str(p), "--output", str(tmp_path / "h.txt")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["kind"] == "invalid-input"
        assert "'clique'" in doc["error"]

    def test_repeated_partition_id_exits_1(self, tmp_path, capsys):
        g, p = tmp_path / "s.txt", tmp_path / "s.partition"
        g.write_text("4 3\n0 1\n0 2\n1 3\n")
        for text, vertex in (("clique 0 1\nindependent 2 3 3\n", 3),
                             ("clique 0 1 1\nindependent 2 3\n", 1)):
            p.write_text(text)
            code = cli.main(["reduce", "--kind", "split", "--input", str(g),
                             "--partition", str(p), "--output", str(tmp_path / "h.txt")])
            doc = json.loads(capsys.readouterr().out)
            assert code == 1 and doc["kind"] == "invalid-input"
            assert doc["error"] == f"partition lists vertex {vertex} twice"

    def test_gen_intervals_counts_m_without_the_graph(self, tmp_path, capsys, monkeypatch):
        expected = intersection_graph(gen_interval_model(300, 4)).m

        def no_graph(model):
            raise AssertionError("gen built the intersection graph")

        monkeypatch.setattr(cli, "intersection_graph", no_graph)
        code = cli.main(["gen", "--family", "intervals", "--size", "300", "--seed", "4",
                         "--output", str(tmp_path / "m.txt")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and (doc["n"], doc["m"]) == (300, expected)

    def test_reduce_split_refuses_a_clique_over_the_edge_cap(self, tmp_path, capsys,
                                                             monkeypatch):
        # a 4471-vertex star: the gadget's clique on its vertices, s and w
        # would have C(4473, 2) edges, one size over the cap
        def build(*args):
            raise AssertionError("the gadget was built")
        monkeypatch.setattr("semidom.reductions.build_gadget", build)
        g, p, h = tmp_path / "star.txt", tmp_path / "star.partition", tmp_path / "h.txt"
        g.write_text(write_edgelist(gen_named("star", 4471)))
        p.write_text("clique 0\nindependent " + " ".join(map(str, range(1, 4471))) + "\n")
        assert cli.main(["reduce", "--kind", "split", "--input", str(g),
                         "--partition", str(p), "--output", str(h)]) == 4
        assert json.loads(capsys.readouterr().out) == {
            "error": "split gadget too large: its clique has 10001628 edges "
                     "(cap m<=10000000)",
            "kind": "size-cap"}
        assert not h.exists()

    def test_reduce_split_edge_cap_admits_its_own_size(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_BUILT_EDGES", 10)
        g, p, h = tmp_path / "g.txt", tmp_path / "g.partition", tmp_path / "h.txt"
        reduce = ["reduce", "--kind", "split", "--input", str(g), "--partition", str(p),
                  "--output", str(h)]
        g.write_text(write_edgelist(gen_named("path", 3)))  # clique of C(5, 2) = 10
        p.write_text("clique 1\nindependent 0 2\n")
        assert cli.main(reduce) == 0
        assert json.loads(capsys.readouterr().out)["extra"]["h_n"] == 3 + 3 + 5
        g.write_text(write_edgelist(gen_named("star", 4)))  # C(6, 2) = 15
        p.write_text("clique 0\nindependent 1 2 3\n")
        assert cli.main(reduce) == 4
        assert "15 edges (cap m<=10)" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("kind, n, m, h_n", [
        # the first source size, per kind, whose gadget has more vertices than
        # an edge-list header allows: a path's n and m, and H's vertex count
        ("gp4", 200001, 200000, 1000005),  # 5n
        ("bipartite", 166667, 166666, 1000002),  # 6n
        ("split", 499998, 499997, 1000001),  # 2n + 5
        ("ln", 500000, 499999, 1000002),  # 2n + 2
        ("apx", 142858, 142857, 1000005),  # 6n + m
        ("gp4", 300000, 299999, 1500000),
    ])
    def test_reduce_refuses_a_gadget_solve_could_not_read(self, tmp_path, capsys,
                                                          monkeypatch, kind, n, m, h_n):
        def build(*args):
            raise AssertionError("the gadget was built")
        monkeypatch.setattr("semidom.reductions.build_gadget", build)
        # the edge line is malformed and the partition file missing: the cap
        # comes first
        g, h = tmp_path / "g.txt", tmp_path / "h.txt"
        g.write_text(f"{n} {m}\n0 x\n")
        assert cli.main(["reduce", "--kind", kind, "--input", str(g), "--partition",
                         str(tmp_path / "none.partition"), "--output", str(h)]) == 4
        assert json.loads(capsys.readouterr().out) == {
            "error": f"--kind {kind} would write {h_n} vertices, more than the "
                     "edge-list limit of 1000000",
            "kind": "size-cap"}
        assert not h.exists()

    @pytest.mark.parametrize("kind", cli.GADGET_KINDS)
    def test_reduce_vertex_cap_admits_its_own_size(self, tmp_path, capsys, monkeypatch,
                                                   kind):
        from semidom import formats
        from semidom.reductions import GadgetKind, build_gadget
        source = gen_named("path", 4)  # a split graph too
        part = SplitPartition((1, 2), (0, 3))
        h_n = build_gadget(source, GadgetKind[kind.upper()], part).h.n
        g, p, h = tmp_path / "g.txt", tmp_path / "g.partition", tmp_path / "h.txt"
        g.write_text(write_edgelist(source))
        p.write_text(write_partition(part))
        reduce = ["reduce", "--kind", kind, "--input", str(g), "--partition", str(p),
                  "--output", str(h)]
        monkeypatch.setattr(formats, "_MAX_VERTICES", h_n)
        assert cli.main(reduce) == 0
        assert json.loads(capsys.readouterr().out)["extra"]["h_n"] == h_n
        # solve reads back what reduce writes
        assert cli.main(["solve", "--algo", "approx", "--input", str(h)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == h_n
        h.unlink()

        def build(*args):
            raise AssertionError("the gadget was built")
        monkeypatch.setattr("semidom.reductions.build_gadget", build)
        monkeypatch.setattr(formats, "_MAX_VERTICES", h_n - 1)
        assert cli.main(reduce) == 4
        assert json.loads(capsys.readouterr().out)["error"] == (
            f"--kind {kind} would write {h_n} vertices, more than the edge-list "
            f"limit of {h_n - 1}")
        assert not h.exists()

    @pytest.mark.parametrize("argv, error", [
        (["path", "--size", "1000001"],
         "--family path would write 1000001 vertices, more than the edge-list limit "
         "of 1000000"),
        (["random", "--size", "1000001"], "--family random would write 1000001 vertices"),
        # gp4 hangs four vertices off each base vertex
        (["gp4", "--size", "200001"], "--family gp4 would write 1000005 vertices"),
        (["split", "--clique", "1", "--ind", "1000000"],
         "--family split would write 1000001 vertices"),
        (["complete", "--size", "4473"],
         "--family complete would write a clique of 10001628 edges (cap m<=10000000)"),
        (["split", "--clique", "4473", "--ind", "1"],
         "--family split would write a clique of 10001628 edges"),
        # not an edge list, but the generator's work grows with the size
        (["intervals", "--size", "1000001"],
         "--family intervals would write 1000001 intervals, more than the limit "
         "of 1000000"),
    ])
    def test_gen_refuses_an_oversized_edge_list_before_generating(self, tmp_path, capsys,
                                                                  monkeypatch, argv, error):
        def generate(*args):
            raise AssertionError("the graph was generated")
        for name in ("gen_named", "gen_connected_graph", "gen_split_graph",
                     "gen_interval_model"):
            monkeypatch.setattr(f"semidom.generators.{name}", generate)
        out = tmp_path / "g.txt"
        assert cli.main(["gen", "--family", *argv, "--output", str(out)]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "size-cap" and doc["error"].startswith(error)
        assert not out.exists()

    @pytest.mark.parametrize("argv, error", [
        # gp4 draws its base at p = 0.5: C(6326, 2) / 2 edges expected
        (["gp4", "--size", "6326"],
         "--family gp4 would draw about 10002988 edges at p=0.5 (cap m<=10000000)"),
        # one draw per pair, however small p is
        (["random", "--size", "10001", "--p", "0.0001"],
         "--family random would make 50005000 pair draws (cap 50000000)"),
        (["random", "--size", "8166"],
         "--family random would draw about 10001308 edges at p=0.3 (cap m<=10000000)"),
        # split draws once per (clique, independent) pair, and its clique's
        # C(c, 2) edges count with the density * c * q it expects to draw
        (["split", "--clique", "100", "--ind", "500001", "--density", "0"],
         "--family split would make 50000100 pair draws (cap 50000000)"),
        (["split", "--clique", "1000", "--ind", "999000", "--density", "1"],
         "--family split would make 999000000 pair draws (cap 50000000)"),
        (["split", "--clique", "100", "--ind", "200000", "--density", "1"],
         "--family split would draw about 20004950 edges at density=1.0 (cap m<=10000000)"),
        # 7,998,000 + 2,004,000; --ind 1001 expects exactly 10^7
        (["split", "--clique", "4000", "--ind", "1002"],
         "--family split would draw about 10002000 edges at density=0.5 (cap m<=10000000)"),
        (["split", "--clique", "4472", "--ind", "500"],
         "--family split would draw about 11115156 edges at density=0.5 (cap m<=10000000)"),
    ])
    def test_gen_refuses_a_drawn_graph_over_its_caps_before_generating(
            self, tmp_path, capsys, monkeypatch, argv, error):
        def generate(*args):
            raise AssertionError("the graph was generated")
        for name in ("gen_named", "gen_connected_graph", "gen_split_graph"):
            monkeypatch.setattr(f"semidom.generators.{name}", generate)
        out = tmp_path / "g.txt"
        assert cli.main(["gen", "--family", *argv, "--output", str(out)]) == 4
        assert json.loads(capsys.readouterr().out) == {"error": error, "kind": "size-cap"}
        assert not out.exists()

    def test_gen_drawn_graph_caps_admit_their_own_size(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_BUILT_EDGES", 10)
        monkeypatch.setattr(cli, "MAX_PAIR_DRAWS", 21)
        out = str(tmp_path / "g.txt")
        for argv, code in ((["gp4", "--size", "5"], 0),  # 5 of C(5, 2) = 10 edges
                           (["gp4", "--size", "7"], 4),  # 10.5 of 21
                           (["random", "--size", "7", "--p", "0.1"], 0),  # 21 draws
                           (["random", "--size", "8", "--p", "0.1"], 4),  # 28 draws
                           (["random", "--size", "5", "--p", "1"], 0),  # 10 edges
                           (["random", "--size", "6", "--p", "0.6"], 0),  # 9 of 15
                           (["random", "--size", "6", "--p", "0.75"], 4),  # 11.25
                           # a p out of range is the generator's error
                           (["random", "--size", "6", "--p", "2"], 1),
                           (["split", "--clique", "3", "--ind", "7", "--density", "0"], 0),
                           (["split", "--clique", "3", "--ind", "8", "--density", "0"], 4),
                           # C(4, 2) = 6 clique edges and 0.25 * 16 = 4 drawn
                           (["split", "--clique", "4", "--ind", "4", "--density", "0.25"], 0),
                           (["split", "--clique", "4", "--ind", "5", "--density", "0.25"], 4),
                           (["split", "--clique", "2", "--ind", "2", "--density", "2"], 1)):
            assert cli.main(["gen", "--family", *argv, "--output", out]) == code, argv
            capsys.readouterr()

    def test_gen_caps_admit_what_solve_reads(self, tmp_path, capsys, monkeypatch):
        from semidom import formats
        monkeypatch.setattr(formats, "_MAX_VERTICES", 10)
        monkeypatch.setattr(cli, "MAX_BUILT_EDGES", 10)
        out = str(tmp_path / "g.txt")
        for argv, code in ((["path", "--size", "10"], 0), (["path", "--size", "11"], 4),
                           (["gp4", "--size", "2"], 0), (["gp4", "--size", "3"], 4),
                           (["complete", "--size", "5"], 0), (["complete", "--size", "6"], 4),
                           # at density 0 the expected edges are the
                           # clique's C(5, 2) = 10
                           (["split", "--clique", "5", "--ind", "5", "--density", "0"], 0),
                           (["split", "--clique", "5", "--ind", "6", "--density", "0"], 4),
                           (["intervals", "--size", "10"], 0),
                           (["intervals", "--size", "11"], 4)):
            assert cli.main(["gen", "--family", *argv, "--output", out]) == code, argv
            capsys.readouterr()
            if code == 0:  # solve reads every file gen writes
                algo = (["interval", "--format", "intervals"] if argv[0] == "intervals"
                        else ["approx"])
                with monkeypatch.context() as patch:
                    # --algo interval builds the 31 edges of these 10 intervals
                    # to verify its answer, so it is admitted at that cap
                    patch.setattr(cli, "MAX_BUILT_EDGES", 31)
                    assert cli.main(["solve", "--algo", *algo, "--input", out]) == 0, argv
                assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_gen_random_at_the_approx_pool_size_is_pinned(self, tmp_path, capsys):
        # generation at the graph-approx pool's size, bit for bit: 1,249
        # blocks of bulk draws, then 47 components bridged, through the
        # edge-list writer
        out = tmp_path / "g.txt"
        code = cli.main(["gen", "--family", "random", "--size", "800", "--p", "0.00375",
                         "--seed", "1", "--output", str(out)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and (doc["n"], doc["m"]) == (800, 1208)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5920e6ead6f653410b8d6913a38f25935a5e266baf3fff5db972e5933eb2b950")

    def test_gen_intervals_is_pinned(self, tmp_path, capsys):
        # 10^5 intervals bit for bit: 782 blocks of bulk draws feed the
        # sample, then canonicalization, through the interval writer
        out = tmp_path / "m.txt"
        code = cli.main(["gen", "--family", "intervals", "--size", "100000",
                         "--seed", "1", "--output", str(out)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and (doc["n"], doc["m"]) == (100000, 3341991392)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e1ea7753204cf5e8425534c8f491e95b1a76ef84e444a637ce2663caf85ce90e")


# strings with quotes, escapes, control and non-ASCII characters among any
# others; ints of every sign and size, and every float, NaN and both
# infinities among them
_JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x85é€😀'))
_JSON_LEAVES = (_JSON_TEXT | st.integers() | st.integers(max_value=-1)
                | st.integers(min_value=2**64, max_value=2**200) | st.floats()
                | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
                | st.booleans() | st.none())
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=6)),
    max_leaves=40)


class _Id(enum.IntEnum):
    ONE = 1


class _Real(float):
    pass


class TestOutputWriters:
    """The CLI's JSON writer and its edge-list files give the bytes of
    `json.dumps(doc, indent=2)` and `write_edgelist`."""

    @settings(max_examples=200, deadline=None)
    @given(_JSON_DOCS)
    @example({"": [], "a": {}, "b": (), "c": [[{}], -0.0, float("nan"), float("inf"),
                                            float("-inf"), 2**64 + 1, -7, True, False, None,
                                            '"\\\x01\x1f é😀']})
    def test_writer_is_json_dumps_indent_2(self, doc):
        assert cli._json(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [
        # subclasses of int, float, str, tuple, list and dict
        [_Id.ONE, _Real(2.5), _Real("nan"), type("S", (str,), {})("s\n"),
         collections.namedtuple("P", "u v")(1, 2), type("L", (list,), {})([3]),
         collections.OrderedDict(z=1, a=2)],
        # keys that are not str, json writes as their text
        {1: "a", -2.5: "b", True: "c", False: "d", None: "e", _Id.ONE: "f",
         _Real("inf"): "g", 2**70: "h"},
    ])
    def test_writer_takes_jsons_checks_for_other_types(self, doc):
        assert cli._json(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [
        {"set": [1, {2, 3}]}, {"extra": {(0, 1): 2}}, [b"bytes"], object(),
    ])
    def test_writer_refuses_what_json_refuses(self, doc):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError) as got:
            cli._json(doc)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kind", cli.GADGET_KINDS)
    def test_reduce_writes_write_edgelists_bytes(self, tmp_path, capsys, kind):
        from semidom.reductions import GadgetKind, build_gadget
        if kind == "split":
            g, part = gen_split_graph(6, 5, 0.5, 3)
            (tmp_path / "p.txt").write_text(write_partition(part))
            flags = ["--partition", str(tmp_path / "p.txt")]
        else:
            g, part, flags = gen_connected_graph(9, 0.4, 2), None, []
        (tmp_path / "g.txt").write_text(write_edgelist(g))
        out = tmp_path / "h.txt"
        assert cli.main(["reduce", "--kind", kind, "--input", str(tmp_path / "g.txt"),
                         "--output", str(out), *flags]) == 0
        capsys.readouterr()
        go = build_gadget(g, GadgetKind[kind.upper()], part)
        assert out.read_bytes() == write_edgelist(go.h).encode()
        roles = {str(v): list(role) for v, role in sorted(go.roles.items())}
        assert (tmp_path / "h.txt.roles.json").read_bytes() == (
            json.dumps(roles, indent=2) + "\n").encode()

    @pytest.mark.parametrize("family", cli.NAMED_FAMILIES + ("random", "split"))
    def test_gen_writes_write_edgelists_bytes(self, tmp_path, capsys, family):
        out = tmp_path / "g.txt"
        assert cli.main(["gen", "--family", family, "--size", "7", "--clique", "4",
                         "--ind", "5", "--seed", "3", "--output", str(out)]) == 0
        capsys.readouterr()
        if family == "split":
            g, part = gen_split_graph(4, 5, 0.5, 3)
            assert Path(str(out) + ".partition").read_bytes() == write_partition(part).encode()
        elif family == "random":
            g = gen_connected_graph(7, 0.3, 3)
        else:
            g = gen_named(family, 7, 3)
        assert out.read_bytes() == write_edgelist(g).encode()

    def test_edge_list_is_written_row_by_row(self, tmp_path):
        # K_633: a 1.5 MB text, of which the write holds one row at a time
        # (58 KB at its peak, CPython 3.11)
        g = gen_named("complete", 633)
        text = write_edgelist(g)
        out = tmp_path / "k.txt"
        tracemalloc.start()
        try:
            cli._save_edgelist(out, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == text.encode()
        assert peak < len(text) // 10, (peak, len(text))
