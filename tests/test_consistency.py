"""One matrix of edge-case families against every route of the CLI.

Each family is an interval model, given to the CLI both as an interval file
and as the edge list of its intersection graph. The routes are `solve` with
each `--algo` in each format, and `verify` with each `--kind` in each
format. On one family:

- every solve route gives the same exit code, and a failing one the same
  error text. The one documented difference: `--algo interval` with
  `--format edgelist` is a usage error, whatever the file holds;
- `exact` and `interval` give sets of the same size, and `exact` and
  `approx` give the same set in both formats;
- `approx` is valid and within 2 + 3 ln(Δ+1) of the exact size;
- `verify` accepts every answer as semitotal and as dominating, in both
  formats, and judges every kind as the definitions in tests/oracles.py do;
- `verify_intervals` on the model gives the report `verify` gives on its
  intersection graph, for every answer and kind.

`verify` judges a given set, not an instance. Where every solve route
fails, it judges the whole vertex set: the isolated vertex has no partner,
and on the empty graph the empty set holds vacuously for every kind.
"""

import json
import math

import pytest

from semidom import cli
from semidom.domination import verify, verify_intervals
from semidom.formats import parse_intervals, write_edgelist
from semidom.intervals import intersection_graph

import oracles

USAGE_ERROR = {"error": "--algo interval requires --format intervals",
               "kind": "invalid-input"}

# name -> (interval lines, the solve failure as (exit code, error) or None)
FAMILIES = {
    "empty": ([], (1, "graph is empty")),
    "single-vertex": (["0 1"], (3, "isolated vertex 0")),
    "k2": (["0 2", "1 3"], None),
    "identical-intervals": (["0 1", "0 1", "0 1"], None),
    "touching-endpoints": (["0 1", "1 2", "2 3", "3 4"], None),
    "nested-intervals": (["0 10", "1 2", "3 4", "5 6", "8 9"], None),
    "two-components": (["0 2", "1 3", "10 12", "11 13", "12 14"], None),
    "component-plus-isolated": (["0 2", "1 3", "5 6"], (3, "isolated vertex 2")),
    "fraction-endpoints": (["0 1/2", "1/3 5/6", "5/6 7/6", "7/6 3/2", "1/4 1/3"], None),
    "float-endpoints": (["0.25 0.5", "0.5 1.75", "1.5 2.0", "0.1 0.3"], None),
}

SOLVE_ROUTES = [("exact", "edgelist"), ("exact", "intervals"),
                ("approx", "edgelist"), ("approx", "intervals"),
                ("interval", "intervals")]
KINDS = {"dom": "dominating", "total": "total", "semitotal": "semitotal"}


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_route_agrees(tmp_path, capsys, family):
    lines, failure = FAMILIES[family]
    text = f"{len(lines)}\n" + "".join(line + "\n" for line in lines)
    model = parse_intervals(text)
    g = intersection_graph(model)
    edges = g.sorted_edges()
    files = {"intervals": tmp_path / "model.txt", "edgelist": tmp_path / "graph.txt"}
    files["intervals"].write_text(text)
    files["edgelist"].write_text(write_edgelist(g))

    def solve(algo, fmt):
        return run(capsys, "solve", "--algo", algo, "--format", fmt,
                   "--input", str(files[fmt]))

    assert solve("interval", "edgelist") == (1, USAGE_ERROR)
    solved = {route: solve(*route) for route in SOLVE_ROUTES}
    if failure is not None:
        code, error = failure
        expected = (code, {"error": error,
                           "kind": "infeasible" if code == 3 else "invalid-input"})
        assert list(solved.values()) == [expected] * len(SOLVE_ROUTES)
        answers = [list(range(g.n))]
    else:
        for code, doc in solved.values():
            assert code == 0 and doc["verified"] is True
            assert (doc["n"], doc["m"]) == (g.n, g.m)
        sets = {route: doc["set"] for route, (_, doc) in solved.items()}
        assert sets["exact", "edgelist"] == sets["exact", "intervals"]
        assert sets["approx", "edgelist"] == sets["approx", "intervals"]
        optimum = len(sets["exact", "edgelist"])
        assert len(sets["interval", "intervals"]) == optimum
        ratio = 2 + 3 * math.log(g.max_degree() + 1)
        assert len(sets["approx", "edgelist"]) <= ratio * optimum
        answers = list(sets.values())

    set_file = tmp_path / "set.txt"
    for members in answers:
        set_file.write_text(" ".join(map(str, members)) + "\n")
        for kind, name in KINDS.items():
            verdicts = [run(capsys, "verify", "--format", fmt, "--input", str(path),
                            "--set", str(set_file), "--kind", kind)
                        for fmt, path in files.items()]
            assert verdicts[0] == verdicts[1]
            code, doc = verdicts[0]
            valid = oracles.is_valid_set(g.n, edges, members, name)
            assert (code, doc["valid"]) == ((0, True) if valid else (2, False))
            kind_enum = cli._KINDS[kind]
            assert verify_intervals(model, members, kind_enum) == verify(g, members, kind_enum)
            if failure is None and kind != "total":
                assert valid
