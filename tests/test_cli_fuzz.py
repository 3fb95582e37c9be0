"""A seeded fuzz of the CLI contract, run in process through `cli.main`.

Each route starts from valid input files and, case by case, mutates them:
header tokens, numerals, line ends and single bytes. Flags stay valid;
only the files change (`gen` reads no file, so its cases draw a family,
a size and a seed instead). Every case must keep the contract README
states for the CLI:

- the exit code is 0-4;
- stdout is exactly one JSON document, with the keys README gives for that
  subcommand and exit code;
- no exception leaves `main`;
- the case ends within CASE_SECONDS.

The seed and the case count are fixed, so a failure reproduces; its message
holds the argv and the mutated files.
"""

import json
import random
import re
import time

import pytest

from semidom import cli

SEED = 20261020
CASES = 150  # per route
CASE_SECONDS = 2.0

# README's keys for each subcommand's document on exit 0 and 2, and the
# error document's "kind" on exit 1, 3 and 4
KEYS = {
    "solve": {"algorithm", "n", "m", "size", "set", "verified", "elapsedMs", "extra"},
    "verify": {"algorithm", "kind", "n", "m", "size", "set", "valid", "violations"},
    "reduce": {"algorithm", "kind", "n", "m", "extra"},
    "check-reduction": {"algorithm", "kind", "holds", "details"},
    "gen": {"algorithm", "family", "n", "m", "seed", "extra"},
}
ERROR_KINDS = {1: "invalid-input", 3: "infeasible", 4: "size-cap"}

GRAPH = "6 7\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n1 4\n"
SPLIT = "5 6\n0 1\n0 2\n1 2\n0 3\n1 4\n2 4\n"
PARTITION = "clique 0 1 2\nindependent 3 4\n"
MODEL = "6\n0 2\n1 3\n5/2 4\n4 6\n0.5 1.5\n5 7\n"
MEMBERS = "0 2 4\n"

NUMERAL = re.compile(r"[-+]?[0-9]+(?:[./][0-9]+)?")
REPLACEMENTS = ["0", "1", "2", "3", "5", "7", "12", "-1", "-0", "+3", "1/0", "3/2",
                "0.5", "1e5000", "1e-3", "nan", "inf", "10000000",
                "99999999999999999999", "٣", "1_0", "x", ""]


def mutate_text(text, rng):
    op = rng.choice((0, 1, 1, 1, 2, 2))  # numerals most often: they keep the shape
    if op == 0:  # the header line: a token replaced, added or dropped
        head, sep, rest = text.partition("\n")
        tokens = head.split()
        pick = rng.randrange(3)
        if pick == 0 and tokens:
            tokens[rng.randrange(len(tokens))] = rng.choice(REPLACEMENTS)
        elif pick == 1:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(REPLACEMENTS))
        elif tokens:
            del tokens[rng.randrange(len(tokens))]
        return " ".join(tokens) + sep + rest
    if op == 1:  # a numeral anywhere
        found = list(NUMERAL.finditer(text))
        if not found:
            return text
        m = rng.choice(found)
        new = (str(int(m.group()) + rng.choice((-1, 1))) if m.group().isdigit()
               and rng.randrange(2) else rng.choice(REPLACEMENTS))
        return text[:m.start()] + new + text[m.end():]
    lines = text.split("\n")  # line ends and whole lines
    pick = rng.randrange(5)
    if pick == 0:
        return text.replace("\n", rng.choice(("\r\n", "\r")))
    if pick == 1:
        return text.rstrip("\n")
    at = rng.randrange(len(lines))
    if pick == 2:
        lines.insert(at, rng.choice(("", "# comment", "   ", "\t")))
    elif pick == 3:
        lines.insert(at, lines[at])
    else:
        del lines[at]
    return "\n".join(lines)


def mutate_bytes(data, rng):
    data = bytearray(data)
    pick = rng.randrange(4)
    at = rng.randrange(len(data) + (pick == 2)) if data else 0
    if pick == 0 and data:
        data[at] ^= 1 << rng.randrange(8)
    elif pick == 1 and data:
        data[at] = rng.randrange(256)
    elif pick == 2:
        data.insert(at, rng.randrange(256))
    elif data:
        del data[at]
    return bytes(data)


def mutate(text, rng):
    for _ in range(rng.choice((1, 1, 2, 3))):
        text = mutate_text(text, rng)
    data = text.encode("utf-8")
    if rng.randrange(4) == 0:
        data = mutate_bytes(data, rng)
    return data


# route -> (argv after the subcommand, given the input paths; the inputs
# by name as valid files)
ROUTES = {
    **{f"solve-{algo}-{fmt}": (
        lambda p, i, algo=algo, fmt=fmt: ["solve", "--algo", algo, "--format", fmt,
                                          "--input", p["input"]],
        {"input": GRAPH if fmt == "edgelist" else MODEL})
       for algo, fmt in (("exact", "edgelist"), ("approx", "edgelist"),
                         ("exact", "intervals"), ("approx", "intervals"),
                         ("interval", "intervals"))},
    **{f"verify-{fmt}": (
        lambda p, i, fmt=fmt: ["verify", "--format", fmt, "--input", p["input"],
                               "--set", p["set"],
                               "--kind", ("dom", "total", "semitotal")[i % 3]],
        {"input": GRAPH if fmt == "edgelist" else MODEL, "set": MEMBERS})
       for fmt in ("edgelist", "intervals")},
    "reduce": (
        lambda p, i: ["reduce", "--kind", cli.GADGET_KINDS[i % 5], "--input", p["input"],
                      "--partition", p["partition"], "--output", p["output"]],
        {"input": SPLIT, "partition": PARTITION}),
    "check-reduction": (
        lambda p, i: ["check-reduction", "--kind", cli.GADGET_KINDS[i % 5],
                      "--input", p["input"], "--partition", p["partition"]],
        {"input": SPLIT, "partition": PARTITION}),
}

GEN_FAMILIES = cli.NAMED_FAMILIES + ("random", "split", "intervals")


def check_contract(argv, capsys, context):
    command = argv[0]
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{type(exc).__name__}: {exc} left main on {context}")
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert elapsed < CASE_SECONDS, context
    assert code in (0, 1, 2, 3, 4), context
    doc = json.loads(out)  # one document: trailing data raises
    assert out == json.dumps(doc, indent=2) + "\n", context
    if code in ERROR_KINDS:
        assert set(doc) == {"error", "kind"}, context
        assert doc["kind"] == ERROR_KINDS[code] and isinstance(doc["error"], str), context
    else:
        assert set(doc) == KEYS[command], context
        assert code == 0 or command in ("solve", "verify", "check-reduction"), context
    return code


@pytest.mark.parametrize("route", ROUTES)
def test_mutated_inputs_keep_the_contract(tmp_path, capsys, route):
    build, inputs = ROUTES[route]
    rng = random.Random(f"{SEED}-{route}")
    paths = {name: str(tmp_path / name) for name in inputs}
    paths["output"] = str(tmp_path / "out.txt")
    codes = set()
    for case in range(CASES):
        files = {name: text.encode() for name, text in inputs.items()}
        for name in rng.sample(sorted(inputs), rng.randint(1, len(inputs))):
            files[name] = mutate(inputs[name], rng)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        argv = build(paths, case)
        codes.add(check_contract(argv, capsys, f"case {case}: {argv} with {files}"))
    assert {0, 1} <= codes  # cases pass the input checks and fail them


def test_gen_keeps_the_contract(tmp_path, capsys):
    rng = random.Random(f"{SEED}-gen")
    out = str(tmp_path / "out.txt")
    for case in range(CASES):
        family = GEN_FAMILIES[case % len(GEN_FAMILIES)]
        size = str(rng.randint(0, 12))
        extra = (["--clique", size, "--ind", str(rng.randint(0, 6))] if family == "split"
                 else ["--size", size])
        argv = ["gen", "--family", family, *extra, "--seed", str(rng.randrange(2**32)),
                "--output", out]
        check_contract(argv, capsys, f"case {case}: {argv}")
