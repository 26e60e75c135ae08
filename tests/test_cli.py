"""End-to-end CLI behavior: goldens, determinism, exit codes, round trips."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from growcount import analytics, cli as cli_module, core, generators, verify
from growcount.analytics import epsilon0
from growcount.bethe import bethe_existence_bound
from growcount.core import tree_from_json, tree_to_json
from growcount.errors import GrowcountError, InternalMismatch
from growcount.generators import (
    comb_tree,
    path_tree,
    tower_params,
    tower_tree,
)

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


# --- golden files -----------------------------------------------------------

@pytest.mark.parametrize("name,args", [
    ("path5", ["gen", "path", "--bonds", "5"]),
    ("comb4", ["gen", "comb", "--bonds", "4"]),
    ("tower_1_2", ["gen", "tower", "--a0", "1", "--gen", "2"]),
])
def test_gen_matches_golden(cli, name, args):
    proc = cli(*args)
    assert proc.returncode == 0
    assert proc.stdout == golden(f"{name}.json")


@pytest.mark.parametrize("name", ["path5", "comb4", "tower_1_2"])
def test_count_matches_golden(cli, name):
    proc = cli("count", stdin=golden(f"{name}.json"))
    assert proc.returncode == 0
    assert proc.stdout == golden(f"{name}.count.json")


def test_count_values_are_wired_correctly():
    # goldens double-checked against closed forms, not just the library
    assert json.loads(golden("path5.count.json")) \
        == {"L": 5, "W": "120", "N": "1"}
    comb = json.loads(golden("comb4.count.json"))
    assert comb["N"] == "3"   # (4-1)!! growth orders
    tower = json.loads(golden("tower_1_2.count.json"))
    assert int(tower["W"]) * int(tower["N"]) == math.factorial(32)


def test_export_dot_matches_golden(cli):
    proc = cli("export", "--format", "dot", stdin=golden("comb4.json"))
    assert proc.returncode == 0
    assert proc.stdout == golden("comb4.dot")


def test_export_svg_matches_golden(cli):
    proc = cli("export", "--format", "svg", stdin=golden("comb4.json"))
    assert proc.returncode == 0
    assert proc.stdout == golden("comb4.svg")
    assert proc.stdout.count("<line ") == 4
    assert proc.stdout.count("<circle ") == 1


def test_single_bond_svg(cli):
    gen = cli("gen", "path", "--bonds", "1")
    proc = cli("export", "--format", "svg", stdin=gen.stdout)
    assert proc.stdout == golden("single_bond.svg")


# sha256 of `export` stdout for each format on four trees (the random one
# has negative coordinates), recorded while each bond was decoded into a
# named tuple of its endpoints
EXPORT_DIGESTS = [json.loads(line)
                  for line in golden("export_digests.jsonl").splitlines()]


@pytest.mark.parametrize("case", EXPORT_DIGESTS,
                         ids=lambda case: f"{case['gen'][1]}-{case['format']}")
def test_export_matches_the_golden_digests(capsys, monkeypatch, case):
    assert cli_module.main(case["gen"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert cli_module.main(["export", "--format", case["format"]]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == case["sha256"]


# sha256 of stdout and of stderr and the exit code of `bethe`, `verify` and
# `oracle` (stdin from the `gen` command listed, caps on either side of N),
# recorded while the brute-force enumerators sliced new tuples every step
CERTIFY_DIGESTS = [json.loads(line)
                   for line in golden("certify_digests.jsonl").splitlines()]


def certify_digests(case) -> dict:
    """Run one golden case in process, as `certify_digests.jsonl` has it."""
    stdin = ""
    if case["stdin"]:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert cli_module.main(case["stdin"]) == 0
        stdin = text.getvalue()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        code = cli_module.main(case["argv"])
    return {"argv": case["argv"], "stdin": case["stdin"],
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


def test_certify_digests_cover_every_case():
    verbs = [case["argv"][0] for case in CERTIFY_DIGESTS]
    assert len(verbs) == 37
    assert [verbs.count(v) for v in ("bethe", "verify", "oracle")] \
        == [9, 4, 24]
    assert [case["exit"] for case in CERTIFY_DIGESTS].count(3) == 8
    assert [case["exit"] for case in CERTIFY_DIGESTS].count(2) == 1


@pytest.mark.parametrize("case", CERTIFY_DIGESTS,
                         ids=lambda case: " ".join(case["argv"]))
def test_certify_verbs_match_the_golden_digests(case):
    assert certify_digests(case) == case


# sha256 of the stdouts of each row's runs, in order, each run reading
# the stdout of its "stdin" argv: tower, path, comb, custom and 1e5
# random trees, the random workload's 32 `gen random | count` pipes and
# the 1e5 random tree's DOT and SVG; CI also replays this file out of
# process, each run a `python -m growcount` of its own
CLI_DIGESTS = [json.loads(line)
               for line in golden("cli_digests.jsonl").splitlines()]


@pytest.mark.parametrize("case", CLI_DIGESTS, ids=lambda case: case["name"])
def test_cli_outputs_match_the_golden_digests(capsys, monkeypatch, case):
    digest = hashlib.sha256()
    for run in case["runs"]:
        stdin = ""
        if run["stdin"]:
            assert cli_module.main(run["stdin"]) == 0
            stdin = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert cli_module.main(run["argv"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        digest.update(out.out.encode())
    assert digest.hexdigest() == case["sha256"]


README = (Path(__file__).parent.parent / "README.md").read_text()


def test_readme_examples_match_the_cli(capsys, monkeypatch):
    # each piped tour line's output byte for byte, and for the examples
    # without a pipe each part the README shows around its "..."
    # elisions, in order
    lines = README.splitlines()
    examples = [(cmd[2:], want) for cmd, want in zip(lines, lines[1:])
                if cmd.startswith("$ growcount ")]
    piped = [cmd for cmd, _ in examples if " | growcount " in cmd]
    assert (len(piped), len(examples)) == (4, 6)
    for cmd, want in examples:
        stdin = ""
        for stage in cmd.split(" | "):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            assert cli_module.main(shlex.split(stage)[1:]) == 0, stage
            stdin = capsys.readouterr().out
        if cmd in piped:
            assert stdin == want + "\n", cmd
            continue
        at = 0
        for part in want.split("..."):
            at = stdin.find(part, at)
            assert at >= 0, (cmd, part)
            at += len(part)


# --- determinism ------------------------------------------------------------

def test_gen_count_pipeline_is_byte_stable(cli):
    first = cli("gen", "tower", "--a0", "1", "--gen", "2", binary=True)
    second = cli("gen", "tower", "--a0", "1", "--gen", "2", binary=True)
    assert first.stdout == second.stdout
    c1 = cli("count", stdin=first.stdout, binary=True)
    c2 = cli("count", stdin=second.stdout, binary=True)
    assert c1.stdout == c2.stdout


def test_random_gen_depends_only_on_seed(cli):
    a = cli("gen", "random", "--bonds", "9", "--seed", "5")
    b = cli("gen", "random", "--bonds", "9", "--seed", "5")
    c = cli("gen", "random", "--bonds", "9", "--seed", "6")
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


# --- exit codes -------------------------------------------------------------

def test_gen_guard_is_invalid_input(cli):
    proc = cli("gen", "tower", "--a0", "20", "--gen", "2")
    assert proc.returncode == 2
    assert "TooLarge" in proc.stderr


def refuse_to_build(*args):
    raise AssertionError("built a tree past the guard")


@pytest.mark.parametrize("kind", ["path", "comb", "random"])
def test_gen_bond_guard(monkeypatch, capsys, kind):
    # path and comb read the limit generators re-exports, random trees
    # read core's; both are the same constant unless patched
    monkeypatch.setattr(generators, "MAX_TREE_BONDS", 6)
    monkeypatch.setattr(core, "MAX_TREE_BONDS", 6)
    assert cli_module.main(["gen", kind, "--bonds", "6"]) == 0
    assert tree_from_json(capsys.readouterr().out).bond_count == 6
    # the refusal comes before any bond is laid
    monkeypatch.setattr(generators, "tree_from_runs", refuse_to_build)
    monkeypatch.setattr(core.random, "Random", refuse_to_build)
    assert cli_module.main(["gen", kind, "--bonds", "8"]) == 2
    assert capsys.readouterr() == (
        "", "error: TooLarge: tree would have 8 bonds (guard 6)\n")


def test_gen_path_guard_at_its_limit(monkeypatch, capsys):
    monkeypatch.setattr(generators, "tree_from_runs", refuse_to_build)
    assert cli_module.main(["gen", "path", "--bonds", "10000001"]) == 2
    assert capsys.readouterr().err == (
        "error: TooLarge: tree would have 10000001 bonds (guard 10000000)\n")


def test_gen_odd_comb(cli):
    proc = cli("gen", "comb", "--bonds", "5")
    assert proc.returncode == 2
    assert "OddLength" in proc.stderr


def test_gen_missing_parameter(cli):
    proc = cli("gen", "path")
    assert proc.returncode == 2
    assert "--bonds" in proc.stderr


def test_count_rejects_malformed_json(cli):
    for text in ("not json", '{"root":[0,0]}',
                 '{"root":[0.5,0],"bonds":[[[0,0],[1,0]]]}'):
        proc = cli("count", stdin=text)
        assert proc.returncode == 2


def test_count_rejects_cycle(cli):
    square = json.dumps({
        "root": [0, 0],
        "bonds": [[[0, 0], [1, 0]], [[1, 0], [1, 1]],
                  [[0, 1], [1, 1]], [[0, 0], [0, 1]]],
    })
    proc = cli("count", stdin=square)
    assert proc.returncode == 2
    assert "HasCycle" in proc.stderr


def test_oracle_cap_exceeded(cli):
    gen = cli("gen", "comb", "--bonds", "8")
    proc = cli("oracle", "--cap", "50", stdin=gen.stdout)
    assert proc.returncode == 3
    assert "CapExceeded" in proc.stderr


def test_oracle_cap_exit_codes(capsys, monkeypatch):
    text = tree_to_json(comb_tree(8))   # 105 growth orders
    for cap, code in (("-1", 2), ("0", 3), ("50", 3), ("104", 3),
                      ("105", 0)):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert cli_module.main(["oracle", "--cap", cap]) == code, cap
        out, err = capsys.readouterr()
        if code == 0:
            assert json.loads(out) == {"N_enumerated": "105"}
        elif code == 2:
            assert err == "error: ValueError: cap must be >= 0, got -1\n"
        else:
            assert err == f"error: CapExceeded: more than {cap} growth orders\n"


def test_oracle_requires_cap_for_large_trees(cli):
    gen = cli("gen", "path", "--bonds", "13")
    proc = cli("oracle", stdin=gen.stdout)
    assert proc.returncode == 2
    proc = cli("oracle", "--cap", "10", stdin=gen.stdout)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"N_enumerated": "1"}


def test_oracle_depth_guard(capsys, monkeypatch):
    # the enumeration recurses once per bond; past the guard it exits 3
    # instead of running out of stack
    for bonds, code in ((core.MAX_ORACLE_BONDS, 0),
                        (core.MAX_ORACLE_BONDS + 1, 3)):
        text = tree_to_json(path_tree(bonds))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert cli_module.main(["oracle", "--cap", "10"]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert (out, err) == ('{"N_enumerated":"1"}\n', "")
        else:
            assert (out, err) == ("", "error: TooLarge: 901 bonds exceeds "
                                  "the oracle guard 900\n")


def test_svg_guard(cli):
    gen = cli("gen", "path", "--bonds", "100001")
    assert gen.returncode == 0
    proc = cli("export", "--format", "svg", stdin=gen.stdout)
    assert proc.returncode == 3
    dot_ok = cli("export", "--format", "dot", stdin=golden("comb4.json"))
    assert dot_ok.returncode == 0


def test_unknown_flag_is_an_error(cli):
    proc = cli("gen", "path", "--bonds", "3", "--sideways")
    assert proc.returncode == 2


def test_analyze_rejects_bad_parameters(cli):
    assert cli("analyze", "--a0", "0").returncode == 2
    assert cli("analyze", "--gen", "0").returncode == 2
    assert cli("analyze", "--a0", "20", "--gen", "3",
               "--mode", "exact").returncode == 2


def test_bethe_guard(cli):
    assert cli("bethe", "--bonds", "9").returncode == 2
    assert cli("bethe", "--bonds", "0").returncode == 2


# a guard on requested parameters is invalid input (2); bad stdin is too
@pytest.mark.parametrize("argv,stdin,code,error", [
    (["gen", "custom", "--ells", "4000,40000000", "--bs", "1"], None, 2,
     "TooLarge"),
    (["gen", "tower", "--a0", "1", "--gen", "9"], None, 2, "TooLarge"),
    (["oracle"], "not json", 2, "ValueError"),
    (["export", "--format", "dot"], "not json", 2, "ValueError"),
    (["count"], '{"root":[5,5],"bonds":[[[0,0],[1,0]]]}', 2, "RootDetached"),
])
def test_exit_code_table(cli, argv, stdin, code, error):
    proc = cli(*argv, stdin=stdin)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {error}: ")


def test_error_in_a_verify_suite_is_one_error_line(monkeypatch, capsys):
    def broken():
        raise InternalMismatch("two routes disagree")
    monkeypatch.setitem(verify.SUITES, "core", broken)
    assert cli_module.main(["verify", "--suite", "core"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: InternalMismatch: two routes disagree\n")


def test_horizon_guard_message(cli):
    proc = cli("gen", "tower", "--a0", "1", "--gen", "9")
    assert proc.stderr == (
        "error: TooLarge: tree would have a bond count beyond the integer "
        "horizon (guard 10000000)\n")


# --- report verbs -----------------------------------------------------------

def test_oracle_agrees_with_count(cli):
    gen = cli("gen", "random", "--bonds", "8", "--seed", "1")
    counted = json.loads(cli("count", stdin=gen.stdout).stdout)
    oracled = json.loads(cli("oracle", stdin=gen.stdout).stdout)
    assert oracled["N_enumerated"] == counted["N"]


def test_analyze_default_report(cli):
    proc = cli("analyze")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["a0"] == 20 and report["j"] == 2
    assert report["mode"] == "log"
    assert report["epsilon0"] == pytest.approx(epsilon0(20), rel=1e-15)
    assert report["marginPerBond"] > 0
    assert report["C"] > 1
    # the exact bond count exists but is far too wide to print
    assert report["L"] is None
    assert report["Lbits"] == 2097153
    assert report["structure"]["exact"] is True


def test_analyze_exact_mode_small_case(cli):
    proc = cli("analyze", "--a0", "1", "--gen", "3", "--mode", "exact")
    report = json.loads(proc.stdout)
    assert report["L"] == "768"
    assert report["marginPerBond"] >= 0
    assert report["logW"] == pytest.approx(
        math.log(24 ** 64 * 32 ** 256) + 256 * math.log(768), rel=1e-9
    )


def analyze_by_public_route(a0, gen, mode):
    """analyze's stdout, stderr and exit code built from the public
    functions on analyze's own route: the generation check, one
    TowerParams, then the certificate.  test_analyze_argument_errors
    pins the order of the checks."""
    try:
        if gen < 1:
            raise ValueError("generation must be >= 1")
        params = tower_params(a0, gen)
        report = analytics.verify_main_bound(params, gen)
        structure = (analytics.structure_fractions(params, gen)
                     if gen >= 2 else None)
        if mode == "exact":
            log_w = math.log(
                analytics.weight_upper_bound(params, gen, mode="exact"))
        else:
            log_w = analytics.weight_upper_bound(params, gen, mode="log").ln
        total = params.bond_pair(gen)
    except (GrowcountError, ValueError) as exc:
        return "", f"error: {type(exc).__name__}: {exc}\n", 2
    payload = report.to_dict()
    payload["mode"] = mode
    printable = total is not None \
        and total.bit_length() <= cli_module.PRINT_INT_BITS
    payload["L"] = str(int(total)) if printable else None
    payload["Lbits"] = total.bit_length() if total is not None else None
    payload["logW"] = log_w
    payload["structure"] = structure.to_dict() if structure else None
    return json.dumps(payload, separators=(",", ":")) + "\n", "", 0


ANALYZE_POINTS = [
    (20, 2, "log"), (1, 1, "log"), (1, 3, "exact"), (2, 2, "exact"),
    (21, 3, "log"), (3, 8, "log"), (64, 8, "log"), (2, 0, "log"),
    (0, 0, "log"), (0, 2, "exact"), (20, 3, "exact"), (1, -1, "exact"),
]


@pytest.mark.parametrize("a0,gen,mode", ANALYZE_POINTS)
def test_analyze_matches_public_route(capsys, a0, gen, mode):
    argv = ["analyze", "--a0", str(a0), "--gen", str(gen), "--mode", mode]
    code = cli_module.main(argv)
    out, err = capsys.readouterr()
    assert (out, err, code) == analyze_by_public_route(a0, gen, mode)


# exact mode's refusals, recorded while exact mode called bond_count
# itself before structure_fractions and the exact-weight guard; a0 21
# at gen 2 is refused by the guard after its bond count is checked
@pytest.mark.parametrize("args,error", [
    ("--a0 20 --gen 3", "generation 3 bond count exceeds the integer budget"),
    ("--a0 21 --gen 2",
     "about 2^4194304 bonds exceeds the exact-weight guard 1000000"),
    ("--a0 1 --gen 4",
     "13958643712 bonds exceeds the exact-weight guard 1000000"),
    ("--a0 2 --gen 3",
     "9663676416 bonds exceeds the exact-weight guard 1000000"),
])
def test_exact_analyze_refusals(capsys, args, error):
    assert cli_module.main(["analyze", *args.split(), "--mode", "exact"]) == 2
    assert capsys.readouterr() == ("", f"error: TooLarge: {error}\n")


def test_analyze_refuses_generation_zero_first(capsys):
    # the generation is checked before the seed
    assert cli_module.main(["analyze", "--a0", "0", "--gen", "0"]) == 2
    assert capsys.readouterr() == (
        "", "error: ValueError: generation must be >= 1\n")


# the literal errors in analyze's check order, generation before seed;
# --a0 0 --gen 0 is pinned above
@pytest.mark.parametrize("args,error", [
    ("--a0 2 --gen 0", "generation must be >= 1"),
    ("--a0 0 --gen 2 --mode exact", "a0 must be >= 1"),
    ("--a0 1 --gen -1 --mode exact", "generation must be >= 1"),
    ("--a0 -5 --gen 1", "a0 must be >= 1"),
])
def test_analyze_argument_errors(capsys, args, error):
    assert cli_module.main(["analyze", *args.split()]) == 2
    assert capsys.readouterr() == ("", f"error: ValueError: {error}\n")


@pytest.mark.parametrize("a0,gen,mode", [
    (21, 3, "log"), (20, 1, "log"), (1, 3, "exact"), (3, 8, "log"),
])
def test_analyze_builds_one_tower_params(monkeypatch, capsys, a0, gen, mode):
    calls = []

    def counted(*args):
        calls.append(args)
        return tower_params(*args)
    for module in (cli_module, generators):
        monkeypatch.setattr(module, "tower_params", counted)
    argv = ["analyze", "--a0", str(a0), "--gen", str(gen), "--mode", mode]
    assert cli_module.main(argv) == 0
    capsys.readouterr()
    assert calls == [(a0, gen)]


@pytest.mark.parametrize("a0,gen,mode", [
    (21, 3, "log"), (20, 1, "log"), (1, 3, "exact"), (3, 8, "log"),
    (21, 2, "log"), (1, 1, "exact"), (2, 2, "exact"), (21, 2, "exact"),
])
def test_analyze_certifies_once_with_one_tower_params(
        monkeypatch, capsys, a0, gen, mode):
    # bond_count runs inside structure_fractions, so once at gen >= 2
    # within the integer horizon and never at gen 1, in either mode;
    # exact mode's weight guard then refuses a0 21 at gen 2 (exit 2)
    calls = []

    def counted(name):
        original = getattr(analytics, name)

        def wrapper(params, generation, *rest):
            calls.append((name, params, generation))
            return original(params, generation, *rest)
        return wrapper
    for name in ("verify_main_bound", "structure_fractions", "bond_count"):
        monkeypatch.setattr(analytics, name, counted(name))
    argv = ["analyze", "--a0", str(a0), "--gen", str(gen), "--mode", mode]
    refused = (a0, gen, mode) == (21, 2, "exact")
    assert cli_module.main(argv) == (2 if refused else 0)
    capsys.readouterr()
    names = ["verify_main_bound"] + (["structure_fractions"] if gen >= 2
                                     else [])
    if gen >= 2 and tower_params(a0, gen).bond_pair(gen) is not None:
        names.append("bond_count")
    assert [name for name, _, _ in calls] == names
    assert all(g == gen for _, _, g in calls)
    assert all(params is calls[0][1] for _, params, _ in calls)
    assert (calls[0][1].a0, calls[0][1].generations) == (a0, gen)


@pytest.mark.parametrize("a0,gen", [(21, 3), (20, 1), (3, 8), (64, 8)])
def test_analyze_computes_one_log_weight_bound(monkeypatch, capsys, a0, gen):
    calls = []
    original = analytics.weight_upper_bound

    def counted(params, generation=None, mode="exact"):
        calls.append(mode)
        return original(params, generation, mode)
    monkeypatch.setattr(analytics, "weight_upper_bound", counted)
    argv = ["analyze", "--a0", str(a0), "--gen", str(gen), "--mode", "log"]
    assert cli_module.main(argv) == 0
    out, _ = capsys.readouterr()
    assert calls == ["log"]
    want = original(tower_params(a0, gen), gen, mode="log").ln
    assert json.loads(out)["logW"] == want


@pytest.mark.parametrize("argv", [
    ["analyze", "--a0", "5000000", "--gen", "1"],
    ["analyze", "--a0", "4000001", "--gen", "2", "--mode", "exact"],
    ["gen", "tower", "--a0", "5000000", "--gen", "1"],
])
def test_seed_past_the_integer_budget_is_invalid_input(capsys, argv):
    # no level past such a seed can be materialized, not even the
    # first-generation count analyze divides by
    a0 = argv[argv.index("--a0") + 1]
    assert cli_module.main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: TooLarge: a0={a0}: 2^a0 exceeds the 4000000-bit "
        "budget\n")


def test_exact_weight_guard_names_a_huge_count_by_its_power_of_two(capsys):
    # a0=1 has about 2^131073 bonds at gen 5, a 39,457-digit count
    argv = ["analyze", "--a0", "1", "--gen", "5", "--mode", "exact"]
    assert cli_module.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err) < 200
    assert re.fullmatch(r"error: TooLarge: about 2\^\d+ bonds exceeds the "
                        r"exact-weight guard 1000000\n", err)


# analyze's stdout and exit code over a grid of seeds, generations and
# modes, one JSON line per call, recorded before the epsilon series was
# read from one row list; seeds past 508, whose margin is 0.0, are left
# out until that margin is certified
ANALYZE_GRID = [json.loads(line)
                for line in golden("analyze_grid.jsonl").splitlines()]


def test_analyze_grid_covers_every_case():
    assert len(ANALYZE_GRID) == 104
    assert [case["argv"] for case in ANALYZE_GRID] == [
        ["analyze", "--a0", str(a0), "--gen", str(gen), "--mode", mode]
        for a0 in (1, 2, 3, 4, 5, 8, 16, 20, 21, 22, 30, 35, 64)
        for gen in (1, 2, 3, 8) for mode in ("exact", "log")]
    assert [case["exit"] for case in ANALYZE_GRID].count(2) == 42


@pytest.mark.parametrize("case", ANALYZE_GRID,
                         ids=lambda case: "-".join(case["argv"][2::2]))
def test_analyze_matches_the_golden_grid(capsys, case):
    assert cli_module.main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


# analyze over the benchmark's grid (a0 1..64, gen 1..8), over a0 9..21 at
# gen 2 and 3 in both modes, where L prints at up to 65,537 bits and the
# exact structure fractions hold megabit integers, and over a0 1..4 at gen
# 1..4 in exact mode.  Each call adds [argv, exit code, stdout] as one JSON
# line to a sha256, recorded while Fraction reduced the full integers by
# gcd and analyze printed L with str().
ANALYZE_SWEEP_SHA256 = \
    "b2b6ffbeec3f18af9eb3ce4c9a43ba98108a6cf52315573a1a689fffea935005"


def analyze_sweep():
    for a0 in range(1, 65):
        for gen in range(1, 9):
            yield ["analyze", "--a0", str(a0), "--gen", str(gen)]
    for a0 in range(9, 22):
        for gen in (2, 3):
            for mode in ("exact", "log"):
                yield ["analyze", "--a0", str(a0), "--gen", str(gen),
                       "--mode", mode]
    for a0 in range(1, 5):
        for gen in range(1, 5):
            yield ["analyze", "--a0", str(a0), "--gen", str(gen),
                   "--mode", "exact"]


def test_analyze_sweep_matches_its_recorded_digest():
    digest, calls = hashlib.sha256(), 0
    for argv in analyze_sweep():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_module.main(argv)
        digest.update(json.dumps([argv, code, out.getvalue()]).encode()
                      + b"\n")
        calls += 1
    assert calls == 580
    assert digest.hexdigest() == ANALYZE_SWEEP_SHA256


# argparse rejections that exit 2 before any verb runs
PARSER_ERRORS = [
    ["analyze", "--gen", "two"], ["analyze", "--mode", "fancy"],
    ["analyze", "--bogus"], ["frobnicate"], [],
]


def test_an_argparse_error_leaves_the_shared_parser_usable(capsys):
    # the parser is built once per process, so each golden analyze call
    # runs right after a rejected call on that same parser
    assert cli_module.build_parser() is cli_module.build_parser()
    for i, case in enumerate(ANALYZE_GRID):
        with pytest.raises(SystemExit) as exc:
            cli_module.main(PARSER_ERRORS[i % len(PARSER_ERRORS)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert cli_module.main(case["argv"]) == case["exit"]
        assert capsys.readouterr().out == case["stdout"]


def test_a_handler_wrapped_after_the_parser_is_built_sees_the_call(
        monkeypatch, capsys):
    # perfbench's tracer wraps cmd_* by name once the parser exists
    cli_module.build_parser()
    calls = []
    original = cli_module.cmd_bethe

    def wrapper(args):
        calls.append(args.bonds)
        return original(args)
    monkeypatch.setattr(cli_module, "cmd_bethe", wrapper)
    assert cli_module.main(["bethe", "--bonds", "3"]) == 0
    assert calls == [3]
    assert json.loads(capsys.readouterr().out) \
        == bethe_existence_bound(3).to_dict()


# the standard modules src/ imports by name: a launch loads what they
# and an empty argparse parser load, growcount's own modules and no
# other module
LAUNCH_STDLIB = ("argparse", "bisect", "collections", "decimal", "fractions",
                 "functools", "gc", "itertools", "json", "math", "operator",
                 "random", "re", "sys", "typing")


def test_a_launch_imports_no_dataclasses_or_inspect():
    # the records are named tuples; dataclasses would import inspect, and
    # with it ast, dis and tokenize, at every launch.  A module imported
    # for one step, such as array for a bitmap, would cost every launch
    # its import too.  -S keeps the imports of site's .pth files out of
    # the check
    code = (f"import {', '.join(LAUNCH_STDLIB)}; argparse.ArgumentParser(); "
            "before = set(sys.modules); "
            "import growcount.cli as cli; cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
            "print(sorted(name for name in set(sys.modules) - before "
            "if name.partition('.')[0] != 'growcount'))")
    src = str(Path(cli_module.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert (proc.stdout, proc.stderr, proc.returncode) == ("[]\n[]\n", "", 0)


def _analyze_peak(argv):
    """The peak traced allocation of one CLI call, and its exit code."""
    tracemalloc.start()
    try:
        code = cli_module.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, code


@pytest.mark.parametrize("mode", ["log", "exact"])
def test_analyze_past_the_horizon_costs_what_generation_eight_costs(
        capsys, mode):
    # seed 20's levels past generation 2 are not materialized and its
    # series rows end at k = 4, so a million generations print what eight
    # print, apart from "j", in the memory eight take.  (10**6 keeps the
    # test bearable against a TowerParams that pads each level past the
    # horizon, which peaks at about 150 MB at this size.)
    argv = ["analyze", "--a0", "20", "--mode", mode, "--gen"]
    cli_module.main(argv + ["8"])   # imports and caches outside the peaks
    capsys.readouterr()
    near_peak, near_code = _analyze_peak(argv + ["8"])
    near = capsys.readouterr()
    far_peak, far_code = _analyze_peak(argv + ["1000000"])
    far = capsys.readouterr()
    assert far_code == near_code == (0 if mode == "log" else 2)
    if mode == "log":
        assert '"j":8,' in near.out and near.err == far.err == ""
        assert far.out.replace('"j":1000000,', '"j":8,') == near.out
    else:
        assert near.out == far.out == ""
        assert far.err.replace("1000000", "8") == near.err
    assert far_peak < 2 * near_peak


@pytest.mark.parametrize("a0", range(16, 22))
def test_log_analyze_forms_no_megabit_integer(capsys, a0):
    # generation 2 of these seeds has a 0.13-4.2 Mbit bond count, 16 to
    # 512 KB as an int; log mode reads every level as an (odd, exponent)
    # pair, so each call peaks far below what one such int takes
    cli_module.main(["analyze", "--a0", str(a0), "--gen", "2"])   # warm-up
    for gen in range(2, 9):
        argv = ["analyze", "--a0", str(a0), "--gen", str(gen)]
        peak, code = _analyze_peak(argv)
        assert code == 0
        assert peak < 64 * 1024, (gen, peak)
    capsys.readouterr()


def test_refused_tower_forms_no_level_integer(capsys):
    # the size guard reads the bond count's pair, before the 2M-bit
    # backbone, branch and bond count ints of generation 2 are formed
    argv = ["gen", "tower", "--a0", "20", "--gen", "2"]
    peak, code = _analyze_peak(argv)
    assert code == 2 and peak < 64 * 1024, peak
    assert capsys.readouterr() == ("", "error: TooLarge: tree would have "
                                   "about 2^2097152 bonds (guard 10000000)\n")


def test_bethe_report_matches_library(cli):
    proc = cli("bethe", "--bonds", "4")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == bethe_existence_bound(4).to_dict()


def test_verify_all_passes(cli):
    proc = cli("verify", "--suite", "all")
    assert proc.returncode == 0
    assert "FAIL" not in proc.stdout
    assert re.search(r"(\d+)/\1 checks passed", proc.stdout)


def test_verify_single_suite(cli):
    proc = cli("verify", "--suite", "bethe")
    assert proc.returncode == 0
    assert "bethe:" in proc.stdout and "core:" not in proc.stdout


# --- custom generator through the CLI ---------------------------------------

def test_gen_custom_round_trip(cli):
    custom = cli("gen", "custom", "--ells", "4,16", "--bs", "4")
    tower = cli("gen", "tower", "--a0", "1", "--gen", "2")
    assert custom.stdout == tower.stdout


def test_gen_custom_counts(cli):
    gen = cli("gen", "custom", "--ells", "2,6,24", "--bs", "2,2")
    assert gen.returncode == 0
    counted = json.loads(cli("count", stdin=gen.stdout).stdout)
    assert counted["L"] == 44


def test_gen_custom_rejects_violation(cli):
    proc = cli("gen", "custom", "--ells", "4,8,16", "--bs", "2,8")
    assert proc.returncode == 2
    assert "ConstraintViolated" in proc.stderr


def test_gen_custom_rejects_garbage_lists(cli):
    proc = cli("gen", "custom", "--ells", "4,banana")
    assert proc.returncode == 2


# --- dot round trip ---------------------------------------------------------

def test_dot_preserves_sites_and_edges(cli):
    source = golden("tower_1_2.json")
    tree = tree_from_json(source)
    dot = cli("export", "--format", "dot", stdin=source).stdout

    nodes = set(re.findall(r'"(-?\d+)_(-?\d+)"(?= \[root=true\];|;)', dot))
    edges = re.findall(
        r'"(-?\d+)_(-?\d+)" -- "(-?\d+)_(-?\d+)";', dot
    )
    assert {(int(x), int(y)) for x, y in nodes} == tree.sites
    rebuilt = {
        tuple(sorted(((int(a), int(b)), (int(c), int(d)))))
        for a, b, c, d in edges
    }
    assert rebuilt == set(tree.bonds)
    root_lines = re.findall(r'"(-?\d+)_(-?\d+)" \[root=true\];', dot)
    assert [(int(x), int(y)) for x, y in root_lines] == [tree.root]


def test_large_svg_has_distinct_segments(cli):
    gen = cli("gen", "tower", "--a0", "1", "--gen", "3")
    svg = cli("export", "--format", "svg", stdin=gen.stdout).stdout
    segments = re.findall(
        r'<line x1="(\d+)" y1="(\d+)" x2="(\d+)" y2="(\d+)"', svg
    )
    assert len(segments) == 768
    assert len(set(segments)) == 768   # no two bonds drawn on top of each other
