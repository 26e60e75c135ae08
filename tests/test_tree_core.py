"""The packed tree core against an independent site-by-site reference.

The reference below works on coordinate tuples only: a breadth-first
walk over sites, subtree sizes summed back up the walk, and
`json.dumps` of the sorted bonds.  Every tree is fed to the core with
its bonds shuffled and endpoints swapped at random, through both
`tree_from_json` and `validate_tree`.
"""

import hashlib
import io
import json
import random
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcount import cli, core, generators, render
from growcount.core import (
    NEIGHBOR_STEPS,
    random_lattice_tree,
    tree_from_json,
    tree_to_json,
    validate_tree,
)
from growcount.errors import (
    DuplicateBond,
    HasCycle,
    NotConnected,
    RootDetached,
    TooLarge,
)
from growcount.generators import (
    comb_tree,
    custom_hierarchical_tree,
    path_tree,
    tower_params,
    tower_tree,
)


def reference(root, pairs):
    """What the core must produce for a valid tree, from coordinates alone.

    Returns canonical JSON, sorted bonds as (u, v) tuples, the site set,
    the weight of each bond and the children of each bond.
    """
    bonds = sorted(tuple(sorted((tuple(a), tuple(b)))) for a, b in pairs)
    adjacent = {}
    for u, v in bonds:
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    parent = {root: None}
    order = [root]
    for site in order:   # breadth first; the list grows while it is read
        for nxt in adjacent[site]:
            if nxt not in parent:
                parent[nxt] = site
                order.append(nxt)
    size = dict.fromkeys(order, 1)
    for site in reversed(order[1:]):
        size[parent[site]] += size[site]

    def into(site):
        return tuple(sorted((site, parent[site])))

    weights = {into(s): size[s] for s in order[1:]}
    children = {into(s): [] for s in order[1:]}
    for s in order[1:]:
        if parent[s] != root:
            children[into(parent[s])].append(into(s))
    text = json.dumps({"root": list(root),
                       "bonds": [[list(u), list(v)] for u, v in bonds]},
                      separators=(",", ":"))
    return text, bonds, set(adjacent), weights, children


def scrambled(root, pairs, rng):
    """The same tree as JSON text and pairs, in a random order."""
    pairs = [list(p) for p in pairs]
    rng.shuffle(pairs)
    for p in pairs:
        if rng.random() < 0.5:
            p.reverse()
    text = json.dumps({"root": list(root),
                       "bonds": [[list(a), list(b)] for a, b in pairs]})
    return text, pairs


def variants(tree, rng):
    """The tree as given, moved by an offset, and rooted at another site."""
    pairs = list(tree.bonds)
    yield tree.root, pairs
    dx, dy = rng.randint(-50, 50), rng.randint(-50, 50)
    yield ((tree.root[0] + dx, tree.root[1] + dy),
           [((a[0] + dx, a[1] + dy), (b[0] + dx, b[1] + dy))
            for a, b in pairs])
    yield rng.choice(sorted(tree.sites)), pairs


TREES = {
    "path 1": lambda: path_tree(1),
    "path 9": lambda: path_tree(9),
    "comb 12": lambda: comb_tree(12),
    "tower 1/1": lambda: tower_tree(tower_params(1, 1)),
    "tower 1/2": lambda: tower_tree(tower_params(1, 2)),
    "tower 1/3": lambda: tower_tree(tower_params(1, 3)),
    "tower 2/2": lambda: tower_tree(tower_params(2, 2)),
    "custom 2,6,24": lambda: custom_hierarchical_tree((2, 6, 24), (2, 2)),
    "custom 3,12,60": lambda: custom_hierarchical_tree((3, 12, 60), (3, 3)),
    "star 4": lambda: validate_tree(
        (0, 0), [((0, 0), step) for step in NEIGHBOR_STEPS]),
}
TREES.update({f"random {n}/{seed}": (lambda n=n, seed=seed:
                                     random_lattice_tree(n, seed))
              for n in (1, 2, 7, 60, 300) for seed in (0, 3, 11)})


@pytest.mark.parametrize("name", sorted(TREES))
def test_core_agrees_with_the_reference(name):
    rng = random.Random(name)
    for root, pairs in variants(TREES[name](), rng):
        want_text, want_bonds, want_sites, want_weights, _children = \
            reference(root, pairs)
        text, shuffled = scrambled(root, pairs, rng)
        for tree in (tree_from_json(text), validate_tree(root, shuffled)):
            assert tree_to_json(tree) == want_text
            assert tree.bonds == tuple(want_bonds)
            assert tree.sites == want_sites
            assert tree.root == root
            assert sorted(tree.hooks) == sorted(want_weights.values())
        assert tree_from_json(text) == validate_tree(root, shuffled)


def test_equal_trees_hash_alike_and_different_roots_differ():
    a = tree_from_json(tree_to_json(comb_tree(6)))
    b = comb_tree(6)
    assert a == b and hash(a) == hash(b)
    c = validate_tree((1, 0), b.bonds)
    assert c != b and c.keys == b.keys


# --- each error class, and which one wins -----------------------------------

BASE = [[[0, 0], [1, 0]], [[1, 0], [1, 1]], [[1, 1], [2, 1]]]


def parse(bonds, root=(0, 0)):
    return tree_from_json(json.dumps({"root": list(root), "bonds": bonds}))


def test_duplicate_named_and_checked_first():
    dup = BASE + [[[1, 1], [1, 0]]]
    with pytest.raises(DuplicateBond,
                       match=r"^bond Bond\(u=\(1, 0\), v=\(1, 1\)\) listed twice$"):
        parse(dup)
    # also detached, disconnected and cyclic: the duplicate still wins
    worse = dup + [[[5, 5], [5, 6]], [[2, 1], [2, 0]], [[2, 0], [1, 0]]]
    with pytest.raises(DuplicateBond):
        parse(worse, root=(9, 9))


@pytest.mark.parametrize("root", [
    (9, 9), (-1, 0), (3, 0), (0, 2), (0, 3), (0, -1), (2, 0),
])
def test_detached_root(root):
    # (0, 2) and (0, 3) would pack onto sites of the next column if the
    # root were packed without checking its row
    with pytest.raises(RootDetached, match=rf"^root \({root[0]}, {root[1]}\)"):
        parse(BASE, root=root)


def test_detached_root_checked_before_connectivity_and_cycles():
    cyclic = BASE + [[[2, 1], [2, 0]], [[2, 0], [1, 0]], [[7, 7], [7, 8]]]
    with pytest.raises(RootDetached):
        parse(cyclic, root=(0, 1))


def test_disconnected_counts_the_unreachable_bonds():
    far = BASE + [[[5, 5], [5, 6]], [[5, 6], [6, 6]]]
    with pytest.raises(NotConnected,
                       match=r"^2 bond\(s\) unreachable from the root$"):
        parse(far)
    # a cycle in the unreachable part does not change the verdict
    with pytest.raises(NotConnected):
        parse(far + [[[6, 6], [6, 5]], [[6, 5], [5, 5]]])


def test_cycle_reports_bonds_and_sites():
    square = BASE + [[[2, 1], [2, 0]], [[2, 0], [1, 0]]]
    with pytest.raises(HasCycle,
                       match=r"^5 bonds span 5 sites; a tree needs L\+1$"):
        parse(square)


@pytest.mark.parametrize("entry, message", [
    ([[1, 1], [3, 1]], "unit distance"),
    ([[1, 1], [1, 1]], "unit distance"),
    ([[1, 1], [2, 2]], "unit distance"),
    ([[1, 1], [True, 1]], "coordinates must be integers, got True"),
    ([[1, 1], [2.0, 1]], "coordinates must be integers, got 2.0"),
    ([[1, 1], [[2], 1]], r"coordinates must be integers, got \[2\]"),
    ([[1, 1], [2, 1, 0]], "a site is a pair"),
    ([[1, 1]], "a bond is a pair of sites"),
    ("ab", "a bond is a pair of sites"),
    (["ab", "cd"], "a site is a pair"),
    (None, "a bond is a pair of sites"),
])
def test_malformed_entry(entry, message):
    # per-entry checks run before any tree axiom, here a duplicate
    with pytest.raises(ValueError, match=message):
        parse(BASE + [entry] + [BASE[0]])


def test_malformed_entries_are_reported_in_entry_order():
    with pytest.raises(ValueError, match="unit distance"):
        parse(BASE + [[[0, 0], [0, 5]], [[0, 0], [0.5, 0]]])
    with pytest.raises(ValueError, match="integers"):
        parse(BASE + [[[0, 0], [0.5, 0]], [[0, 0], [0, 5]]])


def test_validate_tree_checks_bond_objects_too():
    with pytest.raises(ValueError, match="unit distance"):
        validate_tree((0, 0), [((0, 0), (2, 0))])


@pytest.mark.parametrize("root,bonds", [
    ((0, 0), [((0, 0), (1.7, 0))]),
    ((0, 0), [((0, 0), (True, 0))]),
    ((0, 0), [((0, 0), ("0", 1))]),
    ((0.0, 0), [((0, 0), (1, 0))]),
], ids=["float", "bool", "str", "float root"])
def test_validate_tree_refuses_non_integer_coordinates(root, bonds):
    # int() would truncate 1.7 and accept True and "0"; both routes refuse
    with pytest.raises(ValueError) as direct:
        validate_tree(root, bonds)
    with pytest.raises(ValueError) as parsed:
        tree_from_json(json.dumps({"root": root, "bonds": bonds}))
    assert str(direct.value) == str(parsed.value)
    assert str(direct.value).startswith("coordinates must be integers, got ")


def test_runs_must_step_by_unit_vectors():
    with pytest.raises(ValueError, match="unit vector"):
        core.tree_from_runs((0, 0), [(0, 0, 1, 1, 3)])
    with pytest.raises(ValueError, match="at least one bond"):
        core.tree_from_runs((0, 0), [])


# --- incremental random growth ----------------------------------------------

def rescanning_random_tree(bond_count: int, seed: int):
    """Random growth as it was first written: every step rescans the
    whole tree for candidate bonds and sorts them."""
    rng = random.Random(seed)
    sites = {(0, 0)}
    bonds = []
    while len(bonds) < bond_count:
        candidates = []
        for u in sites:
            for dx, dy in NEIGHBOR_STEPS:
                v = (u[0] + dx, u[1] + dy)
                if v not in sites:
                    candidates.append((v, tuple(sorted((u, v)))))
        candidates.sort()
        site, bond = rng.choice(candidates)
        sites.add(site)
        bonds.append(bond)
    return validate_tree((0, 0), bonds)


@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
@pytest.mark.parametrize("bonds", [1, 5, 50, 400])
def test_random_tree_matches_the_rescanning_loop(bonds, seed):
    assert random_lattice_tree(bonds, seed) \
        == rescanning_random_tree(bonds, seed)


# sha256 of `gen random` stdout for bonds {1, 2, 3, 7, 50, 400, 2000} x
# seeds {0..9, 123456, 2**40}, recorded while the perimeter was a sorted
# list of (outside site, tree site) tuples
RANDOM_GOLDEN = [
    json.loads(line) for line in
    (Path(__file__).parent / "golden" / "random_trees.jsonl").read_text()
    .splitlines()
]


@pytest.mark.parametrize("case", RANDOM_GOLDEN,
                         ids=lambda case: "-".join(case["argv"][3::2]))
def test_gen_random_matches_the_golden_digests(capsys, case):
    assert cli.main(case["argv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


def test_random_growth_builds_no_bond_and_skips_validate_tree(monkeypatch):
    def refuse(*args):
        raise AssertionError("random growth left the packed route")

    monkeypatch.setattr(core, "validate_tree", refuse)
    want = next(case["sha256"] for case in RANDOM_GOLDEN
                if case["argv"][3::2] == ["400", "1"])
    out = tree_to_json(random_lattice_tree(400, 1)) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_random_growth_refuses_a_huge_tree_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            random_lattice_tree(core.MAX_TREE_BONDS + 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# --- guards fire on the raw bond count --------------------------------------

def run_cli(monkeypatch, argv, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stderr", err)
    return cli.main(argv), out.getvalue(), err.getvalue()


def test_max_tree_bonds_is_one_constant():
    assert generators.MAX_TREE_BONDS is core.MAX_TREE_BONDS


def test_count_guard(monkeypatch):
    monkeypatch.setattr(core, "MAX_TREE_BONDS", 6)
    code, out, _ = run_cli(monkeypatch, ["count"], tree_to_json(comb_tree(6)))
    assert code == 0 and json.loads(out)["N"] == "15"
    code, out, err = run_cli(monkeypatch, ["count"],
                             tree_to_json(comb_tree(8)))
    assert (code, out) == (3, "")
    assert "TooLarge: 8 bonds exceeds the guard 6" in err


def test_guards_fire_before_the_bonds_are_checked(monkeypatch):
    monkeypatch.setattr(core, "MAX_TREE_BONDS", 3)
    monkeypatch.setattr(render, "MAX_SVG_BONDS", 3)
    # four bonds, one of them malformed: a size refusal, not a parse error
    text = json.dumps({"root": [0, 0], "bonds": BASE + [[[0, 0], [0.5, 0]]]})
    for argv in (["count"], ["export", "--format", "svg"]):
        code, out, err = run_cli(monkeypatch, argv, text)
        assert (code, out) == (3, ""), argv
        assert "TooLarge" in err
    code, _, err = run_cli(monkeypatch, ["export", "--format", "dot"], text)
    assert code == 2 and "integers" in err


def test_svg_guard_passes_trees_at_the_limit(monkeypatch):
    monkeypatch.setattr(render, "MAX_SVG_BONDS", 4)
    code, out, _ = run_cli(monkeypatch, ["export", "--format", "svg"],
                           tree_to_json(comb_tree(4)))
    assert code == 0 and out.startswith("<svg")


# --- canonical text is read a chunk at a time, as json.loads reads it -------

def through_json_loads(text, max_bonds=None):
    """tree_from_json by its json.loads route alone."""
    root, columns = core._decoded_columns(text, max_bonds)
    return core._packed_tree(root, columns)


def outcome(read, text, max_bonds):
    try:
        tree = read(text, max_bonds)
    except Exception as exc:   # the type and the message must agree
        return type(exc), str(exc)
    return tree, tree_to_json(tree), tree.hooks


# chunk sizes in characters: 1 cuts at every bond boundary, the others
# at every few bonds and at varying offsets
CHUNK_SIZES = (1, 9, 40, 97)


def assert_routes_agree(text, bonds):
    want = {m: outcome(through_json_loads, text, m)
            for m in (None, bonds - 1, bonds)}
    for size in CHUNK_SIZES:
        with mock.patch.object(core, "_CHUNK", size):
            for max_bonds, expected in want.items():
                assert outcome(tree_from_json, text, max_bonds) == expected, \
                    (size, max_bonds)
    return want[None]


def chunked_only(text, max_bonds=None):
    """tree_from_json with small chunks and the json.loads route shut."""
    def refuse(*args):
        raise AssertionError("canonical text left the chunked route")

    with mock.patch.object(core, "_CHUNK", 9), \
            mock.patch.object(core, "_decoded_columns", refuse):
        return tree_from_json(text, max_bonds)


@settings(max_examples=80, deadline=None)
@given(bonds=st.integers(1, 40), seed=st.integers(0, 2**32),
       dx=st.integers(-10**6, 10**6), dy=st.integers(-10**6, 10**6),
       pick=st.integers(0, 10**6))
def test_canonical_trees_read_alike_by_both_routes(bonds, seed, dx, dy, pick):
    grown = random_lattice_tree(bonds, seed)
    sites = sorted(grown.sites)
    root = sites[pick % len(sites)]
    tree = validate_tree((root[0] + dx, root[1] + dy),
                         [((u[0] + dx, u[1] + dy), (v[0] + dx, v[1] + dy))
                          for u, v in grown.bonds])
    text = tree_to_json(tree)
    assert chunked_only(text) == tree
    with pytest.raises(TooLarge, match=rf"^{bonds} bonds exceeds the guard"):
        chunked_only(text, bonds - 1)
    got = assert_routes_agree(text, bonds)
    assert got[0] == tree and got[1] == text


# a 13-bond path from (1, 0): every x from 1 to 14 and y = 0
PATH_TEXT = tree_to_json(validate_tree(
    (1, 0), [((x, 0), (x + 1, 0)) for x in range(1, 14)]))
PATH_BONDS = 13


@pytest.mark.parametrize("old, new", [
    ("[[5,0]", "[[05,0]"), ("[[5,0]", "[[-05,0]"), ("[[5,0]", "[[5,-0]"),
    ("[[5,0]", "[[5,01]"), ("[[5,0]", "[[5,-01]"), ("[[5,0]", "[[--5,0]"),
    ("[[5,0]", "[[5-,0]"), ("[[5,0]", "[[5,0-]"), ("[[5,0]", "[[-,0]"),
    ("[[5,0]", "[[5,-]"), ("[[5,0]", "[[+5,0]"), ("[[5,0]", "[[,0]"),
    ("[[5,0]", "[[5,]"), ("[[5,0]", "[[5e0,0]"), ("[[5,0]", "[[1e2,0]"),
    ("[[5,0]", "[[5.0,0]"), ("[[5,0]", "[[5, 0]"), ("[[5,0]", "[[ 5,0]"),
    ("[[5,0]", "[[\u0665,0]"), ("[[5,0]", "[[true,0]"),
    ("[[5,0]", "[[5,0,0]"), ("[[5,0]", "[-[5,0]"), ("[[5,0]", "[[5,0]-"),
    ("[[5,0]", "[5[5,0]"), ("[[5,0],[6,0]]", "[[5,0],[6,0]]5"),
    ("],[[5,0]", "],5[[5,0]"), ("],[[5,0]", "],-[[5,0]"),
    ("[[5,0],[6,0]]", "[[5,0],[6,0],[7,0]]"),
    ("[[5,0],[6,0]]", "[[5,0],[7,0]]"),      # not at unit distance
    ("[[5,0],[6,0]]", "[[5,0],[6,0]],[[6,0],[5,0]]"),   # listed twice
    ("[[5,0],[6,0]]", "[[5,0],[6,0]],[[5,0],[5,1]],[[5,1],[6,1]],"
                      "[[6,0],[6,1]]"),      # a cycle
    ("[[5,0],[6,0]]", "[[5,0],[6,0]],[[40,40],[40,41]]"),   # disconnected
    ('"root":[1,0]', '"root":[50,50]'),      # detached
    ('"root":[1,0]', '"root":[1,-0]'),
    ('"root":[1,0]', '"root":[01,0]'),
    ('"root":[1,0]', '"root":[1.0,0]'),
])
def test_mutated_text_reads_alike_by_both_routes(old, new):
    assert old in PATH_TEXT
    assert_routes_agree(PATH_TEXT.replace(old, new, 1), PATH_BONDS)


@pytest.mark.parametrize("text", [
    "\t" + PATH_TEXT + "\r\n",
    " \n" + PATH_TEXT + " \t \n",
    "\ufeff" + PATH_TEXT,
    "\x0b" + PATH_TEXT,
    PATH_TEXT + "x",
    PATH_TEXT + "]",
    PATH_TEXT + "}",
    PATH_TEXT[:-1],
    PATH_TEXT[:-2] + "]]}",
    PATH_TEXT[:-1] + ',"root":[2,0]}',
    PATH_TEXT[:-1] + ',"bonds":[[[1,0],[2,0]]]}',
    '{"root":[9,9],' + PATH_TEXT[1:],
    json.dumps({"bonds": json.loads(PATH_TEXT)["bonds"], "root": [1, 0]},
               separators=(",", ":")),
    '{"root":[1,0],"bonds":[]}' + " " * 40,
    '{"root":[1,0],"bonds":[[[1,0],[2,0]]]}',
])
def test_reshaped_text_reads_alike_by_both_routes(text):
    assert_routes_agree(text, PATH_BONDS)


def test_whitespace_around_canonical_text_stays_on_the_chunked_route():
    tree = chunked_only("\t\r\n " + PATH_TEXT + "\r\n")
    assert tree_to_json(tree) == PATH_TEXT


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no integer digit limit before Python 3.11")
@pytest.mark.parametrize("limit", [0, 4300])
def test_a_5000_digit_coordinate_reads_alike_by_both_routes(limit):
    text = PATH_TEXT.replace("[[5,0]", "[[" + "7" * 5000 + ",0]", 1)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        _, message = assert_routes_agree(text, PATH_BONDS)
    finally:
        sys.set_int_max_str_digits(saved)
    assert ("limit" in message) == bool(limit)


# --- what reading a large tree costs ----------------------------------------

class FixedStdin:
    """Stdin whose text was built before tracing started."""

    def __init__(self, text):
        self.text = text

    def read(self):
        return self.text


def test_svg_refusal_of_a_large_tree_decodes_no_bond(monkeypatch):
    text = tree_to_json(path_tree(render.MAX_SVG_BONDS + 1))
    monkeypatch.setattr("sys.stdin", FixedStdin(text))
    monkeypatch.setattr("sys.stdout", io.StringIO())
    monkeypatch.setattr("sys.stderr", io.StringIO())
    tracemalloc.start()
    try:
        code = cli.main(["export", "--format", "svg"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "TooLarge: 100001 bonds exceeds the guard 100000" \
        in sys.stderr.getvalue()
    assert peak < 4 * 2**20


def test_reading_a_large_path_peaks_under_200_bytes_per_bond():
    bonds = 100_000
    text = tree_to_json(path_tree(bonds))
    tracemalloc.start()
    try:
        tree = tree_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.bond_count == bonds
    assert peak / bonds < 200


@pytest.mark.parametrize("build", [path_tree, comb_tree])
def test_counting_and_writing_a_large_tree_decode_no_bond(build):
    tree = build(10_000)
    tree_to_json(tree, io.StringIO())
    core.growth_count(tree)
    core.prime_exponents(tree.bond_count, tree.hooks)
    assert "bonds" not in vars(tree) and "sites" not in vars(tree)


def test_the_walk_is_dropped_once_the_hooks_exist():
    tree = tree_from_json(tree_to_json(comb_tree(12)))
    assert "_walk" in tree.__dict__
    hooks = tree.hooks
    assert "_walk" not in tree.__dict__
    assert core.downstream_weights(tree) == hooks


def test_gen_writes_the_same_text_in_chunks(monkeypatch, capsys):
    monkeypatch.setattr(core, "_CHUNK", 64)   # two bonds a write
    tree = comb_tree(12)
    assert cli.main(["gen", "comb", "--bonds", "12"]) == 0
    assert capsys.readouterr().out == tree_to_json(tree) + "\n"
    out = io.StringIO()
    assert tree_to_json(tree, out) is None
    assert out.getvalue() == tree_to_json(tree)
