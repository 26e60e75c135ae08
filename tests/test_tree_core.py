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


# a unit square on the end of a two-bond tail, and a path with a bond
# apart from it
TAILED_CYCLE = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (3, 0)),
                ((3, 0), (3, 1)), ((2, 1), (3, 1)), ((2, 0), (2, 1))]
DETACHED_BOND = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((5, 5), (5, 6))]


@pytest.mark.parametrize("bonds, error, message", [
    (TAILED_CYCLE, HasCycle, "6 bonds span 6 sites; a tree needs L+1"),
    (DETACHED_BOND, NotConnected, "1 bond(s) unreachable from the root"),
], ids=["tailed cycle", "detached bond"])
def test_walk_verdicts_keep_their_messages(bonds, error, message):
    text = json.dumps({"root": [0, 0], "bonds": sorted(bonds)},
                      separators=(",", ":"))
    for read in (lambda: validate_tree((0, 0), bonds),
                 lambda: tree_from_json(text)):
        with pytest.raises(error) as caught:
            read()
        assert str(caught.value) == message


class CountingBits(bytearray):
    """A bitmap that counts the lookups that find a key."""
    found = 0

    def __getitem__(self, index):
        hit = super().__getitem__(index)
        self.found += hit
        return hit


@pytest.mark.parametrize("side", [2, 80], ids=["square", "grid"])
def test_the_walk_over_a_cycle_stops_near_its_site_count(side):
    # every bond of a side x side block of sites: with no seen-set the
    # walk would go round its squares for ever; 80 x 80 is several
    # of the walk's blocks
    stride = side + 1   # a row of unused values above the top row
    keys = [2 * (x * stride + y) + step for x in range(side)
            for y in range(side) for step in (0, 1)
            if (y if step == 0 else x) < side - 1]
    present = CountingBits(core._presence(keys, stride))
    sites = len(keys) + 1
    assert core._tree_walk(0, present, stride, sites) is None
    # each lookup found queues one entry
    assert present.found + 1 <= 4 * sites + 1
    assert present.found <= sites + 3 * core._WALK_BLOCK


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


@pytest.mark.parametrize("root", [(0.7, "0"), (True, 0), (0, 0, 0), "00"],
                         ids=["float and str", "bool", "triple", "str"])
def test_runs_refuse_a_non_integer_root(root):
    # int() would root the first tree at (0, 0) and the second at (1, 0)
    with pytest.raises(ValueError, match="^(coordinates must be integers"
                       "|a site is a pair)"):
        core.tree_from_runs(root, [(0, 0, 1, 0, 2)])


@pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("at", range(5), ids=["x", "y", "dx", "dy", "n"])
def test_runs_refuse_a_non_integer_field(at, bad):
    # a float would build float keys, and True would pass as a step of 1
    run = [0, 0, 1, 0, 2]
    run[at] = bad
    with pytest.raises(ValueError, match=r"^run fields must be integers, "
                       rf"got {bad!r}$"):
        core.tree_from_runs((0, 0), [tuple(run)])


@pytest.mark.parametrize("n", [0, -3])
def test_runs_refuse_fewer_than_one_bond(n):
    # range() and [y] * n are empty for n < 1, so the run would vanish
    with pytest.raises(ValueError, match=rf"^a run needs at least one bond, "
                       rf"got {n}$"):
        core.tree_from_runs((0, 0), [(0, 0, 1, 0, 2), (9, 9, 0, 1, n)])


def test_runs_must_step_by_unit_vectors():
    with pytest.raises(ValueError, match="unit vector"):
        core.tree_from_runs((0, 0), [(0, 0, 1, 1, 3)])
    with pytest.raises(ValueError, match="at least one bond"):
        core.tree_from_runs((0, 0), [])


# --- runs checked run by run ------------------------------------------------

UNIT_STEPS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def run_bonds(runs):
    """The bonds of each run as (lower, upper) pairs, each run's listed
    from its lower end, as tree_from_runs lists their keys."""
    pairs = []
    for x, y, dx, dy, n in runs:
        if dx + dy < 0:   # start from the other end
            x, y, dx, dy = x + n * dx, y + n * dy, -dx, -dy
        sites = [(x + i * dx, y + i * dy) for i in range(n + 1)]
        pairs += zip(sites, sites[1:])
    return pairs


def built(build, *args):
    try:
        return build(*args)
    except Exception as exc:   # the type and the message must agree
        return type(exc), str(exc)


@st.composite
def run_lists(draw):
    """Runs that start at the root or on an earlier run, or, now and
    then, anywhere: overlapping, detached, cyclic, off the root, and
    at random shuffled out of order."""
    root = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    sites, runs = [root], []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.integers(0, 7))
        if kind:
            x, y = draw(st.sampled_from(sites))
        else:
            x, y = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        if kind == 1:   # around a unit square and back: a cycle
            new = [(x, y, 1, 0, 1), (x + 1, y, 0, 1, 1),
                   (x + 1, y + 1, -1, 0, 1), (x, y + 1, 0, -1, 1)]
        else:
            dx, dy = draw(st.sampled_from(UNIT_STEPS))
            new = [(x, y, dx, dy, draw(st.integers(1, 4)))]
        for x, y, dx, dy, n in new:
            runs.append((x, y, dx, dy, n))
            sites += [(x + i * dx, y + i * dy) for i in range(1, n + 1)]
    if draw(st.booleans()):
        runs = draw(st.permutations(runs))
    if not draw(st.integers(0, 7)):
        root = (draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
    return root, runs


@settings(max_examples=400, deadline=None)
@given(case=run_lists())
def test_runs_build_what_their_bonds_build(case):
    # the same tree, or the same exception and message, as the walk
    # over the same keys in the same order
    root, runs = case
    got = built(core.tree_from_runs, root, runs)
    assert got == built(validate_tree, root, run_bonds(runs))
    if isinstance(got, core.RootedTree):
        assert got.hooks == tree_from_json(tree_to_json(got)).hooks


@pytest.mark.parametrize("build", [
    lambda: path_tree(7), lambda: comb_tree(12),
    lambda: tower_tree(tower_params(1, 2)),
    lambda: custom_hierarchical_tree((3, 12, 60), (3, 3)),
], ids=["path", "comb", "tower", "custom"])
def test_generated_trees_need_no_walk_until_their_hooks_are_read(build):
    tree = build()
    assert "_walk" not in vars(tree)
    read = tree_from_json(tree_to_json(tree))
    assert tree == read and tree.hooks == read.hooks


@pytest.mark.parametrize("root", [(0, 4), (4, -2), (2, 0)])
def test_a_root_off_the_packed_rows_is_no_site_of_the_runs(root):
    # stride 2: x * 2 + y of (0, 4) is that of (2, 0), the run's start,
    # and of (4, -2) that of (3, 0), its end; only (2, 0) is the root
    runs = [(2, 0, 1, 0, 1)]
    assert built(core.tree_from_runs, root, runs) \
        == built(validate_tree, root, run_bonds(runs))


@pytest.mark.parametrize("root, site", [((0, 4), -1), ((4, -2), -1),
                                        ((2, 0), 0)])
def test_the_runs_and_their_keys_pack_the_root_alike(root, site):
    # the runs of the test above, their root packed by _root_site alone
    # on the run check's route and on _keyed_tree's (validate_tree's)
    runs, real, got = [(2, 0, 1, 0, 1)], core._root_site, []

    def spy(*args):
        got.append(real(*args))
        return got[-1]

    with mock.patch.object(core, "_root_site", spy):
        for build, bonds in ((core.tree_from_runs, runs),
                             (validate_tree, run_bonds(runs))):
            built(build, root, bonds)
            assert got and set(got) == {site}
            got.clear()


@pytest.mark.parametrize("runs, sparse", [
    # the second run starts on the third, so the run check turns the
    # runs down
    ([(0, 0, 1, 0, 2), (1, 1, 0, 1, 1), (1, 0, 0, 1, 1)], False),
    # 400 bonds in a box of 201 columns of 202 rows: a bitmap of the
    # box would take 100 bytes a bond, so the keys go in a set, walked
    # with a seen-set
    ([(0, 0, 1, 0, 200), (200, 0, 0, 1, 200)], True),
], ids=["out of order", "sparse"])
def test_runs_turned_down_by_the_run_check_go_to_the_walk(runs, sparse):
    with mock.patch.object(core, "_tree_walk",
                           wraps=core._tree_walk) as walk, \
            mock.patch.object(core, "_breadth_first",
                              wraps=core._breadth_first) as sparse_walk:
        tree = core.tree_from_runs((0, 0), runs)
    assert (walk.call_count, sparse_walk.call_count) == (not sparse, sparse)
    assert tree == validate_tree((0, 0), run_bonds(runs))


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


def perimeter_length(tree):
    """The number of bonds with exactly one endpoint on `tree`."""
    sites = tree.sites
    return sum((x + dx, y + dy) not in sites
               for x, y in sites for dx, dy in NEIGHBOR_STEPS)


# at 2000 bonds the candidate count passes 256, so the draw's bit count
# changes and about half of the draws just past it are drawn again
@pytest.mark.parametrize("bonds, seed", [
    *((bonds, seed) for bonds in (1, 2, 5, 50, 400)
      for seed in (0, 1, 7, 123456, 2**40)),
    (2000, 0), (2000, 2**40),
])
def test_random_tree_matches_the_rescanning_loop(bonds, seed):
    tree = random_lattice_tree(bonds, seed)
    assert "_walk" not in vars(tree)   # grown, so never walked
    assert tree == rescanning_random_tree(bonds, seed)
    assert tree.hooks == validate_tree((0, 0), tree.bonds).hooks
    if bonds == 2000:
        assert perimeter_length(tree) > 256


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


def test_dot_guard(monkeypatch):
    monkeypatch.setattr(core, "MAX_TREE_BONDS", 6)
    code, out, _ = run_cli(monkeypatch, ["export", "--format", "dot"],
                           tree_to_json(comb_tree(6)))
    assert code == 0 and out.startswith("graph")
    code, out, err = run_cli(monkeypatch, ["export", "--format", "dot"],
                             tree_to_json(comb_tree(8)))
    assert (code, out) == (3, "")
    assert err == "error: TooLarge: 8 bonds exceeds the guard 6\n"


def test_guards_fire_before_the_bonds_are_checked(monkeypatch):
    monkeypatch.setattr(core, "MAX_TREE_BONDS", 3)
    monkeypatch.setattr(render, "MAX_SVG_BONDS", 3)
    # four bonds, one of them malformed: a size refusal, not a parse error
    text = json.dumps({"root": [0, 0], "bonds": BASE + [[[0, 0], [0.5, 0]]]})
    for argv in (["count"], ["export", "--format", "svg"],
                 ["export", "--format", "dot"]):
        code, out, err = run_cli(monkeypatch, argv, text)
        assert (code, out) == (3, ""), argv
        assert "TooLarge" in err


def test_svg_guard_passes_trees_at_the_limit(monkeypatch):
    monkeypatch.setattr(render, "MAX_SVG_BONDS", 4)
    code, out, _ = run_cli(monkeypatch, ["export", "--format", "svg"],
                           tree_to_json(comb_tree(4)))
    assert code == 0 and out.startswith("<svg")


# --- canonical text is read a chunk at a time, as json.loads reads it -------

def through_json_loads(text, max_bonds=None):
    """tree_from_json by its json.loads route alone."""
    root, columns = core._decoded_columns(text, max_bonds)
    return core._keyed_tree(root, *core._column_keys(columns))


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
    ('"root":[1,0]', '"root":[1,' + "9" * 20 + "]"),
    # a number moved out of its slot into the gap beside it
    ("],[[5,0]", "],5[[,0]"), ("[[5,0]", "[5[,0]"), ("[[5,0]", "[[5,]0"),
    ("[[5,0],[6,0]]", "[[5,0],6[,0]]"), ("[[5,0],[6,0]]", "[[5,0],[6,]0]"),
    ("[[5,0],[6,0]]", "[[5,0],[6,0]0]"), ("[[5,0],[6,0]]", "[[5,0]0,[6,0]]"),
])
def test_mutated_text_reads_alike_by_both_routes(old, new):
    assert old in PATH_TEXT
    assert_routes_agree(PATH_TEXT.replace(old, new, 1), PATH_BONDS)


def short_texts(bonds):
    """A canonical text of a grown tree of `bonds` bonds, moved so that
    it has negative coordinates, and variants of it, by name."""
    grown = random_lattice_tree(bonds, bonds)
    pairs = [[[ax - 3, ay - 2], [bx - 3, by - 2]]
             for (ax, ay), (bx, by) in grown.bonds]

    def text(pairs):
        return json.dumps({"root": [-3, -2], "bonds": pairs},
                          separators=(",", ":"))

    canonical = text(pairs)
    head, _, rest = canonical.partition('"bonds":[[[')
    yield "canonical", canonical
    yield "spaced", canonical.replace("],[", "], [", 1)
    yield "upper first", text([pairs[0][::-1]] + pairs[1:])
    yield "unsorted", text(pairs[::-1])
    yield "duplicate", text(pairs + pairs[:1])
    yield "float", text([[[pairs[0][0][0] + 0.0, pairs[0][0][1]],
                          pairs[0][1]]] + pairs[1:])
    yield "bool", text([[[True, 0], [True, 1]]] + pairs)
    yield "empty slot", head + '"bonds":[[[,' + rest.partition(",")[2]
    yield "outside a slot", canonical.replace('"bonds":[', '"bonds":[7', 1)


@pytest.mark.parametrize("bonds", [1, 2, 5, 50, 400])
def test_short_text_reads_alike_by_both_routes(bonds):
    # the default chunk size: each text is one chunk, or none
    for name, text in short_texts(bonds):
        for max_bonds in (None, 1, bonds - 1, bonds):
            assert outcome(tree_from_json, text, max_bonds) \
                == outcome(through_json_loads, text, max_bonds), \
                (name, max_bonds)
    canonical = next(short_texts(bonds))[1]

    def refuse(*args):
        raise AssertionError("canonical text left the chunked route")

    with mock.patch.object(core, "_decoded_columns", refuse):
        assert tree_to_json(tree_from_json(canonical, bonds)) == canonical
        if bonds > 1:
            with pytest.raises(TooLarge, match=rf"^{bonds} bonds exceeds "
                               rf"the guard {bonds - 1}$"):
                tree_from_json(canonical, bonds - 1)


def json_integers(chunk):
    """What json.loads says of a chunk's numbers: all integers of at
    most 19 digits, and nothing else where they stand."""
    try:
        bonds = json.loads(b"[" + chunk.rstrip(b",") + b"]")
    except ValueError:
        return False
    return all(len(str(abs(v))) <= 19 for bond in bonds
               for site in bond for v in site)


@pytest.mark.parametrize("chunk", [
    b"[[5,0],[6,0]],", b"[[-5,-0],[-6,-0]],[[0,7],[0,8]],",
    b"[[" + b"9" * 19 + b",-" + b"9" * 19 + b"],[1,-1000000000000000000]],",
    b"[[,0],[6,0]],", b"[[5,0],[6,]],",              # an empty slot
    b"[[-,0],[6,0]],", b"[[5,0],[6,-]],",            # a lone minus
    b"[-[5,0],[6,0]],", b"[[5,0],-[6,0]],",          # -[
    b"[[01,0],[6,0]],", b"[[5,00],[6,0]],",          # 01
    b"[[-01,0],[6,0]],", b"[[5,0],[6,-00]],",        # -01
    b"[[" + b"1" * 20 + b",0],[6,0]],",              # 20 digits
    b"[[5,-" + b"1" * 20 + b"],[6,0]],",
    b"[[5,0],[6,0]]7,", b"7[[5,0],[6,0]],", b"[[5,0]7,[6,0]],",
    b"[[5-,0],[6,0]],", b"[[5,0],[6,--0]],", b"[[5,0],[6,1-0]],",
], ids=lambda chunk: chunk.decode()[:40])
def test_the_numeral_check_agrees_with_json_loads(chunk):
    assert core._chunk_bonds(chunk)
    assert core._json_integers(chunk) == json_integers(chunk)


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
    PATH_TEXT[:-2] + ",]}",
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


@pytest.mark.parametrize("value", ["-0", "0", "9" * 19, "-" + "9" * 19,
                                   "1" + "0" * 18, "9" * 20, "-" + "9" * 20])
@pytest.mark.parametrize("slot", range(4), ids=["x1", "y1", "x2", "y2"])
def test_each_slot_of_a_bond_reads_alike_by_both_routes(slot, value):
    # -0 is JSON's 0; 20 digits are past the byte scans' cap, so a text
    # over the guard leaves the chunked route
    numbers = ["5", "0", "6", "0"]
    numbers[slot] = value
    bond = "[[{},{}],[{},{}]]".format(*numbers)
    assert_routes_agree(PATH_TEXT.replace("[[5,0],[6,0]]", bond, 1), PATH_BONDS)


@pytest.mark.parametrize("root", [(10 ** 19 - 1, -(10 ** 19 - 3)),
                                  (-(10 ** 18), 10 ** 18)])
def test_a_19_digit_root_stays_on_the_chunked_route(root):
    # the root takes as many digits as a bond coordinate
    x, y = root
    tree = validate_tree(root, [((x, y), (x, y - 1)), ((x, y - 1), (x, y - 2)),
                                ((x, y), (x - 1, y))])
    text = tree_to_json(tree)
    assert chunked_only(text) == tree
    assert assert_routes_agree(text, 3)[0] == tree


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


@pytest.mark.parametrize("shift", [0, -40_000], ids=["plain", "negative"])
def test_the_guard_fires_before_any_number_is_converted(shift):
    bonds = 20_000
    tree = validate_tree((shift, shift), [((x, shift), (x + 1, shift))
                                          for x in range(shift, shift + bonds)])
    text = tree_to_json(tree)
    assert len(text) > core._CHUNK

    def refuse(*args, **kwargs):
        raise AssertionError("a number was converted before the guard")

    with mock.patch.object(core.json, "loads", refuse), \
            mock.patch.object(core, "int", refuse, create=True):
        with pytest.raises(TooLarge, match=rf"^{bonds} bonds exceeds the "
                           rf"guard {bonds - 1}$"):
            tree_from_json(text, bonds - 1)
    assert tree_from_json(text, bonds) == tree


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


def test_count_lets_go_of_its_text_before_the_bonds_are_packed(monkeypatch):
    # count hands tree_from_json the text in a list, which is empty by
    # the time the keys are packed: on the chunked route, and on
    # json.loads' for text with spaces
    holders, held = [], []
    real_read, real_keys = cli.tree_from_json, core._column_keys

    def read(holder, max_bonds=None):
        holders.append(holder)
        return real_read(holder, max_bonds)

    def keys(columns):
        held.append(list(holders[-1]))
        return real_keys(columns)

    monkeypatch.setattr(cli, "tree_from_json", read)
    monkeypatch.setattr(core, "_column_keys", keys)
    canonical = tree_to_json(path_tree(20_000))
    for text in (canonical, json.dumps(json.loads(canonical))):
        monkeypatch.setattr("sys.stdin", FixedStdin(text))
        monkeypatch.setattr("sys.stdout", io.StringIO())
        assert cli.main(["count"]) == 0
    assert held == [[], []]


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


@pytest.mark.parametrize("build, walked", [
    (lambda: tree_from_json(tree_to_json(comb_tree(12))), True),
    (lambda: validate_tree((0, 0), path_tree(9).bonds), True),
    (lambda: comb_tree(12), False),
    (lambda: tower_tree(tower_params(1, 3)), False),
    (lambda: custom_hierarchical_tree((3, 12, 60), (3, 3)), False),
    (lambda: random_lattice_tree(50, 3), False),
], ids=["text", "bonds", "comb", "tower", "custom", "random"])
def test_downstream_weights_takes_the_walk_or_walks_afresh(build, walked):
    # a validated tree hands its walk over; one never walked is walked
    # here, and neither keeps a walk once its hooks are read
    tree = build()
    assert ("_walk" in vars(tree)) == walked
    with mock.patch.object(core, "_tree_walk",
                           wraps=core._tree_walk) as walk:
        hooks = core.downstream_weights(tree)
    assert walk.call_count == (not walked)
    assert "_walk" not in vars(tree)
    assert hooks == tree.hooks == core.downstream_weights(tree)
    assert "_walk" not in vars(tree)


coordinate = st.one_of(st.integers(-10**6, 10**6),
                       st.integers(10**18, 10**19 - 10**3),
                       st.integers(-(10**19 - 10**3), -(10**18)))


@settings(max_examples=60, deadline=None)
@given(bonds=st.integers(1, 60), seed=st.integers(0, 2**32),
       dx=coordinate, dy=coordinate)
def test_the_writer_formats_what_the_decoder_reads(bonds, seed, dx, dy):
    grown = random_lattice_tree(bonds, seed)
    tree = validate_tree((dx, dy), [((u[0] + dx, u[1] + dy),
                                     (v[0] + dx, v[1] + dy))
                                    for u, v in grown.bonds])
    want = (f'{{"root":[{dx},{dy}],"bonds":['
            + ",".join("[[%d,%d],[%d,%d]]" % ends for ends in core._ends(tree))
            + "]}")
    assert tree_to_json(tree) == want
    out = io.StringIO()
    tree_to_json(tree, out)
    assert out.getvalue() == want


def tall_tree():
    # a 300-bond column with two bonds beside it: stride 302, width 2
    return validate_tree((0, -150), [((0, y), (0, y + 1))
                                     for y in range(-150, 150)]
                         + [((0, 0), (1, 0)), ((1, 0), (1, 1))])


@pytest.mark.parametrize("tree", [
    pytest.param(lambda: validate_tree((-7, -9), [((-7, -9), (-8, -9))]),
                 id="one +x bond"),
    pytest.param(lambda: validate_tree((3, 4), [((3, 4), (3, 5))]),
                 id="one +y bond"),
    pytest.param(lambda: validate_tree((-40, -60), [
        ((u[0] - 40, u[1] - 60), (v[0] - 40, v[1] - 60))
        for u, v in random_lattice_tree(300, 5).bonds]), id="negative"),
    pytest.param(tall_tree, id="tall"),
    pytest.param(lambda: comb_tree(300), id="comb"),
])
@pytest.mark.parametrize("chunk", [1, 31, 32, 64, 97 * 32, core._CHUNK])
def test_the_writer_formats_each_bond_as_it_did(tree, chunk, monkeypatch):
    # every x table of the writer is one chunk's, and _CHUNK < 32 still
    # writes a bond at a time
    tree = tree()
    want = (f'{{"root":[{tree.root[0]},{tree.root[1]}],"bonds":['
            + ",".join("[[%d,%d],[%d,%d]]" % ends for ends in core._ends(tree))
            + "]}")
    monkeypatch.setattr(core, "_CHUNK", chunk)
    assert tree_to_json(tree) == want
    out = io.StringIO()
    tree_to_json(tree, out)
    assert out.getvalue() == want


@pytest.mark.parametrize("step", [(1, 0), (0, 1)], ids=["wide", "tall"])
def test_writing_a_long_path_peaks_under_80_bytes_per_bond(step):
    # a table for every row of a 100,000-row tree would take about
    # 140 bytes a bond; a tall tree's row tables are a chunk's
    bonds = 100_000
    tree = core.tree_from_runs((0, 0), [(0, 0, *step, bonds)])
    tracemalloc.start()
    try:
        tree_to_json(tree, io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / bonds < 80


def test_gen_writes_the_same_text_in_chunks(monkeypatch, capsys):
    monkeypatch.setattr(core, "_CHUNK", 64)   # two bonds a write
    tree = comb_tree(12)
    assert cli.main(["gen", "comb", "--bonds", "12"]) == 0
    assert capsys.readouterr().out == tree_to_json(tree) + "\n"
    out = io.StringIO()
    assert tree_to_json(tree, out) is None
    assert out.getvalue() == tree_to_json(tree)


# --- the validation walk against the walk with a seen-set -------------------

def walks(root, pairs):
    """The parent list validation gets back from core._tree_walk, and
    core._breadth_first on the keys it walked, as a set."""
    calls = []
    real = core._tree_walk

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with mock.patch.object(core, "_tree_walk", spy):
        try:
            validate_tree(root, pairs)
        except (HasCycle, NotConnected):
            pass
    (start, bits, stride, _), got = calls[0]
    keys = {at - 2 * stride for at, bit in enumerate(bits) if bit}
    return got, core._breadth_first(start, keys, stride)


@settings(max_examples=60, deadline=None)
@given(bonds=st.integers(1, 200), seed=st.integers(0, 2**32),
       pick=st.integers(0, 10**6))
def test_the_walk_skips_only_the_bond_it_came_by(bonds, seed, pick):
    grown = random_lattice_tree(bonds, seed)
    sites = sorted(grown.sites)
    root = sites[pick % len(sites)]
    pairs = list(grown.bonds)
    got, (order, parent, reached) = walks(root, pairs)
    assert (reached, len(order)) == (bonds, bonds + 1)
    assert got == parent
    # one bond more, closing a cycle or detached: neither walk sees a tree
    closing = [((x, y), (x + dx, y + dy)) for x, y in sites
               for dx, dy in ((1, 0), (0, 1))
               if (x + dx, y + dy) in grown.sites
               and ((x, y), (x + dx, y + dy)) not in pairs]
    far = sites[-1][0] + 2
    cases = [(((far, 0), (far, 1)), bonds)]   # detached: it is not reached
    if closing:   # every bond is reached, and no new site
        cases.append((closing[pick % len(closing)], bonds + 1))
    for extra, reached_bonds in cases:
        got, (order, _, reached) = walks(root, pairs + [extra])
        assert got is None
        assert (reached, len(order)) == (reached_bonds, bonds + 1)


# --- the bitmap against the set of keys -------------------------------------

@st.composite
def edge_trees(draw):
    """(root, bonds) of a random tree or a staircase, moved to negative
    coordinates, and now and then given a duplicate, a bond more or one
    less, with its root on it, on its lowest corner, just outside it or
    off its rows.  The lowest lower endpoint's row and column always
    hold a bond: those are the packed range's bottom row and first
    column.  A staircase of more than about 130 bonds spans more than
    64 bytes a bond."""
    bonds = draw(st.integers(1, 300))
    if draw(st.booleans()):
        seed = draw(st.integers(0, 99))
        pairs = list(random_lattice_tree(bonds, seed).bonds)
    else:   # +x and +y steps in turn
        sites = [(i - i // 2, i // 2) for i in range(bonds + 1)]
        pairs = list(zip(sites, sites[1:]))
    dx, dy = draw(st.integers(-50, 0)), draw(st.integers(-50, 0))
    pairs = [((ax + dx, ay + dy), (bx + dx, by + dy))
             for (ax, ay), (bx, by) in pairs]
    ox, oy = min(a[0] for a, _ in pairs), min(a[1] for a, _ in pairs)
    top = max(b[1] for _, b in pairs)
    sites = {site for pair in pairs for site in pair}
    change = draw(st.sampled_from(["none", "duplicate", "cycle", "extra",
                                   "drop"]))
    if change == "duplicate":
        pairs.append(draw(st.sampled_from(pairs))[::-1])
    elif change == "cycle":   # a bond between two of the tree's sites
        closing = sorted({((x, y), (x + 1, y)) for x, y in sites
                          if (x + 1, y) in sites} - set(pairs))
        if closing:
            pairs.append(draw(st.sampled_from(closing)))
    elif change == "extra":
        x = draw(st.integers(ox - 1, ox + 3))
        y = draw(st.integers(oy - 1, top))
        end = (x + 1, y) if draw(st.booleans()) else (x, y + 1)
        pairs.append(((x, y), end))
    elif change == "drop" and len(pairs) > 1:
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    if draw(st.booleans()):
        root = draw(st.sampled_from(sorted(sites)))
    else:
        root = draw(st.sampled_from([
            (ox, oy), (ox - 1, oy), (ox - 3, oy + 1), (ox, oy - 1),
            (ox, top + 1), (ox + 1, top + 2), (ox - 10**6, oy),
            (ox + 10**6, oy)]))
    return root, draw(st.permutations(pairs))


@settings(max_examples=150, deadline=None)
@given(case=edge_trees())
def test_the_bitmap_and_the_set_of_keys_agree(case):
    # the same bonds through the bitmap's walk and through the set's,
    # forced either way: the same hooks, or the same error and message
    root, pairs = case

    def outcome(bond_bytes):
        with mock.patch.object(core, "_BITMAP_BOND_BYTES", bond_bytes), \
                mock.patch.object(core, "_tree_walk",
                                  wraps=core._tree_walk) as walk:
            got = built(lambda: validate_tree(root, pairs).hooks)
        return got, walk.call_count

    (bitmap, walked), (keyset, unwalked) = outcome(10**9), outcome(0)
    assert bitmap == keyset == built(lambda: validate_tree(root, pairs).hooks)
    assert unwalked == 0
    assert walked == (bitmap[0] is not DuplicateBond)
