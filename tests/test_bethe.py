"""Coordination-3 Bethe lattice: sequences, subtree census, pigeonhole."""

import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from growcount import bethe, verify
from growcount.bethe import (
    ROOT_NEIGHBORS,
    address_name,
    bethe_census,
    bethe_existence_bound,
    bethe_growth_count,
    bethe_trees,
    tree_children_map,
    tree_growth_count,
    tree_growth_count_enumerated,
)
from growcount.core import forest_weights
from growcount.errors import InternalMismatch, TooLarge

# exhaustively confirmed once, then frozen
TREE_COUNTS = [3, 9, 28, 90, 297, 1001, 3432]


@lru_cache(maxsize=None)
def census_by_frontier(frontier: int, bonds: int) -> int:
    """Independent subtree count: each frontier address is taken (its two
    children join the frontier) or discarded for good."""
    if bonds == 0:
        return 1
    if frontier == 0:
        return 0
    return census_by_frontier(frontier + 1, bonds - 1) \
        + census_by_frontier(frontier - 1, bonds)


def named(tree) -> frozenset:
    return frozenset(map(address_name, tree))


def string_children(address: str) -> tuple[str, str]:
    """The children rule of the string routes below, kept apart from
    the module's heap numbering."""
    return (address + "0", address + "1")


def test_address_names():
    assert [address_name(site) for site in ROOT_NEIGHBORS] == ["0", "1", "2"]
    sites = set().union(*bethe_trees(8))
    names = {site: address_name(site) for site in sites}
    assert len(set(names.values())) == len(sites)
    for site, name in names.items():
        assert address_name(2 * site) == name + "0"
        assert address_name(2 * site + 1) == name + "1"


@pytest.mark.parametrize("bonds", range(1, 8))
def test_growth_count_closed_form(bonds):
    assert bethe_growth_count(bonds) == math.factorial(bonds + 2) // 2


def full_recursion_count(frontier: tuple, left: int) -> int:
    """Every growth sequence walked to depth L, where it counts 1."""
    if left == 0:
        return 1
    return sum(
        full_recursion_count(
            frontier[:i] + frontier[i + 1:] + string_children(addr),
            left - 1)
        for i, addr in enumerate(frontier))


@pytest.mark.parametrize("bonds", range(1, 8))
def test_growth_count_matches_full_recursion(bonds):
    assert bethe_growth_count(bonds) \
        == full_recursion_count(("0", "1", "2"), bonds)


@pytest.mark.parametrize("bonds", range(1, 8))
def test_growth_count_catches_broken_enumeration(bonds, monkeypatch):
    # a fourth root neighbor: the count becomes 4*5*...*(L+3), which
    # leaves the closed form (L+2)!/2 at every L
    monkeypatch.setattr(bethe, "ROOT_NEIGHBORS", (4, 5, 6, 7))
    with pytest.raises(InternalMismatch, match=f"L={bonds}"):
        bethe_growth_count(bonds)


@pytest.mark.parametrize("bonds", range(1, 8))
def test_tree_count_frozen_and_recounted(bonds):
    count = len(bethe_trees(bonds))
    assert count == TREE_COUNTS[bonds - 1]
    assert count == census_by_frontier(3, bonds)


def test_tree_count_closed_form():
    # ternary-Catalan form of the census
    for bonds in range(1, 8):
        closed = 3 * math.comb(2 * bonds + 3, bonds) // (2 * bonds + 3)
        assert len(bethe_trees(bonds)) == closed


@pytest.mark.parametrize("bonds", range(1, 8))
def test_census_under_nine_power(bonds):
    assert len(bethe_trees(bonds)) <= 9 ** bonds


def test_trees_are_distinct_and_closed_under_parent():
    trees = bethe_trees(4)
    assert len(set(trees)) == len(trees)
    for tree in trees:
        for site in tree:
            assert site in ROOT_NEIGHBORS or site >> 1 in tree


@pytest.mark.parametrize("bonds", range(1, 6))
def test_hook_count_equals_enumerated_count(bonds):
    for tree in bethe_trees(bonds):
        assert tree_growth_count(tree) == tree_growth_count_enumerated(tree)


def children_map_hook_count(tree) -> int:
    """The hook route over a children map and core.forest_weights."""
    children, roots = tree_children_map(tree)
    w = math.prod(forest_weights(children, roots).values())
    n, rem = divmod(math.factorial(len(tree)), w)
    assert rem == 0
    return n


@pytest.mark.parametrize("bonds", range(1, 9))
def test_hook_count_matches_children_map_route(bonds):
    for tree in bethe_trees(bonds):
        assert tree_growth_count(tree) == children_map_hook_count(tree)


@pytest.mark.parametrize("bonds", range(1, 7))
def test_partition_identity(bonds):
    total = sum(tree_growth_count(t) for t in bethe_trees(bonds))
    assert total == bethe_growth_count(bonds)


def reference_trees(bond_count: int) -> list[frozenset]:
    """The subtrees in the order of the census as it was written over
    address tuples: the head of the frontier is taken (its children
    join the end) or skipped for good."""
    out = []

    def rec(frontier: tuple, chosen: tuple, left: int):
        if left == 0:
            out.append(frozenset(chosen))
            return
        if not frontier:
            return
        head, rest = frontier[0], frontier[1:]
        rec(rest + string_children(head), chosen + (head,), left - 1)
        rec(rest, chosen, left)

    rec(("0", "1", "2"), (), bond_count)
    return out


@pytest.mark.parametrize("bonds", range(1, 8))
def test_census_counts_each_subtree_in_the_reference_order(bonds):
    trees, counts = bethe_census(bonds)
    assert [named(tree) for tree in trees] == reference_trees(bonds)
    assert counts == [tree_growth_count(tree) for tree in trees]
    rep = bethe_existence_bound(bonds)
    assert rep.tree_count == len(trees)
    assert rep.growth_count == sum(counts)
    # the maximizer is the first subtree with the largest count
    first = next(tree for tree, n in zip(trees, counts) if n == max(counts))
    assert rep.maximizer == tuple(sorted(named(first)))
    assert rep.maximizer_count == max(counts)


def test_children_map_roots():
    # the sites "0", "1" and "00"
    children, roots = tree_children_map(frozenset({4, 5, 8}))
    assert roots == [4, 5]
    assert children == {4: [8], 5: [], 8: []}


def test_existence_report_two_bonds():
    rep = bethe_existence_bound(2)
    assert rep.growth_count == 12
    assert rep.tree_count == 9
    assert rep.average == Fraction(4, 3)
    # two separate root children can be added in either order
    assert rep.maximizer_count == 2
    assert len(rep.maximizer) == 2
    d = rep.to_dict()
    assert d["growthCount"] == "12"
    assert d["maximizerN"] == "2"


@pytest.mark.parametrize("bonds", range(1, 8))
def test_pigeonhole_chain(bonds):
    rep = bethe_existence_bound(bonds)
    assert rep.average >= rep.average_floor
    assert rep.average > rep.naive_floor
    assert rep.maximizer_count >= rep.average
    assert rep.naive_floor == Fraction(math.factorial(bonds), 9 ** bonds)


def test_guards():
    with pytest.raises(ValueError):
        bethe_growth_count(0)
    with pytest.raises(TooLarge):
        bethe_growth_count(9)
    with pytest.raises(TooLarge):
        bethe_trees(9)


def test_bethe_suite_names_a_failing_subtree(monkeypatch):
    monkeypatch.setattr(bethe, "tree_growth_count_enumerated", lambda t: 0)
    check = verify.bethe_suite()[2]
    # the first subtree of the census, the single bond to site 4
    assert (check.ok, check.detail) == (False, "[['0']]")


def test_bethe_suite_enumerates_each_size_once(monkeypatch):
    # the suite's totals and census come from its one streamed
    # existence-bound run per size; only the sizes checked subtree by
    # subtree are listed
    calls = {"growth": [], "census": []}

    def counting(key, fn):
        def wrapped(bonds):
            calls[key].append(bonds)
            return fn(bonds)
        return wrapped

    monkeypatch.setattr(bethe, "bethe_growth_count",
                        counting("growth", bethe_growth_count))
    monkeypatch.setattr(bethe, "bethe_census",
                        counting("census", bethe_census))
    checks = verify.bethe_suite()
    assert [c.name for c in checks] == [
        "bethe: sequence totals match (L+2)!/2 up to L=7",
        "bethe: subtree census under 9^L",
        "bethe: hook counts equal enumerated counts per subtree",
        "bethe: average growth count beats L!/9^L",
    ]
    assert all(c.ok for c in checks)
    assert calls["growth"] == list(range(1, 8))
    assert calls["census"] == list(range(1, 6))


# --- the existence report streams the census --------------------------------

def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_existence_report_keeps_no_subtree():
    # the 11,934 subtrees at L=8 as frozensets would take about 9 MB
    assert traced_peak(lambda: bethe_existence_bound(8)) < 2**20


def test_bethe_suite_keeps_no_large_census():
    # the subtrees of L=6 and 7 would take about 3.7 MB
    assert traced_peak(verify.bethe_suite) < 2**20


def test_partition_mismatch_is_reported(monkeypatch):
    monkeypatch.setattr(bethe, "bethe_growth_count", lambda bonds: 13)
    with pytest.raises(InternalMismatch,
                       match="per-tree counts sum to 12, sequences total 13"):
        bethe_existence_bound(2)


def test_maximizer_is_the_first_of_tied_counts(monkeypatch):
    # four made-up subtrees of two bonds whose counts sum to 4!/2 = 12;
    # the largest count is tied between the second and the fourth
    census = [([4, 5], 2), ([4, 8], 4), ([5, 10], 2), ([6, 12], 4)]

    def fake_census(bonds, visit):
        for sites, n in census:
            visit(list(sites), n)

    monkeypatch.setattr(bethe, "_census", fake_census)
    rep = bethe_existence_bound(2)
    assert (rep.tree_count, rep.growth_count) == (4, 12)
    assert (rep.maximizer, rep.maximizer_count) == (("0", "00"), 4)
