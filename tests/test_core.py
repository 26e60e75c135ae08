"""Tree validation, weights, exact counts and the brute-force oracle."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcount.core import (
    MAX_ORACLE_BONDS,
    NEIGHBOR_STEPS,
    RootedTree,
    balanced_product,
    downstream_weights,
    enumerate_growth_orders,
    growth_count,
    linear_extension_count,
    random_lattice_tree,
    tree_from_json,
    tree_to_json,
    tree_weight,
    validate_tree,
)
from growcount.errors import (
    CapExceeded,
    DuplicateBond,
    HasCycle,
    NotConnected,
    RootDetached,
    TooLarge,
)
from growcount.generators import comb_tree, path_tree

from test_tree_core import reference


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def star_tree(arms: int):
    bonds = [((0, 0), step) for step in NEIGHBOR_STEPS[:arms]]
    return validate_tree((0, 0), bonds)


# --- bonds ------------------------------------------------------------------

def test_bond_endpoints_are_canonicalized():
    assert validate_tree((0, 0), [((1, 0), (0, 0))]).bonds \
        == validate_tree((0, 0), [((0, 0), (1, 0))]).bonds
    (u, v), = validate_tree((3, 1), [((3, 2), (3, 1))]).bonds
    assert u == (3, 1) and v == (3, 2)


def test_bond_rejects_non_unit_distance():
    with pytest.raises(ValueError):
        validate_tree((0, 0), [((0, 0), (1, 1))])
    with pytest.raises(ValueError):
        validate_tree((0, 0), [((0, 0), (0, 0))])
    with pytest.raises(ValueError):
        validate_tree((0, 0), [((0, 0), (2, 0))])


# --- validation -------------------------------------------------------------

def test_validate_accepts_raw_pairs_and_sorts():
    t = validate_tree((0, 0), [((1, 0), (0, 0)), ((1, 0), (2, 0))])
    assert t.bonds == tuple(sorted(t.bonds))
    assert t.bond_count == 2
    assert t.sites == {(0, 0), (1, 0), (2, 0)}


def test_validate_rejects_duplicate_bond():
    with pytest.raises(DuplicateBond):
        validate_tree((0, 0), [((0, 0), (1, 0)), ((1, 0), (0, 0))])


def test_validate_rejects_detached_root():
    with pytest.raises(RootDetached):
        validate_tree((9, 9), [((0, 0), (1, 0))])


def test_validate_rejects_disconnected_bonds():
    with pytest.raises(NotConnected):
        validate_tree((0, 0), [((0, 0), (1, 0)), ((5, 5), (5, 6))])


def test_validate_rejects_unit_square_cycle():
    square = [
        ((0, 0), (1, 0)), ((1, 0), (1, 1)),
        ((0, 1), (1, 1)), ((0, 0), (0, 1)),
    ]
    with pytest.raises(HasCycle):
        validate_tree((0, 0), square)


def test_validate_rejects_empty_tree():
    with pytest.raises(ValueError):
        validate_tree((0, 0), [])


# --- weights ----------------------------------------------------------------

def test_path_weights_count_down_from_length():
    t = path_tree(5)
    # the walk starts at the root, so the hooks count down along the path
    assert downstream_weights(t) == [5, 4, 3, 2, 1]
    assert t.hooks == [5, 4, 3, 2, 1]
    assert tree_weight(t) == math.factorial(5)


def test_comb_four_weights():
    t = comb_tree(4)
    # the first horizontal bond carries the whole comb, the second one
    # its tooth, and the two teeth are leaves
    assert sorted(downstream_weights(t)) == [1, 1, 2, 4]
    assert tree_weight(t) == 8


def test_star_weights_are_all_one():
    t = star_tree(4)
    assert downstream_weights(t) == [1, 1, 1, 1]
    assert growth_count(t) == math.factorial(4)


# --- exact counts -----------------------------------------------------------

def test_paths_grow_exactly_one_way():
    for n in range(1, 9):
        assert growth_count(path_tree(n)) == 1


@pytest.mark.parametrize("bonds", [2, 4, 6, 8, 10])
def test_comb_count_is_double_factorial(bonds):
    assert growth_count(comb_tree(bonds)) == double_factorial(bonds - 1)


def test_comb_weight_closed_form():
    # W = L! / (L-1)!! collapses to 2^(L/2) (L/2)!
    for bonds in (2, 4, 6, 8):
        half = bonds // 2
        assert tree_weight(comb_tree(bonds)) \
            == 2 ** half * math.factorial(half)


# --- oracle -----------------------------------------------------------------

@pytest.mark.parametrize("bonds", [2, 4, 6, 8])
def test_oracle_matches_formula_on_combs(bonds):
    t = comb_tree(bonds)
    assert enumerate_growth_orders(t) == growth_count(t)


def test_oracle_on_paths_and_stars():
    assert enumerate_growth_orders(path_tree(6)) == 1
    assert enumerate_growth_orders(star_tree(3)) == 6


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10 ** 6))
def test_oracle_times_weight_is_factorial(bonds, seed):
    t = random_lattice_tree(bonds, seed=seed)
    assert enumerate_growth_orders(t) * tree_weight(t) \
        == math.factorial(bonds)


def test_oracle_cap_trips():
    t = comb_tree(8)   # 105 growth orders
    with pytest.raises(CapExceeded):
        enumerate_growth_orders(t, cap=50)
    assert enumerate_growth_orders(t, cap=105) == 105


def reference_growth_orders(tree, cap=None) -> int:
    """The oracle as it was written over sites as frozensets: each step
    adds a bond with exactly one endpoint among the reached sites."""
    bonds = tree.bonds
    full = (1 << len(bonds)) - 1
    count = 0

    def rec(added: int, sites: frozenset):
        nonlocal count
        if added == full:
            count += 1
            if cap is not None and count > cap:
                raise CapExceeded(f"more than {cap} growth orders")
            return
        for i, (u, v) in enumerate(bonds):
            if added >> i & 1:
                continue
            if u in sites:
                rec(added | 1 << i, sites | {v})
            elif v in sites:
                rec(added | 1 << i, sites | {u})

    rec(0, frozenset([tree.root]))
    return count


def rerooted(tree, index: int):
    sites = sorted(tree.sites)
    return validate_tree(sites[index % len(sites)], tree.bonds)


def assert_cap_boundary(tree, n: int):
    """cap = N - 1 trips with the reference's message; cap = N passes."""
    with pytest.raises(CapExceeded) as got:
        enumerate_growth_orders(tree, cap=n - 1)
    with pytest.raises(CapExceeded) as want:
        reference_growth_orders(tree, cap=n - 1)
    assert str(got.value) == str(want.value) == f"more than {n - 1} growth orders"
    assert enumerate_growth_orders(tree, cap=n) == n


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10 ** 6), st.integers(0, 10))
def test_oracle_matches_reference_on_rerooted_random_trees(bonds, seed, root):
    t = rerooted(random_lattice_tree(bonds, seed=seed), root)
    n = reference_growth_orders(t)
    assert enumerate_growth_orders(t) == n
    assert_cap_boundary(t, n)


@pytest.mark.parametrize("tree", [
    pytest.param(path_tree(10), id="path10"),
    pytest.param(star_tree(4), id="star4"),
] + [pytest.param(comb_tree(b), id=f"comb{b}") for b in range(2, 11, 2)])
def test_oracle_matches_reference_on_fixtures(tree):
    for root in range(len(tree.sites)):
        t = rerooted(tree, root)
        n = reference_growth_orders(t)
        assert enumerate_growth_orders(t) == n == growth_count(t)
        assert_cap_boundary(t, n)


def test_oracle_cap_zero_and_negative():
    for t in (path_tree(1), star_tree(3), comb_tree(6)):
        with pytest.raises(CapExceeded, match="more than 0 growth orders"):
            enumerate_growth_orders(t, cap=0)
        with pytest.raises(ValueError, match="cap must be >= 0"):
            enumerate_growth_orders(t, cap=-1)


# every rooted shape of one or two bonds, up to symmetry, with its count
# by hand: a root in the middle adds its two bonds in either order
@pytest.mark.parametrize("root, bonds, n", [
    *(((0, 0), [((0, 0), step)], 1) for step in NEIGHBOR_STEPS),
    ((0, 0), [((0, 0), (1, 0)), ((1, 0), (2, 0))], 1),
    ((1, 0), [((0, 0), (1, 0)), ((1, 0), (2, 0))], 2),
    ((0, 0), [((0, 0), (1, 0)), ((1, 0), (1, 1))], 1),
    ((1, 0), [((0, 0), (1, 0)), ((1, 0), (1, 1))], 2),
], ids=["-y", "-x", "+x", "+y", "straight-end", "straight-middle",
        "bent-end", "bent-middle"])
def test_oracle_on_one_and_two_bond_trees(root, bonds, n):
    t = validate_tree(root, bonds)
    assert enumerate_growth_orders(t) == n == growth_count(t)
    for cap in (0, 1):
        if n > cap:
            with pytest.raises(CapExceeded,
                               match=f"^more than {cap} growth orders$"):
                enumerate_growth_orders(t, cap=cap)
        else:
            assert enumerate_growth_orders(t, cap=cap) == n


def test_oracle_depth_guard_fires_before_any_mask():
    at = path_tree(MAX_ORACLE_BONDS)
    assert enumerate_growth_orders(at, cap=10) == 1
    past = path_tree(MAX_ORACLE_BONDS + 1)
    with pytest.raises(TooLarge, match="901 bonds exceeds the oracle guard"):
        enumerate_growth_orders(past, cap=10)
    # the masks are built from the decoded bonds, which were never decoded
    assert "bonds" not in past.__dict__


def tuple_growth_orders(tree, cap=None) -> int:
    """The oracle as it was written over tuples of masks: every step
    slices the picked mask out of a new tuple."""
    bit = {}
    masks = []
    for bond in tree.bonds:
        mask = 0
        for site in bond:
            mask |= 1 << bit.setdefault(site, len(bit))
        masks.append(mask)
    count = 0

    def rec(left: tuple, sites: int):
        nonlocal count
        if len(left) == 1:
            if left[0] & sites:
                count += 1
                if cap is not None and count > cap:
                    raise CapExceeded(f"more than {cap} growth orders")
            return
        for i, mask in enumerate(left):
            if mask & sites:
                rec(left[:i] + left[i + 1:], sites | mask)

    rec(tuple(masks), 1 << bit[tree.root])
    return count


def outcome(count, tree, cap):
    try:
        return count(tree, cap=cap)
    except CapExceeded as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10 ** 6), st.integers(0, 9))
def test_in_place_oracle_matches_the_tuple_oracle(bonds, seed, root):
    t = rerooted(random_lattice_tree(bonds, seed=seed), root)
    n = tuple_growth_orders(t)
    assert enumerate_growth_orders(t) == n
    for cap in sorted({0, n // 2, max(n - 2, 0), max(n - 1, 0), n, n + 1}):
        got = outcome(enumerate_growth_orders, t, cap)
        assert got == outcome(tuple_growth_orders, t, cap)
        # a count cut short leaves no swapped mask for the next call
        assert enumerate_growth_orders(t) == n


def test_oracle_does_not_assume_connectivity():
    # a three-bond path with its middle bond removed: the last bond
    # never touches a reached site, so no growth order exists
    t = path_tree(3)
    gapped = RootedTree(t.root, t.keys[:1] + t.keys[2:], t.origin, t.stride)
    assert reference_growth_orders(gapped) == 0
    assert enumerate_growth_orders(gapped) == 0


# --- forest helpers ---------------------------------------------------------

def test_linear_extension_count_small_forest():
    # two roots, one with a single child: 3 of the 3! orders are valid
    children = {"a": ["b"], "b": [], "c": []}
    assert linear_extension_count(children, ["a", "c"]) == 3


def test_linear_extension_matches_oracle_on_lattice_trees():
    for seed in range(5):
        t = random_lattice_tree(6, seed=seed)
        # bonds oriented away from the root by the coordinate-only reference
        _text, bonds, _sites, _weights, children = \
            reference(t.root, t.bonds)
        roots = [b for b in bonds if t.root in b]
        assert linear_extension_count(children, roots) \
            == enumerate_growth_orders(t)


# --- products ---------------------------------------------------------------

def test_balanced_product_agrees_with_math_prod():
    values = [3, 1, 4, 1, 5, 9, 2, 6]
    assert balanced_product(values) == math.prod(values)
    assert balanced_product([]) == 1
    assert balanced_product([7]) == 7


# --- random trees -----------------------------------------------------------

def test_random_tree_is_deterministic_in_seed():
    a = random_lattice_tree(20, seed=7)
    b = random_lattice_tree(20, seed=7)
    assert a == b
    c = random_lattice_tree(20, seed=8)
    assert a != c


def test_random_tree_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        random_lattice_tree(0, seed=1)


# --- canonical JSON ---------------------------------------------------------

def test_json_round_trip_is_identity():
    t = random_lattice_tree(12, seed=42)
    assert tree_from_json(tree_to_json(t)) == t


def test_json_bytes_are_canonical():
    t = comb_tree(4)
    text = tree_to_json(t)
    assert text == (
        '{"root":[0,0],"bonds":[[[0,0],[1,0]],[[1,0],[1,1]],'
        '[[1,0],[2,0]],[[2,0],[2,1]]]}'
    )
    # bond order in the input must not matter
    payload = json.loads(text)
    payload["bonds"].reverse()
    assert tree_to_json(tree_from_json(json.dumps(payload))) == text


@pytest.mark.parametrize("text", [
    "not json",
    "[1,2]",
    '{"root":[0,0]}',
    '{"bonds":[]}',
    '{"root":[0.5,0],"bonds":[[[0,0],[1,0]]]}',
    '{"root":[0,0],"bonds":[[[0,0],[1,1]]]}',
    '{"root":[0,0],"bonds":[[[0,0],[true,0]]]}',
    '{"root":[0,0],"bonds":"nope"}',
    '{"root":[0,0],"bonds":[[[0,0]]]}',
])
def test_json_parse_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        tree_from_json(text)


def test_json_parse_propagates_validation_errors():
    with pytest.raises(DuplicateBond):
        tree_from_json(
            '{"root":[0,0],"bonds":[[[0,0],[1,0]],[[1,0],[0,0]]]}'
        )
