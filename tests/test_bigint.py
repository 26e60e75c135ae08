"""Big-integer helpers: decimal output and L!/W from prime exponents."""

import io
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcount import cli, core
from growcount.core import (
    STR_CUTOFF_BITS,
    balanced_product,
    factorial_quotient,
    growth_count,
    product_to_decimal,
    random_lattice_tree,
    to_decimal,
    tree_weight,
)
from growcount.errors import InternalNonDivisible
from growcount.generators import comb_tree, path_tree, tower_params, tower_tree


@pytest.fixture(scope="module", autouse=True)
def unlimited_int_digits():
    """str() is the oracle here; CPython caps it at 4300 digits by default."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is None:   # an interpreter without the cap
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def shaped_int(bits: int, seed: int, shape: str) -> int:
    """A non-negative integer of exactly `bits` bits (0 when bits is 0).

    "sparse" sets only a few bits, so most split halves print with long
    runs of inner zeros; "ones" is 2**bits - 1.
    """
    if bits == 0:
        return 0
    rng = random.Random(seed)
    if shape == "ones":
        return (1 << bits) - 1
    if shape == "sparse":
        n = 1 << (bits - 1)
        for _ in range(3):
            n |= 1 << rng.randrange(bits)
        return n
    return rng.getrandbits(bits) | 1 << (bits - 1)


SHAPES = st.sampled_from(["random", "sparse", "ones"])
SEEDS = st.integers(0, 2 ** 32)


# --- to_decimal -------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4 * STR_CUTOFF_BITS), SEEDS, SHAPES, st.booleans())
def test_to_decimal_matches_str_around_the_cutoff(bits, seed, shape, negate):
    n = shaped_int(bits, seed, shape)
    if negate:
        n = -n
    assert to_decimal(n) == str(n)


@settings(max_examples=3, deadline=None)
@given(st.integers(4 * STR_CUTOFF_BITS, 2_000_000), SEEDS, SHAPES)
def test_to_decimal_matches_str_up_to_two_million_bits(bits, seed, shape):
    n = shaped_int(bits, seed, shape)
    assert to_decimal(n) == str(n)


def _powers_of_ten_near(bits: int) -> list:
    """Exponents k whose 10**k have bit lengths next to `bits`."""
    k = math.floor((bits - 1) / math.log2(10))
    return [k - 1, k, k + 1, k + 2]


# the cutoff itself, the first split, and deeper splits where one half
# starts with a long run of decimal zeros
BOUNDARY_BITS = [STR_CUTOFF_BITS, STR_CUTOFF_BITS + 1, 2 * STR_CUTOFF_BITS,
                 2 * STR_CUTOFF_BITS + 1, 4 * STR_CUTOFF_BITS + 3]


@pytest.mark.parametrize("k", sorted({k for bits in BOUNDARY_BITS
                                      for k in _powers_of_ten_near(bits)}))
def test_to_decimal_keeps_inner_zeros_of_powers_of_ten(k):
    p = 10 ** k
    for n in (p - 1, p, p + 1, -p):
        assert to_decimal(n) == str(n)
    assert to_decimal(p) == "1" + "0" * k
    assert to_decimal(p + 1) == "1" + "0" * (k - 1) + "1"


@pytest.mark.parametrize("bits", BOUNDARY_BITS)
def test_to_decimal_at_powers_of_two(bits):
    for n in ((1 << bits) - 1, 1 << bits, (1 << bits) + 1):
        assert to_decimal(n) == str(n)


def test_to_decimal_small_values():
    assert [to_decimal(n) for n in (0, 1, -1, 9, 10, 11)] \
        == ["0", "1", "-1", "9", "10", "11"]


# --- product_to_decimal -----------------------------------------------------

# factors from single digits to past the 4096-bit switch into decimal
FACTORS = st.one_of(st.integers(0, 1000), st.integers(-(2 ** 64), 2 ** 64),
                    st.integers(2 ** 3000, 2 ** 6000))


@settings(max_examples=60, deadline=None)
@given(st.lists(FACTORS, max_size=200))
def test_product_to_decimal_matches_str_of_balanced_product(values):
    assert product_to_decimal(values) == str(balanced_product(values))


@pytest.mark.parametrize("bonds", [1, 2, 1000, 30_000])
def test_product_to_decimal_prints_the_weight_of_a_path(bonds):
    # W of a path is L!; its hooks run L, L-1, ..., 1
    hooks = path_tree(bonds).hooks
    assert product_to_decimal(hooks) == str(math.factorial(bonds))


# --- factorial_quotient against the divmod oracle ---------------------------

def divmod_count(tree) -> int:
    """L!/W by long division, the route growth_count used to take."""
    n, rem = divmod(math.factorial(tree.bond_count), tree_weight(tree))
    assert rem == 0
    return n


@pytest.mark.parametrize("bonds", [2, 10, 100, 1000])
def test_growth_count_matches_divmod_on_paths_and_combs(bonds):
    for tree in (path_tree(bonds), comb_tree(bonds)):
        assert growth_count(tree) == divmod_count(tree)


@pytest.mark.parametrize("a0, gen", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                                     (3, 1), (3, 2)])
def test_growth_count_matches_divmod_on_towers(a0, gen):
    tree = tower_tree(tower_params(a0, gen), gen)
    assert growth_count(tree) == divmod_count(tree)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 120), st.integers(0, 10 ** 6))
def test_growth_count_matches_divmod_on_random_trees(bonds, seed):
    tree = random_lattice_tree(bonds, seed=seed)
    assert growth_count(tree) == divmod_count(tree)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda total: st.tuples(st.just(total),
                            st.lists(st.integers(1, total), max_size=total))))
def test_factorial_quotient_divides_exactly_or_raises(case):
    total, hooks = case
    n, rem = divmod(math.factorial(total), math.prod(hooks))
    if rem:
        with pytest.raises(InternalNonDivisible):
            factorial_quotient(total, hooks)
    else:
        assert factorial_quotient(total, hooks) == n


def test_factorial_quotient_rejects_a_non_divisor():
    # 2*2*2 = 8 does not divide 3! = 6
    with pytest.raises(InternalNonDivisible):
        factorial_quotient(3, [2, 2, 2])


@pytest.mark.parametrize("hooks", [[4, 1, 1], [0, 1, 1], [-1, 1, 1]])
def test_factorial_quotient_rejects_hooks_outside_one_to_total(hooks):
    with pytest.raises(InternalNonDivisible):
        factorial_quotient(3, hooks)


def test_factorial_quotient_of_nothing_is_one():
    assert factorial_quotient(0, []) == 1
    assert factorial_quotient(1, [1]) == 1


# --- one weight pass per count ----------------------------------------------

def test_count_makes_one_weight_pass(monkeypatch, capsys):
    calls = []
    original = core.downstream_weights

    def counted(tree):
        calls.append(tree.bond_count)
        return original(tree)

    monkeypatch.setattr(core, "downstream_weights", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO(
        core.tree_to_json(comb_tree(6))))
    assert cli.main(["count"]) == 0
    assert json.loads(capsys.readouterr().out) \
        == {"L": 6, "W": "48", "N": "15"}
    assert calls == [6]
