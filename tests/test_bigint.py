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
    balanced_product,
    factorial_quotient_factors,
    growth_count,
    product_to_decimal,
    random_lattice_tree,
    tree_to_json,
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


@pytest.mark.parametrize("k", [1, 1233, 15051, 60206])
def test_product_to_decimal_keeps_the_zeros_of_powers_of_ten(k):
    # 10**k as the prime powers N is printed from; every digit but the
    # first is an inner zero of some partial product in decimal
    assert product_to_decimal([2 ** k, 5 ** k]) == "1" + "0" * k
    assert product_to_decimal([2 ** k, 5 ** k, 3]) == "3" + "0" * k


# --- factorial_quotient_factors against the divmod oracle -------------------

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


def smallest_prime_factor(n: int) -> int:
    return next(d for d in range(2, n + 1) if n % d == 0)


def is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda total: st.tuples(st.just(total),
                            st.lists(st.integers(1, total), max_size=total))))
def test_factorial_quotient_divides_exactly_or_raises(case):
    total, hooks = case
    n, rem = divmod(math.factorial(total), math.prod(hooks))
    if rem:
        with pytest.raises(InternalNonDivisible):
            factorial_quotient_factors(total, hooks)
    else:
        factors = factorial_quotient_factors(total, hooks)
        assert math.prod(factors) == n
        # one power per prime, in increasing order of the prime
        primes = [smallest_prime_factor(f) for f in factors]
        assert all(map(is_power_of, factors, primes))
        assert primes == sorted(set(primes))


def test_factorial_quotient_rejects_a_non_divisor():
    # 2*2*2 = 8 does not divide 3! = 6
    with pytest.raises(InternalNonDivisible):
        factorial_quotient_factors(3, [2, 2, 2])


@pytest.mark.parametrize("hooks", [[4, 1, 1], [0, 1, 1], [-1, 1, 1]])
def test_factorial_quotient_rejects_hooks_outside_one_to_total(hooks):
    with pytest.raises(InternalNonDivisible):
        factorial_quotient_factors(3, hooks)


def test_factorial_quotient_of_nothing_is_one():
    # a quotient of 1 has no prime powers at all
    assert factorial_quotient_factors(0, []) == []
    assert factorial_quotient_factors(1, [1]) == []
    assert factorial_quotient_factors(3, [3, 2, 1]) == []
    assert balanced_product([]) == 1 and product_to_decimal([]) == "1"


# --- count prints N through the same route ----------------------------------

def count_payload(tree) -> dict:
    """`growcount count`'s JSON for the tree, run in process."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr("sys.stdin", io.StringIO(tree_to_json(tree)))
        out = io.StringIO()
        monkeypatch.setattr("sys.stdout", out)
        assert cli.main(["count"]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("tree", [
    pytest.param(lambda: tower_tree(tower_params(3, 2)), id="tower3/2"),
    pytest.param(lambda: comb_tree(60_000), id="comb60000"),
    pytest.param(lambda: tower_tree(tower_params(1, 3)), id="tower1/3"),
])
def test_count_prints_n_as_str_of_growth_count(tree):
    tree = tree()
    payload = count_payload(tree)
    assert payload["N"] == str(growth_count(tree))
    assert payload["W"] == str(tree_weight(tree))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 400), st.integers(0, 10 ** 6))
def test_count_prints_n_as_str_of_growth_count_on_random_trees(bonds, seed):
    tree = random_lattice_tree(bonds, seed=seed)
    assert count_payload(tree)["N"] == str(growth_count(tree))


@pytest.mark.parametrize("bonds", [1, 2, 5000])
def test_count_prints_one_for_a_path_from_no_factors(bonds):
    tree = path_tree(bonds)
    assert factorial_quotient_factors(bonds, tree.hooks) == []
    assert count_payload(tree) == {"L": bonds, "N": "1",
                                   "W": str(math.factorial(bonds))}


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
