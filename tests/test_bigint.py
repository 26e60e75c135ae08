"""Big-integer helpers: decimal output and L!/W from prime exponents."""

import decimal
import io
import itertools
import json
import math
import operator
import random
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcount import cli, core
from growcount.core import (
    balanced_product,
    growth_count,
    prime_exponents,
    prime_power_digits,
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


# --- prime_power_digits ----------------------------------------------------
# (its tests keep the names they had while the printer multiplied a list
# of factors as product_to_decimal)

SMALL_PRIMES = [p for p in range(2, 6000)
                if all(p % d for d in range(2, math.isqrt(p) + 1))]
# exponents from none to products of tens of thousands of bits
EXPONENTS = st.one_of(st.integers(0, 3), st.integers(0, 300),
                      st.integers(0, 6000))


def str_of_power_product(primes, exponents) -> str:
    return str(math.prod(p ** e for p, e in zip(primes, exponents)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SMALL_PRIMES), EXPONENTS),
                max_size=60, unique_by=lambda pair: pair[0]))
def test_product_to_decimal_matches_str_of_balanced_product(pairs):
    primes = [p for p, _ in pairs]
    exponents = [e for _, e in pairs]
    assert prime_power_digits(primes, exponents) \
        == str_of_power_product(primes, exponents)


@pytest.mark.parametrize("bonds", [1, 2, 1000, 30_000])
def test_product_to_decimal_prints_the_weight_of_a_path(bonds):
    # W of a path is L!; its hooks run L, L-1, ..., 1
    primes, in_hooks, _ = prime_exponents(bonds, path_tree(bonds).hooks)
    assert prime_power_digits(primes, in_hooks) == str(math.factorial(bonds))


@pytest.mark.parametrize("k", [1, 1233, 15051, 60206])
def test_product_to_decimal_keeps_the_zeros_of_powers_of_ten(k):
    # every digit of 10**k but the first is an inner zero of some
    # partial product in decimal
    assert prime_power_digits([2, 5], [k, k]) == "1" + "0" * k
    assert prime_power_digits([2, 3, 5], [k, 1, k]) == "3" + "0" * k


@pytest.mark.parametrize("primes, exponents", [
    ([], []), ([2], [0]), ([2, 3, 5, 7], [0, 0, 0, 0]),
    ([2, 3, 5, 7], [0, 5, 0, 2]),
], ids=["empty", "one-zero", "all-zero", "some-zero"])
def test_prime_power_digits_skips_zero_exponents(primes, exponents):
    assert prime_power_digits(primes, exponents) \
        == str_of_power_product(primes, exponents)


@pytest.mark.parametrize("top", [4094, 4095, 4096, 4097, 4098, 8192])
def test_prime_power_digits_on_both_sides_of_4096_bits(top):
    # a power of two and a product of distinct primes, each ending
    # within a few bits of 4096 (where the printer once turned from int
    # into decimal), plus one running for as many bits again
    assert prime_power_digits([2], [top]) == str(2 ** top)
    products = itertools.accumulate(SMALL_PRIMES, operator.mul)
    count = next(i for i, prod in enumerate(products, 1)
                 if prod.bit_length() >= top)
    primes = SMALL_PRIMES[:count]
    assert prime_power_digits(primes, [1] * len(primes)) \
        == str(math.prod(primes))
    assert prime_power_digits(primes, [3] * len(primes)) \
        == str(math.prod(primes) ** 3)


def test_prime_power_digits_of_one_prime_to_a_huge_exponent():
    # libmpdec's own integer power is the oracle; str(3 ** 2 ** 20) would
    # take seconds on a Python whose int-to-str is quadratic
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        want = str(decimal.Decimal(3) ** 2 ** 20)
    assert len(want) == 500_298
    assert prime_power_digits([3], [2 ** 20]) == want


@pytest.mark.parametrize("primes, exponents", [
    # all primes below 100,000, squarefree: a 143,000-bit product
    (prime_exponents(100_000, [])[0], None),
    ([3], [2 ** 16]),                       # the running product alone
    (SMALL_PRIMES[:30], [1000] * 30),       # it and the per-bit products
], ids=["squarefree", "one-prime", "both"])
def test_prime_power_digits_converts_no_big_int(primes, exponents,
                                                monkeypatch):
    # no int wider than the widest prime may reach str() or Decimal(),
    # whose conversions are quadratic in the digits
    exponents = exponents or [1] * len(primes)
    want = str_of_power_product(primes, exponents)
    widest = []

    def watch(value):
        if type(value) is int:
            widest.append(value.bit_length())
        return value

    monkeypatch.setattr(core, "str", lambda v: str(watch(v)), raising=False)
    monkeypatch.setattr(core, "decimal", types.SimpleNamespace(
        Decimal=lambda v: decimal.Decimal(watch(v)),
        localcontext=decimal.localcontext))
    got = prime_power_digits(primes, exponents)
    monkeypatch.undo()
    assert got == want
    assert widest and max(widest) <= max(primes).bit_length()


# --- Dyadic digits through prime_power_digits -------------------------------

@pytest.mark.parametrize("n", [0, 1, 3, -7, 10 ** 40 + 1, 3 ** 5000,
                               -(7 ** 900) << 13],
                         ids=["0", "1", "3", "-7", "1e40+1", "3^5000",
                              "-7^900*2^13"])
def test_dyadic_digits_of_odd_and_mixed_numbers(n):
    d = core.Dyadic.of(n)
    assert core.prime_power_digits((d.odd, 2), (1, d.exp)) == str(n)


@pytest.mark.parametrize("k", [0, 1, 64, 4096, 65537, 2 ** 17])
def test_dyadic_digits_of_powers_of_two(k):
    d = core.Dyadic((1, k))
    assert core.prime_power_digits((d.odd, 2), (1, d.exp)) == str(1 << k)


@pytest.mark.parametrize("a0", [12, 13, 14, 15])
def test_dyadic_digits_of_the_bond_counts_analyze_prints(a0):
    # generation 2 from a0 12 to 15 gives the L that analyze prints at
    # 8K to 65K bits
    p = tower_params(a0, 2)
    total = p.bond_counts[2]
    assert total.bit_length() == 2 ** (a0 + 1) + 1
    d = p.bond_pair(2)
    assert core.prime_power_digits((d.odd, 2), (1, d.exp)) == str(total)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2 ** 70), st.integers(0, 2000),
       st.integers(1, 2 ** 70), st.integers(0, 2000))
def test_dyadic_arithmetic_matches_ints(m, e, n, f):
    x, y = m << e, n << f
    a, b = core.Dyadic.of(x), core.Dyadic.of(y)
    assert a.odd % 2 == 1 and int(a) == x
    # results in lowest form, so == on pairs is == on the ints
    assert a * b == core.Dyadic.of(x * y)
    assert a + b == core.Dyadic.of(x + y)
    assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)
    assert a.bit_length() == x.bit_length()
    assert a.log() == math.log(x)


# --- prime_exponents against the divmod oracle ------------------------------

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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda total: st.tuples(st.just(total),
                            st.lists(st.integers(1, total), max_size=total))))
def test_factorial_quotient_divides_exactly_or_raises(case):
    total, hooks = case
    n, rem = divmod(math.factorial(total), math.prod(hooks))
    if rem:
        with pytest.raises(InternalNonDivisible):
            prime_exponents(total, hooks)
    else:
        primes, in_hooks, in_quotient = prime_exponents(total, hooks)
        # every prime up to total, in increasing order, with both exponents
        assert primes == [p for p in range(2, total + 1)
                          if smallest_prime_factor(p) == p]
        assert len(in_hooks) == len(in_quotient) == len(primes)
        assert math.prod(map(pow, primes, in_hooks)) == math.prod(hooks)
        assert math.prod(map(pow, primes, in_quotient)) == n
        assert min(in_quotient, default=0) >= 0


def test_factorial_quotient_rejects_a_non_divisor():
    # 2*2*2 = 8 does not divide 3! = 6
    with pytest.raises(InternalNonDivisible,
                       match=r"^3! is not a multiple of the hook product "
                             r"\(prime 2 short by 2\)$"):
        prime_exponents(3, [2, 2, 2])


@pytest.mark.parametrize("hooks", [[4, 1, 1], [0, 1, 1], [-1, 1, 1]])
def test_factorial_quotient_rejects_hooks_outside_one_to_total(hooks):
    with pytest.raises(InternalNonDivisible,
                       match=rf"^hook {hooks[0]} outside 1\.\.3$"):
        prime_exponents(3, hooks)


def test_factorial_quotient_of_nothing_is_one():
    # a quotient of 1 has every exponent zero, and prints as "1"
    assert prime_exponents(0, []) == ([], [], [])
    assert prime_exponents(1, [1]) == ([], [], [])
    assert prime_exponents(3, [3, 2, 1]) == ([2, 3], [1, 1], [0, 0])
    assert balanced_product([]) == 1 and prime_power_digits([], []) == "1"
    assert prime_power_digits([2, 3], [0, 0]) == "1"


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
    pytest.param(lambda: tower_tree(tower_params(1, 2)), id="tower1/2"),
    pytest.param(lambda: tower_tree(tower_params(1, 1)), id="tower1/1"),
    pytest.param(lambda: path_tree(20_000), id="path20000"),
    pytest.param(lambda: comb_tree(998), id="comb998"),
    *(pytest.param(lambda seed=seed: random_lattice_tree(400, seed=seed),
                   id=f"random400/{seed}") for seed in (1, 2, 3)),
])
def test_count_prints_n_as_str_of_growth_count(tree):
    tree = tree()
    payload = count_payload(tree)
    assert payload["N"] == str(growth_count(tree))
    assert payload["W"] == str(tree_weight(tree))


P61 = 2 ** 61 - 1


def residue(digits: str) -> int:
    """A decimal string modulo 2^61-1, by Horner's rule over 18 digits
    at a time, so no big int is formed."""
    head = len(digits) % 18 or 18
    r = int(digits[:head]) % P61
    for i in range(head, len(digits), 18):
        r = (r * 10 ** 18 + int(digits[i:i + 18])) % P61
    return r


def product_residue(numbers) -> int:
    r = 1
    for k in numbers:
        r = r * k % P61
    return r


def test_residue_reads_every_digit():
    digits = str(math.factorial(3000))
    assert residue(digits) == product_residue(range(2, 3001)) \
        == int(digits) % P61
    for at in (0, 17, len(digits) // 2, len(digits) - 1):
        changed = digits[:at] + str(9 - int(digits[at])) + digits[at + 1:]
        assert residue(changed) == int(changed) % P61 != residue(digits)


@pytest.mark.parametrize("tree", [
    pytest.param(lambda: path_tree(100_001), id="path100001"),
    pytest.param(lambda: tower_tree(tower_params(3, 2)), id="tower3/2"),
])
def test_count_of_the_benchmark_trees_modulo_a_prime(tree):
    # the trees of the path and tower benchmark workloads, with W and N
    # checked against the hooks and L! by a route free of
    # prime_power_digits and of big ints
    tree = tree()
    payload = count_payload(tree)
    w = residue(payload["W"])
    assert payload["L"] == tree.bond_count
    assert w == product_residue(tree.hooks)
    assert residue(payload["N"]) * w % P61 \
        == product_residue(range(2, tree.bond_count + 1))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 400), st.integers(0, 10 ** 6))
def test_count_prints_n_as_str_of_growth_count_on_random_trees(bonds, seed):
    tree = random_lattice_tree(bonds, seed=seed)
    assert count_payload(tree)["N"] == str(growth_count(tree))


@pytest.mark.parametrize("bonds", [1, 2, 5000])
def test_count_prints_one_for_a_path_from_no_factors(bonds):
    tree = path_tree(bonds)
    assert not any(prime_exponents(bonds, tree.hooks)[2])
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
