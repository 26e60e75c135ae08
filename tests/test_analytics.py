"""Exact counts, weight bounds, series constants and the certified margin.

Where the implementation works in plain double precision on purpose,
the tests recompute the same quantities with mpmath at 50 digits and in
exact rational arithmetic, so the two sides are independent.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from growcount import analytics
from growcount.analytics import (
    bond_count,
    constants,
    epsilon0,
    epsilon0_breakdown,
    epsilon_partial_exact,
    exact_weight,
    log_factorial,
    structure_fractions,
    verify_main_bound,
    weight_upper_bound,
)
from growcount.core import Dyadic, tree_weight
from growcount.errors import InternalMismatch, TooLarge
from growcount.generators import (
    custom_hierarchical_tree,
    custom_levels,
    tower_params,
    tower_tree,
)


def mp_epsilon0(a0, levels=6):
    mpmath.mp.dps = 50
    total = mpmath.mpf(0)
    a = a0
    for _ in range(levels):
        total += 4 * (mpmath.mpf(a) / mpmath.power(2, a)) ** 2
        if a > 4000:
            break
        a = 2 ** a
    return total


def mp_c2(a0, levels=6):
    mpmath.mp.dps = 50
    eps = mp_epsilon0(a0, levels)
    c1 = mpmath.mpf(0)
    a = a0
    for _ in range(levels):
        e1 = mpmath.mpf(a) ** 2 / mpmath.power(2, a)
        e2 = mpmath.mpf(a) ** 2 / mpmath.power(4, a)
        c1 += 8 * mpmath.log(2) * e1 + 4 * mpmath.log1p(eps) * e2
        if a > 4000:
            break
        a = 2 ** a
    n = 2 ** (2 * a0)
    x1 = mpmath.loggamma(n + 1) / n
    return c1 + x1


# --- bond counts ------------------------------------------------------------

def test_bond_counts_seed_one():
    p = tower_params(1, 4)
    assert [int(bond_count(p, j)) for j in (1, 2, 3, 4)] \
        == [4, 32, 768, 13958643712]


def test_bond_count_argument_checks():
    p = tower_params(1, 3)
    with pytest.raises(ValueError):
        bond_count(p, 0)
    with pytest.raises(ValueError):
        bond_count(p, 4)


def test_bond_count_past_horizon_is_refused():
    p = tower_params(3, 4)
    assert bond_count(p, 3) == p.bond_pair(3)
    assert int(bond_count(p, 3)) == p.bond_counts[3]
    with pytest.raises(TooLarge):
        bond_count(p, 4)


@pytest.mark.parametrize("num, den", [
    (0, 1), (0, 2 ** 64), (3, 5), (15, 9), (1, 1), (2 ** 70, 2 ** 3),
    (2 ** 3, 2 ** 70), (-12, 2 ** 10), (441 << 4_000_000, 1 << 4_194_304),
    ((2 ** 40 + 441) << 4_194_264, 1 << 4_194_304),
], ids=["zero", "zero-over-2^64", "odd-odd", "odd-odd-shared-3", "one",
        "2^70/2^3", "2^3/2^70", "negative", "4M-bit", "4M-bit-ratio"])
def test_shift_reduced_equals_fraction(num, den):
    got = analytics._shift_reduced(Dyadic.of(num), Dyadic.of(den))
    want = Fraction(num, den)
    assert (got.numerator, got.denominator) \
        == (want.numerator, want.denominator)


def test_bond_count_catches_a_patched_count():
    p = tower_params(3, 3)
    for j in (2, 3):
        bumped = list(p.bond_counts_pairs)
        bumped[j] += Dyadic((1, 0))
        with pytest.raises(InternalMismatch, match=rf"^bond-count formulas "
                           rf"disagree at a0=3, generation {j}$"):
            bond_count(p._replace(bond_counts_pairs=tuple(bumped)), j)


def test_bond_count_catches_a_patched_backbone_by_route_two():
    # the backbone and the bond count agree with each other, so only
    # first_gen[j] * (1 + 4 * ratio sum) tells them apart
    p = tower_params(20, 2)
    backbone, bumped = list(p.backbone_pairs), list(p.bond_counts_pairs)
    backbone[2] += Dyadic((1, 0))
    bumped[2] += Dyadic((1, 0))
    q = p._replace(backbone_pairs=tuple(backbone),
                   bond_counts_pairs=tuple(bumped))
    with pytest.raises(InternalMismatch, match=r"^bond-count formulas "
                       r"disagree at a0=20, generation 2$"):
        bond_count(q, 2)


# --- exact weights ----------------------------------------------------------

def test_exact_weight_generation_two_by_hand():
    # backbone weights: four runs of four consecutive integers, one run
    # per attached branch, plus 24!^0 ... the four branch copies of 4!
    runs = [
        32 * 31 * 30 * 29,
        24 * 23 * 22 * 21,
        16 * 15 * 14 * 13,
        8 * 7 * 6 * 5,
    ]
    expected = 24 ** 4 * math.prod(runs)
    p = tower_params(1, 2)
    assert exact_weight(p, 2) == expected
    assert tree_weight(tower_tree(p, 2)) == expected


@pytest.mark.parametrize("j", [1, 2, 3])
def test_exact_weight_matches_materialized_tree(j):
    p = tower_params(1, 3)
    assert exact_weight(p, j) == tree_weight(tower_tree(p, j))


# the last is the best custom tree measured for log W / L, 75,088 bonds
@pytest.mark.parametrize("ells,bs", [
    ((2, 6, 24), (2, 2)),
    ((3, 12, 60), (3, 3)),
    ((2, 15, 45), (15, 15)),
    ((3, 37, 1976), (37, 494)),
], ids=["2,6,24", "3,12,60", "2,15,45", "3,37,1976"])
def test_custom_exact_weight_matches_materialized_tree(ells, bs):
    levels = custom_levels(ells, bs)
    w = exact_weight(levels)
    assert w == tree_weight(custom_hierarchical_tree(ells, bs))
    assert w <= weight_upper_bound(levels, mode="exact")


@pytest.mark.parametrize("call", [
    lambda levels: weight_upper_bound(levels, 3, mode="log"),
    lambda levels: bond_count(levels),
], ids=["weight_upper_bound log", "bond_count"])
def test_custom_levels_are_refused_where_the_tower_seed_is_read(call):
    # both read a0 and first_gen, which only tower levels carry
    with pytest.raises(ValueError, match="needs tower-family levels"):
        call(custom_levels((2, 6, 24), (2, 2)))


def test_exact_weight_divides_factorial():
    p = tower_params(1, 3)
    for j in (1, 2, 3):
        assert math.factorial(int(bond_count(p, j))) % exact_weight(p, j) \
            == 0


def test_exact_weight_guard():
    with pytest.raises(TooLarge):
        exact_weight(tower_params(1, 4), 4)   # 1.4e10 bonds


@pytest.mark.parametrize("weigh", [
    exact_weight,
    lambda p, j: weight_upper_bound(p, j, mode="exact"),
], ids=["exact_weight", "weight_upper_bound"])
def test_exact_weight_guard_at_its_limit(monkeypatch, weigh):
    p = tower_params(1, 2)   # 32 bonds
    monkeypatch.setattr(analytics, "MAX_EXACT_WEIGHT_BONDS", 32)
    assert weigh(p, 2) > 0
    monkeypatch.setattr(analytics, "MAX_EXACT_WEIGHT_BONDS", 31)
    with pytest.raises(TooLarge,
                       match="^32 bonds exceeds the exact-weight guard 31$"):
        weigh(p, 2)


# --- the recursive upper bound ----------------------------------------------

def test_upper_bound_exact_form():
    p = tower_params(1, 3)
    b2 = 24 ** 4 * 32 ** 16
    assert weight_upper_bound(p, 2, mode="exact") == b2
    assert weight_upper_bound(p, 3, mode="exact") == b2 ** 16 * 768 ** 256


@pytest.mark.parametrize("j", [2, 3])
def test_exact_weight_below_upper_bound(j):
    p = tower_params(1, 3)
    assert exact_weight(p, j) <= weight_upper_bound(p, j, mode="exact")


def test_log_bound_base_case():
    p = tower_params(1, 1)
    wb = weight_upper_bound(p, 1, mode="log")
    assert wb.per_firstgen == pytest.approx(math.log(24) / 4, rel=1e-15)
    assert wb.ln == pytest.approx(math.log(24), rel=1e-15)


@pytest.mark.parametrize("j", [2, 3])
def test_log_bound_matches_exact_bound(j):
    p = tower_params(1, 3)
    wb = weight_upper_bound(p, j, mode="log")
    reference = math.log(weight_upper_bound(p, j, mode="exact"))
    assert wb.per_firstgen * p.first_gen[j] \
        == pytest.approx(reference, rel=1e-12)
    assert wb.ln == pytest.approx(reference, rel=1e-12)


def test_log_bound_survives_past_horizon():
    p = tower_params(1, 8)
    wb = weight_upper_bound(p, 8, mode="log")
    assert math.isfinite(wb.per_firstgen)
    assert wb.ln is None   # E_8 has left the double range
    # one term per series row: row 6 is the first zero row, and levels 7
    # and 8 add nothing, so they are not listed
    assert [k for k, _ in wb.terms] == [1, 2, 3, 4, 5, 6]
    assert wb.terms[-1] == (6, 0.0)
    assert wb.per_firstgen == weight_upper_bound(p, 6, mode="log").per_firstgen


def test_log_bound_rejects_unknown_mode():
    with pytest.raises(ValueError):
        weight_upper_bound(tower_params(1, 2), 2, mode="fancy")


# --- the epsilon series -----------------------------------------------------

def test_epsilon0_seed_one_exact_value():
    # 4(1/2)^2 + 4(2/4)^2 + 4(4/16)^2 + 4(16/2^16)^2, later terms underflow
    exact = Fraction(1) + 1 + Fraction(1, 4) + Fraction(1, 2 ** 22)
    assert epsilon0(1) == pytest.approx(float(exact), rel=1e-15)
    assert epsilon_partial_exact(1, 5) == exact


def test_epsilon0_seed_twenty_window():
    eps = epsilon0(20)
    assert 1.45e-9 <= eps <= 1.46e-9
    assert eps == pytest.approx(float(Fraction(1600, 2 ** 40)), rel=1e-12)


def test_epsilon0_matches_mpmath():
    for a0 in (1, 2, 3, 20):
        assert epsilon0(a0) == pytest.approx(float(mp_epsilon0(a0)), rel=1e-13)


def test_epsilon0_tail_bookkeeping():
    rep = epsilon0_breakdown(1)
    assert rep.value == pytest.approx(sum(t for _, t in rep.terms))
    assert rep.tail_bound < 1e-20 * rep.value
    assert rep.truncation_k > max(k for k, _ in rep.terms)


@pytest.mark.parametrize("a0", [1, 9, 20, 509])
def test_epsilon0_is_the_sum_of_its_listed_terms(a0):
    rep = epsilon0_breakdown(a0)
    total = 0.0   # in order, as the series is summed; sum() compensates on 3.12
    for _k, t in rep.terms:
        total += t
    assert rep.value == total


def test_epsilon0_tail_bound_is_twice_the_first_dropped_term():
    # at a0 = 9 the k = 3 term 4*512^2/4^512 = 2^-1004 is the first one
    # below TERM_FLOOR, and it has not underflowed yet
    rep = epsilon0_breakdown(9)
    assert rep.truncation_k == 3
    assert [k for k, _ in rep.terms] == [2]
    assert rep.tail_bound == pytest.approx(2.0 ** -1003, rel=1e-12, abs=0.0)


def test_epsilon_partial_guard():
    with pytest.raises(TooLarge):
        epsilon_partial_exact(1, 9)


# --- constants --------------------------------------------------------------

def test_constants_term_structure():
    rep = constants(1)
    k2 = dict(rep.terms)[2]
    expected = 8 * math.log(2) * 0.5 + 4 * math.log1p(rep.epsilon0) * 0.25
    assert k2 == pytest.approx(expected, rel=1e-15)
    assert rep.c2 == pytest.approx(rep.c1 + math.log(24) / 4, rel=1e-15)
    assert rep.c == pytest.approx(math.exp(rep.c2), rel=1e-15)
    assert rep.c > 1


def test_constants_match_mpmath():
    for a0 in (1, 2, 3, 20):
        rep = constants(a0)
        assert rep.c2 == pytest.approx(float(mp_c2(a0)), rel=1e-12)


def test_constants_seed_twenty_magnitude():
    rep = constants(20)
    # C2 = C1 + log(2^40!)/2^40, and the Stirling tail of the latter is
    # far below double resolution
    assert rep.c2 == pytest.approx(rep.c1 + 40 * math.log(2) - 1, rel=1e-9)
    assert rep.c1 < 1e-2


# --- the certified margin ---------------------------------------------------

@pytest.mark.parametrize("a0,top", [(1, 6), (2, 6), (20, 4)])
def test_margin_nonnegative_on_grid(a0, top):
    params = tower_params(a0, top)
    for j in range(1, top + 1):
        rep = verify_main_bound(params, j)
        assert rep.margin_per_bond >= 0
        assert rep.margin_per_bond == pytest.approx(
            rep.margin_naive, abs=1e-9 * max(1.0, rep.constants.c2)
        )


def test_margin_seed_twenty_is_tiny_but_positive():
    rep = verify_main_bound(tower_params(20, 4), 4)
    assert 1e-9 < rep.margin_per_bond < 1e-6


def test_count_form_at_materializable_size():
    rep = verify_main_bound(tower_params(1, 3), 3)
    assert rep.log_factorial_bonds == pytest.approx(
        log_factorial(768), rel=1e-15
    )
    assert rep.log_count_lower is not None
    assert rep.log_count_lower >= rep.log_count_required
    # N_3 is genuinely huge: log N >= log 768! - 768 log C > 0
    assert rep.log_count_lower > 0


def test_count_form_skipped_past_double_range():
    rep = verify_main_bound(tower_params(1, 6), 6)
    assert rep.log_factorial_bonds is None
    assert rep.margin_per_bond > 0


# --- structure fractions ----------------------------------------------------

def test_structure_seed_one_generation_three():
    rep = structure_fractions(tower_params(1, 3), 3)
    assert rep.exact
    assert rep.bond_ratio_exact == Fraction(3)
    assert rep.first_gen_fraction_exact == Fraction(1, 3)
    assert rep.backbone_fraction_exact == Fraction(1, 3)
    assert rep.backbone_bound == 1.0


def test_structure_seed_twenty():
    rep = structure_fractions(tower_params(20, 2), 2)
    assert rep.exact
    assert rep.bond_ratio_exact == 1 + Fraction(1600, 2 ** 40)
    assert rep.backbone_fraction <= rep.backbone_bound


@pytest.mark.parametrize("a0", [17, 18, 19, 20, 21])
def test_structure_exact_fields_at_megabit_bond_counts(a0):
    # the Fractions as built from the full integers, gcd and all
    p = tower_params(a0, 2)
    total, firstgen = p.bond_counts[2], p.first_gen[2]
    rep = structure_fractions(p, 2)
    assert rep.exact
    for got, want in [
        (rep.bond_ratio_exact, Fraction(total, firstgen)),
        (rep.first_gen_fraction_exact, Fraction(firstgen, total)),
        (rep.backbone_fraction_exact, Fraction(p.backbone[2], total)),
    ]:
        assert (got.numerator, got.denominator) \
            == (want.numerator, want.denominator)
    assert rep.bond_ratio == float(Fraction(total, firstgen))
    assert rep.first_gen_fraction == float(Fraction(firstgen, total))
    assert rep.backbone_fraction == float(Fraction(p.backbone[2], total))


def test_structure_past_horizon_uses_floats():
    rep = structure_fractions(tower_params(1, 6), 6)
    assert not rep.exact
    assert rep.bond_ratio == pytest.approx(1 + epsilon0(1), rel=1e-12)
    assert rep.first_gen_fraction == pytest.approx(
        1 / (1 + epsilon0(1)), rel=1e-12
    )


def test_structure_needs_generation_two():
    with pytest.raises(ValueError):
        structure_fractions(tower_params(1, 1), 1)
    # and one past the generations the params cover
    with pytest.raises(ValueError, match=r"generation in 2\.\.2$"):
        structure_fractions(tower_params(1, 2), 3)


# --- log factorial ----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 100, 1234, 10 ** 4])
def test_log_factorial_accuracy(n):
    assert log_factorial(n) == pytest.approx(
        math.log(math.factorial(n)), rel=1e-12
    )


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        log_factorial(-1)


def test_per_bond_log_factorial_routes_agree_at_the_boundary():
    lo = 2 ** 899           # lgamma route
    hi = 2 ** 901           # Stirling route
    f = analytics._per_bond_log_factorial
    assert f(Dyadic((1, 899))) == pytest.approx(math.log(lo) - 1, rel=1e-12)
    assert f(Dyadic((1, 901))) == math.log(hi) - 1
