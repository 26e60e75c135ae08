"""Self-contained invariant suites, runnable from the CLI.

Each suite returns a list of Check results; a check failing means the
implementation broke an identity that holds mathematically, so suites
are also the quickest smoke test after a change.
"""

import math
from typing import NamedTuple

from . import analytics, bethe, core, generators


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _check(name, ok, detail=""):
    return Check(name, bool(ok), "" if ok else str(detail))


# core_suite checks CORE_SAMPLES random trees of 1..CORE_MAX_BONDS bonds;
# bethe_suite runs the Bethe chain up to BETHE_MAX_BONDS bonds
CORE_SAMPLES = 200
CORE_MAX_BONDS = 9
BETHE_MAX_BONDS = 7


def core_suite() -> list[Check]:
    """Oracle identity and extreme cases on fixtures plus random trees."""
    checks = []

    fixtures = [generators.path_tree(n) for n in (1, 2, 5)]
    fixtures += [generators.comb_tree(n) for n in (2, 4, 6, 8)]
    for k in (1, 2, 3, 4):
        steps = core.NEIGHBOR_STEPS[:k]
        fixtures.append(core.validate_tree(
            (0, 0), [((0, 0), step) for step in steps]
        ))

    bad = []
    for i in range(CORE_SAMPLES):
        tree = core.random_lattice_tree(1 + i % CORE_MAX_BONDS, seed=i)
        if core.enumerate_growth_orders(tree) * core.tree_weight(tree) \
                != math.factorial(tree.bond_count):
            bad.append(i)
    checks.append(_check(
        f"core: oracle * weight == L! on {CORE_SAMPLES} random trees",
        not bad, f"failing seeds {bad[:5]}"))

    bad = [
        t.bond_count for t in fixtures
        if core.enumerate_growth_orders(t) != core.growth_count(t)
    ]
    checks.append(_check(
        "core: oracle agrees with hook count on fixtures", not bad, bad))

    ok = all(
        1 <= core.growth_count(t) <= math.factorial(t.bond_count)
        for t in fixtures
    )
    checks.append(_check("core: counts within [1, L!]", ok))

    ok = all(core.growth_count(generators.path_tree(n)) == 1
             for n in range(1, 8))
    checks.append(_check("core: paths grow one way", ok))

    star4 = fixtures[-1]
    checks.append(_check(
        "core: 4-star grows 4! ways", core.growth_count(star4) == 24))

    return checks


def tower_suite() -> list[Check]:
    """Tower-family identities, exact where materializable, log past that."""
    checks = []
    # one TowerParams per seed, up to the deepest generation checked below
    by_seed = {a0: generators.tower_params(a0, top)
               for a0, top in ((1, 6), (2, 6), (3, 3), (20, 4))}

    expected = {1: (4, 32, 768)}
    ok = all(
        analytics.bond_count(by_seed[1], j) == want
        for j, want in zip((1, 2, 3), expected[1])
    )
    checks.append(_check("tower: bond counts at a0=1 are 4, 32, 768", ok))

    horizons = {1: 5, 2: 4, 3: 3, 20: 2}
    bad = []
    for a0, horizon in horizons.items():
        for j in range(1, horizon + 1):
            try:
                analytics.bond_count(by_seed[a0], j)
            except Exception as exc:   # noqa: BLE001 - reported, not hidden
                bad.append((a0, j, repr(exc)))
    checks.append(_check(
        "tower: count formulas agree over the exact horizon", not bad, bad))

    params = by_seed[1]
    bad = []
    for j in (1, 2, 3):
        tree = generators.tower_tree(params, j)
        if analytics.exact_weight(params, j) != core.tree_weight(tree):
            bad.append(j)
    checks.append(_check(
        "tower: recursion weight equals per-bond weight, a0=1 j<=3",
        not bad, bad))

    ok = all(
        analytics.exact_weight(params, j)
        <= analytics.weight_upper_bound(params, j, mode="exact")
        for j in (2, 3)
    )
    checks.append(_check("tower: exact weight under its upper bound", ok))

    bad = []
    for j in (2, 3):
        labels = generators.tower_tree_generations(params, j)[1]
        first = sum(1 for lvl in labels.values() if lvl == 1)
        if first != params.first_gen[j]:
            bad.append((j, first))
    checks.append(_check(
        "tower: first-generation census matches the formula", not bad, bad))

    eps = analytics.epsilon0(20)
    checks.append(_check(
        "tower: epsilon0(20) inside [1.45e-9, 1.46e-9]",
        1.45e-9 <= eps <= 1.46e-9, eps))

    bad = []
    for a0, top in ((1, 6), (2, 6), (20, 4)):
        for j in range(1, top + 1):
            rep = analytics.verify_main_bound(by_seed[a0], j)
            if rep.margin_per_bond < 0:
                bad.append((a0, j, rep.margin_per_bond))
    checks.append(_check(
        "tower: certification margin nonnegative on the test grid",
        not bad, bad))

    bad = []
    for a0, top in ((1, 5), (2, 4), (3, 3), (20, 2)):
        for j in range(2, top + 1):
            rep = analytics.structure_fractions(by_seed[a0], j)
            if not rep.exact:
                bad.append((a0, j))
    checks.append(_check(
        "tower: structure fractions exact over the horizon", not bad, bad))

    return checks


def bethe_suite() -> list[Check]:
    """Sequence counts, subtree census and the pigeonhole chain."""
    checks = []
    # one existence-bound run per size; the sequence totals, the subtree
    # census and the subtrees checked one by one below are the ones it
    # enumerated
    reports = [bethe.bethe_existence_bound(length)
               for length in range(1, BETHE_MAX_BONDS + 1)]

    bad = [
        rep.bond_count for rep in reports
        if rep.growth_count != math.factorial(rep.bond_count + 2) // 2
    ]
    checks.append(_check(
        f"bethe: sequence totals match (L+2)!/2 up to L={BETHE_MAX_BONDS}",
        not bad, bad))

    bad = [rep.bond_count for rep in reports
           if rep.tree_count > 9 ** rep.bond_count]
    checks.append(_check("bethe: subtree census under 9^L", not bad, bad))

    # each subtree of up to 5 bonds
    bad = [sorted(tree) for rep in reports[:5] for tree in rep.trees
           if bethe.tree_growth_count(tree)
           != bethe.tree_growth_count_enumerated(tree)]
    checks.append(_check(
        "bethe: hook counts equal enumerated counts per subtree",
        not bad, bad[:1]))

    bad = [rep.bond_count for rep in reports
           if rep.average <= rep.naive_floor]
    checks.append(_check(
        "bethe: average growth count beats L!/9^L", not bad, bad))

    return checks


SUITES = {
    "core": core_suite,
    "tower": tower_suite,
    "bethe": bethe_suite,
}


def run_suites(names) -> list[Check]:
    checks = []
    for name in names:
        checks.extend(SUITES[name]())
    return checks
