"""Acceptance suite: the nine headline guarantees, one test each.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s;
the verbose test listing carries the same information).  Stated runtime
budgets are asserted, not just hoped for.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

from growcount.analytics import (
    bond_count,
    constants,
    epsilon0_breakdown,
    exact_weight,
    structure_fractions,
    verify_main_bound,
    weight_upper_bound,
)
from growcount.bethe import (
    bethe_existence_bound,
    bethe_growth_count,
    bethe_trees,
    tree_growth_count,
)
from growcount.core import (
    NEIGHBOR_STEPS,
    enumerate_growth_orders,
    growth_count,
    random_lattice_tree,
    tree_weight,
    validate_tree,
)
from growcount.generators import comb_tree, path_tree, tower_params, tower_tree


@contextmanager
def criterion(num: int, text: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {text}")
        raise
    elapsed = time.perf_counter() - start
    assert budget is None or elapsed < budget, \
        f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"[PASS] criterion {num}: {text} ({elapsed:.2f}s)")


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def fixtures():
    trees = [path_tree(n) for n in (1, 2, 5)]
    trees += [comb_tree(n) for n in (2, 4, 6, 8)]
    for arms in (1, 2, 3, 4):
        trees.append(validate_tree(
            (0, 0),
            [((0, 0), s) for s in NEIGHBOR_STEPS[:arms]],
        ))
    return trees


def test_criterion_1_oracle_identity():
    with criterion(1, "oracle * weight == L! on 200 random trees", 60.0):
        for seed in range(200):
            tree = random_lattice_tree(1 + seed % 9, seed=seed)
            assert enumerate_growth_orders(tree) * tree_weight(tree) \
                == math.factorial(tree.bond_count)
        for tree in fixtures():
            assert enumerate_growth_orders(tree) * tree_weight(tree) \
                == math.factorial(tree.bond_count)


def test_criterion_2_comb_family():
    with criterion(2, "comb growth counts are (L-1)!!", 5.0):
        for bonds in (2, 4, 6, 8, 10):
            assert growth_count(comb_tree(bonds)) \
                == double_factorial(bonds - 1)
        for bonds in (2, 4, 6, 8):
            assert enumerate_growth_orders(comb_tree(bonds)) \
                == double_factorial(bonds - 1)


def test_criterion_3_tower_small_instances():
    with criterion(3, "tower family exact at seed 1 through generation 3",
                   30.0):
        params = tower_params(1, 3)
        assert [int(bond_count(params, j)) for j in (1, 2, 3)] \
            == [4, 32, 768]
        for j in (1, 2, 3):
            tree = tower_tree(params, j)   # construction validates embedding
            assert tree.bond_count == params.bond_counts[j]
            assert exact_weight(params, j) == tree_weight(tree)
        for j in (2, 3):
            assert exact_weight(params, j) \
                <= weight_upper_bound(params, j, mode="exact")


def test_criterion_4_first_generation_census():
    with criterion(4, "first-generation census matches the formula"):
        from growcount.generators import tower_tree_generations
        params = tower_params(1, 3)
        for j in (2, 3):
            _, labels = tower_tree_generations(params, j)
            first = sum(1 for lvl in labels.values() if lvl == 1)
            assert first == params.first_gen[j]


def test_criterion_5_epsilon_reproduction():
    with criterion(5, "epsilon0(20) lands in [1.45e-9, 1.46e-9]", 1.0):
        rep = epsilon0_breakdown(20)
        assert 1.45e-9 <= rep.value <= 1.46e-9
        assert rep.tail_bound < 1e-20 * rep.value


def test_criterion_6_certified_margins():
    with criterion(6, "log-weight within C2 per bond certified on the grid", 5.0):
        for a0, top in ((1, 6), (2, 6), (20, 4)):
            rep_c = constants(a0)
            assert rep_c.c > 1.0
            params = tower_params(a0, top)
            for j in range(1, top + 1):
                rep = verify_main_bound(params, j)
                assert rep.margin_per_bond >= 0.0
                tol = 1e-9 * max(1.0, rep.constants.c2)
                assert abs(rep.margin_per_bond - rep.margin_naive) <= tol
                if rep.log_count_lower is not None:
                    assert rep.log_count_lower >= rep.log_count_required


def test_criterion_7_structure_fractions():
    with criterion(7, "bond ratio and backbone fraction bounds hold"):
        for a0, top in ((1, 5), (2, 4), (3, 3), (20, 2)):
            params = tower_params(a0, top)
            for j in range(2, top + 1):
                rep = structure_fractions(params, j)
                assert rep.exact
                assert 1 <= rep.bond_ratio_exact
                assert float(rep.bond_ratio_exact - 1) \
                    <= rep.epsilon0 * (1 + 1e-12) + 1e-300
                assert rep.backbone_fraction_exact <= Fraction(rep.backbone_bound)
        # past the integer horizon
        beyond = structure_fractions(tower_params(1, 6), 6)
        assert not beyond.exact
        assert abs(beyond.bond_ratio - (1 + beyond.epsilon0)) \
            <= 1e-12 * beyond.bond_ratio


def test_criterion_8_bethe_lattice():
    with criterion(8, "Bethe counts, census cap and pigeonhole at L<=7",
                   120.0):
        for bonds in range(1, 8):
            assert bethe_growth_count(bonds) \
                == math.factorial(bonds + 2) // 2
            assert len(bethe_trees(bonds)) <= 9 ** bonds
        for bonds in range(1, 7):
            total = sum(tree_growth_count(t) for t in bethe_trees(bonds))
            assert total == bethe_growth_count(bonds)
        for bonds in range(1, 8):
            rep = bethe_existence_bound(bonds)
            assert rep.average > Fraction(math.factorial(bonds), 9 ** bonds)


def test_criterion_9_cli_contract(cli):
    with criterion(9, "CLI goldens byte-stable, exit codes per contract"):
        for args in (
            ["gen", "path", "--bonds", "5"],
            ["gen", "comb", "--bonds", "4"],
            ["gen", "tower", "--a0", "1", "--gen", "2"],
        ):
            first = cli(*args, binary=True)
            second = cli(*args, binary=True)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout
            count1 = cli("count", stdin=first.stdout, binary=True)
            count2 = cli("count", stdin=second.stdout, binary=True)
            assert count1.stdout == count2.stdout
            dot1 = cli("export", "--format", "dot",
                       stdin=first.stdout, binary=True)
            dot2 = cli("export", "--format", "dot",
                       stdin=second.stdout, binary=True)
            assert dot1.stdout == dot2.stdout

        comb = json.loads(cli("count", stdin=cli(
            "gen", "comb", "--bonds", "4").stdout).stdout)
        assert comb == {"L": 4, "W": "8", "N": "3"}

        assert cli("gen", "tower", "--a0", "20", "--gen", "2").returncode == 2
        assert cli("count", stdin="nope").returncode == 2
        big_path = cli("gen", "path", "--bonds", "100001")
        assert cli("export", "--format", "svg",
                   stdin=big_path.stdout).returncode == 3
        capped = cli("oracle", "--cap", "50",
                     stdin=cli("gen", "comb", "--bonds", "8").stdout)
        assert capped.returncode == 3
        assert cli("verify", "--suite", "all").returncode == 0
