"""Tree families: paths, combs, the tower construction and custom variants."""

import dataclasses
import math
import re

import pytest

from growcount import cli, generators
from growcount.core import Dyadic, validate_tree
from growcount.errors import (
    ConstraintViolated,
    InternalMismatch,
    OddLength,
    OverlapDetected,
    TooLarge,
)
from growcount.generators import (
    MAX_INT_BITS,
    MAX_TREE_BONDS,
    TowerParams,
    comb_tree,
    custom_hierarchical_tree,
    custom_levels,
    path_tree,
    tower_params,
    tower_tree,
    tower_tree_generations,
)


# --- paths and combs --------------------------------------------------------

def test_path_shape():
    t = path_tree(3)
    assert t.root == (0, 0)
    assert t.sites == {(0, 0), (1, 0), (2, 0), (3, 0)}


def test_path_needs_a_bond():
    with pytest.raises(ValueError):
        path_tree(0)


def test_comb_shape():
    t = comb_tree(6)
    assert t.bond_count == 6
    # teeth point up from the right end of each horizontal bond
    assert {(1, 1), (2, 1), (3, 1)} <= t.sites
    assert (0, 1) not in t.sites


def test_comb_rejects_odd_and_tiny():
    with pytest.raises(OddLength):
        comb_tree(5)
    with pytest.raises(ValueError):
        comb_tree(1)


# --- tower parameter sequences ----------------------------------------------

def test_tower_sequences_for_seed_one():
    p = tower_params(1, 4)
    assert p.tower[:5] == (1, 2, 4, 16, 65536)
    assert p.first_gen[:5] == (1, 4, 16, 256, 2 ** 32)
    assert p.backbone[1:5] == (4, 16, 256, 2 ** 30)
    assert p.branches[2:5] == (4, 16, 2 ** 24)
    assert p.bond_counts[1:4] == (4, 32, 768)
    assert p.bond_counts[4] == 13958643712


def test_tower_spacing_identity():
    p = tower_params(1, 4)
    for k in (2, 3, 4):
        assert p.backbone[k] % p.branches[k] == 0
        assert p.backbone[k] // p.branches[k] == 4 * p.first_gen[k - 2]


def test_tower_seed_twenty_first_generation():
    p = tower_params(20, 2)
    assert p.tower[1] == 2 ** 20
    assert p.first_gen[1] == 2 ** 40
    assert p.backbone[1] == 2 ** 40


# the per-generation sequences of TowerParams
FIELDS = ("tower", "first_gen", "backbone", "branches", "bond_counts")


@pytest.mark.parametrize("a0,horizon", [(1, 5), (2, 4), (3, 3), (20, 2)])
def test_materializability_horizon(a0, horizon):
    p = tower_params(a0, horizon + 1)
    # a_horizon is exact, but 2 to its power is past the budget, so
    # every sequence ends at the horizon, one short of the generations
    assert p.tower[horizon] > MAX_INT_BITS
    for f in FIELDS:
        assert len(getattr(p, f)) == horizon + 1, f
    assert int(p.bond_pair(horizon)) == p.bond_counts[horizon]
    assert p.bond_pair(horizon + 1) is None


def test_generations_past_the_horizon_add_no_entries():
    # a million generations asked for, three levels kept: the sequences
    # of seed 20 end at generation 2 whatever the generation count
    p = tower_params(20, 10**6)
    assert p.generations == 10**6
    for f in FIELDS:
        assert len(getattr(p, f)) == 3, f
    assert dataclasses.replace(p, generations=2) == tower_params(20, 2)
    assert p.bond_pair(3) is None and p.bond_pair(10**6) is None


def test_seed_past_the_integer_budget_is_refused():
    # the largest seed still materializes its first level
    p = tower_params(MAX_INT_BITS, 2)
    assert p.first_gen[1] == 1 << 2 * MAX_INT_BITS
    assert len(p.tower) == len(p.bond_counts) == 2 and p.bond_pair(2) is None
    with pytest.raises(TooLarge, match=f"a0={MAX_INT_BITS + 1}: 2\\^a0"):
        tower_params(MAX_INT_BITS + 1, 1)


def reference_tower_params(a0: int, generations: int) -> dict:
    """The sequences by name, as ints from plain squares and divmod, no
    shifts, through the last generation k whose 2 ** tower[k-1] fits the
    bit budget."""
    tower = [a0]
    while len(tower) <= generations and tower[-1] <= MAX_INT_BITS:
        tower.append(2 ** tower[-1])
    first_gen = [a * a for a in tower]
    backbone = [None, first_gen[1]]
    branches = [None, None]
    bond_counts = [None, first_gen[1]]
    for k in range(2, len(tower)):
        length, rem = divmod(
            4 * first_gen[k] * first_gen[k - 2], first_gen[k - 1])
        assert rem == 0
        count, rem = divmod(first_gen[k], first_gen[k - 1])
        assert rem == 0
        backbone.append(length)
        branches.append(count)
        bond_counts.append(length + count * bond_counts[k - 1])
    return dict(zip(FIELDS, map(tuple, (tower, first_gen, backbone,
                                        branches, bond_counts))))


def as_pairs(values: tuple) -> tuple:
    return tuple(None if v is None else Dyadic.of(v) for v in values)


# a0 21 is the last seed with an exact second generation (4.2M-bit
# first_gen[2]); from 22 on every sequence ends at generation 1
@pytest.mark.parametrize("a0", list(range(1, 25)) + [31, 32, 33, 64])
def test_tower_params_match_plain_arithmetic(a0):
    # every dataclass field: those of Levels, then the seed and the
    # sequences the levels derive from, and the int views of the pairs
    assert [f.name for f in dataclasses.fields(TowerParams)] \
        == ["generations", "backbone_pairs", "branches_pairs",
            "bond_counts_pairs", "a0", "tower_pairs", "first_gen_pairs"]
    for gen in range(1, 9):
        got = tower_params(a0, gen)
        assert (got.a0, got.generations) == (a0, gen)
        for name, want in reference_tower_params(a0, gen).items():
            assert getattr(got, name) == want, (a0, gen, name)
            assert getattr(got, f"{name}_pairs") == as_pairs(want), \
                (a0, gen, name)


def test_tower_pairs_give_what_their_ints_give():
    # every stored value of seeds 1..64: a small odd part, and the bit
    # length, float and log of the int it stands for, the log bit for bit
    stored = 0
    for a0 in range(1, 65):
        p = tower_params(a0, 8)
        for name in FIELDS:
            for pair in getattr(p, f"{name}_pairs"):
                if pair is None:
                    continue
                n = int(pair)
                assert pair.odd % 2 == 1 and pair.odd.bit_length() <= 41
                assert pair.bit_length() == n.bit_length(), (a0, name)
                assert pair.log() == math.log(n), (a0, name)
                if n.bit_length() <= 1000:
                    assert float(pair) == float(n), (a0, name)
                stored += 1
    assert stored == 524


def test_exact_quotient_is_a_checked_shift():
    quotient = generators._exact_quotient
    big = Dyadic((1, 4_000_000))
    assert quotient(Dyadic((7, 4_000_000)), big, 1, 2, "id") == Dyadic((7, 0))
    with pytest.raises(InternalMismatch, match="a0=5, k=3"):
        quotient(Dyadic.of((7 << 4_000_000) + 1), big, 5, 3, "id")
    with pytest.raises(InternalMismatch, match="identity id fails at a0=1, k=2"):
        quotient(Dyadic.of(12), Dyadic.of(8), 1, 2, "id")
    # a divisor that is not a power of two breaks the family's identity
    with pytest.raises(InternalMismatch):
        quotient(Dyadic.of(92), Dyadic.of(7), 1, 2, "id")


def _squares_plus_one(derived):
    """_derived_levels fed squares one too large: first_gen[1] = 5 no
    longer divides 4 * first_gen[2] * first_gen[0] = 4 * 17 * 2."""
    return lambda a0, first_gen: derived(
        a0, [Dyadic.of(int(g) + 1) for g in first_gen])


def test_broken_tower_identity_raises(monkeypatch):
    monkeypatch.setattr(generators, "_derived_levels",
                        _squares_plus_one(generators._derived_levels))
    with pytest.raises(InternalMismatch, match="a0=1, k=2"):
        tower_params(1, 3)


def test_broken_tower_identity_is_a_cli_error(monkeypatch, capsys):
    monkeypatch.setattr(generators, "_derived_levels",
                        _squares_plus_one(generators._derived_levels))
    assert cli.main(["gen", "tower", "--a0", "1", "--gen", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: InternalMismatch: tower identity")


# the 32-bond tree of either family with bond_counts[2] one too large:
# the one builder lays 32 bonds and refuses the count
BUMPED = (None, Dyadic.of(4), Dyadic.of(33))
BUILT_32_NOT_33 = r"^built 32 bonds at generation 2; bond_counts\[2\] gives 33$"


@pytest.mark.parametrize("build", ["tower_tree", "tower_tree_generations"])
def test_tower_tree_checks_its_bond_count(build):
    wrong = dataclasses.replace(tower_params(1, 2), bond_counts_pairs=BUMPED)
    with pytest.raises(InternalMismatch, match=BUILT_32_NOT_33):
        getattr(generators, build)(wrong)


def test_custom_tree_checks_its_bond_count(monkeypatch):
    wrong = dataclasses.replace(custom_levels((4, 16), (4,)),
                                bond_counts_pairs=BUMPED)
    monkeypatch.setattr(generators, "custom_levels", lambda *_: wrong)
    with pytest.raises(InternalMismatch, match=BUILT_32_NOT_33):
        custom_hierarchical_tree((4, 16), (4,))


def test_tower_params_reject_bad_arguments():
    with pytest.raises(ValueError):
        tower_params(0, 2)
    with pytest.raises(ValueError):
        tower_params(1, 0)


# --- materialized tower trees -----------------------------------------------

def test_first_generation_is_a_path():
    assert tower_tree(tower_params(1, 1)) == path_tree(4)


def test_second_generation_layout():
    t = tower_tree(tower_params(1, 2))
    assert t.bond_count == 32
    # backbone of 16 bonds along +x with 4-bond branches rising at the
    # four attachment points
    for x in (4, 8, 12, 16):
        assert {(x, 1), (x, 2), (x, 3), (x, 4)} <= t.sites
    assert (17, 0) not in t.sites


def test_third_generation_validates():
    t = tower_tree(tower_params(1, 3))
    assert t.bond_count == 768
    validate_tree(t.root, t.bonds)   # idempotent re-check, no overlap


def test_generation_census():
    p = tower_params(1, 3)
    for j, expected in ((2, 16), (3, 256)):
        _, labels = tower_tree_generations(p, j)
        first = sum(1 for lvl in labels.values() if lvl == 1)
        assert first == expected
        assert sum(1 for lvl in labels.values() if lvl == j) \
            == p.backbone[j]


def test_tower_tree_determinism():
    a = tower_tree(tower_params(1, 3))
    b = tower_tree(tower_params(1, 3))
    assert a == b and a.bonds == b.bonds


def test_tower_tree_guard():
    with pytest.raises(TooLarge):
        tower_tree(tower_params(20, 2))
    with pytest.raises(ValueError):
        tower_tree(tower_params(1, 2), 5)


# --- custom hierarchical trees ----------------------------------------------

def test_custom_reproduces_tower_generation_two():
    assert custom_hierarchical_tree((4, 16), (4,)) \
        == tower_tree(tower_params(1, 2))
    custom, tower = custom_levels((4, 16), (4,)), tower_params(1, 2)
    for name in ("backbone_pairs", "branches_pairs", "bond_counts_pairs"):
        assert getattr(custom, name) == getattr(tower, name), name
    assert custom.generations == tower.generations == 2


def test_custom_small_family():
    t = custom_hierarchical_tree((2, 6, 24), (2, 2))
    assert t.bond_count == 24 + 2 * (6 + 2 * 2)
    # the level-3 backbone is the only run on the x axis
    assert sum(1 for u, v in t.bonds if u[1] == v[1] == 0) == 24


def test_custom_spacing_violation():
    # spacing 16/8 = 2 does not clear the level-1 backbone of length 4
    with pytest.raises(ConstraintViolated):
        custom_hierarchical_tree((4, 8, 16), (2, 8))


@pytest.mark.parametrize("ells,bs", [
    ((), ()),
    ((4, 16), ()),
    ((4, 16), (3,)),          # 3 does not divide 16
    ((16, 4), (4,)),          # lengths must increase
    ((4, 16, 64), (4, 2)),    # branch counts must not decrease
    ((4, -16), (4,)),
])
def test_custom_rejects_bad_parameters(ells, bs):
    with pytest.raises(ConstraintViolated):
        custom_hierarchical_tree(ells, bs)


@pytest.mark.parametrize("ells,bs,bad", [
    ((2.9, 6.5), (2.2,), "2.9"),   # int() would build the [2, 6], [2] tree
    ((True,), (), "True"),         # a bool would build a 1-bond tree
    (("2", "6"), ("2",), "'2'"),
    ((2, 6), (2.0,), "2.0"),
], ids=["float", "bool", "str", "float count"])
def test_custom_refuses_non_integer_parameters(ells, bs, bad):
    with pytest.raises(ConstraintViolated,
                       match=f"^parameters must be integers, got {bad}$"):
        custom_hierarchical_tree(ells, bs)


def test_custom_size_guard():
    with pytest.raises(TooLarge):
        custom_hierarchical_tree((2, MAX_TREE_BONDS + 2), (1,))


# levels that custom_levels refuses (backbones that do not increase), so
# built here by hand: in both, each of two level-2 branches carries a
# level-1 run towards the other's; the second run of the first ends on
# the first run's start and closes a cycle, and that of the second lays
# a bond of the first run again
@pytest.mark.parametrize("backbone, branches, message", [
    ((1, 1, 2), (1, 2), "embedding is not a tree: 6 bonds span 6 sites; "
                        "a tree needs L+1"),
    ((2, 1, 2), (1, 2), "two branches produced the same bond"),
], ids=["cycle", "duplicate"])
def test_overlapping_levels_are_refused(backbone, branches, message):
    backbone = (None,) + tuple(map(Dyadic.of, backbone))
    branches = (None, None) + tuple(map(Dyadic.of, branches))
    levels = generators.Levels(len(backbone) - 1, backbone, branches,
                               generators._bond_counts(backbone, branches))
    with pytest.raises(OverlapDetected, match=f"^{re.escape(message)}$"):
        generators._build(levels, None)


def test_level_labels_cover_every_bond():
    tree, labels = tower_tree_generations(tower_params(1, 2))
    assert set(labels) == set(tree.bonds)
    assert set(labels.values()) == {1, 2}


def test_branch_bonds_sit_off_axis():
    tree, labels = tower_tree_generations(tower_params(1, 2))
    for (u, v), lvl in labels.items():
        if lvl == 1:
            assert u[1] >= 1 or v[1] >= 1
        else:
            assert u[1] == v[1] == 0
