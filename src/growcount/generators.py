"""Constructors for specific tree families.

Besides paths and combs, this module builds hierarchical trees: level
k is a straight backbone carrying equally spaced, 90-degree-rotated
copies of level k-1.  One `Levels` describes both such families, the
tower family of a_k = 2^(a_{k-1}) and custom trees, and one builder
lays out either.  The tower's sequences grow so fast that integers
stop being materializable after a few levels; TowerParams keeps exact
values up to a bit-size horizon and ends there, however many
generations are asked for.  Everything the log-domain analytics needs
survives past the horizon.
"""

import itertools
from collections import namedtuple
from typing import NamedTuple

# MAX_TREE_BONDS and the guard's text live in core, which guards `count`
# and random trees with them; the guards here read this module's name
from .core import (
    MAX_TREE_BONDS,
    Dyadic,
    RootedTree,
    Site,
    guard_tree_bonds,
    tree_from_runs,
)
from .errors import (
    ConstraintViolated,
    DuplicateBond,
    HasCycle,
    InternalMismatch,
    NotConnected,
    OddLength,
    OverlapDetected,
    TooLarge,
)

# refuse to materialize integers past this many bits (~500 kB)
MAX_INT_BITS = 4_000_000
# the largest a with 2^a <= MAX_INT_BITS
_MAX_EXPONENT = MAX_INT_BITS.bit_length() - 1
_FOUR = Dyadic((1, 2))

# +90 degrees counterclockwise, applied once per nesting level
_ROTATE = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}


def path_tree(bond_count: int) -> RootedTree:
    """Straight path of `bond_count` bonds from the origin along +x.

    Like every generator, raises TooLarge past MAX_TREE_BONDS before
    building anything.
    """
    if bond_count < 1:
        raise ValueError("a path needs at least one bond")
    guard_tree_bonds(bond_count, MAX_TREE_BONDS)
    return tree_from_runs((0, 0), [(0, 0, 1, 0, bond_count)])


def comb_tree(bond_count: int) -> RootedTree:
    """Horizontal segment of L/2 bonds with a vertical tooth at the right
    end of each horizontal bond.  L must be even."""
    if bond_count < 2:
        raise ValueError("a comb needs at least two bonds")
    if bond_count % 2:
        raise OddLength(f"comb needs an even bond count, got {bond_count}")
    guard_tree_bonds(bond_count, MAX_TREE_BONDS)
    half = bond_count // 2
    # the teeth as a generator: a list of them would outlive the columns
    teeth = ((i, 0, 0, 1, 1) for i in range(1, half + 1))
    return tree_from_runs((0, 0), itertools.chain([(0, 0, 1, 0, half)], teeth))


# --- parameter sequences ----------------------------------------------------

def _int_view(pairs: str) -> property:
    """A sequence of Levels as ints, formed from its pairs when read."""
    return property(lambda self: tuple(
        None if v is None else int(v) for v in getattr(self, pairs)))


class Levels(NamedTuple):
    """The levels of a hierarchical tree by generation k, as Dyadic
    pairs (odd part, exponent) with int views formed when read: backbone
    length backbone[k] (k >= 1), branches[k] (k >= 2) copies of level
    k-1 along it, and bond_counts[k] (k >= 1) bonds in all.  Entries
    below the first valid index are None; the sequences may end before
    `generations`, at an integer horizon.
    """

    generations: int
    backbone_pairs: tuple
    branches_pairs: tuple
    bond_counts_pairs: tuple

    backbone = _int_view("backbone_pairs")
    branches = _int_view("branches_pairs")
    bond_counts = _int_view("bond_counts_pairs")

    def checked_generation(self, generation: int | None) -> int:
        """generation, or `generations` for None; a generation outside
        1..generations raises ValueError."""
        j = self.generations if generation is None else generation
        if not 1 <= j <= self.generations:
            raise ValueError(f"generation must be in 1..{self.generations}")
        return j

    def bond_pair(self, k: int) -> Dyadic | None:
        """bond_counts_pairs[k], or None past the integer horizon."""
        pairs = self.bond_counts_pairs
        return pairs[k] if k < len(pairs) else None


def _bond_counts(backbone, branches) -> tuple:
    """The bond counts of the levels, as pairs: level 1 is its backbone,
    and level k adds branches[k] copies of level k-1 to its backbone."""
    counts = [None, backbone[1]]
    for k in range(2, len(backbone)):
        counts.append(backbone[k] + branches[k] * counts[k - 1])
    return tuple(counts)


class TowerParams(namedtuple("TowerParams", Levels._fields
                             + ("a0", "tower_pairs", "first_gen_pairs")),
                  Levels):
    """The Levels of the doubly exponential family, plus its seed and
    tower[k] = a_k and first_gen[k] = a_k^2 (k >= 0), as pairs and int
    views.  Level k exists while tower[k-1] <= MAX_INT_BITS, so that
    2^tower[k-1] can be materialized; every sequence ends at the last
    such level or at `generations`, whichever comes first.  Every odd
    part has at most 41 bits; `analyze` reads only the pairs and builds
    no megabit integer.  The fields are those of Levels, then a0,
    tower_pairs and first_gen_pairs.
    """

    __slots__ = ()

    tower = _int_view("tower_pairs")
    first_gen = _int_view("first_gen_pairs")


def _exact_quotient(num: Dyadic, den: Dyadic, a0: int, k: int,
                    identity: str) -> Dyadic:
    """num / den where the family's identity says den divides num.

    Every divisor the family produces is a power of two, so the division
    subtracts exponents.  A divisor that is not a power of two, or a
    larger power of two than num holds, raises InternalMismatch naming
    a0, k and the identity.
    """
    num_odd, num_exp = num
    den_odd, den_exp = den
    if den_odd != 1 or den_exp > num_exp:
        raise _broken(a0, k, identity)
    return Dyadic((num_odd, num_exp - den_exp))


def _broken(a0: int, k: int, identity: str) -> InternalMismatch:
    return InternalMismatch(
        f"tower identity {identity} fails at a0={a0}, k={k}")


def _derived_levels(a0: int, first_gen: list) -> tuple:
    """Backbone lengths and branch counts from first_gen, as Dyadic pairs.

    Divisibility of backbone lengths by branch counts, the spacing
    backbone[k]/branches[k] == 4*first_gen[k-2] between attachment
    points, and its clearing backbone[k-2] are identities for this
    family; they are checked exactly on every materializable level, as
    it is built, and raise InternalMismatch when one fails.
    """
    backbone: list = [None, first_gen[1]]
    branches: list = [None, None]
    for k in range(2, len(first_gen)):
        gap = _FOUR * first_gen[k - 2]
        backbone.append(_exact_quotient(
            first_gen[k] * gap, first_gen[k - 1], a0, k,
            "first_gen[k-1] | 4*first_gen[k]*first_gen[k-2]"))
        branches.append(_exact_quotient(
            first_gen[k], first_gen[k - 1], a0, k,
            "first_gen[k-1] | first_gen[k]"))
        if backbone[k] <= backbone[k - 1]:
            raise _broken(a0, k, "backbone[k] > backbone[k-1]")
        spacing = _exact_quotient(backbone[k], branches[k], a0, k,
                                  "branches[k] | backbone[k]")
        if spacing != gap:
            raise _broken(a0, k, "spacing(k) == 4*first_gen[k-2]")
        if k >= 3:
            if spacing <= backbone[k - 2]:
                raise _broken(a0, k, "spacing(k) > backbone[k-2]")
            if branches[k] <= branches[k - 1]:
                raise _broken(a0, k, "branches[k] > branches[k-1]")
    return tuple(backbone), tuple(branches)


def tower_params(a0: int, generations: int) -> TowerParams:
    """Compute all derived sequences for seed a0 up to the given generation.

    Every tower value past the seed is a power of two, and so is every
    first-generation count past index 0: as Dyadic pairs they are
    (1, exponent), and every derived level is a pair too.  No level is
    formed as an int here, so analyze never builds a megabit integer,
    in log mode or in exact mode; TowerParams forms one when a caller
    reads it, as an exact weight does and `gen tower` for a tree it
    lays out.
    The identities of the family are checked by _derived_levels, which
    raises InternalMismatch when one fails.  A seed past MAX_INT_BITS,
    whose first level cannot be materialized, raises TooLarge.
    """
    if a0 < 1:
        raise ValueError("a0 must be >= 1")
    if generations < 1:
        raise ValueError("generations must be >= 1")
    if a0 > MAX_INT_BITS:
        raise TooLarge(f"a0={a0}: 2^a0 exceeds the {MAX_INT_BITS}-bit budget")
    tower: list = [Dyadic.of(a0)]
    first_gen: list = [tower[0] * tower[0]]
    # a is the last tower value while it is at most MAX_INT_BITS; a larger
    # one is kept only as a pair and is the exponent of no further level
    a = a0
    while len(tower) <= generations and a is not None:
        tower.append(Dyadic((1, a)))
        first_gen.append(Dyadic((1, 2 * a)))
        a = 1 << a if a <= _MAX_EXPONENT else None
    backbone, branches = _derived_levels(a0, first_gen)

    # positional: keywords double the cost of a call this frequent
    return TowerParams(generations, backbone, branches,
                       _bond_counts(backbone, branches),
                       a0, tuple(tower), tuple(first_gen))


# --- hierarchical embedding -------------------------------------------------

def _emit_level(level, origin, direction, backbone, branches, out):
    """Append the backbone of one nesting level as (run, level), then
    recurse into the branches at every spacing-th site along it."""
    length = backbone[level]
    (x, y), (dx, dy) = origin, direction
    out.append(((x, y, dx, dy, length), level))
    if level >= 2:
        spacing = length // branches[level]
        for i in range(spacing, length + 1, spacing):
            _emit_level(
                level - 1, (x + i * dx, y + i * dy), _ROTATE[direction],
                backbone, branches, out,
            )


def _build(levels: Levels, generation: int | None):
    """The tree of a generation of `levels` (None: the last) and its
    runs of bonds, each as (run, nesting level).  The bond count is held
    to MAX_TREE_BONDS on its pair, so a refused tree forms no level int;
    a tree built to another size raises InternalMismatch."""
    j = levels.checked_generation(generation)
    total = levels.bond_pair(j)
    guard_tree_bonds(total, MAX_TREE_BONDS)
    leveled_runs: list = []
    _emit_level(j, (0, 0), (1, 0), levels.backbone, levels.branches,
                leveled_runs)
    try:
        tree = tree_from_runs((0, 0), (run for run, _ in leveled_runs))
    except DuplicateBond as exc:
        raise OverlapDetected("two branches produced the same bond") from exc
    except (HasCycle, NotConnected) as exc:
        raise OverlapDetected(f"embedding is not a tree: {exc}") from exc
    if tree.bond_count != int(total):
        raise InternalMismatch(f"built {tree.bond_count} bonds at generation "
                               f"{j}; bond_counts[{j}] gives {int(total)}")
    return tree, leveled_runs


def _labels(leveled_runs) -> dict[tuple[Site, Site], int]:
    """Map each bond of the runs, as a (lower, upper) pair, to its level."""
    labels = {}
    for (x, y, dx, dy, length), level in leveled_runs:
        for i in range(length):
            a = (x + i * dx, y + i * dy)
            labels[tuple(sorted((a, (a[0] + dx, a[1] + dy))))] = level
    return labels


def custom_levels(ells, bs) -> Levels:
    """The Levels of backbone lengths ell_1..ell_m and branch counts
    b_2..b_m, checked as custom_hierarchical_tree says."""
    ells, bs = tuple(ells), tuple(bs)
    for v in ells + bs:   # int() would truncate 2.9 and accept True and "2"
        if type(v) is not int:
            raise ConstraintViolated(f"parameters must be integers, got {v!r}")
    if not ells:
        raise ConstraintViolated("need at least one backbone length")
    if len(bs) != len(ells) - 1:
        raise ConstraintViolated(
            f"need one branch count per level above the first: "
            f"{len(ells)} lengths but {len(bs)} counts"
        )
    if any(v < 1 for v in ells + bs):
        raise ConstraintViolated("all parameters must be positive")
    for a, b in zip(ells, ells[1:]):
        if b <= a:
            raise ConstraintViolated(
                f"backbone lengths must strictly increase: {a} !< {b}"
            )
    for a, b in zip(bs, bs[1:]):
        if b < a:
            raise ConstraintViolated(
                f"branch counts must not decrease: {a} > {b}"
            )
    # re-index to generation numbers: ell[k] for k=1..m, b[k] for k=2..m
    ell = (None,) + ells
    b = (None, None) + bs
    for k in range(2, len(ell)):
        if ell[k] % b[k]:
            raise ConstraintViolated(
                f"branch count {b[k]} does not divide backbone length {ell[k]}"
            )
    for k in range(3, len(ell)):
        if ell[k] // b[k] <= ell[k - 2]:
            raise ConstraintViolated(
                f"spacing {ell[k] // b[k]} at level {k} does not clear the "
                f"level-{k - 2} backbone of length {ell[k - 2]}"
            )
    backbone = (None,) + tuple(map(Dyadic.of, ells))
    branches = (None, None) + tuple(map(Dyadic.of, bs))
    return Levels(len(ells), backbone, branches,
                  _bond_counts(backbone, branches))


def custom_hierarchical_tree(ells, bs) -> RootedTree:
    """Build a hierarchical tree from backbone lengths ell_1..ell_m and
    branch counts b_2..b_m, with branches at spacing ell_k/b_k as in the
    tower family.  Constraint failures raise ConstraintViolated naming
    the constraint; trees past MAX_TREE_BONDS raise TooLarge."""
    return _build(custom_levels(ells, bs), None)[0]


def tower_tree(params: TowerParams, generations: int | None = None) -> RootedTree:
    """Materialize the tower-family tree for the given generation.

    Only small generations exist as coordinates: the guard refuses
    anything past MAX_TREE_BONDS bonds (already generation 2 at a0=20).
    """
    return _build(params, generations)[0]


def tower_tree_generations(params: TowerParams, generations: int | None = None):
    """Like `tower_tree`, plus each bond's nesting level by endpoint pair."""
    tree, leveled_runs = _build(params, generations)
    return tree, _labels(leveled_runs)
