"""Constructors for specific tree families.

Besides paths and combs, this module builds the recursively branched
family controlled by a tower sequence a_k = 2^(a_{k-1}): generation j
is a straight backbone carrying equally spaced, 90-degree-rotated
copies of generation j-1.  The derived sequences grow so fast that
integers stop being materializable after a few levels; TowerParams
keeps exact values up to a bit-size horizon and ends there, however
many generations are asked for.  Everything the log-domain analytics
needs survives past the horizon.
"""

import itertools
from dataclasses import dataclass, field

# MAX_TREE_BONDS and the guard's text live in core, which guards `count`
# and random trees with them; the guards here read this module's name
from .core import (
    MAX_TREE_BONDS,
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

@dataclass(frozen=True)
class TowerParams:
    """Derived sequences for the doubly exponential tree family.

    All sequences are indexed by generation k and padded with None below
    their first valid index: tower[k] = a_k for k >= 0, first_gen[k] =
    a_k^2 for k >= 0, backbone[k] (k >= 1) is the backbone length,
    branches[k] (k >= 2) the number of sub-copies, bond_counts[k]
    (k >= 1) the total number of bonds.  Level k exists while
    tower[k-1] <= MAX_INT_BITS, so that 2^tower[k-1] can be
    materialized; every sequence ends at the last such level or at
    `generations`, whichever comes first.
    """

    a0: int
    generations: int
    tower: tuple = field(repr=False)
    first_gen: tuple = field(repr=False)
    backbone: tuple = field(repr=False)
    branches: tuple = field(repr=False)
    bond_counts: tuple = field(repr=False)

    def bonds(self, k: int) -> int | None:
        """bond_counts[k], or None past the integer horizon."""
        return self.bond_counts[k] if k < len(self.bond_counts) else None


def _exact_quotient(num: int, den: int, a0: int, k: int, identity: str) -> int:
    """num // den where the family's identity says den divides num.

    Every divisor the family produces is a power of two, so the division
    is a shift whose low bits must be zero.  A divisor that is not a
    power of two, or nonzero low bits, raises InternalMismatch naming
    a0, k and the identity.
    """
    if den.bit_count() != 1:
        raise _broken(a0, k, identity)
    shift = den.bit_length() - 1
    if num & ((1 << shift) - 1):
        raise _broken(a0, k, identity)
    return num >> shift


def _broken(a0: int, k: int, identity: str) -> InternalMismatch:
    return InternalMismatch(
        f"tower identity {identity} fails at a0={a0}, k={k}")


def _derived_levels(a0: int, first_gen: list) -> tuple:
    """Backbone lengths, branch counts and bond counts from first_gen.

    Divisibility of backbone lengths by branch counts, the spacing
    backbone[k]/branches[k] == 4*first_gen[k-2] between attachment
    points, and its clearing backbone[k-2] are identities for this
    family; they are checked on every materializable level and raise
    InternalMismatch when one fails.
    """
    levels = range(2, len(first_gen))
    backbone: list = [None, first_gen[1]]
    branches: list = [None, None]
    bond_counts: list = [None, first_gen[1]]
    for k in levels:
        backbone.append(_exact_quotient(
            4 * first_gen[k] * first_gen[k - 2], first_gen[k - 1], a0, k,
            "first_gen[k-1] | 4*first_gen[k]*first_gen[k-2]"))
        branches.append(_exact_quotient(
            first_gen[k], first_gen[k - 1], a0, k,
            "first_gen[k-1] | first_gen[k]"))
        bond_counts.append(backbone[k] + branches[k] * bond_counts[k - 1])

    for k in levels:
        if backbone[k] <= backbone[k - 1]:
            raise _broken(a0, k, "backbone[k] > backbone[k-1]")
        spacing = _exact_quotient(backbone[k], branches[k], a0, k,
                                  "branches[k] | backbone[k]")
        if spacing != 4 * first_gen[k - 2]:
            raise _broken(a0, k, "spacing(k) == 4*first_gen[k-2]")
        if k >= 3:
            if spacing <= backbone[k - 2]:
                raise _broken(a0, k, "spacing(k) > backbone[k-2]")
            if branches[k] <= branches[k - 1]:
                raise _broken(a0, k, "branches[k] > branches[k-1]")
    return backbone, branches, bond_counts


def tower_params(a0: int, generations: int) -> TowerParams:
    """Compute all derived sequences for seed a0 up to the given generation.

    Every tower value past the seed is a power of two, and so is every
    first-generation count past index 0: those are formed by shifts, and
    the exact divisions by them are shifts too.  The identities of the
    family are checked by _derived_levels, which raises InternalMismatch
    when one fails.  A seed past MAX_INT_BITS, whose first level cannot
    be materialized, raises TooLarge.
    """
    if a0 < 1:
        raise ValueError("a0 must be >= 1")
    if generations < 1:
        raise ValueError("generations must be >= 1")
    if a0 > MAX_INT_BITS:
        raise TooLarge(f"a0={a0}: 2^a0 exceeds the {MAX_INT_BITS}-bit budget")
    tower: list = [a0]
    first_gen: list = [a0 * a0]
    # stop at the horizon: 2 to a power past MAX_INT_BITS is never formed
    while len(tower) <= generations and tower[-1] <= MAX_INT_BITS:
        prev = tower[-1]
        tower.append(1 << prev)
        first_gen.append(1 << 2 * prev)
    backbone, branches, bond_counts = _derived_levels(a0, first_gen)

    return TowerParams(
        a0=a0,
        generations=generations,
        tower=tuple(tower),
        first_gen=tuple(first_gen),
        backbone=tuple(backbone),
        branches=tuple(branches),
        bond_counts=tuple(bond_counts),
    )


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


def _build(backbone, branches, levels: int, total, describe: str):
    """The tree and its runs of bonds, each as (run, nesting level).

    backbone and branches are indexed by generation; total is the bond
    count the recurrence gives (None past the integer horizon).  A total
    past MAX_TREE_BONDS raises TooLarge before any bond is laid, and a
    built tree of another size raises InternalMismatch, reading
    "built N bonds {describe} {total}".
    """
    guard_tree_bonds(total, MAX_TREE_BONDS)
    leveled_runs: list = []
    _emit_level(levels, (0, 0), (1, 0), backbone, branches, leveled_runs)
    try:
        tree = tree_from_runs((0, 0), (run for run, _ in leveled_runs))
    except DuplicateBond as exc:
        raise OverlapDetected("two branches produced the same bond") from exc
    except (HasCycle, NotConnected) as exc:
        raise OverlapDetected(f"embedding is not a tree: {exc}") from exc
    if tree.bond_count != total:
        raise InternalMismatch(
            f"built {tree.bond_count} bonds {describe} {total}")
    return tree, leveled_runs


def _labels(leveled_runs) -> dict[tuple[Site, Site], int]:
    """Map each bond of the runs, as a (lower, upper) pair, to its level."""
    labels = {}
    for (x, y, dx, dy, length), level in leveled_runs:
        for i in range(length):
            a = (x + i * dx, y + i * dy)
            labels[tuple(sorted((a, (a[0] + dx, a[1] + dy))))] = level
    return labels


def _check_custom(ells, bs):
    ells = tuple(int(v) for v in ells)
    bs = tuple(int(v) for v in bs)
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
    m = len(ells)
    for k in range(2, m + 1):
        if ell[k] % b[k]:
            raise ConstraintViolated(
                f"branch count {b[k]} does not divide backbone length {ell[k]}"
            )
    for k in range(3, m + 1):
        if ell[k] // b[k] <= ell[k - 2]:
            raise ConstraintViolated(
                f"spacing {ell[k] // b[k]} at level {k} does not clear the "
                f"level-{k - 2} backbone of length {ell[k - 2]}"
            )
    total = ell[1]
    for k in range(2, m + 1):
        total = ell[k] + b[k] * total
    return ell, b, m, total


def custom_hierarchical_tree(ells, bs) -> RootedTree:
    """Build a hierarchical tree from caller-chosen backbone lengths and
    branch counts (lengths ell_1..ell_m, counts b_2..b_m).

    The same embedding as the tower family: branches sit at spacing
    ell_k/b_k along the backbone and each nesting level is rotated +90
    degrees.  Constraint failures raise ConstraintViolated naming the
    constraint; trees past MAX_TREE_BONDS raise TooLarge.
    """
    ell, b, m, total = _check_custom(ells, bs)
    return _build(ell, b, m, total, f"from lengths {list(ell[1:])} and "
                  f"counts {list(b[2:])}; the recurrence gives")[0]


def _tower(params: TowerParams, generations: int | None):
    j = params.generations if generations is None else generations
    if not 1 <= j <= params.generations:
        raise ValueError(f"generation must be in 1..{params.generations}")
    return _build(params.backbone, params.branches, j, params.bonds(j),
                  f"for a0={params.a0}, generation {j}; bond_counts[{j}] gives")


def tower_tree(params: TowerParams, generations: int | None = None) -> RootedTree:
    """Materialize the tower-family tree for the given generation.

    Only small generations exist as coordinates: the guard refuses
    anything past MAX_TREE_BONDS bonds (already generation 2 at a0=20).
    """
    return _tower(params, generations)[0]


def tower_tree_generations(params: TowerParams, generations: int | None = None):
    """Like `tower_tree`, plus each bond's nesting level by endpoint pair."""
    tree, leveled_runs = _tower(params, generations)
    return tree, _labels(leveled_runs)
