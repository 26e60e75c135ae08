"""Exhaustive growth-order counting on the coordination-3 Bethe lattice.

Sites are numbered like a binary heap: the root's three neighbors are
4, 5 and 6 (binary 100, 101, 110), and the two children of site a are
2a and 2a+1, so the parent of a is a >> 1 and every child is numbered
above its parent.  Since each non-root site has a unique parent, a bond
is identified with its far endpoint, so a rooted subtree is simply a
set of sites closed under the parent operation.  `address_name` spells
a site for a reader: the root neighbor's digit "0", "1" or "2", then
one binary digit per step down; only the report and error texts use it.

Growing any subtree one bond at a time always offers n+3 choices after n
additions, which makes the total number of growth sequences across all
L-bond subtrees equal to 3*4*...*(L+2).  Dividing by the (much smaller)
number of distinct subtrees shows some single subtree must have a huge
growth count; this module verifies the whole chain by brute force.

Brute force here means that every growth sequence's (L-1)-step prefix
has its frontier built and every subtree is visited and counted; only
the last step of a sequence is counted from its frontier's length.
Each enumeration changes one list in place and restores it, so no step
builds a new frontier.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import linear_extension_count
from .errors import InternalMismatch, TooLarge

MAX_BONDS = 8

ROOT_NEIGHBORS = (4, 5, 6)


def address_name(site: int) -> str:
    """The printed name of a site, e.g. 4 -> "0" and 13 -> "21"."""
    depth = site.bit_length() - 3
    return "012"[(site >> depth) - 4] + format(site, "b")[3:]


def bethe_growth_count(bond_count: int) -> int:
    """Count all growth sequences of length `bond_count` by brute force.

    One frontier list of n sites is changed in place: a step puts the
    taken site's child 2a in its slot and appends 2a+1, the search goes
    on, and both are undone.  Every prefix of length L-1 is still built;
    the last step is counted from that frontier's length, since each of
    its sites completes the prefix in exactly one way.  Checked on the
    spot against the closed form (L+2)!/2; a mismatch would be an
    enumeration bug.
    """
    _check_bonds(bond_count)
    frontier = list(ROOT_NEIGHBORS)

    def rec(left: int) -> int:
        total = 0
        for i in range(len(frontier)):
            site = frontier[i]
            frontier[i] = site << 1
            frontier.append(site << 1 | 1)
            # a prefix of length L-1 is measured, a shorter one extended
            total += len(frontier) if left == 2 else rec(left - 1)
            frontier.pop()
            frontier[i] = site
        return total

    count = rec(bond_count) if bond_count > 1 else len(frontier)
    closed = math.factorial(bond_count + 2) // 2
    if count != closed:
        raise InternalMismatch(
            f"enumerated {count} growth sequences at L={bond_count}, "
            f"closed form gives {closed}"
        )
    return count


def bethe_census(bond_count: int) -> tuple[list[frozenset], list[int]]:
    """All distinct rooted subtrees with `bond_count` bonds, each with its
    growth count.

    Each subtree is visited exactly once: the frontier is consumed as an
    ordered queue of (site, position of its parent among the taken
    sites), and every site is either taken (opening its children) or
    skipped for good.  A subtree's count is L!/W, with the hook sizes
    of W summed in one reverse pass over the parent positions, since
    every parent is taken before its children.
    """
    _check_bonds(bond_count)
    factorial = math.factorial(bond_count)
    queue = [(site, -1) for site in ROOT_NEIGHBORS]
    chosen, parent = [], []
    trees, counts = [], []
    backwards = range(bond_count - 1, -1, -1)

    def rec(start: int, left: int):
        end = len(queue)
        if left == 1:   # take one more site and count the subtree
            for r in range(start, end):
                site, up = queue[r]
                chosen.append(site)
                parent.append(up)
                # the slot past the last takes the root neighbors' -1
                size = [1] * (bond_count + 1)
                w = 1
                for j in backwards:
                    w *= size[j]
                    size[parent[j]] += size[j]
                n, rem = divmod(factorial, w)
                if rem:
                    raise InternalMismatch("L! not divisible by weights "
                                           f"for {_names(chosen)}")
                trees.append(frozenset(chosen))
                counts.append(n)
                chosen.pop()
                parent.pop()
            return
        at = len(chosen)
        for r in range(start, end):
            site, up = queue[r]
            chosen.append(site)
            parent.append(up)
            queue.append((site << 1, at))
            queue.append((site << 1 | 1, at))
            rec(r + 1, left - 1)
            del queue[end:]
            chosen.pop()
            parent.pop()

    rec(0, bond_count)
    return trees, counts


def bethe_trees(bond_count: int) -> list[frozenset]:
    """All distinct rooted subtrees with `bond_count` bonds, in the
    order `bethe_census` visits them."""
    return bethe_census(bond_count)[0]


def tree_children_map(tree: frozenset) -> tuple[dict, list]:
    """Children lists and root bonds of one subtree, for the forest helpers."""
    children = {
        site: [c for c in (site << 1, site << 1 | 1) if c in tree]
        for site in tree
    }
    roots = sorted(site for site in tree if site in ROOT_NEIGHBORS)
    return children, roots


def tree_growth_count(tree: frozenset) -> int:
    """Growth orders of one subtree via the hook product L!/W.

    The hook of a bond is the size of the subtree at its far endpoint.
    Sizes are summed straight from the sites: walking them from the
    highest number down, each size is final when it is reached, so it
    enters W and is added to the entry of its parent, site >> 1.  This
    is the independent hook-product route: it uses neither the sequence
    enumeration it is checked against nor core's prime powers, and it
    divides L! by W with divmod on purpose.  At L <= 8 the prime route
    measured 6.0 us against 0.3 us per call.
    """
    size = dict.fromkeys(tree, 1)
    w = 1
    for site in sorted(tree, reverse=True):
        w *= size[site]
        if site not in ROOT_NEIGHBORS:
            size[site >> 1] += size[site]
    n, rem = divmod(math.factorial(len(tree)), w)
    if rem:
        raise InternalMismatch(f"L! not divisible by weights for {_names(tree)}")
    return n


def tree_growth_count_enumerated(tree: frozenset) -> int:
    """Growth orders of one subtree by brute-force linear extensions."""
    children, roots = tree_children_map(tree)
    return linear_extension_count(children, roots)


@dataclass(frozen=True)
class BetheBoundReport:
    """Existence bound: some subtree has at least `average` growth orders.

    average = growth_count / tree_count is exact; naive_floor is the
    cruder L!/9^L comparison that the average provably beats.
    """

    bond_count: int
    growth_count: int
    tree_count: int
    average: Fraction
    average_floor: Fraction   # (L+2)!/(2*9^L)
    naive_floor: Fraction     # L!/9^L
    maximizer: tuple          # names of the sites, sorted
    maximizer_count: int
    # the enumerated subtrees and their counts, for per-subtree checks;
    # not in to_dict
    trees: list = field(default_factory=list, repr=False, compare=False)
    counts: list = field(default_factory=list, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "L": self.bond_count,
            "growthCount": str(self.growth_count),
            "treeCount": str(self.tree_count),
            "averageBound": float(self.average),
            "factorialFloor": float(self.naive_floor),
            "maximizerAddressList": list(self.maximizer),
            "maximizerN": str(self.maximizer_count),
        }


def bethe_existence_bound(bond_count: int) -> BetheBoundReport:
    """Run the whole pigeonhole argument at one size and report it.

    Verifies the partition identity (per-tree counts sum to the total
    sequence count), the 9^L cap on the number of subtrees, and that the
    average beats L!/9^L.  Returns the maximizing subtree found.
    """
    _check_bonds(bond_count)
    total = bethe_growth_count(bond_count)
    trees, counts = bethe_census(bond_count)
    count = len(trees)
    if count > 9 ** bond_count:
        raise InternalMismatch(
            f"{count} subtrees at L={bond_count} exceeds 9^L"
        )
    partition = sum(counts)
    if partition != total:
        raise InternalMismatch(
            f"per-tree counts sum to {partition}, sequences total {total}"
        )
    # the first subtree with the largest count
    best_n = max(counts)
    best = trees[counts.index(best_n)]

    average = Fraction(total, count)
    average_floor = Fraction(math.factorial(bond_count + 2), 2 * 9 ** bond_count)
    naive_floor = Fraction(math.factorial(bond_count), 9 ** bond_count)
    if average < average_floor or average <= naive_floor:
        raise InternalMismatch(f"average bound chain broken at L={bond_count}")
    if best_n < average:
        raise InternalMismatch(f"maximizer below average at L={bond_count}")
    return BetheBoundReport(
        bond_count=bond_count, growth_count=total, tree_count=count,
        average=average, average_floor=average_floor, naive_floor=naive_floor,
        maximizer=tuple(_names(best)), maximizer_count=best_n, trees=trees,
        counts=counts,
    )


def _names(sites) -> list[str]:
    return sorted(map(address_name, sites))


def _check_bonds(bond_count: int):
    if bond_count < 1:
        raise ValueError("bond_count must be >= 1")
    if bond_count > MAX_BONDS:
        raise TooLarge(
            f"L={bond_count} exceeds the enumeration guard {MAX_BONDS}"
        )
