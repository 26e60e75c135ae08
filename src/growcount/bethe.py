"""Exhaustive growth-order counting on the coordination-3 Bethe lattice.

Sites are addressed by strings: the root's three neighbors are "0", "1",
"2", and every other site has two children reached by appending "0" or
"1".  Since each non-root site has a unique parent, a bond is identified
with its far endpoint, so a rooted subtree is simply a set of addresses
closed under the parent operation.

Growing any subtree one bond at a time always offers n+3 choices after n
additions, which makes the total number of growth sequences across all
L-bond subtrees equal to 3*4*...*(L+2).  Dividing by the (much smaller)
number of distinct subtrees shows some single subtree must have a huge
growth count; this module verifies the whole chain by brute force.

Brute force here means that every growth sequence's (L-1)-step prefix
has its frontier built and every subtree is visited and counted; only
the last step of a sequence is counted from its frontier's length.
Addresses are strings at the API (`bethe_trees`, the report, the
per-subtree routes) and ints inside the two enumerations: the ints
number the addresses breadth first, children from
`children_addresses`, and each enumeration changes one list in place
and restores it, so no step builds a new frontier or address string.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import linear_extension_count
from .errors import InternalMismatch, TooLarge

MAX_BONDS = 8

_ROOT_FRONTIER = ("0", "1", "2")


def children_addresses(address: str) -> tuple[str, str]:
    return (address + "0", address + "1")


def _address_table(bond_count: int) -> tuple[list, list, list]:
    """Number, breadth first, the addresses an L-bond subtree or growth
    sequence can reach.

    Address i is names[i].  Each address at most L-2 generations below
    the root's neighbors (the deepest that a step before the last can
    take) has the children first[i] and those in the tuple more[i],
    numbered from `children_addresses`.
    """
    names = list(_ROOT_FRONTIER)
    first, more = [], []
    start = 0
    for _ in range(bond_count - 1):
        end = len(names)
        for i in range(start, end):
            kids = children_addresses(names[i])
            first.append(len(names))
            more.append(tuple(range(len(names) + 1, len(names) + len(kids))))
            names.extend(kids)
        start = end
    return names, first, more


def bethe_growth_count(bond_count: int) -> int:
    """Count all growth sequences of length `bond_count` by brute force.

    Addresses are ints inside the count (see `_address_table`).  One
    frontier list of n addresses is changed in place: a step puts the
    taken address's first child in its slot and its other children in
    frontier[n:], the search goes on, and the slot is restored.  The
    next step overwrites frontier[n:], and it is cut off once every
    address has been taken.  Every prefix of length L-1 is still built;
    the last step is counted from that frontier's length, since each of
    its addresses completes the prefix in exactly one way.  Checked on
    the spot against the closed form (L+2)!/2; a mismatch would be an
    enumeration bug.
    """
    _check_bonds(bond_count)
    _, first, more = _address_table(bond_count)
    frontier = list(range(len(_ROOT_FRONTIER)))

    def rec(left: int) -> int:
        total = 0
        n = len(frontier)
        tail = slice(n, None)
        for i in range(n):
            addr = frontier[i]
            frontier[i] = first[addr]
            frontier[tail] = more[addr]
            # a prefix of length L-1 is measured, a shorter one extended
            total += len(frontier) if left == 2 else rec(left - 1)
            frontier[i] = addr
        del frontier[tail]
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
    ordered queue of (address, position of its parent among the taken
    addresses), and every address is either taken (opening its
    children) or skipped for good.  A subtree's count is L!/W, with the
    hook sizes of W summed in one reverse pass over the parent
    positions, since every parent is taken before its children.
    """
    _check_bonds(bond_count)
    names, first, more = _address_table(bond_count)
    factorial = math.factorial(bond_count)
    queue = [(addr, -1) for addr in range(len(_ROOT_FRONTIER))]
    chosen, parent = [], []
    trees, counts = [], []
    backwards = range(bond_count - 1, -1, -1)

    def rec(start: int, left: int):
        end = len(queue)
        if left == 1:   # take one more address and count the subtree
            for r in range(start, end):
                addr, up = queue[r]
                chosen.append(names[addr])
                parent.append(up)
                # the slot past the last takes the root neighbors' -1
                size = [1] * (bond_count + 1)
                w = 1
                for j in backwards:
                    w *= size[j]
                    size[parent[j]] += size[j]
                n, rem = divmod(factorial, w)
                if rem:
                    raise InternalMismatch(
                        f"L! not divisible by weights for {sorted(chosen)}")
                trees.append(frozenset(chosen))
                counts.append(n)
                chosen.pop()
                parent.pop()
            return
        at = len(chosen)
        for r in range(start, end):
            addr, up = queue[r]
            chosen.append(names[addr])
            parent.append(up)
            queue.append((first[addr], at))
            queue.extend((kid, at) for kid in more[addr])
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


def bethe_tree_count(bond_count: int) -> int:
    """Number of distinct rooted subtrees, by exhaustive enumeration."""
    return len(bethe_trees(bond_count))


def tree_children_map(tree: frozenset) -> tuple[dict, list]:
    """Children lists and root bonds of one subtree, for the forest helpers."""
    children = {
        addr: [c for c in children_addresses(addr) if c in tree]
        for addr in tree
    }
    roots = sorted(a for a in tree if len(a) == 1)
    return children, roots


def tree_growth_count(tree: frozenset) -> int:
    """Growth orders of one subtree via the hook product L!/W.

    The hook of a bond is the size of the subtree at its far endpoint.
    Sizes are summed straight from the addresses: walking them longest
    first, each size is final when it is reached, so it enters W and is
    added to the entry of its parent, addr[:-1].  This is the
    independent hook-product route: it uses neither the sequence
    enumeration it is checked against nor core's prime powers, and it
    divides L! by W with divmod on purpose.  At L <= 8 the prime route
    measured 6.0 us against 0.3 us per call, and `bethe 8` makes 11,934
    calls.
    """
    size = dict.fromkeys(tree, 1)
    w = 1
    for addr in sorted(tree, key=len, reverse=True):
        w *= size[addr]
        if len(addr) > 1:
            size[addr[:-1]] += size[addr]
    n, rem = divmod(math.factorial(len(tree)), w)
    if rem:
        raise InternalMismatch(f"L! not divisible by weights for {sorted(tree)}")
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
    maximizer: tuple
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
        maximizer=tuple(sorted(best)), maximizer_count=best_n, trees=trees,
        counts=counts,
    )


def _check_bonds(bond_count: int):
    if bond_count < 1:
        raise ValueError("bond_count must be >= 1")
    if bond_count > MAX_BONDS:
        raise TooLarge(
            f"L={bond_count} exceeds the enumeration guard {MAX_BONDS}"
        )
