"""Rooted trees on the square lattice and exact growth-order counting.

A tree here is a finite, connected, cycle-free set of unit bonds on the
integer grid together with a root site incident to at least one bond.
Growing a tree means adding its bonds one at a time so that after every
step the added bonds form a connected graph containing the root.

The number of distinct growth orders is L! / W(T), where W(T) is the
product over bonds of (1 + number of bonds strictly downstream).  The
division is always exact.  `growth_count` never divides: it builds N
from prime exponents, Legendre's formula for L! minus the exponents in
the hook sizes, and every exponent coming out non-negative is its
certificate of exactness.  An independent brute-force enumerator
(`enumerate_growth_orders`) is kept around as an oracle for the
identity.

Growth orders are exactly the linear extensions of the bond forest
obtained by orienting every bond away from the root, so the counting
helpers at the bottom of this module work on any forest given as
children lists, not just on lattice trees.  The Bethe-lattice module
reuses them.
"""

import decimal
import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    CapExceeded,
    DuplicateBond,
    HasCycle,
    InternalNonDivisible,
    NotConnected,
    RootDetached,
    Stuck,
)

Site = tuple[int, int]

# unit steps on the square lattice, in a fixed order for determinism
NEIGHBOR_STEPS = ((0, -1), (-1, 0), (1, 0), (0, 1))


class Bond(NamedTuple):
    """An unordered lattice bond, stored with endpoints in lexicographic order."""

    u: Site
    v: Site

    @classmethod
    def between(cls, a: Site, b: Site) -> "Bond":
        a = (int(a[0]), int(a[1]))
        b = (int(b[0]), int(b[1]))
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            raise ValueError(f"bond endpoints must be at unit distance: {a} {b}")
        return cls(a, b) if a < b else cls(b, a)

    def other(self, site: Site) -> Site:
        if site == self.u:
            return self.v
        if site == self.v:
            return self.u
        raise ValueError(f"{site} is not an endpoint of {self}")

    def touches(self, site: Site) -> bool:
        return site == self.u or site == self.v


@dataclass(frozen=True)
class RootedTree:
    """A validated rooted lattice tree.  Build instances via `validate_tree`.

    `bonds` is sorted canonically, so two equal trees compare equal and
    serialize to identical bytes.
    """

    root: Site
    bonds: tuple[Bond, ...]

    @property
    def bond_count(self) -> int:
        return len(self.bonds)

    @cached_property
    def sites(self) -> frozenset[Site]:
        out = set()
        for b in self.bonds:
            out.add(b.u)
            out.add(b.v)
        return frozenset(out)

    @cached_property
    def _weight_table(self) -> "WeightTable":
        # shared by tree_weight and growth_count, so that `count` makes
        # one weight pass for both W and N
        return downstream_weights(self)


@dataclass(frozen=True)
class WeightTable:
    """Downstream weights, one entry per bond of the tree they came from."""

    weights: Mapping[Bond, int]

    def __getitem__(self, bond: Bond) -> int:
        return self.weights[bond]

    def __len__(self) -> int:
        return len(self.weights)

    def items(self):
        return self.weights.items()

    def product(self) -> int:
        return balanced_product(list(self.weights.values()))


def balanced_product(values: Sequence[int]) -> int:
    """Product of arbitrary-size integers by pairwise halving.

    Sequential accumulation is quadratic in total digit count; pairing
    keeps the factors balanced, which matters for trees with 10^5+ bonds.
    """
    vals = list(values)
    if not vals:
        return 1
    while len(vals) > 1:
        nxt = [vals[i] * vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def range_product(lo: int, hi: int) -> int:
    """Product of the integers lo..hi inclusive (1 when lo > hi)."""
    if lo > hi:
        return 1
    if hi - lo < 8:
        out = 1
        for n in range(lo, hi + 1):
            out *= n
        return out
    mid = (lo + hi) // 2
    return range_product(lo, mid) * range_product(mid + 1, hi)


# --- big integers -----------------------------------------------------------

# Below this many bits str() is as fast as the decimal route; above it
# the quadratic int-to-str of CPython 3.11 falls further behind.
STR_CUTOFF_BITS = 50_000
# the pieces to_decimal stops splitting at
_DECIMAL_LEAF_BITS = 2048


def to_decimal(n: int) -> str:
    """Exact decimal digits of n, the same string as str(n).

    Large n is split in halves by powers of two, recursively, and put
    back together in the decimal module, whose libmpdec multiplies in
    subquadratic time; this is how CPython 3.12 converts large ints.
    The context has unbounded precision and traps Inexact, so an
    approximate result raises instead of printing.
    """
    if n.bit_length() <= STR_CUTOFF_BITS:
        return str(n)
    if n < 0:
        return "-" + to_decimal(-n)
    powers: dict[int, decimal.Decimal] = {}

    def power(bits: int) -> decimal.Decimal:   # 2**bits
        if bits not in powers:
            if bits <= _DECIMAL_LEAF_BITS:
                powers[bits] = decimal.Decimal(1 << bits)
            else:
                half = bits >> 1
                powers[bits] = power(half) * power(bits - half)
        return powers[bits]

    def convert(value: int, bits: int) -> decimal.Decimal:
        if bits <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(value)
        half = bits >> 1
        high = value >> half
        low = value - (high << half)
        return convert(high, bits - half) * power(half) + convert(low, half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def factorial_quotient(total: int, hooks: Iterable[int]) -> int:
    """Exact total! / prod(hooks), built from prime exponents.

    Legendre's formula gives the exponent of a prime p in total! as the
    sum of total // q over the powers q = p**k <= total; every hook
    divisible by q takes one factor p away.  The counts of hooks
    divisible by q are slices of a table of hook sizes, so no long
    division and no total! is ever formed.  A negative exponent means
    the product does not divide total! and raises InternalNonDivisible,
    as does a hook outside 1..total.
    """
    sizes = [0] * (total + 1)
    for h in hooks:
        if not 1 <= h <= total:
            raise InternalNonDivisible(f"hook {h} outside 1..{total}")
        sizes[h] += 1
    sieve = bytearray([1]) * (total + 1)
    for p in range(2, math.isqrt(total) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, total + 1, p)))
    factors = []
    for p in itertools.compress(range(2, total + 1), sieve[2:]):
        exponent, q = 0, p
        while q <= total:
            exponent += total // q - sum(sizes[q::q])
            q *= p
        if exponent < 0:
            raise InternalNonDivisible(
                f"{total}! is not a multiple of the hook product "
                f"(prime {p} short by {-exponent})"
            )
        if exponent:
            factors.append(p ** exponent)
    return balanced_product(factors)


# --- validation and orientation --------------------------------------------

def validate_tree(root: Site, bonds: Iterable) -> RootedTree:
    """Check the tree axioms and return the canonical RootedTree.

    Raises DuplicateBond, RootDetached, NotConnected or HasCycle, in that
    order of checking.  Bonds may be given as Bond instances or raw
    endpoint pairs.
    """
    root = (int(root[0]), int(root[1]))
    blist = [b if isinstance(b, Bond) else Bond.between(*b) for b in bonds]
    if not blist:
        raise ValueError("a rooted tree needs at least one bond")
    bond_set = set()
    for b in blist:
        if b in bond_set:
            raise DuplicateBond(f"bond {b} listed twice")
        bond_set.add(b)

    incidence: dict[Site, list[Bond]] = {}
    for b in blist:
        incidence.setdefault(b.u, []).append(b)
        incidence.setdefault(b.v, []).append(b)
    if root not in incidence:
        raise RootDetached(f"root {root} touches no bond")

    # breadth-first sweep over sites starting at the root
    seen_bonds = set()
    seen_sites = {root}
    queue = [root]
    while queue:
        site = queue.pop()
        for b in incidence[site]:
            if b in seen_bonds:
                continue
            seen_bonds.add(b)
            nxt = b.other(site)
            if nxt not in seen_sites:
                seen_sites.add(nxt)
                queue.append(nxt)
    if len(seen_bonds) != len(blist):
        raise NotConnected(
            f"{len(blist) - len(seen_bonds)} bond(s) unreachable from the root"
        )
    if len(incidence) != len(blist) + 1:
        raise HasCycle(
            f"{len(blist)} bonds span {len(incidence)} sites; a tree needs L+1"
        )
    return RootedTree(root=root, bonds=tuple(sorted(blist)))


def _oriented(tree: RootedTree):
    """Return (children, root_bonds) with every bond pointed away from the root."""
    incidence: dict[Site, list[Bond]] = {}
    for b in tree.bonds:
        incidence.setdefault(b.u, []).append(b)
        incidence.setdefault(b.v, []).append(b)
    children: dict[Bond, list[Bond]] = {}
    root_bonds = sorted(incidence[tree.root])
    seen = set(root_bonds)
    # stack of (bond, its far site)
    stack = [(b, b.other(tree.root)) for b in root_bonds]
    while stack:
        bond, far = stack.pop()
        kids = sorted(b for b in incidence[far] if b not in seen)
        children[bond] = kids
        for kid in kids:
            seen.add(kid)
            stack.append((kid, kid.other(far)))
    return children, root_bonds


def orient_from_root(tree: RootedTree) -> dict[Bond, list[Bond]]:
    """Map each bond to its children in the orientation away from the root."""
    children, _ = _oriented(tree)
    return children


def downstream_weights(tree: RootedTree) -> WeightTable:
    """Per-bond weights 1 + (number of bonds strictly downstream)."""
    children, root_bonds = _oriented(tree)
    weights = forest_weights(children, root_bonds)
    assert len(weights) == tree.bond_count
    return WeightTable(weights)


def tree_weight(tree: RootedTree) -> int:
    """The product W(T) of all downstream weights."""
    return tree._weight_table.product()


def growth_count(tree: RootedTree) -> int:
    """Exact number of growth orders, L! / W(T).

    Raises InternalNonDivisible if the weights do not divide L!, which
    would mean the weight table is wrong (see `factorial_quotient`).
    """
    return factorial_quotient(tree.bond_count,
                              tree._weight_table.weights.values())


# --- brute-force oracle -----------------------------------------------------

def enumerate_growth_orders(tree: RootedTree, cap: int | None = None) -> int:
    """Count growth orders by exhaustive depth-first search.

    Deliberately independent of the weight formula: the only structure
    used is bond-to-site incidence.  Exponential in general; practical
    for roughly L <= 12.  With `cap` given, raises CapExceeded as soon as
    the running count passes it.
    """
    bonds = tree.bonds
    full = (1 << len(bonds)) - 1
    count = 0

    def rec(added: int, sites: frozenset[Site]):
        nonlocal count
        if added == full:
            count += 1
            if cap is not None and count > cap:
                raise CapExceeded(f"more than {cap} growth orders")
            return
        for i, b in enumerate(bonds):
            if added >> i & 1:
                continue
            if b.u in sites:
                rec(added | 1 << i, sites | {b.v})
            elif b.v in sites:
                rec(added | 1 << i, sites | {b.u})

    rec(0, frozenset([tree.root]))
    return count


def iter_growth_orders(
    tree: RootedTree, limit: int
) -> Iterator[tuple[Bond, ...]]:
    """Yield up to `limit` growth orders as bond sequences.  Debugging aid."""
    bonds = tree.bonds
    full = (1 << len(bonds)) - 1
    emitted = 0

    def rec(added: int, sites: frozenset[Site], prefix: tuple[Bond, ...]):
        nonlocal emitted
        if emitted >= limit:
            return
        if added == full:
            emitted += 1
            yield prefix
            return
        for i, b in enumerate(bonds):
            if added >> i & 1:
                continue
            if b.u in sites:
                yield from rec(added | 1 << i, sites | {b.v}, prefix + (b,))
            elif b.v in sites:
                yield from rec(added | 1 << i, sites | {b.u}, prefix + (b,))

    yield from rec(0, frozenset([tree.root]), ())


# --- forest counting helpers (shared with the Bethe module) -----------------

def forest_weights(children: Mapping, roots: Sequence) -> dict:
    """Subtree sizes (1 + descendants) for a forest given as children lists."""
    weights: dict = {}
    order = list(roots)
    i = 0
    while i < len(order):
        order.extend(children.get(order[i], ()))
        i += 1
    for item in reversed(order):
        weights[item] = 1 + sum(weights[c] for c in children.get(item, ()))
    return weights


def linear_extension_count(
    children: Mapping, roots: Sequence, cap: int | None = None
) -> int:
    """Count linear extensions of a forest by brute-force frontier search.

    An extension picks remaining items whose parent is already placed;
    kept separate from `enumerate_growth_orders` on purpose so the two
    brute-force routes can cross-check each other on lattice trees.
    """
    count = 0

    def rec(frontier: tuple):
        nonlocal count
        if not frontier:
            count += 1
            if cap is not None and count > cap:
                raise CapExceeded(f"more than {cap} linear extensions")
            return
        for i, item in enumerate(frontier):
            rec(frontier[:i] + frontier[i + 1:] + tuple(children.get(item, ())))

    rec(tuple(roots))
    return count


# --- random trees -----------------------------------------------------------

def random_lattice_tree(bond_count: int, seed: int) -> RootedTree:
    """Grow a random tree from the origin, one bond at a time.

    Each step picks uniformly among lattice bonds with exactly one
    endpoint on the current tree, so no site is ever reused and no cycle
    can form.  Deterministic in `seed`.  On the infinite grid a legal
    extension always exists; Stuck is kept for contract completeness.
    """
    if bond_count < 1:
        raise ValueError("bond_count must be >= 1")
    rng = random.Random(seed)
    root: Site = (0, 0)
    sites = {root}
    bonds: list[Bond] = []
    while len(bonds) < bond_count:
        candidates = []
        for u in sites:
            for dx, dy in NEIGHBOR_STEPS:
                v = (u[0] + dx, u[1] + dy)
                if v not in sites:
                    candidates.append((v, Bond.between(u, v)))
        if not candidates:
            raise Stuck(f"no legal extension after {len(bonds)} bonds")
        candidates.sort()
        site, bond = rng.choice(candidates)
        sites.add(site)
        bonds.append(bond)
    return validate_tree(root, bonds)


# --- canonical JSON ---------------------------------------------------------

def tree_to_json(tree: RootedTree) -> str:
    """Serialize to the canonical wire form, deterministic to the byte.

    {"root":[x,y],"bonds":[[[x1,y1],[x2,y2]],...]} with bonds sorted and
    integer coordinates only.
    """
    payload = {
        "root": [tree.root[0], tree.root[1]],
        "bonds": [[[b.u[0], b.u[1]], [b.v[0], b.v[1]]] for b in tree.bonds],
    }
    return json.dumps(payload, separators=(",", ":"))


def _as_int(value) -> int:
    # bool is an int subclass; floats are rejected outright
    if type(value) is not int:
        raise ValueError(f"coordinates must be integers, got {value!r}")
    return value


def _as_site(value) -> Site:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"a site is a pair [x,y], got {value!r}")
    return (_as_int(value[0]), _as_int(value[1]))


def tree_from_json(text: str) -> RootedTree:
    """Parse and validate the canonical wire form.  Liberal in bond order."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("tree JSON must be an object")
    missing = {"root", "bonds"} - payload.keys()
    if missing:
        raise ValueError(f"tree JSON lacks {sorted(missing)}")
    root = _as_site(payload["root"])
    raw = payload["bonds"]
    if not isinstance(raw, list):
        raise ValueError("\"bonds\" must be a list")
    bonds = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"a bond is a pair of sites, got {entry!r}")
        bonds.append(Bond.between(_as_site(entry[0]), _as_site(entry[1])))
    return validate_tree(root, bonds)
