"""Rooted trees on the square lattice and exact growth-order counting.

A tree here is a finite, connected, cycle-free set of unit bonds on the
integer grid together with a root site incident to at least one bond.
Growing a tree means adding its bonds one at a time so that after every
step the added bonds form a connected graph containing the root.

The number of distinct growth orders is L! / W(T), where W(T) is the
product over bonds of the hook size 1 + (number of bonds strictly
downstream).  The division is exact and never done: one sieve pass,
`prime_exponents`, gives each prime p <= L with its exponent in W,
counted from the hooks, and in N, Legendre's formula for L! minus that;
every exponent of N >= 0 is its certificate.  `growth_count` multiplies
N's prime powers.  `count` prints W and N from their exponents with
`prime_power_digits`, which squares once per exponent bit (Borwein's
method) and multiplies in `decimal` past a few thousand bits, so no
big int is ever converted to digits.  A brute-force enumerator
(`enumerate_growth_orders`) is the independent oracle for the identity.
It reads only which sites each bond joins, as one bit per site and one
two-bit mask per bond, and never a hook or an orientation.

A tree is stored as packed integers, not as one object per bond.  Site
(x, y) packs to (x - min x) * stride + (y - min y), with the minimum
over the tree's sites and stride one more than the height of its
bounding box, so that a row of unused values keeps every column apart:
the neighbours of site s are s +- 1 and s +- stride, and none of them
wraps into another column.  A bond packs to 2 * (its lower endpoint)
+ 0 for a +y step or + 1 for a +x step, so sorted keys come in the
order of sorted (lower, upper) endpoint pairs.  Canonical JSON longer
than a chunk is read a chunk at a time: byte scans check each chunk's
shape and count its bonds, so the size guards fire before any number
is converted, and its numbers then go straight into coordinate
columns; any other text goes through json.loads.  The generators emit
keys by the run (`tree_from_runs`).  Validation is one breadth-first
walk from the root that looks up the four bonds of each site in a set
of keys.  It keeps no seen-set: in a tree every neighbour but the
parent is new, so the distinct bonds form a tree exactly when the walk
stops at L + 1 sites.  Its site order and parent indices give every
hook size in one reverse pass, as a plain list in walk order, and are
then dropped.  Only `_ends` decodes keys, into (lower, upper) endpoint
pairs for the JSON, renderings, oracle, messages and `bonds` view.

Random growth packs a site as (x + off) * width + (y + off), with off
one more than the bond count and width = 2 * off + 1, and a candidate
bond as 4 * (outside site) + rank, rank 0..3 naming the tree site at
outside - width, - 1, + 1 or + width: sites and ranks go in (x, y) order.

Growth orders are exactly the linear extensions of the bond forest
obtained by orienting every bond away from the root, so the counting
helpers at the bottom of this module work on any forest given as
children lists, not just on lattice trees.  The Bethe-lattice module
counts its subtrees' growth sequences with `linear_extension_count`;
`forest_weights` is the children-list reference its address-based hook
sizes are tested against.
"""

import decimal
import gc
import itertools
import json
import math
import operator
import random
import re
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    CapExceeded,
    DuplicateBond,
    HasCycle,
    InternalNonDivisible,
    NotConnected,
    RootDetached,
    TooLarge,
)

Site = tuple[int, int]

# unit steps on the square lattice, in a fixed order for determinism
NEIGHBOR_STEPS = ((0, -1), (-1, 0), (1, 0), (0, 1))

# refuse to materialize or count trees past this many bonds
MAX_TREE_BONDS = 10**7
# enumerate_growth_orders recurses once per bond; past this many bonds
# it would hit the interpreter's default recursion limit of 1000
MAX_ORACLE_BONDS = 900


def _bonds_phrase(total: int) -> str:
    """`total` bonds as a guard message names them: in decimal up to 64
    bits, and past that as a power of two, so no huge count is ever
    expanded to decimal."""
    if total.bit_length() <= 64:
        return f"{total} bonds"
    return f"about 2^{total.bit_length() - 1} bonds"


def guard_tree_bonds(total: int | None, limit: int) -> None:
    """Raise TooLarge before a tree of `total` bonds past `limit` (the
    caller's MAX_TREE_BONDS) is built; None stands for a count beyond
    the integer horizon."""
    if total is None:
        size = "a bond count beyond the integer horizon"
    elif total <= limit:
        return
    else:
        size = _bonds_phrase(total)
    raise TooLarge(f"tree would have {size} (guard {limit})")


@dataclass(frozen=True)
class RootedTree:
    """A validated rooted lattice tree.  Build instances via `validate_tree`,
    `tree_from_json` or `tree_from_runs`.

    `keys` are the packed bonds in sorted order and `origin` and
    `stride` the packing (see the module docstring), all fixed by the
    bond set, so two equal trees compare equal and serialize to
    identical bytes.
    """

    root: Site
    keys: tuple[int, ...]
    origin: Site
    stride: int

    @property
    def bond_count(self) -> int:
        return len(self.keys)

    @cached_property
    def bonds(self) -> tuple[tuple[Site, Site], ...]:
        """The (lower, upper) endpoint pairs in sorted order."""
        return tuple(_ends(self))

    @cached_property
    def sites(self) -> frozenset[Site]:
        return frozenset(itertools.chain.from_iterable(self.bonds))

    @cached_property
    def hooks(self) -> list[int]:
        """Hook sizes from one `downstream_weights` pass, kept for reuse.

        `tree_weight`, `growth_count` and the `count` verb share it.
        """
        return downstream_weights(self)

    @cached_property
    def _walk(self) -> tuple[list[int], list[int]]:
        # (order, parent): packed sites breadth-first from the root and
        # the index in order of each one's parent.  Validation fills
        # this in; it is recomputed only for a tree built directly or
        # after downstream_weights has dropped it.
        present = set(self.keys)
        return _breadth_first(self._pack(self.root), present, self.stride)[:2]

    def _pack(self, site: Site) -> int:
        return (site[0] - self.origin[0]) * self.stride \
            + site[1] - self.origin[1]


def _ends(tree: RootedTree, keys: Iterable[int] | None = None):
    """The (lower, upper) endpoints of each of `keys`, the tree's own
    by default, decoded in the order given."""
    (ox, oy), stride = tree.origin, tree.stride
    for key in tree.keys if keys is None else keys:
        x, y = divmod(key >> 1, stride)
        x += ox
        y += oy
        step = key & 1
        yield (x, y), (x + step, y + 1 - step)


def _pairwise(vals: list) -> list:
    """One level of pairwise products; an odd last value passes through."""
    nxt = [vals[i] * vals[i + 1] for i in range(0, len(vals) - 1, 2)]
    if len(vals) % 2:
        nxt.append(vals[-1])
    return nxt


def balanced_product(values: Iterable) -> int:
    """Product of arbitrary-size integers by pairwise halving.

    Sequential accumulation is quadratic in total digit count; pairing
    keeps the factors balanced, which matters for trees with 10^5+ bonds.
    """
    vals = list(values)
    if not vals:
        return 1
    while len(vals) > 1:
        vals = _pairwise(vals)
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

# a product past this size is carried on in decimal, where unbounded
# precision and a trapped Inexact keep every step exact
_DECIMAL_PRODUCT_BITS = 4096
_EXACT_DECIMAL = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                 Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])


def _decimal_product(values: list[int]) -> int | decimal.Decimal:
    """The product of small factors; call it under _EXACT_DECIMAL.

    They are paired up as ints until some product passes
    _DECIMAL_PRODUCT_BITS; the remaining levels multiply in decimal
    (libmpdec beats CPython's Karatsuba at millions of bits), where an
    inexact step would raise.  The result is an int if the pairing
    finished below that size and a Decimal otherwise, so no big int is
    ever converted.
    """
    vals = values or [1]
    while len(vals) > 1 \
            and max(map(int.bit_length, vals)) <= _DECIMAL_PRODUCT_BITS:
        vals = _pairwise(vals)
    if len(vals) == 1:
        return vals[0]
    return balanced_product(map(decimal.Decimal, vals))


def prime_power_digits(primes: Sequence[int], exponents: Sequence[int]) -> str:
    """Exact decimal digits of the product of p**e over the pairs, e >= 0.

    Borwein's order: from the top exponent bit down, square the running
    product, then multiply in the primes whose exponent has that bit
    set, so the last squaring does most of the work; a product tree
    repeats a full-size multiplication at every level.  The running
    product turns from int into Decimal past _DECIMAL_PRODUCT_BITS, so
    no big int meets CPython's quadratic int-to-str or Decimal(int).
    """
    by_bit = [[] for _ in range(max(exponents, default=0).bit_length())]
    for p, e in zip(primes, exponents):
        while e:
            low = e & -e
            by_bit[low.bit_length() - 1].append(p)
            e ^= low
    out = 1
    with decimal.localcontext(_EXACT_DECIMAL):
        for bucket in reversed(by_bit):
            out = out * out * _decimal_product(bucket)
            if type(out) is int and out.bit_length() > _DECIMAL_PRODUCT_BITS:
                out = decimal.Decimal(out)
    return str(out)


def prime_exponents(total: int, hooks: Iterable[int]) \
        -> tuple[list[int], list[int], list[int]]:
    """The primes p <= total, with the exponent of each in prod(hooks)
    and in total! / prod(hooks).

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
    primes = list(itertools.compress(range(2, total + 1), sieve[2:]))
    in_hooks, in_quotient = [], []
    for p in primes:
        taken = legendre = 0
        q = p
        while q <= total:
            taken += sum(sizes[q::q])
            legendre += total // q
            q *= p
        if taken > legendre:
            raise InternalNonDivisible(
                f"{total}! is not a multiple of the hook product "
                f"(prime {p} short by {taken - legendre})"
            )
        in_hooks.append(taken)
        in_quotient.append(legendre - taken)
    return primes, in_hooks, in_quotient


# --- packing and validation -------------------------------------------------

def _breadth_first(start: int, present: set, stride: int):
    """Walk packed sites from `start` over the bonds in `present`.

    Returns (order, parent, reached): the sites reached, breadth first;
    the index in order of each one's parent (-1 for start); and the
    number of bonds reached, each of which is seen from both ends.
    """
    order, parent, seen = [start], [-1], {start}
    ends = 0
    # (bond key - 2 * site, neighbour - site) for +y, +x, -y, -x
    steps = ((0, 1), (1, stride), (-2, -1), (1 - 2 * stride, -stride))
    for i, s in enumerate(order):   # the list grows while it is read
        k = 2 * s
        for dk, ds in steps:
            if k + dk in present:
                ends += 1
                t = s + ds
                if t not in seen:
                    seen.add(t)
                    order.append(t)
                    parent.append(i)
    return order, parent, ends // 2


def _tree_walk(start: int, present: set, stride: int, sites: int):
    """The breadth-first (order, parent) from `start` if the distinct
    bonds in `present` form a tree of `sites` sites, else None."""
    order, parent = [start], [-1]
    steps = ((0, 1), (1, stride), (-2, -1), (1 - 2 * stride, -stride))
    for i, s in enumerate(order):   # the list grows while it is read
        back = order[parent[i]] if i else -1
        k = 2 * s
        for dk, ds in steps:
            if k + dk in present and s + ds != back:
                order.append(s + ds)
                parent.append(i)
        if len(order) > sites:
            return None
    return (order, parent) if len(order) == sites else None


def _packed_tree(root: Site, columns: list) -> RootedTree:
    """Pack the bonds with lower endpoints (xs, ys) and steps (0 for +y,
    1 for +x), check the tree axioms and return the RootedTree.
    `columns` = [xs, ys, steps] is emptied, so the keys replace them.

    Raises DuplicateBond, RootDetached, NotConnected or HasCycle, in
    that order of checking; a bond named in a message is decoded only
    then.
    """
    xs, ys, steps = columns
    columns.clear()
    if not xs:
        raise ValueError("a rooted tree needs at least one bond")
    ox, oy = min(xs), min(ys)
    # the top site row is max(y + 1 - step); one unused row above it
    stride = max(map(operator.sub, ys, steps)) + 3 - oy
    base = 2 * (ox * stride + oy)
    keys = [2 * (x * stride + y) + step - base
            for x, y, step in zip(xs, ys, steps)]
    del xs, ys, steps
    present = set(keys)
    duplicate = None
    if len(present) != len(keys):   # the first key listed twice
        seen = set()
        duplicate = next(k for k in keys if k in seen or seen.add(k))
    keys.sort()
    tree = RootedTree(root=root, keys=tuple(keys), origin=(ox, oy),
                      stride=stride)
    del keys
    if duplicate is not None:
        (u, v), = _ends(tree, [duplicate])
        raise DuplicateBond(f"bond Bond(u={u}, v={v}) listed twice")
    bonds = tree.bond_count
    # a root outside the packed rows would alias a site of another
    # column; packed site -1 touches no bond
    start = tree._pack(root) if oy <= root[1] <= oy + stride - 2 else -1
    walk = _tree_walk(start, present, stride, bonds + 1)
    if walk:
        tree.__dict__["_walk"] = walk
        return tree
    # not a tree: a walk with a seen-set says why
    order, _, reached = _breadth_first(start, present, stride)
    if not reached:
        raise RootDetached(f"root {root} touches no bond")
    if reached != bonds:
        raise NotConnected(
            f"{bonds - reached} bond(s) unreachable from the root")
    raise HasCycle(f"{bonds} bonds span {len(order)} sites; a tree needs L+1")


def validate_tree(root: Site, bonds: Iterable) -> RootedTree:
    """Check the tree axioms and return the canonical RootedTree.

    Bonds are pairs of integer sites, as in `tree_from_json`; anything
    else is a ValueError.  Raises DuplicateBond, RootDetached,
    NotConnected or HasCycle, in that order of checking.
    """
    root = _as_site(root)
    columns = [[], [], []]
    _unit_columns(_entry_quads(bonds), columns)
    return _packed_tree(root, columns)


def tree_from_runs(root: Site, runs: Iterable) -> RootedTree:
    """Check and return the tree made of straight runs of bonds.

    A run (x, y, dx, dy, n) is the n bonds that step from site (x, y)
    by the unit vector (dx, dy).
    """
    xs, ys, steps = columns = [[], [], []]
    for x, y, dx, dy, n in runs:
        if dx * dx + dy * dy != 1:
            raise ValueError(f"a run steps by a unit vector, got {(dx, dy)}")
        if dx:
            low = x if dx > 0 else x - n   # the lowest lower endpoint
            xs.extend(range(low, low + n))
            ys.extend([y] * n)
        else:
            low = y if dy > 0 else y - n
            xs.extend([x] * n)
            ys.extend(range(low, low + n))
        steps.extend([dx * dx] * n)
    del xs, ys, steps
    return _packed_tree((int(root[0]), int(root[1])), columns)


def downstream_weights(tree: RootedTree) -> list[int]:
    """Per-bond weights 1 + (number of bonds strictly downstream).

    One reverse pass over the breadth-first walk: each site's subtree
    size is added to its parent's, and the size of a non-root site is
    the hook of the bond into it.  Entry i belongs to the bond into the
    (i+1)-th site breadth first from the root.  The walk is then dropped.
    """
    parent = tree._walk[1]
    del tree.__dict__["_walk"]
    size = [1] * len(parent)
    for i in range(len(parent) - 1, 0, -1):
        size[parent[i]] += size[i]
    del size[0]
    return size


def tree_weight(tree: RootedTree) -> int:
    """The product W(T) of all downstream weights."""
    return balanced_product(tree.hooks)


def growth_count(tree: RootedTree) -> int:
    """Exact number of growth orders, L! / W(T).

    Raises InternalNonDivisible if the weights do not divide L!, which
    would mean the weight table is wrong.
    """
    primes, _, exponents = prime_exponents(tree.bond_count, tree.hooks)
    return balanced_product(p ** e for p, e in zip(primes, exponents) if e)


# --- brute-force oracle -----------------------------------------------------

def enumerate_growth_orders(tree: RootedTree, cap: int | None = None) -> int:
    """Count growth orders by exhaustive depth-first search.

    Deliberately independent of the weight formula: the only structure
    used is bond-to-site incidence.  Each site gets a bit and each bond
    the mask of its two endpoints; the search carries the masks of the
    bonds not yet added and the mask of the sites reached, and a bond
    can be added when its mask meets the reached sites.  No hook sizes
    and no orientation are read, and connectivity is not assumed: the
    last bond counts only if it touches a reached site.  Exponential in
    general; practical for roughly L <= 12.  With `cap` given, raises
    CapExceeded as soon as the running count passes it; a negative cap
    is a ValueError, and more than MAX_ORACLE_BONDS bonds TooLarge.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if tree.bond_count > MAX_ORACLE_BONDS:
        raise TooLarge(f"{tree.bond_count} bonds exceeds the oracle guard "
                       f"{MAX_ORACLE_BONDS}")
    bit: dict[Site, int] = {}
    masks = []
    for bond in _ends(tree):
        mask = 0
        for site in bond:
            mask |= 1 << bit.setdefault(site, len(bit))
        masks.append(mask)
    count = 0

    def rec(left: tuple, sites: int):
        nonlocal count
        if len(left) == 1:
            if left[0] & sites:
                count += 1
                if cap is not None and count > cap:
                    raise CapExceeded(f"more than {cap} growth orders")
            return
        for i, mask in enumerate(left):
            if mask & sites:
                rec(left[:i] + left[i + 1:], sites | mask)

    rec(tuple(masks), 1 << bit[tree.root])
    return count


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

    Each step picks uniformly among bonds with one endpoint on the tree,
    so no site is reused and no cycle forms.  Deterministic in `seed`:
    the packed candidates (see the module docstring) sort as a full
    rescan's (site, bond) pairs, so rng.choice picks the same bond.
    """
    if bond_count < 1:
        raise ValueError("bond_count must be >= 1")
    guard_tree_bonds(bond_count, MAX_TREE_BONDS)
    choice = random.Random(seed).choice
    off, width = bond_count + 1, 2 * bond_count + 3
    site = off * width + off   # the root, (0, 0)
    # per NEIGHBOR_STEPS: the neighbour's offset, and the new site's rank
    # seen from it
    around = ((-1, 2), (-width, 3), (width, 0), (1, 1))
    # per rank: the bond's lower endpoint less the outside site, and its
    # step (0 for +y, 1 for +x)
    lower, axis = (-width, -1, 0, 0), (1, 0, 0, 1)
    sites, perimeter, lows, steps = {site}, [], [], []
    for _ in range(bond_count):
        for delta, rank in around:
            if site + delta not in sites:
                insort(perimeter, 4 * (site + delta) + rank)
        pick = choice(perimeter)
        site, rank = pick >> 2, pick & 3
        sites.add(site)
        lows.append(site + lower[rank])
        steps.append(axis[rank])
        # every candidate ending at the new site is now inside the tree
        lo = bisect_left(perimeter, pick - rank)
        del perimeter[lo:bisect_left(perimeter, pick - rank + 4, lo)]
    columns = [[low // width - off for low in lows],
               [low % width - off for low in lows], steps]
    del sites, perimeter, lows, steps   # before the keys and the walk
    # _packed_tree's walk checks every tree axiom
    return _packed_tree((0, 0), columns)


# --- canonical JSON ---------------------------------------------------------

# tree text longer than this is read a chunk at a time, each chunk ending
# at the first bond boundary past this many characters; see tree_from_json
_CHUNK = 1 << 18
_CANONICAL_HEAD = re.compile(
    r'[ \t\n\r]*\{"root":\[(-?(?:0|[1-9][0-9]{0,17})),'
    r'(-?(?:0|[1-9][0-9]{0,17}))\],"bonds":\[')
_BOND_SKELETON = b"[[,],[,]],"
_NUMERALS = b"-0123456789"
_ZEROS = bytes.maketrans(b"123456789", b"000000000")
_ONES = bytes.maketrans(b"123456789", b"111111111")
_LEADING_ZEROS = (b"[00", b"[01", b",00", b",01")
_SPACES = bytes.maketrans(b"[],", b"   ")


def tree_to_json(tree: RootedTree, out=None) -> str | None:
    """Serialize to the canonical wire form, deterministic to the byte.

    {"root":[x,y],"bonds":[[[x1,y1],[x2,y2]],...]} with bonds sorted and
    integer coordinates only, formatted straight from the sorted keys.
    Returned, or written to `out` a chunk of bonds at a time.
    """
    rx, ry = tree.root
    head = f'{{"root":[{rx},{ry}],"bonds":['
    texts = (f"[[{ax},{ay}],[{bx},{by}]]"
             for (ax, ay), (bx, by) in _ends(tree))
    if out is None:
        return head + ",".join(texts) + "]}"
    for at in range(0, tree.bond_count, _CHUNK // 32):
        out.write(("," if at else head)
                  + ",".join(itertools.islice(texts, _CHUNK // 32)))
    out.write("]}")


def _chunk_bonds(chunk: bytes) -> int:
    """The bonds in `chunk`, canonical bonds each followed by a comma,
    or 0 unless each slot and nothing else holds an integer as JSON
    writes it, of at most 19 digits."""
    skeleton = chunk.translate(None, _NUMERALS)
    bonds = len(skeleton) // len(_BOND_SKELETON)
    if skeleton != _BOND_SKELETON * bonds or b"-" in chunk and (
            chunk.count(b"-") != chunk.count(b"[-") + chunk.count(b",-")
            or b"-[" in chunk):
        return 0
    # with the minus signs gone, a lone one leaves an empty slot
    digits = chunk.translate(_ZEROS, b"-")
    if any(bad in digits for bad in (b"[,", b",]", b"]0", b"0[", b"0" * 20)):
        return 0
    shape = chunk.translate(_ONES, b"-")   # a leading zero is 00 or 01
    return 0 if any(bad in shape for bad in _LEADING_ZEROS) else bonds


def _canonical_scan(text: str):
    """(root, (start, end) of each chunk, bonds) of canonical text, or
    None; raises UnicodeEncodeError on text that is not ASCII."""
    head = _CANONICAL_HEAD.match(text)
    stop = len(text)
    while stop and text[stop - 1] in " \t\n\r":
        stop -= 1
    if not head or not text.startswith("]}", stop - 2):
        return None
    start, stop = head.end(), stop - 2
    cuts, total = [], 0
    while start < stop:
        end = text.find("]],[[", start + _CHUNK, stop)
        end = stop if end < 0 else end + 3   # just past "]],"
        bonds = _chunk_bonds(text[start:end].encode("ascii")
                             + (b"," if end == stop else b""))
        if not bonds:
            return None
        cuts.append((start, end))
        total += bonds
        start = end
    return (int(head[1]), int(head[2])), cuts, total


def _unit_columns(quads: Iterable, columns: list) -> None:
    """Append each bond (ax, ay, bx, by) to columns = [xs, ys, steps];
    raise the ValueError of the first one not at unit distance."""
    xs, ys, steps = columns
    for ax, ay, bx, by in quads:
        if ax == bx and (by == ay + 1 or ay == by + 1):
            xs.append(ax)
            ys.append(ay if ay < by else by)
            steps.append(0)
        elif ay == by and (bx == ax + 1 or ax == bx + 1):
            xs.append(ax if ax < bx else bx)
            ys.append(ay)
            steps.append(1)
        else:
            raise ValueError("bond endpoints must be at unit distance: "
                             f"{(ax, ay)} {(bx, by)}")


def _as_site(value) -> Site:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"a site is a pair [x,y], got {value!r}")
    for v in value:   # bool is an int subclass; floats are rejected outright
        if type(v) is not int:
            raise ValueError(f"coordinates must be integers, got {v!r}")
    return (value[0], value[1])


def _entry_quads(raw: Iterable):
    for entry in raw:
        # the common case inline; anything else is checked in full, and
        # the message names the first thing wrong with it
        try:
            (ax, ay), (bx, by) = entry
            exact = (type(ax) is int and type(ay) is int
                     and type(bx) is int and type(by) is int)
        except (TypeError, ValueError):
            exact = False
        if not exact:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"a bond is a pair of sites, got {entry!r}")
            (ax, ay), (bx, by) = _as_site(entry[0]), _as_site(entry[1])
        yield ax, ay, bx, by


def _guard_bonds(total: int, max_bonds: int | None) -> None:
    if max_bonds is not None and total > max_bonds:
        raise TooLarge(f"{total} bonds exceeds the guard {max_bonds}")


def _decoded_columns(text: str, max_bonds: int | None):
    """(root, columns) of any tree text, through json.loads."""
    # json.loads allocates a list per bond and per site, and collector
    # passes over them cost more than the decoding; they hold no cycle
    collecting = gc.isenabled()
    gc.disable()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    if not isinstance(payload, dict):
        raise ValueError("tree JSON must be an object")
    missing = {"root", "bonds"} - payload.keys()
    if missing:
        raise ValueError(f"tree JSON lacks {sorted(missing)}")
    root = _as_site(payload["root"])
    raw = payload["bonds"]
    if not isinstance(raw, list):
        raise ValueError("\"bonds\" must be a list")
    _guard_bonds(len(raw), max_bonds)
    columns = [[], [], []]
    _unit_columns(_entry_quads(raw), columns)
    return root, columns


def tree_from_json(text: str, max_bonds: int | None = None) -> RootedTree:
    """Parse and validate the canonical wire form.  Liberal in bond order.

    With `max_bonds` given, a longer bond list raises TooLarge before
    any bond is checked.  Canonical text longer than a chunk is read a
    chunk at a time; any other text, and any that route turns down, by
    json.loads, so every error is the one json.loads would give.
    """
    if type(text) is str and len(text) > _CHUNK:
        try:
            scan = _canonical_scan(text)
        except UnicodeEncodeError:
            scan = None
        if scan:
            root, cuts, total = scan
            _guard_bonds(total, max_bonds)
            columns = [[], [], []]
            try:
                for start, end in cuts:
                    numbers = map(int, text[start:end].encode("ascii")
                                  .translate(_SPACES).split())
                    _unit_columns(zip(*[numbers] * 4), columns)
            except ValueError:   # json.loads names the bond at fault
                columns.clear()
            else:
                return _packed_tree(root, columns)
    root, columns = _decoded_columns(text, max_bonds)
    return _packed_tree(root, columns)
