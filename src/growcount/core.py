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
N's prime powers.  One printer, `prime_power_digits`, writes `count`'s
W and N from their exponents and `analyze`'s L from its (odd, exponent)
pair: it squares once per exponent bit (Borwein's method) and
multiplies in `decimal` from the first product, so no big int is ever
converted to digits.  A brute-force enumerator
(`enumerate_growth_orders`) is the independent oracle for the identity.
It reads only which sites each bond joins, as one bit per site and one
two-bit mask per bond, and never a hook or an orientation.

A tree is stored as packed integers, not as one object per bond.  Site
(x, y) packs to (x - min x) * stride + (y - min y), with the minimum
over the tree's sites and stride one more than the height of its
bounding box, so that a row of unused values keeps every column apart:
the neighbours of site s are s +- 1 and s +- stride, and none of them
wraps into another column.  A bond packs to 2 * (its lower endpoint) + 0
for a +y step or + 1 for a +x step, so sorted keys come in the order of
sorted (lower, upper) endpoint pairs.  Canonical JSON, of any length, is
read a chunk at a time.  A byte scan of each chunk's skeleton counts its
bonds; over a size guard, two translations and an int shift check each
pair of neighbouring bytes, so the guard fires before any number is
converted, and under it json's scanner decodes each chunk's numbers as
one flat list, straight into coordinate columns.  Any other text goes
through json.loads.  A text handed in a list is freed once its bonds are
read, before they are packed.  Every builder finishes through
`_sorted_tree`.  Validation of bonds read or listed is one breadth-first
walk from the root (`_root_site`, -1 off the packed rows).  Where the
packed keys span at most 64 bytes a bond, they are looked up in a
bitmap, one byte a key, and the walk keeps no seen-set: in a tree every
neighbour but the parent is new, so the distinct bonds form a tree
exactly when the walk stops at L + 1 sites, and the bond back to the
parent, the step each site was entered by, is never looked up: three
lookups per site.  It reads at most L + 1 sites, pops its queue as it
goes and measures its parent list once per block of sites; sparser keys
are a set, walked with a seen-set.  The walk's parent list is handed to
`downstream_weights`, which reads every hook size from it in one reverse
pass.  The generators lay a tree out as straight runs of bonds
(`tree_from_runs`), each packed as a range of keys and checked run by
run: a run that starts on the tree and adds as many new sites as bonds
adds a leaf per bond, so such a tree is walked only when its hooks are
read.  The JSON writer formats each bond from its key through tables of
strings, per written chunk each x and, in a tree at most half a chunk
high, per row and step the text after each of the bond's x; `_ends`
decodes keys into flat (x1, y1, x2, y2) tuples of the lower and upper
endpoints for the oracle, messages and `bonds` view (through it the
renderings).

Random growth packs a site as (x + off) * width + (y + off), with off
one more than the bond count and width = 2 * off + 1, and a candidate
bond as 4 * (outside site) + rank, rank 0..3 naming the tree site at
outside - width, - 1, + 1 or + width: sites and ranks go in (x, y) order.
Each step adds a site that is not yet on the tree, so the bonds grown
form a tree by construction; a count of the sites stands in for the
walk, which runs only once the hooks are read.  A step draws its index
into the sorted candidates as rng.choice does on CPython 3.10 to 3.13,
inline: getrandbits of the candidate count's bit length, drawn again
while it is not below the count, so the stream rests on getrandbits.
The list is then edited around the draw, not bisected: the new site s's
own candidates, 4s .. 4s + 3, lie within three slots of the drawn
index, and those from s to its - 1 and + 1 neighbours, 4s - 2 and
4s + 5, sort into the same gap, just before 4s - 1 and after 4s + 4
where those are listed, so one slice assignment swaps the old for the
new.  Only the candidates to its - width and + width neighbours are
placed by insort.

Growth orders are exactly the linear extensions of the bond forest
obtained by orienting every bond away from the root, so the counting
helpers at the bottom of this module work on any forest given as
children lists, not just on lattice trees.  The Bethe-lattice module
counts its subtrees' growth sequences with `linear_extension_count`;
`forest_weights` is the children-list reference its site-based hook
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
from bisect import insort
from collections import deque
from functools import cache, cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    CapExceeded,
    DuplicateBond,
    HasCycle,
    InternalMismatch,
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


def _bonds_phrase(total) -> str:
    """`total` bonds, an int or a Dyadic, as a guard message names them:
    in decimal up to 64 bits, and past that as a power of two, so no
    huge count is ever expanded to decimal."""
    if total.bit_length() <= 64:
        return f"{int(total)} bonds"
    return f"about 2^{total.bit_length() - 1} bonds"


def guard_tree_bonds(total, limit: int) -> None:
    """Raise TooLarge before a tree of `total` bonds, an int or a Dyadic,
    past `limit` (the caller's MAX_TREE_BONDS) is built; None stands for
    a count beyond the integer horizon."""
    if total is None:
        size = "a bond count beyond the integer horizon"
    elif total.bit_length() <= limit.bit_length() and int(total) <= limit:
        return
    else:
        size = _bonds_phrase(total)
    raise TooLarge(f"tree would have {size} (guard {limit})")


class _TreeFields(NamedTuple):
    root: Site
    keys: tuple[int, ...]
    origin: Site
    stride: int


class RootedTree(_TreeFields):
    """A validated rooted lattice tree.  Build instances via `validate_tree`,
    `tree_from_json` or `tree_from_runs`.

    `keys` are the packed bonds in sorted order and `origin` and
    `stride` the packing (see the module docstring), all fixed by the
    bond set, so two equal trees compare and hash equal and serialize
    to identical bytes.  The fields are a named tuple's and cannot be
    assigned; the subclass keeps a __dict__ for the cached views.
    """

    @property
    def bond_count(self) -> int:
        return len(self.keys)

    @cached_property
    def bonds(self) -> tuple[tuple[Site, Site], ...]:
        """The (lower, upper) endpoint pairs in sorted order."""
        return tuple(((ax, ay), (bx, by)) for ax, ay, bx, by in _ends(self))

    @cached_property
    def sites(self) -> frozenset[Site]:
        return frozenset(itertools.chain.from_iterable(self.bonds))

    @cached_property
    def hooks(self) -> list[int]:
        """Hook sizes from one `downstream_weights` pass, kept for reuse.

        `tree_weight`, `growth_count` and the `count` verb share it.
        """
        return downstream_weights(self)


def _ends(tree: RootedTree, keys: Iterable[int] | None = None):
    """The lower and upper endpoints of each of `keys`, the tree's own
    by default, decoded in the order given as flat (x1, y1, x2, y2)."""
    (ox, oy), stride = tree.origin, tree.stride
    for key in tree.keys if keys is None else keys:
        x, y = divmod(key >> 1, stride)
        x += ox
        y += oy
        step = key & 1
        yield x, y, x + step, y + 1 - step


def balanced_product(values: Iterable) -> int:
    """Product of arbitrary-size integers by pairwise halving.

    Sequential accumulation is quadratic in total digit count; pairing
    keeps the factors balanced, which matters for trees with 10^5+ bonds.
    Decimals multiply alike under an exact context.
    """
    vals = list(values)
    if not vals:
        return 1
    while len(vals) > 1:
        # an odd last value passes through
        vals = [a * b for a, b in zip(vals[::2], vals[1::2])] \
            + vals[len(vals) & ~1:]
    return vals[0]


# --- big integers -----------------------------------------------------------

# unbounded precision and a trapped Inexact keep every decimal step exact
_EXACT_DECIMAL = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                 Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])


def prime_power_digits(primes: Sequence[int], exponents: Sequence[int]) -> str:
    """Exact decimal digits of the product of p**e over the pairs, e >= 0.

    Borwein's order: from the top exponent bit down, the running
    product times the primes whose exponent has that bit set, times
    the running product again, so the last squaring does most of the
    work and its two factors are of one size; a product tree repeats a
    full-size multiplication at every level.  Every product
    is a Decimal under _EXACT_DECIMAL, where an inexact step would
    raise (libmpdec beats CPython's Karatsuba at millions of bits), so
    only the primes themselves are ever converted from int.
    """
    by_bit = [[] for _ in range(max(exponents, default=0).bit_length())]
    for p, e in zip(primes, exponents):
        while e:
            low = e & -e
            by_bit[low.bit_length() - 1].append(p)
            e ^= low
    out = decimal.Decimal(1)
    with decimal.localcontext(_EXACT_DECIMAL):
        for bucket in reversed(by_bit):
            out = out * (out * balanced_product(map(decimal.Decimal, bucket)))
    return str(out)


class Dyadic(tuple):
    """The integer odd * 2**exp as the pair (odd, exp), odd odd (zero is
    (0, 0)); built as Dyadic((odd, exp)), a plain tuple's constructor.

    The tower family's counts are small numbers times huge powers of
    two, so as pairs they take a few words where the ints take
    megabits.  Products, sums and comparisons (of positive values) stay
    on the pairs and are exact; each result is again in lowest form, so
    == on pairs is == on the integers they stand for.  int() forms the
    integer, and float(), log() and bit_length() give what they give on
    it without forming it.
    """

    __slots__ = ()
    odd = property(operator.itemgetter(0), doc="The odd part.")
    exp = property(operator.itemgetter(1), doc="The exponent of two.")

    @classmethod
    def of(cls, n: int) -> "Dyadic":
        exp = (n & -n).bit_length() - 1 if n else 0
        return cls((n >> exp, exp))

    def __repr__(self) -> str:
        return f"Dyadic({tuple(self)})"

    def __int__(self) -> int:
        odd, exp = self
        return odd << exp

    def __float__(self) -> float:
        odd, exp = self
        return math.ldexp(odd, exp)

    def bit_length(self) -> int:
        odd, exp = self
        return odd.bit_length() + exp

    def log(self) -> float:
        """math.log(int(self)), bit for bit.

        math.log of an int takes the log of its float, or, past the
        double range, log(m) + log(2) * e with m, e its frexp; those of
        odd * 2**exp are odd's with exp added to e.
        """
        odd, exp = self
        m, e = math.frexp(odd)
        try:
            return math.log(math.ldexp(m, e + exp))
        except OverflowError:
            return math.log(m) + math.log(2.0) * (e + exp)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        odd, exp = self
        other_odd, other_exp = other
        return Dyadic((odd * other_odd, exp + other_exp))

    def __add__(self, other: "Dyadic") -> "Dyadic":
        odd, exp = self
        other_odd, other_exp = other
        low = min(exp, other_exp)
        total = (odd << exp - low) + (other_odd << other_exp - low)
        shift = (total & -total).bit_length() - 1
        return Dyadic((total >> shift, low + shift))

    def _sign(self, other: "Dyadic") -> int:
        """The sign of self - other, both positive: by bit length, and
        by aligned odd parts only at equal length, where the alignment
        shift is below the longer odd part's length."""
        diff = self.bit_length() - other.bit_length()
        if diff:
            return diff
        odd, exp = self
        other_odd, other_exp = other
        low = min(exp, other_exp)
        return (odd << exp - low) - (other_odd << other_exp - low)

    def __lt__(self, other: "Dyadic") -> bool:
        return self._sign(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._sign(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._sign(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._sign(other) >= 0


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


# keys go in a bitmap, one byte a key value, where it spans at most this
# many bytes a bond (plus one bond's worth), else in a set.  Near the
# limit the set alone can take less than the bitmap, but its walk adds a
# seen-set of sites and an order list, so the bitmap route peaks lower:
# on the 1e5 tower, about 48 bytes a bond, 12.7 MB traced against 19.8
_BITMAP_BOND_BYTES = 64


def _presence(keys, stride: int):
    """The packed `keys` as the walks look them up: a bitmap whose byte
    2 * stride + key is 1 for each key, with 2 * stride + 1 zero bytes
    past the top key, so every lookup from a site of a bond falls inside
    it; or the set of the keys where the bitmap would pass
    `_BITMAP_BOND_BYTES` a bond."""
    size = max(keys) + 4 * stride + 2
    if size > _BITMAP_BOND_BYTES * (len(keys) + 1):
        return set(keys)
    bits = bytearray(size)
    views = itertools.repeat(memoryview(bits)[2 * stride:])
    deque(map(operator.setitem, views, keys, itertools.repeat(1)), 0)
    return bits


def _walk_parents(start: int, present, stride: int, sites: int):
    """The parent list of the breadth-first walk from packed site
    `start` if the distinct keys of `present`, a `_presence`, form a
    tree of `sites` sites holding it, else None: `_tree_walk` on a
    bitmap, `_breadth_first` on a set."""
    if not isinstance(present, set):
        return _tree_walk(start, present, stride, sites)
    # sites - 1 distinct bonds reach at most `sites` sites, and reach
    # them all only as a tree
    order, parent, _ = _breadth_first(start, present, stride)
    return parent if len(order) == sites else None


# _tree_walk measures its parent list once per this many sites, so a
# cycle takes it at most three entries a site of one block past a tree's
_WALK_BLOCK = 4096


def _tree_walk(start: int, bits: bytearray, stride: int, sites: int):
    """The parent list of the breadth-first walk from `start`, as
    `_breadth_first` gives it, if the keys in the bitmap `bits` (see
    `_presence`) form a tree of `sites` sites, else None.

    Each entry of its queue is 8 * (site + stride) + the step back to
    the site's parent, 0..3 for +y, +x, -y, -x, or 4 for `start`, so
    2 * (site + stride) is the byte of the site's +y key.  The bond a
    site was entered by is not looked up: three lookups per site.  The
    queue is popped as it is read, so it holds only the frontier."""
    if start < 0:
        # left of the packed columns or off their rows, it touches no
        # bond, and its lookups would index the bitmap from its end
        return None
    queue, parent = deque([8 * (start + stride) + 4]), [-1]
    # per step, a neighbour's entry less 8 * site (+y: 10, -y: -8)
    plus_x, minus_x = 8 * stride + 3, 1 - 8 * stride
    minus_x_key = 1 - 2 * stride   # the -x bond's key less 2 * site
    try:
        # a tree lists exactly `sites` entries: a walk that runs out
        # first is not connected, and one that lists more has a cycle
        for block in range(0, sites, _WALK_BLOCK):
            for i in range(block, min(block + _WALK_BLOCK, sites)):
                entry = queue.popleft()
                back = entry & 7
                site8 = entry - back
                k = site8 >> 2
                if back != 0 and bits[k]:
                    queue.append(site8 + 10)
                    parent.append(i)
                if back != 1 and bits[k + 1]:
                    queue.append(site8 + plus_x)
                    parent.append(i)
                if back != 2 and bits[k - 2]:
                    queue.append(site8 - 8)
                    parent.append(i)
                if back != 3 and bits[k + minus_x_key]:
                    queue.append(site8 + minus_x)
                    parent.append(i)
            if len(parent) > sites:
                return None
    except IndexError:   # an empty queue, or a start past the top key
        return None
    return parent if len(parent) == sites else None


# _column_keys packs this many bonds at a time
_KEY_BLOCK = 1 << 16


def _column_keys(columns: list) -> tuple[list, Site, int]:
    """(keys, origin, stride) of the bonds with lower endpoints (xs, ys)
    and steps (0 for +y, 1 for +x), packed in the order given.
    `columns` = [xs, ys, steps] is emptied, so the keys replace them:
    they are written over xs a block at a time, so each x is freed as
    its key is made.
    """
    xs, ys, steps = columns
    columns.clear()
    if not xs:
        raise ValueError("a rooted tree needs at least one bond")
    ox, oy = min(xs), min(ys)
    # the top site row is max(y + 1 - step); one unused row above it
    stride = max(map(operator.sub, ys, steps)) + 3 - oy
    base = 2 * (ox * stride + oy)
    # zip stops at the end of each block of xs before it reads on in ys
    # and steps
    ys, steps = iter(ys), iter(steps)
    for at in range(0, len(xs), _KEY_BLOCK):
        xs[at:at + _KEY_BLOCK] = [
            2 * (x * stride + y) + step - base
            for x, y, step in zip(xs[at:at + _KEY_BLOCK], ys, steps)]
    return xs, (ox, oy), stride


def _root_site(root: Site, origin: Site, stride: int) -> int:
    """The packed site of `root`, or -1, which touches no bond, for a
    root off the packed rows, where it would alias another column's site."""
    (rx, ry), (ox, oy) = root, origin
    if not oy <= ry <= oy + stride - 2:
        return -1
    return (rx - ox) * stride + ry - oy


def _sorted_tree(root: Site, keys: list, origin: Site, stride: int):
    """The RootedTree of the packed `keys`, which are sorted in place
    and then emptied, so the caller's reference holds no list after."""
    keys.sort()
    tree = RootedTree(root=root, keys=tuple(keys), origin=origin,
                      stride=stride)
    keys.clear()
    return tree


def _keyed_tree(root: Site, keys: list, origin: Site, stride: int) \
        -> RootedTree:
    """Check the tree axioms on the packed `keys`, in the order the
    bonds were given, and return `_sorted_tree`'s tree, its walk's parent
    list in _walk.

    Raises DuplicateBond, RootDetached, NotConnected or HasCycle, in
    that order of checking; a bond named in a message is decoded only
    then.
    """
    present = _presence(keys, stride)
    distinct = len(present) if isinstance(present, set) \
        else present.count(1)
    duplicate = None
    if distinct != len(keys):   # the first key listed twice
        seen = set()
        duplicate = next(k for k in keys if k in seen or seen.add(k))
    tree = _sorted_tree(root, keys, origin, stride)
    if duplicate is not None:
        (ax, ay, bx, by), = _ends(tree, [duplicate])
        raise DuplicateBond(
            f"bond Bond(u={(ax, ay)}, v={(bx, by)}) listed twice")
    bonds = tree.bond_count
    start = _root_site(root, origin, stride)
    parent = _walk_parents(start, present, stride, bonds + 1)
    if parent:
        tree.__dict__["_walk"] = parent
        return tree
    # not a tree: a walk with a seen-set says why
    del present
    order, _, reached = _breadth_first(start, set(tree.keys), stride)
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
    return _keyed_tree(root, *_column_keys(columns))


def tree_from_runs(root: Site, runs: Iterable) -> RootedTree:
    """Check and return the tree made of straight runs of bonds.

    A run (x, y, dx, dy, n) is the n bonds that step from site (x, y)
    by the unit vector (dx, dy); each field is an int, and n >= 1.  A
    run's packed keys are a range, so no bond is handled one by one.
    Runs that `_runs_grow_a_tree` accepts form a tree with no walk;
    any others are checked by `_keyed_tree`, which raises as it does
    for any bonds.
    """
    root = _as_site(root)
    # per run: its lowest lower endpoint, its step and n, negated when
    # the run starts from its upper end
    lows = []
    for x, y, dx, dy, n in runs:
        # bool is an int subclass
        if not type(x) is type(y) is type(dx) is type(dy) is type(n) is int:
            bad = next(v for v in (x, y, dx, dy, n) if type(v) is not int)
            raise ValueError(f"run fields must be integers, got {bad!r}")
        if n < 1:
            raise ValueError(f"a run needs at least one bond, got {n}")
        if dx * dx + dy * dy != 1:
            raise ValueError(f"a run steps by a unit vector, got {(dx, dy)}")
        if dx:
            lows.append((x, y, 1, n) if dx > 0 else (x - n, y, 1, -n))
        else:
            lows.append((x, y, 0, n) if dy > 0 else (x, y - n, 0, -n))
    if not lows:
        raise ValueError("a rooted tree needs at least one bond")
    origin = ox, oy = (min(x for x, _, _, _ in lows),
                       min(y for _, y, _, _ in lows))
    # as in _column_keys: a +y run's top lower endpoint is y + n - 1
    stride = max(y - 1 if step else y + abs(n) - 1
                 for _, y, step, n in lows) + 3 - oy
    keys = []
    for x, y, step, n in lows:
        key = 2 * ((x - ox) * stride + y - oy) + step
        gap = 2 * stride if step else 2
        keys.extend(range(key, key + gap * abs(n), gap))
    # every site packs below the highest key's upper end; past
    # _BITMAP_BOND_BYTES a bond the keys take _keyed_tree's set route
    size = (max(keys) >> 1) + stride + 1
    grown = size <= _BITMAP_BOND_BYTES * (len(keys) + 1) \
        and _runs_grow_a_tree(root, lows, origin, stride, size)
    del lows   # before the keys are sorted and checked
    if not grown:
        return _keyed_tree(root, keys, origin, stride)
    return _sorted_tree(root, keys, origin, stride)


def _runs_grow_a_tree(root: Site, lows: list, origin: Site, stride: int,
                      size: int) -> bool:
    """Whether each run of `lows` (see tree_from_runs) starts at the
    root or at a site of an earlier run, and adds as many sites never
    seen before as it has bonds.  Then every bond, run by run, joins a
    new leaf to a tree that holds the root, so the runs form a tree of
    L + 1 sites.  The sites seen are the set bytes of a bitmap over the
    `size` packed sites, and each run's are read and set as one slice."""
    ox, oy = origin
    start = _root_site(root, origin, stride)
    if not 0 <= start < size:
        return False
    seen = bytearray(size)
    seen[start] = 1
    for x, y, step, n in lows:
        gap = stride if step else 1
        low = (x - ox) * stride + y - oy
        if n > 0:
            start, new = low, slice(low + gap, low + gap * (n + 1), gap)
        else:
            start, n = low - gap * n, -n
            new = slice(low, start, gap)
        if not seen[start] or 1 in seen[new]:
            return False
        seen[new] = b"\1" * n
    return True


def downstream_weights(tree: RootedTree) -> list[int]:
    """Per-bond weights 1 + (number of bonds strictly downstream).

    One reverse pass over the breadth-first walk that validated the tree,
    taken from it, or a new one: each site's subtree size is added to
    its parent's, and the size of a non-root site is the hook of the
    bond into it.  Entry i belongs to the bond into the (i+1)-th site
    breadth first from the root.
    """
    parent = tree.__dict__.pop("_walk", None) or _walk_parents(
        _root_site(tree.root, tree.origin, tree.stride),
        _presence(tree.keys, tree.stride), tree.stride, tree.bond_count + 1)
    size = [1] * len(parent)
    # each parent entry is popped as it is read, so the list shrinks
    # while the sizes grow
    for i in range(len(parent) - 1, 0, -1):
        size[parent.pop()] += size[i]
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
    the mask of its two endpoints; a bond can be added when its mask
    meets the mask of the sites reached.  The masks of the n bonds not
    yet added are masks[:n] of one list: a picked mask is swapped to
    masks[n-1], the search goes on over masks[:n-1], and the two are
    swapped back, so no step copies the list.  With three bonds left,
    the last two are tried in both orders inline; with none left, the
    order is tallied.  No hook sizes and no orientation are read, and
    connectivity is not assumed: the last bond counts only if it
    touches a reached site.  Exponential in general; practical for
    roughly L <= 12.  With `cap` given, raises
    CapExceeded as soon as the running count passes it; a negative cap
    is a ValueError, and more than MAX_ORACLE_BONDS bonds TooLarge.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if tree.bond_count > MAX_ORACLE_BONDS:
        raise TooLarge(f"{tree.bond_count} bonds exceeds the oracle guard "
                       f"{MAX_ORACLE_BONDS}")
    bit: dict[Site, int] = {}
    masks = [1 << bit.setdefault((ax, ay), len(bit))
             | 1 << bit.setdefault((bx, by), len(bit))
             for ax, ay, bx, by in _ends(tree)]
    count = 0

    def tally(orders: int):
        nonlocal count
        count += orders
        if cap is not None and count > cap:
            raise CapExceeded(f"more than {cap} growth orders")

    def rec(n: int, sites: int):
        if n == 3:   # pick one; the last two go in either order inline
            orders = 0
            for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
                mask = masks[i]
                if mask & sites:
                    a, b = masks[j], masks[k]
                    reached = sites | mask
                    orders += (bool(a & reached and b & (reached | a))
                               + bool(b & reached and a & (reached | b)))
            if orders:
                tally(orders)
            return
        if not n:   # a tree of one or two bonds, fully added
            tally(1)
            return
        last = n - 1
        for i in range(n):
            mask = masks[i]
            if mask & sites:
                masks[i] = masks[last]
                masks[last] = mask
                rec(last, sites | mask)
                masks[last] = masks[i]
                masks[i] = mask

    rec(len(masks), 1 << bit[tree.root])
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


def linear_extension_count(children: Mapping, roots: Sequence) -> int:
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
    rescan's (site, bond) pairs, and each step draws the index that
    rng.choice would draw, so it picks the same bond.  The candidate
    list is edited only around each draw (see the module docstring).
    No site is added twice, which the site count confirms, so the tree
    needs no walk until its hooks are read.
    """
    if bond_count < 1:
        raise ValueError("bond_count must be >= 1")
    guard_tree_bonds(bond_count, MAX_TREE_BONDS)
    getrandbits = random.Random(seed).getrandbits
    off, width = bond_count + 1, 2 * bond_count + 3
    site = off * width + off   # the root, (0, 0)
    # per rank: the bond's lower endpoint less the outside site, and its
    # step (0 for +y, 1 for +x)
    lower, axis = (-width, -1, 0, 0), (1, 0, 0, 1)
    # the candidates from site s to its -width, -1, +1 and +width
    # neighbours are 4s - up + 3, 4s - 2, 4s + 5 and 4s + up
    up = 4 * width
    base = 4 * site
    sites, lows, steps = {site}, [], []
    perimeter = [base - up + 3, base - 2, base + 5, base + up]
    for _ in range(bond_count):
        n = len(perimeter)
        bits = n.bit_length()
        at = getrandbits(bits)
        while at >= n:
            at = getrandbits(bits)
        pick = perimeter[at]
        site, rank = pick >> 2, pick & 3
        sites.add(site)
        lows.append(site + lower[rank])
        steps.append(axis[rank])
        # the new site's candidates, base .. base + 3, now inside the
        # tree, are perimeter[lo:hi]: at most three slots either side
        base = pick - rank
        lo, hi = at, at + 1
        while lo and perimeter[lo - 1] >= base:
            lo -= 1
        while hi < n and perimeter[hi] < base + 4:
            hi += 1
        # the candidate to its -1 neighbour, base - 2, goes just before
        # base - 1 where that is listed, and the one to its +1 neighbour,
        # base + 5, just after base + 4: nothing else sorts between them
        # and the gap
        if site - 1 in sites:
            new = []
        elif lo and perimeter[lo - 1] == base - 1:
            lo -= 1
            new = [base - 2, base - 1]
        else:
            new = [base - 2]
        if site + 1 not in sites:
            if hi < n and perimeter[hi] == base + 4:
                hi += 1
                new += (base + 4, base + 5)
            else:
                new.append(base + 5)
        perimeter[lo:hi] = new
        # the entries before lo sort below base - 2 and the rest from
        # it up, so the -width candidate goes at or before lo, the
        # +width one at or after it
        if site - width not in sites:
            insort(perimeter, base - up + 3, 0, lo)
        if site + width not in sites:
            insort(perimeter, base + up, lo)
    if len(sites) != bond_count + 1:
        raise InternalMismatch(f"{bond_count} bonds grew {len(sites)} "
                               "sites; a tree needs L+1")
    del sites, perimeter   # before the columns
    columns = [[low // width - off for low in lows],
               [low % width - off for low in lows], steps]
    del lows, steps   # before the keys
    return _sorted_tree((0, 0), *_column_keys(columns))


# --- canonical JSON ---------------------------------------------------------

# canonical tree text is read a chunk at a time, each chunk ending at the
# first bond boundary past this many characters; see tree_from_json
_CHUNK = 1 << 18
_CANONICAL_HEAD = re.compile(
    r'[ \t\n\r]*\{"root":\[(-?(?:0|[1-9][0-9]{0,18})),'
    r'(-?(?:0|[1-9][0-9]{0,18}))\],"bonds":\[')
_BOND_SKELETON = b"[[,],[,]],"
_NUMERALS = b"-0123456789"
# a chunk's bytes by class: "[" 1, "," 2, "]" 3, "-" 4, "0" 5, any other
# digit 6; and the classes that may follow each one in bonds whose slots
# hold JSON integers, 0 standing for the chunk's end
_CLASSES = bytes.maketrans(b"[,]-0123456789", b"\1\2\3\4\5" + b"\6" * 9)
_FOLLOWERS = {1: (1, 4, 5, 6), 2: (0, 1, 4, 5, 6), 3: (2, 3), 4: (5, 6),
              5: (2, 3, 5, 6), 6: (2, 3, 5, 6)}
# reads bytes as one bit field, never a numeral as a number
_bit_field = int.from_bytes
_SPACES = bytes.maketrans(b"[]", b"  ")


def _bond_texts(tree: RootedTree, size: int):
    """The bonds as canonical JSON, `size` of them joined by commas at
    a time, formatted from tables of strings, none longer than 2 * size:
    for a tree at most size / 2 rows high, per key modulo 2 * stride,
    which names a bond's row and step, the text after the bond's first
    x and the text after its second; and per `size` keys, each x.  That
    spans at most size + 1 columns, because the keys are sorted and in a
    connected tree every column between two keys' holds a key.  A
    taller tree's rows are formatted bond by bond: a table of a chunk's
    rows would cost more to build than it saves, and a chunk can span
    every row of the tree."""
    (ox, oy), stride, keys = tree.origin, tree.stride, tree.keys
    width = 2 * stride
    tall = width > size
    if not tall:
        middles = [f",{oy + (row_step >> 1)}],[" for row_step in range(width)]
        lasts = [f",{oy + (row_step >> 1) + 1 - (row_step & 1)}]]"
                 for row_step in range(width)]
    for at in range(0, len(keys), size):
        part = keys[at:at + size]
        first = part[0] // width
        xs = [str(x) for x in range(ox + first, ox + part[-1] // width + 2)]
        base = first * width
        texts = []
        append = texts.append
        if tall:
            for key in part:
                x, row_step = divmod(key - base, width)
                y, step = oy + (row_step >> 1), row_step & 1
                append(f"[[{xs[x]},{y}],[{xs[x + step]},{y + 1 - step}]]")
        else:
            for key in part:
                x, row_step = divmod(key - base, width)
                append(f"[[{xs[x]}{middles[row_step]}"
                       f"{xs[x + (row_step & 1)]}{lasts[row_step]}")
        yield ",".join(texts)


def tree_to_json(tree: RootedTree, out=None) -> str | None:
    """Serialize to the canonical wire form, deterministic to the byte.

    {"root":[x,y],"bonds":[[[x1,y1],[x2,y2]],...]} with bonds sorted and
    integer coordinates only, formatted from the sorted keys.  Returned,
    or written to `out` a chunk of bonds at a time.
    """
    rx, ry = tree.root
    head = f'{{"root":[{rx},{ry}],"bonds":['
    texts = _bond_texts(tree, max(_CHUNK // 32, 1))
    if out is None:
        return head + ",".join(texts) + "]}"
    for text in texts:
        out.write(head + text)
        head = ","
    out.write("]}")


def _chunk_bonds(chunk: bytes) -> int:
    """The bonds in `chunk`, counted from its skeleton (its numerals
    deleted), or 0 unless that is `[[,],[,]],` once per bond."""
    skeleton = chunk.translate(None, _NUMERALS)
    bonds = len(skeleton) // len(_BOND_SKELETON)
    return bonds if skeleton == _BOND_SKELETON * bonds else 0


@cache
def _pair_verdicts() -> bytes:
    """A translation of each pair code, class | next class << 3, to "d"
    for two digits, "a" for a slot's first digit 0, "." for any other
    pair _FOLLOWERS allows and "x" for the rest."""
    table = bytearray(b"x" * 256)
    for first, followers in _FOLLOWERS.items():
        for then in followers:
            table[first | then << 3] = ord(
                "d" if first >= 5 and then >= 5 else "a" if then == 5 else ".")
    return bytes(table)


def _json_integers(chunk: bytes) -> bool:
    """Whether each slot of a chunk whose skeleton passed holds an
    integer as JSON writes it, of at most 19 digits, and nothing else
    holds a numeral; no number converted.  One translation gives each
    byte's class, an int shift sets the next byte's class beside it,
    and one more translation names each pair, so a misplaced numeral,
    an empty slot or a misplaced minus is an "x", a leading zero "ad"
    and 20 digits 19 "d"s in a row."""
    classes = _bit_field(chunk.translate(_CLASSES), "little")
    pairs = (classes | classes >> 5).to_bytes(len(chunk), "little") \
        .translate(_pair_verdicts())
    return b"x" not in pairs and b"ad" not in pairs and b"d" * 19 not in pairs


def _chunk_numbers(chunk: bytes) -> list[int]:
    """The numbers of a chunk whose skeleton passed, in order, by one
    json.loads with its brackets turned to spaces: a numeral outside a
    slot then stands next to a slot's number with no comma between,
    which json.loads refuses, and an empty slot is refused here.  So
    the chunk raises ValueError unless its slots, and only they, hold
    JSON integers, which json.loads reads as the whole text's route
    would.  json.loads is handed the chunk decoded: bytes it would
    first decode as UTF-8."""
    if b"[," in chunk or b",]" in chunk:
        raise ValueError("an empty slot")
    return json.loads(
        "[" + chunk.translate(_SPACES).rstrip(b",").decode("ascii") + "]")


def _canonical_scan(text: str):
    """(head, (start, end) of each chunk, bonds) of text with a
    canonical skeleton, or None; raises UnicodeEncodeError on text that
    is not ASCII.  head matches _CANONICAL_HEAD, whose groups are the
    root's numbers.  Each chunk ends just past a bond's comma, or at the
    end of the list."""
    head = _CANONICAL_HEAD.match(text)
    stop = len(text)
    while stop and text[stop - 1] in " \t\n\r":
        stop -= 1
    # the last bond's "]]", then the list's and the object's ends
    if not head or not text.startswith("]]]}", stop - 4):
        return None
    start, stop = head.end(), stop - 2
    cuts, total = [], 0
    while start < stop:
        end = text.find("]],[[", start + _CHUNK, stop)
        end = stop if end < 0 else end + 3   # just past "]],"
        bonds = _chunk_bonds(_chunk(text, start, end))
        if not bonds:
            return None
        cuts.append((start, end))
        total += bonds
        start = end
    return head, cuts, total


def _chunk(text: str, start: int, end: int) -> bytes:
    """text[start:end] in ASCII, given the comma that the list's last
    bond lacks."""
    chunk = text[start:end].encode("ascii")
    return chunk + b"," if chunk.endswith(b"]]") else chunk


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


def tree_from_json(text: str | list, max_bonds: int | None = None) \
        -> RootedTree:
    """Parse and validate the canonical wire form.  Liberal in bond order.

    With `max_bonds` given, a longer bond list raises TooLarge before
    any bond is checked.  Canonical text of any length is read a chunk
    at a time; any other text, and any that route turns down, by
    json.loads, so every error is the one json.loads would give.
    `text` may also be a list holding the text, which is emptied once
    its bonds are read, so a caller that keeps no other reference frees
    the text before the bonds are packed.
    """
    holder = text if type(text) is list else [text]
    del text
    if type(holder[0]) is str:
        try:
            scan = _canonical_scan(holder[0])
        except UnicodeEncodeError:
            scan = None
        if scan:
            head, cuts, total = scan
            rx, ry = head.groups()
            del scan, head   # a match holds its text
            chunks = (_chunk(holder[0], start, end) for start, end in cuts)
            if max_bonds is not None and total > max_bonds:
                # refused before any number is converted, where
                # json.loads would have read every number
                if all(map(_json_integers, chunks)):
                    _guard_bonds(total, max_bonds)
            else:
                columns = [[], [], []]
                try:
                    for chunk in chunks:
                        numbers = iter(_chunk_numbers(chunk))
                        _unit_columns(zip(numbers, numbers, numbers, numbers),
                                      columns)
                except ValueError:   # json.loads names the bond at fault
                    columns.clear()
                else:
                    holder.clear()
                    return _keyed_tree((int(rx), int(ry)),
                                       *_column_keys(columns))
    root, columns = _decoded_columns(holder.pop(), max_bonds)
    return _keyed_tree(root, *_column_keys(columns))
