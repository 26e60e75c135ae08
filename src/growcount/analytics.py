"""Exact and log-domain analytics for the tower tree family.

Two regimes coexist.  Small generations are handled exactly: bond
counts computed by two independent formulas that must agree, the
stored level recurrence against a ratio sum over first-generation
counts, on the (odd, exponent) pairs of TowerParams and small
rationals, and the full weight product and an explicit upper bound on
it, as integers, read from generators.Levels alone, so custom trees
have them too.  Large generations live purely in the log domain, where
everything is normalized per first-generation bond: the log-weight
divided by the first-generation count stays order one for every
generation even though both quantities leave the representable range
after a handful of levels.

The bridge between the regimes is the series with terms
4*(a/2^a)^2 evaluated at successive tower values a.  `_series_rows` is
the one place it is evaluated: its rows of terms and running sums feed
epsilon0, the constant C, the bound iteration and the structure
fractions, which keeps the final margin computation free of
catastrophic cancellation.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .core import Dyadic, _bonds_phrase, balanced_product
from .errors import BoundViolated, InternalMismatch, TooLarge
from .generators import MAX_INT_BITS, Levels, TowerParams

LN2 = math.log(2.0)

# series terms below this are dropped; every tail is below 2x the first
# dropped term, so truncation error is far below double precision
TERM_FLOOR = 1e-300

# exact weight products are refused past this many bonds
MAX_EXACT_WEIGHT_BONDS = 10**6

# lgamma(float(n)) overflows once n*log(n) leaves the double range,
# around n = 2^1015; stay well clear of it
LGAMMA_MAX_BITS = 900


def log_factorial(n: int) -> float:
    """Natural log of n! via lgamma; relative error a few ulp."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.lgamma(float(n) + 1.0)


def _per_bond_log_factorial(n: Dyadic) -> float:
    """log(n!)/n, usable even when n itself cannot become a float."""
    if n.bit_length() <= LGAMMA_MAX_BITS:
        return log_factorial(int(n)) / int(n)
    # Stirling; the 0.5*log(2*pi*n)/n correction is already below double
    # resolution once n needs a few hundred bits
    return n.log() - 1.0


def _series_rows(a0: int) -> list[tuple[int, float, float, float, float]]:
    """The epsilon series as rows (k, e1, e2, r, partial), k = 2, 3, ...

    With a the tower value a_{k-2}: e1 = a^2/2^a, e2 = a^2/4^a, the term
    r = 4*e2 and partial the running sum of r through k.  e1 and e2 are
    evaluated in log domain so no huge power is ever materialized.  The
    list ends at the first row where both underflow to zero; every later
    row reads as that one.
    """
    rows = []
    a, k, partial = a0, 2, 0.0
    while True:
        if a.bit_length() > 1000:
            e1 = e2 = 0.0
        else:
            la = math.log(a)
            al2 = float(a) * LN2
            e1 = math.exp(2.0 * la - al2)
            e2 = math.exp(2.0 * la - 2.0 * al2)
        r = 4.0 * e2
        partial += r
        rows.append((k, e1, e2, r, partial))
        if e1 == 0.0 and e2 == 0.0:
            return rows
        a = 1 << a
        k += 1


# --- the epsilon series -----------------------------------------------------

class EpsilonReport(NamedTuple):
    """Value and per-term breakdown of the excess-bond series."""

    a0: int
    value: float
    terms: tuple          # (k, term) pairs actually summed
    truncation_k: int     # index of the first dropped term
    tail_bound: float     # upper bound on everything dropped


def epsilon0_breakdown(a0: int) -> EpsilonReport:
    """Sum 4*(a_{k-2}/2^a_{k-2})^2 over k >= 2 with full bookkeeping.

    This is the relative excess of total bonds over first-generation
    bonds, uniformly in the generation.  Terms are collected until they
    fall below TERM_FLOOR; consecutive terms shrink by many orders of
    magnitude, so twice the first dropped term bounds the tail.
    """
    if a0 < 1:
        raise ValueError("a0 must be >= 1")
    rows = _series_rows(a0)
    # the zero row ends the list, so some row is below the floor
    n = next(i for i, row in enumerate(rows) if row[3] < TERM_FLOOR)
    return EpsilonReport(
        a0=a0, value=rows[n - 1][4] if n else 0.0,
        terms=tuple((k, r) for k, _e1, _e2, r, _p in rows[:n]),
        truncation_k=rows[n][0], tail_bound=2.0 * rows[n][3],
    )


def epsilon0(a0: int) -> float:
    return epsilon0_breakdown(a0).value


def epsilon_partial_exact(a0: int, upto_k: int) -> Fraction:
    """Exact rational partial sum of the epsilon series through k = upto_k."""
    total = Fraction(0)
    a = a0
    for k in range(2, upto_k + 1):
        if a > MAX_INT_BITS:
            raise TooLarge(
                f"term {k} needs 2 to the power of a "
                f"{a.bit_length()}-bit exponent"
            )
        total += 4 * Fraction(a, 1 << a) ** 2
        a = 1 << a
    return total


# --- exact bond counts and weights ------------------------------------------

def _tower_only(params: Levels, what: str) -> None:
    """Raise ValueError unless `params` are the tower family's: `what`
    reads its seed and first-generation counts, which custom levels
    do not have."""
    if not isinstance(params, TowerParams):
        raise ValueError(f"{what} needs tower-family levels (TowerParams); "
                         "custom levels have no a0 or first generation")


def _exact_level(params: Levels, generation: int | None) -> tuple:
    """The checked generation and its stored bond count; TooLarge past
    the integer horizon."""
    j = params.checked_generation(generation)
    total = params.bond_pair(j)
    if total is None:
        raise TooLarge(f"generation {j} bond count exceeds the integer budget")
    return j, total


def _shift_reduced(num: Dyadic, den: Dyadic) -> Fraction:
    """Fraction(int(num), int(den)), with the factors of two that num and
    den share shifted out first.

    Past the seed every tower value is a power of two, so the family's
    ratios are a small number times a power of two over another one;
    only the difference of the exponents is applied, so Fraction's gcd,
    which is quadratic, runs on small integers instead of megabit ones.
    """
    shift = num.exp - den.exp
    if shift >= 0:
        return Fraction(num.odd << shift, den.odd)
    return Fraction(num.odd, den.odd << -shift)


def bond_count(params: TowerParams, generation: int | None = None) -> Dyadic:
    """Exact number of bonds, computed two independent ways, as a Dyadic.

    Route one is the stored count from `_bond_counts`; route two
    evaluates first_gen[j] * (1 + 4*sum of the ratios
    first_gen[k-2]/first_gen[k-1]) in rational arithmetic, each ratio
    built by `_shift_reduced`.  With num/den the bracket in lowest
    terms, the product is the stored count exactly when stored * den ==
    first_gen[j] * num.  Both routes run on the pairs, so no megabit
    integer is formed.  Disagreement (or a non-integral rational)
    raises InternalMismatch; a generation past the integer horizon
    raises TooLarge.  Custom levels raise ValueError.
    """
    _tower_only(params, "bond_count")
    j, stored = _exact_level(params, generation)
    first_gen = params.first_gen_pairs
    ratio_sum = Fraction(0)
    for k in range(2, j + 1):
        ratio_sum += _shift_reduced(first_gen[k - 2], first_gen[k - 1])
    num, den = (1 + 4 * ratio_sum).as_integer_ratio()
    if stored * Dyadic.of(den) != first_gen[j] * Dyadic.of(num):
        raise InternalMismatch(
            f"bond-count formulas disagree at a0={params.a0}, generation {j}"
        )
    return stored


def _backbone_weight_product(length: int, count: int, sub_bonds: int) -> int:
    """Product of downstream weights along one backbone.

    The i-th bond (1-based, root end first) has length-i backbone bonds
    ahead of it plus every branch of sub_bonds bonds attached at position i or
    later, so its weight is 1 + (length-i) + sub_bonds*(count - c + 1)
    where c = ceil(i*count/length).  Within a run of constant c the
    weights are consecutive integers and the run collapses to a falling
    factorial.
    """
    spacing = length // count
    parts = []
    for c in range(1, count + 1):
        base = 1 + length + sub_bonds * (count - c + 1)
        hi = base - ((c - 1) * spacing + 1)
        # the run's lowest weight, hi - spacing + 1, is at least 1
        # because c * spacing <= length
        parts.append(math.perm(hi, spacing))
    return balanced_product(parts)


def _exact_weight_guard(params: Levels, generation: int | None) -> int:
    """The checked generation, once its exact weight integer is known to
    stay within MAX_EXACT_WEIGHT_BONDS bonds; TooLarge otherwise."""
    j, total = _exact_level(params, generation)
    if total > Dyadic.of(MAX_EXACT_WEIGHT_BONDS):
        raise TooLarge(
            f"{_bonds_phrase(total)} exceeds the exact-weight guard "
            f"{MAX_EXACT_WEIGHT_BONDS}"
        )
    return j


def exact_weight(params: Levels, generation: int | None = None) -> int:
    """The exact weight product, by level recursion.

    Level one is a path, so it contributes (backbone length)!; each
    later level contributes the branch copies' weight to the power of
    the branch count times the backbone product above.  Cross-checked
    in the tests against the per-bond weight table of the materialized
    tree.
    """
    j = _exact_weight_guard(params, generation)
    backbone, branches = params.backbone, params.branches
    bond_counts = params.bond_counts
    w = math.factorial(backbone[1])
    for k in range(2, j + 1):
        w = w ** branches[k] * _backbone_weight_product(
            backbone[k], branches[k], bond_counts[k - 1]
        )
    return w


# --- the recursive upper bound ----------------------------------------------

class LogWeightBound(NamedTuple):
    """Log-domain upper bound on the weight product.

    per_firstgen is log(bound) divided by the first-generation count
    and is finite for every generation; ln is the absolute log(bound),
    or None once the first-generation count leaves the double range.
    terms holds the (k, increment) breakdown of the iteration, one pair
    per series row through the generation; levels past the rows add 0.
    eps_partial is the series partial sum through the generation.
    """

    generation: int
    per_firstgen: float
    ln: float | None
    terms: tuple
    eps_partial: float


def weight_upper_bound(
    params: Levels, generation: int | None = None, mode: str = "exact"
):
    """Upper bound on the weight product: every backbone weight is at
    most the total bond count, so the level recursion is bounded by
    bound(k-1) ** branches[k] * bond_counts[k] ** backbone[k].

    Exact mode returns the bound as an integer under the same guard as
    `exact_weight`.  Log mode divides through by the first-generation
    count, which turns the recursion into adding one increment
    (backbone[k]/first_gen[k]) * log(bond_counts[k]) per level, and
    works for any generation; the log bond count uses the exact value
    while it is materializable and the series form past that, and
    takes tower-family levels only: custom ones raise ValueError.
    """
    j = params.checked_generation(generation)

    if mode == "exact":
        _exact_weight_guard(params, j)
        backbone, branches = params.backbone, params.branches
        bond_counts = params.bond_counts
        bound = math.factorial(backbone[1])
        for k in range(2, j + 1):
            bound = bound ** branches[k] * bond_counts[k] ** backbone[k]
        return bound

    if mode != "log":
        raise ValueError(f"mode must be 'exact' or 'log', got {mode!r}")
    _tower_only(params, 'weight_upper_bound(mode="log")')

    first_gen = params.first_gen_pairs
    x = _per_bond_log_factorial(first_gen[1])
    terms = [(1, x)]
    partial = 0.0
    # the rows end where every later term is zero and partial stays put
    for k, e1, e2, r, partial in _series_rows(params.a0)[:j - 1]:
        count = params.bond_pair(k)
        if count is not None:
            term = r * count.log()
        else:
            # series form of r*log(bond count), valid because each
            # tower value is 2 to the previous one
            term = 8.0 * LN2 * e1 + 4.0 * math.log1p(partial) * e2
        x += term
        terms.append((k, term))

    ln = None
    if params.bond_pair(j) is not None and first_gen[j].bit_length() <= 1020:
        total_ln = x * float(first_gen[j])
        if math.isfinite(total_ln):
            ln = total_ln
    return LogWeightBound(
        generation=j, per_firstgen=x, ln=ln, terms=tuple(terms),
        eps_partial=partial,
    )


# --- certified constants ----------------------------------------------------

class ConstantsReport(NamedTuple):
    """The growth constant C with its full derivation trail.

    c1 majorizes the sum of all bound-iteration increments past the
    first level, c2 adds the per-bond log-weight of level one, and
    C = exp(c2) certifies growth_count >= L!/C^L for the whole family.
    """

    a0: int
    epsilon0: float
    epsilon_tail_bound: float
    c1: float
    c2: float
    c: float
    terms: tuple          # (k, term) pairs of the c1 series
    truncation_k: int

    def to_dict(self) -> dict:
        return {
            "a0": self.a0,
            "epsilon0": self.epsilon0,
            "C1": self.c1,
            "C2": self.c2,
            "C": self.c,
            "truncationK": self.truncation_k,
        }


def constants(a0: int) -> ConstantsReport:
    """Evaluate the certified constants for seed a0.

    The c1 series majorizes each log bond count by the log
    first-generation count plus log1p(epsilon0); the k-th term is then
    (8 log 2) a^2/2^a + 4 log1p(epsilon0) a^2/4^a with a the tower
    value two levels down, summed until terms drop below TERM_FLOOR.
    """
    eps = epsilon0_breakdown(a0)
    ln1p_eps = math.log1p(eps.value)
    c1 = 0.0
    terms = []
    # the zero row ends the rows, so the loop always breaks
    for k, e1, e2, _r, _p in _series_rows(a0):
        t = 8.0 * LN2 * e1 + 4.0 * ln1p_eps * e2
        if t < TERM_FLOOR:
            break
        c1 += t
        terms.append((k, t))
    x1 = _per_bond_log_factorial(Dyadic((1, 2 * a0)))
    c2 = c1 + x1
    c = math.exp(c2) if c2 < 709.0 else math.inf
    if not c > 1.0:
        raise BoundViolated(f"C = exp({c2}) should exceed 1")
    return ConstantsReport(
        a0=a0, epsilon0=eps.value, epsilon_tail_bound=eps.tail_bound,
        c1=c1, c2=c2, c=c, terms=tuple(terms), truncation_k=k,
    )


class MainBoundReport(NamedTuple):
    """Certification that the log weight stays below C2 per bond.

    margin_per_bond is (C2*L - log W)/L with L the bond count and W the
    weight bound, assembled from manifestly non-negative pieces;
    margin_naive is the same quantity computed the direct way and must
    agree to the error budget.  When L still fits a double the
    equivalent count form log N >= log L! - L log C is evaluated too.
    log_weight is the `ln` of the LogWeightBound, analyze's logW.
    """

    a0: int
    generation: int
    constants: ConstantsReport
    log_weight_per_firstgen: float
    log_weight: float | None
    eps_partial: float
    margin_per_bond: float
    margin_naive: float
    log_factorial_bonds: float | None
    log_count_lower: float | None
    log_count_required: float | None

    def to_dict(self) -> dict:
        out = self.constants.to_dict()
        out["j"] = self.generation
        out["logWPerFirstGen"] = self.log_weight_per_firstgen
        out["marginPerBond"] = self.margin_per_bond
        return out


def verify_main_bound(params: TowerParams, generation: int) -> MainBoundReport:
    """Check the certified lower bound on growth counts at one generation.

    Raises BoundViolated if any margin is negative (the inequality
    always holds, so that would mean an implementation bug) and
    InternalMismatch if the two margin computations drift apart.
    """
    a0 = params.a0
    rep = constants(a0)
    wb = weight_upper_bound(params, generation, mode="log")

    partial = wb.eps_partial
    ratio = 1.0 / (1.0 + partial)
    naive = rep.c2 - wb.per_firstgen * ratio

    majorized = dict(rep.terms)
    slack = 0.0
    for k, t in wb.terms:
        if k >= 2:
            slack += majorized.pop(k, 0.0) - t
    tail = sum(majorized.values())
    deficit = wb.per_firstgen * (partial / (1.0 + partial))
    margin = slack + tail + deficit

    if abs(margin - naive) > 1e-9 * max(1.0, rep.c2):
        raise InternalMismatch(
            f"margin decomposition {margin} vs direct {naive} at "
            f"a0={a0}, generation {generation}"
        )
    if margin < 0.0:
        raise BoundViolated(
            f"negative margin {margin} at a0={a0}, generation {generation}"
        )

    log_fact = lower = required = None
    count = params.bond_pair(generation)
    if count is not None and count.bit_length() <= LGAMMA_MAX_BITS:
        total = int(count)
        log_fact = log_factorial(total)
        # first_gen[j] <= L < 2^900 here, so ln (analyze's logW) is set
        lower = log_fact - wb.ln
        required = log_fact - float(total) * rep.c2
        if lower < required - 1e-9 * max(1.0, abs(required)):
            raise BoundViolated(
                f"log N {lower} below required {required} at "
                f"a0={a0}, generation {generation}"
            )
    return MainBoundReport(
        a0=a0, generation=generation, constants=rep,
        log_weight_per_firstgen=wb.per_firstgen, log_weight=wb.ln,
        eps_partial=partial, margin_per_bond=margin, margin_naive=naive,
        log_factorial_bonds=log_fact, log_count_lower=lower,
        log_count_required=required,
    )


# --- structural fractions ---------------------------------------------------

class StructureReport(NamedTuple):
    """How a generation's bonds split between bulk and backbone.

    Exact rationals when the generation is within the integer horizon,
    floats past it.  bond_ratio divides total bonds by first-generation
    bonds and always lies in [1, 1+epsilon0]; backbone_fraction is
    bounded by 4*(a/2^a)^2 at the tower value two levels down.
    """

    a0: int
    generation: int
    exact: bool
    bond_ratio: float
    bond_ratio_exact: Fraction | None
    first_gen_fraction: float
    first_gen_fraction_exact: Fraction | None
    backbone_fraction: float
    backbone_fraction_exact: Fraction | None
    backbone_bound: float
    epsilon0: float

    def to_dict(self) -> dict:
        return {
            "bondRatio": self.bond_ratio,
            "firstGenerationFraction": self.first_gen_fraction,
            "backboneFraction": self.backbone_fraction,
            "backboneBound": self.backbone_bound,
            "exact": self.exact,
        }


def structure_fractions(params: TowerParams, generation: int) \
        -> StructureReport:
    """Fractions (bond ratio, first generation, backbone) at a generation.

    All three inequalities (ratio within [1, 1+epsilon0], backbone
    fraction under its bound) are verified, in rational arithmetic when
    possible; violations raise InternalMismatch.  Within the integer
    horizon the total is `bond_count`'s, so both bond-count routes run
    here, once.  The exact ratio and backbone fraction are built from
    the pairs by `_shift_reduced`, so no gcd runs on the megabit bond
    count, and the first-generation fraction is the ratio inverted.
    """
    if not 2 <= generation <= params.generations:
        raise ValueError(
            f"structure fractions need generation in 2..{params.generations}")
    a0 = params.a0
    eps = epsilon0(a0)
    j = generation

    if params.bond_pair(j) is not None:
        total = bond_count(params, j)
        first_gen = params.first_gen_pairs
        ratio = _shift_reduced(total, first_gen[j])
        first = 1 / ratio
        backbone_frac = _shift_reduced(params.backbone_pairs[j], total)
        # 4*(a/2^a)^2 with a the tower value two levels down
        bound = 4 * _shift_reduced(first_gen[j - 2], first_gen[j - 1])
        if ratio < 1 or backbone_frac > bound:
            raise InternalMismatch(
                f"structure bound failed at a0={a0}, generation {j}"
            )
        if ratio - 1 != epsilon_partial_exact(a0, j):
            raise InternalMismatch(
                f"bond ratio does not match the series at a0={a0}, "
                f"generation {j}"
            )
        if float(ratio - 1) > eps * (1.0 + 1e-12) + TERM_FLOOR:
            raise InternalMismatch(
                f"bond ratio exceeds 1+epsilon0 at a0={a0}, generation {j}"
            )
        return StructureReport(
            a0=a0, generation=j, exact=True,
            bond_ratio=float(ratio), bond_ratio_exact=ratio,
            first_gen_fraction=float(first), first_gen_fraction_exact=first,
            backbone_fraction=float(backbone_frac),
            backbone_fraction_exact=backbone_frac,
            backbone_bound=float(bound), epsilon0=eps,
        )

    rows = _series_rows(a0)
    _k, _e1, _e2, r_j, partial = rows[min(j - 2, len(rows) - 1)]
    ratio_f = 1.0 + partial
    if ratio_f > (1.0 + eps) * (1.0 + 1e-12):
        raise InternalMismatch(
            f"bond ratio exceeds 1+epsilon0 at a0={a0}, generation {j}"
        )
    backbone_f = r_j / ratio_f
    return StructureReport(
        a0=a0, generation=j, exact=False,
        bond_ratio=ratio_f, bond_ratio_exact=None,
        first_gen_fraction=1.0 / ratio_f, first_gen_fraction_exact=None,
        backbone_fraction=backbone_f, backbone_fraction_exact=None,
        backbone_bound=r_j, epsilon0=eps,
    )
