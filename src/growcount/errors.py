"""Exception taxonomy shared across the package.

Validation errors describe why a bond set is not a usable rooted tree.
Guard errors (TooLarge, CapExceeded) fire before a computation would
exhaust memory or time.  Internal* errors signal implementation bugs:
they mean two routes to the same exact quantity disagreed and should
never be seen by a correct build.
"""


class GrowcountError(Exception):
    """Base class for all package-specific errors."""


# --- tree validation -------------------------------------------------------

class DuplicateBond(GrowcountError):
    """The same bond appears twice in the input."""


class RootDetached(GrowcountError):
    """The root site is not an endpoint of any bond."""


class NotConnected(GrowcountError):
    """Some bond cannot be reached from the root."""


class HasCycle(GrowcountError):
    """The bond set contains a cycle (site count != bond count + 1)."""


# --- generation and resource guards ---------------------------------------

class OddLength(GrowcountError):
    """Comb trees need an even number of bonds."""


class TooLarge(GrowcountError):
    """The requested object exceeds a materialization guard."""


class ConstraintViolated(GrowcountError):
    """A hierarchical-tree parameter constraint failed; message names it."""


class OverlapDetected(ConstraintViolated):
    """Embedding placed two bonds or sites on top of each other."""


class CapExceeded(GrowcountError):
    """Enumeration passed the caller-supplied cap."""


# --- internal consistency --------------------------------------------------

class InternalNonDivisible(GrowcountError):
    """L! was not divisible by the weight product: weight-table bug."""


class InternalMismatch(GrowcountError):
    """Two independent routes to one exact quantity disagreed."""


class BoundViolated(GrowcountError):
    """A certified inequality came out negative: implementation bug."""
