"""Exception types shared across the package, and the number rules.

`_real`, `_count`, `_site` and `_seed` read the numbers of every public
entry point.  Each returns the plain Python float or int a value equals, numpy
scalars and Fractions included, or raises the caller's error class naming
the field for a bool, a string or a number of the wrong kind.  The rules
also own the range of a single number: `_real` takes `least` and `finite`,
`_count` takes `least` and `most`, and a number outside its range raises
the same error in the same words, "<field> must be <what>, got <value>",
with the plain number it read.  Checks that relate two numbers stay with
their callers: gamma_min < gamma_max and gamma_min > 0 for log spacing,
the pulse-mode rules of a sweep, lo < hi of a random interval, and the
network invariants with their own error classes (`NonFiniteValue`,
`IndexOutOfRange` and the rest).
"""

import math
import numbers


class NetworkError(ValueError):
    """A network specification violates its invariants."""


class IndexOutOfRange(NetworkError):
    pass


class DuplicateEdge(NetworkError):
    pass


class SelfCoupling(NetworkError):
    pass


class OverlappingSourceSink(NetworkError):
    pass


class InvalidSize(NetworkError):
    pass


class UnknownUnit(NetworkError):
    pass


class NonFiniteValue(NetworkError):
    """An on-site energy or a coupling is NaN or infinite."""


class SearchBudgetExceeded(RuntimeError):
    """Symmetry search refused: network larger than the site limit its caller set.

    The search takes no limit by default; `detect_inversion_symmetry` raises
    this only for a `site_limit` passed to it.
    """


class DimensionMismatch(ValueError):
    pass


class NonUniqueSteadyState(RuntimeError):
    """The steady state is not unique: the generator's null space, or the
    sector system solved for it, has dimension > 1."""


class SolveFailure(RuntimeError):
    pass


class NotChargeConserving(SolveFailure):
    """The generator couples the charge sector to vacuum-site coherences."""


class NonPhysicalState(RuntimeError):
    """A density matrix violates hermiticity, trace or positivity bounds.

    Raised on a stack of states, it names the first bad one by its
    position in the stack as `index`; on a single state `index` is None.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class GridTooCoarse(ValueError):
    pass


class MissingExternalData(FileNotFoundError):
    """A preset needs an externally supplied data file."""


def _real(value, field: str, error: type[ValueError] = ValueError, what: str = "a number",
          least: float | None = None, finite: bool = False) -> float:
    """`value` as a float: any numbers.Real but a bool, finite if `finite` and at least `least` if given.

    `what` is the rule's name in the error, for a value of the wrong type or range.
    """
    # float and numpy.float64 skip the numbers.Real check, which costs about 0.5 us
    if isinstance(value, float):
        x = float(value)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{field} must be {what}, got {value!r}")
    else:
        try:
            x = float(value)
        except OverflowError:
            raise error(f"{field} is too large for a float") from None
    # NaN fails both range tests
    if (finite and not math.isfinite(x)) or (least is not None and not x >= least):
        raise error(f"{field} must be {what}, got {x!r}")
    return x


def _count(value, field: str, error: type[ValueError] = ValueError, what: str = "an integer",
           least: int | None = None, most: int | None = None) -> int:
    """`value` as an int: any numbers.Integral but a bool, within [least, most] where they are given."""
    integral = type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral)
    if not integral:
        raise error(f"{field} must be {what}, got {value!r}")
    n = int(value)
    if (least is not None and n < least) or (most is not None and n > most):
        raise error(f"{field} must be {what}, got {n!r}")
    return n


def _site(value, field: str) -> int:
    """A site index of a network by the count rule; `validate_network` checks that it lies in 1..n."""
    return _count(value, field, NetworkError, "an integer site index")


def _seed(value, error: type[ValueError] = ValueError) -> int:
    """A seed of a random draw: a nonnegative integer by the count rule."""
    return _count(value, "seed", error, "a nonnegative integer", least=0)
