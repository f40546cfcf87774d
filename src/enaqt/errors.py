"""Exception types shared across the package."""


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
    """Symmetry search refused: network larger than the configured site limit."""


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
