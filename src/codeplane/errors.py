"""Exception hierarchy shared by all modules."""


class CodeplaneError(Exception):
    """Base class for all library errors."""


class ContractViolationError(CodeplaneError, ValueError):
    """A documented precondition or invariant was violated by the caller."""


class InternalContractError(CodeplaneError, RuntimeError):
    """An internal invariant failed; indicates a bug or an out-of-contract input."""


class BudgetExceededError(CodeplaneError, RuntimeError):
    """An enumeration exceeded its configured node/size cap."""

    def __init__(self, message, *, nodes=None, cap=None):
        super().__init__(message)
        self.nodes = nodes
        self.cap = cap


class DistanceTooSmallError(ContractViolationError):
    """Puncturing requires minimum distance at least 2."""


class DegenerateInputError(ContractViolationError):
    """Operation undefined on this degenerate code (e.g. all coordinates constant)."""


class UnknownSeedFamilyError(ContractViolationError):
    """Requested seed-code family name is not registered."""


class SeedNotFoundError(CodeplaneError, RuntimeError):
    """No seed code reachable within budget for the requested target point.

    Carries the search log so callers can report what was tried.
    """

    def __init__(self, message, *, search_log=()):
        super().__init__(message)
        self.search_log = tuple(search_log)


class StabilizationTimeoutError(CodeplaneError, RuntimeError):
    """A wait-until-stable loop hit its wall-clock limit.

    A legitimate outcome for co-r.e. inputs, which promise no convergence
    rate. ``partial`` holds whatever state was reached. For the grid sweeps
    it is the list of columns finished so far, column i at index i: for
    ``build_strip`` a pair (member row ranges, row ranges still undecided at
    the precision cap), each range an inclusive ``(lo, hi)``; for
    ``two_sided_approx`` the column's band ``(a, b)`` of undecided rows.
    """

    def __init__(self, message, *, partial=None):
        super().__init__(message)
        self.partial = partial
