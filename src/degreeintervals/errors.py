"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class NotGraphicalError(ValueError):
    """A degree sequence admits no simple graph."""


class NotRealizableError(ValueError):
    """The two-endpoint extremal profile has no graph realization."""


class InfeasibleConstructionError(ValueError):
    """No integer edge assignment satisfies the requested construction."""


class EnumerationLimitError(ValueError):
    """Requested sequence scan is above the order limit `sequences.HARD_ORDER_LIMIT`."""


class InfeasibleSearchError(RuntimeError):
    """The grid solver found no feasible point; cannot happen for valid input."""
