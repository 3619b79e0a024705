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


class InfeasibleSearchError(ValueError):
    """The grid solver found no feasible point.

    This happens for valid input too: the grid keeps x >= `optim.X_EDGE`,
    where the cross constraint fails once d is below about
    2e-9 d_plus (very low densities, or very large orders)."""
