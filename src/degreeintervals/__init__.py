"""Guaranteed vertex-degree windows around the average degree.

A graph of order n and average degree d always has a vertex whose degree
lies in the half-order interval around d, and, for any chosen upper end
d_plus above sqrt(d*n), in the window [d_minus(n, d, d_plus), d_plus].
This package evaluates the closed forms exactly, validates them against
a grid-search relaxation oracle and exhaustive scans over all graphical
degree sequences at small order, and constructs the graphs that sit on
the boundary of the guarantees.
"""

from .bounds import (
    ExtremalProfile,
    complement_edge_count_slack,
    d_minus_bound,
    edge_count_slack,
    ell_min,
    extremal_profile,
    half_order_interval,
    opt_value,
    scaled_d_minus,
    scaled_d_minus_deriv,
    scaled_ell_min,
    symmetric_d_plus,
)
from .errors import (
    DomainError,
    EnumerationLimitError,
    InfeasibleConstructionError,
    InfeasibleSearchError,
    NotGraphicalError,
    NotRealizableError,
)
from .extremal import ConstructionResult, build_near_extremal, build_split_extremal
from .graphs import Graph, format_edge_list, parse_edge_list
from .optim import (
    OptSolution,
    check_feasible,
    closed_form_solution,
    constraint_residuals,
    d_plus_test_grid,
    reference_cells,
    solve_grid,
)
from .params import GraphParams, Interval
from .sequences import (
    PeelStep,
    VerificationReport,
    as_degree_sequence,
    empirical_d_minus,
    enumerate_graphical,
    find_vertex_in_interval,
    graphical_sequences,
    is_graphical,
    peel_trace,
    realize,
    verify_half_order,
    verify_window,
    window_grid,
)

__version__ = "0.1.0"

__all__ = [
    "ConstructionResult", "DomainError", "EnumerationLimitError",
    "ExtremalProfile", "Graph", "GraphParams", "InfeasibleConstructionError",
    "InfeasibleSearchError", "Interval", "NotGraphicalError",
    "NotRealizableError", "OptSolution", "PeelStep", "VerificationReport",
    "as_degree_sequence", "build_near_extremal", "build_split_extremal",
    "check_feasible", "closed_form_solution", "complement_edge_count_slack",
    "constraint_residuals", "d_minus_bound", "d_plus_test_grid",
    "edge_count_slack", "ell_min", "empirical_d_minus",
    "enumerate_graphical", "extremal_profile", "find_vertex_in_interval",
    "format_edge_list", "graphical_sequences", "half_order_interval",
    "is_graphical", "opt_value", "parse_edge_list", "peel_trace", "realize",
    "reference_cells", "scaled_d_minus", "scaled_d_minus_deriv",
    "scaled_ell_min", "solve_grid", "symmetric_d_plus", "verify_half_order",
    "verify_window", "window_grid",
]
