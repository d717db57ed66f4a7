"""Finite metric spaces, lexicographic products, and exact metric dimension."""

import types

from .space import (
    DEFAULT_TOLERANCE,
    FiniteMetricSpace,
    SpaceStats,
    ValidationReport,
    Violation,
    ball,
    diameter,
    load_space,
    nearness,
    nearness_point,
    save_space,
    slack,
    space_from_json,
    space_stats,
    space_to_json,
    validate,
)
from .construct import (
    DisconnectedGraphError,
    Graph,
    ProductSpace,
    complete_graph,
    cycle_graph,
    discrete_metric,
    fiber,
    graph_metric,
    gravitational,
    lexicographic,
    load_graph,
    parse_edge_list,
    path_graph,
    squash,
)
from .resolving import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    ResolveResult,
    SolveStats,
    coordinates,
    greedy_generator,
    metric_dimension,
    pair_table,
    resolves,
)
from .twins import (
    SpecialClassSet,
    TwinPartition,
    is_twins_free,
    special_classes,
    twin_classes,
)
from .theory import (
    DEFAULT_PRODUCT_CAP,
    SizeGuardExceeded,
    VerificationReport,
    connected_graph_spaces,
    fiber_dimensions,
    formula_rhs,
    random_connected_graph,
    random_metric_space,
    random_pairs,
    verify_all,
    verify_corollaries,
    verify_diameter,
    verify_dimension,
    verify_squash,
    weighted_corpus_spaces,
)

__version__ = "0.1.0"

# Every public name imported above, so the import list is the one source.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
