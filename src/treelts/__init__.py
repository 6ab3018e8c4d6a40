"""Reduction and reachability checking for tree networks of reset-on-sync
labelled transition systems."""

import types

from .checker import Entry, Verdict, check_ef, check_eg
from .errors import (
    EmptyProjection,
    InvalidWitness,
    NotATree,
    NotTwoLevel,
    OracleTooLarge,
    ParseError,
    StateLimitExceeded,
    TreeLtsError,
    UnknownRoot,
    ValidationError,
)
from .harness import (
    GenConfig,
    StatsReport,
    SuiteReport,
    equivalence_suite,
    gen_random_tree,
    stats,
)
from .model import (
    DEFAULT_SILENT,
    Component,
    Network,
    Violation,
    infer_topology,
    subnetwork,
    two_level_network,
    validate_live_reset,
)
from .product import (
    ExplicitLts,
    FreshInit,
    GlobalTuple,
    Path,
    PathPrefix,
    SquareOrigin,
    component_lts,
    full_product,
    prefix_from_states,
    prefix_of,
    project_prefix,
    resolve_prefix,
)
from .reduction import (
    ReductionStage,
    SumOfSquares,
    build_sq,
    build_sq_unreduced,
    cmpl,
    compute_locked,
    lift_witness,
    prune_locked,
    reduce_net,
    reduce_net_traced,
    reduced_lts,
)

__version__ = "0.1.0"

#: The names imported above; the submodules stay reachable as attributes.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
