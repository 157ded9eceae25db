"""Distance-d domination, gamma-graphs, blockers and realizations, and
Johnson-graph labellability for small graphs."""

from .clutters import Clutter, blocker, validate_clutter
from .domination import (
    DominationResult,
    domination_number,
    is_distance_d_dominating,
    min_dominating_sets,
)
from .errors import GraphFormatError, UnsupportedSizeError, WorkLimitExceeded
from .gammagraph import GammaGraph, build_gamma_graph
from .graphs import (
    Graph,
    are_isomorphic,
    canonical_form,
    cartesian_product,
    connected_components,
    induced_subgraph,
    make_family,
    parse_graph6,
    write_graph6,
)
from .labelling import (
    Labelling,
    SearchBudget,
    SearchOutcome,
    find_labelling,
    is_valid_labelling,
    product_labelling,
    star_labelling,
    wheel_labelling,
    with_common_symbol,
)
from .classify import (
    ClassificationReport,
    Verdict,
    decide_labellable,
    enumerate_connected_graphs,
    is_minimally_unlabellable,
)
from .realizer import (
    RealizedGraph,
    construction_size,
    prior_construction_size,
    realize,
    verify_realization,
)

__version__ = "0.1.0"
