"""Pin the package's public names, so adding or removing one is deliberate,
and keep test-only data out of the package."""

import importlib.util
import types

import gammagraphs

PUBLIC_NAMES = [
    "ClassificationReport",
    "Clutter",
    "DominationResult",
    "GammaGraph",
    "Graph",
    "GraphFormatError",
    "Labelling",
    "RealizedGraph",
    "SearchBudget",
    "SearchOutcome",
    "UnsupportedSizeError",
    "Verdict",
    "WorkLimitExceeded",
    "are_isomorphic",
    "blocker",
    "build_gamma_graph",
    "canonical_form",
    "cartesian_product",
    "connected_components",
    "construction_size",
    "decide_labellable",
    "domination_number",
    "enumerate_connected_graphs",
    "find_labelling",
    "induced_subgraph",
    "is_distance_d_dominating",
    "is_minimally_unlabellable",
    "is_valid_labelling",
    "make_family",
    "min_dominating_sets",
    "parse_graph6",
    "prior_construction_size",
    "product_labelling",
    "realize",
    "star_labelling",
    "validate_clutter",
    "verify_realization",
    "wheel_labelling",
    "with_common_symbol",
    "write_graph6",
]


def test_public_names_pinned():
    names = sorted(
        name
        for name in dir(gammagraphs)
        if not name.startswith("_")
        and not isinstance(getattr(gammagraphs, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_fixtures_not_shipped():
    assert importlib.util.find_spec("gammagraphs.fixtures") is None
