"""Reference data: small graphs with known domination families, known
labellings, and the known lists of minimally unlabellable graphs.

Data only: the test suites check the library against it.
"""

from __future__ import annotations

from gammagraphs import Graph, make_family
from gammagraphs.labelling import Labelling


def _sets(*specs: str) -> tuple[frozenset[int], ...]:
    """Parse "123"-style digit strings into integer sets."""
    return tuple(frozenset(int(ch) for ch in spec) for spec in specs)


def _edges0(pairs) -> list[tuple[int, int]]:
    return [(a - 1, b - 1) for a, b in pairs]


# --- the seven-vertex domination demo graph -------------------------------

def domination_demo_graph() -> Graph:
    """Hexagon 1-2-3-4-5-6 with chords 2-6 and 3-5, plus vertex 7 joined to
    5 and 6.  gamma_1 = 2 and gamma_2 = 1 with known minimum-set families."""
    return Graph.from_edges(
        7,
        _edges0([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (6, 7), (5, 7), (2, 6), (3, 5)]),
    )


DEMO_GAMMA1_SETS = _sets("15", "25", "56", "36", "46")
DEMO_GAMMA1_EDGES = (
    ("15", "25"), ("15", "56"), ("25", "56"), ("36", "46"), ("36", "56"), ("46", "56"),
)
DEMO_GAMMA2_SETS = _sets("2", "3", "5", "6", "7")


# --- the known minimally unlabellable graphs -------------------------------

def _y_graph() -> Graph:
    # K4 minus the 1-2 edge, plus vertex 5 joined to 1 and 2
    return Graph.from_edges(
        5, _edges0([(2, 4), (4, 1), (1, 5), (5, 2), (2, 3), (3, 1), (3, 4)])
    )


def _k5_minus_edge() -> Graph:
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)]
    return Graph.from_edges(5, edges)


def minimal_unlabellable_five() -> tuple[Graph, ...]:
    """The four minimally unlabellable graphs on at most five vertices."""
    return (
        make_family("complete_bipartite", 2, 3),
        make_family("fan", 3, 2),
        _y_graph(),
        _k5_minus_edge(),
    )


def minimal_unlabellable_six() -> tuple[Graph, ...]:
    """The four minimally unlabellable graphs on six vertices (the last is
    the wheel on six vertices)."""
    a = Graph.from_edges(6, [(5, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 1), (5, 4)])
    b = Graph.from_edges(6, [(3, 1), (1, 0), (0, 2), (2, 3), (3, 5), (5, 4), (4, 0), (1, 2)])
    c = Graph.from_edges(6, [(0, 1), (1, 4), (4, 3), (3, 0), (0, 2), (2, 5), (4, 5), (5, 3)])
    return (a, b, c, make_family("wheel", 6))


# --- seven-vertex labelled fixtures ----------------------------------------

_SEVEN_BASE = [(1, 2), (2, 4), (4, 6), (6, 5), (5, 3), (3, 1), (3, 7), (7, 4)]


def seven_vertex_a() -> tuple[Graph, Labelling]:
    """Six-cycle with a two-edge chord path; easily mistaken for unlabellable,
    so it comes with a labelling that certifies otherwise."""
    g = Graph.from_edges(7, _edges0(_SEVEN_BASE))
    return g, Labelling(3, _sets("234", "245", "123", "145", "126", "146", "135"))


def seven_vertex_b() -> tuple[Graph, Labelling]:
    g = Graph.from_edges(7, _edges0(_SEVEN_BASE + [(7, 6)]))
    return g, Labelling(3, _sets("245", "235", "246", "356", "126", "136", "346"))


def seven_vertex_minimal() -> Graph:
    """The seven-vertex graph that is minimally unlabellable."""
    return Graph.from_edges(7, _edges0(_SEVEN_BASE + [(2, 6)]))


def seven_vertex_closing() -> tuple[Graph, Labelling]:
    """Six-cycle plus a degree-2 vertex: the labelled witness that the
    pattern continuing the five- and six-vertex near-cycles is labellable."""
    g = Graph.from_edges(
        7, _edges0([(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 2), (2, 1), (1, 6)])
    )
    return g, Labelling(3, _sets("234", "123", "135", "145", "456", "246", "126"))


# --- wheel and star reference labels ---------------------------------------

WHEEL9_LABELS = (
    frozenset({2, 3, 4, 5}),
    frozenset({2, 3, 4, 6}),
    frozenset({1, 3, 4, 6}),
    frozenset({1, 3, 4, 7}),
    frozenset({1, 2, 4, 7}),
    frozenset({1, 2, 4, 8}),
    frozenset({1, 2, 3, 8}),
    frozenset({1, 2, 3, 5}),
    frozenset({1, 2, 3, 4}),
)

STAR_LABELS = {
    1: _sets("1", "2"),
    3: _sets("123", "234", "135", "126"),
    4: (
        frozenset({1, 2, 3, 4}),
        frozenset({2, 3, 4, 5}),
        frozenset({1, 3, 4, 6}),
        frozenset({1, 2, 4, 7}),
        frozenset({1, 2, 3, 8}),
    ),
}

