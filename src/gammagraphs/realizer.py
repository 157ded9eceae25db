"""Build a graph whose minimum distance-d dominating sets are exactly a
prescribed family of k-subsets.

The construction: relabel the family's ground symbols onto 1..n, start from
the complete graph on those n core vertices, and for each member B of the
family's blocker attach two gadget vertices x_B, y_B joined to the vertices
of B, each carrying a pendant path of length d-1.  Any dominating set must
hit every blocker member (to reach the path tips), and no minimum set ever
uses a gadget vertex, so the minimum sets are the blocker of the blocker --
the original family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .clutters import Clutter, blocker, validate_clutter
from .domination import min_dominating_sets
from .graphs import Graph, write_graph6


@dataclass(frozen=True)
class GadgetPair:
    """The two attachment vertices and their pendant paths for one blocker member."""

    member: frozenset[int]
    x: str
    y: str
    x_path: tuple[str, ...]
    y_path: tuple[str, ...]


@dataclass(frozen=True)
class RealizedGraph:
    graph: Graph
    core_size: int
    d: int
    gadgets: tuple[GadgetPair, ...]
    relabelling: tuple[tuple[int, int], ...]  # (original symbol, core symbol) pairs

    def relabel_map(self) -> dict[int, int]:
        return dict(self.relabelling)

    def core_symbol_to_original(self) -> dict[int, int]:
        return {new: old for old, new in self.relabelling}


def _common_member_size(family: Clutter) -> int:
    if not family.members:
        raise ValueError("cannot realize the empty family")
    sizes = {len(m) for m in family.members}
    if len(sizes) != 1:
        raise ValueError(f"members must share one size, got sizes {sorted(sizes)}")
    k = sizes.pop()
    if k < 1:
        raise ValueError("members must be nonempty")
    return k


def _relabelled(family: Clutter) -> tuple[Clutter, tuple[tuple[int, int], ...]]:
    symbols = sorted(set().union(*family.members))
    mapping = {old: i + 1 for i, old in enumerate(symbols)}
    relabelled = validate_clutter(
        len(symbols), [frozenset(mapping[e] for e in m) for m in family.members]
    )
    return relabelled, tuple(sorted(mapping.items()))


def _member_tag(member: frozenset[int]) -> str:
    return "{" + ",".join(str(e) for e in sorted(member)) + "}"


def realize(family: Clutter, d: int) -> RealizedGraph:
    """The graph whose minimum distance-d dominating sets equal `family`
    (after the recorded relabelling of symbols onto 1..n)."""
    if d < 1:
        raise ValueError("distance parameter d must be >= 1")
    _common_member_size(family)
    core, relabelling = _relabelled(family)
    n = core.ground_size
    bl = blocker(core)

    names = [str(i + 1) for i in range(n)]
    edges = list(itertools.combinations(range(n), 2))
    gadgets = []

    def attach(prefix: str, member: frozenset[int]) -> tuple[str, tuple[str, ...]]:
        head_name = prefix + _member_tag(member)
        head = len(names)
        names.append(head_name)
        for e in sorted(member):
            edges.append((e - 1, head))
        path_names = []
        prev = head
        for step in range(1, d):
            names.append(f"{head_name}.p{step}")
            edges.append((prev, len(names) - 1))
            path_names.append(names[-1])
            prev = len(names) - 1
        return head_name, tuple(path_names)

    for member in bl.members:
        x_name, x_path = attach("x", member)
        y_name, y_path = attach("y", member)
        gadgets.append(GadgetPair(member, x_name, y_name, x_path, y_path))

    graph = Graph.from_edges(len(names), edges, tuple(names))
    return RealizedGraph(graph, n, d, tuple(gadgets), relabelling)


def construction_size(family: Clutter, d: int) -> tuple[int, int]:
    """Closed-form vertex and edge counts of realize(family, d)."""
    if d < 1:
        raise ValueError("distance parameter d must be >= 1")
    _common_member_size(family)
    core, _ = _relabelled(family)
    n = core.ground_size
    bl = blocker(core)
    b = len(bl.members)
    total = sum(len(m) for m in bl.members)
    vertices = n + 2 * d * b
    edges = math.comb(n, 2) + 2 * total + 2 * (d - 1) * b
    return vertices, edges


def prior_construction_size(family: Clutter) -> tuple[int, int]:
    """Vertex and edge counts of the older published d=1 construction, for
    comparison with construction_size(family, 1)."""
    k = _common_member_size(family)
    core, _ = _relabelled(family)
    n = core.ground_size
    m = len(core.members)
    vertices = n + (k + 1) * math.comb(n, k - 1) + (k + 1) * (math.comb(n, k) - m)
    edges = (
        math.comb(n, 2)
        + (k + 1) * (n - k + 1) * math.comb(n, k - 1)
        + (k + 1) * (n - k) * (math.comb(n, k) - m)
    )
    return vertices, edges


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    gamma: int
    missing: tuple[tuple[int, ...], ...]  # expected sets never enumerated (original symbols)
    extra: tuple[tuple[str, ...], ...]  # enumerated sets outside the family (vertex names)

    def __bool__(self) -> bool:
        return self.ok


def verify_realization(realized: RealizedGraph, family: Clutter) -> VerificationReport:
    """Exhaustively enumerate the realized graph's minimum dominating sets and
    compare them (through the recorded relabelling) with the family."""
    result = min_dominating_sets(realized.graph, realized.d)
    back = realized.core_symbol_to_original()
    expected = family.member_sets()
    found_ok: set[frozenset[int]] = set()
    extra: list[tuple[str, ...]] = []
    for s in result.min_sets:
        if all(v < realized.core_size for v in s):
            original = frozenset(back[v + 1] for v in s)
            if original in expected:
                found_ok.add(original)
                continue
        extra.append(tuple(sorted(realized.graph.names[v] for v in s)))
    missing = sorted(tuple(sorted(m)) for m in expected - found_ok)
    return VerificationReport(
        ok=not missing and not extra,
        gamma=result.gamma,
        missing=tuple(missing),
        extra=tuple(sorted(extra)),
    )


def realized_to_json(realized: RealizedGraph, family: Clutter) -> dict:
    doc: dict = {
        "d": realized.d,
        "core_size": realized.core_size,
        "relabelling": {str(old): new for old, new in realized.relabelling},
        "vertices": realized.graph.n,
        "edges": realized.graph.edge_count,
        "construction_size": list(construction_size(family, realized.d)),
        "prior_construction_size": list(prior_construction_size(family)),
    }
    if realized.graph.n <= 62:
        doc["graph6"] = write_graph6(realized.graph)
    return doc
