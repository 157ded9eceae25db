"""Build a graph whose minimum distance-d dominating sets are exactly a
prescribed family of k-subsets.

The construction: relabel the family's ground symbols onto 1..n, start from
the complete graph on those n core vertices, and for each member B of the
family's blocker attach two gadget vertices x_B, y_B joined to the vertices
of B, each carrying a pendant path of length d-1.  Any dominating set must
hit every blocker member (to reach the path tips), and no minimum set ever
uses a gadget vertex, so the minimum sets are the blocker of the blocker --
the original family.

The relabelling and the blocker are computed once per family: `realize` and
`construction_size` share them through a one-entry cache, so a `realize`
command that also reports the closed-form size dualises its family once.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .clutters import Clutter, blocker, validate_clutter
from .domination import min_dominating_sets
from .graphs import GRAPH6_MAX_VERTICES, Graph, write_graph6


class GadgetPair(namedtuple("GadgetPair", "member x y x_path y_path")):
    """The two attachment vertices and their pendant paths for one blocker member."""

    __slots__ = ()


class RealizedGraph(namedtuple("RealizedGraph", "graph core_size d gadgets relabelling")):
    """The realizing graph, its core size, d, one gadget pair per blocker
    member, and the (original symbol, core symbol) pairs."""

    __slots__ = ()

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


@functools.lru_cache(maxsize=1)
def _dualised(family: Clutter) -> tuple[Clutter, tuple[tuple[int, int], ...], Clutter]:
    """The family with its symbols relabelled onto 1..n, the (original
    symbol, core symbol) pairs, and the relabelled family's blocker.

    One entry is kept, so the `construction_size` that `realized_to_json`
    calls after `realize` on the same family reuses its blocker."""
    symbols = sorted(set().union(*family.members))
    mapping = {old: i + 1 for i, old in enumerate(symbols)}
    core = validate_clutter(
        len(symbols), [frozenset(mapping[e] for e in m) for m in family.members]
    )
    return core, tuple(sorted(mapping.items())), blocker(core)


def _member_tag(member: frozenset[int]) -> str:
    return "{" + ",".join(str(e) for e in sorted(member)) + "}"


def realize(family: Clutter, d: int) -> RealizedGraph:
    """The graph whose minimum distance-d dominating sets equal `family`
    (after the recorded relabelling of symbols onto 1..n)."""
    if d < 1:
        raise ValueError("distance parameter d must be >= 1")
    _common_member_size(family)
    core, relabelling, bl = _dualised(family)
    n = core.ground_size

    names = [str(i + 1) for i in range(n)]
    adj = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    gadgets = []

    def attach(head_name: str, member: frozenset[int]) -> tuple[str, ...]:
        head = len(adj)
        names.append(head_name)
        mask = 0
        for e in member:
            mask |= 1 << (e - 1)
            adj[e - 1] |= 1 << head
        adj.append(mask)
        path_names = []
        prev = head
        for step in range(1, d):
            names.append(f"{head_name}.p{step}")
            path_names.append(names[-1])
            adj[prev] |= 1 << len(adj)
            adj.append(1 << prev)
            prev = len(adj) - 1
        return tuple(path_names)

    for member in bl.members:
        tag = _member_tag(member)
        x_name, y_name = "x" + tag, "y" + tag
        x_path = attach(x_name, member)
        y_path = attach(y_name, member)
        gadgets.append(GadgetPair(member, x_name, y_name, x_path, y_path))

    graph = Graph(len(adj), tuple(adj), tuple(names))
    return RealizedGraph(graph, n, d, tuple(gadgets), relabelling)


def construction_size(family: Clutter, d: int) -> tuple[int, int]:
    """Closed-form vertex and edge counts of realize(family, d).

    Called after `realize` on the same family, it reuses that call's blocker
    rather than dualising the family again."""
    if d < 1:
        raise ValueError("distance parameter d must be >= 1")
    _common_member_size(family)
    core, _, bl = _dualised(family)
    n = core.ground_size
    b = len(bl.members)
    total = sum(len(m) for m in bl.members)
    vertices = n + 2 * d * b
    edges = math.comb(n, 2) + 2 * total + 2 * (d - 1) * b
    return vertices, edges


def prior_construction_size(family: Clutter) -> tuple[int, int]:
    """Vertex and edge counts of the older published d=1 construction, for
    comparison with construction_size(family, 1)."""
    k = _common_member_size(family)
    n = len(set().union(*family.members))
    m = len(family.members)
    vertices = n + (k + 1) * math.comb(n, k - 1) + (k + 1) * (math.comb(n, k) - m)
    edges = (
        math.comb(n, 2)
        + (k + 1) * (n - k + 1) * math.comb(n, k - 1)
        + (k + 1) * (n - k) * (math.comb(n, k) - m)
    )
    return vertices, edges


class VerificationReport(namedtuple("VerificationReport", "ok gamma missing extra")):
    """missing: expected sets never enumerated (original symbols); extra:
    enumerated sets outside the family (vertex names)."""

    __slots__ = ()

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
    if realized.graph.n <= GRAPH6_MAX_VERTICES:
        doc["graph6"] = write_graph6(realized.graph)
    return doc
