"""The gamma-graph of a graph: one vertex per minimum distance-d dominating
set, adjacent when the two sets intersect in gamma-1 elements."""

from __future__ import annotations

from dataclasses import dataclass

from .domination import min_dominating_sets
from .errors import DEFAULT_NODE_LIMIT
from .graphs import Graph


@dataclass(frozen=True)
class GammaGraph:
    """`base` carries the rendered set names; `tags` the underlying sets.

    tags[i] is the minimum dominating set (source vertex indices) naming
    base vertex i; all tags have size `gamma`.
    """

    base: Graph
    tags: tuple[frozenset[int], ...]
    gamma: int
    d: int


def tag_name(source: Graph, tag: frozenset[int]) -> str:
    """Render a dominating set as a vertex name.

    Single-character source names concatenate ("25"); anything longer joins
    with commas to stay unambiguous.
    """
    names = [source.names[v] for v in sorted(tag)]
    if all(len(nm) == 1 for nm in source.names):
        return "".join(names)
    return ",".join(names)


def build_gamma_graph(g: Graph, d: int, node_limit: int = DEFAULT_NODE_LIMIT) -> GammaGraph:
    """Construct the gamma-graph for distance parameter d.

    Vertices appear in the order of `min_sets` (lexicographic as sorted index
    tuples); edges follow the intersection rule |A & B| == gamma - 1.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no gamma-graph")
    result = min_dominating_sets(g, d, node_limit)
    tags = result.min_sets
    edges = []
    for i in range(len(tags)):
        for j in range(i + 1, len(tags)):
            if len(tags[i] & tags[j]) == result.gamma - 1:
                edges.append((i, j))
    base = Graph.from_edges(len(tags), edges, tuple(tag_name(g, t) for t in tags))
    return GammaGraph(base, tags, result.gamma, d)


def same_gamma_graph(a: GammaGraph, b: GammaGraph) -> bool:
    """Tag-preserving equality: identical tag families and identical adjacency."""
    return a.gamma == b.gamma and a.tags == b.tags and a.base.adj == b.base.adj


def gamma_graph_to_json(source: Graph, gg: GammaGraph) -> dict:
    vertices = [sorted(source.names[v] for v in t) for t in gg.tags]
    edges = [[i, j] for i, j in gg.base.edges()]
    return {"gamma": gg.gamma, "d": gg.d, "vertices": vertices, "edges": edges}
