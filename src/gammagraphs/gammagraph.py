"""The gamma-graph of a graph: one vertex per minimum distance-d dominating
set, adjacent when the two sets intersect in gamma-1 elements."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import combinations

from .domination import min_dominating_sets
from .errors import DEFAULT_NODE_LIMIT
from .graphs import Graph


class GammaGraph(namedtuple("GammaGraph", "base tags gamma d")):
    """`base` carries the rendered set names; `tags` the underlying sets.

    tags[i] is the minimum dominating set (source vertex indices) naming
    base vertex i; all tags have size `gamma`.
    """

    __slots__ = ()


def tag_names(source: Graph, tags: Iterable[frozenset[int]]) -> tuple[str, ...]:
    """Render dominating sets as vertex names.

    Single-character source names concatenate ("25"); anything longer joins
    with commas to stay unambiguous.  The separator is decided once for the
    source graph, so m tags of size gamma cost O(n + m * gamma).
    """
    names = source.names
    sep = "" if all(len(nm) == 1 for nm in names) else ","
    return tuple(sep.join(names[v] for v in sorted(tag)) for tag in tags)


def build_gamma_graph(g: Graph, d: int, node_limit: int = DEFAULT_NODE_LIMIT) -> GammaGraph:
    """Construct the gamma-graph for distance parameter d.

    Vertices appear in the order of `min_sets` (lexicographic as sorted index
    tuples); i and j are adjacent when |tags[i] & tags[j]| == gamma - 1.

    The edges come from one pass over the m tags rather than from m^2/2
    intersections.  Each tag files itself under each of its gamma subsets of
    size gamma - 1, as a bitmask.  Two distinct tags A and B of size gamma
    meet in gamma - 1 elements exactly when they share such a key, and the
    shared key is then A & B, so each edge comes from exactly one bucket.
    A key's first tag is filed as a bare index; its bucket, a list, is made
    only when a second tag hits the key, so a key no two tags share costs no
    list.  Tags enter the buckets in index order, so every pair comes out
    once with i < j.  That is O(m * gamma) dict operations plus one step per
    edge.
    For gamma = 1 every tag files under the empty set, and the gamma-graph
    is complete.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no gamma-graph")
    result = min_dominating_sets(g, d, node_limit)
    tags = result.min_sets
    first: dict[int, int] = {}
    shared: dict[int, list[int]] = {}
    for i, tag in enumerate(tags):
        mask = 0
        for x in tag:
            mask |= 1 << x
        for x in tag:
            key = mask ^ (1 << x)
            j = first.setdefault(key, i)
            if j != i:
                shared.setdefault(key, [j]).append(i)
    edges = [pair for bucket in shared.values() for pair in combinations(bucket, 2)]
    base = Graph.from_edges(len(tags), edges, tag_names(g, tags))
    return GammaGraph(base, tags, result.gamma, d)


def gamma_graph_to_json(source: Graph, gg: GammaGraph) -> dict:
    vertices = [sorted(source.names[v] for v in t) for t in gg.tags]
    edges = [[i, j] for i, j in gg.base.edges()]
    return {"gamma": gg.gamma, "d": gg.d, "vertices": vertices, "edges": edges}
