"""Exact distance-d domination: predicates, the domination number, and the
complete family of minimum distance-d dominating sets.

The enumeration iterates subset sizes upward and, within a size, collects
every covering subset in lexicographic order over vertex indices, so the
first size with any cover is the domination number and its covers are every
minimum set.  Closed d-balls are precomputed as bitmasks, turning the cover
test into a union comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WorkLimitExceeded
from .graphs import Graph

DEFAULT_WORK_LIMIT = 50_000_000


@dataclass(frozen=True)
class DominationResult:
    """d, the domination number gamma, and all minimum sets (vertex indices)."""

    d: int
    gamma: int
    min_sets: tuple[frozenset[int], ...]


def distance_balls(g: Graph, d: int) -> list[int]:
    """Closed d-ball of each vertex as a bitmask (vertices within distance d)."""
    if d < 1:
        raise ValueError("distance parameter d must be >= 1")
    balls = []
    for v in range(g.n):
        cur = 1 << v
        for _ in range(d):
            nxt = cur
            rest = cur
            while rest:
                low = rest & -rest
                nxt |= g.adj[low.bit_length() - 1]
                rest ^= low
            if nxt == cur:
                break
            cur = nxt
        balls.append(cur)
    return balls


def is_distance_d_dominating(g: Graph, s, d: int) -> bool:
    """True iff every vertex of g lies within distance d of some member of s."""
    if d < 1:
        raise ValueError("distance parameter d must be >= 1")
    members = set(s)
    for v in members:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex index {v} out of range for n={g.n}")
    if g.n == 0:
        return True
    balls = distance_balls(g, d)
    cover = 0
    for v in members:
        cover |= balls[v]
    return cover == (1 << g.n) - 1


def _covers_of_size(
    balls: list[int],
    full: int,
    size: int,
    counter: list[int],
    limit: int,
) -> list[tuple[int, ...]]:
    """All `size`-subsets whose ball union covers `full`, lexicographically.

    Prunes branches whose remaining suffix union cannot complete the cover.
    `counter` accumulates enumeration nodes against `limit`.
    """
    n = len(balls)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | balls[i]
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(start: int, left: int, acc: int) -> None:
        counter[0] += 1
        if counter[0] > limit:
            raise WorkLimitExceeded("domination enumeration work limit exceeded", counter[0])
        if left == 0:
            if acc == full:
                found.append(tuple(chosen))
            return
        if acc | suffix[start] != full:
            return
        for v in range(start, n - left + 1):
            chosen.append(v)
            rec(v + 1, left - 1, acc | balls[v])
            chosen.pop()

    rec(0, size, 0)
    return found


def _resolve_work_limit(work_limit: int | None) -> int:
    """None means the default; anything below 1 is an error, not a default."""
    if work_limit is None:
        return DEFAULT_WORK_LIMIT
    if work_limit < 1:
        raise ValueError("work_limit must be >= 1")
    return work_limit


def domination_number(g: Graph, d: int, work_limit: int | None = None) -> int:
    """Minimum cardinality of a distance-d dominating set."""
    if g.n == 0:
        raise ValueError("domination number of the empty graph is undefined")
    return min_dominating_sets(g, d, work_limit).gamma


def min_dominating_sets(g: Graph, d: int, work_limit: int | None = None) -> DominationResult:
    """The complete family of minimum distance-d dominating sets."""
    if g.n == 0:
        raise ValueError("the empty graph has no dominating sets")
    limit = _resolve_work_limit(work_limit)
    balls = distance_balls(g, d)
    full = (1 << g.n) - 1
    counter = [0]
    for size in range(1, g.n + 1):
        covers = _covers_of_size(balls, full, size, counter, limit)
        if covers:
            return DominationResult(d, size, tuple(frozenset(c) for c in covers))
    raise AssertionError("the full vertex set always dominates")


def result_to_json(g: Graph, result: DominationResult) -> dict:
    """JSON document with sets and the set list sorted lexicographically by name."""
    rendered = [sorted(g.names[v] for v in s) for s in result.min_sets]
    rendered.sort()
    return {"d": result.d, "gamma": result.gamma, "min_sets": rendered}
