"""Exact distance-d domination: predicates, the domination number, and the
complete family of minimum distance-d dominating sets.

Closed d-balls are precomputed as bitmasks.  Balls are symmetric, so the
vertices that can dominate u are exactly the members of u's own ball.  The
search is one depth-first branch-and-bound over these masks:

- At each node it takes the lowest uncovered vertex u and branches on each
  member v of u's ball that is not forbidden; after the branch on v returns,
  v is forbidden to the later siblings.  So every minimal cover lies below
  exactly one branch, and every minimum set is minimal.
- The best size starts at a greedy cover's size and drops whenever a smaller
  cover turns up, which discards the covers collected so far.
- A node is pruned when its chosen vertices plus a lower bound exceed the
  best size.  The bound counts uncovered vertices whose non-forbidden
  dominators are pairwise disjoint, since each needs a member of its own.  A
  node is also pruned when some uncovered vertex has no dominator left.

The collected covers are sorted as index tuples, so the minimum sets come out
in lexicographic order.  Every search node counts against the work limit.
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
    """Closed d-ball of each vertex as a bitmask (vertices within distance d).

    Built level by level: ball_i(v) is N[v] together with ball_(i-1)(u) for
    every neighbour u of v, and the levels stop once one adds nothing.
    """
    if d < 1:
        raise ValueError("distance parameter d must be >= 1")
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    balls = closed
    for _ in range(d - 1):
        grown = []
        for v in range(g.n):
            ball = closed[v]
            rest = g.adj[v]
            while rest:
                low = rest & -rest
                ball |= balls[low.bit_length() - 1]
                rest ^= low
            grown.append(ball)
        if grown == balls:
            break
        balls = grown
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


def _greedy_cover_size(balls: list[int], full: int) -> int:
    """Size of the cover built by repeatedly taking the ball that covers the
    most still-uncovered vertices: an upper bound on the domination number."""
    covered = 0
    size = 0
    while covered != full:
        covered |= max(balls, key=lambda ball: (ball & ~covered).bit_count())
        size += 1
    return size


def _minimum_covers(balls: list[int], full: int, limit: int) -> list[tuple[int, ...]]:
    """Every minimum set of vertices whose balls cover `full`, as sorted index
    tuples in lexicographic order.

    Depth-first over the dominators of the lowest uncovered vertex; see the
    module docstring for the branching rule and the bounds.  Each search
    node counts against `limit`.  The stack is explicit, so the depth (up to
    the greedy cover's size) is not bounded by the interpreter's recursion
    limit.
    """
    best = _greedy_cover_size(balls, full)
    covers: list[tuple[int, ...]] = []
    chosen: list[int] = []
    nodes = 0

    def visit(covered: int, forbidden: int) -> int:
        """Count a node and record it if it is a cover; return the vertices
        to branch on, or 0 for a leaf or a pruned node."""
        nonlocal best, nodes
        nodes += 1
        if nodes > limit:
            raise WorkLimitExceeded("domination search work limit exceeded", nodes)
        if covered == full:
            if len(chosen) < best:
                best = len(chosen)
                covers.clear()
            covers.append(tuple(sorted(chosen)))
            return 0
        allowed = ~forbidden
        uncovered = full & ~covered
        # Lower bound: uncovered vertices whose remaining dominators are
        # pairwise disjoint each need a member of their own.
        bound = len(chosen)
        packed = 0
        rest = uncovered
        while rest:
            low = rest & -rest
            dominators = balls[low.bit_length() - 1] & allowed
            if not dominators:
                return 0
            if not dominators & packed:
                bound += 1
                if bound > best:
                    return 0
                packed |= dominators
            rest ^= low
        return balls[(uncovered & -uncovered).bit_length() - 1] & allowed

    # One frame per node on the current path that may still branch:
    # [covered, forbidden, branches left].  chosen[i] is the vertex taken
    # from frame i, so a leaf or pruned node never gets a frame.
    stack = [[0, 0, visit(0, 0)]]
    while stack:
        frame = stack[-1]
        covered, forbidden, options = frame
        if not options:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        low = options & -options
        frame[1] = forbidden | low
        frame[2] = options ^ low
        v = low.bit_length() - 1
        chosen.append(v)
        covered |= balls[v]
        options = visit(covered, forbidden)
        if options:
            stack.append([covered, forbidden, options])
        else:
            chosen.pop()
    covers.sort()
    return covers


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
    covers = _minimum_covers(distance_balls(g, d), (1 << g.n) - 1, limit)
    return DominationResult(d, len(covers[0]), tuple(frozenset(c) for c in covers))


def result_to_json(g: Graph, result: DominationResult) -> dict:
    """JSON document with sets and the set list sorted lexicographically by name."""
    rendered = [sorted(g.names[v] for v in s) for s in result.min_sets]
    rendered.sort()
    return {"d": result.d, "gamma": result.gamma, "min_sets": rendered}
