"""Exact distance-d domination: predicates, the domination number, and the
complete family of minimum distance-d dominating sets.

Closed d-balls are precomputed as bitmasks.  Balls are symmetric, so the
vertices that can dominate u are exactly the members of u's own ball.  The
search runs depth first over these masks, once per size s = b, b + 1, ...,
and stops at the first size with covers: that size is gamma, since a
smaller cover would have been found at a smaller size.  b is the packing
bound below taken at the root, where nothing is chosen or forbidden; every
smaller size would be pruned at its root, so those sizes are skipped.  From
b on the root is never pruned, so its pass is made once for every size.

- A node is pruned by volume when its uncovered vertices outnumber the
  largest balls left can cover: a cover of size s that extends the chosen
  vertices adds at most s minus their number, and each added vertex covers
  at most its own ball, so the uncovered count may not exceed the sum of
  that many largest ball sizes.  This is one popcount per node.
- Otherwise a node is pruned when its chosen vertices plus a packing bound
  exceed s.  The bound counts uncovered vertices whose non-forbidden
  dominators are pairwise disjoint, since each needs a member of its own.
  A node is also pruned when some uncovered vertex has no dominator left.
- The packing pass finds the uncovered vertex u with the fewest
  non-forbidden dominators (the lowest on a tie).  The node branches on
  each of them, v, in increasing order, and forbids v to the later
  siblings.
- A node with one pick left (its chosen vertices number s - 1, the root
  too when s is 1) does not branch.  Its covers are its chosen vertices
  plus each non-forbidden v in the intersection of the balls of its
  uncovered vertices, as the last member must dominate all of them.  Some
  vertex is uncovered there, or a smaller size would have had a cover, so
  no chosen vertex lies in the intersection.  The volume prune, one
  popcount, still runs first; the packing pass is skipped, as it would cut
  the node only when the intersection is empty.  So no node with no pick
  left is ever visited.
- A node with two picks left (the root too when s is 2) that passes the
  volume prune skips the packing pass as well.  Each of its children
  closes in a few steps, while the pass walks every uncovered vertex, so
  on the graphs `realize` builds the pass cost more than it pruned.  Its
  u is the uncovered vertex with the smallest ball (the lowest on a tie),
  found through one vertex mask per ball size.  Some vertex is uncovered,
  as above, and every cover below the node holds a non-forbidden
  dominator of u.  The node settles its children in place rather than
  handing them back to the stack loop: for each such dominator v in
  increasing order it counts the child as one node, volume-prunes it,
  closes it with v chosen and the earlier siblings forbidden, then forbids
  v.  Nodes with three or more picks left keep the pass: skipping it at
  every node made the 6x6 and 7x7 grids 1.3-1.9 times slower at d = 1, and
  a 60-vertex random tree 2.8 times slower.
- So each minimum set C is found exactly once: at every node on its path C
  holds the chosen vertices and no forbidden one, passes the prunes the
  node makes (each is a lower bound that C itself meets), and lies below
  the branch on the lowest member of C among u's dominators only.  At the
  node with one pick left the last member of C is one vertex of the
  intersection, and each vertex of it gives a different set.

The search reads the vertex numbering in four places: the packing pass
walks uncovered vertices in index order, its branch vertex is the lowest on
a tie, the branch vertex of a node with two picks left is the lowest of the
smallest balls, and siblings are tried in index order.  A scattered
numbering scatters the uncovered region and weakens both prunes, so a graph
on at most 64 vertices is first renumbered breadth first, in the bandwidth-
reducing order of Cuthill and McKee ("Reducing the bandwidth of sparse
symmetric matrices", 1969): each component starts at its least-degree
unvisited vertex (the lowest index on a tie) and neighbours are queued in
index order.  Larger graphs are searched as numbered (see
`_RENUMBER_MAX_VERTICES`).

The search returns its covers in its own numbering and in the order it
finds them.  `min_dominating_sets` maps each back to the caller's numbering
and sorts them once, as index tuples, so the minimum sets come out in
lexicographic order whatever the renumbering.  Every search node, at every
size from b on, counts against the node limit; on a renumbered graph these
are the nodes of the renumbered search.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DEFAULT_NODE_LIMIT, WorkLimitExceeded
from .graphs import Graph, _induced_masks

# The largest graph the cover search renumbers breadth first.  The renumbering
# costs two steps per edge on n-bit masks.  On the nine 292-1402-vertex
# graphs that `realize` builds (benchmark seed 1, round 0) it took 0.8-4.0 ms
# each, 1.0-2.9 times the numbered search with its balls, mostly walking the
# clique core's wide masks (the breadth-first order alone is 0.1-1.0 ms;
# medians of 7 timings, then of 3 runs, 2-vCPU host, Python 3.11).  It also
# added search nodes there: 50 -> 56 on the 292-vertex graph at d = 1,
# 81 -> 98 on the 1402-vertex graph at d = 3, and 705 -> 836 summed over the
# nine.  On the graphs of at most 42 vertices of the `dom_d1` and `dom_far`
# benchmarks it is about 1% of the search and cuts its nodes by 13% and 40%.
_RENUMBER_MAX_VERTICES = 64


class DominationResult(namedtuple("DominationResult", "d gamma min_sets")):
    """d, the domination number gamma, and all minimum sets (vertex indices)."""

    __slots__ = ()


def distance_balls(g: Graph, d: int) -> list[int]:
    """Closed d-ball of each vertex as a bitmask (vertices within distance d).

    Built level by level: ball_i(v) is N[v] together with ball_(i-1)(u) for
    every neighbour u of v, and the levels stop once one adds nothing.  The
    edges are listed once, each from the mask of its lower end, walked
    inside `mask >> (v + 1)` highest bit first so that every step works on
    a narrower integer (as `graphs._masks_valid` walks them); each level
    then makes two ORs per edge, one for each end.
    """
    if d < 1:
        raise ValueError("distance parameter d must be >= 1")
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    if d == 1:
        return closed
    edges = []
    for v, mask in enumerate(g.adj):
        base = v + 1
        above = mask >> base
        while above:
            top = above.bit_length() - 1
            edges.append((v, base + top))
            above ^= 1 << top
    balls = closed
    for _ in range(d - 1):
        grown = closed.copy()
        for v, u in edges:
            grown[v] |= balls[u]
            grown[u] |= balls[v]
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


def _minimum_covers(balls: list[int], full: int, limit: int) -> list[tuple[int, ...]]:
    """Every minimum set of vertices whose balls cover `full`, as index tuples
    in pick order, unsorted, in the order the search finds them (see the
    module docstring).  The stack is explicit, so the depth is not bounded by
    the interpreter's recursion limit.  A node with one pick left is settled
    by `close`, and the children of a node with two picks left by `settle`,
    each still counted as one node, so neither takes a stack frame.
    """
    covers: list[tuple[int, ...]] = []
    chosen: list[int] = []
    nodes = 0
    # The packing pass `visit` makes, made once at the root, where every
    # vertex is uncovered, so it walks `balls` in index order.  No size below
    # its bound has a cover, and from the bound on the root is never pruned,
    # so every size starts from this root.  `size` starts one below the
    # bound, as the loop adds one.  The pass is not left to `visit`, which
    # would repeat it in full for every size: that made `min_dominating_sets`
    # 11-17% slower on the `realize` benchmark's graphs (2-vCPU host).
    size = -1
    packed = 0
    for dominators in balls:
        if not dominators & packed:
            size += 1
            packed |= dominators
    # reach[j]: the most vertices that j balls can cover, the sum of the j
    # largest ball sizes.
    counts = [ball.bit_count() for ball in balls]
    reach = [0]
    for count in sorted(counts, reverse=True):
        reach.append(reach[-1] + count)
    # by_size: one mask per ball size, smallest size first, of the vertices
    # whose balls have that size.  The lowest member of the first mask that
    # meets the uncovered vertices is the one with the smallest ball (the
    # lowest on a tie): the branch vertex of a node with two picks left.  At
    # the root, where nothing is covered or forbidden, it is also the vertex
    # with the fewest dominators that the packing pass branches on.
    of_size: dict[int, int] = {}
    for v, count in enumerate(counts):
        of_size[count] = of_size.get(count, 0) | 1 << v
    by_size = [of_size[count] for count in sorted(of_size)]
    first = by_size[0]
    root = balls[(first & -first).bit_length() - 1]

    def close(uncovered: int, forbidden: int) -> None:
        """Record the covers of a node with one pick left: the chosen vertices
        plus each non-forbidden vertex whose ball holds every uncovered one."""
        last = full & ~forbidden
        rest = uncovered
        while rest:
            low = rest & -rest
            last &= balls[low.bit_length() - 1]
            if not last:
                return
            rest ^= low
        while last:
            low = last & -last
            covers.append((*chosen, low.bit_length() - 1))
            last ^= low

    def settle(uncovered: int, forbidden: int, options: int) -> None:
        """Settle the children of a node with two picks left, one per vertex v
        of `options`, the non-forbidden dominators of one uncovered vertex, in
        increasing order, as the stack loop would visit them: count each as
        one node, volume-prune it, close it with v chosen and the earlier
        siblings forbidden, then forbid v."""
        nonlocal nodes
        one = reach[1]
        while options:
            low = options & -options
            nodes += 1
            if nodes > limit:
                raise WorkLimitExceeded("domination search work limit exceeded", nodes)
            v = low.bit_length() - 1
            left = uncovered & ~balls[v]
            if left.bit_count() <= one:
                chosen.append(v)
                close(left, forbidden)
                chosen.pop()
            forbidden |= low
            options ^= low

    def visit(covered: int, forbidden: int) -> int:
        """Count a node below the root with at least two picks left; return
        the vertices to branch on, or 0 for a pruned node or one with two
        picks left.  Such a node skips the packing pass and hands `settle`
        the non-forbidden dominators of its uncovered vertex with the
        smallest ball."""
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise WorkLimitExceeded("domination search work limit exceeded", nodes)
        uncovered = full & ~covered
        if uncovered.bit_count() > reach[size - len(chosen)]:
            return 0
        if len(chosen) + 2 == size:
            # Some vertex is uncovered, or a smaller size would have had a
            # cover; every cover below holds a non-forbidden dominator of it.
            for mask in by_size:
                smallest = mask & uncovered
                if smallest:
                    break
            u = (smallest & -smallest).bit_length() - 1
            settle(uncovered, forbidden, balls[u] & ~forbidden)
            return 0
        allowed = ~forbidden
        # Lower bound: uncovered vertices whose remaining dominators are
        # pairwise disjoint each need a member of their own.  Branch on the
        # smallest remaining dominator set, the first one on a tie.
        bound = len(chosen)
        packed = 0
        fewest = 0
        fewest_count = len(balls) + 1
        rest = uncovered
        while rest:
            low = rest & -rest
            dominators = balls[low.bit_length() - 1] & allowed
            if not dominators:
                return 0
            if not dominators & packed:
                bound += 1
                if bound > size:
                    return 0
                packed |= dominators
            count = dominators.bit_count()
            if count < fewest_count:
                fewest, fewest_count = dominators, count
            rest ^= low
        return fewest

    while not covers:
        size += 1
        nodes += 1
        if nodes > limit:
            raise WorkLimitExceeded("domination search work limit exceeded", nodes)
        if size == 1:
            close(full, 0)
            continue
        if size == 2:
            settle(full, 0, root)
            continue
        # One frame per node on the current path that may still branch:
        # [covered, forbidden, branches left].  chosen[i] is the vertex taken
        # from frame i, so a pruned node or one with one or two picks left
        # never gets a frame.
        stack = [[0, 0, root]]
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
    return covers


def domination_number(g: Graph, d: int, node_limit: int = DEFAULT_NODE_LIMIT) -> int:
    """Minimum cardinality of a distance-d dominating set."""
    if g.n == 0:
        raise ValueError("domination number of the empty graph is undefined")
    return min_dominating_sets(g, d, node_limit).gamma


def min_dominating_sets(g: Graph, d: int, node_limit: int = DEFAULT_NODE_LIMIT) -> DominationResult:
    """The complete family of minimum distance-d dominating sets, in
    lexicographic order as sorted index tuples.

    A graph on at most 64 vertices is searched in its breadth-first order
    (see the module docstring); node_limit then counts the nodes of that
    renumbered search.  Larger graphs are searched as numbered: on the ones
    `realize` builds the renumbering cost 1.0-2.9 times the search with its
    balls and added nodes, 705 -> 836 over nine of them
    (`_RENUMBER_MAX_VERTICES`).  Either way the search's covers
    are mapped back to g's numbering and sorted once, here.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no dominating sets")
    if node_limit < 1:
        raise ValueError("node_limit must be >= 1")
    if g.n > _RENUMBER_MAX_VERTICES:
        order = range(g.n)
    else:
        order = _breadth_first_order(g.adj)
        g = g._replace(adj=_induced_masks(g.adj, order))
    found = _minimum_covers(distance_balls(g, d), (1 << g.n) - 1, node_limit)
    covers = sorted(tuple(sorted(order[i] for i in c)) for c in found)
    return DominationResult(d, len(covers[0]), tuple(frozenset(c) for c in covers))


def _breadth_first_order(adj: tuple[int, ...]) -> list[int]:
    """The vertices in breadth-first order: each component from its least-
    degree unvisited vertex (the lowest index on a tie), neighbours queued in
    index order.  order[i] is the vertex that the search numbers i."""
    order: list[int] = []
    seen = 0
    for start in sorted(range(len(adj)), key=lambda v: adj[v].bit_count()):
        if seen >> start & 1:
            continue
        seen |= 1 << start
        head = len(order)
        order.append(start)
        while head < len(order):
            rest = adj[order[head]] & ~seen
            head += 1
            seen |= rest
            while rest:
                low = rest & -rest
                order.append(low.bit_length() - 1)
                rest ^= low
    return order


def result_to_json(g: Graph, result: DominationResult) -> dict:
    """JSON document with sets and the set list sorted lexicographically by name."""
    rendered = [sorted(g.names[v] for v in s) for s in result.min_sets]
    rendered.sort()
    return {"d": result.d, "gamma": result.gamma, "min_sets": rendered}
