"""Exact distance-d domination: predicates, the domination number, and the
complete family of minimum distance-d dominating sets.

Closed d-balls are precomputed as bitmasks.  The cover search finds every
minimum set of vertices whose balls cover a universe mask of target
vertices, which holds every vertex on all graphs but a vertex-transitive
one (see below).  Balls are symmetric, so the vertices that can dominate u,
its dominators, are exactly those in u's own ball.  The search
runs depth first over these masks, once per size s = b, b + 1, ..., and
stops at the first size with covers: that size is the least, since a
smaller cover would have been found at a smaller size.  b is the packing
bound below taken at the root, where nothing is chosen or forbidden; every
smaller size would be pruned at its root, so those sizes are skipped.  From
b on the root is never pruned, so its pass is made once for every size.

- A node is pruned by volume when its uncovered targets outnumber what the
  best candidates left can cover: a cover of size s that extends the
  chosen vertices adds at most s minus their number, and each added vertex
  covers at most the targets in its own ball, so the uncovered count may
  not exceed the sum of that many largest such counts.  This is one
  popcount per node.
- Otherwise a node is pruned when its chosen vertices plus a packing bound
  exceed s.  The bound counts uncovered targets whose non-forbidden
  dominators are pairwise disjoint, since each needs a member of its own.
  A node is also pruned when some uncovered target has no dominator left.
- The packing pass finds the uncovered target u with the fewest
  non-forbidden dominators (the lowest on a tie).  The node branches on
  each of them, v, in increasing order, and forbids v to the later
  siblings.
- A node with one pick left (its chosen vertices number s - 1, the root
  too when s is 1) does not branch.  Its covers are its chosen vertices
  plus each non-forbidden vertex v in the intersection of the balls of
  its uncovered targets, as the last member must dominate all of them.
  Some target is uncovered there, or a smaller size would have had a
  cover, so no chosen vertex lies in the intersection.  The volume prune,
  one popcount, still runs first; the packing pass is skipped, as it would
  cut the node only when the intersection is empty.  So no node with no
  pick left is ever visited.
- A node with two picks left (the root too when s is 2) that passes the
  volume prune skips the packing pass as well.  Each of its children
  closes in a few steps, while the pass walks every uncovered target, so
  on the graphs `realize` builds the pass cost more than it pruned.  Its
  u is the uncovered target with the fewest dominators (the lowest on a
  tie; with every vertex a target, the smallest ball), found through
  one target mask per dominator count.  Some target is uncovered, as
  above, and every cover below the node holds a non-forbidden dominator of
  u.  The node settles its children in place rather than handing them back
  to the stack loop: for each such dominator v in increasing order it
  counts the child as one node, volume-prunes it, closes it with v chosen
  and the earlier siblings forbidden, then forbids v.  Nodes with three or
  more picks left keep the pass: skipping it at every node made the 6x6
  and 7x7 grids 1.3-1.9 times slower at d = 1, and a 60-vertex random tree
  2.8 times slower.
- So each minimum cover C is found exactly once: at every node on its path
  C holds the chosen vertices and no forbidden one, passes the prunes the
  node makes (each is a lower bound that C itself meets), and lies below
  the branch on the lowest member of C among u's dominators only.  At the
  node with one pick left the last member of C is one vertex of the
  intersection, and each vertex of it gives a different set.

The search reads the vertex numbering in four places: the packing pass
walks uncovered targets in index order, its branch vertex is the lowest on
a tie, the branch vertex of a node with two picks left is the lowest of
those with the fewest dominators, and siblings are tried in index order.
A scattered numbering scatters the uncovered region and weakens both
prunes, so a graph on at most 64 vertices is first renumbered breadth
first, in the bandwidth-reducing order of Cuthill and McKee ("Reducing the
bandwidth of sparse symmetric matrices", 1969): each component starts at
its least-degree unvisited vertex (the lowest index on a tie) and
neighbours are queued in index order.  Larger graphs are searched as
numbered (see `_RENUMBER_MAX_VERTICES`).

A vertex-transitive graph is searched through one vertex.  A regular graph
on more than one vertex, after the renumbering, first gets a transversal of
automorphisms t_v, each mapping vertex 0 to v (`_schreier_tree`).  When one
is found, the search covers V - ball(0) from every vertex, and each such
cover C plus vertex 0 is mapped by every t_v; the image is kept only when v
is its least vertex.  This lists every minimum set once:

1. An automorphism maps each d-ball onto a d-ball, so it maps dominating
   sets to dominating sets of the same size, minimum sets to minimum sets.
2. For a minimum set S and any s in S, t_s^-1 maps S to a minimum set
   through 0.  So minimum sets through 0 exist, and the sets through 0
   less vertex 0 are exactly the covers of V - ball(0) of size gamma - 1;
   no smaller cover exists, or it would give a dominating set smaller than
   gamma.  Vertex 0 dominates no vertex outside its own ball, so no
   minimum cover holds it, and the search never picks it: it is in no
   target's ball.  The search through 0 finds exactly these covers.
3. t_v(C) holds v = t_v(0).  So a minimum set S is the image of a set
   through 0 only under t_v with v in S, and for each v in S the only set
   through 0 that t_v maps onto S is t_v^-1(S).  Keeping the image only for
   the least vertex v of S lists S once.
4. The transversal is built greedily, with no backtracking, and may reach
   a dead end on a vertex-transitive graph (prism(5) and prism(6) do).
   Every map it keeps is checked to be an automorphism, so a dead end only
   sends the graph to the search over every vertex: it costs speed, never
   a set.

On the relabelled hypercube(5) at d = 1 this cut the search from 9,098 to
2,874 nodes.  On two relabellings of hypercube(6) it cut it from 3.09 and
3.08 million nodes to 923,000 and 935,000, and the call became 2.9-3.7
times faster (interleaved runs on a 2-vCPU host, Python 3.11).

The search returns its covers in its own numbering and in the order it
finds them.  `min_dominating_sets` maps each back to the caller's numbering
and sorts them once, as index tuples, so the minimum sets come out in
lexicographic order whatever the renumbering.  Every search node, at every
size from b on, counts against the node limit; on a renumbered graph these
are the nodes of the renumbered search, and on a graph searched through
vertex 0 those of that search.  Building the transversal, about n * Delta^2
mask steps for maximum degree Delta and n^2 list entries, and mapping the
covers cost no nodes.
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


def _minimum_covers(balls: list[int], universe: int, limit: int) -> list[tuple[int, ...]]:
    """Every minimum set of vertices whose balls cover `universe`, as index
    tuples in pick order, unsorted, in the order the search finds them (see
    the module docstring).  An empty universe has the one empty cover, found
    without a node.  The stack is explicit, so the depth is not bounded by
    the interpreter's recursion limit.  A node with one pick left is settled
    by `close`, and the children of a node with two picks left by `settle`,
    each still counted as one node, so neither takes a stack frame.
    """
    if not universe:
        return [()]
    n = len(balls)
    everything = (1 << n) - 1
    # targets: the vertices to cover, in index order, and rows the vertices
    # that dominate them, their own balls.  With every vertex in the universe
    # (every caller but the vertex-transitive search) the rows are `balls` as
    # it is, read in index order, never peeled off a wide mask.
    if universe == everything:
        targets, rows = range(n), balls
    else:
        targets = [u for u in range(n) if universe >> u & 1]
        rows = [balls[u] for u in targets]
    covers: list[tuple[int, ...]] = []
    chosen: list[int] = []
    nodes = 0
    # The packing pass `visit` makes, made once at the root, where every
    # target is uncovered, so it walks them in index order.  No size below
    # its bound has a cover, and from the bound on the root is never pruned,
    # so every size starts from this root.  `size` starts one below the
    # bound, as the loop adds one.  The pass is not left to `visit`, which
    # would repeat it in full for every size: that made `min_dominating_sets`
    # 11-17% slower on the `realize` benchmark's graphs (2-vCPU host).
    size = -1
    packed = 0
    for row in rows:
        if not row & packed:
            size += 1
            packed |= row
    # reach[j]: the most targets that j vertices can cover, the sum of the
    # j largest counts of targets in a vertex's ball.
    counts = [row.bit_count() for row in rows]
    gains = counts if universe == everything else [(ball & universe).bit_count() for ball in balls]
    reach = [0]
    for count in sorted(gains, reverse=True):
        reach.append(reach[-1] + count)
    # by_size: one mask per dominator count, smallest count first, of the
    # targets with that many dominators.  The lowest member of the first mask
    # that meets the uncovered targets is the one with the fewest dominators
    # (the lowest on a tie): the branch vertex of a node with two picks left.
    # At the root, where nothing is covered or forbidden, it is also the
    # target that the packing pass branches on.
    of_size: dict[int, int] = {}
    for u, count in zip(targets, counts):
        of_size[count] = of_size.get(count, 0) | 1 << u
    by_size = [of_size[count] for count in sorted(of_size)]
    first = by_size[0]
    root = balls[(first & -first).bit_length() - 1]

    def close(uncovered: int, forbidden: int) -> None:
        """Record the covers of a node with one pick left: the chosen vertices
        plus each non-forbidden vertex whose ball holds every uncovered
        target."""
        last = everything & ~forbidden
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
        uncovered = universe & ~covered
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
            options = balls[low.bit_length() - 1] & allowed
            if not options:
                return 0
            if not options & packed:
                bound += 1
                if bound > size:
                    return 0
                packed |= options
            count = options.bit_count()
            if count < fewest_count:
                fewest, fewest_count = options, count
            rest ^= low
        return fewest

    while not covers:
        size += 1
        nodes += 1
        if nodes > limit:
            raise WorkLimitExceeded("domination search work limit exceeded", nodes)
        if size == 1:
            close(universe, 0)
            continue
        if size == 2:
            settle(universe, 0, root)
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
    (`_RENUMBER_MAX_VERTICES`).

    A regular graph whose greedy automorphisms move vertex 0 to every vertex
    is searched only for the minimum sets through vertex 0, and node_limit
    counts that search; each set is then mapped by automorphisms, which
    lists every minimum set exactly once (the four steps of the module
    docstring).  Either way the covers are mapped back to g's numbering and
    sorted once, here.
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
    balls = distance_balls(g, d)
    everything = (1 << g.n) - 1
    transversal = _schreier_tree(g.adj)
    universe = everything if transversal is None else everything & ~balls[0]
    found = _minimum_covers(balls, universe, node_limit)
    if transversal is not None:
        found = _mapped_sets(transversal, [(0, *c) for c in found])
    covers = sorted(tuple(sorted(order[i] for i in c)) for c in found)
    return DominationResult(d, len(covers[0]), tuple(frozenset(c) for c in covers))


def _schreier_tree(adj: tuple[int, ...]) -> list[list[int]] | None:
    """A transversal of automorphisms: transversal[v] is t_v, mapping vertex
    0 to v, as its list of images, one for every vertex v.  None when the
    graph has one vertex, is not regular, or no transversal is found.

    The generators are found greedily, one per neighbour u of 0 (see
    `_extend`).  A breadth-first pass from 0 then composes them: a vertex w
    first reached from v by a generator s gets t_w = s t_v.  The result is
    None when the pass does not reach every vertex.
    """
    n = len(adj)
    degree = adj[0].bit_count()
    if n == 1 or any(mask.bit_count() != degree for mask in adj):
        return None
    # every degree ties, so this order starts at 0
    order = _breadth_first_order(adj)
    generators = []
    rest = adj[0]
    while rest:
        low = rest & -rest
        image = _extend(adj, order, low.bit_length() - 1)
        if image is not None:
            generators.append(image)
        rest ^= low
    transversal: list = [None] * n
    transversal[0] = list(range(n))
    reached = [0]
    for v in reached:
        t = transversal[v]
        for image in generators:
            w = image[v]
            if transversal[w] is None:
                transversal[w] = [image[x] for x in t]
                reached.append(w)
    if len(reached) < n:
        return None
    return transversal


def _extend(adj: tuple[int, ...], order: list[int], u: int) -> list[int] | None:
    """An automorphism mapping 0 to u, as its list of images, or None at a
    dead end.

    The vertices are placed in `order`, breadth first from 0.  Each vertex w
    takes the lowest unused neighbour x of the image of its lowest placed
    neighbour p whose adjacency to the images placed so far is that of w to
    the vertices placed so far.  So the finished map is a bijection that
    keeps every adjacency and non-adjacency: an automorphism.  x must also
    have as many common neighbours with p's image as w has with p, a count
    every automorphism keeps, so the check turns away only images that no
    extension to an automorphism could use.  There is no backtracking: a
    vertex with no such image gives up, even when another choice earlier
    would have led to an automorphism, and so does a vertex with no placed
    neighbour, which starts another component.
    """
    image = [0] * len(adj)
    image[0] = u
    placed = 1
    used = 1 << u
    for w in order[1:]:
        rest = adj[w] & placed
        if not rest:
            return None
        p = (rest & -rest).bit_length() - 1
        anchor = adj[image[p]]
        common = (adj[p] & adj[w]).bit_count()
        options = anchor & ~used
        want = 0
        while rest:
            low = rest & -rest
            want |= 1 << image[low.bit_length() - 1]
            rest ^= low
        while options:
            low = options & -options
            x = adj[low.bit_length() - 1]
            if x & used == want and (x & anchor).bit_count() == common:
                break
            options ^= low
        else:
            return None
        image[w] = low.bit_length() - 1
        placed |= 1 << w
        used |= low
    return image


def _mapped_sets(transversal: list[list[int]], through: list[tuple[int, ...]]) -> list:
    """Every minimum set, once, from the minimum sets `through` vertex 0 and
    the transversal of `_schreier_tree`: the image t_v(C) of each set C for
    each vertex v, kept when v is its least vertex."""
    found: list = []
    for cover in through:
        for v, t in enumerate(transversal):
            mapped = [t[x] for x in cover]
            if min(mapped) == v:
                found.append(mapped)
    return found


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
