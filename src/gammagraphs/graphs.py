"""Immutable simple graphs, the graph6 codec, canonical forms, and named
families.

Vertices are indices 0..n-1 internally; every graph also carries a tuple of
display names (default "1".."n") so that derived graphs can keep meaningful
vertex identities.  Adjacency is stored as one neighbour bitmask per vertex,
which keeps set operations cheap throughout the package.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .errors import CheckedRecord, GraphFormatError, UnsupportedSizeError

CANONICAL_FORM_MAX_VERTICES = 16
GRAPH6_MAX_VERTICES = 62


@functools.lru_cache(maxsize=None)
def _default_names(n: int) -> tuple[str, ...]:
    """The names "1".."n", one shared tuple per n: a tuple of strings is
    immutable, so every default-named graph of one order can hold the same."""
    return tuple(str(i + 1) for i in range(n))


def _masks_valid(n: int, adj: tuple[int, ...]) -> bool:
    """Whether the masks stay in range, have no self-loop and are symmetric.

    `mask >> n` is nonzero for a mask with a bit at n or above, and for a
    negative one.  Each neighbour u above v must list v, which maps the bits
    above the diagonal one-to-one onto bits below it; equal totals make that
    map onto, so every bit has its mirror.  Each edge is walked once, inside
    `mask >> (v + 1)` and highest bit first: clearing the top bit leaves a
    narrower integer, so each step costs the width of what is left rather
    than the full n bits that peeling the lowest bit of the mask would.
    """
    upper = total = 0
    for v, mask in enumerate(adj):
        if mask >> n or (mask >> v) & 1:
            return False
        bit = 1 << v
        base = v + 1
        above = mask >> base
        upper += above.bit_count()
        total += mask.bit_count()
        while above:
            top = above.bit_length() - 1
            if not adj[base + top] & bit:
                return False
            above ^= 1 << top
    return 2 * upper == total


def _raise_first_invalid_mask(n: int, adj: tuple[int, ...]) -> None:
    """Raise ValueError naming the first fault in vertex order: a mask out of
    range, a self-loop, or a neighbour that does not list the vertex back."""
    full = (1 << n) - 1
    for v, mask in enumerate(adj):
        if mask & ~full:
            raise ValueError(f"adjacency mask of vertex {v} leaves the vertex range")
        if (mask >> v) & 1:
            raise ValueError(f"self-loop at vertex {v}")
        rest = mask
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not (adj[u] >> v) & 1:
                raise ValueError(f"adjacency is not symmetric at ({v},{u})")


class Graph(CheckedRecord, namedtuple("Graph", "n adj names")):
    """A finite simple undirected graph (no loops, no multi-edges)."""

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...], names: tuple[str, ...]):
        adj = tuple(adj)
        names = tuple(names)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(adj) != n or len(names) != n:
            raise ValueError("adjacency and name tuples must have length n")
        if len(set(names)) != n:
            raise ValueError("vertex names must be pairwise distinct")
        if not _masks_valid(n, adj):
            _raise_first_invalid_mask(n, adj)
        return super().__new__(cls, n, adj, names)

    @staticmethod
    def from_edges(n: int, edges, names: tuple[str, ...] | None = None) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, adj, names or _default_names(n))

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (v, u) with v < u, in ascending order.

        Each vertex's bits above the diagonal are walked inside
        `adj[v] >> (v + 1)` highest first, as in `_masks_valid`, and its run
        is then reversed into ascending order."""
        out = []
        for v, mask in enumerate(self.adj):
            base = v + 1
            above = mask >> base
            run = []
            while above:
                top = above.bit_length() - 1
                run.append((v, base + top))
                above ^= 1 << top
            run.reverse()
            out += run
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = []
        rest = self.adj[v]
        while rest:
            low = rest & -rest
            out.append(low.bit_length() - 1)
            rest ^= low
        return tuple(out)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph on the given vertex indices (ascending), names preserved."""
    verts = sorted(set(vertices))
    for v in verts:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex index {v} out of range for n={g.n}")
    return Graph(len(verts), _induced_masks(g.adj, verts), tuple(g.names[v] for v in verts))


def _induced_masks(adj, vertices) -> tuple[int, ...]:
    """The neighbour masks of the subgraph of `adj` induced on `vertices`, a
    sequence of distinct indices, with vertices[i] numbered i."""
    position = [0] * len(adj)
    inside = 0
    for i, v in enumerate(vertices):
        position[v] = i
        inside |= 1 << v
    out = []
    for v in vertices:
        mask = 0
        rest = adj[v] & inside
        while rest:
            low = rest & -rest
            mask |= 1 << position[low.bit_length() - 1]
            rest ^= low
        out.append(mask)
    return tuple(out)


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex index tuples of the components, each ascending, ordered by minimum."""
    seen = 0
    comps = []
    for s in range(g.n):
        if (seen >> s) & 1:
            continue
        comp = 1 << s
        frontier = comp
        while frontier:
            nxt = 0
            rest = frontier
            while rest:
                low = rest & -rest
                nxt |= g.adj[low.bit_length() - 1]
                rest ^= low
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        members = []
        rest = comp
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        comps.append(tuple(members))
    return comps


def cartesian_product(a: Graph, b: Graph) -> Graph:
    """Cartesian product; vertex (u,v) sits at index u*b.n + v."""
    n = a.n * b.n
    edges = []
    for u in range(a.n):
        for v in range(b.n):
            i = u * b.n + v
            for w in b.neighbors(v):
                if w > v:
                    edges.append((i, u * b.n + w))
            for w in a.neighbors(u):
                if w > u:
                    edges.append((i, w * b.n + v))
    names = tuple(f"({a.names[u]},{b.names[v]})" for u in range(a.n) for v in range(b.n))
    return Graph.from_edges(n, edges, names)


# ---------------------------------------------------------------------------
# graph6 codec (short form only, n <= 62)
#
# Layout: first byte is 63+n; the upper-triangle adjacency bits follow in
# column order (0,1),(0,2),(1,2),(0,3),... packed big-endian six bits per
# byte, each byte offset by 63, zero-padded to a multiple of six bits.
# ---------------------------------------------------------------------------

def _pack_graph6(n: int, rows: list[int]) -> bytes:
    """The graph6 word of the graph on vertices 0..n-1 in which rows[p]
    holds p's edges toward 0..p-1, vertex i at bit n-1-i; lower bits of a
    row are ignored.  Read from the top, row p's bits are the pairs (0,p),
    ..., (p-1,p), so the rows in turn list the bits in graph6's order."""
    bits = 0
    for p in range(1, n):
        bits = (bits << p) | (rows[p] >> (n - p))
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    bits <<= pad
    word = bytearray([63 + n])
    for shift in range(nbits + pad - 6, -1, -6):
        word.append(63 + ((bits >> shift) & 63))
    return bytes(word)


def graph6_order(word: str | bytes) -> int:
    """Vertex count of a well-formed short-form graph6 word."""
    return ord(word[:1]) - 63


def graph6_masks(word: bytes) -> tuple[int, tuple[int, ...]]:
    """Vertex count and neighbour masks of a well-formed graph6 word."""
    n = graph6_order(word)
    bits = 0
    for byte in word[1:]:
        bits = (bits << 6) | (byte - 63)
    pos = 6 * (len(word) - 1)
    adj = [0] * n
    for j in range(1, n):
        pos -= j
        # vertex i's bit is j-1-i: vertex 0 comes first
        column = (bits >> pos) & ((1 << j) - 1)
        while column:
            low = column & -column
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            column ^= low
    return n, tuple(adj)


def write_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_VERTICES:
        raise UnsupportedSizeError(
            f"graph6 short form supports at most {GRAPH6_MAX_VERTICES} vertices, got {g.n}"
        )
    # reversing a mask's n binary digits puts vertex i at bit n-1-i
    width = f"0{g.n}b"
    rows = [int(format(mask, width)[::-1], 2) for mask in g.adj]
    return _pack_graph6(g.n, rows).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 word; a single trailing line feed is tolerated."""
    word = text
    if word.endswith("\r\n"):
        word = word[:-2]
    elif word.endswith("\n"):
        word = word[:-1]
    if not word:
        raise GraphFormatError("empty graph6 word", 0)
    for off, ch in enumerate(word):
        if not (63 <= ord(ch) <= 126):
            raise GraphFormatError(f"character {ch!r} outside graph6 range", off)
    if word[0] == "~":
        raise GraphFormatError("long-form graph6 (n > 62) is not supported", 0)
    n = graph6_order(word)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(word) < 1 + nbytes:
        raise GraphFormatError(
            f"graph6 word for n={n} needs {nbytes} data bytes, got {len(word) - 1}",
            len(word),
        )
    if len(word) > 1 + nbytes:
        raise GraphFormatError("trailing garbage after graph6 data", 1 + nbytes)
    # the padding bits are the low bits of the last byte
    if (ord(word[-1]) - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise GraphFormatError("nonzero padding bits", len(word) - 1)
    n, adj = graph6_masks(word.encode("ascii"))
    return Graph(n, adj, _default_names(n))


def read_graph6_lines(text: str) -> list[Graph]:
    """Parse a graph6 file body: one word per line, blank lines ignored.  A
    malformed word's error names its 1-based line and its offset in the word."""
    graphs = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line:
            try:
                graphs.append(parse_graph6(line))
            except GraphFormatError as exc:
                raise GraphFormatError(f"line {number}: {exc.message}", exc.offset) from None
    return graphs


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def _neighbour_lists(adj: tuple[int, ...]) -> list[list[int]]:
    """Each vertex's neighbours in increasing order; `_canonical_search` is
    the one caller."""
    out = []
    for mask in adj:
        nbrs = []
        while mask:
            low = mask & -mask
            nbrs.append(low.bit_length() - 1)
            mask ^= low
        out.append(nbrs)
    return out


def _equitable_colors(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Colour refinement of the graph with these neighbour masks to a fixed
    point, starting from degrees.

    Each round gives vertex v one integer key: its own colour, then one
    5-bit digit per current class in ascending colour order, the number of
    v's neighbours in that class, or 31 when there are none.  The new colours
    are the keys' ranks, so they are isomorphism-invariant.  All keys of a
    round have the same number of digits, so they order as their digit
    strings do, and the digit strings order as the signatures (own colour,
    sorted (class, count) pairs of the nonzero counts) would: colours refine
    degrees, so two vertices of one colour have equal degree, and at the
    first class where their counts differ, either both counts are nonzero or
    the vertex with none there has neighbours left in a later class.  Counts
    are at most n - 1, so the digits hold for n <= 31.

    Refinement stops at the first round that splits no class, or that leaves
    every class a singleton, and returns that round's ranks.  They are the
    fixed point already: a key starts with the vertex's own colour, so an
    unsplit round renames the classes by an order-preserving bijection, and
    the next round's keys then sort exactly as this round's did, giving
    equal ranks; a discrete round is unsplit by any round after it.
    """
    n = len(adj)
    colors = [mask.bit_count() for mask in adj]
    classes = len(set(colors))
    while True:
        members = [0] * n
        for v, c in enumerate(colors):
            members[c] |= 1 << v
        masks = [m for m in members if m]
        keys = []
        for v, mask in enumerate(adj):
            key = colors[v]
            for m in masks:
                key = (key << 5) | ((mask & m).bit_count() or 31)
            keys.append(key)
        ordered = sorted(set(keys))
        rank = {key: i for i, key in enumerate(ordered)}
        colors = [rank[key] for key in keys]
        if len(ordered) == classes or len(ordered) == n:
            return tuple(colors)
        classes = len(ordered)


def _twins_before(adj: tuple[int, ...]) -> list[int]:
    """For each vertex v, the mask of its twins of smaller index.

    v and w are twins when adj[v] and adj[w] agree outside {v, w}: equal
    open neighbourhoods (w not adjacent to v) or equal closed ones (w
    adjacent).  Twinship is an equivalence, and any permutation of a twin
    class is an automorphism.
    """
    twins_before = [0] * len(adj)
    open_seen: dict[int, int] = {}
    closed_seen: dict[int, int] = {}
    for v, mask in enumerate(adj):
        bit = 1 << v
        closed = mask | bit
        twins_before[v] = open_seen.get(mask, 0) | closed_seen.get(closed, 0)
        open_seen[mask] = open_seen.get(mask, 0) | bit
        closed_seen[closed] = closed_seen.get(closed, 0) | bit
    return twins_before


def _canonical_search(n: int, adj: tuple[int, ...]) -> tuple[bytes, tuple[tuple[int, ...], ...]]:
    """The canonical word of the graph with neighbour masks `adj`, and the
    automorphisms of its canonical graph that the search met.

    The word is the graph6 bytes of the lexicographically minimal
    upper-triangle bit string over all orderings consistent with the
    equitable colouring (vertices sorted by colour).  The bits come in
    graph6's own order, (0,1),(0,2),(1,2),(0,3),...

    Position p's bits toward positions 0..p-1 are kept as one integer row,
    position i at bit n-1-i, so rows of one position compare as their bit
    strings do, and `_pack_graph6` packs the best ordering's rows as they
    stand.  `reach[u]` collects the bits of u's placed neighbours as
    vertices are placed, which makes it u's row at the next position.  A
    path is pruned by comparing its rows with the best ordering's while they
    are equal, and again once a leaf below it has become the best.

    Twin rule: a vertex is skipped while a twin of smaller index is still
    unplaced (see `_twins_before`).  Twins share a colour, and any
    permutation of a twin class is an automorphism, so sorting every class
    into index order maps each ordering to one with the same bit string, and
    the minimum over the orderings left is the minimum over all.

    Automorphisms: a path is pruned only where a row is strictly larger than
    the best's, and the best only falls, so every ordering left by the twin
    rule that attains the final word reaches a leaf.  Each leaf that ties the
    best is recorded, and the list is cleared whenever the best improves.
    An ordering o that ties the best ordering b gives the permutation
    p -> b^-1(o(p)) of canonical positions, an automorphism of the canonical
    graph; these are returned, one per tie, in the order met.  They need not
    generate the whole group: the twin rule leaves out the orderings that
    differ by permuting twins.
    """
    nbrs = _neighbour_lists(adj)
    colors = _equitable_colors(adj)
    target = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    # twins share a colour, so the earlier twins are earlier in the class too
    twins_before = _twins_before(adj)

    best: list[int] = []
    best_order: list[int] = []
    ties: list[list[int]] = []  # the orderings met that tie best_order
    rows = [0] * n
    order = [0] * n
    reach = [0] * n

    def dfs(pos: int, unplaced: int, tight: bool) -> bool:
        # tight: the rows so far equal best's; otherwise they are smaller, or
        # there is no best yet.  Returns whether best became a completion of
        # this path, which makes the path tight from then on.
        if pos == n:
            if tight:
                ties.append(order[:])
                return False
            best[:] = rows
            best_order[:] = order
            ties.clear()
            return True
        improved = False
        bit = 1 << (n - 1 - pos)
        for v in by_color[target[pos]]:
            if not (unplaced >> v) & 1 or twins_before[v] & unplaced:
                continue
            row = reach[v]
            if tight and row > best[pos]:
                continue
            rows[pos] = row
            order[pos] = v
            for u in nbrs[v]:
                reach[u] |= bit
            if dfs(pos + 1, unplaced ^ (1 << v), tight and row == best[pos]):
                improved = tight = True
            for u in nbrs[v]:
                reach[u] ^= bit
        return improved

    dfs(0, (1 << n) - 1, False)
    position = [0] * n
    for p, v in enumerate(best_order):
        position[v] = p
    automorphisms = tuple(tuple(position[v] for v in tie) for tie in ties)
    return _pack_graph6(n, best), automorphisms


@functools.lru_cache(maxsize=200_000)
def canonical_word(n: int, adj: tuple[int, ...]) -> bytes:
    """`canonical_form` of the graph on vertices 0..n-1 with neighbour masks
    `adj`, for callers that hold the masks without a `Graph`.  The masks are
    taken as they are: symmetric, loop-free and inside the vertex range.

    The word of `_canonical_search`, cached: the witness scan and `_Records`
    meet the same masks again.  The enumeration (`classify._connected_words`)
    calls the search itself: no child is built twice, so its entries would
    only push out the others (at n <= 9 they filled all 200,000).
    """
    if n > CANONICAL_FORM_MAX_VERTICES:
        raise UnsupportedSizeError(
            f"canonical form supports at most {CANONICAL_FORM_MAX_VERTICES} vertices, got {n}"
        )
    return _canonical_search(n, adj)[0]


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: the graph6 word of the minimal relabelling.

    Two graphs get equal forms iff they are isomorphic.  Supported for
    n <= CANONICAL_FORM_MAX_VERTICES.
    """
    return canonical_word(g.n, g.adj)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    return a.n == b.n and canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# Named families
#
# Vertex naming conventions (all 1-based names):
#   path/cycle/complete: vertices 1..n in order.
#   complete_bipartite(m, n): first part 1..m, second part m+1..m+n.
#   wheel(n): rim cycle 1..n-1 in order, hub last (vertex n).
#   fan(m, n): spine path 1..n, then the m apex vertices n+1..n+m.
#   prism(n): outer cycle 1..n, inner cycle n+1..2n, spokes i -- n+i.
#   hypercube(n): vertex i+1 is the n-bit word of i; edges flip one bit.
# ---------------------------------------------------------------------------

def make_family(name: str, *params: int) -> Graph:
    key = name.replace("-", "_").lower()
    builders = {
        "path": _path,
        "cycle": _cycle,
        "complete": _complete,
        "complete_bipartite": _complete_bipartite,
        "wheel": _wheel,
        "fan": _fan,
        "prism": _prism,
        "hypercube": _hypercube,
    }
    if key not in builders:
        raise ValueError(f"unknown family {name!r}; known: {sorted(builders)}")
    code = builders[key].__code__
    expected = code.co_varnames[: code.co_argcount]
    if len(params) != len(expected):
        raise ValueError(
            f"family {name!r} takes {len(expected)} parameter(s) ({', '.join(expected)}), "
            f"got {len(params)}"
        )
    return builders[key](*params)


def _path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def _complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("complete bipartite graph needs m, n >= 1")
    return Graph.from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def _wheel(n: int) -> Graph:
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    rim = n - 1
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph.from_edges(n, edges)


def _fan(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("fan needs m, n >= 1")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, n + j) for j in range(m) for i in range(n)]
    return Graph.from_edges(m + n, edges)


def _prism(n: int) -> Graph:
    if n < 3:
        raise ValueError("prism needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph.from_edges(2 * n, edges)


def _hypercube(n: int) -> Graph:
    if n < 1:
        raise ValueError("hypercube needs n >= 1")
    size = 1 << n
    edges = [
        (i, i ^ (1 << b))
        for i in range(size)
        for b in range(n)
        if i < i ^ (1 << b)
    ]
    return Graph.from_edges(size, edges)
