"""Label graphs by distinct k-sets so that adjacency holds exactly when two
labels intersect in k-1 elements; equivalently, embed the graph as an
induced subgraph of a Johnson graph.

The complete bounded search normalizes away symbol permutations: vertices are
placed in a connected order, the first label is {1..k}, every later label is
one element-swap away from an already-placed neighbour, and a swapped-in
symbol that is new must be the smallest unused integer.  This confines the
universe to k+n-1 symbols and makes the per-k search finite, so "absent"
verdicts are complete for each k up to the budget.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DEFAULT_NODE_LIMIT, CheckedRecord, WorkLimitExceeded
from .graphs import Graph, _induced_masks, cartesian_product


class Labelling(CheckedRecord, namedtuple("Labelling", "k labels")):
    """A size-k label per vertex, aligned with the graph's vertex indices.

    Symbols are positive integers.  Structural validity (distinctness and the
    adjacency biconditional) is checked by is_valid_labelling, not here.
    """

    __slots__ = ()

    def __new__(cls, k: int, labels):
        if k < 1:
            raise ValueError("label size k must be >= 1")
        labels = tuple(frozenset(s) for s in labels)
        for s in labels:
            for sym in s:
                if not isinstance(sym, int) or sym < 1:
                    raise ValueError(f"symbols must be positive integers, got {sym!r}")
        return super().__new__(cls, k, labels)

    def max_symbol(self) -> int:
        return max((max(s) for s in self.labels if s), default=0)


class SearchBudget(CheckedRecord, namedtuple("SearchBudget", "k_max node_limit")):
    """Bounds for the labelling search.

    k_max=None resolves to max(2, vertex count); node_limit counts candidate
    labels tested across the whole search.

    Both k bounds make "absent" hereditary, which is what lets
    classification conclude that a graph is unlabellable from one of its
    induced subgraphs without searching the graph itself:

    - With an explicit k_max = K, a labelling of a graph with k <= K
      restricts to a labelling of any induced subgraph with the same k.
    - With the default, a search of a connected graph on n vertices is
      complete for every k, by this lemma: a connected graph on n >= 2
      vertices that has any labelling has one with k <= n - 1.  Proof: place
      the vertices in breadth-first order.  Each vertex after the first is
      adjacent to an earlier one, so its label is an earlier label with one
      symbol swapped, and the labels use at most k + n - 1 symbols in all;
      call that set U.  Replace every label L by U - L.  The new labels are
      distinct, have size |U| - k <= n - 1 (and >= 1, as two distinct labels
      cover more than k symbols), and |(U-A) & (U-B)| = |U| - 2k + |A & B|,
      so two of them meet in one symbol less than their size exactly when
      the originals did: adjacency is kept.  Since max(2, n) >= n - 1, the
      default never cuts a connected search short.
    """

    __slots__ = ()

    def __new__(cls, k_max: int | None = None, node_limit: int = DEFAULT_NODE_LIMIT):
        if k_max is not None and k_max < 1:
            raise ValueError("k_max must be >= 1")
        if node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        return super().__new__(cls, k_max, node_limit)

    def k_bound(self, g: Graph) -> int:
        """The largest label size searched on g."""
        return self.k_max if self.k_max is not None else max(2, g.n)


class ValidationResult(namedtuple("ValidationResult", "ok reason pair intersection",
                                  defaults=(None, None, None))):
    """ok, and for a failure its reason, the offending pair of vertex names
    and their intersection size."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def is_valid_labelling(g: Graph, lab: Labelling) -> ValidationResult:
    """Check the biconditional: adjacency iff labels meet in exactly k-1
    elements.  Reports the first offending pair (and intersection size)."""
    if len(lab.labels) != g.n:
        raise ValueError(f"labelling assigns {len(lab.labels)} vertices, graph has {g.n}")
    k = lab.k
    for v, s in enumerate(lab.labels):
        if len(s) != k:
            return ValidationResult(
                False, f"label of vertex {g.names[v]} has size {len(s)}, expected {k}"
            )
    # each label as a bitmask over its symbols, so a pair's intersection
    # size is one popcount
    masks = []
    for s in lab.labels:
        mask = 0
        for sym in s:
            mask |= 1 << sym
        masks.append(mask)
    for i in range(g.n):
        row = g.adj[i]
        mi = masks[i]
        for j in range(i + 1, g.n):
            inter = (mi & masks[j]).bit_count()
            if (row >> j) & 1:
                if inter == k - 1:
                    continue
            elif inter < k - 1:
                continue
            # every label has size k, so only equal labels meet in k
            if inter == k:
                reason = "duplicate label"
            elif (row >> j) & 1:
                reason = "adjacent pair misses k-1 overlap"
            else:
                reason = "non-adjacent pair overlaps in k-1"
            return ValidationResult(False, reason, (g.names[i], g.names[j]), inter)
    return ValidationResult(True)


class SearchOutcome(namedtuple("SearchOutcome", "status labelling k nodes")):
    """status: "found" | "absent_up_to_k" | "budget_exhausted".

    labelling is the found Labelling or None; k is the found label size, the
    exhausted bound, or the frontier k when the node budget ran out; nodes
    counts candidate labels tested.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.status == "found"


def _search_order(g: Graph):
    """Connected placement order plus per-position metadata.

    Starts at a maximum-degree vertex; each next vertex maximizes placed
    neighbours (then degree), ties to the smallest index.  Returns the order,
    each position's designated parent position, an adjacency bitmask over
    earlier positions, and one non-adjacent pair of placed neighbours per
    position when such a pair exists (the induced-path pruning hook).
    """
    n = g.n
    adj = g.adj
    degs = [mask.bit_count() for mask in adj]
    start = max(range(n), key=lambda v: (degs[v], -v))
    order = [start]
    placed = 1 << start
    while len(order) < n:
        best = None
        best_key = None
        for v in range(n):
            if (placed >> v) & 1:
                continue
            pn = (adj[v] & placed).bit_count()
            if pn == 0:
                continue
            key = (pn, degs[v], -v)
            if best_key is None or key > best_key:
                best_key = key
                best = v
        if best is None:
            raise ValueError("labelling search requires a connected graph")
        placed |= 1 << best
        order.append(best)

    # pos_adj[i]: the positions adjacent to position i
    pos_adj = _induced_masks(adj, order)
    parent_pos = [0] * n
    adj_pos = [0] * n
    p3_pair: list[tuple[int, int] | None] = [None] * n
    for i in range(1, n):
        earlier = pos_adj[i] & ((1 << i) - 1)
        adj_pos[i] = earlier
        parent_pos[i] = (earlier & -earlier).bit_length() - 1
        # the first pair (p, q), p < q, in lexicographic order with p and q
        # non-adjacent
        rest = earlier
        while rest:
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            apart = rest & ~pos_adj[p]
            if apart:
                p3_pair[i] = (p, (apart & -apart).bit_length() - 1)
                break
    return order, parent_pos, adj_pos, p3_pair


def find_labelling(g: Graph, budget: SearchBudget | None = None) -> SearchOutcome:
    """Search label sizes k = 1..k_max in turn; the first success is returned
    (so the found k is minimal).  A connected input is required.

    Each k runs a complete DFS over normalized labellings whose labels are
    bitmasks of exactly k symbols; `nodes` counts candidate labels tested
    across every k.

    Symbols are stored in reversed bit order: with width = k + n - 1 (the
    most symbols a normalized labelling can use), 0-based symbol s sits at
    bit width - 1 - s.  For masks of one size, ascending order of their
    sorted symbol tuples is then descending integer order, so the
    candidates are tried smallest tuple first by a plain reverse sort, and
    masks are turned back into symbol sets only for a found labelling.

    Complement pruning: a node is cut when its used symbols plus one per
    unplaced vertex fall short of 2k, as each later vertex adds at most one
    new symbol.  This is sound because the search reaches k only after
    every smaller k ended absent: a labelling at k of n >= 2 vertices on
    u < 2k symbols U would give, by replacing each label L with U - L, a
    labelling of size u - k < k (at least 1, as two distinct labels cover
    more than k symbols; adjacency is kept, see SearchBudget), which the
    complete search at u - k would have found.  Pruned subtrees hold no
    labelling, so verdicts and found labellings are unchanged.  At the root
    the rule reads k > n - 1, so k >= n costs no nodes.
    """
    if g.n == 0:
        raise ValueError("cannot search the empty graph")
    budget = budget or SearchBudget()
    k_max = budget.k_bound(g)
    order, parent_pos, adj_pos, p3_pair = _search_order(g)
    n = g.n
    labels = [0] * n
    nodes = 0
    # `candidates` and `rec` read the label size k and mask width of the loop
    # below.

    def candidates(pos: int, used: int) -> list[int]:
        pair = p3_pair[pos]
        if pair is not None and k >= 2:
            la, lb = labels[pair[0]], labels[pair[1]]
            t = la & lb
            if t.bit_count() != k - 2:
                return []
            out = []
            ra = la & ~t
            while ra:
                xa = ra & -ra
                ra ^= xa
                rb = lb & ~t
                while rb:
                    xb = rb & -rb
                    rb ^= xb
                    out.append(t | xa | xb)
            return out
        parent = labels[parent_pos[pos]]
        swap_in = (((1 << (used + 1)) - 1) << (width - 1 - used)) & ~parent
        out = []
        pa = parent
        while pa:
            abit = pa & -pa
            pa ^= abit
            base = parent ^ abit
            rb = swap_in
            while rb:
                bbit = rb & -rb
                rb ^= bbit
                out.append(base | bbit)
        return out

    def rec(pos: int, used: int) -> bool:
        nonlocal nodes
        if pos == n:
            return True
        if used + (n - pos) < 2 * k:
            return False
        amask = adj_pos[pos]
        new_bit = 1 << (width - 1 - used)
        for cand in sorted(candidates(pos, used), reverse=True):
            nodes += 1
            if nodes > budget.node_limit:
                raise WorkLimitExceeded("labelling search work limit exceeded", nodes)
            ok = True
            for j in range(pos):
                inter = (cand & labels[j]).bit_count()
                if (amask >> j) & 1:
                    if inter != k - 1:
                        ok = False
                        break
                elif inter >= k - 1:
                    ok = False
                    break
            if not ok:
                continue
            labels[pos] = cand
            if rec(pos + 1, used + (1 if cand & new_bit else 0)):
                return True
        return False

    for k in range(1, k_max + 1):
        width = k + n - 1
        labels[0] = ((1 << k) - 1) << (width - k)
        try:
            found = rec(1, k)
        except WorkLimitExceeded:
            return SearchOutcome("budget_exhausted", None, k, nodes)
        if found:
            by_vertex = [frozenset()] * n
            for pos, v in enumerate(order):
                by_vertex[v] = frozenset(
                    width - i for i in range(width) if labels[pos] >> i & 1
                )
            return SearchOutcome("found", Labelling(k, tuple(by_vertex)), k, nodes)
    return SearchOutcome("absent_up_to_k", None, k_max, nodes)


def with_common_symbol(lab: Labelling) -> Labelling:
    """Adjoin the next unused symbol to every label: k grows by one and
    validity is preserved."""
    sym = lab.max_symbol() + 1
    return Labelling(lab.k + 1, tuple(s | {sym} for s in lab.labels))


def product_labelling(g1: Graph, lab1: Labelling, g2: Graph, lab2: Labelling) -> Labelling:
    """Label the Cartesian product of two labelled graphs: vertex (u,v) gets
    the union of u's and v's labels over disjoint symbol universes, aligned
    with cartesian_product(g1, g2)'s vertex order."""
    v1 = is_valid_labelling(g1, lab1)
    if not v1:
        raise ValueError(f"first labelling invalid: {v1.reason}")
    v2 = is_valid_labelling(g2, lab2)
    if not v2:
        raise ValueError(f"second labelling invalid: {v2.reason}")
    offset = lab1.max_symbol()
    shifted = [frozenset(sym + offset for sym in s) for s in lab2.labels]
    labels = tuple(
        lab1.labels[u] | shifted[v] for u in range(g1.n) for v in range(g2.n)
    )
    result = Labelling(lab1.k + lab2.k, labels)
    check = is_valid_labelling(cartesian_product(g1, g2), result)
    assert check, check.reason
    return result


# ---------------------------------------------------------------------------
# Closed-form labellings for wheels and stars
# ---------------------------------------------------------------------------

def wheel_labelling(n: int) -> Labelling:
    """Valid labelling of the wheel on n vertices (rim 1..n-1, hub last).

    Supported for n = 4 and odd n >= 5.  For odd n = 2m+1 the hub gets
    {1..m}; rim vertex 2i-1 swaps i for m+i, rim vertex 2i swaps i for
    m+1+(i mod m).  Wheels on even n >= 6 admit no labelling at all and are
    rejected.
    """
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    if n == 4:
        return Labelling(
            2, (frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4}), frozenset({1, 5}))
        )
    if n % 2 == 0:
        raise ValueError(
            f"the wheel on {n} vertices is minimally unlabellable (even n >= 6); "
            "only n = 4 and odd n >= 5 admit labellings"
        )
    m = (n - 1) // 2
    hub = frozenset(range(1, m + 1))
    rim: list[frozenset[int]] = []
    for i in range(1, m + 1):
        rim.append((hub - {i}) | {m + i})
        rim.append((hub - {i}) | {m + 1 + (i % m)})
    return Labelling(m, tuple(rim) + (hub,))


def star_labelling(m: int) -> Labelling:
    """Valid labelling of the star with m leaves (centre first, matching the
    fan constructor's vertex order): centre {1..m}, leaf i swaps i for m+i."""
    if m < 1:
        raise ValueError("star needs m >= 1")
    centre = frozenset(range(1, m + 1))
    leaves = tuple((centre - {i}) | {m + i} for i in range(1, m + 1))
    return Labelling(m, (centre,) + leaves)


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

def labelling_to_json(g: Graph, lab: Labelling) -> dict:
    if len(lab.labels) != g.n:
        raise ValueError("labelling does not match the graph")
    return {"k": lab.k, "labels": {g.names[v]: sorted(lab.labels[v]) for v in range(g.n)}}


def outcome_to_json(g: Graph, outcome: SearchOutcome) -> dict:
    doc: dict = {"status": outcome.status, "nodes": outcome.nodes}
    if outcome.status == "found":
        assert outcome.labelling is not None
        doc["k"] = outcome.k
        doc["labelling"] = labelling_to_json(g, outcome.labelling)
    elif outcome.status == "absent_up_to_k":
        doc["k_max"] = outcome.k
    else:
        doc["frontier_k"] = outcome.k
    return doc
