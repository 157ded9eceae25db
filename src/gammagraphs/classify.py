"""Classify small connected graphs as labellable, minimally unlabellable, or
unlabellable with a smaller witness.

A graph is minimally unlabellable when it has no labelling but every
one-vertex-deleted induced subgraph does (checking only those suffices:
labellability is hereditary on induced subgraphs).  Searches are bounded, so
every non-labellable verdict is relative to the budget's k_max, and budget
exhaustion surfaces as an explicit "undecided" status rather than a verdict.

A run never proves twice what it already knows.  Every graph's witness is
the least canonical form among its induced subgraphs decided unlabellable,
itself included (forms order by size first), and a graph is searched only
when no proper induced subgraph carries one: such a subgraph makes it
unlabellable by heredity (`SearchBudget` shows the k bounds agree).  Call a
class *self-witnessed* when its own search found it unlabellable and no
proper induced subgraph carried a witness.  A smallest unlabellable induced
subgraph is connected (a component of a disconnected unlabellable graph is
already unlabellable) and self-witnessed (a witness of its own would be
smaller still).  Two rules find the witness.

Nor does a walk search a block of a larger graph twice.  Its rule
(`_Contained`) owns a memo of those labelling searches (`Searches`), keyed
by the budget and a block's exact neighbour masks, and it is dropped with
the rule.  A block met again, in the same numbering, replays its first
outcome: the search is deterministic in that key, so no labelling, verdict
or node-limit outcome moves.  At n <= 7 the walk's 425 decisions make 198
searches of 176 distinct blocks, where a search per block per decision
would make 333.  A batch (`_Records`) keeps no memo: how often its blocks
repeat depends on the input, and no measured batch shows the memory paying.

- **Containment, for `classify_connected` (the CLI's `--max-n`).**  The walk
  settles every connected graph on 1..max_n vertices in graph6 order, whose
  first byte is the vertex count, so every smaller class is settled before
  g.  g's witness is the least self-witnessed form that embeds in g as a
  proper induced subgraph, found by one scan of g's vertex subsets (see
  `_smallest_unlabellable_subset`); no deletion of g gets a canonical form.
  A g with no witness is searched, and an unlabellable g becomes
  self-witnessed.  It is minimal unless a connected deletion is an
  *undecided* class, whose own search ran out of nodes; only while the run
  holds an undecided class on g.n - 1 vertices are g's deletions given forms
  to look for one.
- **Records, for `classify` (`--in` and library batches).**  Not every
  smaller class need be in the batch, so the run keeps one record per
  isomorphism class, keyed by canonical form (`_Records`): the class's own
  status and its witness.  A graph's record comes from the records of its
  connected deletions, by this lemma: every connected proper induced
  subgraph W of a connected graph g lies in a connected deletion.  Grow a
  spanning tree of g out from a spanning tree of W; it has a leaf v outside
  W, so g - v is connected and contains W.  So the witness is the least of
  the deletions' witnesses, and an unlabellable g with none is minimal when
  every connected deletion is labellable: each component of a disconnected
  deletion lies in one of those.  A disconnected g takes its components'
  records instead; each connected induced subgraph lies in one of them.  A
  record missing from the memo is settled on demand by the same rule.

Both rules give the same verdicts.  `Verdict.witness` is the first vertex
subset, in lexicographic order, with the witness's size and form: the least
(form, tuple) among the smallest unlabellable subsets.  This is exactly what
deciding every graph, deletion and subset afresh would give, as long as no
search runs out of nodes.  Under a node limit that stops searches, one
difference remains: a graph whose own search would end "undecided" is
settled nonminimal when a subgraph carries a witness.  The verdict is sound,
since it rests on a completed search of a subgraph.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .errors import CheckedRecord, UnsupportedSizeError
from .graphs import (
    CANONICAL_FORM_MAX_VERTICES,
    Graph,
    _canonical_search,
    _default_names,
    _induced_masks,
    _twins_before,
    canonical_form,
    canonical_word,
    connected_components,
    graph6_masks,
    graph6_order,
    induced_subgraph,
    parse_graph6,
    write_graph6,
)
from .labelling import (
    Labelling,
    SearchBudget,
    SearchOutcome,
    find_labelling,
    is_valid_labelling,
)

LABELLABLE = "labellable"
MINIMALLY_UNLABELLABLE = "minimally_unlabellable"
UNLABELLABLE_NONMINIMAL = "unlabellable_nonminimal"
UNLABELLABLE = "unlabellable"  # absent up to k_bound, minimality not yet resolved
UNDECIDED = "undecided"

ENUMERATION_MAX_VERTICES = 7


class Verdict(CheckedRecord, namedtuple("Verdict", "status k_bound labelling witness witness_form")):
    """Per-graph outcome; k_bound is the k_max the verdict is relative to.
    Each block is searched up to it, and gluing the blocks can grow k, so a
    labellable verdict's labelling may have a larger k (see
    `decide_labellable`).  A nonminimal verdict's witness is a vertex tuple,
    and witness_form the canonical form of the subgraph it induces."""

    __slots__ = ()

    def __new__(
        cls,
        status: str,
        k_bound: int,
        labelling: Labelling | None = None,
        witness: tuple[int, ...] | None = None,
        witness_form: bytes | None = None,
    ):
        if status == LABELLABLE and labelling is None:
            raise ValueError("labellable verdicts must carry a labelling")
        if status == UNLABELLABLE_NONMINIMAL and (witness is None or witness_form is None):
            raise ValueError("nonminimal verdicts must carry a witness and its form")
        if witness is not None:
            witness = tuple(witness)
        return super().__new__(cls, status, k_bound, labelling, witness, witness_form)


class ClassificationReport(namedtuple("ClassificationReport", "params verdicts counts")):
    """The run's parameters, the verdicts keyed by graph6 (iteration order
    sorted), and the count of each status."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Connected-graph enumeration (one representative per isomorphism class)
# ---------------------------------------------------------------------------

class _Level(tuple):
    """The canonical words of one level of `_connected_words`, in order.

    `automorphisms` maps each word whose form search met automorphisms (see
    `graphs._canonical_search`) to them, as permutations of the word's
    canonical positions; words that met none are left out.  They ride on
    the cached level, so clearing `_connected_words`' cache drops them too.
    """

    def __new__(cls, words: Iterable[str], automorphisms: dict[str, tuple[tuple[int, ...], ...]]):
        level = super().__new__(cls, words)
        level.automorphisms = automorphisms
        return level


@functools.lru_cache(maxsize=None)
def _connected_words(n: int) -> _Level:
    """Canonical words of the connected graphs on n vertices, by canonical
    deletion (McKay, "Isomorph-free exhaustive generation", 1998).

    Each child is a parent on n - 1 vertices plus a new vertex v with a
    nonempty neighbourhood.  It is kept only when no non-cut vertex has a
    larger invariant (degree, sorted neighbour degrees) than v, and only kept
    children get a canonical form; the word set removes the duplicates left.
    Nothing is lost: every connected C has a non-cut vertex v* of largest
    invariant, C - v* is connected and so is one of the parents, and the
    child that extends it by v*'s neighbourhood is C with v* as v, which is
    kept because the invariant does not depend on the labelling.

    A neighbourhood N is tried only when every twin class of the parent
    meets it in its lowest-index members: each earlier twin of a vertex in N
    is in N too.  Nothing is lost here either.  Any permutation of a twin
    class is an automorphism of the parent, and extended by fixing v it is
    an isomorphism from the child on N to the child on the permuted N, which
    maps v to v.  Some such permutation moves each class's members in N to
    the front of the class, and the canonical-deletion test, which reads v's
    invariant against the other non-cut vertices', gives isomorphic children
    with v fixed the same answer.

    Before a child is built, a pre-test (`_outranked`) rejects N when some
    non-cut vertex u of the parent has degree, plus 1 if u is in N, above
    |N|, and N has a member besides u.  That child fails the full test
    anyway: the parent less u is connected and v joins it through that
    other member, so u is still non-cut in the child, and its degree there
    exceeds v's degree |N|.  The non-cut vertices are listed once per
    parent.

    Orbit rule: after those two, N is skipped when an automorphism of the
    parent that its own form search recorded (`_Level.automorphisms`) maps
    N to a smaller mask, so each parent is extended about once per orbit of
    neighbourhoods.  Nothing is lost: the least mask of an orbit under the
    parent's whole automorphism group is never skipped, since every image
    of it is in the orbit.  It is twin-sorted, since swapping a member with
    an earlier twin outside it is an automorphism that lowers the mask.  It
    passes the pre-test and the full test whenever any member of its orbit
    does.  An automorphism of the parent keeps each vertex's degree and
    whether it is a cut vertex, and carries N's members onto its image's,
    which is all the pre-test reads; extended by fixing v it is an
    isomorphism between the two children that fixes v, which the full test
    cannot tell apart.  Filtering by only part of the group can only keep
    more neighbourhoods.

    At n <= 7, 1593 of the 5299 children reach the full test and 1047 get a
    canonical form.  They come from `graphs._canonical_search`, not the
    cached `canonical_word`: no child is built twice, so caching their
    forms would only push out the entries the witness scan meets again.
    """
    if n == 1:
        return _Level((_canonical_search(1, (0,))[0].decode("ascii"),), {})
    found: dict[str, tuple[tuple[int, ...], ...]] = {}
    parents = _connected_words(n - 1)
    for word in parents:
        _, parent = graph6_masks(word.encode("ascii"))
        twins = [(1 << u, before) for u, before in enumerate(_twins_before(parent)) if before]
        non_cut = _non_cut_degrees(parent)
        # each automorphism as the image bit of each position
        images = [[1 << p for p in perm] for perm in parents.automorphisms.get(word, ())]
        for nbrs in range(1, 1 << (n - 1)):
            for bit, before in twins:
                if nbrs & bit and before & ~nbrs:
                    break
            else:
                if _outranked(non_cut, nbrs) or (images and _moved_lower(images, nbrs)):
                    continue
                adj = list(parent) + [nbrs]
                for u in range(n - 1):
                    if (nbrs >> u) & 1:
                        adj[u] |= 1 << (n - 1)
                if _largest_non_cut_vertex_is_last(adj):
                    form, automorphisms = _canonical_search(n, tuple(adj))
                    found.setdefault(form.decode("ascii"), automorphisms)
    words = sorted(found)
    return _Level(words, {word: found[word] for word in words if found[word]})


def _moved_lower(images: list[list[int]], nbrs: int) -> bool:
    """Whether one of the automorphisms, each given as the image bit of each
    vertex, maps the vertex set `nbrs` to a smaller mask."""
    for image in images:
        moved = 0
        rest = nbrs
        while rest:
            low = rest & -rest
            moved |= image[low.bit_length() - 1]
            rest ^= low
        if moved < nbrs:
            return True
    return False


def _non_cut_degrees(adj: Sequence[int]) -> list[tuple[int, int]]:
    """(degree, vertex bit) of each non-cut vertex of the connected graph
    `adj`, largest degree first."""
    return sorted(
        ((mask.bit_count(), 1 << u) for u, mask in enumerate(adj) if _connected_without(adj, u)),
        reverse=True,
    )


def _outranked(non_cut: list[tuple[int, int]], nbrs: int) -> bool:
    """Whether a non-cut vertex u of the parent (`_non_cut_degrees`) stays
    non-cut in the child on the neighbourhood `nbrs` and has a larger degree
    there than the new vertex, so that the child fails
    `_largest_non_cut_vertex_is_last`."""
    size = nbrs.bit_count()
    for degree, bit in non_cut:
        if degree < size:
            return False  # so is every degree after it
        if nbrs != bit and (degree > size or nbrs & bit):
            return True
    return False


def _largest_non_cut_vertex_is_last(adj: list[int]) -> bool:
    """Whether no non-cut vertex of the connected graph `adj` has a larger
    invariant (degree, sorted neighbour degrees) than its last vertex.

    Degrees are compared first: a vertex of smaller degree is never larger,
    one of larger degree always is, and only a tie reads the neighbour
    degrees."""
    degree = [mask.bit_count() for mask in adj]
    top = degree[-1]
    last_nbrs = None
    for u in range(len(adj) - 1):
        if degree[u] < top:
            continue
        if degree[u] == top:
            if last_nbrs is None:
                last_nbrs = _neighbour_degrees(adj[-1], degree)
            if _neighbour_degrees(adj[u], degree) <= last_nbrs:
                continue
        if _connected_without(adj, u):
            return False
    return True


def _neighbour_degrees(mask: int, degree: list[int]) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(degree[low.bit_length() - 1])
        mask ^= low
    out.sort()
    return out


def _connected_without(adj: Sequence[int], u: int) -> bool:
    """Whether deleting u from the graph `adj` leaves it connected (a graph
    with no vertices counts as connected)."""
    rest = ((1 << len(adj)) - 1) & ~(1 << u)
    reached = frontier = rest & -rest
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & rest & ~reached
        reached |= frontier
    return reached == rest


def _connected_deletions(adj: tuple[int, ...]) -> Iterator[Masks]:
    """The connected one-vertex deletions of the graph `adj`, in vertex
    order, each as (vertex count, adjacency masks) with the vertices above
    the deleted one shifted down by one."""
    for v in range(len(adj)):
        if _connected_without(adj, v):
            yield len(adj) - 1, _induced_masks(adj, [u for u in range(len(adj)) if u != v])


def enumerate_connected_graphs(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of connected graphs
    on n vertices, in canonical-form order.  Built in for n <= 7; larger
    corpora must be ingested from graph6 files.

    Every connected graph on n vertices extends a connected graph on n-1
    vertices by one vertex with a nonempty neighbourhood (delete a non-cut
    vertex to see this); `_connected_words` keeps only the extensions by a
    largest non-cut vertex, about one per orbit of the parent's
    automorphisms, and removes the duplicates left by canonical form.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_MAX_VERTICES:
        raise UnsupportedSizeError(
            f"built-in enumeration stops at n = {ENUMERATION_MAX_VERTICES}; "
            "ingest larger corpora from graph6 files instead"
        )
    return [parse_graph6(w) for w in _connected_words(n)]


# ---------------------------------------------------------------------------
# Labellability decisions
# ---------------------------------------------------------------------------

def _blocks(adj: Sequence[int]) -> list[list[int]]:
    """The blocks of the graph `adj` (maximal 2-connected subgraphs, bridges
    and isolated vertices), by Hopcroft and Tarjan's depth-first search
    ("Efficient algorithms for graph manipulation", 1973) on an explicit
    stack.  A block is listed from the vertex the search backed up to, then
    the child it backed up from.  Every vertex but a root is a non-first
    vertex of one block only, so with the blocks ordered by when their second
    vertex was found, each shares exactly its first vertex with the blocks
    before it, or none when it starts a component."""
    disc, low = [0] * len(adj), [0] * len(adj)  # discovery times from 1, and low points
    found = []  # (discovery time of the second vertex, block)
    time = 0
    for root in range(len(adj)):
        if disc[root]:
            continue
        disc[root] = low[root] = time = time + 1
        if not adj[root]:
            found.append((time, [root]))
        path = [root]  # found vertices whose block is still open
        stack = [[root, adj[root], 0]]  # [vertex, neighbours left to examine, its index in path]
        while stack:
            v, rest, at = frame = stack[-1]
            if rest:
                frame[1] = rest & (rest - 1)
                w = (rest & -rest).bit_length() - 1
                if disc[w]:
                    low[v] = min(low[v], disc[w])
                else:
                    disc[w] = low[w] = time = time + 1
                    stack.append([w, adj[w], len(path)])
                    path.append(w)
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    found.append((disc[v], [u, *path[at:]]))
                    del path[at:]
    return [block for _, block in sorted(found)]


# A walk's memo of labelling searches: the outcome of each proper block
# searched, keyed by the budget and the block's neighbour masks, the whole of
# what `find_labelling`'s outcome depends on.
# A graph that is one block is searched without the memo: a walk meets each
# class once, and at n <= 7 keeping those outcomes, 89 of them on 7 vertices
# and never met again, raised the walk's peak traced memory from 2.50 to
# 2.69 MB to save 22 small searches.
Searches = dict[tuple[SearchBudget, tuple[int, ...]], SearchOutcome]


def decide_labellable(
    g: Graph, budget: SearchBudget | None = None, _searches: Searches | None = None
) -> Verdict:
    """Decide whether g is labellable, block by block (see `_blocks`).

    Status is "labellable" (with a valid labelling), "unlabellable" (a block
    has no labelling with k up to k_max) or "undecided" (no block is shown
    to have none, but a block's search ran out of nodes).  Every block is
    searched before "undecided" is returned, so a block that runs out of
    nodes never hides a later one that has no labelling.  k_max bounds each
    block, a hereditary property; gluing may grow k past it (the claw gets 3
    at k_max 2).

    `_searches` is a walk's memo of block searches (see `Searches`): a
    proper block searched under this budget with these neighbour masks is
    not searched again.

    A graph is labellable exactly when each of its blocks is.  Only if: by
    heredity.  If: glue the blocks in order onto the part P labelled so far.
    Complete blocks get distinct singletons, the others are searched.  A
    block starting a component gets fresh symbols, all labels padded to a
    common k >= 2.  Else B meets P in its first vertex v; A_P are the symbols
    of L_P(v) that v's neighbours in P swap out, A_B the same in B.  Pad both
    sides with fresh common symbols to k = max(k_P, k_B, |A_P| + |A_B|),
    rename B's L(v) onto L_P(v) with A_B sent outside A_P, and B's other
    symbols to fresh ones.  Labels of P and B now share only symbols of L(v):
    at most k - 2 unless both are v's neighbours, and then k - 2, as they
    swap out different symbols (had they swapped the same, they would meet
    in k - 1).  So a tree gets k equal to its largest degree, the least, as
    a vertex's non-adjacent neighbours swap out distinct symbols.

    A graph that is one non-complete block gets its search's labelling as it
    is.  Gluing would start a component with it: no padding, as k stays k_B,
    and its symbols renamed in increasing order onto 1, 2, ...  The
    normalised search uses exactly the symbols 1..m (the first label is
    {1..k}, and a new symbol is the smallest unused), so that renaming is
    the identity.
    """
    budget = budget or SearchBudget()
    k_bound = budget.k_bound(g)
    searches = _searches if _searches is not None else {}
    blocks = _blocks(g.adj)
    found = []  # (k, labels by vertex) of each block, while every search finds one
    exhausted = False
    for block in blocks:
        mask = sum(1 << w for w in block)
        if all((g.adj[w] | 1 << w) & mask == mask for w in block):
            found.append((1, {w: {i} for i, w in enumerate(block, 1)}))
            continue
        if len(block) == g.n:  # g is one block: no gluing (see above)
            outcome = find_labelling(g, budget)
            if outcome:
                return _labellable(g, k_bound, outcome.labelling)
        else:
            sub = induced_subgraph(g, block)
            key = (budget, sub.adj)
            outcome = searches.get(key)
            if outcome is None:
                outcome = searches[key] = find_labelling(sub, budget)
        if outcome.status == "absent_up_to_k":
            return Verdict(UNLABELLABLE, k_bound)
        if outcome:
            found.append((outcome.k, dict(zip(sorted(block), outcome.labelling.labels))))
        else:
            exhausted = True
    if exhausted:
        return Verdict(UNDECIDED, k_bound)
    return _labellable(g, k_bound, _glue(g, blocks, found))


def _labellable(g: Graph, k_bound: int, labelling: Labelling) -> Verdict:
    check = is_valid_labelling(g, labelling)
    assert check, f"labelling of a labellable verdict invalid: {check.reason}"
    return Verdict(LABELLABLE, k_bound, labelling)


def _glue(
    g: Graph, blocks: list[list[int]], found: list[tuple[int, dict[int, set[int]]]]
) -> Labelling:
    """The labelling of g glued from each block's (k, labels by vertex) in
    `found`, block by block in `_blocks` order (see `decide_labellable`)."""
    labels: list[tuple[set[int], int] | None] = [None] * g.n  # (symbols, len(common) when placed)
    common: list[int] = []  # P's padding: a label also holds the symbols added after it was placed
    def full(u: int) -> set[int]:
        return labels[u][0].union(common[labels[u][1]:])
    swapped: dict[int, set[int]] = {}  # A_P of each vertex glued at so far, kept as it grows
    fresh = itertools.count(1)  # the symbols not given out yet
    k = 0  # the label size, 0 while nothing is placed
    for block, (k_b, own) in zip(blocks, found):
        v = block[0]
        a_p, a_b = set(), set()
        if labels[v]:
            if v not in swapped:
                swapped[v] = set().union(*(full(v) - full(u) for u in g.neighbors(v) if labels[u]))
            a_p = swapped[v]
            a_b = set().union(*(own[v] - own[w] for w in block[1:] if g.has_edge(v, w)))
        k_new = max(k, k_b, 2 if k else 1, len(a_p) + len(a_b))
        common += [next(fresh) for _ in range(k_new - k)] if k else []
        target = sorted(full(v) - a_p) + sorted(a_p) if labels[v] else []
        rename = dict(zip(sorted(a_b) + sorted(own[v] - a_b), target))
        rename.update((sym, next(fresh)) for sym in sorted(set().union(*own.values()) - rename.keys()))
        pads = target[k_b:] or [next(fresh) for _ in range(k_new - k_b)]
        for w in block:
            if not labels[w]:
                labels[w] = ({rename[sym] for sym in own[w]}.union(pads), len(common))
        a_p.update(rename[sym] for sym in a_b)
        k = k_new
    return Labelling(max(k, 1), tuple(map(full, range(g.n))))


# A class's record: its own status, and the least canonical form among its
# induced subgraphs decided unlabellable, itself included (None when there is
# none).  A form's first byte gives its vertex count (`graph6_order`), so the
# least form is also one of the smallest.
Record = tuple[str, bytes | None]

# A graph given by its vertex count and neighbour masks alone, with no Graph
# built: the parts whose records a graph's record is read from.
Masks = tuple[int, tuple[int, ...]]


class _Records:
    """One record per isomorphism class, keyed by canonical form.

    A classified graph's record waits, filed by vertex count, until a lookup
    reads that count: only then is its canonical form computed.  A run whose
    inputs all have the same size never needs those forms, and for large
    symmetric inputs they cost far more than the search (on a 2-vCPU host
    the 14-cycle's form takes about 1 s, its labelling under a millisecond).

    A batch is not settled by containment, as `classify_connected` settles
    its walk: on batches of 10-12-vertex graphs that was 1.8-3.4x slower, and
    it settles a class from whichever of its members comes first, which
    changes verdicts under a node limit.
    """

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.by_form: dict[bytes, Record] = {}
        self.orders: set[int] = set()  # vertex counts of the kept and settled classes
        self._unfiled: dict[int, list[tuple[Graph, Record]]] = {}

    def keep(self, g: Graph, record: Record) -> None:
        """Keep a classified graph's record."""
        self._unfiled.setdefault(g.n, []).append((g, record))
        self.orders.add(g.n)

    def lookup(self, part: Masks) -> Record:
        """The record of the class of the graph `part`, settling it on a
        miss; only a miss builds its `Graph`."""
        n, adj = part
        for h, record in self._unfiled.pop(n, ()):
            self.by_form.setdefault(canonical_form(h), record)
        form = canonical_word(n, adj)
        record = self.by_form.get(form)
        if record is None:
            g = Graph(n, adj, _default_names(n))
            record = self.by_form[form] = self.settle(g)[0]
            self.orders.add(n)
        return record

    def settle(self, g: Graph) -> tuple[Record, Verdict | None, list[Record]]:
        """g's record, g's own verdict if it was searched, and the records of
        g's parts (see `_parts`).

        g is searched only when no part carries a witness.  Its parts are
        read first, except while no class on g.n - 1 vertices is known or
        such a class is too large for a canonical form: then g is searched
        first, and a labellable g needs no canonical form.  So a batch's
        verdict on a labellable g does not depend on what else it holds.
        """
        own = None
        if g.n - 1 not in self.orders or g.n - 1 > CANONICAL_FORM_MAX_VERTICES:
            own = decide_labellable(g, self.budget)
            if own.status == LABELLABLE:
                return (LABELLABLE, None), own, []
        parts = [self.lookup(sub) for sub in _parts(g)]
        witness = min((w for _, w in parts if w is not None), default=None)
        if witness is not None:
            return (UNLABELLABLE, witness), own, parts
        if own is None:
            own = decide_labellable(g, self.budget)
        if own.status == UNLABELLABLE:
            witness = canonical_form(g)
        return (own.status, witness), own, parts

    def verdict(self, g: Graph) -> Verdict:
        """g's verdict, keeping its record.

        A part (see `_parts`) whose record carries a witness settles g as
        nonminimal without searching g itself.  An unlabellable g with no
        such part is minimal when every part is labellable: each component
        of a disconnected deletion lies in a connected deletion.
        """
        record, own, parts = self.settle(g)
        self.keep(g, record)
        witness = record[1]
        k_bound = self.budget.k_bound(g)
        if witness is None:
            assert own is not None
            return own
        if graph6_order(witness) < g.n:
            found = _smallest_unlabellable_subset(g, _FormTable([witness]))
            assert found is not None, "no induced subgraph has the recorded witness form"
            return Verdict(UNLABELLABLE_NONMINIMAL, k_bound, witness=found[0], witness_form=witness)
        if all(status == LABELLABLE for status, _ in parts):
            return Verdict(MINIMALLY_UNLABELLABLE, k_bound)
        return Verdict(UNDECIDED, k_bound)


def _parts(g: Graph) -> list[Masks]:
    """The proper induced subgraphs whose records make up g's: its
    components if it is disconnected, else its connected deletions.  Every
    connected proper induced subgraph of g lies in one of them."""
    comps = connected_components(g)
    if len(comps) > 1:
        return [(len(comp), _induced_masks(g.adj, comp)) for comp in comps]
    return list(_connected_deletions(g.adj))


class _FormTable:
    """Canonical forms filed by vertex count and sorted degree sequence: the
    forms the witness scan looks for."""

    def __init__(self, forms: Iterable[bytes] = ()):
        self.by_size: dict[int, dict[tuple[int, ...], set[bytes]]] = {}
        self.least: dict[int, bytes] = {}
        for form in forms:
            self.add(form)

    def add(self, form: bytes) -> None:
        size, adj = graph6_masks(form)
        degrees = tuple(sorted(mask.bit_count() for mask in adj))
        self.by_size.setdefault(size, {}).setdefault(degrees, set()).add(form)
        if size not in self.least or form < self.least[size]:
            self.least[size] = form


def _smallest_unlabellable_subset(
    g: Graph, table: _FormTable
) -> tuple[tuple[int, ...], bytes] | None:
    """The least (form, vertex tuple) over g's proper induced subgraphs
    whose form is in `table`, or None when none is.

    Forms order by size first, so sizes are scanned smallest first, and the
    scan of a size stops at the first subset, in lexicographic order, with
    that size's least form in the table.  A subset gets a canonical form only
    when its degree sequence is one of the table's.
    """
    bits = [1 << v for v in range(g.n)]
    for size in sorted(s for s in table.by_size if s < g.n):
        by_degrees = table.by_size[size]
        least = table.least[size]
        best = None
        # the two walks stay in step: a subset's vertex bits and their rows
        for chosen, rows in zip(itertools.combinations(bits, size), itertools.combinations(g.adj, size)):
            inside = sum(chosen)
            degrees = [(row & inside).bit_count() for row in rows]
            degrees.sort()
            forms = by_degrees.get(tuple(degrees))
            if forms is None:
                continue
            subset = tuple(bit.bit_length() - 1 for bit in chosen)
            form = canonical_word(size, _induced_masks(g.adj, subset))
            if form in forms and (best is None or form < best[1]):
                if form == least:
                    return subset, form
                best = subset, form
        if best is not None:
            return best
    return None


class _Contained:
    """The rule of a `classify_connected` walk: every connected graph on
    fewer vertices than g has already been settled, so g's witness is found
    by containment, and no deletion of g needs a canonical form.

    A class is *self-witnessed* when it was searched, found unlabellable, and
    has no smaller witness; its form joins the table.  Undecided classes,
    whose own search ran out of nodes with no witness found, are kept by
    form and vertex count.  `searches` is the walk's memo of block searches
    (see `Searches`).
    """

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.searches: Searches = {}
        self.witnesses = _FormTable()
        self.undecided: dict[int, set[bytes]] = {}

    def verdict(self, g: Graph) -> Verdict:
        k_bound = self.budget.k_bound(g)
        found = _smallest_unlabellable_subset(g, self.witnesses)
        if found is not None:
            subset, form = found
            return Verdict(UNLABELLABLE_NONMINIMAL, k_bound, witness=subset, witness_form=form)
        own = decide_labellable(g, self.budget, self.searches)
        if own.status == LABELLABLE:
            return own
        form = canonical_form(g)
        if own.status == UNDECIDED:
            self.undecided.setdefault(g.n, set()).add(form)
            return own
        self.witnesses.add(form)
        undecided = self.undecided.get(g.n - 1)
        if undecided and any(
            canonical_word(n, adj) in undecided for n, adj in _connected_deletions(g.adj)
        ):
            return Verdict(UNDECIDED, k_bound)
        return Verdict(MINIMALLY_UNLABELLABLE, k_bound)


def is_minimally_unlabellable(
    g: Graph, budget: SearchBudget | None = None, _rule: _Records | _Contained | None = None
) -> Verdict:
    """Refine an unlabellable graph into minimal vs nonminimal; labellable
    inputs pass straight through and budget exhaustion yields "undecided".

    Alone, or under `classify`, g is settled from the records of its parts
    (see `_Records.verdict`); under `classify_connected`, by containment of
    the witnesses already found (see `_Contained`).
    """
    budget = budget or SearchBudget()
    rule = _rule if _rule is not None else _Records(budget)
    return rule.verdict(g)


def _report(verdicts: dict[str, Verdict], budget: SearchBudget) -> ClassificationReport:
    counts = {LABELLABLE: 0, MINIMALLY_UNLABELLABLE: 0, UNLABELLABLE_NONMINIMAL: 0, UNDECIDED: 0}
    for v in verdicts.values():
        counts[v.status] += 1
    n_values = sorted({graph6_order(word) for word in verdicts})
    params = {
        "k_max": budget.k_max,
        "node_limit": budget.node_limit,
        "n_values": n_values,
        "exploratory_n": [n for n in n_values if n >= 7],
    }
    return ClassificationReport(params, verdicts, counts)


def classify(graphs, budget: SearchBudget | None = None) -> ClassificationReport:
    """Give every graph a final verdict.  Budget exhaustion is recorded per
    graph as "undecided"; the batch never aborts.  Results are keyed and
    ordered by graph6 word.

    The graphs may be any batch, so each is settled from per-class records
    (`_Records`); for every connected graph up to a size, `classify_connected`
    gives the same verdicts with fewer canonical forms."""
    budget = budget or SearchBudget()
    items = sorted({write_graph6(g): g for g in graphs}.items())
    records = _Records(budget)
    return _report({word: is_minimally_unlabellable(g, budget, records) for word, g in items}, budget)


def classify_connected(max_n: int, budget: SearchBudget | None = None) -> ClassificationReport:
    """`classify` of every connected graph on 1..max_n vertices, settled by
    containment of the witnesses already found instead of by records.

    The graphs are settled in graph6 order, which puts smaller graphs first,
    so when g is reached every connected graph on fewer vertices has been.
    g's witness is the least self-witnessed form that embeds in g as a
    proper induced subgraph (`_Contained`), and this is the witness
    `classify` records: take a smallest induced subgraph W of g that the run
    settled unlabellable.  W is connected, since a component of a
    disconnected unlabellable graph is already unlabellable.  A witness of
    W's own would be smaller still, so W has none: it was searched and found
    unlabellable, that is, self-witnessed.  Every self-witnessed form is
    settled unlabellable, and forms order by size first, so the least
    self-witnessed form embedded is the least form among g's smallest
    induced subgraphs settled unlabellable.

    A g with no witness is searched.  An unlabellable g becomes
    self-witnessed.  None of its connected deletions carries a witness, so
    each is labellable or undecided, and g is minimal unless one is
    undecided.  Only while the run holds an undecided class on g.n - 1
    vertices are g's deletions given canonical forms to look for one.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    budget = budget or SearchBudget()
    graphs = [g for n in range(1, max_n + 1) for g in enumerate_connected_graphs(n)]
    rule = _Contained(budget)
    return _report({write_graph6(g): is_minimally_unlabellable(g, budget, rule) for g in graphs}, budget)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def verdict_to_json(n: int, verdict: Verdict) -> dict:
    """A verdict on an n-vertex graph read from graph6, so a labelling's
    labels are keyed by the graph6 names "1".."n"."""
    doc: dict = {"status": verdict.status, "k_bound": verdict.k_bound}
    if verdict.labelling is not None:
        labels = verdict.labelling.labels
        if len(labels) != n:
            raise ValueError("labelling does not match the graph")
        doc["labelling"] = {
            "k": verdict.labelling.k,
            "labels": {str(v + 1): sorted(label) for v, label in enumerate(labels)},
        }
    if verdict.witness_form is not None:
        doc["witness_graph6"] = verdict.witness_form.decode("ascii")
    return doc


def report_to_json(report: ClassificationReport) -> dict:
    return {
        "params": report.params,
        "verdicts": {
            word: verdict_to_json(graph6_order(word), verdict)
            for word, verdict in sorted(report.verdicts.items())
        },
        "counts": report.counts,
    }


def report_summary(report: ClassificationReport) -> str:
    """Status counts per vertex count, as a small fixed-width table."""
    by_n: dict[int, dict[str, int]] = {}
    for word, verdict in report.verdicts.items():
        n = graph6_order(word)
        by_n.setdefault(n, {}).setdefault(verdict.status, 0)
        by_n[n][verdict.status] += 1
    lines = [f"{'n':>3} {'graphs':>7} {'labellable':>11} {'minimal':>8} {'nonminimal':>11} {'undecided':>10}"]
    for n in sorted(by_n):
        row = by_n[n]
        total = sum(row.values())
        note = "  (exploratory)" if n in report.params["exploratory_n"] else ""
        lines.append(
            f"{n:>3} {total:>7} {row.get(LABELLABLE, 0):>11} "
            f"{row.get(MINIMALLY_UNLABELLABLE, 0):>8} {row.get(UNLABELLABLE_NONMINIMAL, 0):>11} "
            f"{row.get(UNDECIDED, 0):>10}{note}"
        )
    return "\n".join(lines)
