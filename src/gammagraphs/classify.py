"""Classify small connected graphs as labellable, minimally unlabellable, or
unlabellable with a smaller witness.

A graph is minimally unlabellable when it has no labelling but every
one-vertex-deleted induced subgraph does (checking only those suffices:
labellability is hereditary on induced subgraphs).  Searches are bounded, so
every non-labellable verdict is relative to the budget's k_max, and budget
exhaustion surfaces as an explicit "undecided" status rather than a verdict.

A run never proves twice what it already knows.  Every status it settles is
kept by canonical form in one `_DecisionCache`, and two steps read it:

- **Lookup before search.**  Before searching a graph g, `classify` looks up
  the canonical forms of g's one-vertex deletions.  This is a dict lookup and
  never starts a search.  If one of them is already recorded unlabellable,
  so is g (heredity; `SearchBudget` shows the k bounds agree), and g is
  nonminimal with no search of its own.  A miss falls back to searching g.
  Inputs are classified in graph6 order, whose first byte is the vertex
  count, so under `--max-n` every smaller connected graph is recorded first.
  Looking up the connected deletions is enough to catch every nonminimal g:
  if a connected g has a proper unlabellable induced subgraph, a minimal one
  W is connected (a component of a disconnected unlabellable graph is
  already unlabellable).  Grow a spanning tree of g out from a spanning tree
  of W; it has a leaf v outside W, so g - v is connected, contains W, and is
  unlabellable.
- **Witness search walking down from g.**  The smallest unlabellable subset
  is found by descending from V(g) one vertex at a time, keeping only the
  subsets not decided labellable.  A labelling of a set restricts to every
  subset, so no subset of a labellable set is ever decided unlabellable, and
  every unlabellable subset is reached through unlabellable supersets.  Each
  level's subsets are tried once.

Both steps return exactly what deciding every graph, deletion and subset
afresh would, as long as no search runs out of nodes.  Under a node limit
that stops searches, one difference remains: a lookup hit settles as
nonminimal a graph whose own search would have ended "undecided".  The
verdict is sound, since it rests on a completed search of a deletion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import UnsupportedSizeError
from .graphs import (
    Graph,
    canonical_form,
    connected_components,
    induced_subgraph,
    parse_graph6,
    write_graph6,
)
from .labelling import (
    Labelling,
    SearchBudget,
    _pendant_elimination,
    find_labelling,
    is_valid_labelling,
    reattach_pendants,
    with_common_symbol,
)

LABELLABLE = "labellable"
MINIMALLY_UNLABELLABLE = "minimally_unlabellable"
UNLABELLABLE_NONMINIMAL = "unlabellable_nonminimal"
UNLABELLABLE = "unlabellable"  # absent up to k_bound, minimality not yet resolved
UNDECIDED = "undecided"

ENUMERATION_MAX_VERTICES = 7


@dataclass(frozen=True)
class Verdict:
    """Per-graph outcome; k_bound is the k_max the verdict is relative to."""

    status: str
    k_bound: int
    labelling: Labelling | None = None
    witness: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.status == LABELLABLE and self.labelling is None:
            raise ValueError("labellable verdicts must carry a labelling")
        if self.status == UNLABELLABLE_NONMINIMAL and self.witness is None:
            raise ValueError("nonminimal verdicts must carry a witness")


@dataclass(frozen=True)
class ClassificationReport:
    params: dict
    verdicts: dict[str, Verdict]  # keyed by graph6, iteration order sorted
    counts: dict[str, int]

    def count(self, status: str) -> int:
        return self.counts.get(status, 0)


# ---------------------------------------------------------------------------
# Connected-graph enumeration (one representative per isomorphism class)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _connected_words(n: int) -> tuple[str, ...]:
    if n == 1:
        return (canonical_form(Graph.from_edges(1, [])).decode("ascii"),)
    words: set[str] = set()
    for word in _connected_words(n - 1):
        g = parse_graph6(word)
        for nbrs in range(1, 1 << (n - 1)):
            adj = list(g.adj) + [nbrs]
            for u in range(n - 1):
                if (nbrs >> u) & 1:
                    adj[u] |= 1 << (n - 1)
            extended = Graph(n, tuple(adj), tuple(str(i + 1) for i in range(n)))
            words.add(canonical_form(extended).decode("ascii"))
    return tuple(sorted(words))


def enumerate_connected_graphs(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of connected graphs
    on n vertices, in canonical-form order.  Built in for n <= 7; larger
    corpora must be ingested from graph6 files.

    Every connected graph on n vertices extends a connected graph on n-1
    vertices by one vertex with a nonempty neighbourhood (delete a non-cut
    vertex to see this), so vertex-by-vertex extension with canonical-form
    deduplication is exhaustive.
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

def _combine_component_labellings(
    g: Graph, parts: list[tuple[tuple[int, ...], dict[int, frozenset[int]], int]]
) -> Labelling:
    """Merge per-component labellings: equalize k (adjoining fresh common
    symbols), then shift each component onto a disjoint symbol universe."""
    target_k = max(k for _, _, k in parts)
    if len(parts) > 1:
        target_k = max(target_k, 2)
    labels: list[frozenset[int]] = [frozenset()] * g.n
    offset = 0
    for comp, part_labels, k in parts:
        lab = Labelling(k, tuple(part_labels[v] for v in comp))
        while lab.k < target_k:
            lab = with_common_symbol(lab)
        width = lab.max_symbol()
        for idx, v in enumerate(comp):
            labels[v] = frozenset(sym + offset for sym in lab.labels[idx])
        offset += width
    return Labelling(target_k, tuple(labels))


def decide_labellable(g: Graph, budget: SearchBudget | None = None) -> Verdict:
    """Split into components, strip pendant/isolated vertices, search each
    core, and reassemble a full labelling when every component succeeds.

    Status is "labellable" (with a valid labelling), "unlabellable" (no
    labelling with label size up to the budget's k_max), or "undecided" when
    the node budget ran out first.
    """
    budget = budget or SearchBudget()
    if g.n == 0:
        return Verdict(LABELLABLE, budget.resolve(g)[0], Labelling(1, ()))
    k_bound = budget.resolve(g)[0]
    parts = []
    for comp in connected_components(g):
        sub = induced_subgraph(g, comp)
        survivors, deletions = _pendant_elimination(sub)
        base: dict[int, frozenset[int]] = {}
        base_k = 1
        if survivors:
            core = induced_subgraph(sub, survivors)
            outcome = find_labelling(core, budget)
            if outcome.status == "budget_exhausted":
                return Verdict(UNDECIDED, k_bound)
            if outcome.status == "absent_up_to_k":
                return Verdict(UNLABELLABLE, k_bound)
            assert outcome.labelling is not None
            base = {survivors[i]: outcome.labelling.labels[i] for i in range(len(survivors))}
            base_k = outcome.labelling.k
        full_labels, full_k = reattach_pendants(deletions, base, base_k)
        parts.append((comp, {comp[j]: full_labels[j] for j in range(len(comp))}, full_k))
    combined = _combine_component_labellings(g, parts)
    check = is_valid_labelling(g, combined)
    assert check, f"reconstructed labelling invalid: {check.reason}"
    return Verdict(LABELLABLE, k_bound, combined)


class _DecisionCache:
    """Labellable/unlabellable/undecided statuses by canonical form.

    A classified graph's own status waits, filed by vertex count, until a
    lookup reads that count: only then is its canonical form computed.  A
    run whose inputs all have the same size never needs those forms, and
    for large symmetric inputs they cost far more than the search (the
    12-cycle's form takes over 20 s, its labelling a millisecond).
    """

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.by_form: dict[bytes, str] = {}
        self.unlabellable_orders: set[int] = set()
        self._unfiled: dict[int, list[tuple[Graph, str]]] = {}

    def record(self, g: Graph, status: str) -> None:
        """Keep a classified graph's settled status."""
        self._unfiled.setdefault(g.n, []).append((g, status))
        if status == UNLABELLABLE:
            self.unlabellable_orders.add(g.n)

    def _file(self, n: int) -> None:
        for g, status in self._unfiled.pop(n, ()):
            self.by_form.setdefault(canonical_form(g), status)

    def has_unlabellable_deletion(self, g: Graph) -> bool:
        """Whether a one-vertex deletion of g is recorded unlabellable: one
        dict lookup per deletion, never a search.  Skipped, with no canonical
        forms computed, while no graph on g.n - 1 vertices is recorded
        unlabellable."""
        if g.n - 1 not in self.unlabellable_orders:
            return False
        self._file(g.n - 1)
        return any(
            self.by_form.get(canonical_form(sub)) == UNLABELLABLE for sub in _deletions(g)
        )

    def status(self, g: Graph, form: bytes | None = None) -> str:
        """The recorded status of g's class, deciding g on a miss."""
        self._file(g.n)
        form = form or canonical_form(g)
        hit = self.by_form.get(form)
        if hit is None:
            hit = decide_labellable(g, self.budget).status
            self.by_form[form] = hit
            if hit == UNLABELLABLE:
                self.unlabellable_orders.add(g.n)
        return hit


def _deletions(g: Graph) -> list[Graph]:
    return [induced_subgraph(g, [u for u in range(g.n) if u != v]) for v in range(g.n)]


def _smallest_unlabellable_subset(
    g: Graph, cache: _DecisionCache
) -> tuple[int, ...] | None:
    """Smallest proper induced subgraph decided unlabellable; among the
    smallest, ties break by canonical form, then by vertex tuple.

    Walks down from V(g) one vertex at a time and keeps only subsets not
    decided labellable (see the module docstring).
    """
    best = None
    level = {(1 << g.n) - 1}
    while level:
        below = set()
        hits: list[tuple[bytes, tuple[int, ...]]] = []
        for mask in {m & ~(1 << v) for m in level for v in range(g.n) if (m >> v) & 1}:
            subset = tuple(v for v in range(g.n) if (mask >> v) & 1)
            sub = induced_subgraph(g, subset)
            form = canonical_form(sub)
            status = cache.status(sub, form)
            if status == UNLABELLABLE:
                hits.append((form, subset))
            if status != LABELLABLE:
                below.add(mask)
        if hits:
            best = min(hits)[1]
        level = below
    return best


def is_minimally_unlabellable(
    g: Graph, budget: SearchBudget | None = None, _cache: _DecisionCache | None = None
) -> Verdict:
    """Refine an unlabellable graph into minimal vs nonminimal by deciding
    all one-vertex-deleted subgraphs; labellable inputs pass straight
    through and budget exhaustion anywhere yields "undecided".

    A deletion already recorded unlabellable in the cache settles g as
    nonminimal without searching g itself.
    """
    budget = budget or SearchBudget()
    cache = _cache if _cache is not None else _DecisionCache(budget)
    settled = cache.has_unlabellable_deletion(g)
    own = Verdict(UNLABELLABLE, budget.resolve(g)[0]) if settled else decide_labellable(g, budget)
    if own.status == UNDECIDED:
        return own
    cache.record(g, own.status)
    if own.status == LABELLABLE:
        return own
    deletion_statuses = [UNLABELLABLE] if settled else [cache.status(sub) for sub in _deletions(g)]
    if UNLABELLABLE in deletion_statuses:
        witness = _smallest_unlabellable_subset(g, cache)
        assert witness is not None
        return Verdict(UNLABELLABLE_NONMINIMAL, own.k_bound, witness=witness)
    if UNDECIDED in deletion_statuses:
        return Verdict(UNDECIDED, own.k_bound)
    return Verdict(MINIMALLY_UNLABELLABLE, own.k_bound)


def classify(graphs, budget: SearchBudget | None = None) -> ClassificationReport:
    """Give every graph a final verdict.  Budget exhaustion is recorded per
    graph as "undecided"; the batch never aborts.  Results are keyed and
    ordered by graph6 word."""
    budget = budget or SearchBudget()
    items = sorted({write_graph6(g): g for g in graphs}.items())
    cache = _DecisionCache(budget)
    verdicts = {word: is_minimally_unlabellable(g, budget, _cache=cache) for word, g in items}
    counts = {LABELLABLE: 0, MINIMALLY_UNLABELLABLE: 0, UNLABELLABLE_NONMINIMAL: 0, UNDECIDED: 0}
    for v in verdicts.values():
        counts[v.status] += 1
    n_values = sorted({g.n for _, g in items})
    params = {
        "k_max": budget.k_max,
        "node_limit": budget.node_limit,
        "n_values": n_values,
        "exploratory_n": [n for n in n_values if n >= 7],
    }
    return ClassificationReport(params, verdicts, counts)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def verdict_to_json(g: Graph, verdict: Verdict) -> dict:
    from .labelling import labelling_to_json

    doc: dict = {"status": verdict.status, "k_bound": verdict.k_bound}
    if verdict.labelling is not None:
        doc["labelling"] = labelling_to_json(g, verdict.labelling)
    if verdict.witness is not None:
        doc["witness_graph6"] = canonical_form(induced_subgraph(g, verdict.witness)).decode(
            "ascii"
        )
    return doc


def report_to_json(report: ClassificationReport) -> dict:
    return {
        "params": report.params,
        "verdicts": {
            word: verdict_to_json(parse_graph6(word), verdict)
            for word, verdict in sorted(report.verdicts.items())
        },
        "counts": report.counts,
    }


def report_summary(report: ClassificationReport) -> str:
    """Status counts per vertex count, as a small fixed-width table."""
    by_n: dict[int, dict[str, int]] = {}
    for word, verdict in report.verdicts.items():
        n = parse_graph6(word).n
        by_n.setdefault(n, {}).setdefault(verdict.status, 0)
        by_n[n][verdict.status] += 1
    lines = [f"{'n':>3} {'graphs':>7} {'labellable':>11} {'minimal':>8} {'nonminimal':>11} {'undecided':>10}"]
    for n in sorted(by_n):
        row = by_n[n]
        total = sum(row.values())
        note = "  (exploratory)" if n >= 7 else ""
        lines.append(
            f"{n:>3} {total:>7} {row.get(LABELLABLE, 0):>11} "
            f"{row.get(MINIMALLY_UNLABELLABLE, 0):>8} {row.get(UNLABELLABLE_NONMINIMAL, 0):>11} "
            f"{row.get(UNDECIDED, 0):>10}{note}"
        )
    return "\n".join(lines)
