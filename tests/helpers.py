"""Independent oracles, reference code and generators shared by the test
suites.

Everything here is deliberately naive: powerset scans, breadth-first
distances and unpruned assignment enumeration, kept separate from the
library's own algorithms so the two sides of every comparison stay
independent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from gammagraphs import (
    Clutter,
    Graph,
    canonical_form,
    connected_components,
    induced_subgraph,
    write_graph6,
)
from gammagraphs.classify import decide_labellable
from gammagraphs.graphs import _default_names
from gammagraphs.labelling import Labelling, labelling_to_json


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path lengths; ``None`` marks unreachable pairs."""

    entries: tuple[tuple[int | None, ...], ...]

    def dist(self, u: int, v: int) -> int | None:
        return self.entries[u][v]

    def eccentricity(self, v: int) -> int | None:
        """Largest distance from v, or None if some vertex is unreachable."""
        row = self.entries[v]
        if any(x is None for x in row):
            return None
        return max(row) if row else 0


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex over the neighbour bitmasks."""
    rows = []
    for s in range(g.n):
        row: list[int | None] = [None] * g.n
        seen = 1 << s
        frontier = seen
        layer = 0
        while frontier:
            rest = frontier
            while rest:
                low = rest & -rest
                row[low.bit_length() - 1] = layer
                rest ^= low
            nxt = 0
            rest = frontier
            while rest:
                low = rest & -rest
                nxt |= g.adj[low.bit_length() - 1]
                rest ^= low
            frontier = nxt & ~seen
            seen |= frontier
            layer += 1
        rows.append(tuple(row))
    return DistanceMatrix(tuple(rows))


def permute_graph(g: Graph, perm) -> Graph:
    """Relabelled copy: new vertex i is old vertex perm[i].  Fresh default names."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    inv = [0] * g.n
    for i, p in enumerate(perm):
        inv[p] = i
    adj = [0] * g.n
    for i, p in enumerate(perm):
        rest = g.adj[p]
        while rest:
            low = rest & -rest
            adj[i] |= 1 << inv[low.bit_length() - 1]
            rest ^= low
    return Graph(g.n, tuple(adj), _default_names(g.n))


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def powerset_min_dominating(g: Graph, d: int) -> tuple[int, set[frozenset[int]]]:
    """Scan every subset of V(g); return gamma and all minimum covers."""
    dm = all_pairs_distances(g)

    def dominates(subset) -> bool:
        for v in range(g.n):
            if not any(dm.dist(u, v) is not None and dm.dist(u, v) <= d for u in subset):
                return False
        return True

    best = None
    sets: set[frozenset[int]] = set()
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            if dominates(subset):
                if best is None:
                    best = size
                if size == best:
                    sets.add(frozenset(subset))
        if best is not None:
            break
    assert best is not None and best >= 1
    return best, sets


def oracle_gamma_graph_edges(tags, gamma: int) -> set[tuple[int, int]]:
    """Every pair i < j of tags that meet in gamma - 1 elements, found by
    intersecting every pair."""
    return {
        (i, j)
        for i, j in itertools.combinations(range(len(tags)), 2)
        if len(tags[i] & tags[j]) == gamma - 1
    }


def powerset_blocker(c: Clutter) -> Clutter:
    """Scan the subsets of the ground set in size order; keep each transversal
    that contains no transversal kept before it (a smaller one, since an
    equal-size subset is never a proper subset)."""
    kept: list[frozenset[int]] = []
    for size in range(c.ground_size + 1):
        for subset in itertools.combinations(range(1, c.ground_size + 1), size):
            s = frozenset(subset)
            if all(s & m for m in c.members) and not any(t <= s for t in kept):
                kept.append(s)
    return Clutter(c.ground_size, tuple(kept))


def first_contained_pair_message(members) -> str | None:
    """The error a Clutter of these distinct members must raise, or None for
    an antichain: the first member, in size-then-lexicographic order, that
    is a proper subset of a later one, found by comparing every pair."""
    ordered = sorted(members, key=lambda m: (len(m), sorted(m)))
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a < b:
                return f"not an antichain: member {sorted(a)} is contained in member {sorted(b)}"
    return None


def first_adjacency_fault(n: int, adj) -> str | None:
    """The error a Graph with these masks must raise, or None when they are
    in range, loop-free and symmetric: the first fault in vertex order, found
    by testing every ordered pair."""
    for v in range(n):
        if adj[v] < 0 or adj[v] >> n:
            return f"adjacency mask of vertex {v} leaves the vertex range"
        if (adj[v] >> v) & 1:
            return f"self-loop at vertex {v}"
        for u in range(n):
            if (adj[v] >> u) & 1 and not (adj[u] >> v) & 1:
                return f"adjacency is not symmetric at ({v},{u})"
    return None


def oracle_labelling_exists(g: Graph, k: int) -> bool:
    """Brute-force: try every assignment of k-subsets of a (k+n-1)-symbol
    universe, filtering partial assignments pairwise.

    The vertices are taken in breadth-first order, and a vertex with an
    earlier neighbour draws its candidates only from the k-subsets that meet
    that neighbour's label in k-1 symbols; any other candidate fails the
    pairwise filter, so this applies the adjacency condition earlier and
    changes no answer.

    The first vertex gets {1..k} only, and the second, when it is the
    first's neighbour, {1..k-1, k+1} only: the first candidates in
    lexicographic order.  A permutation of the universe carries any
    assignment inside it to one that gives the first vertex {1..k} and is
    valid iff the original is; the second label then drops one symbol a of
    {1..k} and adds one symbol b outside it, and the transpositions (a k)
    and (b k+1) fix {1..k} and carry it to {1..k-1, k+1}.  So the answer is
    unchanged.
    """
    labels = [frozenset(c) for c in itertools.combinations(range(1, k + g.n), k)]
    order: list[int] = []  # breadth first, each component from its lowest vertex
    for root in range(g.n):
        if root not in order:
            head = len(order)
            order.append(root)
            while head < len(order):
                order += [u for u in g.neighbors(order[head]) if u not in order]
                head += 1
    assign: list[frozenset[int] | None] = [None] * g.n
    near: dict[frozenset[int], list[frozenset[int]]] = {}  # the labels meeting a label in k-1

    def consistent(i: int, cand: frozenset[int]) -> bool:
        v = order[i]
        for u in order[:i]:
            other = assign[u]
            if cand == other:
                return False
            inter = len(cand & other)
            if g.has_edge(v, u):
                if inter != k - 1:
                    return False
            elif inter == k - 1:
                return False
        return True

    def rec(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        placed = [assign[u] for u in g.neighbors(v) if assign[u] is not None]
        if placed:
            if placed[0] not in near:
                near[placed[0]] = [c for c in labels if len(c & placed[0]) == k - 1]
            cands = near[placed[0]] if i > 1 else near[placed[0]][:1]
        else:
            cands = labels if i else labels[:1]
        for cand in cands:
            if consistent(i, cand):
                assign[v] = cand
                if rec(i + 1):
                    return True
                assign[v] = None
        return False

    return rec(0)


def oracle_blocks(g: Graph) -> set[frozenset[int]]:
    """The blocks of g by brute force over its vertex subsets: the maximal
    sets whose induced graph is connected with no cut vertex, where v is a
    cut vertex when deleting it disconnects its component.  One edge and one
    isolated vertex qualify, as deleting a vertex of either leaves a
    connected graph.  Sets are scanned largest first, so a set is maximal
    exactly when no set kept before contains it."""

    def connected(s: int) -> bool:
        reached = frontier = s & -s
        while frontier:
            grown = 0
            for v in range(g.n):
                if frontier >> v & 1:
                    grown |= g.adj[v]
            frontier = grown & s & ~reached
            reached |= frontier
        return reached == s

    conn = [connected(s) for s in range(1 << g.n)]
    kept: list[int] = []
    for s in sorted(range(1, 1 << g.n), key=lambda s: -s.bit_count()):
        if (conn[s] and all(conn[s & ~(1 << v)] for v in range(g.n) if s >> v & 1)
                and not any(s & ~t == 0 for t in kept)):
            kept.append(s)
    return {frozenset(v for v in range(g.n) if s >> v & 1) for s in kept}


def oracle_minimum_k(g: Graph, k_limit: int) -> int | None:
    for k in range(1, k_limit + 1):
        if oracle_labelling_exists(g, k):
            return k
    return None


def reference_classification(graphs, budget) -> dict:
    """The classification JSON document, built with no shared cache and no
    short-circuit: decide_labellable runs on every graph, on every
    one-vertex deletion of an unlabellable one, and on every proper subset
    of a nonminimal one, smallest first."""

    def status(g: Graph) -> str:
        return decide_labellable(g, budget).status

    by_word = {write_graph6(g): g for g in graphs}
    verdicts = {}
    counts = dict.fromkeys(
        ["labellable", "minimally_unlabellable", "unlabellable_nonminimal", "undecided"], 0
    )
    for word in sorted(by_word):
        g = by_word[word]
        own = decide_labellable(g, budget)
        doc: dict = {"status": own.status, "k_bound": own.k_bound}
        if own.status == "labellable":
            doc["labelling"] = labelling_to_json(g, own.labelling)
        elif own.status == "unlabellable":
            deletions = {status(induced_subgraph(g, set(range(g.n)) - {v})) for v in range(g.n)}
            if "unlabellable" in deletions:
                witness = induced_subgraph(g, reference_witness(g, budget))
                doc["status"] = "unlabellable_nonminimal"
                doc["witness_graph6"] = canonical_form(witness).decode("ascii")
            elif "undecided" in deletions:
                doc["status"] = "undecided"
            else:
                doc["status"] = "minimally_unlabellable"
        verdicts[word] = doc
        counts[doc["status"]] += 1
    n_values = sorted({g.n for g in by_word.values()})
    params = {
        "k_max": budget.k_max,
        "node_limit": budget.node_limit,
        "n_values": n_values,
        "exploratory_n": [n for n in n_values if n >= 7],
    }
    return {"params": params, "verdicts": verdicts, "counts": counts}


def reference_witness(g: Graph, budget) -> tuple[int, ...] | None:
    """Among the smallest vertex subsets whose induced subgraphs are decided
    unlabellable, the lexicographically first of least canonical form;
    every proper subset is decided afresh, smallest first."""
    for size in range(1, g.n):
        hits = [
            (canonical_form(sub), subset)
            for subset in itertools.combinations(range(g.n), size)
            if decide_labellable(sub := induced_subgraph(g, subset), budget).status == "unlabellable"
        ]
        if hits:
            return min(hits)[1]
    return None


def oracle_equitable_colors(n: int, adj) -> list[int]:
    """Colour refinement from degrees: each round a vertex's signature is its
    colour and the sorted (colour, count) pairs of its neighbours, and the
    new colour is the signature's rank among the distinct signatures.  Runs
    until a round changes no colour."""
    colors = [bin(adj[v]).count("1") for v in range(n)]
    while True:
        sigs = []
        for v in range(n):
            nbr_colors = [colors[u] for u in range(n) if (adj[v] >> u) & 1]
            pairs = sorted((c, nbr_colors.count(c)) for c in set(nbr_colors))
            sigs.append((colors[v], tuple(pairs)))
        ranks = sorted(set(sigs))
        new = [ranks.index(s) for s in sigs]
        if new == colors:
            return colors
        colors = new


def oracle_canonical_word(n: int, adj) -> bytes:
    """The least graph6 word over every ordering that lists the vertices by
    ascending equitable colour, found by trying every such ordering."""
    colors = oracle_equitable_colors(n, adj)
    classes = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
    best = None
    for parts in itertools.product(*(itertools.permutations(cls) for cls in classes)):
        order = [v for part in parts for v in part]
        bits = [(adj[order[i]] >> order[j]) & 1 for j in range(1, n) for i in range(j)]
        if best is None or bits < best:
            best = bits
    best += [0] * (-len(best) % 6)
    chunks = [best[i : i + 6] for i in range(0, len(best), 6)]
    return bytes([63 + n] + [63 + int("".join(map(str, c)), 2) for c in chunks])


def graph6_edges(word: bytes) -> set[tuple[int, int]]:
    """The edges (i, j), i < j, of a short-form graph6 word, read bit by bit
    in graph6's column order (0,1),(0,2),(1,2),(0,3),..."""
    n = word[0] - 63
    bits = [(byte - 63) >> shift & 1 for byte in word[1:] for shift in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return {pair for pair, bit in zip(pairs, bits) if bit}


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_clutter(rng: random.Random, ground_size: int) -> Clutter:
    """Seeded random nonempty antichain of nonempty subsets of [1..ground_size].

    Samples a handful of subsets and keeps the inclusion-minimal ones.
    """
    if ground_size < 1:
        raise ValueError("ground size must be >= 1")
    count = rng.randint(1, max(2, 2 * ground_size))
    family: set[frozenset[int]] = set()
    for _ in range(count):
        size = rng.randint(1, ground_size)
        family.add(frozenset(rng.sample(range(1, ground_size + 1), size)))
    minimal = {s for s in family if not any(o < s for o in family)}
    return Clutter(ground_size, tuple(minimal))


def all_graphs_on(n: int):
    """Every labelled simple graph on n vertices (2^C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def triangle_type(a: frozenset, b: frozenset, c: frozenset, k: int) -> str | None:
    """Classify a labelled triangle: 'alpha' (pairwise swaps around a common
    (k-2)-core) or 'beta' (a common (k-1)-core with three distinct extras)."""
    core = a & b & c
    union = a | b | c
    if len(core) == k - 2 and len(union) == k + 1:
        return "alpha"
    if len(core) == k - 1 and len(union) == k + 2:
        return "beta"
    return None


def middle_label_candidates(end1, end2) -> list[frozenset[int]]:
    """The four labels an induced-path midpoint can take, given the two end
    labels (which must be equal-size sets meeting in k-2 elements)."""
    a, b = frozenset(end1), frozenset(end2)
    k = len(a)
    if len(b) != k:
        raise ValueError("end labels must have equal size")
    t = a & b
    if len(t) != k - 2:
        raise ValueError(
            f"end labels must intersect in k-2 = {k - 2} elements, got {len(t)}"
        )
    out = [t | {x, y} for x in sorted(a - t) for y in sorted(b - t)]
    return sorted((frozenset(s) for s in out), key=lambda s: tuple(sorted(s)))


def check_induced_path_middles(g: Graph, lab: Labelling) -> None:
    """Every induced-path midpoint's label must be one of the four candidate
    labels computed from the two end labels."""
    for mid in range(g.n):
        for a, b in itertools.combinations(g.neighbors(mid), 2):
            if g.has_edge(a, b):
                continue
            candidates = middle_label_candidates(lab.labels[a], lab.labels[b])
            assert lab.labels[mid] in set(candidates), (
                f"midpoint {g.names[mid]} of {g.names[a]}-{g.names[b]} outside candidates"
            )


def check_triangle_forms(g: Graph, lab: Labelling) -> None:
    """Every induced triangle matches exactly one of the two forms, and the
    two triangles of every induced diamond (K4 minus an edge) have distinct
    forms."""
    for tri in itertools.combinations(range(g.n), 3):
        a, b, c = tri
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            t = triangle_type(lab.labels[a], lab.labels[b], lab.labels[c], lab.k)
            assert t is not None, f"triangle {tri} fits neither form"
    for quad in itertools.combinations(range(g.n), 4):
        present = [(u, v) for u, v in itertools.combinations(quad, 2) if g.has_edge(u, v)]
        if len(present) != 5:
            continue
        missing = [
            (u, v) for u, v in itertools.combinations(quad, 2) if not g.has_edge(u, v)
        ][0]
        shared = [v for v in quad if v not in missing]
        t1 = triangle_type(
            lab.labels[missing[0]], lab.labels[shared[0]], lab.labels[shared[1]], lab.k
        )
        t2 = triangle_type(
            lab.labels[missing[1]], lab.labels[shared[0]], lab.labels[shared[1]], lab.k
        )
        assert {t1, t2} == {"alpha", "beta"}, f"diamond {quad} lacks one alpha and one beta"
