import hashlib
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gammagraphs import (
    Graph,
    WorkLimitExceeded,
    domination_number,
    is_distance_d_dominating,
    make_family,
    min_dominating_sets,
    parse_graph6,
    validate_clutter,
)
from gammagraphs.classify import enumerate_connected_graphs
from gammagraphs.domination import distance_balls, result_to_json
from gammagraphs.realizer import realize

from fixtures import domination_demo_graph
from helpers import all_pairs_distances, permute_graph, powerset_min_dominating, random_graph


def _as_name_sets(result, g):
    return sorted(tuple(sorted(int(g.names[v]) for v in s)) for s in result.min_sets)


class TestPredicates:
    def test_demo_graph_pair_dominates(self):
        g = domination_demo_graph()
        assert is_distance_d_dominating(g, {4, 5}, 1)  # vertices named 5 and 6

    def test_demo_graph_single_vertex_fails(self):
        g = domination_demo_graph()
        assert not is_distance_d_dominating(g, {0}, 1)  # vertex named 1

    def test_whole_vertex_set_dominates(self):
        for g in (make_family("cycle", 6), make_family("fan", 2, 3)):
            assert is_distance_d_dominating(g, range(g.n), 1)

    def test_empty_set_fails_on_nonempty_graph(self):
        assert not is_distance_d_dominating(make_family("path", 2), set(), 1)

    def test_bad_arguments(self):
        g = make_family("path", 3)
        with pytest.raises(ValueError):
            is_distance_d_dominating(g, {5}, 1)
        with pytest.raises(ValueError):
            is_distance_d_dominating(g, {0}, 0)


class TestDistanceBalls:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_match_all_pairs_distances(self, d):
        rng = random.Random(d)
        graphs = [
            Graph.from_edges(0, []),
            Graph.from_edges(4, []),
            Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (5, 6)]),
            make_family("path", 12),
            make_family("cycle", 9),
        ]
        graphs += [random_graph(rng, rng.randint(1, 14), p) for p in (0.1, 0.25, 0.5) for _ in range(10)]
        for g in graphs:
            dm = all_pairs_distances(g)
            expected = [
                sum(1 << u for u in range(g.n) if dm.dist(v, u) is not None and dm.dist(v, u) <= d)
                for v in range(g.n)
            ]
            assert distance_balls(g, d) == expected

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_wide_graphs_match_all_pairs_distances(self, d):
        """Graphs above the 64-vertex renumbering bound, whose masks span
        several digits: realized graphs, seeded sparse ones on 65-200
        vertices with scattered numbering (one of them disconnected), and
        one at a radius past its diameter, where the levels stop early."""
        rng = random.Random(35 + d)
        lines = validate_clutter(9, [{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 4, 7}, {2, 5, 8}, {3, 6, 9}])
        cases = [(realize(lines, d).graph, d)]
        if d == 4:
            fours = validate_clutter(8, [{1, 2, 3, 4}, {5, 6, 7, 8}, {1, 3, 5, 7}, {2, 4, 6, 8}, {1, 2, 5, 6}])
            cases.append((realize(fours, d).graph, d))
        for cut in (0, 40):
            n = rng.randint(65, 200)
            # a random tree, cut into components at every multiple of `cut`
            edges = [(rng.randrange(v), v) for v in range(1, n) if not cut or v % cut]
            edges += [tuple(rng.sample(range(n), 2)) for _ in range(n // 10)]
            perm = list(range(n))
            rng.shuffle(perm)
            cases.append((permute_graph(Graph.from_edges(n, edges), perm), d))
        tree = cases[-2][0]
        tree_distances = all_pairs_distances(tree)
        cases.append((tree, max(map(tree_distances.eccentricity, range(tree.n))) + 2))
        for g, radius in cases:
            assert g.n > 64
            dm = all_pairs_distances(g)
            expected = [
                sum(1 << u for u in range(g.n) if dm.dist(v, u) is not None and dm.dist(v, u) <= radius)
                for v in range(g.n)
            ]
            assert distance_balls(g, radius) == expected

    def test_d_below_one_rejected(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            distance_balls(make_family("path", 3), 0)


class TestDemoGraphFamilies:
    def test_gamma1(self):
        g = domination_demo_graph()
        assert domination_number(g, 1) == 2
        result = min_dominating_sets(g, 1)
        assert _as_name_sets(result, g) == [(1, 5), (2, 5), (3, 6), (4, 6), (5, 6)]

    def test_gamma2(self):
        g = domination_demo_graph()
        assert domination_number(g, 2) == 1
        result = min_dominating_sets(g, 2)
        assert _as_name_sets(result, g) == [(2,), (3,), (5,), (6,), (7,)]

    def test_complete_graph(self):
        k4 = make_family("complete", 4)
        assert domination_number(k4, 1) == 1
        assert len(min_dominating_sets(k4, 1).min_sets) == 4


class TestOracleAgreement:
    def test_exhaustive_small_graphs(self):
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                for d in (1, 2, 3):
                    gamma, sets = powerset_min_dominating(g, d)
                    result = min_dominating_sets(g, d)
                    assert result.gamma == gamma
                    assert list(result.min_sets) == sorted(sets, key=sorted)

    def test_random_larger_graphs(self):
        rng = random.Random(20240817)
        for n in (7, 8):
            for _ in range(25):
                g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
                for d in (1, 2, 3):
                    gamma, sets = powerset_min_dominating(g, d)
                    result = min_dominating_sets(g, d)
                    assert (result.gamma, list(result.min_sets)) == (gamma, sorted(sets, key=sorted))

    def test_disconnected_graph(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        gamma, sets = powerset_min_dominating(g, 1)
        result = min_dominating_sets(g, 1)
        assert (result.gamma, list(result.min_sets)) == (gamma, sorted(sets, key=sorted))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(1, 9), st.integers(1, 4), st.data())
    def test_hypothesis_graphs(self, n, d, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        g = Graph.from_edges(n, edges)
        gamma, sets = powerset_min_dominating(g, d)
        result = min_dominating_sets(g, d)
        assert (result.gamma, list(result.min_sets)) == (gamma, sorted(sets, key=sorted))
        # the JSON output relies on this order
        as_tuples = [tuple(sorted(s)) for s in result.min_sets]
        assert as_tuples == sorted(as_tuples)

    def test_sparse_graphs_with_deep_last_picks(self):
        # gamma 4-7 puts the one-pick-left nodes, whose covers are settled
        # without children, three to six picks deep
        rng = random.Random(23)
        wanted = {1: 30, 2: 10}
        found = {1: [], 2: []}
        while any(len(found[d]) < wanted[d] for d in wanted):
            g = _sparse_graph(rng, rng.randint(10, 14))
            for d, kept in found.items():
                if len(kept) == wanted[d]:
                    continue
                gamma, sets = powerset_min_dominating(g, d)
                if 4 <= gamma <= 7:
                    result = min_dominating_sets(g, d)
                    assert (result.gamma, set(result.min_sets)) == (gamma, sets)
                    assert len(result.min_sets) == len(sets)
                    kept.append(gamma)
        assert set(found[1]) == {4, 5, 6} and set(found[2]) == {4}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sparse_graphs_with_two_picks_left(self, d):
        # gamma >= 3 on 9-12 vertices puts many nodes below the root at two
        # picks left, where the search branches on the non-forbidden
        # dominators of the undominated vertex with the smallest ball instead
        # of making the packing pass; each minimum set must come out once
        rng = random.Random(40 + d)
        kept = 0
        while kept < 25:
            g = _sparse_graph(rng, rng.randint(9, 12))
            gamma, sets = powerset_min_dominating(g, d)
            if gamma < 3:
                continue
            result = min_dominating_sets(g, d)
            assert (result.gamma, list(result.min_sets)) == (gamma, sorted(sets, key=sorted))
            kept += 1


def _sparse_graph(rng, n):
    """A relabelled graph on n >= 9 vertices whose one to three components
    are random trees (paths of 1-4 new vertices hung from a placed vertex)
    and cycles with a chord or two."""
    edges = set()
    start = 0
    parts = rng.randint(1, 3)
    while start < n:
        size = n - start if parts == 1 else rng.randint(3, n - start - 3 * (parts - 1))
        parts -= 1
        if rng.random() < 0.5:
            v = 1
            while v < size:
                end = rng.randrange(v)
                for _ in range(min(rng.randint(1, 4), size - v)):
                    edges.add((start + end, start + v))
                    end, v = v, v + 1
        else:
            edges.update((start + v, start + (v + 1) % size) for v in range(size))
            for _ in range(rng.randint(1, 2)):
                u, v = rng.sample(range(start, start + size), 2)
                if (u, v) not in edges and (v, u) not in edges:
                    edges.add((u, v))
        start += size
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return permute_graph(g, perm)


class TestClosedForms:
    @pytest.mark.parametrize("family", ["path", "cycle"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_paths_and_cycles(self, family, d):
        for n in (3, 7, 12, 20, 31):
            g = make_family(family, n)
            assert domination_number(g, d) == math.ceil(n / (2 * d + 1))

    def test_relabelled_cycle_forty_distance_two(self):
        # the five tilings of the cycle by 5-vertex balls
        g = _relabelled(make_family("cycle", 40), 7)
        result = min_dominating_sets(g, 2, node_limit=5_000_000)
        assert result.gamma == 8 and len(result.min_sets) == 5
        _assert_distinct_sorted_dominating(g, 2, result)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [4, 5, 6, 7])
    def test_relabelled_cycle_tilings(self, d, gamma):
        # a cycle of length (2d + 1) * gamma is tiled by d-balls in exactly
        # 2d + 1 ways, the residue classes, which partition its vertices
        n = (2 * d + 1) * gamma
        result = min_dominating_sets(_relabelled(make_family("cycle", n), n), d)
        assert result.gamma == gamma and len(result.min_sets) == 2 * d + 1
        assert sum(map(len, result.min_sets)) == n
        assert frozenset().union(*result.min_sets) == frozenset(range(n))

    def test_relabelled_hypercube_five(self):
        g = _relabelled(make_family("hypercube", 5), 11)
        result = min_dominating_sets(g, 1)
        assert result.gamma == 7 and len(result.min_sets) == 320
        _assert_distinct_sorted_dominating(g, 1, result)


def _assert_distinct_sorted_dominating(g, d, result):
    """Each set has gamma members and dominates by breadth-first distances,
    no set repeats, and the sets are in lexicographic order."""
    dm = all_pairs_distances(g)
    as_tuples = [tuple(sorted(s)) for s in result.min_sets]
    for members in as_tuples:
        assert len(members) == result.gamma
        for v in range(g.n):
            assert any(dm.dist(u, v) is not None and dm.dist(u, v) <= d for u in members)
    assert len(set(as_tuples)) == len(as_tuples)
    assert as_tuples == sorted(as_tuples)


def test_search_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 50
    result = min_dominating_sets(Graph.from_edges(n, []), 1)
    assert result.gamma == n and result.min_sets == (frozenset(range(n)),)


class TestInvariants:
    def test_monotone_in_d(self):
        for g in enumerate_connected_graphs(6)[::7]:
            gammas = [domination_number(g, d) for d in (1, 2, 3)]
            assert gammas[0] >= gammas[1] >= gammas[2]

    def test_gamma_one_iff_small_eccentricity(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                dm = all_pairs_distances(g)
                for d in (1, 2):
                    has_center = any(
                        (e := dm.eccentricity(v)) is not None and e <= d for v in range(g.n)
                    )
                    assert (domination_number(g, d) == 1) == has_center

    def test_all_min_sets_same_size_and_dominate(self):
        for g in enumerate_connected_graphs(5):
            result = min_dominating_sets(g, 1)
            for s in result.min_sets:
                assert len(s) == result.gamma
                assert is_distance_d_dominating(g, s, 1)


def test_empty_graph_rejected():
    empty = Graph.from_edges(0, [])
    with pytest.raises(ValueError):
        domination_number(empty, 1)
    with pytest.raises(ValueError):
        min_dominating_sets(empty, 1)


def test_work_limit_reported():
    g = make_family("prism", 6)
    with pytest.raises(WorkLimitExceeded) as exc:
        min_dominating_sets(g, 1, node_limit=5)
    assert exc.value.examined > 5


def test_work_limit_counts_search_nodes():
    # the search starts at the root packing bound, 3 on the 9-cycle, and
    # visits 10 nodes, each counted once: the root, its 3 branches and their
    # 6 branches, which have one pick left and settle their covers without
    # children
    g = make_family("cycle", 9)
    result = min_dominating_sets(g, 1, node_limit=10)
    assert result.gamma == 3 and len(result.min_sets) == 3
    with pytest.raises(WorkLimitExceeded, match="work limit") as exc:
        min_dominating_sets(g, 1, node_limit=9)
    assert exc.value.examined == 10


def test_sizes_start_at_the_root_packing_bound():
    # every vertex of an edgeless graph needs itself, so the root bound is n:
    # one search at size n, a root and a chain of n - 1 nodes whose last one
    # closes its last pick, and no root visit at the sizes below
    g = Graph.from_edges(1050, [])
    result = min_dominating_sets(g, 1, node_limit=1050)
    assert result.gamma == 1050 and len(result.min_sets) == 1
    with pytest.raises(WorkLimitExceeded) as exc:
        min_dominating_sets(g, 1, node_limit=1049)
    assert exc.value.examined == 1050


@pytest.mark.parametrize(
    "g, d, nodes, gamma, sets",
    [
        # before the volume prune the packing bound alone took 2,960 and
        # 2,554 nodes on these two searches; searched in the relabelled
        # numbering rather than breadth first they took 211 and 283
        pytest.param(_relabelled(make_family("cycle", 42), 7), 3, 183, 6, 7, id="42-3-183"),
        pytest.param(_relabelled(make_family("cycle", 40), 7), 2, 146, 8, 5, id="40-2-146"),
        # the CI's relabelled hypercube(5): 6,686 of its 9,098 nodes are
        # children that a node with two picks left settles in place, and each
        # counts as one node whether or not its volume test passes
        pytest.param(
            parse_graph6(
                "_CGY?CaA???@@E?C?B?_M_?D@DdC??aGAA?@EOO_R@?GCC?GC?"
                "@?A?@?`?H??COE?G?GX?@IAA?GPADG???o"
            ),
            1,
            9098,
            7,
            320,
            id="cube5-1-9098",
        ),
    ],
)
def test_volume_prune_node_counts(g, d, nodes, gamma, sets):
    result = min_dominating_sets(g, d, node_limit=nodes)
    assert result.gamma == gamma and len(result.min_sets) == sets
    with pytest.raises(WorkLimitExceeded) as exc:
        min_dominating_sets(g, d, node_limit=nodes - 1)
    assert exc.value.examined == nodes


def _grid(rows, cols):
    edges = [(cols * r + c, cols * r + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(cols * r + c, cols * r + c + cols) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


@pytest.mark.parametrize(
    "g, d",
    [
        (_grid(4, 8), 1),
        (make_family("cycle", 34), 2),
        (make_family("hypercube", 4), 1),
        # above the 64 vertices up to which the search renumbers its input
        (_relabelled(make_family("cycle", 70), 3), 2),
    ],
    ids=["grid4x8", "cycle34", "hypercube4", "cycle70"],
)
def test_sets_follow_a_relabelling(g, d):
    # the search runs in its own breadth-first numbering and maps each cover
    # back, so relabelling the input relabels the sets and nothing else
    base = min_dominating_sets(g, d)
    for seed in range(3):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        new = [0] * g.n
        for i, v in enumerate(perm):
            new[v] = i
        result = min_dominating_sets(permute_graph(g, perm), d)
        assert result.gamma == base.gamma
        expected = sorted((frozenset(new[v] for v in s) for s in base.min_sets), key=sorted)
        assert result.min_sets == tuple(expected)


def _search_nodes(g, d):
    """The nodes one search visits: the least node limit it finishes under."""
    low, high = 0, 1
    while True:
        try:
            min_dominating_sets(g, d, node_limit=high)
            break
        except WorkLimitExceeded:
            low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            min_dominating_sets(g, d, node_limit=mid)
            high = mid
        except WorkLimitExceeded:
            low = mid
    return high


def test_node_counts_pinned_up_to_six_vertices():
    # every connected graph with n <= 6 at d = 1, 2 (286 searches); when
    # pinned, each count was checked against a search that tried every size
    # from 1 and visited the nodes with no pick left: it is that count less
    # one root visit per size below the root bound and less those visits
    counts = tuple(
        _search_nodes(g, d) for n in range(1, 7) for g in enumerate_connected_graphs(n) for d in (1, 2)
    )
    assert sum(counts) == 567
    digest = hashlib.sha256(repr(counts).encode()).hexdigest()
    assert digest == "14376fb8b16c672db1f0c2565b2bab8d33b8b962ec1fb71aae6240f4d259a874"


def test_seven_by_seven_grid_within_a_small_budget():
    # branching on the fewest remaining dominators settles the grid in a few
    # thousand nodes; the lowest uncovered vertex needed over 100,000
    edges = [(7 * r + c, 7 * r + c + 1) for r in range(7) for c in range(6)]
    edges += [(7 * r + c, 7 * r + c + 7) for r in range(6) for c in range(7)]
    result = min_dominating_sets(Graph.from_edges(49, edges), 1, node_limit=10_000)
    assert result.gamma == 12 and len(result.min_sets) == 2


@pytest.mark.parametrize("limit", [0, -5])
def test_work_limit_below_one_rejected(limit):
    g = domination_demo_graph()
    with pytest.raises(ValueError, match="node_limit"):
        min_dominating_sets(g, 1, node_limit=limit)
    with pytest.raises(ValueError, match="node_limit"):
        domination_number(g, 1, node_limit=limit)


def test_json_rendering_sorted_by_name():
    g = domination_demo_graph()
    doc = result_to_json(g, min_dominating_sets(g, 1))
    assert doc == {
        "d": 1,
        "gamma": 2,
        "min_sets": [["1", "5"], ["2", "5"], ["3", "6"], ["4", "6"], ["5", "6"]],
    }
    # lexicographic by name, not numeric: "10" sorts before "2"
    p11 = make_family("path", 11)
    doc = result_to_json(p11, min_dominating_sets(p11, 2))
    for s in doc["min_sets"]:
        assert s == sorted(s)
    assert doc["min_sets"] == sorted(doc["min_sets"])
