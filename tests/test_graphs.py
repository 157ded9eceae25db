import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gammagraphs import (
    Graph,
    GraphFormatError,
    UnsupportedSizeError,
    are_isomorphic,
    canonical_form,
    cartesian_product,
    induced_subgraph,
    make_family,
    parse_graph6,
    write_graph6,
)
from gammagraphs.classify import _connected_words
from gammagraphs.graphs import (
    _canonical_search,
    _equitable_colors,
    _induced_masks,
    _masks_valid,
    canonical_word,
    graph6_order,
    read_graph6_lines,
)

from fixtures import domination_demo_graph
from helpers import (
    all_graphs_on,
    all_pairs_distances,
    first_adjacency_fault,
    graph6_edges,
    oracle_canonical_word,
    oracle_equitable_colors,
    permute_graph,
    random_graph,
)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError, match="pairwise distinct"):
        Graph(2, (0, 0), ("a", "a"))
    with pytest.raises(ValueError, match=r"edge \(0,2\) out of range"):
        Graph.from_edges(2, [(0, 2)])


@pytest.mark.parametrize("n, adj, message", [
    (2, (0b100, 0b000), "adjacency mask of vertex 0 leaves the vertex range"),
    (1, (0b1,), "self-loop at vertex 0"),
    (3, (0b000, 0b010, 0b000), "self-loop at vertex 1"),
    (2, (0b10, 0b00), "adjacency is not symmetric at (0,1)"),
    # two asymmetries each: the first in vertex order is named, whether the
    # vertex lists a neighbour above it or below it
    (4, (0b0000, 0b0100, 0b0000, 0b0010), "adjacency is not symmetric at (1,2)"),
    (4, (0b0000, 0b0001, 0b1000, 0b0000), "adjacency is not symmetric at (1,0)"),
    (4, (0b0000, 0b1000, 0b0001, 0b0000), "adjacency is not symmetric at (1,3)"),
    # every listed neighbour lies below, so only the bit totals differ
    (3, (0b000, 0b001, 0b001), "adjacency is not symmetric at (1,0)"),
])
def test_invalid_masks_name_first_fault(n, adj, message):
    assert first_adjacency_fault(n, adj) == message
    with pytest.raises(ValueError) as err:
        Graph(n, adj, tuple(str(v) for v in range(n)))
    assert str(err.value) == message


def test_edges_listed_in_ascending_order():
    """Seeded graphs up to 320 vertices, so that rows span several digits:
    each edge once as (v, u) with v < u, in ascending order."""
    rng = random.Random(36)
    for n, p in [(0, 0.5), (1, 0.5), (2, 1.0), (9, 0.5), (50, 0.1), (200, 0.1), (320, 0.1), (200, 0.5), (70, 0.95)]:
        g = random_graph(rng, n, p)
        assert g.edges() == [(v, u) for v in range(n) for u in range(v + 1, n) if g.has_edge(v, u)]


def test_mask_checks_match_pairwise_scan():
    """Seeded masks, half of them with flipped bits: Graph accepts exactly
    the symmetric loop-free masks and names the first fault in vertex order."""
    rng = random.Random(7)
    for trial in range(2000):
        n = rng.randint(1, 8)
        adj = list(random_graph(rng, n, rng.random()).adj)
        if trial % 2:
            for _ in range(rng.randint(1, 3)):
                adj[rng.randrange(n)] ^= 1 << rng.randrange(n + (trial % 10 == 1))
        expected = first_adjacency_fault(n, adj)
        if expected is None:
            Graph(n, tuple(adj), tuple(str(v) for v in range(n)))
        else:
            with pytest.raises(ValueError) as err:
                Graph(n, tuple(adj), tuple(str(v) for v in range(n)))
            assert str(err.value) == expected


def test_mask_checks_on_wide_and_negative_masks():
    """Seeded masks on 65-300 vertices, so each spans several digits: the
    mask check and Graph accept exactly the symmetric loop-free masks, and
    Graph names the first fault in vertex order.  The faults are a bit
    flipped above the diagonal with another flipped below it (equal totals,
    so only the walk can catch them), a bit at exactly n, a bit far above
    n, and negative masks, some of them no wider than n bits."""
    rng = random.Random(35)
    accepted = out_of_range = asymmetric = 0
    for trial in range(48):
        n = rng.randint(65, 300)
        adj = list(random_graph(rng, n, rng.choice([0.02, 0.1, 0.5])).adj)
        v = rng.randrange(n)
        kind = trial % 6
        if kind == 1 or (kind > 1 and trial % 12 > 6):
            u, w = sorted(rng.sample(range(n), 2))
            x, y = sorted(rng.sample(range(n), 2))
            adj[u] ^= 1 << w
            adj[y] ^= 1 << x
        if kind == 2:
            adj[v] |= 1 << n
        elif kind == 3:
            adj[v] |= 1 << rng.randint(n + 64, 4 * n)
        elif kind == 4:
            # negative, with the same n low bits: no wider than n bits
            adj[v] -= 1 << n
        elif kind == 5:
            adj[v] = -adj[v] or -2
        expected = first_adjacency_fault(n, adj)
        # the one-pass check alone decides validity, before any error is named
        assert _masks_valid(n, tuple(adj)) is (expected is None)
        if expected is None:
            Graph(n, tuple(adj), tuple(str(v) for v in range(n)))
            accepted += 1
        else:
            with pytest.raises(ValueError) as err:
                Graph(n, tuple(adj), tuple(str(v) for v in range(n)))
            assert str(err.value) == expected
            out_of_range += expected.endswith("leaves the vertex range")
            asymmetric += expected.startswith("adjacency is not symmetric")
    assert accepted and out_of_range and asymmetric


class TestGraph6:
    def test_known_words(self):
        assert write_graph6(make_family("complete", 1)) == "@"
        assert write_graph6(make_family("complete", 2)) == "A_"
        assert write_graph6(make_family("complete", 3)) == "Bw"
        assert parse_graph6("@").n == 1
        assert parse_graph6("A_").edges() == [(0, 1)]
        assert parse_graph6("Bw").edges() == [(0, 1), (0, 2), (1, 2)]

    def test_default_names(self):
        g = parse_graph6("Bw")
        assert g.names == ("1", "2", "3")

    def test_default_names_shared(self):
        # every default-named graph of one order holds the same names tuple
        assert parse_graph6("Bw").names is parse_graph6("BW").names is make_family("path", 3).names
        assert parse_graph6("Bw").names is not parse_graph6("C~").names

    def test_trailing_newline_tolerated(self):
        assert parse_graph6("Bw\n").adj == parse_graph6("Bw").adj

    def test_bad_character_offset(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph6("B\x20")
        assert exc.value.offset == 1

    def test_trailing_garbage_offset(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph6("Bww")
        assert exc.value.offset == 2

    def test_truncated(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph6("B")
        assert exc.value.offset == len("B")

    @pytest.mark.parametrize(
        "word, message, offset",
        [
            ("", "empty graph6 word", 0),
            ("\n", "empty graph6 word", 0),
            ("B ", "character ' ' outside graph6 range", 1),
            ("~??", "long-form graph6 (n > 62) is not supported", 0),
            ("B", "graph6 word for n=3 needs 1 data bytes, got 0", 1),
            ("E??", "graph6 word for n=6 needs 3 data bytes, got 2", 3),
            ("Bww", "trailing garbage after graph6 data", 2),
            # n = 2 leaves five padding bits, n = 5 two and n = 6 three, all
            # in the last byte
            ("A`", "nonzero padding bits", 1),
            ("A`\n", "nonzero padding bits", 1),
            ("D~@", "nonzero padding bits", 2),
            ("E~~D", "nonzero padding bits", 3),
        ],
    )
    def test_format_errors_pinned(self, word, message, offset):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph6(word)
        assert (exc.value.message, exc.value.offset) == (message, offset)
        assert str(exc.value) == f"{message} (byte offset {offset})"

    def test_file_errors_name_the_line(self):
        with pytest.raises(GraphFormatError) as exc:
            read_graph6_lines("Bw\n\n  A`  \nA_\n")
        assert exc.value.offset == 1
        assert str(exc.value) == "line 3: nonzero padding bits (byte offset 1)"

    def test_long_form_rejected(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph6("~??")
        assert exc.value.offset == 0

    def test_oversize_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            write_graph6(make_family("path", 63))

    def test_boundary_size_roundtrip(self):
        g = make_family("path", 62)
        assert parse_graph6(write_graph6(g)).adj == g.adj

    def test_enumerated_words_roundtrip(self):
        for n in range(1, 8):
            for word in _connected_words(n)[0]:
                assert write_graph6(parse_graph6(word)) == word

    def test_order_matches_parse(self):
        rng = random.Random(3)
        for n in range(63):
            word = write_graph6(random_graph(rng, n, 0.5))
            assert graph6_order(word) == graph6_order(word.encode("ascii")) == parse_graph6(word).n

    def test_roundtrip_exhaustive_small(self):
        for n in range(5):
            for g in all_graphs_on(n):
                assert parse_graph6(write_graph6(g)).adj == g.adj

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_roundtrip_random(self, data):
        n = data.draw(st.integers(0, 10))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        g = Graph.from_edges(n, chosen)
        assert parse_graph6(write_graph6(g)).adj == g.adj


class TestDistances:
    def test_demo_graph_pair(self):
        dm = all_pairs_distances(domination_demo_graph())
        assert dm.dist(0, 3) == 3  # vertices named 1 and 4

    def test_diagonal_zero(self):
        dm = all_pairs_distances(make_family("cycle", 6))
        assert all(dm.dist(v, v) == 0 for v in range(6))

    def test_complete_graph(self):
        dm = all_pairs_distances(make_family("complete", 5))
        assert all(dm.dist(u, v) == 1 for u in range(5) for v in range(5) if u != v)

    def test_unreachable(self):
        g = Graph.from_edges(3, [(0, 1)])
        dm = all_pairs_distances(g)
        assert dm.dist(0, 2) is None
        assert dm.eccentricity(0) is None

    def test_symmetry_and_triangle_inequality_on_families(self):
        instances = [
            make_family("wheel", 7),
            make_family("fan", 2, 4),
            make_family("prism", 4),
            make_family("hypercube", 3),
            make_family("path", 6),
        ]
        for g in instances:
            dm = all_pairs_distances(g)
            for u in range(g.n):
                for v in range(g.n):
                    assert dm.dist(u, v) == dm.dist(v, u)
                    for w in range(g.n):
                        assert dm.dist(u, w) <= dm.dist(u, v) + dm.dist(v, w)


class TestInducedSubgraph:
    def test_two_unrealisable_demo_contains_k23(self):
        # six-vertex graph whose unique degree-1 vertex hides a K_{2,3}
        g = Graph.from_edges(6, [(5, 3), (3, 0), (0, 1), (1, 4), (4, 3), (1, 2), (2, 3)])
        sub = induced_subgraph(g, [v for v in range(6) if g.degree(v) > 1])
        assert are_isomorphic(sub, make_family("complete_bipartite", 2, 3))

    def test_identity_and_empty(self):
        g = make_family("wheel", 5)
        assert induced_subgraph(g, range(5)).adj == g.adj
        assert induced_subgraph(g, []).n == 0

    def test_names_preserved(self):
        g = make_family("path", 4)
        sub = induced_subgraph(g, [1, 3])
        assert sub.names == ("2", "4")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(make_family("path", 3), [0, 5])

    @pytest.mark.parametrize("shape", ["permutation", "unsorted subset", "one vertex", "empty"])
    def test_induced_masks_match_edge_set(self, shape):
        rng = random.Random(f"induced masks {shape}")
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            vertices = rng.sample(range(g.n), g.n)
            if shape == "unsorted subset":
                vertices = vertices[: rng.randint(0, g.n)]
            elif shape == "one vertex":
                vertices = vertices[:1]
            elif shape == "empty":
                vertices = []
            edges = {frozenset(e) for e in g.edges()}
            expected = tuple(
                sum(1 << j for j, u in enumerate(vertices) if frozenset((u, v)) in edges)
                for v in vertices
            )
            assert _induced_masks(g.adj, vertices) == expected


class TestCanonicalForm:
    def test_c4_equals_k22(self):
        assert canonical_form(make_family("cycle", 4)) == canonical_form(
            make_family("complete_bipartite", 2, 2)
        )

    def test_p3_differs_from_k3(self):
        assert canonical_form(make_family("path", 3)) != canonical_form(
            make_family("complete", 3)
        )

    def test_permuted_demo_graph(self):
        g = domination_demo_graph()
        rng = random.Random(7)
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(permute_graph(g, perm)) == canonical_form(g)

    def test_permutation_invariance_exhaustive_small(self):
        for n in range(1, 5):
            for g in all_graphs_on(n):
                base = canonical_form(g)
                for perm in itertools.permutations(range(n)):
                    assert canonical_form(permute_graph(g, perm)) == base

    def test_partition_matches_brute_force_isomorphism(self):
        # equal forms iff isomorphic, checked against minimization over all
        # permutations for every graph on up to five vertices
        def brute(g):
            best = None
            for perm in itertools.permutations(range(g.n)):
                bits = tuple(
                    (g.adj[perm[i]] >> perm[j]) & 1 for j in range(1, g.n) for i in range(j)
                )
                if best is None or bits < best:
                    best = bits
            return (g.n, best)

        for n in range(6):
            by_mine: dict[bytes, object] = {}
            by_brute: dict[object, bytes] = {}
            for g in all_graphs_on(n):
                mine, ref = canonical_form(g), brute(g)
                assert by_mine.setdefault(mine, ref) == ref
                assert by_brute.setdefault(ref, mine) == mine

    def test_permutation_invariance_randomized(self):
        rng = random.Random(99)
        for n in (6, 7):
            for _ in range(25):
                g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
                base = canonical_form(g)
                for _ in range(10):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert canonical_form(permute_graph(g, perm)) == base

    def test_distinguishes_random_nonisomorphic(self):
        # different degree sequences certainly differ
        a = make_family("path", 5)
        b = make_family("cycle", 5)
        assert canonical_form(a) != canonical_form(b)

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            canonical_form(make_family("path", 17))
        canonical_form(make_family("path", 16))  # boundary accepted

    def test_word_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            canonical_word(17, make_family("path", 17).adj)
        assert canonical_word(16, make_family("path", 16).adj) == canonical_form(
            make_family("path", 16)
        )

    def test_matches_oracle_on_every_small_graph(self):
        for n in range(6):
            for g in all_graphs_on(n):
                word = canonical_word(g.n, g.adj)
                assert word == oracle_canonical_word(g.n, g.adj), write_graph6(g)

    def test_matches_oracle_on_random_graphs(self):
        # p = 0.05 and p = 0.95 give large classes of twins
        rng = random.Random(12)
        for i in range(200):
            g = random_graph(rng, rng.randint(1, 7), (0.05, 0.5, 0.95)[i % 3])
            word = canonical_word(g.n, g.adj)
            assert word == oracle_canonical_word(g.n, g.adj), write_graph6(g)

    def test_colors_match_oracle(self):
        # up to 16 vertices at densities up to 0.95; in the star and the
        # complete graph on 16 vertices a vertex has 15 neighbours in one
        # class, the largest refinement digit CANONICAL_FORM_MAX_VERTICES allows
        rng = random.Random(13)
        graphs = [
            Graph(0, (), ()),
            make_family("complete", 16),
            make_family("complete_bipartite", 1, 15),
        ]
        graphs += [
            random_graph(rng, rng.randint(1, 16), (0.1, 0.3, 0.5, 0.7, 0.95)[i % 5])
            for i in range(200)
        ]
        for g in graphs:
            colors = _equitable_colors(g.adj)
            assert list(colors) == oracle_equitable_colors(g.n, g.adj), write_graph6(g)

    @pytest.mark.parametrize(
        "n, digest",
        [
            (5, "8603257cf7173719f15b0608a48fa9c8797ec365db43dd44b0e6920b090e0721"),
            (6, "8cf963075d0f75792efef5dcf67c4f76b9a30a1205b64f17d6a3819fefac7324"),
            (7, "208ef45fb231d9d87a5aacc9b4b69f461c2601d8752fe96829d763c5a219ffd8"),
        ],
    )
    def test_enumerated_words_pinned(self, n, digest):
        words = "\n".join(_connected_words(n)[0]).encode("ascii")
        assert hashlib.sha256(words).hexdigest() == digest

    def test_recorded_automorphisms_fix_the_canonical_graph(self):
        # each permutation the search records maps the canonical graph onto
        # itself; the edges are read from the word's bits, not by the package
        rng = random.Random(36)
        graphs = [
            random_graph(rng, rng.randint(1, 10), (0.05, 0.3, 0.5, 0.7, 0.95)[i % 5])
            for i in range(300)
        ]
        families = [("cycle", 8), ("prism", 4), ("wheel", 7), ("complete_bipartite", 3, 3), ("hypercube", 3)]
        for spec in families:
            g = make_family(*spec)
            graphs.append(permute_graph(g, rng.sample(range(g.n), g.n)))
        recorded = 0
        for g in graphs:
            word, automorphisms = _canonical_search(g.n, g.adj)
            if g.n <= 6:
                assert word == oracle_canonical_word(g.n, g.adj)
            edges = graph6_edges(word)
            identity = tuple(range(g.n))
            assert len(set(automorphisms)) == len(automorphisms) and identity not in automorphisms
            for perm in automorphisms:
                assert sorted(perm) == list(identity)
                assert {tuple(sorted((perm[i], perm[j]))) for i, j in edges} == edges, (write_graph6(g), perm)
            recorded += len(automorphisms)
        assert recorded > 100

    @pytest.mark.parametrize(
        "g, ties",
        [
            (make_family("cycle", 8), 15),
            (parse_graph6("IheA@GUAo"), 119),
            (make_family("path", 5), 1),
            (make_family("complete", 5), 0),
        ],
        ids=["C8", "petersen", "P5", "K5"],
    )
    def test_every_tie_is_recorded(self, g, ties):
        # with no twins every automorphism gives a tie: the cycle's 16 and
        # the Petersen graph's 120 less the best ordering itself, the
        # path's reversal; K5 is one twin class, so one ordering is met
        rng = random.Random(37)
        for _ in range(3):
            h = permute_graph(g, rng.sample(range(g.n), g.n))
            assert len(_canonical_search(h.n, h.adj)[1]) == ties

    @pytest.mark.parametrize(
        "g",
        [
            make_family("complete", 16),
            Graph.from_edges(16, []),
            make_family("complete_bipartite", 15, 1),
        ],
        ids=["K16", "edgeless16", "K15_1"],
    )
    def test_twin_classes_are_ordered_once(self, g):
        # every vertex of these graphs is a twin of all others of its
        # colour, so the search visits one ordering, not up to 16!
        start = time.perf_counter()
        word = canonical_word.__wrapped__(g.n, g.adj)
        assert time.perf_counter() - start < 0.1
        assert word == write_graph6(g).encode("ascii")

    @pytest.mark.parametrize(
        "family, size, word",
        [("cycle", 10, b"I??XQa_o?"), ("cycle", 12, b"K???WggSD?W?"), ("prism", 6, b"K???xXSiE_[?")],
    )
    def test_twin_free_symmetric_forms_pinned(self, family, size, word):
        # vertex-transitive and twin-free: one colour class, no twin pruning
        assert canonical_form(make_family(family, size)) == word


class TestFamilies:
    def test_wheel_counts(self):
        for n in range(4, 12):
            w = make_family("wheel", n)
            assert (w.n, w.edge_count) == (n, 2 * (n - 1))

    def test_fan_counts(self):
        for m in range(1, 5):
            for n in range(1, 5):
                f = make_family("fan", m, n)
                assert (f.n, f.edge_count) == (m + n, m * n + (n - 1))

    def test_wheel4_is_k4(self):
        assert are_isomorphic(make_family("wheel", 4), make_family("complete", 4))

    def test_hypercube2_is_c4(self):
        assert are_isomorphic(make_family("hypercube", 2), make_family("cycle", 4))

    def test_fan32_is_join_of_three_to_edge(self):
        f = make_family("fan", 3, 2)
        assert f.n == 5 and f.edge_count == 7
        # spine vertices 1,2 joined to each other and to every apex
        assert f.degree(0) == f.degree(1) == 4
        # matches the five-vertex graph drawn with an edge joined to three points
        drawn = Graph.from_edges(5, [(1, 2), (2, 0), (0, 3), (3, 1), (1, 0), (0, 4), (4, 1)])
        assert are_isomorphic(f, drawn)

    def test_prism_structure(self):
        p = make_family("prism", 4)
        assert (p.n, p.edge_count) == (8, 12)
        assert are_isomorphic(p, make_family("hypercube", 3))

    def test_parameter_errors(self):
        for bad in [("wheel", 3), ("cycle", 2), ("fan", 0, 1), ("prism", 2),
                    ("hypercube", 0), ("complete", 0), ("complete_bipartite", 0, 1),
                    ("path", 0)]:
            with pytest.raises(ValueError):
                make_family(*bad)
        with pytest.raises(ValueError):
            make_family("nonagon", 9)

    def test_family_name_dash_alias(self):
        assert make_family("complete-bipartite", 2, 3).adj == make_family(
            "complete_bipartite", 2, 3
        ).adj


def test_cartesian_product_builds_hypercube():
    k2 = make_family("complete", 2)
    q3 = cartesian_product(cartesian_product(k2, k2), k2)
    assert are_isomorphic(q3, make_family("hypercube", 3))
