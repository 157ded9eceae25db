import functools
import hashlib
import inspect
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import gammagraphs
import gammagraphs.classify as classify_module
from gammagraphs import (
    Graph,
    SearchBudget,
    UnsupportedSizeError,
    are_isomorphic,
    canonical_form,
    cartesian_product,
    connected_components,
    find_labelling,
    induced_subgraph,
    is_valid_labelling,
    make_family,
    parse_graph6,
    write_graph6,
)
from gammagraphs.classify import (
    LABELLABLE,
    MINIMALLY_UNLABELLABLE,
    UNDECIDED,
    UNLABELLABLE,
    UNLABELLABLE_NONMINIMAL,
    Verdict,
    _blocks,
    _glue,
    classify,
    classify_connected,
    decide_labellable,
    enumerate_connected_graphs,
    is_minimally_unlabellable,
    report_summary,
    report_to_json,
)
from gammagraphs.graphs import canonical_word
from gammagraphs.labelling import labelling_to_json

from fixtures import (
    minimal_unlabellable_five,
    minimal_unlabellable_six,
)
from helpers import (
    all_graphs_on,
    graph6_edges,
    is_connected,
    oracle_blocks,
    oracle_minimum_k,
    permute_graph,
    random_graph,
    reference_classification,
    reference_witness,
)

BUDGET = SearchBudget(k_max=6)


@functools.lru_cache(maxsize=None)
def _enumerated_words(n: int) -> frozenset[str]:
    return frozenset(write_graph6(g) for g in enumerate_connected_graphs(n))


class TestEnumeration:
    def test_counts(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, count in expected.items():
            assert len(enumerate_connected_graphs(n)) == count

    def test_representatives_are_canonical_and_sorted(self):
        graphs = enumerate_connected_graphs(5)
        words = [write_graph6(g) for g in graphs]
        assert words == sorted(words)
        assert all(canonical_form(g).decode() == w for g, w in zip(graphs, words))
        assert all(is_connected(g) for g in graphs)

    def test_exhaustive_filter_self_check(self):
        # independent route: filter all labelled graphs for connectivity,
        # dedupe by canonical form, compare with the augmentation output
        for n in range(1, 6):
            brute = {canonical_form(g) for g in all_graphs_on(n) if is_connected(g) and g.n == n}
            fast = {canonical_form(g) for g in enumerate_connected_graphs(n)}
            assert brute == fast

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_connected_graph_is_enumerated(self, data):
        # a random spanning tree plus random edges, under a random vertex order
        n = data.draw(st.integers(1, 7))
        edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = list(itertools.combinations(range(n), 2))
        extra = data.draw(st.integers(0, (1 << len(pairs)) - 1))
        edges |= {pairs[i] for i in range(len(pairs)) if (extra >> i) & 1}
        g = permute_graph(Graph.from_edges(n, edges), data.draw(st.permutations(range(n))))
        assert canonical_form(g).decode() in _enumerated_words(n)

    def test_canonical_forms_computed_by_enumeration(self, monkeypatch):
        # only children whose new vertex is a largest non-cut vertex, whose
        # neighbourhood meets each twin class of the parent in its first
        # members, and which no recorded automorphism of the parent maps to
        # a smaller mask, get a form (1354 without the orbit rule, 1699
        # without the twin rule either)
        real = classify_module._canonical_search
        calls = []

        def counting(n, adj):
            calls.append(n)
            return real(n, adj)

        monkeypatch.setattr(classify_module, "_canonical_search", counting)
        counts = []
        for _ in range(2):
            calls.clear()
            classify_module._connected_words.cache_clear()
            classify_module._connected_words(7)
            counts.append(len(calls))
        assert counts == [1047, 1047]

    def test_eight_vertex_enumeration_pinned(self):
        # OEIS A001349 up to 8 vertices; past n = 7, where the built-in
        # bound stops, only this pin checks that the orbit rule loses no class
        classify_module._connected_words.cache_clear()
        counts = [len(classify_module._connected_words(n)[0]) for n in range(1, 9)]
        assert counts == [1, 1, 2, 6, 21, 112, 853, 11117]

    def test_enumeration_leaves_the_form_cache_alone(self):
        canonical_word.cache_clear()
        classify_module._connected_words.cache_clear()
        classify_module._connected_words(7)
        assert canonical_word.cache_info().currsize == 0

    def test_parents_keep_only_recorded_automorphisms(self):
        # 337 of the 996 words on at most 7 vertices keep any
        kept = 0
        for n in range(1, 8):
            words, recorded = classify_module._connected_words(n)
            for word, automorphisms in recorded.items():
                assert word in words and automorphisms
                edges = graph6_edges(word.encode("ascii"))
                for perm in automorphisms:
                    assert {tuple(sorted((perm[i], perm[j]))) for i, j in edges} == edges
            kept += len(recorded)
        assert kept == 337

    def test_outranked_children_fail_the_full_test(self):
        # every connected parent on at most six vertices with every nonempty
        # neighbourhood: a child that the pre-test rejects has a non-cut
        # vertex outranking its new vertex
        pairs = rejected = 0
        for n in range(1, 7):
            for parent in enumerate_connected_graphs(n):
                non_cut = classify_module._non_cut_degrees(parent.adj)
                for nbrs in range(1, 1 << n):
                    adj = [m | (nbrs >> u & 1) << n for u, m in enumerate(parent.adj)] + [nbrs]
                    pairs += 1
                    if classify_module._outranked(non_cut, nbrs):
                        rejected += 1
                        assert not classify_module._largest_non_cut_vertex_is_last(adj), (
                            write_graph6(parent), nbrs,
                        )
        # the full test rejects 6117 of the pairs
        assert pairs == 7815 and rejected == 5128

    def test_connected_deletions_match_induced_subgraphs(self):
        rng = random.Random(5)
        graphs = [make_family("path", 6), make_family("complete_bipartite", 1, 5)]
        for n in range(10):
            for p in (0.2, 0.5, 0.8):
                graphs += [random_graph(rng, n, p) for _ in range(4)]
        assert any(not is_connected(g) for g in graphs) and any(is_connected(g) for g in graphs)
        for g in graphs:
            deletions = (induced_subgraph(g, [u for u in range(g.n) if u != v]) for v in range(g.n))
            expected = [sub for sub in deletions if is_connected(sub)]
            got = list(classify_module._connected_deletions(g.adj))
            assert got == [(sub.n, sub.adj) for sub in expected], write_graph6(g)
            for (n, adj), sub in zip(got, expected):
                assert canonical_word(n, adj) == canonical_form(sub)

    def test_out_of_range(self):
        with pytest.raises(UnsupportedSizeError, match="graph6"):
            enumerate_connected_graphs(8)
        with pytest.raises(ValueError):
            enumerate_connected_graphs(0)


class TestDecideLabellable:
    def test_diamond_is_labellable(self):
        k4e = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        verdict = decide_labellable(k4e, BUDGET)
        assert verdict.status == LABELLABLE
        assert is_valid_labelling(k4e, verdict.labelling)

    def test_k23_unlabellable(self):
        verdict = decide_labellable(make_family("complete_bipartite", 2, 3), BUDGET)
        assert verdict.status == UNLABELLABLE and verdict.k_bound == 6

    def test_k5_minus_edge_unlabellable(self):
        edges = [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
        verdict = decide_labellable(Graph.from_edges(5, edges), BUDGET)
        assert verdict.status == UNLABELLABLE

    def test_tree_labelled_with_its_largest_degree(self):
        tree = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (4, 6)])
        verdict = decide_labellable(tree, BUDGET)
        assert verdict.status == LABELLABLE and verdict.labelling.k == 3
        assert is_valid_labelling(tree, verdict.labelling)

    def test_random_trees_get_their_largest_degree(self):
        # gluing the bridges one by one gives a tree k equal to its largest
        # degree, which is least: a vertex's non-adjacent neighbours swap out
        # distinct symbols of its label
        rng = random.Random(26)
        for _ in range(200):
            n = rng.randint(2, 60)
            perm = rng.sample(range(n), n)
            edges = [(perm[v], perm[rng.randrange(v)]) for v in range(1, n)]
            tree = Graph.from_edges(n, edges)
            verdict = decide_labellable(tree)
            assert verdict.status == LABELLABLE, edges
            assert verdict.labelling.k == max(map(tree.degree, range(n))), edges
            assert is_valid_labelling(tree, verdict.labelling)

    def test_unicyclic_graph(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (1, 5)])
        verdict = decide_labellable(g, BUDGET)
        assert verdict.status == LABELLABLE
        assert is_valid_labelling(g, verdict.labelling)

    def test_disconnected_components_combined(self):
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        verdict = decide_labellable(two_triangles, BUDGET)
        assert verdict.status == LABELLABLE
        assert is_valid_labelling(two_triangles, verdict.labelling)

    def test_two_isolated_vertices(self):
        g = Graph.from_edges(2, [])
        verdict = decide_labellable(g, BUDGET)
        assert verdict.status == LABELLABLE
        assert is_valid_labelling(g, verdict.labelling)

    def test_component_with_bad_core(self):
        # K23 plus a separate edge: still unlabellable
        edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (5, 6)]
        verdict = decide_labellable(Graph.from_edges(7, edges), BUDGET)
        assert verdict.status == UNLABELLABLE

    def test_undecided_on_tiny_budget(self):
        verdict = decide_labellable(
            make_family("complete_bipartite", 2, 3), SearchBudget(k_max=6, node_limit=3)
        )
        assert verdict.status == UNDECIDED

    @pytest.mark.parametrize("wheel_first", [True, False], ids=["wheel-first", "k23-first"])
    def test_exhausted_block_does_not_hide_an_absent_one(self, wheel_first):
        # the 9-wheel's search runs out of 300 nodes; K_{2,3}'s ends absent
        # in 182, in either order of the components
        wheel, k23 = make_family("wheel", 9), make_family("complete_bipartite", 2, 3)
        budget = SearchBudget(node_limit=300)
        first, second = (wheel, k23) if wheel_first else (k23, wheel)
        g = _beside(first, second)
        assert decide_labellable(g, budget).status == UNLABELLABLE
        # with no block shown to have no labelling, the exhausted one decides
        assert decide_labellable(_beside(wheel, make_family("cycle", 4)), budget).status == UNDECIDED

    def test_searches_memo_replays_every_outcome(self, monkeypatch):
        # a proper block whose masks the memo holds is not searched again,
        # and its verdict, labelling or exhaustion stays what the search gave
        wheel, c4, c5 = make_family("wheel", 9), make_family("cycle", 4), make_family("cycle", 5)
        graphs = [_beside(wheel, c4), _beside(c4, wheel), _beside(c4, c5), _beside(c5, c4)]
        budget = SearchBudget(node_limit=300)
        searched = []
        real = classify_module.find_labelling

        def spy(g, budget=None):
            searched.append(g.adj)
            return real(g, budget)

        monkeypatch.setattr(classify_module, "find_labelling", spy)
        fresh = [decide_labellable(g, budget) for g in graphs]
        assert len(searched) == 8
        searched.clear()
        memo = {}
        assert [decide_labellable(g, budget, memo) for g in graphs] == fresh
        assert len(searched) == len(set(searched)) == len(memo) == 3
        assert [v.status for v in fresh] == [UNDECIDED, UNDECIDED, LABELLABLE, LABELLABLE]
        # a graph that is one block is searched whole and not kept
        assert decide_labellable(c4, budget, memo) == decide_labellable(c4, budget)
        assert len(searched) == 5 and len(memo) == 3
        # under another budget the memo replays nothing: the wheel, out of
        # nodes at 300, is searched again and labelled
        wide = SearchBudget()
        assert decide_labellable(graphs[0], wide, memo) == decide_labellable(graphs[0], wide)
        assert decide_labellable(graphs[0], wide, memo).status == LABELLABLE
        assert len(searched) == 9 and len(memo) == 5

    def test_known_labellable_families(self):
        cases = [("complete", (n,)) for n in range(1, 7)]
        cases += [("cycle", (n,)) for n in range(3, 9)]
        cases += [("prism", (n,)) for n in (3, 4, 5)]
        cases += [("hypercube", (n,)) for n in (1, 2, 3)]
        for name, params in cases:
            g = make_family(name, *params)
            verdict = decide_labellable(g, BUDGET)
            assert verdict.status == LABELLABLE, f"{name}{params}"
            assert is_valid_labelling(g, verdict.labelling)

    def test_random_graph_verdicts_pinned(self):
        # 300 seeded sparse graphs on 1..9 vertices, with isolated vertices,
        # bridges, cut vertices and several components, under the default
        # budget
        rng = random.Random(9)
        graphs = [random_graph(rng, rng.randint(1, 9), 0.3) for _ in range(300)]
        degrees = [g.degree(v) for g in graphs for v in range(g.n)]
        assert 0 in degrees and 1 in degrees
        assert any(
            sum(len(comp) > 1 for comp in connected_components(g)) >= 2 for g in graphs
        )
        rows = []
        for g in graphs:
            verdict = decide_labellable(g)
            lab = verdict.labelling
            labels = None if lab is None else (lab.k, tuple(tuple(sorted(s)) for s in lab.labels))
            rows.append((verdict.status, verdict.k_bound, labels))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "9242629d62e3dd42050a34a1834e94b94dc366698974c246d6554d10703ab7a8"

    def test_one_block_search_labelling_is_its_own_gluing(self):
        # a graph that is one non-complete block gets its search's labelling
        # unglued, as gluing it alone rebuilds it symbol for symbol: every
        # such graph on at most seven vertices, and seeded numberings of
        # larger ones
        rng = random.Random(28)
        larger = [
            make_family("cycle", 12),
            make_family("prism", 5),
            make_family("wheel", 9),
            make_family("hypercube", 3),
            make_family("fan", 1, 9),
            cartesian_product(make_family("path", 3), make_family("path", 4)),
        ]
        graphs = [g for n in range(3, 8) for g in enumerate_connected_graphs(n)]
        graphs += [permute_graph(g, rng.sample(range(g.n), g.n)) for g in larger for _ in range(3)]
        checked = 0
        for g in graphs:
            blocks = _blocks(g.adj)
            if len(blocks) > 1 or g.edge_count == g.n * (g.n - 1) // 2:
                continue
            outcome = find_labelling(g)
            if outcome:
                own = dict(enumerate(outcome.labelling.labels))
                assert _glue(g, blocks, [(outcome.k, own)]) == outcome.labelling, g.edges()
                assert decide_labellable(g).labelling == outcome.labelling
                checked += 1
        assert checked == 116 + 3 * len(larger)

    def test_every_small_graph_matches_component_oracle(self):
        # every labelled graph on 1..5 vertices, each five-vertex one beside
        # an isolated vertex, and every six-vertex graph up to isomorphism
        # in three numberings (a 2-connected one is one block, searched
        # whole): g is labellable exactly when each of its blocks is, and a
        # connected graph on c vertices with a labelling has one with
        # k <= max(1, c - 1) (see SearchBudget).  The blocks come from the
        # brute-force oracle, and the labelling oracle on each is memoised
        # by its masks, not by canonical form, so it rests on none of the
        # code it checks.
        graphs = [g for n in range(1, 6) for g in all_graphs_on(n)]
        graphs += [Graph.from_edges(6, g.edges()) for g in all_graphs_on(5)]
        graphs += _six_vertex_graphs()
        labellable: dict[tuple, bool] = {}
        glued = unlabellable = 0
        for g in graphs:
            blocks = oracle_blocks(g)
            expected = True
            for block in blocks:
                sub = induced_subgraph(g, block)
                key = (sub.n, sub.adj)
                if key not in labellable:
                    labellable[key] = oracle_minimum_k(sub, max(1, sub.n - 1)) is not None
                expected = expected and labellable[key]
            verdict = decide_labellable(g)
            assert verdict.status == (LABELLABLE if expected else UNLABELLABLE), g.edges()
            if expected:
                assert is_valid_labelling(g, verdict.labelling)
            several = sum(len(block) > 1 for block in blocks) > 1
            glued += several
            unlabellable += several and not expected
        assert glued > 1000 and unlabellable > 0


def _beside(first: Graph, second: Graph) -> Graph:
    """The disjoint union of two graphs, first's vertices numbered first."""
    shifted = [(u + first.n, v + first.n) for u, v in second.edges()]
    return Graph.from_edges(first.n + second.n, first.edges() + shifted)


def _graphs_up_to_isomorphism(n: int) -> list[Graph]:
    """Every graph on n vertices up to isomorphism, some more than once: a
    connected one, or a connected one beside a graph on the vertices after
    it."""
    out = list(enumerate_connected_graphs(n))
    for i in range(1, n):
        for first in enumerate_connected_graphs(i):
            for rest in _graphs_up_to_isomorphism(n - i):
                shifted = [(u + i, v + i) for u, v in rest.edges()]
                out.append(Graph.from_edges(n, first.edges() + shifted))
    return out


def _six_vertex_graphs() -> list[Graph]:
    """Every graph on six vertices up to isomorphism, in its own numbering
    and in two seeded others."""
    rng = random.Random(6)
    return [
        h
        for g in _graphs_up_to_isomorphism(6)
        for h in [g] + [permute_graph(g, rng.sample(range(6), 6)) for _ in range(2)]
    ]


class TestBlocks:
    @staticmethod
    def check(g: Graph) -> None:
        # the blocks are the oracle's, and each shares only its first vertex
        # with the blocks before it, or none when it starts a component
        blocks = _blocks(g.adj)
        expected = oracle_blocks(g)
        assert len(blocks) == len(expected), g.edges()
        assert {frozenset(block) for block in blocks} == expected, g.edges()
        component = {v: i for i, comp in enumerate(connected_components(g)) for v in comp}
        seen: set[int] = set()
        for block in blocks:
            starts = not any(component[v] == component[block[0]] for v in seen)
            assert seen & set(block) == (set() if starts else {block[0]}), g.edges()
            seen |= set(block)

    def test_every_small_graph_matches_oracle(self):
        for g in [g for n in range(1, 6) for g in all_graphs_on(n)] + _six_vertex_graphs():
            self.check(g)

    def test_random_graphs_match_oracle(self):
        rng = random.Random(10)
        for _ in range(150):
            self.check(random_graph(rng, rng.randint(7, 10), rng.choice([0.15, 0.25, 0.4])))

    def test_deep_graph_needs_no_recursion(self):
        blocks = _blocks(make_family("path", 3000).adj)
        assert blocks == [[v, v + 1] for v in range(2999)]


class TestMinimality:
    def test_wheel_six_minimal(self):
        verdict = is_minimally_unlabellable(make_family("wheel", 6), BUDGET)
        assert verdict.status == MINIMALLY_UNLABELLABLE

    def test_fan24_nonminimal_with_five_vertex_witness(self):
        g = make_family("fan", 2, 4)
        verdict = is_minimally_unlabellable(g, BUDGET)
        assert verdict.status == UNLABELLABLE_NONMINIMAL
        assert len(verdict.witness) == 5
        witness_graph = induced_subgraph(g, verdict.witness)
        y_graph = minimal_unlabellable_five()[2]
        assert are_isomorphic(witness_graph, y_graph)

    def test_undecided_deletion_leaves_minimality_undecided(self, monkeypatch):
        wheel = make_family("wheel", 6)
        real = classify_module.decide_labellable

        def five_vertex_searches_run_out(g, budget=None, searches=None):
            return Verdict(UNDECIDED, 5) if g.n == 5 else real(g, budget, searches)

        monkeypatch.setattr(classify_module, "decide_labellable", five_vertex_searches_run_out)
        assert is_minimally_unlabellable(wheel, BUDGET).status == UNDECIDED

    def test_disconnected_input_takes_witness_from_a_component(self):
        k23 = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
        twice = Graph.from_edges(10, k23 + [(u + 5, v + 5) for u, v in k23])
        verdict = is_minimally_unlabellable(twice, BUDGET)
        assert verdict.status == UNLABELLABLE_NONMINIMAL
        assert verdict.witness == (0, 1, 2, 3, 4) == reference_witness(twice, BUDGET)

    def test_labellable_graph_passes_through(self):
        verdict = is_minimally_unlabellable(make_family("cycle", 5), BUDGET)
        assert verdict.status == LABELLABLE

    def test_verdict_invariants(self):
        with pytest.raises(ValueError):
            Verdict(LABELLABLE, 6)
        with pytest.raises(ValueError):
            Verdict(UNLABELLABLE_NONMINIMAL, 6)


class TestClassify:
    def test_counts_up_to_five(self, classification_upto5):
        report, _ = classification_upto5
        assert report.counts[LABELLABLE] == 27
        assert report.counts[MINIMALLY_UNLABELLABLE] == 4
        assert report.counts[UNLABELLABLE_NONMINIMAL] == 0
        assert sum(report.counts.values()) == 31

    def test_minimal_five_graphs_match_reference(self, classification_upto5):
        report, _ = classification_upto5
        found = {w for w, v in report.verdicts.items() if v.status == MINIMALLY_UNLABELLABLE}
        expected = {canonical_form(g).decode() for g in minimal_unlabellable_five()}
        assert found == expected

    def test_counts_six(self, classification_six):
        report, _ = classification_six
        assert report.counts[LABELLABLE] == 69
        assert report.counts[UNLABELLABLE_NONMINIMAL] == 39
        assert report.counts[MINIMALLY_UNLABELLABLE] == 4

    def test_minimal_six_graphs_match_reference(self, classification_six):
        report, _ = classification_six
        found = {w for w, v in report.verdicts.items() if v.status == MINIMALLY_UNLABELLABLE}
        expected = {canonical_form(g).decode() for g in minimal_unlabellable_six()}
        assert found == expected

    def test_single_vertex(self):
        report = classify(enumerate_connected_graphs(1), BUDGET)
        assert report.counts[LABELLABLE] == 1

    def test_labellable_verdicts_carry_valid_labellings(self, classification_upto5):
        report, _ = classification_upto5
        for word, verdict in report.verdicts.items():
            if verdict.status == LABELLABLE:
                assert is_valid_labelling(parse_graph6(word), verdict.labelling)

    def test_hereditary_consistency(self, classification_upto5):
        report, _ = classification_upto5
        bad_forms = {
            word.encode()
            for word, v in report.verdicts.items()
            if v.status in (MINIMALLY_UNLABELLABLE, UNLABELLABLE_NONMINIMAL)
        }
        for word, verdict in report.verdicts.items():
            if verdict.status != LABELLABLE:
                continue
            g = parse_graph6(word)
            for size in range(1, g.n):
                for subset in itertools.combinations(range(g.n), size):
                    assert canonical_form(induced_subgraph(g, subset)) not in bad_forms

    def test_budget_exhaustion_recorded_not_raised(self):
        graphs = [make_family("complete_bipartite", 2, 3), make_family("cycle", 4)]
        report = classify(graphs, SearchBudget(k_max=6, node_limit=3))
        assert report.counts[UNDECIDED] >= 1
        assert sum(report.counts.values()) == 2

    def test_seven_vertex_exploratory_run(self):
        # not reference-tabulated anywhere, so only structure and the facts
        # corroborated by the test fixtures are asserted
        from fixtures import seven_vertex_a, seven_vertex_b, seven_vertex_minimal

        report = classify(enumerate_connected_graphs(7), BUDGET)
        assert sum(report.counts.values()) == 853
        assert report.counts[UNDECIDED] == 0
        minimal = [w for w, v in report.verdicts.items() if v.status == MINIMALLY_UNLABELLABLE]
        assert minimal == [canonical_form(seven_vertex_minimal()).decode()]
        for g, _ in (seven_vertex_a(), seven_vertex_b()):
            assert report.verdicts[canonical_form(g).decode()].status == LABELLABLE
        assert report.params["exploratory_n"] == [7]
        assert "(exploratory)" in report_summary(report)

    def test_report_json_shape(self, classification_upto5):
        report, _ = classification_upto5
        doc = report_to_json(report)
        assert list(doc["verdicts"]) == sorted(doc["verdicts"])
        k23_word = canonical_form(make_family("complete_bipartite", 2, 3)).decode()
        assert doc["verdicts"][k23_word]["status"] == MINIMALLY_UNLABELLABLE
        assert doc["params"]["exploratory_n"] == []
        summary = report_summary(report)
        assert "labellable" in summary and " 5 " in summary

    def test_report_json_names_labels_as_graph6_does(self):
        # labels are keyed by the names the graph6 word parses to, whatever
        # the names of the graphs that were classified
        named = [
            Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], ("a", "b", "c", "d")),
            Graph.from_edges(3, [(0, 1), (1, 2)], ("x", "y", "z")),
        ]
        report = classify(named, BUDGET)
        verdicts = report_to_json(report)["verdicts"]
        for word, verdict in report.verdicts.items():
            assert verdict.status == LABELLABLE
            rendered = labelling_to_json(parse_graph6(word), verdict.labelling)
            assert verdicts[word]["labelling"] == rendered


class TestShortCircuit:
    """classify looks deletions up instead of searching again; these tests
    hold it to a classifier that decides everything afresh."""

    # every connected graph on at most six vertices, plus every 40th on seven:
    # most nonminimal seven-vertex graphs have five-vertex witnesses, so the
    # witness search must walk past the unlabellable six-vertex deletions
    GRAPHS = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    GRAPHS += enumerate_connected_graphs(7)[::40]

    @pytest.mark.parametrize(
        "budget",
        [SearchBudget(), SearchBudget(k_max=2), SearchBudget(k_max=3), SearchBudget(node_limit=40)],
        ids=["default", "k2", "k3", "nodes40"],
    )
    def test_matches_cache_free_reference(self, budget):
        assert report_to_json(classify(self.GRAPHS, budget)) == reference_classification(
            self.GRAPHS, budget
        )

    @pytest.mark.parametrize(
        "budget",
        [SearchBudget(node_limit=480), SearchBudget(k_max=3, node_limit=200)],
        ids=["nodes480", "k3-nodes200"],
    )
    def test_node_limit_only_settles_undecided(self, budget):
        # when the node limit stops a graph's own search, a deletion already
        # settled unlabellable still settles the graph
        got = report_to_json(classify(self.GRAPHS, budget))["verdicts"]
        ref = reference_classification(self.GRAPHS, budget)["verdicts"]
        settled = [w for w in ref if got[w] != ref[w]]
        assert settled
        for word in settled:
            assert ref[word]["status"] == UNDECIDED
            assert got[word]["status"] == UNLABELLABLE_NONMINIMAL
            assert got[word]["k_bound"] == ref[word]["k_bound"]
            witness = parse_graph6(got[word]["witness_graph6"])
            assert decide_labellable(witness, budget).status == UNLABELLABLE

    @pytest.mark.parametrize(
        "budget", [SearchBudget(), SearchBudget(k_max=3)], ids=["default", "k3"]
    )
    def test_witness_tuples_match_brute_force(self, budget):
        report = classify(self.GRAPHS, budget)
        nonminimal = [
            (word, v.witness)
            for word, v in report.verdicts.items()
            if v.status == UNLABELLABLE_NONMINIMAL
        ]
        assert nonminimal
        for word, witness in nonminimal:
            assert witness == reference_witness(parse_graph6(word), budget), word

    def test_labellable_inputs_of_one_size_compute_no_canonical_form(self, monkeypatch):
        # a 12-cycle's canonical form takes far longer than its labelling, and
        # nothing in a run of same-size labellable inputs would read it
        def forbidden(g):
            raise AssertionError(f"canonical form computed on {g.n} vertices")

        monkeypatch.setattr(classify_module, "canonical_form", forbidden)
        report = classify([make_family("cycle", 12), make_family("prism", 6)], BUDGET)
        assert report.counts[LABELLABLE] == 2

    def test_cached_deletion_skips_own_search(self, monkeypatch):
        fan = make_family("fan", 2, 4)
        y_graph = minimal_unlabellable_five()[2]
        searched = []
        real = classify_module.decide_labellable

        def spy(g, budget=None, searches=None):
            searched.append(g)
            return real(g, budget, searches)

        monkeypatch.setattr(classify_module, "decide_labellable", spy)
        report = classify([fan, y_graph], BUDGET)
        verdict = report.verdicts[write_graph6(fan)]
        assert verdict.status == UNLABELLABLE_NONMINIMAL
        assert are_isomorphic(induced_subgraph(fan, verdict.witness), y_graph)
        assert not any(are_isomorphic(g, fan) for g in searched)
        # without the cached deletion, the fan is searched itself
        searched.clear()
        assert is_minimally_unlabellable(fan, BUDGET).witness == verdict.witness
        assert any(are_isomorphic(g, fan) for g in searched)


class TestClassifyConnected:
    """classify_connected settles every connected graph up to a size by
    containment of the witnesses already found; these tests hold it to
    classify's per-class records on the same graphs."""

    GRAPHS = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]

    # at node limits 500 and 1000 some minimal-looking graphs have a deletion
    # whose own search ran out, which leaves their minimality undecided
    @pytest.mark.parametrize(
        "budget",
        [
            SearchBudget(),
            SearchBudget(k_max=2),
            SearchBudget(k_max=3),
            SearchBudget(node_limit=500),
            SearchBudget(node_limit=1000),
        ],
        ids=["default", "k2", "k3", "nodes500", "nodes1000"],
    )
    def test_matches_records(self, budget):
        got = classify_connected(7, budget)
        ref = classify(self.GRAPHS, budget)
        assert list(got.verdicts) == list(ref.verdicts)
        assert got == ref

    def test_undecided_deletion_leaves_minimality_undecided(self, monkeypatch):
        real = classify_module.decide_labellable

        def five_vertex_searches_run_out(g, budget=None, searches=None):
            return Verdict(UNDECIDED, 5) if g.n == 5 else real(g, budget, searches)

        monkeypatch.setattr(classify_module, "decide_labellable", five_vertex_searches_run_out)
        got = classify_connected(6, BUDGET)
        assert got.verdicts[canonical_form(make_family("wheel", 6)).decode()].status == UNDECIDED
        assert got == classify([g for n in range(1, 7) for g in enumerate_connected_graphs(n)], BUDGET)

    def test_work_counted(self, monkeypatch):
        # 425 decisions make 198 searches of 176 distinct blocks, each
        # proper block once per run (333 searches without the memo); the
        # enumeration's pre-test and orbit rule leave 1593 children for the
        # full canonical-deletion test (2019 without the orbit rule, 5299
        # without either)
        searches, deletion_tests = [], []
        real_search = classify_module.find_labelling
        real_test = classify_module._largest_non_cut_vertex_is_last

        def counting_search(g, budget=None):
            searches.append(g.adj)
            return real_search(g, budget)

        def counting_test(adj):
            deletion_tests.append(len(adj))
            return real_test(adj)

        monkeypatch.setattr(classify_module, "find_labelling", counting_search)
        monkeypatch.setattr(classify_module, "_largest_non_cut_vertex_is_last", counting_test)
        for _ in range(2):
            searches.clear()
            deletion_tests.clear()
            classify_module._connected_words.cache_clear()
            report = classify_connected(7)
            assert report.counts[LABELLABLE] + report.counts[MINIMALLY_UNLABELLABLE] == 425
            assert len(searches) == 198 and len(set(searches)) == 176
            assert len(deletion_tests) == 1593

    def test_no_deletion_is_read_without_an_undecided_class(self, monkeypatch):
        def forbidden(adj):
            raise AssertionError(f"deletions of a {len(adj)}-vertex graph read")

        monkeypatch.setattr(classify_module, "_connected_deletions", forbidden)
        assert classify_connected(6, BUDGET).counts[MINIMALLY_UNLABELLABLE] == 8

    def test_sizes_out_of_range(self):
        with pytest.raises(ValueError):
            classify_connected(0)
        with pytest.raises(UnsupportedSizeError):
            classify_connected(8)


def test_package_attribute_is_the_classify_module():
    # the package must not re-export the classify function under its module's name
    assert inspect.ismodule(gammagraphs.classify)
    assert classify_module.classify is classify
