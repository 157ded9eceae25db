import hashlib
import sys

import pytest

from gammagraphs import (
    Graph,
    Labelling,
    SearchBudget,
    UnsupportedSizeError,
    cartesian_product,
    are_isomorphic,
    find_labelling,
    is_valid_labelling,
    make_family,
    product_labelling,
    star_labelling,
    wheel_labelling,
    with_common_symbol,
)
from gammagraphs.classify import decide_labellable, enumerate_connected_graphs
from gammagraphs.labelling import labelling_to_json, outcome_to_json

from fixtures import (
    STAR_LABELS,
    WHEEL9_LABELS,
    seven_vertex_a,
    seven_vertex_closing,
)
from helpers import (
    check_induced_path_middles,
    check_triangle_forms,
    middle_label_candidates,
    oracle_minimum_k,
)


def _sets(*specs):
    return tuple(frozenset(int(ch) for ch in s) for s in specs)


def _sorted_labels(lab):
    """A labelling's labels as sorted tuples: a frozenset's repr depends on
    insertion order, so digests are taken over these."""
    return None if lab is None else tuple(tuple(sorted(s)) for s in lab.labels)


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestValidity:
    def test_wheel_nine_reference_labels(self):
        w9 = make_family("wheel", 9)
        assert is_valid_labelling(w9, Labelling(4, WHEEL9_LABELS))

    def test_seven_vertex_reference_labels(self):
        g, lab = seven_vertex_a()
        assert is_valid_labelling(g, lab)

    def test_duplicate_labels_rejected(self):
        g = make_family("path", 3)
        result = is_valid_labelling(g, Labelling(2, _sets("12", "23", "12")))
        assert not result and result.reason == "duplicate label"
        assert result.pair == ("1", "3")
        # an adjacent pair of equal labels is a duplicate too
        result = is_valid_labelling(make_family("path", 2), Labelling(2, _sets("12", "12")))
        assert not result and result.reason == "duplicate label"
        assert (result.pair, result.intersection) == (("1", "2"), 2)

    def test_violation_names_pair_and_intersection(self):
        g = make_family("path", 3)
        result = is_valid_labelling(g, Labelling(2, _sets("12", "34", "45")))
        assert not result
        assert result.pair == ("1", "2") and result.intersection == 0

    def test_missing_assignment_is_an_error(self):
        with pytest.raises(ValueError):
            is_valid_labelling(make_family("path", 3), Labelling(2, _sets("12", "23")))

    def test_wrong_size_label(self):
        g = make_family("path", 2)
        assert not is_valid_labelling(g, Labelling(2, _sets("12", "2")))

    def test_adjacent_pair_missing_overlap_reported_first_by_names(self):
        # on the triangle x, y, z both (x, z) and (y, z) meet in 0 < k - 1
        # symbols; the first pair in (i, j) order is reported
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)], names=("x", "y", "z"))
        result = is_valid_labelling(g, Labelling(2, _sets("12", "13", "45")))
        assert not result
        assert result.reason == "adjacent pair misses k-1 overlap"
        assert (result.pair, result.intersection) == (("x", "z"), 0)

    def test_non_adjacent_overlap_reported_first_by_names(self):
        # only x and y are adjacent; (x, z) and (y, z) both overlap in k - 1
        g = Graph.from_edges(3, [(0, 1)], names=("x", "y", "z"))
        result = is_valid_labelling(g, Labelling(3, _sets("123", "234", "134")))
        assert not result
        assert result.reason == "non-adjacent pair overlaps in k-1"
        assert (result.pair, result.intersection) == (("x", "z"), 2)


class TestMiddleLabelCandidates:
    def test_disjoint_pairs(self):
        cands = middle_label_candidates({1, 2}, {3, 4})
        assert cands == [frozenset(s) for s in ({1, 3}, {1, 4}, {2, 3}, {2, 4})]

    def test_shared_core(self):
        cands = middle_label_candidates({1, 2, 5}, {3, 4, 5})
        assert set(cands) == set(_sets("135", "145", "235", "245"))

    def test_precondition_error(self):
        with pytest.raises(ValueError):
            middle_label_candidates({1, 2}, {1, 3})
        with pytest.raises(ValueError):
            middle_label_candidates({1, 2}, {3, 4, 5})


class TestSearch:
    def test_five_cycle(self):
        out = find_labelling(make_family("cycle", 5), SearchBudget(k_max=2))
        assert out.status == "found" and out.k == 2
        assert is_valid_labelling(make_family("cycle", 5), out.labelling)

    def test_k23_absent(self):
        out = find_labelling(make_family("complete_bipartite", 2, 3), SearchBudget(k_max=6))
        assert out.status == "absent_up_to_k" and out.k == 6

    def test_single_vertex(self):
        out = find_labelling(make_family("complete", 1), SearchBudget(k_max=1))
        assert out.status == "found"
        assert out.labelling.labels == (frozenset({1}),)

    def test_budget_exhaustion_carries_frontier_k(self):
        out = find_labelling(make_family("complete_bipartite", 2, 3), SearchBudget(k_max=6, node_limit=5))
        assert out.status == "budget_exhausted"
        assert 1 <= out.k <= 6 and out.nodes >= 5

    @pytest.mark.parametrize(
        "graph, k_max, nodes, status, frontier_k",
        [
            # K_{2,3} has 5 vertices, so complement pruning makes k = 5 and
            # k = 6 cost no nodes and the limit runs out at k = 4
            (make_family("complete_bipartite", 2, 3), 6, 182, "absent_up_to_k", 4),
            (make_family("cycle", 5), 2, 18, "found", 2),
        ],
        ids=["k23", "c5"],
    )
    def test_node_limit_counts_candidate_labels(self, graph, k_max, nodes, status, frontier_k):
        # every candidate label tested is counted once, across all k, and
        # the one that passes the limit is counted too
        out = find_labelling(graph, SearchBudget(k_max=k_max, node_limit=nodes))
        assert (out.status, out.k, out.nodes) == (status, k_max, nodes)
        out = find_labelling(graph, SearchBudget(k_max=k_max, node_limit=nodes - 1))
        assert (out.status, out.k, out.nodes) == ("budget_exhausted", frontier_k, nodes)

    @pytest.mark.parametrize(
        "budget, digest",
        [
            (SearchBudget(), "d22f21f437c412657491b20b824b78563e5d722f857ef26801d841f8762c84f6"),
            (SearchBudget(k_max=3), "f9c99fcf46818dc28c58fa91f7afc31434691471d5d38a79422f46e3b7f1f2b1"),
        ],
        ids=["default", "k3"],
    )
    def test_outcomes_pinned_up_to_six_vertices(self, budget, digest):
        # (status, k, labels) on every connected graph with n <= 6; labels
        # are sorted tuples, since a frozenset's repr depends on insertion
        # order
        rows = []
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                out = find_labelling(g, budget)
                labels = None
                if out.labelling is not None:
                    labels = tuple(tuple(sorted(s)) for s in out.labelling.labels)
                rows.append((out.status, out.k, labels))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "budget, digest",
        [
            (SearchBudget(), "17521065b0efd9b56aca3347cd1e4ace7ba80d375a652a26f2e709d52c7e1c48"),
            (SearchBudget(k_max=2), "c2aaa815609cbb9ea31c782cc1043ab610c1d3068ca891d7a2eb9a0bafd3523f"),
            (SearchBudget(k_max=3), "b1148ce61eedce9118f017737b3d4fc593ee33048a9429cff237e35e7cf4d19f"),
            (SearchBudget(node_limit=200), "f75939bfc92e73f564bcba8cefaf5152082ebd39da45e57536b0266e9e654510"),
        ],
        ids=["default", "k2", "k3", "limit200"],
    )
    def test_outcomes_and_node_counts_pinned_up_to_six_vertices(self, budget, digest):
        # (status, k, nodes, labels) on every connected graph with n <= 6:
        # the search must visit the same candidates in the same order
        rows = []
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                out = find_labelling(g, budget)
                rows.append((out.status, out.k, out.nodes, _sorted_labels(out.labelling)))
        assert _digest(rows) == digest

    @pytest.mark.parametrize(
        "family, n, nodes, labels_digest",
        [
            ("path", 80, 6322, "062468502a8266bceb4a19aa7ecfb45fe095d2e17d118e0bb59401ac2d7bf340"),
            ("cycle", 70, 4698, "ad25a4a336d3d6f66c25f0da4074e8785e970442490827ea7ab961c2a4b99dae"),
        ],
    )
    def test_graphs_beyond_63_vertices_pinned(self, family, n, nodes, labels_digest):
        # more vertices than fit in 6-bit fields, so a packed ordering key
        # would misorder the placement
        out = find_labelling(make_family(family, n))
        assert (out.status, out.k, out.nodes) == ("found", 2, nodes)
        assert _digest(_sorted_labels(out.labelling)) == labels_digest

    @pytest.mark.parametrize(
        "family, n, k, labels_digest",
        [
            ("path", 80, 2, "3ede1d01539348343c7162284e742456d1f2baba79b4a10e69a51cddf0d0d28b"),
            ("cycle", 70, 2, "ad25a4a336d3d6f66c25f0da4074e8785e970442490827ea7ab961c2a4b99dae"),
        ],
    )
    def test_decisions_beyond_63_vertices_pinned(self, family, n, k, labels_digest):
        verdict = decide_labellable(make_family(family, n))
        assert (verdict.status, verdict.labelling.k) == ("labellable", k)
        assert _digest(_sorted_labels(verdict.labelling)) == labels_digest

    def test_found_labellings_use_at_least_two_k_symbols(self):
        # the fact complement pruning rests on: at the minimal k, fewer than
        # 2k symbols would give a labelling of size below k
        count = 0
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                out = find_labelling(g)
                if out.status == "found":
                    count += 1
                    assert len(frozenset().union(*out.labelling.labels)) >= 2 * out.k
        assert count == 95

    def test_label_sizes_of_n_or_more_cost_no_nodes(self):
        # at the root, complement pruning reads k > n - 1
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                wide = find_labelling(g, SearchBudget(k_max=n))
                if wide.status == "absent_up_to_k":
                    narrow = find_labelling(g, SearchBudget(k_max=n - 1))
                    assert narrow.status == "absent_up_to_k"
                    assert wide.nodes == narrow.nodes

    def test_deterministic(self):
        g = make_family("prism", 3)
        a = find_labelling(g, SearchBudget(k_max=5))
        b = find_labelling(g, SearchBudget(k_max=5))
        assert a == b

    def test_pruning_rule_does_not_change_outcomes(self):
        # the induced-path rule cuts no labelling: the search's k is the
        # oracle's least k, and each found labelling gives every induced-path
        # midpoint one of the four labels the rule offers.  The digest is
        # that of the labellings the same search found with the rule off.
        rows = []
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                out = find_labelling(g, SearchBudget(k_max=4))
                assert (out.k if out else None) == oracle_minimum_k(g, 4), g.edges()
                if out:
                    check_induced_path_middles(g, out.labelling)
                    rows.append((out.k, tuple(tuple(sorted(s)) for s in out.labelling.labels)))
                else:
                    rows.append(None)
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "e153ce33d19f4607858b027c2bcb7589bc436596a624230f7e1d0a8ba4da622b"

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            find_labelling(Graph.from_edges(3, [(0, 1)]))

    def test_found_k_is_minimal_against_oracle(self):
        for n in range(1, 5):
            for g in enumerate_connected_graphs(n):
                oracle_k = oracle_minimum_k(g, 3)
                out = find_labelling(g, SearchBudget(k_max=3))
                if oracle_k is None:
                    assert out.status == "absent_up_to_k"
                else:
                    assert out.status == "found" and out.k == oracle_k

    def test_oracle_agreement_five_vertices(self):
        for g in enumerate_connected_graphs(5):
            oracle_k = oracle_minimum_k(g, 3)
            out = find_labelling(g, SearchBudget(k_max=3))
            got = out.k if out.status == "found" else None
            assert got == oracle_k, f"{g.edges()}: oracle {oracle_k}, search {got}"

    def test_oracle_confirms_absence_at_k_four(self):
        # the four known minimally unlabellable graphs on <= 5 vertices stay
        # absent at k=4 on both routes
        from fixtures import minimal_unlabellable_five
        from helpers import oracle_labelling_exists

        for g in minimal_unlabellable_five():
            assert not oracle_labelling_exists(g, 4)
            assert find_labelling(g, SearchBudget(k_max=4)).status == "absent_up_to_k"

    def test_connected_labellable_graphs_need_k_at_most_n_minus_one(self):
        # the lemma in SearchBudget's docstring, on every connected graph
        # with 2..6 vertices
        from helpers import oracle_labelling_exists

        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                out = find_labelling(g, SearchBudget(k_max=n + 1))
                assert out.status in ("found", "absent_up_to_k")
                if out.status == "found":
                    assert out.k <= n - 1
                assert oracle_labelling_exists(g, n - 1) == (out.status == "found")

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(k_max=0)
        with pytest.raises(ValueError):
            SearchBudget(node_limit=0)

    @pytest.mark.parametrize(
        "search",
        [
            lambda: find_labelling(make_family("path", 300)),
            lambda: decide_labellable(make_family("cycle", 300), SearchBudget(k_max=2)),
        ],
        ids=["find_labelling-path300", "decide_labellable-cycle300"],
    )
    def test_past_the_recursion_limit_fails_loudly(self, search):
        # the search recurses once per placed vertex; past the limit it names
        # the vertex count rather than raising a bare RecursionError
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            with pytest.raises(UnsupportedSizeError, match="300 vertices"):
                search()
        finally:
            sys.setrecursionlimit(limit)


class TestProducts:
    def test_square_of_edges(self):
        k2 = make_family("complete", 2)
        lab1 = Labelling(1, _sets("1", "2"))
        lab2 = Labelling(1, _sets("1", "2"))
        product = product_labelling(k2, lab1, k2, lab2)
        assert product.k == 2
        assert are_isomorphic(cartesian_product(k2, k2), make_family("cycle", 4))

    def test_adjoining_a_point_adds_common_symbol(self):
        k1 = make_family("complete", 1)
        g = make_family("cycle", 5)
        lab_g = find_labelling(g, SearchBudget(k_max=2)).labelling
        product = product_labelling(k1, Labelling(1, _sets("9")), g, lab_g)
        assert all(9 in s for s in product.labels)

    def test_iterated_product_labels_hypercube(self):
        k2 = make_family("complete", 2)
        lab = Labelling(1, _sets("1", "2"))
        g, glab = k2, lab
        for _ in range(2):
            glab = product_labelling(g, glab, k2, lab)
            g = cartesian_product(g, k2)
        assert glab.k == 3
        assert are_isomorphic(g, make_family("hypercube", 3))

    def test_invalid_input_rejected(self):
        k2 = make_family("complete", 2)
        bad = Labelling(1, _sets("1", "1"))
        with pytest.raises(ValueError):
            product_labelling(k2, bad, k2, Labelling(1, _sets("1", "2")))


class TestClosedForms:
    def test_wheel_nine_matches_reference(self):
        assert wheel_labelling(9).labels == WHEEL9_LABELS

    def test_wheel_five(self):
        lab = wheel_labelling(5)
        assert lab.labels == _sets("23", "24", "14", "13", "12")
        assert is_valid_labelling(make_family("wheel", 5), lab)

    def test_wheel_four(self):
        assert is_valid_labelling(make_family("wheel", 4), wheel_labelling(4))

    def test_all_supported_wheels_validate(self):
        for n in (4, 5, 7, 9, 11, 13):
            assert is_valid_labelling(make_family("wheel", n), wheel_labelling(n))

    def test_even_wheel_rejected(self):
        with pytest.raises(ValueError, match="even"):
            wheel_labelling(6)

    def test_star_reference_labels(self):
        for m, labels in STAR_LABELS.items():
            lab = star_labelling(m)
            assert lab.labels == labels
            assert is_valid_labelling(make_family("fan", m, 1), lab)

    def test_star_all_sizes_validate(self):
        for m in range(1, 7):
            assert is_valid_labelling(make_family("fan", m, 1), star_labelling(m))


class TestInvariantHelpers:
    def test_common_symbol_keeps_validity(self):
        g, lab = seven_vertex_closing()
        bigger = with_common_symbol(lab)
        assert bigger.k == lab.k + 1
        assert is_valid_labelling(g, bigger)

    def test_structural_form_checks_on_found_labellings(self):
        for n in range(3, 6):
            for g in enumerate_connected_graphs(n):
                out = find_labelling(g, SearchBudget(k_max=6))
                if out.status == "found":
                    check_induced_path_middles(g, out.labelling)
                    check_triangle_forms(g, out.labelling)


def test_json_rendering():
    g, lab = seven_vertex_a()
    doc = labelling_to_json(g, lab)
    assert doc["k"] == 3 and doc["labels"]["1"] == [2, 3, 4]
    out = find_labelling(make_family("cycle", 5), SearchBudget(k_max=2))
    doc = outcome_to_json(make_family("cycle", 5), out)
    assert doc["status"] == "found" and doc["k"] == 2
    absent = find_labelling(make_family("complete_bipartite", 2, 3), SearchBudget(k_max=3))
    doc = outcome_to_json(make_family("complete_bipartite", 2, 3), absent)
    assert doc == {"status": "absent_up_to_k", "nodes": absent.nodes, "k_max": 3}
