import random

import pytest

from gammagraphs import (
    Labelling,
    WorkLimitExceeded,
    build_gamma_graph,
    is_valid_labelling,
    make_family,
    min_dominating_sets,
)
from gammagraphs.gammagraph import gamma_graph_to_json, tag_names
from gammagraphs.classify import enumerate_connected_graphs

from fixtures import (
    DEMO_GAMMA1_EDGES,
    DEMO_GAMMA1_SETS,
    DEMO_GAMMA2_SETS,
    domination_demo_graph,
)
from helpers import oracle_gamma_graph_edges, random_graph


def _tag_as_names(tag):
    return frozenset(v + 1 for v in tag)


def _assert_edges_match_oracle(g, d):
    gg = build_gamma_graph(g, d)
    assert set(gg.base.edges()) == oracle_gamma_graph_edges(gg.tags, gg.gamma)
    return gg


class TestDemoGraph:
    def test_distance_one(self):
        g = domination_demo_graph()
        gg = build_gamma_graph(g, 1)
        assert gg.gamma == 2 and gg.d == 1
        assert {_tag_as_names(t) for t in gg.tags} == set(DEMO_GAMMA1_SETS)
        assert gg.base.names == ("15", "25", "36", "46", "56")
        edges = {
            tuple(sorted((gg.base.names[i], gg.base.names[j]))) for i, j in gg.base.edges()
        }
        assert edges == {tuple(sorted(e)) for e in DEMO_GAMMA1_EDGES}

    def test_distance_two_is_complete(self):
        g = domination_demo_graph()
        gg = build_gamma_graph(g, 2)
        assert gg.gamma == 1
        assert {_tag_as_names(t) for t in gg.tags} == set(DEMO_GAMMA2_SETS)
        assert gg.base.edge_count == 10  # K5

    def test_single_vertex(self):
        gg = build_gamma_graph(make_family("complete", 1), 3)
        assert gg.base.n == 1 and gg.base.edge_count == 0


class TestStructure:
    def test_tags_match_domination_module(self):
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                for d in (1, 2):
                    gg = _assert_edges_match_oracle(g, d)
                    result = min_dominating_sets(g, d)
                    assert set(gg.tags) == set(result.min_sets)
                    assert gg.gamma == result.gamma

    def test_gamma_one_gives_complete_graph(self):
        # K5: each vertex alone dominates; wheel(5): only the hub does
        for g, m in ((make_family("complete", 5), 5), (make_family("wheel", 5), 1)):
            gg = _assert_edges_match_oracle(g, 1)
            assert gg.gamma == 1 and gg.base.n == m
            assert gg.base.edge_count == m * (m - 1) // 2

    def test_vertex_labels_form_valid_labelling(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n)[::2]:
                for d in (1, 2):
                    gg = build_gamma_graph(g, d)
                    lab = Labelling(gg.gamma, tuple(frozenset(v + 1 for v in t) for t in gg.tags))
                    assert is_valid_labelling(gg.base, lab)

    def test_deterministic_tag_order(self):
        g = domination_demo_graph()
        a = build_gamma_graph(g, 1)
        b = build_gamma_graph(g, 1)
        assert (a.gamma, a.tags, a.base.adj) == (b.gamma, b.tags, b.base.adj)
        assert a.tags == tuple(sorted(a.tags, key=lambda t: tuple(sorted(t))))


class TestEdgesAgainstOracle:
    """The bucket pass against the pairwise rule |A & B| == gamma - 1; every
    connected graph with n <= 6 is checked in TestStructure."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_seeded_random_graphs(self, d):
        rng = random.Random(14)
        for _ in range(30):
            n = rng.randint(1, 12)
            _assert_edges_match_oracle(random_graph(rng, n, rng.choice([0.15, 0.3, 0.5])), d)

    def test_hypercube_five_has_no_edges(self):
        gg = _assert_edges_match_oracle(make_family("hypercube", 5), 1)
        assert gg.gamma == 7 and gg.base.n == 320 and gg.base.edge_count == 0

    def test_long_path_distance_three(self):
        gg = _assert_edges_match_oracle(make_family("path", 60), 3)
        assert gg.gamma == 9 and gg.base.n == 220 and gg.base.edge_count == 594


class TestNaming:
    def test_single_character_names_concatenate(self):
        g = domination_demo_graph()
        assert tag_names(g, [frozenset({1, 4})]) == ("25",)

    def test_multi_character_names_join_with_commas(self):
        p11 = make_family("path", 11)
        gg = build_gamma_graph(p11, 2)
        assert all("," in name for name in gg.base.names if len(name) > 2)
        # one multi-character name makes every tag join with commas, even a
        # tag of single-character names
        tags = [frozenset({0, 1}), frozenset({2, 10}), frozenset({9})]
        assert tag_names(p11, tags) == ("1,2", "3,11", "10")


def test_json_document():
    g = domination_demo_graph()
    doc = gamma_graph_to_json(g, build_gamma_graph(g, 2))
    assert doc["gamma"] == 1 and doc["d"] == 2
    assert doc["vertices"] == [["2"], ["3"], ["5"], ["6"], ["7"]]
    assert doc["edges"] == sorted(doc["edges"])
    assert all(i < j for i, j in doc["edges"])


def test_node_limit_counts_domination_nodes():
    # the 9-cycle is vertex-transitive, so the one search covers the rest of
    # the cycle from a set through vertex 0: its root packing bound is 2 =
    # gamma - 1, and the search, at size 2, visits 4 nodes
    g = make_family("cycle", 9)
    with pytest.raises(WorkLimitExceeded) as exc:
        build_gamma_graph(g, 1, node_limit=3)
    assert exc.value.examined == 4
    gg = build_gamma_graph(g, 1, node_limit=4)
    assert gg.gamma == 3 and gg.base.n == 3


def test_empty_graph_rejected():
    from gammagraphs import Graph

    with pytest.raises(ValueError):
        build_gamma_graph(Graph.from_edges(0, []), 1)
