"""Acceptance suite: every criterion runs at its stated time bound and
prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`
to watch the lines appear."""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from gammagraphs import (
    Labelling,
    SearchBudget,
    are_isomorphic,
    blocker,
    build_gamma_graph,
    canonical_form,
    is_valid_labelling,
    make_family,
    min_dominating_sets,
    parse_graph6,
    realize,
    star_labelling,
    validate_clutter,
    verify_realization,
    wheel_labelling,
    write_graph6,
)
from gammagraphs.classify import (
    LABELLABLE,
    MINIMALLY_UNLABELLABLE,
    UNLABELLABLE_NONMINIMAL,
    decide_labellable,
    enumerate_connected_graphs,
    is_minimally_unlabellable,
)
from gammagraphs.clutters import Clutter
from gammagraphs.realizer import construction_size, prior_construction_size

from fixtures import (
    DEMO_GAMMA1_EDGES,
    DEMO_GAMMA1_SETS,
    DEMO_GAMMA2_SETS,
    WHEEL9_LABELS,
    domination_demo_graph,
    minimal_unlabellable_five,
    minimal_unlabellable_six,
    seven_vertex_a,
    seven_vertex_b,
    seven_vertex_closing,
    seven_vertex_minimal,
)
from helpers import (
    check_induced_path_middles,
    check_triangle_forms,
    powerset_min_dominating,
    random_clutter,
    random_graph,
)


@contextmanager
def criterion(name: str, limit_seconds: float, elapsed_override: float | None = None):
    """Times the block (or takes a precomputed elapsed time for work done in a
    shared fixture) and prints one PASS/FAIL line."""
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = elapsed_override if elapsed_override is not None else time.perf_counter() - start
    within = elapsed < limit_seconds
    print(f"ACCEPTANCE {name}: {'PASS' if within else 'FAIL'} ({elapsed:.2f}s / limit {limit_seconds:.0f}s)")
    assert within, f"{name} took {elapsed:.2f}s, over the {limit_seconds}s limit"


def test_gamma_demo_reproduction():
    with criterion("gamma-demo", 1.0):
        g = domination_demo_graph()
        gg1 = build_gamma_graph(g, 1)
        assert gg1.gamma == 2
        tags1 = {frozenset(v + 1 for v in t) for t in gg1.tags}
        assert tags1 == set(DEMO_GAMMA1_SETS)
        edges1 = {
            tuple(sorted((gg1.base.names[i], gg1.base.names[j])))
            for i, j in gg1.base.edges()
        }
        assert edges1 == {tuple(sorted(e)) for e in DEMO_GAMMA1_EDGES}

        gg2 = build_gamma_graph(g, 2)
        assert gg2.gamma == 1
        tags2 = {frozenset(v + 1 for v in t) for t in gg2.tags}
        assert tags2 == set(DEMO_GAMMA2_SETS)
        assert gg2.base.n == 5 and gg2.base.edge_count == 10  # K5


def _exhaustive_uniform_families(max_n: int, max_k: int):
    for n in range(1, max_n + 1):
        for k in range(1, min(max_k, n) + 1):
            pool = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
            for mask in range(1, 1 << len(pool)):
                members = [pool[i] for i in range(len(pool)) if (mask >> i) & 1]
                yield Clutter(n, tuple(members))


def test_realization_roundtrip():
    with criterion("realization-roundtrip", 300.0):
        rng = random.Random(20250808)
        trials = 0
        while trials < 200:
            n = rng.randint(1, 6)
            k = rng.randint(1, min(3, n))
            pool = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
            members = rng.sample(pool, rng.randint(1, len(pool)))
            family = Clutter(n, tuple(members))
            d = rng.randint(1, 3)
            report = verify_realization(realize(family, d), family)
            assert report.ok, (family, d)
            assert report.gamma == k
            trials += 1
        for family in _exhaustive_uniform_families(4, 2):
            for d in (1, 2, 3):
                assert verify_realization(realize(family, d), family).ok, (family, d)


def test_size_table():
    with criterion("size-table", 1.0):
        small = validate_clutter(4, [frozenset({1, 2, 3}), frozenset({1, 2, 4})])
        big = validate_clutter(
            8,
            [
                frozenset({1, 2, 3, 4}),
                frozenset({1, 2, 3, 5}),
                frozenset({1, 2, 4, 6}),
                frozenset({2, 3, 5, 7}),
                frozenset({3, 5, 7, 8}),
            ],
        )
        assert construction_size(small, 3) == (22, 26)
        assert construction_size(small, 1) == (10, 14)
        assert construction_size(big, 1) == (28, 68)
        assert prior_construction_size(small) == (36, 62)
        assert prior_construction_size(big) == (613, 2728)


def _all_clutters_on(n: int):
    subsets = [
        frozenset(c)
        for size in range(1, n + 1)
        for c in itertools.combinations(range(1, n + 1), size)
    ]
    for mask in range(1, 1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if (mask >> i) & 1]
        if all(not (a < b) for a in fam for b in fam):
            yield Clutter(n, tuple(fam))


def test_blocker_involution():
    with criterion("blocker-involution", 60.0):
        for n in range(1, 5):
            for c in _all_clutters_on(n):
                assert blocker(blocker(c)).members == c.members
        rng = random.Random(424242)
        for _ in range(1000):
            c = random_clutter(rng, rng.randint(1, 10))
            assert blocker(blocker(c)).members == c.members


def test_classification_up_to_five_vertices(classification_upto5):
    report, elapsed = classification_upto5
    with criterion("classify-upto-5", 60.0, elapsed_override=elapsed):
        assert report.counts[LABELLABLE] == 27
        assert report.counts[MINIMALLY_UNLABELLABLE] == 4
        assert report.counts[UNLABELLABLE_NONMINIMAL] == 0
        found = {w for w, v in report.verdicts.items() if v.status == MINIMALLY_UNLABELLABLE}
        references = minimal_unlabellable_five()
        assert found == {canonical_form(g).decode() for g in references}
        k23 = make_family("complete_bipartite", 2, 3)
        assert canonical_form(k23).decode() in found
        assert canonical_form(references[3]).decode() in found  # K5 minus an edge


def test_classification_six_vertices(classification_six):
    report, elapsed = classification_six
    with criterion("classify-6", 600.0, elapsed_override=elapsed):
        assert report.counts[LABELLABLE] == 69
        assert report.counts[UNLABELLABLE_NONMINIMAL] == 39
        assert report.counts[MINIMALLY_UNLABELLABLE] == 4
        found = {w for w, v in report.verdicts.items() if v.status == MINIMALLY_UNLABELLABLE}
        assert found == {canonical_form(g).decode() for g in minimal_unlabellable_six()}
        assert canonical_form(make_family("wheel", 6)).decode() in found


def test_labellable_graphs_are_gamma_graphs(classification_upto5, classification_six):
    """The paper's main theorem, end to end: realizing a labelling of H with
    label size k gives, at every d, a graph whose minimum dominating sets
    have size k and whose gamma-graph is H.  Run on every labellable
    connected graph with at most six vertices, labelled by `classify`, and
    on the closed-form wheel and star labellings."""
    with criterion("labellable-are-gamma-graphs", 5.0):
        cases = [
            (parse_graph6(word), verdict.labelling)
            for report, _ in (classification_upto5, classification_six)
            for word, verdict in report.verdicts.items()
            if verdict.status == LABELLABLE
        ]
        assert len(cases) == 27 + 69
        cases += [(make_family("wheel", n), wheel_labelling(n)) for n in (4, 5, 7, 9)]
        cases += [(make_family("fan", m, 1), star_labelling(m)) for m in (1, 2, 3, 4)]
        for h, lab in cases:
            family = Clutter(lab.max_symbol(), lab.labels)
            for d in (1, 2, 3):
                gg = build_gamma_graph(realize(family, d).graph, d)
                assert gg.gamma == lab.k, (write_graph6(h), d)
                assert are_isomorphic(gg.base, h), (write_graph6(h), d)


def test_wheel_and_fan_families():
    with criterion("family-verdicts", 600.0):
        budget = SearchBudget(k_max=6)
        for n in (4, 5, 7, 9, 11, 13):
            verdict = decide_labellable(make_family("wheel", n), budget)
            assert verdict.status == LABELLABLE, f"wheel {n}"
        for n in (6, 8, 10, 12):
            verdict = is_minimally_unlabellable(make_family("wheel", n), budget)
            assert verdict.status == MINIMALLY_UNLABELLABLE, f"wheel {n}"

        assert wheel_labelling(9).labels == WHEEL9_LABELS
        assert is_valid_labelling(make_family("wheel", 9), wheel_labelling(9))

        labellable_fans = [(2, 2), (2, 3)]
        labellable_fans += [(m, 1) for m in range(1, 7)]
        labellable_fans += [(1, n) for n in range(1, 7)]
        for m, n in labellable_fans:
            verdict = decide_labellable(make_family("fan", m, n), budget)
            assert verdict.status == LABELLABLE, f"fan {(m, n)}"
        verdict = is_minimally_unlabellable(make_family("fan", 3, 2), budget)
        assert verdict.status == MINIMALLY_UNLABELLABLE
        for m, n in ((2, 4), (4, 2)):
            verdict = is_minimally_unlabellable(make_family("fan", m, n), budget)
            assert verdict.status == UNLABELLABLE_NONMINIMAL, f"fan {(m, n)}"


@pytest.mark.parametrize(
    "family, params, k, limit_seconds",
    [("path", (1500,), 2, 1.5), ("complete_bipartite", (1, 1499), 1499, 5.0)],
    ids=["path-1500", "star-1499"],
)
def test_large_sparse_decisions(family, params, k, limit_seconds):
    # every block is a bridge, 1499 of them: the block search keeps its own
    # stack, so no recursion limit applies, and each glue reads only the
    # glued vertex's swapped-out symbols.  On a 2-vCPU host the path takes
    # 0.15-0.3 s; the star's labels hold 1499 symbols each, and it takes
    # 1.4-2.3 s, about 0.85 s of it in the closing validity check.
    g = make_family(family, *params)
    with criterion(f"decide-{family}-{g.n}", limit_seconds):
        verdict = decide_labellable(g)
    assert verdict.status == LABELLABLE and verdict.labelling.k == k


def test_seven_vertex_fixtures():
    with criterion("seven-vertex-fixtures", 300.0):
        budget7 = SearchBudget(k_max=7)
        for graph, lab in (seven_vertex_a(), seven_vertex_b()):
            assert is_valid_labelling(graph, lab)
            assert decide_labellable(graph, budget7).status == LABELLABLE
        verdict = is_minimally_unlabellable(seven_vertex_minimal(), budget7)
        assert verdict.status == MINIMALLY_UNLABELLABLE
        closing_graph, closing_lab = seven_vertex_closing()
        assert closing_lab.labels == tuple(
            frozenset(int(ch) for ch in s)
            for s in ("234", "123", "135", "145", "456", "246", "126")
        )
        assert is_valid_labelling(closing_graph, closing_lab)


def test_property_suites(classification_upto5, classification_six):
    with criterion("property-suites", 600.0):
        # every found labelling respects the induced-path candidate rule
        found: list[tuple] = []
        for report in (classification_upto5[0], classification_six[0]):
            for word, verdict in report.verdicts.items():
                if verdict.status == LABELLABLE:
                    found.append((parse_graph6(word), verdict.labelling))
        found.append((make_family("wheel", 9), wheel_labelling(9)))
        found.append(seven_vertex_a())
        found.append(seven_vertex_b())
        found.append(seven_vertex_closing())
        for g, lab in found:
            check_induced_path_middles(g, lab)
            if g.n <= 6:
                check_triangle_forms(g, lab)

        # gamma-graph vertex labels always form a valid labelling
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                for d in (1, 2):
                    gg = build_gamma_graph(g, d)
                    lab = Labelling(
                        gg.gamma, tuple(frozenset(v + 1 for v in t) for t in gg.tags)
                    )
                    assert is_valid_labelling(gg.base, lab)

        # sized enumeration equals the powerset brute force
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                for d in (1, 2, 3):
                    gamma, sets = powerset_min_dominating(g, d)
                    result = min_dominating_sets(g, d)
                    assert (result.gamma, set(result.min_sets)) == (gamma, sets)
        rng = random.Random(8)
        for n in (7, 8):
            for _ in range(30):
                g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
                for d in (1, 2, 3):
                    gamma, sets = powerset_min_dominating(g, d)
                    result = min_dominating_sets(g, d)
                    assert (result.gamma, set(result.min_sets)) == (gamma, sets)
