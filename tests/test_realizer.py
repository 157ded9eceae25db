import itertools
import random

import pytest

from gammagraphs import min_dominating_sets, validate_clutter
from gammagraphs.realizer import (
    construction_size,
    prior_construction_size,
    realize,
    realized_to_json,
    verify_realization,
)


def _sets(*specs):
    return [frozenset(int(ch) for ch in s) for s in specs]


SMALL = validate_clutter(4, _sets("123", "124"))
BIG = validate_clutter(8, _sets("1234", "1235", "1246", "2357", "3578"))


class TestSizes:
    def test_reference_table(self):
        assert construction_size(SMALL, 3) == (22, 26)
        assert construction_size(SMALL, 1) == (10, 14)
        assert construction_size(BIG, 1) == (28, 68)

    def test_prior_construction_table(self):
        assert prior_construction_size(SMALL) == (36, 62)
        assert prior_construction_size(BIG) == (613, 2728)
        assert prior_construction_size(validate_clutter(1, _sets("1"))) == (3, 2)

    def test_measured_size_matches_formula(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 5)
            k = rng.randint(1, min(3, n))
            pool = list(itertools.combinations(range(1, n + 1), k))
            fam = validate_clutter(n, [frozenset(m) for m in rng.sample(pool, rng.randint(1, len(pool)))])
            d = rng.randint(1, 3)
            r = realize(fam, d)
            assert (r.graph.n, r.graph.edge_count) == construction_size(fam, d)

    def test_economy_on_reference_examples(self):
        for fam in (SMALL, BIG):
            ours = construction_size(fam, 1)
            prior = prior_construction_size(fam)
            assert ours[0] <= prior[0] and ours[1] <= prior[1]


class TestConstruction:
    def test_singleton_family(self):
        fam = validate_clutter(1, _sets("1"))
        r = realize(fam, 1)
        assert (r.graph.n, r.graph.edge_count) == (3, 2)
        assert r.graph.names == ("1", "x{1}", "y{1}")
        result = min_dominating_sets(r.graph, 1)
        assert result.min_sets == (frozenset({0}),)

    def test_core_is_complete(self):
        r = realize(SMALL, 2)
        for u in range(r.core_size):
            for v in range(u + 1, r.core_size):
                assert r.graph.has_edge(u, v)

    def test_gadget_attachment_and_paths(self):
        r = realize(SMALL, 3)
        for gadget in r.gadgets:
            for head, path in ((gadget.x, gadget.x_path), (gadget.y, gadget.y_path)):
                head_idx = r.graph.names.index(head)
                core_nbrs = {v for v in r.graph.neighbors(head_idx) if v < r.core_size}
                assert {v + 1 for v in core_nbrs} == set(gadget.member)
                assert len(path) == r.d - 1
                chain = [head_idx] + [r.graph.names.index(p) for p in path]
                for a, b in zip(chain, chain[1:]):
                    assert r.graph.has_edge(a, b)
                assert r.graph.degree(chain[-1]) == 1  # pendant tip

    def test_relabelling_recorded(self):
        fam = validate_clutter(9, [frozenset({3, 7}), frozenset({3, 9})])
        r = realize(fam, 1)
        assert dict(r.relabelling) == {3: 1, 7: 2, 9: 3}
        assert verify_realization(r, fam).ok

    def test_errors(self):
        with pytest.raises(ValueError):
            realize(validate_clutter(3, []), 1)
        with pytest.raises(ValueError):
            realize(validate_clutter(3, _sets("1", "23")), 1)
        with pytest.raises(ValueError):
            realize(SMALL, 0)


class TestVerification:
    def test_worked_example(self):
        r = realize(SMALL, 3)
        assert verify_realization(r, SMALL).ok

    def test_pair_family_distance_two(self):
        fam = validate_clutter(2, _sets("12"))
        assert verify_realization(realize(fam, 2), fam).ok

    def test_mismatch_reports_extra_set(self):
        reduced = validate_clutter(4, _sets("123"))
        r = realize(SMALL, 1)
        report = verify_realization(r, reduced)
        assert not report.ok
        assert report.extra and not report.missing

    def test_mismatch_reports_missing_set(self):
        enlarged = validate_clutter(5, _sets("123", "124", "125"))
        r = realize(SMALL, 1)
        report = verify_realization(r, enlarged)
        assert not report.ok
        assert ((1, 2, 5),) == report.missing

    def test_no_min_set_touches_gadgets(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(2, 5)
            k = rng.randint(1, 2)
            pool = list(itertools.combinations(range(1, n + 1), k))
            fam = validate_clutter(n, [frozenset(m) for m in rng.sample(pool, rng.randint(1, len(pool)))])
            r = realize(fam, rng.randint(1, 2))
            for s in min_dominating_sets(r.graph, r.d).min_sets:
                assert all(v < r.core_size for v in s)


def test_json_document():
    doc = realized_to_json(realize(SMALL, 3), SMALL)
    assert doc["vertices"] == 22 and doc["edges"] == 26
    assert doc["construction_size"] == [22, 26]
    assert doc["prior_construction_size"] == [36, 62]
    assert doc["relabelling"] == {"1": 1, "2": 2, "3": 3, "4": 4}
    assert "graph6" in doc
    all_triples = validate_clutter(6, [frozenset(c) for c in itertools.combinations(range(1, 7), 3)])
    big = realize(all_triples, 3)
    assert big.graph.n > 62
    assert "graph6" not in realized_to_json(big, all_triples)
