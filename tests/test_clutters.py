import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from gammagraphs import Clutter, blocker, validate_clutter
from gammagraphs.clutters import clutter_from_json, clutter_to_json

from helpers import first_contained_pair_message, powerset_blocker, random_clutter


def _sets(*specs):
    return [frozenset(int(ch) for ch in s) for s in specs]


class TestValidation:
    def test_reference_family_accepted(self):
        c = validate_clutter(4, _sets("123", "124"))
        assert c.members == tuple(_sets("123", "124"))

    def test_containment_rejected_naming_pair(self):
        with pytest.raises(ValueError, match=r"\[1\].*\[1, 2\]"):
            validate_clutter(2, _sets("1", "12"))

    def test_first_contained_pair_named_in_member_order(self):
        # [2] lies in [2, 4] and [1, 3] in [1, 2, 3]; the first by member order is named
        with pytest.raises(ValueError) as err:
            validate_clutter(5, _sets("123", "24", "13", "2"))
        assert str(err.value) == "not an antichain: member [2] is contained in member [2, 4]"
        with pytest.raises(ValueError) as err:
            Clutter(3, (frozenset(), frozenset({1})))
        assert str(err.value) == "not an antichain: member [] is contained in member [1]"

    def test_out_of_range_element(self):
        with pytest.raises(ValueError, match="element 5"):
            validate_clutter(4, _sets("15"))

    def test_empty_family_ok(self):
        assert validate_clutter(1, []).members == ()

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Clutter(3, (frozenset({1}), frozenset({1})))

    def test_members_sorted_by_size_then_lex(self):
        c = validate_clutter(4, _sets("34", "2", "13"))
        assert [sorted(m) for m in c.members] == [[2], [1, 3], [3, 4]]

    def test_seeded_families_match_pairwise_scan(self):
        """Seeded families over 1-12 symbols, every other one with a planted
        containment: Clutter accepts exactly the antichains, and names the same
        first offending pair as a scan of every pair."""
        rng = random.Random(2026)
        for trial in range(600):
            n = rng.randint(1, 12)
            family = {frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
                      for _ in range(rng.randint(1, 3 * n))}
            family = {s for s in family if not any(o < s for o in family)}
            if trial % 2:
                outer = rng.choice(sorted(family, key=sorted))
                family.add(frozenset(rng.sample(sorted(outer), rng.randrange(len(outer)))))
            expected = first_contained_pair_message(family)
            assert (expected is not None) == bool(trial % 2)
            if expected is None:
                assert Clutter(n, tuple(family)).member_sets() == family
            else:
                with pytest.raises(ValueError) as err:
                    Clutter(n, tuple(family))
                assert str(err.value) == expected


class TestBlocker:
    def test_reference_example(self):
        c = validate_clutter(4, _sets("123", "124"))
        assert [sorted(m) for m in blocker(c).members] == [[1], [2], [3, 4]]

    def test_singleton_fixed_point(self):
        c = validate_clutter(1, _sets("1"))
        assert blocker(c).members == c.members

    def test_five_member_reference_family(self):
        c = validate_clutter(8, _sets("1234", "1235", "1246", "2357", "3578"))
        expected = _sets("13", "15", "17", "23", "25", "27", "28", "34", "36", "45")
        assert set(blocker(c).members) == set(expected)

    def test_empty_clutter_rejected(self):
        with pytest.raises(ValueError):
            blocker(validate_clutter(3, []))

    def test_clutter_of_empty_set(self):
        c = Clutter(3, (frozenset(),))
        assert blocker(c).members == ()

    def test_ground_element_missing_from_all_members(self):
        c = validate_clutter(3, _sets("1"))
        assert [sorted(m) for m in blocker(c).members] == [[1]]


def _all_clutters(n):
    """Every nonempty antichain of nonempty subsets of [1..n]."""
    subsets = [frozenset(c) for size in range(1, n + 1)
               for c in itertools.combinations(range(1, n + 1), size)]
    for mask in range(1, 1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if (mask >> i) & 1]
        if all(not (a < b) for a in fam for b in fam):
            yield Clutter(n, tuple(fam))


class TestInvolution:
    def test_exhaustive_small_ground_sets(self):
        counts = {}
        for n in range(1, 5):
            clutters = list(_all_clutters(n))
            counts[n] = len(clutters)
            for c in clutters:
                assert blocker(blocker(c)).members == c.members
        # antichain counts minus the two degenerate families
        assert counts == {1: 1, 2: 4, 3: 18, 4: 166}

    def test_seeded_random_sample(self):
        rng = random.Random(11)
        for _ in range(300):
            c = random_clutter(rng, rng.randint(1, 10))
            assert blocker(blocker(c)).members == c.members

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(1, 8), st.data())
    def test_involution_hypothesis(self, n, data):
        subsets = [
            frozenset(c)
            for size in range(1, n + 1)
            for c in itertools.combinations(range(1, n + 1), size)
        ]
        family = data.draw(st.sets(st.sampled_from(subsets), min_size=1, max_size=12))
        minimal = {s for s in family if not any(o < s for o in family)}
        c = Clutter(n, tuple(minimal))
        assert blocker(blocker(c)).members == c.members


@st.composite
def _clutters(draw):
    """A clutter over a ground set of 1-8 elements, drawn from all its
    subsets, the empty one included."""
    n = draw(st.integers(1, 8))
    subsets = [
        frozenset(c) for size in range(n + 1) for c in itertools.combinations(range(1, n + 1), size)
    ]
    family = draw(st.sets(st.sampled_from(subsets), min_size=1, max_size=12))
    return Clutter(n, tuple(s for s in family if not any(o < s for o in family)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_clutters())
@example(Clutter(3, (frozenset(),)))
@example(Clutter(8, (frozenset({2, 5}), frozenset({5, 7}))))
def test_blocker_matches_powerset_oracle(c):
    assert blocker(c) == powerset_blocker(c)


class TestMinimality:
    def test_blocker_members_are_minimal_transversals(self):
        rng = random.Random(5)
        for _ in range(60):
            c = random_clutter(rng, rng.randint(2, 8))
            b = blocker(c)
            for t in b.members:
                assert all(t & m for m in c.members)
                for e in t:
                    smaller = t - {e}
                    assert any(not (smaller & m) for m in c.members)

    def test_forty_members_over_twenty_symbols(self):
        rng = random.Random(1)
        family: set[frozenset[int]] = set()
        while len(family) < 40:
            family.add(frozenset(rng.sample(range(1, 21), 3)))
        c = Clutter(20, tuple(family))
        b = blocker(c)
        assert len(b.members) == 646
        assert blocker(b) == c
        for t in b.members:
            assert all(t & m for m in c.members)
            for e in t:
                assert any(t & m == {e} for m in c.members)


def test_json_roundtrip():
    c = validate_clutter(4, _sets("123", "124"))
    doc = clutter_to_json(c)
    assert doc == {"n": 4, "members": [[1, 2, 3], [1, 2, 4]]}
    assert clutter_from_json(doc).members == c.members


def test_json_member_with_a_repeated_element_rejected():
    with pytest.raises(ValueError, match=r"^member \[2, 1, 2\] repeats an element$"):
        clutter_from_json({"n": 3, "members": [[1, 3], [2, 1, 2]]})
