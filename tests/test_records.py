"""The package's result and input records: immutable named tuples whose
constructors validate, with the same repr, equality and messages they have
always had."""

import os
import pickle
import subprocess
import sys

import pytest

import gammagraphs
from gammagraphs import (
    Clutter,
    Graph,
    Labelling,
    SearchBudget,
    Verdict,
    build_gamma_graph,
    find_labelling,
    is_valid_labelling,
    make_family,
    min_dominating_sets,
    realize,
    verify_realization,
)
from gammagraphs.classify import classify


def _records():
    """One instance of each of the thirteen records."""
    path3 = make_family("path", 3)
    family = Clutter(3, [{1, 2}])
    realized = realize(family, 1)
    return [
        path3,
        Labelling(2, [{1, 2}, {1, 3}]),
        SearchBudget(k_max=3),
        is_valid_labelling(path3, Labelling(2, [{1, 2}, {1, 3}, {1, 4}])),
        find_labelling(path3),
        Verdict("undecided", 3),
        classify([path3]),
        family,
        min_dominating_sets(path3, 1),
        build_gamma_graph(path3, 1),
        realized.gadgets[0],
        realized,
        verify_realization(realized, family),
    ]


def test_thirteen_distinct_record_types():
    assert len({type(r) for r in _records()}) == 13


@pytest.mark.parametrize(
    "record, text",
    [
        (make_family("path", 2), "Graph(n=2, adj=(2, 1), names=('1', '2'))"),
        (SearchBudget(), "SearchBudget(k_max=None, node_limit=100000000)"),
        (
            Verdict("undecided", 3),
            "Verdict(status='undecided', k_bound=3, labelling=None, witness=None, "
            "witness_form=None)",
        ),
        (
            Labelling(2, [{1, 2}, {1, 3}]),
            "Labelling(k=2, labels=(frozenset({1, 2}), frozenset({1, 3})))",
        ),
        (
            is_valid_labelling(make_family("path", 3), Labelling(2, [{1, 2}, {1, 3}, {1, 4}])),
            "ValidationResult(ok=False, reason='non-adjacent pair overlaps in k-1', "
            "pair=('1', '3'), intersection=1)",
        ),
        (
            find_labelling(make_family("path", 2)),
            "SearchOutcome(status='found', labelling=Labelling(k=1, "
            "labels=(frozenset({1}), frozenset({2}))), k=1, nodes=1)",
        ),
        (
            Clutter(4, [{1, 2}, {3}]),
            "Clutter(ground_size=4, members=(frozenset({3}), frozenset({1, 2})))",
        ),
        (
            min_dominating_sets(make_family("path", 3), 1),
            "DominationResult(d=1, gamma=1, min_sets=(frozenset({1}),))",
        ),
        (
            build_gamma_graph(make_family("path", 3), 1),
            "GammaGraph(base=Graph(n=1, adj=(0,), names=('2',)), tags=(frozenset({1}),), "
            "gamma=1, d=1)",
        ),
        (
            realize(Clutter(3, [{1, 2, 3}]), 1).gadgets[0],
            "GadgetPair(member=frozenset({1}), x='x{1}', y='y{1}', x_path=(), y_path=())",
        ),
        (
            verify_realization(realize(Clutter(3, [{1, 2}]), 1), Clutter(3, [{1, 2}])),
            "VerificationReport(ok=True, gamma=2, missing=(), extra=())",
        ),
    ],
)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_pickle_round_trip(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is type(record) and again == record


def test_unpickling_validates_again():
    # Graph(2, (2, 1), names) with its adjacency edited to (1, 0), which has
    # a self-loop at 0.  Protocol 4 writes the two ints as one-byte ints (K)
    # and TUPLE2 (\x86); protocol 0 as text ints (I...\n) closed by TUPLE (t).
    # Protocols 0 and 1 once rebuilt a record through copyreg._reconstructor,
    # which skipped the validating __new__.
    for protocol, adj, edited in [
        (4, b"K\x02K\x01\x86", b"K\x01K\x00\x86"),
        (0, b"I2\nI1\nt", b"I1\nI0\nt"),
    ]:
        good = pickle.dumps(make_family("path", 2), protocol)
        assert good.count(adj) == 1
        with pytest.raises(ValueError, match="^self-loop at vertex 0$"):
            pickle.loads(good.replace(adj, edited))


def test_equality_and_hash_by_value():
    for a, b in zip(_records(), _records()):
        assert a is not b and a == b
        if type(a).__name__ != "ClassificationReport":  # holds dicts
            assert hash(a) == hash(b)
    assert Labelling(2, [[1, 2]]) == Labelling(2, (frozenset({1, 2}),))
    assert Clutter(3, [{3}, {1, 2}]) == Clutter(3, [{1, 2}, {3}])
    assert SearchBudget(k_max=3) != SearchBudget(k_max=4)
    assert len({make_family("cycle", 4), make_family("cycle", 4), make_family("path", 4)}) == 2


def test_records_are_tuples():
    g = make_family("path", 2)
    n, adj, names = g
    assert (n, adj, names) == (2, (2, 1), ("1", "2")) == g
    assert g[0] == 2 and g._fields == ("n", "adj", "names")
    assert SearchBudget() < SearchBudget(node_limit=10**9)


def test_replace_validates():
    with pytest.raises(ValueError, match="^self-loop at vertex 0$"):
        make_family("path", 2)._replace(adj=(1, 0))
    with pytest.raises(ValueError, match="^label size k must be >= 1$"):
        Labelling(1, [{1}])._replace(k=0)
    with pytest.raises(ValueError, match="^node_limit must be >= 1$"):
        SearchBudget()._replace(node_limit=0)
    with pytest.raises(ValueError, match="^labellable verdicts must carry a labelling$"):
        Verdict("undecided", 3)._replace(status="labellable")
    with pytest.raises(ValueError, match=r"^duplicate member \[1\]$"):
        Clutter._make((2, [{1}, [1]]))


def test_replace_normalises():
    assert Labelling(1, [{1}])._replace(labels=[[2]]).labels == (frozenset({2}),)
    assert Clutter(3, [{1}])._replace(members=[{2, 3}, {1}]).members == (
        frozenset({1}),
        frozenset({2, 3}),
    )
    assert make_family("path", 2)._replace(names=("a", "b")).names == ("a", "b")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(-1, (), ()), "vertex count must be non-negative"),
        (lambda: Graph(2, (2,), ("1", "2")), "adjacency and name tuples must have length n"),
        (lambda: Graph(2, (2, 1), ("1", "1")), "vertex names must be pairwise distinct"),
        (lambda: Graph(2, (4, 1), ("1", "2")), "adjacency mask of vertex 0 leaves the vertex range"),
        (lambda: Graph(2, (1, 0), ("1", "2")), "self-loop at vertex 0"),
        (lambda: Graph(2, (2, 0), ("1", "2")), "adjacency is not symmetric at (0,1)"),
        (lambda: Graph.from_edges(2, [(0, 2)]), "edge (0,2) out of range for n=2"),
        (lambda: Graph.from_edges(2, [(1, 1)]), "self-loop at vertex 1"),
        (lambda: Labelling(0, ()), "label size k must be >= 1"),
        (lambda: Labelling(1, [{0}]), "symbols must be positive integers, got 0"),
        (lambda: Labelling(1, [{"a"}]), "symbols must be positive integers, got 'a'"),
        (lambda: SearchBudget(k_max=0), "k_max must be >= 1"),
        (lambda: SearchBudget(node_limit=0), "node_limit must be >= 1"),
        (lambda: Verdict("labellable", 2), "labellable verdicts must carry a labelling"),
        (
            lambda: Verdict("unlabellable_nonminimal", 2, witness=(0,)),
            "nonminimal verdicts must carry a witness and its form",
        ),
        (lambda: Clutter(-1, ()), "ground size must be non-negative"),
        (lambda: Clutter(3, [{1}, [1]]), "duplicate member [1]"),
        (lambda: Clutter(3, [{4}]), "element 4 outside ground set [1..3]"),
        (
            lambda: Clutter(3, [{1}, {1, 2}]),
            "not an antichain: member [1] is contained in member [1, 2]",
        ),
        (lambda: make_family("fan", 1), "family 'fan' takes 2 parameter(s) (m, n), got 1"),
        (lambda: make_family("path"), "family 'path' takes 1 parameter(s) (n), got 0"),
    ],
)
def test_constructor_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh isolated interpreter: only what the import adds counts, not
    # what site loaded before it
    src = os.path.dirname(os.path.dirname(gammagraphs.__file__))
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import gammagraphs.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True
    )
    added = set(out.stdout.split())
    assert "gammagraphs.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
