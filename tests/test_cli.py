import argparse
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import gammagraphs.cli as cli
import gammagraphs.realizer as realizer
from gammagraphs import SearchBudget, blocker, make_family, min_dominating_sets, write_graph6
from gammagraphs.classify import classify_connected, report_to_json
from gammagraphs.cli import build_parser, run
from gammagraphs.errors import DEFAULT_NODE_LIMIT

from fixtures import domination_demo_graph

DEMO_WORD = write_graph6(domination_demo_graph())
PATH60_D3_SHA256 = "bed4062d4d276337151f53b4f05338eb90b3405e0c3a348235b59d06f97bee72"


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGamma:
    def test_demo_graph(self, capsys):
        code, doc = _run_json(capsys, ["gamma", "--d", "1", "--graph6", DEMO_WORD])
        assert code == 0
        assert doc["gamma"] == 2
        assert doc["min_sets"] == [["1", "5"], ["2", "5"], ["3", "6"], ["4", "6"], ["5", "6"]]

    def test_distance_two(self, capsys):
        code, doc = _run_json(capsys, ["gamma", "--d", "2", "--graph6", DEMO_WORD])
        assert code == 0 and doc["gamma"] == 1

    def test_file_input_emits_list(self, tmp_path, capsys):
        path = tmp_path / "graphs.g6"
        path.write_text("Bw\nA_\n")
        code, docs = _run_json(capsys, ["gamma", "--d", "1", "--in", str(path)])
        assert code == 0 and [d["gamma"] for d in docs] == [1, 1]

    def test_file_input_exhaustion_emits_nothing(self, tmp_path, capsys):
        # cycle(9), the second graph, runs out of budget after K3 was solved;
        # both are searched through vertex 0, K3 in no node and cycle(9) in 4
        path = tmp_path / "graphs.g6"
        path.write_text("Bw\nHhCGGE@\n")
        assert run(["gamma", "--d", "1", "--in", str(path), "--node-limit", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "4 nodes examined" in captured.err

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_node_limit_below_one_is_usage_error(self, capsys, limit):
        code = run(["gamma", "--d", "1", "--graph6", "FhNGW", "--node-limit", limit])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "node_limit" in captured.err


class TestGammaGraph:
    def test_demo_graph(self, capsys):
        code, doc = _run_json(capsys, ["gammagraph", "--d", "1", "--graph6", DEMO_WORD])
        assert code == 0
        assert doc["gamma"] == 2
        assert doc["vertices"] == [["1", "5"], ["2", "5"], ["3", "6"], ["4", "6"], ["5", "6"]]
        assert len(doc["edges"]) == 6

    def test_node_limit_exhaustion_exit_code(self, capsys):
        # cycle(9): the one search, through vertex 0 at the root packing
        # bound 2 of the rest of the cycle, visits 4 nodes
        argv = ["gammagraph", "--d", "1", "--graph6", "HhCGGE@", "--node-limit"]
        assert run(argv + ["3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "4 nodes examined" in captured.err
        code, doc = _run_json(capsys, argv + ["4"])
        assert code == 0 and doc["gamma"] == 3 and len(doc["vertices"]) == 3

    def test_long_path_output_pinned(self, capsys):
        # sha256 of the stdout for path(60) at d = 3 (220 sets, 594 edges),
        # taken before the edges came from shared (gamma-1)-subsets
        word = write_graph6(make_family("path", 60))
        assert run(["gammagraph", "--d", "3", "--graph6", word]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PATH60_D3_SHA256


class TestRealize:
    def test_worked_example(self, capsys):
        code, doc = _run_json(capsys, ["realize", "--d", "3", "--sets", "123,124", "--verify"])
        assert code == 0
        assert doc["vertices"] == 22 and doc["edges"] == 26
        assert doc["verified"] is True

    def test_sets_file(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"n": 4, "members": [[1, 2, 3], [1, 2, 4]]}))
        code, doc = _run_json(capsys, ["realize", "--d", "1", "--sets-file", str(path)])
        assert code == 0 and doc["vertices"] == 10 and doc["edges"] == 14

    def test_verified_run_dualises_the_family_once(self, capsys, monkeypatch):
        calls = []

        def counting_blocker(c):
            calls.append(c)
            return blocker(c)

        monkeypatch.setattr(realizer, "blocker", counting_blocker)
        realizer._dualised.cache_clear()
        code = run(["realize", "--d", "2", "--sets", "1234,1235,1246,2357,3578", "--verify"])
        assert code == 0 and len(calls) == 1
        expected = {
            "d": 2,
            "core_size": 8,
            "relabelling": {str(s): s for s in range(1, 9)},
            "vertices": 48,
            "edges": 88,
            "construction_size": [48, 88],
            "prior_construction_size": [613, 2728],
            "graph6": "o~~~~}_?L??@a???p???@__???KC????D_?????J??????@Q???????h???????@O_???????IC"
                      "????????D@?????????IA?????????@K???????????e???????????@H????????????HG???"
                      "?????????CW?????????????Go?????????????@",
            "verified": True,
        }
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_bad_sets_spec(self, capsys):
        assert run(["realize", "--d", "1", "--sets", "12,banana"]) == 2

    def test_mixed_sizes_rejected(self, capsys):
        assert run(["realize", "--d", "1", "--sets", "12,345"]) == 2


class TestBlocker:
    def test_worked_example(self, capsys):
        code, doc = _run_json(capsys, ["blocker", "--sets", "123,124"])
        assert code == 0
        assert doc == {"n": 4, "members": [[1], [2], [3, 4]]}

    def test_member_longer_than_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "singletons.json"
        path.write_text(json.dumps({"n": 1100, "members": [[e] for e in range(1, 1101)]}))
        code, doc = _run_json(capsys, ["blocker", "--sets-file", str(path)])
        assert code == 0
        assert doc == {"n": 1100, "members": [list(range(1, 1101))]}


@pytest.mark.parametrize("command", [["blocker"], ["realize", "--d", "1"]])
@pytest.mark.parametrize(
    "doc",
    [
        {"members": [[1, 2]]},
        {"n": 3},
        {"n": 3, "members": 5},
        {"n": 3, "members": [[1], 2]},
        {"n": 3, "members": [[1, "2"]]},
        {"n": 3.0, "members": [[1, 2]]},
        [1, 2],
        {"n": 3, "members": [[1, 1, 2]]},
    ],
)
def test_malformed_sets_file_is_usage_error(tmp_path, capsys, command, doc):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    assert run(command + ["--sets-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("command", [["blocker"], ["realize", "--d", "1"]])
@pytest.mark.parametrize(
    "source, member",
    [
        (["--sets", "112,13"], "[1, 1, 2]"),
        (["--sets", "12, 343"], "[3, 4, 3]"),
        (["--sets-file", "family.json"], "[1, 3, 1]"),
    ],
    ids=["sets", "sets-later-member", "sets-file"],
)
def test_repeated_element_is_usage_error(tmp_path, monkeypatch, capsys, command, source, member):
    # a repeated element is an input error, not merged into a smaller member
    (tmp_path / "family.json").write_text(json.dumps({"n": 3, "members": [[1, 2], [1, 3, 1]]}))
    monkeypatch.chdir(tmp_path)
    assert run(command + source) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: member {member} repeats an element\n"


@pytest.mark.parametrize("spec", ["1\u0663,12", "1\u00b2,13"], ids=["arabic-indic", "superscript"])
def test_non_ascii_digits_are_usage_error(capsys, spec):
    # str.isdigit accepts these; int() would read the first as 3 and reject the second
    assert run(["blocker", "--sets", spec]) == 2
    captured = capsys.readouterr()
    first = spec.split(",")[0]
    assert captured.out == ""
    assert captured.err == f"error: --sets expects comma-separated digit strings, got {first!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--d", "1", "--graph6", ""],
        ["gammagraph", "--d", "1", "--graph6", ""],
        ["label", "--graph6", ""],
        ["blocker", "--sets", ""],
        ["realize", "--d", "1", "--sets", ""],
    ],
    ids=lambda argv: argv[0],
)
def test_empty_source_string_is_usage_error(capsys, argv):
    # an empty value is still the source given, not a missing one
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "empty graph6 word" in captured.err or "--sets expects" in captured.err


class TestLabel:
    def test_found(self, capsys):
        word = write_graph6(make_family("cycle", 5))
        code, doc = _run_json(capsys, ["label", "--graph6", word, "--k-max", "2"])
        assert code == 0 and doc["status"] == "found" and doc["k"] == 2

    def test_absent(self, capsys):
        word = write_graph6(make_family("complete_bipartite", 2, 3))
        code, doc = _run_json(capsys, ["label", "--graph6", word, "--k-max", "6"])
        assert code == 0 and doc["status"] == "absent_up_to_k" and doc["k_max"] == 6

    def test_budget_exhaustion_exit_code(self, capsys):
        word = write_graph6(make_family("complete_bipartite", 2, 3))
        code, doc = _run_json(
            capsys, ["label", "--graph6", word, "--k-max", "6", "--node-limit", "3"]
        )
        assert code == 3 and doc["status"] == "budget_exhausted"

    def test_disconnected_is_a_usage_error(self, capsys):
        assert run(["label", "--graph6", "B?"]) == 2

    def test_file_input_emits_every_outcome(self, tmp_path, capsys):
        # one exhausted search sets the exit code; the list still holds both
        path = tmp_path / "graphs.g6"
        path.write_text("Bw\nD]o\n")
        argv = ["label", "--in", str(path), "--k-max", "6", "--node-limit", "181"]
        code, docs = _run_json(capsys, argv)
        assert code == 3
        assert [(d["status"], d.get("k")) for d in docs] == [("found", 1), ("budget_exhausted", None)]
        assert (docs[1]["nodes"], docs[1]["frontier_k"]) == (182, 4)


class TestClassify:
    def test_max_n_three(self, capsys):
        code, doc = _run_json(capsys, ["classify", "--max-n", "3", "--k-max", "4"])
        assert code == 0
        assert doc["counts"]["labellable"] == 4
        assert sum(doc["counts"].values()) == 4
        assert list(doc["verdicts"]) == sorted(doc["verdicts"])

    def test_summary_on_stderr(self, capsys):
        run(["classify", "--max-n", "2", "--k-max", "2"])
        captured = capsys.readouterr()
        assert "labellable" in captured.err

    def test_max_n_six_reproduces_reference_counts(self, capsys):
        code = run(["classify", "--max-n", "6", "--k-max", "6"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 0
        assert doc["counts"]["labellable"] == 27 + 69
        assert doc["counts"]["minimally_unlabellable"] == 4 + 4
        assert doc["counts"]["unlabellable_nonminimal"] == 39
        six_row = [line for line in captured.err.splitlines() if line.strip().startswith("6 ")]
        assert six_row and "69" in six_row[0] and "39" in six_row[0]

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_max_n_below_one_is_usage_error(self, capsys, max_n):
        code = run(["classify", "--max-n", max_n])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-n must be >= 1" in captured.err

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "batch.g6"
        path.write_text(write_graph6(make_family("complete_bipartite", 2, 3)) + "\n")
        code, doc = _run_json(capsys, ["classify", "--in", str(path), "--k-max", "6"])
        assert code == 0
        assert doc["counts"]["minimally_unlabellable"] == 1
        (verdict,) = doc["verdicts"].values()
        assert verdict["k_bound"] == 6

    def test_batch_beyond_canonical_forms(self, tmp_path, capsys):
        # path(17) and path(18): canonical forms stop at 16 vertices, so the
        # 18-vertex graph is searched before its 17-vertex deletions are read
        paths = ["PhCGGC@?G?_@?@??_?G?@??C", "QhCGGC@?G?_@?@??_?G?@??C??G"]
        path = tmp_path / "paths.g6"
        path.write_text("\n".join(paths) + "\n")
        code, doc = _run_json(capsys, ["classify", "--in", str(path)])
        assert code == 0
        assert {w: v["status"] for w, v in doc["verdicts"].items()} == dict.fromkeys(paths, "labellable")

    def test_unlabellable_batch_beyond_canonical_forms_is_usage_error(self, tmp_path, capsys):
        # K_{2,3} with a 13-vertex tail: unlabellable, so its deletions need forms
        path = tmp_path / "tail.g6"
        path.write_text("Q]oGGC@?G?_@?@??_?G?@??C??G\n")
        assert run(["classify", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: canonical form supports at most 16 vertices, got 17\n"

    def test_malformed_file_word_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "batch.g6"
        path.write_text("Bw\nA`\n")
        assert run(["classify", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: nonzero padding bits (byte offset 1)\n"


class TestFamily:
    def test_wheel(self, capsys):
        code, doc = _run_json(capsys, ["family", "wheel", "9"])
        assert code == 0
        assert doc["vertices"] == 9 and doc["edges"] == 16
        assert doc["graph6"] == write_graph6(make_family("wheel", 9))

    def test_fan_two_params(self, capsys):
        code, doc = _run_json(capsys, ["family", "fan", "3", "2"])
        assert code == 0 and doc["vertices"] == 5 and doc["edges"] == 7

    def test_bad_parameters(self, capsys):
        assert run(["family", "wheel", "3"]) == 2

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["family", "fan", "0"], "takes 2 parameter(s) (m, n), got 1"),
            (["family", "path", "3", "4"], "takes 1 parameter(s) (n), got 2"),
            (["family", "complete-bipartite", "1", "2", "3"], "takes 2 parameter(s) (m, n), got 3"),
        ],
        ids=["fan-one", "path-two", "bipartite-three"],
    )
    def test_wrong_parameter_count_is_usage_error(self, capsys, argv, expected):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert expected in captured.err


MIXED_BATCH = ["GwCGg?", "B?", "F]o?G", "Gh?GW[", "Dhc", "IJ??GC@@G"]
FOREST_BATCH = ["HhCGGC@", "Esa?", "IiC?GCA??", "HxCI??@", "Gl?GWC", "E???"]
# blocks glued at a shared cut vertex: the bowtie, a windmill of three
# triangles, a C4 and a triangle sharing a vertex, and the claw
GLUED_BATCH = ["D{c", "F{eCG", "ElaG", "Cs"]
# vertex-transitive and wheel inputs, whose form searches record many
# automorphisms: hypercube(3), K_{3,3}, the Petersen graph, C_8, prism(4)
# and the 6-wheel
SYMMETRIC_BATCH = ["Gr`HOk", "EFz_", "IheA@GUAo", "GhCGKC", "Gl`HGs", "Ehfw"]
# hypercube(5), relabelled: gamma 7 and 320 minimum sets
CUBE5_WORD = "_CGY?CaA???@@E?C?B?_M_?D@DdC??aGAA?@EOO_R@?GCC?GC?@?A?@?`?H??COE?G?GX?@IAA?GPADG???o"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["classify", "--max-n", "7"], "dbe7c582f92910fa0ca19ff906144dc962d1ac4dfd306951ad660c115b75a56b"),
        (
            ["classify", "--max-n", "7", "--node-limit", "1000"],
            "680f94cbe60e339877e40f11c7ff30b16c0f5894b4ad9af2643933a86d43d6cd",
        ),
        (
            ["classify", "--max-n", "7", "--node-limit", "200"],
            "b6eee9ea2fe45d16df0f7d079005fe0eaf89d3d8500c138c9a44d5d441a00b36",
        ),
        (
            ["classify", "--max-n", "7", "--node-limit", "60"],
            "39f246f4932cc7151b270af062557d5558059bcb2256338a949ef15b64870755",
        ),
        (
            ["classify", "--max-n", "7", "--k-max", "3"],
            "2fb16a60c0a81a8a262b21254898fb1ac937d30e81dcd0490d3a2cb6bdd81162",
        ),
        (
            ["classify", "--in", "mixed.g6"],
            "1f2d3f84d42a55b94bfa84862abc106e11f31aabef11791f25dfc92ef5ed01ac",
        ),
        (
            ["classify", "--in", "forests.g6"],
            "71fa70f4fb586c729c1e9284442f40ac934e19402060492e7472269982839c09",
        ),
        (
            ["classify", "--in", "forests.g6", "--k-max", "3"],
            "775563a82047debb0a0ad2385d7aa9f18a520550008ca15eaf62cc31c3eeaf96",
        ),
        (
            ["classify", "--in", "glued.g6"],
            "c61fe640f220f7353d017e1106fbde6141baa20a44501b46777e4c71c6b8deb2",
        ),
        (
            ["classify", "--in", "symmetric.g6"],
            "dbda97b95837b152c3720fc3011287dd25df415892078f5f6919c3c447432013",
        ),
        (
            ["gammagraph", "--d", "1", "--graph6", CUBE5_WORD],
            "901c51124927e89d293811c0f828a0c6463660520f9962494f897d343415956a",
        ),
        # gamma 2 and 256 sets, each mapped from a set through one vertex;
        # the digest was taken while every graph was searched over all of
        # its vertices
        (
            ["gammagraph", "--d", "3", "--graph6", CUBE5_WORD],
            "7d874e89f9e62978e48f07b7c828635ba55c4d21d571483ae0422d396407dbae",
        ),
        (
            ["gamma", "--d", "1", "--graph6", "FhNGW"],
            "3cab7e72a30e4c4f134990a041244fd10fdee4891435b4ed02756d7b7dc998b7",
        ),
        # the six lines of a 3x3 grid: 15 minimal transversals
        (
            ["blocker", "--sets", "123,456,789,147,258,369"],
            "9fb34a7bfa1c89b85705554b610909f2e528e76e54deac381a65b7ccfc328ee6",
        ),
        # 99 and 88 vertices, above the 64 up to which the cover search
        # renumbers its input; at d = 4 the balls take three growth levels
        (
            ["realize", "--d", "3", "--sets", "123,456,789,147,258,369", "--verify"],
            "889f3a8af524e9b5e960dafcd076b7dd149966e938ab4aa1a5d1be311324d115",
        ),
        (
            ["realize", "--d", "4", "--sets", "1234,5678,1357,2468,1256", "--verify"],
            "14f2ecb15b2199581c0cd66fe3b64cfa4ca7338ecfe293194087dd4867652adf",
        ),
    ],
    ids=[
        "max-n-7", "max-n-7-nodes1000", "max-n-7-nodes200", "max-n-7-nodes60", "max-n-7-k3",
        "mixed", "forests", "forests-k3", "glued", "symmetric", "cube5", "cube5-d3", "demo",
        "blocker-grid3", "realize-d3-99", "realize-d4-88",
    ],
)
def test_stdout_digest(tmp_path, monkeypatch, capsys, argv, digest):
    # the sha256 digests of stdout that CI's console-script smoke test pins
    (tmp_path / "mixed.g6").write_text("".join(w + "\n" for w in MIXED_BATCH))
    (tmp_path / "forests.g6").write_text("".join(w + "\n" for w in FOREST_BATCH))
    (tmp_path / "glued.g6").write_text("".join(w + "\n" for w in GLUED_BATCH))
    (tmp_path / "symmetric.g6").write_text("".join(w + "\n" for w in SYMMETRIC_BATCH))
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    # --out writes the same bytes; the max-n-7 documents span many write batches
    assert run([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == digest


def test_emit_streams_in_bounded_memory(tmp_path):
    doc = report_to_json(classify_connected(7))
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cli._emit(doc, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # joining the whole text held about 2.4 MB for this 353 KB document
    assert peak < 512 * 1024
    assert path.read_text(encoding="ascii") == json.dumps(doc, indent=2) + "\n"


def test_closed_stdout_pipe_exits_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does; the
    # 353 KB report overflows the pipe's buffer, so a later write meets the
    # closed pipe, which is neither a usage error nor worth an error line
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys; sys.path.insert(0, sys.argv.pop(1)); from gammagraphs.cli import main; main()"
    proc = subprocess.Popen(
        [sys.executable, "-I", "-c", code, src, "classify", "--max-n", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert b"error:" not in err and err == b""


class TestCommandSet:
    def test_removed_fixture_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify-fixtures"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_every_handler_has_a_parser_entry(self):
        commands = {"gamma", "gammagraph", "realize", "blocker", "label", "classify", "family"}
        assert set(cli._HANDLERS) == commands
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert set(sub.choices) == commands


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--d", "1", "--graph6", "A_"],
        ["gammagraph", "--d", "1", "--graph6", "A_"],
        ["label", "--graph6", "A_"],
        ["classify", "--max-n", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_one_node_limit_default(argv):
    assert build_parser().parse_args(argv).node_limit == DEFAULT_NODE_LIMIT
    assert SearchBudget().node_limit == DEFAULT_NODE_LIMIT
    default = inspect.signature(min_dominating_sets).parameters["node_limit"].default
    assert default == DEFAULT_NODE_LIMIT


# each command's help line and option strings, as --help lists them
COMMAND_HELP = {
    "gamma": ("domination number and all minimum sets", {"--d", "--graph6", "--in", "--node-limit", "--out"}),
    "gammagraph": ("build the gamma-graph", {"--d", "--graph6", "--in", "--node-limit", "--out"}),
    "realize": (
        "graph whose minimum dominating sets are the given family",
        {"--d", "--sets", "--sets-file", "--verify", "--out"},
    ),
    "blocker": ("minimal transversals of a set family", {"--sets", "--sets-file", "--out"}),
    "label": ("search for a valid vertex labelling", {"--graph6", "--in", "--k-max", "--node-limit", "--out"}),
    "classify": (
        "labellability classification of a graph batch",
        {"--max-n", "--in", "--k-max", "--node-limit", "--out"},
    ),
    "family": ("construct a named graph family member", {"--out"}),
}


class TestArgparseSurface:
    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def _exit(capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        return exc.value.code, capsys.readouterr()

    def test_top_level_help_lists_every_command(self, capsys):
        code, captured = self._exit(capsys, ["--help"])
        assert code == 0 and captured.out.startswith("usage: gammagraphs [-h]")
        text = " ".join(captured.out.split())
        for command, (line, _) in COMMAND_HELP.items():
            assert f" {command} {line}" in text

    @pytest.mark.parametrize("command", list(COMMAND_HELP))
    def test_command_help_lists_its_options(self, capsys, command):
        code, captured = self._exit(capsys, [command, "--help"])
        assert code == 0 and captured.out.startswith(f"usage: gammagraphs {command} ")
        listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", captured.out))
        assert listed == {"-h", "--help", *COMMAND_HELP[command][1]}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gamma", "--d", "1", "--graph6", "FhNGW", "extra"], "unrecognized arguments: extra"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ],
        ids=["extra-argument", "unknown-command"],
    )
    def test_errors_print_the_top_level_usage(self, capsys, argv, message):
        code, captured = self._exit(capsys, argv)
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("usage: gammagraphs [-h]")
        assert "{gamma,gammagraph,realize,blocker,label,classify,family}" in captured.err
        assert f"gammagraphs: error: {message}" in captured.err


def test_a_run_builds_only_the_parsers_it_reaches(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    gamma = ["gamma", "--d", "1", "--graph6", DEMO_WORD]
    assert run(gamma) == 0
    assert built == ["gammagraphs", "gammagraphs gamma"]
    assert run(["family", "path", "3"]) == 0
    assert built[2:] == ["gammagraphs family"]
    assert run(gamma) == 0 and run(["family", "path", "3"]) == 0
    with pytest.raises(SystemExit):
        run(["--help"])
    assert len(built) == 3


class TestDeterminismAndOutput:
    def test_identical_invocations_byte_identical(self, capsys):
        run(["gammagraph", "--d", "1", "--graph6", DEMO_WORD])
        first = capsys.readouterr().out
        run(["gammagraph", "--d", "1", "--graph6", DEMO_WORD])
        second = capsys.readouterr().out
        assert first == second

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = run(["gamma", "--d", "1", "--graph6", DEMO_WORD, "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["gamma"] == 2
        assert capsys.readouterr().out == ""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_shared_parser_survives_a_usage_error(self, capsys):
        gamma = ["gamma", "--d", "1", "--graph6", DEMO_WORD]
        classify = ["classify", "--max-n", "3"]
        with pytest.raises(SystemExit) as exc:
            run(["gamma", "--graph6", DEMO_WORD])
        assert exc.value.code == 2
        capsys.readouterr()
        outputs = []
        for argv in (gamma, classify, gamma):
            assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[2] == outputs[0]
        assert json.loads(outputs[0])["gamma"] == 2
        assert json.loads(outputs[1])["counts"]["labellable"] == 4
        assert run(classify) == 0
        assert capsys.readouterr().out == outputs[1]

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_graph6_word_is_usage_error(self, capsys):
        assert run(["gamma", "--d", "1", "--graph6", "~X"]) == 2

    def test_missing_file(self, capsys):
        assert run(["gamma", "--d", "1", "--in", "/nonexistent/file.g6"]) == 2
