"""Self-test of the benchmark: seeded inputs and the output checks.

    python3 -m unittest discover -s perfbench -t perfbench

Run from the root of a checkout; one test calls the CLI from ./src.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest

import child
import workloads
from workloads import Op, WrongAnswer, check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench-work")


def _inputs(workload, seed, round_index=0):
    """Every input a round hands to the program: argv lists and file bytes."""
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        ops = workloads.make_round(workload, seed, round_index, workdir)
        files = {}
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name), "rb") as fh:
                files[name] = fh.read()
        argvs = [[os.path.basename(a) if a.startswith(workdir) else a for a in op.argv] for op in ops]
        return argvs, files
    finally:
        shutil.rmtree(workdir)


def _cycle9_op():
    n, edges = workloads.cycle_graph(9)
    return Op("cycle9", ["gamma", "--d", "1"], 1,
              {"n": n, "edges": edges, "d": 1, "gamma": 3, "count": 3, "may_exhaust": False})


CYCLE9_ANSWER = {"d": 1, "gamma": 3, "min_sets": [["1", "4", "7"], ["2", "5", "8"], ["3", "6", "9"]]}


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in ("dom_d1", "dom_far", "realize"):
            self.assertEqual(_inputs(workload, 7), _inputs(workload, 7), workload)

    def test_other_seed_or_round_gives_other_inputs(self):
        for workload in ("dom_d1", "dom_far", "realize"):
            self.assertNotEqual(_inputs(workload, 7), _inputs(workload, 8), workload)
            self.assertNotEqual(_inputs(workload, 7, 0), _inputs(workload, 7, 1), workload)

    def test_graph6_round_trip(self):
        n, edges = workloads.grid_graph(3, 14)
        adj = workloads.parse_graph6(workloads.graph6(n, edges))
        self.assertEqual(adj, workloads.adjacency(n, edges))


class Checks(unittest.TestCase):
    def _rejects(self, op, doc, code=0, stderr=""):
        with self.assertRaises(WrongAnswer):
            check(op, code, json.dumps(doc), stderr)

    def test_accepts_a_right_answer(self):
        self.assertEqual(check(_cycle9_op(), 0, json.dumps(CYCLE9_ANSWER), "").solved, 1)

    def test_rejects_wrong_gamma_missing_set_and_non_dominating_set(self):
        op = _cycle9_op()
        wrong_gamma = dict(CYCLE9_ANSWER, gamma=4)
        missing = dict(CYCLE9_ANSWER, min_sets=CYCLE9_ANSWER["min_sets"][:2])
        not_dominating = dict(CYCLE9_ANSWER, min_sets=[["1", "2", "3"]] + CYCLE9_ANSWER["min_sets"][1:])
        repeated = dict(CYCLE9_ANSWER, min_sets=CYCLE9_ANSWER["min_sets"][:2] + CYCLE9_ANSWER["min_sets"][:1])
        for doc in (wrong_gamma, missing, not_dominating, repeated):
            self._rejects(op, doc)

    def test_budget_exhaustion_is_a_failure_unless_expected(self):
        op = _cycle9_op()
        message = "error: domination enumeration work limit exceeded (5000001 subsets examined)"
        self.assertEqual(check(op, 3, "", message).failed, 1)
        op.expect["may_exhaust"] = True
        outcome = check(op, 3, "", message)
        self.assertEqual((outcome.solved, outcome.failed), (0, 0))

    def test_rejects_a_labelling_that_breaks_the_k_minus_1_rule(self):
        word = workloads.graph6(*workloads.path_graph(3))
        good = {"k": 2, "labels": {"1": [1, 2], "2": [2, 3], "3": [3, 4]}}
        op = Op("path3", ["classify"], 1)
        workloads._check_labelling(op, word, good)
        bad = {"k": 2, "labels": {"1": [1, 2], "2": [2, 3], "3": [1, 3]}}
        with self.assertRaises(WrongAnswer):
            workloads._check_labelling(op, word, bad)

    def test_rejects_an_unverified_realization(self):
        op = Op("family", ["realize"], 1, {"d": 1, "symbols": [1, 2, 3]})
        doc = {"d": 1, "core_size": 3, "relabelling": {"1": 1, "2": 2, "3": 3}, "vertices": 7,
               "edges": 7, "construction_size": [7, 7], "verified": True}
        self.assertEqual(check(op, 0, json.dumps(doc), "").solved, 1)
        self._rejects(op, dict(doc, verified=False))
        self._rejects(op, dict(doc, vertices=9))

    def test_real_gamma_graph_output_and_tampered_copies(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from gammagraphs.cli import run

        op = workloads.make_round("dom_d1", 3, 0, None)[1]  # gammagraph of the 5x6 grid
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(run(op.argv), 0)
        doc = json.loads(out.getvalue())
        self.assertEqual(check(op, 0, json.dumps(doc), "").solved, 1)
        tampered = []
        for key, edit in (("edges", lambda e: e[1:]), ("vertices", lambda v: v[1:]), ("gamma", lambda g: g + 1)):
            bad = copy.deepcopy(doc)
            bad[key] = edit(bad[key])
            tampered.append(bad)
        for bad in tampered:
            self._rejects(op, bad)


class Harness(unittest.TestCase):
    def test_reference_samples_inside_an_op_are_taken_out_of_its_time(self):
        before = signal.getsignal(signal.SIGALRM)
        probe = child.Probe()
        t0 = time.perf_counter()
        with probe.sampling():
            while time.perf_counter() - t0 < 0.35:
                pass
        elapsed = time.perf_counter() - t0
        self.assertGreaterEqual(len(probe.ref_wall), 2)
        self.assertGreaterEqual(probe.paused_wall, sum(probe.ref_wall))
        self.assertLess(probe.paused_wall, elapsed)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)

    def test_fails_without_the_program_source(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "dom_d1", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


def tearDownModule():
    with contextlib.suppress(OSError):
        os.rmdir(SCRATCH)


if __name__ == "__main__":
    unittest.main()
