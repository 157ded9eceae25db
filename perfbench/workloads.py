"""Workload inputs and output checks for the gammagraphs benchmark.

Everything here is independent of the package under test: graphs are built
from edge lists, relabelled and encoded as graph6 by this module's own code,
and every answer is checked against facts computed here (breadth-first
d-balls, the k-1 intersection rule, closed-form domination numbers) or
pinned below.  A round of a workload is a list of `Op`s; each op is one call
of the command-line entry point.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field


class WrongAnswer(Exception):
    """The program returned an answer that fails an independent check."""


@dataclass
class Op:
    """One CLI call: `argv` for `gammagraphs.cli.run`, plus what to expect.

    `units` is how many operations the call stands for (the graphs of a
    classification, otherwise 1).
    """

    label: str
    argv: list
    units: int
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    solved: int = 0
    failed: int = 0


# ---------------------------------------------------------------------------
# Graphs, as (n, edge list)
# ---------------------------------------------------------------------------

def path_graph(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle_graph(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def grid_graph(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, edges


def hypercube_graph(dim):
    n = 1 << dim
    return n, [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]


def relabel(n, edges, rng):
    """Seeded vertex relabelling: old vertex v becomes new vertex perm[v]."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def graph6(n, edges):
    """graph6 short form: upper triangle column by column, six bits a byte."""
    if not 1 <= n <= 62:
        raise ValueError("graph6 short form needs 1 <= n <= 62")
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for p in range(0, len(bits), 6):
        out.append(chr(63 + int("".join(map(str, bits[p:p + 6])), 2)))
    return "".join(out)


def parse_graph6(word):
    """Adjacency sets of a graph6 short-form word."""
    n = ord(word[0]) - 63
    bits = []
    for ch in word[1:]:
        bits.extend((ord(ch) - 63) >> (5 - b) & 1 for b in range(6))
    adj = [set() for _ in range(n)]
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                adj[i].add(j)
                adj[j].add(i)
            pos += 1
    return adj


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def balls(adj, d):
    """Closed distance-d ball of every vertex, by breadth-first search."""
    out = []
    for s in range(len(adj)):
        seen = {s}
        frontier = [s]
        for _ in range(d):
            frontier = [w for u in frontier for w in adj[u] if w not in seen]
            seen.update(frontier)
        out.append(frozenset(seen))
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _rng(workload, seed, round_index, part):
    return random.Random(f"{workload}/{seed}/{round_index}/{part}")


# name, command, graph, d, gamma, number of minimum sets, node limit.
# gamma is the closed form ceil(n / (2d + 1)) for paths and cycles.
DOM_D1 = [
    ("hypercube5", "gammagraph", hypercube_graph(5), 1, 7, 320, None),
    ("grid5x6", "gammagraph", grid_graph(5, 6), 1, 8, 13, None),
    ("cycle30", "gamma", cycle_graph(30), 1, math.ceil(30 / 3), 3, None),
    ("grid4x8", "gamma", grid_graph(4, 8), 1, 8, 4, None),
]
DOM_FAR = [
    ("path34_d2", "gamma", path_graph(34), 2, math.ceil(34 / 5), 8, None),
    ("cycle34_d2", "gamma", cycle_graph(34), 2, math.ceil(34 / 5), 34, None),
    ("cycle42_d3", "gamma", cycle_graph(42), 3, math.ceil(42 / 7), 7, None),
    ("grid4x10_d2", "gamma", grid_graph(4, 10), 2, 5, 4, None),
    ("grid3x14_d2", "gamma", grid_graph(3, 14), 2, 5, 8, None),
    # Runs out of its work limit under every relabelling tried (exit 3).  A
    # kernel that solves it must find the 5 tilings by balls of size 5.
    ("cycle40_d2_limited", "gamma", cycle_graph(40), 2, math.ceil(40 / 5), 5, 5_000_000),
]

# member size, symbols used, members, d; symbols are drawn from 1..REALIZE_GROUND.
REALIZE_FAMILIES = [
    (3, 16, 30, 1), (3, 16, 30, 2), (3, 16, 30, 3),
    (3, 16, 30, 1), (3, 16, 30, 2), (3, 16, 30, 3),
    (4, 14, 20, 1), (4, 14, 20, 1), (4, 14, 20, 1),
]
REALIZE_GROUND = 20

# classify --max-n 7: (labellable, minimally unlabellable, non-minimal) for
# n <= 5, n = 6 and n = 7, and the number of connected graphs on n vertices
# (OEIS A001349).
CLASSIFY_COUNTS = {5: (27, 4, 0), 6: (69, 4, 39), 7: (320, 1, 532)}
CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def _dom_ops(workload, instances, seed, round_index):
    ops = []
    for name, command, (n, edges), d, gamma, count, limit in instances:
        new_edges = relabel(n, edges, _rng(workload, seed, round_index, name))
        argv = [command, "--d", str(d), "--graph6", graph6(n, new_edges)]
        if limit is not None:
            argv += ["--node-limit", str(limit)]
        expect = {"n": n, "edges": new_edges, "d": d, "gamma": gamma, "count": count,
                  "may_exhaust": limit is not None}
        ops.append(Op(name, argv, 1, expect))
    return ops


def _realize_ops(seed, round_index, workdir):
    ops = []
    for i, (k, used, members, d) in enumerate(REALIZE_FAMILIES):
        rng = _rng("realize", seed, round_index, i)
        symbols = sorted(rng.sample(range(1, REALIZE_GROUND + 1), used))
        family = set()
        while len(family) < members:
            family.add(tuple(sorted(rng.sample(symbols, k))))
        doc = {"n": REALIZE_GROUND, "members": [list(m) for m in sorted(family)]}
        path = os.path.join(workdir, f"family{i}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
        label = f"family{i}_k{k}_s{used}_m{members}_d{d}"
        ops.append(Op(label, ["realize", "--d", str(d), "--sets-file", path, "--verify"], 1,
                      {"d": d, "symbols": sorted(set().union(*family))}))
    return ops


def make_round(workload, seed, round_index, workdir):
    """The ops of one round; inputs depend only on (workload, seed, round)."""
    if workload == "classify7":
        return [Op("classify_max_n_7", ["classify", "--max-n", "7"], sum(CONNECTED_GRAPHS.values()))]
    if workload == "dom_d1":
        return _dom_ops(workload, DOM_D1, seed, round_index)
    if workload == "dom_far":
        return _dom_ops(workload, DOM_FAR, seed, round_index)
    if workload == "realize":
        return _realize_ops(seed, round_index, workdir)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("classify7", "dom_d1", "dom_far", "realize")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _require(cond, op, message):
    if not cond:
        raise WrongAnswer(f"{op.label}: {message}")


def _check_min_sets(op, gamma, sets):
    exp = op.expect
    _require(gamma == exp["gamma"], op, f"gamma {gamma}, expected {exp['gamma']}")
    _require(len(sets) == exp["count"], op, f"{len(sets)} minimum sets, expected {exp['count']}")
    ball = balls(adjacency(exp["n"], exp["edges"]), exp["d"])
    everything = frozenset(range(exp["n"]))
    seen = set()
    for names in sets:
        s = frozenset(int(x) - 1 for x in names)
        _require(len(s) == gamma and s <= everything, op, f"bad set {names}")
        _require(s not in seen, op, f"set {names} listed twice")
        seen.add(s)
        covered = frozenset().union(*(ball[v] for v in s))
        _require(covered == everything, op, f"set {names} does not dominate")
    return [frozenset(int(x) - 1 for x in names) for names in sets]


def _check_dom(op, code, stdout, stderr):
    if code == 3 and op.expect["may_exhaust"]:
        _require("work limit" in stderr, op, "exit 3 without a work-limit message")
        return Outcome()
    if code != 0:
        return Outcome(failed=1)
    doc = json.loads(stdout)
    _require(doc["d"] == op.expect["d"], op, "wrong d")
    if op.argv[0] == "gamma":
        _check_min_sets(op, doc["gamma"], doc["min_sets"])
    else:
        sets = _check_min_sets(op, doc["gamma"], doc["vertices"])
        want = {(i, j) for i, j in itertools.combinations(range(len(sets)), 2)
                if len(sets[i] & sets[j]) == doc["gamma"] - 1}
        _require({tuple(e) for e in doc["edges"]} == want, op, "gamma-graph edges")
    return Outcome(solved=1)


def _check_labelling(op, word, lab):
    adj = parse_graph6(word)
    k = lab["k"]
    labels = [frozenset(lab["labels"][str(v + 1)]) for v in range(len(adj))]
    _require(all(len(s) == k for s in labels), op, f"{word}: label sizes differ from k={k}")
    _require(len(set(labels)) == len(labels), op, f"{word}: duplicate labels")
    for u, v in itertools.combinations(range(len(adj)), 2):
        meets = len(labels[u] & labels[v]) == k - 1
        _require(meets == (v in adj[u]), op, f"{word}: labels break the k-1 rule at {u + 1},{v + 1}")


def _check_classify(op, code, stdout, stderr):
    if code != 0:
        return Outcome(failed=op.units)
    verdicts = json.loads(stdout)["verdicts"]
    graphs = {}
    by_n = {}
    undecided = 0
    for word, verdict in verdicts.items():
        n = ord(word[0]) - 63
        graphs[n] = graphs.get(n, 0) + 1
        row = by_n.setdefault(max(n, 5), [0, 0, 0])
        status = verdict["status"]
        if status == "labellable":
            _check_labelling(op, word, verdict["labelling"])
            row[0] += 1
        elif status == "minimally_unlabellable":
            row[1] += 1
        elif status == "unlabellable_nonminimal":
            witness = verdict["witness_graph6"]
            _require(ord(witness[0]) - 63 < n, op, f"{word}: witness is not smaller")
            row[2] += 1
        elif status == "undecided":
            undecided += 1
        else:
            raise WrongAnswer(f"{op.label}: {word}: unknown status {status!r}")
    _require(graphs == CONNECTED_GRAPHS, op, f"graphs per n {graphs}, expected {CONNECTED_GRAPHS}")
    if not undecided:
        for n, counts in CLASSIFY_COUNTS.items():
            _require(tuple(by_n.get(n, ())) == counts, op, f"n={n}: counts {by_n.get(n)}, expected {counts}")
    return Outcome(solved=op.units - undecided, failed=undecided)


def _check_realize(op, code, stdout, stderr):
    if code != 0:
        return Outcome(failed=1)
    doc = json.loads(stdout)
    symbols = op.expect["symbols"]
    _require(doc["verified"] is True, op, "realization not verified")
    _require(doc["d"] == op.expect["d"], op, "wrong d")
    _require(doc["core_size"] == len(symbols), op, "core size")
    _require(doc["relabelling"] == {str(s): i + 1 for i, s in enumerate(symbols)}, op, "relabelling")
    _require([doc["vertices"], doc["edges"]] == doc["construction_size"], op,
             "graph size differs from construction_size")
    gadgets, rem = divmod(doc["vertices"] - doc["core_size"], 2 * doc["d"])
    _require(rem == 0 and gadgets > 0, op, "gadget vertex count")
    return Outcome(solved=1)


def check(op, code, stdout, stderr):
    """Check one call's output; raise WrongAnswer if it is wrong."""
    command = op.argv[0]
    if command in ("gamma", "gammagraph"):
        return _check_dom(op, code, stdout, stderr)
    if command == "classify":
        return _check_classify(op, code, stdout, stderr)
    return _check_realize(op, code, stdout, stderr)
