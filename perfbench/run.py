"""Benchmark of the gammagraphs command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see perfbench/NOTES.md):
classify7, dom_d1, dom_far, realize.  Inputs are generated from --seed by
perfbench/workloads.py; the program receives only those inputs.

A run first sets up fifteen times (generate the inputs, start an interpreter,
import the package) and reports the median as setup_s.  It then runs rounds
for --seconds seconds, each in a fresh interpreter (perfbench/child.py),
starting another round only while it is expected to end in time; at least
one round always runs.  Every output is checked independently, and a wrong
answer stops the run with "correct": false.

With --trace 0 the last line of stdout holds the end-to-end metrics, each the
mean over rounds: wall_s and cpu_s of the CLI calls, peak_rss_mb of the
round's interpreter, setup_s, and solved_frac, the share of operations
answered.  The three times are in reference seconds: the time measured,
divided by the time of a fixed reference loop measured alongside it (child.py),
times REF_S.  They read as seconds on a host where that loop takes REF_S, and
do not move with the host's CPU speed, which can drift by 2x within seconds.

With --trace 1 the rounds run traced and the last line holds the per-layer
metrics instead; trace.wall_s minus the untraced wall_s is the tracing
overhead.  Means, medians and quartiles go to stderr.

Rounds are averaged rather than taking their median: once the times are
normalised, rounds differ mainly by their seeded inputs (a round of dom_d1
varies by 15%), and the mean of a run's rounds varies less from seed to seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import child
import workloads

SETUP_REPEATS = 15
REF_S = 0.005  # reference seconds per reference loop; about its time on a fast 2.1 GHz Xeon core
RUN_DEADLINE_S = 170  # the whole run must end within 180 s

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("solved_frac", "ratio"),
]

# (span, the stats reported for it); see perfbench/NOTES.md for what each should move.
PER_LAYER = [
    ("graphs.canonical_form", ["calls", "self_s", "repeat_frac"]),
    ("graphs.induced_subgraph", ["calls", "self_s"]),
    ("graphs.parse_graph6", ["calls", "self_s"]),
    ("graphs.write_graph6", ["calls", "self_s"]),
    ("classify.enumerate_connected_graphs", ["self_s"]),
    ("classify.decide_labellable", ["calls", "self_s"]),
    ("classify.is_minimally_unlabellable", ["calls", "self_s"]),
    ("classify.witness", ["calls", "self_s"]),
    ("labelling.find_labelling", ["calls", "self_s", "nodes", "nodes_per_s", "found", "absent", "exhausted"]),
    ("domination.distance_balls", ["calls", "self_s"]),
    ("domination.min_dominating_sets", ["calls", "self_s", "sets_out"]),
    ("gammagraph.build_gamma_graph", ["calls", "self_s", "edges_out"]),
    ("clutters.blocker", ["calls", "self_s", "members_out", "repeat_frac"]),
    ("clutters.validate_clutter", ["calls", "self_s"]),
    ("realizer.realize", ["self_s", "vertices_out"]),
    ("realizer.construction_size", ["self_s"]),
    ("realizer.verify_realization", ["self_s"]),
    ("cli.run", ["calls", "self_s"]),
    ("trace", ["wall_s"]),
]
UNITS = {"self_s": "s", "wall_s": "s", "repeat_frac": "ratio", "nodes_per_s": "1/s"}

# Spans each workload must reach; a traced run that records none fails.
REQUIRED_SPANS = {
    "classify7": [
        "cli.run", "graphs.canonical_form", "graphs.induced_subgraph", "graphs.parse_graph6",
        "graphs.write_graph6", "classify.enumerate_connected_graphs", "classify.decide_labellable",
        "classify.is_minimally_unlabellable", "classify.witness", "labelling.find_labelling",
    ],
    "dom_d1": [
        "cli.run", "graphs.parse_graph6", "domination.distance_balls",
        "domination.min_dominating_sets", "gammagraph.build_gamma_graph",
    ],
    "dom_far": ["cli.run", "graphs.parse_graph6", "domination.distance_balls", "domination.min_dominating_sets"],
    "realize": [
        "cli.run", "clutters.validate_clutter", "clutters.blocker", "realizer.realize",
        "realizer.construction_size", "realizer.verify_realization", "domination.distance_balls",
        "domination.min_dominating_sets",
    ],
}

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


class BenchError(Exception):
    """The benchmark itself could not run (missing source, crashed child)."""


def per_layer_names():
    return [(f"{span}.{stat}", UNITS.get(stat, "count")) for span, stats in PER_LAYER for stat in stats]


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(root, workdir, argvs, trace, deadline):
    """Run one child interpreter; return its result document."""
    plan = os.path.join(workdir, "plan.json")
    result = os.path.join(workdir, "result.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"trace": trace, "ops": argvs}, fh)
    try:
        proc = subprocess.run(
            [sys.executable, "-I", CHILD, root, plan, result],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - _monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a round did not finish before the run's deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"child interpreter exited with {proc.returncode}:\n{proc.stderr.strip()}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _setup_once(root, workload, seed, workdir, deadline):
    probe = child.Probe()
    probe.sample()
    t0 = _monotonic()
    workloads.make_round(workload, seed, 0, workdir)
    raw = _spawn(root, workdir, [], False, deadline)["ready"] - t0
    probe.sample()
    return raw * REF_S / statistics.fmean(probe.ref_wall)


def _round(root, workload, seed, index, workdir, trace, deadline):
    ops = workloads.make_round(workload, seed, index, workdir)
    doc = _spawn(root, workdir, [op.argv for op in ops], trace, deadline)
    attempted = solved = failed = 0
    wrong = None
    for op, res in zip(ops, doc["ops"]):
        attempted += op.units
        try:
            outcome = workloads.check(op, res["code"], res["stdout"], res["stderr"])
        except (workloads.WrongAnswer, ValueError, KeyError, TypeError) as exc:
            wrong = f"round {index}: {exc!r}"
            break
        solved += outcome.solved
        failed += outcome.failed
    return {
        "wall_s": sum(r["wall_s"] * REF_S / r["ref_wall_s"] for r in doc["ops"]),
        "cpu_s": sum(r["cpu_s"] * REF_S / r["ref_cpu_s"] for r in doc["ops"]),
        "raw_wall_s": sum(r["wall_s"] for r in doc["ops"]),
        "ref_samples": sum(r["ref_samples"] for r in doc["ops"]),
        "peak_rss_mb": doc["maxrss_kb"] / 1024,
        "attempted": attempted,
        "solved": solved,
        "failed": failed,
        "wrong": wrong,
        "trace": doc.get("trace"),
    }


def _layer_values(rnd):
    spans = rnd["trace"]["spans"]
    counts = rnd["trace"]["counts"]
    values = {"trace.wall_s": rnd["wall_s"]}
    scale = rnd["wall_s"] / rnd["raw_wall_s"] if rnd["raw_wall_s"] > 0 else 1.0
    for span, stats in PER_LAYER:
        if span == "trace":
            continue
        calls = spans[span]["calls"]
        self_s = spans[span]["self_s"] * scale  # in reference seconds, as wall_s
        for stat in stats:
            if stat == "calls":
                value = calls
            elif stat == "self_s":
                value = self_s
            elif stat == "repeat_frac":
                value = counts.get(span + ".repeats", 0) / calls if calls else 0.0
            elif stat == "nodes_per_s":
                value = counts.get(span + ".nodes", 0) / self_s if self_s > 0 else 0.0
            else:
                value = counts.get(f"{span}.{stat}", 0)
            values[f"{span}.{stat}"] = value
    return values


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def run(root, workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(root, "src", "gammagraphs", "cli.py")):
        raise BenchError(f"no gammagraphs source under {root}/src; run from the root of a checkout")
    deadline = _monotonic() + RUN_DEADLINE_S
    base = os.path.join(root, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        setups = [_setup_once(root, workload, seed, workdir, deadline) for _ in range(SETUP_REPEATS)]
        rounds = []
        start = _monotonic()
        while True:
            t0 = _monotonic()
            rnd = _round(root, workload, seed, len(rounds), workdir, trace, deadline)
            rounds.append(rnd)
            now = _monotonic()
            if rnd["wrong"] or now - start + (now - t0) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(base)

    if trace:
        missing = [s for s in REQUIRED_SPANS[workload] if any(r["trace"]["spans"][s]["calls"] == 0 for r in rounds)]
        if missing and not rounds[-1]["wrong"]:
            raise BenchError(f"traced spans with zero calls on {workload}: {', '.join(missing)}")
        layers = [_layer_values(r) for r in rounds]
        samples = {name: [values[name] for values in layers] for name, _ in per_layer_names()}
        units = dict(per_layer_names())
    else:
        samples = {name: [r[name] for r in rounds] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        raw = [r["raw_wall_s"] for r in rounds]
        print(f"{'measured wall (s, not normalised)':48s} median {statistics.median(raw):.6g} s  "
              f"reference samples {sum(r['ref_samples'] for r in rounds)}", file=sys.stderr)
        samples["setup_s"] = setups
        attempted = sum(r["attempted"] for r in rounds)
        samples["solved_frac"] = [sum(r["solved"] for r in rounds) / attempted]
        units = dict(END_TO_END)

    metrics = {}
    for name, values in samples.items():
        mean, median = statistics.fmean(values), statistics.median(values)
        q1, q3 = _quartiles(values)
        print(f"{name:48s} mean {mean:.6g} {units[name]}  median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  n {len(values)}", file=sys.stderr)
        metrics[name] = {"value": median if name == "setup_s" else mean, "unit": units[name]}
    wrong = rounds[-1]["wrong"]
    if wrong:
        print(f"wrong answer: {wrong}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(os.getcwd(), args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
