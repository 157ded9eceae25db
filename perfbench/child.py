"""One round of a workload, in a fresh interpreter.

    python3 -I perfbench/child.py ROOT PLAN RESULT

Imports `gammagraphs` from ROOT/src, then calls `gammagraphs.cli.run(argv)`
for each op of the JSON plan with stdout and stderr captured, and writes the
outputs, timings and peak memory to RESULT.  A fresh interpreter per round
keeps process-global caches (the canonical-form lru cache, the enumeration
cache) cold, as they are for a user's command.

With "trace" set in the plan, the public functions of each layer are wrapped
at every module that binds them, and each call is kept as a span (name,
start, end, parent) in memory; self time is a span's duration minus that of
its child spans.  A plan with no ops only reports when the imports are done,
for timing set-up.

A shared host's CPU speed can drift by 2x within seconds, so every time is
also measured against a reference: a fixed pure-Python loop (`reference`)
run before and after each op and, in untraced rounds, every SAMPLE_EVERY_S
during it from a SIGALRM handler.  The handler's own time is taken out of
the op's time; the op's time divided by the mean reference time is what the
benchmark reports, scaled to seconds (see perfbench/NOTES.md).
"""

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time

SAMPLE_EVERY_S = 0.1

# (module, function, span name); the span name drops the module prefix.
TRACED = [
    ("cli", "run", "cli.run"),
    ("graphs", "canonical_form", "graphs.canonical_form"),
    ("graphs", "induced_subgraph", "graphs.induced_subgraph"),
    ("graphs", "parse_graph6", "graphs.parse_graph6"),
    ("graphs", "write_graph6", "graphs.write_graph6"),
    ("classify", "enumerate_connected_graphs", "classify.enumerate_connected_graphs"),
    ("classify", "decide_labellable", "classify.decide_labellable"),
    ("classify", "is_minimally_unlabellable", "classify.is_minimally_unlabellable"),
    ("classify", "_smallest_unlabellable_subset", "classify.witness"),
    ("labelling", "find_labelling", "labelling.find_labelling"),
    ("domination", "distance_balls", "domination.distance_balls"),
    ("domination", "min_dominating_sets", "domination.min_dominating_sets"),
    ("gammagraph", "build_gamma_graph", "gammagraph.build_gamma_graph"),
    ("clutters", "blocker", "clutters.blocker"),
    ("clutters", "validate_clutter", "clutters.validate_clutter"),
    ("realizer", "realize", "realizer.realize"),
    ("realizer", "construction_size", "realizer.construction_size"),
    ("realizer", "verify_realization", "realizer.verify_realization"),
]


class Tracer:
    """In-memory spans plus the work counts that public results expose."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.stack = []
        self.counts = {}
        self.seen = {}

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def repeat(self, name, key):
        """Count a call whose input was seen before in this round."""
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.count(name + ".repeats")
        else:
            seen.add(key)

    def wrap(self, fn, name, observe):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, (name_index, start, end, _) in enumerate(self.spans):
            entry = stats[self.names[name_index]]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
        return {"spans": stats, "counts": self.counts}


def _observe_canonical_form(tracer, args, result):
    g = args[0]
    tracer.repeat("graphs.canonical_form", (g.n, g.adj))


def _observe_find_labelling(tracer, args, outcome):
    tracer.count("labelling.find_labelling.nodes", outcome.nodes)
    status = {"found": "found", "absent_up_to_k": "absent", "budget_exhausted": "exhausted"}
    tracer.count("labelling.find_labelling." + status[outcome.status])


def _observe_min_dominating_sets(tracer, args, result):
    tracer.count("domination.min_dominating_sets.sets_out", len(result.min_sets))


def _observe_build_gamma_graph(tracer, args, gg):
    tracer.count("gammagraph.build_gamma_graph.edges_out", gg.base.edge_count)


def _observe_blocker(tracer, args, result):
    c = args[0]
    tracer.repeat("clutters.blocker", (c.ground_size, c.members))
    tracer.count("clutters.blocker.members_out", len(result.members))


def _observe_realize(tracer, args, realized):
    tracer.count("realizer.realize.vertices_out", realized.graph.n)


OBSERVERS = {
    "graphs.canonical_form": _observe_canonical_form,
    "labelling.find_labelling": _observe_find_labelling,
    "domination.min_dominating_sets": _observe_min_dominating_sets,
    "gammagraph.build_gamma_graph": _observe_build_gamma_graph,
    "clutters.blocker": _observe_blocker,
    "realizer.realize": _observe_realize,
}


def install(tracer):
    """Replace each traced function at every package module that binds it.

    `from .domination import min_dominating_sets` copies the binding into the
    importing module, so patching only the defining module would miss calls.
    """
    modules = [m for key, m in sys.modules.items() if key == "gammagraphs" or key.startswith("gammagraphs.")]
    for module_name, attr, name in TRACED:
        original = getattr(sys.modules["gammagraphs." + module_name], attr)
        wrapper = tracer.wrap(original, name, OBSERVERS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def reference(iterations=10_000):
    """Fixed work in the style of the package: small sets, dict updates, ints."""
    acc = 0
    table = {}
    for i in range(iterations):
        x = (i * 2654435761) & 0xFFFF
        s = {x & 255, x >> 8, i & 127}
        table[x & 1023] = table.get(x & 1023, 0) + len(s)
        acc ^= x
    return acc


class Probe:
    """Reference samples around and inside one op, and the time they took."""

    def __init__(self):
        self.ref_wall = []
        self.ref_cpu = []
        self.paused_wall = 0.0
        self.paused_cpu = 0.0
        self.busy = False

    def sample(self):
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not reference work
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            reference()
            t1, c1 = time.perf_counter(), time.process_time()
        finally:
            if collecting:
                gc.enable()
        self.ref_wall.append(t1 - t0)
        self.ref_cpu.append(c1 - c0)

    def _on_alarm(self, signum, frame):
        if self.busy:  # the timer fired again while a sample was running
            return
        self.busy = True
        c0, t0 = time.process_time(), time.perf_counter()
        self.sample()
        self.paused_wall += time.perf_counter() - t0
        self.paused_cpu += time.process_time() - c0
        self.busy = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(root, plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gammagraphs.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"gammagraphs imported from {cli.__file__}, not from {src}")
    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        install(tracer)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    ops = []
    for argv in plan["ops"]:
        out, err = io.StringIO(), io.StringIO()
        probe = Probe()
        probe.sample()
        # Spans of a traced round would count the handler's time as the program's.
        during = contextlib.nullcontext() if tracer is not None else probe.sampling()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        with during, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0 - probe.paused_wall
        cpu = _cpu_seconds() - cpu0 - probe.paused_cpu
        probe.sample()
        ops.append({"code": code, "wall_s": wall, "cpu_s": cpu,
                    "ref_wall_s": sum(probe.ref_wall) / len(probe.ref_wall),
                    "ref_cpu_s": sum(probe.ref_cpu) / len(probe.ref_cpu),
                    "ref_samples": len(probe.ref_wall),
                    "stdout": out.getvalue(), "stderr": err.getvalue()})

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"ready": ready, "ops": ops, "maxrss_kb": max(own, kids)}
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
