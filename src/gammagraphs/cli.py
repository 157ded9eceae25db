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
from .clutters import blocker, clutter_from_json, clutter_to_json, validate_clutter
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
    if args.sets is not None:
        members = []
        for chunk in args.sets.split(","):
            chunk = chunk.strip()
            if not chunk.isdigit():
                raise ValueError(f"--sets expects comma-separated digit strings, got {chunk!r}")
            members.append(frozenset(int(ch) for ch in chunk))
        ground = max((max(m) for m in members if m), default=0)
        return validate_clutter(ground, members)
    with open(args.sets_file, encoding="ascii") as fh:
        return clutter_from_json(json.load(fh))


def _budget(args) -> SearchBudget:
    return SearchBudget(k_max=args.k_max, node_limit=args.node_limit)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    parsing leaves it unchanged, and each parse returns a fresh namespace.

    Every subparser is built, though a run uses one.  In a fresh interpreter
    this build plus one parse takes about 3 ms (2-vCPU host), of which about
    1.1-1.5 ms is argparse's first gettext lookup importing `locale`, which
    any argparse parser pays; a parser holding only the invoked command took
    about 1.6-1.9 ms.  The top-level --help, usage and error text need every
    subparser, so that saving would need a second parse path."""
    parser = argparse.ArgumentParser(
        prog="gammagraphs",
        description="domination families, gamma-graphs, blockers, realizations, "
        "labellings, and small-graph classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each option is declared once, in a parent; a command lists them in its --help order.
    out, limit, dist, k_max, verify, graphs, sets, batch = (
        argparse.ArgumentParser(add_help=False) for _ in range(8)
    )
    out.add_argument("--out")
    limit.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    dist.add_argument("--d", type=int, required=True)
    k_max.add_argument("--k-max", type=int, default=None, help="largest label size tried (default: max(2, n))")
    verify.add_argument("--verify", action="store_true", help="re-enumerate and check the result")
    src = graphs.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="inline graph6 word")
    src.add_argument("--in", dest="infile", help="file of graph6 words, one per line")
    src = sets.add_mutually_exclusive_group(required=True)
    src.add_argument("--sets", help="comma-separated digit strings, e.g. 123,124")
    src.add_argument("--sets-file", help='JSON file {"n": ..., "members": [[...], ...]}')
    src = batch.add_mutually_exclusive_group(required=True)
    src.add_argument("--max-n", type=int, help="classify all connected graphs with 1..N vertices")
    src.add_argument("--in", dest="infile", help="file of graph6 words")

    for name, parents, text in (
        ("gamma", [dist, graphs, limit, out], "domination number and all minimum sets"),
        ("gammagraph", [dist, graphs, limit, out], "build the gamma-graph"),
        ("realize", [dist, sets, verify, out], "graph whose minimum dominating sets are the given family"),
        ("blocker", [sets, out], "minimal transversals of a set family"),
        ("label", [graphs, k_max, limit, out], "search for a valid vertex labelling"),
        ("classify", [batch, k_max, limit, out], "labellability classification of a graph batch"),
    ):
        sub.add_parser(name, parents=parents, help=text)
    p = sub.add_parser("family", parents=[out], help="construct a named graph family member")
    p.add_argument("name", help="path|cycle|complete|complete-bipartite|wheel|fan|prism|hypercube")
    p.add_argument("params", type=int, nargs="+")

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


_HANDLERS = {
    "gamma": _run_gamma,
    "gammagraph": _run_gammagraph,
    "realize": _run_realize,
    "blocker": _run_blocker,
    "label": _run_label,
    "classify": _run_classify,
    "family": _run_family,
}


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except WorkLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
