"""Command line front end.

Exit codes: 0 solved (including a "none" answer), 1 usage problems,
2 unreadable or invalid input (for gen: an infeasible spec or an
unwritable output file; for oracle and solve --check: more simple s-t
paths than the exhaustive search enumerates), 3 answer rejected by
--check, 4 an internal solver error (a bug, reported in one line).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .graph import GraphError, parse_graph, random_graph, serialize_graph
from .oracle import PathCapExceeded, oracle_next_to_shortest
from .solver import NtspResult, QueryError, next_to_shortest
from .sssp import dijkstra, path_length


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_graph(path: str | None):
    if path is None or path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, "rb") as fh:
        return parse_graph(fh.read())


def _query_path(parser: argparse.ArgumentParser, args) -> str | None:
    """Input file from either the positional or the --path spelling."""
    if args.path is not None and args.path_pos is not None:
        parser.error("give the input file once, positionally or via --path")
    return args.path if args.path is not None else args.path_pos


def _result_json(res: NtspResult) -> str:
    out: dict = {"status": res.status}
    if res.status == "found":
        out["kind"] = res.kind
    out["shortest"] = res.shortest
    if res.status == "found":
        out["length"] = res.length
        out["path"] = list(res.path)
    return json.dumps(out, separators=(",", ":"))


def _print_result(res: NtspResult, as_json: bool) -> None:
    if as_json:
        print(_result_json(res))
    elif res.status == "none":
        print(f"none (shortest {res.shortest})")
    else:
        print(f"found {res.kind}: length {res.length} (shortest {res.shortest})")
        print("path:", " ".join(str(v) for v in res.path))


def _check_result(g, s: int, t: int, res: NtspResult) -> str | None:
    """Re-derive the answer by exhaustive search; None when it agrees."""
    expect = oracle_next_to_shortest(g, s, t)
    got = res.length if res.status == "found" else None
    if got != expect:
        return f"answer {got} but exhaustive search says {expect}"
    if res.status == "found":
        path = list(res.path)
        if path[0] != s or path[-1] != t or len(set(path)) != len(path):
            return "witness path is not a simple s-t path"
        total = path_length(g, path)
        if total is None:
            a, b = next(e for e in zip(path, path[1:]) if g.edge_index(*e) is None)
            return f"witness path uses missing edge {a}-{b}"
        if total != res.length:
            return f"witness path has length {total}, reported {res.length}"
    return None


def _cmd_solve(args) -> int:
    try:
        g = _read_graph(_query_path(args.parser, args))
    except OSError as exc:
        print(f"ntsp: cannot read input: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"ntsp: bad input: {exc}", file=sys.stderr)
        return 2
    try:
        res = next_to_shortest(g, args.source, args.target)
    except QueryError as exc:
        print(f"ntsp: {exc}", file=sys.stderr)
        return 1
    except GraphError as exc:
        print(f"ntsp: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"ntsp: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    if args.check:
        complaint = _check_result(g, args.source, args.target, res)
        if complaint is not None:
            print(f"ntsp: check failed: {complaint}", file=sys.stderr)
            return 3
    _print_result(res, args.json)
    return 0


def _cmd_oracle(args) -> int:
    try:
        g = _read_graph(_query_path(args.parser, args))
    except OSError as exc:
        print(f"ntsp: cannot read input: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"ntsp: bad input: {exc}", file=sys.stderr)
        return 2
    s, t = args.source, args.target
    if not (0 <= s < g.n) or not (0 <= t < g.n):
        print(f"ntsp: endpoint out of range for n={g.n}", file=sys.stderr)
        return 2
    if s == t:
        print("ntsp: query endpoints must differ", file=sys.stderr)
        return 1
    shortest = dijkstra(g, s)[t]
    length = oracle_next_to_shortest(g, s, t)
    if args.json:
        out: dict = {"status": "none" if length is None else "found", "shortest": shortest}
        if length is not None:
            out["length"] = length
        print(json.dumps(out, separators=(",", ":")))
    elif length is None:
        print(f"none (shortest {shortest})")
    else:
        print(f"found: length {length} (shortest {shortest})")
    return 0


def _cmd_gen(args) -> int:
    try:
        g = random_graph(args.n, args.m, args.max_weight, args.zero_prob, args.seed)
    except GraphError as exc:
        print(f"ntsp: {exc}", file=sys.stderr)
        return 2
    text = serialize_graph(g)
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"ntsp: cannot write output: {exc}", file=sys.stderr)
            return 2
    return 0


def _add_query_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path_pos", nargs="?", metavar="file", help="input file (default: stdin)")
    p.add_argument("-s", "--source", type=int, required=True, help="source vertex id")
    p.add_argument("-t", "--target", type=int, required=True, help="target vertex id")
    p.add_argument("--path", help="input file, flag spelling")
    p.add_argument("--json", action="store_true", help="machine readable output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ntsp", description="next-to-shortest s-t path solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one query")
    _add_query_args(p)
    p.add_argument("--check", action="store_true", help="verify against exhaustive search")
    p.set_defaults(func=_cmd_solve, parser=p)

    p = sub.add_parser("oracle", help="answer by exhaustive search (small graphs)")
    _add_query_args(p)
    p.set_defaults(func=_cmd_oracle, parser=p)

    p = sub.add_parser("gen", help="write a random connected instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-weight", type=int, default=3)
    p.add_argument("--zero-prob", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PathCapExceeded as exc:  # oracle and solve --check
        print(f"ntsp: too large for exhaustive search: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
