"""Command-line front end: argument parsing, dispatch, deterministic JSON
reports, and the exit-code contract.

Exit codes: 0 pass/converge/covered, 1 check failure, 2 undecided at the
current truncation, 3 usage error (including inputs that would make a check
vacuous), 4 internal error (a failed self-check).  Reports never contain
timestamps, so identical inputs produce byte-identical output; elapsed time
goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .corpus import corpus_get, corpus_list, corpus_names
from .exact import SelfCheckError
from .invars import generation_check, invariant_space
from .limits import Cocharacter, cochar_limit, grosshans_screen
from .points import build_point, build_us
from .rootsys import ambient_dim, parse_root, positive_roots, root_system_to_json
from .stab import compare_uS, lie_stabilizer
from .subsets import (ClosedSubset, closed_subset_from_roots, column_sets,
                      enumerate_closed, is_closed, transitive_closure)

SCHEMA = "usinv-report/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_pairs(text: str) -> list:
    if not text:
        return []
    out = []
    for chunk in text.split(","):
        try:
            i, j = chunk.split(":")
            out.append((int(i), int(j)))
        except ValueError:
            raise UsageError(f"cannot parse pair {chunk!r}; expected i:j")
    return out


def parse_weights(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse weight vector {text!r}")


def _resolve_subset(args) -> tuple:
    """(subset, family, rank) from --family/--n/--l/--pairs/--roots,
    honoring corpus:<name> references."""
    pairs_text = getattr(args, "pairs", None)
    roots_text = getattr(args, "roots", None)
    if pairs_text and pairs_text.startswith("corpus:"):
        name = pairs_text.split(":", 1)[1]
        entry = corpus_get(name)
        if entry is None:
            raise UsageError(f"unknown corpus entry {name!r}; "
                             f"available: {', '.join(corpus_names())}")
        family = entry["family"]
        if "pairs" in entry:
            rank = entry["n"] - 1
            subset = ClosedSubset(entry["n"],
                                  frozenset(tuple(p) for p in entry["pairs"]))
            return subset, family, rank
        rank = entry["rank"]
        n = ambient_dim(family, rank)
        roots = [parse_root(r, n) for r in entry["roots"]]
        return closed_subset_from_roots(family, rank, roots), family, rank

    family = getattr(args, "family", None) or "A"
    if family == "A":
        n = getattr(args, "n", None)
        if n is None:
            raise UsageError("family A needs --n")
        rank = n - 1
        pairs = parse_pairs(pairs_text or "")
        return ClosedSubset(n, frozenset(pairs)), family, rank
    rank = getattr(args, "l", None) or getattr(args, "rank", None)
    if rank is None:
        raise UsageError(f"family {family} needs --l")
    n = ambient_dim(family, rank)
    if not roots_text:
        raise UsageError(f"family {family} needs --roots")
    roots = [parse_root(r, n) for r in roots_text.split(",")]
    return closed_subset_from_roots(family, rank, roots), family, rank


def _alpha_arg(args):
    text = getattr(args, "weighted", None) or getattr(args, "alpha", None)
    if text is None or text == "none":
        return None
    if text == "minimal":
        return "minimal"
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse alpha {text!r}; use 'minimal', "
                         f"'none', or a comma list of integers")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every run."""
    p = _Parser(prog="usinv", description=__doc__)
    p.add_argument("--version", action="version", version=f"usinv {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, roots=True):
        sp.add_argument("--family", choices=["A", "B", "C", "D"], default="A")
        sp.add_argument("--n", type=int, help="ambient dimension (family A)")
        sp.add_argument("--l", type=int, help="rank (families B, C, D)")
        sp.add_argument("--pairs", help="i:j,... or corpus:<name>")
        if roots:
            sp.add_argument("--roots", help="root names L1-L2,L1+L2,2L1,...")
        sp.add_argument("--out", help="write the JSON report to a file")
        sp.add_argument("--format", choices=["json", "table"], default="json")
        sp.add_argument("--json", action="store_const", const="json",
                        dest="format", help="shorthand for --format json")

    closed = sub.add_parser("closed", help="closed pair-set operations")
    closed_sub = closed.add_subparsers(dest="subcommand", required=True)
    cc = closed_sub.add_parser("check", help="transitivity check")
    common(cc)
    ce = closed_sub.add_parser("enumerate", help="enumerate closed subsets")
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--out")
    ce.add_argument("--format", choices=["json", "table"], default="json")

    pt = sub.add_parser("point", help="build the wedge point")
    common(pt)
    pt.add_argument("--weighted", help="none | minimal | comma list")
    pt.add_argument("--index-set", help="comma list of columns")

    st = sub.add_parser("stab", help="Lie-algebra stabilizer")
    common(st)
    st.add_argument("--weighted", help="none | minimal | comma list")

    inv = sub.add_parser("invariants", help="graded invariant dimensions")
    common(inv)
    inv.add_argument("--degree", type=int, required=True)

    gen = sub.add_parser("check-generation",
                         help="span check against principal minors")
    common(gen)
    gen.add_argument("--degree", type=int, required=True)
    gen.add_argument("--slack", type=int, default=0)
    gen.add_argument("--max-slack", type=int, default=2)

    lim = sub.add_parser("limit", help="monomial curve limit")
    common(lim)
    lim.add_argument("--cochar", required=True, help="comma list of weights")
    lim.add_argument("--weighted", help="none | minimal | comma list")

    sc = sub.add_parser("screen", help="cocharacter grid screening")
    common(sc)
    sc.add_argument("--alpha", help="none | minimal | comma list", default="none")
    sc.add_argument("--radius", type=int, default=1)

    co = sub.add_parser("corpus", help="list bundled examples")
    co.add_argument("--out")
    co.add_argument("--format", choices=["json", "table"], default="json")

    rt = sub.add_parser("roots", help="positive roots of a family")
    rt.add_argument("--family", choices=["A", "B", "C", "D"], required=True)
    rt.add_argument("--rank", type=int, required=True)
    rt.add_argument("--out")
    rt.add_argument("--format", choices=["json", "table"], default="json")

    return p


def _cmd_closed(args) -> tuple:
    if args.subcommand == "check":
        subset, family, rank = _resolve_subset(args)
        closed = is_closed(subset.n, subset.pairs)
        results = {"closed": closed,
                   "subset": subset.to_json()}
        if closed:
            results["column_sets"] = column_sets(subset, family, rank).to_json()
        else:
            closure = transitive_closure(subset.n, subset.pairs)
            results["closure"] = closure.to_json()
        return (EXIT_PASS if closed else EXIT_FAIL), results
    subs = enumerate_closed(args.n)
    results = {"n": args.n, "count": len(subs),
               "subsets": [s.to_json() for s in subs]}
    return EXIT_PASS, results


def _cmd_point(args) -> tuple:
    subset, family, rank = _resolve_subset(args)
    alpha = _alpha_arg(args)
    index_set = None
    if getattr(args, "index_set", None):
        index_set = tuple(int(x) for x in args.index_set.split(","))
    pattern = build_us(subset, family, rank)
    point = build_point(subset, family, rank, index_set=index_set, alpha=alpha)
    results = {
        "subset": subset.to_json(),
        "column_sets": pattern.column_family.to_json(),
        "us_pattern": pattern.to_json(),
        "point": point.to_json(),
        "weighted": alpha is not None,
    }
    if alpha == "minimal":
        results["alpha"] = {s.label: s.alpha for s in point.summands}
    return EXIT_PASS, results


def _cmd_stab(args) -> tuple:
    from .rootsys import lie_algebra
    subset, family, rank = _resolve_subset(args)
    alpha = _alpha_arg(args)
    point = build_point(subset, family, rank, alpha=alpha)
    algebra = lie_algebra(family, rank)
    report = lie_stabilizer(point, algebra)
    full, nil = compare_uS(report, subset, family, rank)
    results = {
        "subset": subset.to_json(),
        "weighted": alpha is not None,
        "stabilizer": report.to_json(),
    }
    ok = full if alpha is not None else nil
    return (EXIT_PASS if ok else EXIT_FAIL), results


def _cmd_invariants(args) -> tuple:
    if args.degree < 1:
        raise UsageError("--degree must be positive")
    subset, family, rank = _resolve_subset(args)
    spaces = [invariant_space(subset, family, rank, d)
              for d in range(1, args.degree + 1)]
    results = {
        "subset": subset.to_json(),
        "graded": [s.to_json() for s in spaces],
    }
    return EXIT_PASS, results


def _cmd_generation(args) -> tuple:
    subset, family, rank = _resolve_subset(args)
    report = generation_check(subset, family, rank, args.degree,
                              slack=args.slack, max_slack=args.max_slack)
    results = {"subset": subset.to_json(), "generation": report.to_json()}
    if report.covered:
        return EXIT_PASS, results
    return EXIT_UNDECIDED, results


def _cmd_limit(args) -> tuple:
    subset, family, rank = _resolve_subset(args)
    alpha = _alpha_arg(args)
    point = build_point(subset, family, rank, alpha=alpha)
    lam = Cocharacter(family, rank, parse_weights(args.cochar))
    outcome = cochar_limit(point, lam)
    results = {
        "subset": subset.to_json(),
        "cocharacter": list(lam.weights),
        "outcome": outcome.to_json(),
    }
    return (EXIT_PASS if outcome.kind == "converges" else EXIT_FAIL), results


def _cmd_screen(args) -> tuple:
    subset, family, rank = _resolve_subset(args)
    alpha = _alpha_arg(args)
    report = grosshans_screen(subset, family, rank, alpha, args.radius)
    results = {
        "subset": subset.to_json(),
        "alpha": "none" if alpha is None else (
            "minimal" if alpha == "minimal" else list(alpha)),
        "screen": report.to_json(),
    }
    return (EXIT_PASS if report.passed else EXIT_FAIL), results


def _cmd_corpus(args) -> tuple:
    return EXIT_PASS, {"entries": corpus_list()}


def _cmd_roots(args) -> tuple:
    system = positive_roots(args.family, args.rank)
    return EXIT_PASS, {"root_system": root_system_to_json(system)}


_DISPATCH = {
    "closed": _cmd_closed,
    "point": _cmd_point,
    "stab": _cmd_stab,
    "invariants": _cmd_invariants,
    "check-generation": _cmd_generation,
    "limit": _cmd_limit,
    "screen": _cmd_screen,
    "corpus": _cmd_corpus,
    "roots": _cmd_roots,
}


def _render_table(report: dict, stream) -> None:
    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            stream.write(f"{prefix[:-1]}: {json.dumps(value, sort_keys=True)}\n")
        else:
            stream.write(f"{prefix[:-1]}: {value}\n")
    walk("", report)


_IO_FLAGS = {"--out", "--format"}
_IO_SWITCHES = {"--json"}


def _echo_args(argv: Sequence[str]) -> list:
    """Command echo without I/O routing flags, so identical inputs yield
    byte-identical reports regardless of where they are written."""
    out = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token in _IO_FLAGS:
            skip = True
            continue
        if token in _IO_SWITCHES or any(token.startswith(f + "=")
                                        for f in _IO_FLAGS):
            continue
        out.append(token)
    return out


def run(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(list(argv))
    started = time.monotonic()
    code, results = _DISPATCH[args.command](args)
    report = {
        "schema": SCHEMA,
        "command": _echo_args(argv),
        "exit_code": code,
        "results": results,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if getattr(args, "format", "json") == "table":
        _render_table(report, sys.stdout)
    elif not out:
        sys.stdout.write(text)
    elapsed = time.monotonic() - started
    sys.stderr.write(f"elapsed: {elapsed:.3f}s\n")
    return code


def main(argv: Optional[Sequence[str]] = None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code = run(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        sys.exit(EXIT_USAGE)
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        sys.exit(EXIT_USAGE)
    except SelfCheckError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        sys.exit(EXIT_INTERNAL)
    sys.exit(code)


if __name__ == "__main__":
    main()
