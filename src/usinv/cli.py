"""Command-line front end: argument parsing, dispatch, deterministic JSON
reports, and the exit-code contract.

Exit codes: 0 pass/converge/covered, 1 check failure, 2 undecided at the
current truncation, 3 usage error (including inputs that would make a check
vacuous), 4 internal error (a failed self-check).  Reports never contain
timestamps, so identical inputs produce byte-identical output; elapsed time
goes to stderr.  The parser and each Lie algebra are built once per process
and shared by every command `run` serves.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence

from . import __version__
from .corpus import corpus_get, corpus_list, corpus_names
from .exact import SelfCheckError
from .invars import check_monomial_cap, generation_check, invariant_space
from .limits import Cocharacter, cochar_limit, grosshans_screen
from .points import build_point, build_us
from .rootsys import (ambient_dim, lie_algebra, parse_root, positive_roots,
                      root_system_to_json)
from .stab import compare_uS, lie_stabilizer
from .subsets import (ClosedSubset, closed_subset_from_roots, closure,
                      column_sets, enumerate_closed)

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


def parse_weights(text: str, name: str = "weight vector") -> tuple:
    """A comma list of integers; `name` says what it is in the error."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse {name} {text!r}")


def _corpus_flags(flags: dict) -> dict:
    """The subset flags a corpus:<name> entry in --pairs stands for.  A
    --family, --n, --l or --roots given next to it must agree with them."""
    name = flags["pairs"].split(":", 1)[1]
    entry = corpus_get(name)
    if entry is None:
        raise UsageError(f"unknown corpus entry {name!r}; "
                         f"available: {', '.join(corpus_names())}")
    family = entry["family"]
    if family == "A":
        implied = {"n": entry["n"], "l": entry["n"] - 1, "roots": None,
                   "pairs": ",".join(f"{i}:{j}" for i, j in entry["pairs"])}
    else:
        implied = {"n": ambient_dim(family, entry["rank"]),
                   "l": entry["rank"], "roots": ",".join(entry["roots"]),
                   "pairs": None}
    implied["family"] = family
    for key in ("family", "n", "l", "roots"):
        if flags[key] is not None and flags[key] != implied[key]:
            raise UsageError(f"--{key} {flags[key]} conflicts with "
                             f"corpus:{name}")
    return implied


def _resolve_subset(args) -> tuple:
    """(subset, family, rank) from --family/--n/--l/--pairs/--roots, after a
    corpus:<name> entry has filled in the flags it stands for."""
    flags = {key: getattr(args, key, None)
             for key in ("family", "n", "l", "pairs", "roots")}
    if flags["pairs"] and flags["pairs"].startswith("corpus:"):
        flags = _corpus_flags(flags)
    if flags["n"] is not None and flags["n"] < 1:
        raise UsageError("--n must be at least 1")
    family = flags["family"] or "A"
    if family == "A":
        if flags["roots"] is not None:
            raise UsageError("family A takes --pairs, not --roots")
        n = flags["n"]
        if n is None:
            raise UsageError("family A needs --n")
        if flags["l"] not in (None, n - 1):
            raise UsageError(f"--l {flags['l']} conflicts with --n {n}")
        pairs = parse_pairs(flags["pairs"] or "")
        if len(set(pairs)) != len(pairs):
            raise UsageError("pair set has repeats")
        return ClosedSubset(n, frozenset(pairs)), family, n - 1
    rank = flags["l"]
    if rank is None:
        raise UsageError(f"family {family} needs --l")
    if not flags["roots"]:
        raise UsageError(f"family {family} needs --roots")
    if flags["pairs"]:
        raise UsageError(f"family {family} takes --roots, not --pairs")
    n = ambient_dim(family, rank)
    if flags["n"] not in (None, n):
        raise UsageError(f"--n {flags['n']} conflicts with --family {family} "
                         f"--l {rank}")
    roots = [parse_root(r, n) for r in flags["roots"].split(",")]
    return closed_subset_from_roots(family, rank, roots), family, rank


def _alpha_arg(text):
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

    def common(sp):
        sp.add_argument("--family", choices=["A", "B", "C", "D"])
        sp.add_argument("--n", type=int, help="ambient dimension (family A)")
        sp.add_argument("--l", type=int, help="rank (families B, C, D)")
        sp.add_argument("--pairs", help="i:j,... or corpus:<name>")
        sp.add_argument("--roots", help="root names L1-L2,L1+L2,2L1,...")
        sp.add_argument("--out", help="write the JSON report to a file")
        sp.add_argument("--format", choices=["json", "table"], default="json")

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
        closed = closure(subset, family, rank)
        results = {"closed": closed == subset, "subset": subset.to_json()}
        if closed != subset:
            results["closure"] = closed.to_json()
            return EXIT_FAIL, results
        results["column_sets"] = column_sets(subset, family, rank).to_json()
        return EXIT_PASS, results
    found = enumerate_closed(args.n)
    results = {"n": args.n, "count": len(found),
               "subsets": [{"n": args.n, "pairs": pairs} for pairs in found]}
    return EXIT_PASS, results


def _cmd_point(args) -> tuple:
    subset, family, rank = _resolve_subset(args)
    alpha = _alpha_arg(args.weighted)
    index_set = None
    if args.index_set is not None:
        index_set = parse_weights(args.index_set, "index set")
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
        results["alpha"] = point.alphas()
    return EXIT_PASS, results


def _cmd_stab(args) -> tuple:
    subset, family, rank = _resolve_subset(args)
    alpha = _alpha_arg(args.weighted)
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
    check_monomial_cap(subset.n, args.degree)
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
    alpha = _alpha_arg(args.weighted)
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
    alpha = _alpha_arg(args.alpha)
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


def _dumps(report) -> str:
    """`json.dumps(report, sort_keys=True, indent=2)` byte for byte, in one
    pass: the stdlib's C encoder runs only without indent.  Reports are
    exact, so a float, a non-str key or any type other than str, int, bool,
    None, list, tuple and dict raises TypeError.  Each separator and indent
    goes into one chunk with the value after it, as in the stdlib's own
    iterencode, so the chunk list is no longer than the one it builds.

    A leaf, a non-empty list or tuple whose items are all exactly str or all
    exactly int, is encoded in one join and memoized for the rest of the
    report, keyed by (indent, item type, items): each distinct pair of
    `closed enumerate` and each distinct matrix row of a `stab` basis is
    encoded once.  Only exact types make a leaf, because True == 1 but
    encodes as true, and a subclass may redefine equality or hashing; any
    other list, one with a bool or a subclass item included, takes the
    item-by-item path below."""
    chunks = []
    append = chunks.append
    leaves: dict = {}

    def emit(value, lead: str, indent: str) -> None:
        # `lead` is the text before value; `indent` starts with "\n"
        if isinstance(value, (list, tuple)):
            if not value:
                append(lead + "[]")
                return
            inner = indent + "  "
            kind = type(value[0])
            if (kind is str or kind is int) and len({*map(type, value)}) == 1:
                key = (indent, kind, tuple(value))
                text = leaves.get(key)
                if text is None:
                    encode = _quote if kind is str else int.__repr__
                    text = leaves[key] = ("[" + inner + ("," + inner).join(
                        map(encode, value)) + indent + "]")
                append(lead + text)
                return
            lead += "[" + inner
            for item in value:
                emit(item, lead, inner)
                lead = "," + inner
            append(indent + "]")
        elif isinstance(value, dict):
            if not value:
                append(lead + "{}")
                return
            inner = indent + "  "
            lead += "{" + inner
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"report key {key!r} is not a str")
                emit(value[key], lead + _quote(key) + ": ", inner)
                lead = "," + inner
            append(indent + "}")
        elif isinstance(value, str):
            append(lead + _quote(value))
        elif value is None:
            append(lead + "null")
        elif value is True:
            append(lead + "true")
        elif value is False:
            append(lead + "false")
        elif isinstance(value, int):
            append(lead + int.__repr__(value))
        else:
            raise TypeError(f"{type(value).__name__} {value!r} has no exact "
                            f"JSON form")

    emit(report, "", "\n")
    return "".join(chunks)


_IO_FLAGS = {"--out", "--format"}


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
        if any(token.startswith(f + "=") for f in _IO_FLAGS):
            continue
        out.append(token)
    return out


def _join_cochar(argv: Sequence[str]) -> list:
    """argv with each `--cochar VALUE` pair joined into `--cochar=VALUE`:
    argparse reads a separate value such as -1,1 as an option."""
    out = []
    for token in argv:
        if out and out[-1] == "--cochar":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(_join_cochar(argv))
    started = time.monotonic()
    code, results = _DISPATCH[args.command](args)
    report = {
        "schema": SCHEMA,
        "command": _echo_args(argv),
        "exit_code": code,
        "results": results,
    }
    text = _dumps(report) + "\n"
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc}") from exc
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
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        sys.exit(EXIT_USAGE)
    except SelfCheckError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        sys.exit(EXIT_INTERNAL)
    sys.exit(code)


if __name__ == "__main__":
    main()
