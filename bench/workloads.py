"""Seeded command generators for the usinv benchmark.

Every workload is a list of `usinv` argv lists drawn from `--seed` by this
module alone: closed pair sets and closed root sets are enumerated here by
brute force, never through `usinv.subsets.enumerate_closed`, so the program
under test sees only the generated argv.  The same module extracts the
checked result of a report, so the reference table and the benchmark compare
the same fields.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from functools import lru_cache

WORKLOADS = ("invariants", "stab-sweep", "screen")

# Draw sizes keep one pass over a list short (about 9 s for invariants, 5 s
# for stab-sweep and 3 s for screen on a 2.1 GHz Xeon core), so a run times
# every command several times.
SL6_DRAW = 170
ROOT_SET_DRAW = 10

# SL_4 draws take the empty set, whose commands are far cheaper than any
# other, and one closed set from each band of sizes |S|, so that every seed
# mixes small and large sets alike and the few long commands of `invariants`
# and `screen` add up to about the same work (at degree 3, within a band the
# costs differ by at most a third).
SL4_SIZE_BANDS = ((1,), (2,), (3,), (4, 5, 6))

# Fixed commands of each workload, run in every pass after the seeded draw.
INVARIANT_FIXED = (
    ("invariants", "--pairs", "corpus:full-borel", "--degree", "5"),
    ("check-generation", "--pairs", "corpus:regularsubgroup", "--degree", "3"),
)
STAB_FIXED = (("closed", "enumerate", "--n", "6"),)
D3_FULL = "L1-L2,L1+L2,L1-L3,L1+L3,L2-L3,L2+L3"
SCREEN_FIXED = (
    ("screen", "--pairs", "corpus:boundary-example", "--alpha", "none",
     "--radius", "5"),
    ("screen", "--family", "D", "--l", "3", "--roots", D3_FULL,
     "--alpha", "minimal", "--radius", "2"),
)

# A cheap command of the workload's own kind, run once before timing; the
# set-up probe times `import usinv` plus this command in a fresh process.
WARMUP = {
    "invariants": ("invariants", "--n", "3", "--pairs", "1:2", "--degree", "2"),
    "stab-sweep": ("stab", "--n", "4", "--pairs", "1:3,2:4",
                   "--weighted", "minimal"),
    "screen": ("screen", "--n", "3", "--pairs", "1:2", "--alpha", "minimal",
               "--radius", "2"),
}


# ---------------------------------------------------------------------------
# input universes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def closed_pair_sets(n: int) -> tuple:
    """Every transitively closed set of pairs i < j on [n], as sorted pair
    tuples ordered by (size, pairs)."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    bit = {p: 1 << b for b, p in enumerate(pairs)}
    triples = [(bit[(i, j)], bit[(j, k)], bit[(i, k)])
               for i, j, k in itertools.combinations(range(1, n + 1), 3)]
    found = []
    for mask in range(1 << len(pairs)):
        if all(mask & c or not (mask & a and mask & b) for a, b, c in triples):
            found.append(tuple(p for p in pairs if mask & bit[p]))
    found.sort(key=lambda s: (len(s), s))
    return tuple(found)


def positive_root_vectors(family: str, rank: int) -> list:
    """Positive roots of B/C/D as coefficient vectors over L_1..L_rank."""
    def vec(*terms):
        v = [0] * rank
        for i, c in terms:
            v[i - 1] = c
        return tuple(v)

    roots = []
    for i, j in itertools.combinations(range(1, rank + 1), 2):
        roots += [vec((i, 1), (j, -1)), vec((i, 1), (j, 1))]
    if family == "B":
        roots += [vec((i, 1)) for i in range(1, rank + 1)]
    if family == "C":
        roots += [vec((i, 2)) for i in range(1, rank + 1)]
    return sorted(roots, reverse=True)


def root_name(v: tuple) -> str:
    out = ""
    for i, c in enumerate(v, start=1):
        if c:
            sign = "-" if c < 0 else ("+" if out else "")
            out += f"{sign}{'' if abs(c) == 1 else abs(c)}L{i}"
    return out


@lru_cache(maxsize=None)
def closed_root_sets(family: str, rank: int) -> tuple:
    """Every non-empty set of positive roots closed under sums that are
    positive roots, as tuples of root names.  The empty set is left out:
    `--roots ""` is a usage error."""
    roots = positive_root_vectors(family, rank)
    positive = set(roots)
    found = []
    for size in range(1, len(roots) + 1):
        for combo in itertools.combinations(roots, size):
            chosen = set(combo)
            if all(s not in positive or s in chosen
                   for a, b in itertools.combinations(combo, 2)
                   for s in [tuple(x + y for x, y in zip(a, b))]):
                found.append(tuple(root_name(r) for r in combo))
    return tuple(found)


def pairs_text(pairs) -> str:
    return ",".join(f"{i}:{j}" for i, j in pairs)


# ---------------------------------------------------------------------------
# argv lists
# ---------------------------------------------------------------------------

def sl4_invariants_argv(pairs) -> tuple:
    return ("invariants", "--n", "4", "--pairs", pairs_text(pairs),
            "--degree", "3")


def sl4_screen_argv(pairs) -> tuple:
    return ("screen", "--n", "4", "--pairs", pairs_text(pairs),
            "--alpha", "minimal", "--radius", "5")


def sl6_stab_argv(pairs) -> tuple:
    return ("stab", "--n", "6", "--pairs", pairs_text(pairs),
            "--weighted", "minimal")


def root_stab_argv(family: str, roots) -> tuple:
    return ("stab", "--family", family, "--l", "3", "--roots", ",".join(roots),
            "--weighted", "minimal")


def universe(workload: str) -> list:
    """Every argv the workload's generator can draw, fixed commands included."""
    if workload == "invariants":
        return ([sl4_invariants_argv(s) for s in closed_pair_sets(4)]
                + list(INVARIANT_FIXED))
    if workload == "stab-sweep":
        return ([sl6_stab_argv(s) for s in closed_pair_sets(6)]
                + [root_stab_argv(f, r) for f in "BCD"
                   for r in closed_root_sets(f, 3)]
                + list(STAB_FIXED))
    if workload == "screen":
        return ([sl4_screen_argv(s) for s in closed_pair_sets(4)]
                + list(SCREEN_FIXED))
    raise ValueError(f"unknown workload {workload!r}")


def sl4_draw(rng) -> list:
    sets = closed_pair_sets(4)
    return [()] + [rng.choice([s for s in sets if len(s) in band])
                   for band in SL4_SIZE_BANDS]


def commands(workload: str, seed: int) -> list:
    """The seeded command list of one pass: a draw of inputs, then the
    workload's fixed commands."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "invariants":
        return ([sl4_invariants_argv(s) for s in sl4_draw(rng)]
                + list(INVARIANT_FIXED))
    if workload == "stab-sweep":
        drawn = [sl6_stab_argv(s)
                 for s in rng.sample(closed_pair_sets(6), SL6_DRAW)]
        for family in "BCD":
            drawn += [root_stab_argv(family, r) for r in
                      rng.sample(closed_root_sets(family, 3), ROOT_SET_DRAW)]
        rng.shuffle(drawn)
        return list(STAB_FIXED) + drawn
    if workload == "screen":
        return [sl4_screen_argv(s) for s in sl4_draw(rng)] + list(SCREEN_FIXED)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checked results
# ---------------------------------------------------------------------------

def digest(text: str) -> str:
    """Short report digest; reports are byte-identical for identical argv."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def subset_size(argv) -> int:
    """|S| as the benchmark generated it: pairs or roots in the argv."""
    for flag in ("--pairs", "--roots"):
        if flag in argv:
            text = argv[argv.index(flag) + 1]
            return len(text.split(",")) if text else 0
    return 0


def outcome(argv, report: dict):
    """The checked result of one report, as a JSON-able value."""
    res = report["results"]
    kind = argv[0]
    if kind == "stab":
        st = res["stabilizer"]
        return [st["dimension"], st["equals_uS"]]
    if kind == "invariants":
        return [g["dimension"] for g in res["graded"]]
    if kind == "screen":
        sc = res["screen"]
        return [sc["histogram"], sc["passed"]]
    if kind == "check-generation":
        gen = res["generation"]
        return [gen["covered"], [g["dimension"] for g in gen["graded"]]]
    if kind == "closed":
        return res["count"]
    raise ValueError(f"no checked result for {kind!r}")


def intrinsic_ok(argv, code: int, value) -> bool:
    """Facts that hold whatever the reference says: a weighted stabilizer
    has dimension |S| and equals u_S, a screen passes iff it exits 0, and
    `closed enumerate` counts the closed sets found here by brute force."""
    kind = argv[0]
    if kind == "stab":
        return value[0] == subset_size(argv) and value[1] is True and code == 0
    if kind == "screen":
        return value[1] == (code == 0)
    if kind == "closed":
        return value == len(closed_pair_sets(int(argv[argv.index("--n") + 1])))
    return True
