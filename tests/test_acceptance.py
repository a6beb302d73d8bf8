"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import sys
import time

from usinv.cli import run as cli_run
from usinv.corpus import corpus_names
from usinv.exact import GradedPoly, pvar
from usinv.invars import (Minor, apply_derivation_poly, generation_check,
                          invariant_space, is_invariant_minor)
from usinv.limits import Cocharacter, cochar_limit, grosshans_screen
from usinv.points import build_point, build_us, minimal_alpha
from usinv.rootsys import lie_algebra, parse_root
from usinv.stab import compare_uS, lie_stabilizer
from usinv.statements import (exponent_lemma_check, mat_substitute,
                              wedge_coefficient_check)
from usinv.subsets import (ClosedSubset, closed_subset_from_roots,
                           column_sets, enumerate_closed)
from helpers import (closed_subsets, oracle_closed_count,
                     oracle_invariant_dimension, pair_generators,
                     random_closed_pairs)

BOUNDARY = frozenset({(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)})


def _report(num, ok, text):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_closed_subset_combinatorics():
    t0 = time.monotonic()
    subs3 = enumerate_closed(3)
    ok = len(subs3) == 7 == oracle_closed_count(3)
    count4 = len(enumerate_closed(4))
    ok = ok and count4 == oracle_closed_count(4)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"enumerate_closed: n=3 gives 7, n=4 gives {count4} "
                   f"(oracle match), {elapsed:.3f}s")


def test_criterion_2_paper_examples_bit_exact():
    checks = []

    # 4x4 pattern with parameters at (1,3), (2,4): column sets
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    cols = column_sets(S, "A", 3)
    checks.append([set(cols[j]) for j in (1, 2, 3, 4)] ==
                  [{1}, {2}, {1, 3}, {2, 4}])
    p = build_point(S, "A", 3)
    checks.append([(s.label, sorted(s.comps)) for s in p.summands] == [
        ("S_1", [(1,)]), ("S_2", [(2,)]),
        ("S_3", [(1, 3)]), ("S_4", [(2, 4)])])

    # second display: p for the codimension-1 boundary pattern
    SB = ClosedSubset(4, BOUNDARY)
    pb = build_point(SB, "A", 3)
    checks.append([(s.label, sorted(s.comps)) for s in pb.summands] == [
        ("S_1", [(1,)]), ("S_2", [(1, 2)]),
        ("S_3", [(1, 3)]), ("S_4", [(1, 2, 3, 4)])])

    # orthogonal example: matrix, column sets, point
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    SD = closed_subset_from_roots("D", 2, roots)
    u = build_us(SD, "D", 2)
    checks.append([[repr(e) for e in row] for row in u.matrix] == [
        ["1", "a", "a*b", "-b"],
        ["0", "1", "b", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "-a", "1"]])
    colsD = column_sets(SD, "D", 2)
    checks.append([set(colsD[j]) for j in (1, 2, 3, 4)] ==
                  [{1}, {1, 2}, {1, 2, 3, 4}, {1, 4}])
    pD = build_point(SD, "D", 2)
    checks.append([(s.label, sorted(s.comps)) for s in pD.summands] == [
        ("S_3", [(1, 2, 3, 4)]), ("S_4", [(1, 4)])])

    # symplectic example: the display is the chart after c -> c - ab
    rootsC = [parse_root(x, 4) for x in ("L1-L2", "L1+L2", "2L1")]
    SC = closed_subset_from_roots("C", 2, rootsC)
    uC = build_us(SC, "C", 2)
    display = mat_substitute(uC.matrix, {
        pvar("c"): GradedPoly.var(pvar("c"))
                   - GradedPoly.var(pvar("a")) * GradedPoly.var(pvar("b"))})
    checks.append([[repr(e) for e in row] for row in display] == [
        ["1", "a", "c", "b"],
        ["0", "1", "b", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "-a", "1"]])
    checks.append([set(column_sets(SC, "C", 2)[j]) for j in (1, 2, 3, 4)] ==
                  [{1}, {1, 2}, {1, 2, 3, 4}, {1, 4}])

    _report(2, all(checks),
            f"{sum(checks)}/{len(checks)} worked examples reproduced verbatim")


def test_criterion_3_stabilizer_suite():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3, 4):
        algebra = lie_algebra("A", n - 1)
        for S in closed_subsets(n):
            p = build_point(S, "A", n - 1, alpha="minimal")
            rep = lie_stabilizer(p, algebra)
            full, _ = compare_uS(rep, S, "A", n - 1)
            if rep.dimension != S.size or not full:
                failures.append(("A", n, S.sorted_pairs()))
    bcd = [
        ("D", 2, ["L1-L2", "L1+L2"]),
        ("C", 2, ["L1-L2", "L1+L2", "2L1"]),
        ("B", 2, ["L1-L2", "L1+L2", "L1", "L2"]),
    ]
    for family, rank, names in bcd:
        n = 2 * rank + (1 if family == "B" else 0)
        S = closed_subset_from_roots(family, rank,
                                     [parse_root(x, n) for x in names])
        p = build_point(S, family, rank, alpha="minimal")
        rep = lie_stabilizer(p, lie_algebra(family, rank))
        full, _ = compare_uS(rep, S, family, rank)
        if rep.dimension != S.size or not full:
            failures.append((family, rank, names))

    SB = ClosedSubset(4, BOUNDARY)
    q = cochar_limit(build_point(SB, "A", 3),
                     Cocharacter("A", 3, (1, -1, -1, 1))).value
    limit_dim = lie_stabilizer(q, lie_algebra("A", 3)).dimension
    elapsed = time.monotonic() - t0
    ok = not failures and limit_dim == 6 and elapsed < 60
    _report(3, ok, f"stabilizers match u_S for all closed S (n<=4) and "
                   f"rank-2 B/C/D; boundary limit dim {limit_dim}; "
                   f"{elapsed:.1f}s; failures: {failures}")


def test_criterion_4_minor_criterion_vs_derivation():
    mismatches = 0
    total = 0
    for n in (2, 3, 4):
        for S in closed_subsets(n):
            cols = column_sets(S, "A", n - 1)
            mats = pair_generators(S)
            for size in range(1, n + 1):
                for columns in itertools.combinations(range(1, n + 1), size):
                    for rows in itertools.combinations(range(1, n + 1), size):
                        m = Minor(columns, rows)
                        sym = all(apply_derivation_poly(A, m.poly()) == 0
                                  for A in mats)
                        total += 1
                        if sym != is_invariant_minor(m, cols):
                            mismatches += 1
    _report(4, mismatches == 0,
            f"criterion == derivation on {total} minors, {mismatches} mismatches")


def test_criterion_5_invariant_dimensions_vs_oracle():
    S2 = ClosedSubset(2, frozenset({(1, 2)}))
    d1 = invariant_space(S2, "A", 1, 1).dimension
    d2 = invariant_space(S2, "A", 1, 2).dimension
    ok = (d1, d2) == (2, 4)

    swept = 0
    for S in closed_subsets(3):
        mats = pair_generators(S)
        for d in (1, 2, 3):
            got = invariant_space(S, "A", 2, d).dimension
            want = oracle_invariant_dimension(mats, 3, d)
            if got != want:
                ok = False
        swept += 1
    ok = ok and swept >= 5
    _report(5, ok, f"SL_2 dims (d1,d2)=({d1},{d2}); SL_3 oracle sweep over "
                   f"{swept} closed subsets, degrees <= 3")


def test_criterion_6_generation_desk_scale():
    t0 = time.monotonic()
    ok = True
    refutations = 0
    for S in closed_subsets(2):
        rep = generation_check(S, "A", 1, 4, slack=0, max_slack=1)
        ok = ok and rep.covered
    sl3_cases = [frozenset(), frozenset({(1, 2), (1, 3), (2, 3)}),
                 frozenset({(1, 3)}), frozenset({(1, 2), (1, 3)})]
    slacks = []
    for pairs in sl3_cases:
        rep = generation_check(ClosedSubset(3, pairs), "A", 2, 3,
                               slack=0, max_slack=1)
        ok = ok and rep.covered and rep.slack_used <= 1
        slacks.append(rep.slack_used)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600 and refutations == 0
    _report(6, ok, f"generation covered: SL_2 to degree 4, SL_3 to degree 3 "
                   f"with slacks {slacks}; no refutations; {elapsed:.1f}s")


def test_criterion_7_exponent_lemma_exhaustive():
    t0 = time.monotonic()
    counterexamples = 0
    tested = 0
    for n in range(1, 6):
        for w in itertools.product(range(-4, 5), repeat=n):
            rep = exponent_lemma_check(list(w))
            if rep.hypotheses_met:
                tested += 1
                if not rep.all_hold:
                    counterexamples += 1
    elapsed = time.monotonic() - t0
    ok = counterexamples == 0 and elapsed < 60
    _report(7, ok, f"exponent inequalities hold on {tested} hypothesis "
                   f"vectors (n<=5, radius 4), {counterexamples} "
                   f"counterexamples, {elapsed:.1f}s")


def test_criterion_8_wedge_coefficient_identity():
    mismatches = 0
    checked = 0
    signs = {1: 0, -1: 0}
    for S in closed_subsets(4):
        cols = column_sets(S, "A", 3)
        for t in range(2, 5):
            for s in range(1, t):
                if s in cols[t]:
                    continue
                okst, eps = wedge_coefficient_check(cols, s, t)
                checked += 1
                signs[eps] += 1
                if not okst:
                    mismatches += 1
    rng = random.Random(2024)
    seen = set()
    while len(seen) < 20:
        pairs = random_closed_pairs(5, rng)
        if pairs in seen:
            continue
        seen.add(pairs)
        cols = column_sets(ClosedSubset(5, pairs), "A", 4)
        for t in range(2, 6):
            for s in range(1, t):
                if s in cols[t]:
                    continue
                okst, eps = wedge_coefficient_check(cols, s, t)
                checked += 1
                signs[eps] += 1
                if not okst:
                    mismatches += 1
    _report(8, mismatches == 0,
            f"wedge coefficient identity on {checked} (s,t) instances over "
            f"SL_4 and 20 random SL_5 subsets; signs +1:{signs[1]} "
            f"-1:{signs[-1]}; {mismatches} magnitude mismatches")


def test_criterion_9_codimension_screening():
    SB = ClosedSubset(4, BOUNDARY)
    plain = grosshans_screen(SB, "A", 3, None, 1)
    ok = [w for (w, _) in plain.witnesses] == [(1, -1, -1, 1)]

    assert minimal_alpha(4) == (1, 7, 45, 363)
    weighted = grosshans_screen(SB, "A", 3, "minimal", 3)
    ok = ok and weighted.passed and 1 not in weighted.histogram

    S0 = ClosedSubset(2, frozenset())
    empty = grosshans_screen(S0, "A", 1, "minimal", 3)
    ok = ok and empty.passed and 1 not in empty.histogram
    _report(9, ok, f"plain point: excess-1 witness at (1,-1,-1,1); weighted "
                   f"alpha (1,7,45,363) radius 3 clean "
                   f"({weighted.converged} finite limits); empty set clean")


def test_criterion_10_determinism(tmp_path, capsys):
    ok = True
    jobs = []
    for name in corpus_names():
        jobs.append(["point", "--pairs", f"corpus:{name}",
                     "--weighted", "minimal"])
        jobs.append(["stab", "--pairs", f"corpus:{name}",
                     "--weighted", "minimal"])
    jobs.append(["closed", "check", "--pairs", "corpus:regularsubgroup"])
    jobs.append(["limit", "--pairs", "corpus:boundary-example",
                 "--cochar", "1,-1,-1,1"])
    jobs.append(["screen", "--pairs", "corpus:boundary-example",
                 "--alpha", "none", "--radius", "1"])
    jobs.append(["invariants", "--pairs", "corpus:full-borel",
                 "--degree", "2"])
    jobs.append(["corpus"])
    for argv in jobs:
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli_run(argv + ["--out", str(a)])
        cli_run(argv + ["--out", str(b)])
        ok = ok and a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    _report(10, ok, f"byte-identical reports across {len(jobs)} corpus "
                    f"command invocations")
