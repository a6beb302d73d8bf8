"""Monomial-curve limits, exponent inequalities, wedge coefficient identity,
screening."""

import itertools
import random

import pytest
from fractions import Fraction

from usinv.exact import MultiVector, identity
from usinv.limits import (Cocharacter, LimitError, cochar_limit,
                          cocharacter_grid, grosshans_screen)
from usinv.points import build_point
from usinv.rootsys import lie_algebra
from usinv.statements import exponent_lemma_check, wedge_coefficient_check
from usinv.subsets import ClosedSubset, column_sets
from helpers import minor, random_closed_pairs

BOUNDARY = frozenset({(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)})


def test_cocharacter_validation():
    Cocharacter("A", 3, (1, -1, -1, 1))
    with pytest.raises(LimitError):
        Cocharacter("A", 3, (1, 0, 0, 0))
    Cocharacter("D", 2, (1, 2, -1, -2))
    with pytest.raises(LimitError):
        Cocharacter("D", 2, (1, 2, -1, 2))
    Cocharacter("B", 2, (1, 0, -1, 0, 0))
    with pytest.raises(LimitError):
        Cocharacter("B", 2, (1, 0, -1, 0, 1))
    with pytest.raises(LimitError):
        Cocharacter("A", 1, (Fraction(1, 2), -Fraction(1, 2)))
    with pytest.raises(LimitError, match="unsupported family"):
        Cocharacter("Matrix", 3, (1, 0, -1))


def test_unweighted_boundary_limit_value():
    S = ClosedSubset(4, BOUNDARY)
    p = build_point(S, "A", 3)
    out = cochar_limit(p, Cocharacter("A", 3, (1, -1, -1, 1)))
    assert out.kind == "converges"
    v = out.value
    comps = [(s.label, sorted(s.comps)) for s in v.summands]
    assert comps == [
        ("S_1", []),
        ("S_2", [(1, 2)]),
        ("S_3", [(1, 3)]),
        ("S_4", [(1, 2, 3, 4)]),
    ]
    assert out.ledger[("S_1", (1,))] == 1


def test_weighted_boundary_limit_diverges():
    S = ClosedSubset(4, BOUNDARY)
    p = build_point(S, "A", 3, alpha="minimal")
    out = cochar_limit(p, Cocharacter("A", 3, (1, -1, -1, 1)))
    assert out.kind == "diverges"
    # the level-3 flag wedge has exponent 1 + 0 + (-1) = -1
    assert out.negative_witness == (("flag", 3), -1)
    assert out.ledger[("flag", 3)] == -1


def test_zero_cocharacter_identity():
    S = ClosedSubset(3, frozenset({(1, 3)}))
    lam = Cocharacter("A", 2, (0, 0, 0))
    p = build_point(S, "A", 2)
    out = cochar_limit(p, lam)
    assert out.kind == "converges"
    assert out.value == p
    pw = build_point(S, "A", 2, alpha="minimal")
    outw = cochar_limit(pw, lam)
    assert outw.kind == "converges"
    assert outw.value.flag_coeffs == pw.flag_coeffs
    assert [s.comps for s in outw.value.summands] == [s.comps for s in pw.summands]


def test_exponent_additivity_on_wedges():
    # the ledger exponent of a pure wedge is the sum of its factor weights
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 5)
        w = [rng.randint(-3, 3) for _ in range(n - 1)]
        w.append(-sum(w))
        if max(abs(x) for x in w) > 3:
            continue
        lam = Cocharacter("A", n - 1, tuple(w))
        k = rng.randint(1, n)
        idx = tuple(sorted(rng.sample(range(1, n + 1), k)))
        p = MultiVector.pure(n, [(idx, "w")])
        out = cochar_limit(p, lam)
        assert out.ledger[("w", idx)] == sum(w[i - 1] for i in idx)


def test_conjugators_must_be_unitriangular_for_weighted():
    S = ClosedSubset(3, frozenset({(1, 3)}))
    pw = build_point(S, "A", 2, alpha="minimal")
    lam = Cocharacter("A", 2, (1, 0, -1))
    bad = identity(3)
    bad[2][0] = Fraction(1)  # lower entry
    with pytest.raises(LimitError):
        cochar_limit(pw, lam, u=bad)
    good = identity(3)
    good[0][2] = Fraction(1)
    out = cochar_limit(pw, lam, u=good)
    assert out.kind in ("converges", "diverges")


def test_conjugated_limit_of_plain_point():
    # u e1 = e1, and the conjugated curve can produce mixed components
    S = ClosedSubset(2, frozenset())
    p = build_point(S, "A", 1)
    u = identity(2)
    u[0][1] = Fraction(1)  # e2 -> e2 + e1 under column action
    lam = Cocharacter("A", 1, (1, -1))
    out = cochar_limit(p, lam, u=u, uprime=None)
    # e2 . u = e2 + e1; scaling sends e1 part to t e1, e2 part to t^{-1} e2
    assert out.kind == "diverges"
    assert out.negative_witness[0] == ("S_2", (2,))


def _group_image(A, comps, n):
    """The coefficient of e_{t'} in A.e_t is the minor of A with rows t' and
    columns t; None stands for the identity."""
    if A is None:
        return dict(comps)
    out = {}
    for t, c in comps.items():
        for t2 in itertools.combinations(range(1, n + 1), len(t)):
            out[t2] = out.get(t2, 0) + minor(A, t2, t) * c
    return out


def _oracle_limit(p, w, u, uprime):
    """(kind, ledger, summand values, flag values) of the limit of
    (u.p).lambda(t).uprime, from the minors of u and uprime."""
    n = p.n
    ledger, values, flags = {}, [], []
    shift = 0
    if p.levels:
        prefixes = list(itertools.accumulate(w[j - 1]
                                             for j in p.sigma[:p.levels]))
        shift = sum(prefixes)
        flags = [c if e == 0 else 0
                 for c, e in zip(p.flag_coeffs, prefixes)]
        for k, (c, e) in enumerate(zip(p.flag_coeffs, prefixes), start=1):
            if c:
                ledger[("flag", k)] = e
    for s in p.summands:
        alpha = getattr(s, "alpha", 0)
        laurent = {}
        for t1, c1 in _group_image(u, s.comps, n).items():
            e = alpha * shift + sum(w[i - 1] for i in t1)
            for t2, c2 in _group_image(uprime, {t1: c1}, n).items():
                lau = laurent.setdefault(t2, {})
                lau[e] = lau.get(e, 0) + c2
        value = {}
        for t2, lau in laurent.items():
            exps = [e for e, c in lau.items() if c]
            if exps:
                ledger[(s.label, t2)] = min(exps)
            if lau.get(0):
                value[t2] = lau[0]
        values.append((s.label, value))
    kind = "diverges" if min(ledger.values(), default=0) < 0 else "converges"
    return kind, ledger, values, flags


def _random_unitriangular(n, sigma, rng):
    pos = {j: k for k, j in enumerate(sigma, start=1)}
    M = identity(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if pos[i] < pos[j] and rng.random() < 0.6:
                M[i - 1][j - 1] = Fraction(rng.randint(-3, 3),
                                           rng.randint(1, 2))
    return M


def test_conjugated_limits_match_minor_oracle():
    rng = random.Random(29)
    kinds = set()
    for trial in range(60):
        n = 3 + trial % 2
        S = ClosedSubset(n, random_closed_pairs(n, rng))
        lam = rng.choice(cocharacter_grid("A", n - 1, 2))
        for alpha in (None, "minimal"):
            p = build_point(S, "A", n - 1, alpha=alpha)
            sigma = p.sigma or tuple(range(1, n + 1))
            u = _random_unitriangular(n, sigma, rng)
            uprime = _random_unitriangular(n, sigma, rng)
            out = cochar_limit(p, lam, u, uprime)
            kind, ledger, values, flags = _oracle_limit(p, lam.weights, u,
                                                        uprime)
            kinds.add((alpha, kind))
            assert (out.kind, out.ledger) == (kind, ledger), (S, lam)
            if kind == "diverges":
                key, e = out.negative_witness
                assert ledger[key] == e < 0
                continue
            got = [(s.label, {t: c for t, c in s.comps.items() if c})
                   for s in out.value.summands]
            assert got == values, (S, lam)
            assert out.value.flag_coeffs == flags
    assert len(kinds) == 4


def test_conjugators_of_wrong_shape_refused():
    S = ClosedSubset(3, frozenset({(1, 3)}))
    lam = Cocharacter("A", 2, (1, 0, -1))
    narrow = [row[:2] for row in identity(3)]
    for alpha in (None, "minimal"):
        p = build_point(S, "A", 2, alpha=alpha)
        for bad in (identity(2), identity(4), narrow):
            with pytest.raises(LimitError):
                cochar_limit(p, lam, u=bad)
            with pytest.raises(LimitError):
                cochar_limit(p, lam, uprime=bad)


def test_exponent_lemma_examples():
    r = exponent_lemma_check([1, -1])
    assert r.hypotheses_met and r.weighted_sum == 1
    assert r.sum_positive and r.twice_plus and r.twice_minus
    r0 = exponent_lemma_check([0, 0, 0])
    assert not r0.hypotheses_met


def test_exponent_lemma_exhaustive_small():
    for n in (1, 2, 3):
        for w in itertools.product(range(-3, 4), repeat=n):
            r = exponent_lemma_check(list(w))
            if r.hypotheses_met:
                assert r.all_hold, w


def test_exponent_lemma_with_sigma():
    # permuted prefix sums change the hypotheses
    w = [-1, 1]
    assert not exponent_lemma_check(w).hypotheses_met
    assert exponent_lemma_check(w, sigma=(2, 1)).hypotheses_met


def test_wedge_coefficient_example():
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    cols = column_sets(S, "A", 3)
    ok, eps = wedge_coefficient_check(cols, 1, 4)
    assert ok and eps == -1


def test_wedge_coefficient_singleton():
    S = ClosedSubset(3, frozenset())
    cols = column_sets(S, "A", 2)
    ok, eps = wedge_coefficient_check(cols, 1, 3)
    assert ok and eps == 1


def test_wedge_coefficient_preconditions():
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    cols = column_sets(S, "A", 3)
    with pytest.raises(LimitError):
        wedge_coefficient_check(cols, 2, 4)  # 2 in S_4
    with pytest.raises(LimitError):
        wedge_coefficient_check(cols, 3, 3)


def test_wedge_coefficient_random_sl4():
    rng = random.Random(3)
    for _ in range(10):
        pairs = random_closed_pairs(4, rng)
        S = ClosedSubset(4, pairs)
        cols = column_sets(S, "A", 3)
        for t in range(2, 5):
            for s in range(1, t):
                if s in cols[t]:
                    continue
                ok, _ = wedge_coefficient_check(cols, s, t)
                assert ok, (sorted(pairs), s, t)


def test_cocharacter_grid_counts():
    grid = cocharacter_grid("A", 1, 1)
    assert [c.weights for c in grid] == [(-1, 1), (0, 0), (1, -1)]
    gridD = cocharacter_grid("D", 2, 1)
    assert len(gridD) == 9
    for c in gridD:
        assert c.weights[2] == -c.weights[0] and c.weights[3] == -c.weights[1]


def test_screen_unweighted_boundary_example():
    S = ClosedSubset(4, BOUNDARY)
    rep = grosshans_screen(S, "A", 3, None, 1)
    assert not rep.passed
    assert [w for (w, d) in rep.witnesses] == [(1, -1, -1, 1)]
    assert rep.histogram[1] == 1
    assert rep.histogram.get(0, 0) >= 1


def test_screen_weighted_boundary_example_clean():
    S = ClosedSubset(4, BOUNDARY)
    rep = grosshans_screen(S, "A", 3, "minimal", 2)
    assert rep.passed
    assert 1 not in rep.histogram


def test_screen_empty_weighted_clean():
    S = ClosedSubset(2, frozenset())
    rep = grosshans_screen(S, "A", 1, "minimal", 3)
    assert rep.passed
    assert rep.histogram.get(0) == 1      # the zero curve stays in the orbit


def test_screen_rejects_invalid_alpha():
    S = ClosedSubset(2, frozenset())
    with pytest.raises(LimitError):
        grosshans_screen(S, "A", 1, (1, 1), 1)


def test_screen_orthogonal_flag_boundary_witness():
    # The flag part e1 + e1^e2 of the weighted point has a boundary orbit of
    # codimension 1 in the split orthogonal group of dimension 4: along
    # diag(1,t,1,1/t) only the level-1 flag wedge survives and the limit
    # picks up the torus direction diag(0,1,0,-1).  The screen reports the
    # witness honestly; the type-A screens stay clean.
    from usinv.rootsys import parse_root
    from usinv.subsets import closed_subset_from_roots
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    S = closed_subset_from_roots("D", 2, roots)
    rep = grosshans_screen(S, "D", 2, "minimal", 1)
    assert not rep.passed
    assert (0, 1, 0, -1) in [w for (w, _) in rep.witnesses]
    # the witness limit is stabilized by one torus direction above u_S
    for (_, dim) in rep.witnesses:
        assert dim == S.size + 1 == 3


def test_screen_semicontinuity():
    S = ClosedSubset(3, frozenset({(1, 2), (1, 3)}))
    algebra = lie_algebra("A", 2)
    p = build_point(S, "A", 2)
    from usinv.stab import lie_stabilizer
    base = lie_stabilizer(p, algebra).dimension
    for lam in cocharacter_grid("A", 2, 2):
        out = cochar_limit(p, lam)
        if out.kind == "converges" and not out.value.is_zero():
            assert lie_stabilizer(out.value, algebra).dimension >= base
