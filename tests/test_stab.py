"""Lie stabilizers: exact dimensions, span comparisons, weighted reduction."""

import pytest

from usinv.exact import MultiVector, eij, mat_eq, spans_equal
from usinv.invars import InvariantError, subset_derivation_matrices
from usinv.limits import Cocharacter, cochar_limit
from usinv.points import build_point
from usinv.rootsys import lie_algebra, parse_root
from usinv.stab import (StabilizerError, annihilates, compare_uS,
                        is_strictly_triangular, lie_stabilizer)
from usinv.subsets import (ClosedSubset, closed_subset_from_roots,
                           enumerate_closed)
from helpers import tensor_stabilizer_dimension


def _flatten(M):
    return {(i, j): M[i][j] for i in range(len(M)) for j in range(len(M))
            if M[i][j]}


def test_regular_subgroup_stabilizer():
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    p = build_point(S, "A", 3)
    rep = lie_stabilizer(p, lie_algebra("A", 3))
    assert rep.dimension == 2
    expected = [eij(4, 1, 3), eij(4, 2, 4)]
    assert spans_equal([_flatten(M) for M in rep.basis],
                       [_flatten(M) for M in expected])
    full, nil = compare_uS(rep, S, "A", 3)
    assert full and nil


def test_boundary_limit_stabilizer_dimension():
    S = ClosedSubset(4, frozenset({(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}))
    p = build_point(S, "A", 3)
    lam = Cocharacter("A", 3, (1, -1, -1, 1))
    q = cochar_limit(p, lam).value
    rep = lie_stabilizer(q, lie_algebra("A", 3))
    assert rep.dimension == S.size + 1 == 6


def test_empty_subset_trivial_stabilizer():
    for n in (2, 3, 4):
        S = ClosedSubset(n, frozenset())
        p = build_point(S, "A", n - 1)
        rep = lie_stabilizer(p, lie_algebra("A", n - 1))
        assert rep.dimension == 0


def test_zero_point_rejected():
    p = MultiVector(3, [])
    with pytest.raises(StabilizerError):
        lie_stabilizer(p, lie_algebra("A", 2))


def test_weighted_reduction_matches_tensor_oracle():
    # direct tensor expansion at small alpha confirms the flag reduction
    algebra2 = lie_algebra("A", 1)
    algebra3 = lie_algebra("A", 2)
    cases = []
    for S in enumerate_closed(2):
        cases.append((S, "A", 1, algebra2))
    for S in enumerate_closed(3):
        cases.append((S, "A", 2, algebra3))
    for S, family, rank, algebra in cases:
        n = S.n
        for alpha in [(1,) * n, (2,) * n, tuple(1 + (i % 2) for i in range(n))]:
            p = build_point(S, family, rank, alpha=alpha)
            rep = lie_stabilizer(p, algebra)
            oracle_dim = tensor_stabilizer_dimension(p, list(algebra.basis))
            assert rep.dimension == oracle_dim, (S.sorted_pairs(), alpha)


def test_weighted_stabilizer_alpha_independent():
    S = ClosedSubset(3, frozenset({(1, 2), (1, 3)}))
    algebra = lie_algebra("A", 2)
    minimal = build_point(S, "A", 2, alpha="minimal")
    doubled_alpha = tuple(2 * s.alpha for s in minimal.summands)
    doubled = build_point(S, "A", 2, alpha=doubled_alpha)
    rep1 = lie_stabilizer(minimal, algebra)
    rep2 = lie_stabilizer(doubled, algebra)
    assert len(rep1.basis) == len(rep2.basis)
    for a, b in zip(rep1.basis, rep2.basis):
        assert mat_eq(a, b)


def test_weighted_stabilizer_equals_us_all_n3():
    algebra = lie_algebra("A", 2)
    for S in enumerate_closed(3):
        p = build_point(S, "A", 2, alpha="minimal")
        rep = lie_stabilizer(p, algebra)
        full, nil = compare_uS(rep, S, "A", 2)
        assert rep.dimension == S.size
        assert full and nil
        for M in rep.basis:
            assert is_strictly_triangular(M, (1, 2, 3))


def test_so4_plain_point_torus_survives():
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    S = closed_subset_from_roots("D", 2, roots)
    p = build_point(S, "D", 2)
    rep = lie_stabilizer(p, lie_algebra("D", 2))
    full, nil = compare_uS(rep, S, "D", 2)
    assert nil is True
    assert full is False
    assert rep.dimension > S.size


def test_so4_weighted_point_full_equality():
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    S = closed_subset_from_roots("D", 2, roots)
    p = build_point(S, "D", 2, alpha="minimal")
    rep = lie_stabilizer(p, lie_algebra("D", 2))
    full, nil = compare_uS(rep, S, "D", 2)
    assert full and nil
    assert rep.dimension == S.size == 2
    # when the span equals u_S every basis element is nilpotent
    for M in rep.basis:
        assert is_strictly_triangular(M, (1, 2, 4, 3))


def test_sp4_weighted_point_full_equality():
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4),
             parse_root("2L1", 4)]
    S = closed_subset_from_roots("C", 2, roots)
    p = build_point(S, "C", 2, alpha="minimal")
    rep = lie_stabilizer(p, lie_algebra("C", 2))
    full, nil = compare_uS(rep, S, "C", 2)
    assert full and nil
    assert rep.dimension == S.size == 3


def test_b2_weighted_point_full_equality():
    n = 5
    roots = [parse_root(x, n) for x in ("L1-L2", "L1+L2", "L1", "L2")]
    S = closed_subset_from_roots("B", 2, roots)
    p = build_point(S, "B", 2, alpha="minimal")
    rep = lie_stabilizer(p, lie_algebra("B", 2))
    full, nil = compare_uS(rep, S, "B", 2)
    assert full and nil
    assert rep.dimension == S.size == 4


def test_stabilizer_semicontinuity_under_limits():
    S = ClosedSubset(4, frozenset({(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}))
    algebra = lie_algebra("A", 3)
    p = build_point(S, "A", 3)
    base = lie_stabilizer(p, algebra).dimension
    for w in [(1, -1, -1, 1), (1, 1, -1, -1), (0, 0, 0, 0), (2, -1, -1, 0)]:
        out = cochar_limit(p, Cocharacter("A", 3, w))
        if out.kind != "converges" or out.value.is_zero():
            continue
        q_dim = lie_stabilizer(out.value, algebra).dimension
        assert q_dim >= base


RANK2_BORELS = {"B": ("L1-L2", "L1+L2", "L1", "L2"),
                "C": ("L1-L2", "L1+L2", "2L1", "2L2"),
                "D": ("L1-L2", "L1+L2")}


def test_basis_annihilates_reverified():
    # every matrix the batched self-check passed also passes on its own
    cases = [(S, "A", 3) for S in enumerate_closed(4)]
    for family, names in RANK2_BORELS.items():
        algebra = lie_algebra(family, 2)
        roots = [parse_root(x, algebra.n) for x in names]
        cases.append((closed_subset_from_roots(family, 2, roots), family, 2))
    checked = 0
    for S, family, rank in cases:
        algebra = lie_algebra(family, rank)
        for alpha in (None, "minimal"):
            p = build_point(S, family, rank, alpha=alpha)
            rep = lie_stabilizer(p, algebra)
            for M in rep.basis:
                assert annihilates(M, p), (S.sorted_pairs(), family, alpha)
            checked += len(rep.basis)
    assert len(cases) == 43 and checked > 0


def test_subset_derivation_matrices_bcd_requires_roots():
    S = ClosedSubset(4, frozenset({(1, 2)}))
    with pytest.raises(InvariantError):
        subset_derivation_matrices(S, "D", 2)
