"""Lie stabilizers: exact dimensions, span comparisons, weighted reduction."""

import pytest

import itertools
import random

from usinv.exact import MultiVector, eij, spans_equal, zeros
from usinv.limits import Cocharacter, cochar_limit, cocharacter_grid
from usinv.points import build_point
from usinv.rootsys import (flag_permutation, lie_algebra, parse_root,
                           positive_roots, root_subgroup_matrix)
from usinv.stab import (StabilizerError, annihilates, compare_uS,
                        lie_stabilizer)
from usinv.subsets import (ClosedSubset, SubsetError,
                           closed_subset_from_roots, subset_basis_indices)
from helpers import (closed_subsets, is_strictly_triangular,
                     oracle_roots_closed, pair_generators,
                     reference_compare_uS, tensor_stabilizer_dimension)


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
    for S in closed_subsets(2):
        cases.append((S, "A", 1, algebra2))
    for S in closed_subsets(3):
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
    assert rep1.basis == rep2.basis


def test_weighted_stabilizer_equals_us_all_n3():
    algebra = lie_algebra("A", 2)
    for S in closed_subsets(3):
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
    cases = [(S, "A", 3) for S in closed_subsets(4)]
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


def test_subset_basis_indices_bcd_requires_roots():
    S = ClosedSubset(4, frozenset({(1, 2)}))
    with pytest.raises(SubsetError, match="family D subsets need their roots"):
        subset_basis_indices(S, "D", 2)


def test_compare_uS_matches_matrix_entry_oracle():
    """The coordinate comparison against `reference_compare_uS` on flattened
    matrix entries: every closed SL_2-SL_4 set and every closed B/C/D rank-2
    root set (empty included), plain and weighted, and for all but SL_4 also
    every nonzero limit of those points along the radius-1 cocharacter grid,
    whose stabilizers can be larger than u_S in either part."""
    cases = [(S, "A", n - 1, pair_generators(S))
             for n in (2, 3, 4) for S in closed_subsets(n)]
    for family in ("B", "C", "D"):
        pos = positive_roots(family, 2).positive_roots
        for size in range(len(pos) + 1):
            for combo in itertools.combinations(pos, size):
                if oracle_roots_closed(combo, pos):
                    S = closed_subset_from_roots(family, 2, combo)
                    us = [root_subgroup_matrix(family, 2, r) for r in combo]
                    cases.append((S, family, 2, us))
    outcomes = set()
    for S, family, rank, us in cases:
        sigma = flag_permutation(family, rank)
        algebra = lie_algebra(family, rank)
        sl4 = family == "A" and rank == 3
        grid = [] if sl4 else cocharacter_grid(family, rank, 1)
        for alpha in (None, "minimal"):
            p = build_point(S, family, rank, alpha=alpha)
            points = [p]
            for lam in grid:
                outcome = cochar_limit(p, lam)
                if outcome.kind == "converges" and not outcome.value.is_zero():
                    points.append(outcome.value)
            for q in points:
                rep = lie_stabilizer(q, algebra)
                got = compare_uS(rep, S, family, rank)
                assert got == reference_compare_uS(rep.basis, us, sigma), (
                    family, S.to_json(), alpha)
                assert rep.us_dimension == len(us)
                outcomes.add(got)
    assert len(cases) == 77
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_annihilates_refuses_mis_sized_matrix():
    """Plain and weighted points refuse a matrix of the wrong shape with one
    message; a weighted point used to accept 3 x 4 and 4 x 4 matrices and
    raise IndexError on 3 x 2."""
    S = ClosedSubset(3, frozenset({(1, 2)}))
    for alpha in (None, "minimal"):
        p = build_point(S, "A", 2, alpha=alpha)
        for rows, cols in ((3, 4), (4, 4), (3, 2)):
            M = [[0] * cols for _ in range(rows)]
            with pytest.raises(ValueError,
                               match=r"^matrix must be 3 x 3 for this point$"):
                annihilates(M, p)
        assert annihilates(zeros(3), p) and annihilates(eij(3, 1, 2), p)
        assert not annihilates(eij(3, 2, 1), p)


def test_kernel_is_sparse_and_spans_the_basis():
    """Each kernel vector holds only nonzero coordinates, and its basis
    matrix is the dense sum of c_r * B_r over the algebra basis: every closed
    SL_4 set, and a seeded sample of closed SL_5 sets and of closed rank-3
    B/C/D root sets, plain and weighted."""
    rng = random.Random(19)
    cases = [(S, "A", 3) for S in closed_subsets(4)]
    cases += [(S, "A", 4) for S in rng.sample(closed_subsets(5), 25)]
    for family in ("B", "C", "D"):
        pos = positive_roots(family, 3).positive_roots
        closed = [combo for size in range(1, len(pos) + 1)
                  for combo in itertools.combinations(pos, size)
                  if oracle_roots_closed(combo, pos)]
        cases += [(closed_subset_from_roots(family, 3, combo), family, 3)
                  for combo in rng.sample(closed, 8)]
    entries = 0
    for S, family, rank in cases:
        algebra = lie_algebra(family, rank)
        n = algebra.n
        for alpha in (None, "minimal"):
            rep = lie_stabilizer(build_point(S, family, rank, alpha=alpha),
                                 algebra)
            assert len(rep.kernel) == len(rep.basis) == rep.dimension
            for vec, M in zip(rep.kernel, rep.basis):
                assert vec and all(vec.values()), (family, S.to_json())
                assert set(vec) <= set(range(len(algebra.basis)))
                dense = [[sum(c * algebra.basis[r][i][j]
                              for r, c in vec.items())
                          for j in range(n)] for i in range(n)]
                assert M == dense, (family, S.to_json(), alpha)
                entries += len(vec)
    assert len(cases) == 40 + 25 + 24 and entries > 0
