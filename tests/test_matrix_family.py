"""Generic matrix-presented groups: column sets, points, stabilizers."""

import pytest

from usinv.exact import spans_equal
from usinv.points import PointError, build_point, build_us, flag_levels
from usinv.rootsys import lie_algebra, parse_root, root_subgroup_matrix
from usinv.stab import lie_stabilizer
from usinv.subsets import ClosedSubset, closed_subset_from_roots, column_sets


def _flatten(M):
    return {(i, j): M[i][j] for i in range(len(M)) for j in range(len(M))
            if M[i][j]}


def so4_as_generic():
    """The orthogonal group in dimension 4 presented as generic matrix data,
    keeping its sigma-flag."""
    return lie_algebra("D", 2)


def test_matrix_family_column_sets_via_closure():
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    S = closed_subset_from_roots("D", 2, roots)
    generic = ClosedSubset(S.n, S.pairs)
    cols = column_sets(generic, "Matrix", 0)
    assert cols[3] == {1, 2, 3, 4}
    assert cols[4] == {1, 4}


def test_matrix_family_point_uses_canonical_generating_subset():
    data = so4_as_generic()
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    S = closed_subset_from_roots("D", 2, roots)
    generic = ClosedSubset(S.n, S.pairs)
    p = build_point(generic, "Matrix", 0, alpha="minimal", data=data)
    assert [s.label for s in p.summands] == ["S_1", "S_2", "S_3"]
    assert p.levels == 4
    assert p.sigma == (1, 2, 4, 3)


def test_matrix_family_stabilizer_is_us():
    data = so4_as_generic()
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    S = closed_subset_from_roots("D", 2, roots)
    generic = ClosedSubset(S.n, S.pairs)
    p = build_point(generic, "Matrix", 0, alpha="minimal", data=data)
    rep = lie_stabilizer(p, data)
    us = [root_subgroup_matrix("D", 2, r) for r in roots]
    assert rep.dimension == 2
    assert spans_equal([_flatten(M) for M in rep.basis],
                       [_flatten(M) for M in us])


def test_matrix_family_has_no_exponential_chart():
    generic = ClosedSubset(3, frozenset({(1, 2)}))
    with pytest.raises(PointError):
        build_us(generic, "Matrix", 0)
    with pytest.raises(PointError):
        flag_levels("Matrix", 0)
