"""U_S charts, parameter property, points, weighted points, alpha."""

import random

import pytest

import usinv.points
from usinv.exact import (GradedPoly, Q1, SelfCheckError, mat_is_zero, mat_mul,
                         pvar, wedge_apply)
from usinv.points import (PointError, alpha_valid, build_point,
                          build_us, default_index_set, flag_levels,
                          minimal_alpha)
from usinv.rootsys import (bilinear_form, lie_algebra, parse_root,
                           positive_roots)
from usinv.statements import mat_substitute, so_parameter_property
from usinv.subsets import (ClosedSubset, ColumnFamily, SubsetError,
                           closed_subset_from_roots)
from helpers import (closed_subsets, cofactor_det, oracle_roots_closed,
                     transpose)


def _poly_entries(rows):
    return [[repr(e) for e in row] for row in rows]


def test_build_us_regular_subgroup():
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    u = build_us(S, "A", 3)
    assert repr(u.matrix[0][2]) == "a"
    assert repr(u.matrix[1][3]) == "b"
    assert u.free_positions == ((1, 3), (2, 4))
    offs = {(i + 1, j + 1) for i in range(4) for j in range(4)
            if i != j and u.matrix[i][j]}
    assert offs == {(1, 3), (2, 4)}


def test_build_us_so4_verbatim():
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    S = closed_subset_from_roots("D", 2, roots)
    u = build_us(S, "D", 2)
    assert _poly_entries(u.matrix) == [
        ["1", "a", "a*b", "-b"],
        ["0", "1", "b", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "-a", "1"],
    ]


def test_build_us_sp4_display():
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4),
             parse_root("2L1", 4)]
    S = closed_subset_from_roots("C", 2, roots)
    u = build_us(S, "C", 2)
    assert u.params == ("a", "b", "c")
    # the chart's (1,3) entry is ab + c; the printed display uses the chart
    # coordinate c' = c + ab, an invertible unitriangular change
    display = mat_substitute(u.matrix, {
        pvar("c"): GradedPoly.var(pvar("c"))
                   - GradedPoly.var(pvar("a")) * GradedPoly.var(pvar("b"))})
    assert _poly_entries(display) == [
        ["1", "a", "c", "b"],
        ["0", "1", "b", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "-a", "1"],
    ]


def test_build_us_rejects_non_closed():
    """build_us shares the refusal of column_sets."""
    with pytest.raises(SubsetError, match="not transitively closed"):
        build_us(ClosedSubset(3, frozenset({(1, 2), (2, 3)})), "A", 2)


def test_build_us_escaping_entry_is_self_check_failure(monkeypatch):
    """An entry of the chart outside the column sets of a closed S is a
    defect of the program, not bad input."""
    def diagonal_only(subset, family, rank):
        return ColumnFamily(subset.n, tuple(frozenset({j})
                                            for j in range(1, subset.n + 1)))

    monkeypatch.setattr(usinv.points, "column_sets", diagonal_only)
    with pytest.raises(SelfCheckError, match=r"entry \(1,2\) escapes"):
        build_us(ClosedSubset(3, frozenset({(1, 2)})), "A", 2)


def test_build_us_det_one_and_support():
    for S in closed_subsets(4):
        u = build_us(S, "A", 3)
        assert cofactor_det(u.matrix) == GradedPoly.const(1)
        cols = u.column_family
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j and u.matrix[i - 1][j - 1]:
                    assert i in cols[j]


def _symbolic_q_preserved(u, family, rank):
    Q = bilinear_form(family, rank)
    lhs = mat_mul(transpose(u.matrix), mat_mul(Q, u.matrix))
    diff = [[lhs[i][j] - Q[i][j] for j in range(len(Q))] for i in range(len(Q))]
    return mat_is_zero(diff)


def test_build_us_preserves_form_symbolically():
    cases = [
        ("D", 2, ["L1-L2", "L1+L2"]),
        ("C", 2, ["L1-L2", "L1+L2", "2L1"]),
        ("B", 2, ["L1-L2", "L1+L2", "L1", "L2"]),
    ]
    for family, rank, names in cases:
        n = 2 * rank + (1 if family == "B" else 0)
        roots = [parse_root(x, n) for x in names]
        S = closed_subset_from_roots(family, rank, roots)
        u = build_us(S, family, rank)
        assert _symbolic_q_preserved(u, family, rank)
        assert cofactor_det(u.matrix) == GradedPoly.const(1)


def test_point_fixed_by_us_symbolically():
    # group-mode action of the symbolic chart fixes p_S exactly
    for n in (2, 3, 4):
        for S in closed_subsets(n):
            u = build_us(S, "A", n - 1)
            p = build_point(S, "A", n - 1)
            moved = wedge_apply(u.matrix, p, mode="group")
            assert moved == p


def test_point_fixed_by_us_bcd():
    for family, rank, names in (
            ("D", 2, ["L1-L2", "L1+L2"]),
            ("C", 2, ["L1-L2", "L1+L2", "2L1"]),
            ("B", 2, ["L1-L2", "L1+L2", "L1", "L2"])):
        n = 2 * rank + (1 if family == "B" else 0)
        roots = [parse_root(x, n) for x in names]
        S = closed_subset_from_roots(family, rank, roots)
        u = build_us(S, family, rank)
        p = build_point(S, family, rank)
        assert wedge_apply(u.matrix, p, mode="group") == p


def test_so_parameter_property_example():
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    S = closed_subset_from_roots("D", 2, roots)
    assert so_parameter_property(build_us(S, "D", 2))


def test_so_parameter_property_empty():
    S = ClosedSubset(4, frozenset(), source_roots=())
    assert so_parameter_property(build_us(S, "D", 2))


def test_so_parameter_property_wrong_family():
    S = ClosedSubset(4, frozenset({(1, 3)}))
    with pytest.raises(PointError):
        so_parameter_property(build_us(S, "A", 3))


def test_so_parameter_property_random_so6():
    rng = random.Random(41)
    system = positive_roots("D", 3)
    pos = list(system.positive_roots)
    found = 0
    for _ in range(200):
        combo = tuple(r for r in pos if rng.random() < 0.5)
        if not combo or not oracle_roots_closed(combo, pos):
            continue
        S = closed_subset_from_roots("D", 3, combo)
        assert so_parameter_property(build_us(S, "D", 3))
        found += 1
        if found >= 8:
            break
    assert found >= 8


def test_build_point_examples():
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    p = build_point(S, "A", 3)
    labels = [(s.k, s.label, sorted(s.comps)) for s in p.summands]
    assert labels == [
        (1, "S_1", [(1,)]), (1, "S_2", [(2,)]),
        (2, "S_3", [(1, 3)]), (2, "S_4", [(2, 4)])]

    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    SD = closed_subset_from_roots("D", 2, roots)
    pd = build_point(SD, "D", 2)
    labels = [(s.k, s.label, sorted(s.comps)) for s in pd.summands]
    assert labels == [(4, "S_3", [(1, 2, 3, 4)]), (2, "S_4", [(1, 4)])]

    empty = build_point(ClosedSubset(3, frozenset()), "A", 2)
    assert [(s.k, sorted(s.comps)) for s in empty.summands] == [
        (1, [(1,)]), (1, [(2,)]), (1, [(3,)])]


def test_default_index_sets():
    assert default_index_set("A", 3) == (1, 2, 3, 4)
    assert default_index_set("D", 2) == (3, 4)
    assert default_index_set("B", 2) == (3, 4, 5)


def test_flag_levels_family_dependence():
    assert flag_levels("A", 3) == 4
    assert flag_levels("D", 2) == 2
    assert flag_levels("B", 2) == 2
    assert flag_levels("C", 3) == 3


def test_alpha_valid_and_minimal():
    assert minimal_alpha(4) == (1, 7, 45, 363)
    assert alpha_valid((1, 7, 45, 363), 4)
    assert not alpha_valid((1, 6, 45, 363), 4)
    assert not alpha_valid((1, 1, 1, 1), 4)
    assert not alpha_valid((0, 7, 45, 363), 4)
    # boundary: strict inequality, 7 > 2*2*1+2 but 6 is rejected
    assert alpha_valid((1, 7), 2)
    assert not alpha_valid((1, 6), 2)


def test_weighted_point_structure():
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    p = build_point(S, "A", 3, alpha="minimal")
    assert p.levels == 4
    assert p.flag_coeffs == [Q1] * 4
    assert p.alphas() == {"S_1": 1, "S_2": 7, "S_3": 45, "S_4": 363}
    assert alpha_valid(tuple(s.alpha for s in p.summands), 4)

    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    SD = closed_subset_from_roots("D", 2, roots)
    pd = build_point(SD, "D", 2, alpha="minimal")
    assert pd.levels == 2
    assert pd.sigma == (1, 2, 4, 3)
    assert [s.label for s in pd.summands] == ["S_3", "S_4"]


def test_build_point_alpha_validation():
    S = ClosedSubset(3, frozenset())
    with pytest.raises(PointError):
        build_point(S, "A", 2, alpha=(1, 2))        # wrong length
    with pytest.raises(PointError):
        build_point(S, "A", 2, alpha=(1, 0, 1))     # nonpositive
    p = build_point(S, "A", 2, alpha=(1, 1, 1))     # valid: positivity only
    assert p.levels == 3


def test_build_point_invalid_index_set():
    S = ClosedSubset(3, frozenset())
    with pytest.raises(PointError):
        build_point(S, "A", 2, index_set=(0, 1))
    with pytest.raises(PointError):
        build_point(S, "A", 2, index_set=(1, 1))
