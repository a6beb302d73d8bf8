"""Root systems and matrix realizations."""

import pytest
from fractions import Fraction

from usinv.exact import (column_support, eij, exp_nilpotent, mat_add,
                         mat_is_zero, mat_mul, mat_scale, zeros)
from usinv.rootsys import (MatrixLieData, Root, RootSystemError,
                           bilinear_form,
                           flag_permutation,
                           lie_algebra, parse_root, positive_roots,
                           root_index, root_subgroup_matrix,
                           root_system_to_json)
from helpers import cofactor_det, is_strictly_triangular, transpose


def test_positive_root_counts():
    for l in range(1, 6):
        assert len(positive_roots("A", l).positive_roots) == l * (l + 1) // 2
        assert len(positive_roots("B", l).positive_roots) == l * l
        assert len(positive_roots("C", l).positive_roots) == l * l
        if l >= 2:
            assert len(positive_roots("D", l).positive_roots) == l * (l - 1)


def test_a2_roots():
    system = positive_roots("A", 2)
    names = {r.name() for r in system.positive_roots}
    assert names == {"L1-L2", "L1-L3", "L2-L3"}


def test_b2_root_list():
    system = positive_roots("B", 2)
    names = {r.name() for r in system.positive_roots}
    assert names == {"L1-L2", "L1+L2", "L1", "L2"}


def test_c2_contains_long_roots():
    names = {r.name() for r in positive_roots("C", 2).positive_roots}
    assert "2L1" in names and "2L2" in names


def test_deterministic_order():
    system = positive_roots("B", 2)
    assert [r.coeffs for r in system.positive_roots] == sorted(
        r.coeffs for r in system.positive_roots)


def test_unsupported():
    with pytest.raises(RootSystemError):
        positive_roots("E", 6)
    with pytest.raises(RootSystemError):
        positive_roots("D", 1)


def test_sl_root_matrix_single_entry():
    root = parse_root("L1-L3", 4)
    g = root_subgroup_matrix("A", 3, root)
    assert g[0][2] == 1
    assert sum(1 for row in g for e in row if e) == 1


def test_not_a_root():
    with pytest.raises(RootSystemError):
        root_subgroup_matrix("A", 2, Root((1, 1, -2)))


def _q_compatible(family, rank, g):
    Q = bilinear_form(family, rank)
    s = mat_add(mat_mul(transpose(g), Q), mat_mul(Q, g))
    return mat_is_zero(s)


def test_root_matrices_q_compatible():
    for family, ranks in (("B", (1, 2, 3)), ("C", (1, 2, 3)), ("D", (2, 3))):
        for rank in ranks:
            system = positive_roots(family, rank)
            for root in system.positive_roots:
                for r in (root, -root):
                    g = root_subgroup_matrix(family, rank, r)
                    assert _q_compatible(family, rank, g), (family, rank, r)


def test_exponential_lies_in_group():
    for family, rank in (("B", 2), ("C", 2), ("D", 2), ("D", 3)):
        Q = bilinear_form(family, rank)
        for root in positive_roots(family, rank).positive_roots:
            g = root_subgroup_matrix(family, rank, root)
            u = exp_nilpotent(g, Fraction(3, 2))
            assert cofactor_det(u) == 1
            assert mat_mul(transpose(u), mat_mul(Q, u)) == Q


def test_so4_example_generator_matches_parametrization():
    # exp(a X_{L1-L2}) exp(b X_{L1+L2}) must give the 4x4 matrix with
    # entries a, ab, -b, b, -a
    a, b = Fraction(2), Fraction(3)
    x1 = root_subgroup_matrix("D", 2, parse_root("L1-L2", 4))
    x2 = root_subgroup_matrix("D", 2, parse_root("L1+L2", 4))
    u = mat_mul(exp_nilpotent(x1, a), exp_nilpotent(x2, b))
    expect = [
        [1, a, a * b, -b],
        [0, 1, b, 0],
        [0, 0, 1, 0],
        [0, 0, -a, 1],
    ]
    assert u == expect


def test_sp4_long_root_slot():
    g = root_subgroup_matrix("C", 2, parse_root("2L1", 4))
    assert g[0][2] == 1
    assert sum(1 for row in g for e in row if e) == 1


def test_negative_root_is_transpose_pattern():
    for family, rank in (("B", 2), ("C", 2), ("D", 2)):
        for root in positive_roots(family, rank).positive_roots:
            g = root_subgroup_matrix(family, rank, root)
            h = root_subgroup_matrix(family, rank, -root)
            n = len(g)
            sup_g = {(i, j) for i in range(n) for j in range(n) if g[i][j]}
            sup_h = {(j, i) for i in range(n) for j in range(n) if h[i][j]}
            assert sup_g == sup_h


def test_heights():
    assert parse_root("L1-L2", 4).height("D", 2) == 1
    assert parse_root("L1+L2", 4).height("D", 2) == 1
    assert parse_root("L1-L2", 4).height("C", 2) == 1
    assert parse_root("L1+L2", 4).height("C", 2) == 2
    assert parse_root("2L1", 4).height("C", 2) == 3
    assert parse_root("L1", 5).height("B", 2) == 2
    assert parse_root("L1+L2", 5).height("B", 2) == 3
    assert parse_root("L1-L4", 4).height("A", 3) == 3


def test_parse_root_rejects_junk():
    with pytest.raises(RootSystemError):
        parse_root("L9", 4)
    with pytest.raises(RootSystemError):
        parse_root("X1", 4)
    # signed terms [0-9]*L[0-9]+ only: no trailing or doubled sign, no
    # juxtaposed terms
    for name in ("L1-", "L1L2", "L1+-L2", "L1++L2", "-", "", "2L", "L",
                 "L1*L2", "L\u00b2"):
        with pytest.raises(RootSystemError, match="cannot parse root"):
            parse_root(name, 4)
    with pytest.raises(RootSystemError, match="zero vector"):
        parse_root("0L1", 4)


def test_flag_permutation():
    assert flag_permutation("A", 3) == (1, 2, 3, 4)
    assert flag_permutation("D", 2) == (1, 2, 4, 3)
    assert flag_permutation("B", 2) == (1, 2, 5, 4, 3)
    assert flag_permutation("C", 3) == (1, 2, 3, 6, 5, 4)


def test_lie_algebra_dimensions():
    assert len(lie_algebra("A", 2).basis) == 8
    assert len(lie_algebra("B", 2).basis) == 10
    assert len(lie_algebra("C", 2).basis) == 10
    assert len(lie_algebra("D", 2).basis) == 6


def test_lie_algebra_built_once_with_column_supports():
    for family, rank in (("A", 2), ("A", 5), ("B", 3), ("C", 2), ("D", 3)):
        algebra = lie_algebra(family, rank)
        assert lie_algebra(family, rank) is algebra
        assert algebra.supports == tuple(column_support(B)
                                         for B in algebra.basis)


def test_root_index_reads_the_algebra_basis():
    """The one lookup from a root to its basis index: every +-root of A_1-A_5
    and of B/C/D rank 2-3 indexes the basis element equal to its generator,
    the indices and the torus partition the basis, and in flag order each
    positive root vector is strictly upper triangular, each negative one
    strictly lower and the torus diagonal.  `compare_uS` rests on these."""
    cases = [("A", r) for r in range(1, 6)]
    cases += [(f, r) for f in ("B", "C", "D") for r in (2, 3)]
    for family, rank in cases:
        algebra = lie_algebra(family, rank)
        sigma = flag_permutation(family, rank)
        n = algebra.n
        seen = set(range(len(algebra.torus_basis)))
        for k, T in enumerate(algebra.torus_basis):
            assert algebra.basis[k] is T
            assert not any(T[i][j] for i in range(n) for j in range(n)
                           if i != j)
        for root in positive_roots(family, rank).positive_roots:
            for r, upper in ((root, True), (-root, False)):
                k = root_index(family, rank, r)
                assert k not in seen
                seen.add(k)
                B = algebra.basis[k]
                assert B == root_subgroup_matrix(family, rank, r)
                assert is_strictly_triangular(
                    B if upper else transpose(B), sigma)
        assert seen == set(range(len(algebra.basis)))
    with pytest.raises(RootSystemError, match="not a root of D2"):
        root_index("D", 2, parse_root("L1", 4))


def test_matrix_lie_data_refuses_mis_sized_elements():
    """A 4 x 4 element used to be reported as linearly dependent and a
    2 x 2 one raised IndexError; each is now named with the expected shape."""
    good = (eij(3, 1, 2), eij(3, 2, 1))
    for bad in (eij(4, 1, 2), eij(2, 1, 2), [row[:2] for row in eij(3, 1, 3)]):
        with pytest.raises(RootSystemError,
                           match=r"^basis element 2 is not 3 x 3$"):
            MatrixLieData(n=3, basis=good + (bad,), torus_basis=())
        with pytest.raises(RootSystemError,
                           match=r"^torus basis element 0 is not 3 x 3$"):
            MatrixLieData(n=3, basis=good, torus_basis=(bad,))
        with pytest.raises(RootSystemError, match=r"^form is not 3 x 3$"):
            MatrixLieData(n=3, basis=good, torus_basis=(), form=bad)
    data = MatrixLieData(n=3, basis=good, torus_basis=(zeros(3),))
    assert len(data.basis) == 2


def test_matrix_lie_data_validates():
    data = lie_algebra("D", 2)
    with pytest.raises(RootSystemError):
        MatrixLieData(n=4, basis=data.basis + (data.basis[0],),
                      torus_basis=data.torus_basis, form=data.form)


def test_matrix_lie_data_rejects_dependent_and_form_incompatible_bases():
    for family, rank in (("B", 2), ("C", 2), ("D", 3), ("B", 3)):
        data = lie_algebra(family, rank)
        n = data.n
        dependent = mat_add(data.basis[1], mat_scale(data.basis[-1],
                                                     Fraction(-2, 3)))
        with pytest.raises(RootSystemError, match="linearly dependent"):
            MatrixLieData(n=n, basis=data.basis + (dependent,),
                          torus_basis=data.torus_basis, form=data.form)
        # E_11 - 2 E_{l+1,l+1} is diagonal and independent of the algebra,
        # but not skew for the form; so is a two-entry root vector with one
        # sign flipped
        bad_torus = [list(row) for row in data.basis[0]]
        bad_torus[rank][rank] = Fraction(-2)
        r = max(k for k, B in enumerate(data.basis)
                if sum(1 for row in B for e in row if e) == 2)
        bad_root = [list(row) for row in data.basis[r]]
        i, j = next((i, j) for i in range(n) for j in range(n)
                    if bad_root[i][j])
        bad_root[i][j] = -bad_root[i][j]
        for k, bad in ((0, bad_torus), (r, bad_root)):
            basis = list(data.basis)
            basis[k] = bad
            with pytest.raises(RootSystemError, match=f"basis element {k} is "
                               "not compatible with the form"):
                MatrixLieData(n=n, basis=tuple(basis),
                              torus_basis=data.torus_basis, form=data.form)


def test_root_system_json():
    sysb = positive_roots("B", 2)
    js = root_system_to_json(sysb)
    assert js["family"] == "B" and js["rank"] == 2
    assert sorted(js["roots"]) == sorted([[0, 1], [1, -1], [1, 0], [1, 1]])
    sysa = positive_roots("A", 1)
    assert root_system_to_json(sysa)["roots"] == [[1, -1]]
