"""Derivations, invariant minors, graded invariant spaces, generation."""

import itertools
import random
from fractions import Fraction

import pytest

import usinv.invars
from usinv.exact import (Q0, Q1, CostError, GradedPoly, SparseMatrix,
                         column_support, eij, pvar, xvar)
from usinv.invars import (InvariantError, Minor, apply_derivation_poly,
                          degree_monomials, derivation_rows, generation_check,
                          invariant_space, is_invariant_minor, minor_poly,
                          principal_column_sets, principal_minors)
from usinv.rootsys import parse_root, positive_roots, root_subgroup_matrix
from usinv.subsets import ClosedSubset, closed_subset_from_roots, column_sets
from helpers import (closed_subsets, dense_derivation_image, dense_monomials,
                     oracle_invariant_dimension, oracle_roots_closed,
                     pair_generators, polynomial_unipotent_invariants,
                     random_rational_matrix)


def x(i, j):
    return GradedPoly.var(xvar(i, j))


def test_derivation_examples():
    e12 = eij(2, 1, 2)
    assert apply_derivation_poly(e12, x(1, 2)) == x(1, 1)
    det2 = minor_poly([1, 2], [1, 2])
    assert apply_derivation_poly(e12, det2) == 0
    assert apply_derivation_poly(eij(3, 1, 3), x(2, 1)) == 0
    # a variable outside the rows or the columns of A is refused
    for i, j in ((3, 2), (1, 3)):
        with pytest.raises(ValueError, match=rf"x\[{i},{j}\].*2 x 2"):
            apply_derivation_poly(e12, x(i, j))


def test_derivation_leibniz():
    e12 = eij(2, 1, 2)
    f, g = x(1, 2), x(2, 2)
    lhs = apply_derivation_poly(e12, f * g)
    rhs = (apply_derivation_poly(e12, f) * g
           + f * apply_derivation_poly(e12, g))
    assert lhs == rhs


def _mono_key(exponents, n):
    """Sorted monomial key of a row-major exponent tuple over x_{11}..x_{nn}."""
    return tuple((xvar(v // n + 1, v % n + 1), e)
                 for v, e in enumerate(exponents) if e)


def test_apply_derivation_poly_matches_dense_oracle():
    """The sparse derivation against `dense_derivation_image`, for n = 2..4
    and degree 1..3: single monomials and a multi-term polynomial, under
    seeded rational matrices with zero, negative, non-unit and diagonal
    entries."""
    rng = random.Random(7)
    for n in range(2, 5):
        for d in range(1, 4):
            monos = dense_monomials(n * n, d)
            for trial in range(3):
                A = random_rational_matrix(n, rng)
                if trial == 0:
                    A = [[a if rng.random() < 0.4 else Q0 for a in row]
                         for row in A]
                    A[0][0] = Fraction(-7, 3)
                sample = rng.sample(monos, min(12, len(monos)))
                for mono in sample:
                    got = apply_derivation_poly(
                        A, GradedPoly({_mono_key(mono, n): 1})).terms
                    want = {_mono_key(m, n): c for m, c in
                            dense_derivation_image(A, mono, n).items()}
                    assert got == want
                coeffs = [Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
                          for _ in sample]
                f = GradedPoly({_mono_key(m, n): c
                                for m, c in zip(sample, coeffs)})
                want: dict = {}
                for m, c in zip(sample, coeffs):
                    for m2, v in dense_derivation_image(A, m, n).items():
                        key = _mono_key(m2, n)
                        want[key] = want.get(key, Q0) + c * v
                assert apply_derivation_poly(A, f).terms == {
                    k: v for k, v in want.items() if v}
    # x_{12}^2 x_{21} with column 2 of A empty, alone and times a parameter:
    # both the exponent-2 factor and p pass through D_A unchanged
    n = 3
    A = [[Q0 if c == 1 else a for c, a in enumerate(row)]
         for row in random_rational_matrix(n, rng)]
    A[0][0] = Fraction(-7, 3)
    mono = (0, 2, 0, 1, 0, 0, 0, 0, 0)
    f = GradedPoly({_mono_key(mono, n): 1})
    got = apply_derivation_poly(A, f)
    assert got.terms == {_mono_key(m, n): c for m, c in
                         dense_derivation_image(A, mono, n).items()}
    assert got.terms and all(dict(m)[xvar(1, 2)] == 2 for m in got.terms)
    p = GradedPoly.var(pvar("a"))
    assert apply_derivation_poly(A, p * f) == p * got


def _oracle_rows(mats, n, d):
    """Rows of `derivation_rows` for the dense generator matrices, built by
    `dense_derivation_image` on exponent tuples: keyed (generator, image
    monomial), sorted, each with its nonzero entries by ascending column."""
    monos = [tuple(dict(m).get(xvar(v // n + 1, v % n + 1), 0)
                   for v in range(n * n)) for m in degree_monomials(n, d)]
    rows: dict = {}
    for a, A in enumerate(mats):
        for c, mono in enumerate(monos):
            for image, coeff in dense_derivation_image(A, mono, n).items():
                rows.setdefault((a, _mono_key(image, n)), {})[c] = coeff
    return [list(rows[key].items()) for key in sorted(rows)]


def test_derivation_rows_match_dense_oracle():
    """The one-pass equation rows against the dense derivation, entry for
    entry and in row order: every closed SL_3 set at d <= 3, SL_4 set at
    d <= 2 and B_2, C_2 root set at d <= 2 (the empty set has no generator
    and builds no rows), and a diagonal generator whose images of x11 x12
    cancel, so that no row of its image is kept."""
    cases = [(pair_generators(S), n, dmax)
             for n, dmax in ((3, 3), (4, 2)) for S in closed_subsets(n)]
    for family in ("B", "C"):
        pos = positive_roots(family, 2).positive_roots
        n = len(root_subgroup_matrix(family, 2, pos[0]))
        cases += [([root_subgroup_matrix(family, 2, r) for r in combo], n, 2)
                  for size in range(len(pos) + 1)
                  for combo in itertools.combinations(pos, size)
                  if oracle_roots_closed(combo, pos)]
    diag = [[Q1, Q0], [Q0, -Q1]]
    cases.append(([diag, eij(2, 1, 2)], 2, 3))
    assert len(cases) == 7 + 40 + 12 + 12 + 1  # closed SL_3, SL_4, B_2, C_2
    for mats, n, dmax in cases:
        if not mats:
            continue
        supports = [column_support(A) for A in mats]
        for d in range(1, dmax + 1):
            got = derivation_rows(supports, degree_monomials(n, d))
            assert [list(row.items()) for row in got] == _oracle_rows(
                mats, n, d), (mats, d)
    x11x12 = ((xvar(1, 1), 1), (xvar(1, 2), 1))
    assert derivation_rows([column_support(diag)], [x11x12]) == []


def test_minor_poly_convention():
    # columns {1,2}, rows {1,2}: x11 x22 - x12 x21
    det2 = minor_poly([1, 2], [1, 2])
    assert det2 == x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1)
    # columns {1,3}, rows {1,2} of a 3x3: entries from those slots only
    m = minor_poly([1, 3], [1, 2])
    assert m == x(1, 1) * x(2, 3) - x(1, 3) * x(2, 1)


def test_is_invariant_minor_examples():
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    cols = column_sets(S, "A", 3)
    assert is_invariant_minor(Minor((1, 3), (1, 2)), cols)
    assert not is_invariant_minor(Minor((3,), (1,)), cols)
    empty_cols = column_sets(ClosedSubset(4, frozenset()), "A", 3)
    for size in (1, 2, 3):
        for columns in itertools.combinations(range(1, 5), size):
            assert is_invariant_minor(Minor(columns, tuple(range(1, size + 1))),
                                      empty_cols)


def test_criterion_matches_derivation():
    # combinatorial criterion == symbolic derivation test, all closed S, n<=3
    for n in (2, 3):
        for S in closed_subsets(n):
            cols = column_sets(S, "A", n - 1)
            mats = pair_generators(S)
            for size in range(1, n + 1):
                for columns in itertools.combinations(range(1, n + 1), size):
                    for rows in itertools.combinations(range(1, n + 1), size):
                        m = Minor(columns, rows)
                        symbolic = all(
                            apply_derivation_poly(A, m.poly()) == 0
                            for A in mats)
                        assert symbolic == is_invariant_minor(m, cols), (
                            S.sorted_pairs(), columns, rows)


def test_principal_column_sets_example():
    S = ClosedSubset(4, frozenset({(1, 3), (2, 4)}))
    cols = column_sets(S, "A", 3)
    sets = principal_column_sets(cols, (1, 2, 3, 4))
    expected = [{1}, {2}, {1, 2}, {1, 3}, {2, 4}, {1, 2, 3}, {1, 2, 3, 4}]
    assert [set(s) for s in sets] == sorted(
        (set(e) for e in expected), key=lambda s: (len(s), sorted(s)))


def test_principal_column_sets_full_borel():
    n = 3
    S = ClosedSubset(n, frozenset({(1, 2), (1, 3), (2, 3)}))
    cols = column_sets(S, "A", n - 1)
    sets = principal_column_sets(cols, (1, 2, 3))
    assert [set(s) for s in sets] == [{1}, {1, 2}, {1, 2, 3}]


def test_principal_column_sets_so4():
    roots = [parse_root("L1-L2", 4), parse_root("L1+L2", 4)]
    S = closed_subset_from_roots("D", 2, roots)
    cols = column_sets(S, "D", 2)
    sets = principal_column_sets(cols, (1, 2, 4, 3), index_set=(3, 4))
    assert {frozenset({1, 4})} <= set(sets)
    assert [set(s) for s in sets] == [
        {1}, {1, 2}, {1, 4}, {1, 2, 4}, {1, 2, 3, 4}]


def test_principal_minors_pass_criterion():
    for n in (2, 3, 4):
        for S in closed_subsets(n):
            cols = column_sets(S, "A", n - 1)
            for m in principal_minors(cols, tuple(range(1, n + 1))):
                assert is_invariant_minor(m, cols)


def test_invariant_space_sl2():
    S = ClosedSubset(2, frozenset({(1, 2)}))
    s1 = invariant_space(S, "A", 1, 1)
    assert s1.dimension == 2
    basis_polys = {repr(f) for f in s1.basis}
    assert basis_polys == {"x[1,1]", "x[2,1]"}
    s2 = invariant_space(S, "A", 1, 2)
    assert s2.dimension == 4


def test_invariant_space_empty_subset():
    for n in (2, 3):
        S = ClosedSubset(n, frozenset())
        sp = invariant_space(S, "A", n - 1, 1)
        assert sp.dimension == n * n


def test_invariant_space_matches_dense_oracle():
    # independent dense elimination oracle, SL_2 and SL_3 sweeps
    for n, dmax in ((2, 3), (3, 3)):
        subs = closed_subsets(n)
        for S in subs:
            mats = pair_generators(S)
            for d in range(1, dmax + 1):
                got = invariant_space(S, "A", n - 1, d).dimension
                want = oracle_invariant_dimension(mats, n, d)
                assert got == want, (S.sorted_pairs(), d)


@pytest.mark.parametrize("n,dmax", [(2, 4), (3, 4), (4, 3)])
def test_full_borel_invariants_match_hook_content(n, dmax):
    """The full Borel's invariants in degree d have the dimension
    sum of dim V_lambda over lambda |- d with at most n rows."""
    S = ClosedSubset(n, frozenset(itertools.combinations(range(1, n + 1), 2)))
    for d in range(1, dmax + 1):
        assert (invariant_space(S, "A", n - 1, d).dimension
                == polynomial_unipotent_invariants(n, d)), d


def test_invariant_equations_are_int(monkeypatch):
    """Generator supports are integral, so the SL_4 equations are assembled
    in int, before `SparseMatrix.from_rows` could narrow them, and reach
    the elimination with int entries only."""
    solve, build = usinv.invars.nullspace, SparseMatrix.from_rows
    rows, seen = [], []

    def recording_build(built, cols):
        rows.extend(built)
        return build(built, cols)

    def recording_solve(m):
        seen.append(m)
        return solve(m)

    monkeypatch.setattr(SparseMatrix, "from_rows",
                        staticmethod(recording_build))
    monkeypatch.setattr(usinv.invars, "nullspace", recording_solve)
    for S in closed_subsets(4)[1::6]:
        invariant_space(S, "A", 3, 2)
    assert len(seen) == 7 and all(m.entries for m in seen)
    assert all(type(v) is int for row in rows for v in row.values())
    assert all(type(v) is int for m in seen for v in m.entries.values())


def test_invariant_space_monotone_in_subset():
    n = 3
    small = ClosedSubset(n, frozenset({(1, 3)}))
    big = ClosedSubset(n, frozenset({(1, 2), (1, 3)}))
    for d in (1, 2, 3):
        ds = invariant_space(small, "A", 2, d).dimension
        db = invariant_space(big, "A", 2, d).dimension
        assert db <= ds


def test_invariant_space_cap(monkeypatch):
    S = ClosedSubset(3, frozenset())
    monkeypatch.setenv("USINV_CAP", "10")
    with pytest.raises(CostError, match="USINV_CAP"):
        invariant_space(S, "A", 2, 3)


def test_cap_env_override(monkeypatch):
    S = ClosedSubset(3, frozenset())
    monkeypatch.setenv("USINV_CAP", "10")
    with pytest.raises(CostError):
        invariant_space(S, "A", 2, 3)
    monkeypatch.setenv("USINV_CAP", "100000")
    assert invariant_space(S, "A", 2, 2).dimension == 45


def test_invariants_closed_under_derivation_products():
    # spot check: the span used by the generation check is derivation-closed
    S = ClosedSubset(2, frozenset({(1, 2)}))
    mats = pair_generators(S)
    cols = column_sets(S, "A", 1)
    minors = principal_minors(cols, (1, 2))
    for m1, m2 in itertools.combinations(minors, 2):
        prod = m1.poly() * m2.poly()
        for A in mats:
            assert apply_derivation_poly(A, prod) == 0


def test_generation_check_sl2():
    S = ClosedSubset(2, frozenset({(1, 2)}))
    rep = generation_check(S, "A", 1, 2, slack=0)
    assert rep.covered and not rep.undecided
    empty = ClosedSubset(2, frozenset())
    rep2 = generation_check(empty, "A", 1, 1, slack=0)
    assert rep2.covered


def test_generation_check_family_guard():
    roots = [parse_root("L1-L2", 4)]
    S = closed_subset_from_roots("D", 2, roots)
    with pytest.raises(InvariantError):
        generation_check(S, "D", 2, 2)
