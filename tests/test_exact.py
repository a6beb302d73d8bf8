"""Exact substrate: polynomials, wedge algebra, nullspace."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from usinv.exact import (GradedPoly, MultiVector, Q0, Q1, RowEchelon,
                         SparseMatrix, Summand, column_index, column_support,
                         eij, exp_nilpotent, identity, int_if_integral,
                         leibniz, mat_add, mat_mul, mat_scale, nullspace, pvar,
                         sort_wedge, spans_equal, wedge_apply)
from usinv.points import build_point
from usinv.rootsys import MatrixLieData, lie_algebra, parse_root
from usinv.stab import lie_stabilizer
from usinv.statements import single_linear_parameter, substitute
from usinv.subsets import ClosedSubset, closed_subset_from_roots
from helpers import (_wedge_derivation, dense_kernel, dense_nullity,
                     dense_rank, dense_rref, random_rational_matrix,
                     whole_matrix_nullspace)


def test_poly_arithmetic():
    a = GradedPoly.var(pvar("a"))
    b = GradedPoly.var(pvar("b"))
    f = (a + b) * (a - b)
    assert f == a * a - b * b
    assert f - f == 0
    assert not GradedPoly.const(0)
    assert GradedPoly.const(Fraction(3, 2)).constant_value() == Fraction(3, 2)


def test_poly_substitute():
    a, b = GradedPoly.var(pvar("a")), GradedPoly.var(pvar("b"))
    f = a * a * b + 2 * b
    g = substitute(f, {pvar("a"): Fraction(1, 2)})
    assert g == Fraction(1, 4) * b + 2 * b
    # polynomial substitution
    h = substitute(f, {pvar("a"): b})
    assert h == b * b * b + 2 * b


def test_poly_single_linear_parameter():
    a = GradedPoly.var(pvar("a"))
    assert single_linear_parameter(a) == pvar("a")
    assert single_linear_parameter(-3 * a) == pvar("a")
    assert single_linear_parameter(a + 1) is None
    assert single_linear_parameter(a * a) is None


def test_sort_wedge():
    assert sort_wedge((1, 3)) == ((1, 3), 1)
    assert sort_wedge((3, 1)) == ((1, 3), -1)
    assert sort_wedge((2, 2)) == ((2, 2), 0)
    assert sort_wedge((3, 1, 2)) == ((1, 2, 3), 1)


def test_wedge_apply_identity():
    v = MultiVector.pure(4, [((1, 3), "w"), ((2,), "u")])
    w = wedge_apply(identity(4), v, mode="group")
    assert w == v


def test_wedge_derivation_repeated_factor_dies():
    # E_{13} sends e_3 to e_1; e_1 ^ e_1 = 0
    v = MultiVector.pure(3, [((1, 3), "w")])
    w = wedge_apply(eij(3, 1, 3), v, mode="derivation")
    assert w.is_zero()


def test_wedge_apply_refuses_misshaped_matrix():
    v = MultiVector.pure(3, [((1, 3), "w")])
    wide = [row + [Q1] for row in identity(3)]   # 3 x 4
    narrow = [row[:2] for row in identity(3)]    # 3 x 2
    tall = identity(3) + [[Q1, Q0, Q0]]          # 4 x 3
    for A in (wide, narrow, tall, identity(2)):
        for mode in ("group", "derivation"):
            with pytest.raises(ValueError, match="3 x 3"):
                wedge_apply(A, v, mode=mode)


def test_wedge_apply_refuses_flag_levels():
    """The image of a point with flag levels would lose its flag part and
    its alpha powers, so both modes refuse such a point."""
    v = build_point(ClosedSubset(3, frozenset({(1, 2)})), "A", 2,
                    alpha="minimal")
    assert v.levels
    for mode in ("group", "derivation"):
        with pytest.raises(ValueError, match="flag levels"):
            wedge_apply(identity(3), v, mode=mode)


def test_wedge_derivation_single_survivor():
    # E_{12} on e_2 ^ e_4 -> e_1 ^ e_4
    v = MultiVector.pure(4, [((2, 4), "w")])
    w = wedge_apply(eij(4, 1, 2), v, mode="derivation")
    assert w == MultiVector.pure(4, [((1, 4), "w")])


def _sparse_random_matrix(n, rng):
    """random_rational_matrix with about half the entries cleared, and a
    negative non-unit diagonal entry so every branch of the support shows."""
    A = random_rational_matrix(n, rng)
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.5:
                A[i][j] = Q0
    k = rng.randrange(n)
    A[k][k] = Fraction(-rng.randint(2, 5), rng.randint(2, 3))
    return A


def test_column_support_lists_nonzero_entries_by_column():
    A = [[Q0, Fraction(2)], [Fraction(-1, 3), Q0], [Q1, Fraction(5, 2)]]
    assert column_support(A) == [[(2, Fraction(-1, 3)), (3, Q1)],
                                 [(1, Fraction(2)), (3, Fraction(5, 2))]]
    assert column_support([[Q0, Q0], [Q0, Q0]]) == [[], []]


def test_wedge_derivation_matches_oracle_sweep():
    """Derivation mode against the slot-by-slot oracle of tests/helpers, over
    seeded sparse and dense rational matrices and multi-term wedges."""
    rng = random.Random(2024)
    checked = 0
    for n in range(2, 6):
        for trial in range(8):
            A = (random_rational_matrix(n, rng) if trial % 2
                 else _sparse_random_matrix(n, rng))
            for k in range(1, n + 1):
                tuples = list(itertools.combinations(range(1, n + 1), k))
                comps = {t: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                     rng.randint(1, 4))
                         for t in rng.sample(tuples, min(3, len(tuples)))}
                v = MultiVector(n, [Summand(k, "w", dict(comps))])
                got = wedge_apply(A, v, mode="derivation").summands[0].comps
                want: dict = {}
                for t, c in comps.items():
                    for key, val in _wedge_derivation(A, t, n).items():
                        want[key] = want.get(key, Q0) + c * val
                assert got == {t: c for t, c in want.items() if c}
                checked += 1
    assert checked == 8 * (2 + 3 + 4 + 5)


def _nonzero(image: dict) -> dict:
    return {t: c for t, c in image.items() if c}


def _oracle_images(matrices, comps, n) -> list:
    """Per matrix, the sum of c times the slot-by-slot oracle image of t."""
    out = []
    for A in matrices:
        want: dict = {}
        for t, c in comps.items():
            for key, val in _wedge_derivation(A, t, n).items():
                want[key] = want.get(key, Q0) + c * val
        out.append(_nonzero(want))
    return out


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3),
                                         ("D", 3)])
def test_leibniz_all_basis_matches_oracle(family, rank):
    """One pass per tuple gives every basis element's image: each agrees with
    the slot-by-slot oracle of tests/helpers on every wedge tuple of degree
    at most 3."""
    algebra = lie_algebra(family, rank)
    n = algebra.n
    index = column_index(algebra.supports, n)
    checked = 0
    for k in range(1, 4):
        for t in itertools.combinations(range(1, n + 1), k):
            images = leibniz(index, {t: 1})
            assert set(images) <= set(range(len(algebra.basis)))
            want = _oracle_images(algebra.basis, {t: Q1}, n)
            for r, w in enumerate(want):
                assert _nonzero(images.get(r, {})) == w, (t, r)
                checked += 1
    assert checked == len(algebra.basis) * sum(comb(n, k) for k in (1, 2, 3))


def test_leibniz_random_supports_match_oracle():
    """Random rational matrices with diagonal entries, rows that repeat a
    factor of the tuple, a repeated matrix and multi-term wedges whose
    images can cancel: each matrix's image agrees with the oracle."""
    rng = random.Random(31)
    for n in range(2, 6):
        for trial in range(6):
            matrices = [_sparse_random_matrix(n, rng) for _ in range(3)]
            matrices.append(random_rational_matrix(n, rng))
            matrices.append(matrices[0])
            index = column_index([column_support(A) for A in matrices], n)
            for k in range(1, n + 1):
                tuples = list(itertools.combinations(range(1, n + 1), k))
                comps = {t: Fraction(rng.choice([-2, -1, 1, 3]),
                                     rng.randint(1, 3))
                         for t in rng.sample(tuples, min(3, len(tuples)))}
                images = leibniz(index, comps)
                want = _oracle_images(matrices, comps, n)
                for r, w in enumerate(want):
                    assert _nonzero(images.get(r, {})) == w, (n, trial, k, r)
                assert images.get(4, {}) == images.get(0, {})


def test_group_mode_multiplicative():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(3):
            A = random_rational_matrix(n, rng)
            B = random_rational_matrix(n, rng)
            v = MultiVector.pure(n, [(tuple(range(1, min(n, 2) + 1)), "w")])
            lhs = wedge_apply(mat_mul(A, B), v, mode="group")
            rhs = wedge_apply(A, wedge_apply(B, v, mode="group"), mode="group")
            assert lhs == rhs


def test_derivation_commutator_identity():
    rng = random.Random(11)
    n = 3
    A = random_rational_matrix(n, rng)
    B = random_rational_matrix(n, rng)
    bracket = mat_add(mat_mul(A, B), mat_scale(mat_mul(B, A), Fraction(-1)))
    v = MultiVector.pure(n, [((1, 2), "w"), ((2, 3), "u")])
    lhs = wedge_apply(bracket, v, mode="derivation")
    ab = wedge_apply(A, wedge_apply(B, v, mode="derivation"), mode="derivation")
    ba = wedge_apply(B, wedge_apply(A, v, mode="derivation"), mode="derivation")
    rhs = MultiVector(n, [
        Summand(sa.k, sa.label, {
            t: sa.comps.get(t, Q0) - sb.comps.get(t, Q0)
            for t in set(sa.comps) | set(sb.comps)})
        for sa, sb in zip(ab.summands, ba.summands)])
    assert lhs == rhs


def test_exp_nilpotent_entries():
    X = eij(3, 1, 2)
    M = exp_nilpotent(X, Fraction(5))
    assert M[0][1] == 5 and M[0][0] == 1 and M[2][2] == 1
    with pytest.raises(ValueError):
        exp_nilpotent(identity(2))


def _sparse(M, cols):
    return SparseMatrix.from_rows(
        [{c: x for c, x in enumerate(row) if x} for row in M], cols)


def _check_kernel(M, cols, basis):
    """M v = 0 for every basis vector, the count matches the dense nullity,
    and the basis is the canonical one: v has 1 at its own free column and 0
    at every other free column, where a column is free when it adds nothing
    to the rank of the columns before it."""
    assert len(basis) == dense_nullity(M, cols)
    free = [c for c in range(cols)
            if dense_rank([row[:c + 1] for row in M])
            == dense_rank([row[:c] for row in M])]
    assert len(free) == len(basis)
    for f, v in zip(free, basis):
        assert len(v) == cols
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in M)
        assert [v[g] for g in free] == [Q1 if g == f else Q0 for g in free]


def test_nullspace_identity_empty():
    m = SparseMatrix.from_rows([{0: 1}, {1: 1}], 2)
    assert nullspace(m) == []


def test_nullspace_one_dim():
    m = SparseMatrix.from_rows([{0: 1, 1: -1}], 2)
    assert nullspace(m) == [[Q1, Q1]]


def test_nullspace_random_rank7():
    rng = random.Random(19)
    # random 10x10 of rank 7: product of 10x7 and 7x10
    A = [[Fraction(rng.randint(-3, 3)) for _ in range(7)] for _ in range(10)]
    B = [[Fraction(rng.randint(-3, 3)) for _ in range(10)] for _ in range(7)]
    M = mat_mul(A, B)
    basis = nullspace(_sparse(M, 10))
    assert len(basis) == 3
    _check_kernel(M, 10, basis)


def test_nullspace_seeded_sweep():
    # rectangular, rank-deficient, zero rows, all-zero and zero-row matrices
    rng = random.Random(7)
    for rows in range(0, 7):
        for cols in range(1, 8):
            for _ in range(4):
                k = rng.randint(0, min(rows, cols))
                A = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(k)] for _ in range(rows)]
                B = [[Fraction(rng.randint(-2, 2)) for _ in range(cols)]
                     for _ in range(k)]
                M = [[sum((a * B[t][c] for t, a in enumerate(row)), start=Q0)
                      for c in range(cols)] for row in A]
                for r in range(rows):
                    if rng.random() < 0.2:
                        M[r] = [Q0] * cols
                _check_kernel(M, cols, nullspace(_sparse(M, cols)))
    assert nullspace(SparseMatrix.from_rows([], 3)) == [
        [Q1, Q0, Q0], [Q0, Q1, Q0], [Q0, Q0, Q1]]
    assert nullspace(SparseMatrix.from_rows([{}, {}], 2)) == [[Q1, Q0], [Q0, Q1]]


def test_row_echelon_membership():
    ech = RowEchelon()
    assert ech.add({0: Q1, 1: Q1})
    assert ech.add({1: Q1})
    assert not ech.add({0: Fraction(2)})
    assert ech.rank == 2
    assert ech.contains({0: Fraction(5), 1: Fraction(-1)})
    assert not ech.contains({2: Q1})


def test_row_echelon_fully_reduced():
    ech = RowEchelon()
    ech.add({1: 1})
    ech.add({0: 1, 1: 1})
    assert ech.pivots == {0: {0: Q1}, 1: {1: Q1}}


def test_spans_equal():
    a = [{0: Q1, 1: Q1}, {1: Q1}]
    b = [{0: Q1}, {1: Fraction(4)}]
    assert spans_equal(a, b)
    assert not spans_equal(a, [{0: Q1}])


def _exact_entries(values) -> bool:
    """Every value is an int or a Fraction: no float, and no bool standing in
    for a number."""
    return all(type(x) in (int, Fraction) for x in values)


def _pivot_entries(ech):
    return [v for row in ech.pivots.values() for v in row.values()]


def test_int_if_integral():
    assert int_if_integral(Fraction(6, 3)) == 2
    assert type(int_if_integral(Fraction(6, 3))) is int
    assert type(int_if_integral(Fraction(-4))) is int
    assert int_if_integral(Fraction(1, 2)) == Fraction(1, 2)
    assert type(int_if_integral(7)) is int
    a = GradedPoly.var(pvar("a"))
    assert int_if_integral(a) is a


def test_row_echelon_integer_rows_with_non_unit_pivots():
    # pivots 2, 3 and -6: normalizing each must divide exactly
    rows = [{0: 2, 1: 4, 2: 1}, {1: 3, 2: 1, 3: 2}, {2: -6, 3: 1, 4: 5}]
    ech = RowEchelon()
    for row in rows:
        assert ech.add(row)
    assert _exact_entries(_pivot_entries(ech))
    assert [ech.pivots[k][k] for k in sorted(ech.pivots)] == [1, 1, 1]
    assert ech.pivots[0] == {0: 1, 3: Fraction(-49, 36), 4: Fraction(-5, 36)}
    fractional = RowEchelon()
    for row in rows:
        fractional.add({k: Fraction(v) for k, v in row.items()})
    assert ech.pivots == fractional.pivots
    assert ech.contains({0: 4, 1: 11, 2: 3, 3: 2})
    assert not ech.contains({5: 1})


def test_row_echelon_unit_and_non_unit_pivots():
    """Pivots +1, -1 and non-unit ones: rows with a unit pivot stay int
    (negated for -1), the pivot rows equal the reduced echelon form computed
    densely over Fraction, and no row of the input is stored by reference."""
    dense = [[1, 0, 3, -2, 0, 1], [0, -1, 2, 0, 1, 0], [0, 0, 4, 1, -3, 2],
             [2, 1, 0, 5, 7, 0], [1, -1, 5, -2, 1, 1], [0, 0, 0, 3, 0, -6]]
    rows = [{k: v for k, v in enumerate(r) if v} for r in dense]
    ech = RowEchelon()
    seen = []
    for row in rows:
        rem = ech.reduce(row)
        if not rem:
            assert not ech.add(row)
            continue
        key = min(rem)
        seen.append(rem[key])
        assert ech.add(row)
        if rem[key] in (1, -1):
            assert ech.pivots[key] == {k: v * rem[key] for k, v in rem.items()}
            assert all(type(v) is int for v in ech.pivots[key].values())
    assert 1 in seen and -1 in seen and any(v not in (1, -1) for v in seen)
    assert ech.rank == dense_rank(dense) == 5
    assert _exact_entries(_pivot_entries(ech))
    reference = {}
    for r in dense_rref(dense):
        lead = next(k for k, v in enumerate(r) if v)
        reference[lead] = {k: v for k, v in enumerate(r) if v}
    assert ech.pivots == reference
    stored = {k: dict(row) for k, row in ech.pivots.items()}
    for row in rows:
        assert all(prow is not row for prow in ech.pivots.values())
        for k in row:
            row[k] = 99
    assert ech.pivots == stored


def test_nullspace_int_and_fraction_input_agree():
    """Integer rows (non-unit pivots 2, 3, -6 among them), the same rows as
    Fractions, and rows mixing both give one canonical basis of exact
    entries; a float anywhere, from dividing by an int pivot, fails here."""
    fixed = [[2, 4, 1, 0, 0, 1], [0, 3, 1, 2, 0, 0], [0, 0, -6, 1, 5, 3]]
    rng = random.Random(11)
    cases = [fixed]
    for rows in range(1, 6):
        for cols in range(1, 8):
            cases.append([[rng.choice((0, 0, 1, -1, 2, 3, -6))
                           for _ in range(cols)] for _ in range(rows)])
    for M in cases:
        cols = len(M[0])
        as_int = nullspace(_sparse(M, cols))
        as_frac = nullspace(_sparse([[Fraction(x) for x in row] for row in M],
                                    cols))
        mixed = nullspace(_sparse(
            [[Fraction(x, 3) * 3 if (r + c) % 2 else x
              for c, x in enumerate(row)] for r, row in enumerate(M)], cols))
        halved = nullspace(_sparse([[Fraction(x, 2) for x in row]
                                    for row in M], cols))
        assert as_int == as_frac == mixed == halved
        for basis in (as_int, as_frac, mixed, halved):
            assert all(_exact_entries(v) for v in basis)
        _check_kernel(M, cols, as_int)
    m = SparseMatrix.from_rows([{0: Fraction(4, 2), 1: Fraction(1, 2)}], 2)
    assert m.entries == {(0, 0): 2, (0, 1): Fraction(1, 2)}
    assert type(m.entries[0, 0]) is int


def _direct_sum(rng):
    """Dense rows of a seeded direct sum: a one-column block, random
    blocks, zero columns and empty rows, with the columns interleaved by a
    random permutation and the rows shuffled."""
    shapes = [(rng.randint(1, 3), 1)] + [(rng.randint(1, 5), rng.randint(1, 5))
                                          for _ in range(rng.randint(1, 4))]
    zero_cols = rng.randint(0, 2)
    cols = sum(w for _, w in shapes) + zero_cols
    perm = list(range(cols))
    rng.shuffle(perm)
    M, start = [], 0
    for height, width in shapes:
        for _ in range(height):
            row = [Q0] * cols
            for c in range(width):
                if rng.random() < 0.6:
                    row[perm[start + c]] = (Fraction(rng.randint(-3, 3),
                                                     rng.randint(1, 2))
                                            if rng.random() < 0.3
                                            else rng.randint(-3, 3))
            M.append(row)
        start += width
    M += [[Q0] * cols for _ in range(rng.randint(0, 2))]
    rng.shuffle(M)
    return M, cols


def _forced_columns(M, cols):
    """Columns forced to 0 by a row with one nonzero entry outside the
    columns forced before, to a fixed point: a dense re-scan per round."""
    forced = set()
    while True:
        new = set()
        for row in M:
            live = [c for c in range(cols) if row[c] and c not in forced]
            if len(live) == 1:
                new.add(live[0])
        if not new:
            return forced
        forced |= new


def _row_blocks(M, cols):
    """Blocks of columns joined by a shared nonzero row, only where they
    hold a nonzero row: a breadth-first search."""
    seen, blocks = set(), []
    for start in range(cols):
        if start in seen or not any(row[start] for row in M):
            continue
        block, todo = {start}, [start]
        seen.add(start)
        while todo:
            c = todo.pop()
            for row in M:
                if row[c]:
                    for c2, x in enumerate(row):
                        if x and c2 not in seen:
                            seen.add(c2)
                            block.add(c2)
                            todo.append(c2)
        blocks.append(sorted(block))
    return blocks


def _left_after_forcing(M, cols):
    """The rows of M with every forced column set to 0."""
    forced = _forced_columns(M, cols)
    return [[Q0 if c in forced else x for c, x in enumerate(row)]
            for row in M]


def _blockwise_nullspace(M, cols):
    """Kernel basis of dense rows built one block of columns at a time:
    each block's rows are eliminated alone and its basis vectors are put
    back at the block's columns; a column in no nonzero row is free."""
    by_free = {c: [Q1 if d == c else Q0 for d in range(cols)]
               for c in range(cols) if not any(row[c] for row in M)}
    for block in _row_blocks(M, cols):
        sub = [[row[c] for c in block] for row in M
               if any(row[c] for c in block)]
        pivots = {next(i for i, x in enumerate(r) if x)
                  for r in dense_rref(sub)}
        free = [block[i] for i in range(len(block)) if i not in pivots]
        basis = nullspace(_sparse(sub, len(block)))
        assert len(basis) == len(free)
        for f, v in zip(free, basis):
            vec = [Q0] * cols
            for i, x in enumerate(v):
                vec[block[i]] = x
            by_free[f] = vec
    return [by_free[f] for f in sorted(by_free)]


def _counted_nullspace(monkeypatch, m):
    """nullspace(m) and the number of RowEchelon instances it made."""
    made = []

    class Counted(RowEchelon):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr("usinv.exact.RowEchelon", Counted)
    try:
        basis = nullspace(m)
    finally:
        monkeypatch.undo()
    return basis, len(made)


def test_nullspace_block_split_matches_whole_matrix(monkeypatch):
    """The rows left over by the presolve go into one RowEchelon, and the
    basis is exactly the one got by eliminating each block of columns that
    share a row alone, of a single elimination of all rows, and of the
    dense textbook elimination."""
    rng = random.Random(23)
    split = 0
    for _ in range(100):
        M, cols = _direct_sum(rng)
        m = _sparse(M, cols)
        basis, made = _counted_nullspace(monkeypatch, m)
        blocks = len(_row_blocks(_left_after_forcing(M, cols), cols))
        assert made == 1
        split += blocks > 1
        assert basis == _blockwise_nullspace(M, cols)
        assert basis == whole_matrix_nullspace(m) == dense_kernel(M, cols)
        assert len(basis) == dense_nullity(M, cols)
        assert all(_exact_entries(v) for v in basis)
        _check_kernel(M, cols, basis)
    assert split > 10


def _value(rng):
    """A nonzero entry: a unit, a non-unit int or a Fraction."""
    return rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))


def _presolve_case(rng):
    """Dense rows of a seeded matrix made for the presolve: a chain of
    columns c0, c1, ... where row k holds c(k-1) and ck, so ck is forced
    only once c(k-1) is; a duplicated singleton on c0; a row over chain
    columns only, left empty; and rows mixing chain columns with the free
    rest, with the columns and rows shuffled."""
    depth = rng.randint(3, 5)
    cols = depth + rng.randint(0, 5)
    perm = list(range(cols))
    rng.shuffle(perm)
    chain, rest = perm[:depth], perm[depth:]
    sparse_rows = [{chain[0]: _value(rng)}, {chain[0]: _value(rng)}]
    sparse_rows += [{chain[k - 1]: _value(rng), chain[k]: _value(rng)}
                    for k in range(1, depth)]
    sparse_rows.append({c: _value(rng) for c in rng.sample(chain, 3)})
    for _ in range(rng.randint(0, 4)):
        row = {c: _value(rng) for c in rest if rng.random() < 0.5}
        row.update({c: _value(rng) for c in chain if rng.random() < 0.3})
        sparse_rows.append(row)
    rng.shuffle(sparse_rows)
    return [[row.get(c, Q0) for c in range(cols)] for row in sparse_rows], cols


def test_nullspace_presolve_sweep():
    """Forced columns, chains of rows that become singletons only once
    another column is forced, rows left empty and forced columns inside
    longer rows all give the canonical basis of the whole-matrix and dense
    eliminations, with 0 at every forced column."""
    rng = random.Random(31)
    cases = [_presolve_case(rng) for _ in range(150)]
    for _ in range(150):
        # random sparse rows, mostly singletons
        cols = rng.randint(1, 8)
        M = [[Q0] * cols for _ in range(rng.randint(0, 10))]
        for row in M:
            width = min(cols, rng.choice((1, 1, 1, 2, 3)))
            for c in rng.sample(range(cols), width):
                row[c] = _value(rng)
        cases.append((M, cols))
    # all singletons, duplicates among them, and one column left free
    cases.append(([[Q0, 2, Q0, Q0], [Fraction(1, 3), Q0, Q0, Q0],
                   [Q0, Q0, Q0, -1], [Q0, Fraction(-7, 2), Q0, Q0]], 4))
    for M, cols in cases:
        m = _sparse(M, cols)
        basis = nullspace(m)
        assert basis == whole_matrix_nullspace(m) == dense_kernel(M, cols)
        assert len(basis) == dense_nullity(M, cols)
        assert all(_exact_entries(v) for v in basis)
        _check_kernel(M, cols, basis)
        for c in _forced_columns(M, cols):
            assert all(v[c] == 0 for v in basis)
    for M, cols in cases[:150]:
        # the chain is forced whole, and its closing row is left empty
        assert len(_forced_columns(M, cols)) >= 3
    assert nullspace(_sparse(cases[-1][0], 4)) == [[Q0, Q0, Q1, Q0]]
    assert nullspace(SparseMatrix.from_rows([], 2)) == [[Q1, Q0], [Q0, Q1]]


def _flatten(M):
    return {(i, j): M[i][j] for i in range(len(M)) for j in range(len(M))
            if M[i][j]}


def test_stabilizer_of_scaled_basis_spans_the_same_algebra():
    """A MatrixLieData basis scaled by 1/2 or by 3 presents the same algebra,
    so every stabilizer has the same span, with exact entries throughout."""
    cases = [(ClosedSubset(3, frozenset({(1, 2)})), "A", 2),
             (ClosedSubset(4, frozenset({(1, 3), (2, 4)})), "A", 3),
             (ClosedSubset(4, frozenset({(1, 2), (1, 3), (1, 4), (2, 4),
                                         (3, 4)})), "A", 3),
             (closed_subset_from_roots(
                 "B", 2, [parse_root(r, 5) for r in ("L1-L2", "L1")]), "B", 2)]
    for subset, family, rank in cases:
        algebra = lie_algebra(family, rank)
        for alpha in (None, "minimal"):
            p = build_point(subset, family, rank, alpha=alpha)
            reference = lie_stabilizer(p, algebra)
            for scale in (Fraction(1, 2), 3):
                scaled = MatrixLieData(
                    algebra.n, tuple(mat_scale(B, scale) for B in algebra.basis),
                    tuple(mat_scale(T, scale) for T in algebra.torus_basis),
                    algebra.form)
                report = lie_stabilizer(p, scaled)
                assert report.dimension == reference.dimension
                assert spans_equal([_flatten(M) for M in report.basis],
                                   [_flatten(M) for M in reference.basis])
                assert all(_exact_entries(row) for M in report.basis
                           for row in M)
