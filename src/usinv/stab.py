"""Exact Lie-algebra stabilizers of points, and comparison against the span
of the root generators of S.

One equation builder serves every point.  Each summand q_j contributes
A q_j + alpha_j * (sum of flag traces) q_j = 0.  On a point with flag levels
the system is assembled by reduction: surviving flag summands force
A f_k = 0, and any surviving summand forces every flag wedge to be an
eigenvector of A, whose eigenvalues give the traces.  On a point with no flag
levels there are no flag rows and every trace is 0, so the rows are the
derivation images A q_j = 0.  The reduction is unit-tested against a direct
tensor expansion at small alpha.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exact import (Matrix, MultiVector, RowEchelon, SelfCheckError,
                    SparseMatrix, column_index, column_support, frac_str,
                    int_if_integral, leibniz, nullspace, wedge_apply)
from .points import flag_prefix_sums
from .rootsys import MatrixLieData, positive_roots, root_index
from .subsets import ClosedSubset, subset_basis_indices


class StabilizerError(ValueError):
    pass


class StabilizerReport:
    def __init__(self, dimension: int, basis: list, algebra_dim: int,
                 kernel: list, equals_uS: Optional[bool] = None,
                 nilpotent_part_equals_uS: Optional[bool] = None,
                 us_dimension: Optional[int] = None):
        self.dimension = dimension
        self.basis = basis  # matrices spanning {A in g : A.p = 0}
        self.algebra_dim = algebra_dim
        # nonzero coordinates {index: value} of each basis matrix in the
        # algebra basis; not serialized
        self.kernel = kernel
        self.equals_uS = equals_uS
        self.nilpotent_part_equals_uS = nilpotent_part_equals_uS
        self.us_dimension = us_dimension

    def to_json(self) -> dict:
        out = {
            "dimension": self.dimension,
            "algebra_dim": self.algebra_dim,
            "basis": [[list(map(frac_str, row)) for row in B]
                      for B in self.basis],
        }
        if self.equals_uS is not None:
            out["equals_uS"] = self.equals_uS
        if self.nilpotent_part_equals_uS is not None:
            out["nilpotent_part_equals_uS"] = self.nilpotent_part_equals_uS
        if self.us_dimension is not None:
            out["us_dimension"] = self.us_dimension
        return out


def _equations(p: MultiVector, supports: Sequence[list]):
    """Rows of the linear system for a point (or a limit of one), one column
    per basis element given by its column support.  A point with no flag
    levels gives only the derivation rows of its summands.  Integral
    coefficients stay int throughout."""
    rows: dict = {}
    index = column_index(supports, p.n)
    live = [(idx, s, _integral(s.comps))
            for idx, s in enumerate(p.summands) if not s.is_zero()]
    for k in range(1, p.levels + 1):
        if p.flag_coeffs[k - 1]:
            # surviving flag component: A f_k = 0
            kind = "flag"
        elif live:
            # flag wedge must be an eigenvector of A: its diagonal terms
            # give the eigenvalue, so only the others must vanish
            kind = "eig"
        else:
            continue
        ft = p.flag_tuple(k)
        for r, image in leibniz(index, {ft: 1}).items():
            for t, c in image.items():
                if kind == "flag" or t != ft:
                    rows.setdefault((kind, k, t), {})[r] = c
    # sum of the flag eigenvalues, for the basis elements with diagonal
    # entries; any other element, and every element when there are no flag
    # levels, has eigenvalue 0 on every flag wedge
    traces: dict = {}
    if live and p.levels:
        diagonals: dict = {}
        for j, col in enumerate(index, start=1):
            for r, i, a in col:
                if i == j:
                    diagonals.setdefault(r, {})[j] = a
        traces = {r: sum(flag_prefix_sums(diag, p.sigma, p.levels))
                  for r, diag in diagonals.items()}
    for idx, s, comps in live:
        images = leibniz(index, comps)
        for r, T in traces.items():
            image = images.setdefault(r, {})
            for t, c in comps.items():
                image[t] = image.get(t, 0) + s.alpha * T * c
        for r, image in images.items():
            for t, c in image.items():
                if c:
                    rows.setdefault(("sum", idx, t), {})[r] = c
    return rows


def _integral(comps: dict) -> dict:
    return {t: int_if_integral(c) for t, c in comps.items()}


def _combine(supports: Sequence[list], coeffs: dict, n: int) -> Matrix:
    """The n x n matrix sum_r coeffs[r] * B_r over the nonzero coordinates
    {r: coeffs[r]}, from the column supports."""
    M = [[0] * n for _ in range(n)]
    for r, c in coeffs.items():
        for j, col in enumerate(supports[r]):
            for i, a in col:
                M[i - 1][j] += c * a
    return M


def lie_stabilizer(p: MultiVector, algebra: MatrixLieData) -> StabilizerReport:
    """Solve A.p = 0 for A in the span of the algebra basis."""
    if p.n != algebra.n:
        raise StabilizerError("dimension mismatch")
    if p.is_zero():
        raise StabilizerError("point is zero")
    supports = algebra.supports
    rows = _equations(p, supports)
    d = len(algebra.basis)
    matrix = SparseMatrix.from_rows([rows[k] for k in sorted(rows)], d)
    kernel = [{k: c for k, c in enumerate(vec) if c}
              for vec in nullspace(matrix)]
    basis = [_combine(supports, vec, algebra.n) for vec in kernel]
    # re-derive the equations from the reported matrices, one column each
    if not _all_zero(_equations(p, [column_support(M) for M in basis])):
        raise SelfCheckError("reported basis element fails to annihilate")
    return StabilizerReport(dimension=len(basis), basis=basis, algebra_dim=d,
                            kernel=kernel)


def annihilates(A: Matrix, p: MultiVector) -> bool:
    """Exact check that the derivation action of A kills p.  A point with no
    flag levels is checked by `wedge_apply`, independently of `_equations`."""
    if len(A) != p.n or any(len(row) != p.n for row in A):
        raise ValueError(f"matrix must be {p.n} x {p.n} for this point")
    if not p.levels:
        return wedge_apply(A, p, mode="derivation").is_zero()
    return _all_zero(_equations(p, [column_support(A)]))


def _all_zero(rows: dict) -> bool:
    return not any(v for row in rows.values() for v in row.values())


def _spans_coordinates(supports: list, us: set) -> bool:
    """Whether independent vectors with these supports span exactly the
    coordinate subspace on the indices in us."""
    return len(supports) == len(us) and all(s <= us for s in supports)


def compare_uS(report: StabilizerReport, subset: ClosedSubset, family: str,
               rank: int) -> tuple:
    """(full equality, nilpotent-part equality) of the stabilizer vs u_S,
    decided in the coordinates of lie_algebra(family, rank), where u_S is
    spanned by the basis elements of S.  Positive root vectors are strictly
    upper triangular in flag order, negative ones strictly lower and the
    torus diagonal, so the nilpotent part is the stabilizer's meet with the
    span of the positive root coordinates."""
    us = set(subset_basis_indices(subset, family, rank))
    positive = {root_index(family, rank, r)
                for r in positive_roots(family, rank).positive_roots}
    # keys off the positive roots sort first, so the echelon rows pivoting on
    # a positive root coordinate span the meet with those coordinates
    ech = RowEchelon()
    for vec in report.kernel:
        ech.add({(k in positive, k): c for k, c in vec.items()})
    rows = [({k for _, k in row}, nilpotent)
            for (nilpotent, _), row in ech.pivots.items()]
    full = _spans_coordinates([s for s, _ in rows], us)
    nil_eq = _spans_coordinates([s for s, nilpotent in rows if nilpotent], us)
    report.equals_uS = full
    report.nilpotent_part_equals_uS = nil_eq
    report.us_dimension = len(us)
    return full, nil_eq
