"""Exact Lie-algebra stabilizers of wedge points and weighted points, and
comparison against the span of the root generators of S.

For a weighted point the system is assembled by reduction: surviving flag
summands force A f_k = 0; any surviving weighted summand forces every flag
wedge to be an eigenvector of A, after which the summand contributes
A q_j + alpha_j * (sum of flag traces) q_j = 0.  The reduction is unit-tested
against a direct tensor expansion at small alpha.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import (Matrix, MultiVector, Q0, Q1, SelfCheckError, SparseMatrix,
                    column_support, leibniz, nullspace, spans_equal,
                    wedge_apply)
from .invars import subset_derivation_matrices
from .points import WeightedPoint
from .rootsys import MatrixLieData
from .subsets import ClosedSubset


class StabilizerError(ValueError):
    pass


@dataclass
class StabilizerReport:
    dimension: int
    basis: list                      # matrices spanning {A in g : A.p = 0}
    algebra_dim: int
    equals_uS: Optional[bool] = None
    nilpotent_part_equals_uS: Optional[bool] = None
    us_dimension: Optional[int] = None

    def to_json(self) -> dict:
        from .exact import frac_str
        out = {
            "dimension": self.dimension,
            "algebra_dim": self.algebra_dim,
            "basis": [[[frac_str(e) for e in row] for row in B]
                      for B in self.basis],
        }
        if self.equals_uS is not None:
            out["equals_uS"] = self.equals_uS
        if self.nilpotent_part_equals_uS is not None:
            out["nilpotent_part_equals_uS"] = self.nilpotent_part_equals_uS
        if self.us_dimension is not None:
            out["us_dimension"] = self.us_dimension
        return out


def _diagonal_prefixes(support: list, sigma: tuple, levels: int) -> list:
    """Traces of the first k flag vectors in sigma-order, k = 1..levels."""
    diag = {j: a for j, col in enumerate(support, start=1)
            for r, a in col if r == j}
    return list(itertools.accumulate(
        (diag.get(j, Q0) for j in sigma[:levels]), initial=Q0))[1:]


def _weighted_equations(p: WeightedPoint, supports: Sequence[list]):
    """Rows of the linear system for a weighted point (or a limit of one),
    one column per basis element given by its column support."""
    rows: dict = {}

    def put(key, col, val):
        if val:
            row = rows.setdefault(key, {})
            row[col] = row[col] + val if col in row else val

    live = [s for s in p.summands if not s.is_zero()]
    flags = [p.flag_tuple(k) for k in range(1, p.levels + 1)]
    for r, support in enumerate(supports):
        prefixes = _diagonal_prefixes(support, p.sigma, p.levels)
        for k, ft in enumerate(flags, start=1):
            image = leibniz(support, {ft: Q1})
            if p.flag_coeffs[k - 1]:
                # surviving flag component: A f_k = 0
                kind = "flag"
            elif live:
                # flag wedge must be an eigenvector of A
                kind = "eig"
                image[ft] = image.get(ft, Q0) - prefixes[k - 1]
            else:
                continue
            for t, c in image.items():
                put((kind, k, t), r, c)
        if live:
            T = sum(prefixes, start=Q0)
            for s in live:
                image = leibniz(support, s.comps)
                for t, c in s.comps.items():
                    image[t] = image.get(t, Q0) + s.alpha * T * c
                for t, c in image.items():
                    put(("sum", s.label, t), r, c)
    return rows


def _multivector_equations(p: MultiVector, supports: Sequence[list]):
    rows: dict = {}
    live = [(idx, s) for idx, s in enumerate(p.summands) if not s.is_zero()]
    for r, support in enumerate(supports):
        for idx, s in live:
            for t, c in leibniz(support, s.comps).items():
                rows.setdefault(("mv", idx, t), {})[r] = c
    return rows


def _combine(supports: Sequence[list], coeffs: Sequence, n: int) -> Matrix:
    """The n x n matrix sum_r coeffs[r] * B_r, from the column supports."""
    M = [[Q0] * n for _ in range(n)]
    for support, c in zip(supports, coeffs):
        if c:
            for j, col in enumerate(support):
                for i, a in col:
                    M[i - 1][j] += c * a
    return M


def lie_stabilizer(p, algebra: MatrixLieData) -> StabilizerReport:
    """Solve A.p = 0 for A in the span of the algebra basis."""
    if isinstance(p, MultiVector):
        equations = _multivector_equations
    elif isinstance(p, WeightedPoint):
        equations = _weighted_equations
    else:
        raise StabilizerError(f"unsupported point type {type(p).__name__}")
    if p.n != algebra.n:
        raise StabilizerError("dimension mismatch")
    if p.is_zero():
        raise StabilizerError("point is zero")
    supports = [column_support(B) for B in algebra.basis]
    rows = equations(p, supports)
    d = len(algebra.basis)
    matrix = SparseMatrix.from_rows([rows[k] for k in sorted(rows)], d)
    basis = [_combine(supports, vec, algebra.n) for vec in nullspace(matrix)]
    # re-derive the equations from the reported matrices, one column each
    if not _all_zero(equations(p, [column_support(M) for M in basis])):
        raise SelfCheckError("reported basis element fails to annihilate")
    return StabilizerReport(dimension=len(basis), basis=basis, algebra_dim=d)


def annihilates(A: Matrix, p) -> bool:
    """Exact check that the derivation action of A kills p."""
    if isinstance(p, MultiVector):
        return wedge_apply(A, p, mode="derivation").is_zero()
    return _all_zero(_weighted_equations(p, [column_support(A)]))


def _all_zero(rows: dict) -> bool:
    return not any(v for row in rows.values() for v in row.values())


def _flatten(M: Matrix) -> dict:
    return {(i, j): M[i][j] for i in range(len(M)) for j in range(len(M))
            if M[i][j]}


def _strict_upper_positions(n: int, sigma: tuple) -> list:
    inv = {v: i for i, v in enumerate(sigma)}
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
            if inv[i] < inv[j]]


def nilpotent_intersection(report: StabilizerReport, sigma: tuple) -> list:
    """Basis of the stabilizer's intersection with the strictly triangular
    part in sigma-order."""
    if not report.basis:
        return []
    n = len(report.basis[0])
    upper = set(_strict_upper_positions(n, sigma))
    supports = [column_support(M) for M in report.basis]
    rows = {}
    for r, support in enumerate(supports):
        for j, col in enumerate(support, start=1):
            for i, a in col:
                if (i, j) not in upper:
                    rows.setdefault((i, j), {})[r] = a
    matrix = SparseMatrix.from_rows([rows[k] for k in sorted(rows)],
                                    len(report.basis))
    return [_combine(supports, vec, n) for vec in nullspace(matrix)]


def compare_uS(report: StabilizerReport, subset: ClosedSubset, family: str,
               rank: int, sigma: Optional[tuple] = None) -> tuple:
    """(full equality, nilpotent-part equality) of the stabilizer vs u_S."""
    from .rootsys import flag_permutation
    us = subset_derivation_matrices(subset, family, rank)
    us_vecs = [_flatten(M) for M in us]
    stab_vecs = [_flatten(M) for M in report.basis]
    full = spans_equal(stab_vecs, us_vecs)
    sigma = sigma or flag_permutation(family, rank)
    nil = nilpotent_intersection(report, sigma)
    nil_eq = spans_equal([_flatten(M) for M in nil], us_vecs)
    report.equals_uS = full
    report.nilpotent_part_equals_uS = nil_eq
    report.us_dimension = len(us)
    return full, nil_eq


def is_strictly_triangular(M: Matrix, sigma: tuple) -> bool:
    n = len(M)
    upper = set(_strict_upper_positions(n, sigma))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if M[i - 1][j - 1] and (i, j) not in upper:
                return False
    return True
